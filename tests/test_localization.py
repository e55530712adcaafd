"""Tests for fault localisation (paper future-work item 1)."""

import runpy
from pathlib import Path

import pytest

from repro.core.scenarios import build_simulation
from repro.crypto.hashing import Digest, hash_bytes
from repro.protocols.localization import (
    ORDINAL_SLACK,
    Checkpoint,
    CheckpointRing,
    localize_fault,
    prefix_consistent,
)
from repro.protocols.protocol2 import initial_state_tag
from repro.server.attacks import ForkAttack
from repro.simulation.workload import steady_workload


def tag(label: str) -> Digest:
    return hash_bytes(label.encode())


def serial_logs(initial: Digest, ops: list[str], checkpoint_every: int = 1):
    """Simulate honest per-user checkpoint logs for a serial history.

    ``ops`` is the sequence of operating users; state i is a fresh tag.
    """
    states = [initial] + [tag(f"s{i + 1}") for i in range(len(ops))]
    sigma = {user: Digest.zero() for user in set(ops)}
    last = {user: Digest.zero() for user in set(ops)}
    logs = {user: [] for user in set(ops)}
    done = {user: 0 for user in set(ops)}
    for index, user in enumerate(ops):
        sigma[user] = sigma[user] ^ states[index] ^ states[index + 1]
        last[user] = states[index + 1]
        done[user] += 1
        if done[user] % checkpoint_every == 0:
            logs[user].append(Checkpoint(gctr=index + 1, sigma=sigma[user], last=last[user]))
    return logs


class TestCheckpointRing:
    def test_bounded(self):
        ring = CheckpointRing(capacity=3)
        for i in range(10):
            ring.record(i, Digest.zero(), Digest.zero())
        assert len(ring) == 3
        assert [c.gctr for c in ring.items()] == [7, 8, 9]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CheckpointRing(capacity=1)


class TestPrefixConsistency:
    def test_honest_history_consistent_at_every_cutoff(self):
        initial = tag("s0")
        logs = serial_logs(initial, ["a", "b", "a", "c", "b", "b"])
        for cutoff in range(1, 7):
            assert prefix_consistent(initial, logs, cutoff), cutoff

    def test_empty_history(self):
        initial = tag("s0")
        assert prefix_consistent(initial, {"a": [], "b": []}, 5)

    def test_corrupted_suffix_detected(self):
        initial = tag("s0")
        logs = serial_logs(initial, ["a", "b", "a", "b"])
        # corrupt b's final checkpoint: a transition nobody produced
        final = logs["b"][-1]
        logs["b"][-1] = Checkpoint(
            gctr=final.gctr,
            sigma=final.sigma ^ tag("phantom"),
            last=final.last,
        )
        assert prefix_consistent(initial, logs, 3)
        assert not prefix_consistent(initial, logs, 4)


class TestLocalizeFault:
    def test_honest_logs_find_no_fault(self):
        initial = tag("s0")
        logs = serial_logs(initial, ["a", "b", "a", "c"])
        result = localize_fault(initial, logs)
        assert not result.fault_found
        assert result.consistent_upto == 4
        assert result.bracket() is None

    def test_fault_bracketed_exactly(self):
        """Fork after global op 3: user b continues on a phantom branch."""
        initial = tag("s0")
        logs = serial_logs(initial, ["a", "b", "a"])
        # b's 2nd op consumed a forked state the others never saw
        fork_old, fork_new = tag("fork-old"), tag("fork-new")
        b_prev = logs["b"][-1]
        logs["b"].append(Checkpoint(
            gctr=4,
            sigma=b_prev.sigma ^ fork_old ^ fork_new,
            last=fork_new,
        ))
        result = localize_fault(initial, logs)
        assert result.fault_found
        assert result.bracket() == (3, 4)

    def test_window_limits_localization(self):
        """The bounded ring only retains recent checkpoints: a fault
        older than the window cannot be bracketed (but also causes no
        spurious bracket)."""
        initial = tag("s0")
        ops = ["a", "b"] * 12
        logs = serial_logs(initial, ops)
        # corrupt an EARLY checkpoint of b, then simulate the ring
        # evicting everything before global op 12
        target = logs["b"][0]
        logs["b"][0] = Checkpoint(gctr=target.gctr,
                                  sigma=target.sigma ^ tag("phantom"),
                                  last=target.last)
        # fault is visible while the early checkpoints are retained
        assert localize_fault(initial, logs).fault_found
        windowed = {u: [c for c in log if c.gctr > 12] for u, log in logs.items()}
        result = localize_fault(initial, windowed)
        # the corrupted sigma persists in later checkpoints of b, so the
        # inconsistency is still detected -- but the bracket can only
        # point at the window edge, not the true op
        assert result.fault_found
        assert result.bracket()[1] >= 13


class TestEndToEndLocalization:
    def test_fork_localized_in_simulation(self):
        """Run the partition attack with checkpointing clients, pool the
        logs after the alarm, and check the bracket contains the true
        fault ordinal the judge recorded."""
        workload = steady_workload(3, 16, spacing=4, keyspace=6,
                                   write_ratio=0.6, seed=5)
        attack = ForkAttack(victims=["user1"], fork_round=workload.horizon() // 2)
        simulation = build_simulation("protocol2", workload, attack=attack,
                                      k=4, seed=5, keep_checkpoints=True)
        report = simulation.execute()
        assert report.detected
        true_fault_ctr = simulation.server.core.judge.first_op
        assert true_fault_ctr is not None

        logs = {
            user.user_id: user.client.checkpoints.items()
            for user in simulation.users
        }
        # The initial state tag is common knowledge: recompute it from a
        # pristine database built the same way the scenario builder did.
        from repro.core.scenarios import populate_database
        from repro.mtree.database import VerifiedDatabase

        pristine = VerifiedDatabase(order=8)
        populate_database(pristine, workload)
        initial = initial_state_tag(pristine.root_digest())

        result = localize_fault(initial, logs)
        assert result.fault_found
        # the bracket counts branch counters, the judge arrival ordinals
        assert result.brackets(true_fault_ctr)
        assert not result.brackets(result.inconsistent_at + ORDINAL_SLACK + 1)

    def test_the_example_brackets_its_ground_truth(self, capsys):
        """``examples/fault_localization.py`` runs the scenario above and
        judges its bracket with the same predicate."""
        example = Path(__file__).parent.parent / "examples" / "fault_localization.py"
        runpy.run_path(str(example), run_name="__main__")
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.endswith("inside the bracket: True"), last

    def test_honest_simulation_localizes_nothing(self):
        workload = steady_workload(3, 10, seed=6)
        simulation = build_simulation("protocol2", workload, k=100, seed=6,
                                      keep_checkpoints=True)
        report = simulation.execute()
        assert not report.detected
        from repro.mtree.database import VerifiedDatabase
        from repro.core.scenarios import populate_database
        from repro.protocols.protocol2 import initial_state_tag

        pristine = VerifiedDatabase(order=8)
        populate_database(pristine, workload)
        logs = {u.user_id: u.client.checkpoints.items() for u in simulation.users}
        result = localize_fault(initial_state_tag(pristine.root_digest()), logs)
        assert not result.fault_found
