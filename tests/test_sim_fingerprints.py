"""The simulator's behaviour, pinned.

Every protocol against every gallery attack, on one tree and on a
forest of four shards, over a clean and a lossy network, with the two
service rates and an offline user spread across the grid.  Each run is
reduced to a fingerprint -- the report's fields, the judge's counters,
a digest of every user's view transcript and of the recorded run, and
every state branch's root and counter -- and compared with
``sim_fingerprints.json``.

A change to the server step, the attack hooks or the judge that moves
any simulated run fails here.  A deliberate change regenerates the file:

    PYTHONPATH=src python tests/test_sim_fingerprints.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.core.scenarios import PROTOCOLS, build_simulation
from repro.server.attacks import (
    CompositeAttack,
    CounterReplayAttack,
    DropCommitAttack,
    ForkAttack,
    HonestBehavior,
    SignatureForgeAttack,
    StaleRootReplayAttack,
    TamperValueAttack,
)
from repro.simulation.faults import LossyNetwork
from repro.simulation.workload import epoch_workload, steady_workload

PINNED = Path(__file__).with_name("sim_fingerprints.json")
EPOCH = 12
SEED = 3

ATTACKS = {
    "honest": lambda r: HonestBehavior(),
    "fork": lambda r: ForkAttack(victims=["user1"], fork_round=r),
    "drop-commit": lambda r: DropCommitAttack(victim="user1", drop_round=r),
    "stale-root": lambda r: StaleRootReplayAttack(victim="user2", freeze_round=r),
    "tamper": lambda r: TamperValueAttack(victim="user0", tamper_round=r),
    "tamper-forged": lambda r: TamperValueAttack(
        victim="user0", tamper_round=r, forge_proof=True),
    "counter-replay": lambda r: CounterReplayAttack(victim="user0", replay_round=r),
    "signature-forge": lambda r: SignatureForgeAttack(forge_round=r),
    "composite": lambda r: CompositeAttack([
        ForkAttack(victims=["user2"], fork_round=r),
        TamperValueAttack(victim="user0", tamper_round=r + 4)]),
}

#: (shards, lossy network, service rate, an offline user)
SETTINGS = {
    "S1-clean": (1, False, None, False),
    "S1-lossy": (1, True, 1, True),
    "S4-clean": (4, False, 1, False),
    "S4-lossy": (4, True, None, False),
}


def _workload(protocol: str):
    if protocol == "protocol3":
        return epoch_workload(n_users=3, epoch_length=EPOCH, epochs=5,
                              keyspace=6, seed=SEED)
    return steady_workload(3, 8, spacing=3, keyspace=6, write_ratio=0.6,
                           seed=SEED)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def fingerprint(protocol: str, attack_name: str, setting: str) -> dict:
    shards, lossy, service_rate, offline = SETTINGS[setting]
    workload = _workload(protocol)
    attack = ATTACKS[attack_name](max(2, workload.horizon() // 4))
    network = (LossyNetwork(user_ids=workload.user_ids, loss_rate=0.2, seed=SEED)
               if lossy else None)
    simulation = build_simulation(
        protocol, workload, attack=attack, k=4, epoch_length=EPOCH,
        shards=shards, seed=SEED, service_rate=service_rate, slot_length=4,
        network=network, offline={"user2": {9, 10, 11}} if offline else None)
    report = simulation.execute(max_rounds=400)
    server = simulation.server
    judge = server.core.judge
    return {
        "rounds": report.rounds_executed,
        "alarms": {user: [alarm.round, alarm.reason]
                   for user, alarm in sorted(report.alarms.items())},
        "first_deviation_round": report.first_deviation_round,
        "deviation_ctr": judge.first_op,
        "oracle_ctr": judge.judged,
        "completion_rounds": report.completion_rounds,
        "issue_rounds": report.issue_rounds,
        "messages": [report.messages_sent, report.broadcasts_sent],
        "server_operations": report.server_operations,
        "run": _digest([(t.round, t.action) for t in report.run.actions]),
        "views": _digest([(u.user_id, u.view_transcript) for u in simulation.users]),
        "branches": {name: [state.database.root_digest().hex(), state.ctr]
                     for name, state in sorted(server.states.items())},
    }


def grid() -> list[tuple[str, str, str]]:
    return [(protocol, attack, setting) for protocol in PROTOCOLS
            for attack in ATTACKS for setting in SETTINGS]


def _key(cell: tuple[str, str, str]) -> str:
    return "/".join(cell)


def test_simulator_matches_pinned_fingerprints():
    pinned = json.loads(PINNED.read_text())
    assert sorted(pinned) == sorted(_key(cell) for cell in grid())
    differing = [_key(cell) for cell in grid()
                 if json.loads(json.dumps(fingerprint(*cell))) != pinned[_key(cell)]]
    assert not differing, f"{len(differing)} simulated runs moved: {differing[:8]}"


def test_grid_exercises_detection_and_every_branch_kind():
    """The pin is only as strong as what the grid reaches."""
    pinned = json.loads(PINNED.read_text())
    assert any(cell["alarms"] for cell in pinned.values())
    assert any(cell["first_deviation_round"] is not None and not cell["alarms"]
               for cell in pinned.values())  # the naive client misses
    branches = {name for cell in pinned.values() for name in cell["branches"]}
    assert branches == {"main", "fork", "victim", "stale"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    PINNED.write_text(json.dumps(
        {_key(cell): fingerprint(*cell) for cell in grid()},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(grid())} fingerprints to {PINNED}")
