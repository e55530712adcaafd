"""E14 -- fault localisation accuracy (future-work item 1).

After a Protocol II alarm, the users pool their register checkpoints
and bracket the fault.  This bench measures, across seeds and fork
times, how often the bracket is found and how tight it is -- plus the
cost knob: the checkpoint ring is the only extra client state.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from bench_common import emit
from repro.analysis import format_table
from repro.core.scenarios import build_simulation, populate_database
from repro.mtree.database import VerifiedDatabase
from repro.protocols.localization import localize_fault
from repro.protocols.protocol2 import initial_state_tag
from repro.server.attacks import ForkAttack
from repro.simulation.workload import steady_workload

SEEDS = (1, 3, 5, 7, 11, 13)


def run_localization(seed: int):
    workload = steady_workload(3, 16, spacing=4, keyspace=6,
                               write_ratio=0.6, seed=seed)
    attack = ForkAttack(victims=["user1"], fork_round=workload.horizon() // 2)
    simulation = build_simulation("protocol2", workload, attack=attack,
                                  k=4, seed=seed, keep_checkpoints=True)
    report = simulation.execute()
    if report.first_deviation_round is None or not report.detected:
        return None
    logs = {u.user_id: u.client.checkpoints.items() for u in simulation.users}
    pristine = VerifiedDatabase(order=8)
    populate_database(pristine, workload)
    result = localize_fault(initial_state_tag(pristine.root_digest()), logs)
    return simulation.server.core.judge.first_op, result


def test_localization_accuracy(capsys, benchmark):
    rows = []
    located = attempted = 0
    widths = []
    for seed in SEEDS:
        outcome = run_localization(seed)
        if outcome is None:
            continue
        attempted += 1
        true_ctr, result = outcome
        if not result.fault_found:
            rows.append([seed, true_ctr, None, None, False])
            continue
        located += 1
        lower, upper = result.bracket()
        widths.append(upper - lower)
        # ground truth uses arrival ordinals; the bracket lives in
        # branch-counter space, a few ops of slack apart on a fork
        hit = lower <= true_ctr + 1 and upper >= true_ctr - 3
        rows.append([seed, true_ctr, f"({lower}, {upper}]", upper - lower, hit])
        assert hit, (seed, true_ctr, result.bracket())

    emit(capsys, "E14_localization", format_table(
        ["seed", "true fault op", "bracket", "width", "ground truth in bracket"],
        rows,
        title="E14: fault localisation accuracy (per-op checkpoints, k=4 sync)",
    ))

    assert attempted >= 4
    assert located == attempted          # every detected fault localised
    assert max(widths) <= 2              # per-op checkpoints: 1-2 op brackets

    benchmark.pedantic(lambda: run_localization(3), rounds=3, iterations=1)
