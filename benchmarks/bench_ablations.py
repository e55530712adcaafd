"""E9 -- ablations of the design choices DESIGN.md Section 5 calls out.

* sync period k: detection delay grows with k while the sync cost
  (broadcast messages per operation) amortises as ~1/k -- the paper's
  operational trade-off knob;
* counter regression check: with it disabled, a same-user counter
  replay sails through the per-operation check (it is only caught
  later, at sync, or never for short histories) -- the measured version
  of why step 4 exists;
* flat vs tree-aggregated sync (future-work item 2): per-user sync
  traffic O(n) vs O(1).
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from bench_common import emit
from repro.analysis import format_table
from repro.core import build_simulation
from repro.protocols import protocol2
from repro.server.attacks import CounterReplayAttack, ForkAttack
from repro.simulation.workload import partitionable_workload, steady_workload


def test_ablation_sync_period(capsys, benchmark):
    """k: detection delay up, amortised sync traffic down."""
    rows = []
    broadcast_costs = {}
    delays = {}
    for k in (1, 2, 4, 8, 16):
        # honest run for the cost side
        workload = steady_workload(3, 24, spacing=3, seed=3)
        honest = build_simulation("protocol2", workload, k=k, seed=3).execute()
        assert not honest.detected
        ops = sum(honest.operations_completed.values())
        broadcast_costs[k] = honest.broadcasts_sent / ops

        # adversarial run for the delay side
        attacked_workload = partitionable_workload(k=k, seed=3)
        attack = ForkAttack(victims=attacked_workload.metadata["group_b"],
                            fork_round=attacked_workload.metadata["fork_round"])
        attacked = build_simulation("protocol2", attacked_workload,
                                    attack=attack, k=k, seed=3).execute()
        assert attacked.detected
        delays[k] = attacked.max_ops_after_deviation()
        rows.append([k, round(broadcast_costs[k], 2), delays[k]])

    emit(capsys, "E9_ablation_sync_period", format_table(
        ["k", "broadcasts / op (honest)", "ops after fork (attacked)"],
        rows,
        title="E9a: the sync-period trade-off (cost amortises, delay grows)",
    ))
    assert broadcast_costs[16] < broadcast_costs[1] / 3   # amortisation
    assert delays[16] > delays[1]                          # delayed detection
    assert all(delays[k] <= k for k in delays)             # but always bounded

    benchmark.pedantic(
        lambda: build_simulation("protocol2", steady_workload(3, 24, spacing=3, seed=3),
                                 k=4, seed=3).execute(),
        rounds=3, iterations=1)


def test_ablation_counter_check(capsys, benchmark):
    """Disable the step-4 check: the counter replay is no longer caught
    at the operation; full Protocol II catches it instantly."""

    rows = []
    outcomes = {}
    for enforce in (True, False):
        workload = steady_workload(3, 14, spacing=4, keyspace=6, seed=4)
        attack = CounterReplayAttack(victim="user0", replay_round=workload.horizon() // 3)
        simulation = build_simulation("protocol2", workload, attack=attack, k=50, seed=4)
        # The ablation takes the counter rule out where
        # XorRegisters.advance looks it up (as E15b does the tag).
        counter_rule = protocol2.reject_regression
        if not enforce:
            protocol2.reject_regression = lambda user_id, ctr, gctr: None
        try:
            report = simulation.execute()
        finally:
            protocol2.reject_regression = counter_rule
        instantly = (report.detected and report.detection_delay_rounds() is not None
                     and report.detection_delay_rounds() <= 3)
        outcomes[enforce] = (report.detected, instantly)
        rows.append(["enabled" if enforce else "DISABLED (ablation)",
                     report.detected, instantly,
                     report.detection_delay_rounds()])

    emit(capsys, "E9_ablation_counter_check", format_table(
        ["step-4 counter check", "replay detected", "caught at the operation",
         "delay (rounds)"],
        rows,
        title="E9b: the per-user counter regression check (Protocol II step 4)",
    ))
    assert outcomes[True] == (True, True)
    detected_without, instant_without = outcomes[False]
    assert not instant_without  # the per-op catch is gone

    benchmark.pedantic(
        lambda: build_simulation(
            "protocol2", steady_workload(3, 14, spacing=4, keyspace=6, seed=4),
            attack=CounterReplayAttack(victim="user0", replay_round=12),
            k=50, seed=4).execute(),
        rounds=3, iterations=1)


def test_ablation_flat_vs_aggregated_sync(capsys, benchmark):
    """Future-work item 2: per-user sync traffic, flat vs tree."""
    rows = []
    flat_traffic = {}
    tree_traffic = {}
    for n_users in (4, 8, 16):
        workload = steady_workload(n_users, 6, spacing=6, seed=5)

        flat = build_simulation("protocol2", workload, k=3, seed=5)
        flat_report = flat.execute()
        assert not flat_report.detected
        # every broadcast reaches n-1 users; normalise per sync
        flat_syncs = max(1, flat_report.broadcasts_sent // (2 * n_users + 1))
        flat_traffic[n_users] = flat_report.broadcasts_sent / flat_syncs

        tree = build_simulation("protocol2agg", workload, k=3, seed=5)
        tree_report = tree.execute()
        assert not tree_report.detected
        tree_syncs = max(1, tree_report.broadcasts_sent // 3)
        worst = max(u.client.sync_messages_received for u in tree.users)
        tree_traffic[n_users] = worst / tree_syncs

        rows.append([n_users, round(flat_traffic[n_users], 1),
                     round(tree_traffic[n_users], 1)])

    emit(capsys, "E9_ablation_aggregation", format_table(
        ["users n", "flat: broadcasts per sync", "tree: worst per-user msgs per sync"],
        rows,
        title="E9c: flat vs tree-aggregated synchronisation (per-sync traffic)",
    ))
    assert flat_traffic[16] > flat_traffic[4] * 2     # flat grows with n
    assert tree_traffic[16] <= tree_traffic[4] + 4    # tree stays constant

    benchmark.pedantic(
        lambda: build_simulation("protocol2agg",
                                 steady_workload(8, 6, spacing=6, seed=5),
                                 k=3, seed=5).execute(),
        rounds=3, iterations=1)
