#!/usr/bin/env python3
"""Fault localisation (the paper's future-work item 1), end to end.

Protocol II tells you THAT the server deviated; with per-operation
register checkpoints, the users can afterwards pin down WHEN.  We run
the partition attack, let the sync alarm fire, pool the checkpoint
rings, and binary-scan the prefix-consistency predicate to bracket the
fault to a single global operation.

Run:  python examples/fault_localization.py
"""

from repro.core.scenarios import build_simulation, populate_database
from repro.mtree.database import VerifiedDatabase
from repro.protocols.localization import localize_fault
from repro.protocols.protocol2 import initial_state_tag
from repro.server.attacks import ForkAttack
from repro.simulation.workload import steady_workload


def main() -> None:
    print(__doc__)
    workload = steady_workload(n_users=3, ops_per_user=16, spacing=4,
                               keyspace=6, write_ratio=0.6, seed=5)
    fork_round = workload.horizon() // 2
    attack = ForkAttack(victims=["user1"], fork_round=fork_round)
    simulation = build_simulation("protocol2", workload, attack=attack,
                                  k=4, seed=5, keep_checkpoints=True)
    report = simulation.execute()

    print(f"attack        : fork of user1 at round {fork_round}")
    print(f"detected      : {report.detected} "
          f"(round {report.detection_round}, reason: "
          f"{next(iter(report.alarms.values())).reason[:60]}...)")
    true_ctr = simulation.server.core.judge.first_op
    print(f"ground truth  : first deviating response was global operation #{true_ctr}")
    print()

    # Pool the users' checkpoint rings (out-of-band, post-alarm).
    logs = {u.user_id: u.client.checkpoints.items() for u in simulation.users}
    sizes = {user: len(log) for user, log in logs.items()}
    print(f"checkpoint logs pooled: {sizes}")

    pristine = VerifiedDatabase(order=8)
    populate_database(pristine, workload)
    result = localize_fault(initial_state_tag(pristine.root_digest()), logs)

    print(f"prefixes consistent up to global operation #{result.consistent_upto}")
    lower, upper = result.bracket()
    print(f"first inconsistent prefix at operation        #{result.inconsistent_at}")
    print()
    print(f"=> the fault happened in operations ({lower}, {upper}]")
    print(f"=> ground-truth operation #{true_ctr} inside the bracket: "
          f"{result.brackets(true_ctr)}")


if __name__ == "__main__":
    main()
