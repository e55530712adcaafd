"""E15 -- exhaustive model checking of Theorem 4.2 (small models).

Randomized campaigns (E8) sample the adversary; this bench *enumerates*
it: every (operating-user sequence, serve-state pick, claimed owner)
the server can choose in a bounded model.  The theorem in miniature:

* every honest behaviour accepted (completeness, zero false alarms);
* every deviating behaviour rejected (soundness);

plus the ablation that makes the design concrete: with untagged
registers and content re-convergence allowed, exhaustive search
*rediscovers the Figure 3 attack* (a triple fork from one state by
three distinct users) -- and the tagged design closes exactly that
hole.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from bench_common import emit
from repro.analysis import format_table
from repro.analysis import modelcheck
from repro.analysis.modelcheck import model_check, model_check_protocol1
from repro.crypto.hashing import hash_bytes, hash_state
from repro.protocols import protocol2

SPACES = [
    # (users, ops, owner lies)
    (2, 4, True),
    (2, 5, False),
    (3, 4, False),
    (2, 6, False),
]


def test_exhaustive_theorem42(capsys, benchmark):
    rows = []
    total = 0
    for n_users, n_ops, lies in SPACES:
        report = model_check(n_users=n_users, n_ops=n_ops,
                             enumerate_owner_lies=lies)
        total += report.behaviours
        assert report.theorem_holds, (n_users, n_ops, report.counterexamples)
        rows.append([n_users, n_ops, lies, report.behaviours,
                     report.honest_accepted, report.deviating_rejected,
                     report.honest_rejected, report.deviating_accepted])

    emit(capsys, "E15_modelcheck", format_table(
        ["users", "ops", "owner lies", "behaviours", "honest ok",
         "deviating caught", "false alarms", "missed"],
        rows,
        title=f"E15: exhaustive Theorem 4.2 check -- {total} server behaviours, zero violations",
    ))

    # Protocol I over the same spaces (Theorem 4.1 exhaustively).
    p1_rows = []
    for n_users, n_ops in ((2, 4), (2, 5), (3, 4), (2, 6)):
        report = model_check_protocol1(n_users=n_users, n_ops=n_ops)
        assert report.theorem_holds, (n_users, n_ops)
        p1_rows.append([n_users, n_ops, report.behaviours,
                        report.honest_accepted, report.deviating_rejected,
                        report.honest_rejected, report.deviating_accepted])
    emit(capsys, "E15_modelcheck_p1", format_table(
        ["users", "ops", "behaviours", "honest ok", "deviating caught",
         "false alarms", "missed"],
        p1_rows,
        title="E15c: exhaustive Theorem 4.1 check (Protocol I, count-based sync)",
    ))

    benchmark.pedantic(
        lambda: model_check(n_users=2, n_ops=4, enumerate_owner_lies=True),
        rounds=3, iterations=1)


def test_ablation_rediscovers_figure3(capsys, benchmark):
    original_fresh = modelcheck._fresh_root
    # Ablate the tag where XorRegisters.advance looks it up: the code
    # the clients run, not a copy the checker keeps.
    original_tag = protocol2.hash_tagged_state
    modelcheck._fresh_root = (
        lambda parent, op_index: hash_bytes(bytes([parent.ctr + 1])))
    try:
        protocol2.hash_tagged_state = lambda root, ctr, owner: hash_state(root, ctr)
        weakened = model_check(n_users=3, n_ops=3, enumerate_owner_lies=False)
        protocol2.hash_tagged_state = original_tag
        full = model_check(n_users=3, n_ops=3, enumerate_owner_lies=False)
    finally:
        modelcheck._fresh_root = original_fresh
        protocol2.hash_tagged_state = original_tag

    emit(capsys, "E15_modelcheck_fig3", format_table(
        ["register design", "behaviours", "hidden forks (missed)",
         "canonical counterexample"],
        [
            ["untagged h(M(D)||ctr)", weakened.behaviours,
             weakened.deviating_accepted,
             "3 users forked off one state" if weakened.deviating_accepted else "-"],
            ["tagged h(M(D)||ctr||user)", full.behaviours,
             full.deviating_accepted, "-"],
        ],
        title="E15b: exhaustive search rediscovers Figure 3 when tagging is removed",
    ))
    assert weakened.deviating_accepted > 0
    assert any(c.picks == (0, 0, 0) for c in weakened.counterexamples)
    assert full.theorem_holds

    benchmark.pedantic(
        lambda: model_check(n_users=3, n_ops=3, enumerate_owner_lies=False),
        rounds=3, iterations=1)
