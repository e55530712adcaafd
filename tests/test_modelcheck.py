"""Tests for the exhaustive Protocol II model checker."""

from repro.analysis.modelcheck import (
    _true_owners,
    model_check,
    run_behaviour,
)

USERS = ("u0", "u1")


class TestRunBehaviour:
    def test_honest_serial_behaviour_accepted(self):
        users = ("u0", "u1", "u0")
        picks = (0, 1, 2)  # always the tip
        owners = tuple(_true_owners(users, picks))
        result = run_behaviour(users, picks, owners, USERS)
        assert result.honest
        assert result.accepted

    def test_fork_rejected_at_sync(self):
        users = ("u0", "u1")
        picks = (0, 0)  # second op served from genesis: a fork
        owners = ("", "")
        result = run_behaviour(users, picks, owners, USERS)
        assert not result.honest
        assert not result.rejected_immediately  # both ops individually fine
        assert not result.sync_passes            # caught at sync

    def test_replay_to_same_user_rejected_immediately(self):
        users = ("u0", "u0")
        picks = (0, 0)  # same user sees ctr 0 twice
        owners = ("", "")
        result = run_behaviour(users, picks, owners, USERS)
        assert result.rejected_immediately

    def test_owner_lie_rejected(self):
        users = ("u0", "u1")
        picks = (0, 1)
        owners = ("", "u1")  # state 1's true owner is u0
        result = run_behaviour(users, picks, owners, USERS)
        assert not result.honest
        assert not result.accepted

    def test_initial_owner_lie_rejected_immediately(self):
        result = run_behaviour(("u0",), (0,), ("u1",), USERS)
        assert result.rejected_immediately

    def test_empty_run_is_honest(self):
        result = run_behaviour((), (), (), USERS)
        assert result.honest
        assert result.accepted


class TestTrueOwners:
    def test_serial(self):
        assert _true_owners(("u0", "u1", "u0"), (0, 1, 2)) == ["", "u0", "u1"]

    def test_fork_claims_forked_owner(self):
        # op2 served from genesis: its true owner claim is ""
        assert _true_owners(("u0", "u1"), (0, 0)) == ["", ""]


class TestExhaustive:
    def test_theorem_holds_without_owner_lies(self):
        report = model_check(n_users=2, n_ops=4, enumerate_owner_lies=False)
        assert report.theorem_holds, report.counterexamples
        assert report.behaviours == 2 ** 4 * 24  # users^ops * pick sequences
        assert report.honest_accepted == 2 ** 4  # one honest pick chain each

    def test_theorem_holds_with_owner_lies(self):
        report = model_check(n_users=2, n_ops=3, enumerate_owner_lies=True)
        assert report.theorem_holds, report.counterexamples
        assert report.behaviours == 2 ** 3 * 6 * 3 ** 3
        assert report.deviating_accepted == 0
        assert report.honest_rejected == 0

    def test_three_users(self):
        report = model_check(n_users=3, n_ops=3, enumerate_owner_lies=False)
        assert report.theorem_holds, report.counterexamples
        assert report.honest_accepted == 3 ** 3

    def test_checker_rediscovers_figure3(self):
        """Sanity for the checker itself -- and a lovely result: weaken
        the client to the paper's rejected first attempt (untagged XOR,
        with forked branches allowed to re-converge on equal content)
        and exhaustive search *rediscovers the Figure 3 attack*: a
        triple fork from one state by three distinct users, invisible to
        the registers.  Restore the tagging and the space is clean."""
        from repro.analysis import modelcheck
        from repro.crypto.hashing import hash_bytes, hash_state
        from repro.protocols import protocol2

        original_fresh = modelcheck._fresh_root
        # the tag function where the deployed step looks it up
        original_tag = protocol2.hash_tagged_state
        # content collisions: the state after op c is determined by c
        modelcheck._fresh_root = (
            lambda parent, op_index: hash_bytes(bytes([parent.ctr + 1])))
        try:
            protocol2.hash_tagged_state = (
                lambda root, ctr, owner: hash_state(root, ctr))
            weakened = model_check(n_users=3, n_ops=3, enumerate_owner_lies=False)
            assert weakened.deviating_accepted > 0
            # the canonical counterexample: three users forked off genesis
            shapes = {c.picks for c in weakened.counterexamples}
            assert (0, 0, 0) in shapes

            protocol2.hash_tagged_state = original_tag
            full = model_check(n_users=3, n_ops=3, enumerate_owner_lies=False)
            assert full.theorem_holds  # tagging closes the hole
        finally:
            modelcheck._fresh_root = original_fresh
            protocol2.hash_tagged_state = original_tag


class TestProtocol1Exhaustive:
    def test_theorem41_holds(self):
        from repro.analysis.modelcheck import model_check_protocol1

        for n_users, n_ops in ((2, 4), (3, 4), (2, 5)):
            report = model_check_protocol1(n_users=n_users, n_ops=n_ops)
            assert report.theorem_holds, (n_users, n_ops, report.counterexamples)
            assert report.honest_accepted == n_users ** n_ops

    def test_fork_caught_by_count_check(self):
        from repro.analysis.modelcheck import run_behaviour_protocol1

        users = ("u0", "u1", "u0")
        picks = (0, 0, 1)  # u1 forked off genesis; u0 continues its branch
        result = run_behaviour_protocol1(users, picks, ("u0", "u1"))
        assert not result.honest
        assert not result.accepted

    def test_honest_chain_accepted(self):
        from repro.analysis.modelcheck import run_behaviour_protocol1

        result = run_behaviour_protocol1(("u0", "u1"), (0, 1), ("u0", "u1"))
        assert result.honest and result.accepted
