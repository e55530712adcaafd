"""The detection matrix: every attack against every applicable protocol.

The paper's soundness claims, empirically: Protocols I/II/III detect
every attack class (with their respective bounds), the baselines show
the expected gaps, and nobody ever raises a false alarm on an honest
run."""

import pytest

from helpers import run_scenario
from repro.mtree.database import ReadQuery, WriteQuery
from repro.net import ServerCore
from repro.protocols.base import Request
from repro.server.attacks import (
    Attack,
    CompositeAttack,
    CounterReplayAttack,
    DropCommitAttack,
    ForkAttack,
    HonestBehavior,
    SignatureForgeAttack,
    StaleRootReplayAttack,
    TamperValueAttack,
)
from repro.simulation.workload import epoch_workload, steady_workload

EPOCH = 30


def workload_for(protocol, seed):
    if protocol == "protocol3":
        return epoch_workload(n_users=3, epoch_length=EPOCH, epochs=8,
                              keyspace=6, seed=seed)
    if protocol == "protocol1":
        # blocking handshake halves throughput; keep the server unsaturated
        return steady_workload(3, 10, spacing=8, keyspace=6, write_ratio=0.6, seed=seed)
    return steady_workload(3, 14, spacing=4, keyspace=6, write_ratio=0.6, seed=seed)


def run(protocol, attack_factory, seed=7, trigger_fraction=0.5):
    """attack_factory gets the attack-trigger round (mid-workload)."""
    workload = workload_for(protocol, seed)
    trigger = int(workload.horizon() * trigger_fraction)
    attack = attack_factory(trigger) if callable(attack_factory) else attack_factory
    return run_scenario(
        protocol,
        workload,
        attack=attack,
        k=5,
        epoch_length=EPOCH,
        seed=seed,
    )


VERIFYING_PROTOCOLS = ["protocol1", "protocol2", "protocol3"]


class TestHonestRunsNeverAlarm:
    @pytest.mark.parametrize("protocol", VERIFYING_PROTOCOLS + ["tokenpass", "naive"])
    def test_no_false_alarms(self, protocol):
        report = run(protocol, HonestBehavior())
        assert not report.detected, report.alarms
        assert report.first_deviation_round is None


class TestForkDetection:
    @pytest.mark.parametrize("protocol", VERIFYING_PROTOCOLS)
    def test_fork_detected(self, protocol):
        report = run(protocol, lambda r: ForkAttack(victims=["user1"], fork_round=r))
        assert report.detected, protocol
        assert not report.false_alarm


class TestDropCommit:
    @pytest.mark.parametrize("protocol", ["protocol2", "protocol3"])
    def test_detected(self, protocol):
        report = run(protocol, lambda r: DropCommitAttack(victim="user1", drop_round=r))
        if report.first_deviation_round is None:
            pytest.skip("victim issued no update after the trigger")
        assert report.detected, protocol


class TestStaleRootReplay:
    @pytest.mark.parametrize("protocol", VERIFYING_PROTOCOLS)
    def test_detected(self, protocol):
        report = run(protocol, lambda r: StaleRootReplayAttack(victim="user2", freeze_round=r))
        assert report.detected, protocol
        assert not report.false_alarm


class TestTamper:
    @pytest.mark.parametrize("protocol", VERIFYING_PROTOCOLS)
    @pytest.mark.parametrize("forge_proof", [False, True])
    def test_detected(self, protocol, forge_proof):
        # Early trigger: Protocol III's audit lags the fault by up to two
        # epochs, so the fault must land well inside the workload.
        report = run(
            protocol,
            lambda r: TamperValueAttack(victim="user0", tamper_round=r, forge_proof=forge_proof),
            trigger_fraction=0.2,
        )
        if report.first_deviation_round is None:
            pytest.skip("victim issued no read after the trigger")
        assert report.detected, (protocol, forge_proof)

    def test_unforged_tamper_is_detected_instantly(self):
        report = run("protocol2", lambda r: TamperValueAttack(victim="user0", tamper_round=10, forge_proof=False))
        assert report.detected
        assert report.detection_delay_rounds() <= 3


class TestCounterReplay:
    @pytest.mark.parametrize("protocol", ["protocol2", "protocol3"])
    def test_detected_by_regression_check(self, protocol):
        report = run(protocol, lambda r: CounterReplayAttack(victim="user0", replay_round=r))
        assert report.detected, protocol
        assert "regressed" in next(iter(report.alarms.values())).reason


class TestSignatureForge:
    def test_protocol1_detects(self):
        report = run("protocol1", lambda r: SignatureForgeAttack(forge_round=r))
        assert report.detected
        assert "signature" in next(iter(report.alarms.values())).reason


class _TaggingAttack(Attack):
    """Test double: appends its tag to a response extra and logs calls,
    so composite ordering is observable."""

    def __init__(self, tag, log, own_state=None):
        self.tag = tag
        self.log = log
        self.own_state = own_state

    def select_state(self, user_id, round_no, server):
        if self.own_state is not None:
            return self.own_state
        return server.states["main"]

    def mutate_response(self, user_id, request, response, state, round_no):
        from repro.protocols.base import Response

        self.log.append(self.tag)
        extras = dict(response.extras)
        extras["trace"] = extras.get("trace", "") + self.tag
        return Response(result=response.result, extras=extras)


class TestCompositeAttack:
    """Ordering semantics, and a composite's judged deviation onset."""

    @staticmethod
    def _server_stub():
        from types import SimpleNamespace

        return SimpleNamespace(states={"main": object()})

    @staticmethod
    def _response():
        from repro.protocols.base import Response

        return Response(result=None, extras={})

    def test_mutations_apply_in_list_order(self):
        log = []
        composite = CompositeAttack([_TaggingAttack("a", log),
                                     _TaggingAttack("b", log),
                                     _TaggingAttack("c", log)])
        server = self._server_stub()
        mutated = composite.mutate_response(
            "u", None, self._response(), server.states["main"], 5)
        assert log == ["a", "b", "c"]
        # later components see (and build on) earlier components' output
        assert mutated.extras["trace"] == "abc"

    def test_select_state_first_non_main_wins(self):
        server = self._server_stub()
        fork_a, fork_b = object(), object()
        log = []
        composite = CompositeAttack([
            _TaggingAttack("m", log),                       # stays on main
            _TaggingAttack("a", log, own_state=fork_a),     # first divergence
            _TaggingAttack("b", log, own_state=fork_b),     # shadowed
        ])
        assert composite.select_state("u", 1, server) is fork_a

    def test_select_state_defaults_to_main(self):
        server = self._server_stub()
        log = []
        composite = CompositeAttack([_TaggingAttack("m", log),
                                     _TaggingAttack("n", log)])
        assert composite.select_state("u", 1, server) is server.states["main"]

    def test_first_deviation_round_is_min_over_components(self):
        """Every response before the earliest component's first
        deviating one equals the honest run's, so the runs agree up to
        there and the composite's judged onset is that component's."""
        fork = lambda r: ForkAttack(victims=["user1"], fork_round=r)
        tamper = lambda r: TamperValueAttack(victim="user2", tamper_round=r + 5)
        onsets = [run("protocol2", fork).first_deviation_round,
                  run("protocol2", tamper).first_deviation_round]
        assert None not in onsets and onsets[0] != onsets[1]
        composite = run("protocol2", lambda r: CompositeAttack([fork(r), tamper(r)]))
        assert composite.first_deviation_round == min(onsets)

    @staticmethod
    def _core_onset(attack):
        """The judged onset on a bare server core: u0..u2 in turn, a
        read of one's own key every third step, writes otherwise."""
        core = ServerCore(order=4, attack=attack)
        for step in range(8):
            for user in ("u0", "u1", "u2"):
                key = f"{user}-{step % 2}".encode()
                query = (ReadQuery(key) if step % 3 == 2
                         else WriteQuery(key, f"{user}:{step}".encode()))
                core.apply_request(user, Request(query=query))
        return core.judge.first_round

    def test_judged_onset_merges_branch_and_mutation_components(self):
        """A component that picks the branch and one that rewrites the
        answer, each the earlier in one case: the composite's onset is
        the earlier component's, in either component order, and no
        component reports anything."""
        for fork_round, tamper_round, expected in [(4, 10, 6), (14, 1, 7)]:
            fork = lambda: ForkAttack(victims=["u2"], fork_round=fork_round)
            tamper = lambda: TamperValueAttack(victim="u0",
                                               tamper_round=tamper_round)
            onsets = {self._core_onset(fork()), self._core_onset(tamper())}
            assert len(onsets) == 2 and min(onsets) == expected
            for components in ([fork(), tamper()], [tamper(), fork()]):
                assert self._core_onset(CompositeAttack(components)) == expected

    def test_empty_composite_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            CompositeAttack([])

    def test_composite_detected_end_to_end(self):
        """A fork + tamper composite is still caught by Protocol II, and
        the reported deviation onset is the earliest component's."""
        report = run("protocol2", lambda r: CompositeAttack([
            ForkAttack(victims=["user1"], fork_round=r),
            TamperValueAttack(victim="user0", tamper_round=r + 5),
        ]))
        assert report.detected
        assert not report.false_alarm


class TestNaiveBaselineMissesEverything:
    @pytest.mark.parametrize("attack_factory", [
        lambda: ForkAttack(victims=["user1"], fork_round=20),
        lambda: StaleRootReplayAttack(victim="user2", freeze_round=20),
        lambda: TamperValueAttack(victim="user0", tamper_round=20),
        lambda: DropCommitAttack(victim="user1", drop_round=20),
    ])
    def test_undetected(self, attack_factory):
        workload = steady_workload(3, 16, spacing=3, keyspace=4, write_ratio=0.6, seed=9)
        report = run_scenario("naive", workload, attack=attack_factory(), seed=9)
        assert not report.detected


class TestDetectionBounds:
    def test_protocol2_k_bound_holds_across_seeds(self):
        for seed in range(5):
            workload = steady_workload(3, 16, spacing=4, keyspace=6,
                                       write_ratio=0.6, seed=seed)
            attack = ForkAttack(victims=["user1"], fork_round=30)
            report = run_scenario("protocol2", workload, attack=attack, k=4, seed=seed)
            if report.first_deviation_round is None:
                continue
            assert report.detected, seed
            assert report.max_ops_after_deviation() <= 4, seed

    def test_protocol3_two_epoch_bound_across_seeds(self):
        for seed in range(3):
            workload = epoch_workload(n_users=3, epoch_length=EPOCH, epochs=9,
                                      keyspace=6, seed=seed)
            attack = ForkAttack(victims=["user1"], fork_round=int(EPOCH * 2.4))
            report = run_scenario("protocol3", workload, attack=attack,
                                  epoch_length=EPOCH, seed=seed)
            if report.first_deviation_round is None:
                continue
            assert report.detected, seed
            delay = report.detection_round - report.first_deviation_round
            assert delay <= 2 * EPOCH + EPOCH // 2, (seed, delay)
