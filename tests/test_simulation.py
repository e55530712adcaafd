"""Tests for the simulation engine itself: agents, timing bounds,
report metrics, the judge's accounting."""

from repro.core.scenarios import build_simulation
from repro.protocols.base import ProtocolClient, Response
from repro.server.attacks import ForkAttack
from repro.simulation.agents import Alarm, UserAgent
from repro.simulation.channels import Network
from repro.simulation.events import Run
from repro.simulation.runner import SimulationReport
from repro.simulation.workload import Intent, steady_workload
from repro.mtree.database import ReadQuery


class TestBoundedTransactionTime:
    def test_honest_transactions_complete_within_b_star(self):
        """Query round m, served m+1, response handled m+2: b* = 3 on an
        unloaded honest server."""
        workload = steady_workload(2, 6, spacing=10, seed=1)
        simulation = build_simulation("protocol2", workload, k=100, seed=1)
        report = simulation.execute()
        for user in simulation.users:
            for issued, completed in zip(user.issue_rounds, user.completion_rounds):
                assert completed - issued <= 3

    def test_withheld_response_raises_timeout_alarm(self):
        workload = steady_workload(1, 2, seed=2)
        simulation = build_simulation("protocol2", workload, k=100, seed=2)

        # Make the server silently drop every response.
        original_send = simulation.network.send

        def dropping_send(sender, recipient, payload, round_no):
            if sender == "server":
                return  # withheld
            original_send(sender, recipient, payload, round_no)

        simulation.network.send = dropping_send
        report = simulation.execute(max_rounds=200)
        assert report.detected
        assert "withheld" in next(iter(report.alarms.values())).reason


class TestServiceRate:
    def test_limited_service_rate_queues_requests(self):
        workload = steady_workload(4, 6, spacing=1, seed=3)
        fast = build_simulation("protocol2", workload, k=100, seed=3).execute()
        slow = build_simulation("protocol2", workload, k=100, seed=3, service_rate=1).execute()
        assert slow.rounds_executed >= fast.rounds_executed
        assert not slow.detected


class TestReportMetrics:
    def make_report(self, **overrides):
        base = dict(
            rounds_executed=100,
            run=Run(),
            alarms={},
            first_deviation_round=None,
            operations_completed={"u": 3},
            completion_rounds={"u": [10, 20, 30]},
            issue_rounds={"u": [8, 18, 28]},
            messages_sent=6,
            broadcasts_sent=0,
            server_operations=3,
        )
        base.update(overrides)
        return SimulationReport(**base)

    def test_clean_report(self):
        report = self.make_report()
        assert not report.detected
        assert not report.false_alarm
        assert not report.missed_detection
        assert report.detection_round is None
        assert report.detection_delay_rounds() is None
        assert report.max_ops_after_deviation() is None

    def test_detection_round_is_earliest(self):
        report = self.make_report(alarms={"a": Alarm(50, "x"), "b": Alarm(40, "y")},
                                  first_deviation_round=30)
        assert report.detection_round == 40
        assert report.detection_delay_rounds() == 10

    def test_false_alarm_flag(self):
        report = self.make_report(alarms={"a": Alarm(50, "x")})
        assert report.false_alarm

    def test_missed_detection_flag(self):
        report = self.make_report(first_deviation_round=10)
        assert report.missed_detection

    def test_ops_after_deviation_counts_initiated_after(self):
        report = self.make_report(first_deviation_round=15,
                                  alarms={"a": Alarm(29, "x")})
        # issues at 18 and 28 happened after deviation; both completed
        # (rounds 20, 30) -- but 30 is past detection at 29.
        assert report.max_ops_after_deviation() == 1

    def test_ops_after_deviation_without_detection(self):
        report = self.make_report(first_deviation_round=15)
        assert report.max_ops_after_deviation() == 2


class TestUserAgent:
    def test_unsolicited_response_alarms(self):
        agent = UserAgent("u", ProtocolClient("u"), intents=[])
        network = Network(user_ids=["u"])
        network.send("server", "u", Response(result=None), 0)
        agent.inbox.extend(network.deliveries(1))
        agent.step(1, network, Run(), [0])
        assert agent.alarm is not None
        assert "unsolicited" in agent.alarm.reason

    def test_done_semantics(self):
        agent = UserAgent("u", ProtocolClient("u"),
                          intents=[Intent(round=5, query=ReadQuery(b"k"))])
        assert not agent.done()
        agent.intent_index = 1
        assert agent.done()

    def test_alarmed_agent_stops_issuing(self):
        client = ProtocolClient("u")
        agent = UserAgent("u", client, intents=[Intent(round=1, query=ReadQuery(b"k"))])
        agent.alarm = Alarm(round=1, reason="test")
        network = Network(user_ids=["u"])
        agent.step(2, network, Run(), [0])
        assert network.messages_sent == 0


class TestOracleAccounting:
    def test_fork_flagged_even_when_data_matches(self):
        """Post-fork ops on a not-yet-diverged branch still carry a
        branch-local ctr that disagrees with the honest run's -- the
        judge must flag it for state-committing protocols."""
        workload = steady_workload(3, 10, spacing=4, keyspace=16,
                                   write_ratio=0.3, seed=4)
        attack = ForkAttack(victims=["user1"], fork_round=workload.horizon() // 2)
        simulation = build_simulation("protocol2", workload, attack=attack, k=500, seed=4)
        report = simulation.execute()
        if "fork" in simulation.server.states:
            served_from_fork = any(
                r > attack.fork_round for r in report.completion_rounds["user1"]
            )
            if served_from_fork:
                assert report.first_deviation_round is not None
