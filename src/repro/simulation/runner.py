"""The round-based simulator (paper Section 2.1).

Rounds advance a global clock; in each round the network delivers due
messages, every user agent steps, and then the server steps.  With the
default one-round delivery delay this yields b* = 3 bounded transaction
time on an unloaded honest server (query round m, served m+1, response
handled m+2).

The runner is deliberately dumb: all protocol intelligence lives in the
clients/server protocol objects, and all malice lives in the attack
strategy.  The runner just moves envelopes, records the run, and
produces a :class:`SimulationReport` with the detection metrics every
benchmark consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.obs.tracing import TRACER as _tracer
from repro.simulation.agents import Alarm, ServerAgent, UserAgent
from repro.simulation.channels import Network
from repro.simulation.events import Run

_ROUNDS = _registry.counter("sim.rounds", "simulation rounds executed")
_DELIVERED = _registry.counter(
    "sim.envelopes_delivered", "envelopes handed to recipient inboxes")
_DETECTION_DELAY = _registry.gauge(
    "sim.detection_delay_rounds", "rounds between deviation onset and first alarm")
_FIRST_ALARM = _registry.gauge(
    "sim.first_alarm_round", "round of the first user alarm")
_FIRST_DEVIATION = _registry.gauge(
    "sim.first_deviation_round", "round of the first server deviation")


@dataclass
class SimulationReport:
    """Everything a benchmark needs to know about one execution."""

    rounds_executed: int
    run: Run
    alarms: dict[str, Alarm]
    first_deviation_round: int | None
    operations_completed: dict[str, int]
    completion_rounds: dict[str, list[int]]
    issue_rounds: dict[str, list[int]]
    messages_sent: int
    broadcasts_sent: int
    server_operations: int
    metadata: dict = field(default_factory=dict)

    @property
    def detected(self) -> bool:
        return bool(self.alarms)

    @property
    def detection_round(self) -> int | None:
        """Round at which the *first* user detected deviation (the paper
        only requires that some user knows)."""
        if not self.alarms:
            return None
        return min(alarm.round for alarm in self.alarms.values())

    @property
    def false_alarm(self) -> bool:
        """An alarm with no actual deviation -- must never happen."""
        return self.detected and self.first_deviation_round is None

    @property
    def missed_detection(self) -> bool:
        return self.first_deviation_round is not None and not self.detected

    def detection_delay_rounds(self) -> int | None:
        """Rounds between deviation onset and first detection."""
        if self.first_deviation_round is None or self.detection_round is None:
            return None
        return self.detection_round - self.first_deviation_round

    def max_ops_after_deviation(self) -> int | None:
        """The k-bounded-deviation-detection metric: the maximum, over
        users, of transactions *initiated after* the deviation onset and
        completed before the first detection."""
        if self.first_deviation_round is None:
            return None
        cutoff = self.detection_round
        worst = 0
        for user_id, issued in self.issue_rounds.items():
            completed = self.completion_rounds[user_id]
            count = 0
            for issue_round, completion_round in zip(issued, completed):
                if issue_round <= self.first_deviation_round:
                    continue
                if cutoff is not None and completion_round > cutoff:
                    continue
                count += 1
            worst = max(worst, count)
        return worst


class Simulation:
    """Wires agents to a network and executes rounds."""

    def __init__(
        self,
        server: ServerAgent,
        users: list[UserAgent],
        network: Network | None = None,
    ) -> None:
        self.server = server
        self.users = users
        self._users_by_id = {user.user_id: user for user in users}
        self.network = network or Network(user_ids=[u.user_id for u in users])
        self.run = Run()
        self._txn_counter = [0]

    def execute(
        self,
        max_rounds: int = 10_000,
        stop_after_detection: int | None = 8,
        quiesce_rounds: int = 12,
    ) -> SimulationReport:
        """Run until the workload drains, detection (plus a grace period
        for sync chatter to settle), or ``max_rounds``."""
        detection_round: int | None = None
        idle_rounds = 0
        round_no = 0
        for round_no in range(1, max_rounds + 1):
            with _tracer.span("sim.round"):
                due = self.network.deliveries(round_no)
                if _obs.enabled:
                    _ROUNDS.inc()
                    _DELIVERED.inc(len(due))
                for envelope in due:
                    if envelope.recipient == "server":
                        self.server.inbox.append(envelope)
                    else:
                        self._user(envelope.recipient).inbox.append(envelope)

                for user in self.users:
                    user.step(round_no, self.network, self.run, self._txn_counter)
                self.server.step(round_no, self.network)

            if detection_round is None and any(u.alarm is not None for u in self.users):
                detection_round = round_no
            if detection_round is not None and stop_after_detection is not None:
                if round_no - detection_round >= stop_after_detection:
                    break

            if self._drained():
                idle_rounds += 1
                if idle_rounds >= quiesce_rounds:
                    break
            else:
                idle_rounds = 0

        return self._report(round_no)

    def _drained(self) -> bool:
        if self.network.in_flight() or self.server.busy():
            return False
        return all(user.done() and not user.inbox for user in self.users)

    def _user(self, user_id: str) -> UserAgent:
        try:
            return self._users_by_id[user_id]
        except KeyError:
            raise KeyError(f"unknown user {user_id!r}") from None

    def _report(self, rounds_executed: int) -> SimulationReport:
        report = self._build_report(rounds_executed)
        if _obs.enabled:
            if report.detection_round is not None:
                _FIRST_ALARM.set(report.detection_round)
            if report.first_deviation_round is not None:
                _FIRST_DEVIATION.set(report.first_deviation_round)
            delay = report.detection_delay_rounds()
            if delay is not None:
                _DETECTION_DELAY.set(delay)
        return report

    def _build_report(self, rounds_executed: int) -> SimulationReport:
        judge = self.server.core.judge
        return SimulationReport(
            rounds_executed=rounds_executed,
            run=self.run,
            alarms={u.user_id: u.alarm for u in self.users if u.alarm is not None},
            first_deviation_round=judge.first_round if judge else None,
            operations_completed={u.user_id: len(u.completion_rounds) for u in self.users},
            completion_rounds={u.user_id: list(u.completion_rounds) for u in self.users},
            issue_rounds={u.user_id: list(u.issue_rounds) for u in self.users},
            messages_sent=self.network.messages_sent,
            broadcasts_sent=self.network.broadcasts_sent,
            server_operations=self.server.operations_served,
            metadata={},
        )
