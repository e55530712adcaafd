"""User and server agents: the active parties of the multi-agent system.

A :class:`UserAgent` owns a protocol client and a workload schedule; a
:class:`ServerAgent` drives the server step -- the deployment's
:class:`~repro.net.core.ServerCore`, holding the server half of the
protocol, its state branches and (optionally) an attack strategy --
one round at a time.  Agents communicate exclusively
through the :class:`~repro.simulation.channels.Network` -- the runner
never lets them touch each other's state, mirroring the paper's
"no external communication except the broadcast channel" discipline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.protocols.base import (
    DeviationDetected,
    Followup,
    ProtocolClient,
    Request,
    ServerProtocol,
    ServerState,
)
from repro.net.core import ServerCore
from repro.net.session import ServerBusyError
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.simulation.channels import SERVER_ID, Network
from repro.simulation.events import Action, Run, describe_query
from repro.simulation.workload import Intent

_OPS_ISSUED = _registry.counter(
    "sim.ops_issued", "workload operations issued, by user")
_OPS_COMPLETED = _registry.counter(
    "sim.ops_completed", "workload operations verified complete, by user")
_OP_GAPS = _registry.histogram(
    "sim.op_gap_rounds", "rounds between a user's consecutive completions",
    buckets=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256))
_ALARMS = _registry.counter("sim.alarms", "users that raised a deviation alarm")
_SERVER_OPS = _registry.counter(
    "sim.server_ops", "operations the server agent served")


@dataclass
class Alarm:
    """A user's detection record: when and why it cried foul."""

    round: int
    reason: str


@dataclass
class _PendingTransaction:
    txn_id: int
    query: object
    issued_round: int


#: identity-keyed fingerprint memo.  A broadcast delivers the *same*
#: payload object to every other user, so one repr+hash serves n-1
#: deliveries.  Entries hold a strong reference to the payload, which
#: pins its ``id`` for the lifetime of the entry; payloads are never
#: mutated after sending (receivers only read), so the memo stays valid.
_FINGERPRINT_CACHE: dict[int, tuple[object, str]] = {}
_FINGERPRINT_CACHE_MAX = 4096


def _fingerprint(payload: object) -> str:
    """A stable content fingerprint of a message payload.

    ``repr`` of our message dataclasses is deterministic and covers
    digests, counters, signatures, and answers -- everything a client
    could condition its behaviour on.
    """
    import hashlib

    cached = _FINGERPRINT_CACHE.get(id(payload))
    if cached is not None and cached[0] is payload:
        return cached[1]
    fingerprint = hashlib.sha256(
        repr(payload).encode("utf-8", "replace")).hexdigest()[:16]
    if len(_FINGERPRINT_CACHE) >= _FINGERPRINT_CACHE_MAX:
        _FINGERPRINT_CACHE.clear()
    _FINGERPRINT_CACHE[id(payload)] = (payload, fingerprint)
    return fingerprint


class UserAgent:
    """Drives one user's workload through its protocol client.

    ``transaction_timeout`` implements the b*-bounded transaction time
    assumption: a response outstanding for longer than the bound is
    itself proof of deviation (the trusted server always answers within
    b* rounds), so the agent raises an alarm.
    """

    def __init__(
        self,
        user_id: str,
        client: ProtocolClient,
        intents: list[Intent],
        transaction_timeout: int = 30,
        offline_rounds: set[int] | None = None,
    ) -> None:
        self.user_id = user_id
        self.client = client
        self.transaction_timeout = transaction_timeout
        # Crash-recovery modelling: while offline the agent processes
        # nothing (its inbox queues up); protocol state is durable.
        self.offline_rounds = offline_rounds or set()
        self.intents = list(intents)
        self.intent_index = 0
        self.inbox: list[object] = []
        self.pending: _PendingTransaction | None = None
        self.alarm: Alarm | None = None
        self.completion_rounds: list[int] = []
        self.issue_rounds: list[int] = []
        # Fingerprints of every message this user received, in order --
        # the user's *view*.  Two runs with identical views are
        # indistinguishable to any deterministic client (the engine of
        # the Theorem 3.1 demonstration).
        self.view_transcript: list[tuple[int, str, str]] = []
        # Wired by the runner each round:
        self._network: Network | None = None
        self._run: Run | None = None
        self._round = 0
        self._txn_counter = None  # shared mutable [int]

    # -- ClientContext interface ------------------------------------------

    @property
    def round(self) -> int:
        return self._round

    def send_to_server(self, message: Followup | Request) -> None:
        self._network.send(self.user_id, SERVER_ID, message, self._round)

    def broadcast(self, payload: dict) -> None:
        self._network.broadcast(self.user_id, payload, self._round)

    def send_to_user(self, user_id: str, payload: dict) -> None:
        """Point-to-point message on the external (user) channel."""
        self._network.send(self.user_id, user_id, payload, self._round)

    # -- lifecycle -----------------------------------------------------------

    def done(self) -> bool:
        """No intents left, nothing in flight, not mid-protocol-chatter."""
        return (
            self.alarm is not None
            or (self.intent_index >= len(self.intents) and self.pending is None)
        )

    def step(self, round_no: int, network: Network, run: Run, txn_counter: list) -> None:
        """One round: absorb deliveries, then maybe issue the next intent."""
        if round_no in self.offline_rounds:
            return  # crashed: messages keep queueing in the inbox
        self._network = network
        self._run = run
        self._round = round_no
        self._txn_counter = txn_counter

        inbox, self.inbox = self.inbox, []
        for envelope in inbox:
            if self.alarm is not None:
                break
            self.view_transcript.append(
                (round_no, envelope.sender, _fingerprint(envelope.payload))
            )
            try:
                if envelope.sender == SERVER_ID:
                    self._handle_server_message(envelope.payload)
                else:
                    self.client.handle_broadcast(envelope.sender, envelope.payload, self)
            except DeviationDetected as exc:
                self._raise_alarm(exc)

        if self.alarm is not None:
            return
        if (
            self.pending is not None
            and round_no - self.pending.issued_round > self.transaction_timeout
        ):
            self._raise_alarm(
                DeviationDetected(
                    self.user_id,
                    "transaction exceeded the bounded transaction time b*: "
                    "the server withheld a response",
                )
            )
            return
        try:
            self.client.on_round(self)
        except DeviationDetected as exc:
            self._raise_alarm(exc)
            return

        self._maybe_issue(round_no, run)

    def _handle_server_message(self, payload: object) -> None:
        pending, self.pending = self.pending, None
        if pending is None:
            raise DeviationDetected(self.user_id, "unsolicited response from server")
        try:
            answer = self.client.handle_response(pending.query, payload, self)
        except ServerBusyError as refused:
            # The server executed nothing: the transaction ends without
            # completing, and accuses nobody.
            self._run.record(Action(
                kind="refusal", user_id=self.user_id, txn_id=pending.txn_id,
                description=describe_query(pending.query),
                answer_digest=str(refused)[:64]), self._round)
            return
        if pending.query is not None:
            if _obs.enabled:
                _OPS_COMPLETED.inc(user=self.user_id)
                if self.completion_rounds:
                    _OP_GAPS.observe(self._round - self.completion_rounds[-1],
                                     user=self.user_id)
            self.completion_rounds.append(self._round)
            self._run.record(
                Action(
                    kind="response",
                    user_id=self.user_id,
                    txn_id=pending.txn_id,
                    description=describe_query(pending.query),
                    answer_digest=repr(answer)[:64],
                ),
                self._round,
            )
            if self.client.wants_sync():
                self.client.announce_sync(self)

    def _maybe_issue(self, round_no: int, run: Run) -> None:
        if self.pending is not None or self.intent_index >= len(self.intents):
            return
        intent = self.intents[self.intent_index]
        if intent.round > round_no:
            return
        if not self.client.may_start_transaction(self):
            return
        self.intent_index += 1
        self._txn_counter[0] += 1
        txn_id = self._txn_counter[0]
        self.pending = _PendingTransaction(txn_id=txn_id, query=intent.query, issued_round=round_no)
        self.issue_rounds.append(round_no)
        if _obs.enabled:
            _OPS_ISSUED.inc(user=self.user_id)
        request = self.client.make_request(intent.query)
        self.send_to_server(request)
        self.client.on_issue(self)
        run.record(
            Action(
                kind="query",
                user_id=self.user_id,
                txn_id=txn_id,
                description=describe_query(intent.query),
            ),
            round_no,
        )

    def issue_internal(self, request: Request) -> None:
        """Send a protocol-internal (verification) request -- e.g. the
        Protocol III auditor fetching deposited snapshots.  Not recorded
        as a workload transaction."""
        if self.pending is not None:
            return
        self.pending = _PendingTransaction(txn_id=-1, query=request.query, issued_round=self._round)
        self.send_to_server(request)

    def has_pending(self) -> bool:
        return self.pending is not None

    def _raise_alarm(self, exc: DeviationDetected) -> None:
        if self.alarm is None:
            self.alarm = Alarm(round=self._round, reason=exc.reason)
            if _obs.enabled:
                _ALARMS.inc(user=self.user_id)
        self.pending = None


class ServerAgent:
    """The CVS server, one round at a time: an adapter over the
    deployment's :class:`~repro.net.core.ServerCore` (memory store, the
    simulator's round as its clock), which executes every message.

    The adapter keeps the inbox and a FIFO queue served head-of-line at
    ``service_rate``.  Deviation onset is the core's to judge
    (``core.judge``, present under an attack).
    """

    def __init__(
        self,
        protocol: ServerProtocol,
        state: ServerState,
        attack=None,
        service_rate: int | None = None,
    ) -> None:
        self._round = 0
        self.core = ServerCore(protocol=protocol, state=state, attack=attack,
                               clock=lambda: self._round)
        self.service_rate = service_rate
        self.inbox: list[object] = []
        self.request_queue: list[tuple[str, Request]] = []
        self.operations_served = 0

    @property
    def states(self) -> dict[str, ServerState]:
        """The core's branches: ``"main"`` and any the attack forked."""
        return self.core.states

    def busy(self) -> bool:
        return bool(self.request_queue) or bool(self.inbox)

    def step(self, round_no: int, network: Network) -> None:
        self._round = round_no
        inbox, self.inbox = self.inbox, []
        for envelope in inbox:
            payload = envelope.payload
            if isinstance(payload, Followup):
                self.core.apply_followup(envelope.sender, payload)
            elif isinstance(payload, Request):
                self.request_queue.append((envelope.sender, payload))
            else:
                raise TypeError(f"unexpected payload at server: {type(payload).__name__}")

        served = 0
        while self.request_queue:
            if self.service_rate is not None and served >= self.service_rate:
                break
            user_id, request = self.request_queue[0]
            if self.core.blocked_for(user_id):
                break
            self.request_queue.pop(0)
            response = self.core.apply_request(user_id, request)
            self.operations_served += 1
            served += 1
            if _obs.enabled:
                _SERVER_OPS.inc()
            network.send(SERVER_ID, user_id, response, round_no)
