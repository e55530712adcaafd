"""One user's session without I/O: the rules every answer meets.

:class:`SessionCore` is everything a verifying session decides, written
once: the window of in-flight operations, the request ids
(``user:nonce:seq``), the protocol state object
(:class:`~repro.protocols.protocol2.XorRegisters`,
:class:`~repro.protocols.protocol1.SignedRootChain`,
:class:`~repro.protocols.protocol3.EpochRegisters`) with the user's
signer, and the evidence of a detection.  It reads no socket, clock or
random source; its callers hand it each message and send what it hands
back: the TCP sessions (:mod:`repro.net.client`), the simulator's users
of all three protocols (:mod:`repro.protocols.syncbase`),
:func:`repro.net.evidence.reverify`, which restores a bundle's recorded
state and request and receives its recorded response, and
:class:`InlineSession`, the command line's local verbs' in-process driver.

:meth:`SessionCore.receive` takes the oldest in-flight operation out of
the window and judges the message as its answer, in this order:

1. a refusal (:class:`~repro.protocols.base.ErrorReply`): nothing was
   executed -- :class:`ServerBusyError`, a liveness event, no verdict;
2. a message that is not a :class:`~repro.protocols.base.Response`;
3. a response echoing another operation's request id;
4. the protocol state object's ``step``.

A verified response then yields the Protocol I follow-up, counts the
operation and records the quorum's expected lineage entry; a step
that yields no outcome (Protocol III's passed audit) answers ``None``
and counts nothing.  Every
verdict leaves through :meth:`SessionCore._detected`: it counts
``net.detections`` and becomes an :class:`IntegrityError` carrying its
evidence bundle.
"""

from __future__ import annotations

from collections import deque

from repro.mtree.database import Query
from repro.mtree.forest import StoreSpec
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.protocols.base import (
    ACK_KEY, DeviationDetected, ErrorReply, Followup, Request, Response)

_DETECTIONS = _registry.counter(
    "net.detections", "integrity violations detected by verifying clients")


class IntegrityError(Exception):
    """The server's response is inconsistent with every honest history.

    A detection by :class:`SessionCore` carries its ``response``
    evidence bundle (:mod:`repro.net.evidence`) as ``bundle``;
    ``evidence_path`` is where a session wrote it, if it did."""

    bundle: dict | None = None
    evidence_path: str | None = None


class TransientNetworkError(Exception):
    """The operation could not complete over the network (connection
    refused/lost, timeout, server busy past the retry budget).  This is
    a *liveness* failure, not an integrity one: retrying later is safe
    because operations carry idempotent request ids."""


class ServerBusyError(TransientNetworkError):
    """The server refused the request: it stayed blocked on another
    client's follow-up signature past its block timeout (Protocol I),
    or the request was one no state could execute (an empty range --
    ``reply.extras["retryable"]`` is then ``False``).  The refused
    operation was not executed and has left the window; the session
    remains usable -- retry once the operator catches up."""

    def __init__(self, reply: ErrorReply) -> None:
        super().__init__(f"server busy: {reply.reason}" if reply.reason
                         else "server busy")
        self.reply = reply


class SessionCore:
    """One user's session, without I/O (see the module docstring).

    ``state`` is ``None`` for a session of query-less requests (a
    witness's): the first three rules hold and an answer is its reply's
    extras.  ``nonce`` keeps request ids apart across session objects of
    one user; ``rids`` off sends none.  ``quorum`` receives each verified
    operation's expected ``(ctr, new_root)``; ``counted`` off keeps an
    offline replay out of ``net.detections``.
    """

    def __init__(self, user_id: str, state, order: "int | StoreSpec" = 8, *,
                 protocol: str = "", nonce: str = "", rids: bool = True,
                 signer=None, initial_tag=None, quorum=None,
                 counted: bool = True) -> None:
        self.user_id = user_id
        self.state = state
        self.order = StoreSpec.coerce(order)
        self.protocol = protocol
        self.nonce = nonce
        self.rids = rids
        self.signer = signer
        #: the tagged initial state a Protocol II anchor pins (``None``
        #: for Protocol I)
        self.initial_tag = initial_tag
        self.quorum = quorum
        self._counted = counted
        #: submitted and not yet answered, oldest first
        self.inflight: deque[tuple[Query, Request]] = deque()
        #: the next request's sequence number, and the verified operations
        self.seq = 0
        self.operations = 0

    @property
    def rid_prefix(self) -> str:
        return f"{self.user_id}:{self.nonce}:"

    def rid(self, seq: int) -> str:
        """The request id of operation ``seq``."""
        return f"{self.rid_prefix}{seq}"

    def submit(self, query: Query, extras: dict | None = None) -> Request:
        """Put one operation in flight; returns the request to send.
        The sequence number advances for every submitted operation: a
        request id names one operation and is never given to another.
        A request with an id also carries ``ack``, the seq of the
        oldest operation in flight."""
        fields = {"user": self.user_id}
        if self.rids:
            fields["rid"] = self.rid(self.seq)
            # The oldest operation in flight (the window is contiguous):
            # every answer before it is verified, so the server may
            # forget it.
            fields[ACK_KEY] = self.seq - len(self.inflight)
        if extras is not None:
            fields.update(extras)
        request = Request(query=query, extras=fields)
        self.seq += 1
        self.inflight.append((query, request))
        return request

    def receive(self, message: object,
                frame: bytes = b"") -> tuple[object, Followup | None]:
        """Judge ``message`` as the oldest in-flight operation's answer,
        which leaves the window whatever the verdict.  Returns the
        trusted answer and the follow-up to send before anything else
        (Protocol I, closing a signing run), or ``None``.  ``frame`` is
        the message as it came off the wire; without one the evidence
        holds its encoding."""
        query, request = self.inflight.popleft()
        if isinstance(message, ErrorReply):
            raise ServerBusyError(message)
        try:
            if not isinstance(message, Response):
                raise DeviationDetected(
                    self.user_id, "the server's answer is not a response")
            echoed, sent = message.extras.get("rid"), request.extras.get("rid")
            if echoed is not None and echoed != sent:
                raise DeviationDetected(
                    self.user_id,
                    f"response names request id {echoed!r} but the oldest "
                    f"in-flight operation is {sent!r}: the server "
                    "reordered or dropped operations within one connection")
            if self.state is None:
                return message.extras, None
            verdict = self.state.step(query, message)
        except DeviationDetected as exc:
            raise self._detected(exc.reason, request, message, frame) from exc
        if verdict is None:
            return None, None
        # Protocol I's step also hands back the digest to sign when the
        # response closes a signing run.
        outcome, to_sign = verdict if isinstance(verdict, tuple) else (verdict, None)
        followup = None
        if to_sign is not None and self.signer is not None:
            followup = Followup(extras={
                "sig": self.signer.sign(to_sign), "user": self.user_id})
        self.operations += 1
        if self.quorum is not None:
            from repro.wire import encode  # the codec imports the protocols

            self.quorum.record(self.state.gctr, outcome.new_root,
                               request_frame=encode(request),
                               response_frame=frame)
        return outcome.answer, followup

    def _detected(self, reason: str, request: Request, message: object,
                  frame: bytes) -> IntegrityError:
        """The one detection path: count it, and capture the evidence
        against the untouched pre-operation state."""
        if self._counted and _obs.enabled:
            _DETECTIONS.inc(user=self.user_id, protocol=self.protocol)
        error = IntegrityError(reason)
        if self.state is not None:
            # Both import the protocol modules, which import this one.
            from repro.net import evidence
            from repro.wire import encode

            verifier = getattr(self.state, "verifier", None)
            error.bundle = evidence.response_bundle(
                protocol=self.protocol, user_id=self.user_id, reason=reason,
                op_index=self.operations,
                order=self.order.to_wire(),
                request_frame=encode(request),
                response_frame=frame or encode(message),
                client_state=self.snapshot(),
                anchor=evidence.anchor_lineage(self.initial_tag, None),
                verifier_keys=(None if verifier is None
                               else evidence.key_directory(verifier)))
        return error

    def snapshot(self) -> dict:
        """What the anchor and a bundle's ``client_state`` record: the
        state object's registers, the initial tag, the verified
        operations, the next sequence number and the nonce."""
        return {**self.state.snapshot(), "initial_tag": self.initial_tag,
                "operations": self.operations, "seq": self.seq,
                "nonce": self.nonce}

    def restore(self, snapshot: dict, inflight=()) -> None:
        """Resume from :meth:`snapshot` (an anchor, or a bundle's
        ``client_state``; a field it lacks keeps its value) with
        ``inflight`` requests in flight, oldest first."""
        self.state.restore(snapshot)
        self.initial_tag = snapshot.get("initial_tag", self.initial_tag)
        self.operations = int(snapshot.get("operations", self.operations))
        self.seq = int(snapshot.get("seq", self.seq))
        self.nonce = snapshot.get("nonce", self.nonce)
        self.inflight = deque((request.query, request) for request in inflight)


class InlineSession:
    """A session core and a server core in one process: no socket.

    Each window goes to ``server.apply_batch`` (a
    :class:`~repro.net.core.ServerCore`, by duck typing) as one batch,
    each answer through :meth:`SessionCore.receive`.  ``anchor`` is told
    each window's requests before they reach the server, and by
    :meth:`close` the last answers.  The session's next request's
    ``ack`` lets the dedup table forget what the anchor holds, as on a
    TCP session.
    """

    def __init__(self, server, core: SessionCore, anchor=None) -> None:
        self.server, self.core = server, core
        self.anchor = anchor or (lambda requests: None)
        self._untold = False  # answers taken since the anchor was told

    def execute(self, query: Query) -> object:
        return self.window([query])[0]

    def window(self, queries) -> list:
        for query in queries:
            self.core.submit(query)
        requests = [request for _query, request in self.core.inflight]
        self._tell(requests)
        return self._take(self.server.apply_batch(
            [(self.core.user_id, request) for request in requests]))

    def resume(self) -> list:
        """Take the answers the dedup table holds for a restored
        anchor's requests in flight, executing none: the server logs a
        batch in order, so the rest never reached it and are dropped."""
        if not self.core.inflight:
            return []
        remembered = []
        for _query, request in self.core.inflight:
            response = self.server.dedup.lookup(self.core.user_id,
                                                request.extras.get("rid"))
            if response is None:
                break
            remembered.append(response)
        while len(self.core.inflight) > len(remembered):
            self.core.inflight.pop()
        answers = self._take(remembered)
        self._tell([])
        return answers

    def close(self) -> None:
        if self._untold and not self.core.inflight:
            self._tell([])

    def _tell(self, requests: list[Request]) -> None:
        self.anchor(requests)
        self._untold = False

    def _take(self, responses: list) -> list:
        answers = []
        for response in responses:
            self._untold = True  # the operation leaves the window, answered or not
            answer, followup = self.core.receive(response)
            if followup is not None:
                self.server.apply_followup(self.core.user_id, followup)
            answers.append(answer)
        return answers
