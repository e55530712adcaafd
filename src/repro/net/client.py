"""Verifying TCP sessions: the transport around a protocol state object.

A session connects to a :class:`~repro.net.aserver.AsyncTrustedCvsServer`,
sends queries over the wire format, and hands every response to the same
per-response step the simulated clients run --
:class:`~repro.protocols.protocol2.XorRegisters` (Protocol II,
:class:`RemoteClient`) or
:class:`~repro.protocols.protocol1.SignedRootChain` (Protocol I,
:class:`RemoteClientP1`).  No verification is written here: this module
connects, keeps the window, retries, fails over, persists the anchor,
captures evidence and records quorum entries.  The replication
witnesses are reached the same way: :class:`WitnessSession` carries the
primary's root deposits and a client's quorum fetches, and leaves
their checks to :mod:`repro.net.replication`.

Every session keeps a *window* of operations in flight
(``submit``/``drain``; ``execute`` is submit-then-drain, and
stop-and-wait is the window of one).  The server answers each
connection's requests in order, so responses are matched to the oldest
in-flight operation, by their echoed request id where there is one, and
verified one by one exactly as a lone operation would be.  One loop,
:meth:`_Session._exchange`, moves every frame, under three rules:

* a *transport failure* drops the connection, counts against
  ``RetryPolicy.attempts``, backs off, reconnects and resends every
  in-flight request verbatim in one write -- the request id
  (``user:nonce:seq``) lets the server's dedup table apply each at most
  once, which is why its window must be at least as deep as the
  client's.  Out of budget it raises :class:`TransientNetworkError` --
  explicitly *not* an integrity verdict; nothing about a flaky link
  implicates the server's honesty -- and the operations *stay in
  flight*: the next call completes them before anything new;
* a *refusal* (:class:`ServerBusyError`) is the oldest in-flight
  operation's answer: the server did not execute it.  Alone in the
  window it is re-asked on the same connection while
  ``busy_attempts`` remain and the server has not said it would only
  refuse again (``retryable: False``, a malformed request); otherwise
  it leaves the window and the refusal is raised;
* anything else is the oldest operation's response, and goes to the
  protocol session's ``_absorb``.

Several clients sharing a server can check their collective view with
:func:`sync_check` / :func:`count_sync_check` -- the protocols' own
synchronisation predicates over registers exchanged out-of-band (users
trust each other; how they meet is outside the server's control, which
is the whole point).  The Protocol II trust anchor (initial tag, XOR
registers, counter) can be persisted to a file so a restarted *client*
resumes verification where it left off.
"""

from __future__ import annotations

import os
import random
import socket
import time
from collections import deque

from repro.crypto.hashing import Digest
from repro.mtree.database import DeleteQuery, Query, RangeQuery, ReadQuery, WriteQuery
from repro.mtree.forest import StoreSpec
from repro.net import evidence
from repro.net.framing import (
    FramingError, open_connection, recv_message, send_messages)
from repro.storage.atomic import atomic_write
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.protocols.base import (
    DEDUP_WINDOW, DeviationDetected, ErrorReply, Followup, Request, Response)
# sync_check / count_sync_check are the protocols' own predicates,
# importable from here (and repro.net) under the names deployments use.
from repro.protocols.protocol1 import SignedRootChain, count_sync_check
from repro.protocols.protocol2 import (
    XorRegisters, initial_state_tag, sync_check)
from repro.protocols.verify import register
from repro.wire import WireError, encode

#: default socket timeouts -- a hung server must not block a client
#: forever; the timeout surfaces as a retryable failure instead.
CONNECT_TIMEOUT_SECONDS = 5.0
OP_TIMEOUT_SECONDS = 15.0

_CLIENT_OP_MS = _registry.histogram(
    "net.client_op_ms", "round-trip client operation latency (send to verified)")
_RECONNECTS = _registry.counter(
    "net.reconnects", "client reconnections after a lost/failed connection")
_RETRIES = _registry.counter(
    "net.retries", "client operation retries, by reason (io/busy)")
_DETECTIONS = _registry.counter(
    "net.detections", "integrity violations detected by verifying clients")
_RESENDS = _registry.counter(
    "net.pipeline_resends", "in-flight requests resent after a reconnect")
_WINDOW_FULL = _registry.counter(
    "net.pipeline_window_full", "submissions that had to drain a slot first")


class IntegrityError(Exception):
    """The server's response is inconsistent with every honest history."""


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


class ReplicationDivergence(IntegrityError):
    """A witness quorum proved the primary served this client a root
    lineage it never deposited (fork) or deposited two lineages at once
    (equivocation).  ``deviant`` names the replica the evidence bundle
    at ``evidence_path`` implicates."""

    def __init__(self, reason: str, deviant: str = "primary",
                 evidence_path: str | None = None) -> None:
        super().__init__(reason)
        self.deviant = deviant
        self.evidence_path = evidence_path


class EndpointConnector:
    """Sticky failover over an ordered ``[(host, port), ...]`` list.

    The one way a session (:class:`RemoteClient`,
    :class:`RemoteClientP1`, :class:`WitnessSession`) reaches a server;
    a witness session's list is its one witness.  A connect tries the
    *current* endpoint first -- reconnects
    prefer the server the session last spoke to, keeping dedup windows
    and blocking state warm -- then rotates through the rest in order.
    One full pass with no listener raises the last ``OSError``, so the
    caller's retry budget counts a pass as a single attempt.
    """

    def __init__(self, endpoints, connect_timeout: float,
                 op_timeout: float) -> None:
        self.endpoints = [(str(host), int(port)) for host, port in endpoints]
        if not self.endpoints:
            raise ValueError("endpoint list must not be empty")
        self._connect_timeout = connect_timeout
        self._op_timeout = op_timeout
        self._index = 0
        self.failovers = 0

    @property
    def current(self) -> tuple[str, int]:
        return self.endpoints[self._index]

    def describe(self) -> str:
        return ", ".join(f"{host}:{port}" for host, port in self.endpoints)

    def connect(self) -> socket.socket:
        last_error: OSError | None = None
        for offset in range(len(self.endpoints)):
            index = (self._index + offset) % len(self.endpoints)
            try:
                sock = open_connection(
                    self.endpoints[index], self._connect_timeout,
                    self._op_timeout)
            except OSError as exc:
                last_error = exc
                continue
            if index != self._index:
                self.failovers += 1
                self._index = index
            return sock
        raise last_error


class RetryPolicy:
    """Capped exponential backoff with jitter, driven by a seeded RNG.

    ``attempts`` bounds the connection failures one call rides out (the
    first try included) and ``busy_attempts`` the refusals of one
    operation; the delay before retry ``n`` is ``min(cap, base * 2**n)``
    scaled by a uniform jitter factor in ``[1 - jitter, 1]``.  A seeded
    policy produces a reproducible backoff schedule -- the chaos harness
    runs on fixed seeds end to end.
    """

    def __init__(self, attempts: int = 6, base: float = 0.05,
                 cap: float = 2.0, jitter: float = 0.5,
                 busy_attempts: int = 4, seed: int | None = None) -> None:
        if attempts < 1:
            raise ValueError("retry policy needs at least one attempt")
        self.attempts = attempts
        self.base = base
        self.cap = cap
        self.jitter = jitter
        self.busy_attempts = busy_attempts
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based)."""
        raw = min(self.cap, self.base * (2 ** attempt))
        return raw * (1.0 - self.jitter * self._rng.random())


class _Session:
    """What a Protocol I and a Protocol II session share around their
    protocol state object (``self.state``): the connection, the window
    of in-flight operations, the one exchange loop, the step's verdict
    turned into :class:`IntegrityError` with an evidence bundle, the
    witness quorum bookkeeping, the request-id format and the
    convenience verbs.  Subclasses name their ``protocol``, say what one
    verified response does (``_absorb``) and what their bundle records
    (``_evidence_fields``).  A :class:`WitnessSession` uses only the
    transport: no state object, no evidence, no quorum.
    """

    protocol = ""
    #: operations kept in flight unless the constructor is given another
    #: ``window``; stop-and-wait is the window of one, and what the
    #: command line runs every CVS verb on.  No window is deeper than
    #: what the server remembers per user (``DEDUP_WINDOW``): a lost
    #: connection resends the whole window verbatim.
    window = 1
    #: whether a lost connection is replaced by a new one
    reconnects = True
    #: whether requests carry a request id (``user:nonce:seq``)
    _rids = True

    def __init__(self, endpoints, user_id: str, order: "int | StoreSpec",
                 state, window: int | None, retry: RetryPolicy,
                 connect_timeout: float, op_timeout: float,
                 evidence_dir: str | None, quorum, quorum_every: int) -> None:
        self.user_id = user_id
        self._order = order
        self.state = state
        if window is not None:
            self.window = window
        if self.window < 1:
            raise ValueError("pipeline window must be at least 1")
        if self.window > DEDUP_WINDOW:
            raise ValueError(
                f"pipeline window {self.window} is deeper than the "
                f"{DEDUP_WINDOW} responses the server remembers per user: "
                "a resent window could execute twice")
        #: submitted and not yet answered, oldest first
        self._inflight: deque[tuple[Query, Request]] = deque()
        #: messages not yet written.  They go out in one ``sendall``
        #: when the window fills or the session first blocks on a read:
        #: the sockets are no-delay, so each write is its own segment,
        #: and one write lets the server find the whole window queued.
        self._held: list = []
        self._retry = retry
        self._connector = EndpointConnector(
            endpoints, connect_timeout, op_timeout)
        self._sock: socket.socket | None = None
        self._opened = False
        self._evidence_dir = evidence_dir
        self._capture: list[bytes] = []
        self.quorum = quorum
        if quorum is not None:
            quorum.set_order(order)
        if quorum_every < 1:
            raise ValueError("quorum_every must be at least 1")
        self._quorum_every = quorum_every
        self._ops_since_quorum = 0
        # Request ids must name a *logical operation* uniquely for as
        # long as the server's dedup window may remember it.  A bare
        # ``user:seq`` resets with every anchor-less client object, so
        # a new session for the same user could collide with the old
        # session's window; the per-session nonce rules that out.  The
        # anchor persists it, so a resumed process keeps deduping its
        # own in-flight retries.
        self._rid_nonce = os.urandom(4).hex()
        self._seq = 0

    def _rid(self, seq: int) -> str:
        """The idempotency token for logical operation ``seq``."""
        return f"{self.user_id}:{self._rid_nonce}:{seq}"

    # -- connection management --------------------------------------------

    def _connect(self) -> None:
        """Open the session's connection, walking the endpoint list.  A
        new connection has seen nothing, so every in-flight request is
        held again and goes out verbatim in the next write.  Any of them
        may or may not have executed before the old connection died;
        identical request ids make the resend idempotent (the server's
        windowed dedup answers executed ones from memory), so the whole
        window is re-answered in order."""
        if self._opened and not self.reconnects:
            raise ConnectionError("the session's one connection is gone")
        self._sock = self._connector.connect()
        if self._opened and _obs.enabled:
            _RECONNECTS.inc(user=self.user_id)
            _RESENDS.inc(len(self._inflight), user=self.user_id)
        self._opened = True
        self._held = [request for _query, request in self._inflight]

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        """Drop the connection.  Draining here would mask errors;
        callers drain explicitly."""
        self._drop_connection()
        if self.quorum is not None:
            self.quorum.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- the window and the one exchange loop -------------------------------

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def _exchange(self, read: bool) -> object:
        """Connect if need be, put every held message on the wire in one
        write and, when ``read``, return the server's next response --
        the module docstring's rules for a transport failure and for a
        refusal, each stated here and nowhere else.  A connection-level
        failure may leave the stream desynchronised mid-frame, so the
        only safe move is a fresh connection and a verbatim resend."""
        policy = self._retry
        io_failures = busy_failures = 0
        while True:
            try:
                if self._sock is None:
                    self._connect()
                if self._held:
                    send_messages(self._sock, self._held)
                    self._held = []
                if not read:
                    return None
                self._capture.clear()
                message = recv_message(self._sock, capture=self._capture)
                if message is None:
                    raise FramingError("server closed the connection")
            except (OSError, FramingError, WireError) as exc:
                self._drop_connection()
                io_failures += 1
                if _obs.enabled:
                    _RETRIES.inc(reason="io", user=self.user_id)
                if io_failures >= policy.attempts:
                    oldest = (self._inflight[0][1].extras.get("rid")
                              if self._inflight else None)
                    raise TransientNetworkError(
                        f"no answer from {self._connector.describe()} after "
                        f"{io_failures} connection failure(s), "
                        f"{len(self._inflight)} operation(s) still in flight"
                        + (f" from request id {oldest}" if oldest else "")
                        + f": {exc}") from exc
                time.sleep(policy.delay(io_failures - 1))
                continue
            if not isinstance(message, ErrorReply):
                return message
            # The session is intact -- the server refused, it did not
            # vanish -- and the refusal answers the oldest operation.
            busy_failures += 1
            if _obs.enabled:
                _RETRIES.inc(reason="busy", user=self.user_id)
            if len(self._inflight) > 1 or busy_failures >= policy.busy_attempts \
                    or message.extras.get("retryable") is False:
                self._inflight.popleft()
                raise ServerBusyError(message)
            time.sleep(policy.delay(busy_failures - 1))
            self._held.append(self._inflight[0][1])

    def submit(self, query: Query, extras: dict | None = None) -> list:
        """Queue one operation; returns answers completed on the way.

        Blocks only when the window is full (drains the oldest slot) or
        the transport needs recovery.  The request is written no later
        than the next blocking read or a full window.  The sequence
        number advances here, for every window: a request id names a
        submitted operation and is never given to a second one.
        ``extras`` is merged into the request's extras.
        """
        drained = []
        while len(self._inflight) >= self.window:
            if _obs.enabled:
                _WINDOW_FULL.inc(user=self.user_id)
            drained.append(self._drain_one())
        fields = {"user": self.user_id}
        if self._rids:
            fields["rid"] = self._rid(self._seq)
        if extras is not None:
            fields.update(extras)
        request = Request(query=query, extras=fields)
        self._seq += 1
        self._inflight.append((query, request))
        self._held.append(request)
        # A full window goes out now: it is then on the wire while the
        # caller submits to, or drains, another session.
        if len(self._inflight) >= self.window:
            self._exchange(read=False)
        return drained

    def _drain_one(self) -> object:
        """Read, match and verify the oldest in-flight operation's
        response; returns its trusted answer."""
        response = self._exchange(read=True)
        if not isinstance(response, Response):
            raise IntegrityError("the server's answer is not a response")
        query, request = self._inflight.popleft()
        echoed, sent = response.extras.get("rid"), request.extras.get("rid")
        if echoed is not None and echoed != sent:
            exc = IntegrityError(
                f"response names request id {echoed!r} but the oldest "
                f"in-flight operation is {sent!r}: the server reordered or "
                "dropped operations within one connection")
            self._on_detection(exc, request)
            raise exc
        return self._absorb(query, request, response)

    def drain(self) -> list:
        """Complete (and verify) every in-flight operation, in order."""
        answers = []
        while self._inflight:
            answers.append(self._drain_one())
        return answers

    def execute(self, query: Query, extras: dict | None = None) -> object:
        """Send a query; verify the response; return the trusted answer.

        Submit, then drain everything.  An operation that ends in
        :class:`TransientNetworkError` *stays in flight* under its
        request id: the next call -- ``execute``, ``submit`` or
        ``drain`` -- completes it first, exactly once by the server's
        dedup, before anything new is sent.  A caller that gives up on
        it must not assume it was not applied; a caller that repeats it
        issues a second operation.  A refused one
        (:class:`ServerBusyError`) was not executed and is gone.
        """
        started = time.perf_counter_ns() if _obs.enabled else 0
        answers = self.submit(query, extras)
        answers.extend(self.drain())
        if started:
            _CLIENT_OP_MS.observe(
                (time.perf_counter_ns() - started) / 1e6, user=self.user_id)
        return answers[-1]

    def _absorb(self, query: Query, request: Request,
                response: Response) -> object:
        """One verified operation: the protocol step on ``response``,
        then the session's own bookkeeping; returns the answer."""
        raise NotImplementedError

    def _verify(self, query: Query, request: Request, response: Response):
        """Run the protocol's step on one response; returns what the
        step returns.  A deviation becomes :class:`IntegrityError`,
        evidence captured (against the untouched pre-operation state)
        before it is raised."""
        try:
            return self.state.step(query, response)
        except DeviationDetected as exc:
            error = IntegrityError(exc.reason)
            self._on_detection(error, request)
            raise error from exc

    # -- witness quorum -----------------------------------------------------

    def _record_quorum(self, new_root: Digest, request: Request) -> None:
        """Remember a verified op's expected lineage entry: the primary
        must have deposited exactly ``new_root`` at the counter the step
        just advanced to."""
        if self.quorum is None:
            return
        self.quorum.record(
            self.state.gctr, new_root, request_frame=encode(request),
            response_frame=self._capture[-1] if self._capture else b"")

    def _maybe_quorum_check(self) -> None:
        """Every ``quorum_every`` verified ops, confirm the pending
        lineage against a random f+1 witness sample.  Counters no
        witness holds yet (replication lag) simply stay pending; a
        proven divergence raises :class:`ReplicationDivergence` out of
        the operation that triggered the check."""
        if self.quorum is None:
            return
        self._ops_since_quorum += 1
        if self._ops_since_quorum >= self._quorum_every:
            self._ops_since_quorum = 0
            self.quorum.check()

    def quorum_check(self, require_all: bool = False):
        """Confirm the recorded lineage now; see
        :meth:`~repro.net.replication.QuorumChecker.check`."""
        if self.quorum is None:
            return set()
        return self.quorum.check(require_all=require_all)

    # -- evidence -----------------------------------------------------------

    def _evidence_fields(self) -> dict:
        """The protocol's own ``response_bundle`` fields: ``op_index``,
        ``client_state``, ``anchor`` and, with a PKI, ``verifier_keys``."""
        raise NotImplementedError

    def _on_detection(self, exc: IntegrityError, request: Request) -> None:
        """A verification failed: count it and, when an evidence
        directory is configured, capture a forensic bundle (the verbatim
        frames, the pre-operation state object, the anchor lineage or
        key directory) so the deviation is provable offline.  Sets
        ``exc.evidence_path``."""
        if _obs.enabled:
            _DETECTIONS.inc(user=self.user_id, protocol=self.protocol)
        if self._evidence_dir is None:
            return
        fields = self._evidence_fields()
        bundle = evidence.response_bundle(
            protocol=self.protocol, user_id=self.user_id, reason=str(exc),
            order=StoreSpec.coerce(self._order).to_wire(),
            request_frame=encode(request),
            response_frame=self._capture[-1] if self._capture else b"",
            **fields)
        os.makedirs(self._evidence_dir, exist_ok=True)
        path = os.path.join(self._evidence_dir,
                            f"{self.user_id}-{fields['op_index']}.evidence")
        exc.evidence_path = evidence.write_bundle(path, bundle)

    # convenience verbs
    def get(self, key: bytes) -> bytes | None:
        return self.execute(ReadQuery(key))

    def put(self, key: bytes, value: bytes) -> None:
        self.execute(WriteQuery(key, value))

    def delete(self, key: bytes) -> None:
        self.execute(DeleteQuery(key))

    def scan(self, low: bytes, high: bytes):
        return self.execute(RangeQuery(low, high))


_ANCHOR_MAGIC = "client-anchor 1"
#: the lines after the magic, ``name value``, with the parser of each
_ANCHOR_FIELDS = {
    "user": str, "initial_tag": Digest.from_hex, "sigma": Digest.from_hex,
    "last": Digest.from_hex, "gctr": int, "operations": int, "seq": int,
    "nonce": str}


def read_anchor(path: str) -> dict:
    """Parse a persisted Protocol II trust anchor, defensively: the one
    reader, for the session that resumes from the file and for
    ``repro sync``, which evaluates the predicate over several.

    The anchor file is the client's root of trust; a corrupted or
    truncated one must be rejected with an explicit
    :class:`IntegrityError` -- never a raw parse crash, and never a
    silent fallback to some partially-read register state.
    """
    def corrupt(detail: str, cause: Exception | None = None):
        error = IntegrityError(
            f"trust anchor {path!r} is corrupted or truncated: {detail}")
        raise error from cause

    try:
        with open(path, "r", encoding="ascii") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        corrupt("not ASCII text", exc)
    except OSError as exc:
        corrupt(f"unreadable ({exc})", exc)
    if not lines or lines[0] != _ANCHOR_MAGIC:
        corrupt("missing anchor magic header")
    fields = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(" ")
        if not _ or not value:
            corrupt(f"malformed field line {line!r}")
        fields[name] = value
    try:
        return {name: parse(fields[name])
                for name, parse in _ANCHOR_FIELDS.items()}
    except KeyError as exc:
        corrupt(f"missing field {exc.args[0]!r}", exc)
    except ValueError as exc:
        corrupt(f"unparseable field value ({exc})", exc)


class RemoteClient(_Session):
    """One user's verified Protocol II session against a TCP server --
    what ``repro --remote`` runs every CVS verb on.

    ``initial_root`` pins the session to the genesis root the users
    agreed on; it enters only the sync predicate (the registers start
    from zero whatever the server holds), so it may be omitted: the
    anchor then records the zero tag, "not pinned", and whoever
    evaluates the predicate supplies the root.

    ``anchor_path`` (optional) persists the trust anchor -- initial
    tag, sigma/last registers, counter, and the request-id sequence --
    after every verified operation, so a restarted client process
    resumes the same session by passing the same path.

    ``endpoints`` (optional) replaces the single ``host``/``port`` pair
    with an ordered failover list: every connect and reconnect walks it
    through one shared :class:`EndpointConnector`.  ``quorum`` attaches
    a :class:`~repro.net.replication.QuorumChecker`; each verified
    operation's expected ``(ctr, new_root)`` is then recorded and
    confirmed against f+1 random witnesses every ``quorum_every``
    operations (and on demand via :meth:`quorum_check`).  ``window``
    is the number of operations kept in flight.
    """

    protocol = "II"
    sigma = register("sigma")
    last = register("last")
    gctr = register("gctr")

    def __init__(self, host: str, port: int | None = None,
                 user_id: str = "anonymous",
                 initial_root: Digest | None = None,
                 order: "int | StoreSpec" = 8,
                 connect_timeout: float = CONNECT_TIMEOUT_SECONDS,
                 op_timeout: float = OP_TIMEOUT_SECONDS,
                 retry: RetryPolicy | None = None,
                 anchor_path: str | None = None,
                 evidence_dir: str | None = None,
                 endpoints=None,
                 quorum=None, quorum_every: int = 8,
                 window: int | None = None) -> None:
        if endpoints is None:
            if port is None and isinstance(host, (list, tuple)):
                endpoints = list(host)
            else:
                endpoints = [(host, port)]
        super().__init__(endpoints, user_id, order,
                         XorRegisters(user_id, order), window,
                         retry or RetryPolicy(), connect_timeout, op_timeout,
                         evidence_dir, quorum, quorum_every)
        self._anchor_path = anchor_path
        self.operations = 0
        self._initial_tag = (Digest.zero() if initial_root is None
                             else initial_state_tag(initial_root))
        if anchor_path is not None and os.path.isfile(anchor_path):
            self._load_anchor()
        # The first connect, under the same retry budget as every other
        # transport failure: a server mid-restart must not kill client
        # construction with a raw OSError.
        self._exchange(read=False)

    # -- anchor persistence -------------------------------------------------

    def _load_anchor(self) -> None:
        """Resume from :func:`read_anchor`'s fields.  An anchor that
        parses fine but names a *different* user is a caller mix-up,
        not corruption: that is ``ValueError``."""
        anchor = read_anchor(self._anchor_path)
        if anchor["user"] != self.user_id:
            raise ValueError(
                f"anchor belongs to {anchor['user']!r}, not {self.user_id!r}")
        self._initial_tag = anchor["initial_tag"]
        self.state.restore(anchor)
        self.operations = anchor["operations"]
        self._seq = anchor["seq"]
        self._rid_nonce = anchor["nonce"]

    def save_anchor(self) -> None:
        """Persist the trust anchor atomically and durably.

        The anchor is the client's entire defence against a forking
        server; it gets the full tmp + fsync + rename + dir-fsync
        sequence so a crash can never leave a torn or resurrected-stale
        anchor behind.
        """
        if self._anchor_path is None:
            return
        lines = [
            _ANCHOR_MAGIC,
            f"user {self.user_id}",
            f"initial_tag {self._initial_tag.hex()}",
            f"sigma {self.sigma.hex()}",
            f"last {self.last.hex()}",
            f"gctr {self.gctr}",
            f"operations {self.operations}",
            f"seq {self._seq}",
            f"nonce {self._rid_nonce}",
        ]
        atomic_write(self._anchor_path,
                     ("\n".join(lines) + "\n").encode("ascii"))

    def _absorb(self, query: Query, request: Request,
                response: Response) -> object:
        outcome = self._verify(query, request, response)
        self.operations += 1
        self._record_quorum(outcome.new_root, request)
        self._maybe_quorum_check()
        if self._anchor_path is not None:
            self.save_anchor()
        return outcome.answer

    def _evidence_fields(self) -> dict:
        return {
            "op_index": self.operations,
            "client_state": {**self.state.snapshot(), "seq": self._seq},
            "anchor": evidence.anchor_lineage(self._initial_tag,
                                              self._anchor_path),
        }

    def registers(self) -> dict:
        """This user's contribution to a sync check."""
        return {"sigma": self.sigma, "last": self.last}


class PipelinedRemoteClient(RemoteClient):
    """:class:`RemoteClient` with a default window of 16.  Kept for
    ``benchmarks/e2e/e2e.py`` (frozen by ``BENCHMARK.json``), its only
    user; everything else writes ``RemoteClient(..., window=W)``."""

    window = 16


#: Protocol I's differences from Protocol II on the transport are this
#: value and ``reconnects``: no resend, and a refusal surfaces at once.
#: Its blocking follow-up makes a half-done operation visible to every
#: other user, so the honest reaction to a lost connection is to
#: surface it and let the operator re-establish the session
#: deliberately.
_P1_POLICY = RetryPolicy(attempts=1, busy_attempts=1)


class RemoteClientP1(_Session):
    """A Protocol I session over TCP: signed roots, blocking follow-up.

    Needs a signer (this user's key) and a verifier holding every
    user's public key (from the PKI); after each verified operation
    that closes a signing run the client sends back
    ``sign_i(h(new_root || ctr + 1))``, unblocking the server for the
    next query.  The server answers a window of W requests as one
    signing run: intermediate responses carry ``batch_final=False`` and
    the stored (stale) head signature, and only the final one demands
    the follow-up.  How a run is verified (RSA at its head, hash-chain
    membership inside it, every VO independently) is
    :class:`~repro.protocols.protocol1.SignedRootChain`'s business; the
    session signs when the step hands it a digest, so
    ``followups_sent`` is ~operations/W.

    Carries the same socket timeouts as :class:`RemoteClient` so a hung
    server cannot park the session forever, but a session whose
    connection failed stays failed: every later call raises
    :class:`TransientNetworkError`.
    """

    protocol = "I"
    reconnects = False
    lctr = register("lctr")
    gctr = register("gctr")

    def __init__(self, host: str, port: int, user_id: str,
                 signer, verifier, order: "int | StoreSpec" = 8,
                 connect_timeout: float = CONNECT_TIMEOUT_SECONDS,
                 op_timeout: float = OP_TIMEOUT_SECONDS,
                 evidence_dir: str | None = None,
                 quorum=None, quorum_every: int = 8,
                 window: int | None = None) -> None:
        super().__init__([(host, port)], user_id, order,
                         SignedRootChain(user_id, verifier, order), window,
                         _P1_POLICY, connect_timeout, op_timeout,
                         evidence_dir, quorum, quorum_every)
        # A request id is what the echo check matches across a window.
        # A session that never resends and has one operation in flight
        # has nothing for it to do, and sending it would put every
        # response into the server's dedup table, and so into every
        # snapshot.
        self._rids = self.window > 1
        self._signer = signer
        #: signatures produced
        self.followups_sent = 0
        self._exchange(read=False)

    def _absorb(self, query: Query, request: Request,
                response: Response) -> object:
        outcome, to_sign = self._verify(query, request, response)
        if to_sign is not None:
            self._held.append(Followup(extras={
                "sig": self._signer.sign(to_sign), "user": self.user_id}))
            self._exchange(read=False)
            self.followups_sent += 1
        # Only after any due follow-up went out: a divergence raised by
        # the quorum check must not leave the server blocked on us.
        self._record_quorum(outcome.new_root, request)
        self._maybe_quorum_check()
        return outcome.answer

    def _evidence_fields(self) -> dict:
        """The public-key directory rides along, so the signature
        verdict is reproducible offline without the PKI."""
        return {
            "op_index": self.lctr,
            "client_state": self.state.snapshot(),
            "anchor": evidence.anchor_lineage(None, None),
            "verifier_keys": evidence.key_directory(self.state.verifier),
        }

    def counts(self) -> dict:
        """This user's contribution to the Protocol I count sync."""
        return {"lctr": self.lctr, "gctr": self.gctr}


class WitnessSession(_Session):
    """One connection to a replication witness: what the primary's
    deposits and a client's quorum fetches
    (:mod:`repro.net.replication`) travel on.

    A request carries no query, only the ``extras`` passed to
    ``submit``/``execute``; the answer is the reply's extras, checked
    here for nothing -- signatures and the quorum rule belong to the
    code that reads them.  The window is one and no request id is sent:
    a deposit is idempotent and a fetch is a read, so a resend needs no
    dedup.
    """

    _rids = False

    def __init__(self, endpoint, user_id: str, retry: RetryPolicy) -> None:
        super().__init__([endpoint], user_id, 8, None, 1, retry,
                         CONNECT_TIMEOUT_SECONDS, OP_TIMEOUT_SECONDS,
                         None, None, 1)

    def _absorb(self, query: Query, request: Request,
                response: Response) -> dict:
        return response.extras
