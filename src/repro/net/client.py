"""Verifying TCP sessions: the transport around one session core.

A session connects to a :class:`~repro.net.aserver.AsyncTrustedCvsServer`
and hands every answer to its :class:`~repro.net.session.SessionCore`,
the step the simulated clients and the evidence re-verifier run too --
over :class:`~repro.protocols.protocol2.XorRegisters` in
:class:`RemoteClient` (Protocol II) and
:class:`~repro.protocols.protocol1.SignedRootChain` in
:class:`RemoteClientP1` (Protocol I).  Nothing is decided here: this
module connects, retries, fails over, resends, persists the anchor,
writes the evidence the core captured and asks the witness quorum.
:class:`WitnessSession` carries the primary's root deposits and a
client's quorum fetches the same way, and leaves their checks to
:mod:`repro.net.replication`.

A session keeps a *window* of operations in flight (``submit`` /
``drain``; ``execute`` is submit-then-drain, stop-and-wait the window
of one).  One loop, :meth:`_Session._exchange`, moves every frame under
two rules of its own:

* a *transport failure* drops the connection, counts against
  ``RetryPolicy.attempts``, backs off, reconnects and resends every
  in-flight request verbatim in one write -- the request id lets the
  server's dedup table apply each at most once, which is why its window
  must be at least as deep as the client's.  Out of budget it raises
  :class:`TransientNetworkError`, *not* an integrity verdict, and the
  operations *stay in flight*: the next call completes them first;
* a *refusal* alone in the window is re-asked on the same connection
  while ``busy_attempts`` remain, unless the server said it would only
  refuse again (``retryable: False``).  Otherwise the core takes it as
  the oldest operation's answer: :class:`ServerBusyError`.

:func:`sync_check` / :func:`count_sync_check` are the protocols' own
synchronisation predicates over registers the users exchange on a
channel the server does not control.  The Protocol II trust anchor can
be persisted to a file (:func:`write_anchor`) so a restarted *client*
resumes where it left off (:func:`protocol2_core`).
"""

from __future__ import annotations

import os
import random
import socket
import time

from repro.crypto.hashing import Digest
from repro.mtree.database import DeleteQuery, Query, RangeQuery, ReadQuery, WriteQuery
from repro.mtree.forest import StoreSpec
from repro.net import evidence
from repro.net.framing import (
    FrameInbox, FramingError, open_connection, send_messages)
from repro.net.session import (
    IntegrityError, ServerBusyError, SessionCore, TransientNetworkError)
from repro.storage.atomic import atomic_write
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.protocols.base import DEDUP_WINDOW, ErrorReply, Request, Response
# sync_check / count_sync_check are the protocols' own predicates,
# importable from here (and repro.net) under the names deployments use.
from repro.protocols.protocol1 import SignedRootChain, count_sync_check
from repro.protocols.protocol2 import (
    XorRegisters, initial_state_tag, sync_check)
from repro.protocols.verify import register
from repro.wire import WireError, decode, encode

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
_RESENDS = _registry.counter(
    "net.pipeline_resends", "in-flight requests resent after a reconnect")
_WINDOW_FULL = _registry.counter(
    "net.pipeline_window_full", "submissions that had to drain a slot first")


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
    """The transport around a :class:`~repro.net.session.SessionCore`
    (``self.core``, built by the subclass for its protocol): the
    connection, the exchange loop, the evidence files, the quorum check
    and the convenience verbs.  ``_absorb`` is where an answer meets the
    core."""

    #: operations kept in flight unless the constructor is given another
    #: ``window``; stop-and-wait is the window of one, and what the
    #: command line runs every CVS verb on.  No window is deeper than
    #: what the server remembers per user (``DEDUP_WINDOW``): a lost
    #: connection resends the whole window verbatim.
    window = 1
    #: whether a lost connection is replaced by a new one
    reconnects = True
    #: the persisted trust anchor (Protocol II sessions may keep one)
    _anchor_path: str | None = None

    def __init__(self, endpoints, core: SessionCore, window: int | None,
                 retry: RetryPolicy, connect_timeout: float,
                 op_timeout: float, evidence_dir: str | None,
                 quorum_every: int) -> None:
        self.core = core
        self.user_id = core.user_id
        if window is not None:
            self.window = window
        if self.window < 1:
            raise ValueError("pipeline window must be at least 1")
        if self.window > DEDUP_WINDOW:
            raise ValueError(
                f"pipeline window {self.window} is deeper than the "
                f"{DEDUP_WINDOW} responses the server remembers per user: "
                "a resent window could execute twice")
        #: messages not yet written.  They go out in one ``sendall``
        #: when the window fills or the session first blocks on a read:
        #: the sockets are no-delay, so each write is its own segment,
        #: and one write lets the server find the whole window queued.
        self._held: list = []
        self._retry = retry
        self._connector = EndpointConnector(
            endpoints, connect_timeout, op_timeout)
        self._sock: socket.socket | None = None
        #: what the connection delivered that no answer has taken yet
        self._inbox = FrameInbox()
        self._opened = False
        self._evidence_dir = evidence_dir
        self._capture: list[bytes] = []
        #: follow-up signatures sent (Protocol I)
        self.followups_sent = 0
        self.quorum = core.quorum
        if self.quorum is not None:
            self.quorum.set_order(core.order)
        if quorum_every < 1:
            raise ValueError("quorum_every must be at least 1")
        self._quorum_every = quorum_every
        self._ops_since_quorum = 0

    @property
    def state(self):
        """The core's protocol state object."""
        return self.core.state

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
        self._inbox = FrameInbox()
        if self._opened and _obs.enabled:
            _RECONNECTS.inc(user=self.user_id)
            _RESENDS.inc(len(self.core.inflight), user=self.user_id)
        self._opened = True
        self._held = [request for _query, request in self.core.inflight]

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
        return len(self.core.inflight)

    def _exchange(self, read: bool) -> object:
        """Connect if need be, put every held message on the wire in one
        write and, when ``read``, return the server's next message --
        the module docstring's rules for a transport failure and for
        re-asking a refusal, each stated here and nowhere else.  A
        connection-level failure may leave the stream desynchronised
        mid-frame, so the only safe move is a fresh connection and a
        verbatim resend."""
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
                message = self._inbox.recv_message(self._sock,
                                                   capture=self._capture)
                if message is None:
                    raise FramingError("server closed the connection")
            except (OSError, FramingError, WireError) as exc:
                self._drop_connection()
                io_failures += 1
                if _obs.enabled:
                    _RETRIES.inc(reason="io", user=self.user_id)
                if io_failures >= policy.attempts:
                    inflight = self.core.inflight
                    oldest = inflight[0][1].extras.get("rid") if inflight else None
                    raise TransientNetworkError(
                        f"no answer from {self._connector.describe()} after "
                        f"{io_failures} connection failure(s), "
                        f"{len(inflight)} operation(s) still in flight"
                        + (f" from request id {oldest}" if oldest else "")
                        + f": {exc}") from exc
                time.sleep(policy.delay(io_failures - 1))
                continue
            if not isinstance(message, ErrorReply):
                return message
            # The session is intact -- the server refused, it did not
            # vanish.  Alone in the window, a refusal is asked again.
            busy_failures += 1
            if _obs.enabled:
                _RETRIES.inc(reason="busy", user=self.user_id)
            if len(self.core.inflight) > 1 or busy_failures >= policy.busy_attempts \
                    or message.extras.get("retryable") is False:
                return message
            time.sleep(policy.delay(busy_failures - 1))
            self._held.append(self.core.inflight[0][1])

    def submit(self, query: Query, extras: dict | None = None) -> list:
        """Queue one operation; returns answers completed on the way.

        Blocks only when the window is full (drains the oldest slot) or
        the transport needs recovery.  The request is written no later
        than the next blocking read or a full window.  ``extras`` is
        merged into the request's extras.
        """
        drained = []
        while len(self.core.inflight) >= self.window:
            if _obs.enabled:
                _WINDOW_FULL.inc(user=self.user_id)
            drained.append(self._drain_one())
        self._held.append(self.core.submit(query, extras))
        # A full window goes out now: it is then on the wire while the
        # caller submits to, or drains, another session.
        if len(self.core.inflight) >= self.window:
            self._exchange(read=False)
        return drained

    def _drain_one(self) -> object:
        """Read the oldest in-flight operation's answer and absorb it;
        returns its trusted answer."""
        message = self._exchange(read=True)
        query, request = self.core.inflight[0]
        return self._absorb(query, request, message)

    def drain(self) -> list:
        """Complete (and verify) every in-flight operation, in order."""
        answers = []
        while self.core.inflight:
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
        """The oldest operation's (``query``, sent as ``request``)
        answer through the core, then the follow-up, the quorum check
        and the anchor; returns the trusted answer.  A verdict's
        evidence is written before it is raised."""
        try:
            answer, followup = self.core.receive(
                response, self._capture[-1] if self._capture else b"")
        except IntegrityError as exc:
            self._write_evidence(exc)
            raise
        if followup is not None:
            self._held.append(followup)
            self._exchange(read=False)
            self.followups_sent += 1
        # Every ``quorum_every`` verified ops, and only after any due
        # follow-up went out (a divergence raised by the check must not
        # leave the server blocked on us): confirm the lineage the core
        # recorded against f+1 random witnesses.  Counters no witness
        # holds yet stay pending; a proven divergence raises
        # ReplicationDivergence out of this operation.
        if self.quorum is not None:
            self._ops_since_quorum += 1
            if self._ops_since_quorum >= self._quorum_every:
                self._ops_since_quorum = 0
                self.quorum.check()
        if self._anchor_path is not None:
            write_anchor(self._anchor_path,
                         {**self.core.snapshot(), "user": self.user_id})
        return answer

    # -- witness quorum -----------------------------------------------------

    def quorum_check(self, require_all: bool = False):
        """Confirm the recorded lineage now; see
        :meth:`~repro.net.replication.QuorumChecker.check`."""
        if self.quorum is None:
            return set()
        return self.quorum.check(require_all=require_all)

    # -- evidence -----------------------------------------------------------

    def _write_evidence(self, exc: IntegrityError) -> None:
        """When an evidence directory is configured, write the bundle
        the core captured, with the anchor file's contents, and set
        ``exc.evidence_path``."""
        if self._evidence_dir is None or exc.bundle is None:
            return
        bundle = {**exc.bundle, "anchor": evidence.anchor_lineage(
            self.core.initial_tag, self._anchor_path)}
        os.makedirs(self._evidence_dir, exist_ok=True)
        path = os.path.join(self._evidence_dir,
                            f"{self.user_id}-{bundle['op_index']}.evidence")
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


def write_anchor(path: str, fields: dict) -> None:
    """Persist a Protocol II trust anchor -- the client's entire defence
    against a forking server -- with :func:`atomic_write`: the one
    writer, beside :func:`read_anchor`.  ``fields`` holds
    :data:`_ANCHOR_FIELDS` and, optionally, ``pending``: the request in
    flight, written last as its wire bytes in hex."""
    values = [(name, fields[name]) for name in _ANCHOR_FIELDS]
    if fields.get("pending") is not None:
        values.append(("pending", encode(fields["pending"])))
    lines = [_ANCHOR_MAGIC] + [
        f"{name} {value.hex() if isinstance(value, (Digest, bytes)) else value}"
        for name, value in values]
    atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_anchor(path: str) -> dict:
    """Parse a persisted Protocol II trust anchor, defensively: the one
    reader, for the session that resumes from the file and for
    ``repro sync``, which evaluates the predicate over several.
    ``pending`` is the recorded request in flight, or ``None``.

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
        anchor = {name: parse(fields[name])
                  for name, parse in _ANCHOR_FIELDS.items()}
        anchor["pending"] = pending = (decode(bytes.fromhex(fields["pending"]))
                                       if "pending" in fields else None)
        if pending is not None and not isinstance(pending, Request):
            corrupt("the pending field is not a request")
        return anchor
    except KeyError as exc:
        corrupt(f"missing field {exc.args[0]!r}", exc)
    except (ValueError, WireError) as exc:
        corrupt(f"unparseable field value ({exc})", exc)


def protocol2_core(user_id: str, order: "int | StoreSpec" = 8,
                   initial_root: Digest | None = None,
                   anchor_path: str | None = None,
                   quorum=None) -> SessionCore:
    """One user's Protocol II session core, resumed from the anchor at
    ``anchor_path`` if there is one, its recorded request back in
    flight.  An anchor of another user is a caller mix-up, not
    corruption: ``ValueError``."""
    # The per-session nonce keeps a new session's request ids apart
    # from an old session's still in the server's dedup window; the
    # anchor persists it, so a resumed process keeps deduping its own
    # in-flight retries.
    core = SessionCore(
        user_id, XorRegisters(user_id, order), order, protocol="II",
        nonce=os.urandom(4).hex(), quorum=quorum,
        initial_tag=(Digest.zero() if initial_root is None
                     else initial_state_tag(initial_root)))
    if anchor_path is not None and os.path.isfile(anchor_path):
        anchor = read_anchor(anchor_path)
        if anchor["user"] != user_id:
            raise ValueError(
                f"anchor belongs to {anchor['user']!r}, not {user_id!r}")
        core.restore(anchor, [anchor["pending"]] if anchor["pending"] else [])
    return core


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

    ``host`` may be an ordered failover list of ``(host, port)`` pairs
    instead (``port`` omitted): every connect and reconnect walks it
    through one shared :class:`EndpointConnector`.  ``quorum`` attaches
    a :class:`~repro.net.replication.QuorumChecker`; each verified
    operation's expected ``(ctr, new_root)`` is then recorded and
    confirmed against f+1 random witnesses every ``quorum_every``
    operations (and on demand via :meth:`quorum_check`).  ``window``
    is the number of operations kept in flight.
    """

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
                 quorum=None, quorum_every: int = 8,
                 window: int | None = None) -> None:
        if port is None and isinstance(host, (list, tuple)):
            endpoints = list(host)
        else:
            endpoints = [(host, port)]
        core = protocol2_core(user_id, order, initial_root, anchor_path,
                              quorum)
        super().__init__(endpoints, core, window, retry or RetryPolicy(),
                         connect_timeout, op_timeout, evidence_dir,
                         quorum_every)
        self._anchor_path = anchor_path
        # The first connect, under the same retry budget as every other
        # transport failure: a server mid-restart must not kill client
        # construction with a raw OSError.
        self._exchange(read=False)

    @property
    def operations(self) -> int:
        """Operations this session verified (an anchor carries them)."""
        return self.core.operations

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
        # A request id is what the echo check matches across a window.
        # A session that never resends and has one operation in flight
        # has nothing for it to do, and sending it would put every
        # response into the server's dedup table, and so into every
        # snapshot.
        rids = (self.window if window is None else window) > 1
        core = SessionCore(
            user_id, SignedRootChain(user_id, verifier, order), order,
            protocol="I", nonce=os.urandom(4).hex(), rids=rids,
            signer=signer, quorum=quorum)
        super().__init__([(host, port)], core, window, _P1_POLICY,
                         connect_timeout, op_timeout, evidence_dir,
                         quorum_every)
        self._exchange(read=False)

    def counts(self) -> dict:
        """This user's contribution to the Protocol I count sync."""
        return {"lctr": self.lctr, "gctr": self.gctr}


class WitnessSession(_Session):
    """One connection to a replication witness: what the primary's
    deposits and a client's quorum fetches
    (:mod:`repro.net.replication`) travel on.

    A request carries no query, only the ``extras`` passed to
    ``submit``/``execute``; the answer is the reply's extras (its core
    has no state object), checked here for nothing -- signatures and the quorum rule belong to the
    code that reads them.  The window is one and no request id is sent:
    a deposit is idempotent and a fetch is a read, so a resend needs no
    dedup.
    """

    def __init__(self, endpoint, user_id: str, retry: RetryPolicy) -> None:
        super().__init__([endpoint], SessionCore(user_id, None, rids=False),
                         1, retry, CONNECT_TIMEOUT_SECONDS,
                         OP_TIMEOUT_SECONDS, None, 1)
