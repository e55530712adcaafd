"""The Trusted-CVS server: the untrusted party, over real sockets --
one event loop, thousands of connections, batched execution.

Runs a :class:`~repro.mtree.database.VerifiedDatabase` behind a server
protocol -- Protocol II by default (counter + last-user attribution,
never blocks), or Protocol I (signed roots: the server may not answer
the next query until the operating client returns its signature over
the new root).  Speaks the binary wire format, one length-prefixed
frame per message.  The server needs no keys and is trusted with
nothing: every response carries the verification object clients check
(:class:`~repro.net.client.RemoteClient`,
:class:`~repro.net.client.RemoteClientP1`, at any window).

Every connection is one ``asyncio.BufferedProtocol`` on a single event
loop: each read lands in one receive buffer the server reuses, and the
connection cuts whole frames out of what it received
(:class:`~repro.net.framing.FrameInbox`).  **One pass** owns the
:class:`~repro.net.core.ServerCore` outright -- the paper's serial
execution model, as a single writer: no lock, queue or task.  Once the
loop has read everything ready, the pass (``call_soon``) applies what
arrived, in arrival order, as *batches* (a stop-and-wait client's
request is a batch of one):

* every fresh request of a batch is appended to the WAL (as the bytes
  its client sent) and made durable with a **single fsync** (group
  commit) before any of them executes;
* the Merkle root is recomputed **once per batch** -- one dirty-path
  pass over all touched leaves (:meth:`BPlusTree.refresh_root`),
  so sibling operations share the hashing of their common path
  prefixes;
* for Protocol I, a run of pipelined requests from one user becomes a
  *signing run*: all but the last are stamped with the defer-followup
  marker, so the server blocks -- and the client signs -- **once per
  batch** instead of once per operation;
* answers leave as they are made: the pass iterates
  :meth:`~repro.net.core.ServerCore.stream_batch` and writes each
  response the moment its operation has executed (after the batch's
  fsync), so the clients decode and verify on their own CPUs while the
  batch executes on.  Only the batch's last answer waits for the root
  pass and any checkpoint -- a batch of one is answered as if nothing
  streamed, and a signing run's one blocking answer leaves last.  A
  pass is synchronous: a batch whose fsync has returned runs to its
  end whatever its connections do; if the protocol raises mid-batch,
  the answers written stand and the rest of its connections are
  aborted.  :meth:`AsyncTrustedCvsServer._deliver` is the one place a
  response frame is written.

Backpressure is per connection: a client whose answers fill its
transport's buffer is not read until it takes them, and is aborted
after :data:`DRAIN_TIMEOUT_SECONDS`; nobody else waits on it.  A bad
frame closes its own connection only.

Detection guarantees are unchanged: every operation still gets its own
verification object, counter, and last-user attribution, and the
per-op VO chain (old root -> new root) stays contiguous, so k-bounded
deviation detection and the Lemma 4.1 register algebra apply exactly
as before.  Dedup, WAL replay, Byzantine attack hooks, and snapshot
policy are the core's.

Blocking semantics (Protocol I): a request that finds its branch
awaiting another client's follow-up signature is parked, not refused;
the pass retries parked requests the moment a follow-up lands, and a
timer brings the pass that refuses them with a retryable
:class:`ErrorReply` when ``block_timeout`` expires, so the waiting
client fails fast instead of hanging.  Under a Byzantine fork each
user waits on *its own* branch's outstanding follow-up, like a real
forking server would.

Crash safety (``data_dir``): the core keeps a write-ahead log and
periodic shape-exact paged checkpoints (see :mod:`repro.net.wal`).  A
restarted server replays to the identical root digest, counters, and
request-ID dedup table, so clients that retry in-flight operations are
answered exactly once and resume their verified sessions as if nothing
happened.

The server object is built over a :class:`~repro.net.core.ServerCore`
and configures only the front-end: where it listens, how long a parked
request waits (``block_timeout``) and how many requests one batch may
hold (``batch_max``).  What the server stores and executes -- protocol,
state, data directory, checkpoint cadence, shards, attack, replicator
-- is the core's, declared once there.  :func:`serve_in_thread` builds
the core on a loop thread it starts and returns the server, whose
synchronous surface (``address``, ``stop``, ``graceful_stop``,
``quiesce``, ``read_quiesced``, ``consistent_view``, ``checkpoint``,
``with_core``) is bridged onto that loop with
``run_coroutine_threadsafe``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass

from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.protocols.base import ErrorReply, Followup, Request
from repro.net.core import ServerCore
from repro.net.framing import FrameInbox, FramingError, encode_frame
from repro.wire import WireError, decode

#: how long a parked request waits for another client's follow-up
#: signature before being refused (Protocol I only)
BLOCK_TIMEOUT_SECONDS = 30.0

#: default per-batch execution cap: a pass never applies more than
#: this many requests under one group commit / root pass.
BATCH_MAX = 64

#: how long a connection whose client stopped reading may keep the
#: transport's buffer above its high-water mark before the client is
#: declared gone and the transport aborted.
DRAIN_TIMEOUT_SECONDS = 10.0

_REQUEST_MS = _registry.histogram(
    "net.request_ms", "server-side request handling time (incl. blocking)")
_FOLLOWUPS = _registry.counter(
    "net.followups", "follow-up signatures absorbed (Protocol I)")
_BLOCK_WAITS = _registry.counter(
    "net.block_waits", "requests that found the server blocked (Protocol I)")
_BLOCK_WAIT_MS = _registry.histogram(
    "net.block_wait_ms", "time spent waiting on another client's follow-up")
_BLOCK_TIMEOUTS = _registry.counter(
    "net.block_timeouts", "requests refused because the block never cleared")
_INFLIGHT = _registry.gauge(
    "net.inflight", "messages accepted but not yet executed or refused")


@dataclass(slots=True)
class _Work:
    """One received wire message, waiting for the next pass."""

    user: str
    message: object  # Request | Followup
    received: bytes  # the payload as the client sent it
    connection: "_Connection"
    enqueued_ns: int
    deadline: float = 0.0  # set when the item is parked (blocked)
    parked: bool = False


class _Connection(asyncio.BufferedProtocol):
    """One client connection: cuts whole frames out of what arrives and
    hands each message to the server's next pass.  A bad length prefix,
    an undecodable frame or a message that is neither a request nor a
    follow-up closes this connection and no other."""

    def __init__(self, server: "AsyncTrustedCvsServer") -> None:
        self.server = server
        self.transport: asyncio.Transport | None = None
        self._inbox = FrameInbox()
        self._stalled: asyncio.TimerHandle | None = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        if self.server._stopping:
            transport.abort()
            return
        self.server._connections.add(self)

    def connection_lost(self, exc) -> None:
        self.server._connections.discard(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.server._received

    def buffer_updated(self, nbytes: int) -> None:
        server = self.server
        if server._stopping or self.transport.is_closing():
            return
        self._inbox.feed(server._received[:nbytes])
        try:
            while (payload := self._inbox.pop()) is not None:
                message = decode(payload)
                if not isinstance(message, (Request, Followup)):
                    raise WireError("neither a request nor a follow-up")
                server._arrive(_Work(
                    user=message.extras.get("user", "anonymous"),
                    message=message, received=payload, connection=self,
                    enqueued_ns=time.perf_counter_ns()))
        except (FramingError, WireError):
            self.transport.abort()

    # Backpressure: a client that stops reading stops being read, and
    # is gone if it has not taken its answers by DRAIN_TIMEOUT_SECONDS.

    def pause_writing(self) -> None:
        self.transport.pause_reading()
        self._stalled = self.server.loop.call_later(
            DRAIN_TIMEOUT_SECONDS, self.transport.abort)

    def resume_writing(self) -> None:
        if self._stalled is not None:
            self._stalled.cancel()
            self._stalled = None
        if not self.transport.is_closing():
            self.transport.resume_reading()


class AsyncTrustedCvsServer:
    """Event-loop Trusted-CVS server over a built :class:`ServerCore`.

    Run :meth:`start` on an event loop -- or use :func:`serve_in_thread`,
    which starts one in a daemon thread.  The loop :meth:`start` runs on
    is the server's: the synchronous methods below bridge onto it from
    any other thread, and :meth:`stop` ends it.
    """

    def __init__(
        self,
        core: ServerCore,
        host: str = "127.0.0.1",
        port: int = 0,
        block_timeout: float = BLOCK_TIMEOUT_SECONDS,
        batch_max: int = BATCH_MAX,
    ) -> None:
        if batch_max < 1:
            raise ValueError("batch_max must be at least 1")
        self.core = core
        self._host, self._port = host, port
        self.block_timeout = block_timeout
        self.batch_max = batch_max
        #: what arrived since the last pass, in arrival order
        self._arrivals: list[_Work] = []
        self._pass_due = False
        self._parked: list[_Work] = []
        self._parked_timer: asyncio.TimerHandle | None = None
        self._connections: set[_Connection] = set()
        #: what every read lands in before its connection's inbox takes
        #: it: one buffer, reused, instead of a new 256 KiB one per read
        self._received = memoryview(bytearray(256 * 1024))
        #: arrivals not yet executed or refused, queued or parked
        self._inflight = 0
        #: quiesce waiters, woken after every pass
        self._waiters: list[asyncio.Future] = []
        self._server: asyncio.base_events.Server | None = None
        self._stopping = False
        self.loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # -- introspection -----------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        name = sock.getsockname()
        return name[0], name[1]

    @property
    def replayed_records(self) -> int:
        return self.core.replayed_records

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting."""
        self.loop = asyncio.get_running_loop()
        self._thread = threading.current_thread()
        self._server = await self.loop.create_server(
            lambda: _Connection(self), self._host, self._port)

    async def shutdown(self) -> None:
        """Stop serving, crash-equivalent: transports are aborted (a
        SIGKILLed process takes its sockets down with it) and nothing is
        flushed beyond what the WAL already holds."""
        # What has arrived runs (a pass has no awaits, so a batch is
        # never split); nothing arrives after this.
        self._run_pass()
        self._stopping = True
        for connection in list(self._connections):
            connection.transport.abort()
        # The listener closes last, and only in a step that finds no
        # other task alive.  A connection the loop has accept()ed is a
        # task before it is a transport, and asyncio (3.10-3.12) drops
        # it on the floor if its server closes in between: the peer
        # would hear nothing, neither RST nor FIN, where a SIGKILLed
        # process takes every socket down with it.  Until then a new
        # arrival's protocol sees ``_stopping`` and aborts it.  A task
        # that outlives the wait is somebody's quiesce waiter.
        while tasks := asyncio.all_tasks() - {asyncio.current_task()}:
            _done, pending = await asyncio.wait(tasks, timeout=1.0)
            if pending:
                break
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.core.close_store()

    # -- the pass ----------------------------------------------------------

    def _arrive(self, work: _Work) -> None:
        """Queue one received message for the next pass, which runs once
        the loop has read everything ready in this iteration."""
        self._arrivals.append(work)
        self._inflight += 1
        if _obs.enabled:
            _INFLIGHT.set(self._inflight)
        if not self._pass_due:
            self._pass_due = True
            self.loop.call_soon(self._run_pass)

    def _run_pass(self) -> None:
        """The single writer: the only code that touches the core.  It
        runs everything that arrived since the last pass, refuses the
        parked requests whose block never cleared, and wakes the
        quiesce waiters.  Synchronous: no batch is ever split by an
        ``await``, and ``with_core`` runs between passes."""
        self._pass_due = False
        if self._stopping:
            return
        arrivals, self._arrivals = self._arrivals, []
        try:
            self._process(arrivals)
            self._expire_parked()
        finally:
            if self._parked_timer is not None:
                self._parked_timer.cancel()
                self._parked_timer = None
            if self._parked:
                # The earliest deadline brings the next pass; a timer
                # that fires a little early finds nothing expired and
                # is armed again.
                self._parked_timer = self.loop.call_at(
                    min(work.deadline for work in self._parked),
                    self._run_pass)
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_result(None)

    def _process(self, arrivals: list[_Work]) -> None:
        core = self.core
        blocking = getattr(core.protocol, "blocks_after_request", False)
        supports_defer = getattr(core.protocol,
                                 "supports_deferred_followup", False)
        # Parked requests go first (they arrived before anything that
        # arrived since), then this pass's arrivals, in order.
        pending = self._parked + arrivals
        pending.reverse()  # pop() from the arrival end
        self._parked = []
        batch: list[_Work] = []

        def flush() -> None:
            if not batch:
                return
            # Each answer is written the moment the core yields it, so
            # a client verifies it while the batch executes on.
            answered = 0
            try:
                for response in core.stream_batch(
                        [(work.user, work.message) for work in batch],
                        [work.received for work in batch]):
                    self._deliver(batch[answered], response)
                    answered += 1
            except Exception:
                # A request the protocol cannot execute.  The answers
                # written stand; abort the connections of the rest.  The
                # pass must survive.
                for work in batch[answered:]:
                    self._inflight -= 1
                    work.connection.transport.abort()
                if _obs.enabled:
                    _INFLIGHT.set(self._inflight)
            batch.clear()

        while pending:
            work = pending.pop()
            if isinstance(work.message, Followup):
                # Order matters: everything that arrived before this
                # follow-up executes before it is absorbed.
                flush()
                try:
                    core.apply_followup(work.user, work.message,
                                        work.received)
                except Exception:
                    work.connection.transport.abort()
                self._inflight -= 1
                if _obs.enabled:
                    _FOLLOWUPS.inc(user=work.user)
                    _INFLIGHT.set(self._inflight)
                # The follow-up may have unblocked a branch: give every
                # parked request another chance, ahead of newer work.
                if self._parked:
                    pending.extend(reversed(self._parked))
                    self._parked = []
                continue
            if blocking:
                # An open batch is a signing run: only its own user may
                # extend it, and it blocks everyone else the moment it
                # executes.
                if batch:
                    admitted = (supports_defer and work.user == batch[0].user
                                and len(batch) < self.batch_max)
                else:
                    admitted = not core.blocked_for(work.user)
                if not admitted:
                    self._park(work)
                    continue
                self._observe_block_wait(work)
                batch.append(work)
            else:
                batch.append(work)
                if len(batch) >= self.batch_max:
                    flush()
        flush()

    def _park(self, work: _Work) -> None:
        """Hold a request until its branch unblocks (Protocol I)."""
        if not work.parked:
            work.parked = True
            work.deadline = self.loop.time() + self.block_timeout
            if _obs.enabled:
                _BLOCK_WAITS.inc()
        self._parked.append(work)

    def _observe_block_wait(self, work: _Work) -> None:
        """A once-parked request executes or is refused now."""
        if work.parked and _obs.enabled:
            parked_at = work.deadline - self.block_timeout
            _BLOCK_WAIT_MS.observe((self.loop.time() - parked_at) * 1e3)

    def _expire_parked(self) -> None:
        """Refuse parked requests whose block never cleared, with an
        explicit retryable error frame: the waiting client fails fast
        instead of hanging on a silently dropped connection."""
        if not self._parked:
            return
        now = self.loop.time()
        keep, expired = [], []
        for work in self._parked:
            (expired if work.deadline <= now else keep).append(work)
        self._parked = keep
        for work in expired:
            self._observe_block_wait(work)
            if _obs.enabled:
                _BLOCK_TIMEOUTS.inc()
            self._deliver(work, ErrorReply(
                reason="server blocked awaiting a follow-up signature",
                extras={"timeout_s": self.block_timeout, "retryable": True}))

    def _deliver(self, work: _Work, response) -> None:
        """Answer ``work``: the one place a response frame is written to
        a connection.  The message leaves the in-flight count whether
        or not its client is still there to read the answer (the op
        stands, and dedup covers a retry)."""
        self._inflight -= 1
        if _obs.enabled:
            _REQUEST_MS.observe(
                (time.perf_counter_ns() - work.enqueued_ns) / 1e6,
                user=work.user)
            _INFLIGHT.set(self._inflight)
        transport = work.connection.transport
        if transport.is_closing():
            return
        try:
            transport.write(encode_frame(response))
        except (OSError, FramingError):
            pass  # a frame too large or a socket gone: the op stands

    async def _await_unblocked(self, timeout: float, reader):
        """``reader(main_state)`` at the first instant every accepted
        message has executed (or been refused) and no follow-up is
        outstanding on any branch; ``None`` on timeout.

        Atomic with respect to the pass: between the predicate turning
        true and ``reader`` returning there is no ``await``, and a pass
        runs only at loop yield points."""
        deadline = self.loop.time() + timeout
        # ``_inflight``, not the arrivals and the park list: it counts
        # every message between its frame and its answer.
        while self._inflight or not self.core.all_unblocked():
            remaining = deadline - self.loop.time()
            if remaining <= 0:
                return None
            waiter = self.loop.create_future()
            self._waiters.append(waiter)
            try:
                await asyncio.wait_for(waiter, timeout=remaining)
            except asyncio.TimeoutError:
                return None
        return reader(self.core.states["main"])

    # -- the synchronous surface (from any thread but the loop's) ----------

    def _call(self, coroutine, timeout: float | None = None):
        future = asyncio.run_coroutine_threadsafe(coroutine, self.loop)
        return future.result(timeout)

    def with_core(self, fn):
        """Run ``fn(core)`` on the loop and return its result.

        The one way to read or swap server state from another thread:
        a pass has no ``await`` in it, so ``fn`` runs between passes and
        never sees a batch half applied."""
        async def _run():
            return fn(self.core)
        return self._call(_run())

    def initial_root_digest(self):
        """The *current* root digest -- call it before serving any
        operations to capture the common-knowledge genesis anchor that
        :func:`~repro.net.client.sync_check` is anchored at."""
        return self.with_core(lambda core: core.state.database.root_digest())

    def read_quiesced(self, reader, timeout: float | None = None):
        """Run ``reader(main_state)`` at a quiescent instant (see
        :meth:`_await_unblocked`), or return ``None`` on timeout.

        Clients send their post-operation signature asynchronously, so
        ``put()`` returning does not mean the server has absorbed it;
        quiescing and *then* reading would reopen that race."""
        if timeout is None:
            timeout = self.block_timeout
        return self._call(self._await_unblocked(timeout, reader),
                          timeout=timeout + 5.0)

    def quiesce(self, timeout: float | None = None) -> bool:
        """Wait until the server is quiescent; False on timeout."""
        return bool(self.read_quiesced(lambda _state: True, timeout))

    def consistent_view(self, timeout: float | None = None):
        """An atomic ``(root_digest, ctr, tick)`` triple of the main
        branch at a quiescent instant, or ``None`` on timeout."""
        return self.read_quiesced(
            lambda state: (state.database.root_digest(), state.ctr,
                           self.core.round),
            timeout=timeout)

    def checkpoint(self) -> None:
        """Write a checkpoint now (durable mode only); starts the next log."""
        self.with_core(lambda core: core.snapshot())

    def stop(self) -> None:
        """Stop serving, crash-equivalent (:meth:`shutdown`), and end
        the loop."""
        try:
            self._call(self.shutdown(), timeout=30.0)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=10.0)
            if not self.loop.is_running():
                self.loop.close()

    def graceful_stop(self, timeout: float | None = None) -> bool:
        """The operator shutdown: quiesce, drain replication, make the
        WAL durable, write a final checkpoint, *then* stop serving.

        Unlike :meth:`stop` (the crash-equivalent teardown the recovery
        tests exercise), nothing is lost mid-batch: queued batches and
        parked requests execute, outstanding Protocol I follow-ups are
        waited for, the replicator flushes every created deposit to
        every witness, and the checkpoint means a restart replays zero
        WAL records.  Returns False when the quiesce or the replication
        flush timed out (shutdown still proceeds -- the WAL keeps its
        durability promise either way)."""
        if timeout is None:
            timeout = self.block_timeout
        clean = self.quiesce(timeout=timeout)
        replicator = self.core.replicator
        if replicator is not None:
            # Flushed from this thread: sender threads are independent
            # of the event loop, and the quiesce above already drained
            # every operation that could still create a deposit.
            clean = replicator.flush(timeout=timeout) and clean

        def finalise(core: ServerCore) -> None:
            if core.store is not None:
                core.store.wal_sync()
                core.snapshot()
        self.with_core(finalise)
        self.stop()
        return clean


def serve_in_thread(
    port: int = 0,
    block_timeout: float = BLOCK_TIMEOUT_SECONDS,
    batch_max: int = BATCH_MAX,
    **core_options,
) -> AsyncTrustedCvsServer:
    """Start a server on its own event-loop thread (an ephemeral port
    unless ``port`` is given) over ``ServerCore(**core_options)``, built
    on that thread; call ``server.stop()`` when done."""
    loop = asyncio.new_event_loop()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_forever()

    thread = threading.Thread(target=_run, daemon=True,
                              name="trusted-cvs-aserver")
    thread.start()

    async def _build() -> AsyncTrustedCvsServer:
        core = ServerCore(**core_options)
        try:
            server = AsyncTrustedCvsServer(
                core, port=port, block_timeout=block_timeout,
                batch_max=batch_max)
            await server.start()
        except BaseException:
            core.close_store()  # the store's lock, too
            raise
        return server

    future = asyncio.run_coroutine_threadsafe(_build(), loop)
    try:
        return future.result(timeout=30.0)
    except Exception:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5.0)
        raise
