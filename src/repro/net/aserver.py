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

Every connection is multiplexed on a single event loop, and **one
drainer task** owns the :class:`~repro.net.core.ServerCore` outright --
the paper's serial execution model, as a single writer: no lock exists
at all.  Per loop iteration the drainer pulls everything the reader
tasks have queued and applies it in arrival order as *batches* (a
stop-and-wait client's request is a batch of one):

* every fresh request of a batch is appended to the WAL and made
  durable with a **single fsync** (group commit) before any of them
  executes;
* the Merkle root is recomputed **once per batch** -- one dirty-path
  pass over all touched leaves (:meth:`BPlusTree.refresh_root`),
  so sibling operations share the hashing of their common path
  prefixes;
* for Protocol I, a run of pipelined requests from one user becomes a
  *signing run*: all but the last are stamped with the defer-followup
  marker, so the server blocks -- and the client signs -- **once per
  batch** instead of once per operation;
* answers leave as they are made: the drainer iterates
  :meth:`~repro.net.core.ServerCore.stream_batch` and writes each
  response the moment its operation has executed (after the batch's
  fsync), so the clients decode and verify on their own CPUs while the
  batch executes on.  Only the batch's last answer waits for the root
  pass and any checkpoint -- a batch of one is answered as if nothing
  streamed, and a signing run's one blocking answer leaves last.  There
  is no ``await`` inside a batch; once it has ended, one gathered drain
  applies backpressure.  A batch whose fsync has returned runs to its
  end whatever its connections do; if the protocol raises mid-batch,
  the answers written stand and the rest of its connections are
  aborted.  :meth:`AsyncTrustedCvsServer._deliver` is the one place a
  response frame is written.

Detection guarantees are unchanged: every operation still gets its own
verification object, counter, and last-user attribution, and the
per-op VO chain (old root -> new root) stays contiguous, so k-bounded
deviation detection and the Lemma 4.1 register algebra apply exactly
as before.  Dedup, WAL replay, Byzantine attack hooks, and snapshot
policy are the core's.

Blocking semantics (Protocol I): a request that finds its branch
awaiting another client's follow-up signature is parked, not refused;
the drainer retries parked requests the moment a follow-up lands and
refuses them with a retryable :class:`ErrorReply` when
``block_timeout`` expires, so the waiting client fails fast instead of
hanging.  Under a Byzantine fork each user waits on *its own* branch's
outstanding follow-up, like a real forking server would.

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
from dataclasses import dataclass, field

from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.protocols.base import ErrorReply, Followup, Request
from repro.net.core import ServerCore
from repro.net.framing import FramingError, async_recv_message, encode_frame
from repro.wire import WireError

#: how long a parked request waits for another client's follow-up
#: signature before being refused (Protocol I only)
BLOCK_TIMEOUT_SECONDS = 30.0

#: default per-batch execution cap: the drainer never applies more
#: than this many requests under one group commit / root pass.
BATCH_MAX = 64

#: how long the drainer waits for a connection's send buffer to drain
#: before declaring the client gone and aborting the transport.
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


@dataclass
class _Work:
    """One queued wire message, waiting for the drainer."""

    user: str
    message: object  # Request | Followup
    writer: asyncio.StreamWriter
    enqueued_ns: int
    deadline: float = 0.0  # set when the item is parked (blocked)
    parked: bool = False


@dataclass
class _Shutdown:
    """Queue sentinel: wakes the drainer so it can observe stop()."""

    done: asyncio.Event = field(default_factory=asyncio.Event)


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
        self._queue: asyncio.Queue = asyncio.Queue()
        self._parked: list[_Work] = []
        self._writers: set[asyncio.StreamWriter] = set()
        self._inflight = 0
        self._server: asyncio.base_events.Server | None = None
        self._drainer: asyncio.Task | None = None
        self._state_changed: asyncio.Condition = asyncio.Condition()
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
        """Bind, start accepting, and launch the drainer task."""
        self.loop = asyncio.get_running_loop()
        self._thread = threading.current_thread()
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port)
        self._drainer = asyncio.ensure_future(self._drain())

    async def shutdown(self) -> None:
        """Stop serving, crash-equivalent: transports are aborted (a
        SIGKILLed process takes its sockets down with it) and nothing is
        flushed beyond what the WAL already holds."""
        self._stopping = True
        if self._drainer is not None:
            # Wake the drainer with a sentinel so it exits between
            # batches -- never mid-apply (a batch's loop has no awaits,
            # so cancellation could not split it anyway, but the
            # sentinel also lets the drainer park cleanly).
            sentinel = _Shutdown()
            self._queue.put_nowait(sentinel)
            await sentinel.done.wait()
            self._drainer.cancel()
            try:
                await self._drainer
            except asyncio.CancelledError:
                pass
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        # The listener closes last, and only in a step that finds no
        # other task alive.  A connection the loop has accept()ed is a
        # task before it is a transport, and asyncio (3.10-3.12) drops
        # it on the floor if its server closes in between: the peer
        # would hear nothing, neither RST nor FIN, where a SIGKILLed
        # process takes every socket down with it.  Until then a new
        # arrival's handler sees ``_stopping`` and closes it.  A task
        # that outlives the wait is somebody's quiesce waiter.
        while tasks := asyncio.all_tasks() - {asyncio.current_task()}:
            _done, pending = await asyncio.wait(tasks, timeout=1.0)
            if pending:
                break
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.core.close_store()

    # -- connection handling -----------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while not self._stopping:
                try:
                    message = await async_recv_message(reader)
                except (FramingError, WireError, OSError):
                    return
                if message is None:
                    return  # clean EOF
                if not isinstance(message, (Request, Followup)):
                    return  # protocol violation: drop the connection
                user_id = message.extras.get("user", "anonymous")
                self._inflight += 1
                if _obs.enabled:
                    _INFLIGHT.set(self._inflight)
                await self._queue.put(_Work(
                    user=user_id, message=message, writer=writer,
                    enqueued_ns=time.perf_counter_ns()))
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    # -- the drainer -------------------------------------------------------

    async def _drain(self) -> None:
        """The single-writer task: the only code that touches the core."""
        while True:
            item = await self._next_item()
            items: list = []
            if item is not None:
                items.append(item)
                while not self._queue.empty():
                    items.append(self._queue.get_nowait())
            await self._process(items)
            await self._expire_parked()
            async with self._state_changed:
                self._state_changed.notify_all()
            for sentinel in [i for i in items if isinstance(i, _Shutdown)]:
                sentinel.done.set()
                return

    async def _next_item(self):
        """Next queued message, or ``None`` when a parked request's
        deadline expires first."""
        if not self._parked:
            return await self._queue.get()
        delay = max(0.0, min(w.deadline for w in self._parked)
                    - time.monotonic())
        try:
            return await asyncio.wait_for(self._queue.get(), timeout=delay)
        except asyncio.TimeoutError:
            return None

    async def _process(self, items: list) -> None:
        core = self.core
        blocking = getattr(core.protocol, "blocks_after_request", False)
        supports_defer = getattr(core.protocol,
                                 "supports_deferred_followup", False)
        # Parked requests go first (they arrived before anything queued
        # now), then this iteration's arrivals, in order.
        candidates = [w for w in self._parked]
        self._parked = []
        candidates.extend(i for i in items if not isinstance(i, _Shutdown))
        pending = list(reversed(candidates))  # pop() from the arrival end
        batch: list[_Work] = []

        async def flush() -> None:
            if not batch:
                return
            # Each answer is written the moment the core yields it, so
            # a client verifies it while the batch executes on; no
            # await until the batch has ended (with_core and quiesce
            # never see half of one), then one drain for backpressure.
            answered = 0
            try:
                for response in core.stream_batch(
                        [(w.user, w.message) for w in batch]):
                    self._deliver(batch[answered], response)
                    answered += 1
            except Exception:
                # A request the protocol cannot execute.  The answers
                # written stand; abort the connections of the rest.  The
                # drainer must survive.
                for work in batch[answered:]:
                    self._inflight -= 1
                    transport = work.writer.transport
                    if transport is not None:
                        transport.abort()
                if _obs.enabled:
                    _INFLIGHT.set(self._inflight)
            writers = {work.writer for work in batch}
            batch.clear()
            await self._drain_writers(writers)

        while pending:
            work = pending.pop()
            if isinstance(work.message, Followup):
                # Order matters: everything that arrived before this
                # follow-up executes before it is absorbed.
                await flush()
                try:
                    core.apply_followup(work.user, work.message)
                except Exception:
                    transport = work.writer.transport
                    if transport is not None:
                        transport.abort()
                self._inflight -= 1
                if _obs.enabled:
                    _FOLLOWUPS.inc(user=work.user)
                    _INFLIGHT.set(self._inflight)
                # The follow-up may have unblocked a branch: give every
                # parked request another chance, ahead of newer work.
                if self._parked:
                    for parked in reversed(self._parked):
                        pending.append(parked)
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
                    await flush()
        await flush()

    def _park(self, work: _Work) -> None:
        """Hold a request until its branch unblocks (Protocol I)."""
        if not work.parked:
            work.parked = True
            work.deadline = time.monotonic() + self.block_timeout
            if _obs.enabled:
                _BLOCK_WAITS.inc()
        self._parked.append(work)

    def _observe_block_wait(self, work: _Work) -> None:
        """A once-parked request executes or is refused now."""
        if work.parked and _obs.enabled:
            parked_at = work.deadline - self.block_timeout
            _BLOCK_WAIT_MS.observe((time.monotonic() - parked_at) * 1e3)

    async def _expire_parked(self) -> None:
        """Refuse parked requests whose block never cleared, with an
        explicit retryable error frame: the waiting client fails fast
        instead of hanging on a silently dropped connection."""
        if not self._parked:
            return
        now = time.monotonic()
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
        await self._drain_writers({work.writer for work in expired})

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
        if work.writer.is_closing():
            return
        try:
            work.writer.write(encode_frame(response))
        except (OSError, FramingError):
            pass  # a frame too large or a socket gone: the op stands

    async def _drain_writers(self, writers: set) -> None:
        """Apply backpressure per batch: one gathered drain, with a
        timeout so one dead client cannot stall everyone's responses.
        A closed writer, or one whose transport took every byte, has
        nothing to drain and costs no task."""
        drains = [self._drain_one(writer) for writer in writers
                  if not writer.is_closing()
                  and writer.transport.get_write_buffer_size()]
        if drains:
            await asyncio.gather(*drains)

    async def _drain_one(self, writer: asyncio.StreamWriter) -> None:
        try:
            await asyncio.wait_for(writer.drain(), timeout=DRAIN_TIMEOUT_SECONDS)
        except (asyncio.TimeoutError, OSError, ConnectionError):
            transport = writer.transport
            if transport is not None:
                transport.abort()

    async def _await_unblocked(self, timeout: float, reader):
        """``reader(main_state)`` at the first instant every accepted
        message has executed (or been refused) and no follow-up is
        outstanding on any branch; ``None`` on timeout.

        Atomic with respect to the drainer: between the predicate
        turning true and ``reader`` returning there is no ``await``, and
        the drainer only runs at loop yield points."""
        deadline = time.monotonic() + timeout
        async with self._state_changed:
            # ``_inflight``, not the queue and the park list: a pass
            # holds what it dequeued in locals across its awaits.
            while self._inflight or not self.core.all_unblocked():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                try:
                    await asyncio.wait_for(self._state_changed.wait(),
                                           timeout=remaining)
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
        the drainer's batch loop has no ``await`` in it, so ``fn`` runs
        between batches and never sees one half applied."""
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
