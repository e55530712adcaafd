"""A TCP Trusted-CVS server: the untrusted party, over real sockets.

Runs a :class:`~repro.mtree.database.VerifiedDatabase` behind a server
protocol -- Protocol II by default (counter + last-user attribution,
never blocks), or Protocol I (signed roots: the server may not answer
the next query until the operating client returns its signature over
the new root, which the handler enforces with a condition variable).

Speaks the binary wire format, one length-prefixed frame per message.
Requests from all connections serialise through one lock -- the paper's
serial execution model.

The server needs no keys and is trusted with nothing: every response
carries the verification object clients check.  Use
:class:`~repro.net.client.RemoteClient` (Protocol II) or
:class:`~repro.net.client.RemoteClientP1` (Protocol I) to talk to it.

Crash safety (``data_dir``): when given a data directory the server
keeps a write-ahead log and periodic shape-exact snapshots (see
:mod:`repro.net.wal`).  A restarted server replays to the identical
root digest, counters, and request-ID dedup table, so clients that
retry in-flight operations are answered exactly once and resume their
verified sessions as if nothing happened.

This is the *threaded* deployment: one handler thread per connection,
all of them serialised through ``state_cond``.  The state machine
itself -- branches, dedup, WAL, attack hooks -- lives in
:class:`~repro.net.core.ServerCore`, shared with the asyncio
deployment (:mod:`repro.net.aserver`), which multiplexes thousands of
connections on one event loop and batches work instead.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time

from repro.mtree.database import VerifiedDatabase
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.protocols.base import (
    ErrorReply,
    Followup,
    Request,
    Response,
    ServerProtocol,
    ServerState,
)
from repro.protocols.protocol1 import DEFER_FOLLOWUP_KEY
from repro.net.core import DEDUP_WINDOW, SNAPSHOT_EVERY, ServerCore
from repro.net.framing import (
    FramingError, recv_message, send_message, set_nodelay)
from repro.wire import WireError

#: how long a handler waits for another client's follow-up signature
#: before giving up on the request (Protocol I only)
BLOCK_TIMEOUT_SECONDS = 30.0

_REQUEST_MS = _registry.histogram(
    "net.request_ms", "server-side request handling time (incl. blocking)")
_BLOCK_WAITS = _registry.counter(
    "net.block_waits", "requests that found the server blocked (Protocol I)")
_BLOCK_WAIT_MS = _registry.histogram(
    "net.block_wait_ms", "time spent waiting on another client's follow-up")
_BLOCK_TIMEOUTS = _registry.counter(
    "net.block_timeouts", "requests refused because the block never cleared")
_FOLLOWUPS = _registry.counter(
    "net.followups", "follow-up signatures absorbed (Protocol I)")


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        server: TrustedCvsTcpServer = self.server  # type: ignore[assignment]
        set_nodelay(self.request)
        server._register_connection(self.request)
        try:
            if server._workers is not None:
                with server._workers:
                    self._serve_connection(server)
            else:
                self._serve_connection(server)
        finally:
            server._unregister_connection(self.request)

    def _serve_connection(self, server) -> None:  # pragma: no cover
        while True:
            try:
                message = recv_message(self.request)
            except (FramingError, WireError, OSError):
                return
            if message is None:
                return
            if isinstance(message, Followup):
                user_id = message.extras.get("user", "anonymous")
                with server.state_cond:
                    server.apply_followup(user_id, message)
                    server.state_cond.notify_all()
                if _obs.enabled:
                    _FOLLOWUPS.inc(user=user_id)
                continue
            if not isinstance(message, Request):
                return  # protocol violation: drop the connection
            # The defer-followup marker is server-internal (stamped on
            # logged batch requests); a client that sets it on the wire
            # would skip its blocking signature, so strip it here.
            message.extras.pop(DEFER_FOLLOWUP_KEY, None)
            user_id = message.extras.get("user", "anonymous")
            started = time.perf_counter_ns() if _obs.enabled else 0
            with server.state_cond:
                # Protocol I blocking: wait for the previous operator's
                # signature before serving the next query.  Under a
                # Byzantine fork each user waits on *its own* branch's
                # outstanding follow-up, like a real forking server would.
                blocked = server.blocked_for(user_id)
                if blocked and _obs.enabled:
                    _BLOCK_WAITS.inc()
                wait_started = time.perf_counter_ns() if blocked and _obs.enabled else 0
                cleared = server.state_cond.wait_for(
                    lambda: not server.blocked_for(user_id),
                    timeout=server.block_timeout)
                if wait_started:
                    _BLOCK_WAIT_MS.observe(
                        (time.perf_counter_ns() - wait_started) / 1e6)
                if not cleared:
                    # The operating client never returned its signature.
                    # Refuse this request with an explicit error frame so
                    # the waiting client fails fast instead of hanging on
                    # a silently dropped connection.
                    if _obs.enabled:
                        _BLOCK_TIMEOUTS.inc()
                    try:
                        send_message(self.request, ErrorReply(
                            reason="server blocked awaiting a follow-up signature",
                            extras={"timeout_s": server.block_timeout,
                                    "retryable": True}))
                    except OSError:
                        return
                    continue
                response = server.apply_request(user_id, message)
            if _obs.enabled:
                _REQUEST_MS.observe(
                    (time.perf_counter_ns() - started) / 1e6, user=user_id)
            try:
                send_message(self.request, response)
            except OSError:
                return


class TrustedCvsTcpServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server; requests serialise through ``state_cond``."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        order: int = 8,
        database: VerifiedDatabase | None = None,
        protocol: ServerProtocol | None = None,
        state: ServerState | None = None,
        block_timeout: float = BLOCK_TIMEOUT_SECONDS,
        data_dir: str | None = None,
        snapshot_every: int = SNAPSHOT_EVERY,
        fsync: bool = True,
        attack=None,
        dedup_window: int = DEDUP_WINDOW,
        max_workers: int | None = None,
        shards: int = 1,
        replicator=None,
        backend: str = "file",
        io=None,
        lock: bool = False,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.block_timeout = block_timeout
        self.state_cond = threading.Condition()
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        self._workers = (threading.BoundedSemaphore(max_workers)
                         if max_workers else None)
        self.core = ServerCore(order=order, database=database,
                               protocol=protocol, state=state,
                               data_dir=data_dir,
                               snapshot_every=snapshot_every, fsync=fsync,
                               attack=attack, dedup_window=dedup_window,
                               shards=shards, replicator=replicator,
                               backend=backend, io=io, lock=lock)

    # -- core delegation ---------------------------------------------------

    @property
    def protocol(self) -> ServerProtocol:
        return self.core.protocol

    @property
    def attack(self):
        return self.core.attack

    @property
    def states(self) -> dict[str, ServerState]:
        return self.core.states

    @property
    def state(self) -> ServerState:
        """The main (honest-history) state branch."""
        return self.core.state

    @state.setter
    def state(self, value: ServerState) -> None:
        self.core.state = value

    @property
    def replayed_records(self) -> int:
        return self.core.replayed_records

    @property
    def _round(self) -> int:
        return self.core.round

    @property
    def _store(self):
        return self.core.store

    def apply_request(self, user_id: str, message: Request) -> Response:
        """Dedup-check, log, and execute one request (lock held)."""
        return self.core.apply_request(user_id, message)

    def apply_followup(self, user_id: str, message: Followup) -> None:
        """Log and absorb one follow-up message (lock held)."""
        self.core.apply_followup(user_id, message)

    def blocked_for(self, user_id: str) -> bool:
        """Whether this user's next request must wait (lock held)."""
        return self.core.blocked_for(user_id)

    def tick(self) -> int:
        return self.core.tick()

    def checkpoint(self) -> None:
        """Write a snapshot now (durable mode only); truncates the WAL."""
        if self.core.store is None:
            return
        with self.state_cond:
            self.core.snapshot()

    # -- connection lifecycle ----------------------------------------------

    def _register_connection(self, sock) -> None:
        with self._connections_lock:
            self._connections.add(sock)

    def _unregister_connection(self, sock) -> None:
        with self._connections_lock:
            self._connections.discard(sock)

    def stop(self, snapshot: bool = False) -> None:
        """Stop serving.  With ``snapshot=False`` this is the crash-
        equivalent shutdown: every live connection is severed and
        nothing is flushed beyond what the WAL already holds, which is
        exactly what recovery must cope with (a SIGKILLed process takes
        its established sockets down with it)."""
        self.shutdown()
        self.server_close()
        with self._connections_lock:
            active = list(self._connections)
        for sock in active:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self.core.store is not None and snapshot:
            with self.state_cond:
                self.core.snapshot()
        self.core.close_store()

    def graceful_stop(self, timeout: float | None = None) -> bool:
        """The operator shutdown: quiesce, drain replication, make the
        WAL durable, write a final snapshot, *then* stop serving.

        Unlike :meth:`stop` (the crash-equivalent teardown the recovery
        tests exercise), nothing is lost mid-batch: outstanding
        Protocol I follow-ups are waited for, the replicator flushes
        every created deposit to every witness, and the snapshot means a
        restart replays zero WAL records.  Returns False when the
        quiesce or the replication flush timed out (shutdown still
        proceeds -- the WAL keeps its durability promise either way).
        """
        if timeout is None:
            timeout = self.block_timeout
        clean = self.quiesce(timeout=timeout)
        if self.core.replicator is not None:
            clean = self.core.replicator.flush(timeout=timeout) and clean
        with self.state_cond:
            if self.core.store is not None:
                self.core.store.wal_sync()
                self.core.snapshot()
        self.stop(snapshot=False)
        return clean

    # -- quiescence --------------------------------------------------------

    @property
    def state_lock(self):
        """The lock guarding server state (the condition's lock)."""
        return self.state_cond

    def quiesce(self, timeout: float | None = None) -> bool:
        """Wait until no follow-up is outstanding on any branch
        (Protocol I).

        Clients send their post-operation signature asynchronously, so
        ``put()`` returning does not mean the server has absorbed it.
        Anything that inspects or swaps ``state`` out-of-band (tests,
        attack harnesses) should use :meth:`read_quiesced` -- quiescing
        and *then* reading reopens the race this method cannot close on
        its own.  Returns False on timeout.
        """
        if timeout is None:
            timeout = self.block_timeout
        with self.state_cond:
            return self.state_cond.wait_for(self.core.all_unblocked,
                                            timeout=timeout)

    def read_quiesced(self, reader, timeout: float | None = None):
        """Run ``reader(main_state)`` under the state lock once every
        branch is unblocked, in one critical section.

        This closes the in-flight race that ``quiesce()`` alone leaves
        open: quiescing and then re-acquiring the lock to read lets a
        queued request execute in between, so the caller could observe a
        root from mid-transaction (Protocol I: a new root whose
        follow-up signature has not been absorbed yet).  Returns the
        reader's result, or ``None`` if the block never cleared within
        ``timeout``.
        """
        if timeout is None:
            timeout = self.block_timeout
        with self.state_cond:
            if not self.state_cond.wait_for(self.core.all_unblocked,
                                            timeout=timeout):
                return None
            return reader(self.core.states["main"])

    def consistent_view(self, timeout: float | None = None):
        """An atomic ``(root_digest, ctr, tick)`` triple of the main
        branch at a quiescent instant, or ``None`` on timeout."""
        return self.read_quiesced(
            lambda state: (state.database.root_digest(), state.ctr,
                           self.core.round),
            timeout=timeout)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def initial_root_digest(self):
        """The *current* root digest -- call it before serving any
        operations to capture the common-knowledge genesis anchor that
        :func:`~repro.net.client.sync_check` is anchored at."""
        with self.state_cond:
            return self.state.database.root_digest()


def serve_in_thread(
    order: int = 8,
    database: VerifiedDatabase | None = None,
    port: int = 0,
    protocol: ServerProtocol | None = None,
    state: ServerState | None = None,
    block_timeout: float = BLOCK_TIMEOUT_SECONDS,
    data_dir: str | None = None,
    snapshot_every: int = SNAPSHOT_EVERY,
    fsync: bool = True,
    attack=None,
    max_workers: int | None = None,
    shards: int = 1,
    replicator=None,
    backend: str = "file",
    io=None,
    lock: bool = False,
) -> TrustedCvsTcpServer:
    """Start a server on an ephemeral port; returns the running server.

    Call ``server.stop()`` (or ``server.shutdown(); server.server_close()``)
    when done.
    """
    server = TrustedCvsTcpServer(order=order, database=database, port=port,
                                 protocol=protocol, state=state,
                                 block_timeout=block_timeout,
                                 data_dir=data_dir,
                                 snapshot_every=snapshot_every, fsync=fsync,
                                 attack=attack, max_workers=max_workers,
                                 shards=shards, replicator=replicator,
                                 backend=backend, io=io, lock=lock)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server
