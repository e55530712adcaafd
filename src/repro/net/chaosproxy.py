"""A fault-injecting TCP proxy for chaos-testing the net stack.

Sits between clients and a Trusted-CVS server (:mod:`repro.net.aserver`)
and misbehaves on purpose, at the *byte* level, where real networks
fail: it severs connections without warning, forwards only a prefix of
a chunk before killing the link (a frame truncated mid-length-prefix or
mid-payload, depending on where the cut lands), and injects forwarding
delays.  It never alters bytes it does deliver -- corruption is the
wire/verification layers' department; the proxy models *loss*, which
the paper's model explicitly assumes away (future-work item (3)).

Reproducibility: every probabilistic decision is drawn from RNGs
derived from one master seed and the per-connection index, so a chaos
campaign with a fixed seed injects the same fault schedule per
connection on every run regardless of thread interleaving.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
from dataclasses import dataclass

from repro.net.framing import open_connection, set_nodelay
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry

_DROPS = _registry.counter(
    "chaos.conn_drops", "connections severed by the chaos proxy")
_TRUNCATIONS = _registry.counter(
    "chaos.truncations", "chunks cut mid-stream before severing")
_RESETS = _registry.counter(
    "chaos.resets", "connections aborted with an RST mid-stream")
_DELAYS = _registry.counter(
    "chaos.delays", "forwarding delays injected")
_CONNECTIONS = _registry.counter(
    "chaos.connections", "connections accepted by the chaos proxy")


@dataclass(frozen=True)
class ChaosConfig:
    """Per-chunk fault probabilities and magnitudes.

    Each forwarded chunk independently risks: ``truncate_rate`` (cut
    the chunk at a random byte offset, forward the prefix, then sever
    both directions), ``drop_rate`` (sever immediately, forwarding
    nothing), ``reset_rate`` (forward a random prefix, then *abort* the
    connection -- an RST, not a graceful FIN, so the peer sees
    ``ECONNRESET`` mid-response instead of a clean EOF), and
    ``delay_rate`` (sleep ``delay_s`` before forwarding).
    ``reset_rate_s2c``, when set, overrides ``reset_rate`` for the
    server-to-client direction only (each direction draws from its own
    seeded RNG, so the override keeps schedules reproducible).
    ``immune_chunks`` exempts each connection's first N chunks so a
    campaign can guarantee forward progress.
    """

    drop_rate: float = 0.0
    truncate_rate: float = 0.0
    reset_rate: float = 0.0
    reset_rate_s2c: float | None = None
    delay_rate: float = 0.0
    delay_s: float = 0.01
    immune_chunks: int = 0

    def reset_rate_for(self, label: str) -> float:
        if label == "s2c" and self.reset_rate_s2c is not None:
            return self.reset_rate_s2c
        return self.reset_rate


class _Pump(threading.Thread):
    """One direction of one proxied connection."""

    def __init__(self, proxy: "ChaosProxy", source: socket.socket,
                 sink: socket.socket, rng: random.Random, label: str,
                 aborted: threading.Event) -> None:
        super().__init__(daemon=True)
        self._proxy = proxy
        self._source = source
        self._sink = sink
        self._rng = rng
        self._label = label
        #: shared with the twin pump of the same connection: once set,
        #: neither pump may end a leg gracefully (a FIN ahead of the RST).
        self._aborted = aborted

    def run(self) -> None:
        config = self._proxy.config
        reset_rate = config.reset_rate_for(self._label)
        chunk_no = 0
        try:
            while True:
                chunk = self._source.recv(4096)
                if not chunk:
                    break
                chunk_no += 1
                if chunk_no > config.immune_chunks:
                    roll = self._rng.random()
                    sever = config.drop_rate
                    if roll < sever:
                        self._proxy._record("drops")
                        return  # sever without forwarding
                    sever += config.truncate_rate
                    if roll < sever:
                        cut = self._rng.randrange(0, len(chunk))
                        if cut:
                            self._sink.sendall(chunk[:cut])
                        self._proxy._record("truncations")
                        return  # sever mid-frame
                    sever += reset_rate
                    if roll < sever:
                        cut = self._rng.randrange(0, len(chunk))
                        if cut:
                            self._sink.sendall(chunk[:cut])
                        self._proxy._record("resets")
                        self._abort()
                        return  # RST, not FIN: abrupt mid-response abort
                    if roll < sever + config.delay_rate:
                        self._proxy._record("delays", sever=False)
                        self._proxy._sleep(config.delay_s)
                self._sink.sendall(chunk)
        except OSError:
            pass
        finally:
            for sock in (self._source, self._sink):
                if not self._aborted.is_set():
                    try:
                        sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                try:
                    sock.close()
                except OSError:
                    pass

    def _abort(self) -> None:
        """Close both sockets abruptly: SO_LINGER with a zero timeout
        turns close() into an RST, so the peer's next read fails with
        ``ECONNRESET`` instead of seeing a graceful end of stream.

        The twin pump is blocked in ``recv()`` on one of these sockets,
        and a ``close()`` from this thread neither wakes it nor releases
        the socket, so that leg's RST would wait for somebody's timer.
        ``shutdown(SHUT_RD)`` wakes the twin and puts nothing on the
        wire; the flag keeps its ``finally`` from sending a FIN first."""
        hard_close = struct.pack("ii", 1, 0)
        for sock in (self._source, self._sink):
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, hard_close)
            except OSError:
                pass
        self._aborted.set()
        for sock in (self._source, self._sink):
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass


class ChaosProxy:
    """A TCP proxy that forwards ``listen`` -> ``upstream`` with faults.

    Use as a context manager or call :meth:`start` / :meth:`stop`.  The
    fault tallies are exposed on :attr:`faults` (and mirrored to obs
    counters when collection is enabled).
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 listen_host: str = "127.0.0.1", listen_port: int = 0,
                 seed: int = 0, config: ChaosConfig | None = None) -> None:
        self.upstream = (upstream_host, upstream_port)
        self.config = config or ChaosConfig()
        self._seed = seed
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((listen_host, listen_port))
        self._accept_thread: threading.Thread | None = None
        self._running = False
        self._conn_index = 0
        self._lock = threading.Lock()
        self.faults = {"drops": 0, "truncations": 0, "resets": 0,
                       "delays": 0, "connections": 0}

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._listener.getsockname()[:2]
        return host, port

    def start(self) -> "ChaosProxy":
        self._listener.listen(32)
        self._running = True
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        try:
            # close() alone leaves the acceptor blocked in accept().
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- internals ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                downstream, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                index = self._conn_index
                self._conn_index += 1
                self.faults["connections"] += 1
            if _obs.enabled:
                _CONNECTIONS.inc()
            try:
                # Both legs no-delay: Nagle on either would re-create,
                # in between, the stall client and server sockets avoid.
                set_nodelay(downstream)
                upstream = open_connection(self.upstream, 5.0, 5.0)
            except OSError:
                # Upstream down (e.g. mid-restart): the client sees a
                # refused/reset connection, which is exactly the fault
                # model it must absorb.
                try:
                    downstream.close()
                except OSError:
                    pass
                continue
            # Independent, deterministic RNG per connection direction.
            # (Integer seeds only: str/tuple hashing is randomised per
            # process, which would break cross-run reproducibility.)
            base = self._seed * 1_000_003 + index * 2
            aborted = threading.Event()
            _Pump(self, downstream, upstream,
                  random.Random(base), "c2s", aborted).start()
            _Pump(self, upstream, downstream,
                  random.Random(base + 1), "s2c", aborted).start()

    def _record(self, kind: str, sever: bool = True) -> None:
        with self._lock:
            self.faults[kind] += 1
        if _obs.enabled:
            {"drops": _DROPS, "truncations": _TRUNCATIONS,
             "resets": _RESETS, "delays": _DELAYS}[kind].inc()

    @staticmethod
    def _sleep(seconds: float) -> None:
        if seconds > 0:
            import time

            time.sleep(seconds)
