"""The transport floor: what an asyncio echo server costs per
stop-and-wait round trip, with no Trusted-CVS code on either side --
and the front-end floor: what the real server front-end costs over a
core that does no work.

    PYTHONPATH=src python benchmarks/echo_floor.py [--trips 20000] [--repeat 3]

A server process (this file with ``--serve streams``, ``protocol`` or
``frontend``) pinned to the last CPU answers every length-prefixed
1,600-byte request with a 2,900-byte response -- the request and
response sizes of the end-to-end benchmark's operations -- through an
``asyncio`` stream reader/writer pair, a bare ``asyncio.Protocol``, or
(``frontend``) the real :class:`~repro.net.aserver.AsyncTrustedCvsServer`
over a stand-in core that answers every request at once: frame cutting,
decoding the request, the pass, encoding and writing the response, and
nothing of the protocol, the tree or the store.  The client, pinned to
the first CPU, sends one request at a time on a no-delay socket.  Per
round trip it reports the median wall time and the server's CPU time
(the server's own ``process_time`` over the timed trips, asked for with
an empty frame, or a request marked ``probe`` for the front-end).
Needs two CPUs for the pinning; with one, both sides share it.

The kinds alternate within each of the ``--repeat`` runs, and after the
last run each kind's server CPU per round trip is summarised across
the runs: median and quartiles.  A floor comparison uses those medians
from one such interleaved set, never numbers from sets run apart: on a
shared host the same trees read medians of 88 and 63 us in two sets
half an hour apart.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import socket
import statistics
import struct
import subprocess
import sys
import time

REQUEST_BYTES = 1600
RESPONSE_BYTES = 2900
_LENGTH = struct.Struct(">I")
_RESPONSE = _LENGTH.pack(RESPONSE_BYTES) + b"r" * RESPONSE_BYTES
KINDS = ("streams", "protocol", "frontend")


def _answer(payload: bytes) -> bytes:
    """An empty frame asks for the server's CPU seconds so far."""
    if payload:
        return _RESPONSE
    text = repr(time.process_time()).encode()
    return _LENGTH.pack(len(text)) + text


async def _streams(reader, writer) -> None:
    try:
        while True:
            (size,) = _LENGTH.unpack(await reader.readexactly(4))
            writer.write(_answer(await reader.readexactly(size)))
    except asyncio.IncompleteReadError:
        writer.close()


class _Echo(asyncio.Protocol):
    def connection_made(self, transport) -> None:
        self.transport, self.buffer = transport, bytearray()

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        while len(self.buffer) >= 4:
            (size,) = _LENGTH.unpack_from(self.buffer)
            if len(self.buffer) < 4 + size:
                return
            payload = bytes(self.buffer[4:4 + size])
            del self.buffer[:4 + size]
            self.transport.write(_answer(payload))


class _InstantCore:
    """What the front-end asks of a ``ServerCore``, with no work behind
    it: every request is answered at once with the same response."""

    protocol = None  # never blocks

    def __init__(self) -> None:
        from repro.protocols.base import Response

        self._response = Response

    def stream_batch(self, entries, received=None):
        for _user, message in entries:
            if message.extras.get("probe"):
                yield self._response(result=None, extras={
                    "cpu": repr(time.process_time())})
            else:
                yield _FRONTEND_RESPONSE

    def all_unblocked(self) -> bool:
        return True

    def close_store(self) -> None:
        pass


def _frontend_messages():
    """The front-end's request and response, sized as the others'."""
    from repro.mtree.database import WriteQuery
    from repro.protocols.base import Request, Response
    from repro.wire import encode

    def sized(build, size):
        return build(b"x" * (size - len(encode(build(b"")))))
    request = sized(lambda pad: Request(query=WriteQuery(b"key", pad),
                                        extras={"user": "alice"}),
                    REQUEST_BYTES)
    response = sized(lambda pad: Response(result=None,
                                          extras={"ctr": 1, "pad": pad}),
                     RESPONSE_BYTES)
    return request, response


_FRONTEND_RESPONSE = None


async def _serve(kind: str) -> None:
    global _FRONTEND_RESPONSE
    loop = asyncio.get_running_loop()
    if kind == "streams":
        server = await asyncio.start_server(_streams, "127.0.0.1", 0)
    elif kind == "protocol":
        server = await loop.create_server(_Echo, "127.0.0.1", 0)
    else:
        from repro.net.aserver import AsyncTrustedCvsServer

        _request, _FRONTEND_RESPONSE = _frontend_messages()
        frontend = AsyncTrustedCvsServer(_InstantCore())
        await frontend.start()
        server = frontend._server
    print(server.sockets[0].getsockname()[1], flush=True)
    await loop.run_in_executor(None, sys.stdin.read)  # until stdin closes


def _pin(cpu: int) -> None:
    if hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) > 1:
        os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[cpu]})


def _recv_frame(sock: socket.socket) -> bytes:
    def exactly(size: int) -> bytes:
        data = bytearray()
        while len(data) < size:
            chunk = sock.recv(size - len(data))
            if not chunk:
                raise ConnectionError("server closed")
            data += chunk
        return bytes(data)
    (size,) = _LENGTH.unpack(exactly(4))
    return exactly(size)


def measure(kind: str, trips: int) -> dict:
    """Median round trip (us) and server CPU per round trip (us)."""
    server = subprocess.Popen([sys.executable, __file__, "--serve", kind],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        port = int(server.stdout.readline())
        sock = socket.create_connection(("127.0.0.1", port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if kind == "frontend":
            from repro.net.framing import encode_frame
            from repro.protocols.base import Request
            from repro.wire import decode

            request = encode_frame(_frontend_messages()[0])
            cpu_probe = encode_frame(Request(query=None, extras={
                "user": "alice", "probe": True}))

            def cpu_of(payload: bytes) -> float:
                return float(decode(payload).extras["cpu"])
        else:
            request = _LENGTH.pack(REQUEST_BYTES) + b"q" * REQUEST_BYTES
            cpu_probe = _LENGTH.pack(0)
            cpu_of = float

        def server_cpu() -> float:
            sock.sendall(cpu_probe)
            return cpu_of(_recv_frame(sock))

        for _ in range(trips // 10):  # warm-up
            sock.sendall(request)
            _recv_frame(sock)
        rtts = []
        cpu_before = server_cpu()
        for _ in range(trips):
            started = time.perf_counter()
            sock.sendall(request)
            _recv_frame(sock)
            rtts.append(time.perf_counter() - started)
        cpu = server_cpu() - cpu_before
        sock.close()
    finally:
        server.stdin.close()
        server.wait(timeout=10)
    return {"rtt_p50_us": statistics.median(rtts) * 1e6,
            "server_cpu_us": cpu / trips * 1e6}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--serve", choices=KINDS)
    parser.add_argument("--trips", type=int, default=20000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if args.serve:
        _pin(-1)
        asyncio.run(_serve(args.serve))
        return 0
    _pin(0)
    cpu = {kind: [] for kind in KINDS}
    for run in range(args.repeat):
        for kind in KINDS:
            row = measure(kind, args.trips)
            cpu[kind].append(row["server_cpu_us"])
            print(f"run {run + 1}  {kind:8s}  round trip p50 "
                  f"{row['rtt_p50_us']:6.1f} us  server CPU "
                  f"{row['server_cpu_us']:5.1f} us per round trip")
    for kind, values in cpu.items():
        low, median, high = (statistics.quantiles(values, n=4, method="inclusive")
                             if len(values) > 1 else values * 3)
        print(f"over {len(values)} run(s)  {kind:8s}  server CPU per round trip "
              f"median {median:5.1f} us  quartiles {low:5.1f}-{high:5.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
