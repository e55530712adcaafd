"""Message framing for socket transport: 4-byte length + wire bytes.

Both the blocking (:func:`send_message`/:func:`recv_message`) and the
asyncio (:func:`async_recv_message`) halves speak the identical frame
format: the clients are blocking-socket classes, the server an event
loop, which writes each response's :func:`encode_frame` to its stream
itself (one write site, ``AsyncTrustedCvsServer._deliver``).
"""

from __future__ import annotations

import asyncio
import socket
import struct

from repro.obs import runtime as _obs
from repro.obs.metrics import BYTE_BUCKETS, REGISTRY as _registry
from repro.wire import decode, encode

MAX_FRAME = 64 * 1024 * 1024  # sanity bound, far above any real VO

_FRAMES_SENT = _registry.counter("net.frames_sent", "frames written to sockets")
_FRAMES_RECEIVED = _registry.counter("net.frames_received", "frames read off sockets")
_BYTES_SENT = _registry.counter(
    "net.bytes_sent", "payload + header bytes written to sockets")
_BYTES_RECEIVED = _registry.counter(
    "net.bytes_received", "payload + header bytes read off sockets")
_FRAME_BYTES = _registry.histogram(
    "net.frame_bytes", "per-frame payload size on the wire", buckets=BYTE_BUCKETS)


class FramingError(Exception):
    """Raised on oversized or truncated frames."""


def open_connection(address: tuple[str, int], connect_timeout: float,
                    op_timeout: float) -> socket.socket:
    """The connection every client here uses: ``op_timeout`` on each
    send and receive once established, and :func:`set_nodelay`."""
    sock = socket.create_connection(address, timeout=connect_timeout)
    set_nodelay(sock)
    sock.settimeout(op_timeout)
    return sock


def set_nodelay(sock: socket.socket) -> None:
    """Nagle's algorithm off, on a connected or accepted socket.  With
    it on, a second small write waits for the first one's ACK, so the
    peer's delayed-ACK timer (40 ms) sits inside every write-write-read
    exchange: a Protocol I follow-up, then the next request."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def encode_frame(message: object) -> bytes:
    """``message`` as the frame that carries it -- a 4-byte big-endian
    length, then its wire bytes -- counted as sent: every caller writes
    the frame it builds."""
    payload = encode(message)
    if len(payload) > MAX_FRAME:
        raise FramingError(f"frame of {len(payload)} bytes exceeds the maximum")
    frame = struct.pack(">I", len(payload)) + payload
    if _obs.enabled:
        _FRAMES_SENT.inc()
        _BYTES_SENT.inc(len(frame))
        _FRAME_BYTES.observe(len(payload), direction="out")
    return frame


def send_message(sock: socket.socket, message: object) -> None:
    """Encode and send one message."""
    send_messages(sock, (message,))


def send_messages(sock: socket.socket, messages) -> None:
    """The frames of one :func:`send_message` per message, in order, in
    one ``sendall``: on a no-delay socket each write is its own segment,
    and a pipelined window should reach the server as one."""
    sock.sendall(b"".join(map(encode_frame, messages)))


def recv_message(sock: socket.socket,
                 capture: list | None = None) -> object | None:
    """Receive one message; None on clean EOF at a frame boundary.

    A peer dying mid-frame -- inside the 4-byte length prefix or inside
    the payload -- raises :class:`FramingError`, never a bare
    ``struct.error`` or a short-read artefact; callers get exactly one
    failure type for "the stream is no longer frame-aligned".

    ``capture``, when given, receives the verbatim payload bytes of the
    decoded frame (appended before decoding) -- forensic evidence
    capture needs the bytes exactly as the peer sent them, not a
    re-encoding of the decoded object.
    """
    header = _recv_exact(sock, 4, allow_eof=True)
    if header is None:
        return None
    try:
        (length,) = struct.unpack(">I", header)
    except struct.error as exc:  # defensive: _recv_exact guarantees 4 bytes
        raise FramingError(f"unreadable frame header: {exc}") from exc
    if length > MAX_FRAME:
        raise FramingError(f"peer announced a {length}-byte frame")
    payload = _recv_exact(sock, length, allow_eof=False, what="payload")
    if capture is not None:
        capture.append(payload)
    if _obs.enabled:
        _FRAMES_RECEIVED.inc()
        _BYTES_RECEIVED.inc(4 + length)
        _FRAME_BYTES.observe(length, direction="in")
    return decode(payload)


async def async_recv_message(reader: asyncio.StreamReader) -> object | None:
    """Receive one message; None on clean EOF at a frame boundary.

    The async twin of :func:`recv_message`, with identical failure
    semantics: EOF inside a frame raises :class:`FramingError`.  It
    captures nothing: evidence bundles hold the bytes a client's
    blocking read received.
    """
    try:
        header = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF at a frame boundary
        raise FramingError(
            f"connection closed mid-length prefix: "
            f"{len(exc.partial)} of 4 bytes") from exc
    try:
        (length,) = struct.unpack(">I", header)
    except struct.error as exc:  # defensive: readexactly guarantees 4 bytes
        raise FramingError(f"unreadable frame header: {exc}") from exc
    if length > MAX_FRAME:
        raise FramingError(f"peer announced a {length}-byte frame")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FramingError(
            f"connection closed mid-payload: "
            f"{len(exc.partial)} of {length} bytes") from exc
    if _obs.enabled:
        _FRAMES_RECEIVED.inc()
        _BYTES_RECEIVED.inc(4 + length)
        _FRAME_BYTES.observe(length, direction="in")
    return decode(payload)


def _recv_exact(sock: socket.socket, n: int, allow_eof: bool,
                what: str = "length prefix") -> bytes | None:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise FramingError(
                f"connection closed mid-{what}: {n - remaining} of {n} bytes")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
