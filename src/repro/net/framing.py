"""Message framing for socket transport: 4-byte length + wire bytes.

One frame cutter, :class:`FrameInbox`, serves both sides: the event
loop feeds it what each connection delivered
(``AsyncTrustedCvsServer``'s connection protocol), and a blocking
client reads through one per connection with
:meth:`FrameInbox.recv_message` -- one ``sock.recv`` per answer, or
fewer when several answers arrive together.  :func:`recv_message`
reads exactly one frame off a socket and nothing past it.  The server
writes each response's :func:`encode_frame` to its transport itself
(one write site, ``AsyncTrustedCvsServer._deliver``).
"""

from __future__ import annotations

import socket
import struct

from repro.obs import runtime as _obs
from repro.obs.metrics import BYTE_BUCKETS, REGISTRY as _registry
from repro.wire import decode, encode

MAX_FRAME = 64 * 1024 * 1024  # sanity bound, far above any real VO

#: bytes a client inbox asks of each ``recv`` beyond what completes the
#: frame it waits for, so answers that arrived together are read at
#: once; under the allocator's mmap threshold, so no ``recv`` buffer
#: costs a system call.
READAHEAD = 64 * 1024

_FRAMES_SENT = _registry.counter("net.frames_sent", "frames written to sockets")
_FRAMES_RECEIVED = _registry.counter("net.frames_received", "frames read off sockets")
_BYTES_SENT = _registry.counter(
    "net.bytes_sent", "payload + header bytes written to sockets")
_BYTES_RECEIVED = _registry.counter(
    "net.bytes_received", "payload + header bytes read off sockets")
_FRAME_BYTES = _registry.histogram(
    "net.frame_bytes", "per-frame payload size on the wire", buckets=BYTE_BUCKETS)
_LENGTH = struct.Struct(">I")


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
    frame = _LENGTH.pack(len(payload)) + payload
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


class FrameInbox:
    """The bytes one connection delivered that no frame has taken yet:
    :meth:`feed` appends, :meth:`pop` cuts the next whole frame off the
    front and returns its payload as the peer sent it (``None`` until
    one is whole).  A length above :data:`MAX_FRAME` is a
    :class:`FramingError`: the stream is no longer frame-aligned."""

    def __init__(self, readahead: int = READAHEAD) -> None:
        self.readahead = readahead
        self._buffer = bytearray()
        self._start = 0  # the first byte no frame has taken

    def __len__(self) -> int:
        return len(self._buffer) - self._start

    def feed(self, data: bytes) -> None:
        del self._buffer[:self._start]
        self._start = 0
        self._buffer += data

    def _wanted(self) -> int:
        """Bytes still missing from the frame at the front."""
        if len(self) < 4:
            return 4 - len(self)
        (length,) = _LENGTH.unpack_from(self._buffer, self._start)
        if length > MAX_FRAME:
            raise FramingError(f"peer announced a {length}-byte frame")
        return 4 + length - len(self)

    def pop(self) -> bytes | None:
        if self._wanted() > 0:
            return None
        start = self._start + 4
        self._start = start + _LENGTH.unpack_from(self._buffer, start - 4)[0]
        payload = bytes(self._buffer[start:self._start])
        if _obs.enabled:
            _FRAMES_RECEIVED.inc()
            _BYTES_RECEIVED.inc(4 + len(payload))
            _FRAME_BYTES.observe(len(payload), direction="in")
        return payload

    def recv_message(self, sock: socket.socket,
                     capture: list | None = None) -> object | None:
        """The next message off ``sock``; ``None`` on clean EOF at a
        frame boundary.  Each ``sock.recv`` asks for the bytes that
        complete the frame plus :attr:`readahead`, so a frame an earlier
        read brought costs no read at all.

        A peer dying mid-frame -- inside the 4-byte length prefix or
        inside the payload -- raises :class:`FramingError`, never a bare
        ``struct.error`` or a short-read artefact.  ``capture``, when
        given, receives the decoded frame's payload as the peer sent it
        (forensic evidence needs those bytes, not a re-encoding)."""
        while (payload := self.pop()) is None:
            wanted = self._wanted()
            chunk = sock.recv(max(wanted, self.readahead))
            if not chunk:
                held = len(self)
                if not held:
                    return None
                if held < 4:
                    raise FramingError(
                        f"connection closed mid-length prefix: {held} of 4 bytes")
                raise FramingError(
                    f"connection closed mid-payload: {held - 4} of "
                    f"{held - 4 + wanted} bytes")
            self.feed(chunk)
        if capture is not None:
            capture.append(payload)
        return decode(payload)


def recv_message(sock: socket.socket,
                 capture: list | None = None) -> object | None:
    """Receive one message (:meth:`FrameInbox.recv_message`), reading
    exactly its frame's bytes off ``sock`` and none past it, so the
    next call -- or another reader -- finds the stream at the next
    frame."""
    return FrameInbox(readahead=0).recv_message(sock, capture)
