"""Framing robustness: a peer dying mid-frame must surface as exactly
one clean :class:`FramingError`, never a ``struct.error`` or short-read
garbage, at *both* truncation points (mid-length-prefix and
mid-payload)."""

import socket
import struct

import pytest

from repro.net.framing import (
    FramingError, MAX_FRAME, open_connection, recv_message, send_message,
    send_messages)
from repro.protocols.base import Request
from repro.mtree.database import ReadQuery
from repro.wire import encode


def _pair():
    return socket.socketpair()


class TestTruncation:
    def test_clean_eof_at_frame_boundary_is_none(self):
        left, right = _pair()
        left.close()
        assert recv_message(right) is None
        right.close()

    def test_truncated_mid_length_prefix(self):
        """Peer dies after sending 2 of the 4 header bytes."""
        left, right = _pair()
        left.sendall(b"\x00\x00")
        left.close()
        with pytest.raises(FramingError, match="length prefix"):
            recv_message(right)
        right.close()

    def test_truncated_mid_payload(self):
        """Peer announces a frame, delivers only part of it, dies."""
        left, right = _pair()
        payload = encode(Request(query=ReadQuery(b"k"), extras={"user": "a"}))
        left.sendall(struct.pack(">I", len(payload)) + payload[: len(payload) // 2])
        left.close()
        with pytest.raises(FramingError, match="payload"):
            recv_message(right)
        right.close()

    def test_single_byte_then_eof(self):
        left, right = _pair()
        left.sendall(b"\x7f")
        left.close()
        with pytest.raises(FramingError):
            recv_message(right)
        right.close()

    def test_no_struct_error_ever_leaks(self):
        """Whatever prefix of a valid stream the peer manages to send,
        the reader raises FramingError (or returns the message/None) --
        struct.error never escapes."""
        full = struct.pack(">I", 5) + encode(b"abc")[:5]
        for cut in range(len(full)):
            left, right = _pair()
            left.sendall(full[:cut])
            left.close()
            try:
                result = recv_message(right)
                assert cut == 0 and result is None
            except FramingError:
                pass
            finally:
                right.close()


class TestBounds:
    def test_oversized_announcement_rejected(self):
        left, right = _pair()
        left.sendall(struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(FramingError, match="byte frame"):
            recv_message(right)
        left.close()
        right.close()

    def test_oversized_send_rejected(self):
        left, right = _pair()
        with pytest.raises(FramingError, match="exceeds"):
            send_message(left, b"x" * (MAX_FRAME + 1))
        left.close()
        right.close()


class TestRoundtrip:
    def test_message_roundtrip_over_socketpair(self):
        left, right = _pair()
        message = Request(query=ReadQuery(b"key"), extras={"user": "alice", "rid": "alice:0"})
        send_message(left, message)
        assert recv_message(right) == message
        left.close()
        right.close()


class _Recorder:
    """Stands in for a socket: keeps what each ``sendall`` was given."""

    def __init__(self):
        self.writes = []

    def sendall(self, data):
        self.writes.append(bytes(data))


class TestSendMessages:
    MESSAGES = [Request(query=ReadQuery(b"key%d" % i),
                        extras={"user": "alice", "rid": "alice:%d" % i})
                for i in range(5)]

    def test_one_write_carrying_the_frames_of_send_message(self):
        one_by_one, together = _Recorder(), _Recorder()
        for message in self.MESSAGES:
            send_message(one_by_one, message)
        send_messages(together, self.MESSAGES)
        assert len(one_by_one.writes) == len(self.MESSAGES)
        assert together.writes == [b"".join(one_by_one.writes)]

    def test_receiver_reads_them_back_in_order(self):
        left, right = _pair()
        send_messages(left, self.MESSAGES)
        assert [recv_message(right) for _ in self.MESSAGES] == self.MESSAGES
        left.close()
        right.close()

    def test_oversized_frame_rejected_before_anything_is_written(self):
        recorder = _Recorder()
        with pytest.raises(FramingError, match="exceeds"):
            send_messages(recorder, [b"ok", b"x" * (MAX_FRAME + 1)])
        assert recorder.writes == []


class TestOpenConnection:
    def test_no_delay_and_operation_timeout(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            sock = open_connection(listener.getsockname(), 5.0, 1.5)
            try:
                assert sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY) == 1
                assert sock.gettimeout() == 1.5
            finally:
                sock.close()
        finally:
            listener.close()
