"""The server's front-end: one ``asyncio.BufferedProtocol`` per
connection cuts frames out of whatever the socket delivers, and one
pass per loop iteration runs what arrived.

These tests pin that the cut does not matter (a frame fed a byte at a
time, sixteen frames in one read: the same answers, in the same
batches), that a bad frame closes its own connection and no other,
that a client which stops reading is cut off without stalling anyone
else, and that received frames are still counted."""

import asyncio
import socket
import struct
import time

import pytest

from repro import obs
from repro.mtree.database import ReadQuery, WriteQuery
from repro.net import aserver, serve_in_thread
from repro.net.framing import (
    MAX_FRAME, encode_frame, recv_message, send_messages)
from repro.protocols.base import Request, Response
from repro.wire import decode, encode

FRAMES = 16


def _writes(user, count):
    return [Request(query=WriteQuery(b"k%02d" % i, b"v%d" % i),
                    extras={"user": user, "rid": f"{user}:s:{i}"})
            for i in range(count)]


def _count_batches(server):
    batches = []

    def install(core):
        stream = core.stream_batch

        def counted(entries, received=None):
            batches.append(len(entries))
            return stream(entries, received)
        core.stream_batch = counted
    server.with_core(install)
    return batches


def deliver(connection, data):
    """What the loop does when ``data`` arrives on ``connection``."""
    connection.get_buffer(len(data))[:len(data)] = data
    connection.buffer_updated(len(data))


def _answers_when_fed(pieces):
    """What a fresh server answers, and in which batches, when the
    frames of ``_writes("alice", FRAMES)`` reach its connection cut into
    ``pieces`` -- each delivered within one step of the loop, as one
    iteration's reads would be."""
    server = serve_in_thread(order=4)
    batches = _count_batches(server)

    async def feed():
        reader, writer = await asyncio.open_connection(*server.address)
        while not server._connections:
            await asyncio.sleep(0.001)
        (connection,) = server._connections
        for piece in pieces(b"".join(map(encode_frame,
                                         _writes("alice", FRAMES)))):
            deliver(connection, piece)
        answers = []
        for _ in range(FRAMES):
            (length,) = struct.unpack(">I", await reader.readexactly(4))
            answers.append(decode(await reader.readexactly(length)))
        writer.close()
        return answers

    try:
        answers = asyncio.run_coroutine_threadsafe(
            feed(), server.loop).result(10.0)
        return answers, batches
    finally:
        server.stop()


class TestTheCutDoesNotMatter:
    def test_a_byte_at_a_time_and_sixteen_frames_in_one_read(self):
        one_read, one_read_batches = _answers_when_fed(lambda blob: [blob])
        bytewise, bytewise_batches = _answers_when_fed(
            lambda blob: [blob[i:i + 1] for i in range(len(blob))])
        assert all(isinstance(answer, Response) for answer in one_read)
        assert [a.extras["ctr"] for a in one_read] == list(range(FRAMES))
        assert bytewise == one_read
        assert bytewise_batches == one_read_batches == [FRAMES]

    def test_a_frame_split_across_two_sends(self):
        """The first half of a frame waits in its connection's inbox;
        the second half completes it."""
        server = serve_in_thread(order=4)
        try:
            with socket.create_connection(server.address, timeout=10.0) as sock:
                frame = encode_frame(_writes("alice", 1)[0])
                sock.sendall(frame[:len(frame) // 2])
                time.sleep(0.05)
                assert server._inflight == 0
                sock.sendall(frame[len(frame) // 2:])
                assert isinstance(recv_message(sock), Response)
        finally:
            server.stop()


class TestABadFrameClosesItsOwnConnection:
    @pytest.mark.parametrize("bad", [
        struct.pack(">I", MAX_FRAME + 1),          # a bad length prefix
        struct.pack(">I", 3) + b"\xff\xff\xff",    # an undecodable frame
        encode_frame(Response(result=None)),       # not a request
    ], ids=["length-prefix", "undecodable", "not-a-request"])
    def test_only_the_sender_is_cut_off(self, bad):
        server = serve_in_thread(order=4)
        try:
            with socket.create_connection(server.address, timeout=10.0) as good, \
                    socket.create_connection(server.address, timeout=10.0) as evil:
                evil.sendall(bad)
                try:
                    assert evil.recv(1) == b""
                except ConnectionResetError:
                    pass  # aborted
                send_messages(good, _writes("alice", 1))
                assert isinstance(recv_message(good), Response)
                assert server.quiesce(5.0) and server._inflight == 0
        finally:
            server.stop()


class TestAClientThatStopsReading:
    def test_is_aborted_after_the_drain_timeout_and_stalls_nobody(
            self, monkeypatch):
        """Answers pile up in the transport's buffer of a client that
        sends reads and never takes their answers: the connection stops
        being read and, once ``DRAIN_TIMEOUT_SECONDS`` pass with the
        buffer still full, is aborted.  Another client is served all
        the while."""
        monkeypatch.setattr(aserver, "DRAIN_TIMEOUT_SECONDS", 2.0)
        server = serve_in_thread(order=4)
        value = b"x" * (512 * 1024)
        try:
            with socket.create_connection(server.address, timeout=10.0) as other:
                send_messages(other, [Request(query=WriteQuery(b"big", value),
                                              extras={"user": "bob"})])
                assert isinstance(recv_message(other), Response)
                stalled = socket.socket()
                stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                stalled.connect(server.address)
                send_messages(stalled, [
                    Request(query=ReadQuery(b"big"), extras={"user": "carol"})
                    for _ in range(32)])
                # 16 MiB of answers cannot all leave: the connection is
                # paused, and everyone else goes on.
                deadline = time.monotonic() + 10.0
                while not any(connection._stalled is not None
                              for connection in list(server._connections)):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                paused = time.monotonic()
                send_messages(other, [Request(query=ReadQuery(b"big"),
                                              extras={"user": "bob"})])
                assert recv_message(other).result.answer == value
                assert time.monotonic() - paused < 1.0
                while len(server._connections) > 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                assert time.monotonic() - paused >= 1.5
                stalled.close()
                send_messages(other, [Request(query=ReadQuery(b"big"),
                                              extras={"user": "bob"})])
                assert recv_message(other).result.answer == value
        finally:
            server.stop()


class TestReceivedFramesAreCounted:
    def test_frames_and_bytes_received_with_obs_on(self):
        obs.enable()
        server = serve_in_thread(order=4)
        frames = [encode_frame(request) for request in _writes("alice", 3)]
        frames_before = obs.registry.get("net.frames_received").total()
        bytes_before = obs.registry.get("net.bytes_received").total()
        try:
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sock.sendall(b"".join(frames))
                answers = [recv_message(sock) for _ in frames]
                assert all(isinstance(a, Response) for a in answers)
        finally:
            server.stop()
        # the server's three requests, then this client's three answers
        answered = sum(4 + len(encode(answer)) for answer in answers)
        assert obs.registry.get("net.frames_received").total() \
            - frames_before == 6
        assert obs.registry.get("net.bytes_received").total() \
            - bytes_before == sum(map(len, frames)) + answered
