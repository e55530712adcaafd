"""One read per answer, and a log of the bytes received.

A client reads its connection through a :class:`FrameInbox`: one
``sock.recv`` per answer, or none when an earlier read already holds
it.  The server hands the core each request's bytes as its client sent
them, and the WAL logs those, encoding a request again only where the
core changed it (the defer-followup marker removed or stamped)."""

import os
import socket
import struct

import pytest

from repro import obs
from repro.mtree.database import ReadQuery, VerifiedDatabase, WriteQuery
from repro.net import RemoteClient, ServerCore, serve_in_thread
from repro.net.framing import FrameInbox, FramingError, encode_frame, recv_message
from repro.net.wal import log_gens, log_name
from repro.protocols.base import Request, Response, ServerState
from repro.protocols.protocol1 import (
    DEFER_FOLLOWUP_KEY, Protocol1Server, bootstrap_server_state)
from repro.wire import decode, encode


def _request(user, key, seq, **extras):
    return Request(query=WriteQuery(key, b"v-" + key),
                   extras={"user": user, "rid": f"{user}:n:{seq}", **extras})


class _Reads:
    """Stands in for a socket: each ``recv`` returns the next chunk."""

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.recvs = 0

    def recv(self, size):
        self.recvs += 1
        chunk = self.chunks.pop(0) if self.chunks else b""
        assert len(chunk) <= size
        return chunk


class TestFrameInbox:
    MESSAGES = [_request("alice", b"k%d" % i, i) for i in range(2)]

    def test_two_answers_in_one_recv(self):
        frames = b"".join(map(encode_frame, self.MESSAGES))
        sock, inbox = _Reads([frames]), FrameInbox()
        assert inbox.recv_message(sock) == self.MESSAGES[0]
        assert inbox.recv_message(sock) == self.MESSAGES[1]
        assert sock.recvs == 1

    def test_one_answer_split_over_many_reads(self):
        frame = encode_frame(self.MESSAGES[0])
        sock, inbox = _Reads(frame[i:i + 3] for i in range(0, len(frame), 3)), \
            FrameInbox()
        assert inbox.recv_message(sock) == self.MESSAGES[0]
        assert sock.recvs == -(-len(frame) // 3)
        assert len(inbox) == 0

    @pytest.mark.parametrize("cut, what", [(2, "length prefix"),
                                           (9, "payload")])
    def test_eof_mid_frame(self, cut, what):
        frame = encode_frame(self.MESSAGES[0])
        with pytest.raises(FramingError, match=what):
            FrameInbox().recv_message(_Reads([frame[:cut]]))

    def test_clean_eof_between_frames(self):
        inbox = FrameInbox()
        sock = _Reads([encode_frame(self.MESSAGES[0])])
        assert inbox.recv_message(sock) == self.MESSAGES[0]
        assert inbox.recv_message(sock) is None

    def test_capture_holds_each_frames_exact_bytes(self):
        """Two frames in one read: each capture is its own payload, as
        the peer sent it -- here bytes no encoder writes (a dict in the
        other order), so a re-encoding would show."""
        reordered = _reordered(self.MESSAGES[0])
        assert reordered != encode(self.MESSAGES[0])
        sock = _Reads([struct.pack(">I", len(reordered)) + reordered
                       + encode_frame(self.MESSAGES[1])])
        inbox, capture = FrameInbox(), []
        assert inbox.recv_message(sock, capture) == self.MESSAGES[0]
        assert inbox.recv_message(sock, capture) == self.MESSAGES[1]
        assert capture == [reordered, encode(self.MESSAGES[1])]

    def test_recv_message_reads_no_byte_past_its_frame(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"".join(map(encode_frame, self.MESSAGES)) + b"\x00")
            assert recv_message(right) == self.MESSAGES[0]
            assert recv_message(right) == self.MESSAGES[1]
            assert right.recv(8) == b"\x00"
        finally:
            left.close()
            right.close()


class _CountingSocket(socket.socket):
    """A socket that adds what it sends and receives to ``tally``, the
    way a deployment's byte counter wraps a client's socket: only
    ``sendall`` and ``recv`` are counted."""

    @classmethod
    def adopt(cls, sock, tally):
        timeout = sock.gettimeout()
        counted = cls(sock.family, sock.type, sock.proto, fileno=sock.detach())
        counted.settimeout(timeout)
        counted.tally = tally
        return counted

    def sendall(self, data, *flags):
        self.tally[0] += len(data)
        return super().sendall(data, *flags)

    def recv(self, size, *flags):
        chunk = super().recv(size, *flags)
        self.tally[1] += len(chunk)
        self.tally[2] += 1
        return chunk


class TestTheClientsReads:
    def test_a_counting_socket_sees_every_byte(self):
        """Every byte any frame carried, in either direction, passed
        through a session's ``sendall`` or ``recv``.  A stop-and-wait
        session reads each answer with one ``recv``; a window reads
        some of its answers with none, out of an earlier read."""
        obs.enable()
        server = serve_in_thread(order=4)
        alice_tally, bob_tally = [0, 0, 0], [0, 0, 0]
        try:
            host, port = server.address
            genesis = server.initial_root_digest()
            sent_before = obs.registry.get("net.bytes_sent").total()
            with RemoteClient(host, port, "alice", genesis, order=4) as alice, \
                    RemoteClient(host, port, "bob", genesis, order=4,
                                 window=8) as bob:
                alice._sock = _CountingSocket.adopt(alice._sock, alice_tally)
                bob._sock = _CountingSocket.adopt(bob._sock, bob_tally)
                for i in range(8):
                    alice.put(b"k%d" % i, b"v" * 3000)
                assert alice.get(b"k3") == b"v" * 3000
                for i in range(8):
                    bob.submit(ReadQuery(b"k%d" % i))
                assert bob.drain() == [b"v" * 3000] * 8
            assert server.quiesce(5.0)
            sent = obs.registry.get("net.bytes_sent").total() - sent_before
        finally:
            server.stop()
        assert sum(alice_tally[:2]) + sum(bob_tally[:2]) == sent
        assert obs.registry.get("net.frames_sent").total() == 9 * 2 + 8 * 2
        assert alice_tally[2] == 9
        assert 1 <= bob_tally[2] <= 8


def _reordered(message):
    """``message``'s wire bytes with its extras written in the other
    key order: the same message to the decoder, bytes no encoder
    writes."""
    canonical = encode(message)
    keys = sorted(message.extras, key=repr)
    block = encode(message.extras)
    swapped = b"\x08" + struct.pack(">I", len(keys)) + b"".join(
        encode(key) + encode(message.extras[key])
        for key in reversed(keys))
    assert len(swapped) == len(block) and canonical.count(block) == 1
    reordered = canonical.replace(block, swapped)
    assert decode(reordered) == message
    return reordered


def _logged_payloads(data_dir):
    """Every record payload of every WAL in ``data_dir``, oldest first."""
    payloads = []
    for gen in sorted(log_gens(data_dir)):
        blob = open(os.path.join(data_dir, log_name(gen)), "rb").read()
        at = 0
        while at < len(blob):
            (length,) = struct.unpack_from(">I", blob, at)
            payloads.append(blob[at + 4:at + 4 + length])
            at += 4 + length + 32
    return payloads


class TestTheWalLogsTheBytesReceived:
    def test_the_front_end_logs_the_frame_as_received(self, tmp_path):
        """A request whose bytes no encoder would write is logged as
        those bytes, and the restart replays it to the same root."""
        data_dir = str(tmp_path / "server")
        server = serve_in_thread(order=4, data_dir=data_dir, fsync=False)
        plain = _request("alice", b"a", 0)
        marked = _request("alice", b"b", 1, **{DEFER_FOLLOWUP_KEY: True})
        sent = [_reordered(plain), encode(marked)]
        try:
            with socket.create_connection(server.address, timeout=10.0) as sock:
                for payload in sent:
                    sock.sendall(struct.pack(">I", len(payload)) + payload)
                    assert isinstance(recv_message(sock), Response)
            root = server.consistent_view()[0]
        finally:
            server.stop()
        logged = _logged_payloads(data_dir)[-2:]
        # unchanged: the client's bytes; the marker removed: re-encoded
        assert logged[0] == sent[0]
        unmarked = _request("alice", b"b", 1)
        assert logged[1] == encode(unmarked) != sent[1]
        restarted = ServerCore(order=4, data_dir=data_dir, fsync=False)
        assert restarted.replayed_records == 2
        assert restarted.state.database.root_digest() == root
        restarted.close_store()

    def test_a_signing_run_logs_its_stamped_requests_encoded(
            self, tmp_path, shared_keys):
        """Protocol I: every request of a signing run but the last is
        stamped before it is logged, so the log holds those encoded and
        the last as received; replay rebuilds the same run."""
        data_dir = str(tmp_path / "server")
        state = ServerState(database=VerifiedDatabase(order=4))
        protocol = Protocol1Server()
        protocol.initialize(state)
        bootstrap_server_state(state, shared_keys.signers["alice"])
        core = ServerCore(order=4, protocol=protocol, state=state,
                          data_dir=data_dir, fsync=False)
        run = [_request("alice", b"k%d" % i, i) for i in range(3)]
        received = [_reordered(request) for request in run]
        responses = list(core.stream_batch([("alice", request)
                                            for request in run], received))
        assert all(isinstance(response, Response) for response in responses)
        root = core.state.database.root_digest()
        core.close_store()
        logged = _logged_payloads(data_dir)[-3:]
        for payload, request in zip(logged[:2], run[:2]):
            assert decode(payload).extras[DEFER_FOLLOWUP_KEY] is True
            assert payload == encode(request)
        assert logged[2] == received[2]
        restarted = ServerCore(order=4, protocol=Protocol1Server(),
                               data_dir=data_dir, fsync=False)
        assert restarted.replayed_records == 3
        assert restarted.state.database.root_digest() == root
        assert restarted.state.ctr == 3
        restarted.close_store()
