"""The sessions' wire path: a submitted frame is held and the window
goes out in one ``sendall`` -- when it fills, or when the client first
blocks on a read.  The sockets are no-delay, so every write is a
segment of its own, and the frames must stay byte for byte those of one
``send_message`` per request, at every window."""

import socket

import pytest

from repro.mtree.database import ReadQuery, WriteQuery
from repro.net import (
    RemoteClient,
    RemoteClientP1,
    RetryPolicy,
    count_sync_check,
    serve_in_thread,
    sync_check,
)
from repro.net.framing import send_message
from repro.protocols.base import Request
from tests.test_async_net import p1_async_server

WINDOW = 16


class RecordingSocket(socket.socket):
    """A real socket that also keeps what each ``sendall`` was given."""

    writes: list

    @classmethod
    def adopt(cls, sock: socket.socket) -> "RecordingSocket":
        timeout = sock.gettimeout()
        recording = cls(sock.family, sock.type, sock.proto,
                        fileno=sock.detach())
        recording.settimeout(timeout)
        recording.writes = []
        return recording

    def sendall(self, data, *flags) -> None:
        self.writes.append(bytes(data))
        return super().sendall(data, *flags)


class _Sink:
    """Stands in for a socket: keeps what each ``sendall`` was given."""

    def __init__(self):
        self.writes = []

    def sendall(self, data):
        self.writes.append(bytes(data))


def _frames(user, rids, queries, acks) -> list[bytes]:
    """What one ``send_message`` per request would have written; a
    ``None`` rid is a request that carries none, and no ack.  An ack is
    the seq of the oldest operation in flight when the request was
    submitted."""
    sink = _Sink()
    for rid, query, ack in zip(rids, queries, acks):
        extras = ({"user": user} if rid is None
                  else {"user": user, "rid": rid, "ack": ack})
        send_message(sink, Request(query=query, extras=extras))
    return sink.writes


def _p2_frames(client, queries, acks) -> list[bytes]:
    return _frames(client.user_id,
                   [client.core.rid(seq) for seq in range(len(queries))],
                   queries, acks)


def _writes(n):
    return [WriteQuery(b"k%d" % (i % 5), b"v%d" % i) for i in range(n)]


@pytest.fixture
def server():
    srv = serve_in_thread(order=4)
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    host, port = server.address
    pipelined = RemoteClient(
        host, port, "alice", server.initial_root_digest(), order=4,
        window=WINDOW, retry=RetryPolicy(attempts=4, base=0.005, cap=0.02,
                                         seed=3))
    pipelined._sock = RecordingSocket.adopt(pipelined._sock)
    pipelined.genesis = server.initial_root_digest()
    yield pipelined
    pipelined.close()


class TestWindowWrite:
    def test_a_full_window_is_one_write_of_the_same_frames(self, client):
        queries = _writes(WINDOW)
        sock = client._sock
        for query in queries[:-1]:
            assert client.submit(query) == []
        assert sock.writes == []                 # held, nothing blocked yet
        client.submit(queries[-1])
        assert sock.writes == [b"".join(_p2_frames(client, queries,
                                                   [0] * WINDOW))]
        assert len(client.drain()) == WINDOW
        assert len(sock.writes) == 1             # drain had nothing to add

    def test_a_partial_window_is_written_by_the_first_drain(self, client):
        queries = _writes(5)
        sock = client._sock
        for query in queries:
            client.submit(query)
        assert sock.writes == [] and client.inflight == 5
        assert len(client.drain()) == 5
        assert sock.writes == [b"".join(_p2_frames(client, queries, [0] * 5))]
        assert sync_check(client.genesis, {"alice": client.registers()})

    def test_the_seventeenth_submit_drains_one_slot(self, client):
        queries = _writes(WINDOW + 1)
        sock = client._sock
        for query in queries[:WINDOW]:
            client.submit(query)
            assert client.inflight <= WINDOW
        drained = client.submit(queries[WINDOW])
        assert len(drained) == 1 and client.inflight == WINDOW
        # the seventeenth went out after the first answer was taken
        frames = _p2_frames(client, queries, [0] * WINDOW + [1])
        assert sock.writes == [b"".join(frames[:WINDOW]), frames[WINDOW]]
        assert len(client.drain()) == WINDOW

    def test_execute_stays_submit_then_drain(self, client):
        client.put(b"k", b"v")
        assert client.get(b"k") == b"v"
        assert len(client._sock.writes) == 2 and client.inflight == 0

    def test_a_dropped_connection_resends_the_window_in_one_write(
            self, client, server):
        queries = _writes(WINDOW)
        first = client._sock
        connect = client._connect

        def recording_connect(*args, **kwargs):
            connect(*args, **kwargs)
            client._sock = RecordingSocket.adopt(client._sock)

        client._connect = recording_connect
        # The server executes on its loop: held, no answer can reach
        # the socket's buffer before the shutdown, where a read would
        # still find it.
        def lose_the_answers(_core):
            for query in queries:
                client.submit(query)
            first.shutdown(socket.SHUT_RDWR)

        server.with_core(lose_the_answers)
        assert len(client.drain()) == WINDOW
        assert client._sock is not first
        assert client._sock.writes == first.writes
        assert len(first.writes) == 1
        # each applied exactly once
        assert server.consistent_view()[1] == WINDOW
        assert sync_check(client.genesis, {"alice": client.registers()})

    def test_held_frames_survive_a_connection_lost_before_the_write(
            self, client, server):
        queries = _writes(3)
        for query in queries:
            client.submit(query)
        client._drop_connection()
        assert [client.inflight, len(client._held)] == [3, 3]
        assert len(client.drain()) == 3
        assert server.consistent_view()[1] == 3


    def test_a_window_of_one_sends_the_same_frames(self, server):
        """Stop-and-wait requests name user and rid, as a window's do
        (the first test of this class)."""
        host, port = server.address
        with RemoteClient(host, port, "alice", server.initial_root_digest(),
                          order=4) as alice:
            alice._sock = RecordingSocket.adopt(alice._sock)
            queries = _writes(3)
            for query in queries:
                alice.execute(query)
            assert alice._sock.writes == _p2_frames(alice, queries, range(3))


class TestProtocol1WindowWrite:
    @pytest.mark.parametrize("window", [1, 8])
    def test_only_a_window_of_requests_carries_rids(self, shared_keys, window):
        """Stop-and-wait Protocol I never resends and has one operation
        in flight: its requests carry no rid, so its responses stay out
        of the server's dedup table and its snapshots."""
        server = p1_async_server(shared_keys, batch_max=64)
        try:
            host, port = server.address
            with RemoteClientP1(
                    host, port, "alice", shared_keys.signers["alice"],
                    shared_keys.verifier, order=4, window=window) as alice:
                alice._sock = RecordingSocket.adopt(alice._sock)
                queries = _writes(window)
                for query in queries:
                    alice.submit(query)
                rids = [alice.core.rid(seq) if window > 1 else None
                        for seq in range(window)]
                assert alice._sock.writes == [
                    b"".join(_frames("alice", rids, queries, [0] * window))]
                assert len(alice.drain()) == window
                dedup = server.with_core(lambda core: core.dedup.export())
                assert len(dedup.get("alice", [])) == (
                    window if window > 1 else 0)
        finally:
            server.stop()

    def test_a_full_window_is_one_write_and_one_signing_run(self, shared_keys):
        """One client, one window: ``bench_throughput``'s amortization
        bound is ceil(ops / window) + 2 signatures per client."""
        server = p1_async_server(shared_keys, batch_max=64)
        try:
            host, port = server.address
            alice = RemoteClientP1(
                host, port, "alice", shared_keys.signers["alice"],
                shared_keys.verifier, order=4, window=WINDOW)
            alice._sock = RecordingSocket.adopt(alice._sock)
            queries = _writes(WINDOW - 1) + [ReadQuery(b"k1")]
            for query in queries[:-1]:
                alice.submit(query)
            assert alice._sock.writes == []
            alice.submit(queries[-1])
            rids = [f"alice:{alice.core.nonce}:{seq}"
                    for seq in range(WINDOW)]
            assert alice._sock.writes == [
                b"".join(_frames("alice", rids, queries, [0] * WINDOW))]
            answers = alice.drain()
            assert len(answers) == WINDOW
            assert 1 <= alice.followups_sent <= 1 + 2
            # requests in one write, then one write per follow-up
            assert len(alice._sock.writes) == 1 + alice.followups_sent
            assert count_sync_check({"alice": alice.counts()})
            alice.close()
        finally:
            server.stop()
