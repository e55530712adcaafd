"""Answers leave as they are made: ``ServerCore.stream_batch`` yields a
batch's responses in entry order, each as soon as its operation has
executed, and holds only the last until the batch's root pass and
checkpoint; the event loop writes each the moment it is yielded.

These tests pin the order, the timing of the first and the last
answer, the checkpoint before the answer that triggered it, and what
a protocol raising mid-batch leaves behind."""

import copy
import select
import socket
import threading
import time

import pytest

from repro.mtree.database import ReadQuery, WriteQuery
from repro.net import RemoteClient, ServerCore, serve_in_thread
from repro.net.framing import recv_message, send_messages
from repro.protocols.base import ACK_KEY, ErrorReply, Request, Response
from repro.protocols.protocol2 import Protocol2Server
from repro.wire import encode


def request(user, query, rid=None, ack=None):
    extras = {"user": user}
    if rid is not None:
        extras["rid"] = rid
    if ack is not None:
        extras[ACK_KEY] = ack
    return Request(query=query, extras=extras)


def write(user, key, **ids):
    return request(user, WriteQuery(key, b"v-" + key), **ids)


class TestEntryOrder:
    """One batch mixing every kind of answer the planner makes."""

    @staticmethod
    def history(core):
        core.apply_batch([("alice", write("alice", b"a0",
                                          rid="alice:n:5", ack=5))])

    @staticmethod
    def batch():
        return [
            ("alice", write("alice", b"a0", rid="alice:n:5", ack=5)),  # dedup hit
            ("alice", write("alice", b"a1", rid="alice:n:6", ack=5)),  # executes
            ("bob", write("bob", b"b0", ack=0)),  # malformed: an ack, no rid
            ("alice", write("alice", b"a9", rid="alice:n:3")),  # stale
            ("alice", write("alice", b"a1", rid="alice:n:6", ack=5)),  # intra-batch
            ("bob", write("bob", b"b1", rid="bob:m:0", ack=0)),  # executes
            ("carol", request("carol", ReadQuery(b"a1"))),  # executes, last
        ]

    def cores(self):
        cores = []
        for _ in range(2):
            core = ServerCore(order=4)
            self.history(core)
            cores.append(core)
        return cores

    def test_streamed_answers_are_the_batchs_answers(self):
        streamed_core, listed_core = self.cores()
        entries = self.batch()
        streamed = list(streamed_core.stream_batch(copy.deepcopy(entries)))
        listed = listed_core.apply_batch(copy.deepcopy(entries))
        assert [encode(r) for r in streamed] == [encode(r) for r in listed]
        assert [isinstance(r, ErrorReply) for r in streamed] == [
            False, False, True, True, False, False, False]
        assert streamed[2].reason.startswith("malformed request")
        assert streamed[3].reason.startswith("stale request")
        assert [r.extras.get("rid") for r in streamed] == [
            "alice:n:5", "alice:n:6", None, None, "alice:n:6", "bob:m:0",
            None]
        assert streamed[4] is streamed[1]  # the first copy's answer
        assert (streamed_core.state.database.root_digest()
                == listed_core.state.database.root_digest())

    def test_each_answer_leaves_once_its_operation_has_executed(self):
        """The ctr counts executed requests: each answer but the last is
        yielded at the first point its operation has executed (a dedup
        hit or a refusal before any), the last only after the root
        pass."""
        core, _twin = self.cores()
        start = core.state.ctr
        seen = []
        for response in core.stream_batch(self.batch()):
            seen.append((core.state.ctr - start,
                         core.state.database.shard_trees()[0].root.digest
                         is not None))
        assert [executed for executed, _fresh in seen] == [0, 1, 1, 1, 1, 2, 3]
        assert seen[-2][1] is False  # the batch's writes are unhashed
        assert seen[-1][1] is True   # the root pass ran before the last

    @pytest.mark.parametrize("last", [0, 2, 3, 4])
    def test_a_batch_ending_on_an_unexecuted_answer(self, last):
        """A batch that executes a write and ends on a dedup hit, a
        refusal or an intra-batch copy still yields every answer, in
        order."""
        streamed_core, listed_core = self.cores()
        batch = self.batch()
        entries = [batch[1], batch[last]]
        streamed = list(streamed_core.stream_batch(copy.deepcopy(entries)))
        listed = listed_core.apply_batch(copy.deepcopy(entries))
        assert len(streamed) == 2
        assert [encode(r) for r in streamed] == [encode(r) for r in listed]


def _writes(user, keys):
    return [write(user, key) for key in keys]


class _HeldLoop:
    """Blocks the server's event loop until released, so frames sent
    meanwhile are all read -- and batched -- in one loop pass."""

    def __init__(self, server):
        self._release = threading.Event()
        held = threading.Event()

        def hold():
            held.set()
            self._release.wait(10.0)
        server.loop.call_soon_threadsafe(hold)
        assert held.wait(5.0)

    def release(self):
        self._release.set()


def _connect(server, count):
    sockets = [socket.create_connection(server.address, timeout=10.0)
               for _ in range(count)]
    for _ in range(500):
        if len(server._connections) == count:
            break
        time.sleep(0.01)
    assert len(server._connections) == count
    return sockets


class TestOnTheWire:
    def test_the_first_answer_leaves_before_the_batchs_last_op_runs(self):
        """16 requests in one batch: when the 16th executes, the first
        answer is already readable on the client's socket."""
        peeked = []
        batches = []
        looked = threading.Event()  # nothing reads the socket until then

        class Watching(Protocol2Server):
            def handle_request(self, user_id, message, state, round_no):
                if message.query.key == b"k15":
                    readable, _w, _x = select.select([client], [], [], 5.0)
                    peeked.append(bool(readable))
                    looked.set()
                return super().handle_request(user_id, message, state,
                                              round_no)

        server = serve_in_thread(order=4, batch_max=64, protocol=Watching())
        try:
            (client,) = _connect(server, 1)

            def count_batches(core):
                stream = core.stream_batch

                def counted(entries, received=None):
                    batches.append(len(entries))
                    return stream(entries, received)
                core.stream_batch = counted
            server.with_core(count_batches)
            held = _HeldLoop(server)
            send_messages(client, _writes(
                "alice", [b"k%d" % i for i in range(16)]))
            held.release()
            assert looked.wait(10.0)
            answers = [recv_message(client) for _ in range(16)]
            assert batches == [16]
            assert peeked == [True]
            assert all(isinstance(a, Response) for a in answers)
            assert [a.extras["ctr"] for a in answers] == list(range(16))
            client.close()
        finally:
            server.stop()

    def test_the_answer_that_triggers_a_checkpoint_follows_it(self, tmp_path):
        """With ``snapshot_every=4`` a stop-and-wait session holds the
        4th answer only once the manifest's generation has advanced; a
        window of 8 (one batch) holds its last answer only after the
        batch's checkpoint."""
        server = serve_in_thread(order=4, data_dir=str(tmp_path),
                                 snapshot_every=4, fsync=False)
        try:
            host, port = server.address
            genesis = server.initial_root_digest()
            store = server.core.store
            start = server.with_core(lambda core: core.store.live_gen)
            with RemoteClient(host, port, "alice", genesis,
                              order=4) as alice:
                for i in range(8):
                    alice.put(b"s%d" % i, b"v")
                    assert store.live_gen == start + (i + 1) // 4
            with RemoteClient(host, port, "bob", genesis, order=4,
                              window=8) as bob:
                for i in range(8):
                    bob.submit(WriteQuery(b"w%d" % i, b"v"))
                bob.drain()
                assert store.live_gen > start + 2
        finally:
            server.stop()

    def test_a_protocol_raising_mid_batch(self):
        """The answers written before the failing operation stand, the
        failing and later connections are aborted, and the server is
        idle afterwards."""
        executed = []

        class Failing(Protocol2Server):
            def handle_request(self, user_id, message, state, round_no):
                executed.append(message.query.key)
                if message.query.key == b"boom":
                    raise RuntimeError("the protocol cannot execute this")
                return super().handle_request(user_id, message, state,
                                              round_no)

        server = serve_in_thread(order=4, batch_max=64, protocol=Failing())
        try:
            first, failing, later = _connect(server, 3)
            held = _HeldLoop(server)
            send_messages(first, _writes("alice", [b"a1", b"a2"]))
            send_messages(failing, _writes("bob", [b"boom"]))
            send_messages(later, _writes("carol", [b"c1"]))
            held.release()
            answers = [recv_message(first), recv_message(first)]
            assert all(isinstance(a, Response) for a in answers)
            for aborted in (failing, later):
                try:
                    assert recv_message(aborted) is None
                except OSError:
                    pass  # reset: the transport was aborted
            assert executed == [b"a1", b"a2", b"boom"]
            assert server.quiesce(timeout=5.0)
            assert server._inflight == 0
            # The pass survived: the first connection is still served.
            send_messages(first, _writes("alice", [b"a3"]))
            assert isinstance(recv_message(first), Response)
            first.close()
        finally:
            server.stop()
