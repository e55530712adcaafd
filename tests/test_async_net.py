"""The asyncio server: batched execution over one event loop.

Batching must be *invisible* to a verifying client -- same wire
protocol, same VO chain as an in-process reference run of the same
operations -- while amortizing the per-op costs (fsync, Merkle root
pass, Protocol I signature round) across batches.  These tests pin
both halves: equivalence of what clients observe, and that batching
actually happens.
"""

import pytest

from repro import obs
from repro.mtree.database import VerifiedDatabase, WriteQuery
from repro.net import (
    RemoteClient,
    RemoteClientP1,
    count_sync_check,
    serve_in_thread,
    sync_check,
)
from repro.protocols.base import ServerState
from repro.protocols.protocol1 import Protocol1Server, bootstrap_server_state


def p1_async_server(keys, elected="alice", **kwargs):
    state = ServerState(database=VerifiedDatabase(order=4))
    protocol = Protocol1Server()
    protocol.initialize(state)
    bootstrap_server_state(state, keys.signers[elected])
    return serve_in_thread(order=4, protocol=protocol, state=state,
                                 block_timeout=5.0, **kwargs)


class TestAsyncServerEquivalence:
    def test_serial_clients_cannot_tell_the_transports_apart(self):
        """Stop-and-wait RemoteClients cannot tell the event loop from
        the in-process database: per-op VOs verify, registers sync,
        final root matches an in-process reference run."""
        server = serve_in_thread(order=4)
        reference = VerifiedDatabase(order=4)
        try:
            host, port = server.address
            genesis = server.initial_root_digest()
            clients = {
                user: RemoteClient(host, port, user, genesis, order=4)
                for user in ("alice", "bob")
            }
            for i in range(8):
                for user in ("alice", "bob"):
                    key, value = f"{user}-{i}".encode(), f"v{i}".encode()
                    clients[user].put(key, value)
                    reference.execute(WriteQuery(key, value))
            assert clients["alice"].get(b"bob-3") == b"v3"
            registers = {u: c.registers() for u, c in clients.items()}
            assert sync_check(genesis, registers)
            final = server.with_core(
                lambda core: core.state.database.root_digest())
            assert final == reference.root_digest()
            for client in clients.values():
                client.close()
        finally:
            server.stop()

    def test_pipelined_window_verifies_in_order(self):
        """A full window of in-flight writes drains with every VO
        verified in submission order; answers land in order too."""
        server = serve_in_thread(order=4, batch_max=8)
        try:
            host, port = server.address
            genesis = server.initial_root_digest()
            client = RemoteClient(host, port, "alice", genesis,
                                  order=4, window=8)
            for i in range(24):
                client.submit(WriteQuery(f"k{i % 5}".encode(),
                                         f"v{i}".encode()))
            client.drain()
            assert client.inflight == 0
            assert client.get(b"k4") == b"v19"  # last write to k4 wins
            assert sync_check(genesis, {"alice": client.registers()})
            client.close()
        finally:
            server.stop()

    def test_quiesce_gives_a_stable_read(self):
        server = serve_in_thread(order=4)
        try:
            host, port = server.address
            with RemoteClient(host, port, "alice",
                              server.initial_root_digest(), order=4) as c:
                c.put(b"k", b"v")
            assert server.quiesce(timeout=5.0)
            assert server.with_core(lambda core: core.state.ctr) == 1
        finally:
            server.stop()


class TestBatchingAmortization:
    def test_batches_are_actually_batched(self):
        """With a window of pipelined writers the server's pass must group
        ops: strictly fewer batches (root passes / group commits) than
        operations, visible in the obs counters."""
        obs.reset()
        obs.enable()
        server = serve_in_thread(order=4, batch_max=32)
        try:
            host, port = server.address
            genesis = server.initial_root_digest()
            client = RemoteClient(host, port, "alice", genesis,
                                  order=4, window=16)
            total = 64
            for i in range(total):
                client.submit(WriteQuery(f"k{i % 7}".encode(), b"v"))
            client.drain()
            batches = obs.registry.counter("server.batches").total()
            assert 0 < batches < total
            assert sync_check(genesis, {"alice": client.registers()})
            client.close()
        finally:
            server.stop()
            obs.disable()

    def test_p1_signs_once_per_batch_not_per_op(self, shared_keys):
        """The amortization claim itself: a pipelined Protocol I client
        produces ~ops/W follow-up signatures, while a stop-and-wait
        client against the same server still signs per op."""
        server = p1_async_server(shared_keys, batch_max=16)
        try:
            host, port = server.address
            pipelined = RemoteClientP1(
                host, port, "alice", shared_keys.signers["alice"],
                shared_keys.verifier, order=4, window=8)
            total = 32
            for i in range(total):
                pipelined.submit(WriteQuery(f"a{i % 5}".encode(), b"v"))
            pipelined.drain()
            # One signature per signing run, not per op.  Runs can be
            # shorter than W when a pass runs early, but there
            # must be real amortization, not per-op signing.
            assert pipelined.followups_sent < total // 2

            serial = RemoteClientP1(
                host, port, "bob", shared_keys.signers["bob"],
                shared_keys.verifier, order=4)
            for i in range(4):
                serial.put(f"b{i}".encode(), b"v")

            counts = {"alice": pipelined.counts(), "bob": serial.counts()}
            assert count_sync_check(counts)
            pipelined.close()
            serial.close()
        finally:
            server.stop()


class TestQuiesceCountsDequeuedWork:
    def test_a_pass_holding_requests_in_locals_is_not_idle(self):
        """Six requests cut out of one read wait for the next pass in
        the server's arrival list, on no socket and in no park list:
        every branch is unblocked and nothing is parked, yet the server
        is not quiescent until a pass has run them -- one pass, in
        three batches at ``batch_max=2``."""
        import asyncio

        from repro.net.framing import encode_frame
        from repro.protocols.base import Request

        server = serve_in_thread(order=4, batch_max=2)
        batches = []
        stream_batch = server.core.stream_batch

        def counted(entries, received=None):
            batches.append(len(entries))
            return stream_batch(entries, received)

        server.core.stream_batch = counted
        frames = b"".join(
            encode_frame(Request(query=WriteQuery(b"k%d" % i, b"v"),
                                 extras={"user": "alice",
                                         "rid": f"alice:q:{i}"}))
            for i in range(6))

        async def feed_the_connection():
            _reader, writer = await asyncio.open_connection(*server.address)
            while not server._connections:
                await asyncio.sleep(0.001)
            (connection,) = server._connections
            # What the loop does when the six frames arrive in one read;
            # no pass can run before this coroutine next yields.
            connection.get_buffer(len(frames))[:len(frames)] = frames
            connection.buffer_updated(len(frames))
            idle_by_arrivals_and_park_list = (
                not server._parked and server.core.all_unblocked()
                and server.core.state.ctr == 0)
            quiescent = await server._await_unblocked(0.0, lambda _s: True)
            return writer, idle_by_arrivals_and_park_list, quiescent

        try:
            writer, looked_idle, quiescent = asyncio.run_coroutine_threadsafe(
                feed_the_connection(), server.loop).result(5.0)
            assert looked_idle and quiescent is None
            assert server.quiesce(5.0)
            assert server.core.state.ctr == 6
            assert batches == [2, 2, 2]
            server.loop.call_soon_threadsafe(writer.close)
        finally:
            server.stop()


class TestBlockingPathObservability:
    """``net.block_wait_ms`` (DESIGN section 8, Protocol I row): observed
    when a parked request finally executes, and when it is refused."""

    def _withhold(self, server, keys):
        from tests.test_net import TestProtocol1Blocking

        return TestProtocol1Blocking._operate_withholding_followup(
            server, keys.signers["alice"], b"k", b"v1")

    def test_observed_when_a_parked_request_executes(self, shared_keys):
        import threading

        from repro.net.framing import send_message

        obs.enable()
        server = p1_async_server(shared_keys)
        try:
            sock_a, followup = self._withhold(server, shared_keys)
            host, port = server.address
            answers = []

            def bob_reads():
                with RemoteClientP1(host, port, "bob",
                                    shared_keys.signers["bob"],
                                    shared_keys.verifier, order=4) as bob:
                    answers.append(bob.get(b"k"))

            thread = threading.Thread(target=bob_reads, daemon=True)
            thread.start()
            waits = obs.registry.counter("net.block_waits")
            while not waits.total():
                thread.join(0.005)
            thread.join(0.1)                     # parked for 100 ms more
            send_message(sock_a, followup)
            thread.join(10.0)
            assert answers == [b"v1"]
            # bob's follow-up is written, not awaited: get() returns
            # before the loop has absorbed (and counted) it
            assert server.quiesce(5.0)
            waited = obs.registry.get("net.block_wait_ms")
            assert waited.total_count() == 1
            assert 100.0 <= waited.sum() < 5000.0
            assert obs.registry.counter("net.block_timeouts").total() == 0
            assert obs.registry.counter("net.followups").total() == 2
            sock_a.close()
        finally:
            server.stop()

    def test_observed_when_a_parked_request_is_refused(self, shared_keys):
        from repro.net import ServerBusyError

        state = ServerState(database=VerifiedDatabase(order=4))
        bootstrap_server_state(state, shared_keys.signers["alice"])
        obs.enable()
        server = serve_in_thread(order=4, protocol=Protocol1Server(),
                                 state=state, block_timeout=0.2)
        try:
            sock_a, _followup = self._withhold(server, shared_keys)
            host, port = server.address
            with RemoteClientP1(host, port, "bob", shared_keys.signers["bob"],
                                shared_keys.verifier, order=4) as bob:
                with pytest.raises(ServerBusyError):
                    bob.get(b"k")
            waited = obs.registry.get("net.block_wait_ms")
            assert waited.total_count() == 1
            assert 200.0 <= waited.sum() < 2000.0
            assert obs.registry.counter("net.block_timeouts").total() == 1
            sock_a.close()
        finally:
            server.stop()
