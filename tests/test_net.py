"""Tests for the TCP deployment layer (real sockets on localhost)."""

import gc
import logging
import socket
import struct
import threading

import pytest

from helpers import swap_state
from repro.net import RemoteClient, serve_in_thread, sync_check
from repro.net.client import RetryPolicy, TransientNetworkError
from repro.net.framing import FramingError, recv_message
from repro.wire import WireError

#: A frame of lists nested 5,000 deep: past the codec's bound of 256,
#: and past the interpreter's recursion limit for a decoder without one.
DEEP_FRAME = b"\x07\x00\x00\x00\x01" * 5000 + b"\x00"


@pytest.fixture
def server():
    srv = serve_in_thread(order=4)
    yield srv
    srv.stop()


def connect(server, user_id):
    host, port = server.address
    return RemoteClient(host, port, user_id, server.initial_root_digest(), order=4)


def _no_delay(sock) -> bool:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1


class TestSingleClient:
    def test_put_get_roundtrip(self, server):
        with connect(server, "alice") as alice:
            alice.put(b"src/main.c", b"int main() {}")
            assert alice.get(b"src/main.c") == b"int main() {}"
            assert alice.get(b"missing") is None

    def test_delete(self, server):
        with connect(server, "alice") as alice:
            alice.put(b"k", b"v")
            alice.delete(b"k")
            assert alice.get(b"k") is None

    def test_scan(self, server):
        with connect(server, "alice") as alice:
            for i in range(8):
                alice.put(f"f{i}".encode(), str(i).encode())
            entries = alice.scan(b"f2", b"f5")
            assert [k for k, _ in entries] == [b"f2", b"f3", b"f4", b"f5"]

    def test_many_operations(self, server):
        with connect(server, "alice") as alice:
            for i in range(60):
                alice.put(f"k{i % 10}".encode(), f"v{i}".encode())
            assert alice.operations == 60
            assert alice.gctr == 60


class TestMultipleClients:
    def test_two_users_interleaved(self, server):
        with connect(server, "alice") as alice, connect(server, "bob") as bob:
            alice.put(b"shared", b"from alice")
            assert bob.get(b"shared") == b"from alice"
            bob.put(b"shared", b"from bob")
            assert alice.get(b"shared") == b"from bob"

    def test_honest_sync_check_passes(self, server):
        root = server.initial_root_digest()
        with connect(server, "alice") as alice, connect(server, "bob") as bob:
            alice.put(b"a", b"1")
            bob.put(b"b", b"2")
            alice.get(b"b")
            registers = {"alice": alice.registers(), "bob": bob.registers()}
        assert sync_check(root, registers)

    def test_pristine_sync_check_passes(self, server):
        assert sync_check(server.initial_root_digest(), {})

    def test_concurrent_clients(self, server):
        """Hammer the server from threads; serial execution must keep
        every client's register chain valid."""
        root = server.initial_root_digest()
        errors = []
        registers = {}
        lock = threading.Lock()

        def work(user):
            try:
                with connect(server, user) as client:
                    for i in range(20):
                        client.put(f"{user}-{i % 5}".encode(), str(i).encode())
                        client.get(f"{user}-{i % 5}".encode())
                    with lock:
                        registers[user] = client.registers()
            except Exception as exc:  # noqa: BLE001
                errors.append((user, exc))

        threads = [threading.Thread(target=work, args=(f"u{i}",)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert sync_check(root, registers)


class TestServerMisbehaviour:
    def test_forked_server_caught_by_sync_check(self, server):
        """Simulate a fork at the state level: snapshot the server state,
        serve bob from the stale copy, and check the registers refuse to
        reconcile."""
        root = server.initial_root_digest()
        with connect(server, "alice") as alice:
            alice.put(b"k", b"v1")
            stale = server.with_core(lambda core: core.state.clone())
            alice.put(b"k", b"v2")

            # swap the stale state in for bob's session
            live = swap_state(server, stale)
            with connect(server, "bob") as bob:
                bob.put(b"k", b"bob's view")
                bob_registers = bob.registers()
            swap_state(server, live)

            registers = {"alice": alice.registers(), "bob": bob_registers}
        assert not sync_check(root, registers)

    def test_garbage_frames_rejected(self, server):
        host, port = server.address
        with socket.create_connection((host, port)) as sock:
            sock.sendall(b"\x00\x00\x00\x04junk")
            # server drops the connection without crashing
            assert sock.recv(64) == b""
        # and keeps serving others
        with connect(server, "alice") as alice:
            alice.put(b"still", b"alive")
            assert alice.get(b"still") == b"alive"

    def test_deeply_nested_frame_is_a_malformed_frame(self, server, caplog):
        """The codec's error path, not asyncio's unhandled-exception
        path: the handler drops the connection like any garbage frame
        and leaves nothing for the loop to report."""
        host, port = server.address
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection((host, port)) as sock:
                sock.sendall(struct.pack(">I", len(DEEP_FRAME)) + DEEP_FRAME)
                assert sock.recv(64) == b""
            with connect(server, "alice") as alice:
                alice.put(b"still", b"alive")
                assert alice.get(b"still") == b"alive"
            gc.collect()
        assert not [record for record in caplog.records if record.name == "asyncio"]

    def test_sync_check_is_anchored_at_the_initial_root(self, server):
        """The registers are derived entirely from VOs; the initial root
        is the *checker's* trust anchor.  Checking against the true
        pre-history root passes; checking against any other digest (a
        server lying about where history began) rejects."""
        from repro.crypto.hashing import hash_bytes

        true_root = server.initial_root_digest()  # before any operation
        with connect(server, "alice") as alice:
            alice.put(b"k", b"v")
            registers = {"alice": alice.registers()}
        assert sync_check(true_root, registers)
        assert not sync_check(hash_bytes(b"forged genesis"), registers)


class TestMalformedAnswers:
    @pytest.mark.parametrize("answer", [b"\xfe", DEEP_FRAME],
                             ids=["garbage", "deeply-nested"])
    def test_client_treats_the_frame_as_malformed(self, answer):
        """A server answering every request with ``answer``: the session
        drops the connection and retries, and when the budget is spent
        reports a transport failure caused by the codec -- a verdict-free
        failure it can recover from, never an escaping RecursionError."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10)
        connections = []

        def serve():  # one connection per attempt
            for _ in range(3):
                conn, _ = listener.accept()
                connections.append(conn)
                try:
                    while recv_message(conn) is not None:
                        conn.sendall(struct.pack(">I", len(answer)) + answer)
                except (OSError, FramingError):  # the client hung up
                    pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            client = RemoteClient(*listener.getsockname(), "alice",
                                  retry=RetryPolicy(attempts=3, base=0.001))
            with pytest.raises(TransientNetworkError, match="3 connection") as info:
                client.get(b"k")
            assert isinstance(info.value.__cause__, WireError)
            client.close()
        finally:
            listener.close()
            thread.join(timeout=5)
            for conn in connections:
                conn.close()
        assert not thread.is_alive()
        assert len(connections) == 3


class TestProtocol1OverTcp:
    @pytest.fixture
    def p1_setup(self, shared_keys):
        from repro.mtree.database import VerifiedDatabase
        from repro.protocols.base import ServerState
        from repro.protocols.protocol1 import Protocol1Server, bootstrap_server_state

        keys = shared_keys
        state = ServerState(database=VerifiedDatabase(order=4))
        bootstrap_server_state(state, keys.signers["alice"])
        server = serve_in_thread(protocol=Protocol1Server(), state=state)
        yield server, keys
        server.stop()

    def connect_p1(self, server, keys, user, window=None):
        from repro.net import RemoteClientP1

        host, port = server.address
        return RemoteClientP1(host, port, user, keys.signers[user],
                              keys.verifier, order=4, window=window)

    def test_signed_roundtrip(self, p1_setup):
        server, keys = p1_setup
        with self.connect_p1(server, keys, "alice") as alice:
            alice.put(b"k", b"v")
            assert alice.get(b"k") == b"v"
            assert alice.lctr == 2

    def test_two_users_chain_signatures(self, p1_setup):
        from repro.net import count_sync_check

        server, keys = p1_setup
        with self.connect_p1(server, keys, "alice") as alice, \
                self.connect_p1(server, keys, "bob") as bob:
            alice.put(b"shared", b"from alice")
            assert bob.get(b"shared") == b"from alice"
            bob.put(b"shared", b"from bob")
            assert alice.get(b"shared") == b"from bob"
            counts = {"alice": alice.counts(), "bob": bob.counts()}
        assert count_sync_check(counts)

    def test_forked_counts_fail_sync(self, p1_setup):
        from repro.net import count_sync_check

        server, keys = p1_setup
        with self.connect_p1(server, keys, "alice") as alice:
            alice.put(b"k", b"v1")
            assert server.quiesce()  # let alice's follow-up signature land
            stale = server.with_core(lambda core: core.state.clone())
            alice.put(b"k", b"v2")
            assert server.quiesce()
            live = swap_state(server, stale)
            with self.connect_p1(server, keys, "bob") as bob:
                bob.put(b"k", b"bob world")
                bob_counts = bob.counts()
            assert server.quiesce()
            swap_state(server, live)
            alice.get(b"k")
            counts = {"alice": alice.counts(), "bob": bob_counts}
        assert not count_sync_check(counts)

    def test_forged_signature_rejected(self, p1_setup):
        from repro.net import IntegrityError

        server, keys = p1_setup
        with self.connect_p1(server, keys, "alice") as alice:
            alice.put(b"k", b"v")
            assert server.quiesce()  # let alice's follow-up signature land
            # corrupt the stored signature server-side (a forging server)
            from repro.crypto.signatures import Signature

            def forge(core):
                genuine = core.state.meta["p1.sig"]
                core.state.meta["p1.sig"] = Signature(
                    signer_id=genuine.signer_id, digest=genuine.digest,
                    raw=bytes(len(genuine.raw)))

            server.with_core(forge)
            with pytest.raises(IntegrityError, match="signature"):
                alice.get(b"k")

    def test_both_client_sockets_are_no_delay(self, p1_setup):
        server, keys = p1_setup
        with self.connect_p1(server, keys, "alice") as alice:
            assert _no_delay(alice._sock)
        with self.connect_p1(server, keys, "bob", window=16) as bob:
            assert _no_delay(bob._sock)

    def test_sixteen_consecutive_operations_never_wait_for_an_ack(self, p1_setup):
        """The follow-up and the next request are two writes with no
        read between them.  With Nagle on, the second waited for the
        server's delayed ACK: 40 ms on each of 15 operations, 600 ms,
        around some 50 ms of signing and verifying.  The fastest of
        three turns keeps a busy host from failing this."""
        import time

        server, keys = p1_setup
        turns = []
        with self.connect_p1(server, keys, "alice") as alice:
            alice.put(b"warm", b"up")
            for turn in range(3):
                started = time.perf_counter()
                for i in range(16):
                    alice.put(b"k%d" % (i % 4), b"v%d.%d" % (turn, i))
                turns.append(time.perf_counter() - started)
        assert min(turns) < 0.3, turns


class TestProtocol1Blocking:
    """The Protocol I blocking path: the server may not answer the next
    query until the previous operator returns its signature over the
    new root.  These tests drive the server with raw frames so the
    follow-up can be withheld deliberately."""

    def _start_server(self, keys, block_timeout):
        from repro.mtree.database import VerifiedDatabase
        from repro.protocols.base import ServerState
        from repro.protocols.protocol1 import Protocol1Server, bootstrap_server_state

        state = ServerState(database=VerifiedDatabase(order=4))
        bootstrap_server_state(state, keys.signers["alice"])
        return serve_in_thread(protocol=Protocol1Server(), state=state,
                               block_timeout=block_timeout)

    @staticmethod
    def _operate_withholding_followup(server, signer, key, value):
        """Run one write as ``signer``'s user over a raw socket, but do
        NOT send the follow-up signature.  Returns (socket, followup)."""
        from repro.crypto.hashing import hash_state
        from repro.mtree.database import WriteQuery
        from repro.net.framing import recv_message, send_message
        from repro.protocols.base import Followup, Request, Response
        from repro.protocols.verify import derive_outcome

        host, port = server.address
        sock = socket.create_connection((host, port))
        query = WriteQuery(key, value)
        send_message(sock, Request(query=query,
                                   extras={"user": signer.signer_id}))
        response = recv_message(sock)
        assert isinstance(response, Response)
        ctr = int(response.extras["ctr"])
        outcome = derive_outcome(query, response.result, 4)
        followup = Followup(extras={
            "sig": signer.sign(hash_state(outcome.new_root, ctr + 1)),
            "user": signer.signer_id,
        })
        return sock, followup

    def test_second_client_blocks_until_first_signs(self, shared_keys):
        from repro.net import RemoteClientP1
        from repro.net.framing import send_message

        server = self._start_server(shared_keys, block_timeout=30.0)
        try:
            sock_a, followup = self._operate_withholding_followup(
                server, shared_keys.signers["alice"], b"k", b"v1")
            answered = threading.Event()
            results = {}

            def bob_reads():
                host, port = server.address
                with RemoteClientP1(host, port, "bob",
                                    shared_keys.signers["bob"],
                                    shared_keys.verifier, order=4) as bob:
                    results["answer"] = bob.get(b"k")
                answered.set()

            thread = threading.Thread(target=bob_reads, daemon=True)
            thread.start()
            # Bob must be parked on the unsigned root, not answered.
            assert not answered.wait(0.4)
            send_message(sock_a, followup)
            assert answered.wait(10.0), "bob never unblocked after the signature"
            thread.join(5.0)
            assert results["answer"] == b"v1"
            sock_a.close()
        finally:
            server.stop()

    def test_block_timeout_returns_error_frame(self, shared_keys):
        """When the operator never signs, the server must refuse the
        waiting request with an explicit ErrorReply -- a clean failure
        the client surfaces as ServerBusyError -- and the connection
        must stay usable afterwards."""
        from repro.net import RemoteClientP1
        from repro.net.client import ServerBusyError
        from repro.net.framing import send_message

        server = self._start_server(shared_keys, block_timeout=0.3)
        try:
            sock_a, followup = self._operate_withholding_followup(
                server, shared_keys.signers["alice"], b"k", b"v1")
            host, port = server.address
            with RemoteClientP1(host, port, "bob", shared_keys.signers["bob"],
                                shared_keys.verifier, order=4) as bob:
                with pytest.raises(ServerBusyError, match="follow-up"):
                    bob.get(b"k")
                # the session survives the refusal: sign, then retry
                send_message(sock_a, followup)
                assert server.quiesce(timeout=5.0)
                assert bob.get(b"k") == b"v1"
            sock_a.close()
        finally:
            server.stop()


class TestQuiescedReads:
    """Regression: quiesce() and then a separate read leaves a window
    where a queued request executes in between, so out-of-band observers
    (attack harnesses) could see a torn, mid-transaction root.
    read_quiesced/consistent_view do the wait *and* the read with no
    await between them."""

    _start_server = TestProtocol1Blocking._start_server
    _operate_withholding_followup = staticmethod(
        TestProtocol1Blocking._operate_withholding_followup)

    def test_consistent_view_times_out_while_followup_withheld(self, shared_keys):
        server = self._start_server(shared_keys, block_timeout=30.0)
        try:
            sock_a, followup = self._operate_withholding_followup(
                server, shared_keys.signers["alice"], b"k", b"v1")
            # Mid-transaction: the root has advanced but its follow-up
            # signature is outstanding -- no consistent view exists yet.
            assert server.consistent_view(timeout=0.3) is None
            from repro.net.framing import send_message

            send_message(sock_a, followup)
            view = server.consistent_view(timeout=5.0)
            assert view is not None
            root, ctr, tick = view
            assert ctr == 1
            sock_a.close()
        finally:
            server.stop()

    def test_quiesced_read_sees_signed_roots_only(self, shared_keys):
        """At every quiesced read the stored state signature must cover
        exactly h(root || ctr) -- the invariant a torn read violates."""
        from repro.crypto.hashing import hash_state
        from repro.net import RemoteClientP1
        from repro.protocols.protocol1 import META_SIG

        server = self._start_server(shared_keys, block_timeout=30.0)
        try:
            host, port = server.address
            stop = threading.Event()
            violations = []

            def observer():
                while not stop.is_set():
                    view = server.read_quiesced(
                        lambda st: (st.database.root_digest(), st.ctr,
                                    st.meta.get(META_SIG)),
                        timeout=5.0)
                    if view is None:
                        continue
                    root, ctr, sig = view
                    if sig is not None and sig.digest != hash_state(root, ctr):
                        violations.append((root, ctr, sig))

            thread = threading.Thread(target=observer, daemon=True)
            thread.start()
            with RemoteClientP1(host, port, "alice",
                                shared_keys.signers["alice"],
                                shared_keys.verifier, order=4) as alice:
                for i in range(12):
                    alice.put(f"k{i % 3}".encode(), f"v{i}".encode())
            stop.set()
            thread.join(5.0)
            assert not violations, violations
        finally:
            server.stop()


class TestTimeoutsAndRetries:
    """A hung or refusing server must surface as a *retryable* failure
    (TransientNetworkError) within the configured budget -- never a
    client parked forever, never an integrity verdict."""

    def test_hung_server_times_out_as_transient(self):
        """A listener that accepts but never answers: the per-op socket
        timeout fires, the client retries, exhausts its budget, and
        raises TransientNetworkError (an OSError chain, not a hang)."""
        from repro.crypto.hashing import hash_bytes
        from repro.net import RetryPolicy, TransientNetworkError

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        host, port = listener.getsockname()
        try:
            client = RemoteClient(
                host, port, "alice", hash_bytes(b"whatever"), order=4,
                op_timeout=0.2,
                retry=RetryPolicy(attempts=2, base=0.01, cap=0.01, seed=0))
            with pytest.raises(TransientNetworkError):
                client.put(b"k", b"v")
            client.close()
        finally:
            listener.close()

    def test_connection_refused_is_transient_not_integrity(self):
        from repro.crypto.hashing import hash_bytes
        from repro.net import IntegrityError, RetryPolicy, TransientNetworkError

        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransientNetworkError) as excinfo:
            RemoteClient("127.0.0.1", dead_port, "alice",
                         hash_bytes(b"whatever"), order=4,
                         retry=RetryPolicy(attempts=2, base=0.01, seed=0))
        assert not isinstance(excinfo.value, IntegrityError)

    def _busy_shim(self, upstream_address, busy_replies):
        """A shim server that refuses the first ``busy_replies``
        requests per connection with a retryable ErrorReply, then
        relays request/response frames to the real server."""
        from repro.net.framing import recv_message, send_message
        from repro.protocols.base import ErrorReply

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)

        def serve():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return

                def handle(conn=conn):
                    remaining = busy_replies
                    upstream = None
                    try:
                        while True:
                            request = recv_message(conn)
                            if request is None:
                                return
                            if remaining > 0:
                                remaining -= 1
                                send_message(conn, ErrorReply(
                                    reason="blocked on another user's follow-up",
                                    extras={"retryable": True}))
                                continue
                            if upstream is None:
                                upstream = socket.create_connection(
                                    upstream_address, timeout=5)
                            send_message(upstream, request)
                            send_message(conn, recv_message(upstream))
                    except OSError:
                        pass
                    finally:
                        conn.close()
                        if upstream is not None:
                            upstream.close()

                threading.Thread(target=handle, daemon=True).start()

        threading.Thread(target=serve, daemon=True).start()
        return listener

    def test_busy_refusals_retried_then_succeed(self, server):
        """ServerBusyError is retried on the *same* connection (the
        session is intact) and the operation completes once the server
        stops refusing."""
        from repro.net import RetryPolicy

        shim = self._busy_shim(server.address, busy_replies=2)
        host, port = shim.getsockname()
        try:
            with RemoteClient(host, port, "alice",
                              server.initial_root_digest(), order=4,
                              retry=RetryPolicy(attempts=3, base=0.01,
                                                cap=0.02, busy_attempts=4,
                                                seed=0)) as alice:
                alice.put(b"k", b"v")  # 2 refusals, then applied
                assert alice.get(b"k") == b"v"
                assert alice.operations == 2
        finally:
            shim.close()

    def test_busy_budget_exhaustion_is_transient(self, server):
        from repro.net import RetryPolicy, TransientNetworkError

        shim = self._busy_shim(server.address, busy_replies=10 ** 6)
        host, port = shim.getsockname()
        try:
            with RemoteClient(host, port, "alice",
                              server.initial_root_digest(), order=4,
                              retry=RetryPolicy(attempts=3, base=0.01,
                                                cap=0.02, busy_attempts=3,
                                                seed=0)) as alice:
                with pytest.raises(TransientNetworkError, match="busy"):
                    alice.put(b"k", b"v")
        finally:
            shim.close()


class TestLargeFrames:
    def test_megabyte_values_roundtrip(self, server):
        """Framing handles large VO-bearing responses (multi-frame reads
        on a value far larger than any socket buffer)."""
        big = bytes(range(256)) * 4096  # 1 MiB
        with connect(server, "alice") as alice:
            alice.put(b"blob", big)
            assert alice.get(b"blob") == big


class TestNoDelaySockets:
    """Every TCP socket the package opens or accepts has Nagle off: a
    write-write-read exchange (a Protocol I follow-up, then the next
    request) otherwise waits out the peer's delayed-ACK timer."""

    def test_client_and_accepted_connection(self, server):
        with connect(server, "alice") as alice:
            alice.put(b"k", b"v")
            assert _no_delay(alice._sock)
            accepted = [connection.transport.get_extra_info("socket")
                        for connection in server._connections]
            assert accepted and all(_no_delay(sock) for sock in accepted)

    def test_pipelined_client_after_a_forced_reconnect(self, server):
        host, port = server.address
        with RemoteClient(host, port, "alice", server.initial_root_digest(),
                          order=4, window=16) as alice:
            first = alice._sock
            assert _no_delay(first)
            alice._drop_connection()
            alice.put(b"k", b"v")
            assert alice._sock is not first and _no_delay(alice._sock)
