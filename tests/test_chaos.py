"""The chaos proxy, and self-healing clients driven through it."""

import errno
import socket
import threading
import time

import pytest

from repro.net import (
    ChaosConfig,
    ChaosProxy,
    RemoteClient,
    RetryPolicy,
    serve_in_thread,
    sync_check,
)


@pytest.fixture
def server():
    srv = serve_in_thread(order=4)
    yield srv
    srv.stop()


def _echo_server(ends=None):
    """A raw TCP echo server for proxy-level tests.  ``ends``, when
    given, collects how and when each connection ended: ``(errno or
    None for a clean EOF, time.monotonic())``."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)

    def serve():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            def pump(conn=conn):
                ended = None
                try:
                    while True:
                        chunk = conn.recv(4096)
                        if not chunk:
                            return
                        conn.sendall(chunk)
                except OSError as exc:
                    ended = exc.errno
                finally:
                    if ends is not None:
                        ends.append((ended, time.monotonic()))
                    conn.close()
            threading.Thread(target=pump, daemon=True).start()

    threading.Thread(target=serve, daemon=True).start()
    return listener


class TestProxyPlumbing:
    def test_clean_passthrough(self):
        upstream = _echo_server()
        with ChaosProxy(*upstream.getsockname(), seed=1) as proxy:
            with socket.create_connection(proxy.address, timeout=5) as sock:
                sock.sendall(b"hello through the proxy")
                assert sock.recv(64) == b"hello through the proxy"
        assert proxy.faults["connections"] == 1
        assert proxy.faults["drops"] == 0
        upstream.close()

    def test_upstream_down_refuses_cleanly(self):
        # Point at a port nothing listens on.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with ChaosProxy("127.0.0.1", dead_port, seed=1) as proxy:
            with socket.create_connection(proxy.address, timeout=5) as sock:
                assert sock.recv(64) == b""  # severed, no garbage

    def test_forced_drop_severs_connection(self):
        upstream = _echo_server()
        config = ChaosConfig(drop_rate=1.0)  # every chunk dies
        with ChaosProxy(*upstream.getsockname(), seed=3, config=config) as proxy:
            with socket.create_connection(proxy.address, timeout=5) as sock:
                sock.sendall(b"doomed")
                assert sock.recv(64) == b""
        assert proxy.faults["drops"] >= 1
        upstream.close()

    def test_truncation_forwards_a_prefix_at_most(self):
        upstream = _echo_server()
        config = ChaosConfig(truncate_rate=1.0)
        with ChaosProxy(*upstream.getsockname(), seed=4, config=config) as proxy:
            with socket.create_connection(proxy.address, timeout=5) as sock:
                sock.sendall(b"A" * 1000)
                received = b""
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    received += chunk
        assert len(received) < 1000  # never the full message
        assert proxy.faults["truncations"] >= 1
        upstream.close()

    def test_forced_reset_aborts_abruptly(self):
        """reset_rate=1.0: the peer sees at most a prefix and then an
        abrupt failure (RST) or severed stream -- never the full echo."""
        upstream = _echo_server()
        config = ChaosConfig(reset_rate=1.0)
        with ChaosProxy(*upstream.getsockname(), seed=8, config=config) as proxy:
            with socket.create_connection(proxy.address, timeout=5) as sock:
                sock.sendall(b"B" * 1000)
                received = b""
                try:
                    while True:
                        chunk = sock.recv(4096)
                        if not chunk:
                            break
                        received += chunk
                except OSError:
                    pass  # ECONNRESET: the abrupt abort, as advertised
        assert len(received) < 1000
        assert proxy.faults["resets"] >= 1
        upstream.close()

    def test_reset_rate_is_per_direction(self):
        """reset_rate_s2c only: the client's bytes reach the upstream
        unharmed; the echo coming back is what gets reset."""
        upstream = _echo_server()
        config = ChaosConfig(reset_rate=0.0, reset_rate_s2c=1.0)
        with ChaosProxy(*upstream.getsockname(), seed=9, config=config) as proxy:
            with socket.create_connection(proxy.address, timeout=5) as sock:
                sock.sendall(b"C" * 500)
                received = b""
                try:
                    while True:
                        chunk = sock.recv(4096)
                        if not chunk:
                            break
                        received += chunk
                except OSError:
                    pass
        assert len(received) < 500
        assert proxy.faults["resets"] >= 1
        # only the server-to-client pump ever rolled a reset
        assert proxy.faults["drops"] == 0
        assert proxy.faults["truncations"] == 0
        upstream.close()

    def test_reset_reaches_the_client_as_econnreset_at_once(self):
        """The s2c pump resets while the c2s pump sits in recv() on the
        client's socket: the client must get its RST now, not when its
        own 15 s timer fires, and not a clean EOF."""
        upstream = _echo_server()
        config = ChaosConfig(reset_rate=0.0, reset_rate_s2c=1.0)
        with ChaosProxy(*upstream.getsockname(), seed=9, config=config) as proxy:
            with socket.create_connection(proxy.address, timeout=15) as sock:
                started = time.monotonic()
                sock.sendall(b"C" * 500)
                with pytest.raises(OSError) as excinfo:
                    while sock.recv(4096):
                        pass
                assert excinfo.value.errno == errno.ECONNRESET
                assert time.monotonic() - started < 1.0
        upstream.close()

    def test_reset_reaches_the_upstream_leg_as_promptly(self):
        """Only c2s resets: the twin pump is the one reading from the
        upstream, whose leg must end with the same RST, as promptly."""
        ends = []
        upstream = _echo_server(ends)
        config = ChaosConfig(reset_rate=1.0, reset_rate_s2c=0.0)
        with ChaosProxy(*upstream.getsockname(), seed=9, config=config) as proxy:
            with socket.create_connection(proxy.address, timeout=15) as sock:
                started = time.monotonic()
                sock.sendall(b"C" * 500)
                with pytest.raises(OSError) as excinfo:
                    while sock.recv(4096):
                        pass
                assert excinfo.value.errno == errno.ECONNRESET
                deadline = started + 1.0
                while not ends and time.monotonic() < deadline:
                    time.sleep(0.005)
        assert ends, "the upstream leg never ended"
        ended, when = ends[0]
        assert ended == errno.ECONNRESET
        assert when - started < 1.0
        upstream.close()

    def test_stop_wakes_an_idle_acceptor(self):
        upstream = _echo_server()
        proxy = ChaosProxy(*upstream.getsockname(), seed=1).start()
        time.sleep(0.05)                   # the acceptor is in accept()
        started = time.monotonic()
        proxy.stop()
        assert time.monotonic() - started < 0.2
        assert not proxy._accept_thread.is_alive()
        upstream.close()

    def test_reset_schedule_is_seeded(self):
        """Same seed, same reset pattern across connections."""
        def run(seed):
            upstream = _echo_server()
            config = ChaosConfig(reset_rate=0.5)
            outcomes = []
            with ChaosProxy(*upstream.getsockname(), seed=seed,
                            config=config) as proxy:
                for _ in range(12):
                    with socket.create_connection(proxy.address,
                                                  timeout=5) as sock:
                        sock.sendall(b"ping")
                        try:
                            outcomes.append(sock.recv(16) == b"ping")
                        except OSError:
                            outcomes.append(False)
            upstream.close()
            return outcomes

        assert run(51) == run(51)
        assert run(51) != run(52)

    def test_seeded_fault_schedule_is_reproducible(self):
        """Same seed, same per-connection chunk pattern -> same faults."""
        def run(seed):
            upstream = _echo_server()
            config = ChaosConfig(drop_rate=0.5)
            outcomes = []
            with ChaosProxy(*upstream.getsockname(), seed=seed,
                            config=config) as proxy:
                for _ in range(12):
                    with socket.create_connection(proxy.address, timeout=5) as sock:
                        sock.sendall(b"ping")
                        outcomes.append(sock.recv(16) == b"ping")
            upstream.close()
            return outcomes

        assert run(42) == run(42)
        assert run(42) != run(43)  # and the seed actually matters


class TestSelfHealingThroughChaos:
    def test_client_survives_injected_drops(self, server):
        host, port = server.address
        genesis = server.initial_root_digest()
        config = ChaosConfig(drop_rate=0.25, immune_chunks=0)
        with ChaosProxy(host, port, seed=11, config=config) as proxy:
            phost, pport = proxy.address
            with RemoteClient(phost, pport, "alice", genesis, order=4,
                              retry=RetryPolicy(attempts=30, base=0.005,
                                                cap=0.05, seed=5)) as alice:
                for i in range(30):
                    alice.put(f"k{i % 4}".encode(), f"v{i}".encode())
                assert alice.operations == 30
                assert sync_check(genesis, {"alice": alice.registers()})
            assert proxy.faults["drops"] >= 1  # chaos actually happened
        # exactly-once despite every retry
        assert server.consistent_view()[1] == 30

    def test_client_survives_connection_resets(self, server):
        """ECONNRESET mid-exchange is just another transport failure:
        the client reconnects, resends verbatim, and the dedup table
        keeps every acknowledged write exactly-once."""
        host, port = server.address
        genesis = server.initial_root_digest()
        config = ChaosConfig(reset_rate=0.2, immune_chunks=0)
        with ChaosProxy(host, port, seed=17, config=config) as proxy:
            phost, pport = proxy.address
            with RemoteClient(phost, pport, "alice", genesis, order=4,
                              retry=RetryPolicy(attempts=30, base=0.005,
                                                cap=0.05, seed=7)) as alice:
                for i in range(20):
                    alice.put(f"k{i % 3}".encode(), f"v{i}".encode())
                assert alice.gctr == 20
                assert sync_check(genesis, {"alice": alice.registers()})
            assert proxy.faults["resets"] >= 1
        assert server.consistent_view()[1] == 20

    def test_client_survives_truncated_frames(self, server):
        """A truncated frame waits in the server's inbox mid-message;
        the severed connection must not wedge the server's pass or duplicate
        the retried op."""
        host, port = server.address
        genesis = server.initial_root_digest()
        config = ChaosConfig(truncate_rate=0.2, immune_chunks=0)
        with ChaosProxy(host, port, seed=29, config=config) as proxy:
            phost, pport = proxy.address
            with RemoteClient(phost, pport, "alice", genesis, order=4,
                              retry=RetryPolicy(attempts=30, base=0.005,
                                                cap=0.05, seed=6)) as alice:
                for i in range(20):
                    alice.put(f"k{i % 3}".encode(), f"v{i}".encode())
                assert alice.gctr == 20
            assert proxy.faults["truncations"] >= 1
        assert server.consistent_view()[1] == 20


    def test_combined_resets_and_truncations(self, server):
        """Both fault classes at once, plus two interleaved users."""
        host, port = server.address
        genesis = server.initial_root_digest()
        config = ChaosConfig(reset_rate=0.1, truncate_rate=0.1,
                             immune_chunks=0)
        with ChaosProxy(host, port, seed=53, config=config) as proxy:
            phost, pport = proxy.address
            with RemoteClient(phost, pport, "alice", genesis, order=4,
                              retry=RetryPolicy(attempts=40, base=0.005,
                                                cap=0.05, seed=2)) as alice, \
                 RemoteClient(phost, pport, "bob", genesis, order=4,
                              retry=RetryPolicy(attempts=40, base=0.005,
                                                cap=0.05, seed=3)) as bob:
                for i in range(10):
                    alice.put(f"a{i % 3}".encode(), f"v{i}".encode())
                    bob.put(f"b{i % 3}".encode(), f"v{i}".encode())
                registers = {"alice": alice.registers(),
                             "bob": bob.registers()}
                assert sync_check(genesis, registers)
            assert (proxy.faults["resets"] + proxy.faults["truncations"]) >= 1
        assert server.consistent_view()[1] == 20


class TestProxiedProtocol1:
    """A proxy leg with Nagle on re-creates, between client and server,
    the write-write-read stall their own sockets avoid."""

    @pytest.fixture
    def p1_server(self, shared_keys):
        from repro.mtree.database import VerifiedDatabase
        from repro.protocols.base import ServerState
        from repro.protocols.protocol1 import (
            Protocol1Server, bootstrap_server_state)

        state = ServerState(database=VerifiedDatabase(order=4))
        bootstrap_server_state(state, shared_keys.signers["alice"])
        srv = serve_in_thread(protocol=Protocol1Server(), state=state)
        yield srv
        srv.stop()

    def test_both_legs_are_no_delay(self, server):
        from repro.net.chaosproxy import _Pump

        host, port = server.address
        with ChaosProxy(host, port) as proxy:
            with RemoteClient(*proxy.address, "alice",
                              server.initial_root_digest(), order=4) as alice:
                alice.put(b"k", b"v")
                legs = {sock for pump in threading.enumerate()
                        if isinstance(pump, _Pump) and pump._proxy is proxy
                        for sock in (pump._source, pump._sink)}
                assert len(legs) == 2
                for sock in legs:
                    assert sock.getsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_NODELAY) == 1

    def test_a_turn_of_eight_through_a_fault_free_proxy(self, p1_server,
                                                        shared_keys):
        """Seven of the eight operations write a follow-up and then a
        request with no read between; at 40 ms of delayed ACK each that
        is 280 ms on either leg.  Fastest of three turns, so that a
        busy host does not fail it."""
        import time

        from repro.net import RemoteClientP1, count_sync_check

        host, port = p1_server.address
        turns = []
        with ChaosProxy(host, port) as proxy:
            with RemoteClientP1(*proxy.address, "alice",
                                shared_keys.signers["alice"],
                                shared_keys.verifier, order=4) as alice:
                alice.put(b"warm", b"up")
                for turn in range(3):
                    started = time.perf_counter()
                    for i in range(8):
                        alice.put(b"k%d" % (i % 3), b"v%d.%d" % (turn, i))
                    turns.append(time.perf_counter() - started)
                assert alice.get(b"k1") == b"v2.7"
                assert count_sync_check({"alice": alice.counts()})
            assert proxy.faults["connections"] == 1
        assert min(turns) < 0.2, turns
