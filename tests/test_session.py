"""One verifying session: stop-and-wait is the window of one.

What the one exchange loop in ``repro.net.client`` owes every caller,
whichever window it runs at: a lost answer or a refusal is a liveness
event and never an accusation, a request id names one submitted
operation for good, and a refusal is the oldest in-flight operation's
answer."""

import importlib
import os
import socket
import threading
import time

import pytest

import repro.net
from repro import obs
from repro.mtree.database import ReadQuery
from repro.net import (
    IntegrityError,
    PipelinedRemoteClient,
    RemoteClient,
    RemoteClientP1,
    RetryPolicy,
    ServerBusyError,
    TransientNetworkError,
    serve_in_thread,
    sync_check,
)
from repro.net.framing import recv_message, send_message
from tests import test_net

_start_p1_server = test_net.TestProtocol1Blocking._start_server
_withhold_followup = (
    test_net.TestProtocol1Blocking._operate_withholding_followup)


@pytest.fixture
def server():
    srv = serve_in_thread(order=4)
    yield srv
    srv.stop()


@pytest.fixture
def lossy_relay(server):
    """A relay in front of ``server`` that forwards the first request it
    sees, lets the server execute it, swallows the answer and closes;
    every later connection is relayed faithfully."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    swallowed = []

    def handle(conn):
        upstream = socket.create_connection(server.address, timeout=5)
        try:
            while (request := recv_message(conn)) is not None:
                send_message(upstream, request)
                answer = recv_message(upstream)
                if not swallowed:
                    swallowed.append(answer)
                    return
                send_message(conn, answer)
        except OSError:
            pass
        finally:
            conn.close()
            upstream.close()

    def serve():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            threading.Thread(target=handle, args=(conn,), daemon=True).start()

    threading.Thread(target=serve, daemon=True).start()
    yield listener.getsockname()
    listener.close()


class TestALostAnswerIsNotAnAccusation:
    """The retry budget runs out after the server executed the
    operation.  The operation stays in flight under its request id; no
    second operation is ever given that id."""

    def _alice(self, server, relay, tmp_path):
        host, port = relay
        return RemoteClient(host, port, "alice", server.initial_root_digest(),
                            order=4, retry=RetryPolicy(attempts=1),
                            evidence_dir=str(tmp_path / "evidence"))

    def test_the_next_call_completes_it_exactly_once(
            self, server, lossy_relay, tmp_path):
        with self._alice(server, lossy_relay, tmp_path) as alice:
            with pytest.raises(TransientNetworkError):
                alice.put(b"k1", b"v1")
            assert alice.inflight == 1
            assert server.consistent_view()[1] == 1     # it was executed
            assert alice.drain() == [None]
            assert alice.inflight == 0 and alice.operations == 1
            assert server.consistent_view()[1] == 1     # and not again

    def test_a_different_operation_afterwards_verifies(
            self, server, lossy_relay, tmp_path):
        genesis = server.initial_root_digest()
        with self._alice(server, lossy_relay, tmp_path) as alice:
            with pytest.raises(TransientNetworkError) as lost:
                alice.put(b"k1", b"v1")
            assert not isinstance(lost.value, IntegrityError)
            alice.put(b"k2", b"v2")                     # a new request id
            assert alice.get(b"k1") == b"v1"
            assert alice.get(b"k2") == b"v2"
            assert alice.gctr == 4 and server.consistent_view()[1] == 4
            assert sync_check(genesis, {"alice": alice.registers()})
        assert not os.path.exists(str(tmp_path / "evidence"))


class TestARefusalAnswersTheOldestOperation:
    """Alice withholds her follow-up; the Protocol I server parks bob's
    window and refuses each request of it when the block times out."""

    @pytest.fixture
    def blocked(self, shared_keys, tmp_path):
        server = _start_p1_server(self, shared_keys, block_timeout=0.3)
        sock_a, followup = _withhold_followup(
            server, shared_keys.signers["alice"], b"k", b"v1")
        host, port = server.address
        bob = RemoteClientP1(host, port, "bob", shared_keys.signers["bob"],
                             shared_keys.verifier, order=4, window=4,
                             op_timeout=5.0,
                             evidence_dir=str(tmp_path / "evidence"))

        def catch_up():
            send_message(sock_a, followup)
            assert server.quiesce(timeout=5.0)

        yield bob, catch_up
        bob.close()
        sock_a.close()
        server.stop()
        assert not os.path.exists(str(tmp_path / "evidence"))

    def test_a_refused_window_empties_and_the_session_goes_on(self, blocked):
        bob, catch_up = blocked
        for _ in range(4):
            bob.submit(ReadQuery(b"k"))
        left = []
        for _ in range(4):
            with pytest.raises(ServerBusyError, match="follow-up"):
                bob.drain()
            left.append(bob.inflight)
        assert left == [3, 2, 1, 0]
        catch_up()
        started = time.monotonic()
        assert bob.get(b"k") == b"v1"
        assert time.monotonic() - started < 1.0         # op_timeout is 5 s

    def test_a_refilled_window_stays_aligned(self, blocked):
        bob, catch_up = blocked
        bob.submit(ReadQuery(b"k"))
        bob.submit(ReadQuery(b"k"))
        for remaining in (1, 0):
            with pytest.raises(ServerBusyError):
                bob.drain()
            assert bob.inflight == remaining
        catch_up()
        bob.submit(ReadQuery(b"k"))
        bob.submit(ReadQuery(b"absent"))
        assert bob.drain() == [b"v1", None]


class TestProtocol1StaysFailed:
    @pytest.mark.parametrize("window", [1, 8])
    def test_a_cut_connection_is_transient_and_never_replaced(
            self, shared_keys, window):
        server = _start_p1_server(self, shared_keys, block_timeout=5.0)
        obs.enable()
        try:
            host, port = server.address
            with RemoteClientP1(host, port, "alice",
                                shared_keys.signers["alice"],
                                shared_keys.verifier, order=4,
                                window=window) as alice:
                alice.put(b"k", b"v")
                alice._sock.shutdown(socket.SHUT_RDWR)
                for _ in range(2):
                    with pytest.raises(TransientNetworkError) as cut:
                        alice.get(b"k")
                    assert not isinstance(cut.value, IntegrityError)
            assert obs.registry.counter("net.reconnects").total() == 0
            assert server.consistent_view()[1] == 1
        finally:
            server.stop()


class TestOneClassPerProtocol:
    def test_a_refusal_is_a_liveness_failure(self):
        assert issubclass(ServerBusyError, TransientNetworkError)
        assert not issubclass(ServerBusyError, IntegrityError)

    def test_the_pipelined_name_is_a_default_window_and_nothing_else(
            self, server):
        assert issubclass(PipelinedRemoteClient, RemoteClient)
        assert not any(callable(member)
                       for member in vars(PipelinedRemoteClient).values())
        host, port = server.address
        genesis = server.initial_root_digest()
        with PipelinedRemoteClient(host, port, "alice", genesis) as alice, \
                RemoteClient(host, port, "bob", genesis) as bob:
            assert (alice.window, bob.window) == (16, 1)

    def test_the_pipeline_module_and_the_second_protocol1_class_are_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.net.pipeline")
        assert not hasattr(repro.net, "PipelinedRemoteClientP1")
        assert "PipelinedRemoteClientP1" not in repro.net.__all__
