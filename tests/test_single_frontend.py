"""One server front-end: what having only the event loop newly exposes.

Every wire test, crash test and attack gallery now runs against the one
server, so these pin the seams the second front-end used to cover: the
frozen benchmark's second name for the one ``serve`` function, the
options that are gone, ``apply_request`` as the one-entry batch, the
listening port across a crash-restart, the on-loop accessor the
stale-state forks are built from, and the one server object: the loop
over a built core, which alone sets the defer-followup marker.
"""

import importlib
import os
import subprocess
import sys

import pytest

from helpers import swap_state
from repro import net
from repro.cli import main as cli_main
from repro.mtree.database import ReadQuery, VerifiedDatabase, WriteQuery
from repro.net import RemoteClient, RetryPolicy, ServerCore, sync_check
from repro.net.wal import open_server_store
from repro.protocols.base import Request

ROOT = os.path.join(os.path.dirname(__file__), "..")


class TestOneServeFunction:
    def test_both_names_are_one_function(self):
        assert net.serve_in_thread is net.serve_async_in_thread
        assert net.serve_in_thread is net.aserver.serve_in_thread

    def test_there_is_no_second_front_end_to_import(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.net.server")
        assert not hasattr(net, "TrustedCvsTcpServer")

    @pytest.mark.parametrize("option", [["--async"], ["--workers", "4"]])
    def test_serve_rejects_the_removed_options(self, tmp_path, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["-R", str(tmp_path), "serve", *option])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_function_has_no_worker_pool_argument(self):
        with pytest.raises(TypeError):
            net.serve_in_thread(order=4, max_workers=2)


def _request(key, value, seq):
    query = ReadQuery(key) if value is None else WriteQuery(key, value)
    return Request(query=query, extras={"user": "alice",
                                        "rid": f"alice:t:{seq}"})


class TestApplyRequestIsTheOneEntryBatch:
    def _cores(self, tmp_path):
        return [ServerCore(order=4, data_dir=str(tmp_path / name),
                           snapshot_every=3, fsync=False)
                for name in ("single", "batch")]

    def test_same_responses_log_and_snapshot_counter(self, tmp_path):
        single, batch = self._cores(tmp_path)
        steps = [(b"k0", b"v0", 0), (b"k1", b"v1", 1),
                 (b"k0", b"v0", 0),          # a retry: the dedup hit
                 (b"k0", None, 2),           # the third logged record
                 (b"k2", b"v2", 3)]
        for key, value, seq in steps:
            one = single.apply_request("alice", _request(key, value, seq))
            (other,) = batch.apply_batch([("alice", _request(key, value, seq))])
            assert one == other
            assert single._ops_since_snapshot == batch._ops_since_snapshot
            assert single.round == batch.round
        # four distinct requests at snapshot_every=3: one snapshot, then
        # one record in the log; the retry was neither logged nor counted
        assert single._ops_since_snapshot == 1
        assert single.state.ctr == batch.state.ctr == 4
        assert (single.state.database.root_digest()
                == batch.state.database.root_digest())
        logs = []
        for core, name in ((single, "single"), (batch, "batch")):
            core.close_store()
            store = open_server_store(str(tmp_path / name))
            *_, chain = store.load_snapshot()
            logs.append(store.wal_records(chain))
            store.close()
        assert logs[0] == logs[1] and len(logs[0]) == 1

    def test_a_dedup_hit_is_the_recorded_response_itself(self, tmp_path):
        single, _ = self._cores(tmp_path)
        first = single.apply_request("alice", _request(b"k", b"v", 0))
        again = single.apply_request("alice", _request(b"k", b"v", 0))
        assert again is first and single.state.ctr == 1


class TestRestartOnTheSamePort:
    def test_clients_holding_sessions_resume_on_the_restarted_server(
            self, tmp_path):
        """The crash tests restart on the port the clients know while
        their old connections are still in the kernel's tables."""
        data_dir = str(tmp_path / "server")
        server = net.serve_in_thread(order=4, data_dir=data_dir)
        host, port = server.address
        genesis = server.initial_root_digest()
        clients = [RemoteClient(host, port, user, genesis, order=4,
                                retry=RetryPolicy(attempts=20, base=0.01,
                                                  cap=0.1, seed=index))
                   for index, user in enumerate(("alice", "bob"))]
        try:
            for round_no in range(3):
                for client in clients:
                    client.put(b"k-" + client.user_id.encode(),
                               b"v%d" % round_no)
                server.stop()  # sessions still open
                server = net.serve_in_thread(order=4, data_dir=data_dir,
                                             port=port)
                assert server.address == (host, port)
            assert clients[0].get(b"k-bob") == b"v2"
            assert sync_check(genesis, {client.user_id: client.registers()
                                        for client in clients})
            assert server.consistent_view()[1] == 7
        finally:
            for client in clients:
                client.close()
            server.stop()


class TestCrashStopSeversEveryConnection:
    def test_a_connection_accepted_a_moment_ago_is_not_left_silent(self):
        """``stop()`` right after a connect: the loop has accept()ed the
        socket but no handler holds it yet.  Its peer must still see the
        connection end (the crash tests' clients wait on exactly this),
        not sit out its own timer."""
        import socket

        for _trial in range(20):
            server = net.serve_in_thread(order=4)
            peers = [socket.create_connection(server.address, timeout=5.0)
                     for _ in range(2)]
            server.stop()
            for peer in peers:
                try:
                    assert peer.recv(16) == b""     # FIN ...
                except ConnectionError:
                    pass                            # ... or RST
                peer.close()


class TestOnLoopAccessor:
    def test_swaps_the_served_state_between_two_operations(self):
        server = net.serve_in_thread(order=4)
        try:
            host, port = server.address
            genesis = server.initial_root_digest()
            with RemoteClient(host, port, "alice", genesis, order=4) as alice:
                alice.put(b"k", b"v1")
                stale = server.with_core(lambda core: core.state.clone())
                alice.put(b"k", b"v2")
                live = swap_state(server, stale)
                assert server.core.state is stale
                with RemoteClient(host, port, "bob", genesis, order=4) as bob:
                    assert bob.get(b"k") == b"v1"      # the stale branch
                assert swap_state(server, live) is stale
                assert alice.get(b"k") == b"v2"
        finally:
            server.stop()

    def test_runs_on_the_loop_thread_and_returns_the_result(self):
        import threading

        server = net.serve_in_thread(order=4)
        try:
            ran_on = server.with_core(
                lambda core: (threading.current_thread().name, core.round))
            assert ran_on == ("trusted-cvs-aserver", 0)
            with pytest.raises(ZeroDivisionError):
                server.with_core(lambda core: 1 // 0)
            assert server.with_core(lambda core: core.state.ctr) == 0
        finally:
            server.stop()


class TestNetworkedExample:
    def test_networked_team_still_runs(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "examples",
                                          "networked_team.py")],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "registers: CONSISTENT" in done.stdout
        assert "FORKED -- server busted" in done.stdout


class TestTheServerLoadsOnlyTheServer:
    """The package ``__init__``s resolve their exports on first use, so
    a server process imports the server, not the simulator, the
    analysis helpers or the in-process facade."""

    def test_no_simulation_analysis_or_core_in_a_server_process(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        code = ("import repro.net.aserver, repro.net.wal, sys; "
                "print(' '.join(sorted(name for name in sys.modules if "
                "name.split('.')[:2] in (['repro', 'simulation'], "
                "['repro', 'analysis'], ['repro', 'core'])))); "
                "import repro.net; print(repro.net.ServerCore.__module__)")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n") == ["", "repro.net.core", ""]

    def test_every_exported_name_resolves(self):
        for package in ("repro", "repro.net", "repro.protocols",
                        "repro.mtree", "repro.storage", "repro.crypto",
                        "repro.server", "repro.simulation", "repro.core",
                        "repro.analysis"):
            module = importlib.import_module(package)
            for name in module.__all__:
                assert getattr(module, name) is not None, (package, name)
            assert set(module.__all__) <= set(dir(module))
            with pytest.raises(AttributeError):
                module.no_such_name  # noqa: B018


class TestOneServerObject:
    """The event loop is built over a :class:`ServerCore` and configures
    only the front-end; the core's options are declared once, by the
    core, and every page store reads through one committed index."""

    def test_the_front_end_takes_a_built_core(self):
        import inspect

        from repro.net.aserver import AsyncTrustedCvsServer

        assert list(inspect.signature(AsyncTrustedCvsServer).parameters) \
            == ["core", "host", "port", "block_timeout", "batch_max"]
        for method in (AsyncTrustedCvsServer.stop,
                       AsyncTrustedCvsServer.shutdown):
            assert "snapshot" not in inspect.signature(method).parameters
        assert "endpoints" not in inspect.signature(RemoteClient).parameters

    def test_serve_in_thread_passes_the_core_its_keywords(self, tmp_path):
        from repro.storage.pagestore import SqlitePageStore

        server = net.serve_in_thread(
            shards=2, backend="sqlite", data_dir=str(tmp_path / "server"),
            snapshot_every=8, fsync=False)
        try:
            core = server.core
            assert core.state.database.shards == 2
            assert core.store.backend == "sqlite"
            assert isinstance(core.store.pages, SqlitePageStore)
            assert core.store.data_dir == str(tmp_path / "server")
            assert core.snapshot_every == 8
            assert core.store.fsync is False
        finally:
            server.stop()

    def test_the_page_file_adds_only_the_file(self):
        from repro.storage.pagestore import FilePageStore, MemoryPageStore

        assert issubclass(FilePageStore, MemoryPageStore)
        own = set(vars(FilePageStore))
        for name in ("read_pages", "read_page", "read_many", "page_count",
                     "page_bytes", "page_keys", "generations", "get_meta",
                     "write_page", "put_meta", "_apply"):
            assert name not in own, name


class TestTheDeferMarkerIsTheCoresToSet:
    def test_a_client_set_marker_is_ignored_in_process(self, shared_keys):
        """A Protocol I request handed to ``apply_batch`` with the
        defer-followup marker already set is answered as the batch's
        final request: the client must sign, and the state blocks."""
        from repro.protocols.base import ServerState
        from repro.protocols.protocol1 import (
            BATCH_FINAL_KEY,
            DEFER_FOLLOWUP_KEY,
            Protocol1Server,
            bootstrap_server_state,
        )

        state = ServerState(database=VerifiedDatabase(order=4))
        bootstrap_server_state(state, shared_keys.signers["alice"])
        core = ServerCore(order=4, protocol=Protocol1Server(), state=state)
        request = Request(query=WriteQuery(b"k", b"v"),
                          extras={"user": "alice", "rid": "alice:t:0",
                                  DEFER_FOLLOWUP_KEY: True})
        (response,) = core.apply_batch([("alice", request)])
        assert response.extras[BATCH_FINAL_KEY] is True
        assert core.blocked_for("bob")
        assert not core.all_unblocked()
