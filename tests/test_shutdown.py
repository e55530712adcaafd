"""Graceful shutdown: quiesce, flush, final snapshot.

``graceful_stop`` is the operator path: unlike the crash-equivalent
``stop()`` it drains in-flight work, flushes any attached
replicator, fsyncs the WAL and writes a final snapshot, so the next
start replays zero records.  ``repro serve`` routes SIGTERM/SIGINT
through it (tested against a real subprocess).
"""

import os
import shutil
import signal
import socket
import subprocess
import sys
import time

from repro.net import (
    RemoteClient,
    Replicator,
    WitnessProtocol,
    make_replica_keys,
    serve_in_thread,
)
from repro.net.replication import META_DEPOSITS, witness_name

ORDER = 4
KEYS = make_replica_keys(1, 77)

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def _run_ops(server, n=5):
    host, port = server.address
    with RemoteClient(host, port, "alice", server.initial_root_digest(),
                      order=ORDER) as alice:
        for i in range(n):
            alice.put(b"k%d" % i, b"v%d" % i)


class TestGracefulStopAsync:
    def test_flushes_replicator_before_stopping(self, tmp_path):
        witness = serve_in_thread(
            order=ORDER, protocol=WitnessProtocol(
                witness_name(0), KEYS.witnesses[0], KEYS.verifier))
        replicator = Replicator(KEYS.primary, witnesses=[witness.address])
        server = serve_in_thread(order=ORDER, replicator=replicator)
        try:
            _run_ops(server)
            assert server.graceful_stop()
            banked = witness.with_core(
                lambda core: sorted(core.state.meta[META_DEPOSITS]))
            assert banked == [1, 2, 3, 4, 5]
        finally:
            witness.stop()

    def test_final_snapshot_means_zero_replay(self, tmp_path):
        data_dir = str(tmp_path / "server")
        handle = serve_in_thread(order=ORDER, data_dir=data_dir,
                                 snapshot_every=10_000)
        _run_ops(handle)
        root = handle.with_core(lambda core: core.state.database.root_digest())
        assert handle.graceful_stop()

        restarted = serve_in_thread(order=ORDER, data_dir=data_dir,
                                    snapshot_every=10_000)
        try:
            assert restarted.replayed_records == 0  # snapshot caught up
            view = restarted.with_core(
                lambda core: (core.state.ctr,
                              core.state.database.root_digest()))
            assert view == (5, root)
        finally:
            restarted.stop()


class TestServeCommandSignals:
    def _wait_for_port(self, port, deadline=15.0):
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            try:
                with socket.create_connection(("127.0.0.1", port),
                                              timeout=1.0):
                    return
            except OSError:
                time.sleep(0.05)
        raise AssertionError(f"server never listened on {port}")

    def _free_port(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def _serve_and_commit(self, tmp_path):
        """Init ``REPO``, serve it in a subprocess, and commit one file
        over TCP from another directory; returns the server process and
        what the local verbs need."""
        repo = str(tmp_path / "repo")
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        assert subprocess.run(
            [sys.executable, "-m", "repro", "init", repo],
            env=env, capture_output=True).returncode == 0
        port = self._free_port()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "-R", repo, "serve",
             "-p", str(port)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        try:
            self._wait_for_port(port)
            commit = subprocess.run(
                [sys.executable, "-m", "repro", "-R", str(tmp_path / "ws"),
                 "--remote", f"127.0.0.1:{port}", "-a", "ana",
                 "commit", "hello.txt", "-m", "hi"],
                env=env, input="hello graceful world\n",
                capture_output=True, text=True)
            assert commit.returncode == 0, commit.stdout + commit.stderr
        except BaseException:
            proc.kill()
            proc.communicate(timeout=30)
            raise
        # The remote author hands their anchor in: REPO/trust/ is the
        # channel local mode's sync check reads.
        anchor = f"ana@127.0.0.1_{port}.anchor"
        os.makedirs(os.path.join(repo, "trust"), exist_ok=True)
        shutil.copy(os.path.join(tmp_path, "ws", "trust", anchor),
                    os.path.join(repo, "trust", anchor))
        return proc, repo, env

    def _local(self, repo, env, *verb):
        return subprocess.run(
            [sys.executable, "-m", "repro", "-R", repo, "-a", "reader", *verb],
            env=env, capture_output=True, text=True)

    def test_sigterm_persists_and_exits_cleanly(self, tmp_path):
        """``repro serve`` under SIGTERM: graceful shutdown, final
        checkpoint, and a local ``log`` in the repository reads the
        commit off the store the server ran on."""
        proc, repo, env = self._serve_and_commit(tmp_path)
        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, output
        assert "persisted and stopped" in output

        log = self._local(repo, env, "log", "hello.txt")
        assert log.returncode == 0, log.stdout + log.stderr
        assert "hi" in log.stdout

    def test_sigkill_loses_no_acked_commit(self, tmp_path):
        """A server killed outright never stops gracefully: the acked
        commit is in its WAL, and the next local command replays it --
        no stale read of a copy the server never wrote back."""
        proc, repo, env = self._serve_and_commit(tmp_path)
        proc.kill()
        proc.communicate(timeout=30)

        ls = self._local(repo, env, "ls")
        assert ls.returncode == 0, ls.stdout + ls.stderr
        assert ls.stdout == "hello.txt\n"
