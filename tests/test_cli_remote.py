"""Tests for the CLI's remote (TCP) mode and the serve machinery."""

import io
import os
import tempfile

import pytest

from repro.cli import RemoteServerAdapter, main
from repro.mtree.database import VerifiedDatabase, WriteQuery
from repro.mtree.persistence import dump_database, load_database
from repro.net import serve_in_thread


def run(argv, expect=0):
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == expect, out.getvalue()
    return out.getvalue()


@pytest.fixture
def remote_server():
    database = VerifiedDatabase(order=8)
    server = serve_in_thread(database=database)
    yield server
    server.stop()


@pytest.fixture
def client_dir(tmp_path):
    d = tmp_path / "clientdir"
    d.mkdir()
    return str(d)


def commit_remote(client_dir, remote, path, content, author="alice"):
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as handle:
        handle.write(content)
        name = handle.name
    try:
        return run(["-R", client_dir, "-a", author, "--remote", remote,
                    "commit", path, "-m", "msg", "--file", name])
    finally:
        os.unlink(name)


class TestRemoteMode:
    def test_commit_and_checkout_over_tcp(self, remote_server, client_dir):
        host, port = remote_server.address
        remote = f"{host}:{port}"
        text = commit_remote(client_dir, remote, "src/a.c", "hello tcp\n")
        assert "committed src/a.c 1.1" in text
        out = run(["-R", client_dir, "-a", "alice", "--remote", remote, "checkout", "src/a.c"])
        assert out == "hello tcp\n"

    def test_trust_anchor_per_remote(self, remote_server, client_dir):
        host, port = remote_server.address
        remote = f"{host}:{port}"
        commit_remote(client_dir, remote, "f.txt", "x\n", author="alice")
        anchor = os.path.join(client_dir, "trust",
                              f"alice@{host}_{port}.digest")
        assert os.path.isfile(anchor)

    def test_stale_anchor_detects_hidden_history(self, remote_server, client_dir):
        """Someone else advances the server while our anchor is stale:
        our next verified read must refuse (this is the single-user
        limitation the multi-user protocols solve)."""
        host, port = remote_server.address
        remote = f"{host}:{port}"
        commit_remote(client_dir, remote, "f.txt", "mine\n", author="alice")
        # another client (no shared anchor) writes directly
        remote_server.with_core(lambda core: core.state.database.execute(
            WriteQuery(b"\x01unseen", b"sneaky")))
        text = run(["-R", client_dir, "-a", "alice", "--remote", remote,
                    "checkout", "f.txt"], expect=3)
        assert "INTEGRITY VIOLATION" in text

    def test_bad_remote_spec(self, client_dir):
        text = run(["-R", client_dir, "--remote", "nonsense", "ls"], expect=2)
        assert "HOST:PORT" in text

    def test_unreachable_remote(self, client_dir):
        text = run(["-R", client_dir, "--remote", "127.0.0.1:1", "ls"], expect=2)
        assert "cannot reach" in text


class TestRemoteAdapter:
    def test_root_digest_probe_matches_server(self, remote_server):
        host, port = remote_server.address
        adapter = RemoteServerAdapter(host, port)
        try:
            assert adapter.root_digest() == remote_server.initial_root_digest()
        finally:
            adapter.close()


class TestServeRoundtrip:
    def test_served_repository_persists(self, tmp_path):
        """The serve machinery end to end: init a repo on disk, host its
        database, mutate over TCP, persist, reload -- the snapshot holds
        the remote commits and reloads to the same root."""
        repo = str(tmp_path / "repo")
        run(["init", repo])
        with open(os.path.join(repo, "db.snapshot"), "rb") as handle:
            database = load_database(handle.read())
        server = serve_in_thread(database=database)
        try:
            host, port = server.address
            client_dir = str(tmp_path / "client")
            os.makedirs(client_dir)
            commit_remote(client_dir, f"{host}:{port}", "f.txt", "persist me\n")
            snapshot = server.with_core(
                lambda core: dump_database(core.state.database))
        finally:
            server.stop()
        with open(os.path.join(repo, "db.snapshot"), "wb") as handle:
            handle.write(snapshot)
        # local mode now sees the remote commit, fully verified
        out = run(["-R", repo, "checkout", "f.txt"])
        assert out == "persist me\n"
