"""Tests for the CLI's remote (TCP) mode and the serve machinery.

``repro --remote`` runs every CVS verb on a Protocol II session
(:class:`~repro.net.client.RemoteClient`), one process -- here one
``main()`` call -- per command, resumed from the author's anchor file
every time.  The paper's promise is what is tested: several honest
authors never alarm, a deviating server is exit 3 with a bundle that
re-verifies offline, and a flaky link is exit 2, never a verdict.
"""

import io
import os
import re
import shutil
import socket
import struct
import threading

import pytest

from repro.cli import main
from repro.crypto.hashing import hash_bytes
from repro.mtree.database import VerifiedDatabase
from repro.net import (
    ChaosConfig, ChaosProxy, RemoteClient, evidence, serve_in_thread)
from repro.protocols.base import DeviationDetected
from repro.protocols.protocol2 import XorRegisters
from repro.server.attacks import CounterReplayAttack, TamperValueAttack
from repro.wire import decode


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


def remote_of(server_or_proxy):
    return "%s:%d" % server_or_proxy.address


def cvs(client_dir, remote, author, *command, expect=0):
    return run(["-R", client_dir, "-a", author, "--remote", remote, *command],
               expect=expect)


def commit_remote(client_dir, remote, path, content, author="alice",
                  verb=("commit",)):
    source = os.path.join(client_dir, "content.txt")
    with open(source, "w") as handle:
        handle.write(content)
    return cvs(client_dir, remote, author, *verb, path, "-m", "msg",
               "--file", source)


def anchors(client_dir):
    trust = os.path.join(client_dir, "trust")
    return sorted(os.path.join(trust, name) for name in os.listdir(trust)
                  if name.endswith(".anchor"))


def sync(genesis, paths, expect=0):
    return run(["sync", genesis.hex(), *paths], expect=expect)


def inspect_bundle(text):
    """The bundle a command printed, re-verified offline (exit 0 =
    genuine); returns ``(path, evidence-inspect output)``."""
    path = re.search(r"evidence bundle: (\S+)", text).group(1)
    return path, run(["evidence-inspect", path])


class TestRemoteMode:
    def test_commit_and_checkout_over_tcp(self, remote_server, client_dir):
        remote = remote_of(remote_server)
        text = commit_remote(client_dir, remote, "src/a.c", "hello tcp\n")
        assert "committed src/a.c 1.1" in text
        assert cvs(client_dir, remote, "alice", "checkout", "src/a.c") == "hello tcp\n"

    def test_trust_anchor_per_remote(self, client_dir):
        server = serve_in_thread(order=8)
        try:
            host, port = server.address
            remote = remote_of(server)
            assert "sigma" not in cvs(client_dir, remote, "alice", "trust")
            commit_remote(client_dir, remote, "f.txt", "x\n", author="alice")
        finally:
            server.stop()
        anchor = os.path.join(client_dir, "trust", f"alice@{host}_{port}.anchor")
        with open(anchor) as handle:
            assert handle.readline() == "client-anchor 1\n"
        # `trust` reads the registers off the file: the server is gone
        text = cvs(client_dir, remote, "alice", "trust")
        assert anchor in text and re.search(r"initial_tag : 0{64}\n", text)
        assert re.search(r"sigma       : [0-9a-f]{64}\n", text)
        assert re.search(r"gctr        : 2\noperations  : 2\nseq         : 2\n"
                         r"nonce       : [0-9a-f]{8}\n", text)

    def test_three_authors_interleaved_never_alarm(self, remote_server, client_dir):
        """What the single tracked root could not do (the parent exits 3
        on the third command): alice, bob and carol take turns, every
        command a new process resuming its anchor, and nobody alarms."""
        remote = remote_of(remote_server)
        genesis = remote_server.initial_root_digest()
        authors = ("alice", "bob", "carol")
        commands = 0
        for turn in range(12):
            author = authors[turn % 3]
            path = f"src/f{turn % 4}.c"
            text = commit_remote(client_dir, remote, path,
                                 f"turn {turn} by {author}\n", author=author)
            assert re.search(rf"committed {path} 1\.{turn // 4 + 1}$", text.strip())
            reader = authors[(turn + 1) % 3]
            assert cvs(client_dir, remote, reader, "checkout", path) == \
                f"turn {turn} by {author}\n"
            listing = cvs(client_dir, remote, authors[(turn + 2) % 3], "ls", "src/")
            assert path in listing.split()
            commands += 3
        # a branch by bob, merged by carol, logged by alice
        assert "1.3.2" in cvs(client_dir, remote, "bob", "branch", "src/f0.c")
        commit_remote(client_dir, remote, "src/f0.c", "turn 8 by carol\nbranch line\n",
                      author="bob", verb=("bcommit", "-b", "1.3.2"))
        assert "merged 1.3.2" in cvs(client_dir, remote, "carol", "merge",
                                     "src/f0.c", "-b", "1.3.2")
        log = cvs(client_dir, remote, "alice", "log", "src/f0.c")
        assert [line.split()[0] for line in log.splitlines()] == \
            ["1.1", "1.2", "1.3", "1.4"]
        assert commands + 4 >= 30
        paths = anchors(client_dir)
        assert len(paths) == 3
        for path in paths:
            with open(path) as handle:
                assert handle.readline() == "client-anchor 1\n"
        text = sync(genesis, paths)
        assert text.startswith("CONSISTENT") and "alice, bob, carol" in text
        assert not [name for name in os.listdir(os.path.join(client_dir, "trust"))
                    if name.endswith(".evidence")]

    def test_stale_anchor_detects_hidden_history(self, remote_server, client_dir):
        """The operator serves bob a private branch (the fork of
        ``examples/networked_team.py``).  Every response verifies, so
        every command exits 0 -- a fork is invisible to one user; the
        register exchange is what detects it."""
        remote = remote_of(remote_server)
        genesis = remote_server.initial_root_digest()

        def swap_state(state):
            def swap(core):
                served, core.state = core.state, state
                return served
            return remote_server.with_core(swap)

        commit_remote(client_dir, remote, "f.txt", "v1\n", author="alice")
        assert cvs(client_dir, remote, "bob", "checkout", "f.txt") == "v1\n"
        assert sync(genesis, anchors(client_dir)).startswith("CONSISTENT")
        stale = remote_server.with_core(lambda core: core.state.clone())
        commit_remote(client_dir, remote, "f.txt", "v2 (alice)\n", author="alice")
        live = swap_state(stale)
        commit_remote(client_dir, remote, "f.txt", "v2 (bob's world)\n", author="bob")
        swap_state(live)
        assert cvs(client_dir, remote, "alice", "checkout", "f.txt") == "v2 (alice)\n"

        text = sync(genesis, anchors(client_dir), expect=3)
        assert text.startswith("FORKED")
        path, inspected = inspect_bundle(text)
        assert os.path.dirname(path) == os.path.join(client_dir, "trust")
        assert "GENUINE DEVIATION" in inspected and "kind     : sync" in inspected

    def test_sync_refuses_unusable_anchors_by_name(self, remote_server, client_dir,
                                                  tmp_path):
        """An input the predicate cannot be evaluated over is exit 2
        naming the file -- never folded into CONSISTENT or FORKED."""
        host, port = remote_server.address
        genesis = remote_server.initial_root_digest()
        commit_remote(client_dir, remote_of(remote_server), "f.txt", "x\n")
        mine, = anchors(client_dir)
        # sessions pinned to a genesis record its tag (the library's use,
        # and every anchor the parent commit wrote)
        pinned, elsewhere = str(tmp_path / "dave.anchor"), str(tmp_path / "erin.anchor")
        with RemoteClient(host, port, "dave", genesis, anchor_path=pinned) as dave:
            dave.put(b"k", b"v")
        with RemoteClient(host, port, "erin", hash_bytes(b"another repository"),
                          anchor_path=elsewhere) as erin:
            erin.get(b"k")
        assert sync(genesis, [mine, pinned]).startswith("CONSISTENT")
        text = sync(genesis, [mine, pinned, elsewhere], expect=2)
        assert elsewhere in text and "another genesis" in text
        text = sync(genesis, [mine, mine], expect=2)
        assert "two anchors of user 'alice'" in text
        corrupt = str(tmp_path / "corrupt.anchor")
        with open(mine) as source, open(corrupt, "w") as target:
            target.write(source.read().replace("sigma ", "sigma zz"))
        text = sync(genesis, [mine, corrupt], expect=2)
        assert corrupt in text and "corrupted or truncated" in text
        with pytest.raises(SystemExit):  # argparse: GENESIS is not a digest
            run(["sync", "not-hex", mine])

    def test_bad_remote_spec(self, client_dir):
        text = run(["-R", client_dir, "--remote", "nonsense", "ls"], expect=2)
        assert "HOST:PORT" in text

    def test_unreachable_remote(self, client_dir):
        text = run(["-R", client_dir, "--remote", "127.0.0.1:1", "ls"], expect=2)
        assert "cannot reach remote server 127.0.0.1:1" in text

    def test_anchor_corrupt_or_of_another_user(self, remote_server, client_dir):
        host, port = remote_server.address
        remote = remote_of(remote_server)
        commit_remote(client_dir, remote, "f.txt", "x\n", author="alice")
        mine, = anchors(client_dir)
        bobs = mine.replace("alice@", "bob@")
        os.link(mine, bobs)
        text = cvs(client_dir, remote, "bob", "ls", expect=2)
        assert bobs in text and "belongs to 'alice'" in text
        with open(mine, "w") as handle:
            handle.write("client-anchor 1\nuser alice\n")
        text = cvs(client_dir, remote, "alice", "ls", expect=3)
        assert "INTEGRITY VIOLATION" in text and "corrupted or truncated" in text


# -- a deviating server is exit 3 with a provable bundle -----------------------

ATTACKS = {
    "tampered-answer": (lambda: TamperValueAttack(victim="alice", tamper_round=5),
                        "verification object rejected"),
    "replayed-counter": (lambda: CounterReplayAttack(victim="alice", replay_round=5),
                         "operation counter regressed"),
}


@pytest.mark.parametrize("name", ATTACKS)
def test_deviation_is_exit_3_with_a_bundle(name, client_dir):
    make_attack, reason = ATTACKS[name]
    server = serve_in_thread(order=8, attack=make_attack())
    try:
        remote = remote_of(server)
        commit_remote(client_dir, remote, "f.txt", "the truth\n")
        text = None
        for _ in range(4):
            code_out = io.StringIO()
            if main(["-R", client_dir, "-a", "alice", "--remote", remote,
                     "checkout", "f.txt"], out=code_out) == 3:
                text = code_out.getvalue()
                break
            assert code_out.getvalue() == "the truth\n"
    finally:
        server.stop()
    assert text is not None and "INTEGRITY VIOLATION" in text and reason in text
    path, inspected = inspect_bundle(text)
    assert "GENUINE DEVIATION" in inspected
    # the reason the command printed is the one XorRegisters.step gives
    # on the recorded frames: the CLI holds no verification of its own
    bundle = evidence.read_bundle(path)
    state = XorRegisters("alice", 8)
    state.restore(bundle["client_state"])
    with pytest.raises(DeviationDetected) as caught:
        state.step(decode(bundle["request_frame"]).query,
                   decode(bundle["response_frame"]))
    assert caught.value.reason in text


# -- a flaky link is exit 2 or nothing, never a verdict ------------------------

def test_commands_complete_exactly_once_through_chaos(client_dir):
    """Twenty commands through resets and truncated frames: each rides
    the session's reconnect-and-resend, every commit is applied exactly
    once (the revision numbers are contiguous), nobody alarms."""
    server = serve_in_thread(order=8)
    genesis = server.initial_root_digest()
    config = ChaosConfig(reset_rate=0.12, truncate_rate=0.08)
    try:
        with ChaosProxy(*server.address, seed=22, config=config) as proxy:
            remote = remote_of(proxy)
            for turn in range(10):
                author = ("alice", "bob")[turn % 2]
                text = commit_remote(client_dir, remote, "f.txt", f"turn {turn}\n",
                                     author=author)
                assert text == f"committed f.txt 1.{turn + 1}\n"
                other = ("bob", "alice")[turn % 2]
                assert cvs(client_dir, remote, other, "checkout", "f.txt") == \
                    f"turn {turn}\n"
            assert proxy.faults["resets"] + proxy.faults["truncations"] > 0
        applied = server.consistent_view()[1]
    finally:
        server.stop()
    # 10 commits (a read and a write) and 10 checkouts, each exactly once
    assert applied == 30
    assert sync(genesis, anchors(client_dir)).startswith("CONSISTENT")


def test_garbled_frames_are_exit_2(client_dir):
    """A peer that answers every request with a frame that does not
    decode: out of retries, that is a liveness error naming the
    endpoint and the request id -- not a traceback, not exit 3."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)

    def garble():
        while True:
            try:
                conn, _peer = listener.accept()
            except OSError:
                return
            with conn:
                conn.settimeout(5)
                try:
                    conn.recv(65536)
                    conn.sendall(struct.pack(">I", 5) + b"\xff\xfe\x00ab")
                except OSError:
                    pass

    thread = threading.Thread(target=garble, daemon=True)
    thread.start()
    remote = "127.0.0.1:%d" % listener.getsockname()[1]
    try:
        text = cvs(client_dir, remote, "alice", "ls", expect=2)
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # close() alone leaves accept() blocked
        listener.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert remote in text and "still in flight from request id alice:" in text
    assert "INTEGRITY" not in text


class TestServerRestart:
    def test_durable_restart_is_accepted(self, tmp_path, client_dir):
        data_dir = str(tmp_path / "server")
        server = serve_in_thread(order=8, data_dir=data_dir, fsync=False)
        genesis = server.initial_root_digest()
        remote = remote_of(server)
        port = server.address[1]
        commit_remote(client_dir, remote, "f.txt", "before\n")
        server.stop()  # crash
        server = serve_in_thread(order=8, port=port, data_dir=data_dir, fsync=False)
        try:
            assert cvs(client_dir, remote, "alice", "checkout", "f.txt") == "before\n"
            commit_remote(client_dir, remote, "f.txt", "after\n", author="bob")
            assert sync(genesis, anchors(client_dir)).startswith("CONSISTENT")
        finally:
            server.stop()

    def test_in_memory_restart_is_refused(self, client_dir):
        """A server that forgot its counter presents a history the kept
        anchor has already moved past: correctly an alarm."""
        server = serve_in_thread(order=8)
        remote = remote_of(server)
        port = server.address[1]
        commit_remote(client_dir, remote, "f.txt", "before\n")
        database = server.with_core(lambda core: core.state.database)
        server.stop()
        server = serve_in_thread(port=port, database=database)
        try:
            text = cvs(client_dir, remote, "alice", "checkout", "f.txt", expect=3)
        finally:
            server.stop()
        assert "operation counter regressed" in text
        assert "GENUINE DEVIATION" in inspect_bundle(text)[1]


class TestServeRoundtrip:
    def test_served_repository_persists(self, tmp_path):
        """The serve machinery end to end: init a repo on disk, serve its
        store, mutate over TCP, stop -- local mode then reads the remote
        commit off the same store, fully verified once the remote
        author's anchor is handed in."""
        repo = str(tmp_path / "repo")
        run(["init", repo])
        server = serve_in_thread(data_dir=os.path.join(repo, "server"),
                                 lock=True)
        try:
            client_dir = str(tmp_path / "client")
            os.makedirs(client_dir)
            commit_remote(client_dir, remote_of(server), "f.txt", "persist me\n")
        finally:
            server.graceful_stop()
        for path in anchors(client_dir):
            shutil.copy(path, os.path.join(repo, "trust"))
        out = run(["-R", repo, "checkout", "f.txt"])
        assert out == "persist me\n"
        text = run(["-R", repo, "checkout", "ghost.c"], expect=2)
        assert "error" in text
