"""Tests for the command-line client (trust anchors on disk).

A local verb runs the author's Protocol II session against the
repository's own server core, in process, and evaluates the sync
predicate over every anchor in ``REPO/trust/`` after each operation.
"""

import contextlib
import io
import os
import re
import shutil
import threading

import pytest

from repro.cli import Workspace, build_parser, cmd_serve, main


def run(argv, expect=0):
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == expect, out.getvalue()
    return out.getvalue()


@pytest.fixture
def repo(tmp_path):
    repo_dir = str(tmp_path / "repo")
    run(["init", repo_dir])
    return repo_dir


def commit(repo, path, content, message="", author="alice", tmp_dir="/tmp"):
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as handle:
        handle.write(content)
        name = handle.name
    try:
        return run(["-R", repo, "-a", author, "commit", path, "-m", message, "--file", name])
    finally:
        os.unlink(name)


class TestInit:
    def test_init_creates_repo(self, tmp_path):
        repo_dir = str(tmp_path / "new")
        text = run(["init", repo_dir])
        assert "initialised" in text
        assert os.path.isfile(os.path.join(repo_dir, "server", "pages.log"))
        sqlite_dir = str(tmp_path / "sqlite")
        assert "(sqlite store)" in run(["init", sqlite_dir, "--backend", "sqlite"])
        assert os.path.isfile(os.path.join(sqlite_dir, "server", "pages.db"))
        commit(sqlite_dir, "f.txt", "on sqlite\n")
        assert run(["-R", sqlite_dir, "checkout", "f.txt"]) == "on sqlite\n"

    def test_double_init_fails(self, repo):
        text = run(["init", repo], expect=2)
        assert "already exists" in text

    def test_commands_need_a_repo(self, tmp_path):
        text = run(["-R", str(tmp_path / "nowhere"), "ls"], expect=2)
        assert "not a repository" in text


class TestCommitCheckout:
    def test_roundtrip(self, repo):
        text = commit(repo, "src/main.c", "int main() {}\n", "first")
        assert "committed src/main.c 1.1" in text
        out = run(["-R", repo, "checkout", "src/main.c"])
        assert out == "int main() {}\n"

    def test_revisions(self, repo):
        commit(repo, "f.txt", "v1\n")
        commit(repo, "f.txt", "v1\nv2\n")
        assert run(["-R", repo, "checkout", "f.txt", "-r", "1.1"]) == "v1\n"
        assert run(["-R", repo, "checkout", "f.txt"]) == "v1\nv2\n"

    def test_log(self, repo):
        commit(repo, "f.txt", "a\n", "first", author="alice")
        commit(repo, "f.txt", "b\n", "second", author="bob")
        text = run(["-R", repo, "log", "f.txt"])
        assert "1.1" in text and "first" in text and "alice" in text
        assert "1.2" in text and "second" in text and "bob" in text

    def test_diff(self, repo):
        commit(repo, "f.txt", "old line\n")
        commit(repo, "f.txt", "new line\n")
        text = run(["-R", repo, "diff", "f.txt", "-r", "1.1"])
        assert "-old line" in text
        assert "+new line" in text

    def test_ls_and_remove(self, repo):
        commit(repo, "src/a.c", "x\n")
        commit(repo, "src/b.c", "y\n")
        commit(repo, "docs/r.md", "z\n")
        assert run(["-R", repo, "ls"]).splitlines() == ["docs/r.md", "src/a.c", "src/b.c"]
        assert run(["-R", repo, "ls", "src/"]).splitlines() == ["src/a.c", "src/b.c"]
        run(["-R", repo, "remove", "src/a.c", "-m", "gone"])
        assert run(["-R", repo, "ls", "src/"]).splitlines() == ["src/b.c"]

    def test_checkout_missing(self, repo):
        text = run(["-R", repo, "checkout", "ghost.c"], expect=2)
        assert "error" in text


class TestTrustAnchor:
    def test_trust_reporting(self, repo):
        commit(repo, "f.txt", "x\n")
        text = run(["-R", repo, "trust"])
        assert "in sync     : yes" in text

    def test_anchor_survives_sessions(self, repo):
        commit(repo, "f.txt", "session 1\n")
        # a fresh process (new Workspace) keeps verifying
        out = run(["-R", repo, "checkout", "f.txt"])
        assert out == "session 1\n"
        anchor = os.path.join(repo, "trust", "alice.anchor")
        assert open(anchor).readline() == "client-anchor 1\n"

    def test_offline_tampering_detected(self, repo, tmp_path):
        """Swap a doctored, well-formed repository in behind the
        client's back: the next command must refuse with an integrity
        violation."""
        commit(repo, "secret.txt", "the truth\n")
        run(["-R", repo, "checkout", "secret.txt"])  # anchor now set

        # the server operator swaps in a doctored repository
        doctored = str(tmp_path / "doctored")
        run(["init", doctored])
        commit(doctored, "secret.txt", "the lie\n", "tampered", author="mallory")
        shutil.rmtree(os.path.join(repo, "server"))
        shutil.copytree(os.path.join(doctored, "server"),
                        os.path.join(repo, "server"))

        text = run(["-R", repo, "checkout", "secret.txt"], expect=3)
        assert "INTEGRITY VIOLATION" in text

    def test_a_byte_flip_in_the_store_is_a_named_refusal(self, repo):
        """Rot is not a verdict on the server: the store refuses itself
        by name, exit 2."""
        commit(repo, "f.txt", "v1\n")
        pages = os.path.join(repo, "server", "pages.log")
        blob = bytearray(open(pages, "rb").read())
        blob[-3] ^= 0x40  # inside the last checkpoint's manifest
        open(pages, "wb").write(bytes(blob))
        text = run(["-R", repo, "checkout", "f.txt"], expect=2)
        assert "cannot be opened" in text

    def test_a_repair_that_cannot_commit_is_a_named_refusal(self, repo,
                                                            monkeypatch):
        """A rotted page of the last checkpoint is repaired on open by
        redoing that checkpoint; when the redo cannot commit either, the
        command refuses the store by name, exit 2 -- not a traceback."""
        from repro.net.core import ServerCore
        from repro.storage.pagestore import (
            FilePageStore, StorageError, page_checksum)

        commit(repo, "f.txt", "v1\n")
        data_dir = os.path.join(repo, "server")
        core = ServerCore(data_dir=data_dir)
        core.snapshot()  # the commit's pages, in the last checkpoint
        gen = int(core.store._manifest["gen"])
        shard, seq = max((shard, seq) for shard in range(core.state.database.spec.shards)
                         for g, seq in core.store.pages.page_keys("entries", shard)
                         if g == gen)
        page = core.store.pages.read_page("entries", shard, gen, seq)
        core.close_store()
        pages = os.path.join(data_dir, "pages.log")
        blob = bytearray(open(pages, "rb").read())
        checksum = page_checksum("entries", shard, gen, seq, page)
        blob[blob.rfind(checksum) + len(checksum) + len(page) // 2] ^= 0x10
        open(pages, "wb").write(bytes(blob))

        def refused(_store):
            raise StorageError("checkpoint commit failed: disk refused")

        monkeypatch.setattr(FilePageStore, "commit", refused)
        text = run(["-R", repo, "checkout", "f.txt"], expect=2)
        assert "cannot be opened" in text
        assert f"shard {shard} quarantined" in text
        assert f"redoing its checkpoint {gen} failed" in text
        monkeypatch.undo()
        assert run(["-R", repo, "checkout", "f.txt"]) == "v1\n"

    @pytest.mark.parametrize("crash", ["before-the-core", "after-the-core"])
    def test_a_crash_mid_operation_is_resumed(self, repo, crash, monkeypatch):
        """The anchor records the request before it reaches the core and
        drops it once the answer is absorbed.  A command that dies in
        between -- here once the core logged and executed the write, or
        before it saw it -- leaves the request on record: the next
        command looks it up in the dedup table, takes the answer of an
        executed one, drops one that never executed, and verifies."""
        from repro.mtree.database import WriteQuery
        from repro.net.core import ServerCore

        commit(repo, "f.txt", "v1\n")
        real = ServerCore.apply_batch

        def power_cut(core, batch):
            if isinstance(batch[0][1].query, WriteQuery):
                if crash == "after-the-core":
                    real(core, batch)
                raise KeyboardInterrupt("power cut")
            return real(core, batch)

        monkeypatch.setattr(ServerCore, "apply_batch", power_cut)
        with pytest.raises(KeyboardInterrupt):
            commit(repo, "f.txt", "v2\n")
        monkeypatch.undo()
        anchor = os.path.join(repo, "trust", "alice.anchor")
        assert "\npending " in open(anchor).read()
        genesis = run(["init", os.path.join(repo, "empty")]).split()[-1]
        assert "in flight" in run(["sync", genesis, anchor], expect=2)
        # another author's command settles alice's request first
        executed = crash == "after-the-core"
        assert run(["-R", repo, "-a", "bob", "checkout", "f.txt"]) \
            == ("v2\n" if executed else "v1\n")
        assert "pending" not in open(anchor).read()
        assert ("1.2" in run(["-R", repo, "-a", "alice", "log", "f.txt"])) \
            == executed

    def test_a_foreign_anchor_that_does_not_parse_is_refused_by_name(self, repo):
        """A bad file in trust/ is a local fault, exit 2 naming it: never
        a verdict on the repository."""
        commit(repo, "f.txt", "x\n")
        torn = os.path.join(repo, "trust", "mallory.anchor")
        with open(torn, "w") as handle:
            handle.write("client-anchor 1\nuser mallory\n")
        text = run(["-R", repo, "ls"], expect=2)
        assert torn in text and "corrupted or truncated" in text
        assert "INTEGRITY VIOLATION" not in text
        os.unlink(torn)
        assert run(["-R", repo, "ls"]) == "f.txt\n"

    def test_separate_authors_separate_anchors(self, repo):
        """Two local authors interleaving never alarm, and the anchors
        they leave in trust/ are the register exchange `repro sync`
        evaluates."""
        for author, content in (("alice", "a\n"), ("bob", "b\n"), ("alice", "c\n")):
            commit(repo, "f.txt", content, author=author)
        assert run(["-R", repo, "-a", "bob", "checkout", "f.txt"]) == "c\n"
        trust = os.path.join(repo, "trust")
        assert sorted(os.listdir(trust)) == ["alice.anchor", "bob.anchor"]
        genesis = run(["init", os.path.join(repo, "empty")]).split()[-1]
        text = run(["sync", genesis, os.path.join(trust, "alice.anchor"),
                    os.path.join(trust, "bob.anchor")])
        assert text.startswith("CONSISTENT: one serial history explains "
                               "the registers of alice, bob")

    def test_an_anchor_kept_elsewhere_fails_the_sync_check(self, repo, tmp_path):
        """An author whose anchor is not in trust/ leaves operations no
        anchor there explains: exit 3 with a sync bundle, until it is
        handed in."""
        commit(repo, "f.txt", "x\n", author="alice")
        elsewhere = str(tmp_path / "alice.anchor")
        shutil.move(os.path.join(repo, "trust", "alice.anchor"), elsewhere)
        text = run(["-R", repo, "-a", "bob", "ls"], expect=3)
        assert "no serial history explains the registers of bob" in text
        assert "sync.evidence" in text
        shutil.move(elsewhere, os.path.join(repo, "trust", "alice.anchor"))
        assert run(["-R", repo, "-a", "bob", "ls"]) == "f.txt\n"


@contextlib.contextmanager
def serving(repo):
    """``repro serve`` on ``repo`` in a thread: yields its ``HOST:PORT``
    and output, and stops it on exit."""
    args = build_parser().parse_args(["-R", repo, "serve", "-p", "0"])
    args.stop_event = threading.Event()
    out = io.StringIO()
    thread = threading.Thread(target=cmd_serve, args=(args, out))
    thread.start()
    try:
        for _ in range(200):
            if "serving" in out.getvalue():
                break
            threading.Event().wait(0.05)
        yield re.search(r" on (\S+:\d+),", out.getvalue()).group(1), out
    finally:
        args.stop_event.set()
        thread.join(timeout=30)
    assert "persisted and stopped" in out.getvalue()


def remote_commit(client_dir, remote, author, path, content):
    os.makedirs(client_dir, exist_ok=True)
    source = os.path.join(client_dir, "content.txt")
    with open(source, "w") as handle:
        handle.write(content)
    return run(["-R", client_dir, "--remote", remote, "-a", author,
                "commit", path, "-m", "remote", "--file", source])


def hand_in(client_dir, repo):
    """The anchors a remote author kept, copied into the repository's
    trust/ (the users' broadcast channel)."""
    trust = os.path.join(client_dir, "trust")
    for name in os.listdir(trust):
        if name.endswith(".anchor"):
            shutil.copy(os.path.join(trust, name), os.path.join(repo, "trust"))


class TestOneRepository:
    """``REPO/server/`` is the only copy of the repository: a local
    command opens it under the lock ``serve`` holds."""

    def test_local_commit_while_serving_is_refused(self, repo, tmp_path):
        commit(repo, "f.txt", "v1\n")
        with serving(repo):
            try:
                text = commit(repo, "f.txt", "v2\n", tmp_dir=str(tmp_path))
            except AssertionError as exc:
                text = str(exc)
        assert "cannot be opened" in text and "already locked" in text
        # nothing acked was lost, nothing accused
        assert run(["-R", repo, "checkout", "f.txt"]) == "v1\n"
        assert "1.1" in run(["-R", repo, "log", "f.txt"])

    def test_a_request_that_never_reached_the_core_is_never_run_late(
            self, repo, tmp_path, monkeypatch):
        """A command dies before its write reaches the core; the
        repository is then served and another author commits over TCP.
        The dead command's request is dropped when its author next runs
        a command, never executed over the remote commit."""
        from repro.mtree.database import WriteQuery
        from repro.net.core import ServerCore

        commit(repo, "f.txt", "v1\n")
        real = ServerCore.apply_batch

        def power_cut(core, batch):
            if isinstance(batch[0][1].query, WriteQuery):
                raise KeyboardInterrupt("power cut")
            return real(core, batch)

        monkeypatch.setattr(ServerCore, "apply_batch", power_cut)
        with pytest.raises(KeyboardInterrupt):
            commit(repo, "f.txt", "stale\n")
        monkeypatch.undo()
        client_dir = str(tmp_path / "bob")
        with serving(repo) as (remote, _out):
            assert "committed f.txt 1.2" in remote_commit(
                client_dir, remote, "bob", "f.txt", "by bob\n")
        hand_in(client_dir, repo)
        assert run(["-R", repo, "-a", "alice", "checkout", "f.txt"]) == "by bob\n"
        log = run(["-R", repo, "-a", "alice", "log", "f.txt"])
        assert "1.2  bob" in log and "1.3" not in log

    def test_one_author_local_and_remote(self, repo, tmp_path):
        """An author who works both locally and ``--remote`` holds two
        sessions, two anchors: once both are in trust/, local mode
        verifies."""
        commit(repo, "f.txt", "local\n")
        client_dir = str(tmp_path / "alice")
        with serving(repo) as (remote, _out):
            remote_commit(client_dir, remote, "alice", "f.txt", "remote\n")
        text = run(["-R", repo, "-a", "alice", "ls"], expect=3)
        assert "no serial history explains the registers of alice" in text
        hand_in(client_dir, repo)
        assert run(["-R", repo, "-a", "alice", "checkout", "f.txt"]) == "remote\n"
        commit(repo, "f.txt", "local again\n")
        assert run(["-R", repo, "-a", "bob", "log", "f.txt"]).count("alice") == 3

    def test_a_failed_checkpoint_loses_nothing(self, repo, monkeypatch):
        """A local command checkpoints the store every
        ``CHECKPOINT_EVERY`` operations; a full disk there is
        survivable: the WAL holds the command's operations."""
        from repro.net.core import ServerCore

        def full_disk(core):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.cli.CHECKPOINT_EVERY", 1)
        monkeypatch.setattr(ServerCore, "snapshot", full_disk)
        assert "committed f.txt 1.1" in commit(repo, "f.txt", "v1\n")
        monkeypatch.undo()
        assert run(["-R", repo, "checkout", "f.txt"]) == "v1\n"

    def test_two_local_commands_at_once(self, repo):
        with Workspace(repo, "alice"):
            text = run(["-R", repo, "-a", "bob", "ls"], expect=2)
        assert "already locked" in text
        assert run(["-R", repo, "-a", "bob", "ls"]) == ""

    @pytest.mark.parametrize("name", ["db.snapshot", "trust/alice.digest"])
    def test_an_older_repository_is_refused_by_name(self, repo, name):
        with open(os.path.join(repo, name), "w") as handle:
            handle.write("from an older build\n")
        text = run(["-R", repo, "ls"], expect=2)
        assert name.split("/")[-1] in text and "does not read" in text


class TestObsReport:
    def test_text_report_reconciles(self):
        text = run(["obs-report", "--users", "3", "--ops", "4"])
        assert "protocol.ops_verified" in text
        assert "reconciliation" in text
        assert "MISMATCH" not in text

    def test_json_report(self):
        import json

        text = run(["obs-report", "--users", "3", "--ops", "4", "--json"])
        snap = json.loads(text)
        assert snap["reconciliation_ok"] is True
        assert all(check["ok"] for check in snap["reconciliation"].values())


class TestEvidenceInspect:
    def test_forged_equivocation_does_not_convict_the_primary(self, tmp_path):
        """A witness pairs the primary's deposit with one it signed itself
        at the same counter: no evidence against the primary."""
        from repro.crypto.hashing import hash_bytes
        from repro.net import attest, evidence, make_deposit, make_replica_keys
        from repro.wire import encode

        keys = make_replica_keys(2, 91)
        genuine = make_deposit(keys.primary, 1, hash_bytes(b"served"))
        forged = make_deposit(keys.witnesses[0], 1, hash_bytes(b"forged"))
        path = evidence.write_bundle(
            str(tmp_path / "forged.evidence"), evidence.replication_bundle(
                mode="primary-equivocation", deviant="primary", user_id="u",
                ctr=1, reason="forged", order=4,
                attestations=[encode(attest(keys.witnesses[1], genuine)),
                              encode(attest(keys.witnesses[0], forged))],
                verifier_keys=evidence.key_directory(keys.verifier)))
        text = run(["evidence-inspect", path], expect=1)
        assert "NOT evidence" in text


class TestStoreInspect:
    def test_paged_directory_after_two_checkpoints(self, tmp_path):
        from repro.mtree.database import WriteQuery
        from repro.net import ServerCore
        from repro.protocols.base import Request

        data_dir = str(tmp_path / "server")
        core = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                          fsync=False, shards=2, snapshot_every=10**9)

        def put(seq, key, value):
            core.apply_request("u", Request(
                query=WriteQuery(key, value),
                extras={"user": "u", "rid": f"u:{seq}"}))

        for i in range(60):
            put(i, b"k%03d" % i, b"one")
        core.snapshot()
        put(60, b"k000", b"two")  # one leaf of one shard
        core.snapshot()
        put(61, b"k001", b"three")  # the live log, wal.3.log
        manifest = core.store._manifest
        leaves, entries = [], []
        for index in range(2):
            tree = core.state.database.mtree.shard_tree(index)
            entries.append(len(tree))
            leaf = tree.search_path(b"")[-1]
            leaves.append(0)
            while leaf is not None:
                leaves[index] += 1
                leaf = leaf.next_leaf
        core.close_store()
        live = os.path.join(data_dir, "wal.3.log")
        logged = os.path.getsize(live)
        with open(live, "ab") as handle:
            handle.write(b"\x00\x00")  # a torn tail
        # a log no manifest names, as a crash in the middle of dropping
        # the unreferenced ones leaves it
        open(os.path.join(data_dir, "wal.0.log"), "wb").close()

        text = run(["store-inspect", data_dir])
        size = os.path.getsize(os.path.join(data_dir, "pages.db"))
        assert f"pages.db: {size} bytes" in text
        assert "checkpoint generation: 2" in text
        changed, = (r for r in manifest["shards"] if int(r["gen"]) == 2)
        other, = (r for r in manifest["shards"] if int(r["gen"]) == 1)
        lines = text.splitlines()
        at = lines.index(next(l for l in lines if l.startswith(
            f"shard {changed['shard']}: gen 2, prev gen 1")))
        # generation 2 wrote one value page (b"two"), one leaf page and
        # one nodes page; the shard still has all its entries and
        # leaves, most of them written at generation 1, and holds the
        # value and the leaf page they replaced until the next rewrite
        index = int(changed["shard"])
        assert lines[at + 1].startswith(
            f"  value pages: {entries[index]} live, {entries[index] + 1} "
            "held (")
        assert lines[at + 1].endswith("last checkpoint wrote 1 (3 bytes)")
        assert lines[at + 2].startswith(
            f"  leaf pages: {leaves[index]} live, {leaves[index] + 1} held (")
        assert "last checkpoint wrote 1 (" in lines[at + 2]
        assert lines[at + 3].startswith("  nodes stream: 1 page(s) (")
        assert "2 superseded awaiting the next rewrite" in lines[at + 3]
        assert f"next page id {changed['next_page']}" in lines[at + 3]
        assert leaves[index] > 5
        assert f"shard {other['shard']}: gen 1, prev gen 0" in text
        # each log by generation: the ones a shard's repair may need,
        # the live one, and one nothing references
        for gen in (1, 2):
            size_of = os.path.getsize(os.path.join(data_dir, f"wal.{gen}.log"))
            assert f"wal.{gen}.log: {size_of} bytes, retained segment" in lines
        assert f"wal.3.log: {logged + 2} bytes, live, 1 record(s) + 2 torn " \
            "tail byte(s)" in lines
        assert "wal.0.log: 0 bytes, unreferenced" in lines
        assert "bytes (cvs-paged-store 9)" in lines[lines.index(
            f"pages.db: {size} bytes") + 1]
        # 61 answers given, the window's worth remembered
        assert "user u: 61 remembered response(s), " in text

    def test_directory_of_another_format(self, tmp_path):
        import sqlite3

        from repro.net import ServerCore
        from repro.storage.pagestore import _meta_checksum
        from repro.wire import decode, encode

        data_dir = str(tmp_path / "server")
        ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                   fsync=False).close_store()
        conn = sqlite3.connect(os.path.join(data_dir, "pages.db"))
        (blob,) = conn.execute(
            "SELECT value FROM meta WHERE key='checkpoint'").fetchone()
        manifest = decode(bytes(blob))
        manifest["format"] = "cvs-paged-store 10"
        manifest["dedup"] = {"u": [0, 0, 3]}  # no table this build reads
        doctored = encode(manifest)  # a build of that format signs its row
        conn.execute("UPDATE meta SET value=?, checksum=? WHERE key='checkpoint'",
                     (doctored, _meta_checksum("checkpoint", doctored)))
        conn.commit()
        conn.close()
        text = run(["store-inspect", data_dir], expect=2)
        assert "format 'cvs-paged-store 10'" in text

    def test_not_a_store(self, tmp_path):
        run(["store-inspect", str(tmp_path / "absent")], expect=2)

    def test_page_file_directory_reads_like_a_database_one(self, tmp_path):
        """One manifest branch: the file backend's directory prints the
        same layout, off ``pages.log``."""
        from repro.mtree.database import WriteQuery
        from repro.net import ServerCore
        from repro.protocols.base import Request

        data_dir = str(tmp_path / "server")
        core = ServerCore(order=4, data_dir=data_dir, fsync=False,
                          snapshot_every=10**9)
        for i in range(20):
            core.apply_request("u", Request(
                query=WriteQuery(b"k%03d" % i, b"v"),
                extras={"user": "u", "rid": f"u:{i}"}))
        core.snapshot()
        core.close_store()
        text = run(["store-inspect", data_dir])
        size = os.path.getsize(os.path.join(data_dir, "pages.log"))
        lines = text.splitlines()
        assert "backend: file" in lines
        assert "bytes (cvs-paged-store 9)" in lines[lines.index(
            f"pages.log: {size} bytes") + 1]
        assert "checkpoint generation: 1" in lines
        assert "shard 0: gen 1, prev gen 0" in text
        assert "user u: 20 remembered response(s), " in text

    def test_value_and_leaf_pages_are_counted_apart(self, tmp_path):
        """A value page holds the value's raw bytes, so a shard's value
        bytes are exactly the bytes of its values; its leaf pages,
        keys and page ids, are counted on their own line."""
        from repro.mtree.database import WriteQuery
        from repro.net import ServerCore
        from repro.protocols.base import Request
        from repro.storage.engine import LeafPage
        from repro.wire import encode

        data_dir = str(tmp_path / "server")
        core = ServerCore(order=4, data_dir=data_dir, fsync=False,
                          snapshot_every=10**9)
        values = [b"\x00\xff" * (i + 1) for i in range(20)]
        for i, value in enumerate(values):
            core.apply_request("u", Request(
                query=WriteQuery(b"k%03d" % i, value),
                extras={"user": "u", "rid": f"u:{i}"}))
        core.snapshot()
        record = core.store._manifest["shards"][0]
        core.close_store()
        lines = run(["store-inspect", data_dir]).splitlines()
        at = lines.index(next(l for l in lines if l.startswith("shard 0:")))
        total = sum(map(len, values))
        assert lines[at + 1] == (
            f"  value pages: 20 live, 20 held ({total} bytes); last "
            f"checkpoint wrote 20 ({total} bytes)")
        leaves = record["counts"]["leaves"]
        leaf_bytes = record["counts"]["leaf_bytes"]
        # held: the bootstrap's empty leaf too, until the next rewrite
        empty = len(encode(LeafPage((), ())))
        assert lines[at + 2] == (
            f"  leaf pages: {leaves} live, {leaves + 1} held "
            f"({leaf_bytes + empty} bytes); last checkpoint wrote {leaves} "
            f"({leaf_bytes} bytes)")

    def test_whole_state_snapshot_directory_is_named(self, tmp_path):
        data_dir = tmp_path / "server"
        data_dir.mkdir()
        (data_dir / "state.snapshot").write_bytes(b"cvs-server-snapshot 1\n")
        text = run(["store-inspect", str(data_dir)], expect=2)
        assert "cvs-server-snapshot 1" in text


class TestCodec1ArtefactsRefused:
    """What a codec-1 build wrote -- proofs that carried the answer a
    second time, in a ``cvs-paged-store 3`` directory -- is refused by
    the name of its format, never reported as corrupt."""

    @staticmethod
    def old_path(proof):
        """A read proof's internals and leaf as codecs 1 and 2 wrote
        them: each node's keys and digests as tagged lists."""
        from repro.wire import encode

        def node(tag, keys, digests):
            return tag + encode(keys) + encode(digests)

        return (b"\x07" + len(proof.internals).to_bytes(4, "big")
                + b"".join(node(b"\x21", internal.keys, internal.child_digests)
                           for internal in proof.internals)
                + node(b"\x20", proof.leaf.keys, proof.leaf.entry_digests))

    @classmethod
    def codec1_response(cls, response, key):
        """A read ``Response`` as codec 1 wrote it: the read proof's
        layout was ``key:raw value internals leaf``."""
        from repro.wire import encode

        answer, proof = response.result.answer, response.result.proof
        old_proof = (b"\x22" + len(key).to_bytes(4, "big") + key
                     + encode(answer) + cls.old_path(proof.inner))
        return (b"\x41\x27" + encode(answer) + old_proof
                + encode(response.extras))

    @classmethod
    def codec2_response(cls, response, key):
        """A read ``Response`` as codec 2 wrote it: the read proof's
        layout was ``key:raw internals leaf``."""
        from repro.wire import encode

        old_proof = (b"\x22" + len(key).to_bytes(4, "big") + key
                     + cls.old_path(response.result.proof.inner))
        return (b"\x41\x27" + encode(response.result.answer) + old_proof
                + encode(response.extras))

    @staticmethod
    def rewrite_manifest(data_dir, backend, rewrite):
        from repro.net.wal import _MANIFEST_KEY
        from repro.storage.pagestore import open_page_store

        store = open_page_store(data_dir, fsync=False, backend=backend)
        store.begin()
        store.put_meta(_MANIFEST_KEY, rewrite(store.get_meta(_MANIFEST_KEY)))
        store.commit()
        store.close()

    def test_format_3_directory_remembering_a_read(self, tmp_path):
        from repro.mtree.database import ReadQuery, WriteQuery
        from repro.net import ServerCore
        from repro.net.wal import WalError
        from repro.protocols.base import Request
        from repro.wire import WireError, decode, encode

        data_dir = str(tmp_path / "server")
        core = ServerCore(order=4, data_dir=data_dir, fsync=False,
                          snapshot_every=10**9)
        for seq, query in enumerate((WriteQuery(b"f.txt", b"1.1 text"),
                                     ReadQuery(b"f.txt"))):
            core.apply_request("u", Request(query=query, extras={
                "user": "u", "rid": f"u:n:{seq}", "ack": seq}))
        core.snapshot()
        core.close_store()
        marker = b"the remembered read response"

        def as_codec1(blob):
            manifest = decode(blob)
            (rid, response), = manifest["dedup"]["u"]
            assert response.result.answer == b"1.1 text"
            manifest["format"] = "cvs-paged-store 3"
            manifest["dedup"]["u"] = [[rid, marker]]
            blob = encode(manifest).replace(
                encode(marker), self.codec1_response(response, b"f.txt"))
            with pytest.raises(WireError):  # this codec cannot read it at all
                decode(blob)
            return blob

        self.rewrite_manifest(data_dir, "file", as_codec1)
        with pytest.raises(WalError, match="format 'cvs-paged-store 3' is not") as caught:
            ServerCore(order=4, data_dir=data_dir, fsync=False)
        assert "corrupt" not in str(caught.value)
        text = run(["store-inspect", data_dir], expect=2)
        assert "format 'cvs-paged-store 3'" in text and "corrupt" not in text

    def test_repository_written_by_codec_1(self, tmp_path):
        from repro.wire import decode, encode

        repo_dir = str(tmp_path / "repo")
        run(["init", repo_dir])

        def as_format_3(blob):
            manifest = decode(blob)
            manifest["format"] = "cvs-paged-store 3"
            return encode(manifest)

        self.rewrite_manifest(os.path.join(repo_dir, "server"), "file",
                              as_format_3)
        text = run(["-R", repo_dir, "-a", "alice", "log", "f.txt"], expect=2)
        assert "cannot be opened" in text
        assert "format 'cvs-paged-store 3'" in text and "corrupt" not in text

    def test_codec_1_evidence_bundle(self, tmp_path):
        from repro.mtree.database import ReadQuery, VerifiedDatabase, WriteQuery
        from repro.net import evidence
        from repro.protocols.base import Request, Response
        from repro.wire import encode

        database = VerifiedDatabase(order=4)
        database.execute(WriteQuery(b"f.txt", b"1.1 text"))
        response = Response(result=database.execute(ReadQuery(b"f.txt")),
                            extras={"ctr": 2, "last_user": "u"})
        bundle = evidence.response_bundle(
            protocol="II", user_id="u", reason="replay", op_index=0, order=4,
            request_frame=encode(Request(ReadQuery(b"f.txt"), {"user": "u"})),
            response_frame=self.codec1_response(response, b"f.txt"),
            client_state={}, anchor=evidence.anchor_lineage(None, None))
        bundle["codec"] = 1
        path = evidence.write_bundle(str(tmp_path / "old.evidence"), bundle)
        text = run(["evidence-inspect", path], expect=2)
        assert "written by codec 1, this decoder is 4" in text


class TestCodec2ArtefactsRefused:
    """What a codec-2 build wrote -- proofs that repeated the query's
    key, range and operation and sent each key and digest tagged, in a
    ``cvs-paged-store 5`` directory -- is refused by the name of its
    format, never reported as corrupt."""

    codec2_response = TestCodec1ArtefactsRefused.codec2_response
    rewrite_manifest = staticmethod(TestCodec1ArtefactsRefused.rewrite_manifest)

    def test_format_5_directory_remembering_a_read(self, tmp_path):
        from repro.mtree.database import ReadQuery, WriteQuery
        from repro.net import ServerCore
        from repro.net.wal import WalError
        from repro.protocols.base import Request
        from repro.wire import WireError, decode, encode

        data_dir = str(tmp_path / "server")
        core = ServerCore(order=4, data_dir=data_dir, fsync=False,
                          snapshot_every=10**9)
        for seq, query in enumerate([WriteQuery(b"f%d.txt" % i, b"1.1 text")
                                     for i in range(8)] + [ReadQuery(b"f3.txt")]):
            core.apply_request("u", Request(query=query, extras={
                "user": "u", "rid": f"u:n:{seq}", "ack": seq}))
        core.snapshot()
        core.close_store()
        marker = b"the remembered read response"

        def as_codec2(blob):
            manifest = decode(blob)
            (rid, response), = manifest["dedup"]["u"]
            assert response.result.proof.inner.internals  # a path, not one leaf
            manifest["format"] = "cvs-paged-store 5"
            manifest["dedup"]["u"] = [[rid, marker]]
            blob = encode(manifest).replace(
                encode(marker), self.codec2_response(response, b"f3.txt"))
            with pytest.raises(WireError):  # this codec cannot read it at all
                decode(blob)
            return blob

        self.rewrite_manifest(data_dir, "file", as_codec2)
        with pytest.raises(WalError, match="format 'cvs-paged-store 5' is not") as caught:
            ServerCore(order=4, data_dir=data_dir, fsync=False)
        assert "corrupt" not in str(caught.value)
        text = run(["store-inspect", data_dir], expect=2)
        assert "format 'cvs-paged-store 5'" in text and "corrupt" not in text

    def test_codec_2_evidence_bundle(self, tmp_path):
        from repro.mtree.database import ReadQuery, VerifiedDatabase, WriteQuery
        from repro.net import evidence
        from repro.protocols.base import Request, Response
        from repro.wire import encode

        database = VerifiedDatabase(order=4)
        database.execute(WriteQuery(b"f.txt", b"1.1 text"))
        response = Response(result=database.execute(ReadQuery(b"f.txt")),
                            extras={"ctr": 2, "last_user": "u"})
        bundle = evidence.response_bundle(
            protocol="II", user_id="u", reason="replay", op_index=0, order=4,
            request_frame=encode(Request(ReadQuery(b"f.txt"), {"user": "u"})),
            response_frame=self.codec2_response(response, b"f.txt"),
            client_state={}, anchor=evidence.anchor_lineage(None, None))
        bundle["codec"] = 2
        path = evidence.write_bundle(str(tmp_path / "old.evidence"), bundle)
        text = run(["evidence-inspect", path], expect=2)
        assert "written by codec 2, this decoder is 4" in text


class TestCodec3ArtefactsRefused:
    """What a codec-3 build wrote -- a write's proof as an update record
    ``internals leaf siblings`` with an empty sibling list, in a
    ``cvs-paged-store 6`` directory -- is refused by the name of its
    format, never reported as corrupt."""

    rewrite_manifest = staticmethod(TestCodec1ArtefactsRefused.rewrite_manifest)

    @staticmethod
    def codec3_write_response(response):
        """A write ``Response`` as codec 3 wrote it: tag 0x25, the path's
        fields, and no sibling pair."""
        from repro.wire import encode

        path = encode(response.result.proof.inner)
        assert path[:1] == b"\x22"
        return (b"\x41\x27" + encode(response.result.answer) + b"\x25" + path[1:]
                + encode(()) + encode(response.extras))

    def test_format_6_directory_remembering_a_write(self, tmp_path):
        from repro.mtree.database import WriteQuery
        from repro.mtree.proofs import PathProof
        from repro.net import ServerCore
        from repro.net.wal import WalError
        from repro.protocols.base import Request
        from repro.wire import WireError, decode, encode

        data_dir = str(tmp_path / "server")
        core = ServerCore(order=4, data_dir=data_dir, fsync=False,
                          snapshot_every=10**9)
        for seq in range(8):
            core.apply_request("u", Request(query=WriteQuery(b"f%d.txt" % seq, b"1.1"),
                                            extras={"user": "u", "rid": f"u:n:{seq}",
                                                    "ack": seq}))
        core.snapshot()
        core.close_store()
        marker = b"the remembered write response"

        def as_codec3(blob):
            manifest = decode(blob)
            (rid, response), = manifest["dedup"]["u"]
            assert isinstance(response.result.proof.inner, PathProof)
            assert response.result.proof.inner.internals  # a path, not one leaf
            manifest["format"] = "cvs-paged-store 6"
            manifest["dedup"]["u"] = [[rid, marker]]
            blob = encode(manifest).replace(
                encode(marker), self.codec3_write_response(response))
            with pytest.raises(WireError):  # this codec cannot read it at all
                decode(blob)
            return blob

        self.rewrite_manifest(data_dir, "file", as_codec3)
        with pytest.raises(WalError, match="format 'cvs-paged-store 6' is not") as caught:
            ServerCore(order=4, data_dir=data_dir, fsync=False)
        assert "corrupt" not in str(caught.value)
        text = run(["store-inspect", data_dir], expect=2)
        assert "format 'cvs-paged-store 6'" in text and "corrupt" not in text

    def test_codec_3_evidence_bundle(self, tmp_path):
        from repro.mtree.database import VerifiedDatabase, WriteQuery
        from repro.net import evidence
        from repro.protocols.base import Request, Response
        from repro.wire import encode

        database = VerifiedDatabase(order=4)
        query = WriteQuery(b"f.txt", b"1.1 text")
        response = Response(result=database.execute(query),
                            extras={"ctr": 1, "last_user": "u"})
        bundle = evidence.response_bundle(
            protocol="II", user_id="u", reason="replay", op_index=0, order=4,
            request_frame=encode(Request(query, {"user": "u"})),
            response_frame=self.codec3_write_response(response),
            client_state={}, anchor=evidence.anchor_lineage(None, None))
        bundle["codec"] = 3
        path = evidence.write_bundle(str(tmp_path / "old.evidence"), bundle)
        text = run(["evidence-inspect", path], expect=2)
        assert "written by codec 3, this decoder is 4" in text


class TestFormat7DirectoryRefused:
    """A ``cvs-paged-store 7`` directory -- its tree pages the base64
    text lines of ``bplus-snapshot 2`` -- is refused by the name of its
    format, by the server and by ``store-inspect``, on either page
    store; its manifest decodes, so only the name can refuse it."""

    rewrite_manifest = staticmethod(TestCodec1ArtefactsRefused.rewrite_manifest)

    @pytest.mark.parametrize("backend", ["file", "sqlite"])
    def test_format_7_directory(self, tmp_path, backend):
        from repro.mtree.database import WriteQuery
        from repro.net import ServerCore
        from repro.net.wal import WalError
        from repro.protocols.base import Request
        from repro.storage.pagestore import open_page_store
        from repro.wire import decode, encode

        data_dir = str(tmp_path / "server")
        core = ServerCore(order=4, data_dir=data_dir, backend=backend,
                          fsync=False, snapshot_every=10**9)
        for seq in range(3):
            core.apply_request("u", Request(
                query=WriteQuery(b"f%d.txt" % seq, b"1.1"),
                extras={"user": "u", "rid": f"u:n:{seq}", "ack": seq}))
        core.snapshot()
        core.close_store()

        def as_format_7(blob):
            manifest = decode(blob)
            manifest["format"] = "cvs-paged-store 7"
            return encode(manifest)

        self.rewrite_manifest(data_dir, backend, as_format_7)
        pages = open_page_store(data_dir, fsync=False, backend=backend)
        gen = max(pages.generations(0))
        pages.begin()
        pages.write_page("nodes", 0, gen, 0,
                         b"bplus-snapshot 2 4 3\nleaf 3 0 0\n")
        pages.commit()
        pages.close()
        with pytest.raises(WalError, match="format 'cvs-paged-store 7' is not") as caught:
            ServerCore(order=4, data_dir=data_dir, backend=backend, fsync=False)
        assert "corrupt" not in str(caught.value)
        text = run(["store-inspect", data_dir], expect=2)
        assert "format 'cvs-paged-store 7'" in text and "corrupt" not in text
