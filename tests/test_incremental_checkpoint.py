"""The paged store's checkpoints cost what was written: one page per
entry and one per Merkle leaf, dirtiness read off the digests the tree
already keeps.

What is pinned here, at the level of :class:`PagedServerStore` and a
real ``pages.db``:

* **proportionality** -- a checkpoint writes the values and the leaves
  that changed and touches no other row;
* **exact accounting** -- the rows a shard holds are exactly the pages
  its current and its previous state name, under random
  insert/overwrite/delete traffic, restarts and failed commits;
* **failure atomicity** -- a failed checkpoint changes nothing, and the
  retry carries both intervals;
* **repair is a redo** -- persistent rot in anything the shard's last
  checkpoint wrote is repaired through the same walk; persistent rot in
  an older leaf or value page, which exists in one copy, is refused by
  name.
"""

import io
import os
import random
import sqlite3

import pytest

from repro.mtree.database import DeleteQuery, VerifiedDatabase, WriteQuery
from repro.mtree.forest import shard_for_key
from repro.net import ServerCore, WalError
from repro.net.wal import open_server_store
from repro.protocols.base import Request
from repro.storage.engine import PageRows, load_shard_tree, row_fields
from repro.storage.faults import FaultyIO
from repro.storage.pagestore import StorageError, _meta_checksum
from repro.wire import decode, encode


def _core(data_dir, shards, order=4, **options):
    return ServerCore(order=order, data_dir=data_dir, backend="sqlite",
                      fsync=False, shards=shards, snapshot_every=10**9,
                      **options)


class _Traffic:
    """Requests against a core, mirrored onto a reference database."""

    def __init__(self, order, shards):
        self.reference = VerifiedDatabase(order=order, shards=shards)
        self.seq = 0

    def apply(self, core, query):
        core.apply_request("u", Request(
            query=query, extras={"user": "u", "rid": f"u:{self.seq}"}))
        self.reference.execute(query)
        self.seq += 1

    def write(self, core, key, value):
        self.apply(core, WriteQuery(key, value))


def _rows(store):
    """Every row of ``pages.db`` with its rowid (a rewritten row gets a
    new one, so equality means *untouched*)."""
    return set(store.pages._conn.execute(
        "SELECT rowid, kind, shard, gen, seq, blob FROM pages"))


def _named(store, shard, gen, root):
    """The ``(kind, page, generation)`` rows the state at ``gen`` names --
    through the real loader, so the state is also shown to load and to
    hash to the root the manifest records for it."""
    rows = PageRows()
    load_shard_tree(store.pages, shard, gen, expected_root=root, rows=rows)
    return set(map(row_fields, rows.values()))


def _check_accounting(store):
    """The invariant: per shard, rows held == pages named by the current
    and the previous state (the repair recipe, which must still load);
    the manifest's bookkeeping says the same."""
    for record in store._manifest["shards"]:
        shard, gen, prev = (int(record[k])
                            for k in ("shard", "gen", "prev_gen"))
        current = _named(store, shard, gen, record["root"])
        previous = set() if prev < 0 else \
            _named(store, shard, prev, record["prev_root"])
        held = {(kind, page, page_gen) for kind in ("leaves", "entries")
                for page_gen, page in store.pages.page_keys(kind, shard)}
        assert held == current | previous, f"shard {shard} leaks or lacks rows"
        assert {tuple(row) for row in record["superseded"]} == \
            previous - current
        assert {g for g, _seq in store.pages.page_keys("nodes", shard)} == \
            {gen, prev} - {-1}
        assert all(page < int(record["next_page"]) for _, page, _ in held)
        assert len(current) == \
            record["counts"]["leaves"] + record["counts"]["entries"]


class TestProportionality:
    def test_overwrites_write_exactly_the_touched_leaves(self, tmp_path):
        core = _core(str(tmp_path), shards=2)
        traffic = _Traffic(4, 2)
        for i in range(300):
            traffic.write(core, b"file%04d" % i, b"rev-1")
        core.snapshot()
        for key in (b"file0000", b"file0001"):  # one per shard
            traffic.write(core, key, b"rev-1b")
        core.snapshot()
        before = _rows(core.store)
        doomed = {(kind, int(record["shard"]), int(gen), int(page))
                  for record in core.store._manifest["shards"]
                  for kind, page, gen in record["superseded"]}
        touched = set()
        for n, i in enumerate((7, 8, 150, 299)):
            key = b"file%04d" % i
            traffic.write(core, key, b"rev-2" + b"+" * (40 * n))  # lengths differ
            shard = core.state.database.mtree.shard_tree(
                shard_for_key(key, 2))
            touched.add(id(shard.search_path(key)[-1]))
        core.snapshot()
        after = _rows(core.store)
        # Gone: what only the state before the previous one named.  Every
        # other row is the same row (same rowid), not an equal rewrite.
        assert {row[1:5] for row in before - after} == \
            doomed | {("nodes", 0, 1, 0), ("nodes", 1, 1, 0)}
        fresh = after - before
        assert sum(row[1] == "leaves" for row in fresh) == len(touched)
        assert sorted(len(row[5]) for row in fresh if row[1] == "entries") \
            == [5, 45, 85, 125]
        assert {row[3] for row in fresh} == {int(core.store._manifest["gen"])}
        _check_accounting(core.store)
        core.close_store()


class TestExactAccounting:
    @pytest.mark.parametrize("order", [4, 8])
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_random_traffic_restarts_and_failed_commits(
            self, tmp_path, order, shards):
        rng = random.Random(order * 10 + shards)
        data_dir = str(tmp_path)
        core = _core(data_dir, shards, order=order)
        traffic = _Traffic(order, shards)
        live: dict[bytes, bytes] = {}
        failed = 0
        for checkpoint in range(36):
            for _ in range(rng.randrange(1, 25)):
                key = b"k%03d" % rng.randrange(160)
                if key in live and rng.random() < 0.45:
                    traffic.apply(core, DeleteQuery(key))
                    del live[key]
                else:
                    live[key] = b"v" * rng.randrange(1, 60)
                    traffic.write(core, key, live[key])
            if checkpoint % 5 == 2:
                # Fail somewhere inside this checkpoint (a page write or
                # the COMMIT itself): nothing may change on disk.
                before = _rows(core.store)
                healthy = core.store.pages.io
                core.store.pages.io = FaultyIO(
                    fail_commit=rng.randrange(1, 4))
                with pytest.raises(StorageError):
                    core.snapshot()
                core.store.pages.io = healthy
                assert _rows(core.store) == before
                failed += 1
                continue
            core.snapshot()
            _check_accounting(core.store)
            if checkpoint % 7 == 6:
                core.close_store()
                core = _core(data_dir, shards, order=order)
                assert core.replayed_records == 0
                assert core.store.repaired_shards == []
                _check_accounting(core.store)
            assert core.state.database.root_digest() == \
                traffic.reference.root_digest()
        assert failed >= 6
        assert dict(core.state.database.mtree.items()) == live
        core.close_store()


class TestFailedCommit:
    def test_retry_carries_both_intervals(self, tmp_path):
        data_dir = str(tmp_path)
        core = _core(data_dir, shards=2)
        traffic = _Traffic(4, 2)
        for i in range(80):
            traffic.write(core, b"a%03d" % i, b"first")
        core.snapshot()
        for i in range(0, 80, 9):
            traffic.write(core, b"a%03d" % i, b"interval-one")
        healthy = core.store.pages.io
        core.store.pages.io = FaultyIO(fail_commit=5)
        with pytest.raises(StorageError):
            core.snapshot()
        core.store.pages.io = healthy
        for i in range(3, 80, 11):
            traffic.write(core, b"a%03d" % i, b"interval-two")
        core.snapshot()  # the retry
        _check_accounting(core.store)
        core.close_store()
        # The retried checkpoint alone: no log left to lean on.
        assert not os.path.exists(core.store.wal_path)
        fresh = _core(data_dir, shards=2)
        assert fresh.replayed_records == 0
        assert fresh.state.database.root_digest() == \
            traffic.reference.root_digest()
        assert fresh.state.database.get(b"a009") == b"interval-one"
        assert fresh.state.database.get(b"a003") == b"interval-two"
        fresh.close_store()


def _two_checkpoints(data_dir):
    """A two-shard store whose last checkpoint rewrote a few leaves of
    each shard and left the rest at generation 1."""
    core = _core(data_dir, shards=2)
    traffic = _Traffic(4, 2)
    for i in range(120):
        traffic.write(core, b"doc%03d" % i, b"one")
    core.snapshot()
    for i in (5, 6, 70, 71, 119):
        traffic.write(core, b"doc%03d" % i, b"two")
    core.snapshot()
    manifest = core.store._manifest
    core.close_store()
    return manifest, traffic.reference.root_digest()


def _rot(data_dir, kind, shard, gen, seq):
    """Persistent rot: the stored bytes change, the checksum does not."""
    conn = sqlite3.connect(os.path.join(data_dir, "pages.db"))
    changed = conn.execute(
        "UPDATE pages SET blob = CAST(blob || x'00' AS BLOB) "
        "WHERE kind=? AND shard=? AND gen=? AND seq=?",
        (kind, shard, gen, seq)).rowcount
    conn.commit()
    conn.close()
    assert changed == 1


class TestRepairIsARedo:
    @pytest.mark.parametrize("kind", ["entries", "leaves", "nodes"])
    def test_rot_in_what_the_last_checkpoint_wrote(self, tmp_path, kind):
        data_dir = str(tmp_path)
        manifest, root = _two_checkpoints(data_dir)
        record = manifest["shards"][1]
        gen = int(record["gen"])
        assert gen == int(manifest["gen"]) and record["counts"]["leaf_pages"]
        conn = sqlite3.connect(os.path.join(data_dir, "pages.db"))
        (seq,) = conn.execute(
            "SELECT MAX(seq) FROM pages WHERE kind=? AND shard=1 AND gen=?",
            (kind, gen)).fetchone()
        conn.close()
        _rot(data_dir, kind, 1, gen, seq)
        conn = sqlite3.connect(os.path.join(data_dir, "pages.db"))
        rows_before = set(conn.execute(
            "SELECT kind, shard, gen, seq FROM pages"))
        meta_before = conn.execute("SELECT * FROM meta").fetchall()
        conn.close()

        fresh = _core(data_dir, shards=2)
        assert fresh.store.repaired_shards == [1]
        assert fresh.state.database.root_digest() == root
        # the redo rewrites the same rows and leaves the manifest alone
        assert {row[1:5] for row in _rows(fresh.store)} == rows_before
        assert fresh.store.pages._conn.execute(
            "SELECT * FROM meta").fetchall() == meta_before
        _check_accounting(fresh.store)
        fresh.close_store()
        again = _core(data_dir, shards=2)  # the rot is gone, not re-read
        assert again.store.repaired_shards == []
        assert again.state.database.root_digest() == root
        again.close_store()

    def test_redo_across_a_checkpoint_that_skipped_the_shard(self, tmp_path):
        """A shard whose operations of one interval net to nothing (same
        root, which commits to the shape too) is skipped by that
        checkpoint.  Its next rewrite is then redone from the state
        *before* the skipped interval plus the last segment alone --
        although the live tree went through a merge and a split on the
        way, and holds other leaf objects than a reload would."""
        data_dir = str(tmp_path)
        core = _core(data_dir, shards=1)
        traffic = _Traffic(4, 1)
        for key in (b"a", b"b", b"c", b"d"):  # leaves [a b] [c d]
            traffic.write(core, key, b"1")
        core.snapshot()
        record = dict(core.store._manifest["shards"][0])
        for key in (b"a", b"c", b"d"):  # [b]: the right leaf merges away
            traffic.apply(core, DeleteQuery(key))
        assert core.state.database.mtree.height() == 1
        for key in (b"a", b"c", b"d"):  # [a b] [c d] again, by a split
            traffic.write(core, key, b"1")
        core.snapshot()
        assert core.store._manifest["shards"][0] == record  # skipped
        traffic.write(core, b"a", b"2")
        core.snapshot()
        record = core.store._manifest["shards"][0]
        assert int(record["prev_gen"]) == 1 and int(record["gen"]) == 3
        assert record["counts"]["leaf_pages"] == 1
        assert record["counts"]["value_pages"] == 1
        core.close_store()
        # a leaf's page is written after its values: the last id
        _rot(data_dir, "leaves", 0, 3, int(record["next_page"]) - 1)
        fresh = _core(data_dir, shards=1)
        assert fresh.store.repaired_shards == [0]
        assert fresh.state.database.root_digest() == \
            traffic.reference.root_digest()
        _check_accounting(fresh.store)
        fresh.close_store()

    def test_rot_in_an_older_live_leaf_page_is_refused_by_name(self,
                                                               tmp_path):
        self._older_page_rots(str(tmp_path), "leaves")

    def test_rot_in_an_older_live_value_page_is_refused_by_name(self,
                                                                tmp_path):
        self._older_page_rots(str(tmp_path), "entries")

    def _older_page_rots(self, data_dir, kind):
        manifest, _root = _two_checkpoints(data_dir)
        gen = int(manifest["gen"])
        conn = sqlite3.connect(os.path.join(data_dir, "pages.db"))
        named = dict(conn.execute(
            "SELECT seq, gen FROM pages WHERE kind=? AND shard=1", (kind,)))
        conn.close()
        # a page both states name: written before the last checkpoint
        # and not superseded by it
        superseded = {int(page) for _kind, page, _gen
                      in manifest["shards"][1]["superseded"]}
        page = next(p for p, g in sorted(named.items())
                    if g < gen and p not in superseded)
        _rot(data_dir, kind, 1, named[page], page)
        with pytest.raises(WalError) as excinfo:
            _core(data_dir, shards=2)
        message = str(excinfo.value)
        assert "cannot repair" in message
        assert f"'{kind}', shard=1, gen={named[page]}, seq={page}" in message


class TestForeignTrees:
    def test_clone_checkpointed_into_the_originals_store(self, tmp_path):
        """The store compares by value, so a structural copy of what it
        holds costs nothing to checkpoint, and a fork of it costs the
        difference -- whichever tree object carries it."""
        data_dir = str(tmp_path)
        core = _core(data_dir, shards=2)
        traffic = _Traffic(4, 2)
        for i in range(150):
            traffic.write(core, b"c%03d" % i, b"x")
        core.snapshot()
        before = _rows(core.store)
        core.state.database = core.state.database.clone()
        traffic.write(core, b"c000", b"forked")
        core.snapshot()
        after = _rows(core.store)
        assert {row[3] for row in before - after} == {0}  # the bootstrap's
        assert sorted(row[1] for row in after - before
                      if row[1] != "nodes") == ["entries", "leaves"]
        _check_accounting(core.store)
        core.close_store()
        fresh = _core(data_dir, shards=2)
        assert fresh.replayed_records == 0
        assert fresh.state.database.root_digest() == \
            traffic.reference.root_digest()
        fresh.close_store()

    def test_unrelated_tree_is_written_in_full(self, tmp_path):
        data_dir = str(tmp_path)
        core = _core(data_dir, shards=1)
        traffic = _Traffic(4, 1)
        for i in range(60):
            traffic.write(core, b"old%03d" % i, b"x")
        core.snapshot()
        other = VerifiedDatabase(order=4)
        for i in range(40):
            other.execute(WriteQuery(b"new%03d" % i, b"y"))
        core.state.database = other
        core.snapshot()
        record = core.store._manifest["shards"][0]
        assert record["counts"]["leaf_pages"] == record["counts"]["leaves"] > 10
        assert record["counts"]["value_pages"] == record["counts"]["entries"] \
            == 40
        _check_accounting(core.store)
        core.snapshot()  # nothing changed: nothing written, nothing dropped
        assert core.store._manifest["shards"][0] == record
        core.close_store()

    def test_store_that_never_loaded_reads_back_what_it_holds(self, tmp_path):
        """A checkpoint through a store object that neither loaded nor
        wrote the directory's state still writes only the difference."""
        data_dir = str(tmp_path)
        core = _core(data_dir, shards=2)
        traffic = _Traffic(4, 2)
        for i in range(100):
            traffic.write(core, b"n%03d" % i, b"x")
        core.snapshot()
        state = core.state
        core.close_store()
        state.database.execute(WriteQuery(b"n050", b"changed"))
        store = open_server_store(data_dir, backend="sqlite", fsync=False)
        before = _rows(store)
        store.write_snapshot(state, {})
        written = _rows(store) - before
        assert sorted(row[1] for row in written if row[1] != "nodes") == \
            ["entries", "leaves"]
        _check_accounting(store)
        store.close()


class TestOldFormatRefused:
    def test_manifest_of_another_format(self, tmp_path):
        # 2: one page per leaf, values inside it; 4: one log renamed
        # into a retained segment at each checkpoint; 8: one shard was a
        # lone tree, whose root was the store's
        for old in ("cvs-paged-store 1", "cvs-paged-store 2",
                    "cvs-paged-store 4", "cvs-paged-store 8"):
            self._refused(str(tmp_path / old.replace(" ", "-")), old)

    def _refused(self, data_dir, old):
        from repro.cli import main

        core = _core(data_dir, shards=1)
        shard_root = core.state.database.shard_trees()[0].root_digest()
        core.close_store()
        conn = sqlite3.connect(os.path.join(data_dir, "pages.db"))
        (blob,) = conn.execute(
            "SELECT value FROM meta WHERE key='checkpoint'").fetchone()
        manifest = decode(bytes(blob))
        # every format before 9 wrote one shard as a bare order and the
        # shard's root
        manifest.update(format=old, spec=4, root=shard_root)
        doctored = encode(manifest)  # a build of that format signs its row
        conn.execute("UPDATE meta SET value=?, checksum=? WHERE key='checkpoint'",
                     (doctored, _meta_checksum("checkpoint", doctored)))
        conn.commit()
        conn.close()
        with pytest.raises(WalError, match=f"{old}.*one page per entry") as caught:
            _core(data_dir, shards=1)
        assert "corrupt" not in str(caught.value)
        out = io.StringIO()
        assert main(["store-inspect", data_dir], out=out) == 2
        assert f"format {old!r}" in out.getvalue()
        assert "corrupt" not in out.getvalue()
