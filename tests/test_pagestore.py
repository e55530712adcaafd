"""The page-store layer: transactional commit, checksums, generations.

Every implementation (dict-backed reference, the sqlite disk engine and
the append-only page file) must satisfy the same contract, so the
contract tests are parametrised over all three.  The checksum tests are
the important half: a page that rots must raise
:class:`CorruptPageError` -- never yield wrong bytes -- because the
recovery layer above decides quarantine-or-trust on exactly that
signal.  The page file's own tests cover what only an append-only file
has: the open-time scan, torn tails, failed appends and compaction.
"""

import hashlib
import os
import random
import sqlite3

import pytest

from repro import obs
from repro.storage.faults import FaultyIO, IoShim
from repro.storage.pagestore import (
    PAGE_LOG_COMPACT_RATIO,
    PAGE_LOG_MAGIC,
    CorruptPageError,
    FilePageStore,
    MemoryPageStore,
    SqlitePageStore,
    StorageError,
    _meta_checksum,
    _op_bytes,
    open_page_store,
    page_checksum,
)


@pytest.fixture(params=["memory", "sqlite", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        yield MemoryPageStore()
    else:
        store = open_page_store(str(tmp_path), fsync=False,
                                backend=request.param)
        yield store
        store.close()


def _fill(store, shard=0, gen=0, pages=3):
    store.begin()
    for seq in range(pages):
        store.write_page("nodes", shard, gen, seq, b"page-%d" % seq)
    store.commit()


class TestContract:
    def test_commit_makes_pages_visible(self, store):
        _fill(store)
        assert list(store.read_pages("nodes", 0, 0)) == \
            [b"page-0", b"page-1", b"page-2"]
        assert store.page_count("nodes", 0, 0) == 3

    def test_rollback_discards_everything(self, store):
        store.begin()
        store.write_page("nodes", 0, 0, 0, b"doomed")
        store.put_meta("key", b"doomed")
        store.rollback()
        assert list(store.read_pages("nodes", 0, 0)) == []
        assert store.get_meta("key") is None

    def test_uncommitted_writes_invisible_after_close(self, tmp_path):
        store = open_page_store(str(tmp_path), fsync=False)
        _fill(store)
        store.begin()
        store.write_page("nodes", 0, 0, 9, b"volatile")
        store.close()  # crash stand-in: sqlite rolls the open txn back
        fresh = open_page_store(str(tmp_path), fsync=False)
        assert fresh.page_count("nodes", 0, 0) == 3
        fresh.close()

    def test_meta_roundtrip(self, store):
        store.begin()
        store.put_meta("checkpoint", b"\x00\x01binary")
        store.commit()
        assert store.get_meta("checkpoint") == b"\x00\x01binary"
        assert store.get_meta("absent") is None

    def test_written_bytes_are_counted_by_table(self, store):
        """``page_bytes_written`` counts pages and never saw a meta
        record; ``meta_bytes_written`` is where the manifest shows."""
        obs.enable()
        store.begin()
        store.write_page("entries", 3, 0, 7, b"x" * 100)
        store.put_meta("checkpoint", b"m" * 40)
        store.commit()
        assert obs.registry.counter("storage.page_bytes_written").total() == 100
        assert obs.registry.counter("storage.meta_bytes_written").total() == 40

    def test_generations_and_drop(self, store):
        _fill(store, gen=0)
        _fill(store, gen=2)
        store.begin()
        store.write_page("entries", 0, 0, 0, b"leaf")
        store.commit()
        assert store.generations(0) == [0, 2]
        store.begin()
        store.drop_generation("nodes", 0, 0)
        store.commit()
        # only that kind goes: leaf pages outlive their generation's
        # nodes stream
        assert list(store.read_pages("nodes", 0, 0)) == []
        assert store.read_page("entries", 0, 0, 0) == b"leaf"
        assert store.generations(0) == [0, 2]
        store.begin()
        store.drop_generation("entries", 0, 0)
        store.commit()
        assert store.generations(0) == [2]

    def test_point_read(self, store):
        _fill(store, gen=4)
        assert store.read_page("nodes", 0, 4, 1) == b"page-1"
        assert store.read_page("nodes", 0, 4, 3) is None
        assert store.read_page("nodes", 0, 3, 1) is None
        assert store.read_page("entries", 0, 4, 1) is None
        store.begin()
        store.write_page("nodes", 0, 4, 1, b"uncommitted")
        store.rollback()
        assert store.read_page("nodes", 0, 4, 1) == b"page-1"

    def test_batched_read(self, store):
        """One call, the pages in the order asked, ``None`` where there
        is none -- and a page that merely shares a generation with one
        asked for and a seq with another is not handed back."""
        _fill(store, gen=0)
        _fill(store, gen=4)
        store.begin()
        store.write_page("entries", 0, 4, 0, b"other kind")
        store.commit()
        assert store.read_many("nodes", 0, [(4, 2), (0, 1), (4, 9), (0, 0)]) \
            == [b"page-2", b"page-1", None, b"page-0"]
        assert store.read_many("nodes", 0, [(0, 2), (4, 1)]) == \
            [b"page-2", b"page-1"]
        assert store.read_many("entries", 0, [(4, 0), (0, 0)]) == \
            [b"other kind", None]
        assert store.read_many("nodes", 1, [(0, 0)]) == [None]
        assert store.read_many("nodes", 0, []) == []
        many = [(0, seq % 3) for seq in range(600)]  # past one statement
        assert store.read_many("nodes", 0, many) == \
            [b"page-%d" % (seq % 3) for seq in range(600)]

    def test_point_delete(self, store):
        _fill(store)
        _fill(store, shard=1)
        assert store.page_keys("nodes", 0) == [(0, 0), (0, 1), (0, 2)]
        store.begin()
        store.delete_page("nodes", 0, 0, 1)
        store.delete_page("nodes", 0, 0, 7)  # absent: nothing to do
        store.commit()
        assert store.read_page("nodes", 0, 0, 1) is None
        assert store.page_keys("nodes", 0) == [(0, 0), (0, 2)]
        assert store.page_keys("nodes", 1) == [(0, 0), (0, 1), (0, 2)]
        store.begin()
        store.delete_page("nodes", 0, 0, 0)
        store.rollback()
        assert store.read_page("nodes", 0, 0, 0) == b"page-0"

    def test_streams_are_independent(self, store):
        store.begin()
        store.write_page("nodes", 0, 0, 0, b"structure")
        store.write_page("entries", 0, 0, 0, b"data")
        store.write_page("nodes", 1, 0, 0, b"other-shard")
        store.commit()
        assert list(store.read_pages("nodes", 0, 0)) == [b"structure"]
        assert list(store.read_pages("entries", 0, 0)) == [b"data"]
        assert list(store.read_pages("nodes", 1, 0)) == [b"other-shard"]

    def test_write_outside_transaction_rejected(self, store):
        with pytest.raises(StorageError):
            store.write_page("nodes", 0, 0, 0, b"x")
        # MemoryPageStore reports it at commit-less stage time too
        with pytest.raises(StorageError):
            store.put_meta("k", b"v")
        with pytest.raises(StorageError):
            store.delete_page("nodes", 0, 0, 0)


class TestChecksums:
    def test_checksum_binds_full_key(self):
        base = page_checksum("nodes", 0, 1, 2, b"payload")
        assert page_checksum("entries", 0, 1, 2, b"payload") != base
        assert page_checksum("nodes", 3, 1, 2, b"payload") != base
        assert page_checksum("nodes", 0, 9, 2, b"payload") != base
        assert page_checksum("nodes", 0, 1, 5, b"payload") != base
        assert page_checksum("nodes", 0, 1, 2, b"payloae") != base

    @pytest.mark.parametrize("kind, shard, gen, seq, blob, pinned", [
        ("entries", 0, 0, 0, b"",
         "77e772f98262b87adb0ee9dbb2e2fdacec5ff5f6adab571b95b747aaf886ac25"),
        ("leaves", 3, 7, 11, b"payload",
         "4a4515edeb6e051b19364ffb45eaaef495bc48e7f60460955c5bf146d1c1a119"),
    ])
    def test_checksum_is_the_concatenated_formula(self, kind, shard, gen, seq,
                                                  blob, pinned):
        """Stored pages must keep verifying: the checksum is SHA-256 of
        ``domain || kind|shard|gen|seq|len|blob``, however it is fed."""
        def formula(payload: bytes) -> bytes:
            return hashlib.sha256(b"\x0astorage-page%s|%d|%d|%d|%d|%s" % (
                kind.encode("ascii"), shard, gen, seq, len(payload),
                payload)).digest()

        assert formula(blob).hex() == pinned
        assert page_checksum(kind, shard, gen, seq, blob) == formula(blob)
        large = bytes(range(256)) * 300  # bigger than any hash block
        assert page_checksum(kind, shard, gen, seq, large) == formula(large)

    def test_bitrot_detected_on_read(self, tmp_path):
        io = FaultyIO(seed=3, bitrot_page=("nodes", 0))
        store = open_page_store(str(tmp_path), fsync=False, io=io)
        _fill(store)
        with pytest.raises(CorruptPageError) as excinfo:
            list(store.read_pages("nodes", 0, 0))
        assert excinfo.value.kind == "nodes"
        assert excinfo.value.shard == 0
        store.close()

    def test_page_rotted_on_disk_detected(self, tmp_path):
        """Rot the stored bytes directly (no shim): the checksum still
        catches it -- detection does not depend on the fault injector."""
        store = open_page_store(str(tmp_path), fsync=False)
        _fill(store)
        store.close()
        db = os.path.join(str(tmp_path), SqlitePageStore.FILE)
        conn = sqlite3.connect(db)
        conn.execute("UPDATE pages SET blob=? WHERE seq=1", (b"page-X",))
        conn.commit()
        conn.close()
        fresh = open_page_store(str(tmp_path), fsync=False)
        with pytest.raises(CorruptPageError):
            list(fresh.read_pages("nodes", 0, 0))
        fresh.close()

    def test_point_read_verifies_the_checksum(self, tmp_path):
        """The point read is a read path like any other: transient rot
        (the shim) and persistent rot (the stored bytes) both raise."""
        for store in (MemoryPageStore(io=FaultyIO(bitrot_page=("nodes", 0))),
                      open_page_store(str(tmp_path / "shim"), fsync=False,
                                      io=FaultyIO(bitrot_page=("nodes", 0)))):
            _fill(store)
            with pytest.raises(CorruptPageError) as excinfo:
                store.read_page("nodes", 0, 0, 2)
            assert (excinfo.value.gen, excinfo.value.seq) == (0, 2)
            assert store.read_page("nodes", 0, 0, 2) == b"page-2"  # rots once
            store.close()
        store = open_page_store(str(tmp_path / "disk"), fsync=False)
        _fill(store)
        store._conn.execute("UPDATE pages SET blob=? WHERE seq=1", (b"page-X",))
        store._conn.execute("UPDATE pages SET blob='text' WHERE seq=2")
        for seq in (1, 2):  # wrong bytes, and not bytes at all
            with pytest.raises(CorruptPageError):
                store.read_page("nodes", 0, 0, seq)
        assert store.read_page("nodes", 0, 0, 0) == b"page-0"
        with pytest.raises(CorruptPageError):  # the batched read too
            store.read_many("nodes", 0, [(0, 0), (0, 1)])
        store.close()

    def test_memory_store_bitrot_detected(self):
        io = FaultyIO(seed=5, bitrot_page=("any", -1))
        store = MemoryPageStore(io=io)
        _fill(store)
        with pytest.raises(CorruptPageError):
            list(store.read_pages("nodes", 0, 0))


class TestSqliteMeta:
    """A meta row carries a checksum over its key and value, as a page
    file's meta op does: the manifest cannot rot into another state."""

    def test_a_meta_value_rotted_on_disk_is_refused_by_key(self, tmp_path):
        store = open_page_store(str(tmp_path), fsync=False)
        store.begin()
        store.put_meta("checkpoint", b"manifest")
        store.commit()
        for value in (b"manifesT", "text"):  # wrong bytes, and not bytes
            store._conn.execute("UPDATE meta SET value=?", (value,))
            with pytest.raises(StorageError, match="meta record 'checkpoint'"):
                store.get_meta("checkpoint")
        store.close()

    def test_a_store_without_meta_checksums_is_refused(self, tmp_path):
        conn = sqlite3.connect(os.path.join(str(tmp_path), SqlitePageStore.FILE))
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value BLOB NOT NULL)")
        conn.commit()
        conn.close()
        for readonly in (False, True):
            with pytest.raises(StorageError, match="meta rows without a checksum"):
                open_page_store(str(tmp_path), readonly=readonly)

    def test_a_schema_text_that_is_not_utf8_is_refused_by_name(self, tmp_path):
        """sqlite names a table whose schema row it cannot parse in its
        error message: a byte of that name that is not UTF-8 must not
        escape as a bare ``UnicodeDecodeError``."""
        open_page_store(str(tmp_path), fsync=False).close()
        path = os.path.join(str(tmp_path), SqlitePageStore.FILE)
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[blob.index(b"tablepagespages") + len(b"table")] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(blob)
        with pytest.raises(StorageError, match="cannot open page store"):
            open_page_store(str(tmp_path), fsync=False)

    def test_every_byte_of_the_stored_manifest_row_is_refused_or_harmless(
            self, tmp_path):
        """Each byte of the manifest's row in ``pages.db`` (its record
        head, key, value and checksum), XORed with 0xff: the restart is
        refused by a named error, or recovers the same root, dedup table
        and acked writes.  Without the checksum a flip of the manifest's
        ``gen`` restarts at an older root, silently dropping the three
        writes acked after the last checkpoint."""
        from bench_storage import _ops, _request
        from repro.net.core import ServerCore
        from repro.net.wal import WalError

        def restart(data_dir):
            return ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                              fsync=False, snapshot_every=5)

        origin = str(tmp_path / "origin")
        core, acked = restart(origin), _ops(13)
        for seq, (key, value) in enumerate(acked):  # checkpoints at 5 and 10
            core.apply_request("bench", _request(key, value, seq))
        root, dedup = core.state.database.root_digest(), core.dedup.export()
        manifest = core.store.pages.get_meta("checkpoint")
        core.close_store()
        files = {name: open(os.path.join(origin, name), "rb").read()
                 for name in os.listdir(origin)}
        db = files[SqlitePageStore.FILE]
        row = b"checkpoint" + manifest
        start = db.index(row)
        end = start + len(row) + 32
        assert db[start + len(row):end] == _meta_checksum("checkpoint", manifest)
        copy, refused = str(tmp_path / "copy"), 0
        os.mkdir(copy)
        for offset in range(start - 8, end):  # 8: the record's head
            for name, blob in files.items():
                if name == SqlitePageStore.FILE:
                    blob = bytearray(blob)
                    blob[offset] ^= 0xFF
                with open(os.path.join(copy, name), "wb") as handle:
                    handle.write(blob)
            try:
                core = restart(copy)
            except WalError:
                refused += 1
                continue
            assert core.state.database.root_digest() == root, offset
            assert core.dedup.export() == dedup, offset
            assert all(core.state.database.get(key) == value
                       for key, value in acked), offset
            core.close_store()
        assert refused > len(manifest)


class TestCommitFaults:
    def test_enospc_at_commit_raises_storage_error(self, tmp_path):
        io = FaultyIO(enospc_after_bytes=0)
        store = open_page_store(str(tmp_path), fsync=False, io=io)
        store.begin()
        with pytest.raises(StorageError, match="space"):
            store.write_page("nodes", 0, 0, 0, b"x")
        store.rollback()
        store.close()

    def test_failed_commit_rolls_back(self, tmp_path):
        # The gate is consulted at every page write and at the commit:
        # occurrence 2 is the COMMIT of a one-page transaction.
        io = FaultyIO(fail_commit=2)
        store = open_page_store(str(tmp_path), fsync=False, io=io)
        store.begin()
        store.write_page("nodes", 0, 0, 0, b"x")
        with pytest.raises(StorageError, match="commit failed"):
            store.commit()
        # The failed transaction left nothing behind and the store is
        # reusable: the server retries the checkpoint later.
        assert store.page_count("nodes", 0, 0) == 0
        _fill(store)
        assert store.page_count("nodes", 0, 0) == 3
        store.close()

    def test_readonly_store_reads_committed_state(self, tmp_path):
        store = open_page_store(str(tmp_path), fsync=False)
        _fill(store)
        store.begin()
        store.put_meta("m", b"v")
        store.commit()
        store.close()
        ro = open_page_store(str(tmp_path), readonly=True)
        assert ro.page_count("nodes", 0, 0) == 3
        assert ro.get_meta("m") == b"v"
        ro.close()


# -- what only an append-only page file has -------------------------------------


def _page_file(tmp_path, **options):
    return open_page_store(str(tmp_path), fsync=False, backend="file",
                           **options)


def _log_path(tmp_path):
    return os.path.join(str(tmp_path), FilePageStore.FILE)


class _InMemoryIo(IoShim):
    """Every file in a dict: a store on it that asked the file system
    anything after opening would find nothing there."""

    def __init__(self):
        self.files = {}

    def open(self, path, mode):
        if "a" not in mode:
            self.files[path] = bytearray()
        return _InMemoryFile(self.files.setdefault(path, bytearray()))

    def read_file(self, path):
        return bytes(self.files[path])

    def replace(self, src, dst):
        self.files[dst] = self.files.pop(src)

    def fsync_dir(self, path):
        pass

    def truncate_file(self, path, size):
        del self.files[path][size:]


class _InMemoryFile:
    def __init__(self, content):
        self._content = content

    def write(self, data):
        self._content += data
        return len(data)

    def flush(self):
        pass

    fsync = flush

    def close(self):
        pass


class TestPageFile:
    def test_reopen_replays_every_commit(self, tmp_path):
        store = _page_file(tmp_path)
        _fill(store, gen=0)
        store.begin()
        store.drop_generation("nodes", 0, 0)
        store.write_page("entries", 1, 2, 3, b"leaf")
        store.delete_page("entries", 1, 2, 3)
        store.write_page("entries", 1, 2, 4, b"kept")
        store.put_meta("checkpoint", b"m1")
        store.commit()
        store.close()
        fresh = _page_file(tmp_path)
        assert fresh.page_count("nodes", 0, 0) == 0
        assert fresh.page_keys("entries", 1) == [(2, 4)]
        assert fresh.read_page("entries", 1, 2, 4) == b"kept"
        assert fresh.get_meta("checkpoint") == b"m1"
        fresh.close()
        with open(_log_path(tmp_path), "rb") as handle:
            assert handle.read().startswith(PAGE_LOG_MAGIC)

    def test_torn_tail_is_trimmed_on_open(self, tmp_path):
        """A commit that died mid-append never returned: the scan drops
        it and trims the file back to the last whole record."""
        store = _page_file(tmp_path)
        _fill(store)
        store.close()
        path = _log_path(tmp_path)
        committed = os.path.getsize(path)
        store = _page_file(tmp_path)
        store.begin()
        store.write_page("nodes", 0, 1, 0, b"x" * 500)
        store.commit()
        store.close()
        with open(path, "r+b") as handle:
            handle.truncate(committed + 100)
        fresh = _page_file(tmp_path)
        assert fresh.page_count("nodes", 0, 1) == 0
        assert fresh.page_count("nodes", 0, 0) == 3
        assert os.path.getsize(path) == committed
        _fill(fresh, gen=2)  # appends from the record boundary
        fresh.close()
        again = _page_file(tmp_path)
        assert again.generations(0) == [0, 2]
        again.close()

    def test_first_commit_torn_inside_the_header_is_an_empty_store(
            self, tmp_path):
        with open(_log_path(tmp_path), "wb") as handle:
            handle.write(PAGE_LOG_MAGIC[:5])
        store = _page_file(tmp_path)
        assert store.generations(0) == []
        _fill(store)
        store.close()
        assert _page_file(tmp_path).page_count("nodes", 0, 0) == 3

    def _rot(self, tmp_path, offset):
        path = _log_path(tmp_path)
        with open(path, "r+b") as handle:
            blob = bytearray(handle.read())
            blob[offset] ^= 0x01
            handle.seek(0)
            handle.write(blob)

    def test_rot_in_a_record_head_is_refused_at_open(self, tmp_path):
        store = _page_file(tmp_path)
        _fill(store)
        _fill(store, gen=1)
        store.close()
        # inside the checksum of the second record's last page
        self._rot(tmp_path, -32 - len(b"page-2") - 5)
        with pytest.raises(StorageError, match="record 1 .*digest"):
            _page_file(tmp_path)

    def test_rot_in_a_page_is_caught_where_it_is_read(self, tmp_path):
        """The scan hashes heads only; a page's bytes are bound by its
        checksum and checked by every read, as in any page store."""
        store = _page_file(tmp_path)
        _fill(store)
        store.close()
        self._rot(tmp_path, -32 - 1)  # the last page's last byte
        fresh = _page_file(tmp_path)
        assert fresh.read_page("nodes", 0, 0, 1) == b"page-1"
        with pytest.raises(CorruptPageError) as excinfo:
            fresh.read_page("nodes", 0, 0, 2)
        assert excinfo.value.seq == 2
        fresh.close()

    def test_rot_in_the_live_meta_is_refused_at_open(self, tmp_path):
        store = _page_file(tmp_path)
        store.begin()
        store.put_meta("checkpoint", b"old manifest")
        store.commit()
        store.begin()
        store.put_meta("checkpoint", b"new manifest")
        store.commit()
        store.close()
        self._rot(tmp_path, -32 - 1)
        with pytest.raises(StorageError, match="'checkpoint' .*checksum"):
            _page_file(tmp_path)

    def test_foreign_file_refused(self, tmp_path):
        with open(_log_path(tmp_path), "wb") as handle:
            handle.write(b"SQLite format 3\x00")
        with pytest.raises(StorageError, match="not a page file"):
            _page_file(tmp_path)

    def test_failed_append_leaves_the_last_commit(self, tmp_path):
        io = FaultyIO(seed=2)
        store = _page_file(tmp_path, io=io)
        _fill(store)
        size = os.path.getsize(_log_path(tmp_path))
        io._plan["short_write"] = 1
        store.begin()
        store.write_page("nodes", 0, 1, 0, b"y" * 300)
        with pytest.raises(StorageError, match="commit failed"):
            store.commit()
        assert os.path.getsize(_log_path(tmp_path)) == size
        assert store.page_count("nodes", 0, 1) == 0
        _fill(store, gen=2)
        store.close()
        fresh = _page_file(tmp_path)
        assert fresh.generations(0) == [0, 2]
        fresh.close()

    def test_readonly_open_never_trims(self, tmp_path):
        store = _page_file(tmp_path)
        _fill(store)
        store.close()
        path = _log_path(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00")
        size = os.path.getsize(path)
        ro = _page_file(tmp_path, readonly=True)
        assert ro.page_count("nodes", 0, 0) == 3
        with pytest.raises(StorageError):
            ro.begin()
        assert os.path.getsize(path) == size

    def test_compaction_bounds_the_file_and_keeps_the_state(self, tmp_path):
        obs.enable()
        store = _page_file(tmp_path)
        path = _log_path(tmp_path)
        for gen in range(60):
            store.begin()
            store.write_page("entries", 0, 0, gen % 3, b"%d" % gen * 40)
            store.put_meta("checkpoint", b"gen %d" % gen)
            store.commit()
            # at most one record past the ratio: the check runs at begin
            assert os.path.getsize(path) <= \
                PAGE_LOG_COMPACT_RATIO * store.rewritten_size() + 300
        assert obs.registry.counter(
            "storage.page_log_compactions").total() >= 2
        store.close()
        fresh = _page_file(tmp_path)
        assert fresh.read_page("entries", 0, 0, 59 % 3) == b"59" * 40
        assert fresh.page_keys("entries", 0) == [(0, 0), (0, 1), (0, 2)]
        assert fresh.get_meta("checkpoint") == b"gen 59"
        fresh.close()

    def test_compaction_fires_where_a_full_recount_says(self, tmp_path):
        """The live set's size is kept as ops apply, not recounted at
        each begin: over a scripted run of puts, overwrites, deletes,
        dropped generations and meta values it equals a recount of
        every live page at every commit, and the file is compacted at
        the commits a recount picked (pinned from a build that
        recounted)."""
        rng = random.Random(2024)
        store = _page_file(tmp_path)

        def recount():
            return (len(PAGE_LOG_MAGIC) + 4 + 32
                    + sum(_op_bytes(key, value)
                          for key, (value, _) in store._meta.items())
                    + sum(_op_bytes(kind, blob)
                          for (kind, _, _), group in store._groups.items()
                          for blob, _ in group.values()))

        fired = []
        for commit in range(120):
            before = store._log.size
            store.begin()
            if store._log.size < before:
                fired.append(commit)
            for _ in range(rng.randrange(1, 6)):
                action = rng.random()
                kind = rng.choice(("nodes", "leaves", "entries"))
                gen = rng.randrange(2)
                if action < 0.6:
                    store.write_page(kind, 0, gen, rng.randrange(3),
                                     rng.randbytes(rng.randrange(1, 200)))
                elif action < 0.8:
                    store.delete_page(kind, 0, gen, rng.randrange(3))
                elif action < 0.9:
                    store.drop_generation(kind, 0, gen)
                else:
                    store.put_meta(rng.choice(("manifest", "other")),
                                   rng.randbytes(rng.randrange(0, 90)))
            store.commit()
            assert store.rewritten_size() == recount()
        assert fired == [19, 31, 44, 58, 79, 89, 103, 110]
        store.close()
        reopened = _page_file(tmp_path)  # the open-time scan counts it too
        assert reopened.rewritten_size() == store.rewritten_size()
        reopened.close()

    def test_a_compacted_file_is_never_looked_up_again(self, tmp_path):
        """After opening, the store keeps its file's size itself: on a
        shim that holds every file in memory it compacts and goes on
        appending without the file system ever holding the file."""
        io = _InMemoryIo()
        data_dir = str(tmp_path / "nowhere")
        store = open_page_store(data_dir, fsync=False, io=io,
                                backend="file")
        for gen in range(40):
            store.begin()
            store.write_page("entries", 0, 0, 0, b"v%d" % gen * 30)
            store.commit()
        path = os.path.join(data_dir, FilePageStore.FILE)
        assert set(io.files) == {path}
        assert not os.path.exists(path)
        store.close()
        copy = tmp_path / "copy"
        copy.mkdir()
        (copy / FilePageStore.FILE).write_bytes(bytes(io.files[path]))
        fresh = _page_file(copy)
        assert fresh.read_page("entries", 0, 0, 0) == b"v39" * 30
        fresh.close()
