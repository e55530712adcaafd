"""The page-store layer: transactional commit, checksums, generations.

Both implementations (dict-backed reference and sqlite disk engine)
must satisfy the same contract, so everything here is parametrised over
the two.  The checksum tests are the important half: a page that rots
must raise :class:`CorruptPageError` -- never yield wrong bytes --
because the recovery layer above decides quarantine-or-trust on exactly
that signal.
"""

import os
import sqlite3

import pytest

from repro import obs
from repro.storage.faults import FaultyIO
from repro.storage.pagestore import (
    CorruptPageError,
    MemoryPageStore,
    SqlitePageStore,
    StorageError,
    open_page_store,
    page_checksum,
)


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        yield MemoryPageStore()
    else:
        store = open_page_store(str(tmp_path), fsync=False)
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
        store.close()

    def test_memory_store_bitrot_detected(self):
        io = FaultyIO(seed=5, bitrot_page=("any", -1))
        store = MemoryPageStore(io=io)
        _fill(store)
        with pytest.raises(CorruptPageError):
            list(store.read_pages("nodes", 0, 0))


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
