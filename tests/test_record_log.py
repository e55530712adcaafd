"""The one record log: every durable log of a data directory -- each
``wal.G.log`` and the page file -- opens, appends, fsyncs, names, rolls
back and trims through :class:`repro.storage.atomic.RecordLog`.

Each property is checked on a log without a head (a WAL) and on one
headed by ``PAGE_LOG_MAGIC`` (the page file); one test pins the bytes
a fixed operation sequence leaves in both, and the last ones tell a
corrupted length prefix from a torn tail in the real logs.
"""

import hashlib
import os

import pytest

from repro.mtree.database import DeleteQuery, WriteQuery
from repro.net import ServerCore, WalError
from repro.net.wal import ServerStore
from repro.protocols.base import Request
from repro.storage.atomic import RecordLog, frame_record, parse_records
from repro.storage.faults import FaultyIO, IoShim, SimulatedCrash
from repro.storage.pagestore import PAGE_LOG_MAGIC, FilePageStore

import bench_storage
from bench_storage import flip_length

HEADS = pytest.mark.parametrize("head", [b"", PAGE_LOG_MAGIC],
                                ids=["wal", "page-file"])
RECORDS = [(b"alpha", b"\x01" * 32), (b"", b"\x02" * 32),
           (b"gamma" * 3, b"\x03" * 32)]


def _written(path, head, records=RECORDS, **options):
    log = RecordLog(path, "t", head=head, fsync=False, **options)
    for payload, digest in records:
        log.append(payload, digest)
    log.close()
    with open(path, "rb") as handle:
        return handle.read()


def _read(path, head, **options):
    log = RecordLog(path, "t", head=head, **options)
    return [(bytes(p), bytes(d)) for p, d in log.read()], log.size


class _Announced(IoShim):
    """Real I/O, recording every crash point announced."""

    def __init__(self):
        self.points = []

    def crash_point(self, name):
        self.points.append(name)


@HEADS
class TestRecordLog:
    def test_a_torn_tail_reads_as_the_complete_prefix(self, tmp_path, head):
        """Cut a three-record file at every byte: the log reads back the
        records that end at or before the cut and trims the rest; a cut
        inside the head leaves an empty file."""
        path = str(tmp_path / "t.log")
        blob = _written(path, head)
        ends = [len(head)]
        for payload, digest in RECORDS:
            ends.append(ends[-1] + len(frame_record(payload, digest)))
        assert ends[-1] == len(blob)
        for cut in range(len(blob) + 1):
            with open(path, "wb") as handle:
                handle.write(blob[:cut])
            complete = [end for end in ends[1:] if end <= cut]
            size = complete[-1] if complete else \
                (len(head) if cut >= len(head) else 0)
            records, read_size = _read(path, head)
            assert records == RECORDS[:len(complete)], cut
            assert read_size == size
            assert os.path.getsize(path) == size

    def test_a_read_only_log_never_truncates(self, tmp_path, head):
        path = str(tmp_path / "t.log")
        blob = _written(path, head)
        torn = blob[:-7]
        with open(path, "wb") as handle:
            handle.write(torn)
        records, size = _read(path, head, readonly=True)
        assert records == RECORDS[:2]
        assert size == len(blob) - len(frame_record(*RECORDS[2]))
        with open(path, "rb") as handle:
            assert handle.read() == torn

    def test_an_absent_file_holds_no_records(self, tmp_path, head):
        assert _read(str(tmp_path / "none.log"), head) == ([], 0)

    def test_a_short_write_rolls_back_to_the_last_record(self, tmp_path,
                                                          head):
        path = str(tmp_path / "t.log")
        io = FaultyIO(seed=3, short_write=2)
        log = RecordLog(path, "t", head=head, io=io)
        log.append(*RECORDS[0])
        with pytest.raises(OSError, match="short write"):
            log.append(*RECORDS[1])
        assert os.path.getsize(path) == log.size == \
            len(head) + len(frame_record(*RECORDS[0]))
        log.append(*RECORDS[2])
        log.close()
        assert _read(path, head) == ([RECORDS[0], RECORDS[2]],
                                     os.path.getsize(path))

    def test_a_new_log_is_named_before_its_first_append_returns(
            self, tmp_path, head):
        """Under the FaultyIO name model, a file created since its
        directory's last fsync is gone after a crash: the log names a
        new file before writing to it, so a record it returned from
        survives; a crash before the naming takes the file with it."""
        path = str(tmp_path / "t.log")
        io = FaultyIO(seed=4)
        log = RecordLog(path, "t", head=head, io=io)
        log.append(*RECORDS[0])
        log.close()
        io.simulate_crash()
        assert _read(path, head)[0] == RECORDS[:1]

        other = str(tmp_path / "u.log")
        io = FaultyIO(seed=4, crash_at={"t:new-log": 1})
        with pytest.raises(SimulatedCrash):
            RecordLog(other, "t", head=head, io=io).append(*RECORDS[0])
        io.simulate_crash()
        assert not os.path.exists(other)

    def test_crash_points_in_order(self, tmp_path, head):
        """``new-log`` once per new file, ``append`` before each write,
        ``before-fsync`` after the flush of each synced append or
        group commit; a reopened file is not new."""
        path = str(tmp_path / "t.log")
        io = _Announced()
        log = RecordLog(path, "t", head=head, fsync=False, io=io)
        log.append(*RECORDS[0])
        log.append(*RECORDS[1], sync=False)
        log.sync()
        log.close()
        log = RecordLog(path, "t", head=head, fsync=False, io=io)
        log.append(*RECORDS[2])
        log.close()
        assert io.points == ["t:new-log", "t:append", "t:before-fsync",
                             "t:append", "t:before-fsync",
                             "t:append", "t:before-fsync"]
        assert _read(path, head)[0] == RECORDS

    def test_a_foreign_file_is_refused(self, tmp_path, head):
        path = str(tmp_path / "t.log")
        with open(path, "wb") as handle:
            handle.write(b"not a log at all, and longer than the head")
        if head:
            with pytest.raises(ValueError, match="does not start with"):
                _read(path, head)
        else:  # every byte string starts with the empty head
            assert _read(path, head) == ([], 0)


def _request(query, seq):
    return Request(query=query, extras={"user": "u", "rid": f"u:{seq}"})


def test_written_bytes_are_pinned(tmp_path):
    """A fixed sequence -- writes, deletes, a batch of five, twelve
    checkpoints, a compaction of the page file -- leaves these bytes in
    ``pages.log``, the retained ``wal.11.log`` and the live
    ``wal.12.log``, as the build before the record log was shared wrote
    them (but for the manifest's format, ``cvs-paged-store 9`` since
    every store became a forest, and the checksums over it)."""
    data_dir = str(tmp_path / "s")
    core = ServerCore(order=4, data_dir=data_dir, backend="file",
                      fsync=False, shards=2, snapshot_every=10)
    seq = 0
    for i in range(100):
        core.apply_request("u", _request(
            WriteQuery(b"key%03d" % (i % 23), b"value %d" % i), seq))
        seq += 1
        if i % 7 == 3:
            core.apply_request(
                "u", _request(DeleteQuery(b"key%03d" % (i % 11)), seq))
            seq += 1
    core.apply_batch([("u", _request(WriteQuery(b"batch%d" % i, b"b" * i),
                                     seq + i)) for i in range(5)])
    core.close_store()
    digests = {}
    for name in sorted(os.listdir(data_dir)):
        if name.endswith(".log"):
            with open(os.path.join(data_dir, name), "rb") as handle:
                blob = handle.read()
            digests[name] = (len(blob), hashlib.sha256(blob).hexdigest())
    assert digests == {
        "pages.log": (133281, "c17403fbf2cd665a72c48e5a57f32bba"
                              "0cce73f70fcbc3a49e3312ea513e1ef8"),
        "wal.11.log": (956, "7fe73bcecddc32dc0d11c933b72b7beb"
                            "7ba65f3d6f9f61e5285ba995d797de2f"),
        "wal.12.log": (852, "580461ccc678777df390792ee8d5becb"
                            "bad3475aadb88d13629435a016c1615a"),
    }


def _writes(data_dir, backend, count=6, snapshot_every=1000):
    core = ServerCore(order=4, data_dir=data_dir, backend=backend,
                      fsync=False, snapshot_every=snapshot_every)
    for seq in range(count):
        core.apply_request("u", _request(WriteQuery(b"k%d" % seq, b"v"), seq))
    core.close_store()


class TestCorruptedLengthPrefix:
    """A length prefix flipped to run past the end of the file reads like
    a torn tail, but the record behind it is whole: its payload ends
    inside the file by its own format, followed by the digest chaining
    it to the record before.  Trimming it would drop it and every acked
    record after it, so recovery refuses, naming the record."""

    @pytest.mark.parametrize("index", [0, 2, 5])
    @pytest.mark.parametrize("backend", ["file", "sqlite"])
    def test_a_flipped_wal_length_is_refused(self, tmp_path, backend, index):
        data_dir = str(tmp_path / "s")
        _writes(data_dir, backend)
        path = os.path.join(data_dir, "wal.1.log")
        size = os.path.getsize(path)
        flip_length(path, b"", index)
        with pytest.raises(WalError, match=f"record {index} .*length prefix "
                                           "was corrupted"):
            ServerCore(order=4, data_dir=data_dir, backend=backend,
                       fsync=False)
        assert os.path.getsize(path) == size  # nothing trimmed

    @pytest.mark.parametrize("index", [0, 1, 3])
    def test_a_flipped_page_file_length_is_refused(self, tmp_path, index):
        data_dir = str(tmp_path / "s")
        _writes(data_dir, "file", snapshot_every=2)  # 4 commit records
        path = os.path.join(data_dir, "pages.log")
        size = os.path.getsize(path)
        flip_length(path, PAGE_LOG_MAGIC, index)
        with pytest.raises(WalError, match=f"record {index} .*length prefix "
                                           "was corrupted"):
            ServerCore(order=4, data_dir=data_dir, backend="file",
                       fsync=False)
        assert os.path.getsize(path) == size

    def test_every_cut_of_the_last_wal_record_still_trims(self, tmp_path):
        data_dir = str(tmp_path / "s")
        _writes(data_dir, "sqlite", count=3)
        path = os.path.join(data_dir, "wal.1.log")
        with open(path, "rb") as handle:
            blob = handle.read()
        records, _end = parse_records(memoryview(blob))
        last = len(blob) - len(frame_record(*records[-1]))
        for cut in range(last, len(blob)):
            with open(path, "wb") as handle:
                handle.write(blob[:cut])
            store = ServerStore(data_dir, backend="sqlite", fsync=False)
            chain = store.load_snapshot()[4]
            assert len(store.wal_records(chain)) == 2, cut
            store.close()
            assert os.path.getsize(path) == last

    def test_every_cut_of_the_last_page_file_record_still_trims(
            self, tmp_path):
        data_dir = str(tmp_path / "s")
        _writes(data_dir, "file", count=2, snapshot_every=2)
        path = os.path.join(data_dir, "pages.log")
        with open(path, "rb") as handle:
            blob = handle.read()
        records, _end = parse_records(memoryview(blob)[len(PAGE_LOG_MAGIC):])
        last = len(blob) - len(frame_record(*records[-1]))
        for cut in range(last, len(blob)):
            with open(path, "wb") as handle:
                handle.write(blob[:cut])
            FilePageStore(path, fsync=False).close()
            assert os.path.getsize(path) == last, cut


class TestNewerLogs:
    """A log newer than the live one is read without its start chain
    (the checkpoint it chains from was lost).  A record whose length
    prefix runs past the end of the file while a whole frame and a
    digest's worth of bytes follow it is misframed, not torn: such a log
    is refused by name, never deleted as one that was never acked into."""

    def _lost_checkpoint(self, data_dir):
        """35 writes on sqlite whose third commit lied (the lying-commit
        tamper cell): wal.3.log and wal.4.log hold acked writes newer
        than the manifest."""
        io = FaultyIO(seed=bench_storage.SEED, lose_commit=3)
        core = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                          fsync=True, shards=bench_storage.SHARDS,
                          snapshot_every=bench_storage.SNAPSHOT_EVERY, io=io)
        bench_storage._run_until_crash(core, bench_storage._ops(35))
        core.store.close()
        io.simulate_crash()
        assert sorted(os.listdir(data_dir)) == ["pages.db", "wal.3.log", "wal.4.log"]
        return io

    def test_newer_logs_with_flipped_first_lengths_are_refused(self, tmp_path):
        data_dir = str(tmp_path / "s")
        io = self._lost_checkpoint(data_dir)
        for name in ("wal.3.log", "wal.4.log"):
            flip_length(os.path.join(data_dir, name), b"", 0)
        with pytest.raises(WalError, match="wal.3.log' record 0 .*length "
                                           "prefix was corrupted"):
            ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                       fsync=True, shards=bench_storage.SHARDS, io=io)
        assert sorted(os.listdir(data_dir)) == ["pages.db", "wal.3.log", "wal.4.log"]

    def test_a_newer_log_torn_in_its_first_record_is_dropped(self, tmp_path):
        """A newer log whose first append never returned holds no acked
        write: cut anywhere in its one record -- the length prefix, the
        payload or the digest -- it is deleted and the store opens."""
        data_dir = str(tmp_path / "s")
        _writes(data_dir, "sqlite", count=3)
        with open(os.path.join(data_dir, "wal.1.log"), "rb") as handle:
            blob = handle.read()
        first = len(frame_record(*parse_records(memoryview(blob))[0][0]))
        newer = os.path.join(data_dir, "wal.2.log")
        for cut in range(1, first):
            with open(newer, "wb") as handle:
                handle.write(blob[:cut])
            core = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                              fsync=False)
            assert core.state.ctr == 3, cut
            core.close_store()
            assert not os.path.exists(newer), cut
