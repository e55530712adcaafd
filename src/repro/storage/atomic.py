"""Durable file primitives shared by every persistence path.

``tmp + os.replace`` alone is *not* crash-durable: POSIX only promises
the rename is atomic, not that it survives power loss -- until the
containing directory's entry is fsynced, a crash can resurrect the old
file (or leave neither name).  Every snapshot, evidence bundle, and
trust-anchor write in the tree therefore goes through
:func:`atomic_write`, which does the full dance::

    write tmp -> fsync(tmp) -> rename over target -> fsync(directory)

:class:`RecordLog` is the other durable shape, an append-only file of
:func:`frame_record` records: every ``wal.G.log`` and the page file is
one, and each caller keeps only what its records' digests mean.

All steps route through an :class:`~repro.storage.faults.IoShim`, so
the fault-injection harness can crash the sequence at any point and the
recovery tests can prove each prefix of it is safe.

:class:`DirLock` is the companion guard: an ``flock``-held lock file
that keeps two server processes from opening the same data directory
(and hence the same WAL) concurrently.
"""

from __future__ import annotations

import os
import struct

from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.storage.faults import REAL_IO

_ATOMIC_WRITES = _registry.counter(
    "storage.atomic_writes", "tmp+rename+dir-fsync file replacements")

try:  # pragma: no cover - fcntl is always present on the platforms we run
    import fcntl
except ImportError:  # pragma: no cover - windows fallback: lock is advisory
    fcntl = None


class LockError(Exception):
    """The data directory is already locked by another process."""


def atomic_write(path: str, data: bytes, fsync: bool = True, io=None) -> None:
    """Atomically and durably replace ``path`` with ``data``.

    With ``fsync=False`` (test/benchmark speed mode) the rename is still
    atomic but durability is not forced.  ``io`` is an optional
    :class:`~repro.storage.faults.IoShim`; the default performs real
    filesystem operations.
    """
    io = io or REAL_IO
    tmp = path + ".tmp"
    handle = io.open(tmp, "wb")
    try:
        handle.write(data)
        handle.flush()
        if fsync:
            io.crash_point("atomic:before-file-fsync")
            handle.fsync()
    finally:
        handle.close()
    io.crash_point("atomic:before-rename")
    io.replace(tmp, path)
    io.crash_point("atomic:between-rename-and-dirfsync")
    if fsync:
        io.fsync_dir(os.path.dirname(os.path.abspath(path)))
    io.crash_point("atomic:after-dirfsync")
    if _obs.enabled:
        _ATOMIC_WRITES.inc()


_LENGTH = struct.Struct(">I")
_DIGEST_BYTES = 32


def frame_record(payload: bytes, digest: bytes) -> bytes:
    """One log record: ``len(4B) || payload || digest(32B)``."""
    return _LENGTH.pack(len(payload)) + payload + digest


def parse_records(blob) -> tuple[list[tuple[bytes, bytes]], int]:
    """Split a log blob into complete ``(payload, stored digest)`` records.

    Returns the records plus the offset where the last complete record
    ends; bytes past it are a torn tail (the process died mid-append).
    A ``memoryview`` blob yields views into it: nothing is copied.
    """
    records: list[tuple[bytes, bytes]] = []
    position = 0
    while position + 4 <= len(blob):  # else: torn mid length prefix
        (length,) = _LENGTH.unpack_from(blob, position)
        end = position + 4 + length + _DIGEST_BYTES
        if end > len(blob):
            break  # torn mid payload or mid digest
        records.append((blob[position + 4:end - _DIGEST_BYTES],
                        blob[end - _DIGEST_BYTES:end]))
        position = end
    return records, position


class MisframedRecord(Exception):
    """A record whose length prefix was corrupted: it runs past the end
    of the file by its prefix, but its payload ends inside the file by
    its own format and is followed by the digest chaining it to the
    record before it."""


class RecordLog:
    """One append-only file of :func:`frame_record` records behind a
    fixed ``head``: the durability protocol every log of a data
    directory shares.

    :meth:`read` returns the complete records and trims a torn tail --
    an append that never returned -- unless the log is ``readonly``.
    A tail is told from a corrupted length prefix by ``reframe(prev,
    view)``: ``view`` is what follows the tail's prefix up to the end of
    the file, ``prev`` the digest the record chains from (``None`` for
    a first record read without ``start``), and it says
    whether ``view`` starts with a payload its own format delimits,
    followed by the digest chaining that payload to ``prev``.  Such a
    record was written whole, so reading it as torn would drop it and
    every acked record after it: :class:`MisframedRecord` instead.
    :meth:`append` writes one record, flushed and fsynced unless
    ``sync=False`` (:meth:`sync` then covers the group).  A new (absent
    or empty) file's name is made durable before its first record: a
    record fsynced into a file a crash can unname was never durable.
    An ``OSError`` closes the file and truncates it back to the last
    record.  The log keeps its size (one appended to unread reads itself
    first) and announces ``NAME:new-log``, ``NAME:append`` and
    ``NAME:before-fsync`` (written and flushed, not yet fsynced).
    """

    def __init__(self, path: str, name: str, head: bytes = b"",
                 fsync: bool = True, io=None, readonly: bool = False,
                 reframe=None) -> None:
        self.path = path
        self.head = head
        self.reframe = reframe
        self.fsync = fsync
        self.io = io or REAL_IO
        self.readonly = readonly
        #: bytes of the file up to its last complete record (``None``
        #: until the file is read)
        self.size: int | None = None
        self._handle = None
        self._new_log = f"{name}:new-log"
        self._append = f"{name}:append"
        self._before_fsync = f"{name}:before-fsync"

    def read(self, start: bytes | None = None) -> list:
        """The complete ``(payload, digest)`` records, oldest first; an
        absent file holds none.  A file that does not start with the
        head is a :class:`ValueError`, one holding a torn prefix of it
        is empty.  ``start`` is the digest the first record chains from
        (without it, the first record's ``reframe`` is given ``None``)."""
        if not os.path.isfile(self.path):
            self.size = 0
            return []
        blob = self.io.read_file(self.path)
        head = self.head
        if blob.startswith(head):
            body = memoryview(blob)[len(head):]
            records, end = parse_records(body)
            self.size = len(head) + end
            prev = bytes(records[-1][1]) if records else start
            if self.reframe is not None \
                    and len(body) - end >= 4 + _DIGEST_BYTES \
                    and self.reframe(prev, body[end + 4:]):
                (length,) = _LENGTH.unpack_from(body, end)
                raise MisframedRecord(
                    f"{self.path!r} record {len(records)} (offset "
                    f"{self.size}) declares {length} payload bytes, past "
                    "the end of the file, but its payload ends inside the "
                    "file followed by "
                    f"{'a digest' if prev is None else 'its chain digest'}: "
                    "the length prefix was corrupted")
        elif head.startswith(blob):
            records, self.size = [], 0   # the first append died mid-head
        else:
            raise ValueError(f"{self.path!r} does not start with {head!r}")
        if self.size < len(blob) and not self.readonly:
            self.io.truncate_file(self.path, self.size)
        return records

    def append(self, payload: bytes, digest: bytes, sync: bool = True) -> None:
        """Append one record (the head first, on a new file)."""
        if self.size is None:
            self.read()  # appends go after the last complete record
        record = frame_record(payload, digest)
        if self.size == 0:
            record = self.head + record
        try:
            if self._handle is None:
                self._handle = self.io.open(self.path, "ab")
                if self.size == 0:
                    self.io.crash_point(self._new_log)
                    if self.fsync:
                        self.io.fsync_dir(
                            os.path.dirname(os.path.abspath(self.path)))
            self.io.crash_point(self._append)
            self._handle.write(record)
            if sync:
                self.sync()
        except OSError:
            # Whatever prefix of the record reached the file must not
            # sit under the next one, and a new file is named again.
            self.close()
            try:
                self.io.truncate_file(self.path, self.size)
            except OSError:
                pass
            raise
        self.size += len(record)

    def sync(self) -> None:
        """Flush (and fsync) everything appended with ``sync=False``."""
        if self._handle is not None:
            self._handle.flush()
            self.io.crash_point(self._before_fsync)
            if self.fsync:
                self._handle.fsync()

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None


class DirLock:
    """An ``flock``-based exclusive lock on a data directory.

    Two writers on one ``data_dir`` (servers, local commands) would
    interleave WAL appends and corrupt the hash chain; the second opener
    must fail loudly instead.  The lock file records the owning pid so
    the error message can name the conflicting process.  The lock is
    released by :meth:`release` or automatically when the process exits
    (flock semantics), so a crashed server never wedges its directory.
    """

    LOCK_FILE = "data.lock"

    def __init__(self, data_dir: str) -> None:
        self.path = os.path.join(data_dir, self.LOCK_FILE)
        self._handle = open(self.path, "a+")
        try:
            if fcntl is not None:
                fcntl.flock(self._handle.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            self._handle.seek(0)
            owner = self._handle.read().strip() or "unknown pid"
            self._handle.close()
            self._handle = None
            raise LockError(
                f"data directory {data_dir!r} is already locked by another "
                f"process ({owner}); two writers must never share a WAL"
            ) from exc
        self._handle.seek(0)
        self._handle.truncate()
        self._handle.write(f"pid {os.getpid()}\n")
        self._handle.flush()

    @property
    def held(self) -> bool:
        return self._handle is not None

    def release(self) -> None:
        if self._handle is not None:
            if fcntl is not None:
                try:
                    fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
                except OSError:  # pragma: no cover - unlock cannot really fail
                    pass
            self._handle.close()
            self._handle = None
