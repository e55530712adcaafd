"""Durable file primitives shared by every persistence path.

``tmp + os.replace`` alone is *not* crash-durable: POSIX only promises
the rename is atomic, not that it survives power loss -- until the
containing directory's entry is fsynced, a crash can resurrect the old
file (or leave neither name).  Every snapshot, evidence bundle, and
trust-anchor write in the tree therefore goes through
:func:`atomic_write`, which does the full dance::

    write tmp -> fsync(tmp) -> rename over target -> fsync(directory)

All steps route through an :class:`~repro.storage.faults.IoShim`, so
the fault-injection harness can crash the sequence at any point and the
recovery tests can prove each prefix of it is safe.

:class:`DirLock` is the companion guard: an ``flock``-held lock file
that keeps two server processes from opening the same data directory
(and hence the same WAL) concurrently.
"""

from __future__ import annotations

import os

from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry

_ATOMIC_WRITES = _registry.counter(
    "storage.atomic_writes", "tmp+rename+dir-fsync file replacements")

try:  # pragma: no cover - fcntl is always present on the platforms we run
    import fcntl
except ImportError:  # pragma: no cover - windows fallback: lock is advisory
    fcntl = None


class LockError(Exception):
    """The data directory is already locked by another process."""


def fsync_dir(path: str) -> None:
    """fsync a *directory*, making renames/creates inside it durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str, data: bytes, fsync: bool = True, io=None) -> None:
    """Atomically and durably replace ``path`` with ``data``.

    With ``fsync=False`` (test/benchmark speed mode) the rename is still
    atomic but durability is not forced.  ``io`` is an optional
    :class:`~repro.storage.faults.IoShim`; the default performs real
    filesystem operations.
    """
    if io is None:
        from repro.storage.faults import REAL_IO
        io = REAL_IO
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
