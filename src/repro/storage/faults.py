"""A fault-injecting I/O layer for the storage engine and the WAL.

Durability code is exactly as trustworthy as the worst thing the disk
can do to it, so this module gives the recovery tests a disk that does
those things on purpose:

* **torn writes** -- a crash persists only a prefix of un-fsynced
  appended data (page-cache writeback is not atomic);
* **short writes** -- a ``write()`` stores only part of its buffer and
  then fails;
* **failed fsync** -- ``fsync`` raises (EIO), as real disks do;
* **lying fsync** -- ``fsync`` reports success but the data is still
  volatile and a crash discards it (the infamous consumer-drive cache);
* **bit-rot on read** -- a stored page comes back with a flipped byte;
* **ENOSPC** -- writes fail once a byte budget is exhausted;
* **crash points** -- the engine announces every interesting moment
  (mid page write, post checkpoint-commit, between rename and directory
  fsync, mid compaction) and the plan can kill the process there.

The model is a *durable image* per file: writes hit the real filesystem
immediately (the running process sees its own writes, like an OS page
cache), but the shim's durable image advances only on a successful,
honest ``fsync``/``fsync_dir``.  A name belongs to its directory: a
file created since the directory's last honest ``fsync_dir`` is absent
after a crash, however often its own bytes were fsynced (and a rename or
unlink not yet synced is undone).  :meth:`FaultyIO.simulate_crash`
rewrites every touched file back to its durable image -- precisely what
power loss does to un-synced state -- after which the recovery path runs
against the survivors.

:class:`RealIO` is the production pass-through; every durability
primitive in :mod:`repro.net.wal` and :mod:`repro.storage.pagestore`
routes through one of these shims.
"""

from __future__ import annotations

import errno
import os
import random

#: sentinel plan value: fire on every occurrence, not just the Nth.
ALWAYS = "always"


class SimulatedCrash(BaseException):
    """The fault plan killed the process at a crash point.

    Derives from ``BaseException`` so ordinary ``except Exception``
    cleanup handlers cannot accidentally swallow the "power is gone"
    signal and keep writing.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at {point}")
        self.point = point


class _RealFile:
    """Thin wrapper giving real files the shim handle surface."""

    def __init__(self, handle) -> None:
        self._handle = handle

    def write(self, data: bytes) -> int:
        return self._handle.write(data)

    def flush(self) -> None:
        self._handle.flush()

    def fsync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()


class IoShim:
    """The I/O surface durability code is written against.

    The base class *is* the production implementation (real filesystem,
    no faults); :class:`FaultyIO` overrides pieces of it.
    """

    def open(self, path: str, mode: str) -> _RealFile:
        return _RealFile(open(path, mode))

    def read_file(self, path: str) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        os.remove(path)

    def fsync_dir(self, path: str) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def truncate_file(self, path: str, size: int) -> None:
        with open(path, "r+b") as handle:
            handle.truncate(size)

    def crash_point(self, name: str) -> None:
        """Announce an interesting durability moment; no-op for real I/O."""

    # -- page-store hooks --------------------------------------------------

    def corrupt_page(self, kind: str, shard: int, gen: int, seq: int,
                     blob: bytes) -> bytes:
        """Bit-rot hook: the blob a page read actually returns."""
        return blob

    def pre_commit(self, path: str) -> None:
        """About to commit a page-store transaction on ``path``."""

    def commit_gate(self, path: str) -> None:
        """Raise to make the commit fail (ENOSPC / I/O error)."""


#: shared production shim; stateless, so one instance serves everyone.
REAL_IO = IoShim()


class _FaultyFile:
    """A file handle whose fsync may fail or lie and whose writes may
    tear, shorten, or hit ENOSPC."""

    def __init__(self, io: "FaultyIO", path: str, handle) -> None:
        self._io = io
        self._path = path
        self._handle = handle

    def write(self, data: bytes) -> int:
        io = self._io
        io.crash_point("file:mid-write")
        budget = io._enospc_budget
        if budget is not None:
            if budget <= 0:
                raise OSError(errno.ENOSPC, "no space left on device (injected)")
            if len(data) > budget:
                # Real ENOSPC appends what fits before failing.
                self._handle.write(data[:budget])
                io._enospc_budget = 0
                raise OSError(errno.ENOSPC, "no space left on device (injected)")
            io._enospc_budget = budget - len(data)
        if io._armed("short_write") and len(data) > 1:
            kept = io._rng.randrange(1, len(data))
            self._handle.write(data[:kept])
            raise OSError(errno.EIO, f"short write: {kept}/{len(data)} bytes (injected)")
        return self._handle.write(data)

    def flush(self) -> None:
        self._handle.flush()

    def fsync(self) -> None:
        io = self._io
        self._handle.flush()
        if io._armed("fail_fsync"):
            raise OSError(errno.EIO, "fsync failed (injected)")
        if io._armed("lying_fsync"):
            return  # claims success; the durable image does not advance
        os.fsync(self._handle.fileno())
        io._make_durable(self._path)

    def close(self) -> None:
        self._handle.close()


class FaultyIO(IoShim):
    """An :class:`IoShim` that executes a seeded fault plan.

    Plan entries are occurrence numbers: ``crash_at={"wal:append": 3}``
    crashes the third time that point is announced; :data:`ALWAYS`
    fires every time.  All randomness (torn-tail cut points, flipped
    bytes, short-write lengths) derives from ``seed``.
    """

    def __init__(
        self,
        seed: int = 0,
        crash_at: dict[str, int | str] | None = None,
        lying_fsync: int | str | None = None,
        fail_fsync: int | str | None = None,
        short_write: int | str | None = None,
        torn_tail: bool = True,
        enospc_after_bytes: int | None = None,
        bitrot_page: tuple[str, int] | None = None,
        bitrot_read: int | str | None = None,
        lose_commit: int | str | None = None,
        fail_commit: int | str | None = None,
    ) -> None:
        self._rng = random.Random(seed)
        self.crash_at = dict(crash_at or {})
        self.torn_tail = torn_tail
        self._plan: dict[str, int | str | None] = {
            "lying_fsync": lying_fsync,
            "fail_fsync": fail_fsync,
            "short_write": short_write,
            "bitrot_read": bitrot_read,
            "lose_commit": lose_commit,
            "fail_commit": fail_commit,
        }
        self.bitrot_page = bitrot_page
        self._enospc_budget = enospc_after_bytes
        self._hits: dict[str, int] = {}
        #: path -> durable bytes (None = durably absent)
        self._durable: dict[str, bytes | None] = {}
        #: renames whose directory entry is not yet durable
        self._pending_renames: list[tuple[str, str, bytes | None]] = []
        #: files created since their directory's last fsync_dir
        self._unnamed: set[str] = set()
        #: files whose durable image a lost commit froze
        self._lost: set[str] = set()
        self.crashed = False
        self.crash_count = 0

    # -- plan bookkeeping --------------------------------------------------

    def _count(self, name: str) -> int:
        self._hits[name] = self._hits.get(name, 0) + 1
        return self._hits[name]

    def _armed(self, fault: str) -> bool:
        want = self._plan.get(fault)
        if want is None:
            return False
        hit = self._count(fault)
        return want == ALWAYS or hit == want

    def crash_point(self, name: str) -> None:
        want = self.crash_at.get(name)
        if want is None:
            return
        hit = self._count(f"crash:{name}")
        if want == ALWAYS or hit == want:
            self.crash_count += 1
            raise SimulatedCrash(name)

    # -- durable-image model -----------------------------------------------

    def _track(self, path: str) -> None:
        """First touch: whatever is on disk now is considered durable."""
        path = os.path.abspath(path)
        if path not in self._durable:
            if os.path.isfile(path):
                with open(path, "rb") as handle:
                    self._durable[path] = handle.read()
            else:
                self._durable[path] = None

    def _make_durable(self, path: str) -> None:
        path = os.path.abspath(path)
        if path in self._lost:
            return
        with open(path, "rb") as handle:
            self._durable[path] = handle.read()

    def open(self, path: str, mode: str) -> _FaultyFile:
        self._track(path)
        path = os.path.abspath(path)
        if not mode.startswith("r") and not os.path.exists(path):
            self._unnamed.add(path)
        return _FaultyFile(self, path, open(path, mode))

    def read_file(self, path: str) -> bytes:
        with open(path, "rb") as handle:
            blob = handle.read()
        if blob and self._armed("bitrot_read"):
            position = self._rng.randrange(len(blob))
            flipped = blob[position] ^ (1 << self._rng.randrange(8))
            blob = blob[:position] + bytes([flipped]) + blob[position + 1:]
        return blob

    def replace(self, src: str, dst: str) -> None:
        src, dst = os.path.abspath(src), os.path.abspath(dst)
        self._track(src)
        self._track(dst)
        # What the new name will durably hold once the directory entry
        # is synced: the *durable* content of the source file.
        self._pending_renames.append((src, dst, self._durable.get(src)))
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        self._track(path)
        os.remove(path)
        # Like rename, an unlink is only durable after a directory
        # fsync; keep the durable image so a crash resurrects the file.
        self._pending_renames.append((os.path.abspath(path), "", None))

    def fsync_dir(self, path: str) -> None:
        if self._armed("fail_fsync"):
            raise OSError(errno.EIO, "directory fsync failed (injected)")
        if self._armed("lying_fsync"):
            return
        super().fsync_dir(path)
        directory = os.path.abspath(path)
        self._unnamed = {name for name in self._unnamed
                         if os.path.dirname(name) != directory}
        remaining: list[tuple[str, str, bytes | None]] = []
        for src, dst, image in self._pending_renames:
            if os.path.dirname(src) != directory and \
                    (not dst or os.path.dirname(dst) != directory):
                remaining.append((src, dst, image))
                continue
            if dst and dst not in self._lost:
                self._durable[dst] = image
            self._durable[src] = None
        self._pending_renames = remaining

    def truncate_file(self, path: str, size: int) -> None:
        self._track(path)
        super().truncate_file(path, size)

    # -- page-store hooks --------------------------------------------------

    def corrupt_page(self, kind: str, shard: int, gen: int, seq: int,
                     blob: bytes) -> bytes:
        target = self.bitrot_page
        if target is None or not blob:
            return blob
        want_kind, want_shard = target
        if want_kind not in (kind, "any") or want_shard not in (shard, -1):
            return blob
        # Rot the first matching page read, once.
        self.bitrot_page = None
        position = self._rng.randrange(len(blob))
        flipped = blob[position] ^ (1 << self._rng.randrange(8))
        return blob[:position] + bytes([flipped]) + blob[position + 1:]

    def pre_commit(self, path: str) -> None:
        if self._plan.get("lose_commit") is None:
            return
        if self._armed("lose_commit"):
            # Model a lying fsync inside the page store: remember the
            # pre-commit file image; a crash rolls back to it even
            # though the store reported this commit -- and every later
            # one -- durable.
            path = os.path.abspath(path)
            if os.path.isfile(path):
                with open(path, "rb") as handle:
                    self._durable[path] = handle.read()
            else:
                self._durable[path] = None
            self._lost.add(path)

    def commit_gate(self, path: str) -> None:
        if self._enospc_budget is not None and self._enospc_budget <= 0:
            raise OSError(errno.ENOSPC, "no space left on device (injected)")
        if self._armed("fail_commit"):
            raise OSError(errno.EIO, "commit failed (injected)")

    # -- the crash ---------------------------------------------------------

    def simulate_crash(self) -> None:
        """Lose all volatile state: rewrite every touched file back to
        its durable image (optionally keeping a torn prefix of appended
        but un-synced tails)."""
        self.crashed = True
        self._pending_renames = []
        unnamed, self._unnamed = self._unnamed, set()
        for path, image in self._durable.items():
            exists = os.path.isfile(path)
            if image is None or path in unnamed:
                if exists:
                    os.remove(path)
                continue
            current = b""
            if exists:
                with open(path, "rb") as handle:
                    current = handle.read()
            if current == image:
                continue
            survivor = image
            if (self.torn_tail and path not in self._lost
                    and len(current) > len(image)
                    and current.startswith(image)):
                # The un-synced tail of an append-mode file: page
                # writeback may have persisted any prefix of it.
                tail = current[len(image):]
                kept = self._rng.randrange(0, len(tail) + 1)
                survivor = image + tail[:kept]
            with open(path, "wb") as handle:
                handle.write(survivor)
