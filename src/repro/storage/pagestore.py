"""Pluggable page stores: the disk layer under the Merkle forest.

A :class:`PageStore` holds two things, committed together:

* **pages** -- opaque blobs keyed ``(kind, shard, generation, seq)``.
  The snapshot engine (:mod:`repro.storage.engine`) serialises each
  shard tree into a ``"nodes"`` page stream (structure + separator
  keys, read back in ``seq`` order) and one ``"entries"`` page per leaf
  (``seq`` is the leaf's page id, read back by key), so a million-entry
  shard is written and read back page by page instead of as one
  monolithic blob, and a checkpoint writes only the leaves that changed.
* **meta** -- small key->bytes records (the checkpoint manifest: per
  shard generation + root, the WAL chain heads, protocol state).

Every page carries a domain-separated SHA-256 checksum over its full
key *and* payload, verified on read: a flipped bit (or a page served
under the wrong key) raises :class:`CorruptPageError`, which the
recovery path turns into shard quarantine + WAL repair rather than a
silent wrong root.

Two implementations:

* :class:`MemoryPageStore` -- dict-backed, transactional, for tests and
  as the reference semantics.
* :class:`SqlitePageStore` -- the real disk backend (stdlib
  ``sqlite3``), one transaction per checkpoint, ``synchronous=FULL``
  when fsync is on.  Fault injection happens at this API boundary (the
  shim cannot interpose sqlite's own syscalls): commit gates, lying
  commits, and read-side bit-rot all route through the
  :class:`~repro.storage.faults.IoShim` hooks.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3

from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.storage.faults import REAL_IO, IoShim

_PAGES_WRITTEN = _registry.counter(
    "storage.pages_written", "checkpoint pages written to the page store")
_PAGES_READ = _registry.counter(
    "storage.pages_read", "checkpoint pages read back (checksum verified)")
_PAGE_BYTES = _registry.counter(
    "storage.page_bytes_written", "page payload bytes written")
_META_BYTES = _registry.counter(
    "storage.meta_bytes_written", "meta record bytes written (the manifest)")
_CHECKSUM_FAILURES = _registry.counter(
    "storage.checksum_failures", "pages rejected by checksum verification")

_CHECKSUM_DOMAIN = b"\x0astorage-page"


class StorageError(Exception):
    """The page store could not complete an operation."""


class CorruptPageError(StorageError):
    """A page failed checksum verification (bit-rot or tamper)."""

    def __init__(self, kind: str, shard: int, gen: int, seq: int) -> None:
        super().__init__(
            f"page ({kind!r}, shard={shard}, gen={gen}, seq={seq}) "
            "failed checksum verification")
        self.kind = kind
        self.shard = shard
        self.gen = gen
        self.seq = seq


def page_checksum(kind: str, shard: int, gen: int, seq: int,
                  blob: bytes) -> bytes:
    """Domain-separated checksum binding the payload to its full key."""
    hasher = hashlib.sha256()
    hasher.update(_CHECKSUM_DOMAIN)
    hasher.update(f"{kind}|{shard}|{gen}|{seq}|{len(blob)}|".encode("ascii"))
    hasher.update(blob)
    return hasher.digest()


def _verified(io: IoShim, kind: str, shard: int, gen: int, seq: int,
              blob: bytes, checksum: bytes) -> bytes:
    """What a read of one stored page returns: the bytes the disk hands
    back (``io.corrupt_page`` is the bit-rot hook), checked against the
    checksum stored with them.  Every read path goes through here."""
    if isinstance(blob, bytes):  # a doctored row may hold any sqlite type
        blob = io.corrupt_page(kind, shard, gen, seq, blob)
    if not isinstance(blob, bytes) or \
            page_checksum(kind, shard, gen, seq, blob) != checksum:
        if _obs.enabled:
            _CHECKSUM_FAILURES.inc()
        raise CorruptPageError(kind, shard, gen, seq)
    if _obs.enabled:
        _PAGES_READ.inc()
    return blob


class PageStore:
    """Abstract page + meta store with transactional commit.

    Usage protocol: ``begin()``, any number of ``write_page`` /
    ``put_meta`` / ``delete_page`` / ``drop_generation`` calls, then
    ``commit()`` (all become visible and durable together) or
    ``rollback()``.  Reads see only committed state.
    """

    def begin(self) -> None:
        raise NotImplementedError

    def commit(self) -> None:
        raise NotImplementedError

    def rollback(self) -> None:
        raise NotImplementedError

    def write_page(self, kind: str, shard: int, gen: int, seq: int,
                   blob: bytes) -> None:
        raise NotImplementedError

    def read_pages(self, kind: str, shard: int, gen: int):
        """Yield committed page blobs in ``seq`` order, checksum-verified."""
        raise NotImplementedError

    def read_page(self, kind: str, shard: int, gen: int,
                  seq: int) -> bytes | None:
        """One committed page, checksum-verified; ``None`` if absent."""
        raise NotImplementedError

    def page_count(self, kind: str, shard: int, gen: int) -> int:
        raise NotImplementedError

    def page_keys(self, kind: str, shard: int) -> list[tuple[int, int]]:
        """The ``(generation, seq)`` of every committed ``kind`` page of
        ``shard``, sorted."""
        raise NotImplementedError

    def generations(self, shard: int) -> list[int]:
        """Committed generations holding at least one page for ``shard``."""
        raise NotImplementedError

    def delete_page(self, kind: str, shard: int, gen: int, seq: int) -> None:
        raise NotImplementedError

    def drop_generation(self, kind: str, shard: int, gen: int) -> None:
        """Delete every ``kind`` page ``shard`` holds under ``gen``."""
        raise NotImplementedError

    def put_meta(self, key: str, value: bytes) -> None:
        raise NotImplementedError

    def get_meta(self, key: str) -> bytes | None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class MemoryPageStore(PageStore):
    """Dict-backed reference implementation (transactional, volatile)."""

    def __init__(self, io: IoShim | None = None) -> None:
        self.io = io or REAL_IO
        self._pages: dict[tuple[str, int, int, int], tuple[bytes, bytes]] = {}
        self._meta: dict[str, bytes] = {}
        self._staged: list | None = None

    def begin(self) -> None:
        if self._staged is not None:
            raise StorageError("transaction already open")
        self._staged = []

    def _stage(self, op) -> None:
        if self._staged is None:
            raise StorageError("no open transaction")
        self._staged.append(op)

    def commit(self) -> None:
        if self._staged is None:
            raise StorageError("no open transaction")
        self.io.crash_point("pagestore:pre-commit")
        for op in self._staged:
            op()
        self._staged = None
        self.io.crash_point("pagestore:post-commit")

    def rollback(self) -> None:
        self._staged = None

    def write_page(self, kind: str, shard: int, gen: int, seq: int,
                   blob: bytes) -> None:
        self.io.crash_point("pagestore:page-write")
        checksum = page_checksum(kind, shard, gen, seq, blob)
        self._stage(lambda: self._pages.__setitem__(
            (kind, shard, gen, seq), (blob, checksum)))
        if _obs.enabled:
            _PAGES_WRITTEN.inc()
            _PAGE_BYTES.inc(len(blob))

    def read_pages(self, kind: str, shard: int, gen: int):
        for key in sorted(k for k in self._pages
                          if k[:3] == (kind, shard, gen)):
            yield self.read_page(*key)

    def read_page(self, kind: str, shard: int, gen: int,
                  seq: int) -> bytes | None:
        stored = self._pages.get((kind, shard, gen, seq))
        if stored is None:
            return None
        return _verified(self.io, kind, shard, gen, seq, *stored)

    def page_count(self, kind: str, shard: int, gen: int) -> int:
        return sum(1 for k in self._pages if k[:3] == (kind, shard, gen))

    def page_keys(self, kind: str, shard: int) -> list[tuple[int, int]]:
        return sorted(k[2:] for k in self._pages if k[:2] == (kind, shard))

    def generations(self, shard: int) -> list[int]:
        return sorted({k[2] for k in self._pages if k[1] == shard})

    def delete_page(self, kind: str, shard: int, gen: int, seq: int) -> None:
        self._stage(lambda: self._pages.pop((kind, shard, gen, seq), None))

    def drop_generation(self, kind: str, shard: int, gen: int) -> None:
        doomed = [k for k in self._pages if k[:3] == (kind, shard, gen)]
        self._stage(lambda: [self._pages.pop(k, None) for k in doomed])

    def put_meta(self, key: str, value: bytes) -> None:
        self._stage(lambda: self._meta.__setitem__(key, value))
        if _obs.enabled:
            _META_BYTES.inc(len(value))

    def get_meta(self, key: str) -> bytes | None:
        return self._meta.get(key)

    def close(self) -> None:
        self._staged = None


class SqlitePageStore(PageStore):
    """SQLite-backed page store: the ``--backend sqlite`` disk engine.

    One file (``pages.db``) holds both tables; a checkpoint is a single
    ``BEGIN IMMEDIATE ... COMMIT`` transaction, so a crash at any point
    before the commit leaves the previous checkpoint fully intact --
    sqlite's rollback journal provides the page-level atomicity, our
    per-page checksums provide tamper/rot *detection* on top of it.
    """

    FILE = "pages.db"

    def __init__(self, path: str, fsync: bool = True,
                 io: IoShim | None = None, readonly: bool = False) -> None:
        self.path = path
        self.io = io or REAL_IO
        self._in_txn = False
        try:
            if readonly:
                uri = f"file:{path}?mode=ro"
                self._conn = sqlite3.connect(uri, uri=True)
            else:
                self._conn = sqlite3.connect(path, isolation_level=None)
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open page store {path!r}: {exc}") from exc
        try:
            if not readonly:
                # FULL + rollback journal: a committed checkpoint
                # survives power loss; OFF is the tests' speed mode.
                self._conn.execute(
                    f"PRAGMA synchronous={'FULL' if fsync else 'OFF'}")
                self._conn.execute("""
                    CREATE TABLE IF NOT EXISTS meta (
                        key TEXT PRIMARY KEY,
                        value BLOB NOT NULL)""")
                self._conn.execute("""
                    CREATE TABLE IF NOT EXISTS pages (
                        kind TEXT NOT NULL,
                        shard INTEGER NOT NULL,
                        gen INTEGER NOT NULL,
                        seq INTEGER NOT NULL,
                        blob BLOB NOT NULL,
                        checksum BLOB NOT NULL,
                        PRIMARY KEY (kind, shard, gen, seq))""")
        except sqlite3.Error as exc:
            raise StorageError(f"cannot initialise page store: {exc}") from exc

    def begin(self) -> None:
        if self._in_txn:
            raise StorageError("transaction already open")
        try:
            self._conn.execute("BEGIN IMMEDIATE")
        except sqlite3.Error as exc:
            raise StorageError(f"cannot begin transaction: {exc}") from exc
        self._in_txn = True

    def commit(self) -> None:
        if not self._in_txn:
            raise StorageError("no open transaction")
        self.io.pre_commit(self.path)
        try:
            self.io.commit_gate(self.path)
            self.io.crash_point("pagestore:pre-commit")
            self._conn.execute("COMMIT")
        except (OSError, sqlite3.Error) as exc:
            self._rollback_quietly()
            raise StorageError(f"checkpoint commit failed: {exc}") from exc
        finally:
            self._in_txn = False
        self.io.crash_point("pagestore:post-commit")

    def _rollback_quietly(self) -> None:
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass

    def rollback(self) -> None:
        if self._in_txn:
            self._rollback_quietly()
            self._in_txn = False

    def write_page(self, kind: str, shard: int, gen: int, seq: int,
                   blob: bytes) -> None:
        if not self._in_txn:
            raise StorageError("write_page outside a transaction")
        self.io.crash_point("pagestore:page-write")
        try:
            self.io.commit_gate(self.path)  # ENOSPC surfaces at write time
        except OSError as exc:
            raise StorageError(f"page write failed: {exc}") from exc
        checksum = page_checksum(kind, shard, gen, seq, blob)
        try:
            self._conn.execute(
                "INSERT OR REPLACE INTO pages VALUES (?,?,?,?,?,?)",
                (kind, shard, gen, seq, blob, checksum))
        except sqlite3.Error as exc:
            raise StorageError(f"page write failed: {exc}") from exc
        if _obs.enabled:
            _PAGES_WRITTEN.inc()
            _PAGE_BYTES.inc(len(blob))

    def read_pages(self, kind: str, shard: int, gen: int):
        cursor = self._conn.execute(
            "SELECT seq, blob, checksum FROM pages "
            "WHERE kind=? AND shard=? AND gen=? ORDER BY seq",
            (kind, shard, gen))
        for seq, blob, checksum in cursor:
            yield _verified(self.io, kind, shard, gen, seq, blob, checksum)

    def read_page(self, kind: str, shard: int, gen: int,
                  seq: int) -> bytes | None:
        row = self._conn.execute(
            "SELECT blob, checksum FROM pages "
            "WHERE kind=? AND shard=? AND gen=? AND seq=?",
            (kind, shard, gen, seq)).fetchone()
        if row is None:
            return None
        return _verified(self.io, kind, shard, gen, seq, *row)

    def page_count(self, kind: str, shard: int, gen: int) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM pages WHERE kind=? AND shard=? AND gen=?",
            (kind, shard, gen)).fetchone()
        return int(row[0])

    def page_keys(self, kind: str, shard: int) -> list[tuple[int, int]]:
        rows = self._conn.execute(
            "SELECT gen, seq FROM pages WHERE kind=? AND shard=? "
            "ORDER BY gen, seq", (kind, shard)).fetchall()
        return [(int(gen), int(seq)) for gen, seq in rows]

    def page_bytes(self, kind: str, shard: int, gen: int) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(SUM(LENGTH(blob)), 0) FROM pages "
            "WHERE kind=? AND shard=? AND gen=?",
            (kind, shard, gen)).fetchone()
        return int(row[0])

    def generations(self, shard: int) -> list[int]:
        rows = self._conn.execute(
            "SELECT DISTINCT gen FROM pages WHERE shard=? ORDER BY gen",
            (shard,)).fetchall()
        return [int(r[0]) for r in rows]

    def delete_page(self, kind: str, shard: int, gen: int, seq: int) -> None:
        if not self._in_txn:
            raise StorageError("delete_page outside a transaction")
        self._conn.execute(
            "DELETE FROM pages WHERE kind=? AND shard=? AND gen=? AND seq=?",
            (kind, shard, gen, seq))

    def drop_generation(self, kind: str, shard: int, gen: int) -> None:
        if not self._in_txn:
            raise StorageError("drop_generation outside a transaction")
        self._conn.execute(
            "DELETE FROM pages WHERE kind=? AND shard=? AND gen=?",
            (kind, shard, gen))

    def put_meta(self, key: str, value: bytes) -> None:
        if not self._in_txn:
            raise StorageError("put_meta outside a transaction")
        self._conn.execute(
            "INSERT OR REPLACE INTO meta VALUES (?,?)", (key, value))
        if _obs.enabled:
            _META_BYTES.inc(len(value))

    def get_meta(self, key: str) -> bytes | None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key=?", (key,)).fetchone()
        return None if row is None else bytes(row[0])

    def close(self) -> None:
        self.rollback()
        self._conn.close()


def open_page_store(data_dir: str, fsync: bool = True,
                    io: IoShim | None = None,
                    readonly: bool = False) -> SqlitePageStore:
    """Open (creating if needed) the sqlite page store in ``data_dir``."""
    if not readonly:
        os.makedirs(data_dir, exist_ok=True)
    return SqlitePageStore(
        os.path.join(data_dir, SqlitePageStore.FILE),
        fsync=fsync, io=io, readonly=readonly)
