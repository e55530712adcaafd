"""Pluggable page stores: the disk layer under the Merkle forest.

A :class:`PageStore` holds two things, committed together:

* **pages** -- opaque blobs keyed ``(kind, shard, generation, seq)``.
  The snapshot engine (:mod:`repro.storage.engine`) serialises each
  shard tree into a ``"nodes"`` page stream (structure + separator
  keys, read back in ``seq`` order), one ``"leaves"`` page per leaf and
  one ``"entries"`` page per entry (``seq`` is the page id, read back
  by key), so a million-entry shard is written and read back page by
  page instead of as one monolithic blob, and a checkpoint writes only
  the entries and leaves that changed.
* **meta** -- small key->bytes records (the checkpoint manifest: per
  shard generation + root, the WAL chain heads, protocol state).

Every page carries a domain-separated SHA-256 checksum over its full
key *and* payload, verified on read: a flipped bit (or a page served
under the wrong key) raises :class:`CorruptPageError`, which the
recovery path turns into shard quarantine + WAL repair rather than a
silent wrong root.

Three implementations:

* :class:`MemoryPageStore` -- the committed index, dict-backed and
  transactional: the reference semantics, for tests, and the one index
  the page file is read through.
* :class:`SqlitePageStore` -- ``--backend sqlite`` (stdlib ``sqlite3``),
  one transaction per checkpoint, ``synchronous=FULL`` when fsync is
  on.  Fault injection happens at this API boundary (the shim cannot
  interpose sqlite's own syscalls): commit gates, lying commits, and
  read-side bit-rot all route through the
  :class:`~repro.storage.faults.IoShim` hooks.
* :class:`FilePageStore` -- ``--backend file``: that index over an
  append-only page file where one commit is one record of a
  :class:`~repro.storage.atomic.RecordLog`, the log the WAL is written
  through too.  Every byte it writes, reads, trims or renames goes
  through the shim, so torn tails, short writes and lying fsyncs reach
  the whole checkpoint.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import struct

from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.storage.atomic import (
    MisframedRecord,
    RecordLog,
    atomic_write,
    frame_record,
)
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
_COMPACTIONS = _registry.counter(
    "storage.page_log_compactions", "page files rewritten as their live set")

_CHECKSUM_DOMAIN = b"\x0astorage-page"
_DIGEST_BYTES = 32


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
    """Domain-separated checksum binding the payload to its full key:
    SHA-256 over the key's head, then the payload (never copied)."""
    digest = hashlib.sha256(b"%s%s|%d|%d|%d|%d|" % (
        _CHECKSUM_DOMAIN, kind.encode("ascii"), shard, gen, seq, len(blob)))
    digest.update(blob)
    return digest.digest()


class _WritePoints(dict):
    """Each page kind's crash point, its name built on first use."""

    def __missing__(self, kind: str) -> str:
        name = self[kind] = f"pagestore:{kind}-page-write"
        return name


_WRITE_POINTS = _WritePoints()


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


#: what a transaction stages, and a page file records: put page,
#: delete page, drop generation, put meta
_PUT, _DELETE, _DROP, _META = b"P", b"D", b"G", b"M"
_NO_BODY = (b"", bytes(_DIGEST_BYTES))
_META_DOMAIN = b"\x0astorage-meta"


def _meta_checksum(key: str, value: bytes) -> bytes:
    """Domain-separated checksum binding a meta value to its key."""
    hasher = hashlib.sha256(_META_DOMAIN + key.encode("utf-8") + b"|")
    hasher.update(value)
    return hasher.digest()


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

    def read_many(self, kind: str, shard: int,
                  keys: list[tuple[int, int]]) -> list[bytes | None]:
        """The committed pages at ``keys`` (``(generation, seq)`` pairs),
        checksum-verified and in that order, ``None`` where absent: one
        batched read.  A store that reads from an in-memory index
        answers key by key."""
        return [self.read_page(kind, shard, gen, seq) for gen, seq in keys]

    def page_count(self, kind: str, shard: int, gen: int) -> int:
        raise NotImplementedError

    def page_bytes(self, kind: str, shard: int, gen: int) -> int:
        """Payload bytes of the committed ``kind`` pages of ``gen``."""
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
    """The committed index, dict-backed and transactional: the reference
    semantics, and what :class:`FilePageStore` keeps over its page file.

    A transaction stages op tuples -- put page, delete page, drop
    generation, put meta -- and :meth:`commit` applies them in order
    after :meth:`_persist` (nothing here: the store is volatile)."""

    def __init__(self, io: IoShim | None = None) -> None:
        self.io = io or REAL_IO
        #: (kind, shard, gen) -> seq -> (blob, checksum)
        self._groups: dict[tuple[str, int, int], dict[int, tuple]] = {}
        #: key -> (value, checksum)
        self._meta: dict[str, tuple[bytes, bytes]] = {}
        self._staged: list | None = None
        #: what the live pages and meta values take as page-file ops
        #: (:func:`_op_bytes`), kept as ops apply
        self._live = 0

    def _stage(self, call: str, op: tuple) -> None:
        if self._staged is None:
            raise StorageError(f"{call} outside a transaction")
        self._staged.append(op)

    def begin(self) -> None:
        if self._staged is not None:
            raise StorageError("transaction already open")
        self._staged = []

    def commit(self) -> None:
        if self._staged is None:
            raise StorageError("no open transaction")
        staged, self._staged = self._staged, None
        self._persist(staged)
        for op in staged:
            self._apply(op)
        self.io.crash_point("pagestore:post-commit")

    def _persist(self, ops: list) -> None:
        """Make a commit's ops durable before they apply."""
        self.io.crash_point("pagestore:pre-commit")

    def rollback(self) -> None:
        self._staged = None

    def _apply(self, op: tuple) -> None:
        code, name, shard, gen, seq, body, checksum = op
        key = (name, shard, gen)
        stored = None  # what a put replaces or a delete removes
        if code == _META:
            stored = self._meta.get(name)
            self._meta[name] = (body, checksum)
        elif code == _DROP:
            for blob, _ in self._groups.pop(key, {}).values():
                self._live -= _op_bytes(name, blob)
        elif code == _PUT:
            group = self._groups.setdefault(key, {})
            stored = group.get(seq)
            group[seq] = (body, checksum)
        else:
            group = self._groups.get(key, {})
            stored = group.pop(seq, None)
            if not group:
                self._groups.pop(key, None)
        if stored is not None:
            self._live -= _op_bytes(name, stored[0])
        if code == _PUT or code == _META:
            self._live += _op_bytes(name, body)

    def _admit_page(self) -> None:
        """Refuse a page the store has no room for (a store on disk)."""

    def write_page(self, kind: str, shard: int, gen: int, seq: int,
                   blob: bytes) -> None:
        if self._staged is None:
            raise StorageError("write_page outside a transaction")
        self.io.crash_point("pagestore:page-write")
        self.io.crash_point(_WRITE_POINTS[kind])
        self._admit_page()
        self._staged.append((_PUT, kind, shard, gen, seq, blob,
                             page_checksum(kind, shard, gen, seq, blob)))
        if _obs.enabled:
            _PAGES_WRITTEN.inc()
            _PAGE_BYTES.inc(len(blob))

    def delete_page(self, kind: str, shard: int, gen: int, seq: int) -> None:
        self._stage("delete_page", (_DELETE, kind, shard, gen, seq,
                                    *_NO_BODY))

    def drop_generation(self, kind: str, shard: int, gen: int) -> None:
        self._stage("drop_generation", (_DROP, kind, shard, gen, 0,
                                        *_NO_BODY))

    def put_meta(self, key: str, value: bytes) -> None:
        self._stage("put_meta", (_META, key, 0, 0, 0, value,
                                 _meta_checksum(key, value)))
        if _obs.enabled:
            _META_BYTES.inc(len(value))

    # -- reads (committed state only) --------------------------------------

    def read_pages(self, kind: str, shard: int, gen: int):
        group = self._groups.get((kind, shard, gen), {})
        for seq in sorted(group):
            yield _verified(self.io, kind, shard, gen, seq, *group[seq])

    def read_page(self, kind: str, shard: int, gen: int,
                  seq: int) -> bytes | None:
        stored = self._groups.get((kind, shard, gen), {}).get(seq)
        if stored is None:
            return None
        return _verified(self.io, kind, shard, gen, seq, *stored)

    def page_count(self, kind: str, shard: int, gen: int) -> int:
        return len(self._groups.get((kind, shard, gen), ()))

    def page_bytes(self, kind: str, shard: int, gen: int) -> int:
        return sum(len(blob) for blob, _ in
                   self._groups.get((kind, shard, gen), {}).values())

    def page_keys(self, kind: str, shard: int) -> list[tuple[int, int]]:
        return sorted((gen, seq) for (k, s, gen), group in self._groups.items()
                      if (k, s) == (kind, shard) for seq in group)

    def generations(self, shard: int) -> list[int]:
        return sorted({gen for (_k, s, gen) in self._groups if s == shard})

    def get_meta(self, key: str) -> bytes | None:
        stored = self._meta.get(key)
        return None if stored is None else stored[0]

    def close(self) -> None:
        self._staged = None


#: keys per statement of a batched sqlite read (two bound parameters
#: each, well under sqlite's oldest limit of 999), and page rows per
#: batched insert
_BATCH_KEYS = 256


#: what a statement raises on a failing or corrupted file: a text the
#: file holds (its schema, named in sqlite's message) that is not UTF-8
#: escapes as a decode error
_SQL_ERRORS = (sqlite3.Error, UnicodeDecodeError)


def _marks(values: list) -> str:
    return "?" + ",?" * (len(values) - 1)


class SqlitePageStore(PageStore):
    """SQLite-backed page store: the ``--backend sqlite`` disk engine.

    One file (``pages.db``) holds both tables; a checkpoint is a single
    ``BEGIN IMMEDIATE ... COMMIT`` transaction, so a crash at any point
    before the commit leaves the previous checkpoint fully intact --
    sqlite's rollback journal provides the page-level atomicity, our
    per-page checksums provide tamper/rot *detection* on top of it.
    Every statement's ``sqlite3.Error`` (a full disk, an I/O error)
    surfaces as :class:`StorageError`, the one failure the checkpoint
    path backs off from.
    """

    FILE = "pages.db"

    def __init__(self, path: str, fsync: bool = True,
                 io: IoShim | None = None, readonly: bool = False) -> None:
        self.path = path
        self.io = io or REAL_IO
        self._in_txn = False
        #: rows ``write_page`` staged, inserted before the next statement
        self._pending: list[tuple] = []
        try:
            if readonly:
                uri = f"file:{path}?mode=ro"
                self._conn = sqlite3.connect(uri, uri=True)
            else:
                self._conn = sqlite3.connect(path, isolation_level=None)
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open page store {path!r}: {exc}") from exc
        columns = [row[1] for row in self._all(
            f"cannot open page store {path!r}", "PRAGMA table_info(meta)", ())]
        if columns and "checksum" not in columns:
            self._conn.close()
            raise StorageError(
                f"{path!r} holds meta rows without a checksum, a format "
                "this build does not read: restore it with the build that "
                "wrote it, or start from an empty directory")
        if not readonly:
            # FULL + rollback journal: a committed checkpoint survives
            # power loss; OFF is the tests' speed mode.
            what = "cannot initialise page store"
            self._run(what, f"PRAGMA synchronous={'FULL' if fsync else 'OFF'}")
            self._run(what, """
                CREATE TABLE IF NOT EXISTS meta (
                    key TEXT PRIMARY KEY,
                    value BLOB NOT NULL,
                    checksum BLOB NOT NULL)""")
            self._run(what, """
                CREATE TABLE IF NOT EXISTS pages (
                    kind TEXT NOT NULL,
                    shard INTEGER NOT NULL,
                    gen INTEGER NOT NULL,
                    seq INTEGER NOT NULL,
                    blob BLOB NOT NULL,
                    checksum BLOB NOT NULL,
                    PRIMARY KEY (kind, shard, gen, seq))""")

    def _flush(self) -> None:
        """Insert the page rows ``write_page`` staged: a checkpoint
        inserts its pages with ``executemany``, not a statement each."""
        if self._pending:
            pending, self._pending = self._pending, []
            self._conn.executemany(
                "INSERT OR REPLACE INTO pages VALUES (?,?,?,?,?,?)", pending)

    def _execute(self, sql: str, params: tuple = ()):
        """One statement, after the page rows staged before it."""
        self._flush()
        return self._conn.execute(sql, params)

    def _run(self, what: str, sql: str, params: tuple = ()):
        try:
            return self._execute(sql, params)
        except _SQL_ERRORS as exc:
            raise StorageError(f"{what}: {exc}") from exc

    def _row(self, what: str, sql: str, params: tuple):
        try:
            return self._execute(sql, params).fetchone()
        except _SQL_ERRORS as exc:
            raise StorageError(f"{what}: {exc}") from exc

    def _all(self, what: str, sql: str, params: tuple) -> list:
        try:
            return self._execute(sql, params).fetchall()
        except _SQL_ERRORS as exc:
            raise StorageError(f"{what}: {exc}") from exc

    def _rows(self, what: str, sql: str, params: tuple):
        """Stream rows; only the cursor steps sit inside the wrapper,
        so a caller abandoning the stream touches no statement."""
        cursor = self._run(what, sql, params)
        while True:
            try:
                row = next(cursor, None)
            except _SQL_ERRORS as exc:
                raise StorageError(f"{what}: {exc}") from exc
            if row is None:
                return
            yield row

    def _in_transaction(self, call: str) -> None:
        if not self._in_txn:
            raise StorageError(f"{call} outside a transaction")

    def begin(self) -> None:
        if self._in_txn:
            raise StorageError("transaction already open")
        self._run("cannot begin transaction", "BEGIN IMMEDIATE")
        self._in_txn = True

    def commit(self) -> None:
        if not self._in_txn:
            raise StorageError("no open transaction")
        self.io.pre_commit(self.path)
        try:
            self.io.commit_gate(self.path)
            self.io.crash_point("pagestore:pre-commit")
            self._execute("COMMIT")
        except (OSError, sqlite3.Error) as exc:
            self._rollback_quietly()
            raise StorageError(f"checkpoint commit failed: {exc}") from exc
        finally:
            self._in_txn = False
        self.io.crash_point("pagestore:post-commit")

    def _rollback_quietly(self) -> None:
        self._pending = []
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
        self._in_transaction("write_page")
        self.io.crash_point("pagestore:page-write")
        self.io.crash_point(_WRITE_POINTS[kind])
        try:
            self.io.commit_gate(self.path)  # ENOSPC surfaces at write time
        except OSError as exc:
            raise StorageError(f"page write failed: {exc}") from exc
        self._pending.append((kind, shard, gen, seq, blob,
                              page_checksum(kind, shard, gen, seq, blob)))
        if len(self._pending) >= _BATCH_KEYS:
            try:
                self._flush()
            except sqlite3.Error as exc:
                raise StorageError(f"page write failed: {exc}") from exc
        if _obs.enabled:
            _PAGES_WRITTEN.inc()
            _PAGE_BYTES.inc(len(blob))

    def read_pages(self, kind: str, shard: int, gen: int):
        for seq, blob, checksum in self._rows(
                "page read failed",
                "SELECT seq, blob, checksum FROM pages "
                "WHERE kind=? AND shard=? AND gen=? ORDER BY seq",
                (kind, shard, gen)):
            yield _verified(self.io, kind, shard, gen, seq, blob, checksum)

    def read_page(self, kind: str, shard: int, gen: int,
                  seq: int) -> bytes | None:
        row = self._row(
            "page read failed",
            "SELECT blob, checksum FROM pages "
            "WHERE kind=? AND shard=? AND gen=? AND seq=?",
            (kind, shard, gen, seq))
        if row is None:
            return None
        return _verified(self.io, kind, shard, gen, seq, *row)

    def read_many(self, kind: str, shard: int,
                  keys: list[tuple[int, int]]) -> list[bytes | None]:
        # One statement: ``gen IN .. AND seq IN ..`` walks the primary
        # key (a row-value ``(gen, seq) IN`` would scan the shard), and
        # the few pairs it finds that were not asked for are dropped.
        found: dict[tuple[int, int], bytes] = {}
        for start in range(0, len(keys), _BATCH_KEYS):
            batch = keys[start:start + _BATCH_KEYS]
            gens = sorted({gen for gen, _ in batch})
            seqs = sorted({seq for _, seq in batch})
            wanted = set(batch)
            for gen, seq, blob, checksum in self._all(
                    "page read failed",
                    "SELECT gen, seq, blob, checksum FROM pages "
                    f"WHERE kind=? AND shard=? AND gen IN ({_marks(gens)}) "
                    f"AND seq IN ({_marks(seqs)})",
                    (kind, shard, *gens, *seqs)):
                if (gen, seq) in wanted:
                    found[(gen, seq)] = _verified(
                        self.io, kind, shard, gen, seq, blob, checksum)
        return [found.get(key) for key in keys]

    def page_count(self, kind: str, shard: int, gen: int) -> int:
        row = self._row(
            "page count failed",
            "SELECT COUNT(*) FROM pages WHERE kind=? AND shard=? AND gen=?",
            (kind, shard, gen))
        return int(row[0])

    def page_keys(self, kind: str, shard: int) -> list[tuple[int, int]]:
        return [(int(gen), int(seq)) for gen, seq in self._all(
            "page listing failed",
            "SELECT gen, seq FROM pages WHERE kind=? AND shard=? "
            "ORDER BY gen, seq", (kind, shard))]

    def page_bytes(self, kind: str, shard: int, gen: int) -> int:
        row = self._row(
            "page size query failed",
            "SELECT COALESCE(SUM(LENGTH(blob)), 0) FROM pages "
            "WHERE kind=? AND shard=? AND gen=?",
            (kind, shard, gen))
        return int(row[0])

    def generations(self, shard: int) -> list[int]:
        return [int(row[0]) for row in self._all(
            "generation listing failed",
            "SELECT DISTINCT gen FROM pages WHERE shard=? ORDER BY gen",
            (shard,))]

    def delete_page(self, kind: str, shard: int, gen: int, seq: int) -> None:
        self._in_transaction("delete_page")
        self._run("page delete failed",
                  "DELETE FROM pages WHERE kind=? AND shard=? AND gen=? "
                  "AND seq=?", (kind, shard, gen, seq))

    def drop_generation(self, kind: str, shard: int, gen: int) -> None:
        self._in_transaction("drop_generation")
        self._run("generation drop failed",
                  "DELETE FROM pages WHERE kind=? AND shard=? AND gen=?",
                  (kind, shard, gen))

    def put_meta(self, key: str, value: bytes) -> None:
        self._in_transaction("put_meta")
        self._run("meta write failed",
                  "INSERT OR REPLACE INTO meta VALUES (?,?,?)",
                  (key, value, _meta_checksum(key, value)))
        if _obs.enabled:
            _META_BYTES.inc(len(value))

    def get_meta(self, key: str) -> bytes | None:
        row = self._row("meta read failed",
                        "SELECT value, checksum FROM meta WHERE key=?", (key,))
        if row is None:
            return None
        if not isinstance(row[0], bytes) or _meta_checksum(key, row[0]) != row[1]:
            raise StorageError(
                f"meta record {key!r} of {self.path!r} fails its checksum: "
                "the page store was corrupted or tampered with")
        return row[0]

    def close(self) -> None:
        self.rollback()
        self._conn.close()


#: the page file's first bytes: what it is and which record format
PAGE_LOG_MAGIC = b"cvs-page-log 1\n"
#: the page file is rewritten as its live set at the first checkpoint
#: that finds it more than this many times that rewrite's size
PAGE_LOG_COMPACT_RATIO = 4

_PAGE_LOG_DOMAIN = b"\x0apage-log"
_LOG_GENESIS = hashlib.sha256(_PAGE_LOG_DOMAIN + PAGE_LOG_MAGIC).digest()
#: an op's head: code and name length, the name (a page kind or a meta
#: key), then shard, generation, seq and body length, then the checksum
#: of the body.  Every op has every field; what it does not use is 0.
_HEAD = struct.Struct(">cH")
_FIELDS = struct.Struct(">IQQI")


def _op_bytes(name: str, body: bytes) -> int:
    """What one op costs in the page file."""
    return (_HEAD.size + len(name.encode("utf-8")) + _FIELDS.size
            + _DIGEST_BYTES + len(body))


def _record(chain: bytes, ops) -> tuple[bytes, bytes]:
    """One commit's record payload and the digest it stores: a hash
    chain over every op head since the file was written.  The bodies are
    bound by the checksums in their heads, so the open-time scan hashes
    heads only; a body is checked where it is used."""
    hasher = hashlib.sha256(_PAGE_LOG_DOMAIN + chain)
    parts = []
    for code, name, shard, gen, seq, body, checksum in ops:
        raw = name.encode("utf-8")
        head = (_HEAD.pack(code, len(raw)) + raw
                + _FIELDS.pack(shard, gen, seq, len(body)) + checksum)
        hasher.update(head)
        parts += (head, body)
    return b"".join(parts), hasher.digest()


def _decode_ops(payload: memoryview, hasher):
    """The ops of one commit record, in the order they were staged,
    feeding each head to ``hasher`` (``payload`` is a view into the
    file: only what an op keeps is copied out of it)."""
    position = 0
    while position < len(payload):
        start = position
        code, name_len = _HEAD.unpack_from(payload, position)
        if code not in (_PUT, _DELETE, _DROP, _META):
            raise ValueError(f"unknown op {code!r}")
        position += _HEAD.size
        name = str(payload[position:position + name_len], "utf-8")
        shard, gen, seq, length = _FIELDS.unpack_from(
            payload, position + name_len)
        position += name_len + _FIELDS.size + _DIGEST_BYTES
        hasher.update(payload[start:position])
        checksum = bytes(payload[position - _DIGEST_BYTES:position])
        body = bytes(payload[position:position + length])
        position += length
        yield (code, name, shard, gen, seq, body, checksum)
    if position != len(payload):
        raise ValueError("last op runs past the record")


def _reframed(prev: bytes, view) -> bool:
    """Whether ``view`` starts with a run of ops followed by the digest
    chaining their heads to ``prev``: a whole record, not a torn one
    (:class:`~repro.storage.atomic.RecordLog`)."""
    hasher = hashlib.sha256(_PAGE_LOG_DOMAIN + prev)
    position = 0
    try:
        for _code, name, *_fields, body, _checksum in _decode_ops(view, hasher):
            position += _op_bytes(name, body)
            if view[position:position + _DIGEST_BYTES] == hasher.digest():
                return True
    except (ValueError, struct.error, UnicodeDecodeError):
        pass
    return False


class FilePageStore(MemoryPageStore):
    """Append-only page file: the ``--backend file`` disk engine.

    ``pages.log`` is a :class:`~repro.storage.atomic.RecordLog` headed
    :data:`PAGE_LOG_MAGIC`; one commit is one record, appended and
    fsynced once (the log names a new file durably before its first
    record).  The payload is the commit's staged operations in order
    (put page, delete page, drop generation, put meta), each a head --
    what it is, plus the checksum of its body -- and a body (the page's
    bytes, the meta value).  The digest chains the record's heads to the
    record before it.  Opening the file scans it once: every record's
    digest is verified and its operations are applied to the committed
    index reads are served from (the :class:`MemoryPageStore` this class
    is); the log trims a torn final record -- a commit that never
    returned -- and any other mismatch is refused, a record whose length
    prefix runs past the end of the file while its ops end inside it,
    followed by their digest, included.  The scan hashes
    heads only: a page is checked against its checksum when it is read
    (:func:`_verified`, like every read path), so rot in a page is
    quarantined and repaired as in any page store, and the live meta
    values are checked once the scan ends.

    When the file exceeds :data:`PAGE_LOG_COMPACT_RATIO` times the size
    of its live set, the next :meth:`begin` rewrites it as that live set
    (one record) through :func:`~repro.storage.atomic.atomic_write`: a
    crash on either side of the rename leaves a file holding the same
    committed state.  The file is found once, at open; after that the
    log knows its size and the store never asks the file system again.
    """

    FILE = "pages.log"

    def __init__(self, path: str, fsync: bool = True,
                 io: IoShim | None = None, readonly: bool = False) -> None:
        super().__init__(io)
        self.path = path
        self._log = RecordLog(path, "pagelog", head=PAGE_LOG_MAGIC,
                              fsync=fsync, io=self.io, readonly=readonly,
                              reframe=_reframed)
        try:
            records = self._log.read(_LOG_GENESIS)
        except MisframedRecord as exc:
            raise StorageError(str(exc)) from exc
        except ValueError as exc:
            raise StorageError(f"{path!r} is not a page file "
                               f"({PAGE_LOG_MAGIC.strip().decode()})") from exc
        self._scan(records)

    def _scan(self, records: list) -> None:
        chain = _LOG_GENESIS
        offset = len(PAGE_LOG_MAGIC)
        for index, (payload, stored) in enumerate(records):
            hasher = hashlib.sha256(_PAGE_LOG_DOMAIN + chain)
            try:
                for op in _decode_ops(payload, hasher):
                    self._apply(op)
            except (ValueError, struct.error, UnicodeDecodeError) as exc:
                raise StorageError(
                    f"page file record {index} (offset {offset}) is "
                    f"malformed: {exc}") from exc
            chain = hasher.digest()
            if chain != stored:
                raise StorageError(
                    f"page file record {index} (offset {offset}) fails its "
                    "digest: the page file was corrupted or tampered with")
            offset += 4 + len(payload) + _DIGEST_BYTES
        for key, (value, checksum) in self._meta.items():
            if _meta_checksum(key, value) != checksum:
                raise StorageError(
                    f"meta record {key!r} of the page file fails its "
                    "checksum: the page file was corrupted or tampered with")
        self._chain = chain

    # -- compaction ------------------------------------------------------

    def rewritten_size(self) -> int:
        """The file's size once rewritten as its live set."""
        return len(PAGE_LOG_MAGIC) + 4 + _DIGEST_BYTES + self._live

    def _live_ops(self):
        for key in sorted(self._meta):
            yield (_META, key, 0, 0, 0, *self._meta[key])
        for (kind, shard, gen) in sorted(self._groups):
            group = self._groups[(kind, shard, gen)]
            for seq in sorted(group):
                yield (_PUT, kind, shard, gen, seq, *group[seq])

    # -- transactions ----------------------------------------------------

    def begin(self) -> None:
        if self._log.readonly:
            raise StorageError("page file opened read-only")
        if self._staged is None and self._log.size > \
                PAGE_LOG_COMPACT_RATIO * self.rewritten_size():
            self._compact()
        super().begin()

    def _compact(self) -> None:
        """Rewrite the file as its live set: one record, same state."""
        payload, chain = _record(_LOG_GENESIS, self._live_ops())
        blob = PAGE_LOG_MAGIC + frame_record(payload, chain)
        self._log.close()
        try:
            atomic_write(self.path, blob, fsync=self._log.fsync, io=self.io)
        except OSError as exc:
            raise StorageError(f"page file compaction failed: {exc}") from exc
        self._log.size = len(blob)
        self._chain = chain
        if _obs.enabled:
            _COMPACTIONS.inc()

    def _persist(self, ops: list) -> None:
        """One record, one fsync; on failure the log is trimmed back to
        the last commit so the next one starts at a record boundary."""
        self.io.pre_commit(self.path)
        try:
            self.io.commit_gate(self.path)
            self.io.crash_point("pagestore:pre-commit")
            payload, chain = _record(self._chain, ops)
            self._log.append(payload, chain)
        except OSError as exc:
            raise StorageError(f"checkpoint commit failed: {exc}") from exc
        self._chain = chain

    def _admit_page(self) -> None:
        try:
            self.io.commit_gate(self.path)  # ENOSPC surfaces at write time
        except OSError as exc:
            raise StorageError(f"page write failed: {exc}") from exc

    def close(self) -> None:
        super().close()
        self._log.close()


_PAGE_STORES = {"file": FilePageStore, "sqlite": SqlitePageStore}


def backend_of(data_dir: str) -> str | None:
    """The backend whose page store ``data_dir`` holds; ``None``: none."""
    return next((name for name, kind in _PAGE_STORES.items()
                 if os.path.isfile(os.path.join(data_dir, kind.FILE))), None)


def open_page_store(data_dir: str, fsync: bool = True,
                    io: IoShim | None = None, readonly: bool = False,
                    backend: str = "sqlite") -> PageStore:
    """Open (creating if needed) ``backend``'s page store in ``data_dir``."""
    kind = _PAGE_STORES.get(backend)
    if kind is None:
        raise ValueError(f"unknown storage backend {backend!r} "
                         "(expected 'file' or 'sqlite')")
    if not readonly:
        os.makedirs(data_dir, exist_ok=True)
    return kind(os.path.join(data_dir, kind.FILE),
                fsync=fsync, io=io, readonly=readonly)
