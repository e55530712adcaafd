"""Crash safety for the TCP server: write-ahead log + paged checkpoints.

The trust anchor the whole system hangs off is the root digest, and the
root digest commits to the *exact tree shape* -- so recovery cannot be
"rebuild from the entry set"; it has to replay the identical operation
sequence onto the identical starting shape.  :class:`ServerStore` gives
the server that property with one checkpoint engine over either page
store: ``file``'s append-only ``pages.log``
(:class:`~repro.storage.pagestore.FilePageStore`) or ``sqlite``'s
``pages.db``.

Each shard tree is a checksummed ``nodes`` stream plus one page per
leaf (its keys) and one per entry (its value), in the codec's records
(:mod:`repro.storage.engine`); a checkpoint writes only
the entries and leaves whose Merkle digest the store does not hold and
commits them with a manifest in one page-store transaction.  A
shard whose pages fail verification on recovery is quarantined and its
last checkpoint redone from its previous state plus a replay of exactly
the retained log that led from there -- never trusted as-is, never
silently rebuilt.

The WAL: one record per request accepted since the last checkpoint,
appended and fsynced *before* the request is executed.  Each record is
``len(4B) || wire(Request) || chain(32B)`` where
``chain_i = h(chain_{i-1} || payload_i)`` anchors the record to the
checkpoint's recorded chain head.  On recovery the records are
re-executed in order, which -- execution being deterministic --
reproduces the pre-crash state bit-for-bit, dedup table included.

A log is never renamed.  The requests that lead to checkpoint ``G`` go
to ``wal.G.log`` (:func:`log_name`), opened by the first append after
checkpoint ``G - 1`` committed and named durably (one directory fsync)
before its first record; once ``G`` commits, that file *is* retained
segment ``G``.  Failure semantics:

* a *truncated tail* record (the process died mid-append) is discarded
  silently -- the request was never acknowledged, so dropping it is
  correct, and the file is trimmed back to the last complete record;
* any *other* corruption (bit flips, edited payloads, spliced records)
  breaks the hash chain and raises :class:`WalError`.  Recovery refuses
  to run, so a tampered log cannot be laundered into a "recovered"
  state that silently forks the history clients have verified;
* a log *newer* than the live one that holds records exists only if
  the page store lost a checkpoint it reported durable (the bootstrap
  one included), and those acked writes lost the head they chain from:
  refused.  A lost checkpoint nothing was appended after costs nothing
  -- its requests are all in the live log, and replay rebuilds it;
* a directory an older build wrote (:data:`RETIRED_FILES`) is refused
  by name, never bootstrapped over.
"""

from __future__ import annotations

import os

from repro.crypto.hashing import Digest, hash_bytes
from repro.mtree.database import DeleteQuery, VerifiedDatabase, WriteQuery
from repro.mtree.forest import StoreSpec, merkle_store, shard_for_key
from repro.mtree.merkle import MerkleBPlusTree
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.protocols.base import Followup, Request, Response
from repro.storage.atomic import DirLock
from repro.storage.engine import (
    KIND_ENTRIES,
    KIND_LEAVES,
    KIND_NODES,
    LoadStats,
    PageRows,
    load_shard_tree,
    write_shard_pages,
)
from repro.storage.faults import REAL_IO, IoShim
from repro.storage.pagestore import (
    StorageError,
    frame_record,
    open_page_store,
    parse_records,
)
from repro.wire import WireError, decode, encode

_LOG_PREFIX, _LOG_SUFFIX = "wal.", ".log"
#: files only an older build writes, with the format they hold
RETIRED_FILES = {"state.snapshot": "cvs-server-snapshot 1", "wal.log": "a cvs-paged-store 4 log"}

_CHAIN_DOMAIN = b"wal-chain"
_GENESIS_DOMAIN = b"wal-genesis"
_MANIFEST_KEY = "checkpoint"
_MANIFEST_FORMAT = "cvs-paged-store 8"
_FORMAT_KEY = encode("format")

_CHECKPOINTS = _registry.counter(
    "storage.checkpoints", "paged-store checkpoints committed")
_QUARANTINES = _registry.counter(
    "storage.quarantines", "shards quarantined after failing verification")
_REPAIRS = _registry.counter(
    "storage.repairs", "quarantined shards repaired from segment replay")
_SEGMENTS_DROPPED = _registry.counter(
    "storage.segments_dropped", "retained WAL segments garbage-collected")


class WalError(Exception):
    """Raised when the WAL or checkpoint cannot be trusted for recovery."""


def load_manifest(blob: bytes) -> dict:
    """The checkpoint manifest ``blob`` holds, or a :class:`WalError`.
    A manifest another format wrote is refused by that format's name,
    even one this codec cannot decode (:func:`_written_format`)."""
    try:
        manifest = decode(blob)
    except WireError as exc:
        written = _written_format(blob)
        if written in (None, _MANIFEST_FORMAT):
            raise WalError(f"corrupt checkpoint manifest: {exc}") from exc
        manifest = {"format": written}
    if not isinstance(manifest, dict):
        raise WalError("corrupt checkpoint manifest: not a dict")
    if manifest.get("format") != _MANIFEST_FORMAT:
        raise WalError(
            f"checkpoint manifest format {manifest.get('format')!r} is "
            f"not {_MANIFEST_FORMAT!r} (one page per entry, every page a "
            "codec record, a proof is the path, one log per checkpoint "
            "generation): "
            "this build does not read directories written by another format")
    return manifest


def _written_format(blob: bytes) -> str | None:
    """The format an undecodable manifest names, or ``None``.  Formats
    3, 5 and 6 remember responses whose proofs this codec does not
    decode.  The name is the str after the last ``"format"`` key --
    every field sorted after that key is the store's own -- and serves
    the refusal alone."""
    at = blob.rfind(_FORMAT_KEY)
    if at < 0:
        return None
    start = at + len(_FORMAT_KEY)  # a str: tag, 4-byte length, utf-8
    end = start + 5 + int.from_bytes(blob[start + 1:start + 5], "big")
    try:
        written = decode(blob[start:end])
    except WireError:
        return None
    return written if isinstance(written, str) else None


def chain_genesis(root: Digest) -> Digest:
    """The chain head a fresh (or freshly checkpointed) log starts from."""
    return hash_bytes(_GENESIS_DOMAIN + root.to_bytes())


def _chain_next(head: Digest, payload: bytes) -> Digest:
    return hash_bytes(_CHAIN_DOMAIN + head.to_bytes() + payload)


def log_name(gen: int) -> str:
    """The file of the log that leads to checkpoint ``gen``."""
    return f"{_LOG_PREFIX}{gen}{_LOG_SUFFIX}"


def log_gens(data_dir: str) -> list[int]:
    """The generations of the logs in ``data_dir``, oldest first."""
    middles = (name[len(_LOG_PREFIX):-len(_LOG_SUFFIX)]
               for name in os.listdir(data_dir)
               if name.startswith(_LOG_PREFIX) and name.endswith(_LOG_SUFFIX))
    return sorted(int(middle) for middle in middles if middle.isdigit())


def _recorded_state(fields: dict, what: str) -> tuple:
    """``(ctr, meta, dedup, root, chain)`` as a manifest records them.
    ``dedup`` maps user -> ordered (rid, response) pairs, and anything
    else in it is refused here, by name: a table that loaded without it
    would let that resend execute twice."""
    try:
        ctr, meta = int(fields["ctr"]), dict(fields["meta"])
        dedup = {user: [tuple(pair) for pair in pairs]
                 for user, pairs in dict(fields["dedup"]).items()}
        for user, pairs in dedup.items():
            for n, pair in enumerate(pairs):
                if not (len(pair) == 2 and isinstance(pair[0], str)
                        and isinstance(pair[1], Response)):
                    raise ValueError(
                        f"dedup entry {n} of user {user!r} is not a "
                        "(request id, response) pair")
        root, chain = fields["root"], fields["chain"]
    except (KeyError, TypeError, ValueError) as exc:
        raise WalError(f"corrupt {what}: {exc}") from exc
    if chain != chain_genesis(root):
        raise WalError(f"{what} chain head does not match its root")
    return ctr, meta, dedup, root, chain


def _verify_records(records: list[tuple[bytes, bytes]], chain: Digest,
                    name: str) -> tuple[list[Request | Followup], Digest]:
    """Chain-verify and decode log ``name``'s records from ``chain``."""
    messages: list[Request | Followup] = []
    for index, (payload, stored) in enumerate(records):
        chain = _chain_next(chain, payload)
        if chain.to_bytes() != stored:
            raise WalError(
                f"{name} record {index} breaks the hash chain: "
                "the log was corrupted or tampered with")
        try:
            message = decode(payload)
        except WireError as exc:
            raise WalError(f"{name} record {index} undecodable: {exc}") from exc
        if not isinstance(message, (Request, Followup)):
            raise WalError(f"{name} record {index} is not a request")
        messages.append(message)
    return messages, chain


def _replay_shard(tree: MerkleBPlusTree, messages, shard: int,
                  shards: int) -> None:
    """Re-execute the logged writes and deletes routed to ``shard`` on
    ``tree``, through the server's own :meth:`VerifiedDatabase.execute`."""
    database = VerifiedDatabase.from_mtree(tree)
    for message in messages:
        query = message.query if isinstance(message, Request) else None
        if isinstance(query, (WriteQuery, DeleteQuery)) and \
                shard_for_key(query.key, shards) == shard:
            database.execute(query)


class ServerStore:
    """The durable half of a :class:`~repro.net.core.ServerCore`:
    checksummed shard pages + one log per checkpoint generation.

    Owns the logs and the page store in ``data_dir`` and the running
    hash-chain head.  All methods must be called by the core's one
    writer; the store itself does no locking of calls -- ``lock`` guards
    the *directory* (flock), so a second server process cannot
    interleave appends into the same WAL.

    The checkpoint/compaction cycle (:meth:`write_snapshot`):

    1. for every shard whose root differs from the root its manifest
       record holds, write under generation ``G`` a fresh ``nodes``
       stream and a page for each entry and each leaf whose digest the
       store does not hold
       (:func:`~repro.storage.engine.write_shard_pages`), delete
       the rows only the state *before* the shard's previous one named,
       and commit all of it together with the updated manifest in
       **one** page-store transaction -- a crash or a failed commit
       leaves the previous checkpoint fully intact, the live log still
       live and this object's view (manifest, page rows) where it was;
    2. close ``wal.G.log``, which is now retained segment ``G``; the
       next append opens ``wal.G+1.log`` chained from the new genesis;
    3. drop the logs nothing references any more.

    A shard written at ``G`` keeps every row its previous state ``P``
    names (its record lists the ones ``G`` no longer does as
    ``superseded``) and the manifest keeps segment ``G``'s start chain.
    The shard had ``P``'s root at every checkpoint in between, so
    ``P``'s pages plus segment ``G``'s data operations are exactly the
    recipe :meth:`load_snapshot` uses to redo ``G`` if its pages rot.
    Invariant: the rows a shard holds are exactly the pages its current
    and its previous state name -- nothing leaked, nothing missing.

    Recovery order of trust: page checksum -> recomputed shard root ->
    manifest root -> WAL chain.  A shard failing any of the first two is
    quarantined and repaired; a repair that does not reproduce the
    manifest's recorded shard root is tamper and recovery refuses.
    """

    def __init__(self, data_dir: str, backend: str = "file",
                 fsync: bool = True, io: IoShim | None = None,
                 lock: bool = False) -> None:
        self.data_dir = data_dir
        self.backend = backend
        self.fsync = fsync
        self.io = io or REAL_IO
        os.makedirs(data_dir, exist_ok=True)
        self._lock = DirLock(data_dir) if lock else None
        self._wal_handle = None
        self._chain = Digest.zero()  # set by load_snapshot/write_snapshot
        self.pages = None
        try:
            for name, format_name in RETIRED_FILES.items():
                if os.path.exists(os.path.join(data_dir, name)):
                    raise WalError(
                        f"{data_dir!r} holds {name} ({format_name}), a "
                        "format this build does not read: restore it with "
                        "the build that wrote it, or start from an empty "
                        "directory")
            self.pages = open_page_store(data_dir, fsync=fsync, io=self.io,
                                         backend=backend)
            self._manifest: dict | None = self._load_manifest()
        except StorageError as exc:
            self.close()
            raise WalError(f"page store cannot be trusted: {exc}") from exc
        except BaseException:
            self.close()
            raise
        #: shard -> what the page store holds for the state the manifest
        #: records: entry or leaf digest -> the row of its page.  Set by a
        #: load or a *committed* checkpoint, never by the tree: a
        #: checkpoint compares it, by value, with whatever tree it is
        #: handed.
        self._page_rows: dict[int, PageRows] = {}
        #: streaming-load accounting for the most recent load_snapshot.
        self.load_stats = LoadStats()
        #: shards quarantined + repaired during the most recent load.
        self.repaired_shards: list[int] = []

    # -- write-ahead log ---------------------------------------------------

    @property
    def live_gen(self) -> int:
        """The generation of the live log: the next checkpoint's."""
        return 0 if self._manifest is None else int(self._manifest["gen"]) + 1

    @property
    def wal_path(self) -> str:
        """The live log, which the next checkpoint retains as is."""
        return os.path.join(self.data_dir, log_name(self.live_gen))

    def wal_append(self, message: Request | Followup, sync: bool = True) -> None:
        """Durably log a request or follow-up *before* it is executed.

        ``sync=False`` buffers the record without forcing it to disk --
        the group-commit half of the batched path: append every request
        of a batch unsynced, then make them all durable with a single
        :meth:`wal_sync` before any of them executes.  The before-
        execution guarantee is unchanged; only the fsync is amortised.

        Fail-stop on I/O errors (ENOSPC, short writes): the in-memory
        chain head is rolled back and the file trimmed to the last good
        record, so a later retry -- or a clean shutdown -- continues
        from a consistent log instead of corrupting every subsequent
        append.
        """
        payload = encode(message)
        if self._wal_handle is None:
            self._wal_handle = self._open_log()
        previous_chain = self._chain
        self._chain = _chain_next(self._chain, payload)
        handle = self._wal_handle
        good_size = handle.tell()
        record = frame_record(payload, self._chain.to_bytes())
        self.io.crash_point("wal:append")
        try:
            handle.write(record)
            if sync:
                handle.flush()
                if self.fsync:
                    handle.fsync()
        except OSError:
            # Roll back: whatever prefix of the record reached the file
            # must not poison the next append's chain arithmetic.
            self._chain = previous_chain
            self._close_log()
            try:
                self.io.truncate_file(self.wal_path, good_size)
            except OSError:
                pass
            raise

    def _open_log(self):
        """Open the live log and make its name durable before its first
        record: a record fsynced into a file a crash can unname was
        never durable."""
        handle = self.io.open(self.wal_path, "ab")
        self.io.crash_point("wal:new-log")
        if self.fsync:
            self.io.fsync_dir(self.data_dir)
        return handle

    def _close_log(self) -> None:
        if self._wal_handle is not None:
            try:
                self._wal_handle.close()
            except OSError:
                pass
            self._wal_handle = None

    def wal_sync(self) -> None:
        """Flush (and fsync) everything appended with ``sync=False``."""
        if self._wal_handle is None:
            return
        self._wal_handle.flush()
        if self.fsync:
            self._wal_handle.fsync()

    def wal_records(self, chain: Digest) -> list[Request | Followup]:
        """Read back the live log's complete, chain-verified records."""
        messages, self._chain = self._read_log(self.live_gen, chain)
        return messages

    def _read_log(self, gen: int, chain: Digest
                  ) -> tuple[list[Request | Followup], Digest]:
        """Chain-verify log ``gen`` from ``chain``: its messages and the
        head they end at.  A truncated final record (crash mid-append)
        is trimmed off the file; any other inconsistency raises
        :class:`WalError`.  An absent log holds no records."""
        path = os.path.join(self.data_dir, log_name(gen))
        if not os.path.isfile(path):
            return [], chain
        blob = self.io.read_file(path)
        records, good_end = parse_records(blob)
        messages, chain = _verify_records(records, chain, log_name(gen))
        if good_end < len(blob):
            # Trim the torn tail so the next append starts at a record
            # boundary (the request it held was never acknowledged).
            self.io.truncate_file(path, good_end)
        return messages, chain

    # -- manifest ----------------------------------------------------------

    def _load_manifest(self) -> dict | None:
        blob = self.pages.get_meta(_MANIFEST_KEY)
        return None if blob is None else load_manifest(blob)

    # -- checkpoint + compaction -------------------------------------------

    def write_snapshot(self, state, dedup: dict) -> None:
        """Incremental checkpoint: write what changed, retain the log."""
        database = state.database
        spec = database.spec
        root = database.root_digest()
        chain = chain_genesis(root)
        old = self._manifest
        new_gen = self.live_gen
        shard_trees = database.shard_trees()
        old_shards = {} if old is None else \
            {int(rec["shard"]): rec for rec in old["shards"]}
        shard_records = []
        written: dict[int, PageRows] = {}
        self.pages.begin()
        try:
            for index, tree in enumerate(shard_trees):
                previous = old_shards.get(index)
                if previous is not None and \
                        tree.root_digest() == previous["root"]:
                    # Dirtiness is the comparison itself: the manifest
                    # advances only after the commit, so a shard a
                    # failed checkpoint wrote still differs here.
                    shard_records.append(dict(previous))
                    continue
                record, written[index] = self._write_shard(
                    index, new_gen, tree, previous)
                shard_records.append(record)

            referenced = {int(rec["gen"]) for rec in shard_records}
            old_segments = {} if old is None else dict(old["segments"])
            segments = {key: value for key, value in old_segments.items()
                        if int(key) in referenced}
            if old is not None:
                # The live log becomes segment ``new_gen``; it chains
                # from the previous checkpoint's genesis head.
                segments[str(new_gen)] = old["chain"]

            manifest = {
                "format": _MANIFEST_FORMAT,
                "gen": new_gen,
                "root": root,
                "chain": chain,
                "spec": spec.to_wire(),
                "ctr": state.ctr,
                "meta": state.meta,
                "dedup": {user: [list(pair) for pair in pairs]
                          for user, pairs in dedup.items()},
                "shards": shard_records,
                "segments": segments,
            }
            self.pages.put_meta(_MANIFEST_KEY, encode(manifest))
            self.io.crash_point("checkpoint:before-commit")
            self.pages.commit()
        except BaseException:
            # Covers SimulatedCrash too: the in-process stand-in for
            # what sqlite's journal would do after a real kill.
            self.pages.rollback()
            raise
        self.io.crash_point("checkpoint:after-commit")

        # Only now does the store hold what the walk decided: a failed
        # commit leaves manifest and page rows as they were, so the
        # retry writes both intervals' entries and leaves.
        self._page_rows.update(written)
        self._manifest = manifest
        self._close_log()  # wal.<new_gen>.log is retained segment new_gen
        self._gc_logs({int(k) for k in manifest["segments"]})
        self._chain = chain
        if _obs.enabled:
            _CHECKPOINTS.inc()

    def _write_shard(self, index: int, gen: int, tree: MerkleBPlusTree,
                     previous: dict | None) -> tuple[dict, PageRows]:
        """One shard's share of a checkpoint transaction: write the
        entries and leaves the store does not hold, delete what its
        state before ``previous`` alone named, and return the manifest
        record plus the page rows to adopt once the transaction
        commits."""
        if previous is None:
            known, next_page = None, 0
        else:
            known, next_page = self._known_rows(previous), \
                int(previous["next_page"])
            # ``previous`` becomes the repair recipe; what only *its*
            # predecessor named is now unreachable.
            for kind, page, page_gen in previous["superseded"]:
                self.pages.delete_page(
                    kind, index, int(page_gen), int(page))
            if int(previous["prev_gen"]) >= 0:
                self.pages.drop_generation(
                    KIND_NODES, index, int(previous["prev_gen"]))
        result = write_shard_pages(
            self.pages, index, gen, tree, known, next_page)
        record = {
            "shard": index,
            "gen": gen,
            "root": tree.root_digest(),
            "prev_gen": -1 if previous is None else int(previous["gen"]),
            "prev_root": Digest.zero() if previous is None
            else previous["root"],
            "next_page": result.next_page,
            "prev_next_page": next_page,
            "superseded": [list(row) for row in result.superseded],
            "counts": result.counts,
        }
        return record, result.rows

    def _known_rows(self, record: dict) -> PageRows:
        """What the store holds for the state ``record`` describes."""
        index = int(record["shard"])
        if index not in self._page_rows:
            # This store object neither loaded nor wrote the shard:
            # read it back (verified) rather than guess.
            rows = PageRows()
            load_shard_tree(self.pages, index, int(record["gen"]),
                            expected_root=record["root"], rows=rows)
            self._page_rows[index] = rows
        return self._page_rows[index]

    def _gc_logs(self, referenced: set[int]) -> None:
        """Delete the retained logs no shard's repair recipe needs."""
        removed = False
        for gen in log_gens(self.data_dir):
            if gen in referenced or gen >= self.live_gen:
                continue
            self.io.crash_point("compaction:mid-segment-gc")
            try:
                self.io.remove(os.path.join(self.data_dir, log_name(gen)))
                removed = True
                if _obs.enabled:
                    _SEGMENTS_DROPPED.inc()
            except OSError:
                pass  # retry at the next checkpoint
        if removed and self.fsync:
            self.io.fsync_dir(self.data_dir)

    # -- recovery ----------------------------------------------------------

    def load_snapshot(self):
        """Stream the checkpoint back; quarantine + repair bad shards.

        Returns ``(database, ctr, meta, dedup, chain)`` or ``None`` for
        a fresh directory.  Memory stays bounded: shard pages are parsed
        as they arrive (:attr:`load_stats` ``.max_resident_page_bytes``
        proves it).
        """
        manifest = self._manifest
        self._refuse_newer_logs()
        if manifest is None:
            return None
        ctr, meta, dedup, root, chain = \
            _recorded_state(manifest, "checkpoint manifest")
        try:
            spec = StoreSpec.coerce(manifest["spec"])
            shard_records = list(manifest["shards"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WalError(f"corrupt checkpoint manifest: {exc}") from exc
        if len(shard_records) != spec.shards:
            raise WalError("manifest shard records disagree with the spec")

        stats = LoadStats()
        self.load_stats = stats
        self.repaired_shards = []
        shard_trees: list[MerkleBPlusTree] = []
        for record in shard_records:
            index = int(record["shard"])
            shard_gen = int(record["gen"])
            expected = record["root"]
            rows = PageRows()
            try:
                tree = load_shard_tree(
                    self.pages, index, shard_gen,
                    expected_root=expected, stats=stats, rows=rows)
            except StorageError as exc:
                if _obs.enabled:
                    _QUARANTINES.inc(shard=str(index))
                tree, rows = self._repair_shard(record, spec, manifest, exc)
                self.repaired_shards.append(index)
                if _obs.enabled:
                    _REPAIRS.inc(shard=str(index))
            self._page_rows[index] = rows
            shard_trees.append(tree)

        # The top tree is not persisted at all: its shape is a function
        # of the shard count, so it is rebuilt from the verified shards.
        try:
            database = VerifiedDatabase.from_mtree(
                merkle_store(spec, shard_trees))
        except ValueError as exc:
            raise WalError(f"corrupt checkpoint manifest: {exc}") from exc
        if database.root_digest() != root:
            raise WalError(
                "checkpoint shards do not hash to the manifest's top root")
        return database, ctr, meta, dedup, chain

    def _refuse_newer_logs(self) -> None:
        """A log opens only after the checkpoint before it committed, so
        a log past the live one that holds records proves the page store
        lost a checkpoint it reported durable -- with no manifest, every
        log does.  Those acked writes lost the head they chain from:
        refuse loudly instead of silently serving the older root.  A
        newer log that holds no record was never acked into: drop it."""
        manifest = self._manifest
        for gen in log_gens(self.data_dir):
            if manifest is not None and gen <= self.live_gen:
                continue
            path = os.path.join(self.data_dir, log_name(gen))
            records, _end = parse_records(self.io.read_file(path))
            if records:
                anchor = "no checkpoint manifest" if manifest is None else \
                    f"the checkpoint manifest (generation {manifest['gen']})"
                raise WalError(
                    f"{log_name(gen)} holds {len(records)} record(s) newer "
                    f"than {anchor}: the page store lost a checkpoint it "
                    "reported durable")
            self.io.remove(path)

    def _repair_shard(self, record: dict, spec: StoreSpec, manifest: dict,
                      cause: Exception) -> tuple[MerkleBPlusTree, PageRows]:
        """Redo a quarantined shard's last checkpoint: load its previous
        state, replay the segment that led from there, and run the same
        walk that wrote the damaged pages.

        Covers everything that checkpoint wrote -- the ``nodes`` stream
        and every leaf and entry page of generation ``gen``.  An older
        page exists in one copy (the checkpoint that wrote it is the
        last time it cost anything), and the previous state names it
        too: if *it* rots, loading the previous state fails and recovery
        refuses, naming the page.

        Raises :class:`WalError` when the recipe cannot reproduce the
        manifest's recorded shard root or page accounting -- that is
        tamper (or a double fault), and it is *reported*, never masked
        by serving the damaged pages or a silently rebuilt tree.
        """
        index = int(record["shard"])
        shard_gen = int(record["gen"])
        prev_gen = int(record["prev_gen"])
        expected = record["root"]
        known = PageRows()
        if prev_gen >= 0:
            try:
                tree = load_shard_tree(
                    self.pages, index, prev_gen,
                    expected_root=record["prev_root"], stats=self.load_stats,
                    rows=known)
            except StorageError as double_fault:
                raise WalError(
                    f"shard {index} is quarantined ({cause}) and its "
                    f"previous state (generation {prev_gen}) is also "
                    f"damaged ({double_fault}); cannot repair"
                ) from double_fault
        else:
            tree = MerkleBPlusTree(order=spec.order)
        if os.path.isfile(os.path.join(self.data_dir, log_name(shard_gen))):
            start = dict(manifest["segments"]).get(str(shard_gen))
            if not isinstance(start, Digest):
                raise WalError(
                    f"shard {index} needs segment {shard_gen} for repair "
                    "but the manifest records no start chain for it")
            messages, _chain = self._read_log(shard_gen, start)
            _replay_shard(tree, messages, index, spec.shards)
        actual, _nodes = tree.refresh_root()
        if actual != expected:
            raise WalError(
                f"shard {index} quarantined ({cause}) and its repair from "
                f"generation {prev_gen} + segment {shard_gen} replays to "
                f"root {actual.short()}..., but the manifest records "
                f"{expected.short()}...: the pages or the segment were "
                "tampered with")
        # Redo the checkpoint so the *next* restart does not need the
        # segment again.  The walk is a pure function of (tree, known
        # rows, id counter), so it rewrites exactly the rows the damaged
        # checkpoint wrote and the manifest stays as it is.
        self.pages.begin()
        try:
            for kind in (KIND_NODES, KIND_LEAVES, KIND_ENTRIES):
                self.pages.drop_generation(kind, index, shard_gen)
            result = write_shard_pages(
                self.pages, index, shard_gen, tree, known,
                int(record["prev_next_page"]))
            if (result.next_page, [list(row) for row in result.superseded]) \
                    != (int(record["next_page"]),
                        [list(row) for row in record["superseded"]]):
                raise WalError(
                    f"shard {index} quarantined ({cause}) and redoing its "
                    f"checkpoint {shard_gen} does not reproduce the page "
                    "accounting the manifest records: the manifest or the "
                    "previous state were tampered with")
            self.pages.commit()
        except BaseException:
            self.pages.rollback()
            raise
        return tree, result.rows

    # -- lifecycle ---------------------------------------------------------

    def set_chain(self, chain: Digest) -> None:
        self._chain = chain

    def close(self) -> None:
        if self.pages is not None:
            self.pages.close()
            self.pages = None
        self._close_log()
        if self._lock is not None:
            self._lock.release()
            self._lock = None


def open_server_store(data_dir: str, backend: str = "file",
                      fsync: bool = True, io: IoShim | None = None,
                      lock: bool = False) -> ServerStore:
    """Open the durable store for ``data_dir`` on ``backend``'s page store."""
    return ServerStore(data_dir, backend=backend, fsync=fsync, io=io,
                       lock=lock)
