"""The paged snapshot engine: shard trees <-> pages, one page per leaf.

Sits between the Merkle layer and a :class:`~repro.storage.pagestore.PageStore`.
A shard is stored as

* one ``"nodes"`` page stream per generation that changed it --
  :func:`~repro.mtree.persistence.tree_stream_lines`: header, structure
  and separator keys, chunked at :data:`PAGE_BYTES` -- whose leaf lines
  name the page holding each leaf's entries, and
* one ``"entries"`` page per leaf, keyed ``(shard, generation, page
  id)`` and written by the checkpoint that last saw that leaf change.

**Dirtiness is derived, not marked.**  The Merkle layer already keeps a
digest on every leaf that commits to exactly the bytes of its page, so
:func:`write_shard_pages` takes what the store holds -- ``leaf digest ->
(page, generation)`` -- and writes a page only for a leaf whose digest
the store does not hold; every other leaf is *referenced* at the
generation that wrote it and is neither encoded nor touched.  A
checkpoint therefore costs what was written since the last one, not
what the shard holds.  The walk reads nothing but the tree, that record
and the id counter, so it is a pure function of them: re-running it on
the same three reproduces the same rows under the same ids, which is
what lets recovery *redo* a damaged checkpoint through this very
function instead of a second serialiser.

Loading feeds the ``nodes`` pages through
:func:`~repro.mtree.persistence.load_tree_stream` one page at a time
and fetches each leaf's page as its line arrives, so restart memory is
bounded by the tree being rebuilt plus two pages, never the whole
serialised snapshot (:class:`LoadStats.max_resident_page_bytes` proves
it).

The engine also owns the two *recovery* moves the checkpoint protocol
leans on:

* :func:`load_shard_tree` verifies page checksums while streaming and
  then recomputes the shard's Merkle root from scratch, comparing it to
  the root the checkpoint manifest recorded -- the full verification
  chain is page checksum -> recomputed structural root -> recorded root
  -> WAL-chain-anchored top root;
* :func:`replay_data_ops` re-applies the WAL segment's data operations
  to a quarantined shard's previous state, which is exactly the delta
  that produced the damaged generation (a shard rewritten at checkpoint
  G had the root of its previous rewrite -- shape included -- at every
  checkpoint in between, so segment G alone takes one to the other).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest
from repro.mtree.database import DeleteQuery, WriteQuery
from repro.mtree.forest import shard_for_key
from repro.mtree.merkle import MerkleBPlusTree
from repro.mtree.persistence import (
    PersistenceError,
    leaf_page_lines,
    load_tree_stream,
    tree_stream_lines,
)
from repro.protocols.base import Request
from repro.storage.pagestore import PageStore, StorageError

#: target payload size of one ``nodes`` page; a page holds whole lines,
#: so real pages straddle this by at most one line.  A leaf page holds
#: one leaf, whatever its size.
PAGE_BYTES = 32 * 1024

KIND_NODES = "nodes"
KIND_ENTRIES = "entries"

#: what a store holds for one shard: leaf digest -> (page id, generation)
#: of the ``entries`` page with exactly that leaf's entries.
LeafRows = dict[Digest, tuple[int, int]]


class LoadStats:
    """Streaming-load accounting: proves bounded page residency."""

    def __init__(self) -> None:
        self.pages = 0
        self.bytes = 0
        self.resident_page_bytes = 0
        self.max_resident_page_bytes = 0

    def acquire(self, size: int) -> None:
        self.pages += 1
        self.bytes += size
        self.resident_page_bytes += size
        if self.resident_page_bytes > self.max_resident_page_bytes:
            self.max_resident_page_bytes = self.resident_page_bytes

    def release(self, size: int) -> None:
        self.resident_page_bytes -= size


@dataclass
class ShardWrite:
    """What one :func:`write_shard_pages` walk wrote and decided."""

    #: every leaf of the tree -> the row holding it; what the store
    #: holds for the shard *once the transaction commits*.
    rows: LeafRows
    #: the id the shard's next new leaf page gets.
    next_page: int
    #: ``(page, generation)`` rows the previous state named and this one
    #: does not: kept as the repair recipe, deleted by the next rewrite.
    superseded: list[tuple[int, int]]
    #: pages and bytes written per kind, and the leaves the tree has
    #: (manifest + ``store-inspect``).
    counts: dict[str, int]


def write_shard_pages(store: PageStore, shard: int, gen: int,
                      mtree: MerkleBPlusTree, known: LeafRows | None = None,
                      next_page: int = 0,
                      page_bytes: int = PAGE_BYTES) -> ShardWrite:
    """Write what changed of one shard tree into the store under ``gen``.

    ``known`` is what the store already holds for the shard (``None``:
    nothing) and ``next_page`` its id counter.  The ``nodes`` stream is
    written whole; a leaf whose digest is in ``known`` is referenced
    where it lies, any other gets the next id and a page of its own.
    Must be called inside an open store transaction; the caller adopts
    the returned record only after that transaction commits.
    """
    known = known or {}
    mtree.root_digest()  # every leaf digest fresh: dirtiness is read off them
    rows: LeafRows = {}
    counts = {"nodes_pages": 0, "nodes_bytes": 0,
              "leaf_pages": 0, "leaf_bytes": 0}

    def place_leaf(leaf) -> tuple[int, int]:
        nonlocal next_page
        row = known.get(leaf.digest)
        if row is None:
            row = (next_page, gen)
            next_page += 1
            blob = "".join(
                line + "\n" for line in leaf_page_lines(leaf)).encode("ascii")
            store.write_page(KIND_ENTRIES, shard, gen, row[0], blob)
            counts["leaf_pages"] += 1
            counts["leaf_bytes"] += len(blob)
        rows[leaf.digest] = row
        return row

    buffer: list[str] = []
    size = 0

    def flush() -> None:
        nonlocal size
        blob = ("\n".join(buffer) + "\n").encode("ascii")
        store.write_page(KIND_NODES, shard, gen, counts["nodes_pages"], blob)
        counts["nodes_pages"] += 1
        counts["nodes_bytes"] += len(blob)
        buffer.clear()
        size = 0

    for line in tree_stream_lines(mtree.tree, place_leaf):
        buffer.append(line)
        size += len(line) + 1
        if size >= page_bytes:
            flush()
    if buffer:
        flush()
    counts["leaves"] = len(rows)
    superseded = sorted(set(known.values()) - set(rows.values()))
    return ShardWrite(rows, next_page, superseded, counts)


def _page_lines(blob: bytes, stats: LoadStats):
    """Yield one page's lines; the page counts as resident meanwhile."""
    stats.acquire(len(blob))
    try:
        try:
            text = blob.decode("ascii")
        except UnicodeDecodeError as exc:
            raise PersistenceError(f"page is not ascii: {exc}") from exc
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        yield from lines
    finally:
        stats.release(len(blob))


def load_shard_tree(store: PageStore, shard: int, gen: int,
                    expected_root: Digest | None = None,
                    stats: LoadStats | None = None,
                    rows: LeafRows | None = None) -> MerkleBPlusTree:
    """Stream one shard's pages back into a Merkle tree and verify it.

    ``rows``, when given, is filled with what the store holds for the
    loaded state (the ``known`` of the next :func:`write_shard_pages`).

    Raises :class:`~repro.storage.pagestore.CorruptPageError` on page
    rot, :class:`~repro.mtree.persistence.PersistenceError` on a
    malformed stream or a missing page, and
    :class:`~repro.storage.pagestore.StorageError` when the recomputed
    root disagrees with ``expected_root`` -- all three send the caller
    down the quarantine + repair path.
    """
    stats = stats if stats is not None else LoadStats()
    named: dict[int, int] = {}

    def read_leaf(page: int, page_gen: int):
        if not 0 <= page_gen <= gen:
            raise PersistenceError(
                f"leaf page {page} claims generation {page_gen}, outside "
                f"its stream's 0..{gen}")
        if page in named:
            raise PersistenceError(f"two leaves name page {page}")
        named[page] = page_gen
        blob = store.read_page(KIND_ENTRIES, shard, page_gen, page)
        if blob is None:
            raise PersistenceError(
                f"page ({KIND_ENTRIES!r}, shard={shard}, gen={page_gen}, "
                f"seq={page}) is missing")
        yield from _page_lines(blob, stats)

    # One page resident per kind: checksums are verified inside the
    # store's reads, page by page, as the parser asks for more.
    nodes_lines = (line for blob in store.read_pages(KIND_NODES, shard, gen)
                   for line in _page_lines(blob, stats))
    tree = load_tree_stream(nodes_lines, read_leaf)
    mtree = MerkleBPlusTree.from_tree(tree)
    if expected_root is not None or rows is not None:
        # Recompute every digest from the loaded entries: binds the
        # page bytes to the root the WAL chain anchors, so tampered
        # pages with refreshed checksums are still caught here.
        actual, _nodes = mtree.refresh_root()
        if expected_root is not None and actual != expected_root:
            raise StorageError(
                f"shard {shard} gen {gen} hashes to {actual.short()}..., "
                f"manifest records {expected_root.short()}...")
    if rows is not None:
        leaf = tree.root
        while not leaf.is_leaf:
            leaf = leaf.children[0]
        for row in named.items():  # leaf lines arrive in chain order
            rows[leaf.digest] = row
            leaf = leaf.next_leaf
    return mtree


def replay_data_ops(mtree: MerkleBPlusTree, messages, shard: int,
                    shards: int) -> int:
    """Re-apply a WAL segment's data operations routed to ``shard``.

    Mirrors :meth:`VerifiedDatabase.execute` semantics exactly: writes
    insert-or-overwrite verbatim, deletes of absent keys are no-ops.
    Non-data messages
    (follow-ups, protocol-internal requests, reads) never touch the
    tree.  Returns the number of operations applied.
    """
    applied = 0
    for message in messages:
        if not isinstance(message, Request):
            continue
        query = message.query
        if isinstance(query, WriteQuery):
            if shard_for_key(query.key, shards) == shard:
                mtree.insert(query.key, query.value)
                applied += 1
        elif isinstance(query, DeleteQuery):
            if shard_for_key(query.key, shards) == shard:
                if mtree.delete(query.key):
                    applied += 1
    return applied
