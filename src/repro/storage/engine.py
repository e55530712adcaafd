"""The paged snapshot engine: shard trees <-> pages, one page per entry.

Sits between the Merkle layer and a :class:`~repro.storage.pagestore.PageStore`.
A shard is stored as

* one ``"nodes"`` page stream per generation that changed it --
  :func:`~repro.mtree.persistence.tree_stream_lines`: header, structure
  and separator keys, chunked at :data:`PAGE_BYTES` -- whose leaf lines
  name the page holding each leaf,
* one ``"leaves"`` page per leaf: its keys, each with the ``(page,
  generation)`` of the page holding its value
  (:func:`~repro.mtree.persistence.leaf_page_lines`), and
* one ``"entries"`` page per entry: the value's raw bytes.

Every page is keyed ``(shard, generation, page id)``, written by the
checkpoint that last saw its bytes change; page ids come from one
counter per shard.

**Dirtiness is derived, not marked.**  The Merkle layer already keeps a
digest on every entry (``hash_leaf(key, value)``) and on every leaf, and
each commits to exactly the bytes of its page, so
:func:`write_shard_pages` takes what the store holds -- ``digest ->
(kind, page, generation)`` -- and writes a page only for a digest the
store does not hold; every other entry and leaf is *referenced* at the
generation that wrote it and is neither encoded nor touched.  A commit
that overwrites one value therefore costs the value's bytes plus one
leaf page of keys, not what the leaf or the shard holds.  The walk reads
nothing but the tree, that record and the id counter, so it is a pure
function of them: re-running it on the same three reproduces the same
rows under the same ids, which is what lets recovery *redo* a damaged
checkpoint through this very function instead of a second serialiser.

Loading feeds the ``nodes`` pages through
:func:`~repro.mtree.persistence.load_tree_stream` one page at a time
and, as each leaf line arrives, fetches the leaf's page and then its
values with one batched read (:meth:`PageStore.read_many`), so restart
memory is bounded by the tree being rebuilt plus one ``nodes`` page and
one leaf's pages, never the whole serialised snapshot
(:class:`LoadStats.max_resident_page_bytes` proves it).

The engine also owns the verifying half of recovery:
:func:`load_shard_tree` checks page checksums while streaming and then
recomputes the shard's Merkle root from scratch, comparing it to the
root the checkpoint manifest recorded -- the full verification chain is
page checksum -> recomputed structural root -> recorded root ->
WAL-chain-anchored top root.  Repairing a shard that fails it replays
the retained log through :meth:`VerifiedDatabase.execute`
(:mod:`repro.net.wal`), so write and delete mean one thing everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest
from repro.mtree.merkle import MerkleBPlusTree
from repro.mtree.persistence import (
    PersistenceError,
    leaf_page_lines,
    load_tree_stream,
    parse_leaf_page,
    tree_stream_lines,
)
from repro.storage.pagestore import PageStore, StorageError

#: target payload size of one ``nodes`` page; a page holds whole lines,
#: so real pages straddle this by at most one line.  A leaf page holds
#: one leaf and an entry page one value, whatever its size.
PAGE_BYTES = 32 * 1024

KIND_NODES = "nodes"
KIND_LEAVES = "leaves"
KIND_ENTRIES = "entries"
#: the ``counts`` each kind's pages are tallied under
_COUNTED = {KIND_NODES: "nodes", KIND_LEAVES: "leaf", KIND_ENTRIES: "value"}


_GEN_BITS = 32


def _row(kind: str, page: int, gen: int) -> int:
    """One page's row, ``(kind, page id, generation)`` packed in an int:
    a shard holds a row per entry, and the collector never tracks an int
    where a tuple per entry made every restart pay for collections."""
    return (page << _GEN_BITS + 1) | (gen << 1) | (kind == KIND_LEAVES)


def row_fields(row: int) -> tuple[str, int, int]:
    """The ``(kind, page id, generation)`` a :class:`PageRows` row holds."""
    return (KIND_LEAVES if row & 1 else KIND_ENTRIES, row >> _GEN_BITS + 1,
            (row >> 1) & ((1 << _GEN_BITS) - 1))


class PageRows(dict):
    """What a store holds for one shard: digest -> the row (:func:`row_fields`)
    of the page with exactly those bytes -- a leaf digest names a
    ``leaves`` page, an entry digest the ``entries`` page holding that
    entry's value -- and :attr:`members`, each leaf digest's entry
    digests, so that a checkpoint touches no entry of a leaf it only
    references."""

    def __init__(self, rows=()) -> None:
        super().__init__(rows)
        self.members: dict[Digest, tuple[Digest, ...]] = {}


class LoadStats:
    """Streaming-load accounting: proves bounded page residency."""

    def __init__(self) -> None:
        self.pages = 0
        self.bytes = 0
        self.resident_page_bytes = 0
        self.max_resident_page_bytes = 0

    def acquire(self, size: int, pages: int = 1) -> None:
        self.pages += pages
        self.bytes += size
        self.resident_page_bytes += size
        if self.resident_page_bytes > self.max_resident_page_bytes:
            self.max_resident_page_bytes = self.resident_page_bytes

    def release(self, size: int) -> None:
        self.resident_page_bytes -= size


@dataclass
class ShardWrite:
    """What one :func:`write_shard_pages` walk wrote and decided."""

    #: every entry and leaf of the tree -> the row of the page holding
    #: it; what the store holds for the shard *once the transaction
    #: commits*.
    rows: PageRows
    #: the id the shard's next new page gets.
    next_page: int
    #: ``(kind, page, generation)`` rows the previous state named and
    #: this one does not: kept as the repair recipe, deleted by the next
    #: rewrite.
    superseded: list[tuple[str, int, int]]
    #: pages and bytes written per kind (``nodes``, ``leaf``, ``value``)
    #: and the leaves and entries the tree has (manifest +
    #: ``store-inspect``).
    counts: dict[str, int]


def write_shard_pages(store: PageStore, shard: int, gen: int,
                      mtree: MerkleBPlusTree, known: PageRows | None = None,
                      next_page: int = 0,
                      page_bytes: int = PAGE_BYTES) -> ShardWrite:
    """Write what changed of one shard tree into the store under ``gen``.

    ``known`` is what the store already holds for the shard (``None``:
    nothing) and ``next_page`` its id counter.  The ``nodes`` stream is
    written whole; an entry or a leaf whose digest is in ``known`` is
    referenced where it lies, any other gets the next id and a page of
    its own (a leaf's entries are placed before the leaf, whose page
    names them).  Must be called inside an open store transaction; the
    caller adopts the returned record only after that transaction
    commits.
    """
    known = known if known is not None else PageRows()
    mtree.root_digest()  # every digest fresh: dirtiness is read off them
    # What the store will hold starts as what it holds (a copy reusing
    # the stored hashes); the walk adds the new rows and then drops the
    # ones only the leaves it did not reference named.
    rows = PageRows(known)
    rows.members.update(known.members)
    referenced: set[Digest] = set()   # leaves of the tree
    placed: set[Digest] = set()       # entries of the leaves written now
    counts = {f"{name}_{unit}": 0 for name in _COUNTED.values()
              for unit in ("pages", "bytes")}

    def write(kind: str, seq: int, blob: bytes) -> None:
        store.write_page(kind, shard, gen, seq, blob)
        counts[f"{_COUNTED[kind]}_pages"] += 1
        counts[f"{_COUNTED[kind]}_bytes"] += len(blob)

    def new_row(kind: str, digest: Digest, blob: bytes) -> int:
        nonlocal next_page
        write(kind, next_page, blob)
        row = rows[digest] = _row(kind, next_page, gen)
        next_page += 1
        return row

    def place_leaf(leaf) -> tuple[int, int]:
        row = known.get(leaf.digest)
        if row is None:
            refs = []
            for digest, value in zip(leaf.entry_digests, leaf.values):
                entry = known.get(digest)
                if entry is None:
                    entry = new_row(KIND_ENTRIES, digest, value)
                placed.add(digest)
                refs.append(row_fields(entry)[1:])
            row = new_row(KIND_LEAVES, leaf.digest, "".join(
                line + "\n" for line in leaf_page_lines(leaf.keys, refs)
            ).encode("ascii"))
            rows.members[leaf.digest] = tuple(leaf.entry_digests)
        referenced.add(leaf.digest)
        return row_fields(row)[1:]

    buffer: list[str] = []
    size = 0

    def flush() -> None:
        nonlocal size
        write(KIND_NODES, counts["nodes_pages"],
              ("\n".join(buffer) + "\n").encode("ascii"))
        buffer.clear()
        size = 0

    for line in tree_stream_lines(mtree.tree, place_leaf):
        buffer.append(line)
        size += len(line) + 1
        if size >= page_bytes:
            flush()
    if buffer:
        flush()
    counts["leaves"], counts["entries"] = len(referenced), len(mtree)
    # A leaf the tree no longer has drops its row and the rows of those
    # of its entries no written leaf placed: an entry of a referenced
    # leaf sat in that same leaf before, since keys are unique.
    superseded = []
    for leaf in [digest for digest in known.members
                 if digest not in referenced]:
        superseded.append(rows.pop(leaf))
        superseded.extend(rows.pop(digest) for digest
                          in rows.members.pop(leaf) if digest not in placed)
    return ShardWrite(rows, next_page,
                      sorted(map(row_fields, superseded)), counts)


def _page_lines(blob: bytes) -> list[str]:
    try:
        text = blob.decode("ascii")
    except UnicodeDecodeError as exc:
        raise PersistenceError(f"page is not ascii: {exc}") from exc
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _missing(kind: str, shard: int, gen: int, seq: int) -> PersistenceError:
    return PersistenceError(
        f"page ({kind!r}, shard={shard}, gen={gen}, seq={seq}) is missing")


def load_shard_tree(store: PageStore, shard: int, gen: int,
                    expected_root: Digest | None = None,
                    stats: LoadStats | None = None,
                    rows: PageRows | None = None) -> MerkleBPlusTree:
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
    named: set[int] = set()
    #: in chain order, each leaf's row and then its values' rows
    named_rows: list[int] = []

    def claim(kind: str, refs: list[tuple[int, int]]) -> None:
        for page, page_gen in refs:
            if not 0 <= page_gen <= gen:
                raise PersistenceError(
                    f"{kind} page {page} claims generation {page_gen}, "
                    f"outside its stream's 0..{gen}")
            if page in named:
                raise PersistenceError(f"page id {page} is named twice")
            named.add(page)

    def read_leaf(page: int, page_gen: int):
        claim(KIND_LEAVES, [(page, page_gen)])
        blob = store.read_page(KIND_LEAVES, shard, page_gen, page)
        if blob is None:
            raise _missing(KIND_LEAVES, shard, page_gen, page)
        keys, refs = parse_leaf_page(_page_lines(blob))
        claim(KIND_ENTRIES, refs)
        values = store.read_many(
            KIND_ENTRIES, shard, [(value_gen, value_page)
                                  for value_page, value_gen in refs])
        if None in values:
            value_page, value_gen = refs[values.index(None)]
            raise _missing(KIND_ENTRIES, shard, value_gen, value_page)
        if rows is not None:
            named_rows.append(_row(KIND_LEAVES, page, page_gen))
            named_rows.extend(_row(KIND_ENTRIES, value_page, value_gen)
                              for value_page, value_gen in refs)
        # The leaf's page and its values are resident until the parser
        # has taken the last entry; checksums are verified by the reads.
        size = len(blob) + sum(map(len, values))
        stats.acquire(size, pages=1 + len(values))
        try:
            yield from zip(keys, values)
        finally:
            stats.release(size)

    def nodes_lines():
        # One nodes page resident at a time: checksums are verified
        # inside the store's reads, page by page, as the parser asks.
        for blob in store.read_pages(KIND_NODES, shard, gen):
            stats.acquire(len(blob))
            try:
                yield from _page_lines(blob)
            finally:
                stats.release(len(blob))

    tree = load_tree_stream(nodes_lines(), read_leaf)
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
        at = 0
        while leaf is not None:  # leaves arrived in chain order
            end = at + 1 + len(leaf.keys)
            rows[leaf.digest] = named_rows[at]
            rows.update(zip(leaf.entry_digests, named_rows[at + 1:end]))
            rows.members[leaf.digest] = tuple(leaf.entry_digests)
            at, leaf = end, leaf.next_leaf
    return mtree
