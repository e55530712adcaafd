"""The paged snapshot engine: shard trees <-> pages, one page per entry.

Sits between the Merkle tree and a :class:`~repro.storage.pagestore.PageStore`,
and is the one module that knows the page format.  Root digests commit
to the *tree shape*, not just the entry set (two trees holding the same
entries but built in different orders hash differently), so a shard is
stored shape-exact, every page a frame of the one codec
(:mod:`repro.wire`), as

* one ``"nodes"`` page stream per generation that changed it: the
  tree's order, then a preorder walk -- a :class:`NodeEntry` per
  internal node (its separator keys, front-coded as in every VO) and a
  :class:`LeafEntry` per leaf naming the page that holds it -- chunked
  at :data:`PAGE_BYTES`,
* one ``"leaves"`` page per leaf, a :class:`LeafPage`: its keys, each
  with the ``(page, generation)`` of the page holding its value, and
* one ``"entries"`` page per entry: the value's raw bytes.

Every page is keyed ``(shard, generation, page id)``, written by the
checkpoint that last saw its bytes change; page ids come from one
counter per shard.

**Dirtiness is derived, not marked.**  The Merkle tree already keeps a
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

Loading decodes the ``nodes`` pages one at a time and, as each
:class:`LeafEntry` arrives, fetches the leaf's page and then its values
with one batched read (:meth:`PageStore.read_many`), so restart memory
is bounded by the tree being rebuilt plus one ``nodes`` page and one
leaf's pages, never the whole serialised snapshot
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
from repro.mtree.bplus import BPlusTree, InternalNode, LeafNode, TreeShapeError
from repro.storage.pagestore import PageStore, StorageError


# The page records; their layouts are rows of ``repro.wire._RECORDS``.


@dataclass(frozen=True)
class NodeEntry:
    """An internal node in a ``nodes`` stream: its separator keys.  Its
    ``len(keys) + 1`` children follow it, in order."""

    keys: tuple


@dataclass(frozen=True)
class LeafEntry:
    """A leaf in a ``nodes`` stream: ``(entry count, page, generation)``
    of its ``leaves`` page."""

    place: tuple


@dataclass(frozen=True)
class LeafPage:
    """A ``leaves`` page: the leaf's keys and, flattened, the ``(page,
    generation)`` of each one's ``entries`` page."""

    keys: tuple
    refs: tuple


# Imported after the records, which the codec's layout table names.
from repro.wire import WireError, decode_frames, encode  # noqa: E402

#: target payload size of one ``nodes`` page; a page holds whole frames,
#: so real pages straddle this by at most one frame.  A leaf page holds
#: one leaf and an entry page one value, whatever its size.
PAGE_BYTES = 32 * 1024

KIND_NODES = "nodes"
KIND_LEAVES = "leaves"
KIND_ENTRIES = "entries"
#: the ``counts`` keys each kind's pages and their bytes are tallied under
_COUNTED = {kind: (f"{name}_pages", f"{name}_bytes") for kind, name
            in ((KIND_NODES, "nodes"), (KIND_LEAVES, "leaf"),
                (KIND_ENTRIES, "value"))}


_GEN_BITS = 32
#: no tree of order >= 3 and fewer than 2**63 entries is taller: a
#: ``nodes`` stream nesting deeper is refused before it exhausts the stack
_MAX_HEIGHT = 64


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
    references -- and :attr:`frames`, the encoded :class:`LeafEntry` of
    each leaf a walk wrote or referenced, so that the next walk copies
    it instead of encoding it again."""

    def __init__(self, rows=()) -> None:
        super().__init__(rows)
        self.members: dict[Digest, tuple[Digest, ...]] = {}
        self.frames: dict[Digest, bytes] = {}


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
                      mtree: BPlusTree, known: PageRows | None = None,
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
    rows.frames.update(known.frames)
    referenced: set[Digest] = set()   # leaves of the tree
    placed: set[Digest] = set()       # entries of the leaves written now
    counts = {name: 0 for names in _COUNTED.values() for name in names}

    def write(kind: str, seq: int, blob: bytes) -> None:
        store.write_page(kind, shard, gen, seq, blob)
        pages, size = _COUNTED[kind]
        counts[pages] += 1
        counts[size] += len(blob)

    def new_row(kind: str, digest: Digest, blob: bytes) -> int:
        nonlocal next_page
        write(kind, next_page, blob)
        row = rows[digest] = _row(kind, next_page, gen)
        next_page += 1
        return row

    def place_leaf(leaf) -> bytes:
        """The leaf's :class:`LeafEntry` frame, its pages written first
        unless the store holds them."""
        referenced.add(leaf.digest)
        frame = known.frames.get(leaf.digest)
        if frame is not None:
            return frame
        row = known.get(leaf.digest)
        if row is None:
            refs = []
            for digest, value in zip(leaf.entry_digests, leaf.values):
                entry = known.get(digest)
                if entry is None:
                    entry = new_row(KIND_ENTRIES, digest, value)
                placed.add(digest)
                refs += row_fields(entry)[1:]
            row = new_row(KIND_LEAVES, leaf.digest,
                          encode(LeafPage(leaf.keys, refs)))
            rows.members[leaf.digest] = tuple(leaf.entry_digests)
        frame = rows.frames[leaf.digest] = encode(
            LeafEntry((len(leaf.keys), *row_fields(row)[1:])))
        return frame

    page = bytearray(encode(mtree.order))
    stack = [mtree.root]
    while stack:  # preorder: a node, then its children left to right
        node = stack.pop()
        if node.is_leaf:
            page += place_leaf(node)
        else:
            page += encode(NodeEntry(node.keys))
            stack.extend(reversed(node.children))
        if len(page) >= page_bytes or not stack:
            write(KIND_NODES, counts["nodes_pages"], bytes(page))
            page.clear()
    counts["leaves"], counts["entries"] = len(referenced), len(mtree)
    # A leaf the tree no longer has drops its row and the rows of those
    # of its entries no written leaf placed: an entry of a referenced
    # leaf sat in that same leaf before, since keys are unique.
    superseded = []
    for leaf in [digest for digest in known.members
                 if digest not in referenced]:
        superseded.append(rows.pop(leaf))
        rows.frames.pop(leaf, None)
        superseded.extend(rows.pop(digest) for digest
                          in rows.members.pop(leaf) if digest not in placed)
    return ShardWrite(rows, next_page,
                      sorted(map(row_fields, superseded)), counts)


def _frames(blob: bytes, what: str) -> list:
    try:
        return decode_frames(blob)
    except WireError as exc:
        raise StorageError(f"{what} does not decode: {exc}") from exc


def _missing(kind: str, shard: int, gen: int, seq: int) -> StorageError:
    return StorageError(
        f"page ({kind!r}, shard={shard}, gen={gen}, seq={seq}) is missing")


def load_shard_tree(store: PageStore, shard: int, gen: int,
                    expected_root: Digest | None = None,
                    stats: LoadStats | None = None,
                    rows: PageRows | None = None) -> BPlusTree:
    """Stream one shard's pages back into a Merkle tree and verify it.

    ``rows``, when given, is filled with what the store holds for the
    loaded state (the ``known`` of the next :func:`write_shard_pages`).

    Raises :class:`~repro.storage.pagestore.StorageError` -- a
    :class:`~repro.storage.pagestore.CorruptPageError` on page rot --
    on a page that does not decode, is missing or names what it may
    not, on a tree breaking an invariant, and when the recomputed root
    disagrees with ``expected_root``: every one sends the caller down
    the quarantine + repair path.
    """
    stats = stats if stats is not None else LoadStats()
    stream = f"the nodes stream of generation {gen}"
    named: set[int] = set()
    #: each leaf, its page's row and its values' rows
    placed: list[tuple[LeafNode, int, list[int]]] = []

    def claim(kind: str, page: int, page_gen: int) -> None:
        if not 0 <= page_gen <= gen:
            raise StorageError(
                f"{kind} page {page} claims generation {page_gen}, "
                f"outside its stream's 0..{gen}")
        if page in named:
            raise StorageError(f"page id {page} is named twice")
        named.add(page)

    def read_leaf(place: tuple) -> LeafNode:
        if len(place) != 3:
            raise StorageError(f"a leaf entry of {len(place)} fields")
        count, page, page_gen = place
        claim(KIND_LEAVES, page, page_gen)
        blob = store.read_page(KIND_LEAVES, shard, page_gen, page)
        if blob is None:
            raise _missing(KIND_LEAVES, shard, page_gen, page)
        what = f"leaf page {page} (generation {page_gen})"
        frames = _frames(blob, what)
        if len(frames) != 1 or type(frames[0]) is not LeafPage:
            raise StorageError(f"{what} is not one leaf page record")
        record = frames[0]
        if len(record.keys) != count or len(record.refs) != 2 * count:
            raise StorageError(
                f"{what} holds {len(record.keys)} entries and "
                f"{len(record.refs)} page fields, its leaf entry says "
                f"{count} entries")
        places = list(zip(record.refs[1::2], record.refs[::2]))
        for value_gen, value_page in places:
            claim(KIND_ENTRIES, value_page, value_gen)
        values = store.read_many(KIND_ENTRIES, shard, places)
        if None in values:
            raise _missing(KIND_ENTRIES, shard, *places[values.index(None)])
        # Checksums were verified by the reads; the leaf's page is
        # resident only while the leaf is built from it.
        size = len(blob) + sum(map(len, values))
        stats.acquire(size, pages=1 + count)
        stats.release(size)
        leaf = LeafNode()
        leaf.keys, leaf.values = list(record.keys), values
        leaf.entry_digests = [None] * count
        if rows is not None:
            placed.append((leaf, _row(KIND_LEAVES, page, page_gen), [
                _row(KIND_ENTRIES, value_page, value_gen)
                for value_gen, value_page in places]))
        return leaf

    def node_frames():
        # One nodes page resident at a time: checksums are verified
        # inside the store's reads, page by page, as the walk asks.
        for blob in store.read_pages(KIND_NODES, shard, gen):
            stats.acquire(len(blob))
            try:
                yield from _frames(blob, f"a nodes page of generation {gen}")
            finally:
                stats.release(len(blob))

    frames = node_frames()
    done = object()

    def read_node(depth: int):
        frame = next(frames, done)
        if type(frame) is LeafEntry:
            return read_leaf(frame.place)
        if type(frame) is not NodeEntry:
            raise StorageError(f"{stream} ends early" if frame is done
                               else f"a {type(frame).__name__} in {stream}")
        if depth >= _MAX_HEIGHT:
            raise StorageError(f"{stream} nests deeper than any tree")
        node = InternalNode()
        node.keys = list(frame.keys)
        node.children = [read_node(depth + 1)
                         for _ in range(len(node.keys) + 1)]
        return node

    order = next(frames, done)
    if type(order) is not int or order < 3:
        raise StorageError(f"{stream} does not open with an order")
    root = read_node(0)
    if next(frames, done) is not done:
        raise StorageError(f"trailing data in {stream}")
    try:
        tree = BPlusTree.from_root(order, root)
    except TreeShapeError as exc:
        raise StorageError(
            f"{stream} violates tree invariants: {exc}") from exc
    if expected_root is not None or rows is not None:
        # Recompute every digest from the loaded entries: binds the
        # page bytes to the root the WAL chain anchors, so tampered
        # pages with refreshed checksums are still caught here.
        actual, _nodes = tree.refresh_root()
        if expected_root is not None and actual != expected_root:
            raise StorageError(
                f"shard {shard} gen {gen} hashes to {actual.short()}..., "
                f"manifest records {expected_root.short()}...")
    for leaf, row, value_rows in placed:
        rows[leaf.digest] = row
        rows.update(zip(leaf.entry_digests, value_rows))
        rows.members[leaf.digest] = tuple(leaf.entry_digests)
    return tree
