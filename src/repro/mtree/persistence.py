"""Exact-shape persistence for the Merkle B+-tree.

Root digests commit to the *tree shape*, not just the entry set: two
trees holding the same entries but built in different orders hash
differently.  A client's persisted trust anchor (its root digest) must
therefore survive a server restart bit-for-bit, which means persistence
has to serialise the structure, not rebuild from entries.

The format is line-oriented with length prefixes (same conventions as
the RCS store serialisation): a preorder walk writing, per node, its
kind, key count, and for leaves the base64 values.  Keys and values are
binary-safe via urlsafe base64.
"""

from __future__ import annotations

import base64
import binascii

from repro.mtree.bplus import BPlusTree, InternalNode, LeafNode
from repro.mtree.database import VerifiedDatabase
from repro.mtree.forest import MerkleForest
from repro.mtree.merkle import MerkleBPlusTree


class PersistenceError(Exception):
    """Raised on malformed snapshots."""


def dump_tree(tree: BPlusTree) -> bytes:
    """Serialise a B+-tree preserving its exact shape (leaves inline)."""
    return "".join(
        line + "\n" for line in tree_stream_lines(tree)).encode("ascii")


def tree_stream_lines(tree: BPlusTree, place_leaf=None):
    """Yield a tree's snapshot stream, one line at a time: a preorder
    walk writing, per node, its kind and key count.

    Without ``place_leaf`` the format is ``bplus-snapshot 1``: a leaf's
    entries follow its line.  With it the format is the paged store's
    ``bplus-snapshot 2``: ``place_leaf(leaf)`` returns the ``(page,
    generation)`` of the leaf's page (:func:`leaf_page_lines`) and the
    leaf's line -- ``leaf <count> <page> <generation>`` -- names it, so
    the stream carries the header, the structure and the separator keys
    only, and an unchanged leaf costs one short line.
    """
    yield f"bplus-snapshot {1 if place_leaf is None else 2} {tree.order} {len(tree)}"
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            yield f"internal {len(node.keys)}"
            yield " ".join(_b64(key) for key in node.keys)
            stack.extend(reversed(node.children))
        elif place_leaf is None:
            yield f"leaf {len(node.keys)}"
            for key, value in zip(node.keys, node.values):
                yield f"{_b64(key)} {_b64(value)}"
        else:
            page, gen = place_leaf(node)
            yield f"leaf {len(node.keys)} {page} {gen}"


def leaf_page_lines(keys, refs) -> list[str]:
    """The lines of one leaf's page: each key, in order, and the
    ``(page, generation)`` of the page holding its value's raw bytes."""
    return [f"{_b64(key)} {page} {gen}" for key, (page, gen) in zip(keys, refs)]


def parse_leaf_page(lines) -> tuple[list[bytes], list[tuple[int, int]]]:
    """The keys of a :func:`leaf_page_lines` page and the ``(page,
    generation)`` of each one's value, in order."""
    keys, refs = [], []
    for line in lines:
        fields = line.split(" ")
        if len(fields) != 3:
            raise PersistenceError("bad leaf page line: wrong field count")
        try:
            refs.append((int(fields[1]), int(fields[2])))
        except ValueError as exc:
            raise PersistenceError(f"bad leaf page line: {exc}") from exc
        keys.append(_unb64(fields[0]))
    return keys, refs


def load_tree_stream(nodes_lines, read_leaf=None) -> BPlusTree:
    """Reconstruct a tree from its preorder line stream: the one parser.

    ``nodes_lines`` is an iterator of text lines, consumed incrementally
    (never materialised), so the caller can feed it page by page.  With
    ``read_leaf`` the stream is :func:`tree_stream_lines`' (``bplus-
    snapshot 2``): ``read_leaf(page, generation)`` yields the ``(key,
    value)`` entries of the leaf a leaf line names, which must be
    exactly the ``count`` entries the line announces.  Without it the
    stream is :func:`dump_tree`'s (``bplus-snapshot 1``): a leaf's
    ``count`` entries follow its line inline.
    """
    nodes_iter = iter(nodes_lines)
    version = "1" if read_leaf is None else "2"

    def next_line() -> str:
        try:
            return next(nodes_iter)
        except StopIteration:
            raise PersistenceError("unexpected end of snapshot") from None

    header = next_line().split(" ")
    if len(header) != 4 or header[0] != "bplus-snapshot":
        raise PersistenceError("bad snapshot header")
    if header[1] != version:
        raise PersistenceError(
            f"snapshot format {header[1]!r} is not supported here: this "
            f"reader takes 'bplus-snapshot {version}' (1: leaves inline, "
            "2: leaves paged)")
    try:
        order, size = int(header[2]), int(header[3])
    except ValueError as exc:
        raise PersistenceError(f"bad snapshot header: {exc}") from exc
    if order < 3 or size < 0:
        raise PersistenceError("bad snapshot header: implausible order/size")
    tree = BPlusTree(order=order)

    def read_node():
        parts = next_line().split(" ")
        if parts[0] == "leaf":
            node = LeafNode()
            try:
                count, *place = (int(part) for part in parts[1:])
            except ValueError as exc:
                raise PersistenceError(f"bad leaf line: {exc}") from exc
            if len(place) != (0 if read_leaf is None else 2):
                raise PersistenceError("bad leaf line: wrong field count")
            entries = (_inline_entry(next_line()) for _ in range(count)) \
                if read_leaf is None else read_leaf(*place)
            for key, value in entries:
                node.keys.append(key)
                node.values.append(value)
                node.entry_digests.append(None)
            if len(node.keys) != count:
                where = "leaf page {} (generation {})".format(*place) \
                    if place else "inline leaf"
                raise PersistenceError(
                    f"{where} holds {len(node.keys)} entries, its leaf "
                    f"line says {count}")
            return node
        if parts[0] == "internal":
            node = InternalNode()
            try:
                key_count = int(parts[1])
            except (IndexError, ValueError) as exc:
                raise PersistenceError(f"bad internal line: {exc}") from exc
            key_line = next_line()
            if key_count:
                encoded = key_line.split(" ")
                if len(encoded) != key_count:
                    raise PersistenceError("internal key count mismatch")
                node.keys = [_unb64(text) for text in encoded]
            elif key_line:
                raise PersistenceError("expected empty key line")
            for _ in range(key_count + 1):
                node.children.append(read_node())
            return node
        raise PersistenceError(f"unknown node kind {parts[0]!r}")

    root = read_node()
    try:
        next(nodes_iter)
    except StopIteration:
        pass
    else:
        raise PersistenceError("trailing data in snapshot")

    tree._root = root
    tree._size = size
    actual = sum(len(leaf.keys) for leaf in _relink_leaves(tree))
    if actual != size:
        raise PersistenceError(
            f"snapshot header claims {size} entries but the nodes hold {actual}")
    try:
        tree.check_invariants()
    except AssertionError as exc:
        raise PersistenceError(f"snapshot violates tree invariants: {exc}") from exc
    return tree


def load_tree(blob: bytes) -> BPlusTree:
    """Reconstruct a tree serialised by :func:`dump_tree`."""
    try:
        lines = blob.decode("ascii").split("\n")
    except UnicodeDecodeError as exc:
        raise PersistenceError(f"snapshot is not ascii: {exc}") from exc
    if lines[-1] == "":
        lines.pop()
    return load_tree_stream(lines)


def _relink_leaves(tree: BPlusTree) -> list[LeafNode]:
    """Rebuild the leaf chain (next_leaf pointers) after a load; returns
    the leaves in key order."""
    leaves: list[LeafNode] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node)
        else:
            stack.extend(reversed(node.children))
    for left, right in zip(leaves, leaves[1:]):
        left.next_leaf = right
    leaves[-1].next_leaf = None
    return leaves


def dump_forest(forest: MerkleForest) -> bytes:
    """Serialise a Merkle forest: header plus one shard dump per shard.

    Only the shard trees are serialised.  The top tree's shape is a
    deterministic function of the shard count (keys inserted in
    ascending order, then only overwritten), so a load rebuilds it and
    the top root matches the dumped forest bit-for-bit.
    """
    spec = forest.spec
    header = (f"forest-snapshot 1 {spec.order} {spec.top_order} "
              f"{spec.shards}\n").encode("ascii")
    parts = [header]
    for index in range(spec.shards):
        shard_blob = dump_tree(forest.shard_tree(index).tree)
        parts.append(f"shard {index} {len(shard_blob)}\n".encode("ascii"))
        parts.append(shard_blob)
    return b"".join(parts)


def load_forest(blob: bytes) -> MerkleForest:
    """Reconstruct a forest serialised by :func:`dump_forest`."""
    newline = blob.find(b"\n")
    if newline < 0:
        raise PersistenceError("truncated forest snapshot: no header line")
    header = blob[:newline].decode("ascii", errors="replace").split(" ")
    if len(header) != 5 or header[0] != "forest-snapshot" or header[1] != "1":
        raise PersistenceError("bad forest snapshot header")
    try:
        order, top_order, shards = int(header[2]), int(header[3]), int(header[4])
    except ValueError as exc:
        raise PersistenceError(f"bad forest snapshot header: {exc}") from exc
    if order < 3 or top_order < 3 or shards < 1:
        raise PersistenceError(
            "bad forest snapshot header: implausible order/shard count")

    shard_trees: list[MerkleBPlusTree] = []
    position = newline + 1
    for expected_index in range(shards):
        line_end = blob.find(b"\n", position)
        if line_end < 0:
            raise PersistenceError(
                f"truncated forest snapshot: expected {shards} shard "
                f"sections, found {expected_index}")
        fields = blob[position:line_end].decode("ascii", errors="replace").split(" ")
        if len(fields) != 3 or fields[0] != "shard":
            raise PersistenceError("bad shard section header")
        try:
            index, size = int(fields[1]), int(fields[2])
        except ValueError as exc:
            raise PersistenceError(f"bad shard section header: {exc}") from exc
        if index != expected_index:
            raise PersistenceError(
                f"shard sections out of order: expected {expected_index}, "
                f"found {index}")
        position = line_end + 1
        if position + size > len(blob):
            raise PersistenceError(
                f"truncated forest snapshot: shard {index} section cut short")
        tree = load_tree(blob[position:position + size])
        if tree.order != order:
            raise PersistenceError(
                f"shard {index} order {tree.order} disagrees with the "
                f"forest header order {order}")
        position += size
        shard_trees.append(MerkleBPlusTree.from_tree(tree))
    if position != len(blob):
        raise PersistenceError("trailing data in forest snapshot")
    # The deterministically shaped top tree is rebuilt from the restored
    # shard roots; the routing invariant rides along for free.
    forest = MerkleForest.from_shards(shard_trees, top_order)
    try:
        forest.check_invariants()
    except AssertionError as exc:
        raise PersistenceError(f"snapshot violates forest invariants: {exc}") from exc
    return forest


def dump_database(database: VerifiedDatabase) -> bytes:
    """Snapshot a verified database (its Merkle store, shape included)."""
    mtree = database.mtree
    if isinstance(mtree, MerkleForest):
        return dump_forest(mtree)
    return dump_tree(mtree.tree)


def load_database(blob: bytes) -> VerifiedDatabase:
    """Restore a database; the root digest matches the one dumped.

    Dispatches on the snapshot header: plain ``bplus-snapshot`` blobs
    restore a single-tree store, ``forest-snapshot`` blobs a sharded
    one.
    """
    if blob.startswith(b"forest-snapshot "):
        return VerifiedDatabase.from_mtree(load_forest(blob))
    return VerifiedDatabase.from_mtree(
        MerkleBPlusTree.from_tree(load_tree(blob)))


def _inline_entry(line: str) -> tuple[bytes, bytes]:
    key_text, _, value_text = line.partition(" ")
    return _unb64(key_text), _unb64(value_text)


def _b64(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).decode("ascii")


_URLSAFE_ALPHABET = bytes.maketrans(b"-_", b"+/")


def _unb64(text: str) -> bytes:
    # base64.urlsafe_b64decode, without its layers of argument checks
    try:
        return binascii.a2b_base64(
            text.encode("ascii").translate(_URLSAFE_ALPHABET))
    except (binascii.Error, UnicodeEncodeError) as exc:
        raise PersistenceError("bad base64 field") from exc
