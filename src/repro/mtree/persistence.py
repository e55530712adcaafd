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

from repro.mtree.bplus import BPlusTree, InternalNode, LeafNode
from repro.mtree.database import VerifiedDatabase
from repro.mtree.forest import MerkleForest
from repro.mtree.merkle import MerkleBPlusTree


class PersistenceError(Exception):
    """Raised on malformed snapshots."""


def dump_tree(tree: BPlusTree) -> bytes:
    """Serialise a B+-tree preserving its exact shape."""
    out: list[str] = [f"bplus-snapshot 1 {tree.order} {len(tree)}"]

    def walk(node) -> None:
        if node.is_leaf:
            out.append(f"leaf {len(node.keys)}")
            for key, value in zip(node.keys, node.values):
                out.append(f"{_b64(key)} {_b64(value)}")
        else:
            out.append(f"internal {len(node.keys)}")
            out.append(" ".join(_b64(key) for key in node.keys) if node.keys else "")
            for child in node.children:
                walk(child)

    walk(tree.root)
    return ("\n".join(out) + "\n").encode("ascii")


def tree_stream_lines(tree: BPlusTree, place_leaf):
    """Yield the ``nodes`` stream of the paged format, one line at a time.

    The same preorder walk as :func:`dump_tree`, but a leaf's entries
    are not inlined: ``place_leaf(leaf)`` returns the ``(page,
    generation)`` of the page holding them (:func:`leaf_page_lines`) and
    the leaf's line -- ``leaf <count> <page> <generation>`` -- names it.
    The stream therefore carries the header, the structure and the
    separator keys only, and an unchanged leaf costs one short line.
    """
    yield f"bplus-snapshot 2 {tree.order} {len(tree)}"
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            page, gen = place_leaf(node)
            yield f"leaf {len(node.keys)} {page} {gen}"
        else:
            yield f"internal {len(node.keys)}"
            yield " ".join(_b64(key) for key in node.keys)
            stack.extend(reversed(node.children))


def leaf_page_lines(leaf: LeafNode) -> list[str]:
    """The lines of one leaf's page: its key/value entries, in order."""
    return [f"{_b64(key)} {_b64(value)}"
            for key, value in zip(leaf.keys, leaf.values)]


def load_tree_stream(nodes_lines, read_leaf) -> BPlusTree:
    """Reconstruct a tree from :func:`tree_stream_lines`' stream.

    ``nodes_lines`` is an iterator of text lines, consumed incrementally
    (never materialised), so the caller can feed it page by page.
    ``read_leaf(page, generation)`` yields the lines of the leaf page a
    leaf line names; it must hold exactly the ``count`` entries the line
    announces.
    """
    nodes_iter = iter(nodes_lines)

    def next_line() -> str:
        try:
            return next(nodes_iter)
        except StopIteration:
            raise PersistenceError(
                "unexpected end of snapshot (nodes stream)") from None

    header = next_line().split(" ")
    if len(header) != 4 or header[0] != "bplus-snapshot":
        raise PersistenceError("bad snapshot header")
    if header[1] != "2":
        raise PersistenceError(
            f"paged stream format {header[1]!r} is not supported (this "
            "build reads 'bplus-snapshot 2', one page per leaf)")
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
                _kind, count, page, gen = parts
                count, page, gen = int(count), int(page), int(gen)
            except ValueError as exc:
                raise PersistenceError(f"bad leaf line: {exc}") from exc
            for line in read_leaf(page, gen):
                key_text, _, value_text = line.partition(" ")
                node.keys.append(_unb64(key_text))
                node.values.append(_unb64(value_text))
                node.entry_digests.append(None)
            if len(node.keys) != count:
                raise PersistenceError(
                    f"leaf page {page} (generation {gen}) holds "
                    f"{len(node.keys)} entries, its leaf line says {count}")
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
        raise PersistenceError("trailing data in snapshot (nodes stream)")

    def count_entries(node) -> int:
        if node.is_leaf:
            return len(node.keys)
        return sum(count_entries(child) for child in node.children)

    actual = count_entries(root)
    if actual != size:
        raise PersistenceError(
            f"snapshot header claims {size} entries but the nodes hold {actual}")
    tree._root = root
    tree._size = size
    _relink_leaves(tree)
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
    if lines and lines[-1] == "":
        lines.pop()
    position = 0

    def next_line() -> str:
        nonlocal position
        if position >= len(lines):
            raise PersistenceError("unexpected end of snapshot")
        line = lines[position]
        position += 1
        return line

    header = next_line().split(" ")
    if len(header) != 4 or header[0] != "bplus-snapshot" or header[1] != "1":
        raise PersistenceError("bad snapshot header")
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
            for _ in range(int(parts[1])):
                key_text, _, value_text = next_line().partition(" ")
                node.keys.append(_unb64(key_text))
                node.values.append(_unb64(value_text))
                node.entry_digests.append(None)
            return node
        if parts[0] == "internal":
            node = InternalNode()
            key_count = int(parts[1])
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

    try:
        root = read_node()
    except (IndexError, ValueError) as exc:
        raise PersistenceError(f"malformed snapshot: {exc}") from exc
    if position != len(lines):
        raise PersistenceError("trailing data in snapshot")

    def count_entries(node) -> int:
        if node.is_leaf:
            return len(node.keys)
        return sum(count_entries(child) for child in node.children)

    actual = count_entries(root)
    if actual != size:
        raise PersistenceError(
            f"snapshot header claims {size} entries but the nodes hold {actual}")
    tree._root = root
    tree._size = size
    _relink_leaves(tree)
    try:
        tree.check_invariants()
    except AssertionError as exc:
        raise PersistenceError(f"snapshot violates tree invariants: {exc}") from exc
    return tree


def _relink_leaves(tree: BPlusTree) -> None:
    """Rebuild the leaf chain (next_leaf pointers) after a load."""
    leaves: list[LeafNode] = []

    def collect(node) -> None:
        if node.is_leaf:
            leaves.append(node)
        else:
            for child in node.children:
                collect(child)

    collect(tree.root)
    for left, right in zip(leaves, leaves[1:]):
        left.next_leaf = right
    if leaves:
        leaves[-1].next_leaf = None


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

    forest = MerkleForest(order=order, shards=shards, top_order=top_order)
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
        mtree = MerkleBPlusTree(order=order)
        mtree._tree = tree
        forest._shards[index] = mtree
        forest._dirty.add(index)
    if position != len(blob):
        raise PersistenceError("trailing data in forest snapshot")
    # Fold the restored shard roots into the deterministically shaped
    # top tree; the routing invariant rides along for free.
    forest._sync_top()
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
        forest = load_forest(blob)
        database = VerifiedDatabase(
            order=forest.order, shards=forest.shard_count,
            top_order=forest.top_order)
        database._mtree = forest
        return database
    tree = load_tree(blob)
    database = VerifiedDatabase(order=tree.order)
    mtree = MerkleBPlusTree(order=tree.order)
    mtree._tree = tree
    database._mtree = mtree
    return database


def _b64(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    try:
        return base64.urlsafe_b64decode(text.encode("ascii"))
    except Exception as exc:  # noqa: BLE001
        raise PersistenceError("bad base64 field") from exc
