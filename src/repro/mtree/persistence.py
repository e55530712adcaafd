"""Exact-shape persistence for the Merkle B+-tree, in the paged store's format.

Root digests commit to the *tree shape*, not just the entry set: two
trees holding the same entries but built in different orders hash
differently.  A client's trust anchor must therefore survive a server
restart bit-for-bit, which means persistence has to serialise the
structure, not rebuild from entries.

A tree is a ``bplus-snapshot 2`` stream (:func:`tree_stream_lines`) whose
leaf lines name a page of keys (:func:`leaf_page_lines`), each naming the
page of its value; :mod:`repro.storage.engine` pages them.
"""

from __future__ import annotations

import base64
import binascii

from repro.mtree.bplus import BPlusTree, InternalNode, LeafNode


class PersistenceError(Exception):
    """Raised on malformed snapshots."""


def tree_stream_lines(tree: BPlusTree, place_leaf):
    """Yield a tree's snapshot stream, one line at a time: a preorder
    walk writing, per node, its kind and key count.

    ``place_leaf(leaf)`` returns the ``(page, generation)`` of the
    leaf's page (:func:`leaf_page_lines`) and the leaf's line -- ``leaf
    <count> <page> <generation>`` -- names it, so the stream carries the
    header, the structure and the separator keys only, and an unchanged
    leaf costs one short line.
    """
    yield f"bplus-snapshot 2 {tree.order} {len(tree)}"
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            yield f"internal {len(node.keys)}"
            yield " ".join(_b64(key) for key in node.keys)
            stack.extend(reversed(node.children))
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


def load_tree_stream(nodes_lines, read_leaf) -> BPlusTree:
    """Reconstruct a tree from its :func:`tree_stream_lines` stream.

    ``nodes_lines`` is an iterator of text lines, consumed incrementally
    (never materialised), so the caller can feed it page by page.
    ``read_leaf(page, generation)`` yields the ``(key, value)`` entries
    of the leaf a leaf line names, which must be exactly the ``count``
    entries the line announces.
    """
    nodes_iter = iter(nodes_lines)

    def next_line() -> str:
        try:
            return next(nodes_iter)
        except StopIteration:
            raise PersistenceError("unexpected end of snapshot") from None

    header = next_line().split(" ")
    if len(header) != 4 or header[0] != "bplus-snapshot":
        raise PersistenceError("bad snapshot header")
    if header[1] != "2":
        raise PersistenceError(
            f"snapshot format {header[1]!r} is not supported here: this "
            "reader takes 'bplus-snapshot 2' (leaves paged)")
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
            if len(place) != 2:
                raise PersistenceError("bad leaf line: wrong field count")
            for key, value in read_leaf(*place):
                node.keys.append(key)
                node.values.append(value)
                node.entry_digests.append(None)
            if len(node.keys) != count:
                raise PersistenceError(
                    "leaf page {} (generation {}) holds {} entries, its "
                    "leaf line says {}".format(*place, len(node.keys), count))
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
