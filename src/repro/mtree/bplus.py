"""A B+-tree of byte-string keys and values.

This is the plain search structure underneath the Merkle tree of
Section 4.1: "a B+-tree [15] where the leaf nodes of the tree contain
data, and the internal nodes contain keys and tree pointers".

Design notes
------------
* ``order`` is the maximum number of children of an internal node (the
  paper's branching factor ``m + 1``).  Leaves hold at most
  ``order - 1`` entries; both node kinds must stay at least half full
  (the root is exempt).
* Mutating operations clear the cached ``digest`` attribute on every
  node they touch, so the Merkle layer (:mod:`repro.mtree.merkle`) can
  recompute digests lazily along dirty paths only -- this is what makes
  a single update cost O(log n) digest work.
* Keys are ``bytes`` and are compared lexicographically, matching how
  they are committed into node digests.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator

DEFAULT_ORDER = 8


def route_index(keys, key: bytes) -> int:
    """The child a lookup for ``key`` descends into below separator
    ``keys`` (and where an absent ``key`` goes in a leaf): the one
    routing rule, for the tree and every client check of a revealed path."""
    return bisect_right(keys, key)


class LeafNode:
    """A leaf holding sorted (key, value) entries and a next-leaf link.

    ``entry_digests`` mirrors ``keys``/``values`` entry-for-entry: each
    slot caches ``hash_leaf(key, value)`` (``None`` = not yet hashed).
    Mutations keep the list aligned but only clear the slots they touch,
    so recomputing a leaf digest after an update re-hashes one entry
    instead of all ``order - 1`` of them.
    """

    __slots__ = ("keys", "values", "next_leaf", "digest", "entry_digests")

    def __init__(self) -> None:
        self.keys: list[bytes] = []
        self.values: list[bytes] = []
        self.next_leaf: LeafNode | None = None
        self.digest = None  # cache managed by the Merkle layer
        self.entry_digests: list = []  # per-entry cache, same arity as keys

    @property
    def is_leaf(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"LeafNode({[k.decode('utf-8', 'replace') for k in self.keys]})"


class InternalNode:
    """An internal node: separator keys and child pointers.

    ``keys[i]`` is the smallest key reachable in ``children[i + 1]``, so
    a lookup for ``k`` follows ``children[route_index(keys, k)]``.
    """

    __slots__ = ("keys", "children", "digest")

    def __init__(self) -> None:
        self.keys: list[bytes] = []
        self.children: list[LeafNode | InternalNode] = []
        self.digest = None  # cache managed by the Merkle layer

    @property
    def is_leaf(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"InternalNode(keys={[k.decode('utf-8', 'replace') for k in self.keys]}, fanout={len(self.children)})"


class BPlusTree:
    """A B+-tree mapping ``bytes`` keys to ``bytes`` values.

    ``root`` runs the tree's operations over existing nodes -- the
    partial tree an update proof reveals, which the client replays the
    update on; ``len`` then starts from zero.
    """

    def __init__(self, order: int = DEFAULT_ORDER,
                 root: LeafNode | InternalNode | None = None) -> None:
        if order < 3:
            raise ValueError("order must be at least 3")
        self._order = order
        self._root: LeafNode | InternalNode = LeafNode() if root is None else root
        self._size = 0

    # -- basic properties -------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    @property
    def root(self) -> LeafNode | InternalNode:
        return self._root

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    @property
    def _max_entries(self) -> int:
        return self._order - 1

    @property
    def _min_entries(self) -> int:
        return (self._order - 1) // 2

    @property
    def _min_children(self) -> int:
        return (self._order + 1) // 2

    # -- lookup ------------------------------------------------------------

    def search_path(self, key: bytes) -> list[LeafNode | InternalNode]:
        """The root-to-leaf node path a lookup for ``key`` follows."""
        path: list[LeafNode | InternalNode] = []
        node: LeafNode | InternalNode = self._root
        while True:
            path.append(node)
            if node.is_leaf:
                return path
            node = node.children[route_index(node.keys, key)]

    def get(self, key: bytes) -> bytes | None:
        """The value stored for ``key``, or ``None``."""
        leaf = self.search_path(key)[-1]
        for stored_key, value in zip(leaf.keys, leaf.values):
            if stored_key == key:
                return value
        return None

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """All entries in key order, via the leaf chain."""
        node: LeafNode | InternalNode = self._root
        while not node.is_leaf:
            node = node.children[0]
        leaf: LeafNode | None = node
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next_leaf

    def keys(self) -> Iterator[bytes]:
        for key, _value in self.items():
            yield key

    def range(self, low: bytes, high: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Entries with ``low <= key <= high``, in key order."""
        if low > high:
            return
        leaf = self.search_path(low)[-1]
        current: LeafNode | None = leaf
        while current is not None:
            for key, value in zip(current.keys, current.values):
                if key < low:
                    continue
                if key > high:
                    return
                yield (key, value)
            current = current.next_leaf

    # -- insertion -----------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> bool:
        """Insert or overwrite ``key``.

        Returns ``True`` if a new key was inserted, ``False`` if an
        existing key's value was overwritten.
        """
        _check_key_value(key, value)
        path = self.search_path(key)
        leaf = path[-1]
        for node in path:
            node.digest = None

        # Overwrite in place if the key already exists.
        for index, stored_key in enumerate(leaf.keys):
            if stored_key == key:
                leaf.values[index] = value
                leaf.entry_digests[index] = None
                return False

        position = route_index(leaf.keys, key)  # the key is absent here
        leaf.keys.insert(position, key)
        leaf.values.insert(position, value)
        leaf.entry_digests.insert(position, None)
        self._size += 1

        if len(leaf.keys) > self._max_entries:
            self._split_up(path)
        return True

    def _split_up(self, path: list[LeafNode | InternalNode]) -> None:
        """Split the overfull node at the end of ``path``, propagating up."""
        node = path[-1]
        parents = path[:-1]
        while True:
            if node.is_leaf:
                separator, sibling = self._split_leaf(node)
            else:
                separator, sibling = self._split_internal(node)
            if not parents:
                new_root = InternalNode()
                new_root.keys = [separator]
                new_root.children = [node, sibling]
                self._root = new_root
                return
            parent = parents.pop()
            assert not parent.is_leaf
            parent.digest = None
            child_pos = parent.children.index(node)
            parent.keys.insert(child_pos, separator)
            parent.children.insert(child_pos + 1, sibling)
            if len(parent.children) <= self._order:
                return
            node = parent

    def _split_leaf(self, leaf: LeafNode) -> tuple[bytes, LeafNode]:
        """Split ``leaf`` in half; returns (separator, right sibling)."""
        middle = (len(leaf.keys) + 1) // 2
        sibling = LeafNode()
        sibling.keys = leaf.keys[middle:]
        sibling.values = leaf.values[middle:]
        sibling.entry_digests = leaf.entry_digests[middle:]
        sibling.next_leaf = leaf.next_leaf
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        leaf.entry_digests = leaf.entry_digests[:middle]
        leaf.next_leaf = sibling
        leaf.digest = None
        return sibling.keys[0], sibling

    def _split_internal(self, node: InternalNode) -> tuple[bytes, InternalNode]:
        """Split an overfull internal node; the middle key moves up."""
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        sibling = InternalNode()
        sibling.keys = node.keys[middle + 1:]
        sibling.children = node.children[middle + 1:]
        node.keys = node.keys[:middle]
        node.children = node.children[:middle + 1]
        node.digest = None
        return separator, sibling

    # -- deletion -----------------------------------------------------------

    def delete(self, key: bytes) -> bool:
        """Delete ``key``; returns ``True`` iff it was present."""
        if not isinstance(key, bytes):
            raise TypeError("keys must be bytes")
        path = self.search_path(key)
        leaf = path[-1]
        if key not in leaf.keys:
            return False
        for node in path:
            node.digest = None
        position = leaf.keys.index(key)
        del leaf.keys[position]
        del leaf.values[position]
        del leaf.entry_digests[position]
        self._size -= 1
        self._rebalance_up(path)
        return True

    def _rebalance_up(self, path: list[LeafNode | InternalNode]) -> None:
        """Fix underflow at the end of ``path``, propagating toward the root."""
        node = path[-1]
        parents = path[:-1]
        while parents:
            parent = parents[-1]
            assert not parent.is_leaf
            if node.is_leaf:
                underfull = len(node.keys) < self._min_entries
            else:
                underfull = len(node.children) < self._min_children
            if not underfull:
                # Separator keys on the path may now be stale (the
                # deleted key may have been a separator), but a stale
                # separator is still a correct partition bound, so no
                # repair is needed.
                return
            parent.digest = None
            child_pos = parent.children.index(node)
            if child_pos > 0 and self._can_lend(parent.children[child_pos - 1]):
                self._borrow_from_left(parent, child_pos)
                return
            if child_pos + 1 < len(parent.children) and self._can_lend(parent.children[child_pos + 1]):
                self._borrow_from_right(parent, child_pos)
                return
            if child_pos > 0:
                self._merge_children(parent, child_pos - 1)
            else:
                self._merge_children(parent, child_pos)
            node = parents.pop()
        # ``node`` is the root.
        if not node.is_leaf and len(node.children) == 1:
            self._root = node.children[0]

    def _can_lend(self, node: LeafNode | InternalNode) -> bool:
        if node.is_leaf:
            return len(node.keys) > self._min_entries
        return len(node.children) > self._min_children

    def _borrow_from_left(self, parent: InternalNode, child_pos: int) -> None:
        left = parent.children[child_pos - 1]
        node = parent.children[child_pos]
        left.digest = None
        node.digest = None
        if node.is_leaf:
            node.keys.insert(0, left.keys.pop())
            node.values.insert(0, left.values.pop())
            node.entry_digests.insert(0, left.entry_digests.pop())
            parent.keys[child_pos - 1] = node.keys[0]
        else:
            # Rotate through the parent separator.
            node.keys.insert(0, parent.keys[child_pos - 1])
            node.children.insert(0, left.children.pop())
            parent.keys[child_pos - 1] = left.keys.pop()

    def _borrow_from_right(self, parent: InternalNode, child_pos: int) -> None:
        node = parent.children[child_pos]
        right = parent.children[child_pos + 1]
        node.digest = None
        right.digest = None
        if node.is_leaf:
            node.keys.append(right.keys.pop(0))
            node.values.append(right.values.pop(0))
            node.entry_digests.append(right.entry_digests.pop(0))
            parent.keys[child_pos] = right.keys[0]
        else:
            node.keys.append(parent.keys[child_pos])
            node.children.append(right.children.pop(0))
            parent.keys[child_pos] = right.keys.pop(0)

    def _merge_children(self, parent: InternalNode, left_pos: int) -> None:
        """Merge ``children[left_pos + 1]`` into ``children[left_pos]``."""
        left = parent.children[left_pos]
        right = parent.children[left_pos + 1]
        left.digest = None
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.entry_digests.extend(right.entry_digests)
            left.next_leaf = right.next_leaf
        else:
            left.keys.append(parent.keys[left_pos])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[left_pos]
        del parent.children[left_pos + 1]

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert every structural B+-tree invariant; raises AssertionError.

        Used heavily by the property-based tests.
        """
        leaf_depths: set[int] = set()
        count = self._check_node(self._root, depth=0, is_root=True,
                                 lower=None, upper=None, leaf_depths=leaf_depths)
        assert count == self._size, f"size mismatch: counted {count}, recorded {self._size}"
        assert len(leaf_depths) == 1, f"leaves at different depths: {leaf_depths}"
        self._check_leaf_chain()

    def _check_node(self, node, depth, is_root, lower, upper, leaf_depths) -> int:
        if node.is_leaf:
            leaf_depths.add(depth)
            assert node.keys == sorted(node.keys), "leaf keys out of order"
            assert len(node.keys) == len(set(node.keys)), "duplicate keys in leaf"
            assert len(node.keys) == len(node.values), "leaf key/value arity mismatch"
            assert len(node.keys) == len(node.entry_digests), "leaf entry-digest arity mismatch"
            assert len(node.keys) <= self._max_entries, "overfull leaf"
            if not is_root:
                assert len(node.keys) >= self._min_entries, "underfull leaf"
            for key in node.keys:
                assert lower is None or key >= lower, "leaf key below subtree lower bound"
                assert upper is None or key < upper, "leaf key above subtree upper bound"
            return len(node.keys)
        assert len(node.children) == len(node.keys) + 1, "internal arity mismatch"
        assert len(node.children) <= self._order, "overfull internal node"
        if is_root:
            assert len(node.children) >= 2, "internal root with a single child"
        else:
            assert len(node.children) >= self._min_children, "underfull internal node"
        assert node.keys == sorted(node.keys), "internal keys out of order"
        count = 0
        for index, child in enumerate(node.children):
            child_lower = node.keys[index - 1] if index > 0 else lower
            child_upper = node.keys[index] if index < len(node.keys) else upper
            count += self._check_node(child, depth + 1, False, child_lower, child_upper, leaf_depths)
        return count

    def _check_leaf_chain(self) -> None:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        chained = []
        leaf: LeafNode | None = node
        while leaf is not None:
            chained.extend(leaf.keys)
            leaf = leaf.next_leaf
        assert chained == sorted(chained), "leaf chain out of order"
        assert len(chained) == self._size, "leaf chain misses entries"

    def clone(self) -> "BPlusTree":
        """Structural copy: fresh nodes, shared immutable contents.

        Both the original and the copy may be mutated independently
        afterwards (attack forks, the deviation judge's replay), so every
        node object is duplicated -- but the byte-string keys/values and
        cached :class:`Digest` objects they hold are immutable and
        therefore shared.  Far cheaper than ``copy.deepcopy``.
        """
        def copy_node(node):
            if node.is_leaf:
                leaf = LeafNode()
                leaf.keys = list(node.keys)
                leaf.values = list(node.values)
                leaf.entry_digests = list(node.entry_digests)
                leaf.digest = node.digest
                return leaf
            internal = InternalNode()
            internal.keys = list(node.keys)
            internal.children = [copy_node(child) for child in node.children]
            internal.digest = node.digest
            return internal

        # A copy of a valid tree is valid: it is linked, not checked.
        twin = BPlusTree(self._order, copy_node(self._root))
        twin._link_leaves()
        return twin

    @classmethod
    def from_root(cls, order: int,
                  root: LeafNode | InternalNode) -> "BPlusTree":
        """The tree whose complete nodes hang under ``root`` -- a loaded
        one's: links the leaf chain, counts the entries and checks every
        invariant (an AssertionError if one fails)."""
        tree = cls(order, root)
        tree._link_leaves()
        tree.check_invariants()
        return tree

    def _link_leaves(self) -> None:
        """Chain the leaves under the root in key order and count their
        entries: what a tree built over existing nodes lacks."""
        leaves: list[LeafNode] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
            else:
                stack.extend(reversed(node.children))
        for left, right in zip(leaves, leaves[1:]):
            left.next_leaf = right
        leaves[-1].next_leaf = None
        self._size = sum(len(leaf.keys) for leaf in leaves)

    def height(self) -> int:
        """Number of levels (a lone leaf root has height 1)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height


def _check_key_value(key: bytes, value: bytes) -> None:
    if not isinstance(key, bytes):
        raise TypeError("keys must be bytes")
    if not isinstance(value, bytes):
        raise TypeError("values must be bytes")
