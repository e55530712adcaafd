"""The Merkle layer: digests over the B+-tree (paper Section 4.1).

"In a Merkle Tree, each node also stores a digest.  The digest stored
in a leaf node is the hash of the data stored at that node.  The digest
stored in an internal node is a hash of the concatenation of the
digests of the node's children."

We cache each node's digest on the node and invalidate lazily: every
mutating B+-tree operation clears the cached digest along the path it
touched, so recomputing the root digest after an update re-hashes only
O(log n) nodes.  ``digest_recomputations`` counts actual re-hashes,
which benchmark E2 uses to demonstrate the O(log n) claim.
"""

from __future__ import annotations

from repro.crypto.hashing import Digest, hash_internal_node, hash_leaf, hash_leaf_node
from repro.mtree.bplus import DEFAULT_ORDER, BPlusTree, InternalNode, LeafNode
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry

_RECOMPUTATIONS = _registry.counter(
    "mtree.node_recomputations", "Merkle nodes re-hashed after mutations")
_CACHE_HITS = _registry.counter(
    "mtree.digest_cache_hits", "node_digest calls served from the clean cache")


class MerkleBPlusTree:
    """A B+-tree whose every node carries a collision-intractable digest.

    The root digest ``M(D)`` commits to the full tree: all entries, all
    separator keys, and the tree shape.
    """

    def __init__(self, order: int = DEFAULT_ORDER) -> None:
        self._adopt(BPlusTree(order=order))

    @classmethod
    def from_tree(cls, tree: BPlusTree) -> "MerkleBPlusTree":
        """The Merkle layer over an existing (loaded) B+-tree."""
        mtree = cls.__new__(cls)
        mtree._adopt(tree)
        return mtree

    def _adopt(self, tree: BPlusTree) -> None:
        self._tree = tree
        self.digest_recomputations = 0

    # -- delegated plain-tree API -----------------------------------------

    @property
    def order(self) -> int:
        return self._tree.order

    def __len__(self) -> int:
        return len(self._tree)

    def __contains__(self, key: bytes) -> bool:
        return key in self._tree

    def get(self, key: bytes) -> bytes | None:
        return self._tree.get(key)

    def items(self):
        return self._tree.items()

    def range(self, low: bytes, high: bytes):
        return self._tree.range(low, high)

    def height(self) -> int:
        return self._tree.height()

    def check_invariants(self) -> None:
        self._tree.check_invariants()

    @property
    def tree(self) -> BPlusTree:
        """The underlying plain B+-tree (read-only use by the proof layer)."""
        return self._tree

    # -- mutation ----------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> bool:
        """Insert or overwrite; invalidates digests along the touched path."""
        return self._tree.insert(key, value)

    def delete(self, key: bytes) -> bool:
        """Delete ``key`` if present; invalidates digests along the path."""
        return self._tree.delete(key)

    def clone(self) -> "MerkleBPlusTree":
        """Structural copy sharing immutable entries and cached digests."""
        twin = MerkleBPlusTree.__new__(MerkleBPlusTree)
        twin._tree = self._tree.clone()
        twin.digest_recomputations = self.digest_recomputations
        return twin

    # -- digests -------------------------------------------------------------

    def root_digest(self) -> Digest:
        """The root digest ``M(D)``, recomputing only dirty nodes.

        All dirty nodes along the touched paths are recomputed in one
        iterative batch -- no recursion, so tree depth is unbounded.
        """
        return self.node_digest(self._tree.root)

    @staticmethod
    def leaf_entry_digests(node: LeafNode) -> list[Digest]:
        """Per-entry digests of ``node``, re-hashing only dirty entries.

        Each slot caches ``hash_leaf(key, value)``; mutations clear only
        the slots they touch, so an update re-hashes one entry instead
        of all ``order - 1``.  The proof layer reads the same cache when
        snapshotting leaves, and when folding a replayed update proof.
        """
        cache = node.entry_digests
        keys = node.keys
        values = node.values
        for index, digest in enumerate(cache):
            if digest is None:
                cache[index] = hash_leaf(keys[index], values[index])
        return cache

    def refresh_root(self) -> tuple[Digest, int]:
        """Recompute the root digest and report the work it took.

        Returns ``(root, recomputed)`` where ``recomputed`` is how many
        nodes this call re-hashed.  One call after a *batch* of
        mutations walks every dirty path in a single pass, so shared
        prefix nodes are hashed once for the whole batch instead of
        once per operation -- the amortisation the batched server path
        relies on.
        """
        before = self.digest_recomputations
        root = self.node_digest(self._tree.root)
        return root, self.digest_recomputations - before

    def node_digest(self, node: LeafNode | InternalNode) -> Digest:
        """Digest of ``node``, from cache when clean."""
        if node.digest is not None:
            if _obs.enabled:
                _CACHE_HITS.inc()
            return node.digest
        # Iterative post-order over the dirty region only: a node is
        # finished once every child is clean, so each dirty node is
        # hashed exactly once per batch.
        recomputed_before = self.digest_recomputations
        stack = [node]
        while stack:
            current = stack[-1]
            if current.digest is not None:
                stack.pop()
                continue
            if current.is_leaf:
                self.digest_recomputations += 1
                current.digest = hash_leaf_node(self.leaf_entry_digests(current))
                stack.pop()
                continue
            dirty_children = [c for c in current.children if c.digest is None]
            if dirty_children:
                stack.extend(dirty_children)
            else:
                self.digest_recomputations += 1
                current.digest = hash_internal_node(
                    list(current.keys), [c.digest for c in current.children])
                stack.pop()
        if _obs.enabled:
            _RECOMPUTATIONS.inc(self.digest_recomputations - recomputed_before)
        return node.digest
