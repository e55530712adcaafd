"""Tests for the Merkle B+-tree's digests: maintenance and O(log n) updates."""

import math

from repro.mtree.bplus import BPlusTree


def fill(mtree, count):
    for i in range(count):
        mtree.insert(f"k{i:05d}".encode(), f"v{i}".encode())


class TestRootDigest:
    def test_empty_tree_has_stable_digest(self):
        assert BPlusTree().root_digest() == BPlusTree().root_digest()

    def test_insert_changes_root(self):
        mtree = BPlusTree()
        before = mtree.root_digest()
        mtree.insert(b"a", b"1")
        assert mtree.root_digest() != before

    def test_overwrite_changes_root(self):
        mtree = BPlusTree()
        mtree.insert(b"a", b"1")
        before = mtree.root_digest()
        mtree.insert(b"a", b"2")
        assert mtree.root_digest() != before

    def test_same_history_same_digest(self):
        a, b = BPlusTree(order=4), BPlusTree(order=4)
        fill(a, 50)
        fill(b, 50)
        assert a.root_digest() == b.root_digest()

    def test_value_matters(self):
        a, b = BPlusTree(), BPlusTree()
        a.insert(b"k", b"v1")
        b.insert(b"k", b"v2")
        assert a.root_digest() != b.root_digest()

    def test_insert_then_delete_restores_digest(self):
        mtree = BPlusTree(order=4)
        fill(mtree, 10)
        before = mtree.root_digest()
        mtree.insert(b"zzz", b"tmp")
        assert mtree.root_digest() != before
        mtree.delete(b"zzz")
        assert mtree.root_digest() == before

    def test_read_does_not_change_root(self):
        mtree = BPlusTree()
        fill(mtree, 20)
        before = mtree.root_digest()
        assert mtree.get(b"k00003") == b"v3"
        list(mtree.range(b"k00001", b"k00009"))
        assert mtree.root_digest() == before

    def test_delegated_api(self):
        mtree = BPlusTree(order=5)
        fill(mtree, 12)
        assert len(mtree) == 12
        assert b"k00000" in mtree
        assert mtree.order == 5
        assert mtree.height() >= 2
        mtree.check_invariants()


class TestLazyRecomputation:
    def test_update_rehashes_logarithmically(self):
        """The paper's O(log n) claim: after one update, recomputing the
        root re-hashes only the dirty path, not the whole tree."""
        mtree = BPlusTree(order=8)
        fill(mtree, 4096)
        mtree.root_digest()  # make everything clean
        mtree.insert(b"k02048", b"updated")
        _root, touched = mtree.refresh_root()
        # Path length is height; splits can add a few nodes.
        assert touched <= 3 * mtree.height()
        assert touched <= 4 * math.ceil(math.log2(4096))

    def test_cached_root_costs_nothing(self):
        mtree = BPlusTree()
        fill(mtree, 100)
        mtree.root_digest()
        assert mtree.refresh_root() == (mtree.root_digest(), 0)

    def test_first_computation_touches_every_node(self):
        mtree = BPlusTree(order=4)
        fill(mtree, 64)
        _root, recomputed = mtree.refresh_root()
        # At least one digest per leaf-level entry group; definitely > height.
        assert recomputed > mtree.height()
