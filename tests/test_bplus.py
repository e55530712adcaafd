"""Structural tests and model-based property tests for the B+-tree."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mtree.bplus import BPlusTree


def fill(tree, count, prefix=b"k"):
    for i in range(count):
        tree.insert(prefix + f"{i:04d}".encode(), f"v{i}".encode())


class TestBasics:
    def test_empty(self):
        tree = BPlusTree(order=4)
        assert len(tree) == 0
        assert tree.get(b"x") is None
        assert b"x" not in tree
        assert list(tree.items()) == []
        tree.check_invariants()

    def test_order_minimum(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_insert_get(self):
        tree = BPlusTree(order=4)
        assert tree.insert(b"a", b"1") is True
        assert tree.get(b"a") == b"1"
        assert b"a" in tree

    def test_overwrite_returns_false(self):
        tree = BPlusTree(order=4)
        assert tree.insert(b"a", b"1") is True
        assert tree.insert(b"a", b"2") is False
        assert tree.get(b"a") == b"2"
        assert len(tree) == 1

    def test_type_checks(self):
        tree = BPlusTree(order=4)
        with pytest.raises(TypeError):
            tree.insert("str", b"v")
        with pytest.raises(TypeError):
            tree.insert(b"k", "str")
        with pytest.raises(TypeError):
            tree.delete("str")

    def test_delete_missing(self):
        tree = BPlusTree(order=4)
        assert tree.delete(b"nope") is False

    def test_delete_present(self):
        tree = BPlusTree(order=4)
        tree.insert(b"a", b"1")
        assert tree.delete(b"a") is True
        assert tree.get(b"a") is None
        assert len(tree) == 0

    def test_items_sorted(self):
        tree = BPlusTree(order=4)
        for key in [b"m", b"a", b"z", b"c", b"q"]:
            tree.insert(key, key)
        assert [k for k, _ in tree.items()] == [b"a", b"c", b"m", b"q", b"z"]

    def test_height_grows(self):
        tree = BPlusTree(order=4)
        assert tree.height() == 1
        fill(tree, 64)
        assert tree.height() >= 3
        tree.check_invariants()

    def test_root_collapse_on_deletion(self):
        tree = BPlusTree(order=4)
        fill(tree, 40)
        for i in range(39):
            assert tree.delete(b"k" + f"{i:04d}".encode())
            tree.check_invariants()
        assert tree.height() == 1
        assert len(tree) == 1


class TestRange:
    def test_range_inclusive(self):
        tree = BPlusTree(order=4)
        fill(tree, 20)
        result = list(tree.range(b"k0005", b"k0010"))
        assert [k for k, _ in result] == [b"k" + f"{i:04d}".encode() for i in range(5, 11)]

    def test_range_empty_when_inverted(self):
        tree = BPlusTree(order=4)
        fill(tree, 5)
        assert list(tree.range(b"k0004", b"k0001")) == []

    def test_range_outside_keyspace(self):
        tree = BPlusTree(order=4)
        fill(tree, 5)
        assert list(tree.range(b"z", b"zz")) == []

    def test_range_whole_tree(self):
        tree = BPlusTree(order=3)
        fill(tree, 30)
        assert len(list(tree.range(b"", b"\xff"))) == 30


@st.composite
def operation_sequences(draw):
    keys = st.integers(min_value=0, max_value=60).map(lambda i: f"key{i:03d}".encode())
    ops = st.one_of(
        st.tuples(st.just("insert"), keys, st.binary(min_size=0, max_size=6)),
        st.tuples(st.just("delete"), keys, st.just(b"")),
    )
    return draw(st.lists(ops, max_size=120))


class TestModelBased:
    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(min_value=3, max_value=9), ops=operation_sequences())
    def test_matches_dict_model(self, order, ops):
        tree = BPlusTree(order=order)
        model = {}
        for kind, key, value in ops:
            if kind == "insert":
                tree.insert(key, value)
                model[key] = value
            else:
                assert tree.delete(key) == (key in model)
                model.pop(key, None)
        tree.check_invariants()
        assert dict(tree.items()) == model
        assert len(tree) == len(model)
        for key, value in model.items():
            assert tree.get(key) == value

    @settings(max_examples=30, deadline=None)
    @given(ops=operation_sequences())
    def test_invariants_hold_after_every_op(self, ops):
        tree = BPlusTree(order=3)  # smallest order stresses rebalancing most
        for kind, key, value in ops:
            if kind == "insert":
                tree.insert(key, value)
            else:
                tree.delete(key)
            tree.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=80),
        low=st.integers(min_value=0, max_value=90),
        span=st.integers(min_value=0, max_value=40),
    )
    def test_range_matches_model(self, n, low, span):
        tree = BPlusTree(order=4)
        model = {}
        for i in range(n):
            key = f"key{(i * 7) % 97:03d}".encode()
            tree.insert(key, str(i).encode())
            model[key] = str(i).encode()
        lo = f"key{low:03d}".encode()
        hi = f"key{low + span:03d}".encode()
        expected = sorted((k, v) for k, v in model.items() if lo <= k <= hi)
        assert list(tree.range(lo, hi)) == expected


class TestFromRoot:
    """A tree over existing nodes: a copy is linked and counted, a
    loaded root is also checked."""

    def _tree(self, n=40, order=4):
        tree = BPlusTree(order=order)
        for i in range(n):
            tree.insert(f"key{i:03d}".encode(), str(i).encode())
        return tree

    def test_clone_links_the_chain_and_counts(self):
        tree = self._tree()
        twin = tree.clone()
        assert len(twin) == 40 and list(twin.items()) == list(tree.items())
        twin.insert(b"key999", b"x")
        assert b"key999" not in tree and len(tree) == 40

    def test_a_root_breaking_an_invariant_is_refused(self):
        root = self._tree().clone().root
        del root.children[0].children[0].keys[0]  # a leaf now underfull
        with pytest.raises(AssertionError):
            BPlusTree.from_root(4, root)
        with pytest.raises(AssertionError, match="underfull"):
            BPlusTree.from_root(16, self._tree(order=4).clone().root)
