"""Tests for update verification objects: client-side replay of
inserts/deletes (including splits, borrows, merges, root changes) with
the server's own B+-tree code."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import hash_bytes
from repro.mtree.database import ClientVerifier, DeleteQuery, QueryResult, WriteQuery
from repro.mtree.merkle import MerkleBPlusTree
from repro.mtree.proofs import (
    DeleteProof,
    ProofError,
    SiblingPair,
    build_delete_proof,
    build_path_proof,
    derive_update_roots,
)


def verified_update(root, proof, order, key, value=None):
    """The new root a client tracking ``root`` derives from ``proof`` as
    the VO of writing ``value`` at ``key`` (of deleting ``key`` if
    ``value`` is None)."""
    query = DeleteQuery(key) if value is None else WriteQuery(key, value)
    client = ClientVerifier(root, order)
    client.apply(query, QueryResult(None, proof))
    return client.root_digest


def make_tree(n, order=4):
    mtree = MerkleBPlusTree(order=order)
    for i in range(n):
        mtree.insert(f"k{i:03d}".encode(), f"v{i}".encode())
    return mtree


def replayed_insert(mtree, key, value):
    """Build proof, verify client-side, apply server-side; return both roots."""
    old_root = mtree.root_digest()
    proof = build_path_proof(mtree, key)
    derived_new = verified_update(old_root, proof, mtree.order, key, value)
    mtree.insert(key, value)
    return derived_new, mtree.root_digest()


def replayed_delete(mtree, key):
    old_root = mtree.root_digest()
    proof = build_delete_proof(mtree, key)
    derived_new = verified_update(old_root, proof, mtree.order, key)
    mtree.delete(key)
    return derived_new, mtree.root_digest()


class TestInsertReplay:
    def test_fresh_insert(self):
        mtree = make_tree(10)
        derived, actual = replayed_insert(mtree, b"k500", b"new")
        assert derived == actual

    def test_overwrite(self):
        mtree = make_tree(10)
        derived, actual = replayed_insert(mtree, b"k005", b"overwritten")
        assert derived == actual

    def test_insert_into_empty_tree(self):
        mtree = MerkleBPlusTree(order=4)
        derived, actual = replayed_insert(mtree, b"first", b"!")
        assert derived == actual

    def test_leaf_split(self):
        mtree = MerkleBPlusTree(order=3)
        for i in range(3):
            mtree.insert(f"a{i}".encode(), b"x")
        derived, actual = replayed_insert(mtree, b"a9", b"split-trigger")
        assert derived == actual

    def test_root_split_grows_height(self):
        mtree = MerkleBPlusTree(order=3)
        keys = [f"k{i:02d}".encode() for i in range(2)]
        for key in keys:
            mtree.insert(key, b"x")
        height_before = mtree.height()
        derived, actual = replayed_insert(mtree, b"k99", b"x")
        assert derived == actual
        assert mtree.height() >= height_before

    def test_cascading_splits(self):
        mtree = MerkleBPlusTree(order=3)
        for i in range(40):
            derived, actual = replayed_insert(mtree, f"k{i:03d}".encode(), b"x")
            assert derived == actual
            mtree.check_invariants()


class TestDeleteReplay:
    def test_simple_delete(self):
        mtree = make_tree(10)
        derived, actual = replayed_delete(mtree, b"k004")
        assert derived == actual

    def test_delete_to_empty(self):
        mtree = MerkleBPlusTree(order=4)
        mtree.insert(b"only", b"x")
        derived, actual = replayed_delete(mtree, b"only")
        assert derived == actual
        assert len(mtree) == 0

    def test_delete_with_borrow_and_merge(self):
        mtree = make_tree(30, order=3)
        rng = random.Random(5)
        keys = [f"k{i:03d}".encode() for i in range(30)]
        rng.shuffle(keys)
        for key in keys:
            derived, actual = replayed_delete(mtree, key)
            assert derived == actual, key
            mtree.check_invariants()

    def test_root_collapse(self):
        mtree = make_tree(5, order=4)
        for i in range(5):
            derived, actual = replayed_delete(mtree, f"k{i:03d}".encode())
            assert derived == actual

    def test_delete_absent_key_is_a_noop_in_replay(self):
        """The proven, correctly routed leaf lacks the key: the replay
        returns the root it was given (at every depth of tree)."""
        for size in (0, 3, 10, 200):
            mtree = make_tree(size)
            root = mtree.root_digest()
            for key in (b"k999", b"", b"k001x"):
                proof = build_delete_proof(mtree, key)
                assert verified_update(root, proof, mtree.order, key) == root
                assert not mtree.delete(key)
                assert mtree.root_digest() == root

    def test_delete_absent_key_proof_out_of_another_leaf_rejected(self):
        """The no-op holds only for the leaf the key routes to."""
        mtree = make_tree(200)
        elsewhere = build_delete_proof(mtree, b"k001")
        with pytest.raises(ProofError, match="broken digest chain"):
            verified_update(mtree.root_digest(), elsewhere, mtree.order, b"k150x")


class TestRejections:
    def test_wrong_old_root(self):
        mtree = make_tree(10)
        proof = build_path_proof(mtree, b"k500")
        with pytest.raises(ProofError):
            verified_update(hash_bytes(b"bogus"), proof, mtree.order, b"k500", b"v")

    def test_insert_requires_value(self):
        mtree = make_tree(10)
        proof = build_path_proof(mtree, b"k500")
        with pytest.raises(ProofError):
            verified_update(mtree.root_digest(), proof, mtree.order, b"k500")

    def test_delete_must_not_carry_value(self):
        mtree = make_tree(10)
        proof = build_delete_proof(mtree, b"k004")
        with pytest.raises(ProofError):
            verified_update(mtree.root_digest(), proof, mtree.order, b"k004", b"v")

    def test_key_mismatch(self):
        """The key is the query's: a proof built for a key in another
        leaf fails the routing check (one for a key in the same leaf is
        the same proof)."""
        mtree = make_tree(10)
        proof = build_path_proof(mtree, b"k500")
        assert build_path_proof(mtree, b"k501") == proof
        with pytest.raises(ProofError, match="broken digest chain"):
            verified_update(mtree.root_digest(), proof, mtree.order, b"k000", b"v")

    def test_insert_proof_carries_no_siblings(self):
        """The operation is the query's: a write's proof is the path, a
        delete's the same path and a sibling pair per level, and either
        answering the other operation is refused by its type."""
        mtree = make_tree(10)
        insert = build_path_proof(mtree, b"k004")
        delete = build_delete_proof(mtree, b"k004")
        assert delete.path == insert and len(delete.siblings) == len(insert.internals) > 0
        with pytest.raises(ProofError, match="a write's proof carries sibling pairs"):
            verified_update(mtree.root_digest(), delete, mtree.order, b"k004", b"v")
        with pytest.raises(ProofError, match="a delete's proof lacks its sibling pairs"):
            verified_update(mtree.root_digest(), insert, mtree.order, b"k004")

    def test_missing_sibling_detected(self):
        """Strip the siblings from a delete proof: refused whether or not
        this delete rebalances, since a delete proof reveals every
        adjacent sibling on its path."""
        mtree = make_tree(9, order=3)
        rebalances = set()
        for i in range(9):
            key = f"k{i:03d}".encode()
            proof = build_delete_proof(mtree, key)
            rebalances.add(len(proof.path.leaf.keys) == 1)  # order 3: one is the minimum
            stripped = DeleteProof(
                path=proof.path,
                siblings=tuple(SiblingPair(left=None, right=None) for _ in proof.siblings),
            )
            with pytest.raises(ProofError, match="sibling missing from a delete proof"):
                verified_update(mtree.root_digest(), stripped, mtree.order, key)
        assert rebalances == {True, False}

    def test_tampered_sibling_rejected(self):
        mtree = make_tree(9, order=3)
        proof = build_delete_proof(mtree, b"k004")
        has_leaf_sibling = proof.siblings and (
            proof.siblings[-1].left is not None or proof.siblings[-1].right is not None
        )
        if not has_leaf_sibling:
            pytest.skip("no sibling at leaf level for this shape")
        last = proof.siblings[-1]
        side = last.left or last.right
        tampered_sibling = type(side)(
            keys=side.keys,
            entry_digests=tuple(reversed(side.entry_digests)),
        )
        if side.keys == tuple(reversed(side.keys)):
            pytest.skip("palindromic sibling")
        pairs = list(proof.siblings)
        if last.left is not None:
            pairs[-1] = SiblingPair(left=tampered_sibling, right=last.right)
        else:
            pairs[-1] = SiblingPair(left=last.left, right=tampered_sibling)
        forged = DeleteProof(path=proof.path, siblings=tuple(pairs))
        with pytest.raises(ProofError):
            verified_update(mtree.root_digest(), forged, mtree.order, b"k004")

    def test_sibling_length_mismatch(self):
        mtree = make_tree(20, order=3)
        proof = build_delete_proof(mtree, b"k004")
        forged = DeleteProof(path=proof.path, siblings=proof.siblings[:-1])
        with pytest.raises(ProofError, match="sibling list length disagrees with the path"):
            verified_update(mtree.root_digest(), forged, mtree.order, b"k004")

    def test_derive_update_roots(self):
        mtree = make_tree(10)
        proof = build_path_proof(mtree, b"k003")
        old_root, new_root = derive_update_roots(proof, mtree.order, b"k003", b"changed")
        assert old_root == mtree.root_digest()
        mtree.insert(b"k003", b"changed")
        assert new_root == mtree.root_digest()


@st.composite
def update_sequences(draw):
    keys = st.integers(min_value=0, max_value=40).map(lambda i: f"key{i:02d}".encode())
    ops = st.one_of(
        st.tuples(st.just("insert"), keys, st.binary(min_size=0, max_size=4)),
        st.tuples(st.just("delete"), keys, st.just(b"")),
    )
    return draw(st.lists(ops, max_size=60))


class TestReplayEquivalenceProperty:
    """The central soundness property: for ANY sequence of operations the
    client-side replay derives exactly the root the honest server gets."""

    @settings(max_examples=50, deadline=None)
    @given(order=st.integers(min_value=3, max_value=7), ops=update_sequences())
    def test_replay_always_matches(self, order, ops):
        mtree = MerkleBPlusTree(order=order)
        present = set()
        for kind, key, value in ops:
            if kind == "delete" and key not in present:
                continue
            old_root = mtree.root_digest()
            build = build_path_proof if kind == "insert" else build_delete_proof
            proof = build(mtree, key)
            if kind == "insert":
                derived = verified_update(old_root, proof, order, key, value)
                mtree.insert(key, value)
                present.add(key)
            else:
                derived = verified_update(old_root, proof, order, key)
                mtree.delete(key)
                present.discard(key)
            assert derived == mtree.root_digest()
            mtree.check_invariants()


class TestOnePathFold:
    """An update VO's old root is folded once: every snapshot on the
    path is hashed exactly once, at one tree and at both levels of a
    forest (the replay then hashes its own B+-tree nodes for the new
    root -- those are not snapshots)."""

    @pytest.mark.parametrize("shards", [1, 8])
    def test_update_step_hashes_each_path_snapshot_once(self, shards, monkeypatch):
        from collections import Counter

        from repro.mtree import VerifiedDatabase, WriteQuery, derive_outcome
        from repro.mtree.proofs import InternalSnapshot, LeafSnapshot

        db = VerifiedDatabase(order=4, shards=shards, top_order=4)
        for i in range(300):
            db.execute(WriteQuery(f"k{i:03d}".encode(), b"v"))
        query = WriteQuery(b"k150", b"new")
        result = db.execute(query)
        proof = result.proof
        parts = [proof.inner, proof.top] if shards > 1 else [proof]
        assert all(part.internals for part in parts)

        calls = Counter()
        for cls in (InternalSnapshot, LeafSnapshot):
            original = cls.digest

            def counted(self, _original=original, _name=cls.__name__):
                calls[_name] += 1
                return _original(self)
            monkeypatch.setattr(cls, "digest", counted)

        outcome = derive_outcome(query, result, db.spec)
        assert outcome.new_root == db.root_digest()
        assert calls == {
            "InternalSnapshot": sum(len(part.internals) for part in parts),
            "LeafSnapshot": len(parts)}


class TestClientFoldCountsNoServerWork:
    """``mtree.node_recomputations`` and ``mtree.digest_cache_hits``
    count the server's digest work (the end-to-end trace turns them into
    layer rows); a client deriving new roots must not move them."""

    @pytest.mark.parametrize("shards", [1, 8])
    def test_deriving_update_vos_leaves_server_counters(self, shards):
        from repro import obs
        from repro.mtree import DeleteQuery, VerifiedDatabase, WriteQuery, derive_outcome

        obs.enable()
        db = VerifiedDatabase(order=3, shards=shards, top_order=3)
        root = db.root_digest()
        steps = []
        for i in range(80):
            query = WriteQuery(f"k{i:03d}".encode(), b"v")
            steps.append((query, db.execute(query)))
        for i in range(0, 80, 2):
            query = DeleteQuery(f"k{i:03d}".encode())
            steps.append((query, db.execute(query)))
        counters = [obs.counter("mtree.node_recomputations"),
                    obs.counter("mtree.digest_cache_hits")]
        before = [counter.total() for counter in counters]
        assert all(before)

        for query, result in steps:
            outcome = derive_outcome(query, result, db.spec)
            assert outcome.old_root == root
            root = outcome.new_root
        assert [counter.total() for counter in counters] == before
        assert root == db.root_digest()
