"""Tests for range verification objects, especially completeness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import Digest, hash_bytes
from repro.mtree.database import ClientVerifier, QueryResult, RangeQuery
from repro.mtree.merkle import MerkleBPlusTree
from repro.mtree.proofs import (
    FringeNode,
    ProofError,
    RangeProof,
    build_range_proof,
    implied_root_for_range,
)


def verified_range(root, proof, low, high, entries):
    """What a client tracking ``root`` makes of ``entries`` and
    ``proof`` as the answer to a range read of ``[low, high]``."""
    return ClientVerifier(root).apply(RangeQuery(low, high), QueryResult(entries, proof))


def make_tree(n=60, order=4):
    mtree = MerkleBPlusTree(order=order)
    for i in range(n):
        mtree.insert(f"k{i:03d}".encode(), f"v{i}".encode())
    return mtree


def proved(mtree, low, high):
    """``(proof, low, high, rows)``: a range proof and the honest answer
    beside it."""
    return (build_range_proof(mtree, low, high), low, high,
            tuple(mtree.range(low, high)))


class TestCorrectness:
    def test_simple_range(self):
        mtree = make_tree()
        entries = verified_range(mtree.root_digest(), *proved(mtree, b"k010", b"k020"))
        assert [k for k, _ in entries] == [f"k{i:03d}".encode() for i in range(10, 21)]

    def test_empty_range(self):
        mtree = make_tree()
        proof = build_range_proof(mtree, b"a", b"b")
        assert verified_range(mtree.root_digest(), proof, b"a", b"b", ()) == ()

    def test_full_range(self):
        mtree = make_tree(30)
        assert len(verified_range(mtree.root_digest(), *proved(mtree, b"", b"\xff"))) == 30

    def test_single_key_range(self):
        mtree = make_tree()
        proof = build_range_proof(mtree, b"k007", b"k007")
        entries = verified_range(mtree.root_digest(), proof, b"k007", b"k007",
                               ((b"k007", b"v7"),))
        assert entries == ((b"k007", b"v7"),)

    def test_empty_tree(self):
        mtree = MerkleBPlusTree()
        proof = build_range_proof(mtree, b"a", b"z")
        assert verified_range(mtree.root_digest(), proof, b"a", b"z", ()) == ()

    def test_inverted_range_rejected_at_build(self):
        mtree = make_tree()
        with pytest.raises(ValueError):
            build_range_proof(mtree, b"z", b"a")

    def test_implied_root(self):
        mtree = make_tree()
        assert implied_root_for_range(*proved(mtree, b"k000", b"k030")) == \
            mtree.root_digest()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=80),
        lo=st.integers(min_value=0, max_value=90),
        span=st.integers(min_value=0, max_value=50),
        order=st.integers(min_value=3, max_value=8),
    )
    def test_random_ranges_roundtrip(self, n, lo, span, order):
        mtree = make_tree(n, order)
        low, high = f"k{lo:03d}".encode(), f"k{lo + span:03d}".encode()
        proof = build_range_proof(mtree, low, high)
        expected = tuple(mtree.range(low, high))
        assert verified_range(mtree.root_digest(), proof, low, high, expected) == expected


class TestCompleteness:
    """A malicious server must not be able to silently drop rows."""

    def _drop_one_leaf(self, node):
        """Replace the first revealed leaf inside the fringe with its bare
        digest (hiding its rows) -- what a row-dropping server would try."""
        if isinstance(node, FringeNode):
            new_children = []
            dropped = False
            for child in node.children:
                if not dropped and not isinstance(child, Digest):
                    if isinstance(child, FringeNode):
                        replaced, dropped = self._drop_one_leaf(child)
                        new_children.append(replaced)
                    else:
                        # compute the honest digest of the hidden leaf
                        new_children.append(child.digest())
                        dropped = True
                else:
                    new_children.append(child)
            return FringeNode(keys=node.keys, children=tuple(new_children)), dropped
        return node, False

    def test_hidden_subtree_rejected(self):
        mtree = make_tree(60)
        proof, low, high, rows = proved(mtree, b"k010", b"k040")
        forged_root, dropped = self._drop_one_leaf(proof.root)
        assert dropped
        forged = RangeProof(root=forged_root)
        with pytest.raises(ProofError, match="hid a subtree"):
            verified_range(mtree.root_digest(), forged, low, high, rows)

    def test_dropped_entries_rejected(self):
        mtree = make_tree(60)
        proof, low, high, rows = proved(mtree, b"k010", b"k040")
        with pytest.raises(ProofError):
            verified_range(mtree.root_digest(), proof, low, high, rows[:-3])

    def test_tampered_entry_value_rejected(self):
        mtree = make_tree(60)
        proof, low, high, rows = proved(mtree, b"k010", b"k040")
        entries = list(rows)
        entries[2] = (entries[2][0], b"EVIL")
        with pytest.raises(ProofError):
            verified_range(mtree.root_digest(), proof, low, high, tuple(entries))

    def test_extra_entry_rejected(self):
        mtree = make_tree(60)
        proof, low, high, rows = proved(mtree, b"k010", b"k012")
        with pytest.raises(ProofError):
            verified_range(mtree.root_digest(), proof, low, high,
                         rows + ((b"k011a", b"ghost"),))

    def test_wrong_root_rejected(self):
        mtree = make_tree(60)
        with pytest.raises(ProofError):
            verified_range(hash_bytes(b"not the root"), *proved(mtree, b"k010", b"k040"))

    def test_malformed_low_high_rejected(self):
        mtree = make_tree(10)
        proof = build_range_proof(mtree, b"k001", b"k005")
        with pytest.raises(ProofError, match="empty range"):
            verified_range(mtree.root_digest(), proof, b"z", b"a", ())

    def test_proof_of_a_narrower_range_rejected(self):
        """The bounds are the query's: a proof built for part of the
        range leaves the rest hidden, and completeness refuses it."""
        mtree = make_tree(60)
        narrow, _low, _high, rows = proved(mtree, b"k030", b"k040")
        with pytest.raises(ProofError, match="hid a subtree"):
            verified_range(mtree.root_digest(), narrow, b"k010", b"k040", rows)
