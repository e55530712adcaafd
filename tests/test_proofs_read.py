"""Tests for point-read verification objects (membership / absence)."""

import math

import pytest

from repro.crypto.hashing import hash_bytes, hash_leaf
from repro.mtree.database import ClientVerifier, QueryResult, ReadQuery
from repro.mtree.merkle import MerkleBPlusTree
from repro.mtree.proofs import (
    LeafSnapshot,
    PathProof,
    ProofError,
    build_path_proof,
    check_read_answer,
    implied_root_for_read,
)


def verified_read(root, proof, key, value):
    """What a client tracking ``root`` makes of ``value`` and ``proof``
    as the answer to a read of ``key``."""
    return ClientVerifier(root).apply(ReadQuery(key), QueryResult(value, proof))


@pytest.fixture
def mtree():
    tree = MerkleBPlusTree(order=4)
    for i in range(0, 100, 2):  # even keys only
        tree.insert(f"k{i:03d}".encode(), f"v{i}".encode())
    return tree


class TestMembership:
    def test_present_key_verifies(self, mtree):
        proof = build_path_proof(mtree, b"k042")
        assert verified_read(mtree.root_digest(), proof, b"k042", b"v42") == b"v42"

    def test_absent_key_verifies_none(self, mtree):
        proof = build_path_proof(mtree, b"k043")
        assert verified_read(mtree.root_digest(), proof, b"k043", None) is None

    def test_all_keys_verify(self, mtree):
        root = mtree.root_digest()
        for i in range(0, 100, 2):
            key = f"k{i:03d}".encode()
            value = f"v{i}".encode()
            assert verified_read(root, build_path_proof(mtree, key), key, value) == value

    def test_empty_tree_absence(self):
        mtree = MerkleBPlusTree()
        proof = build_path_proof(mtree, b"anything")
        assert verified_read(mtree.root_digest(), proof, b"anything", None) is None

    def test_implied_root_matches(self, mtree):
        proof = build_path_proof(mtree, b"k010")
        assert implied_root_for_read(proof, b"k010", b"v10") == mtree.root_digest()


class TestRejections:
    def test_wrong_root_rejected(self, mtree):
        proof = build_path_proof(mtree, b"k042")
        with pytest.raises(ProofError):
            verified_read(hash_bytes(b"wrong root"), proof, b"k042", b"v42")

    def test_key_mismatch_rejected(self, mtree):
        proof = build_path_proof(mtree, b"k042")
        with pytest.raises(ProofError):
            verified_read(mtree.root_digest(), proof, b"k044", b"v42")

    def test_tampered_value_rejected(self, mtree):
        proof = build_path_proof(mtree, b"k042")
        with pytest.raises(ProofError, match="committed entry digest"):
            verified_read(mtree.root_digest(), proof, b"k042", b"EVIL")

    def test_tampered_leaf_rejected(self, mtree):
        proof = build_path_proof(mtree, b"k042")
        position = proof.leaf.keys.index(b"k042")
        entry_digests = list(proof.leaf.entry_digests)
        entry_digests[position] = hash_leaf(b"k042", b"EVIL")
        forged = PathProof(
            internals=proof.internals,
            leaf=LeafSnapshot(keys=proof.leaf.keys, entry_digests=tuple(entry_digests)),
        )
        # Internally consistent, but no longer hashes to the real root.
        with pytest.raises(ProofError):
            verified_read(mtree.root_digest(), forged, b"k042", b"EVIL")

    def test_false_absence_rejected(self, mtree):
        """Server claims the key is absent but proves the leaf that
        contains it -- the contradiction must be caught."""
        proof = build_path_proof(mtree, b"k042")
        with pytest.raises(ProofError, match="claimed absence"):
            verified_read(mtree.root_digest(), proof, b"k042", None)

    def test_false_presence_rejected(self, mtree):
        proof = build_path_proof(mtree, b"k043")  # absent key
        with pytest.raises(ProofError, match="claimed presence"):
            verified_read(mtree.root_digest(), proof, b"k043", b"ghost")

    def test_wrong_leaf_rejected(self, mtree):
        """Absence 'proved' with an unrelated leaf fails the routing check."""
        absent = build_path_proof(mtree, b"k001")
        other = build_path_proof(mtree, b"k090")
        spliced = PathProof(internals=other.internals, leaf=absent.leaf)
        with pytest.raises(ProofError, match="broken digest chain"):
            verified_read(mtree.root_digest(), spliced, b"k090", None)

    def test_proof_for_another_leafs_key_rejected(self, mtree):
        """The key is the query's: the honest proof for a key in another
        leaf, offered as absence, fails the routing check."""
        proof = build_path_proof(mtree, b"k001")
        with pytest.raises(ProofError, match="broken digest chain"):
            verified_read(mtree.root_digest(), proof, b"k090", None)

    def test_answer_check_standalone(self, mtree):
        proof = build_path_proof(mtree, b"k042")
        check_read_answer(proof, b"k042", b"v42")
        with pytest.raises(ProofError):
            check_read_answer(proof, b"k090", b"v90")
        with pytest.raises(ProofError):
            check_read_answer(proof, b"k042", 42)


class TestSize:
    def test_vo_size_logarithmic(self):
        """Figure 2's point: the VO carries O(log n) digests."""
        sizes = {}
        for exponent in (6, 10, 14):
            n = 2 ** exponent
            mtree = MerkleBPlusTree(order=8)
            for i in range(n):
                mtree.insert(f"{i:06d}".encode(), b"x")
            proof = build_path_proof(mtree, f"{n // 2:06d}".encode())
            sizes[n] = proof.size_digests()
        # Growing n by 256x should grow the VO by a small additive factor,
        # far below linear growth.
        assert sizes[2 ** 14] < sizes[2 ** 6] * int(math.log2(2 ** 14))
        assert sizes[2 ** 14] <= 8 * math.ceil(math.log(2 ** 14, 4))
