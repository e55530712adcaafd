"""Edge-case coverage: rarely taken error branches across modules."""

import pytest

from repro.crypto import rsa
from repro.crypto.hashing import hash_bytes
from repro.mtree.database import QueryResult, RangeQuery, ReadQuery, VerifiedDatabase, WriteQuery
from repro.mtree.bplus import BPlusTree
from repro.mtree.proofs import (
    FringeNode,
    LeafSnapshot,
    ProofError,
    RangeProof,
    DeleteProof,
    SiblingPair,
    build_delete_proof,
    build_path_proof,
    build_range_proof,
    derive_update_roots,
)
from repro.protocols.verify import derive_outcome


def make_tree(n=30, order=3):
    mtree = BPlusTree(order=order)
    for i in range(n):
        mtree.insert(f"k{i:03d}".encode(), f"v{i}".encode())
    return mtree


class TestRsaEdges:
    def test_modular_inverse_missing(self):
        with pytest.raises(ValueError):
            rsa._modular_inverse(4, 8)

    def test_pad_digest_modulus_too_small(self):
        with pytest.raises(ValueError):
            rsa._pad_digest(hash_bytes(b"x"), byte_length=16)

    def test_verify_with_tiny_modulus_is_false_not_crash(self):
        # a "key" whose modulus cannot fit padded digests
        tiny = rsa.PublicKey(modulus=(1 << 128) - 159, exponent=65537)
        assert not rsa.verify_digest(tiny, hash_bytes(b"m"), b"\x01" * tiny.byte_length)


class TestSnapshotValidation:
    def test_leaf_snapshot_arity(self):
        with pytest.raises(ProofError):
            LeafSnapshot(keys=(b"a",), entry_digests=())

    def test_internal_snapshot_arity(self):
        from repro.mtree.proofs import InternalSnapshot

        with pytest.raises(ProofError):
            InternalSnapshot(keys=(b"a", b"b"), child_digests=(hash_bytes(b"x"),))


class TestUpdateProofEdges:
    def test_left_sibling_for_leftmost_child_rejected(self):
        mtree = make_tree()
        proof = build_delete_proof(mtree, b"k000")  # leftmost path
        if not proof.path.internals:
            pytest.skip("tree too small")
        # force a bogus left sibling at a level where the child is leftmost
        fake = proof.path.leaf
        pairs = list(proof.siblings)
        level = None
        from repro.mtree.bplus import route_index

        for depth, snapshot in enumerate(proof.path.internals):
            if route_index(snapshot.keys, b"k000") == 0:
                level = depth
                break
        if level is None:
            pytest.skip("no leftmost level")
        pairs[level] = SiblingPair(left=fake, right=pairs[level].right)
        forged = DeleteProof(path=proof.path, siblings=tuple(pairs))
        with pytest.raises(ProofError, match="left sibling supplied for a leftmost child"):
            derive_update_roots(forged, mtree.order, b"k000")

    def test_right_sibling_for_rightmost_child_rejected(self):
        mtree = make_tree()
        key = b"k029"
        proof = build_delete_proof(mtree, key)
        if not proof.path.internals:
            pytest.skip("tree too small")
        from repro.mtree.bplus import route_index

        pairs = list(proof.siblings)
        level = None
        for depth, snapshot in enumerate(proof.path.internals):
            if route_index(snapshot.keys, key) == len(snapshot.child_digests) - 1:
                level = depth
                break
        if level is None:
            pytest.skip("no rightmost level")
        pairs[level] = SiblingPair(left=pairs[level].left, right=proof.path.leaf)
        forged = DeleteProof(path=proof.path, siblings=tuple(pairs))
        with pytest.raises(ProofError, match="right sibling supplied for a rightmost child"):
            derive_update_roots(forged, mtree.order, key)

    def test_tiny_order_rejected_in_replay(self):
        mtree = make_tree()
        proof = build_path_proof(mtree, b"k001")
        with pytest.raises(ProofError, match="bad tree order"):
            derive_update_roots(proof, 2, b"k001", b"v")


class TestRangeProofEdges:
    def test_unexpected_node_type_rejected(self):
        mtree = make_tree()
        proof = build_range_proof(mtree, b"k005", b"k010")
        with pytest.raises(ProofError):
            forged = RangeProof(root="not a node")
            derive_outcome(RangeQuery(b"k005", b"k010"), QueryResult(
                tuple(mtree.range(b"k005", b"k010")), forged), mtree.order)

    def test_fringe_arity_mismatch_rejected(self):
        mtree = make_tree()
        proof = build_range_proof(mtree, b"k005", b"k010")
        if not isinstance(proof.root, FringeNode):
            pytest.skip("single-leaf tree")
        forged_root = FringeNode(keys=proof.root.keys + (b"zzz",),
                                 children=proof.root.children)
        forged = RangeProof(root=forged_root)
        with pytest.raises(ProofError):
            derive_outcome(RangeQuery(b"k005", b"k010"), QueryResult(
                tuple(mtree.range(b"k005", b"k010")), forged), mtree.order)


class TestDeriveOutcomeEdges:
    def test_unknown_query_type(self):
        db = VerifiedDatabase(order=4)
        result = db.execute(WriteQuery(b"k", b"v"))
        with pytest.raises(ProofError):
            derive_outcome("not a query", result, 4)

    def test_read_answer_mismatch(self):
        db = VerifiedDatabase(order=4)
        db.execute(WriteQuery(b"k", b"v"))
        result = db.execute(ReadQuery(b"k"))
        lying = QueryResult(answer=b"other", proof=result.proof)
        with pytest.raises(ProofError):
            derive_outcome(ReadQuery(b"k"), lying, 4)

    def test_range_answer_mismatch(self):
        db = VerifiedDatabase(order=4)
        db.execute(WriteQuery(b"k", b"v"))
        result = db.execute(RangeQuery(b"a", b"z"))
        lying = QueryResult(answer=(), proof=result.proof)
        with pytest.raises(ProofError):
            derive_outcome(RangeQuery(b"a", b"z"), lying, 4)

    def test_update_wrong_operation(self):
        db = VerifiedDatabase(order=4)
        db.execute(WriteQuery(b"k", b"v"))
        delete_result = db.execute(ReadQuery(b"k"))
        with pytest.raises(ProofError):
            derive_outcome(WriteQuery(b"k", b"v2"), delete_result, 4)

    def test_outcome_is_update_flag(self):
        db = VerifiedDatabase(order=4)
        write = WriteQuery(b"k", b"v")
        outcome = derive_outcome(write, db.execute(write), 4)
        assert outcome.is_update
        read = ReadQuery(b"k")
        outcome = derive_outcome(read, db.execute(read), 4)
        assert not outcome.is_update


class TestAgentEdges:
    def test_issue_internal_refused_when_pending(self):
        from repro.protocols.base import ProtocolClient, Request
        from repro.simulation.agents import UserAgent
        from repro.simulation.workload import Intent

        agent = UserAgent("u", ProtocolClient("u"),
                          intents=[Intent(round=1, query=ReadQuery(b"k"))])
        from repro.simulation.channels import Network
        from repro.simulation.events import Run

        network = Network(user_ids=["u"])
        agent.step(1, network, Run(), [0])   # issues the intent
        assert agent.has_pending()
        before = network.messages_sent
        agent.issue_internal(Request(query=None))
        assert network.messages_sent == before  # refused, no double-pending

    def test_read_proof_size_counts(self):
        mtree = make_tree()
        proof = build_path_proof(mtree, b"k001")
        assert proof.size_digests() > 0
        update = build_delete_proof(mtree, b"k001")
        assert update.size_digests() >= proof.size_digests()
