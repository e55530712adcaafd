"""Integration tests for VerifiedDatabase + ClientVerifier (the
single-user scheme of Section 4.1)."""

import random

import pytest

from repro.mtree.database import (
    ClientVerifier,
    DeleteQuery,
    QueryResult,
    RangeQuery,
    ReadQuery,
    VerifiedDatabase,
    WriteQuery,
    derive_outcome,
)
from repro.mtree.proofs import ProofError


@pytest.fixture
def pair():
    db = VerifiedDatabase(order=4)
    client = ClientVerifier(db.root_digest(), order=4)
    return db, client


class TestHappyPath:
    def test_write_then_read(self, pair):
        db, client = pair
        client.apply(WriteQuery(b"k", b"v"), db.execute(WriteQuery(b"k", b"v")))
        assert client.apply(ReadQuery(b"k"), db.execute(ReadQuery(b"k"))) == b"v"

    def test_read_absent(self, pair):
        db, client = pair
        assert client.apply(ReadQuery(b"nope"), db.execute(ReadQuery(b"nope"))) is None

    def test_delete(self, pair):
        db, client = pair
        client.apply(WriteQuery(b"k", b"v"), db.execute(WriteQuery(b"k", b"v")))
        client.apply(DeleteQuery(b"k"), db.execute(DeleteQuery(b"k")))
        assert client.apply(ReadQuery(b"k"), db.execute(ReadQuery(b"k"))) is None

    def test_delete_absent_is_a_verified_noop(self, pair):
        """A delete of an absent key is total: the ordinary delete proof,
        no mutation, and the client derives an unchanged root from it."""
        db, client = pair
        for i in range(20):
            q = WriteQuery(f"k{i:02d}".encode(), b"v")
            client.apply(q, db.execute(q))
        before = db.root_digest()
        for key in (b"missing", b"k05x", b"", b"zzz"):
            q = DeleteQuery(key)
            result = db.execute(q)
            assert len(result.proof.siblings) == len(result.proof.path.internals)
            assert client.apply(q, result) is None
            assert client.root_digest == db.root_digest() == before
        assert len(db) == 20

    def test_range(self, pair):
        db, client = pair
        for i in range(10):
            q = WriteQuery(f"k{i}".encode(), f"v{i}".encode())
            client.apply(q, db.execute(q))
        q = RangeQuery(b"k2", b"k5")
        entries = client.apply(q, db.execute(q))
        assert [k for k, _ in entries] == [b"k2", b"k3", b"k4", b"k5"]

    def test_root_tracks_server(self, pair):
        db, client = pair
        rng = random.Random(0)
        for step in range(300):
            key = f"k{rng.randrange(40)}".encode()
            if rng.random() < 0.6:
                q = WriteQuery(key, f"v{step}".encode())
            elif db.get(key) is not None:
                q = DeleteQuery(key)
            else:
                q = ReadQuery(key)
            client.apply(q, db.execute(q))
            assert client.root_digest == db.root_digest()

    def test_unknown_query_type(self, pair):
        db, client = pair
        with pytest.raises(TypeError):
            db.execute("not a query")
        with pytest.raises(ProofError):
            client.apply("not a query", QueryResult(answer=None, proof=None))


class TestDetection:
    def test_stale_read_after_external_write(self, pair):
        """A second writer moves the root; the client's next verification
        against its stale root must fail (this is exactly why multi-user
        needs the paper's protocols)."""
        db, client = pair
        q = WriteQuery(b"k", b"v1")
        client.apply(q, db.execute(q))
        db.execute(WriteQuery(b"k", b"v2"))  # unseen external write
        with pytest.raises(ProofError):
            client.apply(ReadQuery(b"k"), db.execute(ReadQuery(b"k")))

    def test_answer_proof_mismatch(self, pair):
        db, client = pair
        q = WriteQuery(b"k", b"v")
        client.apply(q, db.execute(q))
        result = db.execute(ReadQuery(b"k"))
        lying = QueryResult(answer=b"EVIL", proof=result.proof)
        with pytest.raises(ProofError):
            client.apply(ReadQuery(b"k"), lying)

    def test_wrong_proof_type_for_read(self, pair):
        db, client = pair
        q = WriteQuery(b"k", b"v")
        write_result = db.execute(q)
        client.apply(q, write_result)
        read_result = db.execute(ReadQuery(b"k"))
        with pytest.raises(ProofError):
            client.apply(ReadQuery(b"k"), QueryResult(answer=b"v", proof=write_result.proof))
        # not vice versa: a read's proof of a key is its path, which is
        # the honest VO of a write of that key
        db.execute(WriteQuery(b"k", b"v2"))
        client.apply(WriteQuery(b"k", b"v2"), QueryResult(answer=None, proof=read_result.proof))
        assert client.root_digest == db.root_digest()

    def test_range_bounds_mismatch(self, pair):
        """The bounds are the query's: the proof and rows of a wider
        range hold a row the narrower one must not."""
        db, client = pair
        for key in (b"k1", b"k7"):
            q = WriteQuery(key, b"v")
            client.apply(q, db.execute(q))
        result = db.execute(RangeQuery(b"k0", b"k9"))
        with pytest.raises(ProofError):
            client.apply(RangeQuery(b"k0", b"k5"), result)

    def test_expected_new_root_is_side_effect_free(self, pair):
        db, client = pair
        q = WriteQuery(b"k", b"v")
        result = db.execute(q)
        before = client.root_digest
        outcome = derive_outcome(q, result, client.spec)
        assert (outcome.old_root, client.root_digest) == (before, before)
        client.apply(q, result)
        assert client.root_digest != before
        assert client.root_digest == db.root_digest()
