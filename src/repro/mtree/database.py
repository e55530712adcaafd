"""A verified key-value database: queries, answers, verification objects.

The paper models the CVS server as "a database of data items" where
checkout is a read request and commit is an update request.  This
module provides both halves of that picture:

* :class:`VerifiedDatabase` -- the *server-side* store.  Every query is
  answered together with a verification object ``v(Q, D)`` built from
  the Merkle B+-tree.
* :class:`ClientVerifier` -- the *client-side* state of Section 4.1: a
  single tracked root digest ``M``.  ``apply`` verifies a response,
  returns the (now trustworthy) answer, and advances ``M`` for updates.

The multi-user protocols (:mod:`repro.protocols`) are layered on top:
they add counters, signatures, and XOR registers around exactly this
verify-and-advance loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest
from repro.mtree.bplus import BPlusTree
from repro.mtree.forest import (
    DEFAULT_TOP_ORDER,
    ForestProof,
    ForestRangeProof,
    MerkleForest,
    StoreSpec,
    build_forest_proof,
    build_forest_range_proof,
    derive_forest_update_roots,
    implied_root_for_forest_range,
    implied_root_for_forest_read,
    merkle_store,
)
from repro.mtree.proofs import (
    NOT_A_PATH,
    ProofError,
    build_delete_proof,
    build_path_proof,
)

# -- queries -----------------------------------------------------------------


@dataclass(frozen=True)
class ReadQuery:
    """Point read: the paper's checkout of a single item."""

    key: bytes


@dataclass(frozen=True)
class RangeQuery:
    """Range read over ``low <= key <= high`` (checkout of a directory)."""

    low: bytes
    high: bytes


@dataclass(frozen=True)
class WriteQuery:
    """Insert-or-overwrite: the paper's commit of a single item."""

    key: bytes
    value: bytes


@dataclass(frozen=True)
class DeleteQuery:
    """Removal of an item (e.g. ``cvs remove``)."""

    key: bytes


Query = ReadQuery | RangeQuery | WriteQuery | DeleteQuery
Proof = ForestProof | ForestRangeProof


def query_defect(query: object) -> str | None:
    """Why ``query`` cannot execute whatever the store holds, or
    ``None``.  A server asks *before* it logs a request: what
    :meth:`VerifiedDatabase.execute` raises on must not reach a log
    that replays it."""
    if not isinstance(query, (ReadQuery, RangeQuery, WriteQuery, DeleteQuery)):
        return f"unknown query type {type(query).__name__}"
    if isinstance(query, RangeQuery) and query.low > query.high:
        return "empty range: low > high"
    return None


@dataclass(frozen=True)
class QueryResult:
    """A server response: the answer ``Q(D)`` plus the VO ``v(Q, D)``.

    ``proof`` is ``None`` only for protocol-internal responses that
    carry no data query (e.g. Protocol III audit fetches).
    """

    answer: object
    proof: Proof | None


# -- the server side -----------------------------------------------------------

class VerifiedDatabase:
    """Server-side Merkle-backed store answering queries with VOs.

    The store is a :class:`MerkleForest` at every shard count -- a
    forest of one included -- so every VO is two-level and the signed
    root is always the top tree's, :meth:`root_digest`.
    """

    def __init__(self, order: int = 8, shards: int = 1,
                 top_order: int = DEFAULT_TOP_ORDER) -> None:
        self._adopt(merkle_store(
            StoreSpec(order=order, shards=shards, top_order=top_order)))

    @classmethod
    def from_mtree(cls, mtree: MerkleForest) -> "VerifiedDatabase":
        """A database around an existing (loaded or cloned) forest."""
        database = cls.__new__(cls)
        database._adopt(mtree)
        return database

    def _adopt(self, mtree: MerkleForest) -> None:
        self._mtree = mtree
        self._spec = mtree.spec
        self._shard_trees = [mtree.shard_tree(index)
                             for index in range(mtree.shard_count)]

    @property
    def order(self) -> int:
        return self._spec.order

    @property
    def spec(self) -> StoreSpec:
        return self._spec

    @property
    def shards(self) -> int:
        return self._spec.shards

    @property
    def mtree(self) -> MerkleForest:
        return self._mtree

    def shard_trees(self) -> list[BPlusTree]:
        """The per-shard trees in shard order."""
        return self._shard_trees

    def clone(self) -> "VerifiedDatabase":
        """Independent copy (see :meth:`MerkleForest.clone`)."""
        return VerifiedDatabase.from_mtree(self._mtree.clone())

    def __len__(self) -> int:
        return len(self._mtree)

    def root_digest(self) -> Digest:
        return self._mtree.root_digest()

    def get(self, key: bytes) -> bytes | None:
        """Unverified convenience read (server-internal use)."""
        return self._mtree.get(key)

    def execute(self, query: Query) -> QueryResult:
        """Execute ``query`` and return the answer with its VO.

        A read and a write are answered with the key's path, a delete
        with its path and siblings; an update's is snapshotted *before*
        mutating, per Section 4.1 ("recompute the root digest ... before
        and after the operation").  Deleting an absent key is a
        *verified no-op*: the ordinary delete proof, no mutation, and
        the client derives an unchanged root from the leaf that lacks
        the key.
        """
        mtree = self._mtree
        if isinstance(query, ReadQuery):
            proof = build_forest_proof(build_path_proof, mtree, query.key)
            return QueryResult(answer=mtree.get(query.key), proof=proof)
        if isinstance(query, RangeQuery):
            proof = build_forest_range_proof(mtree, query.low, query.high)
            return QueryResult(answer=tuple(mtree.range(query.low, query.high)),
                               proof=proof)
        if isinstance(query, WriteQuery):
            proof = build_forest_proof(build_path_proof, mtree, query.key)
            mtree.insert(query.key, query.value)
            return QueryResult(answer=None, proof=proof)
        if isinstance(query, DeleteQuery):
            proof = build_forest_proof(build_delete_proof, mtree, query.key)
            mtree.delete(query.key)
            return QueryResult(answer=None, proof=proof)
        raise TypeError(f"unknown query type {type(query).__name__}")


# -- the client side -----------------------------------------------------------


@dataclass(frozen=True)
class VerifiedOutcome:
    """What a VO plus answer, checked for internal consistency, yields."""

    old_root: Digest
    new_root: Digest
    answer: object

    @property
    def is_update(self) -> bool:
        return self.old_root != self.new_root


def _read(query, proof, answer, spec):
    root = implied_root_for_forest_read(proof, query.key, answer, spec)
    return root, root


def _range(query, proof, answer, spec):
    root = implied_root_for_forest_range(proof, query.low, query.high, answer, spec)
    return root, root


def _update(query, proof, answer, spec):
    """A write's value is bytes, a delete has none: the query type is
    the operation the proof is replayed with (and must be shaped for)."""
    if answer is not None:
        raise ProofError("an update's answer must be None")
    return derive_forest_update_roots(proof, spec, query.key,
                                      getattr(query, "value", None))


#: The client rule of Section 4.1, one row per query kind: what a wrong
#: proof is called, the proof type the store answers with and the
#: function reducing ``(query, proof, answer, spec)`` to ``(old root,
#: new root)``.  A proof repeats nothing the query says: the key, the
#: range and the operation are the query's.
_RULES = {
    ReadQuery: (NOT_A_PATH, ForestProof, _read),
    RangeQuery: ("range query answered with a non-range proof", ForestRangeProof, _range),
    WriteQuery: ("write query answered with a non-update proof", ForestProof, _update),
    DeleteQuery: ("delete query answered with a non-update proof", ForestProof, _update),
}


def derive_outcome(
    query: Query, result: QueryResult, spec: StoreSpec
) -> VerifiedOutcome:
    """From ``Q(D)`` and ``v(Q, D)``: the root they vouch for, the root
    after ``Q`` and the trustworthy answer -- or :class:`ProofError`,
    nothing else.

    The answer is the verifier's input, not a second copy inside the
    proof: a read's value must be the entry digest's preimage (or
    ``None`` beside a leaf without the key), a range's rows must be
    exactly the revealed leaves' in-range entries, an update's answer
    ``None``.  For reads the two roots coincide; for updates the new
    root is *recomputed by the client*, never taken from the server.
    The caller authenticates ``old_root`` (:class:`ClientVerifier`
    against the root it tracks, Protocol I through a signature, II/III
    through the XOR registers).  ``spec`` is the store's
    :class:`StoreSpec`, coerced once where the verifier is built; the
    roots are top roots.
    """
    rule = _RULES.get(type(query))
    if rule is None:
        raise ProofError(f"unknown query type {type(query).__name__}")
    if not isinstance(result, QueryResult):
        raise ProofError("the server's answer is not a query result")
    wrong_proof, proof_type, reduce = rule
    proof = result.proof
    if not isinstance(proof, proof_type):
        raise ProofError(wrong_proof)
    old_root, new_root = reduce(query, proof, result.answer, spec)
    return VerifiedOutcome(old_root=old_root, new_root=new_root, answer=result.answer)


class ClientVerifier:
    """Client-side verification state: the tracked root digest ``M``.

    This is the single-user scheme from Section 4.1.  ``apply`` raises
    :class:`~repro.mtree.proofs.ProofError` on any integrity violation;
    on success it returns the verified answer and, for updates, moves
    ``M`` to the new root digest the client *itself* derived.
    """

    def __init__(self, root_digest: Digest, order: int | StoreSpec = 8) -> None:
        self._root_digest = root_digest
        self._spec = StoreSpec.coerce(order)

    @property
    def root_digest(self) -> Digest:
        return self._root_digest

    @property
    def spec(self) -> StoreSpec:
        return self._spec

    def apply(self, query: Query, result: QueryResult) -> object:
        """Verify a response and advance the tracked root digest."""
        outcome = derive_outcome(query, result, self._spec)
        if outcome.old_root != self._root_digest:
            raise ProofError("proof does not match committed root digest")
        self._root_digest = outcome.new_root
        return outcome.answer
