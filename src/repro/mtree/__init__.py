"""Merkle B+-tree substrate (paper Section 4.1).

Layers, bottom up:

* :mod:`repro.mtree.bplus` -- the plain B+-tree, and ``route_index``,
  the one routing rule.
* :mod:`repro.mtree.merkle` -- per-node digests with lazy O(log n)
  recomputation; the root digest ``M(D)``.
* :mod:`repro.mtree.proofs` -- verification objects ``v(Q, D)`` for
  point reads, range reads, and updates, with pure client-side
  verification (update verification runs the B+-tree's own insert or
  delete on the nodes the VO reveals and derives the new root digest
  independently).
* :mod:`repro.mtree.forest` -- :class:`MerkleForest`: the store
  partitioned across per-shard Merkle trees whose roots feed a small
  top tree, with two-level verification objects.
* :mod:`repro.mtree.database` -- :class:`VerifiedDatabase` (server) and,
  for the client, :func:`derive_outcome` -- the one place a VO reduces
  to ``(old root, new root, answer)``, for one tree or a forest -- with
  :class:`ClientVerifier` tracking a root over it.
"""

from repro.mtree.bplus import DEFAULT_ORDER, BPlusTree
from repro.mtree.database import (
    ClientVerifier,
    DeleteQuery,
    Query,
    QueryResult,
    RangeQuery,
    ReadQuery,
    VerifiedDatabase,
    VerifiedOutcome,
    WriteQuery,
    derive_outcome,
)
from repro.mtree.forest import (
    ForestRangeProof,
    ForestReadProof,
    ForestUpdateProof,
    MerkleForest,
    StoreSpec,
    shard_for_key,
)
from repro.mtree.merkle import MerkleBPlusTree
from repro.mtree.proofs import (
    ProofError,
    RangeProof,
    ReadProof,
    UpdateProof,
    build_range_proof,
    build_read_proof,
    build_update_proof,
    verify_range,
    verify_read,
    verify_update,
)

__all__ = [
    "DEFAULT_ORDER",
    "BPlusTree",
    "ClientVerifier",
    "DeleteQuery",
    "Query",
    "QueryResult",
    "RangeQuery",
    "ReadQuery",
    "VerifiedDatabase",
    "VerifiedOutcome",
    "WriteQuery",
    "derive_outcome",
    "MerkleBPlusTree",
    "MerkleForest",
    "StoreSpec",
    "ForestRangeProof",
    "ForestReadProof",
    "ForestUpdateProof",
    "shard_for_key",
    "ProofError",
    "RangeProof",
    "ReadProof",
    "UpdateProof",
    "build_range_proof",
    "build_read_proof",
    "build_update_proof",
    "verify_range",
    "verify_read",
    "verify_update",
]
