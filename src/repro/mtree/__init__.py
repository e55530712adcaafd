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

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "DEFAULT_ORDER": ".bplus",
    "BPlusTree": ".bplus",
    "ClientVerifier": ".database",
    "DeleteQuery": ".database",
    "Query": ".database",
    "QueryResult": ".database",
    "RangeQuery": ".database",
    "ReadQuery": ".database",
    "VerifiedDatabase": ".database",
    "VerifiedOutcome": ".database",
    "WriteQuery": ".database",
    "derive_outcome": ".database",
    "ForestRangeProof": ".forest",
    "ForestReadProof": ".forest",
    "ForestUpdateProof": ".forest",
    "MerkleForest": ".forest",
    "StoreSpec": ".forest",
    "shard_for_key": ".forest",
    "MerkleBPlusTree": ".merkle",
    "ProofError": ".proofs",
    "RangeProof": ".proofs",
    "ReadProof": ".proofs",
    "UpdateProof": ".proofs",
    "build_range_proof": ".proofs",
    "build_read_proof": ".proofs",
    "build_update_proof": ".proofs",
    "verify_range": ".proofs",
    "verify_read": ".proofs",
    "verify_update": ".proofs",
})
