"""Merkle B+-tree substrate (paper Section 4.1).

Layers, bottom up:

* :mod:`repro.mtree.bplus` -- the plain B+-tree, and ``route_index``,
  the one routing rule.
* :mod:`repro.mtree.merkle` -- per-node digests with lazy O(log n)
  recomputation; the root digest ``M(D)``.
* :mod:`repro.mtree.proofs` -- verification objects ``v(Q, D)``: the
  path (a read's and a write's), a delete's path and siblings, and a
  range's revealed subtrees, with pure client-side folds (update
  verification runs the B+-tree's own insert or delete on the nodes the
  VO reveals and derives the new root digest independently).
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
    "ForestProof": ".forest",
    "ForestRangeProof": ".forest",
    "MerkleForest": ".forest",
    "StoreSpec": ".forest",
    "shard_for_key": ".forest",
    "MerkleBPlusTree": ".merkle",
    "DeleteProof": ".proofs",
    "PathProof": ".proofs",
    "ProofError": ".proofs",
    "RangeProof": ".proofs",
    "build_delete_proof": ".proofs",
    "build_path_proof": ".proofs",
    "build_range_proof": ".proofs",
})
