"""A sharded Merkle store: S per-shard B+-trees under one signed top tree.

One global Merkle B+-tree means one global root and one global
dirty-path pass per batch.  The forest partitions keys across ``S``
per-shard :class:`~repro.mtree.merkle.MerkleBPlusTree` instances whose
root digests are the *entries* of a small top Merkle B+-tree keyed by a
fixed-width shard label.  Protocols I--III keep signing and checking
only the top root, so their detection guarantees are untouched, while
refreshes after a batch recompute only the touched shard paths plus the
top tree.

Verification objects become two-level: the proof for a key carries the
ordinary path inside its shard *plus* the shard-root path in the top
tree, and the client folds both -- the inner proof's implied shard root
must be the exact value the top tree commits for that shard.  Routing
is part of the trust base: the proof names no shard, the client
recomputes ``shard_for_key`` and checks the inner half against that
shard's top entry, so a malicious server cannot prove non-membership
out of a shard the key never routes to.

:class:`StoreSpec` carries ``(order, shards, top_order)`` through every
parameter slot that used to hold a bare B+-tree order, so the protocol
layers stay byte-compatible in single-tree mode (``shards == 1`` wires
as a plain int) and forest-aware everywhere else.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from heapq import merge as _sorted_merge
from typing import Iterator

from repro.crypto.hashing import Digest, hash_leaf
from repro.mtree.bplus import DEFAULT_ORDER
from repro.mtree.merkle import MerkleBPlusTree
from repro.mtree.proofs import (
    NOT_ENTRIES,
    DeleteProof,
    PathProof,
    ProofError,
    RangeProof,
    build_path_proof,
    build_range_proof,
    derive_update_roots,
    entries_of,
    fold_path,
    implied_root_for_range,
    implied_root_for_read,
    tuple_of,
)
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry

_SHARD_RECOMPUTE = _registry.counter(
    "merkle.recompute", "Merkle nodes re-hashed per refresh, labeled by shard")

#: default branching factor of the top tree; small on purpose so the
#: top-tree half of a VO stays O(log S) digests rather than O(S).
DEFAULT_TOP_ORDER = 8

# Routing hashes get their own domain prefix (next free tag after
# ``\x08internal-node`` in repro.crypto.hashing) so a routing digest can
# never collide with any structural digest role.
_DOMAIN_ROUTE = b"\x09shard-route"


# ---------------------------------------------------------------------------
# Spec + routing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoreSpec:
    """Shape of an authenticated store: shard count and tree orders.

    Every client-side verifier needs the same three integers the server
    built the store with; they travel through the parameter slots that
    historically carried the bare B+-tree ``order``.
    """

    order: int = DEFAULT_ORDER
    shards: int = 1
    top_order: int = DEFAULT_TOP_ORDER

    def __post_init__(self) -> None:
        if self.order < 3:
            raise ValueError("shard tree order must be at least 3")
        if self.shards < 1:
            raise ValueError("shard count must be at least 1")
        if self.top_order < 3:
            raise ValueError("top tree order must be at least 3")

    @property
    def sharded(self) -> bool:
        return self.shards > 1

    @classmethod
    def coerce(cls, value: "StoreSpec | int | dict") -> "StoreSpec":
        """Accept a spec, a bare order int, or a wire/JSON dict."""
        if isinstance(value, StoreSpec):
            return value
        if isinstance(value, int):
            return _single_tree_spec(value)
        if isinstance(value, dict):
            try:
                return cls(
                    order=int(value["order"]),
                    shards=int(value.get("shards", 1)),
                    top_order=int(value.get("top_order", DEFAULT_TOP_ORDER)),
                )
            except KeyError as exc:
                raise ValueError(f"store spec dict lacks {exc}") from exc
        raise TypeError(f"cannot build a StoreSpec from {type(value).__name__}")

    def to_wire(self) -> int | dict:
        """Wire/JSON form: a bare int in single-tree mode (so existing
        evidence bundles and frames stay byte-identical), a dict when
        sharded."""
        if self.shards == 1:
            return self.order
        return {"order": self.order, "shards": self.shards,
                "top_order": self.top_order}


@lru_cache(maxsize=64)
def _single_tree_spec(order: int) -> StoreSpec:
    """A bare order coerces per verified operation; specs are immutable."""
    return StoreSpec(order=order)


def shard_for_key(key: bytes, shards: int) -> int:
    """Deterministic key -> shard routing (domain-separated SHA-256).

    Both sides compute this: the server to place writes, the client to
    pick the top entry a proof's inner half must match.
    """
    if shards <= 1:
        return 0
    raw = hashlib.sha256(_DOMAIN_ROUTE + key).digest()
    return int.from_bytes(raw[:8], "big") % shards


def shard_key(index: int) -> bytes:
    """Fixed-width top-tree key for shard ``index``.

    Zero-padded so lexicographic order equals numeric order -- range
    proofs over the top tree can then cover exactly shards 0..S-1.
    """
    if index < 0:
        raise ValueError("shard index must be non-negative")
    return b"shard:%08d" % index


# ---------------------------------------------------------------------------
# The forest
# ---------------------------------------------------------------------------


class MerkleForest:
    """S per-shard Merkle B+-trees under one top Merkle B+-tree.

    Mirrors the :class:`MerkleBPlusTree` surface the rest of the system
    uses (queries, mutation, ``refresh_root``, ``clone``), plus
    per-shard dirty tracking: mutations mark their shard, and
    :meth:`refresh_root` re-hashes only dirty shard paths before
    folding the changed shard roots into the top tree.

    The top tree's shape is deterministic -- shard keys are inserted in
    ascending order at construction and only ever *overwritten* -- so
    two forests holding the same entries always agree on the top root.
    """

    def __init__(self, order: int = DEFAULT_ORDER, shards: int = 2,
                 top_order: int = DEFAULT_TOP_ORDER) -> None:
        self._adopt([MerkleBPlusTree(order=order) for _ in range(shards)],
                    StoreSpec(order=order, shards=shards, top_order=top_order))

    @classmethod
    def from_shards(cls, shard_trees: list[MerkleBPlusTree],
                    top_order: int = DEFAULT_TOP_ORDER) -> "MerkleForest":
        """A forest around loaded shard trees, in shard order.  The top
        tree is never persisted: its shape is a function of the shard
        count alone, so rebuilding it reproduces the top root."""
        forest = cls.__new__(cls)
        forest._adopt(list(shard_trees), StoreSpec(
            order=shard_trees[0].order, shards=len(shard_trees),
            top_order=top_order))
        return forest

    def _adopt(self, shard_trees: list[MerkleBPlusTree], spec: StoreSpec) -> None:
        self._spec = spec
        self._shards = shard_trees
        self._top = MerkleBPlusTree(order=spec.top_order)
        for index, tree in enumerate(shard_trees):
            self._top.insert(shard_key(index), tree.root_digest().to_bytes())
        self._dirty: set[int] = set()

    # -- shape -------------------------------------------------------------

    @property
    def spec(self) -> StoreSpec:
        return self._spec

    @property
    def order(self) -> int:
        return self._spec.order

    @property
    def top_order(self) -> int:
        return self._spec.top_order

    @property
    def shard_count(self) -> int:
        return self._spec.shards

    @property
    def dirty_shard_count(self) -> int:
        """Shards mutated since the last top sync (obs + tests)."""
        return len(self._dirty)

    @property
    def digest_recomputations(self) -> int:
        """Total Merkle re-hashes across all shards plus the top tree."""
        return (self._top.digest_recomputations
                + sum(tree.digest_recomputations for tree in self._shards))

    def shard_tree(self, index: int) -> MerkleBPlusTree:
        """The per-shard Merkle tree (proof building + tests)."""
        return self._shards[index]

    @property
    def top_tree(self) -> MerkleBPlusTree:
        """The top Merkle tree (proof building + tests)."""
        return self._top

    # -- queries -----------------------------------------------------------

    def _route(self, key: bytes) -> int:
        return shard_for_key(key, self._spec.shards)

    def __len__(self) -> int:
        return sum(len(tree) for tree in self._shards)

    def __contains__(self, key: bytes) -> bool:
        return key in self._shards[self._route(key)]

    def get(self, key: bytes) -> bytes | None:
        return self._shards[self._route(key)].get(key)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """All entries in global key order (merge of sorted shards)."""
        return _sorted_merge(*(tree.items() for tree in self._shards))

    def range(self, low: bytes, high: bytes) -> Iterator[tuple[bytes, bytes]]:
        return _sorted_merge(*(tree.range(low, high) for tree in self._shards))

    def height(self) -> int:
        return max(tree.height() for tree in self._shards)

    def check_invariants(self) -> None:
        for tree in self._shards:
            tree.check_invariants()
        self._top.check_invariants()
        assert len(self._top) == self._spec.shards, \
            "top tree entry count disagrees with the shard count"
        for index, tree in enumerate(self._shards):
            for key, _value in tree.items():
                assert self._route(key) == index, \
                    f"key {key!r} stored in shard {index} but routes elsewhere"
            if index not in self._dirty:
                committed = self._top.get(shard_key(index))
                assert committed == tree.root_digest().to_bytes(), \
                    f"top tree entry for clean shard {index} is stale"

    # -- mutation ----------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> bool:
        index = self._route(key)
        created = self._shards[index].insert(key, value)
        self._dirty.add(index)
        return created

    def delete(self, key: bytes) -> bool:
        index = self._route(key)
        removed = self._shards[index].delete(key)
        if removed:
            self._dirty.add(index)
        return removed

    def clone(self) -> "MerkleForest":
        """Structural copy sharing immutable entries and cached digests."""
        twin = MerkleForest.__new__(MerkleForest)
        twin._spec = self._spec
        twin._shards = [tree.clone() for tree in self._shards]
        twin._top = self._top.clone()
        twin._dirty = set(self._dirty)
        return twin

    # -- digests -----------------------------------------------------------

    def _sync_top(self) -> int:
        """Fold every dirty shard's fresh root into the top tree.

        Returns the number of shard-tree nodes re-hashed.  Must run
        before any proof is built: the top tree half of a VO has to
        commit the *current* root of every shard, or a client that just
        verified a write in shard A would reject the very next proof.
        """
        if not self._dirty:
            return 0
        recomputed = 0
        observing = _obs.enabled
        for index in sorted(self._dirty):
            root, nodes = self._shards[index].refresh_root()
            recomputed += nodes
            if observing and nodes:
                _SHARD_RECOMPUTE.inc(nodes, shard=str(index))
            blob = root.to_bytes()
            if self._top.get(shard_key(index)) != blob:
                self._top.insert(shard_key(index), blob)
        self._dirty.clear()
        return recomputed

    def root_digest(self) -> Digest:
        """The signed root: the top tree's root digest."""
        self._sync_top()
        return self._top.root_digest()

    def refresh_root(self) -> tuple[Digest, int]:
        """Recompute the top root; returns ``(root, nodes_recomputed)``.

        Only dirty shard paths plus the top tree's dirty path are
        re-hashed -- a batch that touched 2 of 64 shards pays for 2
        shard paths, not 64.
        """
        recomputed = self._sync_top()
        root, top_nodes = self._top.refresh_root()
        if _obs.enabled and top_nodes:
            _SHARD_RECOMPUTE.inc(top_nodes, shard="top")
        return root, recomputed + top_nodes


def merkle_store(spec: StoreSpec,
                 shard_trees: list[MerkleBPlusTree] | None = None,
                 ) -> "MerkleBPlusTree | MerkleForest":
    """The Merkle store of shape ``spec``, empty or around loaded
    ``shard_trees``: the one tree itself, or a forest over them."""
    if shard_trees is None:
        shard_trees = [MerkleBPlusTree(order=spec.order)
                       for _ in range(spec.shards)]
    if len(shard_trees) != spec.shards or \
            any(tree.order != spec.order for tree in shard_trees):
        raise ValueError("shard trees disagree with the store spec")
    if spec.shards == 1:
        return shard_trees[0]
    return MerkleForest.from_shards(shard_trees, spec.top_order)


# ---------------------------------------------------------------------------
# Two-level verification objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForestProof:
    """Point VO: the key's one-tree VO inside its shard + the path to the
    shard's entry in the top tree, a write's VO whatever the query: the
    entry is *overwritten* with the new shard root, never created or
    removed, so the replay never splits the top tree and its shape stays
    deterministic."""

    inner: PathProof | DeleteProof
    top: PathProof

    def __post_init__(self) -> None:
        if not (isinstance(self.inner, (PathProof, DeleteProof))
                and isinstance(self.top, PathProof)):
            raise ProofError("malformed forest proof")

    def size_digests(self) -> int:
        return self.inner.size_digests() + self.top.size_digests()


@dataclass(frozen=True)
class ForestRangeProof:
    """Range VO: one completeness-carrying range proof *per shard* plus
    a top-tree range proof covering every shard root.

    Hash routing scatters adjacent keys across shards, so completeness
    for ``[low, high]`` requires every shard to prove its slice of the
    answer; the top proof pins each shard proof's implied root to the
    signed top root.
    """

    shard_proofs: tuple[RangeProof, ...]
    top: RangeProof

    def __post_init__(self) -> None:
        if not (tuple_of(self.shard_proofs, RangeProof)
                and isinstance(self.top, RangeProof)):
            raise ProofError("malformed forest range proof")

    def size_digests(self) -> int:
        return sum(proof.size_digests() for proof in (*self.shard_proofs, self.top))


# -- building (server side) --------------------------------------------------


def build_forest_proof(build_inner, forest: MerkleForest, key: bytes) -> ForestProof:
    """The forest twin of a one-tree point builder (``build_path_proof``
    or ``build_delete_proof``): its VO in ``key``'s shard under the path
    to that shard's entry in the top tree."""
    forest._sync_top()
    index = forest._route(key)
    return ForestProof(
        inner=build_inner(forest.shard_tree(index), key),
        top=build_path_proof(forest.top_tree, shard_key(index)),
    )


def build_forest_range_proof(
    forest: MerkleForest, low: bytes, high: bytes
) -> ForestRangeProof:
    forest._sync_top()
    shard_proofs = tuple(
        build_range_proof(tree, low, high)
        for tree in (forest.shard_tree(i) for i in range(forest.shard_count))
    )
    top = build_range_proof(
        forest.top_tree, shard_key(0), shard_key(forest.shard_count - 1))
    return ForestRangeProof(shard_proofs=shard_proofs, top=top)


# -- verification (client side) ----------------------------------------------


def _check_top_entry(top: PathProof, skey: bytes,
                     shard_root: Digest, mismatch: str) -> None:
    """The level binding: the leaf of the top half of a forest VO
    commits ``hash_leaf(skey, shard_root)`` -- the shard root the client
    derived from the inner half, under the key's own shard.  An inner
    half from another shard implies another root, and fails here."""
    try:
        position = top.leaf.keys.index(skey)
    except ValueError:
        raise ProofError("top-tree leaf does not contain the shard key") from None
    if top.leaf.entry_digests[position] != hash_leaf(skey, shard_root.to_bytes()):
        raise ProofError(mismatch)


def implied_root_for_forest_read(
    proof: ForestProof, key: bytes, value: object, spec: StoreSpec
) -> Digest:
    """The *top* root a forest proof vouches for, with ``value`` as the
    answer to a read of ``key``.

    Checks (a) the answer against the inner proof's leaf, and its path,
    and (b) the top tree commits exactly the shard root the inner proof
    implies at the entry of the shard ``key`` routes to.
    """
    shard_root = implied_root_for_read(proof.inner, key, value)
    skey = shard_key(shard_for_key(key, spec.shards))
    _check_top_entry(proof.top, skey, shard_root,
                     "top tree entry disagrees with the shard proof")
    return fold_path(proof.top.internals, proof.top.leaf, skey)[0]


def derive_forest_update_roots(
    proof: ForestProof,
    spec: StoreSpec,
    key: bytes,
    value: bytes | None = None,
) -> tuple[Digest, Digest]:
    """Derive the (old, new) *top* roots a forest update vouches for.

    The level binding is the heart of the scheme: the top proof's leaf
    must commit ``hash_leaf(shard_key, old_shard_root)`` where
    ``old_shard_root`` is what the inner proof implies -- then the new
    top root is derived by replaying the overwrite of that entry with
    the client-recomputed new shard root.  The top replay is an insert
    of a key its leaf holds: an overwrite, which never restructures.
    """
    skey = shard_key(shard_for_key(key, spec.shards))
    old_shard, new_shard = derive_update_roots(proof.inner, spec.order, key, value)
    _check_top_entry(proof.top, skey, old_shard,
                     "top tree does not commit the shard's pre-update root")
    return derive_update_roots(
        proof.top, spec.top_order, skey, new_shard.to_bytes())


def implied_root_for_forest_range(
    proof: ForestRangeProof, low: bytes, high: bytes, entries: object,
    spec: StoreSpec,
) -> Digest:
    """The top root a forest range proof vouches for, with ``entries``
    as the answer to ``[low, high]``.

    The answer must be in key order.  Its rows are split by
    ``shard_for_key``, every shard must prove its slice of the range
    (completeness), and the top tree's range proof over every shard key
    must commit each shard root so implied -- the top rows are
    ``(shard_key(i), shard root i)``.
    """
    if len(proof.shard_proofs) != spec.shards:
        raise ProofError("range proof does not cover every shard")
    if not entries_of(entries):
        raise ProofError(NOT_ENTRIES)
    keys = [key for key, _ in entries]
    if any(left >= right for left, right in zip(keys, keys[1:])):
        raise ProofError("range answer is not in key order")
    slices: list[list] = [[] for _ in range(spec.shards)]
    for entry in entries:
        slices[shard_for_key(entry[0], spec.shards)].append(entry)
    shard_roots = []
    for index, shard_proof in enumerate(proof.shard_proofs):
        implied = implied_root_for_range(shard_proof, low, high, tuple(slices[index]))
        shard_roots.append((shard_key(index), implied.to_bytes()))
    return implied_root_for_range(proof.top, shard_key(0),
                                  shard_key(spec.shards - 1), tuple(shard_roots))
