"""Verification objects for Merkle B+-tree reads, ranges, and updates.

Paper Section 4.1: "Given an update query Q, the server returns the new
root hash and the digests of the O(log n) nodes required to compute the
old and new root digests.  We call these O(log n) digests the
verification object of update Q, denoted v(Q, D)."

Those nodes are the search path a read reveals: :class:`PathProof` is
the VO of a read and of a write, and :class:`DeleteProof` adds the
siblings a borrow or merge consults.  The client folds a VO to the
root(s) it vouches for -- :func:`implied_root_for_read`,
:func:`implied_root_for_range` (with completeness: no row can be
silently dropped) and :func:`derive_update_roots`, which *recomputes*
the new root by running :class:`~repro.mtree.bplus.BPlusTree`'s own
insert or delete on the verified snapshots, unrevealed subtrees staying
their committed digests -- all reached through
:func:`~repro.mtree.database.derive_outcome`.  Any tampering with keys,
values, or structure is a :class:`ProofError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest, hash_internal_node, hash_leaf, hash_leaf_node
from repro.mtree.bplus import (
    BPlusTree, InternalNode, LeafNode, fold, leaf_entry_digests, route_index)


class ProofError(Exception):
    """Raised when a verification object fails to check out."""


def tuple_of(values, kind) -> bool:
    """Whether ``values`` is a tuple of ``kind`` instances.  Every VO
    class checks its field types where it is built, so a frame carrying
    a decodable value of the wrong type is malformed to the codec and
    never reaches a verification step."""
    if type(values) is not tuple:
        return False
    for value in values:
        if not isinstance(value, kind):
            return False
    return True


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeafSnapshot:
    """Immutable image of a leaf node: keys plus per-entry digests."""

    keys: tuple[bytes, ...]
    entry_digests: tuple[Digest, ...]

    def digest(self) -> Digest:
        return hash_leaf_node(self.entry_digests)

    def size_digests(self) -> int:
        return len(self.entry_digests)

    def __post_init__(self) -> None:
        if not (tuple_of(self.keys, bytes)
                and tuple_of(self.entry_digests, Digest)):
            raise ProofError("malformed leaf snapshot")
        if len(self.keys) != len(self.entry_digests):
            raise ProofError("leaf snapshot arity mismatch")


@dataclass(frozen=True)
class InternalSnapshot:
    """Immutable image of an internal node: separator keys + child digests."""

    keys: tuple[bytes, ...]
    child_digests: tuple[Digest, ...]

    def digest(self) -> Digest:
        return hash_internal_node(self.keys, self.child_digests)

    def size_digests(self) -> int:
        return len(self.child_digests)

    def __post_init__(self) -> None:
        if not (tuple_of(self.keys, bytes)
                and tuple_of(self.child_digests, Digest)):
            raise ProofError("malformed internal snapshot")
        if len(self.child_digests) != len(self.keys) + 1:
            raise ProofError("internal snapshot arity mismatch")


def snapshot_leaf(node) -> LeafSnapshot:
    entry_digests = tuple(leaf_entry_digests(node))
    return LeafSnapshot(keys=tuple(node.keys), entry_digests=entry_digests)


def snapshot_internal(mtree: BPlusTree, node) -> InternalSnapshot:
    child_digests = tuple([mtree.node_digest(child) for child in node.children])
    return InternalSnapshot(keys=tuple(node.keys), child_digests=child_digests)


# ---------------------------------------------------------------------------
# Path proofs: a read's and a write's
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathProof:
    """The path to the leaf a key routes to: the VO of a point read
    (membership or non-membership) and of a write.  Neither the key nor
    the value is in it: the key is the query's and the value the
    answer's or the write's, and the verifier takes both as input,
    binding the value to the leaf's entry digest."""

    internals: tuple[InternalSnapshot, ...]  # root first, leaf's parent last
    leaf: LeafSnapshot

    def __post_init__(self) -> None:
        if not (tuple_of(self.internals, InternalSnapshot)
                and isinstance(self.leaf, LeafSnapshot)):
            raise ProofError("malformed path proof")

    def size_digests(self) -> int:
        """Number of digests carried -- the paper's O(log n) VO size."""
        return sum(s.size_digests() for s in self.internals) + self.leaf.size_digests()


def build_path_proof(mtree: BPlusTree, key: bytes) -> PathProof:
    """Server side: the path to ``key``'s leaf, snapshotted (before a
    write mutates it)."""
    path = mtree.search_path(key)
    internals = tuple([snapshot_internal(mtree, node) for node in path[:-1]])
    return PathProof(internals=internals, leaf=snapshot_leaf(path[-1]))


def fold_path(
    internals: tuple[InternalSnapshot, ...],
    leaf: LeafSnapshot,
    key: bytes,
) -> tuple[Digest, list[int]]:
    """Fold a path bottom-up, each snapshot hashed once: ``(the root
    it implies, the child index taken at each internal)``.

    Each snapshot must be committed by its parent at the position the
    routing rule for ``key`` selects -- otherwise a malicious server
    could prove non-membership out of some unrelated leaf -- and keys
    must be ordered.  Nothing is compared against a known root: callers
    do, with the root they track or through signatures or registers.
    """
    if list(leaf.keys) != sorted(leaf.keys):
        raise ProofError("leaf snapshot has unsorted keys")
    digest = leaf.digest()
    indices = [0] * len(internals)
    for level in range(len(internals) - 1, -1, -1):
        snapshot = internals[level]
        if list(snapshot.keys) != sorted(snapshot.keys):
            raise ProofError(f"internal snapshot at level {level} has unsorted separator keys")
        index = route_index(snapshot.keys, key)
        if snapshot.child_digests[index] != digest:
            raise ProofError(f"broken digest chain at level {level}")
        indices[level] = index
        digest = snapshot.digest()
    return digest, indices


def check_read_answer(proof: PathProof, key: bytes, value: object) -> None:
    """Bind a read's answer to the leaf its proof reveals (independent
    of the root digest): ``None`` to a leaf without ``key``, a value to
    the entry digest ``hash_leaf(key, value)``."""
    if value is None:
        if key in proof.leaf.keys:
            raise ProofError("server claimed absence but the leaf contains the key")
        return
    if not isinstance(value, bytes):
        raise ProofError("read answer is neither a value nor None")
    try:
        position = proof.leaf.keys.index(key)
    except ValueError:
        raise ProofError("server claimed presence but the leaf lacks the key") from None
    if hash_leaf(key, value) != proof.leaf.entry_digests[position]:
        raise ProofError("returned value does not match the committed entry digest")


#: why a read answered with anything but a path is refused
NOT_A_PATH = "read query answered with a non-read proof"


def implied_root_for_read(proof: PathProof, key: bytes, value: object) -> Digest:
    """The root digest a path proof vouches for, with ``value`` as the
    answer to a read of ``key`` (after the answer check)."""
    if not isinstance(proof, PathProof):
        raise ProofError(NOT_A_PATH)
    check_read_answer(proof, key, value)
    return fold_path(proof.internals, proof.leaf, key)[0]


# ---------------------------------------------------------------------------
# Range proofs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FringeNode:
    """A partially revealed internal node inside a range proof.

    ``children[i]`` is either a bare :class:`Digest` (subtree outside
    the queried range) or a revealed :class:`FringeNode` /
    :class:`LeafSnapshot` (subtree intersecting the range).
    """

    keys: tuple[bytes, ...]
    children: tuple["FringeNode | LeafSnapshot | Digest", ...]

    def __post_init__(self) -> None:
        if not (tuple_of(self.keys, bytes) and tuple_of(
                self.children, (FringeNode, LeafSnapshot, Digest))):
            raise ProofError("malformed range proof node")


def entries_of(value) -> bool:
    """Whether ``value`` is a tuple of ``(key, value)`` byte pairs."""
    return tuple_of(value, tuple) and all(
        len(entry) == 2 and tuple_of(entry, bytes) for entry in value)


#: why a range answer of any other shape is refused
NOT_ENTRIES = "range answer is not a tuple of (key, value) entries"


@dataclass(frozen=True)
class RangeProof:
    """Completeness-carrying proof for a range query ``[low, high]``:
    the subtrees intersecting the range, revealed.  The bounds are the
    query's and the rows the answer's, both the verifier's input; it
    binds the rows to the revealed leaves."""

    root: FringeNode | LeafSnapshot

    def __post_init__(self) -> None:
        # a bare digest as root would "prove" any range empty
        if not isinstance(self.root, (FringeNode, LeafSnapshot)):
            raise ProofError("malformed range proof")

    def size_digests(self) -> int:
        def count(node) -> int:
            if isinstance(node, FringeNode):
                return sum(count(child) for child in node.children)
            return 1 if isinstance(node, Digest) else node.size_digests()
        return count(self.root)


def build_range_proof(mtree: BPlusTree, low: bytes, high: bytes) -> RangeProof:
    """Server side: reveal exactly the subtrees intersecting the range."""
    if low > high:
        raise ValueError("empty range: low > high")

    def reveal(node):
        if node.is_leaf:
            return snapshot_leaf(node)
        children = []
        for index, child in enumerate(node.children):
            lower = node.keys[index - 1] if index > 0 else None
            upper = node.keys[index] if index < len(node.keys) else None
            if _intersects(lower, upper, low, high):
                children.append(reveal(child))
            else:
                children.append(mtree.node_digest(child))
        return FringeNode(keys=tuple(node.keys), children=tuple(children))

    return RangeProof(root=reveal(mtree.root))


def _intersects(lower: bytes | None, upper: bytes | None, low: bytes, high: bytes) -> bool:
    """Whether subtree key range [lower, upper) intersects query [low, high]."""
    if lower is not None and lower > high:
        return False
    if upper is not None and upper <= low:
        return False
    return True


def implied_root_for_range(proof: RangeProof, low: bytes, high: bytes,
                           entries: object) -> Digest:
    """The root digest a range proof vouches for, with ``entries`` as
    the answer to ``[low, high]``.

    Checks (a) every revealed snapshot hashes into the implied root,
    (b) every subtree that could intersect the range *is* revealed (so
    no row can be silently dropped), and (c) the entries match the
    revealed leaves exactly.
    """
    if low > high:
        raise ProofError("empty range: low > high")
    if not entries_of(entries):
        raise ProofError(NOT_ENTRIES)
    revealed: list[tuple[bytes, Digest]] = []

    def check(node, must_reveal_range: bool) -> Digest:
        if isinstance(node, Digest):
            return node
        if isinstance(node, LeafSnapshot):
            if list(node.keys) != sorted(node.keys):
                raise ProofError("revealed leaf has unsorted keys")
            revealed.extend(zip(node.keys, node.entry_digests))
            return node.digest()
        if list(node.keys) != sorted(node.keys):
            raise ProofError("revealed internal node has unsorted separator keys")
        if len(node.children) != len(node.keys) + 1:
            raise ProofError("revealed internal node arity mismatch")
        child_digests = []
        for index, child in enumerate(node.children):
            lower = node.keys[index - 1] if index > 0 else None
            upper = node.keys[index] if index < len(node.keys) else None
            child_must_reveal = _intersects(lower, upper, low, high)
            if child_must_reveal and isinstance(child, Digest):
                raise ProofError("server hid a subtree that intersects the queried range")
            child_digests.append(check(child, child_must_reveal))
        return hash_internal_node(node.keys, child_digests)

    implied_root = check(proof.root, True)

    in_range = [(key, digest) for key, digest in revealed if low <= key <= high]
    if [key for key, _ in in_range] != [key for key, _ in entries]:
        raise ProofError("returned keys disagree with revealed leaves")
    for (key, value), (_proven_key, entry_digest) in zip(entries, in_range):
        if hash_leaf(key, value) != entry_digest:
            raise ProofError(f"returned value for {key!r} does not match committed entry digest")
    return implied_root


# ---------------------------------------------------------------------------
# Delete proofs, and the client-side replay of an update
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiblingPair:
    """Adjacent siblings of one path node (needed for delete rebalancing)."""

    left: "LeafSnapshot | InternalSnapshot | None"
    right: "LeafSnapshot | InternalSnapshot | None"

    def __post_init__(self) -> None:
        sides = (LeafSnapshot, InternalSnapshot, type(None))
        if not (isinstance(self.left, sides) and isinstance(self.right, sides)):
            raise ProofError("malformed sibling pair")


@dataclass(frozen=True)
class DeleteProof:
    """A delete's VO: the path, and in ``siblings[i]`` the adjacent
    siblings of the path node at depth ``i + 1`` (the child inside
    ``path.internals[i]``), which a borrow or merge consults.  A write
    needs no sibling (splits never consult one): its VO is the path."""

    path: PathProof
    siblings: tuple[SiblingPair, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.path, PathProof)
                and tuple_of(self.siblings, SiblingPair)):
            raise ProofError("malformed delete proof")

    def size_digests(self) -> int:
        return self.path.size_digests() + sum(
            side.size_digests() for pair in self.siblings
            for side in (pair.left, pair.right) if side is not None)


def _snapshot_any(mtree: BPlusTree, node):
    return snapshot_leaf(node) if node.is_leaf else snapshot_internal(mtree, node)


def build_delete_proof(mtree: BPlusTree, key: bytes) -> DeleteProof:
    """Server side: the path to ``key``'s leaf *before* the delete, and
    every adjacent sibling at every level, so the client can replay
    borrow/merge rebalancing; a delete proof without one is refused."""
    path = mtree.search_path(key)
    siblings = []
    for depth, parent in enumerate(path[:-1]):
        index = parent.children.index(path[depth + 1])
        left = _snapshot_any(mtree, parent.children[index - 1]) if index > 0 else None
        right = (_snapshot_any(mtree, parent.children[index + 1])
                 if index + 1 < len(parent.children) else None)
        siblings.append(SiblingPair(left=left, right=right))
    return DeleteProof(path=build_path_proof(mtree, key), siblings=tuple(siblings))


def _node_of(snapshot: LeafSnapshot | InternalSnapshot) -> LeafNode | InternalNode:
    """A B+-tree node holding what ``snapshot`` reveals.  A leaf keeps
    its entry digests and its values are unknown (``None``), so only an
    entry the update writes is hashed again; an internal node's children
    are unrevealed subtrees, nodes known only by their committed digest
    (which :func:`~repro.mtree.bplus.fold` reads and never enters),
    until a revealed node takes a slot."""
    if isinstance(snapshot, LeafSnapshot):
        node = LeafNode()
        node.keys = list(snapshot.keys)
        node.values = [None] * len(snapshot.keys)
        node.entry_digests = list(snapshot.entry_digests)
        return node
    if len(snapshot.child_digests) < 2:
        raise ProofError("internal snapshot with one child")
    node = InternalNode()
    node.keys = list(snapshot.keys)
    node.children = list(map(_Unrevealed, snapshot.child_digests))
    return node


class _Unrevealed:
    """A subtree the VO does not reveal: its committed digest alone."""

    __slots__ = ("digest",)

    def __init__(self, digest: Digest) -> None:
        self.digest = digest


def derive_update_roots(
    proof: PathProof | DeleteProof,
    order: int,
    key: bytes,
    value: bytes | None = None,
) -> tuple[Digest, Digest]:
    """Derive the (old, new) root digests an update proof vouches for.

    The old root is the one :func:`fold_path` implies.  The new root is
    *recomputed*: the folded snapshots become a partial B+-tree whose
    unrevealed subtrees are their committed digests, and
    :class:`BPlusTree`'s own insert or delete runs on it -- what the root
    must be after an honest server applies exactly this operation.  A
    write is answered with its path, a delete with a
    :class:`DeleteProof` revealing every adjacent sibling on its path,
    so a borrow or merge never looks inside a committed subtree.  The
    caller authenticates the old root: against the root it tracks
    (:class:`~repro.mtree.database.ClientVerifier`), or through the
    protocol layer (a signature, or the XOR registers).

    ``value`` is the inserted value, or ``None`` for a delete.
    """
    if value is None:
        if not isinstance(proof, DeleteProof):
            raise ProofError("a delete's proof lacks its sibling pairs")
        path, siblings = proof.path, proof.siblings
        if len(siblings) != len(path.internals):
            raise ProofError("sibling list length disagrees with the path")
    elif not isinstance(value, bytes):
        raise ProofError("insert verification requires the new value")
    elif not isinstance(proof, PathProof):
        raise ProofError("a write's proof carries sibling pairs")
    else:
        path, siblings = proof, ()

    old_root, indices = fold_path(path.internals, path.leaf, key)

    nodes = [_node_of(snapshot) for snapshot in (*path.internals, path.leaf)]
    for depth, index in enumerate(indices):
        nodes[depth].children[index] = nodes[depth + 1]
    for depth, pair in enumerate(siblings):
        parent, index = nodes[depth], indices[depth]
        committed = path.internals[depth].child_digests
        for name, side, at, edge in (("left", pair.left, index - 1, "leftmost"),
                                     ("right", pair.right, index + 1, "rightmost")):
            exists = 0 <= at < len(committed)
            if side is None:
                if exists:
                    raise ProofError(f"{name} sibling missing from a delete proof")
                continue
            if not exists:
                raise ProofError(f"{name} sibling supplied for a {edge} child")
            if side.digest() != committed[at]:
                raise ProofError(f"{name} sibling snapshot does not match committed digest")
            if isinstance(side, LeafSnapshot) != nodes[depth + 1].is_leaf:
                raise ProofError(f"{name} sibling is not the kind of node its neighbour is")
            sibling = _node_of(side)
            sibling.digest = committed[at]
            parent.children[at] = sibling

    try:
        tree = BPlusTree(order, root=nodes[0])
    except (TypeError, ValueError) as exc:
        raise ProofError(f"bad tree order: {exc}") from None
    if value is not None:
        tree.insert(key, value)
    elif not tree.delete(key):
        # the path was folded with the routing rule for ``key``, so a
        # leaf without it proves absence: an honest delete changed nothing
        return old_root, old_root
    fold(tree.root)  # only the nodes the update cleared; counts nothing
    return old_root, tree.root.digest
