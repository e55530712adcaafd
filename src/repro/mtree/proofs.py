"""Verification objects for Merkle B+-tree reads, ranges, and updates.

Paper Section 4.1: "Given an update query Q, the server returns the new
root hash and the digests of the O(log n) nodes required to compute the
old and new root digests.  We call these O(log n) digests the
verification object of update Q, denoted v(Q, D)."

A client that knows only the current root digest ``M(D)`` can:

* :func:`verify_read` -- check a point read (membership *or*
  non-membership) against ``M(D)``;
* :func:`verify_range` -- check a range read, including completeness
  (the server cannot silently drop rows);
* :func:`verify_update` -- *recompute* the post-update root digest from
  the pre-update verification object, by replaying the insert or delete
  (including node splits, borrows, and merges) on a partial "shadow"
  tree built only from verified snapshots.  The client never takes the
  server's word for the new root: it derives the new root itself.

Snapshots are verified bottom-up against the known root digest, so any
tampering with keys, values, or structure is caught as a digest
mismatch and raised as :class:`ProofError`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.crypto.hashing import Digest, hash_internal_node, hash_leaf, hash_leaf_node
from repro.mtree.merkle import MerkleBPlusTree


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

    def __post_init__(self) -> None:
        if not (tuple_of(self.keys, bytes)
                and tuple_of(self.child_digests, Digest)):
            raise ProofError("malformed internal snapshot")
        if len(self.child_digests) != len(self.keys) + 1:
            raise ProofError("internal snapshot arity mismatch")


def route_index(keys, key: bytes) -> int:
    """The child index a B+-tree lookup for ``key`` descends into.

    Must stay in lock-step with ``BPlusTree._child_index`` -- the
    client-side replay re-routes with this rule.
    """
    return bisect_right(keys, key)


def snapshot_leaf(mtree: MerkleBPlusTree, node) -> LeafSnapshot:
    entry_digests = tuple(mtree.leaf_entry_digests(node))
    return LeafSnapshot(keys=tuple(node.keys), entry_digests=entry_digests)


def snapshot_internal(mtree: MerkleBPlusTree, node) -> InternalSnapshot:
    child_digests = tuple([mtree.node_digest(child) for child in node.children])
    return InternalSnapshot(keys=tuple(node.keys), child_digests=child_digests)


# ---------------------------------------------------------------------------
# Point-read proofs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReadProof:
    """Membership or non-membership proof for a single key."""

    key: bytes
    value: bytes | None
    internals: tuple[InternalSnapshot, ...]  # root first, leaf's parent last
    leaf: LeafSnapshot

    def __post_init__(self) -> None:
        if not (isinstance(self.key, bytes)
                and isinstance(self.value, (bytes, type(None)))
                and tuple_of(self.internals, InternalSnapshot)
                and isinstance(self.leaf, LeafSnapshot)):
            raise ProofError("malformed read proof")

    def size_digests(self) -> int:
        """Number of digests carried -- the paper's O(log n) VO size."""
        return sum(len(s.child_digests) for s in self.internals) + len(self.leaf.entry_digests)


def build_read_proof(mtree: MerkleBPlusTree, key: bytes) -> ReadProof:
    """Server side: assemble the VO for a point read of ``key``."""
    path = mtree.tree.search_path(key)
    internals = tuple([snapshot_internal(mtree, node) for node in path[:-1]])
    node = path[-1]
    value = node.values[node.keys.index(key)] if key in node.keys else None
    return ReadProof(key=key, value=value, internals=internals,
                     leaf=snapshot_leaf(mtree, node))


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


def check_read_answer(proof: ReadProof, key: bytes) -> bytes | None:
    """Validate the membership/non-membership claim inside a read proof
    (independent of the root digest)."""
    if proof.key != key:
        raise ProofError("proof is for a different key")
    if proof.value is None:
        if key in proof.leaf.keys:
            raise ProofError("server claimed absence but the leaf contains the key")
        return None
    try:
        position = proof.leaf.keys.index(key)
    except ValueError:
        raise ProofError("server claimed presence but the leaf lacks the key") from None
    if hash_leaf(key, proof.value) != proof.leaf.entry_digests[position]:
        raise ProofError("returned value does not match the committed entry digest")
    return proof.value


def implied_root_for_read(proof: ReadProof, key: bytes) -> Digest:
    """The root digest a read proof vouches for (after internal checks)."""
    check_read_answer(proof, key)
    return fold_path(proof.internals, proof.leaf, key)[0]


def verify_read(root_digest: Digest, proof: ReadProof, key: bytes) -> bytes | None:
    """Client side: validate a read VO against the known root digest.

    Returns the proven value (or ``None`` for proven absence).  Raises
    :class:`ProofError` on any inconsistency.
    """
    if implied_root_for_read(proof, key) != root_digest:
        raise ProofError("read proof does not match committed root digest")
    return proof.value


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


@dataclass(frozen=True)
class RangeProof:
    """Completeness-carrying proof for a range query ``[low, high]``."""

    low: bytes
    high: bytes
    root: FringeNode | LeafSnapshot
    entries: tuple[tuple[bytes, bytes], ...]

    def __post_init__(self) -> None:
        # a bare digest as root would "prove" any range empty
        if not (isinstance(self.low, bytes) and isinstance(self.high, bytes)
                and isinstance(self.root, (FringeNode, LeafSnapshot))
                and entries_of(self.entries)):
            raise ProofError("malformed range proof")


def build_range_proof(mtree: MerkleBPlusTree, low: bytes, high: bytes) -> RangeProof:
    """Server side: reveal exactly the subtrees intersecting the range."""
    if low > high:
        raise ValueError("empty range: low > high")

    def reveal(node):
        if node.is_leaf:
            return snapshot_leaf(mtree, node)
        children = []
        for index, child in enumerate(node.children):
            lower = node.keys[index - 1] if index > 0 else None
            upper = node.keys[index] if index < len(node.keys) else None
            if _intersects(lower, upper, low, high):
                children.append(reveal(child))
            else:
                children.append(mtree.node_digest(child))
        return FringeNode(keys=tuple(node.keys), children=tuple(children))

    entries = tuple(mtree.range(low, high))
    return RangeProof(low=low, high=high, root=reveal(mtree.tree.root), entries=entries)


def _intersects(lower: bytes | None, upper: bytes | None, low: bytes, high: bytes) -> bool:
    """Whether subtree key range [lower, upper) intersects query [low, high]."""
    if lower is not None and lower > high:
        return False
    if upper is not None and upper <= low:
        return False
    return True


def verify_range(root_digest: Digest, proof: RangeProof) -> tuple[tuple[bytes, bytes], ...]:
    """Client side: validate a range VO; returns the proven entries.

    Checks (a) every revealed snapshot hashes into the committed root,
    (b) every subtree that could intersect the range *is* revealed (so
    no row can be silently dropped), and (c) the returned entries match
    the revealed leaves exactly.
    """
    if implied_root_for_range(proof) != root_digest:
        raise ProofError("range proof does not match committed root digest")
    return proof.entries


def implied_root_for_range(proof: RangeProof) -> Digest:
    """The root digest a range proof vouches for (after completeness
    and content checks)."""
    low, high = proof.low, proof.high
    if low > high:
        raise ProofError("malformed range proof: low > high")
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
    if [key for key, _ in in_range] != [key for key, _ in proof.entries]:
        raise ProofError("returned keys disagree with revealed leaves")
    for (key, value), (_proven_key, entry_digest) in zip(proof.entries, in_range):
        if hash_leaf(key, value) != entry_digest:
            raise ProofError(f"returned value for {key!r} does not match committed entry digest")
    return implied_root


# ---------------------------------------------------------------------------
# Update proofs (insert / overwrite / delete) with client-side replay
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
class UpdateProof:
    """Pre-update VO from which the client derives the new root digest.

    ``siblings[i]`` carries the adjacent siblings of the path node at
    depth ``i + 1`` (the child inside ``internals[i]``); insert proofs
    carry empty pairs since splits never consult siblings.
    """

    operation: str  # "insert" or "delete"
    key: bytes
    internals: tuple[InternalSnapshot, ...]
    leaf: LeafSnapshot
    siblings: tuple[SiblingPair, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.operation, str) and isinstance(self.key, bytes)
                and tuple_of(self.internals, InternalSnapshot)
                and isinstance(self.leaf, LeafSnapshot)
                and tuple_of(self.siblings, SiblingPair)):
            raise ProofError("malformed update proof")

    def size_digests(self) -> int:
        total = sum(len(s.child_digests) for s in self.internals)
        total += len(self.leaf.entry_digests)
        for pair in self.siblings:
            for side in (pair.left, pair.right):
                if isinstance(side, LeafSnapshot):
                    total += len(side.entry_digests)
                elif isinstance(side, InternalSnapshot):
                    total += len(side.child_digests)
        return total


def _snapshot_any(mtree: MerkleBPlusTree, node):
    if node.is_leaf:
        return snapshot_leaf(mtree, node)
    return snapshot_internal(mtree, node)


def build_update_proof(mtree: MerkleBPlusTree, operation: str, key: bytes) -> UpdateProof:
    """Server side: snapshot the search path *before* applying the update.

    For deletes, the adjacent siblings at every level are included so
    the client can replay borrow/merge rebalancing.
    """
    if operation not in ("insert", "delete"):
        raise ValueError(f"unknown update operation {operation!r}")
    path = mtree.tree.search_path(key)
    internals = tuple(snapshot_internal(mtree, node) for node in path[:-1])
    leaf = snapshot_leaf(mtree, path[-1])
    siblings: list[SiblingPair] = []
    if operation == "delete":
        for depth, parent in enumerate(path[:-1]):
            child = path[depth + 1]
            index = parent.children.index(child)
            left = _snapshot_any(mtree, parent.children[index - 1]) if index > 0 else None
            right = (
                _snapshot_any(mtree, parent.children[index + 1])
                if index + 1 < len(parent.children)
                else None
            )
            siblings.append(SiblingPair(left=left, right=right))
    else:
        siblings = [SiblingPair(left=None, right=None) for _ in path[:-1]]
    return UpdateProof(
        operation=operation,
        key=key,
        internals=internals,
        leaf=leaf,
        siblings=tuple(siblings),
    )


class _ShadowLeaf:
    """Mutable client-side reconstruction of a leaf during replay."""

    __slots__ = ("keys", "entries")
    is_leaf = True

    def __init__(self, snapshot: LeafSnapshot) -> None:
        self.keys = list(snapshot.keys)
        self.entries = list(snapshot.entry_digests)

    def digest(self) -> Digest:
        return hash_leaf_node(list(self.entries))


class _ShadowInternal:
    """Mutable client-side reconstruction of an internal node.

    Children are either bare digests (unverified-but-committed subtrees
    the replay never touches) or other shadow nodes.
    """

    __slots__ = ("keys", "children")
    is_leaf = False

    def __init__(self, keys, children) -> None:
        self.keys = list(keys)
        self.children = list(children)

    def digest(self) -> Digest:
        child_digests = [
            child if isinstance(child, Digest) else child.digest()
            for child in self.children
        ]
        return hash_internal_node(list(self.keys), child_digests)


def _shadow_from_snapshot(snapshot):
    if isinstance(snapshot, LeafSnapshot):
        return _ShadowLeaf(snapshot)
    return _ShadowInternal(snapshot.keys, snapshot.child_digests)


class _Replay:
    """Replays one insert/delete on the shadow path, mirroring the exact
    split/borrow/merge rules of :class:`repro.mtree.bplus.BPlusTree`."""

    def __init__(self, order: int) -> None:
        if order < 3:
            raise ProofError("order must be at least 3")
        self.order = order
        self.max_entries = order - 1
        self.min_entries = (order - 1) // 2
        self.min_children = (order + 1) // 2

    # -- insert ----------------------------------------------------------

    def insert(self, shadows, indices, key: bytes, entry_digest: Digest):
        """Apply insert/overwrite; returns the new shadow root."""
        leaf = shadows[-1]
        if key in leaf.keys:
            leaf.entries[leaf.keys.index(key)] = entry_digest
            return shadows[0]
        position = route_index(leaf.keys, key)
        leaf.keys.insert(position, key)
        leaf.entries.insert(position, entry_digest)
        if len(leaf.keys) <= self.max_entries:
            return shadows[0]
        return self._split_up(shadows, indices)

    def _split_up(self, shadows, indices):
        node = shadows[-1]
        parents = list(shadows[:-1])
        parent_indices = list(indices)
        while True:
            if node.is_leaf:
                separator, sibling = self._split_leaf(node)
            else:
                separator, sibling = self._split_internal(node)
            if not parents:
                return _ShadowInternal([separator], [node, sibling])
            parent = parents.pop()
            child_pos = parent_indices.pop()
            parent.keys.insert(child_pos, separator)
            parent.children.insert(child_pos + 1, sibling)
            if len(parent.children) <= self.order:
                return (parents[0] if parents else parent)
            node = parent

    def _split_leaf(self, leaf: _ShadowLeaf):
        middle = (len(leaf.keys) + 1) // 2
        sibling = _ShadowLeaf(LeafSnapshot(tuple(leaf.keys[middle:]), tuple(leaf.entries[middle:])))
        leaf.keys = leaf.keys[:middle]
        leaf.entries = leaf.entries[:middle]
        return sibling.keys[0], sibling

    def _split_internal(self, node: _ShadowInternal):
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        sibling = _ShadowInternal(node.keys[middle + 1:], node.children[middle + 1:])
        node.keys = node.keys[:middle]
        node.children = node.children[:middle + 1]
        return separator, sibling

    # -- delete ----------------------------------------------------------

    def delete(self, shadows, indices, key: bytes):
        """Apply delete; returns the new shadow root (or a bare digest if
        the whole tree collapsed to an untouched subtree).  The path was
        folded with the routing rule for ``key``, so a leaf without it
        proves absence, as for reads: an honest delete changed nothing
        and the root returned is the one given."""
        leaf = shadows[-1]
        if key not in leaf.keys:
            return shadows[0]
        position = leaf.keys.index(key)
        del leaf.keys[position]
        del leaf.entries[position]
        return self._rebalance_up(shadows, indices)

    def _rebalance_up(self, shadows, indices):
        node = shadows[-1]
        parents = list(shadows[:-1])
        parent_indices = list(indices)
        root = shadows[0]
        while parents:
            parent = parents[-1]
            if node.is_leaf:
                underfull = len(node.keys) < self.min_entries
            else:
                underfull = len(node.children) < self.min_children
            if not underfull:
                return root
            child_pos = parent_indices[-1]
            left = parent.children[child_pos - 1] if child_pos > 0 else None
            right = parent.children[child_pos + 1] if child_pos + 1 < len(parent.children) else None
            if left is not None and self._can_lend(left):
                self._borrow_from_left(parent, child_pos)
                return root
            if right is not None and self._can_lend(right):
                self._borrow_from_right(parent, child_pos)
                return root
            if child_pos > 0:
                self._merge_children(parent, child_pos - 1)
            else:
                self._merge_children(parent, child_pos)
            node = parents.pop()
            parent_indices.pop()
        # ``node`` is the root.
        if not node.is_leaf and len(node.children) == 1:
            return node.children[0]
        return node

    def _require_shadow(self, node, role: str):
        if isinstance(node, Digest):
            raise ProofError(f"delete replay needs the {role} sibling, but the proof omitted it")
        return node

    def _can_lend(self, node) -> bool:
        node = self._require_shadow(node, "adjacent")
        if node.is_leaf:
            return len(node.keys) > self.min_entries
        return len(node.children) > self.min_children

    def _borrow_from_left(self, parent: _ShadowInternal, child_pos: int) -> None:
        left = self._require_shadow(parent.children[child_pos - 1], "left")
        node = parent.children[child_pos]
        if node.is_leaf:
            node.keys.insert(0, left.keys.pop())
            node.entries.insert(0, left.entries.pop())
            parent.keys[child_pos - 1] = node.keys[0]
        else:
            node.keys.insert(0, parent.keys[child_pos - 1])
            node.children.insert(0, left.children.pop())
            parent.keys[child_pos - 1] = left.keys.pop()

    def _borrow_from_right(self, parent: _ShadowInternal, child_pos: int) -> None:
        node = parent.children[child_pos]
        right = self._require_shadow(parent.children[child_pos + 1], "right")
        if node.is_leaf:
            node.keys.append(right.keys.pop(0))
            node.entries.append(right.entries.pop(0))
            parent.keys[child_pos] = right.keys[0]
        else:
            node.keys.append(parent.keys[child_pos])
            node.children.append(right.children.pop(0))
            parent.keys[child_pos] = right.keys.pop(0)

    def _merge_children(self, parent: _ShadowInternal, left_pos: int) -> None:
        if left_pos + 1 >= len(parent.children):
            raise ProofError("delete replay: an only child has no sibling to merge with")
        left = self._require_shadow(parent.children[left_pos], "left-merge")
        right = self._require_shadow(parent.children[left_pos + 1], "right-merge")
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.entries.extend(right.entries)
        else:
            left.keys.append(parent.keys[left_pos])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[left_pos]
        del parent.children[left_pos + 1]


def derive_update_roots(
    proof: UpdateProof,
    order: int,
    key: bytes,
    value: bytes | None = None,
) -> tuple[Digest, Digest]:
    """Derive the (old, new) root digests an update proof vouches for.

    The old root is the one :func:`fold_path` implies; the new root is
    *recomputed* by replaying the operation on shadow nodes built from
    the folded snapshots -- what the root must be after an honest
    server applies exactly this operation.  The caller authenticates
    the old root: against the root it tracks (:func:`verify_update`), or
    through the protocol layer (a signature, or the XOR registers).

    ``value`` is required for inserts and must be ``None`` for deletes.
    """
    if proof.key != key:
        raise ProofError("update proof is for a different key")
    if proof.operation == "insert" and value is None:
        raise ProofError("insert verification requires the new value")
    if proof.operation == "delete" and value is not None:
        raise ProofError("delete verification must not carry a value")
    if len(proof.siblings) != len(proof.internals):
        raise ProofError("sibling list length disagrees with path length")

    old_root, indices = fold_path(proof.internals, proof.leaf, key)

    # Rebuild the path as mutable shadow nodes.
    shadows: list[_ShadowInternal | _ShadowLeaf] = [
        _ShadowInternal(s.keys, s.child_digests) for s in proof.internals
    ]
    shadows.append(_ShadowLeaf(proof.leaf))
    for depth in range(len(shadows) - 1):
        shadows[depth].children[indices[depth]] = shadows[depth + 1]

    # Splice verified siblings into their parents (delete proofs only).
    for depth, pair in enumerate(proof.siblings):
        parent = shadows[depth]
        index = indices[depth]
        for name, side, at, edge in (("left", pair.left, index - 1, "leftmost"),
                                     ("right", pair.right, index + 1, "rightmost")):
            if side is None:
                continue
            if not 0 <= at < len(parent.children):
                raise ProofError(f"{name} sibling supplied for a {edge} child")
            if side.digest() != proof.internals[depth].child_digests[at]:
                raise ProofError(f"{name} sibling snapshot does not match committed digest")
            if isinstance(side, LeafSnapshot) != shadows[depth + 1].is_leaf:
                raise ProofError(f"{name} sibling is not the kind of node its neighbour is")
            parent.children[at] = _shadow_from_snapshot(side)

    replay = _Replay(order)
    if proof.operation == "insert":
        new_root = replay.insert(shadows, indices, key, hash_leaf(key, value))
    else:
        new_root = replay.delete(shadows, indices, key)

    if isinstance(new_root, Digest):
        return old_root, new_root
    return old_root, new_root.digest()


def verify_update(
    old_root_digest: Digest,
    proof: UpdateProof,
    order: int,
    key: bytes,
    value: bytes | None = None,
) -> Digest:
    """Client side: validate the pre-update VO against the known root
    digest and return the new root the client derived."""
    old_root, new_root = derive_update_roots(proof, order, key, value)
    if old_root != old_root_digest:
        raise ProofError("update proof does not match committed root digest")
    return new_root
