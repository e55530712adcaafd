"""Collision-intractable hashing with domain separation.

The paper (Section 4.1) assumes a collision intractable hash function
``h`` used in three distinct roles:

* hashing data values stored in Merkle-tree leaves,
* hashing the concatenation of child digests in internal nodes,
* hashing database *states* ``h(M(D) || ctr)`` and *tagged states*
  ``h(M(D) || ctr || user)`` in Protocols I--III.

We instantiate ``h`` with SHA-256 and prefix every invocation with a
domain tag so that a digest produced in one role can never collide with
a digest produced in another role.  Digests are wrapped in a small
value type, :class:`Digest`, that supports the XOR algebra Protocol II
builds its synchronisation check on.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

DIGEST_SIZE = 32
_ZERO_BYTES = bytes(DIGEST_SIZE)

# Bound on the tagged/plain state-hash memo tables.  Protocols re-derive
# the same ``h(M(D) || ctr [|| user])`` values constantly (every client
# recomputes the tags the whole system has produced), so a bounded LRU
# turns those re-derivations into dictionary hits.
_STATE_CACHE_SIZE = 1 << 16

# Domain-separation tags.  Each role gets a unique single-byte prefix.
_DOMAIN_LEAF = b"\x00leaf"
_DOMAIN_NODE = b"\x01node"
_DOMAIN_STATE = b"\x02state"
_DOMAIN_TAGGED_STATE = b"\x03tagged-state"
_DOMAIN_RAW = b"\x04raw"
_DOMAIN_EPOCH = b"\x05epoch"
_DOMAIN_LEAF_NODE = b"\x06leaf-node"
_DOMAIN_EMPTY_LEAF = b"\x07empty-leaf"
_DOMAIN_INTERNAL_NODE = b"\x08internal-node"

# Field separator used when hashing a concatenation ``x || y || z``.
# A length-prefixed encoding makes the concatenation injective, so the
# classic ambiguity (``"ab" || "c"`` vs ``"a" || "bc"``) cannot be used
# to forge colliding pre-images.
_SEPARATOR = b"\xff"


class Digest:
    """An immutable 32-byte digest supporting XOR.

    Protocol II maintains per-user registers that accumulate the XOR of
    all database states a user has seen.  ``Digest`` therefore forms an
    abelian group under ``^`` with :meth:`zero` as the identity and
    every element being its own inverse.  Equality, hashing and truth
    read the bytes; the 256-bit int XOR runs on is converted the first
    time a digest is XORed and kept -- most digests (a proof's, a
    node's) are compared and hashed, never XORed.
    """

    __slots__ = ("_value", "_int")

    def __init__(self, value: bytes) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"digest value must be bytes, got {type(value).__name__}")
        if len(value) != DIGEST_SIZE:
            raise ValueError(f"digest must be {DIGEST_SIZE} bytes, got {len(value)}")
        self._value = bytes(value)
        self._int = None

    @classmethod
    def _from_int(cls, number: int) -> "Digest":
        """Fast internal constructor from a 256-bit accumulator."""
        digest = object.__new__(cls)
        digest._value = number.to_bytes(DIGEST_SIZE, "big")
        digest._int = number
        return digest

    @classmethod
    def _from_hash(cls, value: bytes) -> "Digest":
        """Fast internal constructor for 32 trusted ``bytes``: hasher
        output, or a slice the wire decoder has length-checked (skips the
        public constructor's type/length validation and defensive copy)."""
        digest = object.__new__(cls)
        digest._value = value
        digest._int = None
        return digest

    @classmethod
    def zero(cls) -> "Digest":
        """The XOR identity: the all-zero digest."""
        return cls._from_int(0)

    @property
    def value(self) -> bytes:
        """The raw 32 bytes of the digest."""
        return self._value

    def as_int(self) -> int:
        """The digest as a 256-bit big-endian integer (XOR fast path)."""
        number = self._int
        if number is None:
            number = self._int = int.from_bytes(self._value, "big")
        return number

    def __xor__(self, other: "Digest") -> "Digest":
        if not isinstance(other, Digest):
            return NotImplemented
        mine, theirs = self._int, other._int
        if mine is None:
            mine = self.as_int()
        if theirs is None:
            theirs = other.as_int()
        return Digest._from_int(mine ^ theirs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digest):
            return NotImplemented
        return self._value == other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __bool__(self) -> bool:
        """A digest is falsy only when it is the zero digest."""
        return self._value != _ZERO_BYTES

    def hex(self) -> str:
        """Hex encoding of the digest, for display and logs."""
        return self._value.hex()

    def short(self) -> str:
        """First 8 hex characters, convenient for compact traces."""
        return self._value.hex()[:8]

    def __repr__(self) -> str:
        return f"Digest({self.short()}…)"

    def to_bytes(self) -> bytes:
        return self._value

    @classmethod
    def from_hex(cls, text: str) -> "Digest":
        """Parse a digest from its :meth:`hex` encoding."""
        return cls(bytes.fromhex(text))


# Precomputed ``len || separator`` prefixes for the common short-field
# case (keys, 32-byte digests, small values): the VO hot path calls
# ``_hash`` for every node on an update's root-to-leaf path, and a
# fresh ``int.to_bytes`` + concat per field is pure overhead there.
_LEN_PREFIX = tuple(n.to_bytes(8, "big") + _SEPARATOR for n in range(513))


def _encode_fields(fields: tuple[bytes, ...]) -> bytes:
    """Length-prefixed, injective encoding of a field tuple."""
    prefixes = _LEN_PREFIX
    parts = []
    append = parts.append
    for field in fields:
        size = len(field)
        append(prefixes[size] if size < 513
               else size.to_bytes(8, "big") + _SEPARATOR)
        append(field)
    return b"".join(parts)


def _hash(domain: bytes, *fields: bytes) -> Digest:
    # Stream straight into the hasher -- byte-for-byte the same input
    # as hashing ``domain || _encode_fields(fields)``, without building
    # the intermediate list and joined copy.
    hasher = hashlib.sha256(domain)
    update = hasher.update
    prefixes = _LEN_PREFIX
    for field in fields:
        size = len(field)
        update(prefixes[size] if size < 513
               else size.to_bytes(8, "big") + _SEPARATOR)
        update(field)
    return Digest._from_hash(hasher.digest())


def hash_bytes(data: bytes) -> Digest:
    """Hash raw application data (no structural role)."""
    return _hash(_DOMAIN_RAW, data)


def hash_leaf(key: bytes, value: bytes) -> Digest:
    """Digest of a Merkle-tree leaf entry for ``key`` holding ``value``."""
    return _hash(_DOMAIN_LEAF, key, value)


def hash_node(child_digests: list[Digest]) -> Digest:
    """Digest of an internal Merkle node from its children's digests.

    This is the paper's ``h(d_1 || d_2 || ... || d_m)`` with an injective
    encoding, so the same multiset of children in a different arity
    cannot collide.
    """
    if not child_digests:
        raise ValueError("internal node must have at least one child")
    return _hash(_DOMAIN_NODE, *[d.value for d in child_digests])


def hash_leaf_node(entry_digests: list[Digest]) -> Digest:
    """Digest of a Merkle B+-tree *leaf node* from its entry digests.

    An empty leaf (the root of an empty tree) gets a fixed
    domain-separated digest so that "empty database" is itself a
    committed state.
    """
    if not entry_digests:
        return _hash(_DOMAIN_EMPTY_LEAF)
    return _hash(_DOMAIN_LEAF_NODE, *[d.value for d in entry_digests])


def hash_internal_node(separator_keys: list[bytes], child_digests: list[Digest]) -> Digest:
    """Digest of an internal Merkle B+-tree node.

    Commits to both the separator keys and the child digests; the keys
    must be committed so that update proofs can check search-order
    invariants against material the root digest vouches for.
    """
    if not child_digests:
        raise ValueError("internal node must have at least one child")
    if len(separator_keys) != len(child_digests) - 1:
        raise ValueError("internal node must have exactly (children - 1) separator keys")
    key_count = len(separator_keys).to_bytes(8, "big")
    fields = [key_count, *separator_keys, *[d.value for d in child_digests]]
    return _hash(_DOMAIN_INTERNAL_NODE, *fields)


@lru_cache(maxsize=_STATE_CACHE_SIZE)
def _hash_state_cached(root_digest: Digest, ctr: int) -> Digest:
    return _hash(_DOMAIN_STATE, root_digest.value, ctr.to_bytes(8, "big"))


def hash_state(root_digest: Digest, ctr: int) -> Digest:
    """The paper's state identifier ``h(M(D) || ctr)`` (Protocol I)."""
    if ctr < 0:
        raise ValueError("counter must be non-negative")
    return _hash_state_cached(root_digest, ctr)


@lru_cache(maxsize=_STATE_CACHE_SIZE)
def _hash_tagged_state_cached(root_digest: Digest, ctr: int, user_id: str) -> Digest:
    return _hash(
        _DOMAIN_TAGGED_STATE,
        root_digest.value,
        ctr.to_bytes(8, "big"),
        user_id.encode("utf-8"),
    )


def hash_tagged_state(root_digest: Digest, ctr: int, user_id: str) -> Digest:
    """Protocol II's tagged state ``h(M(D) || ctr || user)``.

    Tagging the state with the user that validated the transition into
    it is what forces in-degree <= 1 in the seen-state graph
    (Lemma 4.1 / property P2), defeating the Figure 3 replay.

    Every client in the system re-derives the same tag sequence, so the
    result is memoised in a bounded LRU (the tag is a pure function of
    its arguments).
    """
    if ctr < 0:
        raise ValueError("counter must be non-negative")
    return _hash_tagged_state_cached(root_digest, ctr, user_id)


def hash_epoch_snapshot(sigma: Digest, last: Digest, epoch: int, user_id: str) -> Digest:
    """Digest of a user's (sigma, last) snapshot deposited in Protocol III."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    return _hash(
        _DOMAIN_EPOCH,
        sigma.value,
        last.value,
        epoch.to_bytes(8, "big"),
        user_id.encode("utf-8"),
    )


def xor_all(digests) -> Digest:
    """XOR-fold an iterable of digests (identity: :meth:`Digest.zero`).

    Accumulates in a single 256-bit int, so a fold of n digests costs n
    int XORs (and a conversion per digest never XORed before) and
    exactly one :class:`Digest` construction.
    """
    total = 0
    for digest in digests:
        number = digest._int
        if number is None:
            number = digest.as_int()
        total ^= number
    return Digest._from_int(total)
