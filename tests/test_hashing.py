"""Unit and property tests for the hashing layer."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.hashing import (
    DIGEST_SIZE,
    Digest,
    hash_bytes,
    hash_epoch_snapshot,
    hash_internal_node,
    hash_leaf,
    hash_leaf_node,
    hash_node,
    hash_state,
    hash_tagged_state,
    xor_all,
)

digests = st.binary(min_size=DIGEST_SIZE, max_size=DIGEST_SIZE).map(Digest)


class TestDigest:
    def test_requires_bytes(self):
        with pytest.raises(TypeError):
            Digest("not bytes")

    def test_requires_exact_length(self):
        with pytest.raises(ValueError):
            Digest(b"\x00" * 31)

    def test_zero_is_falsy(self):
        assert not Digest.zero()

    def test_nonzero_is_truthy(self):
        assert hash_bytes(b"x")

    def test_hex_roundtrip(self):
        digest = hash_bytes(b"roundtrip")
        assert Digest.from_hex(digest.hex()) == digest

    def test_short_is_prefix_of_hex(self):
        digest = hash_bytes(b"prefix")
        assert digest.hex().startswith(digest.short())

    def test_repr_contains_short(self):
        digest = hash_bytes(b"shown")
        assert digest.short() in repr(digest)

    def test_equality_and_hash(self):
        a = hash_bytes(b"same")
        b = hash_bytes(b"same")
        assert a == b
        assert hash(a) == hash(b)
        assert a != hash_bytes(b"different")

    def test_eq_other_type_is_not_implemented(self):
        assert (hash_bytes(b"x") == 42) is False

    @given(digests, digests)
    def test_xor_commutative(self, a, b):
        assert a ^ b == b ^ a

    @given(digests, digests, digests)
    def test_xor_associative(self, a, b, c):
        assert (a ^ b) ^ c == a ^ (b ^ c)

    @given(digests)
    def test_xor_identity(self, a):
        assert a ^ Digest.zero() == a

    @given(digests)
    def test_xor_self_inverse(self, a):
        assert a ^ a == Digest.zero()

    @given(st.lists(digests, max_size=8))
    def test_xor_all_folds(self, items):
        total = Digest.zero()
        for item in items:
            total = total ^ item
        assert xor_all(items) == total

    def test_xor_all_empty_is_zero(self):
        assert xor_all([]) == Digest.zero()


class TestDigestHoldsItsBytes:
    """A digest is its 32 bytes: equality, hashing and truth read them,
    and the int XOR runs on is made when a digest is first XORed."""

    @given(digests, digests)
    def test_equality_and_hash_follow_the_bytes(self, a, b):
        assert (a == b) == (a.value == b.value)
        assert hash(a) == hash(Digest(a.value)) == hash(a.value)

    @given(digests, digests)
    def test_xor_is_the_xor_of_the_ints(self, a, b):
        total = a ^ b
        assert total.as_int() == a.as_int() ^ b.as_int()
        assert total.value == (a.as_int() ^ b.as_int()).to_bytes(32, "big")
        assert total == Digest(total.value)   # made from an int or bytes
        assert hash(total) == hash(Digest(total.value))
        assert bool(total) == (a != b)

    def test_zero_is_falsy_however_made(self):
        one = hash_bytes(b"one")
        for zero in (Digest.zero(), one ^ one, Digest(bytes(32)),
                     xor_all([one, one])):
            assert not zero and zero == Digest.zero()
        assert Digest(b"\x00" * 31 + b"\x01")

    @given(st.lists(digests, max_size=8))
    def test_xor_all_of_converted_and_fresh_digests(self, items):
        expected = 0
        for item in items:
            expected ^= int.from_bytes(item.value, "big")
        fresh = [Digest(item.value) for item in items]
        assert xor_all(fresh).as_int() == expected
        assert xor_all(items).as_int() == expected   # converted now
        assert xor_all(iter(fresh)).as_int() == expected

    def test_a_key_of_a_memo(self):
        from functools import lru_cache

        calls = []

        @lru_cache(maxsize=8)
        def memo(digest):
            calls.append(digest)
            return digest.hex()

        digest = hash_bytes(b"key")
        assert memo(digest) == memo(Digest(digest.value)) == digest.hex()
        assert memo(digest ^ Digest.zero()) == digest.hex()
        assert calls == [digest]
        assert len({digest, Digest(digest.value), digest ^ Digest.zero()}) == 1


class TestDomainSeparation:
    def test_leaf_vs_raw(self):
        # hash_leaf(k, v) must differ from any raw hash of a concatenation.
        assert hash_leaf(b"k", b"v") != hash_bytes(b"kv")

    def test_leaf_injective_on_boundaries(self):
        assert hash_leaf(b"ab", b"c") != hash_leaf(b"a", b"bc")

    def test_state_vs_tagged_state(self):
        root = hash_bytes(b"root")
        assert hash_state(root, 3) != hash_tagged_state(root, 3, "")

    def test_tagged_state_depends_on_user(self):
        root = hash_bytes(b"root")
        assert hash_tagged_state(root, 3, "alice") != hash_tagged_state(root, 3, "bob")

    def test_tagged_state_depends_on_counter(self):
        root = hash_bytes(b"root")
        assert hash_tagged_state(root, 3, "alice") != hash_tagged_state(root, 4, "alice")

    def test_state_rejects_negative_counter(self):
        with pytest.raises(ValueError):
            hash_state(hash_bytes(b"r"), -1)

    def test_tagged_state_rejects_negative_counter(self):
        with pytest.raises(ValueError):
            hash_tagged_state(hash_bytes(b"r"), -1, "u")

    def test_epoch_snapshot_depends_on_every_field(self):
        sigma, last = hash_bytes(b"s"), hash_bytes(b"l")
        base = hash_epoch_snapshot(sigma, last, 2, "u")
        assert base != hash_epoch_snapshot(last, sigma, 2, "u")
        assert base != hash_epoch_snapshot(sigma, last, 3, "u")
        assert base != hash_epoch_snapshot(sigma, last, 2, "v")

    def test_epoch_snapshot_rejects_negative_epoch(self):
        with pytest.raises(ValueError):
            hash_epoch_snapshot(hash_bytes(b"a"), hash_bytes(b"b"), -1, "u")


class TestNodeHashes:
    def test_hash_node_rejects_empty(self):
        with pytest.raises(ValueError):
            hash_node([])

    def test_leaf_node_empty_is_stable(self):
        assert hash_leaf_node([]) == hash_leaf_node([])

    def test_leaf_node_empty_differs_from_raw(self):
        assert hash_leaf_node([]) != hash_bytes(b"")

    def test_leaf_node_order_sensitive(self):
        a, b = hash_bytes(b"a"), hash_bytes(b"b")
        assert hash_leaf_node([a, b]) != hash_leaf_node([b, a])

    def test_internal_node_commits_keys(self):
        children = [hash_bytes(b"c1"), hash_bytes(b"c2")]
        assert hash_internal_node([b"k1"], children) != hash_internal_node([b"k2"], children)

    def test_internal_node_arity_check(self):
        with pytest.raises(ValueError):
            hash_internal_node([b"k1", b"k2"], [hash_bytes(b"c")])

    def test_internal_node_rejects_empty(self):
        with pytest.raises(ValueError):
            hash_internal_node([], [])

    def test_internal_vs_leaf_node_domains(self):
        child = hash_bytes(b"x")
        assert hash_internal_node([], [child]) != hash_leaf_node([child])

    @given(st.lists(st.binary(max_size=6), min_size=1, max_size=5, unique=True))
    def test_leaf_node_deterministic(self, values):
        entry_digests = [hash_leaf(v, v) for v in values]
        assert hash_leaf_node(entry_digests) == hash_leaf_node(list(entry_digests))
