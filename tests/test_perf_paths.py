"""Property tests pinning the hot-path fast code to slow references.

The perf pass (int-based digest XOR, per-entry leaf digest caching,
CRT signing) must be *invisible* semantically: each fast path is
checked here against the straightforward implementation it replaced.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import rsa
from repro.crypto.hashing import (
    DIGEST_SIZE,
    Digest,
    hash_leaf,
    hash_leaf_node,
    hash_state,
    hash_tagged_state,
    xor_all,
)
from repro.mtree.bplus import BPlusTree

digests = st.binary(min_size=DIGEST_SIZE, max_size=DIGEST_SIZE).map(Digest)


def xor_bytewise(a: Digest, b: Digest) -> Digest:
    """The byte-wise reference the int fast path replaced."""
    return Digest(bytes(x ^ y for x, y in zip(a.value, b.value)))


class TestDigestIntXor:
    @given(digests, digests)
    def test_matches_bytewise_reference(self, a, b):
        assert a ^ b == xor_bytewise(a, b)
        assert (a ^ b).value == xor_bytewise(a, b).value

    @given(digests)
    def test_identity(self, a):
        assert a ^ Digest.zero() == a
        assert Digest.zero() ^ a == a

    @given(digests)
    def test_involution(self, a):
        assert a ^ a == Digest.zero()
        assert not (a ^ a)

    @given(digests, digests, digests)
    def test_associativity_and_commutativity(self, a, b, c):
        assert (a ^ b) ^ c == a ^ (b ^ c)
        assert a ^ b == b ^ a

    @given(st.lists(digests, max_size=16))
    def test_xor_all_matches_pairwise_fold(self, items):
        total = Digest.zero()
        for item in items:
            total = xor_bytewise(total, item)
        assert xor_all(items) == total

    @given(digests)
    def test_int_bytes_round_trip(self, a):
        assert Digest(a.value) == a
        assert a.as_int() == int.from_bytes(a.value, "big")
        assert Digest.from_hex(a.hex()) == a


class TestStateHashMemoisation:
    @given(digests, st.integers(min_value=0, max_value=2**32), st.text(max_size=8))
    def test_tagged_state_is_stable(self, root, ctr, user):
        assert hash_tagged_state(root, ctr, user) == hash_tagged_state(root, ctr, user)

    @given(digests, st.integers(min_value=0, max_value=2**32))
    def test_state_is_stable(self, root, ctr):
        assert hash_state(root, ctr) == hash_state(root, ctr)

    def test_negative_counter_still_rejected(self):
        root = Digest.zero()
        for fn in (lambda: hash_state(root, -1),
                   lambda: hash_tagged_state(root, -1, "u")):
            try:
                fn()
            except ValueError:
                continue
            raise AssertionError("negative counter accepted")


def full_leaf_recompute(tree: BPlusTree) -> Digest:
    """Root digest recomputed from scratch, ignoring every cache."""

    def recompute(node):
        from repro.crypto.hashing import hash_internal_node

        if node.is_leaf:
            return hash_leaf_node(
                [hash_leaf(k, v) for k, v in zip(node.keys, node.values)])
        return hash_internal_node(
            list(node.keys), [recompute(child) for child in node.children])

    return recompute(tree.root)


class TestIncrementalLeafDigests:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=20, max_value=120))
    def test_cache_equals_full_recompute_after_random_ops(self, seed, operations):
        rng = random.Random(seed)
        tree = BPlusTree(order=4)
        live = set()
        for _ in range(operations):
            key = b"k%03d" % rng.randrange(48)
            if live and rng.random() < 0.35:
                victim = rng.choice(sorted(live))
                tree.delete(victim)
                live.discard(victim)
            else:
                tree.insert(key, rng.randbytes(8))
                live.add(key)
            assert tree.root_digest() == full_leaf_recompute(tree)
        tree.check_invariants()

    def test_update_rehashes_only_touched_path(self):
        tree = BPlusTree(order=4)
        for index in range(64):
            tree.insert(b"k%03d" % index, b"v")
        tree.root_digest()
        tree.insert(b"k000", b"v2")  # overwrite: one leaf entry changes
        _root, recomputed = tree.refresh_root()
        assert recomputed <= tree.height()  # only the dirty path

    def test_clone_is_independent(self):
        tree = BPlusTree(order=4)
        for index in range(32):
            tree.insert(b"k%03d" % index, b"v")
        root = tree.root_digest()
        twin = tree.clone()
        assert twin.root_digest() == root
        twin.insert(b"k000", b"changed")
        assert twin.root_digest() != root
        assert tree.root_digest() == root
        tree.check_invariants()
        twin.check_invariants()


class TestCrtSigning:
    def test_crt_matches_schoolbook_pow(self):
        key = rsa.generate_keypair(bits=512, seed=7)
        assert key.has_crt
        plain = rsa.PrivateKey(public=key.public, exponent=key.exponent)
        assert not plain.has_crt
        for index in range(8):
            digest = hash_leaf(b"crt", b"%d" % index)
            fast = rsa.sign_digest(key, digest)
            slow = rsa.sign_digest(plain, digest)
            assert fast == slow
            assert rsa.verify_digest(key.public, digest, fast)

    def test_crt_parameters_consistent(self):
        key = rsa.generate_keypair(bits=512, seed=8)
        assert key.p * key.q == key.public.modulus
        assert key.dp == key.exponent % (key.p - 1)
        assert key.dq == key.exponent % (key.q - 1)
        assert (key.qinv * key.q) % key.p == 1

    def test_seeded_keypair_cache_returns_same_object(self):
        a = rsa.generate_keypair(bits=512, seed=99)
        b = rsa.generate_keypair(bits=512, seed=99)
        assert a is b
        c = rsa.generate_keypair(bits=512, seed=100)
        assert c is not a

    def test_verify_cache_rejects_tampered_signature(self):
        key = rsa.generate_keypair(bits=512, seed=101)
        digest = hash_leaf(b"k", b"v")
        signature = rsa.sign_digest(key, digest)
        assert rsa.verify_digest(key.public, digest, signature)
        tampered = bytes([signature[0] ^ 1]) + signature[1:]
        assert not rsa.verify_digest(key.public, digest, tampered)
        other = hash_leaf(b"k", b"other")
        assert not rsa.verify_digest(key.public, other, signature)
