"""Corruption fuzzing of every parser: malformed input must raise the
module's error type -- never crash, hang, or silently succeed with
garbage semantics."""

import random
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.mtree.database import VerifiedDatabase, WriteQuery, ReadQuery
from repro.mtree.merkle import MerkleBPlusTree
from repro.storage.engine import load_shard_tree, write_shard_pages
from repro.storage.pagestore import MemoryPageStore, StorageError
from repro.storage.rcs import RcsError, RevisionStore
from repro.wire import WireError, decode, decode_frames, encode

N_MUTATIONS = 150


def mutations(blob: bytes, seed: int, count: int = N_MUTATIONS):
    """Seeded single-byte mutations plus truncations of a valid blob."""
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.random()
        data = bytearray(blob)
        if kind < 0.5 and data:
            index = rng.randrange(len(data))
            data[index] ^= 1 << rng.randrange(8)
        elif kind < 0.8:
            data = data[: rng.randrange(len(data) + 1)]
        else:
            index = rng.randrange(len(data) + 1)
            data[index:index] = bytes([rng.randrange(256)])
        yield bytes(data)


class TestRcsFuzz:
    def test_corrupted_stores_never_crash(self):
        store = RevisionStore()
        store.commit(["alpha", "beta"], "alice", "r1", 0)
        store.commit(["alpha", "gamma"], "bob", "r2", 1)
        branch = store.create_branch("1.1")
        store.commit_on_branch(branch, ["branched"], "carol", "b", 2)
        blob = store.serialize()
        survived = 0
        for mutated in mutations(blob, seed=1):
            try:
                clone = RevisionStore.deserialize(mutated)
            except (RcsError, UnicodeDecodeError, ValueError):
                continue
            # a mutation may land in free text (a line's content) and
            # still parse; checkout must then either succeed or reject
            # the corrupted delta chain with RcsError
            try:
                clone.checkout()
                for meta in clone.log():
                    clone.checkout(meta.number)
            except RcsError:
                continue
            survived += 1
        # most corruptions must be rejected outright
        assert survived < N_MUTATIONS / 2


class TestSnapshotFuzz:
    """The paged store's two page readers: a shard's ``nodes`` stream
    and a leaf page, each a record of the codec, fed mutated bytes
    through :func:`load_shard_tree`."""

    def _store(self):
        tree = MerkleBPlusTree(order=4)
        for i in range(25):
            tree.insert(f"k{i:02d}".encode(), f"v{i}".encode())
        store = MemoryPageStore()
        store.begin()
        write_shard_pages(store, 0, 0, tree)
        store.commit()
        return store

    @staticmethod
    def _load(store, kind: str, page: int, blob: bytes):
        store.begin()
        store.write_page(kind, 0, 0, page, blob)
        store.commit()
        return load_shard_tree(store, 0, 0).tree

    def test_corrupted_snapshots_never_crash(self):
        store = self._store()
        (nodes,) = store.read_pages("nodes", 0, 0)
        survivors = []
        for mutated in mutations(nodes, seed=2):
            try:
                survivors.append(self._load(store, "nodes", 0, mutated))
            except StorageError:
                continue
        self._load(store, "nodes", 0, nodes)
        for n, (_gen, page) in enumerate(store.page_keys("leaves", 0)):
            blob = store.read_page("leaves", 0, 0, page)
            for mutated in mutations(blob, seed=10 + n, count=30):
                try:
                    survivors.append(self._load(store, "leaves", page, mutated))
                except StorageError:
                    continue
            self._load(store, "leaves", page, blob)
        # survivors must be structurally valid trees
        for tree in survivors:
            tree.check_invariants()
        assert len(survivors) < N_MUTATIONS / 2


class TestWireFuzz:
    def test_corrupted_frames_never_crash(self):
        db = VerifiedDatabase(order=4)
        for i in range(15):
            db.execute(WriteQuery(f"k{i:02d}".encode(), f"v{i}".encode()))
        blob = encode(db.execute(ReadQuery(b"k07")))
        for mutated in mutations(blob, seed=3):
            try:
                decode(mutated)
            except (WireError, UnicodeDecodeError, ValueError, OverflowError):
                continue
            # surviving mutations decoded to *something*; decoding is
            # total over its output domain, nothing further to check
            # (verification happens at the proof layer).

    def test_verification_rejects_surviving_mutants(self):
        """The layered defence: a mutated frame that still decodes must
        then fail proof verification (or be byte-identical)."""
        from repro.mtree.database import ClientVerifier, QueryResult
        from repro.mtree.proofs import ProofError

        db = VerifiedDatabase(order=4)
        for i in range(15):
            db.execute(WriteQuery(f"k{i:02d}".encode(), f"v{i}".encode()))
        root = db.root_digest()
        original = db.execute(ReadQuery(b"k07"))
        blob = encode(original)
        for mutated in mutations(blob, seed=4):
            try:
                decoded = decode(mutated)
            except (WireError, UnicodeDecodeError, ValueError, OverflowError):
                continue
            if not isinstance(decoded, QueryResult) or mutated == blob:
                continue
            try:
                value = ClientVerifier(root, 4).apply(ReadQuery(b"k07"), decoded)
            except (ProofError, AttributeError, TypeError):
                continue
            # verified mutants must agree with the truth
            assert value == original.answer


class TestNodeFieldsFuzz:
    """A node's front-coded keys and packed digests, malformed: each is
    a ``WireError`` naming what is wrong, never another exception and
    never a node built from bytes that do not spell one."""

    DIGEST = b"\x11" * 32

    @staticmethod
    def leaf(keys_block: bytes, digests_block: bytes) -> bytes:
        return b"\x20" + keys_block + digests_block

    def test_a_well_formed_leaf_decodes(self):
        from repro.mtree.proofs import LeafSnapshot

        frame = self.leaf(b"\x02\x00\x02ab\x01\x01c", b"\x02" + self.DIGEST * 2)
        assert decode(frame) == LeafSnapshot(
            keys=(b"ab", b"ac"), entry_digests=(decode(b"\x06" + self.DIGEST),) * 2)

    @pytest.mark.parametrize("frame,reason", [
        # the second key shares 3 bytes of a 2-byte key
        (b"\x20\x02\x00\x02ab\x03\x01c\x02" + DIGEST * 2,
         "shares more than the previous key"),
        # the first key shares a byte with no key at all
        (b"\x20\x01\x01\x01c\x01" + DIGEST, "shares more than the previous key"),
        # 40 bytes shared for a one-byte rest: past 16 x (rest + 1)
        (b"\x20\x02\x00\x28" + b"a" * 40 + b"\x28\x01b\x02" + DIGEST * 2,
         "shares more than its rest allows"),
        # "ac" after "ab" spelled as sharing nothing: one spelling per key
        (b"\x20\x02\x00\x02ab\x00\x02ac\x02" + DIGEST * 2,
         "shares more than its prefix length says"),
        # two keys, one digest: the leaf's arity
        (b"\x20\x02\x00\x01a\x00\x01b\x01" + DIGEST, "arity mismatch"),
        # an internal node needs one digest more than it has keys
        (b"\x21\x01\x00\x01m\x01" + DIGEST, "arity mismatch"),
        # a count whose varint stops at the frame's end
        (b"\x20\x80", "truncated"),
        (b"\x20\x01\x00\x01a\x81", "truncated"),
        # a count spelled longer than it is, or past 63 bits
        (b"\x20\x81\x00\x00\x01a\x01" + DIGEST, "overlong varint"),
        (b"\x20" + b"\xff" * 9 + b"\x01", "overlong varint"),
        (b"\x20\x01\x00\x81\x00a\x01" + DIGEST, "overlong varint"),
        # counts past the frame's end, for keys and for digests
        (b"\x20\x7f\x00\x01a", "truncated"),
        (b"\x20\xff\xff\xff\xff\x0f\x00\x01a", "truncated"),
        (b"\x20\x01\x00\x01a\x02" + DIGEST, "truncated"),
        (b"\x20\x01\x00\x05a", "truncated"),
    ], ids=["prefix-longer-than-previous", "first-key-prefix",
            "prefix-past-its-cap", "prefix-shorter-than-shared", "digest-count-vs-leaf-arity", "digest-count-vs-internal-arity",
            "truncated-count", "truncated-length", "overlong-count",
            "varint-past-63-bits", "overlong-length", "key-count-past-end",
            "huge-key-count", "digest-count-past-end", "suffix-past-end"])
    def test_malformed_node_fields_are_wire_errors(self, frame, reason):
        with pytest.raises(WireError, match=reason):
            decode(frame)

    def test_a_key_bomb_is_refused_early(self):
        """n keys each one byte longer than the last would decode to
        n**2/2 bytes from ~4n: the shared-prefix cap refuses the frame
        at its 34th key."""
        def varint(value):
            out = bytearray()
            while value >= 0x80:
                out.append(value & 0x7F | 0x80)
                value >>= 7
            return bytes(out) + bytes((value,))

        count = 5_000
        frame = b"\x20" + varint(count) + b"".join(
            varint(i) + b"\x01a" for i in range(count))
        with pytest.raises(WireError, match="shares more than its rest allows"):
            decode(frame)

    def test_every_mutation_of_a_node_is_refused_or_well_formed(self):
        """Seeded mutations of a real leaf with shared prefixes: what
        decodes re-encodes to the mutated bytes -- each node has one
        spelling."""
        db = VerifiedDatabase(order=8)
        for i in range(40):
            db.execute(WriteQuery(b"src/mod%03d/file%05d.c,v" % (i % 7, i), b"v"))
        blob = encode(db.execute(ReadQuery(b"src/mod003/file00010.c,v")).proof.leaf)
        for mutated in mutations(blob, seed=6, count=400):
            try:
                leaf = decode(mutated)
            except WireError:
                continue
            assert encode(leaf) == mutated


class TestPageRecordFieldsFuzz:
    """The page records' counted varints, malformed, are ``WireError``s
    naming what is wrong, as a node's keys are; a ``nodes`` page is
    frames back to back, each whole."""

    def test_well_formed_records_decode(self):
        from repro.storage.engine import LeafEntry, LeafPage

        assert decode(b"\x51\x03\x04\xac\x02\x00") == LeafEntry((4, 300, 0))
        assert decode(b"\x52\x01\x00\x01a\x02\x07\x01") == \
            LeafPage((b"a",), (7, 1))
        assert decode_frames(encode(8) + b"\x51\x03\x00\x01\x00") == \
            [8, LeafEntry((0, 1, 0))]
        assert decode_frames(b"") == []

    @pytest.mark.parametrize("frame,reason", [
        (b"\x51\x03\x01\x02", "truncated"),
        (b"\x51\x01\x80", "truncated"),
        (b"\x51\x02\x01\x80", "truncated"),
        (b"\x51\x7f\x00", "truncated"),
        (b"\x51\x01\x81\x00", "overlong varint"),
        (b"\x51\x01" + b"\xff" * 9 + b"\x01", "overlong varint"),
        (b"\x52\x01\x00\x01a\x02\x07", "truncated"),
    ], ids=["count-past-end", "value-past-end", "second-value-past-end",
            "huge-count", "overlong-value", "value-past-63-bits",
            "leaf-page-refs-past-end"])
    def test_malformed_varints_are_wire_errors(self, frame, reason):
        with pytest.raises(WireError, match=reason):
            decode(frame)
        with pytest.raises(WireError, match=reason):
            decode_frames(encode(8) + frame)


class TestVoTypeFuzz:
    """Type confusion inside a verification object: every value anywhere
    in every proof kind is replaced, on the wire, by a well-formed value
    of another type.  The frame must be refused as malformed, or -- where
    the substitute happens to be admissible -- the verification step
    must end in an outcome or a ``ProofError``: nothing else may leave
    it (an ``AttributeError`` out of the step ends a session with no
    verdict and no evidence)."""

    @staticmethod
    def subvalues(value, seen):
        """Every value reachable inside a VO: dataclass fields, tuple
        elements, and the containers themselves."""
        if is_dataclass(value) and not isinstance(value, type):
            children = [getattr(value, f.name) for f in fields(value)]
        elif isinstance(value, tuple):
            children = list(value)
        else:
            children = []
        blob = encode(value)
        if blob not in seen:
            seen.add(blob)
            yield blob
        for child in children:
            yield from TestVoTypeFuzz.subvalues(child, seen)

    @pytest.mark.parametrize("shards", [1, 8])
    def test_type_mutated_proofs_end_in_wire_or_proof_error(self, shards):
        from repro.mtree import ProofError, derive_outcome
        from repro.mtree.database import DeleteQuery, QueryResult, RangeQuery

        db = VerifiedDatabase(order=4, shards=shards)
        for i in range(60):
            db.execute(WriteQuery(f"k{i:02d}".encode(), f"v{i}".encode()))
        leaf = db.execute(ReadQuery(b"k07")).proof
        leaf = getattr(leaf, "inner", leaf).leaf
        substitutes = [encode(v) for v in (
            None, True, 7, b"k07", "insert", leaf.entry_digests[0], (),
            (b"k07",), ((b"k07", b"v7"),), leaf, leaf.entry_digests,
            db.execute(ReadQuery(b"k08")).proof, {b"k": 1})]
        decoded = refused = whole_refused = 0
        for query in (ReadQuery(b"k07"), ReadQuery(b"nope"),
                      WriteQuery(b"k61", b"v"), DeleteQuery(b"k30"),
                      DeleteQuery(b"nope"), RangeQuery(b"k10", b"k40")):
            result = db.clone().execute(query)
            frame = encode(result)
            start = len(encode(result.answer))
            # the whole proof: QueryResult does not type its proof slot,
            # so every substitute decodes and the verifier must refuse it
            whole = encode(result.proof)
            at = frame.index(whole, start)
            for substitute in substitutes:
                if substitute[:1] == whole[:1]:
                    continue  # the same wire type: not a type mutation
                forged = decode(frame[:at] + substitute + frame[at + len(whole):])
                assert isinstance(forged, QueryResult)
                with pytest.raises(ProofError):
                    derive_outcome(query, forged, db.spec)
                whole_refused += 1
            for honest in self.subvalues(result.proof, {whole}):
                at = frame.find(honest, start)
                if at < 0:
                    continue  # an untagged field (keys, digests): no wire type
                for substitute in substitutes:
                    if substitute[:1] == honest[:1]:
                        continue  # the same wire type: not a type mutation
                    mutated = frame[:at] + substitute + frame[at + len(honest):]
                    try:
                        forged = decode(mutated)
                    except WireError:
                        refused += 1
                        continue
                    decoded += 1
                    assert isinstance(forged, QueryResult)
                    try:
                        derive_outcome(query, forged, db.spec)
                    except ProofError:
                        pass
        # the classes refuse nearly everything; what decodes is the odd
        # admissible substitute (None for a sibling, a digest for a
        # range proof's subtree)
        assert refused > 10 * decoded > 0
        assert whole_refused >= 6 * 12  # each query skips at most one


class TestVoShapeFuzz:
    """Well-typed VOs of shapes no B+-tree has: a server that controls
    every snapshot can chain digests over an unbalanced tree, an internal
    node with one child, a leaf next to an internal node.  The update
    replay must reject what it cannot follow with ``ProofError`` -- an
    ``IndexError`` out of a merge is a crash before the root was ever
    authenticated."""

    def test_update_replay_over_impossible_trees(self):
        from repro.mtree.bplus import BPlusTree, InternalNode, LeafNode
        from repro.mtree.merkle import MerkleBPlusTree
        from repro.mtree.proofs import (
            ProofError, build_delete_proof, build_path_proof, derive_update_roots)

        rng = random.Random(5)

        def grow(depth, low, high):
            if depth == 0 or high - low < 2 or rng.random() < 0.25:
                leaf = LeafNode()
                picked = sorted(rng.sample(range(low, high),
                                           min(high - low, rng.randrange(5))))
                leaf.keys = [b"k%04d" % k for k in picked]
                leaf.values = [b"v"] * len(picked)
                leaf.entry_digests = [None] * len(picked)
                return leaf
            node = InternalNode()
            cuts = sorted(rng.sample(range(low + 1, high),
                                     min(rng.randrange(4), high - low - 1)))
            node.keys = [b"k%04d" % cut for cut in cuts]
            bounds = [low, *cuts, high]
            node.children = [grow(depth - 1, a, b)
                             for a, b in zip(bounds, bounds[1:])]
            return node

        rejected = set()
        for _ in range(4000):
            tree = BPlusTree(order=rng.choice([3, 4, 5]))
            tree._root = grow(rng.randrange(4), 0, 200)
            mtree = MerkleBPlusTree.from_tree(tree)
            key = b"k%04d" % rng.randrange(200)
            operation = rng.choice(["insert", "delete"])
            build = build_path_proof if operation == "insert" else build_delete_proof
            proof = build(mtree, key)
            try:
                derive_update_roots(proof, rng.choice([3, 4, 5, 8]), key,
                                    b"v" if operation == "insert" else None)
            except ProofError as exc:
                rejected.add(
                    str(exc).removeprefix("left ").removeprefix("right "))
        assert rejected == {"sibling is not the kind of node its neighbour is",
                            "internal snapshot with one child"}


class TestAckFuzz:
    """A request's ``ack`` and ``rid`` as a fuzzed frame may carry them:
    the server executes the request and releases what the ack names, or
    refuses it before the log -- never a crash, and never the entry it
    is recording dropped."""

    INT64 = st.integers(-2**63, 2**63 - 1)  # what a frame can carry

    @settings(max_examples=200, deadline=None)
    @given(ack=st.one_of(st.none(), st.booleans(), INT64,
                         st.floats(allow_nan=False), st.text(max_size=4),
                         st.binary(max_size=4), st.lists(INT64, max_size=2)),
           rid=st.one_of(st.none(), st.integers(0, 9), st.text(max_size=8),
                         st.sampled_from(["u:n:5", "u:n:2", "u:n:9", "u:5",
                                          "u:n:", "u::5", "u:n:-1", "u:n:٣",
                                          "u:n:" + "9" * 40])))
    def test_an_ack_is_taken_or_refused(self, ack, rid):
        from repro.net.core import ServerCore
        from repro.protocols.base import ErrorReply, Request, request_id

        core = ServerCore(order=4)
        for seq in range(5):
            core.apply_request("u", Request(
                query=WriteQuery(b"k%d" % seq, b"v"),
                extras={"user": "u", "rid": f"u:n:{seq}", "ack": 0}))
        table = core.dedup.export()
        extras = {"user": "u", "ack": ack}
        if rid is not None:
            extras["rid"] = rid
        request = decode(encode(Request(query=WriteQuery(b"k", b"v"),
                                        extras=extras)))
        response = core.apply_request("u", request)
        if isinstance(response, ErrorReply):
            assert response.extras == {"retryable": False}
            assert core.state.ctr == 5 and core.dedup.export() == table
        elif core.state.ctr == 6:
            assert core.dedup.lookup("u", request_id(request)) is response
        else:  # a retry of a remembered request, answered from memory
            assert core.dedup.export() == table
