"""Tests for the binary wire codec."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import wire
from repro.crypto.hashing import Digest, hash_bytes
from repro.crypto.signatures import Signature, Signer
from repro.mtree.database import (
    DeleteQuery,
    QueryResult,
    RangeQuery,
    ReadQuery,
    VerifiedDatabase,
    WriteQuery,
)
from repro.mtree.forest import ForestProof, ForestRangeProof
from repro.mtree.proofs import (
    DeleteProof,
    FringeNode,
    InternalSnapshot,
    LeafSnapshot,
    PathProof,
    RangeProof,
    SiblingPair,
)
from repro.net.replication import RootAttestation, RootDeposit
from repro.protocols.base import ErrorReply, Followup, Request, Response, ServerState
from repro.protocols.protocol2 import Protocol2Server
from repro.protocols.protocol3 import EpochDeposit
from repro.storage.engine import LeafEntry, LeafPage, NodeEntry
from repro.wire import WireError, decode, encode, wire_size


def roundtrip(value):
    data = encode(value)
    back = decode(data)
    assert back == value, (value, back)
    return data


class TestPrimitives:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -1, 2 ** 40, "", "héllo", b"", b"\x00\xff",
        0.0, -1.5, 0.3, 2.0 ** 80, float("inf"),
        Digest.zero(), hash_bytes(b"x"),
        (), (1, "two", b"three"), ((1, 2), (3,)),
        {}, {"a": 1, "b": None}, {1: "x", "y": (2, 3)},
    ])
    def test_roundtrip(self, value):
        roundtrip(value)

    def test_lists_normalise_to_tuples(self):
        assert decode(encode([1, 2])) == (1, 2)

    def test_dict_encoding_is_deterministic(self):
        assert encode({"a": 1, "b": 2}) == encode({"b": 2, "a": 1})

    @settings(max_examples=100, deadline=None)
    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-2**40, 2**40),
                  st.text(max_size=8), st.binary(max_size=8)),
        lambda children: st.lists(children, max_size=4).map(tuple),
        max_leaves=12,
    ))
    def test_roundtrip_property(self, value):
        roundtrip(value)

    def test_unknown_type_rejected(self):
        with pytest.raises(WireError):
            encode(object())

    def test_truncated_rejected(self):
        data = encode({"k": b"value"})
        with pytest.raises(WireError):
            decode(data[:-2])

    def test_trailing_rejected(self):
        with pytest.raises(WireError):
            decode(encode(1) + b"\x00")

    def test_garbage_tag_rejected(self):
        with pytest.raises(WireError):
            decode(b"\xfe")

    @pytest.mark.parametrize("value", [2 ** 63 - 1, -2 ** 63])
    def test_int64_bounds_roundtrip(self, value):
        roundtrip(value)

    @pytest.mark.parametrize("value", [2 ** 63, -2 ** 63 - 1, 2 ** 70])
    def test_int_outside_int64_rejected(self, value):
        with pytest.raises(WireError, match="64 bits"):
            encode(value)
        with pytest.raises(WireError, match="64 bits"):
            encode({"ctr": value})


class TestNesting:
    """A frame nested past the decoder's bound is malformed, not a
    ``RecursionError`` escaping every handler above the codec."""

    @pytest.mark.parametrize("frame", [
        b"\x07\x00\x00\x00\x01" * 5000 + b"\x00",            # lists
        b"\x08\x00\x00\x00\x01\x00" * 5000 + b"\x00",        # dict values
        b"\x26" * 5000,                                     # sibling pairs
        b"\x41" * 5000,                                     # responses
    ], ids=["lists", "dicts", "sibling-pairs", "responses"])
    def test_deep_frame_is_a_wire_error(self, frame):
        with pytest.raises(WireError, match="nests deeper than 256"):
            decode(frame)

    def test_the_bound_is_256_levels(self):
        assert decode(b"\x07\x00\x00\x00\x01" * 256 + b"\x00") is not None
        with pytest.raises(WireError, match="nests deeper"):
            decode(b"\x07\x00\x00\x00\x01" * 257 + b"\x00")

    def test_order_3_range_proof_is_far_inside_the_bound(self):
        """Two levels per tree level: an order-3 tree of 2,048 keys is
        about 12 levels tall and its full-range proof nests ~27 deep."""
        db = VerifiedDatabase(order=3)
        for i in range(2048):
            db.execute(WriteQuery(b"%06d" % i, b"v"))
        frame = encode(Response(result=db.execute(RangeQuery(b"0", b"9")),
                                extras={"ctr": 1}))
        assert decode(frame).result.answer[-1] == (b"002047", b"v")


class TestQueriesAndProofs:
    @pytest.fixture(scope="class")
    def db(self):
        database = VerifiedDatabase(order=4)
        for i in range(40):
            database.execute(WriteQuery(f"k{i:03d}".encode(), f"v{i}".encode()))
        return database

    def test_queries(self):
        for query in (ReadQuery(b"k"), RangeQuery(b"a", b"z"),
                      WriteQuery(b"k", b"v"), DeleteQuery(b"k")):
            roundtrip(query)

    def test_read_result(self, db):
        result = db.execute(ReadQuery(b"k005"))
        roundtrip(result)

    def test_absence_result(self, db):
        roundtrip(db.execute(ReadQuery(b"nope")))

    def test_range_result(self, db):
        roundtrip(db.execute(RangeQuery(b"k010", b"k020")))

    def test_update_results(self, db):
        roundtrip(db.execute(WriteQuery(b"k005", b"new")))
        roundtrip(db.execute(DeleteQuery(b"k006")))

    def test_decoded_proof_still_verifies(self, db):
        from repro.mtree.database import ClientVerifier

        result = db.execute(ReadQuery(b"k010"))
        decoded = decode(encode(result))
        client = ClientVerifier(db.root_digest(), db.spec)
        assert client.apply(ReadQuery(b"k010"), decoded) == db.get(b"k010")


class TestVoRoundTrip:
    """Every VO kind at every store shape, on the e2e key shape (keys
    that share long prefixes, so front-coding does work): decoding
    gives back equal snapshots, and the decoded VO still verifies."""

    @staticmethod
    def key_for(index):
        return b"src/mod%03d/file%05d.c,v" % (index % 97, index)

    @pytest.fixture(scope="class", params=[1, 2, 8])
    def store(self, request):
        database = VerifiedDatabase(order=8, shards=request.param)
        for index in range(400):
            database.execute(WriteQuery(self.key_for(index), b"v%d" % index))
        return database

    @pytest.mark.parametrize("query", [
        ReadQuery(b"src/mod003/file00100.c,v"), ReadQuery(b"src/mod003/file00100.c,w"),
        RangeQuery(b"src/mod010", b"src/mod013"),
        WriteQuery(b"src/mod005/file00005.c,v", b"new"),
        DeleteQuery(b"src/mod007/file00007.c,v")],
        ids=["read", "absent-read", "range", "write", "delete"])
    def test_round_trips_and_still_verifies(self, store, query):
        from repro.mtree import derive_outcome

        database = store.clone()
        before = database.root_digest()
        result = database.execute(query)
        frame = encode(result)
        decoded = decode(frame)
        assert decoded == result and type(decoded.proof) is type(result.proof)
        assert encode(decoded) == frame
        outcome = derive_outcome(query, decoded, database.spec)
        assert outcome.old_root == before
        assert outcome.new_root == database.root_digest()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.binary(max_size=200), max_size=40))
    def test_any_keys_round_trip(self, keys):
        """Front-coding is total over byte strings: unsorted, repeated,
        empty, one a prefix of the next, longer than a one-byte length."""
        node = FringeNode(keys=tuple(keys), children=(D1,) * (len(keys) + 1))
        frame = encode(node)
        assert decode(frame) == node and encode(decode(frame)) == frame

    def test_a_long_shared_prefix_is_capped(self):
        """A key shares at most 16 bytes per byte it carries, plus 16:
        100-byte keys differing in their last byte share 95 bytes and
        send 5, and still round-trip."""
        keys = (b"a" * 100, b"a" * 99 + b"b")
        node = FringeNode(keys=keys, children=(D1,) * 3)
        frame = encode(node)
        assert frame[2:4] == b"\x00\x64" and frame[104:106] == bytes((95, 5))
        assert decode(frame) == node

    def test_keys_are_front_coded(self):
        """A leaf's keys cost their suffixes: the shared prefixes are
        sent once, as one-byte lengths."""
        keys = tuple(self.key_for(index) for index in (97, 194, 291))
        leaf = LeafSnapshot(keys=keys, entry_digests=(D1, D2, D3))
        frame = encode(leaf)
        assert frame[:2] == b"\x20\x03" and frame[2:4] == bytes((0, len(keys[0])))
        assert frame[28:30] == bytes((17, 7))  # "src/mod000/file00" shared
        assert len(frame) == 2 + (2 + 24) + 2 * (2 + 7) + 1 + 3 * 32
        assert decode(frame) == leaf


def _front_coded(keys) -> bytes:
    """The key block written out from its definition: per key the
    longest prefix shared with the previous key, cut to 16 bytes per
    byte the key carries plus 16, its length, the rest's, the rest."""
    def varint(value):
        out = bytearray()
        while value >= 0x80:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        return bytes(out + bytes((value,)))

    block, previous = bytearray(varint(len(keys))), b""
    for key in keys:
        shared = 0
        while shared < min(len(key), len(previous)) \
                and key[shared] == previous[shared]:
            shared += 1
        shared = min(shared, 16 * (len(key) + 1) // 17)
        block += varint(shared) + varint(len(key) - shared) + key[shared:]
        previous = key
    return bytes(block)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1 << 40), max_size=20).map(tuple))
def test_page_references_are_leb128_varints(refs):
    """A leaf page's references, one-byte or not: a varint count, then
    each reference as LEB128 (seven bits a byte, low first)."""
    def varint(value):
        out = bytearray()
        while value >= 0x80:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        return bytes(out + bytes((value,)))

    frame = encode(LeafPage((b"k",), refs))
    expected = b"".join(map(varint, (len(refs), *refs)))
    assert frame.endswith(expected)
    assert decode(frame) == LeafPage((b"k",), refs)


#: keys around the share cap: a long run, then keys one byte longer or
#: shorter that differ late, early, or only in length
_CAPPED_KEYS = st.lists(st.integers(0, 40).flatmap(
    lambda run: st.tuples(st.just(b"k" * run),
                          st.binary(max_size=3)).map(b"".join)), max_size=12)


class TestKeyBlockMemo:
    """A node's key block is front-coded once and remembered by content:
    a remembered block is the block a fresh encode writes."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        wire._key_blocks.clear()
        yield
        wire._key_blocks.clear()

    @staticmethod
    def put(keys) -> bytes:
        out = bytearray()
        wire._put_keys(keys, out)
        return bytes(out)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_CAPPED_KEYS, st.lists(st.binary(max_size=300),
                                            max_size=10)))
    def test_remembered_and_fresh_blocks_agree(self, keys):
        wire._key_blocks.clear()
        fresh = self.put(tuple(keys))
        assert fresh == _front_coded(keys)
        assert self.put(tuple(keys)) == fresh      # from the memo
        assert self.put(list(keys)) == fresh       # a list is its tuple
        assert wire._decode_keys(fresh, 0, 0) == (tuple(keys), len(fresh))

    def test_the_share_cap_boundaries(self):
        """Keys of 16 to 35 bytes after a longer run, differing in
        their last byte or two: the cap (``16 * (size + 1) // 17``)
        equals the shared prefix at 17 and 34 bytes and cuts it from
        34 bytes on."""
        for size in (16, 17, 33, 34, 35):
            for differ in (size - 2, size - 1):
                keys = (b"a" * (size + 5),
                        b"a" * differ + b"b" * (size - differ))
                block = self.put(keys)
                assert block == self.put(keys) == _front_coded(keys)
                assert wire._decode_keys(block, 0, 0)[0] == keys

    def test_a_full_memo_is_cleared_and_refilled(self, monkeypatch):
        monkeypatch.setattr(wire, "_KEY_BLOCKS_MAX", 4)
        tuples = [(b"key%02d" % index, b"key%02d-x" % index)
                  for index in range(11)]
        blocks = [self.put(keys) for keys in tuples]
        assert 1 <= len(wire._key_blocks) <= 4
        assert [self.put(keys) for keys in tuples] == blocks
        assert blocks == [_front_coded(keys) for keys in tuples]

    def test_records_share_the_block(self):
        """A snapshot, a fringe node and the page records write one
        node's keys alike, from the memo or not."""
        keys = (b"src/a.c,v", b"src/b.c,v", b"src/c.c,v")
        block = self.put(keys)
        for record, head in (
                (LeafSnapshot(keys=keys, entry_digests=(D1, D2, D3)), b"\x20"),
                (InternalSnapshot(keys=keys, child_digests=(D1,) * 4), b"\x21"),
                (FringeNode(keys=keys, children=(D1,) * 4), b"\x24"),
                (NodeEntry(list(keys)), b"\x50"),
                (LeafPage(keys, (0, 0) * 3), b"\x52")):
            assert encode(record).startswith(head + block)
            wire._key_blocks.clear()
            assert encode(record).startswith(head + block)

    def test_vos_verify_across_splits_and_merges(self):
        """Inserts that split nodes and deletes that merge them change
        the keys of remembered nodes: every VO still round-trips and
        verifies, with the memo warm throughout."""
        from repro.mtree import derive_outcome

        database = VerifiedDatabase(order=4, shards=2)
        key = TestVoRoundTrip.key_for
        queries = [WriteQuery(key(index), b"v") for index in range(120)]
        queries += [ReadQuery(key(index)) for index in range(0, 120, 7)]
        queries += [DeleteQuery(key(index)) for index in range(0, 120, 2)]
        queries += [WriteQuery(key(index), b"w") for index in range(0, 60, 3)]
        queries += [DeleteQuery(key(index)) for index in range(120)]
        for query in queries:
            before = database.root_digest()
            frame = encode(database.execute(query))
            outcome = derive_outcome(query, decode(frame), database.spec)
            assert outcome.old_root == before
            assert outcome.new_root == database.root_digest()
        assert len(database) == 0 and wire._key_blocks


def digests_in(value) -> int:
    """The digests a decoded value carries, found by walking its fields."""
    if isinstance(value, Digest):
        return 1
    if isinstance(value, tuple):
        return sum(digests_in(item) for item in value)
    if dataclasses.is_dataclass(value):
        return sum(digests_in(getattr(value, field.name))
                   for field in dataclasses.fields(value))
    return 0


class TestProofContract:
    """What the end-to-end trace asks of a response's proof
    (``benchmarks/e2e/trace_run.py`` adds up ``size_digests()`` per
    read and write): every point proof ``execute`` answers with counts
    the digests it encodes and survives the codec unchanged."""

    @pytest.mark.parametrize("shards", [1, 8])
    @pytest.mark.parametrize("query", [
        ReadQuery(b"k017"), WriteQuery(b"k023", b"new"), DeleteQuery(b"k029"),
        DeleteQuery(b"k029x")], ids=["read", "write", "delete", "absent-delete"])
    def test_size_digests_counts_what_crosses(self, shards, query):
        database = VerifiedDatabase(order=4, shards=shards)
        for index in range(80):
            database.execute(WriteQuery(b"k%03d" % index, b"v"))
        proof = database.execute(query).proof
        decoded = decode(encode(proof))
        assert decoded == proof and type(decoded) is type(proof)
        assert proof.size_digests() == decoded.size_digests() == digests_in(decoded) > 0


class TestAnswerCrossesOnce:
    """A response carries each value it answers with exactly once, in
    ``QueryResult.answer``: a VO is the path, never a second copy of
    the value.  Every stored value is distinctive, so counting its
    bytes in the encoded response counts its copies."""

    VALUES = {b"k%02d" % i: b"distinctive value %02d " % i * 4 for i in range(40)}

    @pytest.mark.parametrize("shards", [1, 2, 8])
    @pytest.mark.parametrize("query", [
        ReadQuery(b"k17"), ReadQuery(b"k17x"), RangeQuery(b"k05", b"k31"),
        WriteQuery(b"k23", b"new value"), DeleteQuery(b"k29")],
        ids=["read", "absent-read", "range", "write", "delete"])
    def test_each_value_once_and_only_in_the_answer(self, shards, query):
        from repro.net import ServerCore

        core = ServerCore(order=4, shards=shards)
        for key, value in self.VALUES.items():
            core.apply_request("u", Request(WriteQuery(key, value), {"user": "u"}))
        response = core.apply_request("u", Request(query, {"user": "u"}))
        answer = response.result.answer
        if isinstance(query, RangeQuery):
            answered = dict(answer)
            assert len(answered) == 27
        else:
            answered = {query.key: answer} if answer is not None else {}
        assert answered == {key: value for key, value in self.VALUES.items()
                            if key in answered}
        frame = encode(response)
        for key, value in self.VALUES.items():
            assert frame.count(value) == (key in answered), key
        if isinstance(query, WriteQuery):
            assert frame.count(query.value) == 0  # the request carried it


class TestProtocolEnvelopes:
    def test_request_response_followup(self):
        db = VerifiedDatabase(order=4)
        db.execute(WriteQuery(b"k", b"v"))
        result = db.execute(ReadQuery(b"k"))
        signer = Signer.generate("alice", bits=512, seed=33)
        signature = signer.sign(hash_bytes(b"state"))

        roundtrip(Request(query=ReadQuery(b"k"), extras={"fetch_epochs": (1, 2)}))
        roundtrip(Response(result=result,
                           extras={"ctr": 7, "last_user": "bob", "sig": signature}))
        roundtrip(Followup(extras={"sig": signature, "turn": 3}))

    def test_error_reply(self):
        from repro.protocols.base import ErrorReply

        roundtrip(ErrorReply(reason="server blocked awaiting a follow-up "
                                    "signature", extras={"timeout_s": 0.3}))
        roundtrip(ErrorReply())

    def test_epoch_deposit(self):
        signer = Signer.generate("u1", bits=512, seed=34)
        deposit = EpochDeposit(user_id="u1", epoch=4, sigma=hash_bytes(b"s"),
                               last=hash_bytes(b"l"),
                               signature=signer.sign(hash_bytes(b"d")))
        roundtrip(deposit)
        roundtrip(Response(result=None, extras={"epoch": 6,
                                                "deposits": {4: {"u1": deposit}}}))


class TestWireSize:
    def test_vo_bytes_are_logarithmic(self):
        sizes = {}
        for exponent in (6, 12):
            n = 2 ** exponent
            db = VerifiedDatabase(order=8)
            for i in range(n):
                db.execute(WriteQuery(f"{i:06d}".encode(), b"x" * 16))
            result = db.execute(ReadQuery(f"{n // 2:06d}".encode()))
            sizes[n] = wire_size(result)
        # 64x the data, far less than 64x the proof bytes
        assert sizes[2 ** 12] < sizes[2 ** 6] * 4

    def test_network_accounting(self):
        from repro.core.scenarios import build_simulation
        from repro.simulation.channels import Network
        from repro.simulation.workload import steady_workload

        workload = steady_workload(3, 6, seed=3)
        network = Network(user_ids=workload.user_ids, account_bytes=True)
        simulation = build_simulation("protocol2", workload, k=100, seed=3,
                                      network=network)
        report = simulation.execute()
        assert not report.detected
        assert network.bytes_sent > 0
        ops = sum(report.operations_completed.values())
        assert network.bytes_sent / ops > 100  # VOs dominate


# -- the golden corpus: one value per tag, bytes pinned -----------------------

D1, D2, D3 = (Digest(bytes([i]) * 32) for i in (1, 2, 3))


def golden_values() -> dict:
    """One value whose outermost tag is each of the codec's 35 tags."""
    leaf = LeafSnapshot(keys=(b"a", b"ab", b"b"), entry_digests=(D1, D2, D3))
    internal = InternalSnapshot(keys=(b"m",), child_digests=(D1, D2))
    fringe = FringeNode(keys=(b"f",), children=(leaf, D2))
    read = PathProof(internals=(internal,), leaf=leaf)
    ranged = RangeProof(root=FringeNode(keys=(b"m",), children=(fringe, D3)))
    delete = DeleteProof(path=read, siblings=(SiblingPair(left=None, right=leaf),))
    signature = Signature(signer_id="alice", digest=D3, raw=b"\x5a" * 8)
    deposit = RootDeposit(primary_id="primary", ctr=7, root=D1, signature=signature)
    extras = {"ctr": 7, "last_user": "bob", "share": 0.25, "sig": None,
              "retryable": True, "nested": {"epoch": 2, "users": ("u1", "u2")}}
    return {
        "none": None, "false": False, "true": True, "int": -2 ** 40,
        "str": "héllo", "bytes": b"\x00\xff", "digest": D1,
        "list": (1, b"x", D2, ("nested",)), "dict": extras, "float": 0.3,
        "read_query": ReadQuery(b"k"), "range_query": RangeQuery(b"a", b"z"),
        "write_query": WriteQuery(b"k", b"v"), "delete_query": DeleteQuery(b"k"),
        "leaf_snapshot": leaf, "internal_snapshot": internal,
        "read_proof": read, "range_proof": ranged, "fringe_node": fringe,
        "delete_proof": delete, "sibling_pair": SiblingPair(left=internal, right=None),
        "query_result": QueryResult(answer=b"1", proof=read),
        "forest_read_proof": ForestProof(inner=read, top=read),
        "forest_range_proof": ForestRangeProof(shard_proofs=(ranged,),
                                               top=RangeProof(root=leaf)),
        "signature": signature,
        "epoch_deposit": EpochDeposit(user_id="u1", epoch=4, sigma=D1, last=D2,
                                      signature=signature),
        "root_deposit": deposit,
        "root_attestation": RootAttestation(witness_id="w1", deposit=deposit,
                                            signature=signature),
        "request": Request(query=WriteQuery(b"k", b"v"),
                           extras={"user": "alice", "rid": "alice:0"}),
        "response": Response(result=QueryResult(answer=None, proof=delete),
                             extras=extras),
        "followup": Followup(extras={"sig": signature, "turn": 3}),
        "error_reply": ErrorReply(reason="busy", extras={"retryable": False}),
        "node_entry": NodeEntry(keys=(b"ab", b"abc", b"b")),
        "leaf_entry": LeafEntry(place=(3, 300, 2)),
        "leaf_page": LeafPage(keys=(b"a", b"ab"), refs=(7, 0, 200, 1)),
    }


#: The bytes of each golden value, as written by the codec before it
#: became two tables.  A change here is a wire-format change: it needs a
#: CODEC_VERSION bump.  CODEC_VERSION 2 re-pinned the five that held a
#: read or range proof, which no longer carries the answer: read_proof,
#: range_proof, query_result, forest_read_proof and forest_range_proof.
#: CODEC_VERSION 3 re-pinned the twelve that hold a proof record (tags
#: 0x20-0x2A, and the response around one), which no longer repeat the
#: query and front-code their keys and pack their digests; the golden
#: leaf's keys share a prefix so the front-coding is pinned too.
#: CODEC_VERSION 4 made the read's path record the write's VO too: a
#: delete's is that path and its siblings (``update_proof`` became
#: ``delete_proof``, one byte longer, as did the ``response`` around
#: it), the forest's point proofs are one record, and tag 0x29 (the
#: retired ``forest_update_proof``) is free.  Every other value,
#: ``read_proof`` and ``forest_read_proof`` included, kept its bytes.
#: The paged store's records (tags 0x50-0x52) came later, under the
#: same version: new tags move no byte of any other value.
GOLDEN_HEX = {
    "none": "00",
    "false": "01",
    "true": "02",
    "int": "03ffffff0000000000",
    "str": "040000000668c3a96c6c6f",
    "bytes": "050000000200ff",
    "digest": (
        "0601010101010101010101010101010101010101010101010101010101010101"
        "01"),
    "list": (
        "0700000004030000000000000001050000000178060202020202020202020202"
        "020202020202020202020202020202020202020202070000000104000000066e"
        "6573746564"),
    "dict": (
        "0800000006040000000363747203000000000000000704000000096c6173745f"
        "757365720400000003626f6204000000066e6573746564080000000204000000"
        "0565706f63680300000000000000020400000005757365727307000000020400"
        "0000027531040000000275320400000009726574727961626c65020400000005"
        "7368617265093fd0000000000000040000000373696700"),
    "float": "093fd3333333333333",
    "read_query": "10000000016b",
    "range_query": "110000000161000000017a",
    "write_query": "12000000016b0000000176",
    "delete_query": "13000000016b",
    "leaf_snapshot": (
        "2003000161010162000162030101010101010101010101010101010101010101"
        "0101010101010101010101010202020202020202020202020202020202020202"
        "0202020202020202020202020303030303030303030303030303030303030303"
        "030303030303030303030303"),
    "internal_snapshot": (
        "210100016d020101010101010101010101010101010101010101010101010101"
        "0101010101010202020202020202020202020202020202020202020202020202"
        "020202020202"),
    "read_proof": (
        "220700000001210100016d020101010101010101010101010101010101010101"
        "0101010101010101010101010202020202020202020202020202020202020202"
        "0202020202020202020202022003000161010162000162030101010101010101"
        "0101010101010101010101010101010101010101010101010202020202020202"
        "0202020202020202020202020202020202020202020202020303030303030303"
        "030303030303030303030303030303030303030303030303"),
    "range_proof": (
        "23240100016d0700000002240100016607000000022003000161010162000162"
        "0301010101010101010101010101010101010101010101010101010101010101"
        "0102020202020202020202020202020202020202020202020202020202020202"
        "0203030303030303030303030303030303030303030303030303030303030303"
        "0306020202020202020202020202020202020202020202020202020202020202"
        "0202060303030303030303030303030303030303030303030303030303030303"
        "030303"),
    "fringe_node": (
        "2401000166070000000220030001610101620001620301010101010101010101"
        "0101010101010101010101010101010101010101010102020202020202020202"
        "0202020202020202020202020202020202020202020203030303030303030303"
        "0303030303030303030303030303030303030303030306020202020202020202"
        "0202020202020202020202020202020202020202020202"),
    "delete_proof": (
        "25220700000001210100016d0201010101010101010101010101010101010101"
        "0101010101010101010101010102020202020202020202020202020202020202"
        "0202020202020202020202020220030001610101620001620301010101010101"
        "0101010101010101010101010101010101010101010101010102020202020202"
        "0202020202020202020202020202020202020202020202020203030303030303"
        "0303030303030303030303030303030303030303030303030307000000012600"
        "2003000161010162000162030101010101010101010101010101010101010101"
        "0101010101010101010101010202020202020202020202020202020202020202"
        "0202020202020202020202020303030303030303030303030303030303030303"
        "030303030303030303030303"),
    "sibling_pair": (
        "26210100016d0201010101010101010101010101010101010101010101010101"
        "0101010101010102020202020202020202020202020202020202020202020202"
        "0202020202020200"),
    "query_result": (
        "27050000000131220700000001210100016d0201010101010101010101010101"
        "0101010101010101010101010101010101010102020202020202020202020202"
        "0202020202020202020202020202020202020220030001610101620001620301"
        "0101010101010101010101010101010101010101010101010101010101010102"
        "0202020202020202020202020202020202020202020202020202020202020203"
        "03030303030303030303030303030303030303030303030303030303030303"),
    "forest_read_proof": (
        "28220700000001210100016d0201010101010101010101010101010101010101"
        "0101010101010101010101010102020202020202020202020202020202020202"
        "0202020202020202020202020220030001610101620001620301010101010101"
        "0101010101010101010101010101010101010101010101010102020202020202"
        "0202020202020202020202020202020202020202020202020203030303030303"
        "0303030303030303030303030303030303030303030303030322070000000121"
        "0100016d02010101010101010101010101010101010101010101010101010101"
        "0101010101020202020202020202020202020202020202020202020202020202"
        "0202020202200300016101016200016203010101010101010101010101010101"
        "0101010101010101010101010101010101020202020202020202020202020202"
        "0202020202020202020202020202020202030303030303030303030303030303"
        "0303030303030303030303030303030303"),
    "forest_range_proof": (
        "2a070000000123240100016d0700000002240100016607000000022003000161"
        "0101620001620301010101010101010101010101010101010101010101010101"
        "0101010101010102020202020202020202020202020202020202020202020202"
        "0202020202020203030303030303030303030303030303030303030303030303"
        "0303030303030306020202020202020202020202020202020202020202020202"
        "0202020202020202060303030303030303030303030303030303030303030303"
        "0303030303030303032320030001610101620001620301010101010101010101"
        "0101010101010101010101010101010101010101010102020202020202020202"
        "0202020202020202020202020202020202020202020203030303030303030303"
        "03030303030303030303030303030303030303030303"),
    "signature": (
        "300400000005616c696365060303030303030303030303030303030303030303"
        "030303030303030303030303000000085a5a5a5a5a5a5a5a"),
    "epoch_deposit": (
        "3104000000027531030000000000000004060101010101010101010101010101"
        "0101010101010101010101010101010101010602020202020202020202020202"
        "02020202020202020202020202020202020202300400000005616c6963650603"
        "0303030303030303030303030303030303030303030303030303030303030300"
        "0000085a5a5a5a5a5a5a5a"),
    "root_deposit": (
        "3204000000077072696d61727903000000000000000706010101010101010101"
        "0101010101010101010101010101010101010101010101300400000005616c69"
        "6365060303030303030303030303030303030303030303030303030303030303"
        "030303000000085a5a5a5a5a5a5a5a"),
    "root_attestation": (
        "33040000000277313204000000077072696d6172790300000000000000070601"
        "0101010101010101010101010101010101010101010101010101010101010130"
        "0400000005616c69636506030303030303030303030303030303030303030303"
        "0303030303030303030303000000085a5a5a5a5a5a5a5a300400000005616c69"
        "6365060303030303030303030303030303030303030303030303030303030303"
        "030303000000085a5a5a5a5a5a5a5a"),
    "request": (
        "4012000000016b0000000176080000000204000000037269640400000007616c"
        "6963653a300400000004757365720400000005616c696365"),
    "response": (
        "41270025220700000001210100016d0201010101010101010101010101010101"
        "0101010101010101010101010101010102020202020202020202020202020202"
        "0202020202020202020202020202020220030001610101620001620301010101"
        "0101010101010101010101010101010101010101010101010101010102020202"
        "0202020202020202020202020202020202020202020202020202020203030303"
        "0303030303030303030303030303030303030303030303030303030307000000"
        "0126002003000161010162000162030101010101010101010101010101010101"
        "0101010101010101010101010101010202020202020202020202020202020202"
        "0202020202020202020202020202020303030303030303030303030303030303"
        "0303030303030303030303030303030800000006040000000363747203000000"
        "000000000704000000096c6173745f757365720400000003626f620400000006"
        "6e65737465640800000002040000000565706f63680300000000000000020400"
        "0000057573657273070000000204000000027531040000000275320400000009"
        "726574727961626c650204000000057368617265093fd0000000000000040000"
        "000373696700"),
    "followup": (
        "4208000000020400000003736967300400000005616c69636506030303030303"
        "0303030303030303030303030303030303030303030303030303000000085a5a"
        "5a5a5a5a5a5a04000000047475726e030000000000000003"),
    "error_reply": (
        "4304000000046275737908000000010400000009726574727961626c6501"),
    "node_entry": "500300026162020163000162",
    "leaf_entry": "510303ac0202",
    "leaf_page": "5202000161010162040700c80101",
}


class TestGoldenBytes:
    def test_corpus_covers_every_tag(self):
        tags = {bytes.fromhex(hexed)[0] for hexed in GOLDEN_HEX.values()}
        assert tags == set(range(10)) | {tag for _, tag, _ in wire._RECORDS}
        assert len(tags) == len(GOLDEN_HEX) == 35

    @pytest.mark.parametrize("name", list(GOLDEN_HEX))
    def test_encode_writes_the_golden_bytes(self, name):
        assert encode(golden_values()[name]).hex() == GOLDEN_HEX[name]

    @pytest.mark.parametrize("name", list(GOLDEN_HEX))
    def test_golden_bytes_decode_to_the_value(self, name):
        value = golden_values()[name]
        decoded = decode(bytes.fromhex(GOLDEN_HEX[name]))
        assert decoded == value and type(decoded) is type(value)

    def test_layouts_are_the_dataclass_field_order(self):
        """Decoding builds a record positionally from its layout."""
        for cls, _tag, layout in wire._RECORDS:
            names = [field.partition(":")[0] for field in layout.split()]
            assert names == [f.name for f in dataclasses.fields(cls)], cls


# -- mutated frames: WireError and nothing else -------------------------------


def tag_positions(frame: bytes) -> list[int]:
    """Offsets of every tag byte in ``frame``: a walk over the format
    written out here, independent of the decoder's tables."""
    kinds = {tag: [field.partition(":")[2] for field in layout.split()]
             for _, tag, layout in wire._RECORDS}
    positions = []

    def raw(pos):
        return pos + 4 + int.from_bytes(frame[pos:pos + 4], "big")

    def varint(pos):  # every count and length in these frames is < 128
        assert frame[pos] < 0x80
        return frame[pos], pos + 1

    def keys(pos):
        count, pos = varint(pos)
        for _ in range(count):
            _shared, pos = varint(pos)
            rest, pos = varint(pos)
            pos += rest
        return pos

    def digests(pos):
        count, pos = varint(pos)
        return pos + 32 * count

    untagged = {"raw": raw, "keys": keys, "digests": digests}

    def value(pos):
        positions.append(pos)
        tag = frame[pos]
        pos += 1
        if tag in (0x03, 0x09):
            return pos + 8
        if tag == 0x06:
            return pos + 32
        if tag in (0x04, 0x05):
            return raw(pos)
        if tag in (0x07, 0x08):
            count = int.from_bytes(frame[pos:pos + 4], "big")
            pos += 4
            for _ in range(count * (2 if tag == 0x08 else 1)):
                pos = value(pos)
            return pos
        for kind in kinds.get(tag, ()):
            pos = untagged[kind](pos) if kind else value(pos)
        return pos

    assert value(0) == len(frame)
    return positions


class TestMutatedFrames:
    @pytest.fixture(scope="class")
    def frame(self):
        """A real Protocol II answer to a write on a forest of 8 shards."""
        state = ServerState(database=VerifiedDatabase(order=4, shards=8))
        for i in range(64):
            state.database.execute(WriteQuery(b"k%03d" % i, b"v%d" % i))
        server = Protocol2Server()
        server.initialize(state)
        request = Request(query=WriteQuery(b"k010", b"new"),
                          extras={"user": "alice", "rid": "alice:0"})
        response = server.handle_request("alice", request, state, 0)
        assert isinstance(response.result.proof, ForestProof)
        return encode(response)

    def test_every_proper_prefix_is_a_wire_error(self, frame):
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                decode(frame[:cut])

    def test_every_tag_substitution_fails_only_as_a_wire_error(self, frame):
        """A substituted tag byte either still spells a frame (an int
        turned float in the extras) or is a :class:`WireError`: no other
        exception escapes the codec, whatever the byte.  (A node's keys
        and digests carry no tags, and a write's proofs no sibling
        list: the frame has 18.)"""
        positions = tag_positions(frame)
        assert len(positions) >= 18
        refused = 0
        for pos in positions:
            for byte in range(256):
                if byte == frame[pos]:
                    continue
                try:
                    decode(frame[:pos] + bytes((byte,)) + frame[pos + 1:])
                except WireError:
                    refused += 1
        assert refused > 0.99 * len(positions) * 255
