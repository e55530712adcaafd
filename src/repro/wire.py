"""A binary wire format for every message the system exchanges.

The simulator passes Python objects between agents; this module gives
them a real byte-level encoding, for two reasons:

* **bandwidth accounting** -- verification objects are the protocols'
  dominant cost, and "O(log n) digests" only means something once it is
  measured in bytes on the wire (benchmark E13);
* **fidelity** -- a deployable client/server pair needs a codec; this
  one covers the full closed universe of message types: queries,
  read/range/update proofs (including the recursive range fringe),
  signatures, epoch deposits, and the protocol envelopes with their
  extras dictionaries.

Format: a tagged, length-prefixed TLV encoding.  Every value is
``tag(1B) || payload``; variable-length payloads carry a 4-byte
big-endian length.  Deterministic: equal objects encode identically.
"""

from __future__ import annotations

import struct

from repro.crypto.hashing import DIGEST_SIZE, Digest
from repro.crypto.signatures import Signature
from repro.mtree.database import (
    DeleteQuery,
    QueryResult,
    RangeQuery,
    ReadQuery,
    WriteQuery,
)
from repro.mtree.forest import (
    ForestRangeProof,
    ForestReadProof,
    ForestUpdateProof,
)
from repro.mtree.proofs import (
    FringeNode,
    InternalSnapshot,
    LeafSnapshot,
    RangeProof,
    ReadProof,
    SiblingPair,
    UpdateProof,
)
from repro.protocols.base import ErrorReply, Followup, Request, Response
from repro.protocols.protocol3 import EpochDeposit


class WireError(Exception):
    """Raised on malformed or truncated wire data."""


#: codec revision, recorded in persisted artefacts (evidence bundles)
#: so a future decoder can refuse bytes written by an incompatible one.
CODEC_VERSION = 1


# One tag byte per type in the closed universe.
_TAGS = {
    "none": 0x00, "false": 0x01, "true": 0x02, "int": 0x03, "str": 0x04,
    "bytes": 0x05, "digest": 0x06, "list": 0x07, "dict": 0x08,
    "float": 0x09,
    "read_query": 0x10, "range_query": 0x11, "write_query": 0x12,
    "delete_query": 0x13,
    "leaf_snapshot": 0x20, "internal_snapshot": 0x21, "read_proof": 0x22,
    "range_proof": 0x23, "fringe_node": 0x24, "update_proof": 0x25,
    "sibling_pair": 0x26, "query_result": 0x27,
    "forest_read_proof": 0x28, "forest_update_proof": 0x29,
    "forest_range_proof": 0x2A,
    "signature": 0x30, "epoch_deposit": 0x31,
    "root_deposit": 0x32, "root_attestation": 0x33,
    "request": 0x40, "response": 0x41, "followup": 0x42,
    "error_reply": 0x43,
}
_NAMES = {tag: name for name, tag in _TAGS.items()}


def _pack_length(n: int) -> bytes:
    return struct.pack(">I", n)


# Single-byte tag frames, prebuilt so the encoder appends constants
# into one growing bytearray instead of assembling throwaway objects.
_TAG_BYTES = {name: bytes([tag]) for name, tag in _TAGS.items()}


def _encode_raw(data: bytes, out: bytearray) -> None:
    out += _pack_length(len(data))
    out += data


def _encode_value(value: object, out: bytearray) -> None:
    if value is None:
        out += _TAG_BYTES["none"]
    elif value is True:
        out += _TAG_BYTES["true"]
    elif value is False:
        out += _TAG_BYTES["false"]
    elif isinstance(value, int):
        out += _TAG_BYTES["int"]
        out += struct.pack(">q", value)
    elif isinstance(value, float):
        out += _TAG_BYTES["float"]
        out += struct.pack(">d", value)
    elif isinstance(value, str):
        out += _TAG_BYTES["str"]
        _encode_raw(value.encode("utf-8"), out)
    elif isinstance(value, (bytes, bytearray)):
        out += _TAG_BYTES["bytes"]
        _encode_raw(bytes(value), out)
    elif isinstance(value, Digest):
        out += _TAG_BYTES["digest"]
        out += value.value
    elif isinstance(value, (list, tuple)):
        out += _TAG_BYTES["list"]
        out += _pack_length(len(value))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out += _TAG_BYTES["dict"]
        out += _pack_length(len(value))
        for key in sorted(value, key=repr):
            _encode_value(key, out)
            _encode_value(value[key], out)
    elif isinstance(value, ReadQuery):
        out += _TAG_BYTES["read_query"]
        _encode_raw(value.key, out)
    elif isinstance(value, RangeQuery):
        out += _TAG_BYTES["range_query"]
        _encode_raw(value.low, out)
        _encode_raw(value.high, out)
    elif isinstance(value, WriteQuery):
        out += _TAG_BYTES["write_query"]
        _encode_raw(value.key, out)
        _encode_raw(value.value, out)
    elif isinstance(value, DeleteQuery):
        out += _TAG_BYTES["delete_query"]
        _encode_raw(value.key, out)
    elif isinstance(value, LeafSnapshot):
        out += _TAG_BYTES["leaf_snapshot"]
        _encode_value(list(value.keys), out)
        _encode_value(list(value.entry_digests), out)
    elif isinstance(value, InternalSnapshot):
        out += _TAG_BYTES["internal_snapshot"]
        _encode_value(list(value.keys), out)
        _encode_value(list(value.child_digests), out)
    elif isinstance(value, ReadProof):
        out += _TAG_BYTES["read_proof"]
        _encode_raw(value.key, out)
        _encode_value(value.value, out)
        _encode_value(list(value.internals), out)
        _encode_value(value.leaf, out)
    elif isinstance(value, FringeNode):
        out += _TAG_BYTES["fringe_node"]
        _encode_value(list(value.keys), out)
        _encode_value(list(value.children), out)
    elif isinstance(value, RangeProof):
        out += _TAG_BYTES["range_proof"]
        _encode_raw(value.low, out)
        _encode_raw(value.high, out)
        _encode_value(value.root, out)
        _encode_value([list(entry) for entry in value.entries], out)
    elif isinstance(value, SiblingPair):
        out += _TAG_BYTES["sibling_pair"]
        _encode_value(value.left, out)
        _encode_value(value.right, out)
    elif isinstance(value, UpdateProof):
        out += _TAG_BYTES["update_proof"]
        _encode_value(value.operation, out)
        _encode_raw(value.key, out)
        _encode_value(list(value.internals), out)
        _encode_value(value.leaf, out)
        _encode_value(list(value.siblings), out)
    elif isinstance(value, ForestReadProof):
        out += _TAG_BYTES["forest_read_proof"]
        _encode_value(value.shard, out)
        _encode_value(value.inner, out)
        _encode_value(value.top, out)
    elif isinstance(value, ForestUpdateProof):
        out += _TAG_BYTES["forest_update_proof"]
        _encode_value(value.operation, out)
        _encode_value(value.shard, out)
        _encode_value(value.inner, out)
        _encode_value(value.top, out)
    elif isinstance(value, ForestRangeProof):
        out += _TAG_BYTES["forest_range_proof"]
        _encode_raw(value.low, out)
        _encode_raw(value.high, out)
        _encode_value(list(value.shard_proofs), out)
        _encode_value(value.top, out)
        _encode_value([list(entry) for entry in value.entries], out)
    elif isinstance(value, QueryResult):
        out += _TAG_BYTES["query_result"]
        _encode_value(value.answer, out)
        _encode_value(value.proof, out)
    elif isinstance(value, Signature):
        out += _TAG_BYTES["signature"]
        _encode_value(value.signer_id, out)
        _encode_value(value.digest, out)
        _encode_raw(value.raw, out)
    elif isinstance(value, EpochDeposit):
        out += _TAG_BYTES["epoch_deposit"]
        _encode_value(value.user_id, out)
        _encode_value(value.epoch, out)
        _encode_value(value.sigma, out)
        _encode_value(value.last, out)
        _encode_value(value.signature, out)
    elif isinstance(value, RootDeposit):
        out += _TAG_BYTES["root_deposit"]
        _encode_value(value.primary_id, out)
        _encode_value(value.ctr, out)
        _encode_value(value.root, out)
        _encode_value(value.signature, out)
    elif isinstance(value, RootAttestation):
        out += _TAG_BYTES["root_attestation"]
        _encode_value(value.witness_id, out)
        _encode_value(value.deposit, out)
        _encode_value(value.signature, out)
    elif isinstance(value, Request):
        out += _TAG_BYTES["request"]
        _encode_value(value.query, out)
        _encode_value(value.extras, out)
    elif isinstance(value, Response):
        out += _TAG_BYTES["response"]
        _encode_value(value.result, out)
        _encode_value(value.extras, out)
    elif isinstance(value, Followup):
        out += _TAG_BYTES["followup"]
        _encode_value(value.extras, out)
    elif isinstance(value, ErrorReply):
        out += _TAG_BYTES["error_reply"]
        _encode_value(value.reason, out)
        _encode_value(value.extras, out)
    else:
        raise WireError(f"cannot encode {type(value).__name__}")


def encode(message: object) -> bytes:
    """Serialise any message/value in the closed universe."""
    out = bytearray()
    _encode_value(message, out)
    return bytes(out)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise WireError("truncated wire data")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def length(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def raw(self) -> bytes:
        return self.take(self.length())


def _decode_value(reader: _Reader) -> object:
    tag = reader.take(1)[0]
    name = _NAMES.get(tag)
    if name is None:
        raise WireError(f"unknown wire tag 0x{tag:02x}")
    if name == "none":
        return None
    if name == "true":
        return True
    if name == "false":
        return False
    if name == "int":
        return struct.unpack(">q", reader.take(8))[0]
    if name == "float":
        return struct.unpack(">d", reader.take(8))[0]
    if name == "str":
        return reader.raw().decode("utf-8")
    if name == "bytes":
        return reader.raw()
    if name == "digest":
        return Digest(reader.take(DIGEST_SIZE))
    if name == "list":
        return tuple(_decode_value(reader) for _ in range(reader.length()))
    if name == "dict":
        count = reader.length()
        return {_decode_value(reader): _decode_value(reader) for _ in range(count)}
    if name == "read_query":
        return ReadQuery(key=reader.raw())
    if name == "range_query":
        return RangeQuery(low=reader.raw(), high=reader.raw())
    if name == "write_query":
        return WriteQuery(key=reader.raw(), value=reader.raw())
    if name == "delete_query":
        return DeleteQuery(key=reader.raw())
    if name == "leaf_snapshot":
        return LeafSnapshot(keys=_decode_value(reader),
                            entry_digests=_decode_value(reader))
    if name == "internal_snapshot":
        return InternalSnapshot(keys=_decode_value(reader),
                                child_digests=_decode_value(reader))
    if name == "read_proof":
        return ReadProof(key=reader.raw(), value=_decode_value(reader),
                         internals=_decode_value(reader), leaf=_decode_value(reader))
    if name == "fringe_node":
        return FringeNode(keys=_decode_value(reader), children=_decode_value(reader))
    if name == "range_proof":
        low, high = reader.raw(), reader.raw()
        root = _decode_value(reader)
        entries = tuple(tuple(entry) for entry in _decode_value(reader))
        return RangeProof(low=low, high=high, root=root, entries=entries)
    if name == "sibling_pair":
        return SiblingPair(left=_decode_value(reader), right=_decode_value(reader))
    if name == "update_proof":
        return UpdateProof(operation=_decode_value(reader), key=reader.raw(),
                           internals=_decode_value(reader), leaf=_decode_value(reader),
                           siblings=_decode_value(reader))
    if name == "forest_read_proof":
        return ForestReadProof(shard=_decode_value(reader),
                               inner=_decode_value(reader),
                               top=_decode_value(reader))
    if name == "forest_update_proof":
        return ForestUpdateProof(operation=_decode_value(reader),
                                 shard=_decode_value(reader),
                                 inner=_decode_value(reader),
                                 top=_decode_value(reader))
    if name == "forest_range_proof":
        low, high = reader.raw(), reader.raw()
        shard_proofs = _decode_value(reader)
        top = _decode_value(reader)
        entries = tuple(tuple(entry) for entry in _decode_value(reader))
        return ForestRangeProof(low=low, high=high, shard_proofs=shard_proofs,
                                top=top, entries=entries)
    if name == "query_result":
        return QueryResult(answer=_decode_value(reader), proof=_decode_value(reader))
    if name == "signature":
        return Signature(signer_id=_decode_value(reader),
                         digest=_decode_value(reader), raw=reader.raw())
    if name == "epoch_deposit":
        return EpochDeposit(user_id=_decode_value(reader), epoch=_decode_value(reader),
                            sigma=_decode_value(reader), last=_decode_value(reader),
                            signature=_decode_value(reader))
    if name == "root_deposit":
        primary_id, ctr = _decode_value(reader), _decode_value(reader)
        root, signature = _decode_value(reader), _decode_value(reader)
        if not isinstance(primary_id, str) or not isinstance(ctr, int) \
                or not isinstance(root, Digest) \
                or not isinstance(signature, Signature):
            raise WireError("malformed root deposit")
        return RootDeposit(primary_id=primary_id, ctr=ctr, root=root,
                           signature=signature)
    if name == "root_attestation":
        witness_id, deposit = _decode_value(reader), _decode_value(reader)
        signature = _decode_value(reader)
        if not isinstance(witness_id, str) \
                or not isinstance(deposit, RootDeposit) \
                or not isinstance(signature, Signature):
            raise WireError("malformed root attestation")
        return RootAttestation(witness_id=witness_id, deposit=deposit,
                               signature=signature)
    if name == "request":
        return Request(query=_decode_value(reader), extras=_decode_value(reader))
    if name == "response":
        return Response(result=_decode_value(reader), extras=_decode_value(reader))
    if name == "followup":
        return Followup(extras=_decode_value(reader))
    if name == "error_reply":
        return ErrorReply(reason=_decode_value(reader), extras=_decode_value(reader))
    raise WireError(f"unhandled tag {name!r}")  # pragma: no cover


def decode(data: bytes) -> object:
    """Inverse of :func:`encode`; raises :class:`WireError` on garbage.

    Corrupt frames can put a well-formed value of the *wrong type* into
    a structured field (a digest where a key tuple belongs); the
    dataclass validators then raise -- all such type confusion is a
    wire-format error and is normalised to :class:`WireError`.
    """
    reader = _Reader(data)
    try:
        value = _decode_value(reader)
    except WireError:
        raise
    except (TypeError, ValueError, IndexError, struct.error) as exc:
        raise WireError(f"malformed frame: {exc}") from exc
    except Exception as exc:
        # snapshot/proof constructors validate their own invariants
        # with module-specific error types
        from repro.mtree.proofs import ProofError

        if isinstance(exc, ProofError):
            raise WireError(f"malformed frame: {exc}") from exc
        raise
    if reader.pos != len(data):
        raise WireError("trailing bytes after message")
    return value


def wire_size(message: object) -> int:
    """Bytes this message occupies on the wire."""
    return len(encode(message))


# Imported last: repro.net.replication is reached through the repro.net
# package, whose __init__ imports modules that import *this* module --
# deferring until every name above exists keeps either import order
# (wire first or repro.net first) cycle-safe.  replication itself is
# codec-free at module level for the same reason.
from repro.net.replication import RootAttestation, RootDeposit  # noqa: E402
