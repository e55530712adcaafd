"""A binary wire format for every message the system exchanges.

The simulator passes Python objects between agents; this module gives
them a real byte-level encoding, for two reasons:

* **bandwidth accounting** -- verification objects are the protocols'
  dominant cost, and "O(log n) digests" only means something once it is
  measured in bytes on the wire (benchmark E13);
* **fidelity** -- a deployable client/server pair needs a codec; this
  one covers the full closed universe of message types: queries,
  path, range and delete proofs (including the recursive range fringe),
  signatures, epoch deposits, and the protocol envelopes with their
  extras dictionaries.

Format: a tagged, length-prefixed TLV encoding.  Every value is
``tag(1B) || payload``; variable-length payloads carry a 4-byte
big-endian length.  Inside a record a field may instead be one of four
untagged kinds: a raw byte string (4-byte length), a node's keys
front-coded, a node's digests packed, or a list of varints (the last
three counted by a varint).  Deterministic: equal objects encode
identically.  The paged store's pages are frames of this codec too
(:mod:`repro.storage.engine`): a ``nodes`` page holds frames back to
back (:func:`decode_frames`).

The codec is two dispatch tables.  The encoder looks an encoder up by
the value's exact type and appends into one ``bytearray``; a type seen
for the first time is resolved once, in the closed universe's order
(``bool`` before ``int``, a subclass as its base).  The decoder indexes
a 256-entry table by the tag byte; every entry maps ``(data, pos,
depth)`` to ``(value, next pos)``.  Each record type's field layout is
written once, in ``_RECORDS``, and both tables are built from it.
"""

from __future__ import annotations

import struct
from operator import attrgetter

from repro.crypto.hashing import DIGEST_SIZE, Digest
from repro.crypto.signatures import Signature
from repro.mtree.database import (
    DeleteQuery, QueryResult, RangeQuery, ReadQuery, WriteQuery)
from repro.mtree.forest import ForestProof, ForestRangeProof
from repro.mtree.proofs import (
    DeleteProof, FringeNode, InternalSnapshot, LeafSnapshot, PathProof,
    ProofError, RangeProof, SiblingPair)
from repro.protocols.base import ErrorReply, Followup, Request, Response
from repro.protocols.protocol3 import EpochDeposit


class WireError(Exception):
    """Raised on malformed or truncated wire data."""


#: codec revision, recorded in persisted artefacts (evidence bundles)
#: so a future decoder can refuse bytes written by an incompatible one.
CODEC_VERSION = 4

_MAX_DEPTH = 256  # how deep lists, dicts and records nest: see decode()
_TRUNCATED = "truncated wire data"
_TOO_DEEP = f"frame nests deeper than {_MAX_DEPTH} levels"

# Primitive tags: none 0, false 1, true 2, int 3, str 4, bytes 5,
# digest 6, list 7, dict 8, float 9.  The record tags are in _RECORDS.

_U32, _I64, _F64 = struct.Struct(">I"), struct.Struct(">q"), struct.Struct(">d")
_pack_u32, _unpack_u32 = _U32.pack, _U32.unpack_from
_from_hash = Digest._from_hash
_from_bytes = int.from_bytes

# Length prefixes of short byte strings, prebuilt: values and answers.
_SHORT = 256
_LENGTHS = tuple(_pack_u32(size) for size in range(_SHORT))
_BYTES_HEADS = tuple(b"\x05" + length for length in _LENGTHS)


# -- encoding -----------------------------------------------------------------


def _encode_none(value, out: bytearray) -> None:
    out += b"\x00"


def _encode_bool(value, out: bytearray) -> None:
    out += b"\x02" if value else b"\x01"


def _encode_int(value, out: bytearray) -> None:
    try:
        out += b"\x03" + _I64.pack(value)
    except struct.error:
        raise WireError(f"int {value} does not fit in 64 bits") from None


def _encode_float(value, out: bytearray) -> None:
    out += b"\x09" + _F64.pack(value)


def _encode_str(value, out: bytearray) -> None:
    data = value.encode("utf-8")
    out += b"\x04" + _pack_u32(len(data))
    out += data


def _encode_bytes(value, out: bytearray) -> None:
    size = len(value)
    out += _BYTES_HEADS[size] if size < _SHORT else b"\x05" + _pack_u32(size)
    out += value


def _encode_digest(value, out: bytearray) -> None:
    out += b"\x06"
    out += value._value


def _encode_sequence(value, out: bytearray) -> None:
    out += b"\x07" + _pack_u32(len(value))
    for item in value:
        _ENCODERS[type(item)](item, out)


def _encode_dict(value, out: bytearray) -> None:
    out += b"\x08" + _pack_u32(len(value))
    for key in sorted(value, key=repr):
        _ENCODERS[type(key)](key, out)
        item = value[key]
        _ENCODERS[type(item)](item, out)


# The untagged field kinds of a record (``_RECORDS``): how each writes.


def _put_varint(value: int, out: bytearray) -> None:
    """LEB128: seven bits a byte, low first, the high bit "more"."""
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _put_raw(field: bytes, out: bytearray) -> None:
    size = len(field)
    out += _LENGTHS[size] if size < _SHORT else _pack_u32(size)
    out += field


#: A key shares at most this many bytes per byte of the rest it carries,
#: plus as many again: so decoding stays linear in the frame (n keys
#: each one byte longer than the last would otherwise decode to n**2/2
#: bytes), and no key that differs from its neighbour before its last
#: ~6 % is affected.
_SHARE_PER_BYTE = 16


def _front_code(keys: tuple) -> bytes:
    """A node's keys, front-coded: a varint count, then per key the
    length of the prefix it shares with the previous key, the length of
    the rest, and the rest.  The shared prefix ends at the top set bit
    of the XOR of the two keys' common-length heads as big-endian ints,
    capped at ``_SHARE_PER_BYTE * (rest + 1)``."""
    out = bytearray()
    _put_varint(len(keys), out)
    append = out.append
    previous = b""
    for key in keys:
        size = len(key)
        shared = size if size < len(previous) else len(previous)
        differ = (_from_bytes(previous[:shared], "big")
                  ^ _from_bytes(key[:shared], "big"))
        shared -= (differ.bit_length() + 7) >> 3
        cap = _SHARE_PER_BYTE * (size + 1) // (_SHARE_PER_BYTE + 1)
        if shared > cap:
            shared = cap
        rest = size - shared
        if shared < 0x80 and rest < 0x80:  # one-byte varints, in line
            append(shared)
            append(rest)
        else:
            _put_varint(shared, out)
            _put_varint(rest, out)
        out += key[shared:]
        previous = key
    return bytes(out)


#: how many key tuples :func:`_put_keys` remembers the block of; a full
#: memo is cleared.  A node's keys outlive its digests (an overwrite
#: changes the digests on its path, not the keys), so a server encodes
#: the same blocks again and again: in responses, in the dedup answers a
#: manifest keeps, and in the page records of every dirty shard.
_KEY_BLOCKS_MAX = 1 << 14
_key_blocks: dict[tuple, bytes] = {}


def _put_keys(keys: tuple, out: bytearray) -> None:
    """A node's keys as :func:`_front_code` writes them, remembered by
    content: the block is a pure function of the keys, so a remembered
    one cannot go stale.  A list is its tuple."""
    if type(keys) is not tuple:
        keys = tuple(keys)
    block = _key_blocks.get(keys)
    if block is None:
        block = _front_code(keys)
        if len(_key_blocks) >= _KEY_BLOCKS_MAX:
            _key_blocks.clear()
        _key_blocks[keys] = block
    out += block


def _put_varints(values: tuple, out: bytearray) -> None:
    """A varint count, then the varints: page references."""
    _put_varint(len(values), out)
    append = out.append
    for value in values:
        if value < 0x80:  # a one-byte varint, in line
            append(value)
        else:
            _put_varint(value, out)


def _put_digests(digests: tuple, out: bytearray) -> None:
    """A node's digests: a varint count, then the 32-byte digests."""
    _put_varint(len(digests), out)
    for digest in digests:
        out += digest._value


def _record_encoder(tag: int, names: tuple, writers: tuple):
    head = bytes((tag,))
    get = attrgetter(*names)
    fields = get if len(names) > 1 else (lambda value: (get(value),))

    def encode_record(value, out: bytearray) -> None:
        out += head
        for write, field in zip(writers, fields(value)):
            if write is None:
                _ENCODERS[type(field)](field, out)
            else:
                write(field, out)

    def encode_values(value, out: bytearray) -> None:
        out += head
        for field in fields(value):
            _ENCODERS[type(field)](field, out)

    return encode_record if any(writers) else encode_values


#: ``(type, encoder)`` in resolution order; the records are appended
#: where the table is built, below.  No record type subclasses another
#: or a primitive, so their relative order does not matter.
_RESOLUTION: list = [
    (type(None), _encode_none),
    (bool, _encode_bool),
    (int, _encode_int),
    (float, _encode_float),
    (str, _encode_str),
    ((bytes, bytearray), _encode_bytes),
    (Digest, _encode_digest),
    ((list, tuple), _encode_sequence),
    (dict, _encode_dict),
]


class _Encoders(dict):
    """``type -> encoder``, filled on first sight of each type.  What
    it caches is a pure function of the type, so one table serves every
    thread and caller."""

    def __missing__(self, cls: type):
        for kind, encoder in _RESOLUTION:
            if issubclass(cls, kind):
                self[cls] = encoder
                return encoder
        raise WireError(f"cannot encode {cls.__name__}")


_ENCODERS = _Encoders()


def encode(message: object) -> bytes:
    """Serialise any message/value in the closed universe."""
    out = bytearray()
    _ENCODERS[type(message)](message, out)
    return bytes(out)


# -- decoding -----------------------------------------------------------------


def _decode_unknown(data: bytes, pos: int, depth: int):
    raise WireError(f"unknown wire tag 0x{data[pos - 1]:02x}")


def _constant(value):
    return lambda data, pos, depth: (value, pos)


def _fixed(unpack):
    def decode_fixed(data: bytes, pos: int, depth: int):
        if pos + 8 > len(data):
            raise WireError(_TRUNCATED)
        return unpack(data, pos)[0], pos + 8

    return decode_fixed


def _decode_bytes(data: bytes, pos: int, depth: int):
    """A length-prefixed byte string: the ``bytes`` payload, and every
    record field the layout table marks raw."""
    start = pos + 4
    if start > len(data):
        raise WireError(_TRUNCATED)
    end = start + _unpack_u32(data, pos)[0]
    if end > len(data):
        raise WireError(_TRUNCATED)
    return data[start:end], end


def _take_varint(data: bytes, pos: int):
    """The varint at ``pos`` and the position after it.  One spelling
    per value: a longer one (a final zero byte) and one of more than
    nine bytes (63 bits) are refused."""
    if pos < len(data) and data[pos] < 0x80:
        return data[pos], pos + 1
    value = shift = 0
    for at in range(pos, min(pos + 9, len(data))):
        value |= (data[at] & 0x7F) << shift
        if data[at] < 0x80:
            if not data[at]:
                raise WireError("overlong varint")
            return value, at + 1
        shift += 7
    raise WireError(_TRUNCATED if pos + 9 > len(data) else "overlong varint")


def _decode_keys(data: bytes, pos: int, depth: int):
    """Inverse of :func:`_put_keys`, which shares the longest prefix
    the cap allows: a longer one is refused, and a shorter one is
    another spelling of the same keys, refused too.  Both lengths of a
    key shorter than 128 bytes are one-byte varints, read in line."""
    count, pos = _take_varint(data, pos)
    size = len(data)
    keys = []
    previous = b""
    for _ in range(count):
        if pos + 1 < size and data[pos] < 0x80 and data[pos + 1] < 0x80:
            shared = data[pos]
            rest = data[pos + 1]
            pos += 2
        else:
            shared, pos = _take_varint(data, pos)
            rest, pos = _take_varint(data, pos)
        end = pos + rest
        if end > size:
            raise WireError(_TRUNCATED)
        if shared > _SHARE_PER_BYTE * (rest + 1):
            raise WireError("key shares more than its rest allows")
        if shared > len(previous):
            raise WireError("key shares more than the previous key holds")
        if shared < len(previous) and rest and data[pos] == previous[shared] \
                and shared < _SHARE_PER_BYTE * rest:
            raise WireError("key shares more than its prefix length says")
        previous = previous[:shared] + data[pos:end]
        keys.append(previous)
        pos = end
    return tuple(keys), pos


def _decode_varints(data: bytes, pos: int, depth: int):
    """Inverse of :func:`_put_varints`."""
    count, pos = _take_varint(data, pos)
    if pos + count > len(data):
        raise WireError(_TRUNCATED)
    values = []
    for _ in range(count):
        value, pos = _take_varint(data, pos)
        values.append(value)
    return tuple(values), pos


def _decode_digests(data: bytes, pos: int, depth: int):
    """Inverse of :func:`_put_digests`."""
    count, pos = _take_varint(data, pos)
    end = pos + count * DIGEST_SIZE
    if end > len(data):
        raise WireError(_TRUNCATED)
    return tuple([_from_hash(data[at:at + DIGEST_SIZE])
                  for at in range(pos, end, DIGEST_SIZE)]), end


def _decode_str(data: bytes, pos: int, depth: int):
    raw, pos = _decode_bytes(data, pos, depth)
    return raw.decode("utf-8"), pos


def _decode_digest(data: bytes, pos: int, depth: int):
    end = pos + DIGEST_SIZE
    if end > len(data):
        raise WireError(_TRUNCATED)
    return _from_hash(data[pos:end]), end


def _decode_list(data: bytes, pos: int, depth: int):
    if depth >= _MAX_DEPTH:
        raise WireError(_TOO_DEEP)
    size = len(data)
    if pos + 4 > size:
        raise WireError(_TRUNCATED)
    count = _unpack_u32(data, pos)[0]
    pos += 4
    depth += 1
    items = []
    append = items.append
    for _ in range(count):
        if pos >= size:
            raise WireError(_TRUNCATED)
        item, pos = _DECODERS[data[pos]](data, pos + 1, depth)
        append(item)
    return tuple(items), pos


def _decode_dict(data: bytes, pos: int, depth: int):
    if depth >= _MAX_DEPTH:
        raise WireError(_TOO_DEEP)
    size = len(data)
    if pos + 4 > size:
        raise WireError(_TRUNCATED)
    count = _unpack_u32(data, pos)[0]
    pos += 4
    depth += 1
    result = {}
    for _ in range(count):
        if pos >= size:
            raise WireError(_TRUNCATED)
        key, pos = _DECODERS[data[pos]](data, pos + 1, depth)
        if pos >= size:
            raise WireError(_TRUNCATED)
        result[key], pos = _DECODERS[data[pos]](data, pos + 1, depth)
    return result, pos


def _record_decoder(cls: type, readers: tuple, check):
    def decode_record(data: bytes, pos: int, depth: int):
        if depth >= _MAX_DEPTH:
            raise WireError(_TOO_DEEP)
        depth += 1
        args = []
        for read in readers:
            if read is not None:
                field, pos = read(data, pos, depth)
            elif pos >= len(data):
                raise WireError(_TRUNCATED)
            else:
                field, pos = _DECODERS[data[pos]](data, pos + 1, depth)
            args.append(field)
        if check is not None:
            check(args)
        return cls(*args), pos

    return decode_record


_DECODERS = [_decode_unknown] * 256
_DECODERS[:10] = (_constant(None), _constant(False), _constant(True),
                  _fixed(_I64.unpack_from), _decode_str, _decode_bytes,
                  _decode_digest, _decode_list, _decode_dict,
                  _fixed(_F64.unpack_from))


def decode(data: bytes) -> object:
    """Inverse of :func:`encode`; raises :class:`WireError` on garbage.

    Corrupt frames can put a well-formed value of the *wrong type* into
    a structured field (a digest where a key tuple belongs); the
    dataclass validators then raise -- all such type confusion is a
    wire-format error and is normalised to :class:`WireError`.

    So is a frame whose lists, dicts and records nest more than 256
    deep.  The deepest frame the encoder produces is a forest range
    proof remembered in a checkpoint manifest: two levels per tree
    level (a fringe node and its children) and nine around them.  At
    the smallest supported order, 3, a tree of fewer than 2**64 keys is
    at most 65 levels tall, so no frame the encoder produces nests
    deeper than 139.  Each level costs one Python frame, so 256 stays
    far below the interpreter's default recursion limit of 1000.
    """
    if type(data) is not bytes:
        data = bytes(data)  # decoded digests and fields share no buffer
    value, pos = _decode_at(data, 0)
    if pos != len(data):
        raise WireError("trailing bytes after message")
    return value


def decode_frames(data: bytes) -> list:
    """The values of frames written back to back (a ``nodes`` page), in
    order; each is decoded as :func:`decode` decodes one."""
    if type(data) is not bytes:
        data = bytes(data)
    values, pos = [], 0
    while pos < len(data):
        value, pos = _decode_at(data, pos)
        values.append(value)
    return values


def frame_length(data) -> int:
    """Bytes the frame at the start of ``data`` occupies; ``data`` may
    run on past it.  :class:`WireError` when no whole frame starts it."""
    if type(data) is not bytes:
        data = bytes(data)
    return _decode_at(data, 0)[1]


def _decode_at(data: bytes, pos: int):
    """The value of the frame at ``pos`` and the position after it."""
    try:
        if pos >= len(data):
            raise WireError(_TRUNCATED)
        return _DECODERS[data[pos]](data, pos + 1, 0)
    except WireError:
        raise
    except (TypeError, ValueError, IndexError, struct.error, ProofError) as exc:
        # ProofError: the snapshot and proof classes validate their own
        # invariants with their module's error type
        raise WireError(f"malformed frame: {exc}") from exc


def wire_size(message: object) -> int:
    """Bytes this message occupies on the wire."""
    return len(encode(message))


# Imported last: repro.net.replication is reached through the repro.net
# package, whose __init__ imports modules that import *this* module, and
# repro.storage.engine imports this module too -- deferring until every
# name above exists keeps either import order (wire first or the other
# module first) cycle-safe.  replication is codec-free at module level
# for the same reason, and the engine defines its records before it
# imports the codec.
from repro.net.replication import RootAttestation, RootDeposit  # noqa: E402
from repro.storage.engine import LeafEntry, LeafPage, NodeEntry  # noqa: E402


# -- the record layouts: one table, both directions ---------------------------

#: Each record type's tag and fields in wire order (which is also the
#: dataclass's field order: decoding builds the record positionally).
#: A field is a tagged value unless its kind says otherwise: ``:raw`` is
#: a length-prefixed byte string, ``:keys`` a node's keys front-coded,
#: ``:digests`` a node's digests packed and ``:varints`` a list of
#: varints, all four with no tag.  A proof (0x20-0x2F) carries nothing
#: the query it answers says.  0x29 stays free: it was codec 3's forest
#: update proof, and an old frame holding one must fail as unknown
#: rather than decode as another record.  The page records (0x50-0x52)
#: are the paged store's: no message holds one.
_RECORDS = (
    (ReadQuery, 0x10, "key:raw"),
    (RangeQuery, 0x11, "low:raw high:raw"),
    (WriteQuery, 0x12, "key:raw value:raw"),
    (DeleteQuery, 0x13, "key:raw"),
    (LeafSnapshot, 0x20, "keys:keys entry_digests:digests"),
    (InternalSnapshot, 0x21, "keys:keys child_digests:digests"),
    (PathProof, 0x22, "internals leaf"),
    (RangeProof, 0x23, "root"),
    (FringeNode, 0x24, "keys:keys children"),
    (DeleteProof, 0x25, "path siblings"),
    (SiblingPair, 0x26, "left right"),
    (QueryResult, 0x27, "answer proof"),
    (ForestProof, 0x28, "inner top"),
    (ForestRangeProof, 0x2A, "shard_proofs top"),
    (Signature, 0x30, "signer_id digest raw:raw"),
    (EpochDeposit, 0x31, "user_id epoch sigma last signature"),
    (RootDeposit, 0x32, "primary_id ctr root signature"),
    (RootAttestation, 0x33, "witness_id deposit signature"),
    (Request, 0x40, "query extras"),
    (Response, 0x41, "result extras"),
    (Followup, 0x42, "extras"),
    (ErrorReply, 0x43, "reason extras"),
    (NodeEntry, 0x50, "keys:keys"),
    (LeafEntry, 0x51, "place:varints"),
    (LeafPage, 0x52, "keys:keys refs:varints"),
)


# What a decoded record's field values (in wire order) go through before
# its class validates them: the replication records' type checks.


def _root_deposit(args: list) -> None:
    primary_id, ctr, root, signature = args
    if not isinstance(primary_id, str) or not isinstance(ctr, int) \
            or not isinstance(root, Digest) \
            or not isinstance(signature, Signature):
        raise WireError("malformed root deposit")


def _root_attestation(args: list) -> None:
    witness_id, deposit, signature = args
    if not isinstance(witness_id, str) \
            or not isinstance(deposit, RootDeposit) \
            or not isinstance(signature, Signature):
        raise WireError("malformed root attestation")


_CHECKS = {RootDeposit: _root_deposit, RootAttestation: _root_attestation}

#: field kind -> (writer, reader); a tagged value has none
_KINDS = {"": (None, None), "raw": (_put_raw, _decode_bytes),
          "keys": (_put_keys, _decode_keys),
          "digests": (_put_digests, _decode_digests),
          "varints": (_put_varints, _decode_varints)}

for _cls, _tag, _layout in _RECORDS:
    _names, _kinds = zip(*(field.partition(":")[::2] for field in _layout.split()))
    _writers, _readers = zip(*(_KINDS[kind] for kind in _kinds))
    _RESOLUTION.append((_cls, _record_encoder(_tag, _names, _writers)))
    _DECODERS[_tag] = _record_decoder(_cls, _readers, _CHECKS.get(_cls))
del _cls, _tag, _layout, _names, _kinds, _writers, _readers
