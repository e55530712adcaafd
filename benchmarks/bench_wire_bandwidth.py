"""E13 -- bandwidth: the verification objects in bytes on the wire.

"O(log n) digests" made concrete: every message is encoded with the
binary wire codec and billed.  Two views:

* VO bytes for a point read / write as the database grows (the byte
  version of Figure 2's scaling), and at the size of a CVS value: a
  two-revision RCS file of ~1.5 KB, where a read response is the answer
  plus the path -- the value crosses once;
* total protocol bandwidth per operation, naive vs Protocol I vs
  Protocol II on the same workload, beside the same operations' bare
  queries and answers.  The naive server ships the same VO as Protocol
  II, so naive-to-answers-only is the VO's price on the wire and
  naive-to-Protocol-II the price of the counters and registers;
* what one read, write and delete VO are made of (a read's and a
  write's are the same path, a delete's adds its siblings), on the
  end-to-end benchmark's key shape: digests, the key bytes sent, the
  key prefix bytes front-coding saved, tags and lengths, and copies of
  the query.
"""

import sys
from dataclasses import fields

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from bench_common import emit
from repro import wire
from repro.analysis import format_table
from repro.core.scenarios import build_simulation
from repro.crypto.hashing import Digest
from repro.mtree.database import DeleteQuery, ReadQuery, VerifiedDatabase, WriteQuery
from repro.simulation.channels import Network
from repro.simulation.workload import steady_workload
from repro.storage.rcs import RevisionStore
from repro.wire import wire_size

SIZES = (2 ** 6, 2 ** 10, 2 ** 14)


def cvs_value() -> bytes:
    """A serialised two-revision RCS file of ~1.5 KB: what a CVS
    checkout reads."""
    store = RevisionStore()
    lines = [f"line {index:02d} " + "x" * 40 for index in range(26)]
    store.commit(lines, "alice", "import", 1_000_000_000)
    lines[5] = "token " + "0" * 16 + " " + "y" * 20
    store.commit(lines, "bobby", "change the token line", 1_000_000_100)
    return store.serialize()


def test_wire_vo_scaling(capsys, benchmark):
    rows = []
    read_bytes = {}
    for n, value in [(n, b"x" * 32) for n in SIZES] + [(2 ** 10, cvs_value())]:
        db = VerifiedDatabase(order=8)
        for i in range(n):
            db.execute(WriteQuery(f"{i:06d}".encode(), value))
        key = f"{n // 2:06d}".encode()
        read_result = db.execute(ReadQuery(key))
        write_result = db.execute(WriteQuery(key, value))
        size = read_bytes[n, len(value)] = wire_size(read_result)
        rows.append([n, len(value), size, wire_size(write_result),
                     round(size / (n * len(value)), 4),
                     round(size / len(read_result.answer), 2)])

    emit(capsys, "E13_wire_vo", format_table(
        ["n", "value (bytes)", "read response (bytes)", "write response (bytes)",
         "read bytes / data bytes", "response bytes / answer bytes"],
        rows,
        title="E13a: verification objects on the wire (logarithmic in n)",
    ))
    assert read_bytes[2 ** 14, 32] < read_bytes[2 ** 6, 32] * 4  # 256x data, <4x bytes
    # the value crosses once: a CVS read is its value plus the same path
    cvs = len(cvs_value())
    assert read_bytes[2 ** 10, cvs] - read_bytes[2 ** 10, 32] < cvs + 64

    db = VerifiedDatabase(order=8)
    for i in range(2 ** 10):
        db.execute(WriteQuery(f"{i:06d}".encode(), b"x" * 32))
    result = db.execute(ReadQuery(b"000512"))
    benchmark(lambda: wire_size(result))


def answers_only(workload) -> tuple[int, int]:
    """``(ops, bytes)`` of the workload's operations with no VO and no
    protocol: each query and its bare answer, executed in round order."""
    db = VerifiedDatabase()
    intents = sorted((intent.round, user, intent.query)
                     for user, intents in workload.schedules.items()
                     for intent in intents)
    sent = sum(wire_size(query) + wire_size(db.execute(query).answer)
               for _round, _user, query in intents)
    return len(intents), sent


def test_wire_protocol_bandwidth(capsys, benchmark):
    rows = []
    per_op = {}
    workload = steady_workload(3, 10, spacing=6, keyspace=16,
                               write_ratio=0.6, seed=4)
    ops, sent = answers_only(workload)
    per_op["answers only"] = sent / ops
    rows.append(["answers only", ops, sent, round(per_op["answers only"])])
    for protocol in ("naive", "protocol1", "protocol2"):
        network = Network(user_ids=workload.user_ids, account_bytes=True)
        simulation = build_simulation(protocol, workload, k=10_000, seed=4,
                                      network=network)
        report = simulation.execute()
        assert not report.detected
        ops = sum(report.operations_completed.values())
        per_op[protocol] = network.bytes_sent / ops
        rows.append([protocol, ops, network.bytes_sent, round(per_op[protocol])])

    emit(capsys, "E13_wire_bandwidth", format_table(
        ["protocol", "ops", "total bytes", "bytes / op"],
        rows,
        title="E13b: protocol bandwidth per operation (wire-encoded)",
    ))

    # Every server here ships a VO, which answers alone do not; Protocol
    # I additionally ships a signed follow-up per op.
    assert per_op["protocol1"] > per_op["protocol2"] > per_op["naive"] * 0.9
    assert per_op["naive"] > per_op["answers only"] * 2
    # The naive server ships the same VO, so the protocols' own overhead
    # (counters, registers, signatures) stays within 3x of it.
    assert per_op["protocol1"] < per_op["naive"] * 3

    def kernel():
        network = Network(user_ids=workload.user_ids, account_bytes=True)
        return build_simulation("protocol2", workload, k=10_000, seed=4,
                                network=network).execute()

    benchmark.pedantic(kernel, rounds=3, iterations=1)


#: proof fields that would repeat what the query says (none is left)
QUERY_FIELDS = ("key", "operation", "shard", "low", "high")


def shared_prefix(left: bytes, right: bytes) -> int:
    size = 0
    for a, b in zip(left, right):
        if a != b:
            break
        size += 1
    return size


def composition(proof) -> dict:
    """The bytes of ``proof`` on the wire, by what they carry.  Keys
    are front-coded from codec 3 on; before it every key was sent
    whole, and a proof carried copies of its query's fields."""
    parts = dict.fromkeys(("digests", "key bytes", "prefix saved",
                           "query fields"), 0)
    front_coded = wire.CODEC_VERSION >= 3

    def walk(value):
        if isinstance(value, Digest):
            parts["digests"] += 32
        elif isinstance(value, tuple):
            for item in value:
                walk(item)
        elif hasattr(value, "__dataclass_fields__"):
            for field in fields(value):
                item = getattr(value, field.name)
                if field.name in QUERY_FIELDS:
                    parts["query fields"] += len(wire.encode(item)) - (
                        isinstance(item, bytes))  # raw: a length, no tag
                elif field.name == "keys":
                    previous = b""
                    for key in item:
                        shared = shared_prefix(previous, key) if front_coded else 0
                        parts["key bytes"] += len(key) - shared
                        parts["prefix saved"] += shared
                        previous = key
                else:
                    walk(item)

    walk(proof)
    total = wire_size(proof)
    parts["tags and lengths"] = (total - parts["digests"] - parts["key bytes"]
                                 - parts["query fields"])
    parts["VO bytes"] = total
    return parts


def e2e_key(index: int) -> bytes:
    """The end-to-end benchmark's file names (benchmarks/e2e/streams.py)."""
    return b"src/mod%03d/file%05d.c,v" % (index % 97, index)


def test_wire_vo_composition(capsys, benchmark):
    columns = ["digests", "key bytes", "prefix saved", "tags and lengths",
               "query fields", "VO bytes"]
    rows = []
    for shards in (1, 8):
        db = VerifiedDatabase(order=8, shards=shards)
        for index in range(2000):
            db.execute(WriteQuery(e2e_key(index), b"x" * 32))
        for kind, query in (("read", ReadQuery(e2e_key(1000))),
                            ("write", WriteQuery(e2e_key(1000), b"y" * 32)),
                            ("delete", DeleteQuery(e2e_key(1000)))):
            parts = composition(db.execute(query).proof)
            rows.append([kind, shards] + [parts[name] for name in columns])
            assert parts["query fields"] == 0  # a VO repeats nothing the query says
            assert parts["prefix saved"] > parts["key bytes"] / 2

    emit(capsys, "E13_vo_composition", format_table(
        ["VO", "S"] + columns, rows,
        title="E13c: one VO's bytes by what they carry "
              "(order 8, 2,000 keys of the end-to-end shape)",
    ))
    db = VerifiedDatabase(order=8)
    for index in range(2000):
        db.execute(WriteQuery(e2e_key(index), b"x" * 32))
    proof = db.execute(ReadQuery(e2e_key(1000))).proof
    benchmark(lambda: wire.decode(wire.encode(proof)))
