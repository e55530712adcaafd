"""E13 -- bandwidth: the verification objects in bytes on the wire.

"O(log n) digests" made concrete: every message is encoded with the
binary wire codec and billed.  Two views:

* VO bytes for a point read / update as the database grows (the byte
  version of Figure 2's scaling), and at the size of a CVS value: a
  two-revision RCS file of ~1.5 KB, where a read response is the answer
  plus the path -- the value crosses once;
* total protocol bandwidth per operation, naive vs Protocol I vs
  Protocol II on the same workload, beside the same operations' bare
  queries and answers.  The naive server ships the same VO as Protocol
  II, so naive-to-answers-only is the VO's price on the wire and
  naive-to-Protocol-II the price of the counters and registers.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from bench_common import emit
from repro.analysis import format_table
from repro.core.scenarios import build_simulation
from repro.mtree.database import ReadQuery, VerifiedDatabase, WriteQuery
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
        ["n", "value (bytes)", "read response (bytes)", "update response (bytes)",
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
