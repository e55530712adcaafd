"""Machine-readable performance suite over the repo's hot paths.

Times the code paths every protocol operation funnels through --
digest XOR algebra, tagged-state hashing, Merkle VO build+verify
round-trips (one tree and a forest of 8) and the forest's batched root
refresh, RSA sign/verify, server-state snapshots, wire encoding and
decoding, the page store's incremental checkpoint and streaming load,
and an E12-style 32-user Protocol II makespan -- and persists the
numbers as JSON so the perf trajectory is diffable across PRs.

``python benchmarks/campaign.py perf --quick --check`` is the CI gate: it
fails on a row more than :data:`REGRESSION_FACTOR` x worse than the
repo-root ``BENCH_perf.json``, a quick run against the file's ``quick``
block and a full run against its ``after`` block: the quick suite's
smaller store and fewer users read up to several times better than the
full one, so judged against full rows a quick run would hide a
regression of that size.  ``perf-baseline`` runs the suite and records
it there as ``after``, the file's previous ``after`` becoming
``before`` beside the speedups between the two; ``perf-baseline
--quick`` records the ``quick`` block alone.

Metric naming convention: ``*_per_s`` is a throughput (higher is
better); ``*_ms`` is a latency/makespan (lower is better).  The
regression check uses the suffix to orient the comparison.
"""

from __future__ import annotations

import json
import random
import statistics
import tempfile
import time

from bench_common import PERF_BASELINE_PATH, emit_json, progress

from repro.crypto import rsa
from repro.crypto.hashing import Digest, hash_bytes, hash_tagged_state, xor_all
from repro.core.scenarios import build_simulation
from repro.mtree.database import ReadQuery, VerifiedDatabase, WriteQuery
from repro.net.wal import ServerStore
from repro.protocols.base import Response, ServerState
from repro.protocols.verify import derive_outcome
from repro.simulation.workload import steady_workload
from repro import wire

REGRESSION_FACTOR = 3.0

#: hard ceiling on the *estimated* cost of disabled observability hooks
#: relative to the E12 makespan (the tentpole's "no-op-cheap" promise).
OBS_OVERHEAD_LIMIT_PCT = 3.0


#: windows per row: a row's rate is their median
WINDOWS = 5


def _rate(fn, *, min_time: float = 0.2, batch: int = 1) -> float:
    """Operations per second of ``fn`` (which performs ``batch`` ops):
    the median of :data:`WINDOWS` windows sharing ``min_time``, so one
    window the host took away does not move the row.  The median, not
    the best: a baseline and a check read the same statistic, and the
    gate stays as strict as one window's."""
    # Warm up once so first-call caches and imports are off the clock.
    fn()
    rates = []
    for _ in range(WINDOWS):
        iterations = 0
        started = time.perf_counter()
        deadline = started + min_time / WINDOWS
        while True:
            fn()
            iterations += 1
            now = time.perf_counter()
            if now >= deadline:
                break
        rates.append((iterations * batch) / (now - started))
    return statistics.median(rates)


def _digests(count: int, seed: int = 7) -> list[Digest]:
    rng = random.Random(seed)
    return [hash_bytes(rng.randbytes(16)) for _ in range(count)]


def _populated_db(entries: int, order: int = 8, seed: int = 11,
                  shards: int = 1) -> VerifiedDatabase:
    rng = random.Random(seed)
    db = VerifiedDatabase(order=order, shards=shards)
    for index in range(entries):
        db.execute(WriteQuery(key=f"k{index:05d}".encode(), value=rng.randbytes(24)))
    return db


def measure(quick: bool = False) -> dict[str, float]:
    scale = 0.25 if quick else 1.0
    min_time = 0.05 if quick else 0.2
    metrics: dict[str, float] = {}

    # -- digest algebra ----------------------------------------------------
    pairs = _digests(256)
    def xor_pairs():
        for index in range(0, 256, 2):
            _ = pairs[index] ^ pairs[index + 1]
    metrics["digest_xor_per_s"] = _rate(xor_pairs, min_time=min_time, batch=128)

    fold = _digests(1024)
    metrics["xor_all_digests_per_s"] = _rate(
        lambda: xor_all(fold), min_time=min_time, batch=1024)

    roots = _digests(64, seed=13)
    def tagged_states():
        for index, root in enumerate(roots):
            hash_tagged_state(root, index, "u%d" % (index % 8))
    metrics["hash_tagged_state_per_s"] = _rate(tagged_states, min_time=min_time, batch=64)

    # -- Merkle VO round-trips: one tree, then a forest of 8 ---------------
    entries = int(512 * scale) or 64
    read_keys = [f"k{i:05d}".encode() for i in range(0, entries, 7)]
    stores = {shards: _populated_db(entries, shards=shards) for shards in (1, 8)}
    for shards, infix in ((1, ""), (8, "forest8_")):
        db = stores[shards]
        order = db.spec
        def read_roundtrip():
            for key in read_keys:
                result = db.execute(ReadQuery(key=key))
                derive_outcome(ReadQuery(key=key), result, order)
        metrics[f"vo_read_{infix}roundtrip_per_s"] = _rate(
            read_roundtrip, min_time=min_time, batch=len(read_keys))

        write_rng = random.Random(17)
        def write_roundtrip():
            key = f"k{write_rng.randrange(entries):05d}".encode()
            query = WriteQuery(key=key, value=write_rng.randbytes(24))
            result = db.execute(query)
            derive_outcome(query, result, order)
        metrics[f"vo_update_{infix}roundtrip_per_s"] = _rate(
            write_roundtrip, min_time=min_time)

    # One server batch on the forest: 16 overwrites wherever they route,
    # then the one refresh pass (dirty shard paths + the top tree).
    forest = stores[8].mtree
    def forest_refresh():
        for _ in range(16):
            forest.insert(f"k{write_rng.randrange(entries):05d}".encode(),
                          write_rng.randbytes(24))
        forest.refresh_root()
    metrics["forest8_refresh_root_per_s"] = _rate(forest_refresh, min_time=min_time)
    db = stores[1]  # the codec row below encodes a forest-of-one proof

    # -- RSA ---------------------------------------------------------------
    key = rsa.generate_keypair(bits=1024, seed=42)
    digest = hash_bytes(b"perf-suite")
    metrics["rsa_sign_per_s"] = _rate(
        lambda: rsa.sign_digest(key, digest), min_time=min_time)
    signature = rsa.sign_digest(key, digest)
    fresh = [hash_bytes(b"perf-%d" % i) for i in range(64)]
    sigs = [rsa.sign_digest(key, d) for d in fresh]
    def verify_batch():
        for d, s in zip(fresh, sigs):
            assert rsa.verify_digest(key.public, d, s)
    metrics["rsa_verify_per_s"] = _rate(verify_batch, min_time=min_time, batch=64)

    # -- state snapshots & wire encoding ----------------------------------
    state = ServerState(database=_populated_db(int(256 * scale) or 32))
    state.meta["p2.last_user"] = "u0"
    metrics["state_clone_per_s"] = _rate(lambda: state.clone(), min_time=min_time)

    # Codec rows count frames, not bytes: a format that sends fewer
    # bytes for the same work must not read as a slowdown.  This row
    # encodes one proof again and again, so every key block comes from
    # the codec's memo (a 100 % hit row); the distinct-keys row below
    # starts each window with the memo empty.
    sample_key = b"k00003"
    response = db.execute(ReadQuery(key=sample_key))
    def encode_proof():
        for _ in range(16):
            wire.encode(response.proof)
    metrics["wire_encode_frames_per_s"] = _rate(
        encode_proof, min_time=min_time, batch=16)

    # -- page store: incremental checkpoint + streaming load ---------------
    # The shape of the e2e ``p2_mixed_pipelined`` cycle: 8 shards of
    # 1.5 KB entries, 128 overwrites on a hot tenth of the keys between
    # checkpoints (sqlite, no fsync: the CPU and the bytes, not the disk).
    page_rng = random.Random(23)
    paged = VerifiedDatabase(order=8, shards=8)
    page_keys = [b"file%05d" % i for i in range(int(8 * 1000 * scale))]
    for page_key in page_keys:
        paged.mtree.insert(page_key, page_rng.randbytes(1536))
    paged_state = ServerState(database=paged)
    hot = page_keys[:len(page_keys) // 10]
    with tempfile.TemporaryDirectory(prefix="perf-pagestore-") as data_dir:
        store = ServerStore(data_dir, backend="sqlite", fsync=False)
        store.write_snapshot(paged_state, {})
        checkpoints = []
        for _ in range(3 if quick else 7):
            for _ in range(128):
                paged.mtree.insert(page_rng.choice(hot), page_rng.randbytes(1536))
            started = time.perf_counter()
            store.write_snapshot(paged_state, {})
            checkpoints.append((time.perf_counter() - started) * 1000.0)
        store.close()
        loads = []
        for _ in range(3):
            store = ServerStore(data_dir, backend="sqlite", fsync=False)
            started = time.perf_counter()
            loaded = store.load_snapshot()
            loads.append((time.perf_counter() - started) * 1000.0)
            store.close()
        assert loaded[0].root_digest() == paged.root_digest()
    metrics["pagestore_incremental_checkpoint_ms"] = statistics.median(checkpoints)
    metrics["pagestore_load_ms"] = statistics.median(loads)

    # -- wire encoding of proofs of distinct keys on that 8-shard store:
    # each window of 64 starts with an empty key-block memo, so the
    # nodes the paths share (the top tree, each shard's upper levels)
    # hit and every leaf misses once --
    distinct = [paged.execute(ReadQuery(key=key)).proof
                for key in page_rng.sample(page_keys, 64)]
    def encode_distinct():
        wire._key_blocks.clear()
        for proof in distinct:
            wire.encode(proof)
    metrics["wire_encode_distinct_frames_per_s"] = _rate(
        encode_distinct, min_time=min_time, batch=len(distinct))

    # -- wire decoding: what a p2_mixed_pipelined client reads per op, a
    # Protocol II answer to a point read on that same 8-shard store --
    frame = wire.encode(Response(result=paged.execute(ReadQuery(key=hot[0])),
                                 extras={"ctr": 7, "last_user": "u0"}))
    def decode_frame():
        for _ in range(16):
            wire.decode(frame)
    metrics["wire_decode_frames_per_s"] = _rate(
        decode_frame, min_time=min_time, batch=16)

    # -- E12-style makespan wall time --------------------------------------
    n_users = 8 if quick else 32
    workload = steady_workload(n_users, 8, spacing=6, keyspace=32,
                               write_ratio=0.6, scan_ratio=0.1, seed=9)
    started = time.perf_counter()
    report = build_simulation("protocol2", workload, k=4, seed=9).execute()
    wall_ms = (time.perf_counter() - started) * 1000.0
    assert not report.detected, report.alarms
    metrics["e12_makespan_ms" if not quick else "e12_quick_makespan_ms"] = wall_ms

    # -- observability overhead --------------------------------------------
    # The <3% disabled-overhead budget is far below wall-clock noise, so
    # it is *computed* rather than timed directly: an obs-enabled E12 run
    # counts how many instrument hooks the workload fires
    # (``runtime.hook_fires``); a disabled run executes at most that many
    # enabled-checks, each costing no more than a full disabled
    # instrument call, which micro-benchmarks measure exactly.
    from repro import obs

    obs.disable()
    probe_counter = obs.counter("perf.disabled_probe")
    def disabled_incs():
        for _ in range(256):
            probe_counter.inc()
    metrics["obs_disabled_inc_ns"] = 1e9 / _rate(
        disabled_incs, min_time=min_time, batch=256)

    def disabled_spans():
        for _ in range(256):
            with obs.span("perf.disabled_probe_span"):
                pass
    metrics["obs_disabled_span_ns"] = 1e9 / _rate(
        disabled_spans, min_time=min_time, batch=256)

    obs.reset()
    obs.enable()
    try:
        started = time.perf_counter()
        report = build_simulation("protocol2", workload, k=4, seed=9).execute()
        enabled_ms = (time.perf_counter() - started) * 1000.0
        hook_fires = obs.runtime.hook_fires
        span_fires = sum(agg["count"] for agg in obs.tracer.aggregate().values())
    finally:
        obs.disable()
        obs.reset()
    assert not report.detected, report.alarms
    metrics["e12_obs_enabled_makespan_ms"] = enabled_ms
    metrics["obs_hook_fires_e12"] = float(hook_fires)
    # Bill each hook at its own disabled cost: span sites pay a full
    # disabled span() call, every other fire at most a disabled inc().
    overhead_ns = (span_fires * metrics["obs_disabled_span_ns"]
                   + (hook_fires - span_fires) * metrics["obs_disabled_inc_ns"])
    metrics["obs_disabled_overhead_pct"] = overhead_ns / (wall_ms * 1e6) * 100.0

    return {name: round(value, 3) for name, value in metrics.items()}


#: Counts of a fixed workload, compared exactly with their own mode's
#: block: the same code fires the same hooks every run, so another
#: count is a change in what the code does, however small.
_EXACT_METRICS = frozenset({"obs_hook_fires_e12"})

#: Diagnostics the ratio check never compares: the exact counts, and
#: obs-instrumentation numbers gated by their own explicit budget
#: instead.  The baseline records them all the same, for the overhead
#: trajectory.
_DIAGNOSTIC_METRICS = _EXACT_METRICS | frozenset({
    "obs_disabled_overhead_pct",
    "obs_disabled_inc_ns",
    "obs_disabled_span_ns",
    "e12_obs_enabled_makespan_ms",
    "e12_quick_makespan_ms",
})


def _gateable(metrics: dict) -> dict:
    return {name: value for name, value in metrics.items()
            if name not in _DIAGNOSTIC_METRICS}


def _higher_is_better(name: str) -> bool:
    return not name.endswith("_ms")


def compare(current: dict, baseline: dict, factor: float = REGRESSION_FACTOR) -> list[str]:
    """Regressions of more than ``factor`` versus the baseline."""
    problems = []
    for name, base in baseline.items():
        now = current.get(name)
        if now is None or not base:
            continue
        ratio = (base / now) if _higher_is_better(name) else (now / base)
        if ratio > factor:
            problems.append(f"{name}: {now} vs baseline {base} ({ratio:.1f}x worse)")
    return problems


def speedups(before: dict, after: dict) -> dict[str, float]:
    out = {}
    for name, new in after.items():
        old = before.get(name)
        if not old or not new:
            continue
        out[name] = round(new / old if _higher_is_better(name) else old / new, 2)
    return out


def run(quick: bool = False, seed: int | None = None) -> dict:
    """The suite, written to its results file and returned with the
    baseline it is judged against (``seed`` is unused: every input is
    fixed)."""
    metrics = measure(quick=quick)
    width = max(len(name) for name in metrics)
    progress("\n".join(f"  {name:<{width}}  {metrics[name]:>14,.3f}"
                       for name in sorted(metrics)))
    emit_json("perf_suite_quick" if quick else "perf_suite", metrics)
    return {"mode": "quick" if quick else "full", "metrics": metrics,
            "baseline": _recorded().get(_block(quick)) or {}}


def _block(quick: bool) -> str:
    """The block of ``BENCH_perf.json`` a run of this mode is judged by."""
    return "quick" if quick else "after"


def _recorded() -> dict:
    try:
        with open(PERF_BASELINE_PATH, encoding="utf-8") as handle:
            recorded = json.load(handle)
    except (OSError, ValueError):
        return {}
    return recorded if isinstance(recorded, dict) else {}


def record_baseline(quick: bool = False, seed: int | None = None) -> dict:
    """:func:`run`, then ``BENCH_perf.json`` records it: a full run as
    ``after`` (the baseline it replaces as ``before``), a quick one as
    ``quick``; the other mode's rows stay."""
    results = run(quick)
    recorded = _recorded()
    if quick:
        recorded["quick"] = results["metrics"]
    else:
        before, after = results["baseline"], results["metrics"]
        recorded.update(suite="perf_suite", mode="full", after=after,
                        before=before, speedup=speedups(before, after))
    emit_json("BENCH_perf", recorded, path=PERF_BASELINE_PATH)
    return results


def failures(results: dict) -> list[str]:
    """Each row more than :data:`REGRESSION_FACTOR` x worse than the
    baseline of its own mode, each exact count not equal to it, and the
    disabled obs hooks over their budget."""
    if not results["baseline"]:
        quick = results.get("mode") == "quick"
        return [f"BENCH_perf.json has no {_block(quick)!r} block: record "
                f"one with perf-baseline{' --quick' if quick else ''}"]
    metrics, baseline = results["metrics"], results["baseline"]
    problems = compare(metrics, _gateable(baseline))
    problems += [f"{name}: {metrics.get(name)} vs baseline {baseline[name]} "
                 "(a count: compared exactly)"
                 for name in sorted(_EXACT_METRICS)
                 if name in baseline and metrics.get(name) != baseline[name]]
    overhead = metrics.get("obs_disabled_overhead_pct")
    if overhead is not None and overhead > OBS_OVERHEAD_LIMIT_PCT:
        problems.append(
            f"obs_disabled_overhead_pct: {overhead} exceeds the "
            f"{OBS_OVERHEAD_LIMIT_PCT:.0f}% disabled-hook budget")
    return problems
