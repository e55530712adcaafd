"""Machine-readable performance suite over the repo's hot paths.

Times the code paths every protocol operation funnels through --
digest XOR algebra, tagged-state hashing, Merkle VO build+verify
round-trips (one tree and a forest of 8) and the forest's batched root
refresh, RSA sign/verify, server-state snapshots, wire encoding and
decoding, the page store's incremental checkpoint and streaming load,
and an E12-style 32-user Protocol II makespan -- and persists the
numbers as JSON so the perf trajectory is diffable across PRs.

Usage::

    PYTHONPATH=src python benchmarks/perf_suite.py            # full run
    PYTHONPATH=src python benchmarks/perf_suite.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/perf_suite.py --check    # fail on >3x
                                                              # regression vs
                                                              # BENCH_perf.json
    PYTHONPATH=src python benchmarks/perf_suite.py \
        --write-baseline --before benchmarks/results/perf_seed.json

``--write-baseline`` (re)writes the repo-root ``BENCH_perf.json`` with
the current numbers as ``after``; ``--before FILE`` embeds a previously
captured run (e.g. the pre-optimisation seed) as ``before`` plus the
implied speedups.

Metric naming convention: ``*_per_s`` is a throughput (higher is
better); ``*_ms`` is a latency/makespan (lower is better).  The
regression check uses the suffix to orient the comparison.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import tempfile
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from bench_common import PERF_BASELINE_PATH, emit_json

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
        order = db.order if shards == 1 else db.spec
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
    db = stores[1]  # the codec row below encodes a single-tree proof

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
    # bytes for the same work must not read as a slowdown.
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


#: Diagnostics the regression check never compares: counts and
#: obs-instrumentation numbers whose value depends on the run mode
#: (quick fires far fewer hooks than full, which is not a regression)
#: or that are gated by their own explicit budget instead.  The baseline
#: records them all the same, for the overhead trajectory.
_DIAGNOSTIC_METRICS = frozenset({
    "obs_hook_fires_e12",
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller workloads (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="fail on >%.0fx regression vs BENCH_perf.json" % REGRESSION_FACTOR)
    parser.add_argument("--write-baseline", action="store_true",
                        help="write BENCH_perf.json with this run as 'after'")
    parser.add_argument("--before", metavar="FILE",
                        help="JSON metrics file to embed as 'before' in the baseline")
    parser.add_argument("--json", metavar="FILE",
                        help="also write this run's metrics to FILE")
    args = parser.parse_args(argv)

    metrics = measure(quick=args.quick)
    width = max(len(name) for name in metrics)
    print("perf_suite (%s mode)" % ("quick" if args.quick else "full"))
    for name in sorted(metrics):
        print(f"  {name:<{width}}  {metrics[name]:>14,.3f}")

    run_id = "perf_suite_quick" if args.quick else "perf_suite"
    path = emit_json(run_id, metrics, path=args.json)
    print(f"[metrics saved to {path}]")

    if args.write_baseline:
        payload = {"suite": "perf_suite", "mode": "quick" if args.quick else "full",
                   "after": metrics}
        if args.before:
            try:
                with open(args.before, encoding="utf-8") as handle:
                    before = json.load(handle)
            except (OSError, ValueError) as exc:
                parser.error(f"--before {args.before}: {exc}")
            payload["before"] = before
            payload["speedup"] = speedups(before, metrics)
        emit_json("BENCH_perf", payload, path=PERF_BASELINE_PATH)
        print(f"[baseline written to {PERF_BASELINE_PATH}]")

    if args.check:
        try:
            with open(PERF_BASELINE_PATH, encoding="utf-8") as handle:
                baseline = json.load(handle)["after"]
        except (OSError, KeyError, ValueError):
            print("no usable BENCH_perf.json baseline; skipping regression check")
            return 0
        problems = compare(metrics, _gateable(baseline))
        overhead = metrics.get("obs_disabled_overhead_pct")
        if overhead is not None and overhead > OBS_OVERHEAD_LIMIT_PCT:
            problems.append(
                f"obs_disabled_overhead_pct: {overhead} exceeds the "
                f"{OBS_OVERHEAD_LIMIT_PCT:.0f}% disabled-hook budget")
        if problems:
            print("PERF REGRESSION (> %.0fx):" % REGRESSION_FACTOR)
            for line in problems:
                print("  " + line)
            return 1
        print("regression check passed (all metrics within "
              f"{REGRESSION_FACTOR:.0f}x of baseline; obs disabled overhead "
              f"{overhead}% < {OBS_OVERHEAD_LIMIT_PCT:.0f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
