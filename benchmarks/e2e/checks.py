"""``run.py --self-test``, ``--smoke`` and ``--repeat N``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import e2e
import harness
import timebase
from streams import WORKLOADS, blob, generate

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.normpath(os.path.join(HERE, "..", "..",
                                               "BENCHMARK.json"))
BYTE_METRICS = ("wire_bytes_per_op", "disk_bytes_per_op")


# -- --self-test -------------------------------------------------------------------

def self_test() -> int:
    from repro.storage.rcs import RevisionStore

    failures = timebase.self_test()

    def check(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    check(len(RevisionStore.deserialize(blob(7)).log()) == 2,
          "a value is not a two-revision RCS file")
    check(len({len(blob(token)) for token in (0, 1, 2**64 - 1)}) == 1,
          "values differ in length")
    digests = set()
    for workload in WORKLOADS.values():
        first = generate(workload, 1, 3)
        check(first.sha256 == generate(workload, 1, 3).sha256,
              f"{workload.name}: the stream is not a function of the seed")
        check(first.sha256 != generate(workload, 2, 3).sha256,
              f"{workload.name}: two seeds gave one stream")
        digests.add(first.sha256)
        for cycle in first.cycles:
            commits = sum(op.is_commit for op in cycle)
            check(len(cycle) == workload.cycle_ops
                  and commits == workload.cycle_commits,
                  f"{workload.name}: a cycle holds {commits} commits in "
                  f"{len(cycle)} ops")
            if workload.pipelined:
                for start in range(0, len(cycle), 2 * workload.group):
                    window = cycle[start:start + 2 * workload.group]
                    check(len({op.key for op in window}) == len(window),
                          f"{workload.name}: a window repeats a key")
        argv = harness.launcher_argv(workload.launcher_args(), "data", 0)
        check(not any(workload.name in word or "seed" in word
                      for word in argv),
              f"{workload.name}: the launcher is told the workload or seed")
    check(len(digests) == len(WORKLOADS), "two workloads share a stream")
    for failure in failures:
        print(f"SELF-TEST FAILED: {failure}")
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


# -- --smoke -------------------------------------------------------------------------

def smoke(only: str | None = None) -> int:
    """Two cycles of every workload with every gate and the restart
    phase.  Protocol I mostly waits on a kernel timer, so it runs in a
    child process beside the three Protocol II workloads."""
    started = time.perf_counter()
    names = [only] if only else [n for n, w in WORKLOADS.items()
                                 if w.protocol == 2]
    child = None
    if only is None:
        child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
             "--workload", "p1_commit_signed"])
    failed = 0
    try:
        for name in names:
            result = e2e.run(WORKLOADS[name], seed=1, cycles=2, quick=True)
            verdict = "ok" if result["correct"] else "FAILED"
            print(f"smoke {name}: {verdict} ({result['attempted']} ops, "
                  f"{result['failed']} wrong)")
            for problem in result["problems"]:
                print(f"  FAILED GATE: {problem}")
            failed += not result["correct"]
    finally:
        if child is not None:
            failed += child.wait() != 0
    if only is None:
        print(f"smoke: {time.perf_counter() - started:.1f} s, "
              f"{failed} failure(s)")
    return 1 if failed else 0


# -- --repeat N ----------------------------------------------------------------------

def _bounds() -> dict[str, float]:
    try:
        with open(BENCHMARK_JSON, encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _worse_by(first: float, second: float, name: str) -> float:
    """By what share of ``first`` the second median is worse."""
    change = (second - first) / first
    return -change if name == "ops_per_s" else change


def _run_cli(name: str, seed: int) -> dict | None:
    """One run in a process of its own, as the contract's driver makes
    them; returns ``metric -> value``, or None if the run was not
    correct."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed)], stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def repeat(n: int, results_dir: str) -> int:
    """Interleaved sets A, B, A, B... of the same code, every run on
    its own seed; then seed 1 once more, for the byte counts."""
    if n < 5:
        print("--repeat needs N >= 5")
        return 2
    bounds = _bounds()
    values = {name: {"A": [], "B": []} for name in WORKLOADS}
    for round_no in range(n):
        for side in "AB":
            seed = 1 + 2 * round_no + (side == "B")
            for name in WORKLOADS:
                metrics = _run_cli(name, seed)
                if metrics is None:
                    print(f"set {side}{round_no + 1} {name} seed {seed}: "
                          "FAILED")
                    return 1
                values[name][side].append(metrics)
                print(f"set {side}{round_no + 1} {name} seed {seed}: ok "
                      f"ops_per_s={metrics['ops_per_s']:.1f}", flush=True)
    violations = []
    report = {}
    print(f"{'workload':<20}{'metric':<24}{'median A':>12}{'median B':>12}"
          f"{'B worse by':>12}{'spread':>9}{'bound':>8}")
    for name in WORKLOADS:
        again = _run_cli(name, 1) or {}
        first = values[name]["A"][0]
        if any(again.get(k) != first[k] for k in BYTE_METRICS):
            violations.append(f"{name}: byte counts differ between two "
                              "runs of seed 1")
        report[name] = {}
        for metric in values[name]["A"][0]:
            a = [run[metric] for run in values[name]["A"]]
            b = [run[metric] for run in values[name]["B"]]
            median_a, median_b = timebase.median(a), timebase.median(b)
            worse = _worse_by(median_a, median_b, metric)
            spread = timebase.quartile_spread(a + b)
            bound = bounds.get(metric)
            print(f"{name:<20}{metric:<24}{median_a:>12.4f}{median_b:>12.4f}"
                  f"{worse:>+12.2%}{spread:>9.2%}"
                  f"{bound if bound is not None else float('nan'):>8.2f}")
            report[name][metric] = {
                "median_a": median_a, "median_b": median_b,
                "b_worse_by": worse, "quartile_spread": spread,
                "bound": bound, "values_a": a, "values_b": b}
            if bound is not None and abs(worse) > bound / 2:
                violations.append(f"{name} {metric}: medians differ by "
                                  f"{worse:+.2%}, over half the bound")
            if bound is not None and spread > bound:
                violations.append(f"{name} {metric}: spread {spread:.2%} "
                                  "is outside the bound")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "baseline.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"repeat": n, "workloads": report}, handle, indent=1)
        handle.write("\n")
    for violation in violations:
        print(f"VIOLATION: {violation}")
    return 1 if violations else 0
