"""End-to-end benchmark of the deployed Trusted CVS server.

    python3 benchmarks/e2e/run.py --workload p2_commit_sw --seed 1

runs one workload against a server process and prints every end-to-end
metric by name and unit, then one JSON line.  ``--trace 1`` prints the
per-layer metrics of a traced in-process run instead.  ``--smoke``,
``--self-test`` and ``--repeat N`` are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
RESULTS = os.path.join(HERE, "results")

#: the contract's ``run_seconds``: at this ``--seconds`` every workload
#: runs its listed number of cycles.  Other values scale the *cycle
#: count*; nothing is ever cut off by a clock, so op counts repeat.
RUN_SECONDS = 15


def _need_source() -> None:
    """The benchmark measures the checkout it sits in, never an
    installed copy: without ``src/repro`` beside it there is nothing to
    measure."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"no Trusted CVS source at {SRC}: nothing to run\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def cycles_for(workload, seconds: float | None, cycles: int | None) -> int:
    if cycles is not None:
        return max(1, cycles)
    if seconds is None:
        return workload.cycles
    return max(2, round(workload.cycles * seconds / RUN_SECONDS))


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<44} {value:>14.4f} {unit:<6} n={samples}")


def summary_line(result: dict) -> str:
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in result["metrics"].items()},
    })


def run_one(name: str, seed: int, cycles: int, trace: bool) -> dict:
    from streams import WORKLOADS

    workload = WORKLOADS[name]
    if trace:
        import trace_run

        result = trace_run.run(workload, seed, cycles, RESULTS)
    else:
        import e2e

        result = e2e.run(workload, seed, cycles)
    kind = "per-layer (traced run)" if trace else "end-to-end"
    print_metrics(f"{name} seed={seed} cycles={cycles}: {kind} metrics",
                  result["metrics"])
    for problem in result["problems"]:
        print(f"  FAILED GATE: {problem}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--cycles", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--repeat", type=int)
    args = parser.parse_args(argv)
    _need_source()
    from streams import WORKLOADS

    if args.self_test:
        import checks

        return checks.self_test()
    if args.smoke:
        import checks

        return checks.smoke(args.workload)
    if args.repeat is not None:
        import checks

        return checks.repeat(args.repeat, RESULTS)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    result = run_one(args.workload, args.seed,
                     cycles_for(workload, args.seconds, args.cycles),
                     bool(args.trace))
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
