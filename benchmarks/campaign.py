"""The campaigns CI gates on, run by name through one entry point::

    PYTHONPATH=src python benchmarks/campaign.py NAME... [--quick] [--check]
                                                 [--json] [--seed N]

Each campaign's module exposes ``run(quick, seed) -> results`` and
``failures(results) -> list[str]``, naming every criterion the results
violate.  Progress lines go to stderr; stdout gets each campaign's
verdict and failures, or with ``--json`` everything as one document.
CI runs ``chaos`` and ``chaos-pipelined`` at full size, the rest
``--quick``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "..", "src")]

import bench_byzantine  # noqa: E402
import bench_chaos  # noqa: E402
import bench_scale  # noqa: E402
import bench_storage  # noqa: E402
import bench_throughput  # noqa: E402
import perf_suite  # noqa: E402

#: name -> (run, failures)
CAMPAIGNS = {
    "perf": (perf_suite.run, perf_suite.failures),
    "perf-baseline": (perf_suite.record_baseline, perf_suite.failures),
    "chaos": (bench_chaos.run, bench_chaos.failures),
    "chaos-pipelined": (functools.partial(bench_chaos.run, pipeline_depth=8),
                        bench_chaos.failures),
    "throughput": (bench_throughput.run, bench_throughput.failures),
    "scale": (bench_scale.run, bench_scale.failures),
    "storage": (bench_storage.run, bench_storage.failures),
    "byzantine": (bench_byzantine.run, bench_byzantine.failures),
    "replication": (bench_byzantine.run_replication, bench_byzantine.failures),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="+", metavar="NAME",
                        choices=list(CAMPAIGNS),
                        help=f"one of: {', '.join(CAMPAIGNS)}")
    parser.add_argument("--quick", action="store_true",
                        help="the smaller size")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every criterion holds")
    parser.add_argument("--json", action="store_true",
                        help="print the results as one JSON document")
    parser.add_argument("--seed", type=int,
                        help="replace each seeded campaign's seed")
    args = parser.parse_args(argv)

    seed = {} if args.seed is None else {"seed": args.seed}
    report = {}
    for name in args.names:
        run, failures = CAMPAIGNS[name]
        results = run(args.quick, **seed)
        report[name] = {"results": results, "failures": failures(results)}
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        for name, entry in report.items():
            print(f"{name}: {'FAIL' if entry['failures'] else 'pass'}")
            for problem in entry["failures"]:
                print(f"  {problem}")
    failed = any(entry["failures"] for entry in report.values())
    return 1 if args.check and failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
