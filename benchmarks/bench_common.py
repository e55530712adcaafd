"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper artifact (table or figure): it
prints the rows/series to the terminal (bypassing pytest capture) and
also writes them under ``benchmarks/results/`` so EXPERIMENTS.md can
cite the measured numbers.  Structured results (lists of row dicts or
metric mappings) are additionally persisted as JSON so tooling -- the
campaigns CI gates on (``benchmarks/campaign.py``) in particular -- can
diff runs without parsing tables.
"""

from __future__ import annotations

import json
import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# The machine-readable perf trajectory lives at the repo root so every
# future PR can be compared against it (see benchmarks/perf_suite.py).
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERF_BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_perf.json")


def progress(line: str) -> None:
    """A campaign's running commentary: stderr, so stdout stays its
    results."""
    print(line, file=sys.stderr, flush=True)


def failed_checks(checks: dict) -> list[str]:
    """The criteria of ``checks`` that do not hold, each named with its
    value: a bool holds when true, a count when zero."""
    return [f"{name} = {value}" for name, value in checks.items()
            if (value is not True if isinstance(value, bool) else value != 0)]


def emit(capsys, experiment_id: str, text: str, rows: list[dict] | None = None) -> None:
    """Show a result table on the live terminal and persist it.

    ``rows``, when given, is a list of per-row dicts; it is written as
    ``benchmarks/results/<experiment_id>.json`` alongside the ``.txt``
    rendering so downstream tooling gets structured data.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment_id}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    if rows is not None:
        emit_json(experiment_id, rows)
    with capsys.disabled():
        print(f"\n{text}\n[saved to {os.path.relpath(path)}]")


def emit_json(experiment_id: str, payload: object, path: str | None = None) -> None:
    """Persist a JSON-serialisable payload under ``benchmarks/results/``
    (or at an explicit ``path``, e.g. the repo-root perf baseline)."""
    if path is None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{experiment_id}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
