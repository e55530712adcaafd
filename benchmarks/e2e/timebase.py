"""The benchmark's one time base: calibration kernels and the arithmetic
that turns raw clock readings into times at reference speed.

This host's speed moves by a factor of 1.5 to 2 *per CPU*: a fixed
kernel reads 0.4 ms or 0.65 ms, switching at millisecond scale and
drifting over minutes, and the two CPUs switch independently; the
latency of an fsync doubles between one minute and the next.
Every time the benchmark reports is therefore normalised by calibration
slices interleaved with the timed work: CPU slices on the CPU the work
ran on, fsync slices on the filesystem the server writes to.

Nothing here imports ``repro``: the yardstick must not move when the
code under test does.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time

#: what one CPU slice takes, between operations, on this host's faster
#: mode; times are reported as if every CPU ran at the speed that makes
#: a slice take this long.
CAL_REF_NS = 400_000

#: the reference latency of one fsync slice (append 1.6 KB, fsync).
IO_REF_NS = 500_000

_TABLE_SIZE = 1 << 19
_HASH_STEPS = 150
_LOOP_STEPS = 1500
_WALK_STEPS = 400


class Calibrator:
    """The calibration kernel: small-input sha256, a bytecode loop, and a
    random walk over a table of Python objects too large for the caches
    (a 4 MB list of 2**19 distinct ints, ~17 MB of int objects)."""

    def __init__(self) -> None:
        size = _TABLE_SIZE
        # One full-period LCG step per slot (a = 1 mod 4, c odd), so
        # following the table visits every slot before repeating.
        self._table = [(index * 1_664_525 + 1_013_904_223) % size
                       for index in range(size)]
        self._position = 1

    def slice_ns(self) -> int:
        """Run one slice; returns its wall time in nanoseconds.

        The kernel runs twice and the second pass is the one timed.
        Interleaved with other work the first pass is spent refilling
        caches, which costs the same in either speed mode and would
        blunt the slice; measured here, the cold pass follows the
        workload's speed with an exponent of 0.35 to 0.8, the warm
        pass with 0.8 to 1.0.
        """
        self._pass_ns()
        return self._pass_ns()

    def _pass_ns(self) -> int:
        started = time.perf_counter_ns()
        digest = b"calibration-slice".ljust(64, b".")
        sha256 = hashlib.sha256
        for _ in range(_HASH_STEPS):
            digest = sha256(digest).digest()
        acc = digest[0]
        for step in range(_LOOP_STEPS):
            acc = (acc * 31 + step) & 0xFFFFFFFF
        table = self._table
        position = (self._position + acc) % _TABLE_SIZE
        for _ in range(_WALK_STEPS):
            position = table[position]
        self._position = position
        return time.perf_counter_ns() - started


class IoCalibrator:
    """The fsync kernel: append 1.6 KB to a scratch file and fsync it,
    which is what the server's log does per operation."""

    def __init__(self, path: str) -> None:
        self._handle = open(path, "ab", buffering=0)
        self._record = b"io-calibration-slice".ljust(1600, b".")

    def slice_ns(self) -> int:
        self._handle.write(self._record)
        started = time.perf_counter_ns()
        os.fsync(self._handle.fileno())
        return time.perf_counter_ns() - started

    def close(self) -> None:
        self._handle.close()


def speed_factor(slices_ns, reference_ns: int = CAL_REF_NS) -> float:
    """``f = reference / mean(slices)``: below 1 when the host ran slow.
    Time spent on the resource is multiplied by ``f``."""
    slices_ns = list(slices_ns)
    if not slices_ns:
        return 1.0
    return reference_ns / (sum(slices_ns) / len(slices_ns))


def normalise(wall: float, parts, stolen: float = 0.0) -> float:
    """A wall time at reference speed: ``wall - busy + sum(t_i * f_i)``.

    ``parts`` is ``[(seconds, f), ...]``: the CPU time of each process
    with the speed factor of the CPU it ran on, and the time stalled on
    the disk with the factor of the fsync slices.  ``busy = min(wall,
    sum(seconds))``: only time spent on a calibrated resource is scaled;
    waiting on a kernel timer is not.  When the parts overlap (their sum
    exceeds the wall) they are shrunk by the same share, so the result
    never exceeds what scaling the whole wall would give.

    ``stolen`` is the time the hypervisor reports having taken from the
    CPUs in use.  It is not this system's time, so it is removed from
    the wall first.  It accrues over the whole wall, also while
    everything waits on a kernel timer (Protocol I operations that the
    host reported 6.5 ms of stolen time for were 3.7 ms longer than in a
    calm minute), so only the share that fell while a calibrated
    resource was in use, ``total / wall``, can have delayed the run.
    And it comes out of the part of the wall the parts do not account
    for: time stolen while a task ran is already in that task's CPU
    time, and in the slices that scale it.
    """
    total = sum(seconds for seconds, _f in parts)
    if 0.0 < total < wall:
        wall -= min(stolen * total / wall, wall - total)
    if total <= 0.0:
        return wall
    scaled = sum(seconds * f for seconds, f in parts)
    busy = min(wall, total)
    return wall - busy + scaled * (busy / total)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation
    between the two nearest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of ``statistics.quantiles(n=4)``."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def self_test() -> list[str]:
    """Check the arithmetic on synthetic numbers; returns failures."""
    failures = []

    def check(name: str, got: float, want: float) -> None:
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            failures.append(f"{name}: got {got!r}, want {want!r}")

    check("percentile interpolates", percentile([1, 2, 3, 4], 50), 2.5)
    check("percentile p25", percentile([10, 20, 30, 40, 50], 25), 20.0)
    check("percentile p99 of two", percentile([0, 100], 99), 99.0)
    check("percentile single", percentile([7], 90), 7.0)
    check("median odd", median([3, 1, 2]), 2.0)
    check("speed factor slow", speed_factor([2 * CAL_REF_NS] * 3), 0.5)
    check("speed factor none", speed_factor([]), 1.0)
    check("speed factor io", speed_factor([IO_REF_NS // 2], IO_REF_NS), 2.0)
    # CPU-bound: all of the wall is scaled.
    check("normalise cpu-bound", normalise(10.0, [(6.0, 0.5), (4.0, 0.5)]), 5.0)
    # busy > wall (two processes overlapping): scale the wall, no more.
    check("normalise overlap", normalise(10.0, [(8.0, 0.5), (8.0, 0.5)]), 5.0)
    # busy ~ 0 (waiting on a timer): the wall is left alone.
    check("normalise wait-bound", normalise(10.0, [(0.0, 0.5)]), 10.0)
    check("normalise tiny busy", normalise(10.0, [(0.1, 0.5)]), 9.95)
    # Each process is scaled by its own CPU's factor.
    check("normalise two speeds", normalise(10.0, [(4.0, 1.0), (4.0, 0.5)]), 8.0)
    # Stolen time: its busy share, out of the unaccounted wait only.
    check("normalise stolen", normalise(10.0, [(6.0, 0.5)], stolen=1.0), 6.4)
    check("normalise stolen capped",
          normalise(10.0, [(9.5, 1.0)], stolen=2.0), 9.5)
    check("normalise stolen, all busy",
          normalise(10.0, [(12.0, 0.5)], stolen=3.0), 5.0)
    check("normalise stolen, mostly waiting",
          normalise(10.0, [(1.0, 1.0)], stolen=3.0), 9.7)
    # Slice subtraction: a 10 s cycle holding 1 s of slices is a 9 s cycle.
    cycle_wall, slice_wall = 10.0, 1.0
    cycle_cpu, slice_cpu = 7.0, 1.0
    check("slice subtraction",
          normalise(cycle_wall - slice_wall, [(cycle_cpu - slice_cpu, 0.5)]),
          6.0)
    check("quartile spread", quartile_spread([98, 99, 100, 101, 102]), 0.03)
    slices = [Calibrator().slice_ns() for _ in range(3)]
    if not all(50_000 < s < 50_000_000 for s in slices):
        failures.append(f"calibration slice out of range: {slices}")
    return failures
