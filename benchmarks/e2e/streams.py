"""The four workloads and their operation streams.

A stream is a pure function of ``(workload, seed)`` and is generated in
full before anything is timed.  The server process never sees the
workload name or the seed: it is told the deployment shape only (see
:func:`Workload.launcher_args`) and preloads a store that depends on the
file count alone (:func:`initial_items`).

Every phase of a run -- set-up, warm-up, the timed cycles, the restart
phase and the final read-back -- comes from the one generator, so a
whole run is replayable from two values.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.storage.rcs import RevisionStore

#: the server's checkpoint interval in logged messages.  A Protocol II
#: operation logs one message, a Protocol I operation two (request and
#: follow-up signature), so a cycle is 256 or 128 operations.
SNAPSHOT_EVERY = 256

#: kill/restart rounds in the restart phase.
RESTARTS = 5


def _template() -> bytes:
    """A serialised two-revision RCS file with one 16-digit token line;
    every value in the benchmark is this blob with another token, so all
    values have one length and byte counts repeat exactly."""
    store = RevisionStore()
    lines = [f"line {index:02d} " + "x" * 40 for index in range(26)]
    store.commit(lines, "alice", "import", 1_000_000_000)
    lines[5] = "token " + "0" * 16 + " " + "y" * 20
    store.commit(lines, "bobby", "change the token line", 1_000_000_100)
    return store.serialize()


_TEMPLATE = _template()


def blob(token: int) -> bytes:
    """The ~1.5 KB RCS blob carrying ``token`` (64 bits, fixed width)."""
    return _TEMPLATE.replace(b"0" * 16, b"%016x" % token)


def key_for(index: int) -> bytes:
    return b"src/mod%03d/file%05d.c,v" % (index % 97, index)


def initial_items(files: int):
    """The preloaded store: a function of the file count only."""
    return ((key_for(index), blob(index)) for index in range(files))


@dataclass(frozen=True)
class Op:
    """One operation: a commit carries ``value``, a checkout ``expect``
    (what the shadow copy holds for the key at that point)."""

    session: int
    key: bytes
    value: bytes | None = None
    expect: bytes | None = None

    @property
    def is_commit(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocol: int          # 1 or 2
    frontend: str          # "threaded" | "async"
    backend: str           # "file" | "sqlite"
    shards: int
    files: int
    #: consecutive ops one session issues before the other takes over:
    #: 1 = strict alternation, 8 = Protocol I turns, 16 = pipeline window.
    group: int
    pipelined: bool
    commit_share: float
    hot: bool              # 80 % of ops on a hot 10 % of the files
    cycles: int            # timed cycles at the contract's --seconds
    warmup_ops: int        # untimed ops after the two set-up ops
    restart_commits: int   # untimed commits before each SIGKILL
    slice_every: int       # ops between calibration points
    #: slices of each kind per calibration point.  Stolen time hits a
    #: half-millisecond slice rarely and hard; a workload that mostly
    #: waits has few points per cycle and room for longer ones.
    slices_per_point: int = 1

    @property
    def cycle_ops(self) -> int:
        return SNAPSHOT_EVERY // (2 if self.protocol == 1 else 1)

    @property
    def cycle_commits(self) -> int:
        return round(self.cycle_ops * self.commit_share)

    def launcher_args(self) -> list[str]:
        """The deployment shape -- all the server process is told."""
        return ["--protocol", str(self.protocol),
                "--frontend", self.frontend,
                "--backend", self.backend,
                "--shards", str(self.shards),
                "--files", str(self.files)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="p2_commit_sw",
        why="blocking cvs commit: threaded, file store, per-op fsync and "
            "root refresh, whole-state snapshot per cycle; 2,000 files, "
            "80% commit, hot set, 24 cycles of 256 ops",
        protocol=2, frontend="threaded", backend="file", shards=1,
        files=2000, group=1, pipelined=False, commit_share=0.8, hot=True,
        cycles=24, warmup_ops=254, restart_commits=64, slice_every=16),
    Workload(
        name="p2_checkout_sw",
        why="the same layers used as reads: async front-end at batch 1, "
            "file store, 2,000 files, 90% checkout, uniform keys (no hot "
            "set), 24 cycles of 256 ops",
        protocol=2, frontend="async", backend="file", shards=1,
        files=2000, group=1, pipelined=False, commit_share=0.1, hot=False,
        cycles=24, warmup_ops=254, restart_commits=64, slice_every=16),
    Workload(
        name="p2_mixed_pipelined",
        why="batching does the work: async batch_max 64, sqlite page "
            "store, 8 shards, 8,000 files, windows of 16 per session, "
            "50/50, hot set, 24 cycles of 256 ops; per-op fsync and "
            "whole-state snapshot bypassed",
        protocol=2, frontend="async", backend="sqlite", shards=8,
        files=8000, group=16, pipelined=True, commit_share=0.5, hot=True,
        cycles=24, warmup_ops=254, restart_commits=64, slice_every=32),
    Workload(
        name="p1_commit_signed",
        why="Protocol I: RSA-1024 signature plus one blocking follow-up "
            "per op, threaded, file store, 1,000 files, turns of 8, 80% "
            "commit, 3 cycles of 128 ops; XOR registers bypassed",
        protocol=1, frontend="threaded", backend="file", shards=1,
        files=1000, group=8, pipelined=False, commit_share=0.8, hot=False,
        cycles=3, warmup_ops=14, restart_commits=8, slice_every=8,
        slices_per_point=8),
)}


@dataclass(frozen=True)
class Stream:
    """Every operation of one run, phase by phase."""

    setup: list            # one verified checkout per session
    warmup: list
    cycles: list           # list of per-cycle op lists
    restarts: list         # per restart: (commits, probe checkout)
    readback: list         # one checkout per restart-phase commit
    sha256: str

    def all_ops(self):
        """Every op in execution order (sessions of one pipelined
        window touch distinct keys, so their interleaving is free)."""
        yield from self.setup
        yield from self.warmup
        for cycle in self.cycles:
            yield from cycle
        for commits, probe in self.restarts:
            yield from commits
            yield probe
        yield from self.readback


def generate(workload: Workload, seed: int, cycles: int) -> Stream:
    """The op stream of ``(workload, seed)``, ``cycles`` timed cycles long."""
    rng = random.Random(f"{workload.name}:{seed}")
    files = workload.files
    group = workload.group
    shadow: dict[int, bytes] = {}
    hot = rng.sample(range(files), files // 10) if workload.hot else None
    digest = hashlib.sha256()

    def pick(avoid=()) -> int:
        while True:
            if hot is not None and rng.random() < 0.8:
                index = hot[rng.randrange(len(hot))]
            else:
                index = rng.randrange(files)
            if index not in avoid:
                return index

    def make(session: int, index: int, commit: bool) -> Op:
        key = key_for(index)
        if commit:
            value = blob(rng.getrandbits(64))
            shadow[index] = value
            op = Op(session, key, value=value)
        else:
            op = Op(session, key, expect=shadow.get(index) or blob(index))
        digest.update(b"%d|%s|" % (session, key))
        digest.update(op.value or b"?")
        return op

    def block(count: int, commits: int) -> list:
        """``count`` ops holding exactly ``commits`` commits, sessions
        taking turns of ``group``; inside one pipelined window (both
        sessions' groups) all keys differ, so the order in which the
        server interleaves the two sessions cannot change an answer."""
        kinds = [True] * commits + [False] * (count - commits)
        rng.shuffle(kinds)
        ops, window = [], set()
        for position, kind in enumerate(kinds):
            if position % (2 * group) == 0:
                window.clear()
            index = pick(window)
            if workload.pipelined:
                window.add(index)
            ops.append(make((position // group) % 2, index, kind))
        return ops

    setup = [make(session, pick(), False) for session in (0, 1)]
    warmup = block(workload.warmup_ops,
                   round(workload.warmup_ops * workload.commit_share))
    timed = [block(workload.cycle_ops, workload.cycle_commits)
             for _ in range(cycles)]

    restarts, committed = [], []
    for _ in range(RESTARTS):
        commits = []
        for position in range(workload.restart_commits):
            index = pick(committed)      # every restart-phase key is new
            committed.append(index)
            commits.append(make((position // group) % 2, index, True))
        # The probe is the old session's first checkout after the kill.
        probe = make(commits[-1].session, committed[-1], False)
        restarts.append((commits, probe))
    readback = [make((position // group) % 2, index, False)
                for position, index in enumerate(committed)]
    return Stream(setup=setup, warmup=warmup, cycles=timed,
                  restarts=restarts, readback=readback,
                  sha256=digest.hexdigest())
