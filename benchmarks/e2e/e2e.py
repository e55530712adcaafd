"""One end-to-end run: set-up, warm-up, timed cycles, restart phase,
read-back and correctness gates, all against a server *process*, driven
over loopback TCP from this single-threaded process with the real
verifying clients.  Tracing is off throughout."""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field, replace

from repro.crypto.signatures import Signer, Verifier
from repro.mtree.database import ReadQuery, WriteQuery
from repro.mtree.forest import StoreSpec
from repro.net import (
    PipelinedRemoteClient,
    RemoteClient,
    RemoteClientP1,
    RetryPolicy,
    count_sync_check,
    sync_check,
)

import launcher
from harness import (
    CountingSocket,
    ServerProcess,
    Slicer,
    WorkDir,
    io_stall_us,
    pick_cpus,
    stolen_ticks,
)
from streams import Stream, Workload, generate
from timebase import median, normalise

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
USERS = ("alice", "bobby")
HOST = "127.0.0.1"
SETUPS = 3
#: calibration points on either side of a set-up or a restart; a
#: one-off a quarter of a second long has no slices inside it, and the
#: speed switches faster than that.
ONE_OFF_POINTS = 6


class TimedPipelinedClient(PipelinedRemoteClient):
    """Stamps the moment each pipelined answer is verified and folded
    into the registers -- the end of an operation's latency, which
    ``drain()`` alone does not expose per operation."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.verified_ns: list[int] = []

    def _absorb(self, query, request, response):
        answer = super()._absorb(query, request, response)
        self.verified_ns.append(time.perf_counter_ns())
        return answer


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def gate(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def query_of(op):
    """The database query an op stands for."""
    return (WriteQuery(op.key, op.value) if op.is_commit
            else ReadQuery(op.key))


def store_spec(workload: Workload):
    """The store shape as the verifying clients want it."""
    if workload.shards > 1:
        return StoreSpec(order=launcher.ORDER, shards=workload.shards)
    return launcher.ORDER


def protocol1_keys(seed_offset: int = 0):
    """The two users' RSA-1024 signers and a verifier knowing both."""
    signers = {user: Signer.generate(
        user, bits=launcher.P1_KEY_BITS,
        seed=launcher.P1_KEY_SEEDS[user] + seed_offset) for user in USERS}
    return signers, Verifier(
        {user: signer.public_key for user, signer in signers.items()})


class Deployment:
    """The server process plus the two verified sessions of one run."""

    def __init__(self, workload: Workload, initial_root, cpus) -> None:
        self.workload = workload
        self.initial_root = initial_root
        self.own_cpu, self.server_cpu = cpus
        self.spec = store_spec(workload)
        self.wire = [0, 0]                       # bytes sent, received
        #: the server process; None while the traced run serves from a
        #: thread of this process instead
        self.server: ServerProcess | None = None
        self.port = 0
        self.sessions: list = []
        if workload.protocol == 1:
            self.signers, self.verifier = protocol1_keys()

    def spawn(self, data_dir: str, port: int = 0) -> None:
        self.server = ServerProcess(self.workload.launcher_args(), data_dir,
                                    port=port, cpu=self.server_cpu)
        self.port = self.server.port

    def connect(self, index: int):
        """A new session object for user ``index`` (first connect)."""
        user = USERS[index]
        port = self.port
        if self.workload.protocol == 1:
            client = RemoteClientP1(HOST, port, user, self.signers[user],
                                    self.verifier, order=self.spec,
                                    op_timeout=60.0)
        else:
            cls = (TimedPipelinedClient if self.workload.pipelined
                   else RemoteClient)
            client = cls(HOST, port, user, self.initial_root,
                         order=self.spec, op_timeout=60.0,
                         retry=RetryPolicy(jitter=0.0, seed=0))
        # The one private attribute the driver touches: the clients open
        # their sockets themselves, and bytes on the wire have to be
        # counted where they pass.
        client._sock = CountingSocket.adopt(client._sock, self.wire)
        return client

    def connect_all(self) -> None:
        self.sessions = [self.connect(index) for index in range(len(USERS))]

    def disconnect_all(self) -> None:
        for client in self.sessions:
            client.close()

    def resume(self, index: int) -> None:
        """Put session ``index`` back on a restarted server.  A Protocol
        II client reconnects by itself on its next operation (``close``
        dropped the socket); a Protocol I client never reconnects, so
        the same user's counters move to a new connection."""
        if self.workload.protocol == 1:
            old = self.sessions[index]
            new = self.connect(index)
            new.lctr, new.gctr = old.lctr, old.gctr
            self.sessions[index] = new

    def run_op(self, op, tally: Tally) -> None:
        """One untimed stop-and-wait operation."""
        client = self.sessions[op.session]
        tally.attempted += 1
        if op.is_commit:
            client.put(op.key, op.value)
        elif client.get(op.key) != op.expect:
            tally.failed += 1

    def settle(self) -> None:
        """Wait until the server has absorbed the last follow-up.  A
        Protocol I client returns once its signature is *sent*; without
        this the 245 bytes the server logs for it fall into this cycle's
        byte count or the next one's, as the race goes."""
        if self.workload.protocol == 1 and self.server is not None:
            self.server.ask("quiesce", "quiesced")

    def stop(self) -> dict | None:
        self.disconnect_all()
        if self.server is None:
            return None
        usage = self.server.terminate()
        self.server = None
        return usage


def _probe(deployment: Deployment, closing: bool):
    """Clock and counter readings at a cycle boundary; the wall clock is
    read nearest the timed work on either side."""
    server = deployment.server
    if closing:
        wall = time.perf_counter_ns()
        cpu = time.process_time_ns()
    readings = (server.cpu_ns() if server else 0, io_stall_us(),
                stolen_ticks({deployment.own_cpu, deployment.server_cpu}),
                server.wchar() if server else 0,
                deployment.wire[0] + deployment.wire[1])
    if not closing:
        cpu = time.process_time_ns()
        wall = time.perf_counter_ns()
    return (wall, cpu) + readings


def _cycle_stop_and_wait(deployment, ops, slicer, tally, commits, checkouts):
    clock = time.perf_counter_ns
    sessions = deployment.sessions
    every = deployment.workload.slice_every
    for position, op in enumerate(ops):
        if position % every == 0:
            slicer.point()
        client = sessions[op.session]
        if op.value is not None:
            started = clock()
            client.put(op.key, op.value)
            commits[op.session].append(clock() - started)
        else:
            started = clock()
            answer = client.get(op.key)
            checkouts[op.session].append(clock() - started)
            if answer != op.expect:
                tally.failed += 1
    tally.attempted += len(ops)


def _cycle_pipelined(deployment, ops, slicer, tally, commits, checkouts):
    clock = time.perf_counter_ns
    sessions = deployment.sessions
    group = deployment.workload.group
    for start in range(0, len(ops), 2 * group):
        slicer.point()
        window = ops[start:start + 2 * group]
        for client in sessions:
            client.verified_ns.clear()
        submitted = []
        for op in window:
            query = query_of(op)
            submitted.append(clock())
            sessions[op.session].submit(query)
        answers = {index: iter(client.drain())
                   for index, client in enumerate(sessions)}
        verified = {index: iter(client.verified_ns)
                    for index, client in enumerate(sessions)}
        for op, began in zip(window, submitted):
            answer = next(answers[op.session])
            latency = next(verified[op.session]) - began
            if op.value is not None:
                commits[op.session].append(latency)
            else:
                checkouts[op.session].append(latency)
                if answer != op.expect:
                    tally.failed += 1
    tally.attempted += len(ops)


def measure_blocks(deployment, blocks, slicer: Slicer, tally: Tally,
                   before_block=None):
    """Run and time each block of ops (a cycle, in the end-to-end run);
    returns one record per block."""
    run_cycle = (_cycle_pipelined if deployment.workload.pipelined
                 else _cycle_stop_and_wait)
    records = []
    for index, ops in enumerate(blocks):
        commits: list[list[int]] = [[] for _ in USERS]     # per session
        checkouts: list[list[int]] = [[] for _ in USERS]
        if before_block is not None:
            before_block(index)
        slicer.reset()
        deployment.settle()
        before = _probe(deployment, closing=False)
        run_cycle(deployment, ops, slicer, tally, commits, checkouts)
        deployment.settle()
        slicer.point()
        after = _probe(deployment, closing=True)
        cal = slicer.take()
        wall = (after[0] - before[0] - cal["wall_ns"]) / 1e9
        client_cpu = (after[1] - before[1] - cal["cpu_ns"]) / 1e9
        server_cpu = (after[2] - before[2]) / 1e9
        # The driver's own fsync slices stall on the disk too.
        io_wait = max(0.0, (after[3] - before[3]) / 1e6
                      - sum(cal["io_slices_ns"]) / 1e9)
        stolen = (after[4] - before[4]) / CLOCK_TICKS
        norm = normalise(wall, [(client_cpu, cal["f_client"]),
                                (server_cpu, cal["f_server"]),
                                (io_wait, cal["f_io"])], stolen)
        records.append({
            "ops": len(ops), "wall_s": wall, "norm_s": norm,
            "client_cpu_s": client_cpu, "server_cpu_s": server_cpu,
            "io_wait_s": io_wait, "stolen_s": stolen,
            "f_client": cal["f_client"], "f_server": cal["f_server"],
            "f_io": cal["f_io"],
            "cpu_slices_ns": cal["cpu_slices_ns"],
            "disk_bytes": after[5] - before[5],
            "wire_bytes": after[6] - before[6],
            "commit_ns": commits, "checkout_ns": checkouts,
        })
    return records


def _timed_one_off(deployment, slicer: Slicer, action) -> float:
    """Time ``action`` (a set-up or a restart) at reference speed, with
    calibration points immediately before and after it."""
    cpus = {deployment.own_cpu, deployment.server_cpu}
    slicer.reset()
    for _ in range(ONE_OFF_POINTS):
        slicer.point()
    io_stall = io_stall_us()
    stolen = stolen_ticks(cpus)
    wall = time.perf_counter_ns()
    cpu = time.process_time_ns()
    action()
    cpu = time.process_time_ns() - cpu
    wall = time.perf_counter_ns() - wall
    stolen = stolen_ticks(cpus) - stolen
    io_stall = io_stall_us() - io_stall
    server_cpu = deployment.server.cpu_ns()     # since the process began
    for _ in range(ONE_OFF_POINTS):
        slicer.point()
    cal = slicer.take()
    return normalise(wall / 1e9, [(cpu / 1e9, cal["f_client"]),
                                  (server_cpu / 1e9, cal["f_server"]),
                                  (io_stall / 1e6, cal["f_io"])],
                     stolen / CLOCK_TICKS)


def reference_root(workload: Workload, stream: Stream | None):
    """Root of an in-process replay: the preloaded store with every
    commit of the stream applied.  Checkouts leave the tree alone, and
    commits only overwrite existing files, so the root depends on the
    final contents and not on how the server interleaved two sessions."""
    database = launcher.build_database(workload.files, workload.shards)
    if stream is not None:
        for op in stream.all_ops():
            if op.is_commit:
                database.mtree.insert(op.key, op.value)
    return database.root_digest()


def run(workload: Workload, seed: int, cycles: int,
        quick: bool = False) -> dict:
    """The whole end-to-end run; returns metrics, samples and verdict.
    ``quick`` (the smoke test) keeps every gate but sets up once and
    restarts twice."""
    stream = generate(workload, seed, cycles)
    if quick:
        kept = 2 * workload.restart_commits
        stream = replace(stream, restarts=stream.restarts[:2],
                         readback=stream.readback[:kept])
    initial_root = reference_root(workload, None)
    cpus = pick_cpus()
    deployment = Deployment(workload, initial_root, cpus)
    tally = Tally()
    with WorkDir() as work:
        slicer = Slicer(*cpus, scratch=os.path.join(work.path, "io-slices"),
                        repeat=workload.slices_per_point)
        gc.collect()
        gc.freeze()
        try:
            return _run(workload, stream, deployment, slicer, tally, work,
                        setups=1 if quick else SETUPS)
        finally:
            ServerProcess.kill_all()
            slicer.close()
            gc.unfreeze()


def _run(workload, stream, deployment, slicer, tally, work, setups) -> dict:
    phases = {}
    mark = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    # -- set-up: one untimed spawn warms the page cache, then the median
    # of three set-ups into fresh directories; the last one is kept.
    if setups > 1:
        deployment.spawn(work.fresh())
        deployment.stop()
    setup_times = []
    for attempt in range(setups):
        data_dir = work.fresh()

        def set_up() -> None:
            deployment.spawn(data_dir)
            deployment.connect_all()
            for op in stream.setup:
                deployment.run_op(op, tally)

        setup_times.append(_timed_one_off(deployment, slicer, set_up))
        if attempt + 1 < setups:
            deployment.stop()
    discarded_ops = tally.attempted - len(stream.setup)
    phase("setup_s")

    for op in stream.warmup:
        deployment.run_op(op, tally)
    deployment.wire[0] = deployment.wire[1] = 0

    phase("warmup_s")
    cycles = measure_blocks(deployment, stream.cycles, slicer, tally)
    phase("cycles_s")

    # -- restart phase: commits past the last checkpoint, quiesce,
    # SIGKILL, respawn, first verified checkout on the old session.
    restarts = []
    for commits, probe in stream.restarts:
        deployment.server.ask("checkpoint", "checkpointed")
        for op in commits:
            deployment.run_op(op, tally)
        tally.gate(deployment.server.ask("quiesce", "quiesced")["ok"],
                   "quiesce timed out before a kill")
        deployment.disconnect_all()
        deployment.server.kill()

        def restart() -> None:
            deployment.spawn(data_dir, port=deployment.port)
            deployment.resume(probe.session)
            deployment.run_op(probe, tally)

        failed_before = tally.failed
        restarts.append(_timed_one_off(deployment, slicer, restart))
        tally.gate(tally.failed == failed_before,
                   "an acked commit was missing right after a SIGKILL")
        tally.gate(deployment.server.ready["recovered"]
                   and deployment.server.ready["replayed"] > 0,
                   "the restarted server did not replay its log")
        deployment.resume(1 - probe.session)

    phase("restarts_s")
    failed_before = tally.failed
    for op in stream.readback:
        deployment.run_op(op, tally)
    tally.gate(tally.failed == failed_before,
               "an acked commit was missing in the final read-back")

    # -- gates
    if workload.protocol == 1:
        tally.gate(count_sync_check(
            {c.user_id: c.counts() for c in deployment.sessions}),
            "count_sync_check failed")
    else:
        tally.gate(sync_check(deployment.initial_root, {
            c.user_id: c.registers() for c in deployment.sessions}),
            "sync_check failed")
    deployment.server.ask("quiesce", "quiesced")
    view = deployment.server.ask("root", "root")
    tally.gate(view["root"] == reference_root(workload, stream).hex(),
               "final server root differs from the reference replay")
    issued = tally.attempted - discarded_ops
    tally.gate(view["ctr"] == issued,
               f"server executed {view['ctr']} ops, driver issued {issued}")
    tally.gate(tally.failed == 0, f"{tally.failed} answers were wrong")
    usage = deployment.stop()
    phase("readback_and_gates_s")

    return {
        "workload": workload.name, "stream_sha256": stream.sha256,
        "correct": not tally.problems, "problems": tally.problems,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": summarise(cycles, setup_times, restarts),
        "cycles": cycles, "setups_s": setup_times, "restarts_s": restarts,
        "phases_s": phases, "server_usage": usage,
    }


def server_cpu_ms_per_op(cycles) -> float:
    """CPU of the server process per op, median over cycles at the
    speed of its own CPU.  Not an end-to-end metric: a Protocol I server
    runs a millisecond in every 44, each time on a CPU just out of idle,
    and ten runs of the same code spread over 8 to 22 %.  The traced run
    reports it as ``harness.server_cpu_ms_per_op``."""
    return median(c["server_cpu_s"] * c["f_server"] / c["ops"] * 1e3
                  for c in cycles)


def summarise(cycles, setups, restarts) -> dict:
    """The end-to-end metrics as ``name -> (value, unit, samples)``.
    Every time is a median over cycles at reference speed; the byte
    counts are exact totals."""
    ops = cycles[0]["ops"]
    total_ops = sum(c["ops"] for c in cycles)

    def latency_ms(kind: str) -> tuple[float, int]:
        """Per cycle, the median latency of each session averaged over
        the sessions (in a pipelined window the second session's answers
        queue behind the first's, and the median of the two clusters
        together would jump between them), at the cycle's speed."""
        per_cycle = [
            sum(median(session) for session in c[kind]) / len(c[kind]) / 1e6
            * c["norm_s"] / c["wall_s"]
            for c in cycles if all(c[kind])]
        return median(per_cycle), sum(len(session) for c in cycles
                                      for session in c[kind])

    commit_ms, commit_n = latency_ms("commit_ns")
    checkout_ms, checkout_n = latency_ms("checkout_ns")
    n = len(cycles)
    return {
        "setup_s": (median(setups), "s", len(setups)),
        "ops_per_s": (ops / median(c["norm_s"] for c in cycles), "1/s", n),
        "commit_p50_ms": (commit_ms, "ms", commit_n),
        "checkout_p50_ms": (checkout_ms, "ms", checkout_n),
        "client_cpu_ms_per_op": (median(
            c["client_cpu_s"] * c["f_client"] / c["ops"] * 1e3
            for c in cycles), "ms", n),
        "wire_bytes_per_op": (
            sum(c["wire_bytes"] for c in cycles) / total_ops, "B", total_ops),
        "disk_bytes_per_op": (
            sum(c["disk_bytes"] for c in cycles) / total_ops, "B", total_ops),
        "restart_s": (sum(restarts), "s", len(restarts)),
    }
