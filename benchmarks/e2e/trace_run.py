"""The traced run: where one operation's time goes, layer by layer.

Nothing is patched.  Three steps, the last two in this process on one CPU,
over the first quarter of the workload's stream:

0. the deployment is started once as a process and driven through the
   same cycles, to read the server's resident set size and CPU time;
1. the real clients run against the real front-end serving from a
   thread, in blocks of 32 ops with ``repro.obs`` alternately off and
   on: the off blocks give the traced operation time
   (``net.client.op_us``), the on blocks the counts, and their ratio the
   tracing overhead;
2. a lock-step replay walks each op by hand through the layers' public
   functions -- encode, frame over a socketpair, decode, the durable
   ``ServerCore``, response encode/decode, ``derive_outcome``, register
   update or RSA verify and sign.  Layers the core calls internally are
   timed on stand-alone twins fed the same ops in the same batches, and
   the twins must end on the core's root.

One span is recorded per call.  A layer's self time is its spans'
duration minus that of their children; what the real front-end takes
beyond the sum of all self times is ``net.frontend.unattributed_us``.
"""

from __future__ import annotations

import gc
import json
import os
import socket
import time

from repro import obs
from repro.crypto.hashing import Digest, hash_state, hash_tagged_state
from repro.mtree.database import WriteQuery
from repro.mtree.forest import shard_for_key
from repro.net import serve_async_in_thread, serve_in_thread
from repro.net.core import DedupTable, ServerCore
from repro.net.framing import recv_message, send_message
from repro.net.wal import open_server_store
from repro.protocols.base import Followup, Request, ServerState
from repro.protocols.protocol1 import Protocol1Server, bootstrap_server_state
from repro.protocols.protocol2 import Protocol2Server
from repro.protocols.verify import derive_outcome
from repro.storage.engine import load_shard_tree
from repro.storage.faults import IoShim
from repro.storage.pagestore import open_page_store
from repro.wire import decode, encode

import e2e
import launcher
from harness import ServerProcess, Slicer, WorkDir, pick_cpus
from streams import SNAPSHOT_EVERY, Workload, generate
from timebase import median, percentile, quartile_spread

BLOCK_OPS = 32
clock = time.perf_counter_ns


# -- spans ---------------------------------------------------------------------

class Spans:
    """Every span of the replay, in memory until the run ends."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []    # (name, start, end, parent, trace_id)

    def call(self, name: str, parent, trace_id: str, function, *args):
        """Run ``function(*args)`` inside a span; returns (result, id)."""
        start = clock()
        result = function(*args)
        end = clock()
        self.rows.append((name, start, end, parent, trace_id))
        return result, len(self.rows) - 1

    def add(self, name: str, start: int, end: int, parent, trace_id) -> int:
        self.rows.append((name, start, end, parent, trace_id))
        return len(self.rows) - 1

    def self_times(self, first: int = 0) -> dict[str, int]:
        """Self time per span name over the spans from ``first`` on."""
        durations = [end - start for _n, start, end, _p, _t in self.rows]
        children = [0] * len(self.rows)
        for index in range(first, len(self.rows)):
            parent = self.rows[index][3]
            if parent is not None:
                children[parent] += durations[index]
        totals: dict[str, int] = {}
        for index in range(first, len(self.rows)):
            name = self.rows[index][0]
            totals[name] = totals.get(name, 0) + (
                durations[index] - children[index])
        return totals

    def write(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": [
                {"id": index, "name": name, "start_ns": start, "end_ns": end,
                 "parent": parent, "trace_id": trace_id}
                for index, (name, start, end, parent, trace_id)
                in enumerate(self.rows)]}, handle)
            handle.write("\n")


class CountingIo(IoShim):
    """The production I/O shim, counting bytes and stamping every wait
    on the disk: each fsync (of the log, or of a snapshot and its
    directory) and the page store's COMMIT, which its hooks bracket.
    The core gets one, so disk waits are read off the real calls."""

    def __init__(self) -> None:
        self.bytes = 0
        self.waits: list[tuple[str, int, int]] = []   # (span name, start, end)
        self._commit_started = 0

    def open(self, path: str, mode: str):
        name = ("net.wal.fsync" if os.path.basename(path) == "wal.log"
                else "net.wal.snapshot_fsync")
        return _CountingFile(self, super().open(path, mode), name)

    def fsync_dir(self, path: str) -> None:
        start = clock()
        super().fsync_dir(path)
        self.waits.append(("net.wal.snapshot_fsync", start, clock()))

    def pre_commit(self, path: str) -> None:
        self._commit_started = clock()

    def crash_point(self, name: str) -> None:
        if name == "pagestore:post-commit":
            self.waits.append(("storage.pagestore.commit",
                               self._commit_started, clock()))


class _CountingFile:
    def __init__(self, io: CountingIo, handle, wait_name: str) -> None:
        self._io = io
        self._handle = handle
        self._wait_name = wait_name

    def write(self, data: bytes) -> int:
        self._io.bytes += len(data)
        return self._handle.write(data)

    def fsync(self) -> None:
        start = clock()
        self._handle.fsync()
        self._io.waits.append((self._wait_name, start, clock()))

    def __getattr__(self, name: str):
        return getattr(self._handle, name)


class MemoryIo(CountingIo):
    """The twin store's shim: every file lives in memory.  The twin
    times the CPU the log and the snapshot cost; were it to write
    beside the core, each of the core's fsyncs would have the twin's
    dirty pages to flush as well (ext4 orders data before the commit)
    and read twice as long as in the deployment."""

    def __init__(self) -> None:
        super().__init__()
        self.files: dict[str, bytearray] = {}

    def open(self, path: str, mode: str):
        if "a" not in mode:
            self.files[path] = bytearray()
        return _MemoryFile(self, self.files.setdefault(path, bytearray()))

    def read_file(self, path: str) -> bytes:
        return bytes(self.files[path])

    def replace(self, src: str, dst: str) -> None:
        self.files[dst] = self.files.pop(src)

    def remove(self, path: str) -> None:
        self.files.pop(path, None)

    def fsync_dir(self, path: str) -> None:
        pass

    def truncate_file(self, path: str, size: int) -> None:
        del self.files[path][size:]


class _MemoryFile:
    closed = False

    def __init__(self, io: MemoryIo, content: bytearray) -> None:
        self._io = io
        self._content = content

    def write(self, data: bytes) -> int:
        self._io.bytes += len(data)
        self._content += data
        return len(data)

    def tell(self) -> int:
        return len(self._content)

    def truncate(self, size: int) -> None:
        del self._content[size:]

    def flush(self) -> None:
        pass

    fsync = flush

    def close(self) -> None:
        self.closed = True


# -- step 0: the server process from outside ------------------------------------------

def _server_process(workload: Workload, stream, cycles, initial_root,
                    work: WorkDir) -> tuple:
    """Peak and final resident set (MB) and CPU per op (ms) of the
    deployed server over ``cycles``, measured as the end-to-end run
    measures its cycles."""
    deployment = e2e.Deployment(workload, initial_root, pick_cpus())
    slicer = Slicer(deployment.own_cpu, deployment.server_cpu,
                    scratch=os.path.join(work.path, "io-slices-0"),
                    repeat=workload.slices_per_point)
    tally = e2e.Tally()
    try:
        deployment.spawn(work.fresh())
        deployment.connect_all()
        for op in stream.setup + stream.warmup:
            deployment.run_op(op, tally)
        records = e2e.measure_blocks(deployment, cycles, slicer, tally)
        rss_peak, rss_end = deployment.server.rss_mb()
        deployment.stop()
    finally:
        ServerProcess.kill_all()
        slicer.close()
    if tally.failed:
        raise RuntimeError("wrong answers from the server process")
    return rss_peak, rss_end, e2e.server_cpu_ms_per_op(records)


# -- step 1: real clients, real front-end, obs off and on ----------------------------

def _serve_in_thread(workload: Workload, data_dir: str, deployment):
    options = dict(order=launcher.ORDER, data_dir=data_dir,
                   shards=workload.shards, backend=workload.backend)
    database = launcher.build_database(workload.files, workload.shards)
    if workload.protocol == 1:
        state = ServerState(database=database)
        bootstrap_server_state(state, deployment.signers["alice"])
        options.update(state=state, protocol=Protocol1Server())
    else:
        options["database"] = database
    if workload.frontend == "async":
        return serve_async_in_thread(**options)
    return serve_in_thread(**options)


def _real_path(workload, warm, blocks, work, deployment, slicer):
    """Step 1; returns (off records, on records, obs counts)."""
    server = _serve_in_thread(workload, work.fresh(), deployment)
    deployment.server = None
    deployment.port = server.address[1]
    deployment.connect_all()
    tally = e2e.Tally()
    obs.disable()
    obs.reset()
    for op in warm:
        deployment.run_op(op, tally)

    # Off and on alternate, and swap at every cycle boundary: a block
    # that ends on a checkpoint is then off in one cycle and on in the
    # next, instead of always landing on the same side.
    per_cycle = workload.cycle_ops // BLOCK_OPS
    traced = [(index + index // per_cycle) % 2 == 1
              for index in range(len(blocks))]

    def toggle(index: int) -> None:
        (obs.enable if traced[index] else obs.disable)()

    try:
        records = e2e.measure_blocks(deployment, blocks, slicer, tally, toggle)
    finally:
        obs.disable()
        deployment.disconnect_all()
        server.stop()
    if tally.failed:
        raise RuntimeError("wrong answers on the traced real path")
    registry = obs.registry

    def total(name: str) -> float:
        metric = registry.get(name)
        if metric is None:
            return 0.0
        return (metric.total_count() if metric.kind == "histogram"
                else metric.total())

    batches = registry.get("server.batch_size")
    counts = {
        "batch_size_mean": (batches.mean() or 1.0) if batches else 1.0,
        "node_recomputations": total("mtree.node_recomputations"),
        "digest_cache_hits": total("mtree.digest_cache_hits"),
        "dedup_hits": total("server.dedup_hits"),
        "pages_written": total("storage.pages_written"),
        "page_bytes": total("storage.page_bytes_written"),
        "snapshots": total("server.snapshots"),
        "frames_sent": total("net.frames_sent"),
        "signatures": total("crypto.sign_ms"),
        "retries": total("net.retries"),
    }
    obs.reset()
    off = [r for r, on in zip(records, traced) if not on]
    on = [r for r, on in zip(records, traced) if on]
    return off, on, counts


# -- step 2: the lock-step replay ------------------------------------------------------

class Replay:
    """The durable core, its twins, and the hand-walked client."""

    def __init__(self, workload: Workload, work: WorkDir) -> None:
        self.workload = workload
        self.spans = Spans()
        self.spec = e2e.store_spec(workload)
        build = lambda: launcher.build_database(workload.files,  # noqa: E731
                                                workload.shards)
        self.core_io = CountingIo()
        self.twin_io = MemoryIo()
        self.core_dir = work.fresh()
        self.protocol = (Protocol1Server() if workload.protocol == 1
                         else Protocol2Server())
        self.twin_state = ServerState(database=build())
        options = dict(order=launcher.ORDER, data_dir=self.core_dir,
                       shards=workload.shards, backend=workload.backend,
                       io=self.core_io)
        if workload.protocol == 1:
            # Its own keys: RSA verdicts are memoised per process, and
            # with step 1's keys every signature here would be one that
            # step 1 already verified.
            self.signers, self.verifier = e2e.protocol1_keys(100)
            state = ServerState(database=build())
            for each in (state, self.twin_state):
                bootstrap_server_state(each, self.signers["alice"])
            self.core = ServerCore(state=state, protocol=Protocol1Server(),
                                   **options)
        else:
            self.protocol.initialize(self.twin_state)
            self.core = ServerCore(database=build(), **options)
        self.twin_db = build()
        self.twin_dedup = DedupTable()
        self.twin_store = open_server_store(
            work.fresh(), backend=workload.backend, fsync=False,
            io=self.twin_io)
        self.twin_store.write_snapshot(self.twin_state, {})
        self.core_io.waits.clear()
        self.client_side, self.server_side = socket.socketpair()
        self.logged = 0                     # messages since the checkpoint
        self.round_no = 0
        self.seq = {user: 0 for user in e2e.USERS}
        self.registers = {user: {"sigma": Digest.zero(), "gctr": 0, "lctr": 0}
                          for user in e2e.USERS}
        self.request_bytes = self.response_bytes = 0
        self.vo_digests = 0
        self.ops = 0
        self.wrong = 0
        self.snapshots = 0
        self.dirty_shards = 0
        self.wal_bytes = self.wal_fsyncs = self.snapshot_bytes = 0
        self._touched: set[int] = set()

    # .. one leg over the socketpair, with encode and decode as children

    def _leg(self, message, sender, receiver, parent, trace_id):
        spans = self.spans

        def over_the_wire():
            send_message(sender, message)
            return recv_message(receiver)

        received, leg = spans.call("net.framing.send_recv", parent, trace_id,
                                   over_the_wire)
        payload, _ = spans.call("wire.encode", leg, trace_id, encode, message)
        spans.call("wire.decode", leg, trace_id, decode, payload)
        return received, len(payload)

    # .. what the core does inside apply_*, on the twins

    def _core_waits(self, parent, trace_id) -> None:
        """The disk waits of the core call just made, as its children."""
        for name, start, end in self.core_io.waits:
            self.spans.add(name, start, end, parent, trace_id)
            self.wal_fsyncs += name == "net.wal.fsync"
        self.core_io.waits.clear()

    def _twin_log(self, messages, parent, trace_id) -> None:
        bytes_before = self.twin_io.bytes
        for message in messages:
            self.spans.call("net.wal.append", parent, trace_id,
                            self.twin_store.wal_append, message)
        self.wal_bytes += self.twin_io.bytes - bytes_before
        self.logged += len(messages)

    def _twin_execute(self, user, request, parent, trace_id):
        self.round_no += 1
        response, step = self.spans.call(
            "protocols.server_step", parent, trace_id,
            self.protocol.handle_request, user, request, self.twin_state,
            self.round_no)
        self.spans.call("mtree.execute", step, trace_id,
                        self.twin_db.execute, request.query)
        if isinstance(request.query, WriteQuery):
            self._touched.add(shard_for_key(request.query.key,
                                            self.workload.shards))
        return response, step

    def _twin_refresh(self, parent, trace_id) -> None:
        self.spans.call("mtree.refresh_root", parent, trace_id,
                        self.twin_db.mtree.refresh_root)

    def _twin_snapshot(self, parent, trace_id) -> None:
        if self.logged < SNAPSHOT_EVERY:
            return
        self.logged = 0
        bytes_before = self.twin_io.bytes
        self.spans.call("net.wal.snapshot", parent, trace_id,
                        self.twin_store.write_snapshot, self.twin_state,
                        self.twin_dedup.export())
        self.snapshot_bytes += self.twin_io.bytes - bytes_before
        self.snapshots += 1
        self.dirty_shards += len(self._touched)
        self._touched.clear()

    def _twin_dedup(self, entries, responses, parent, trace_id) -> None:
        def dedup():
            for (user, request), response in zip(entries, responses):
                rid = request.extras.get("rid")
                if rid is not None:
                    self.twin_dedup.lookup(user, rid)
                    self.twin_dedup.record(user, rid, response)

        self.spans.call("net.core.dedup", parent, trace_id, dedup)

    # .. the client's half, by hand

    def _verify(self, op, user, response, parent, trace_id):
        spans = self.spans
        registers = self.registers[user]
        query = e2e.query_of(op)
        followup = None

        def verify():
            nonlocal followup
            ctr = int(response.extras["ctr"])
            last_user = response.extras["last_user"]
            if ctr < registers["gctr"]:
                raise RuntimeError("operation counter regressed in replay")
            outcome, _ = spans.call("mtree.derive_outcome", here, trace_id,
                                    derive_outcome, query, response.result,
                                    self.spec)
            if self.workload.protocol == 1:
                accepted, _ = spans.call(
                    "crypto.rsa_verify", here, trace_id,
                    self.verifier.verify, response.extras["sig"],
                    hash_state(outcome.old_root, ctr))
                if not accepted:
                    raise RuntimeError("illegitimate signature in replay")
                signature, _ = spans.call(
                    "crypto.rsa_sign", here, trace_id,
                    self.signers[user].sign,
                    hash_state(outcome.new_root, ctr + 1))
                registers["lctr"] += 1
                followup = Followup(extras={"sig": signature, "user": user})
            else:
                def tags():
                    return (hash_tagged_state(outcome.old_root, ctr, last_user),
                            hash_tagged_state(outcome.new_root, ctr + 1, user))

                (old_tag, new_tag), _ = spans.call(
                    "crypto.hash_tagged_state", here, trace_id, tags)
                registers["sigma"] = registers["sigma"] ^ old_tag ^ new_tag
            registers["gctr"] = ctr + 1
            return outcome.answer

        # The verify span is opened by hand so its children can name it.
        here = len(spans.rows)
        spans.rows.append(None)
        start = clock()
        answer = verify()
        spans.rows[here] = ("protocols.client_verify", start, clock(), parent,
                            trace_id)
        if op.value is None and answer != op.expect:
            self.wrong += 1
        self.vo_digests += response.result.proof.size_digests()
        return followup

    def _request(self, op):
        user = e2e.USERS[op.session]
        trace_id = f"{user}:{self.seq[user]}"
        self.seq[user] += 1
        extras = {"user": user}
        if self.workload.protocol == 2:
            extras["rid"] = f"{user}:replay00:{self.seq[user] - 1}"
        return user, trace_id, Request(query=e2e.query_of(op), extras=extras)

    # .. one op through the per-request path (threaded front-end, or
    # the async one at batch 1).  The real calls come first; the twin
    # work they owe is returned and run once the block's real calls are
    # done, so that the twins' trees do not push the core's out of the
    # caches between one real call and the next.

    def run_single(self, op) -> list:
        spans = self.spans
        user, trace_id, request = self._request(op)
        root = spans.add("op", clock(), 0, None, trace_id)
        received, size = self._leg(request, self.client_side, self.server_side,
                                   root, trace_id)
        self.request_bytes += size
        if self.workload.frontend == "async":
            (response,), apply = spans.call(
                "net.core.apply", root, trace_id, self.core.apply_batch,
                [(user, received)])
        else:
            response, apply = spans.call(
                "net.core.apply", root, trace_id, self.core.apply_request,
                user, received)
        self._core_waits(apply, trace_id)
        owed = [("requests", [(user, received)], [trace_id], apply)]
        answered, size = self._leg(response, self.server_side,
                                   self.client_side, root, trace_id)
        self.response_bytes += size
        followup = self._verify(op, user, answered, root, trace_id)
        if followup is not None:
            absorbed, size = self._leg(followup, self.client_side,
                                       self.server_side, root, trace_id)
            self.request_bytes += size
            _, apply = spans.call("net.core.apply", root, trace_id,
                                  self.core.apply_followup, user, absorbed)
            self._core_waits(apply, trace_id)
            owed.append(("followup", user, absorbed, trace_id, apply))
        self._close(root)
        self.ops += 1
        return owed

    # .. a batch through apply_batch (async front-end under a window)

    def run_batch(self, ops) -> list:
        spans = self.spans
        entries, roots, ids = [], [], []
        for op in ops:
            user, trace_id, request = self._request(op)
            root = spans.add("op", clock(), 0, None, trace_id)
            received, size = self._leg(request, self.client_side,
                                       self.server_side, root, trace_id)
            self.request_bytes += size
            entries.append((user, received))
            roots.append(root)
            ids.append(trace_id)
        responses, apply = spans.call("net.core.apply", roots[0], ids[0],
                                      self.core.apply_batch, entries)
        self._core_waits(apply, ids[0])
        for op, (user, _request), response, root, trace_id in zip(
                ops, entries, responses, roots, ids):
            answered, size = self._leg(response, self.server_side,
                                       self.client_side, root, trace_id)
            self.response_bytes += size
            self._verify(op, user, answered, root, trace_id)
            self._close(root)
        self.ops += len(ops)
        return [("requests", entries, ids, apply)]

    def run_twins(self, owed: list) -> None:
        """What the core did inside the ``apply`` spans, on the twins."""
        for kind, *rest in owed:
            if kind == "followup":
                user, absorbed, trace_id, apply = rest
                self._twin_log([absorbed], apply, trace_id)
                self.round_no += 1
                self.spans.call("protocols.server_step", apply, trace_id,
                                self.protocol.handle_followup, user, absorbed,
                                self.twin_state, self.round_no)
                self._twin_snapshot(apply, trace_id)
                continue
            entries, ids, apply = rest
            self._twin_log([request for _user, request in entries], apply,
                           ids[0])
            responses = []
            for (user, request), trace_id in zip(entries, ids):
                response, step = self._twin_execute(user, request, apply,
                                                    trace_id)
                responses.append(response)
            if len(entries) == 1 and self.workload.frontend != "async":
                # Per request the refresh is lazy: the next execute pays
                # it, so it belongs to the server step.
                self._twin_refresh(step, ids[0])
            else:
                self._twin_refresh(apply, ids[0])
                self.twin_state.database.mtree.refresh_root()
            self._twin_dedup(entries, responses, apply, ids[0])
            self._twin_snapshot(apply, ids[0])

    def warm_up(self, ops) -> None:
        """Bring the core and its twins to where the timed stream starts
        (one op at a time, as the end-to-end run does), then forget the
        spans and counts that took."""
        for op in ops:
            self.run_twins(self.run_single(op))
        self.spans.rows.clear()
        self.core_io.waits.clear()
        self.request_bytes = self.response_bytes = self.vo_digests = 0
        self.ops = self.snapshots = self.dirty_shards = 0
        self.wal_bytes = self.wal_fsyncs = self.snapshot_bytes = 0
        self._touched.clear()

    def run_untraced(self, op) -> None:
        """Apply ``op`` to the core alone (log filler before recovery)."""
        user, _trace_id, request = self._request(op)
        self.core.apply_request(user, request)
        if self.workload.protocol == 1:
            self.core.apply_followup(user, Followup(extras={"user": user}))

    def _close(self, root: int) -> None:
        name, start, _end, parent, trace_id = self.spans.rows[root]
        self.spans.rows[root] = (name, start, clock(), parent, trace_id)

    def roots_agree(self) -> bool:
        roots = {self.core.state.database.root_digest(),
                 self.twin_state.database.root_digest(),
                 self.twin_db.root_digest()}
        return len(roots) == 1

    def close(self) -> None:
        self.client_side.close()
        self.server_side.close()
        self.twin_store.close()
        self.core.close_store()


def _recovery(workload: Workload, replay: Replay, slicer: Slicer) -> dict:
    """Load and replay timings of the core's own directory."""
    options = dict(order=launcher.ORDER, data_dir=replay.core_dir,
                   shards=workload.shards, backend=workload.backend)
    expected = replay.core.state.database.root_digest()
    replay.close()
    slicer.reset()
    slicer.point()
    started = clock()
    core = ServerCore(protocol=(Protocol1Server() if workload.protocol == 1
                                else None), **options)
    recover_ns = clock() - started
    recovered = core.state.database.root_digest() == expected
    replayed = core.replayed_records
    core.close_store()
    # What recovery spent outside loading the snapshot is the replay.
    store = open_server_store(replay.core_dir, backend=workload.backend)
    started = clock()
    store.load_snapshot()
    load_ns = clock() - started
    store.close()
    engine_ns = 0
    if workload.backend == "sqlite":
        pages = open_page_store(replay.core_dir, readonly=True)
        started = clock()
        for shard in range(workload.shards):
            load_shard_tree(pages, shard, max(pages.generations(shard)))
        engine_ns = clock() - started
        pages.close()
    slicer.point()
    f = slicer.take()["f_client"]
    return {"load_ms": load_ns * f / 1e6, "engine_ms": engine_ns * f / 1e6,
            "replay_ms": max(0, recover_ns - load_ns) * f / 1e6,
            "recovered": recovered and replayed > 0}


# -- the run ----------------------------------------------------------------------------

def _norm_us_per_op(records) -> float:
    """Mean time per op over blocks, each block at reference speed."""
    ops = sum(r["ops"] for r in records)
    return sum(r["norm_s"] for r in records) / ops * 1e6


def run(workload: Workload, seed: int, cycles: int, results_dir: str) -> dict:
    stream = generate(workload, seed, cycles)
    # About a quarter of the stream, in an even number of cycles so
    # that checkpoints fall into off and on blocks equally often.
    traced = stream.cycles[:max(1, cycles // 8 * 2)]
    quarter = [op for cycle in traced for op in cycle]
    blocks = [quarter[start:start + BLOCK_OPS]
              for start in range(0, len(quarter), BLOCK_OPS)]
    blocks = blocks[:len(blocks) // 2 * 2]      # as many off as on
    own_cpu, _other = pick_cpus()
    initial_root = e2e.reference_root(workload, None)
    problems: list[str] = []
    with WorkDir() as work:
        rss_peak, rss_end, server_cpu_ms = _server_process(
            workload, stream, traced, initial_root, work)
        slicer = Slicer(own_cpu, own_cpu,
                        scratch=os.path.join(work.path, "io-slices"))
        deployment = e2e.Deployment(workload, initial_root, (own_cpu, own_cpu))
        gc.collect()
        gc.freeze()
        try:
            warm = stream.setup + stream.warmup
            off, on, counts = _real_path(workload, warm, blocks, work,
                                         deployment, slicer)
            batch = max(1, round(counts["batch_size_mean"]))
            replay = Replay(workload, work)
            replay.warm_up(warm)
            layers, f_replay = _replay_blocks(workload, replay, blocks, batch,
                                              slicer)
            if replay.wrong:
                problems.append(f"{replay.wrong} wrong answers in the replay")
            if not replay.roots_agree():
                problems.append("the twins did not end on the core's root")
            # Ops past the last checkpoint, so recovery has a log to replay.
            for op in stream.restarts[0][0]:
                replay.run_untraced(op)
            recovery = _recovery(workload, replay, slicer)
            if not recovery["recovered"]:
                problems.append("the core's directory did not recover")
        finally:
            slicer.close()
            gc.unfreeze()

    op_us = _norm_us_per_op(off)
    on_us = _norm_us_per_op(on)
    on_ops = sum(r["ops"] for r in on)
    # How long an fsync takes on this host depends on how long the disk
    # was left idle, and the replay leaves it idle longer than the front-
    # end does.  The disk spans keep their proportions but are scaled to
    # the stall the real path saw (the kernel's I/O pressure total).
    real_stall = (sum(r["io_wait_s"] * r["f_io"] for r in off)
                  / sum(r["ops"] for r in off) * replay.ops * 1e9)
    replay_stall = sum(layers.get(name, 0.0) for name in DISK_SPANS)
    if real_stall and replay_stall:
        for name in DISK_SPANS:
            layers[name] = layers.get(name, 0.0) * real_stall / replay_stall
    layers["net.wal.snapshot"] = (layers.get("net.wal.snapshot", 0.0)
                                  + layers.pop("net.wal.snapshot_fsync", 0.0))
    metrics = _layer_metrics(workload, replay, layers, counts, on_ops, op_us,
                             recovery)
    commit_ns = [x for r in off for session in r["commit_ns"] for x in session]
    checkout_ns = [x for r in off for session in r["checkout_ns"]
                   for x in session]
    cal = [x / 1e6 for r in off + on for x in r["cpu_slices_ns"]]
    busy = sum(r["client_cpu_s"] for r in off) / sum(r["wall_s"] for r in off)
    metrics.update({
        "net.client.op_us": op_us,
        "net.client.commit_p99_ms": percentile(commit_ns, 99) / 1e6,
        "net.client.checkout_p99_ms": percentile(checkout_ns, 99) / 1e6,
        "net.client.retries_per_op": counts["retries"] / on_ops,
        "server.rss_peak_mb": rss_peak,
        "server.rss_end_mb": rss_end,
        "harness.server_cpu_ms_per_op": server_cpu_ms,
        "harness.tracing_overhead_share": on_us / op_us - 1.0,
        "harness.cal_ms_p50": median(cal),
        "harness.cal_ms_iqr_share": quartile_spread(cal),
        "harness.busy_share": busy,
    })
    attributed = sum(metrics[name] for name in SELF_TIME_METRICS)
    metrics["net.frontend.unattributed_us"] = op_us - attributed
    metrics["harness.layer_sum_share"] = attributed / op_us
    replay.spans.write(
        os.path.join(results_dir, f"trace-{workload.name}.json"),
        {"workload": workload.name, "seed": seed, "ops": replay.ops,
         "batch": batch, "replay_speed_factor": f_replay})
    return {
        "workload": workload.name, "correct": not problems,
        "problems": problems, "attempted": replay.ops + sum(
            r["ops"] for r in off + on), "failed": replay.wrong,
        "metrics": {name: (value, unit_of(name), replay.ops)
                    for name, value in metrics.items()},
    }


def unit_of(name: str) -> str:
    """A per-layer metric's unit, as its name spells it."""
    if name.endswith("_share"):
        return "share"
    for marker, unit in (("_us", "us"), ("_ms", "ms"), ("_mb", "MB"),
                         ("bytes", "B")):
        if marker in name:
            return unit
    return "count"


#: spans that wait on the disk rather than run on the CPU
DISK_SPANS = ("net.wal.fsync", "net.wal.snapshot_fsync",
              "storage.pagestore.commit")

#: the self times that, with ``net.frontend.unattributed_us``, add up to
#: ``net.client.op_us``
SELF_TIME_METRICS = (
    "wire.encode_us", "wire.decode_us", "net.framing.send_recv_us",
    "net.core.apply_us", "net.core.dedup_us", "protocols.server_step_us",
    "protocols.client_verify_us", "mtree.execute_us", "mtree.refresh_root_us",
    "mtree.derive_outcome_us", "crypto.rsa_sign_us", "crypto.rsa_verify_us",
    "crypto.hash_tagged_state_us", "net.wal.append_us", "net.wal.fsync_us",
    "net.wal.snapshot_us_per_op", "storage.pagestore.commit_us_per_op",
)


def _replay_blocks(workload, replay: Replay, blocks, batch: int, slicer):
    """Step 2 over the same blocks; returns self times at reference
    speed (ns per span name) and the mean speed factor."""
    totals: dict[str, float] = {}
    factors = []
    for ops in blocks:
        first = len(replay.spans.rows)
        slicer.reset()
        slicer.point()
        owed = []
        if batch == 1:
            for op in ops:
                owed += replay.run_single(op)
        else:
            half = len(ops) // 2            # one session's window, then
            for window in (ops[:half], ops[half:]):     # the other's
                for start in range(0, len(window), batch):
                    owed += replay.run_batch(window[start:start + batch])
        slicer.point()
        replay.run_twins(owed)
        slicer.point()
        cal = slicer.take()
        factors.append(cal["f_client"])
        for name, self_ns in replay.spans.self_times(first).items():
            f = cal["f_io"] if name in DISK_SPANS else cal["f_client"]
            totals[name] = totals.get(name, 0.0) + self_ns * f
    return totals, sum(factors) / len(factors)


def _layer_metrics(workload, replay: Replay, layers, counts, on_ops, op_us,
                   recovery) -> dict:
    ops = replay.ops

    def us(name: str) -> float:
        """Self time per op.  A parent and its children are timed on
        different twins, so a thin layer can read a few microseconds
        below zero; it is reported as 0 and the difference stays in
        ``net.frontend.unattributed_us``."""
        return max(0.0, layers.get(name, 0.0)) / ops / 1e3

    snapshots = max(1, replay.snapshots)
    rehashed = counts["node_recomputations"]
    hits = counts["digest_cache_hits"]
    checkpoints = max(1.0, counts["snapshots"])
    return {
        "wire.encode_us": us("wire.encode"),
        "wire.decode_us": us("wire.decode"),
        "wire.request_bytes": replay.request_bytes / ops,
        "wire.response_bytes": replay.response_bytes / ops,
        "net.framing.send_recv_us": us("net.framing.send_recv"),
        "net.framing.frames_per_op": counts["frames_sent"] / on_ops,
        "net.core.apply_us": us("net.core.apply"),
        "net.core.dedup_us": us("net.core.dedup"),
        "net.core.batch_size_mean": counts["batch_size_mean"],
        "net.core.dedup_hits_per_op": counts["dedup_hits"] / on_ops,
        "protocols.server_step_us": us("protocols.server_step"),
        "protocols.client_verify_us": us("protocols.client_verify"),
        "mtree.execute_us": us("mtree.execute"),
        "mtree.refresh_root_us": us("mtree.refresh_root"),
        "mtree.derive_outcome_us": us("mtree.derive_outcome"),
        "mtree.nodes_rehashed_per_op": rehashed / on_ops,
        "mtree.vo_digests_per_op": replay.vo_digests / ops,
        "mtree.digest_cache_hit_share":
            hits / (hits + rehashed) if hits + rehashed else 0.0,
        "crypto.rsa_sign_us": us("crypto.rsa_sign"),
        "crypto.rsa_verify_us": us("crypto.rsa_verify"),
        "crypto.signatures_per_op": counts["signatures"] / on_ops,
        "crypto.hash_tagged_state_us": us("crypto.hash_tagged_state"),
        "net.wal.append_us": us("net.wal.append"),
        "net.wal.fsync_us": us("net.wal.fsync"),
        "net.wal.fsyncs_per_op": replay.wal_fsyncs / ops,
        "net.wal.wal_bytes_per_op": replay.wal_bytes / ops,
        "net.wal.snapshot_ms":
            layers.get("net.wal.snapshot", 0.0) / snapshots / 1e6,
        "net.wal.snapshot_us_per_op": us("net.wal.snapshot"),
        # The page store writes through sqlite, not through the shim.
        "net.wal.snapshot_bytes_per_op":
            (counts["page_bytes"] / on_ops if workload.backend == "sqlite"
             else replay.snapshot_bytes / ops),
        "net.wal.load_snapshot_ms": recovery["load_ms"],
        "net.wal.replay_ms": recovery["replay_ms"],
        "storage.pagestore.dirty_shards_per_checkpoint":
            replay.dirty_shards / snapshots,
        "storage.pagestore.pages_written_per_checkpoint":
            counts["pages_written"] / checkpoints,
        "storage.pagestore.commit_ms":
            layers.get("storage.pagestore.commit", 0.0) / snapshots / 1e6,
        "storage.pagestore.commit_us_per_op": us("storage.pagestore.commit"),
        "storage.engine.load_ms": recovery["engine_ms"],
    }
