"""Wire-path throughput: stop-and-wait clients vs pipelined windows,
on the one server.

Measures what batching buys: the server's pass executes whatever has
arrived as one batch -- one WAL group commit, one Merkle dirty-path root
recompute and (Protocol I) one signature per batch instead of one per
operation -- so clients that keep a window in flight sustain far higher
verified-operation throughput than clients that wait for each answer.

For each ``(client, concurrency, batch)`` cell the harness runs C
concurrent Protocol II sessions against a fresh in-process server,
every session writing its own keys, and reports sustained ops/sec plus
p50/p99 per-operation latency.  Verification is never weakened: each
response's VO is checked, the tagged-state XOR registers are
accumulated per operation, and every cell ends with a passing
``sync_check`` over all sessions -- a cell that cheats detection does
not count as throughput.

Every cell runs durable (WAL + fsync, the server default).  The
stop-and-wait rows are C ``RemoteClient`` threads, one request in
flight each: what they share of a batch is whatever C clients happen
to have sent when the server's pass runs.  The pipelined rows keep a
window per session in flight, so batches fill to the cap.

The Protocol I pair is where waiting for each answer really bleeds: a
stop-and-wait ``RemoteClientP1`` pays one RSA signature and a blocking
follow-up round trip per operation, while a pipelined window becomes
one signing run -- one verified signature and one produced signature
per batch.  The gates ride on this pair, the signature count first: it
repeats exactly, where the throughput ratio moves with the host.  The
Protocol II grid reports what the window buys on its own merits (both
clients do identical verification CPU under one interpreter, so its
ratio reflects only the amortizable per-op overheads: group WAL commit,
root recompute, scheduling).

Every socket is no-delay (DESIGN section 11, "Wire path"), so the per-op
baseline is signing, verifying, fsync and one blocking round -- not the
40 ms delayed-ACK stall that used to sit between a client's follow-up
and its own next request.

``python benchmarks/campaign.py throughput --quick --check`` is the CI
gate; without ``--quick`` it runs the full grid.  The gates
(:func:`failures`): Protocol I signatures <= 1 per window (plus
scheduling slack), pipelined Protocol I >= QUICK_SPEEDUP_GATE x the
per-op stop-and-wait baseline in quick mode and >= FULL_SPEEDUP_GATE x
in the full grid, and every cell's sync/count-sync predicate passing.
The full run (re)writes the repo-root ``BENCH_throughput.json``
baseline; ``--quick`` writes only under ``benchmarks/results/`` so CI
cannot clobber the committed numbers.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import struct
import tempfile
import threading
import time
from collections import deque

from bench_common import REPO_ROOT, emit_json, progress

from repro.mtree.database import WriteQuery
from repro.net import (
    RemoteClient,
    RemoteClientP1,
    SessionCore,
    serve_in_thread,
    sync_check,
)
from repro.net.aserver import BATCH_MAX
from repro.net.framing import MAX_FRAME, FramingError, encode_frame
from repro.protocols.protocol2 import XorRegisters
from repro.wire import decode

ORDER = 8
BENCH_THROUGHPUT_PATH = os.path.join(REPO_ROOT, "BENCH_throughput.json")

#: concurrent connection attempts while ramping a cell up -- kept under
#: the listener backlog so a 5k-session ramp cannot refuse connections.
CONNECT_FANOUT = 64

#: Protocol I ratio gates, second to the signature-count gate.  Restated
#: at PR 17 by the rule PR 15 wrote down -- the old margin (5 / 7.17 =
#: 0.7) under the lowest ratio measured -- against the new denominator:
#: 2.72x was the lowest of three full runs (0.7 x 2.72 = 1.9); quick
#: read 3.86-5.68x in six runs and keeps its looser, shared-runner gate.
QUICK_SPEEDUP_GATE = 2.0
FULL_SPEEDUP_GATE = 1.9

#: written into every results file, so the recorded ratio is read with
#: its base.
NOTES = [
    "Recorded at PR 17: one server front-end.  The denominator changed. "
    "The stop-and-wait rows (the Protocol II grid's and the Protocol I "
    "per-op baseline) used to run on the thread-per-connection server, "
    "which is deleted; they now run on the event loop the pipelined rows "
    "use, where concurrent stop-and-wait clients share a group commit "
    "and nobody hands a lock to a hundred threads.",
    "Protocol I pair alone, 3 alternated runs of parent and change on one "
    "day: per-op baseline 172-188 ops/s threaded -> 279-321 ops/s on the "
    "event loop; pipelined side 1,350-1,644 -> 1,308-1,503 ops/s (the "
    "same code); ratio 7.7-8.7x -> 4.6-4.7x.  Inside the full grid, "
    "after the 5,000-session cells, the three runs made for this "
    "recording read 3.09x, 2.72x and 4.52x (the last is the one "
    "recorded; baseline 284.5 / 287.1 / 285.4 ops/s, pipelined 878.5 / "
    "780.9 / 1,289.4) where the parent's grid read 7.45x the same day "
    "and 5.63x when PR 15 recorded it.  Nothing about signing runs "
    "changed: 100 signatures for 1,600 operations in every run.",
    "What a signing run buys is RSA sign + verify amortised, and the "
    "primary gate is the count that says so: signatures <= "
    "amortization_bound.  The ratio gate is secondary: >= 1.9x full, "
    ">= 2x quick.",
    "Every socket is no-delay and a pipelined window is one write (PR "
    "15, DESIGN section 11, 'Wire path'); the per-op baseline has had "
    "no 40 ms delayed-ACK stall in it since then.",
]


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(q * len(ordered)) - (0 if q < 1 else 1)))
    return ordered[index]


def _raise_fd_limit(needed: int) -> int | None:
    """Best-effort RLIMIT_NOFILE bump; returns the effective soft limit."""
    try:
        import resource
    except ImportError:  # non-POSIX: report unknown, let the run try
        return None
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < needed:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE,
                               (min(needed, hard), hard))
        except (ValueError, OSError):
            pass
        soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    return soft


def _stats(label: str, clients: int, batch: int, total_ops: int,
           wall: float, latencies_ms: list[float], sync_ok: bool) -> dict:
    return {
        "transport": label,
        "clients": clients,
        "batch": batch,
        "ops": total_ops,
        "wall_s": round(wall, 3),
        "ops_per_s": round(total_ops / wall, 1) if wall else 0.0,
        "p50_ms": round(_percentile(latencies_ms, 0.50), 3),
        "p99_ms": round(_percentile(latencies_ms, 0.99), 3),
        "sync_check": sync_ok,
    }


# -- stop-and-wait: C RemoteClient threads, one request in flight each ----

def run_stop_and_wait(clients: int, ops_per_client: int) -> dict:
    data_dir = tempfile.mkdtemp(prefix="tput-sw-")
    server = serve_in_thread(order=ORDER, data_dir=data_dir)
    host, port = server.address
    genesis = server.initial_root_digest()
    sessions = [
        RemoteClient(host, port, f"u{index}", genesis, order=ORDER,
                     connect_timeout=30.0, op_timeout=120.0)
        for index in range(clients)
    ]
    barrier = threading.Barrier(clients + 1)
    lat_lists: list[list[float]] = [[] for _ in sessions]

    def worker(session: RemoteClient, latencies: list[float]) -> None:
        barrier.wait()
        user = session.user_id
        for step in range(ops_per_client):
            started = time.perf_counter()
            session.put(f"{user}-{step % 8}".encode(), f"{user}:{step}".encode())
            latencies.append((time.perf_counter() - started) * 1000.0)

    threads = [threading.Thread(target=worker, args=(session, lat), daemon=True)
               for session, lat in zip(sessions, lat_lists)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started

    registers = {session.user_id: session.registers() for session in sessions}
    sync_ok = sync_check(genesis, registers)
    for session in sessions:
        session.close()
    server.stop()
    shutil.rmtree(data_dir, ignore_errors=True)
    latencies = [value for lat in lat_lists for value in lat]
    return _stats("stop-and-wait", clients, BATCH_MAX,
                  clients * ops_per_client, wall, latencies, sync_ok)


# -- pipelined: C windowed sessions in one client event loop --------------
#
# ``RemoteClient`` is a blocking-socket class; C of those with a window
# would need C threads, which caps the grid at the stop-and-wait rows'
# concurrency.  The bench therefore runs a minimal asyncio Protocol II
# transport around the same ``SessionCore`` (window, rid, the rules and
# the ``XorRegisters`` step), so the two clients do identical
# verification work per op.

async def _async_session(host: str, port: int, user: str,
                         ops: int, window: int,
                         start_gate: asyncio.Event,
                         connect_gate: asyncio.Semaphore,
                         connected: list, all_connected: asyncio.Event,
                         total: int, latencies: list[float]) -> dict:
    async with connect_gate:
        for attempt in range(5):
            try:
                reader, writer = await asyncio.open_connection(host, port)
                break
            except OSError:
                if attempt == 4:
                    raise
                await asyncio.sleep(0.05 * (attempt + 1))
    connected.append(user)
    if len(connected) == total:
        all_connected.set()
    await start_gate.wait()
    core = SessionCore(user, XorRegisters(user, ORDER), ORDER,
                       nonce=os.urandom(4).hex())
    started: deque = deque()
    sent = 0
    try:
        while core.operations < ops:
            while sent < ops and len(core.inflight) < window:
                writer.write(encode_frame(core.submit(WriteQuery(
                    f"{user}-{sent % 8}".encode(), f"{user}:{sent}".encode()))))
                started.append(time.perf_counter())
                sent += 1
            await writer.drain()
            message = await _recv_message(reader)
            if message is None:
                raise RuntimeError(f"{user}: server closed mid-window")
            latencies.append((time.perf_counter() - started.popleft()) * 1000.0)
            core.receive(message)
    finally:
        writer.close()
    return {"sigma": core.state.sigma, "last": core.state.last}


async def _recv_message(reader: asyncio.StreamReader) -> object | None:
    """One message off an asyncio stream; None on clean EOF at a frame
    boundary, :class:`FramingError` on EOF inside a frame.  The
    thousands of sessions of an async cell read their answers here; the
    package's own readers are blocking (``repro.net.framing``)."""
    try:
        header = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FramingError("connection closed mid-length prefix") from exc
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        raise FramingError(f"peer announced a {length}-byte frame")
    try:
        return decode(await reader.readexactly(length))
    except asyncio.IncompleteReadError as exc:
        raise FramingError("connection closed mid-payload") from exc


async def _async_cell(host: str, port: int, clients: int, ops_per_client: int,
                      window: int, latencies: list[float]) -> tuple[float, dict]:
    start_gate = asyncio.Event()
    all_connected = asyncio.Event()
    connect_gate = asyncio.Semaphore(CONNECT_FANOUT)
    connected: list = []
    tasks = [
        asyncio.ensure_future(_async_session(
            host, port, f"u{index}", ops_per_client, window,
            start_gate, connect_gate, connected, all_connected,
            clients, latencies))
        for index in range(clients)
    ]
    # Let every session connect before the clock starts: cell timings
    # measure the op phase, not TCP ramp-up.
    await asyncio.wait_for(all_connected.wait(), timeout=120.0)
    started = time.perf_counter()
    start_gate.set()
    registers = await asyncio.wait_for(asyncio.gather(*tasks), timeout=900.0)
    wall = time.perf_counter() - started
    return wall, {f"u{index}": regs for index, regs in enumerate(registers)}


def run_pipelined(clients: int, ops_per_client: int, batch: int) -> dict:
    window = max(1, min(batch, ops_per_client))
    data_dir = tempfile.mkdtemp(prefix="tput-pipelined-")
    handle = serve_in_thread(order=ORDER, batch_max=batch, data_dir=data_dir)
    host, port = handle.address
    genesis = handle.initial_root_digest()
    latencies: list[float] = []
    try:
        wall, registers = asyncio.run(_async_cell(
            host, port, clients, ops_per_client, window, latencies))
        sync_ok = sync_check(genesis, registers)
    finally:
        handle.stop()
        shutil.rmtree(data_dir, ignore_errors=True)
    return _stats("pipelined", clients, batch, clients * ops_per_client,
                  wall, latencies, sync_ok)


# -- Protocol I: per-op signing baseline vs batched signing runs ----------
#
# This is the pair the headline gate rides on.  Protocol I pays RSA per
# operation: the stop-and-wait client signs every new root, and the
# server blocks until the follow-up lands.  The server turns a
# pipelined window into one *signing run* -- the client
# verifies one signature and produces one signature per batch, with
# the intermediate operations checked by hash-chain membership -- so
# the per-op RSA cost (and the blocking round trip) amortizes away
# while the k-bounded detection guarantee is untouched (every VO is
# still verified per op, and the count sync must still pass).

def _run_p1_side(users: list, signers: dict, verifier, batch_max: int,
                 window: int, ops_per_client: int, keyspace: int) -> dict:
    from repro.mtree.database import VerifiedDatabase
    from repro.net import count_sync_check
    from repro.protocols.base import ServerState
    from repro.protocols.protocol1 import Protocol1Server, bootstrap_server_state

    state = ServerState(database=VerifiedDatabase(order=ORDER))
    bootstrap_server_state(state, signers[users[0]])
    server = serve_in_thread(order=ORDER, protocol=Protocol1Server(),
                             state=state, batch_max=batch_max,
                             block_timeout=120.0)
    host, port = server.address
    clients = {user: RemoteClientP1(
        host, port, user, signers[user], verifier, order=ORDER,
        op_timeout=300.0, window=window) for user in users}
    pipelined = window > 1
    barrier = threading.Barrier(len(users) + 1)
    lat_lists: list[list[float]] = [[] for _ in users]

    def worker(user: str, latencies: list[float]) -> None:
        client = clients[user]
        barrier.wait()
        for step in range(ops_per_client):
            query = WriteQuery(f"{user}-{step % keyspace}".encode(),
                               f"{user}:{step}".encode())
            started = time.perf_counter()
            if pipelined:
                client.submit(query)
            else:
                client.execute(query)
            latencies.append((time.perf_counter() - started) * 1000.0)
        if pipelined:
            client.drain()

    threads = [threading.Thread(target=worker, args=(user, lat), daemon=True)
               for user, lat in zip(users, lat_lists)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    sync_ok = count_sync_check(
        {user: client.counts() for user, client in clients.items()})
    signatures = sum(client.followups_sent for client in clients.values())
    for client in clients.values():
        client.close()
    server.stop()
    total_ops = len(users) * ops_per_client
    row = _stats("p1-pipelined" if pipelined else "p1-stop-and-wait",
                 len(users), batch_max, total_ops, wall,
                 [value for lat in lat_lists for value in lat], sync_ok)
    row["signatures"] = signatures
    if pipelined:
        # submit() returns before the op completes, so per-op latency
        # is not comparable to the stop-and-wait side; report only
        # whole-run throughput for this row.
        del row["p50_ms"], row["p99_ms"]
    return row


def run_p1_pair(clients: int, ops_per_client: int, window: int,
                batch_max: int, bits: int, keyspace: int = 4) -> dict:
    from repro.crypto.signatures import Signer, Verifier

    users = [f"u{index}" for index in range(clients)]
    signers = {user: Signer.generate(user, bits=bits, seed=100 + index)
               for index, user in enumerate(users)}
    verifier = Verifier({user: signer.public_key
                         for user, signer in signers.items()})

    stop_and_wait, pipelined = (
        _run_p1_side(users, signers, verifier, batch_max, side_window,
                     ops_per_client, keyspace)
        for side_window in (1, window))
    pipelined["window"] = window

    speedup = round(pipelined["ops_per_s"] / stop_and_wait["ops_per_s"], 2) \
        if stop_and_wait["ops_per_s"] else 0.0
    # Each client signs once per full window plus scheduling slack: a
    # fresh signing run starts whenever the drainer catches up with
    # that client's pipeline.
    bound = clients * (-(-ops_per_client // window) + 2)
    return {
        "key_bits": bits,
        "stop_and_wait": stop_and_wait,
        "pipelined": pipelined,
        "speedup": speedup,
        "signatures_per_op_baseline": 1.0,
        "signatures_per_op_pipelined": round(
            pipelined["signatures"] / pipelined["ops"], 4),
        "amortization_bound": bound,
    }


# -- grid + gates ---------------------------------------------------------

def run(quick: bool = False, seed: int | None = None) -> dict:
    """The grid and the Protocol I pair, written to their results file
    (``seed`` is unused: every input is fixed)."""
    if quick:
        levels = [16]
        batches = [8]
        target_ops = 600
        thread_cap = 16
    else:
        levels = [100, 1000, 5000]
        batches = [1, 8, 64]
        target_ops = 6000
        thread_cap = 1000

    rows: list[dict] = []
    for clients in levels:
        ops_per_client = max(2, target_ops // clients)
        fd_needed = clients * 2 + 256
        fd_limit = _raise_fd_limit(fd_needed)
        if fd_limit is not None and fd_limit < fd_needed:
            rows.append({"transport": "pipelined", "clients": clients,
                         "skipped": f"fd limit {fd_limit} < {fd_needed}"})
            continue
        if clients <= thread_cap:
            row = run_stop_and_wait(clients, ops_per_client)
            rows.append(row)
            progress(f"  {json.dumps(row)}")
        else:
            rows.append({"transport": "stop-and-wait", "clients": clients,
                         "skipped": "a client thread per session is not "
                                    "viable at this concurrency; the "
                                    "one-loop pipelined driver only"})
        for batch in batches:
            row = run_pipelined(clients, ops_per_client, batch)
            rows.append(row)
            progress(f"  {json.dumps(row)}")

    if quick:
        p1 = run_p1_pair(clients=4, ops_per_client=8, window=8,
                         batch_max=16, bits=1024)
    else:
        p1 = run_p1_pair(clients=100, ops_per_client=16, window=16,
                         batch_max=64, bits=1024)
    progress(f"  p1 {json.dumps(p1)}")

    speedup = {}
    for clients in levels:
        waiting = next((r for r in rows if r["transport"] == "stop-and-wait"
                        and r["clients"] == clients and "ops_per_s" in r), None)
        best = max((r for r in rows if r["transport"] == "pipelined"
                    and r["clients"] == clients and "ops_per_s" in r),
                   key=lambda r: r["ops_per_s"], default=None)
        if waiting and best and waiting["ops_per_s"]:
            speedup[f"clients_{clients}"] = round(
                best["ops_per_s"] / waiting["ops_per_s"], 2)

    results = {"suite": "bench_throughput",
               "mode": "quick" if quick else "full", "order": ORDER,
               "rows": rows, "protocol1": p1,
               "p2_pipelining_speedup": speedup, "notes": NOTES}
    if quick:
        emit_json("throughput_quick", results)
    else:
        emit_json("throughput", results)
        emit_json("BENCH_throughput", results, path=BENCH_THROUGHPUT_PATH)
    return results


def failures(results: dict) -> list[str]:
    """The enforced criteria.

    The Protocol I pair carries two gates.  The first is a count that
    repeats exactly: signatures produced by the pipelined side stay
    within one per window plus scheduling slack -- what a signing run
    buys is RSA sign + verify amortised over the run, and this says so
    without a clock.  The second is the throughput ratio over the
    per-op baseline (the paper's protocol deployed stop-and-wait); it
    moves with the host, so its thresholds sit at the old margin (0.7)
    under the lowest ratio measured when BENCH_throughput.json was last
    recorded.
    The Protocol II grid measures what a window buys and is reported --
    with its own sanity checks -- but carries no speedup gate: both
    clients do identical per-op verification CPU under one interpreter,
    so its honest ratio on a small box is bounded by the amortizable
    fraction (fsync, root recompute, scheduling).
    """
    problems: list[str] = []
    quick = results["mode"] == "quick"
    gate = QUICK_SPEEDUP_GATE if quick else FULL_SPEEDUP_GATE

    for row in results["rows"]:
        if row.get("sync_check") is False:
            problems.append(f"sync_check failed: {row}")
    if not any(row.get("transport") == "pipelined" and "ops_per_s" in row
               for row in results["rows"]):
        problems.append("no pipelined Protocol II cell measured")

    p1 = results["protocol1"]
    for side in ("stop_and_wait", "pipelined"):
        if not p1[side]["sync_check"]:
            problems.append(f"Protocol I count sync failed ({side})")
    if p1["pipelined"]["signatures"] > p1["amortization_bound"]:
        problems.append(
            f"Protocol I signatures not amortized: "
            f"{p1['pipelined']['signatures']} for {p1['pipelined']['ops']} "
            f"ops (bound {p1['amortization_bound']})")
    if p1["speedup"] < gate:
        problems.append(
            f"Protocol I pipelined {p1['pipelined']['ops_per_s']} ops/s vs "
            f"per-op baseline {p1['stop_and_wait']['ops_per_s']} -- "
            f"{p1['speedup']}x is below the {gate}x gate")
    return problems
