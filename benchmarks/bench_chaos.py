"""Chaos campaign: crashes + flaky links, end to end, with receipts.

The paper's model (and future-work item (3)) assumes reliable delivery
and a crash-free server.  This campaign removes both assumptions at
once and measures what the recovery machinery must guarantee:

* a seeded :class:`~repro.net.chaosproxy.ChaosProxy` between clients
  and server severs connections and truncates frames mid-stream;
* the server is crash-stopped (connections severed, no flush beyond
  the WAL -- SIGKILL-equivalent) and restarted from WAL + snapshot at
  scheduled points mid-workload;
* every client is a self-healing :class:`~repro.net.RemoteClient`
  retrying idempotent requests through reconnects.

Pass criteria (each checked and named by :func:`failures`):

* **zero integrity false-positives** -- no client ever raises
  ``IntegrityError`` during the honest-but-chaotic run;
* **zero lost acknowledged writes, zero duplicated writes** -- the
  final server counter equals the number of distinct operations, every
  acknowledged value reads back, and the final root digest equals a
  failure-free replay of the serial history the clients verified: the
  responses' counters are exactly ``0..n-1``, and the queries replayed
  in that order on a fresh database give the server's root (the root
  commits to tree shape, so the order matters; for stop-and-wait
  clients it is also the round-robin order of the workload);
* **register soundness** -- the Protocol II ``sync_check`` passes over
  all clients' registers;
* **tamper true-positive** -- a byte-flipped WAL (or, when the run
  ended on a checkpoint, page file) refuses to replay (``WalError``),
  so recovery cannot be used as a forking side door.

The full campaign (>= 20 injected connection drops, >= 5 server
restarts, two seconds) is the CI gate, once with stop-and-wait clients
(``python benchmarks/campaign.py chaos --check``) and once with a
window of 8 in flight (``chaos-pipelined``); ``--quick`` runs a smaller
one.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

from bench_common import failed_checks, progress

from repro.mtree.database import VerifiedDatabase, WriteQuery
from repro.net import (
    ChaosConfig,
    ChaosProxy,
    IntegrityError,
    RemoteClient,
    RetryPolicy,
    ServerCore,
    WalError,
    serve_in_thread,
    sync_check,
)

ORDER = 8
SEED = 1301


def _workload(users: list[str], ops_per_user: int, keyspace: int):
    """The deterministic op sequence: round-robin users, each writing
    ``user-k`` keys with strictly increasing values.  Returns
    ``(user, key, value)`` triples."""
    sequence = []
    for step in range(ops_per_user):
        for user in users:
            key = f"{user}-{step % keyspace}".encode()
            value = f"{user}:{step}".encode()
            sequence.append((user, key, value))
    return sequence


def _replayed_root(queries):
    """Root digest of an uninterrupted, failure-free run of ``queries``."""
    database = VerifiedDatabase(order=ORDER)
    for query in queries:
        database.execute(query)
    return database.root_digest()


class HistoryClient(RemoteClient):
    """Notes ``(ctr, query)`` for every response it verified into the
    campaign's shared ``history``: the serial order the server
    committed to, as the clients checked it."""

    history: list

    def _absorb(self, query, request, response):
        answer = super()._absorb(query, request, response)
        self.history.append((response.extras["ctr"], query))
        return answer


def _start_server(data_dir: str, port: int, snapshot_every: int):
    # A restart's freed port can linger in TIME_WAIT bookkeeping for a
    # moment on some platforms; retry briefly rather than flaking the
    # campaign.
    deadline = time.monotonic() + 10.0
    while True:
        try:
            return serve_in_thread(order=ORDER, port=port, data_dir=data_dir,
                                   snapshot_every=snapshot_every)
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


def run_campaign(users: int, ops_per_user: int, keyspace: int,
                 restarts: int, seed: int, drop_rate: float,
                 truncate_rate: float, snapshot_every: int,
                 pipeline_depth: int) -> dict:
    user_ids = [f"u{i}" for i in range(users)]
    sequence = _workload(user_ids, ops_per_user, keyspace)
    expected_ops = len(sequence)
    history: list = []

    data_dir = tempfile.mkdtemp(prefix="chaos-server-")
    anchor_dir = tempfile.mkdtemp(prefix="chaos-anchors-")
    restart_points = {((i + 1) * len(sequence)) // (restarts + 1)
                      for i in range(restarts)}

    results: dict = {"config": {
        "users": users, "ops_per_user": ops_per_user, "keyspace": keyspace,
        "restarts": restarts, "seed": seed, "drop_rate": drop_rate,
        "truncate_rate": truncate_rate, "snapshot_every": snapshot_every,
        "pipeline_depth": pipeline_depth,
    }}
    integrity_false_positives = 0
    acked: dict[bytes, bytes] = {}

    from repro import obs

    obs.reset()
    obs.enable()
    server = _start_server(data_dir, 0, snapshot_every)
    server_port = server.address[1]
    genesis = server.initial_root_digest()
    proxy = ChaosProxy(*server.address, seed=seed, config=ChaosConfig(
        drop_rate=drop_rate, truncate_rate=truncate_rate,
        delay_rate=0.02, delay_s=0.002, immune_chunks=1)).start()
    host, port = proxy.address

    def _make_client(index: int, user: str):
        client = HistoryClient(
            host, port, user, genesis, window=pipeline_depth,
            order=ORDER, connect_timeout=5.0, op_timeout=10.0,
            retry=RetryPolicy(attempts=24, base=0.01, cap=0.25,
                              jitter=0.5, seed=seed + index),
            anchor_path=os.path.join(anchor_dir, f"{user}.anchor"))
        client.history = history
        return client

    clients = {user: _make_client(index, user)
               for index, user in enumerate(user_ids)}

    wal_replays = 0
    try:
        for step, (user, key, value) in enumerate(sequence):
            if step in restart_points:
                server.stop()  # crash: WAL only
                server = _start_server(data_dir, server_port,
                                       snapshot_every)
                wal_replays += server.replayed_records
                progress(f"  [step {step}] crash-restart: replayed "
                         f"{server.replayed_records} WAL record(s)")
            try:
                if pipeline_depth > 1:
                    # Fire-and-track: submit() blocks only on a full
                    # window; every op is drained (and verified) below
                    # before anything counts as acknowledged.
                    clients[user].submit(WriteQuery(key, value))
                else:
                    clients[user].put(key, value)
            except IntegrityError:
                integrity_false_positives += 1
                raise
            acked[key] = value
        if pipeline_depth > 1:
            try:
                for client in clients.values():
                    client.drain()
            except IntegrityError:
                integrity_false_positives += 1
                raise

        # Final read-back of every acknowledged write, through the
        # verifying clients themselves (reads carry VOs too).
        reader = clients[user_ids[0]]
        readback_mismatches = sum(
            1 for key, value in sorted(acked.items())
            if reader.get(key) != value)

        registers = {user: client.registers()
                     for user, client in clients.items()}
        sync_ok = sync_check(genesis, registers)
        final_root, final_ctr = server.with_core(
            lambda core: (core.state.database.root_digest(), core.state.ctr))
    finally:
        for client in clients.values():
            client.close()
        proxy.stop()
        server.stop()
        obs_counters = {
            name: obs.registry.counter(name).total()
            for name in ("net.reconnects", "net.retries",
                         "server.wal_replays", "server.wal_appends",
                         "server.dedup_hits", "server.snapshots",
                         "chaos.conn_drops", "chaos.truncations")}
        obs.disable()

    # -- tamper true-positive: recovery must refuse a doctored store -----
    wal_path = server.core.store.wal_path  # the live log recovery replays
    target = wal_path if os.path.isfile(wal_path) \
        and os.path.getsize(wal_path) > 16 \
        else os.path.join(data_dir, "pages.log")
    with open(target, "r+b") as handle:
        blob = bytearray(handle.read())
        blob[min(40, len(blob) - 1)] ^= 0xFF
        handle.seek(0)
        handle.write(blob)
    try:
        ServerCore(order=ORDER, data_dir=data_dir).close_store()
        tamper_detected = False
    except WalError:
        tamper_detected = True

    total_reads = len(acked)
    history.sort(key=lambda entry: entry[0])
    root_matches = (
        [ctr for ctr, _query in history] == list(range(final_ctr))
        and final_root == _replayed_root(query for _ctr, query in history))
    if pipeline_depth == 1:
        root_matches = root_matches and final_root == _replayed_root(
            WriteQuery(key, value) for _user, key, value in sequence)
    results["measured"] = {
        "operations": expected_ops,
        "final_reads": total_reads,
        "server_ctr": final_ctr,
        "expected_ctr": expected_ops + total_reads,
        "wal_replays": wal_replays,
        "restarts": restarts,
        "proxy_faults": dict(proxy.faults),
        "obs": obs_counters,
    }
    results["checks"] = {
        "integrity_false_positives": integrity_false_positives,
        "lost_acked_writes": readback_mismatches,
        # ctr > expected would mean a retried write was double-applied;
        # ctr < expected would mean an acknowledged one vanished.
        "duplicated_writes": max(0, final_ctr - (expected_ops + total_reads)),
        "root_matches_uninterrupted_run": root_matches,
        "sync_check": sync_ok,
        "tampered_wal_detected": tamper_detected,
    }
    shutil.rmtree(data_dir, ignore_errors=True)
    shutil.rmtree(anchor_dir, ignore_errors=True)
    return results


def run(quick: bool = False, seed: int = SEED,
        pipeline_depth: int = 1) -> dict:
    """The campaign at CI's size (or ``quick``'s), every client keeping
    ``pipeline_depth`` requests in flight."""
    if quick:
        return run_campaign(users=2, ops_per_user=25, keyspace=8,
                            restarts=2, seed=seed, drop_rate=0.02,
                            truncate_rate=0.015, snapshot_every=16,
                            pipeline_depth=pipeline_depth)
    # 120 ops per user: a window of 8 crosses the proxy in far fewer
    # chunks than 8 lone requests, and how responses coalesce into
    # chunks moves with the host, so at 80 the pipelined run rolled
    # 19-21 faults against the floor of 20 below.
    results = run_campaign(users=3, ops_per_user=120, keyspace=12,
                           restarts=5, seed=seed, drop_rate=0.05,
                           truncate_rate=0.035, snapshot_every=48,
                           pipeline_depth=pipeline_depth)
    faults = results["measured"]["proxy_faults"]
    results["checks"]["at_least_20_drops_and_truncations"] = \
        faults["drops"] + faults["truncations"] >= 20
    results["checks"]["at_least_5_restarts"] = \
        results["measured"]["restarts"] >= 5
    return results


def failures(results: dict) -> list[str]:
    """No false alarm, no acked write lost or doubled, the root of the
    verified serial history, registers in sync, the tampered log
    refused -- and, at full size, the faults the campaign promises."""
    return failed_checks(results["checks"])
