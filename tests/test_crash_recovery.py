"""Crash safety: WAL + snapshot recovery, request-ID dedup, and the
kill-and-restart end-to-end guarantee.

The trust anchor (root digest, counters, registers) must survive
crashes bit-for-bit -- otherwise recovery itself becomes a forking
opportunity.  These tests drive the durable server through crash-stop
(connections severed, nothing flushed beyond the WAL) and assert the
restarted deployment is indistinguishable from an uninterrupted one.
"""

import os
import socket
import struct
import time

import pytest

from repro.crypto.hashing import Digest
from repro.mtree.database import (
    DeleteQuery,
    RangeQuery,
    ReadQuery,
    VerifiedDatabase,
    WriteQuery,
)
from repro.net import (
    RemoteClient,
    RemoteClientP1,
    RetryPolicy,
    ServerBusyError,
    TransientNetworkError,
    ServerCore,
    WalError,
    WitnessProtocol,
    count_sync_check,
    make_deposit,
    make_replica_keys,
    serve_in_thread,
    sync_check,
)
from repro.net.replication import (
    ATTEST_KEY, DEPOSIT_KEY, FETCH_KEY, HEAD_KEY, META_DEPOSITS, witness_name)
from repro.net.wal import ServerStore, chain_genesis, log_gens, log_name
from repro.protocols.base import ErrorReply, Request, Response, ServerState
from repro.protocols.protocol1 import Protocol1Server
from repro.protocols.protocol2 import Protocol2Server, XorRegisters
from repro.protocols.protocol3 import EpochDeposit, Protocol3Server

from bench_common import failed_checks
from bench_storage import CRASH_CELLS, crash_cell, flip_sweep


def _request(user, key, value, seq):
    return Request(query=WriteQuery(key, value),
                   extras={"user": user, "rid": f"{user}:{seq}"})


def _fast_retry(seed=0):
    return RetryPolicy(attempts=20, base=0.01, cap=0.1, seed=seed)


class TestServerStore:
    def test_snapshot_roundtrip(self, tmp_path):
        store = ServerStore(str(tmp_path))
        state = ServerState(database=VerifiedDatabase(order=4))
        Protocol2Server().initialize(state)
        answers = []
        for i in range(30):
            answers.append(Response(result=state.database.execute(
                WriteQuery(f"k{i}".encode(), b"v"))))
            state.ctr += 1
        remembered = {"alice": [("alice:2", answers[2]), ("alice:3", answers[3])]}
        store.write_snapshot(state, remembered)
        loaded = store.load_snapshot()
        assert loaded is not None
        database, ctr, meta, dedup, chain = loaded
        assert database.root_digest() == state.database.root_digest()
        assert ctr == 30
        assert meta == state.meta
        assert dedup == remembered
        assert chain == chain_genesis(state.database.root_digest())

    def test_wal_append_and_replay(self, tmp_path):
        store = ServerStore(str(tmp_path))
        state = ServerState(database=VerifiedDatabase(order=4))
        store.write_snapshot(state, {})
        requests = [_request("alice", f"k{i}".encode(), b"v", i) for i in range(5)]
        for request in requests:
            store.wal_append(request)
        store.close()

        fresh = ServerStore(str(tmp_path))
        _, _, _, _, chain = fresh.load_snapshot()
        assert fresh.wal_records(chain) == requests

    def test_torn_tail_is_trimmed_not_fatal(self, tmp_path):
        """A crash mid-append leaves a partial record; recovery drops it
        (the request was never acknowledged) and trims the file."""
        store = ServerStore(str(tmp_path))
        state = ServerState(database=VerifiedDatabase(order=4))
        store.write_snapshot(state, {})
        store.wal_append(_request("alice", b"a", b"1", 0))
        store.wal_append(_request("alice", b"b", b"2", 1))
        store.close()

        wal = store.wal_path
        intact = os.path.getsize(wal)
        with open(wal, "r+b") as handle:
            handle.truncate(intact - 7)

        fresh = ServerStore(str(tmp_path))
        _, _, _, _, chain = fresh.load_snapshot()
        records = fresh.wal_records(chain)
        assert len(records) == 1  # the torn second record is gone
        assert os.path.getsize(wal) < intact - 7  # trimmed to a boundary

    def test_tampered_record_raises(self, tmp_path):
        store = ServerStore(str(tmp_path))
        state = ServerState(database=VerifiedDatabase(order=4))
        store.write_snapshot(state, {})
        store.wal_append(_request("alice", b"a", b"payload", 0))
        store.wal_append(_request("alice", b"b", b"payload", 1))
        store.close()

        wal = store.wal_path
        with open(wal, "r+b") as handle:
            blob = bytearray(handle.read())
            blob[10] ^= 0x01  # flip one bit inside the first payload
            handle.seek(0)
            handle.write(blob)

        fresh = ServerStore(str(tmp_path))
        _, _, _, _, chain = fresh.load_snapshot()
        with pytest.raises(WalError, match="chain"):
            fresh.wal_records(chain)

    def test_spliced_record_raises(self, tmp_path):
        """Reordering two intact records breaks the chain: a tamperer
        cannot rewrite history by shuffling the log."""
        store = ServerStore(str(tmp_path))
        state = ServerState(database=VerifiedDatabase(order=4))
        store.write_snapshot(state, {})
        store.wal_append(_request("alice", b"a", b"1", 0))
        boundary = os.path.getsize(store.wal_path)
        store.wal_append(_request("alice", b"b", b"2", 1))
        store.close()

        wal = store.wal_path
        with open(wal, "rb") as handle:
            blob = handle.read()
        with open(wal, "wb") as handle:
            handle.write(blob[boundary:] + blob[:boundary])

        fresh = ServerStore(str(tmp_path))
        _, _, _, _, chain = fresh.load_snapshot()
        with pytest.raises(WalError, match="chain"):
            fresh.wal_records(chain)

    def test_corrupt_snapshot_raises(self, tmp_path):
        store = ServerStore(str(tmp_path))
        state = ServerState(database=VerifiedDatabase(order=4))
        state.database.execute(WriteQuery(b"k", b"v"))
        store.write_snapshot(state, {})
        store.close()
        snapshot = os.path.join(str(tmp_path), "pages.log")
        with open(snapshot, "r+b") as handle:
            blob = bytearray(handle.read())
            blob[30] ^= 0xFF
            handle.seek(0)
            handle.write(blob)
        with pytest.raises(WalError):
            ServerStore(str(tmp_path)).load_snapshot()


class TestDurableServer:
    def test_restart_replays_to_identical_root(self, tmp_path):
        data_dir = str(tmp_path / "server")
        server = serve_in_thread(order=4, data_dir=data_dir, snapshot_every=8)
        host, port = server.address
        genesis = server.initial_root_digest()
        with RemoteClient(host, port, "alice", genesis, order=4,
                          retry=_fast_retry()) as alice:
            for i in range(21):
                alice.put(f"k{i % 5}".encode(), f"v{i}".encode())
        before = server.consistent_view()[:2]  # (root, ctr)
        server.stop()  # crash

        restarted = serve_in_thread(order=4, data_dir=data_dir, snapshot_every=8)
        assert restarted.consistent_view()[:2] == before
        assert restarted.replayed_records > 0
        restarted.stop()

    def test_duplicate_rid_not_double_applied(self, tmp_path):
        server = serve_in_thread(order=4, data_dir=str(tmp_path / "s"))
        host, port = server.address
        from repro.net.framing import recv_message, send_message

        request = _request("alice", b"k", b"v", 0)
        with socket.create_connection((host, port)) as sock:
            send_message(sock, request)
            first = recv_message(sock)
            send_message(sock, request)  # verbatim retry
            second = recv_message(sock)
        assert first == second  # bit-identical replayed response
        assert server.consistent_view()[1] == 1  # applied exactly once
        server.stop()

    def test_dedup_table_survives_restart(self, tmp_path):
        """Crash after apply but before the client saw the ack: the
        retry against the restarted server must hit the rebuilt dedup
        table, not re-execute."""
        data_dir = str(tmp_path / "server")
        server = serve_in_thread(order=4, data_dir=data_dir)
        host, port = server.address
        from repro.net.framing import recv_message, send_message

        request = _request("alice", b"k", b"v", 0)
        with socket.create_connection((host, port)) as sock:
            send_message(sock, request)
            first = recv_message(sock)
        server.stop()  # crash: the ack may never have left

        restarted = serve_in_thread(order=4, data_dir=data_dir,
                                    port=port)
        with socket.create_connection((host, port)) as sock:
            send_message(sock, request)
            replayed = recv_message(sock)
        assert replayed == first
        assert restarted.consistent_view()[1] == 1
        restarted.stop()

    def test_in_memory_server_unchanged(self):
        """No data_dir -> no WAL, no snapshots, no dedup persistence --
        the PR 1/2 behaviour, bit for bit."""
        server = serve_in_thread(order=4)
        host, port = server.address
        with RemoteClient(host, port, "alice", server.initial_root_digest(),
                          order=4) as alice:
            alice.put(b"k", b"v")
            assert alice.get(b"k") == b"v"
        assert server.core.store is None
        server.stop()


class TestKillAndRestart:
    def test_mid_workload_crash_transparent_to_clients(self, tmp_path):
        """The acceptance scenario: SIGKILL-equivalent drop mid-workload,
        restart from WAL+snapshot, clients reconnect and finish; final
        root equals an uninterrupted run's and sync_check passes."""
        ops = [(f"u{i % 2}", f"k{i % 6}".encode(), f"v{i}".encode())
               for i in range(40)]
        reference = VerifiedDatabase(order=4)
        for _, key, value in ops:
            reference.execute(WriteQuery(key, value))

        data_dir = str(tmp_path / "server")
        server = serve_in_thread(order=4, data_dir=data_dir, snapshot_every=12)
        host, port = server.address
        genesis = server.initial_root_digest()
        clients = {
            user: RemoteClient(host, port, user, genesis, order=4,
                               retry=_fast_retry(seed=index))
            for index, user in enumerate(["u0", "u1"])
        }
        try:
            for step, (user, key, value) in enumerate(ops):
                if step in (13, 27):  # two crashes mid-workload
                    server.stop()
                    server = serve_in_thread(order=4, data_dir=data_dir,
                                             port=port, snapshot_every=12)
                clients[user].put(key, value)
            registers = {user: client.registers()
                         for user, client in clients.items()}
            assert sync_check(genesis, registers)
            # no loss, no duplication
            assert server.consistent_view()[:2] == (reference.root_digest(),
                                                    len(ops))
        finally:
            for client in clients.values():
                client.close()
            server.stop()

    def test_client_anchor_resume(self, tmp_path):
        """A restarted *client* process resumes its verified session
        from the persisted trust anchor."""
        server = serve_in_thread(order=4, data_dir=str(tmp_path / "s"))
        host, port = server.address
        genesis = server.initial_root_digest()
        anchor = str(tmp_path / "alice.anchor")
        with RemoteClient(host, port, "alice", genesis, order=4,
                          anchor_path=anchor) as alice:
            for i in range(7):
                alice.put(f"k{i}".encode(), f"v{i}".encode())
            gctr = alice.gctr

        # new process: no initial_root needed, picks up where it left off
        with RemoteClient(host, port, "alice", order=4,
                          anchor_path=anchor) as resumed:
            assert resumed.gctr == gctr
            assert resumed.get(b"k3") == b"v3"
            assert sync_check(genesis, {"alice": resumed.registers()})
        server.stop()

    def test_anchor_for_wrong_user_rejected(self, tmp_path):
        server = serve_in_thread(order=4)
        host, port = server.address
        anchor = str(tmp_path / "a.anchor")
        with RemoteClient(host, port, "alice", server.initial_root_digest(),
                          order=4, anchor_path=anchor) as alice:
            alice.put(b"k", b"v")
        with pytest.raises(ValueError, match="belongs to"):
            RemoteClient(host, port, "bob", order=4, anchor_path=anchor)
        server.stop()

    def test_corrupted_anchor_rejected_with_integrity_error(self, tmp_path):
        """A tampered anchor file must be refused explicitly -- an
        IntegrityError naming the file -- never a raw parse crash and
        never a silent session built on half-read registers."""
        from repro.net import IntegrityError

        server = serve_in_thread(order=4)
        host, port = server.address
        anchor = str(tmp_path / "alice.anchor")
        with RemoteClient(host, port, "alice", server.initial_root_digest(),
                          order=4, anchor_path=anchor) as alice:
            alice.put(b"k", b"v")
        with open(anchor, "r", encoding="ascii") as handle:
            original = handle.read()

        def rejected(contents, mode="w"):
            with open(anchor, mode if isinstance(contents, str) else "wb") as h:
                h.write(contents)
            with pytest.raises(IntegrityError, match="corrupted or truncated"):
                RemoteClient(host, port, "alice", order=4, anchor_path=anchor)

        # tampered: a register line replaced with non-hex garbage
        rejected(original.replace(
            original.splitlines()[3].split(" ", 1)[1], "zz-not-hex"))
        # empty file
        rejected("")
        # partial: truncated mid-way (magic intact, fields missing)
        rejected(original[: len(original) // 3])
        # binary garbage (not even ASCII)
        rejected(b"\xff\xfe\x00\x01garbage\x80")
        # wrong magic line
        rejected("some-other-format 9\n" + original)
        # no request-id nonce: a missing field like any other
        rejected("".join(line for line in original.splitlines(True)
                         if not line.startswith("nonce ")))
        # restore: an intact anchor still works after all that
        with open(anchor, "w", encoding="ascii") as handle:
            handle.write(original)
        with RemoteClient(host, port, "alice", order=4,
                          anchor_path=anchor) as resumed:
            assert resumed.get(b"k") == b"v"
        server.stop()

    def test_pipelined_window_survives_crash_exactly_once(self, tmp_path):
        """A pipelined client with a full window in flight loses the
        server mid-batch.  On reconnect it resends the whole window
        verbatim (identical rids); the restarted server's replayed
        dedup table re-answers the already-executed ops from memory, so
        every operation lands exactly once -- server ctr equals the
        number of distinct operations, never the number of sends."""
        window = 8
        data_dir = str(tmp_path / "server")
        server = serve_in_thread(order=4, data_dir=data_dir,
                                 snapshot_every=1000)
        host, port = server.address
        genesis = server.initial_root_digest()
        client = RemoteClient(host, port, "alice", genesis,
                              order=4, window=window,
                              retry=_fast_retry(seed=3))
        try:
            # Fill the window, let the server execute it all (quiesce),
            # then crash *before the client has read a single reply*.
            for i in range(window):
                client.submit(WriteQuery(f"k{i}".encode(), f"v{i}".encode()))
            assert client.inflight == window
            # quiesce() sees queued work only: a frame still in the
            # socket is invisible to it, so first wait for the count.
            deadline = time.monotonic() + 10.0
            while server.consistent_view()[1] < window and \
                    time.monotonic() < deadline:
                time.sleep(0.005)
            assert server.quiesce(timeout=10.0)
            server.stop()  # crash: WAL only
            server = serve_in_thread(order=4, data_dir=data_dir,
                                     port=port, snapshot_every=1000)
            assert server.replayed_records == window

            # drain() hits the dead socket, reconnects, resends all W
            # verbatim; replies must verify exactly as if nothing died.
            client.drain()
            assert client.inflight == 0

            # Exactly-once: one execution per distinct op despite every
            # op having been sent twice.
            assert server.consistent_view()[1] == window
            for i in range(window):
                assert client.get(f"k{i}".encode()) == f"v{i}".encode()
            assert sync_check(genesis, {"alice": client.registers()})
        finally:
            client.close()
            server.stop()

    def test_pipelined_partial_batch_crash_exactly_once(self, tmp_path):
        """Crash while only part of the window has executed: resent
        rids split between dedup hits (already in the WAL) and fresh
        executions.  Both paths must converge on one application each."""
        window = 6
        data_dir = str(tmp_path / "server")
        server = serve_in_thread(order=4, data_dir=data_dir,
                                 snapshot_every=1000)
        host, port = server.address
        genesis = server.initial_root_digest()
        client = RemoteClient(host, port, "alice", genesis,
                              order=4, window=window,
                              retry=_fast_retry(seed=4))
        try:
            # Execute (and read) two ops so they are surely in the WAL,
            # then queue a window the server may or may not get to.
            client.put(b"warm0", b"w")
            client.put(b"warm1", b"w")
            for i in range(window):
                client.submit(WriteQuery(f"k{i}".encode(), f"v{i}".encode()))
            server.stop()
            server = serve_in_thread(order=4, data_dir=data_dir,
                                     port=port, snapshot_every=1000)
            client.drain()
            assert server.consistent_view()[1] == 2 + window
            for i in range(window):
                assert client.get(f"k{i}".encode()) == f"v{i}".encode()
            assert sync_check(genesis, {"alice": client.registers()})
        finally:
            client.close()
            server.stop()

    def test_tampered_wal_blocks_recovery(self, tmp_path):
        data_dir = str(tmp_path / "server")
        server = serve_in_thread(order=4, data_dir=data_dir, snapshot_every=100)
        host, port = server.address
        with RemoteClient(host, port, "alice", server.initial_root_digest(),
                          order=4) as alice:
            for i in range(5):
                alice.put(f"k{i}".encode(), b"v")
        server.stop()

        with open(server.core.store.wal_path, "r+b") as handle:
            blob = bytearray(handle.read())
            blob[12] ^= 0xFF
            handle.seek(0)
            handle.write(blob)
        with pytest.raises(WalError):
            ServerCore(order=4, data_dir=data_dir)


# ---------------------------------------------------------------------------
# Disk-backed page store (--backend sqlite) + fault injection
# ---------------------------------------------------------------------------

from repro.mtree.forest import StoreSpec  # noqa: E402
from repro.net.wal import open_server_store  # noqa: E402
from repro.storage.faults import (  # noqa: E402
    ALWAYS,
    FaultyIO,
    IoShim,
    SimulatedCrash,
)
from repro.storage.pagestore import (  # noqa: E402
    FilePageStore,
    SqlitePageStore,
    StorageError,
    _meta_checksum,
    page_checksum,
)


def _run_ops(core, ops, start=0):
    """Apply writes until done or crash; returns the acked (key, value)s."""
    acked = []
    try:
        for seq, (key, value) in enumerate(ops, start=start):
            core.apply_request("u", _request("u", key, value, seq))
            acked.append((key, value))
    except SimulatedCrash:
        pass
    return acked


def _reference_root(n_ops, ops, order=4, shards=1):
    """Root of an uninterrupted run of the first ``n_ops`` operations."""
    reference = VerifiedDatabase(order=order, shards=shards)
    for key, value in ops[:n_ops]:
        reference.execute(WriteQuery(key, value))
    return reference.root_digest()


_OPS = [(b"key%04d" % i, b"val%d" % i) for i in range(35)]


class TestWalFaults:
    def _store_with_io(self, tmp_path, io):
        store = ServerStore(str(tmp_path), io=io)
        state = ServerState(database=VerifiedDatabase(order=4))
        Protocol2Server().initialize(state)
        store.write_snapshot(state, {})
        return store

    def test_enospc_append_rolls_back_chain(self, tmp_path):
        """A failed append must leave the log and the in-memory chain
        exactly where they were -- later appends (after space is freed)
        must still verify."""
        io = FaultyIO(seed=1, enospc_after_bytes=None)
        store = self._store_with_io(tmp_path, io)
        store.wal_append(_request("u", b"a", b"1", 0))
        io._enospc_budget = 10  # space for part of one record
        with pytest.raises(OSError):
            store.wal_append(_request("u", b"b", b"2", 1))
        io._enospc_budget = None  # space freed
        store.wal_append(_request("u", b"c", b"3", 2))
        store.close()

        fresh = ServerStore(str(tmp_path))
        _, _, _, _, chain = fresh.load_snapshot()
        records = fresh.wal_records(chain)
        assert [r.query.key for r in records] == [b"a", b"c"]
        fresh.close()

    def test_torn_unsynced_tail_recovers_prefix(self, tmp_path):
        """Crash with an un-fsynced group-commit tail: any persisted
        prefix of it must recover cleanly (none of it was acked)."""
        io = FaultyIO(seed=13, torn_tail=True)
        store = self._store_with_io(tmp_path, io)
        for i in range(2):
            store.wal_append(_request("u", b"sync%d" % i, b"v", i))
        for i in range(3):  # buffered, never synced
            store.wal_append(_request("u", b"buf%d" % i, b"v", 10 + i),
                             sync=False)
        # The group commit flushes them to the "page cache" and dies
        # before its fsync.
        io.crash_at["wal:before-fsync"] = 1
        with pytest.raises(SimulatedCrash):
            store.wal_sync()
        io.simulate_crash()

        fresh = ServerStore(str(tmp_path))
        _, _, _, _, chain = fresh.load_snapshot()
        records = fresh.wal_records(chain)
        keys = [r.query.key for r in records]
        assert keys[:2] == [b"sync0", b"sync1"]  # synced records survive
        # whatever survived of the tail is a *prefix*, chain-verified
        assert keys[2:] == [b"buf0", b"buf1", b"buf2"][:len(keys) - 2]
        store.close()
        fresh.close()

    def test_lying_fsync_loses_only_tail_never_consistency(self, tmp_path):
        """With a lying disk, acked-durability is unenforceable -- but
        recovery must still land on a consistent chain-verified prefix,
        never an error and never a mixed state."""
        io = FaultyIO(seed=7)
        store = self._store_with_io(tmp_path, io)  # honest bootstrap
        io._plan["lying_fsync"] = ALWAYS  # ...then the disk starts lying
        for i in range(5):
            store.wal_append(_request("u", b"w%d" % i, b"v", i))
        io.simulate_crash()

        fresh = ServerStore(str(tmp_path))
        _, _, _, _, chain = fresh.load_snapshot()
        records = fresh.wal_records(chain)
        expected = [b"w0", b"w1", b"w2", b"w3", b"w4"]
        assert [r.query.key for r in records] == expected[:len(records)]
        store.close()
        fresh.close()


class TestPagedStoreRoundtrip:
    @pytest.mark.parametrize("shards", [1, 8])
    def test_checkpoint_restart_identical_root(self, tmp_path, shards):
        data_dir = str(tmp_path / "s")
        core = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                          fsync=False, shards=shards, snapshot_every=10)
        _run_ops(core, _OPS)
        root = core.state.database.root_digest()
        ctr = core.state.ctr
        core.snapshot()
        core.close_store()

        fresh = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                           fsync=False, shards=shards)
        assert fresh.state.database.root_digest() == root
        assert fresh.state.ctr == ctr
        assert fresh.replayed_records == 0  # all state inside the checkpoint
        for key, value in _OPS:
            assert fresh.state.database.get(key) == value
        assert fresh.state.database.root_digest() == \
            _reference_root(len(_OPS), _OPS, shards=shards)
        fresh.close_store()

    @pytest.mark.parametrize("shards", [1, 8])
    def test_wal_tail_replays_on_top_of_checkpoint(self, tmp_path, shards):
        data_dir = str(tmp_path / "s")
        core = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                          fsync=False, shards=shards, snapshot_every=10)
        _run_ops(core, _OPS)  # 35 ops: checkpoints at 10/20/30, tail of 5
        root = core.state.database.root_digest()
        core.close_store()  # crash-stop: no final snapshot

        fresh = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                           fsync=False, shards=shards)
        assert fresh.replayed_records == 5
        assert fresh.state.database.root_digest() == root
        fresh.close_store()

    def test_dedup_table_inside_manifest(self, tmp_path):
        data_dir = str(tmp_path / "s")
        core = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                          fsync=False, snapshot_every=1000)
        request = _request("u", b"k", b"v", 0)
        first = core.apply_request("u", request)
        core.snapshot()
        core.close_store()
        fresh = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                           fsync=False)
        assert fresh.apply_request("u", request) == first  # dedup hit
        assert fresh.state.ctr == 1
        fresh.close_store()

    def test_incremental_checkpoint_rewrites_only_dirty_shards(self, tmp_path):
        data_dir = str(tmp_path / "s")
        core = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                          fsync=False, shards=8, snapshot_every=10_000)
        _run_ops(core, _OPS)
        core.snapshot()
        manifest_before = dict(core.store._manifest)
        # one more write dirties exactly one shard
        core.apply_request("u", _request("u", b"lonely", b"x", 99))
        core.snapshot()
        manifest_after = core.store._manifest
        new_gen = int(manifest_after["gen"])
        rewritten = [int(r["shard"]) for r in manifest_after["shards"]
                     if int(r["gen"]) == new_gen]
        assert len(rewritten) == 1  # only the dirtied shard moved
        untouched = [r for r in manifest_after["shards"]
                     if int(r["gen"]) != new_gen]
        before = {int(r["shard"]): r for r in manifest_before["shards"]}
        for record in untouched:
            assert record["root"] == before[int(record["shard"])]["root"]
        core.close_store()

    def test_segment_retention_is_bounded(self, tmp_path):
        """Retained logs are garbage-collected as soon as no shard's
        repair recipe references them: retention stays O(shards)."""
        data_dir = str(tmp_path / "s")
        core = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                          fsync=False, shards=2, snapshot_every=5)
        ops = [(b"g%04d" % i, b"v") for i in range(200)]
        _run_ops(core, ops)
        core.close_store()
        segments = log_gens(data_dir)  # the last op checkpointed: no live log
        assert segments[-1] == core.store._manifest["gen"]
        assert 0 < len(segments) <= 3  # <= shards + the freshest


class TestPagedStoreCrashMatrix:
    """Kill the server at every storage crash point, on both page
    stores: the storage campaign's crash cells (``bench_storage``'s
    ``CRASH_CELLS``, run by its :func:`crash_cell`).  Each cell must
    fire where it was aimed and land in live traffic -- or, for the
    bootstrap's own cell, before the server started -- and its recovery
    must keep every acked write, land on the root and the dedup table of
    an uninterrupted run of what it executed, answer read VOs that
    verify, and take writes again.  The sqlite cells keep their bare
    ids; the page file's are ``file/NAME``."""

    @pytest.mark.parametrize(
        "backend,name,point,occurrence,faults,least", CRASH_CELLS,
        ids=[name if backend == "sqlite" else f"{backend}/{name}"
             for backend, name, *_ in CRASH_CELLS])
    def test_crash_point_recovers(self, backend, name, point, occurrence,
                                  faults, least):
        cell = crash_cell(backend, name, point, occurrence, faults, least,
                          n_ops=len(_OPS))
        assert failed_checks(cell["checks"]) == [], cell

    def test_bootstrap_dies_before_the_page_file_is_named(self, tmp_path):
        """``pagelog:new-log``: the bootstrap checkpoint created
        ``pages.log`` and died before the directory fsync naming it.  The
        file goes with the crash, nothing was acked, and the next start
        bootstraps afresh and keeps every write after it."""
        data_dir = str(tmp_path / "s")
        options = dict(order=4, data_dir=data_dir, backend="file",
                       fsync=True, shards=2, snapshot_every=10)
        io = FaultyIO(seed=11, crash_at={"pagelog:new-log": 1})
        with pytest.raises(SimulatedCrash):
            ServerCore(io=io, **options)
        assert io.crash_count == 1
        io.simulate_crash()
        assert not os.path.exists(os.path.join(data_dir, "pages.log"))

        fresh = ServerCore(io=io, **options)
        assert fresh.state.ctr == 0
        assert fresh.state.database.root_digest() == \
            _reference_root(0, _OPS, shards=2)
        acked = _run_ops(fresh, _OPS)
        assert len(acked) == len(_OPS)
        fresh.close_store()
        again = ServerCore(io=io, **options)
        assert again.state.database.root_digest() == \
            _reference_root(len(_OPS), _OPS, shards=2)
        again.close_store()

    def test_a_group_commit_dead_before_its_fsync_acks_nothing(
            self, tmp_path):
        """``wal:before-fsync`` in a batch of four: the records were
        written and flushed, the fsync never ran.  No answer of the
        batch left, and recovery keeps a prefix of it at most -- never
        an acked write lost, never a state off the serial history."""
        data_dir = str(tmp_path / "s")
        io = FaultyIO(seed=12)
        core = ServerCore(order=4, data_dir=data_dir, backend="file",
                          fsync=True, shards=2, snapshot_every=10, io=io)
        acked = _run_ops(core, _OPS[:5])
        io.crash_at["wal:before-fsync"] = 1
        batch = [("u", _request("u", key, value, seq))
                 for seq, (key, value) in enumerate(_OPS[5:9], start=5)]
        answers = core.stream_batch(batch)
        with pytest.raises(SimulatedCrash):
            next(answers)
        core.store.close()
        io.simulate_crash()

        fresh = ServerCore(order=4, data_dir=data_dir, backend="file",
                           fsync=True, shards=2, io=io)
        for key, value in acked:
            assert fresh.state.database.get(key) == value
        assert 5 <= fresh.state.ctr <= 9
        assert fresh.state.database.root_digest() == \
            _reference_root(fresh.state.ctr, _OPS, shards=2)
        fresh.close_store()


def test_every_flipped_byte_is_refused_or_changes_nothing():
    """The storage campaign's flip sweep at a coarse stride, on both
    page stores and the current manifest format: a flipped byte of any
    file is refused by name or serves the untouched state, never a
    silent change or an unnamed exception."""
    rows = flip_sweep(stride=101)
    assert {(row["backend"], row["file"]) for row in rows} == {
        (backend, name) for backend in ("file", "sqlite")
        for name in ("pages.log" if backend == "file" else "pages.db",
                     "wal.2.log", "wal.3.log")}
    assert [failing for row in rows for failing in row["failing"]] == []
    assert all(row["refused"] + row["same"] == len(range(0, row["bytes"], 101))
               for row in rows)
    assert sum(row["refused"] for row in rows) > 0


class TestPagedStoreCorruption:
    def _populated(self, tmp_path, shards=4):
        data_dir = str(tmp_path / "s")
        core = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                          fsync=False, shards=shards, snapshot_every=10)
        _run_ops(core, _OPS)
        root = core.state.database.root_digest()
        core.snapshot()
        core.close_store()
        return data_dir, root

    def test_rotted_page_quarantined_and_repaired(self, tmp_path):
        data_dir, root = self._populated(tmp_path)
        io = FaultyIO(seed=21, bitrot_page=("any", -1))
        fresh = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                           fsync=False, shards=4, io=io)
        assert fresh.state.database.root_digest() == root
        assert len(fresh.store.repaired_shards) == 1
        fresh.close_store()
        # the repair rewrote verified pages: next restart is clean
        again = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                           fsync=False, shards=4)
        assert again.state.database.root_digest() == root
        assert again.store.repaired_shards == []
        again.close_store()

    def test_rot_in_the_page_file_is_repaired_like_any_page(self, tmp_path):
        """Persistent rot in a page the last checkpoint appended to
        ``pages.log``: the scan passes it (heads only), the read's
        checksum quarantines the shard, and the redo appends it again --
        a leaf page or a value page alike."""
        for kind in ("leaves", "entries"):
            self._page_file_rot(str(tmp_path / kind), kind)

    def test_a_failed_redo_checkpoint_is_a_wal_error_naming_the_shard(
            self, tmp_path):
        """The redo checkpoint of a repair can fail too -- a disk that
        refuses the commit, a page store that cannot drop the damaged
        generation.  That is a store refusal naming the shard and the
        checkpoint, never a bare storage error the caller cannot place;
        nothing is served, and a restart on a working disk repairs."""
        data_dir = str(tmp_path / "s")
        root, shard, gen = self._rot_a_page_in_the_page_file(data_dir,
                                                             "entries")
        with pytest.raises(WalError) as caught:
            ServerCore(order=4, data_dir=data_dir, fsync=False, shards=4,
                       io=FaultyIO(fail_commit=ALWAYS))
        assert f"shard {shard} quarantined" in str(caught.value)
        assert f"redoing its checkpoint {gen} failed" in str(caught.value)
        assert isinstance(caught.value.__cause__, StorageError)
        fresh = ServerCore(order=4, data_dir=data_dir, fsync=False, shards=4)
        assert fresh.store.repaired_shards == [shard]
        assert fresh.state.database.root_digest() == root
        fresh.close_store()

    def _page_file_rot(self, data_dir, kind):
        root, shard, _gen = self._rot_a_page_in_the_page_file(data_dir, kind)
        fresh = ServerCore(order=4, data_dir=data_dir, fsync=False, shards=4)
        assert fresh.state.database.root_digest() == root
        assert fresh.store.repaired_shards == [shard]
        fresh.close_store()
        again = ServerCore(order=4, data_dir=data_dir, fsync=False, shards=4)
        assert again.store.repaired_shards == []
        assert again.state.database.root_digest() == root
        again.close_store()

    def _rot_a_page_in_the_page_file(self, data_dir, kind):
        """Flip a byte of the last ``kind`` page the last checkpoint
        appended to ``pages.log``; the root, and that page's shard and
        generation."""
        core = ServerCore(order=4, data_dir=data_dir, fsync=False, shards=4,
                          snapshot_every=10)
        _run_ops(core, _OPS)
        root = core.state.database.root_digest()
        core.snapshot()
        gen = int(core.store._manifest["gen"])
        shard = next(int(r["shard"]) for r in core.store._manifest["shards"]
                     if int(r["gen"]) == gen)
        seq = max(s for g, s in core.store.pages.page_keys(kind, shard)
                  if g == gen)
        page = core.store.pages.read_page(kind, shard, gen, seq)
        core.close_store()
        path = os.path.join(data_dir, "pages.log")
        with open(path, "r+b") as handle:
            blob = bytearray(handle.read())
            # a page's body follows the checksum that ends its op head
            checksum = page_checksum(kind, shard, gen, seq, page)
            at = bytes(blob).rfind(checksum) + len(checksum) + len(page) // 2
            blob[at] ^= 0x10
            handle.seek(0)
            handle.write(blob)
        return root, shard, gen

    def test_tampered_segment_fails_repair_loudly(self, tmp_path):
        """Quarantine + a doctored replay segment: the repaired shard
        cannot reproduce the manifest root, and recovery refuses --
        tamper is reported, never masked by serving the wrong data."""
        data_dir, _root = self._populated(tmp_path)
        segments = log_gens(data_dir)  # all retained: nothing is live
        assert segments
        path = os.path.join(data_dir, log_name(segments[-1]))
        with open(path, "r+b") as handle:
            blob = bytearray(handle.read())
            blob[9] ^= 0x20
            handle.seek(0)
            handle.write(blob)
        io = FaultyIO(seed=22, bitrot_page=("any", -1))
        with pytest.raises(WalError, match="segment|tamper"):
            ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                       fsync=False, shards=4, io=io)

    def test_lost_commit_detected_not_masked(self, tmp_path):
        """A page store that *lies* about commit durability loses the
        checkpoint on crash.  The logs opened after it outlive the
        manifest -- recovery notices the mismatch and refuses to
        silently serve the older root."""
        data_dir = str(tmp_path / "s")
        io = FaultyIO(seed=23, lose_commit=3)  # bootstrap=1, cp1=2, cp2=3
        core = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                          fsync=True, shards=2, snapshot_every=10, io=io)
        _run_ops(core, _OPS)
        core.store.close()
        io.simulate_crash()
        with pytest.raises(WalError, match="lost a checkpoint"):
            ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                       fsync=True, shards=2, io=io)

    def test_corrupt_manifest_refused(self, tmp_path):
        data_dir, _root = self._populated(tmp_path)
        import sqlite3 as _sqlite3
        conn = _sqlite3.connect(os.path.join(data_dir, "pages.db"))
        conn.execute("UPDATE meta SET value=?, checksum=? WHERE key='checkpoint'",
                     (b"garbage", _meta_checksum("checkpoint", b"garbage")))
        conn.commit()
        conn.close()
        with pytest.raises(WalError, match="manifest"):
            ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                       fsync=False, shards=4)


#: how each page store loses the bootstrap checkpoint it reported
#: durable: sqlite's engine lies about its commit, the page file's
#: first commit fsync lies (the second fsync: the directory fsync
#: naming the new ``pages.log`` comes before its first record)
_LOST_BOOTSTRAP = {"file": {"lying_fsync": 2}, "sqlite": {"lose_commit": 1}}


class TestRefusedDirectories:
    """Directories recovery must refuse rather than start fresh in: a
    fresh start would drop acked writes without a word."""

    @pytest.mark.parametrize("backend", _LOST_BOOTSTRAP)
    def test_log_without_a_checkpoint_is_refused(self, tmp_path, backend):
        data_dir = str(tmp_path / "s")
        io = FaultyIO(seed=5, **_LOST_BOOTSTRAP[backend])
        core = ServerCore(order=4, data_dir=data_dir, backend=backend,
                          fsync=True, io=io)
        assert len(_run_ops(core, _OPS[:5])) == 5
        core.store.close()
        io.simulate_crash()
        with pytest.raises(WalError, match="no checkpoint manifest"):
            ServerCore(order=4, data_dir=data_dir, backend=backend,
                       fsync=True, io=io)
        # ...and the log is still there for whoever investigates
        assert os.path.getsize(os.path.join(data_dir, log_name(1))) > 0

    @pytest.mark.parametrize("backend", _LOST_BOOTSTRAP)
    def test_directory_of_the_whole_state_snapshot_is_refused_by_name(
            self, tmp_path, backend):
        data_dir = tmp_path / "s"
        data_dir.mkdir()
        (data_dir / "state.snapshot").write_bytes(
            b"cvs-server-snapshot 1\n\x00\x00\x00\x00")
        (data_dir / "wal.log").write_bytes(b"")
        with pytest.raises(WalError, match="cvs-server-snapshot 1"):
            ServerCore(order=4, data_dir=str(data_dir), backend=backend)
        assert sorted(os.listdir(data_dir)) == ["state.snapshot", "wal.log"]

    def test_a_log_the_renaming_build_left_is_refused_by_name(self, tmp_path):
        """That build's directory after a lost bootstrap is a non-empty
        ``wal.log`` and nothing else; its format-4 manifest is refused
        by ``TestOldFormatRefused``.  Starting fresh here would drop
        the log's acked writes without a word."""
        data_dir = tmp_path / "s"
        data_dir.mkdir()
        (data_dir / "wal.log").write_bytes(b"\x00\x00\x00\x05hello" + bytes(32))
        with pytest.raises(WalError, match="wal.log .a cvs-paged-store 4 log"):
            ServerCore(order=4, data_dir=str(data_dir))
        assert sorted(os.listdir(data_dir)) == ["wal.log"]


class _DirFsyncs(IoShim):
    """Real I/O, counting directory fsyncs."""

    count = 0

    def fsync_dir(self, path):
        self.count += 1
        super().fsync_dir(path)


#: how each page store loses checkpoint 1 while reporting it durable:
#: sqlite's engine lies about its second commit; the page file's 14th
#: fsync (after the bootstrap commit, the directory fsyncs naming
#: ``pages.log`` and ``wal.1.log``, and ten appends) lies, and none of
#: its record survives
_LOST_CHECKPOINT_1 = {"file": {"lying_fsync": 14, "torn_tail": False},
                      "sqlite": {"lose_commit": 2}}


class TestOneLogPerCheckpoint:
    """The requests that lead to checkpoint G go to ``wal.G.log``,
    opened after checkpoint G - 1 committed and named durably before
    its first record; a log is never renamed, so there is no state
    between a commit and a rename to recover from."""

    def test_a_new_file_is_unnamed_until_its_directory_is_synced(
            self, tmp_path):
        io = FaultyIO(seed=1)
        path = str(tmp_path / "new.log")
        for body, sync_dir in ((b"lost", False), (b"kept", True)):
            handle = io.open(path, "ab")
            handle.write(body)
            handle.fsync()
            handle.close()
            if sync_dir:
                io.fsync_dir(str(tmp_path))
            io.simulate_crash()
            assert os.path.exists(path) == sync_dir
        with open(path, "rb") as handle:
            assert handle.read() == b"kept"

    def test_a_log_that_cannot_be_named_fails_only_its_append(self, tmp_path):
        """The chain advances only once the new log's name is durable:
        an append whose directory fsync failed leaves nothing behind,
        and its retry lands in a log that verifies."""
        data_dir = str(tmp_path / "s")
        # sqlite's own fsyncs bypass the shim: the first names wal.1.log
        store = ServerStore(data_dir, backend="sqlite",
                            io=FaultyIO(seed=6, fail_fsync=1))
        store.write_snapshot(ServerState(database=VerifiedDatabase(order=4)),
                             {})
        request = _request("u", b"k", b"v", 0)
        with pytest.raises(OSError, match="directory fsync failed"):
            store.wal_append(request)
        store.wal_append(request)
        store.close()
        fresh = ServerStore(data_dir, backend="sqlite")
        *_, chain = fresh.load_snapshot()
        assert fresh.wal_records(chain) == [request]
        fresh.close()

    def test_acked_writes_survive_a_crash_after_the_bootstrap(self, tmp_path):
        """``pages.log`` and ``wal.1.log`` are both born here, and an
        fsynced record in a file whose name a crash can undo was never
        durable."""
        data_dir = str(tmp_path / "s")
        io = FaultyIO(seed=3)
        core = ServerCore(order=4, data_dir=data_dir, backend="file",
                          fsync=True, io=io)
        acked = _run_ops(core, _OPS[:5])
        core.store.close()
        io.simulate_crash()
        fresh = ServerCore(order=4, data_dir=data_dir, backend="file",
                           fsync=True, io=io)
        for key, value in acked:
            assert fresh.state.database.get(key) == value
        assert fresh.state.database.root_digest() == _reference_root(5, _OPS)
        fresh.close_store()

    def _lose_checkpoint_1(self, tmp_path, backend, ops):
        data_dir = str(tmp_path / "s")
        io = FaultyIO(seed=4, **_LOST_CHECKPOINT_1[backend])
        core = ServerCore(order=4, data_dir=data_dir, backend=backend,
                          fsync=True, shards=2, snapshot_every=10, io=io)
        acked = _run_ops(core, ops)
        assert int(core.store._manifest["gen"]) == 1
        live = (core.state.database.root_digest(), core.state.ctr)
        core.store.close()
        io.simulate_crash()
        return data_dir, io, acked, live

    @pytest.mark.parametrize("backend", _LOST_CHECKPOINT_1)
    def test_a_lying_commit_no_append_followed_loses_nothing(
            self, tmp_path, backend):
        """Every request of the lost checkpoint is still in the live
        log, ``wal.1.log``: replay rebuilds it, root and all."""
        data_dir, io, acked, live = self._lose_checkpoint_1(
            tmp_path, backend, _OPS[:10])
        fresh = ServerCore(order=4, data_dir=data_dir, backend=backend,
                           fsync=True, shards=2, io=io)
        assert int(fresh.store._manifest["gen"]) == 0  # checkpoint 1 is gone
        assert fresh.replayed_records == 10
        assert (fresh.state.database.root_digest(), fresh.state.ctr) == live
        for key, value in acked:
            assert fresh.state.database.get(key) == value
        fresh.close_store()

    def test_a_newer_log_that_holds_no_record_is_dropped(self, tmp_path):
        """A torn first append after a lost checkpoint acked nothing; the
        log it left is removed, or the next epoch would append to it
        after the torn bytes."""
        data_dir, io, acked, live = self._lose_checkpoint_1(
            tmp_path, "sqlite", _OPS[:10])
        with open(os.path.join(data_dir, log_name(2)), "wb") as handle:
            handle.write(b"\x00\x00\x01")  # a record's length, torn
        fresh = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                           fsync=True, shards=2, snapshot_every=10, io=io)
        assert (fresh.state.database.root_digest(), fresh.state.ctr) == live
        assert log_gens(data_dir) == [1]
        acked += _run_ops(fresh, _OPS[10:25], start=10)
        fresh.close_store()
        again = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                           fsync=True, shards=2, io=io)
        assert again.state.ctr == 25 and again.replayed_records > 0
        for key, value in acked:
            assert again.state.database.get(key) == value
        again.close_store()

    @pytest.mark.parametrize("backend", _LOST_CHECKPOINT_1)
    def test_a_lying_commit_appends_followed_is_refused(
            self, tmp_path, backend):
        """The five acked writes in ``wal.2.log`` chain from the head
        the lost checkpoint took down with it."""
        data_dir, io, _acked, _live = self._lose_checkpoint_1(
            tmp_path, backend, _OPS[:15])
        with pytest.raises(WalError, match=r"wal\.2\.log holds 5 record\(s\) "
                           r"newer than the checkpoint manifest \(generation "
                           r"0\): the page store lost a checkpoint"):
            ServerCore(order=4, data_dir=data_dir, backend=backend,
                       fsync=True, shards=2, io=io)

    @pytest.mark.parametrize("backend", _LOST_CHECKPOINT_1)
    def test_directory_fsyncs_per_checkpoint_are_unchanged(
            self, tmp_path, backend):
        """Naming a new log costs the directory fsync a rename into a
        retained segment did: over three checkpoints, three of them and
        one per pass that dropped an unreferenced log -- five, as the
        renaming build counted on this traffic."""
        io = _DirFsyncs()
        core = ServerCore(order=4, data_dir=str(tmp_path / "s"),
                          backend=backend, fsync=True, shards=2,
                          snapshot_every=10, io=io)
        io.count = 0  # the bootstrap's own: naming pages.log
        _run_ops(core, _OPS[:30])
        assert int(core.store._manifest["gen"]) == 3
        assert io.count == 5
        core.close_store()


class _FullDisk:
    """A sqlite connection whose manifest insert finds the disk full."""

    def __init__(self, conn):
        self.conn = conn

    def execute(self, sql, params=()):
        if sql.startswith("INSERT OR REPLACE INTO meta"):
            import sqlite3

            raise sqlite3.OperationalError("database or disk is full")
        return self.conn.execute(sql, params)

    def executemany(self, sql, rows):
        return self.conn.executemany(sql, rows)

    def close(self):
        self.conn.close()


class TestSqliteErrorsBackOff:
    def test_full_disk_on_the_manifest_is_a_failed_checkpoint(self, tmp_path):
        """A ``sqlite3.Error`` from any statement is a failed checkpoint:
        the batch that crossed the interval is served, the failure is
        counted, and the retry a quarter-interval later succeeds."""
        from repro import obs

        obs.enable()
        data_dir = str(tmp_path / "s")
        core = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                          fsync=False, shards=2, snapshot_every=10)
        _run_ops(core, _OPS[:5])
        pages = core.store.pages
        pages._conn = _FullDisk(pages._conn)
        batch = [("u", _request("u", key, value, seq))
                 for seq, (key, value) in enumerate(_OPS[5:15], start=5)]
        responses = core.apply_batch(batch)
        assert all(isinstance(r, Response) for r in responses)
        assert obs.registry.counter("server.snapshot_failures").total() == 1
        assert obs.registry.counter("server.snapshots").total() == 0
        pages._conn = pages._conn.conn  # space freed
        _run_ops(core, _OPS[15:20], start=15)
        assert obs.registry.counter("server.snapshots").total() == 1
        root = core.state.database.root_digest()
        core.close_store()
        fresh = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                           fsync=False, shards=2)
        assert fresh.state.database.root_digest() == root
        fresh.close_store()


class TestCompactionRace:
    def test_checkpoints_race_concurrent_writes(self, tmp_path):
        """Writes keep flowing while checkpoint/new-log/GC cycles run
        between them; every acked write must survive a crash landing in
        the middle of the churn."""
        data_dir = str(tmp_path / "s")
        io = FaultyIO(seed=31, crash_at={"compaction:mid-segment-gc": 3})
        core = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                          fsync=True, shards=2, snapshot_every=5, io=io)
        ops = [(b"race%04d" % i, b"v%d" % i) for i in range(120)]
        acked = _run_ops(core, ops)
        assert io.crash_count == 1
        core.store.close()
        io.simulate_crash()

        fresh = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                           fsync=True, shards=2, io=io)
        for key, value in acked:
            assert fresh.state.database.get(key) == value
        assert fresh.state.database.root_digest() == \
            _reference_root(fresh.state.ctr, ops, shards=2)
        fresh.close_store()

    def test_snapshot_failure_is_survivable(self, tmp_path):
        """ENOSPC during a periodic checkpoint must not kill the server:
        the WAL holds every acked write, the checkpoint retries later."""
        data_dir = str(tmp_path / "s")
        core = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                          fsync=False, shards=2, snapshot_every=10)
        io = core.store.io  # REAL_IO; swap in a failing gate
        _run_ops(core, _OPS[:5])
        failing = FaultyIO(seed=41, enospc_after_bytes=0)
        core.store.io = failing
        core.store.pages.io = failing
        acked = _run_ops(core, _OPS[5:15], start=5)  # crosses a checkpoint
        assert len(acked) == 10  # the failed checkpoint lost no ack
        core.store.io = io
        core.store.pages.io = io
        _run_ops(core, _OPS[15:], start=15)
        root = core.state.database.root_digest()
        core.close_store()

        fresh = ServerCore(order=4, data_dir=data_dir, backend="sqlite",
                           fsync=False, shards=2)
        assert fresh.state.database.root_digest() == root
        fresh.close_store()


class TestPagedServerEndToEnd:
    def test_sqlite_backend_serves_verifying_clients(self, tmp_path):
        """Full stack: TCP server on the sqlite backend, crash-restart,
        pipelined client VOs verify across the boundary."""
        data_dir = str(tmp_path / "server")
        server = serve_in_thread(order=4, data_dir=data_dir,
                                 backend="sqlite", snapshot_every=8,
                                 shards=2)
        host, port = server.address
        genesis = server.initial_root_digest()
        spec = StoreSpec(order=4, shards=2)
        with RemoteClient(host, port, "alice", genesis, order=spec,
                          retry=_fast_retry()) as alice:
            for i in range(21):
                alice.put(f"e{i}".encode(), f"v{i}".encode())
        root = server.initial_root_digest()  # the current root
        server.stop()  # crash

        restarted = serve_in_thread(order=4, data_dir=data_dir, port=port,
                                    backend="sqlite", snapshot_every=8,
                                    shards=2)
        assert restarted.initial_root_digest() == root
        with RemoteClient(host, port, "bob", genesis, order=spec,
                          retry=_fast_retry(1)) as bob:
            assert bob.get(b"e7") == b"v7"  # VO verifies post-recovery
            bob.put(b"after", b"restart")
            assert bob.get(b"after") == b"restart"
        restarted.stop()

    def test_open_server_store_rejects_unknown_backend(self, tmp_path):
        with pytest.raises(ValueError, match="unknown storage backend"):
            open_server_store(str(tmp_path), backend="postgres")

    def test_store_backends_report_names(self, tmp_path):
        """One store class; the backend picks only the page store."""
        file_store = open_server_store(str(tmp_path / "a"))
        paged = open_server_store(str(tmp_path / "b"), backend="sqlite")
        assert file_store.backend == "file"
        assert isinstance(file_store.pages, FilePageStore)
        assert type(paged) is type(file_store) is ServerStore
        assert paged.backend == "sqlite"
        assert isinstance(paged.pages, SqlitePageStore)
        file_store.close()
        paged.close()


# -- what may reach the log ---------------------------------------------------

#: requests that once executed into an exception *after* they were
#: logged and fsynced, so that every later restart died replaying them.
#: Three are ill-formed whatever the state holds and are refused before
#: the log; the delete of an absent key depends on the state, so it is
#: logged like any request and ``execute`` is total on it.
POISON = {
    "delete-absent": DeleteQuery(b"never-stored"),
    "no-query": None,
    "not-a-query": b"not a query",
    "empty-range": RangeQuery(b"z", b"a"),
}
BACKENDS = ("file", "sqlite")


def _poison_request(name, seq):
    return Request(query=POISON[name],
                   extras={"user": "alice", "rid": f"alice:{seq}"})


class TestPoisonedRequests:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("in_batch", [False, True], ids=["alone", "in-a-batch"])
    @pytest.mark.parametrize("name", POISON)
    def test_directory_restarts_to_the_live_root(self, tmp_path, name,
                                                 in_batch, backend):
        data_dir = str(tmp_path / "server")
        core = ServerCore(order=4, data_dir=data_dir, backend=backend,
                          fsync=False, snapshot_every=1000)
        genesis = core.state.database.root_digest()
        registers = XorRegisters("alice", 4)
        requests = [_request("alice", f"k{i}".encode(), b"v", i) for i in range(6)]
        for request in requests[:4]:
            registers.step(request.query, core.apply_request("alice", request))

        poison = _poison_request(name, 100)
        batch = [requests[4], poison, requests[5]] if in_batch else [poison]
        wal_before = os.path.getsize(core.store.wal_path)
        responses = core.apply_batch([("alice", message) for message in batch])
        # the neighbours are answered and verify; so does the absent delete
        logged = 0
        for message, response in zip(batch, responses):
            if message is poison and name != "delete-absent":
                assert isinstance(response, ErrorReply)
                assert response.extras == {"retryable": False}
                assert "malformed request" in response.reason
                continue
            outcome = registers.step(message.query, response)
            assert (outcome.old_root == outcome.new_root) == (message is poison)
            logged += 1
        wal_after = os.path.getsize(core.store.wal_path)
        assert (wal_after > wal_before) == (logged > 0)  # a refusal logs nothing
        live = (core.state.database.root_digest(), core.state.ctr)
        assert live[1] == 4 + logged
        assert sync_check(genesis, {"alice": registers.snapshot()})
        core.close_store()

        # every restart of the directory lands on the live root: from
        # the log alone, then again before and after a checkpoint
        replayed = 4 + logged
        for checkpoint in (False, True, False):
            restarted = ServerCore(order=4, data_dir=data_dir, backend=backend,
                                   fsync=False, snapshot_every=1000)
            assert (restarted.state.database.root_digest(),
                    restarted.state.ctr) == live
            assert restarted.replayed_records == replayed
            # a retry is refused again; the executed no-op is deduped
            again = restarted.apply_request("alice", poison)
            assert isinstance(again, ErrorReply) == (name != "delete-absent")
            assert restarted.state.ctr == live[1]
            if checkpoint:
                restarted.snapshot()
                replayed = 0
            restarted.close_store()

    #: malformed Protocol III audit fetches: ``internal_defect`` refuses
    #: each before the log (one once raised there, on every replay too)
    AUDIT_POISON = {
        "epochs-an-int": {"fetch_epochs": 5},
        "epochs-mixed": {"fetch_epochs": [0, "one"]},
        "epochs-a-dict": {"fetch_epochs": {"a": 1}},
        "no-epochs": {},
    }

    @pytest.mark.parametrize("name", AUDIT_POISON)
    def test_malformed_audit_fetch_is_refused_before_the_log(self, tmp_path, name):
        signer = make_replica_keys(1, 91).primary
        data_dir = str(tmp_path / "server")

        def server():
            return ServerCore(order=4, data_dir=data_dir, fsync=False,
                              snapshot_every=1000, protocol=Protocol3Server(40))

        deposit = EpochDeposit(user_id="alice", epoch=0, sigma=Digest.zero(),
                               last=Digest.zero(), signature=signer.sign(Digest.zero()))
        core = server()
        core.apply_request("alice", Request(query=WriteQuery(b"k", b"v"),
                                            extras={"deposit": deposit}))
        wal = core.store.wal_path
        logged = os.path.getsize(wal)
        refused = core.apply_request(
            "alice", Request(query=None, extras=self.AUDIT_POISON[name]))
        assert isinstance(refused, ErrorReply)
        assert refused.extras == {"retryable": False}
        assert "audit fetch" in refused.reason
        assert os.path.getsize(wal) == logged
        core.close_store()

        restarted = server()
        assert restarted.replayed_records == 1
        fetched = restarted.apply_request(
            "alice", Request(query=None, extras={"fetch_epochs": [0, 1]}))
        assert fetched.extras["deposits"] == {0: {"alice": deposit}, 1: {}}
        restarted.close_store()

    #: control requests of a protocol whose every request is internal:
    #: wire-decodable, ill-typed, and logged before they execute -- so
    #: the witness must answer each (there is no refusing after the log)
    WITNESS_POISON = {
        "fetch-a-dict": {FETCH_KEY: ({"a": 1},)},
        "fetch-nested-and-mixed": {FETCH_KEY: (({"a": 1},), None, 1.5, b"x", 2)},
        "fetch-not-a-list": {FETCH_KEY: {"a": 1}},
        "deposit-a-dict": {DEPOSIT_KEY: ({"a": 1}, 7, None)},
        "deposit-not-a-list": {DEPOSIT_KEY: "text"},
    }

    @pytest.mark.parametrize("in_batch", [False, True], ids=["alone", "in-a-batch"])
    @pytest.mark.parametrize("name", WITNESS_POISON)
    def test_witness_directory_restarts_to_its_live_state(self, tmp_path, name,
                                                          in_batch):
        keys = make_replica_keys(1, 91)
        data_dir = str(tmp_path / "witness")

        def witness():
            return ServerCore(
                order=4, data_dir=data_dir, fsync=False, snapshot_every=1000,
                protocol=WitnessProtocol(witness_name(0), keys.witnesses[0],
                                         keys.verifier))

        def control(extras):
            return Request(query=None, extras={"user": "!repl", **extras})

        core = witness()
        deposits = [make_deposit(keys.primary, ctr, Digest.zero())
                    for ctr in (1, 2, 3)]
        core.apply_request("!repl", control({DEPOSIT_KEY: deposits[:2]}))
        poison = control(self.WITNESS_POISON[name])
        deposit, fetch = control({DEPOSIT_KEY: deposits[2:]}), control({FETCH_KEY: (1, 3)})
        batch = [deposit, poison, fetch] if in_batch else [poison]
        responses = core.apply_batch([("mallory", message) for message in batch])
        # the poison is answered: nothing stored, and nothing attested
        # but the one counter among the junk
        answer = responses[batch.index(poison)].extras
        assert set(answer.get(ATTEST_KEY, {})) <= {2}
        assert answer.get("stored", 0) == 0
        if in_batch:  # the neighbours are served
            assert responses[0].extras["stored"] == 1
            attested = responses[2].extras[ATTEST_KEY]
            assert [attested[ctr].deposit for ctr in (1, 3)] == [deposits[0], deposits[2]]
        live = (dict(core.state.meta[META_DEPOSITS]), core.state.ctr)
        assert sorted(live[0]) == ([1, 2, 3] if in_batch else [1, 2])
        core.close_store()

        replayed = 1 + len(batch)
        for checkpoint in (False, True, False):
            restarted = witness()
            assert (restarted.state.meta[META_DEPOSITS], restarted.state.ctr) == live
            assert restarted.replayed_records == replayed
            head = restarted.apply_request("!repl", control({FETCH_KEY: ()}))
            assert head.extras[HEAD_KEY] == max(live[0])
            live = (live[0], live[1] + 1)
            replayed += 1
            if checkpoint:
                restarted.snapshot()
                replayed = 0
            restarted.close_store()

    @pytest.mark.parametrize("window", [1, 8])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_delete_absent_over_tcp(self, tmp_path, backend, window):
        """The verified no-op through the deployed path: sessions at
        either window verify it, the registers still sync, and the
        directory restarts to the root the clients hold."""
        data_dir = str(tmp_path / "server")
        server = serve_in_thread(order=4, data_dir=data_dir, backend=backend,
                                 fsync=False)
        host, port = server.address
        genesis = server.initial_root_digest()
        try:
            with RemoteClient(host, port, "alice", genesis, order=4,
                              window=window, retry=_fast_retry()) as alice:
                queries = [WriteQuery(b"k1", b"v1"), DeleteQuery(b"absent"),
                           WriteQuery(b"k2", b"v2"), DeleteQuery(b"k1"),
                           DeleteQuery(b"k1"), ReadQuery(b"k2")]
                answers = []
                for query in queries:
                    answers.extend(alice.submit(query))
                answers.extend(alice.drain())
                assert answers == [None, None, None, None, None, b"v2"]
                assert sync_check(genesis, {"alice": alice.registers()})
                # a request no state can execute is refused, and the
                # session goes on
                with pytest.raises(ServerBusyError, match="empty range"):
                    alice.execute(RangeQuery(b"z", b"a"))
                assert alice.get(b"k2") == b"v2"
                assert sync_check(genesis, {"alice": alice.registers()})
            before = server.consistent_view()[:2]
            assert before[1] == len(queries) + 1
        finally:
            server.stop()
        restarted = serve_in_thread(order=4, data_dir=data_dir, backend=backend,
                                    fsync=False)
        try:
            assert restarted.consistent_view()[:2] == before
        finally:
            restarted.stop()

    def test_delete_absent_inside_a_signing_run(self, tmp_path, shared_keys):
        """Protocol I: the no-op leaves the root where it was and moves
        the counter, inside a signing run and at its end -- the next
        batch head's signature check must not raise a false alarm."""
        from tests.test_async_net import p1_async_server

        data_dir = str(tmp_path / "server")
        server = p1_async_server(shared_keys, batch_max=64, data_dir=data_dir,
                                 fsync=False)
        try:
            host, port = server.address
            with RemoteClientP1(
                    host, port, "alice", shared_keys.signers["alice"],
                    shared_keys.verifier, order=4, window=4) as alice:
                runs = [
                    [WriteQuery(b"k1", b"v"), DeleteQuery(b"absent"),
                     WriteQuery(b"k2", b"v"), DeleteQuery(b"absent")],
                    [DeleteQuery(b"absent"), WriteQuery(b"k3", b"v"),
                     DeleteQuery(b"k1"), DeleteQuery(b"k1")],
                    [ReadQuery(b"k2")],
                ]
                for run in runs:
                    for query in run:
                        alice.submit(query)
                    alice.drain()
                assert count_sync_check({"alice": alice.counts()})
            before = server.consistent_view()[:2]
            assert before[1] == sum(len(run) for run in runs)
        finally:
            server.stop()
        restarted = serve_in_thread(order=4, protocol=Protocol1Server(),
                                    data_dir=data_dir, fsync=False)
        try:
            assert restarted.consistent_view()[:2] == before
        finally:
            restarted.stop()
