"""Storage robustness -- the crash-point recovery matrix, the tamper
gallery, the whole-directory flip sweep, the streaming-restart gate and
the incremental-checkpoint counts for the paged checkpoint engine.

Five campaigns; the first three run on both page stores (``--backend
file``, the append-only ``pages.log``, and ``--backend sqlite``,
``pages.db``), the last two on sqlite:

* **crash matrix** -- kill the server at every announced storage crash
  point (mid WAL append, a group commit written and flushed but not
  fsynced, mid page write, between a leaf's value pages and its leaf
  page, either side of the checkpoint commit, between a new log's
  creation and the directory fsync naming it, mid segment GC...), plus
  on the page file the bootstrap dying before ``pages.log`` is named, a
  commit torn before its fsync, a commit whose fsync lied, and either
  side of a compaction's rename; restart, and gate on: the crash
  actually fired where it was aimed, no acknowledged write
  was lost, the recovered top root and dedup table are those of an
  uninterrupted run of the same prefix, read VOs verify against the
  recovered root, and the store accepts new writes.
* **tamper gallery** -- faults that must be *detected*, never masked:
  a bit-rotted page (quarantined and repaired from the previous
  generation + segment replay, root re-verified), a doctored replay
  segment (refused), a page store that lied about commit durability
  with appends after it (refused), a garbage manifest (refused), and a
  record length prefix flipped to run past the end of the WAL, of the
  page file, or of each log newer than a lost checkpoint's (refused,
  not trimmed as a torn tail or deleted as never acked into).
* **flip sweep** -- a small store (13 ops: 11 writes and 2 deletes, at
  order 4, one shard, a checkpoint every 5 ops, fsync off) is closed,
  and every byte of every file in its directory is XORed with 0xFF,
  one at a time, each on a fresh copy that is then restarted.  A flip
  passes if the restart is refused by a named error (``WalError``,
  ``StorageError``) or serves the untouched restart's root, dedup
  table and acked writes; it fails on a silent change of any of them
  or an unnamed exception.  The per-verdict counts per file are
  tracked numbers, printed with the byte ranges whose flips change
  nothing.  The full campaign flips every byte; ``--quick`` every
  :data:`FLIP_QUICK_STRIDE`-th.
* **streaming restart** -- a million-entry store is checkpointed and
  reloaded; the loader must parse pages as they arrive, never
  materialising the serialised tree (gated on peak resident page
  bytes staying within a few pages while total streamed bytes run to
  tens of MB).
* **incremental checkpoint** -- 4 shards x 20,000 entries are
  checkpointed, 50 are overwritten and the store is checkpointed again:
  the second checkpoint must write at most 50 value pages and at most 50
  leaf pages, at most 50 x (the new value's bytes + the largest leaf
  page of the first checkpoint) bytes of them, and leave exactly the
  rows the manifest's current and previous states name; then, after 50
  inserts and 50 deletes (splits and merges), at most 50 value pages
  and 200 leaf pages, their bytes under 2 % of the store's page bytes.
  The ``nodes`` stream of a changed shard is rewritten whole and
  reported beside it: with entries this small it is the larger number.
  Counts, not times: they repeat exactly.

``python benchmarks/campaign.py storage --quick --check`` is the CI
gate (fixed seed, abridged matrix workload); without ``--quick`` it
runs the full campaign.  ``tests/test_crash_recovery.py`` runs the same
crash cells through :func:`crash_cell`.
"""

import os
import shutil
import tempfile
import time
from collections import Counter

from bench_common import emit_json, failed_checks, progress

from repro.mtree.database import (
    ClientVerifier,
    DeleteQuery,
    ReadQuery,
    VerifiedDatabase,
    WriteQuery,
)
from repro.net.core import ServerCore
from repro.net.wal import (
    ServerStore, WalError, load_manifest, log_gens, log_name)
from repro.protocols.base import Request, ServerState
from repro.protocols.protocol2 import Protocol2Server
from repro.storage.atomic import frame_record, parse_records
from repro.storage.engine import (
    PAGE_BYTES,
    PageRows,
    load_shard_tree,
    row_fields,
)
from repro.storage.faults import FaultyIO, SimulatedCrash
from repro.storage.pagestore import (
    PAGE_LOG_MAGIC, StorageError, open_page_store)

SHARDS = 2
ORDER = 4
SNAPSHOT_EVERY = 10
SEED = 4201

#: every storage crash point, with the occurrence that lands it in the
#: middle of live traffic (occurrence 1 of the checkpoint points is the
#: bootstrap snapshot, which is also page writes 1-4: a leaf page and a
#: nodes page for each empty shard; a new log is first named before any
#: write (``wal.1.log``), so its cell dies naming ``wal.2.log``, and GC
#: first fires at checkpoint 2; leaf page 3 is checkpoint 1's first,
#: written after the value pages it names; each request is a batch of
#: one, so ``wal:before-fsync`` 17 is the 17th request's group commit).
#: ``acked > 0`` checks the landing; a :data:`BOOTSTRAP_POINTS` cell
#: lands when the server never started.
CRASH_POINTS = [
    ("wal:append", 17),
    ("wal:before-fsync", 17),
    ("file:mid-write", 17),
    ("pagestore:page-write", 7),
    ("pagestore:leaves-page-write", 3),
    ("pagestore:pre-commit", 2),
    ("pagestore:post-commit", 2),
    ("checkpoint:before-commit", 2),
    ("checkpoint:after-commit", 2),
    ("wal:new-log", 2),
    ("compaction:mid-segment-gc", 1),
]

#: the cells only an append-only page file has: (name, crash point,
#: occurrence, further faults, least ops).  ``pages.log`` is new only
#: at the bootstrap checkpoint.  Checkpoint 1's commit is the 14th
#: fsync (after the bootstrap commit, the directory fsyncs naming
#: pages.log and wal.1.log, and ten appends); the page file's first
#: compaction comes at checkpoint 9.
PAGE_FILE_CELLS = [
    ("pagelog:new-log", "pagelog:new-log", 1, {}, 0),
    ("torn-page-log-tail", "pagelog:before-fsync", 2, {}, 0),
    ("lying-fsync-on-commit", "checkpoint:after-commit", 2,
     {"lying_fsync": 14}, 0),
    ("page-log-compaction:before-rename", "atomic:before-rename", 1, {}, 100),
    ("page-log-compaction:between-rename-and-dirfsync",
     "atomic:between-rename-and-dirfsync", 1, {}, 100),
    ("page-log-compaction:after-dirfsync", "atomic:after-dirfsync", 1, {},
     100),
]
BACKENDS = ("file", "sqlite")
#: crash points whose cell dies inside the bootstrap checkpoint
BOOTSTRAP_POINTS = {"pagelog:new-log"}
#: every crash cell, ``(backend, name, crash point, occurrence, further
#: faults, least ops)``: the page file's, then the same points on sqlite
CRASH_CELLS = (
    [("file", point, point, occurrence, {}, 0)
     for point, occurrence in CRASH_POINTS]
    + [("file", *cell) for cell in PAGE_FILE_CELLS]
    + [("sqlite", point, point, occurrence, {}, 0)
       for point, occurrence in CRASH_POINTS])


def _request(key, value, seq):
    return Request(query=WriteQuery(key, value),
                   extras={"user": "bench", "rid": f"bench:{seq}"})


def _ops(n):
    return [(b"key%06d" % i, b"val%d" % i) for i in range(n)]


def _run_until_crash(core, ops):
    acked = []
    try:
        for seq, (key, value) in enumerate(ops):
            core.apply_request("bench", _request(key, value, seq))
            acked.append((key, value))
    except SimulatedCrash:
        pass
    return acked


def _vos_verify(database, keys):
    """Read VOs for ``keys`` must verify against the recovered root."""
    verifier = ClientVerifier(database.root_digest(), order=database.spec)
    for key in keys:
        query = ReadQuery(key)
        result = database.execute(query)
        verifier.apply(query, result)  # raises ProofError on violation
    return True


def crash_cell(backend, name, point, occurrence, faults, least, n_ops,
               seed=SEED):
    """Kill a server at ``point``'s ``occurrence`` (with ``faults``
    too) while it applies ``max(n_ops, least)`` writes, restart it, and
    check the recovery against an uninterrupted run of what it
    executed."""
    ops = _ops(max(n_ops, least))
    data_dir = tempfile.mkdtemp(prefix="bench-storage-")
    try:
        io = FaultyIO(seed=seed + occurrence, crash_at={point: occurrence},
                      **faults)
        try:
            core = ServerCore(order=ORDER, data_dir=data_dir,
                              backend=backend, fsync=True, shards=SHARDS,
                              snapshot_every=SNAPSHOT_EVERY, io=io)
        except SimulatedCrash:
            core = None  # the bootstrap checkpoint died
        acked = [] if core is None else _run_until_crash(core, ops)
        fired = io.crash_count == 1 and all(
            io._hits.get(fault, 0) >= at for fault, at in faults.items())
        landed = core is None if point in BOOTSTRAP_POINTS else len(acked) > 0
        if core is not None:
            core.store.close()
        io.simulate_crash()

        fresh = ServerCore(order=ORDER, data_dir=data_dir, backend=backend,
                           fsync=True, shards=SHARDS, io=io)
        lost = [key for key, value in acked
                if fresh.state.database.get(key) != value]
        executed = fresh.state.ctr
        reference = ServerCore(order=ORDER, shards=SHARDS)
        _run_until_crash(reference, ops[:executed])
        root_match = (executed >= len(acked)
                      and fresh.state.database.root_digest()
                      == reference.state.database.root_digest())
        dedup_match = fresh.dedup.export() == reference.dedup.export()
        vo_ok = _vos_verify(fresh.state.database,
                            [key for key, _ in acked[-5:]] or [b"x"])
        fresh.apply_request("bench", _request(b"post", b"crash", len(ops)))
        post_ok = fresh.state.database.get(b"post") == b"crash"
        fresh.close_store()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    checks = {
        "fired": fired,
        "landed": landed,
        "acked_lost": len(lost),
        "root_matches_reference": root_match,
        "dedup_matches_reference": dedup_match,
        "vos_verify": vo_ok,
        "writable_after_recovery": post_ok,
    }
    progress(f"  {backend:<6} crash @ {name:<48} acked={len(acked):>3} "
             f"executed={executed:>3} lost={len(lost)} "
             f"[{'FAIL' if failed_checks(checks) else 'ok'}]")
    return {"backend": backend, "point": name, "acked": len(acked),
            "executed": executed, "checks": checks}


def flip_length(path, head, index):
    """Set the top byte of record ``index``'s length prefix to 0x7f: the
    record then claims ~2 GB, past the end of the file."""
    with open(path, "r+b") as handle:
        blob = handle.read()
        records, _end = parse_records(memoryview(blob)[len(head):])
        handle.seek(len(head) + sum(len(frame_record(*record))
                                    for record in records[:index]))
        handle.write(b"\x7f")


def _populated_dir(n_ops, data_dir, backend):
    core = ServerCore(order=ORDER, data_dir=data_dir, backend=backend,
                      fsync=False, shards=SHARDS,
                      snapshot_every=SNAPSHOT_EVERY)
    ops = _ops(n_ops)
    for seq, (key, value) in enumerate(ops):
        core.apply_request("bench", _request(key, value, seq))
    root = core.state.database.root_digest()
    core.snapshot()
    core.close_store()
    return root


def tamper_gallery(n_ops, seed):
    rows = []

    def scenario(backend, name, run):
        data_dir = tempfile.mkdtemp(prefix="bench-storage-")
        try:
            root = _populated_dir(n_ops, data_dir, backend)
            ok, note = run(backend, data_dir, root)
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
        rows.append({"backend": backend, "scenario": name, "pass": ok,
                     "outcome": note})
        progress(f"  {backend:<6} tamper: {name:<28} {note} "
                 f"[{'ok' if ok else 'FAIL'}]")

    def bitrot(backend, data_dir, root):
        io = FaultyIO(seed=seed, bitrot_page=("any", -1))
        core = ServerCore(order=ORDER, data_dir=data_dir, backend=backend,
                          fsync=False, shards=SHARDS, io=io)
        repaired = list(core.store.repaired_shards)
        match = core.state.database.root_digest() == root
        core.close_store()
        if repaired and match:
            return True, f"quarantined + repaired shard {repaired[0]}"
        return False, "rot not repaired or root diverged"

    def segment_tamper(backend, data_dir, root):
        segments = log_gens(data_dir)  # all retained: nothing is live
        if not segments:
            return False, "no retained segment to tamper"
        path = os.path.join(data_dir, log_name(segments[-1]))
        with open(path, "r+b") as handle:
            blob = bytearray(handle.read())
            blob[9] ^= 0x20
            handle.seek(0)
            handle.write(blob)
        io = FaultyIO(seed=seed, bitrot_page=("any", -1))
        try:
            ServerCore(order=ORDER, data_dir=data_dir, backend=backend,
                       fsync=False, shards=SHARDS, io=io)
        except WalError:
            return True, "repair refused the doctored segment"
        return False, "tampered segment silently accepted"

    def lying_commit(data_dir, backend):
        # re-run traffic with a page store that lies about one commit
        shutil.rmtree(data_dir)
        io = FaultyIO(seed=seed, lose_commit=3)
        core = ServerCore(order=ORDER, data_dir=data_dir, backend=backend,
                          fsync=True, shards=SHARDS,
                          snapshot_every=SNAPSHOT_EVERY, io=io)
        _run_until_crash(core, _ops(n_ops))
        core.store.close()
        io.simulate_crash()
        return io

    def lost_commit(backend, data_dir, root):
        io = lying_commit(data_dir, backend)
        try:
            ServerCore(order=ORDER, data_dir=data_dir, backend=backend,
                       fsync=True, shards=SHARDS, io=io)
        except WalError as exc:
            if "lost a checkpoint" in str(exc):
                return True, "lying commit detected on restart"
            return True, f"refused: {exc}"
        return False, "lost checkpoint silently served"

    def garbage_manifest(backend, data_dir, root):
        pages = open_page_store(data_dir, fsync=False, backend=backend)
        pages.begin()
        pages.put_meta("checkpoint", b"garbage")
        pages.commit()
        pages.close()
        try:
            ServerCore(order=ORDER, data_dir=data_dir, backend=backend,
                       fsync=False, shards=SHARDS)
        except WalError:
            return True, "undecodable manifest refused"
        return False, "garbage manifest accepted"

    def refused_flip(backend, data_dir):
        try:
            ServerCore(order=ORDER, data_dir=data_dir, backend=backend,
                       fsync=False, shards=SHARDS)
        except WalError as exc:
            if "length prefix was corrupted" in str(exc):
                return True, "flipped length prefix refused"
            return False, f"refused, but not by name: {exc}"
        return False, "records after the flip silently dropped"

    def wal_length_flip(backend, data_dir, root):
        # every write in the live log: no checkpoint after the bootstrap
        shutil.rmtree(data_dir)
        core = ServerCore(order=ORDER, data_dir=data_dir, backend=backend,
                          fsync=False, shards=SHARDS,
                          snapshot_every=n_ops + 1)
        _run_until_crash(core, _ops(n_ops))
        core.close_store()
        flip_length(os.path.join(data_dir, log_name(1)), b"", 2)
        return refused_flip(backend, data_dir)

    def newer_log_length_flip(backend, data_dir, root):
        # the logs after the lost checkpoint are read without their
        # start chain: each one's first length prefix flipped
        lying_commit(data_dir, backend)
        pages = open_page_store(data_dir, fsync=False, backend=backend)
        live = int(load_manifest(pages.get_meta("checkpoint"))["gen"]) + 1
        pages.close()
        newer = [gen for gen in log_gens(data_dir) if gen > live]
        if not newer:
            return False, "no log newer than the live one to flip"
        for gen in newer:
            flip_length(os.path.join(data_dir, log_name(gen)), b"", 0)
        return refused_flip(backend, data_dir)

    def page_file_length_flip(backend, data_dir, root):
        flip_length(os.path.join(data_dir, "pages.log"), PAGE_LOG_MAGIC, 2)
        return refused_flip(backend, data_dir)

    for backend in BACKENDS:
        scenario(backend, "bitrot-page", bitrot)
        scenario(backend, "doctored-segment", segment_tamper)
        scenario(backend, "lying-commit", lost_commit)
        scenario(backend, "garbage-manifest", garbage_manifest)
        scenario(backend, "wal-length-flip", wal_length_flip)
        scenario(backend, "newer-log-length-flip", newer_log_length_flip)
        if backend == "file":
            scenario(backend, "page-file-length-flip", page_file_length_flip)
    return rows


#: the flip sweep's store: ops, the two of them that delete (each an
#: earlier key), and the checkpoint interval
FLIP_OPS, FLIP_DELETES, FLIP_SNAPSHOT_EVERY = 13, (6, 11), 5
#: ``--quick`` flips every 17th byte of each file -- a prime, so the
#: flips land at every offset of a record's fields across the file --
#: ~1,800 restarts in all; the full sweep flips every byte, ~30,000
FLIP_QUICK_STRIDE = 17


def _flip_store(data_dir, backend):
    """The sweep's store, closed; returns each key's acked final value
    (``None`` once deleted)."""
    core = ServerCore(order=ORDER, data_dir=data_dir, backend=backend,
                      fsync=False, snapshot_every=FLIP_SNAPSHOT_EVERY)
    acked = {}
    for seq in range(FLIP_OPS):
        if seq in FLIP_DELETES:
            key, value = b"key%06d" % (seq - 5), None
            query = DeleteQuery(key)
        else:
            key, value = b"key%06d" % seq, b"val%d" % seq
            query = WriteQuery(key, value)
        core.apply_request("bench", Request(query=query, extras={
            "user": "bench", "rid": f"bench:{seq}"}))
        acked[key] = value
    core.close_store()
    return acked


def _served(data_dir, backend, acked):
    """What a restart of ``data_dir`` serves: its root, its dedup table
    and whether every acked write holds."""
    core = ServerCore(order=ORDER, data_dir=data_dir, backend=backend,
                      fsync=False)
    try:
        database = core.state.database
        return (database.root_digest(), core.dedup.export(),
                all(database.get(key) == value for key, value in acked.items()))
    finally:
        core.close_store()


def _flip_verdict(data_dir, backend, acked, untouched):
    try:
        served = _served(data_dir, backend, acked)
    except (WalError, StorageError):
        return "refused"
    except Exception as exc:  # noqa: BLE001 -- what the sweep looks for
        return f"unnamed {type(exc).__name__}"
    return "same" if served == untouched else "silent"


def _ranges(offsets, stride):
    """``[first, last]`` runs of offsets ``stride`` apart."""
    runs = []
    for offset in offsets:
        if runs and offset - runs[-1][1] == stride:
            runs[-1][1] = offset
        else:
            runs.append([offset, offset])
    return runs


def flip_sweep(stride):
    """XOR every ``stride``-th byte of every file of the sweep's store
    with 0xFF, one flip per fresh copy, and restart each copy."""
    rows = []
    for backend in BACKENDS:
        base = tempfile.mkdtemp(prefix="bench-storage-")
        try:
            acked = _flip_store(os.path.join(base, "store"), backend)
            files = {}
            for name in sorted(os.listdir(os.path.join(base, "store"))):
                with open(os.path.join(base, "store", name), "rb") as handle:
                    files[name] = handle.read()

            def laid_out(flipped=None, offset=0):
                work = os.path.join(base, "work")
                shutil.rmtree(work, ignore_errors=True)
                os.mkdir(work)
                for name, blob in files.items():
                    if name == flipped:
                        blob = bytearray(blob)
                        blob[offset] ^= 0xFF
                    with open(os.path.join(work, name), "wb") as handle:
                        handle.write(blob)
                return work

            untouched = _served(laid_out(), backend, acked)
            for name, blob in files.items():
                verdicts, unchanged, failing = Counter(), [], []
                for offset in range(0, len(blob), stride):
                    verdict = _flip_verdict(laid_out(name, offset), backend,
                                            acked, untouched)
                    verdicts[verdict.split()[0]] += 1
                    if verdict == "same":
                        unchanged.append(offset)
                    elif verdict != "refused":
                        failing.append(f"{offset}: {verdict}")
                row = {"backend": backend, "file": name, "bytes": len(blob),
                       "stride": stride, "refused": verdicts["refused"],
                       "same": verdicts["same"], "silent": verdicts["silent"],
                       "unnamed": verdicts["unnamed"], "failing": failing,
                       "unchanged": _ranges(unchanged, stride)}
                rows.append(row)
                progress(f"  {backend:<6} flip {name:<10} {len(blob):>6} bytes: "
                         f"refused {row['refused']}, same {row['same']}, "
                         f"silent {row['silent']}, unnamed {row['unnamed']} "
                         f"[{'FAIL' if failing else 'ok'}]")
                progress("           unchanged by a flip: " + (", ".join(
                    f"{low}-{high}" for low, high in row["unchanged"]) or "none"))
        finally:
            shutil.rmtree(base, ignore_errors=True)
    return rows


def _checkpointed_store(entries, data_dir):
    """Build an ``entries``-entry store and checkpoint it into
    ``data_dir``; returns ``(root, build_secs, checkpoint_secs)``.  The
    tree and the writer's page rows die with this call, so the restart
    that follows is the only tree in memory."""
    database = VerifiedDatabase(order=64, shards=4)
    forest = database.mtree
    build_start = time.time()
    for i in range(entries):
        forest.insert(b"%010d" % i, b"value-%d" % i)
    root = database.root_digest()
    build_secs = time.time() - build_start

    state = ServerState(database=database)
    Protocol2Server().initialize(state)
    state.ctr = entries
    store = ServerStore(data_dir, backend="sqlite", fsync=False)
    checkpoint_start = time.time()
    store.write_snapshot(state, {})
    checkpoint_secs = time.time() - checkpoint_start
    store.close()
    return root, build_secs, checkpoint_secs


def streaming_restart(entries):
    """Checkpoint a large store, reload it, gate on bounded residency."""
    data_dir = tempfile.mkdtemp(prefix="bench-storage-big-")
    try:
        root, build_secs, checkpoint_secs = \
            _checkpointed_store(entries, data_dir)
        db_bytes = os.path.getsize(os.path.join(data_dir, "pages.db"))

        fresh = ServerStore(data_dir, backend="sqlite", fsync=False)
        load_start = time.time()
        loaded = fresh.load_snapshot()
        load_secs = time.time() - load_start
        stats = fresh.load_stats
        fresh.close()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    loaded_db, ctr, _meta, _dedup, _chain = loaded
    result = {
        "entries": entries,
        "root_matches": loaded_db.root_digest() == root and ctr == entries,
        "build_secs": round(build_secs, 2),
        "checkpoint_secs": round(checkpoint_secs, 2),
        "load_secs": round(load_secs, 2),
        "store_mb": round(db_bytes / 1e6, 1),
        "streamed_mb": round(stats.bytes / 1e6, 1),
        "pages_streamed": stats.pages,
        "max_resident_page_bytes": stats.max_resident_page_bytes,
        # one nodes page (overshooting the 32 KiB target by at most one
        # line) plus one leaf's pages in flight: "never holds the tree's
        # serialised form" is the acceptance criterion for
        # million-entry restarts
        "residency_bound_bytes": 4 * PAGE_BYTES,
    }
    result["checks"] = {
        "root_matches": result["root_matches"],
        "streamed_over_10_pages": stats.bytes > 10 * PAGE_BYTES,
        "resident_under_bound": stats.max_resident_page_bytes
        < result["residency_bound_bytes"],
    }
    progress(f"  streaming restart: {entries} entries, "
             f"{result['streamed_mb']} MB streamed in "
             f"{result['load_secs']}s, peak resident page bytes "
             f"{stats.max_resident_page_bytes} "
             f"[{'FAIL' if failed_checks(result['checks']) else 'ok'}]")
    return result


def _rows_match_named_pages(store):
    """Rows held == pages named by each shard's current + previous state
    (both loaded through the verifying loader: the repair recipe must
    not only be accounted for, it must still load)."""
    for record in store._manifest["shards"]:
        shard = int(record["shard"])
        named = PageRows()
        for gen, root in (("gen", "root"), ("prev_gen", "prev_root")):
            if int(record[gen]) >= 0:
                load_shard_tree(store.pages, shard, int(record[gen]),
                                expected_root=record[root], rows=named)
        if set(map(row_fields, named.values())) != {
                (kind, page, gen) for kind in ("leaves", "entries")
                for gen, page in store.pages.page_keys(kind, shard)}:
            return False
    return True


#: what the incremental checkpoint's 50 overwrites write
OVERWRITE = b"v1-longer-than-before"


def incremental_checkpoint():
    """What a checkpoint writes must follow what changed, not what the
    store holds (counts the page store keeps of its own writes)."""
    shards, per_shard, touched = 4, 20_000, 50
    database = VerifiedDatabase(order=8, shards=shards)
    keys = [b"%08d" % i for i in range(shards * per_shard)]
    for key in keys:
        database.mtree.insert(key, b"v0")
    state = ServerState(database=database)
    Protocol2Server().initialize(state)
    data_dir = tempfile.mkdtemp(prefix="bench-storage-inc-")
    steps = []
    try:
        store = ServerStore(data_dir, backend="sqlite", fsync=False)

        def checkpoint(step):
            store.write_snapshot(state, {})
            gen = int(store._manifest["gen"])
            counts = [record["counts"] for record in store._manifest["shards"]
                      if int(record["gen"]) == gen]
            row = {"step": step}
            for name in ("value", "leaf", "nodes"):
                for unit in ("pages", "bytes"):
                    row[f"{name}_{unit}_written"] = \
                        sum(c[f"{name}_{unit}"] for c in counts)
            row["rows_match_named_pages"] = _rows_match_named_pages(store)
            steps.append(row)
            return row

        full = checkpoint("full")
        store_bytes = sum(full[f"{name}_bytes_written"]
                          for name in ("value", "leaf", "nodes"))
        leaf_page_max = max(len(page) for shard in range(shards)
                            for page in store.pages.read_pages(
                                "leaves", shard, 0))
        stride = len(keys) // touched
        for key in keys[::stride][:touched]:
            database.mtree.insert(key, OVERWRITE)
        checkpoint("50 overwrites")
        for i in range(touched):
            database.mtree.insert(b"%08d+" % (i * stride), b"new")
            database.mtree.delete(keys[i * stride + 7])
        checkpoint("50 inserts + 50 deletes")
        store.close()
        fresh = ServerStore(data_dir, backend="sqlite", fsync=False)
        loaded = fresh.load_snapshot()
        root_matches = loaded[0].root_digest() == database.root_digest() \
            and fresh.repaired_shards == []
        fresh.close()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    overwrite, churn = steps[1], steps[2]
    result = {
        "entries": len(keys), "shards": shards, "touched": touched,
        "store_page_bytes": store_bytes, "leaf_page_max": leaf_page_max,
        "steps": steps, "root_matches": root_matches,
    }

    def written(step):
        return step["value_bytes_written"] + step["leaf_bytes_written"]

    # an overwrite writes its value and its leaf's keys; an insert
    # writes its value, and an insert or a delete dirties one leaf, two
    # when it splits or merges one
    result["checks"] = {
        "root_matches": root_matches,
        "rows_match_named_pages": all(step["rows_match_named_pages"]
                                      for step in steps),
        "overwrites_write_at_most_50_value_pages":
            overwrite["value_pages_written"] <= touched,
        "overwrites_write_at_most_50_leaf_pages":
            overwrite["leaf_pages_written"] <= touched,
        "overwrites_write_at_most_50_values_and_leaves":
            written(overwrite) <= touched * (len(OVERWRITE) + leaf_page_max),
        "churn_writes_at_most_50_value_pages":
            churn["value_pages_written"] <= touched,
        "churn_writes_at_most_200_leaf_pages":
            churn["leaf_pages_written"] <= 4 * touched,
        "churn_writes_under_2_percent": written(churn) < 0.02 * store_bytes,
    }
    for step in steps:
        progress(f"  {step['step']:<24} value pages written "
                 f"{step['value_pages_written']:>6} "
                 f"({step['value_bytes_written']} B), leaf pages "
                 f"{step['leaf_pages_written']:>6} "
                 f"({step['leaf_bytes_written']} B; together "
                 f"{100 * written(step) / store_bytes:.2f} % "
                 f"of the store's {store_bytes} B), nodes streams "
                 f"{step['nodes_bytes_written']} B, rows == named pages: "
                 f"{step['rows_match_named_pages']}")
    progress(f"  50 overwrites: {written(overwrite)} B written, bound "
             f"{touched} x ({len(OVERWRITE)} + {leaf_page_max}) = "
             f"{touched * (len(OVERWRITE) + leaf_page_max)} B")
    progress("  incremental checkpoint "
             f"[{'FAIL' if failed_checks(result['checks']) else 'ok'}]")
    return result


def run(quick: bool = False, seed: int = SEED) -> dict:
    """The five campaigns, the crash matrix on CI's abridged workload
    and the flip sweep at a stride with ``quick``, written to
    ``storage_recovery.json``."""
    n_ops, entries = (35 if quick else 120), 1_000_000
    progress("crash-point recovery matrix (both page stores):")
    matrix = [crash_cell(*cell, n_ops=n_ops, seed=seed)
              for cell in CRASH_CELLS]
    progress("tamper gallery (detected, never masked):")
    gallery = tamper_gallery(n_ops, seed)
    progress("flip sweep (every byte of every file, refused or masked):")
    sweep = flip_sweep(FLIP_QUICK_STRIDE if quick else 1)
    progress("streaming restart:")
    streaming = streaming_restart(entries)
    progress("incremental checkpoint (counts):")
    results = {
        "config": {"ops": n_ops, "entries": entries, "seed": seed,
                   "shards": SHARDS, "snapshot_every": SNAPSHOT_EVERY},
        "crash_matrix": matrix,
        "tamper_gallery": gallery,
        "flip_sweep": sweep,
        "streaming_restart": streaming,
        "incremental_checkpoint": incremental_checkpoint(),
    }
    emit_json("storage_recovery", results)
    return results


def failures(results: dict) -> list[str]:
    """Each crash cell's and each campaign's criterion that fails, each
    tamper that was masked, and each flip that changed the served state
    silently or raised an unnamed error, by name."""
    problems = [f"crash {cell['backend']}/{cell['point']}: {problem}"
                for cell in results["crash_matrix"]
                for problem in failed_checks(cell["checks"])]
    problems += [f"tamper {row['backend']}/{row['scenario']}: "
                 f"{row['outcome']}"
                 for row in results["tamper_gallery"] if not row["pass"]]
    problems += [f"flip {row['backend']}/{row['file']} at {failing}"
                 for row in results["flip_sweep"] for failing in row["failing"]]
    for part in ("streaming_restart", "incremental_checkpoint"):
        problems += [f"{part}: {problem}"
                     for problem in failed_checks(results[part]["checks"])]
    return problems
