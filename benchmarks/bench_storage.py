"""Storage robustness -- the crash-point recovery matrix, the
streaming-restart gate and the incremental-checkpoint counts for the
paged checkpoint engine.

Four campaigns; the first two run on both page stores (``--backend
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
  was lost, the recovered top root is bit-identical to an uninterrupted
  run of the same prefix, read VOs verify against the recovered root,
  and the store accepts new writes.
* **tamper gallery** -- faults that must be *detected*, never masked:
  a bit-rotted page (quarantined and repaired from the previous
  generation + segment replay, root re-verified), a doctored replay
  segment (refused), a page store that lied about commit durability
  with appends after it (refused), a garbage manifest (refused).
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

Run ``python benchmarks/bench_storage.py --quick --check`` for the CI
gate (fixed seed, abridged matrix workload) or without ``--quick`` for
the full campaign.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from bench_common import emit_json

from repro.crypto.hashing import Digest
from repro.mtree.database import (
    ClientVerifier,
    ReadQuery,
    VerifiedDatabase,
    WriteQuery,
)
from repro.net.core import ServerCore
from repro.net.wal import ServerStore, WalError, log_gens, log_name
from repro.protocols.base import Request, ServerState
from repro.protocols.protocol2 import Protocol2Server
from repro.storage.engine import (
    PAGE_BYTES,
    PageRows,
    load_shard_tree,
    row_fields,
)
from repro.storage.faults import FaultyIO, SimulatedCrash
from repro.storage.pagestore import open_page_store

SHARDS = 2
ORDER = 4
SNAPSHOT_EVERY = 10

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


def _reference_root(n, ops):
    reference = VerifiedDatabase(order=ORDER, shards=SHARDS)
    for key, value in ops[:n]:
        reference.execute(WriteQuery(key, value))
    return reference.root_digest()


def _vos_verify(database, keys):
    """Read VOs for ``keys`` must verify against the recovered root."""
    verifier = ClientVerifier(database.root_digest(), order=database.spec)
    for key in keys:
        query = ReadQuery(key)
        result = database.execute(query)
        verifier.apply(query, result)  # raises ProofError on violation
    return True


def _crash_cell(backend, name, point, occurrence, faults, ops, seed):
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
        root_match = (executed >= len(acked)
                      and fresh.state.database.root_digest()
                      == _reference_root(executed, ops))
        vo_ok = _vos_verify(fresh.state.database,
                            [key for key, _ in acked[-5:]] or [b"x"])
        fresh.apply_request("bench", _request(b"post", b"crash", len(ops)))
        post_ok = fresh.state.database.get(b"post") == b"crash"
        fresh.close_store()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    cell = {
        "backend": backend,
        "point": name,
        "fired": fired,
        "acked": len(acked),
        "executed": executed,
        "acked_lost": len(lost),
        "root_matches_reference": root_match,
        "vos_verify": vo_ok,
        "writable_after_recovery": post_ok,
    }
    cell["pass"] = (fired and landed and not lost
                    and root_match and vo_ok and post_ok)
    return cell


def crash_matrix(n_ops, seed, verbose):
    cells = []
    for backend in BACKENDS:
        plan = [(point, point, occurrence, {}, 0)
                for point, occurrence in CRASH_POINTS]
        if backend == "file":
            plan += PAGE_FILE_CELLS
        for name, point, occurrence, faults, least in plan:
            cell = _crash_cell(backend, name, point, occurrence, faults,
                               _ops(max(n_ops, least)), seed)
            cells.append(cell)
            if verbose:
                status = "ok" if cell["pass"] else "FAIL"
                print(f"  {backend:<6} crash @ {name:<48} "
                      f"acked={cell['acked']:>3} "
                      f"executed={cell['executed']:>3} "
                      f"lost={cell['acked_lost']} [{status}]")
    return cells


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


def tamper_gallery(n_ops, seed, verbose):
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
        if verbose:
            print(f"  {backend:<6} tamper: {name:<28} {note} "
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

    def lost_commit(backend, data_dir, root):
        # re-run traffic with a page store that lies about one commit
        shutil.rmtree(data_dir)
        io = FaultyIO(seed=seed, lose_commit=3)
        core = ServerCore(order=ORDER, data_dir=data_dir, backend=backend,
                          fsync=True, shards=SHARDS,
                          snapshot_every=SNAPSHOT_EVERY, io=io)
        _run_until_crash(core, _ops(n_ops))
        core.store.close()
        io.simulate_crash()
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

    for backend in BACKENDS:
        scenario(backend, "bitrot-page", bitrot)
        scenario(backend, "doctored-segment", segment_tamper)
        scenario(backend, "lying-commit", lost_commit)
        scenario(backend, "garbage-manifest", garbage_manifest)
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


def streaming_restart(entries, verbose):
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
    result["pass"] = (result["root_matches"]
                      and stats.bytes > 10 * PAGE_BYTES
                      and stats.max_resident_page_bytes
                      < result["residency_bound_bytes"])
    if verbose:
        print(f"  streaming restart: {entries} entries, "
              f"{result['streamed_mb']} MB streamed in "
              f"{result['load_secs']}s, peak resident page bytes "
              f"{stats.max_resident_page_bytes} "
              f"[{'ok' if result['pass'] else 'FAIL'}]")
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


def incremental_checkpoint(verbose):
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
    result["pass"] = (
        root_matches
        and all(step["rows_match_named_pages"] for step in steps)
        and overwrite["value_pages_written"] <= touched
        and overwrite["leaf_pages_written"] <= touched
        and written(overwrite) <= touched * (len(OVERWRITE) + leaf_page_max)
        and churn["value_pages_written"] <= touched
        and churn["leaf_pages_written"] <= 4 * touched
        and written(churn) < 0.02 * store_bytes)
    if verbose:
        for step in steps:
            print(f"  {step['step']:<24} value pages written "
                  f"{step['value_pages_written']:>6} "
                  f"({step['value_bytes_written']} B), leaf pages "
                  f"{step['leaf_pages_written']:>6} "
                  f"({step['leaf_bytes_written']} B; together "
                  f"{100 * written(step) / store_bytes:.2f} % "
                  f"of the store's {store_bytes} B), nodes streams "
                  f"{step['nodes_bytes_written']} B, rows == named pages: "
                  f"{step['rows_match_named_pages']}")
        print(f"  50 overwrites: {written(overwrite)} B written, bound "
              f"{touched} x ({len(OVERWRITE)} + {leaf_page_max}) = "
              f"{touched * (len(OVERWRITE) + leaf_page_max)} B")
        print(f"  incremental checkpoint [{'ok' if result['pass'] else 'FAIL'}]")
    return result


def run_campaign(n_ops, entries, seed, verbose=True):
    if verbose:
        print("crash-point recovery matrix (both page stores):")
    matrix = crash_matrix(n_ops, seed, verbose)
    if verbose:
        print("tamper gallery (detected, never masked):")
    gallery = tamper_gallery(n_ops, seed, verbose)
    if verbose:
        print("streaming restart:")
    streaming = streaming_restart(entries, verbose)
    if verbose:
        print("incremental checkpoint (counts):")
    incremental = incremental_checkpoint(verbose)
    return {
        "config": {"ops": n_ops, "entries": entries, "seed": seed,
                   "shards": SHARDS, "snapshot_every": SNAPSHOT_EVERY},
        "crash_matrix": matrix,
        "tamper_gallery": gallery,
        "streaming_restart": streaming,
        "incremental_checkpoint": incremental,
    }


def campaign_passes(results):
    return (all(cell["pass"] for cell in results["crash_matrix"])
            and all(row["pass"] for row in results["tamper_gallery"])
            and results["streaming_restart"]["pass"]
            and results["incremental_checkpoint"]["pass"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="abridged matrix workload for CI (fixed seed)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless every criterion holds")
    parser.add_argument("--seed", type=int, default=4201)
    parser.add_argument("--json", action="store_true", help="JSON only")
    args = parser.parse_args(argv)

    if args.quick:
        results = run_campaign(n_ops=35, entries=1_000_000,
                               seed=args.seed, verbose=not args.json)
    else:
        results = run_campaign(n_ops=120, entries=1_000_000,
                               seed=args.seed, verbose=not args.json)

    ok = campaign_passes(results)
    results["pass"] = ok
    emit_json("storage_recovery", results)
    print(json.dumps(results, indent=2, default=str))
    if args.check and not ok:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
