"""A command-line Trusted CVS client: a repository directory, or a server.

Usage (also via ``python -m repro``)::

    repro init REPO [--backend file|sqlite]        create a repository
    repro -R REPO commit PATH -m MSG [-a AUTHOR]   commit stdin/--file
    repro -R REPO checkout PATH [-r REV] [--expand] print a revision
    repro -R REPO log PATH                         revision history
    repro -R REPO diff PATH -r REV [--to REV2]     unified diff
    repro -R REPO annotate PATH [-r REV]           per-line blame
    repro -R REPO ls [PREFIX]                      list live files
    repro -R REPO remove PATH [-m MSG]             cvs remove
    repro -R REPO branch PATH [-r REV | --list]    create/list branches
    repro -R REPO bcommit PATH -b BRANCH            commit onto a branch
    repro -R REPO merge PATH -b BRANCH              merge a branch to trunk
    repro -R REPO update PATH -r BASE --file F      merge head into a working file
    repro -R REPO trust                            show the trust anchor
    repro -R REPO serve [-p PORT] [--batch-max N]  host the repository over TCP
    repro --remote HOST:PORT ...                   run any command against a server
    repro sync GENESIS ANCHOR...                   the users' register exchange
    repro obs-report [--protocol P] [--json]       simulate a workload, print obs metrics

Layout of a repository directory::

    REPO/server/                         the repository: the server's WAL and
                                         paged checkpoints (``store-inspect`` it)
    REPO/trust/AUTHOR.anchor             local mode: the author's registers
    REPO/trust/AUTHOR@HOST_PORT.anchor   --remote: the author's registers
                                         (AUTHOR-N.evidence, sync.evidence:
                                         a deviation, provable)

The trust anchor is the whole point: every verb runs the author's
Protocol II session resumed from it -- locally against the repository's
server core, opened in process under the lock ``serve`` takes, and
``--remote`` over TCP.  After every local operation the sync predicate
is evaluated over every anchor in ``REPO/trust/`` (the users' broadcast
channel), pinned to the empty repository's root; ``repro sync``
evaluates it over the anchors the users exchange.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from collections import Counter

from repro.core.facade import CvsClient
from repro.crypto.hashing import Digest
from repro.mtree.database import VerifiedDatabase
from repro.net.client import (
    IntegrityError, RemoteClient, TransientNetworkError, protocol2_core,
    read_anchor, write_anchor)
from repro.net.core import ServerCore
from repro.net.session import InlineSession
from repro.net.wal import WalError
from repro.storage.annotate import format_annotations
from repro.storage.atomic import LockError
from repro.storage.merge import render_with_markers
from repro.storage.pagestore import StorageError, backend_of

TRUST_DIR = "trust"
SERVER_DIR = "server"
#: what an older build kept in a repository directory, refused by name
RETIRED_FILES = {"db.snapshot": "bplus-snapshot 1", "trust/*.digest": "a root digest"}
#: local operations between checkpoints of the store (a commit is two):
#: a command replays the WAL records written since the last one
CHECKPOINT_EVERY = 16


class CliError(Exception):
    """User-facing command failure (bad args, unknown repo, ...)."""


def _anchor_path(repo_dir: str, author: str, remote: str | None) -> str:
    name = f"{author}@{remote.replace(':', '_')}" if remote else author
    return os.path.join(repo_dir, TRUST_DIR, name + ".anchor")


def _refuse_retired(directory: str, retired: dict = RETIRED_FILES) -> None:
    for pattern, format_name in retired.items():
        for path in glob.glob(os.path.join(directory, pattern)):
            raise CliError(f"{path!r} is {format_name}, a format this build "
                           "does not read: restore it with the build that "
                           "wrote it, or start from an empty directory")


def _repository(repo_dir: str) -> tuple[str, str]:
    """A repository's server directory and its page store's backend."""
    _refuse_retired(repo_dir)
    data_dir = os.path.join(repo_dir, SERVER_DIR)
    backend = backend_of(data_dir)
    if backend is None:
        raise CliError(f"{repo_dir!r} is not a repository (run 'repro init' first)")
    return data_dir, backend


def _genesis(spec) -> Digest:
    """The empty repository's root: what every anchor is pinned to."""
    return VerifiedDatabase(spec.order, spec.shards, spec.top_order).root_digest()


def _anchors(trust_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(trust_dir, "*.anchor")))


def _read_anchors(paths: list[str]) -> list[tuple[str, dict]]:
    """Each anchor file with its fields; an unusable one is exit 2."""
    try:
        return [(path, read_anchor(path)) for path in paths]
    except IntegrityError as exc:
        raise CliError(str(exc)) from exc


def sync_verdict(genesis: Digest,
                 anchors: list[tuple[str, dict]]) -> tuple[str, str | None]:
    """The Protocol II sync predicate over ``(anchor file, fields)``
    pairs: ``(whose registers, the sync bundle written beside the first
    file if it fails, or None)``.  Each anchor is one session's: an
    author who worked locally and ``--remote`` has two, by nonce."""
    from repro.net import evidence
    from repro.protocols.protocol2 import initial_state_tag, sync_check

    per_user = Counter(anchor["user"] for _path, anchor in anchors)
    registers, pinned_here = {}, initial_state_tag(genesis)
    for path, anchor in anchors:
        user = anchor["user"]
        if anchor["initial_tag"] and anchor["initial_tag"] != pinned_here:
            raise CliError(f"anchor {path!r} is pinned to another genesis root")
        session = user if per_user[user] == 1 else f"{user}/{anchor['nonce']}"
        if session in registers:
            raise CliError(f"two anchors of user {user!r} hold one session: "
                           f"{path!r} is a copy")
        if anchor["pending"] is not None:
            raise CliError(f"anchor {path!r} has an operation in flight: "
                           f"run a command as {user!r} first")
        registers[session] = {"sigma": anchor["sigma"], "last": anchor["last"]}
    users = "the registers of " + ", ".join(sorted(registers))
    if sync_check(genesis, registers):
        return users, None
    return users, evidence.write_bundle(
        os.path.join(os.path.dirname(anchors[0][0]), "sync.evidence"),
        evidence.sync_bundle(genesis, registers))


class Workspace:
    """One author's Protocol II session, resumed from their anchor, on
    the repository's server core in this process or on a remote server."""

    def __init__(self, repo_dir: str, author: str, remote: str | None = None) -> None:
        self.remote = remote
        self.anchor_path = _anchor_path(repo_dir, author, remote)
        self.trust_dir = os.path.dirname(self.anchor_path)
        os.makedirs(self.trust_dir, exist_ok=True)
        if remote:
            try:
                self.session = RemoteClient(
                    _parse_endpoints(remote), user_id=author,
                    anchor_path=self.anchor_path, evidence_dir=self.trust_dir)
            except TransientNetworkError as exc:
                raise CliError(f"cannot reach remote server {remote}: "
                               f"{exc.__cause__}") from exc
            except ValueError as exc:  # the anchor names another user
                raise CliError(f"{self.anchor_path!r}: {exc}") from exc
            self.client = CvsClient(self.session, author=author)
            return
        data_dir, backend = _repository(repo_dir)
        try:
            self.server = ServerCore(data_dir=data_dir, backend=backend,
                                     snapshot_every=CHECKPOINT_EVERY, lock=True)
        except (LockError, WalError) as exc:  # served, or a store refusal
            raise CliError(f"{repo_dir!r} cannot be opened: {exc}") from exc
        try:
            self.genesis = _genesis(self.server.state.database.spec)
            # A command that died mid-operation left its request on its
            # author's anchor: settle every such request first.
            for path, anchor in _read_anchors(_anchors(self.trust_dir)):
                if path != self.anchor_path and anchor["pending"]:
                    self._resume(path, anchor["user"])
            self.session = self._resume(self.anchor_path, author)
            self.check_sync()
        except BaseException:
            self.server.close_store()
            raise
        self.client = CvsClient(self, author=author)

    def _resume(self, path: str, user: str) -> InlineSession:
        """``user``'s session on the server core, anchored at ``path``."""
        try:
            core = protocol2_core(user, self.server.state.database.spec,
                                  self.genesis, path)
        except ValueError as exc:  # the anchor names another user
            raise CliError(f"{path!r}: {exc}") from exc

        session = InlineSession(self.server, core, lambda requests: write_anchor(
            path, {**core.snapshot(), "user": user,
                   "pending": requests[0] if requests else None}))
        session.resume()
        return session

    def execute(self, query) -> object:
        """One verified local operation, then the sync check."""
        answer = self.session.execute(query)
        self.check_sync()
        return answer

    def check_sync(self) -> None:
        """:func:`sync_verdict` over ``trust/``, the author's registers
        as the session holds them; failing, an :class:`IntegrityError`."""
        core = self.session.core
        mine = {**core.snapshot(), "user": core.user_id, "pending": None}
        others = [path for path in _anchors(self.trust_dir)
                  if path != self.anchor_path]
        users, bundle = sync_verdict(
            self.genesis, [(self.anchor_path, mine)] + _read_anchors(others))
        if bundle is not None:
            error = IntegrityError(f"no serial history explains {users}")
            error.evidence_path = bundle
            raise error

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *_exc) -> None:
        """Close the session (locally: its anchor records the last
        answers), then release the server core and its lock."""
        try:
            self.session.close()
        finally:
            if not self.remote:
                self.server.close_store()


# -- commands -------------------------------------------------------------


def cmd_init(args, out) -> int:
    data_dir = os.path.join(args.repo, SERVER_DIR)
    if os.path.exists(data_dir):
        raise CliError(f"repository already exists at {args.repo!r}")
    _refuse_retired(args.repo)
    core = ServerCore(data_dir=data_dir, backend=args.backend, lock=True)
    root = core.state.database.root_digest()
    core.close_store()
    os.makedirs(os.path.join(args.repo, TRUST_DIR), exist_ok=True)
    print(f"initialised empty trusted repository in {args.repo} "
          f"({args.backend} store)", file=out)
    print(f"root digest: {root.hex()}", file=out)
    return 0


def _verb(run):
    """``run(client, args, out) -> exit code`` as a command: the CVS
    verb on the verifying client of the author's workspace."""
    def handler(args, out) -> int:
        with Workspace(args.repo, args.author, remote=args.remote) as workspace:
            return run(workspace.client, args, out)
    return handler


def _content_lines(args) -> list[str]:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            return handle.read().splitlines()
    return sys.stdin.read().splitlines()


def cmd_commit(client, args, out) -> int:
    revision = client.commit(args.path, _content_lines(args), args.message)
    print(f"committed {args.path} {revision.number}", file=out)
    return 0


def cmd_checkout(client, args, out) -> int:
    for line in client.checkout(args.path, args.revision, expand=args.expand):
        print(line, file=out)
    return 0


def cmd_log(client, args, out) -> int:
    for revision in client.log(args.path):
        flags = " (dead)" if revision.dead else ""
        print(f"{revision.number}  {revision.author:12s} {revision.log_message}{flags}", file=out)
    return 0


def cmd_diff(client, args, out) -> int:
    print(client.diff(args.path, args.revision, args.to), end="", file=out)
    return 0


def cmd_ls(client, args, out) -> int:
    for path in client.paths(args.prefix):
        print(path, file=out)
    return 0


def cmd_remove(client, args, out) -> int:
    revision = client.remove(args.path, args.message)
    print(f"removed {args.path} ({revision.number})", file=out)
    return 0


def cmd_branch(client, args, out) -> int:
    if args.list:
        for branch_id in client.branches(args.path):
            print(branch_id, file=out)
    else:
        branch_id = client.branch(args.path, args.revision)
        print(f"created branch {branch_id} on {args.path}", file=out)
    return 0


def cmd_bcommit(client, args, out) -> int:
    revision = client.commit_on_branch(args.path, args.branch,
                                       _content_lines(args), args.message)
    print(f"committed {args.path} {revision.number}", file=out)
    return 0


def cmd_merge(client, args, out) -> int:
    result = client.merge_branch(args.path, args.branch, args.message)
    if result.has_conflicts:
        print(f"CONFLICTS merging {args.branch} into trunk of {args.path}:", file=out)
        for line in render_with_markers(result, "trunk", args.branch):
            print(line, file=out)
        return 1
    print(f"merged {args.branch} into trunk of {args.path}", file=out)
    return 0


def cmd_update(client, args, out) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        working = handle.read().splitlines()
    result = client.update(args.path, working, args.revision)
    merged = (render_with_markers(result, "working copy", "repository")
              if result.has_conflicts else result.lines())
    with open(args.file, "w", encoding="utf-8") as handle:
        handle.write("\n".join(merged) + ("\n" if merged else ""))
    if result.has_conflicts:
        print(f"U {args.file}: {len(result.conflicts())} conflict(s) -- markers written", file=out)
        return 1
    print(f"U {args.file}: merged cleanly", file=out)
    return 0


def cmd_annotate(client, args, out) -> int:
    for rendered in format_annotations(client.annotate(args.path, args.revision)):
        print(rendered, file=out)
    return 0


def _parse_endpoints(text: str) -> list[tuple[str, int]]:
    """Parse ``HOST:PORT[,HOST:PORT...]`` into endpoint tuples."""
    endpoints = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        host, _, port_text = chunk.rpartition(":")
        if not host or not port_text.isdigit():
            raise CliError(f"expected HOST:PORT, got {chunk!r}")
        endpoints.append((host, int(port_text)))
    if not endpoints:
        raise CliError("no endpoints given")
    return endpoints


def cmd_serve(args, out) -> int:
    """Host a local repository over TCP (SIGTERM/Ctrl-C to stop).

    The server runs on the repository's store, ``REPO/server/``, under
    its lock: a crash (power cut, SIGKILL) loses no acknowledged write,
    and the next ``serve`` or local command replays to the identical
    root digest.

    Shutdown is graceful: SIGTERM and SIGINT quiesce in-flight work,
    flush the replicator (if any), fsync the WAL, and write a final
    checkpoint before exiting -- never dying mid-batch.

    Replication: ``--replicas N --key-seed S`` fixes a deterministic
    keyring shared by the whole deployment.  A primary adds
    ``--replicate-to H:P,...`` to deposit every signed root with the
    witnesses; each witness runs ``serve --witness I`` (no repository
    needed -- it banks deposits, not the tree, in its own durable store
    under ``REPO/witness-wI/``).
    """
    import signal
    import threading

    from repro.net.aserver import serve_in_thread

    keys = None
    if args.replicas:
        from repro.net.replication import make_replica_keys

        keys = make_replica_keys(args.replicas, args.key_seed)
    protocol = None
    replicator = None
    if args.witness is not None:
        from repro.net.replication import WitnessProtocol, witness_name

        if keys is None:
            raise CliError("--witness requires --replicas N (the witness count)")
        if not 0 <= args.witness < args.replicas:
            raise CliError(f"--witness must be in [0, {args.replicas})")
        wid = witness_name(args.witness)
        protocol = WitnessProtocol(wid, keys.witnesses[args.witness],
                                   keys.verifier)
        data_dir = os.path.join(args.repo, f"witness-{wid}")
        backend = backend_of(data_dir) or "file"
        role = f"witness {wid} (1 of {args.replicas})"
    else:
        data_dir, backend = _repository(args.repo)
        role = "standalone"
        if args.replicate_to:
            from repro.net.replication import Replicator

            if keys is None:
                raise CliError("--replicate-to requires --replicas N "
                               "(and the deployment's --key-seed)")
            endpoints = _parse_endpoints(args.replicate_to)
            replicator = Replicator(keys.primary, witnesses=endpoints)
            role = f"primary depositing to {len(endpoints)} witness(es)"
    try:
        server = serve_in_thread(protocol=protocol, port=args.port,
                                 data_dir=data_dir,
                                 snapshot_every=args.snapshot_every,
                                 batch_max=args.batch_max,
                                 replicator=replicator,
                                 backend=backend, lock=True)
    except (LockError, WalError) as exc:
        raise CliError(str(exc)) from exc
    host, port = server.address
    print(f"serving {args.repo} on {host}:{port}, {backend} store, "
          f"batches <= {args.batch_max}, {role} (SIGTERM/Ctrl-C to stop)",
          file=out)
    if args.witness is None:
        genesis = _genesis(server.with_core(lambda core: core.state.database.spec))
        print(f"genesis root: {genesis.hex()} (what `repro sync` is given)",
              file=out)
    if server.replayed_records:
        print(f"recovered: replayed {server.replayed_records} WAL record(s)", file=out)
    out.flush()
    # Signal handlers are only legal on the main thread; a caller on a
    # worker thread sets args.stop_event (or injects KeyboardInterrupt).
    stop = getattr(args, "stop_event", None) or threading.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: stop.set())
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        # quiesce, flush replication, fsync the WAL, final checkpoint
        clean = server.graceful_stop()
        suffix = "" if clean else " (quiesce or deposit flush timed out)"
        print(f"persisted and stopped{suffix}", file=out)
    return 0


def cmd_store_inspect(args, out) -> int:
    """Describe a server data directory without starting a server.

    Decodes the checkpoint manifest of either page store (``pages.log``
    or ``pages.db``) and prints the per-shard generation/page layout,
    the remembered responses per user and every ``wal.<G>.log`` by
    generation and role.  Read-only: safe to run against a live
    server's directory.
    """
    from repro.net import wal
    from repro.net.wal import _MANIFEST_KEY, log_gens, log_name
    from repro.storage.engine import KIND_ENTRIES, KIND_LEAVES, KIND_NODES
    from repro.storage.atomic import RecordLog
    from repro.storage.pagestore import open_page_store
    from repro.wire import encode as _encode

    data_dir = args.data_dir
    if not os.path.isdir(data_dir):
        raise CliError(f"{data_dir!r} is not a directory")

    def _file_size(name: str) -> int | None:
        path = os.path.join(data_dir, name)
        return os.path.getsize(path) if os.path.isfile(path) else None

    def _logs(manifest: dict | None) -> None:
        """Each log by generation: the live one (with its records and
        torn tail), a retained segment, or one nothing references."""
        live = 0 if manifest is None else int(manifest["gen"]) + 1
        retained = set() if manifest is None else \
            {int(gen) for gen in manifest["segments"]}
        for gen in sorted(set(log_gens(data_dir)) | retained):
            name = log_name(gen)
            size = _file_size(name)
            if gen == live:
                log = RecordLog(os.path.join(data_dir, name), "wal",
                                readonly=True)
                records = log.read()
                torn = "" if log.size == size else \
                    f" + {size - log.size} torn tail byte(s)"
                role = f"live, {len(records)} record(s){torn}"
            else:
                role = "retained segment" if gen in retained \
                    else "unreferenced"
            state = "absent" if size is None else f"{size} bytes"
            print(f"{name}: {state}, {role}", file=out)

    _refuse_retired(data_dir, wal.RETIRED_FILES)
    backend = backend_of(data_dir)
    if backend is None:
        raise CliError(f"{data_dir!r} holds no page store")
    try:
        store = open_page_store(data_dir, readonly=True, backend=backend)
        blob = store.get_meta(_MANIFEST_KEY)
    except StorageError as exc:
        raise CliError(str(exc)) from exc
    try:
        if blob is None:
            print(f"backend: {backend} (no checkpoint committed yet)",
                  file=out)
            _logs(None)
            return 0
        print(f"backend: {backend}", file=out)
        print(f"{type(store).FILE}: {_file_size(type(store).FILE)} bytes",
              file=out)
        try:
            manifest = wal.load_manifest(blob)
        except WalError as exc:
            raise CliError(f"manifest: {len(blob)} bytes: {exc}") from exc
        print(f"manifest: {len(blob)} bytes ({manifest['format']})",
              file=out)
        print(f"checkpoint generation: {manifest['gen']}", file=out)
        print(f"top root: {manifest['root'].hex()}", file=out)
        print(f"spec: {manifest['spec']}", file=out)
        print(f"ops counter: {manifest['ctr']}", file=out)
        for record in manifest["shards"]:
            shard = int(record["shard"])
            gen = int(record["gen"])
            counts = record["counts"]
            prev = int(record["prev_gen"])
            prev_note = "none" if prev < 0 else str(prev)
            print(f"shard {shard}: gen {gen}, prev gen {prev_note}, "
                  f"root {record['root'].short()}...", file=out)
            # A generation holds what its checkpoint *wrote*; the
            # shard's state is that plus every older page it still
            # names, and the store also holds what only the previous
            # state names (the repair recipe).
            for label, kind, live in (("value", KIND_ENTRIES, "entries"),
                                      ("leaf", KIND_LEAVES, "leaves")):
                held = store.page_keys(kind, shard)
                held_bytes = sum(store.page_bytes(kind, shard, page_gen)
                                 for page_gen in {g for g, _ in held})
                print(f"  {label} pages: {counts[live]} live, {len(held)} held "
                      f"({held_bytes} bytes); last checkpoint wrote "
                      f"{store.page_count(kind, shard, gen)} "
                      f"({store.page_bytes(kind, shard, gen)} bytes)",
                      file=out)
            print(f"  nodes stream: {store.page_count(KIND_NODES, shard, gen)}"
                  f" page(s) ({store.page_bytes(KIND_NODES, shard, gen)} "
                  f"bytes); {len(record['superseded'])} superseded awaiting "
                  f"the next rewrite; next page id {record['next_page']}",
                  file=out)
        # The dedup table is written whole, inside the manifest.
        for user, pairs in sorted(manifest["dedup"].items()):
            print(f"user {user}: {len(pairs)} remembered response(s), "
                  f"{len(_encode(pairs))} manifest bytes", file=out)
        _logs(manifest)
    finally:
        store.close()
    return 0


def cmd_obs_report(args, out) -> int:
    """Run a simulated workload with observability on; print the metrics.

    Exercises the full protocol stack (Merkle VOs, signatures, sync
    broadcasts) under the round simulator and renders every counter,
    histogram, and span aggregate the run produced, plus a
    reconciliation table proving the obs counters agree exactly with
    the simulator's own report.
    """
    from repro import obs
    from repro.analysis.metrics import obs_reconciliation
    from repro.core.scenarios import build_simulation
    from repro.simulation.workload import steady_workload

    obs.reset()
    obs.enable()
    try:
        workload = steady_workload(
            args.users, args.ops, spacing=6, keyspace=32,
            write_ratio=0.6, scan_ratio=0.1, seed=args.seed)
        simulation = build_simulation(args.protocol, workload, k=args.k,
                                      shards=args.shards, seed=args.seed)
        report = simulation.execute()
        snap = obs.snapshot()
    finally:
        obs.disable()
    reconciliation = obs_reconciliation(report, snap)
    consistent = all(entry["ok"] for entry in reconciliation.values())
    if args.json:
        snap["reconciliation"] = reconciliation
        snap["reconciliation_ok"] = consistent
        print(obs.render_json(snap), file=out)
        return 0 if consistent else 1
    print(f"# obs-report: {args.protocol}, {args.users} users x {args.ops} ops, "
          f"k={args.k}, seed={args.seed}", file=out)
    print(obs.render_text(snap), file=out)
    print("reconciliation (obs counters vs simulation report)", file=out)
    for check, entry in reconciliation.items():
        verdict = "ok" if entry["ok"] else "MISMATCH"
        print(f"  {check:<16s} obs={entry['obs']:<8d} report={entry['report']:<8d} "
              f"{verdict}", file=out)
    return 0 if consistent else 1


def cmd_evidence_inspect(args, out) -> int:
    """Decode a forensic evidence bundle and re-verify it offline.

    Exit 0 iff the bundle proves a genuine deviation: the captured
    frames fail verification against the recorded pre-operation client
    state (or the recorded registers/counts fail their sync predicate),
    exactly as they did live.  A bundle whose material verifies cleanly
    exits 1 -- it does not implicate the server.
    """
    from repro.net import evidence

    try:
        bundle = evidence.read_bundle(args.bundle)
    except (OSError, evidence.EvidenceError) as exc:
        raise CliError(str(exc)) from exc
    genuine, why = evidence.reverify(bundle)
    print(f"bundle   : {args.bundle}", file=out)
    print(f"kind     : {bundle['kind']} (protocol {bundle.get('protocol', '?')})",
          file=out)
    print(f"user     : {bundle.get('user', '?')}", file=out)
    if "op_index" in bundle:
        print(f"op index : {bundle['op_index']}", file=out)
    print(f"reported : {bundle.get('reason', '?')}", file=out)
    if bundle["kind"] == "response":
        print(f"frames   : request {len(bundle['request_frame'])} B, "
              f"response {len(bundle['response_frame'])} B", file=out)
        anchor = bundle.get("anchor") or {}
        if anchor.get("anchor_path"):
            print(f"anchor   : {anchor['anchor_path']}", file=out)
    elif bundle["kind"] == "replication":
        print(f"mode     : {bundle.get('mode', '?')}", file=out)
        print(f"deviant  : {bundle.get('deviant', '?')}", file=out)
        print(f"counter  : {bundle.get('ctr', '?')}", file=out)
        frames = bundle.get("attestation_frames", [])
        sizes = ", ".join(f"{len(frame)} B" for frame in frames)
        print(f"frames   : {len(frames)} attestation(s) ({sizes})", file=out)
    verdict = "GENUINE DEVIATION" if genuine else "verifies cleanly (NOT evidence)"
    print(f"re-verify: {verdict} -- {why}", file=out)
    return 0 if genuine else 1


def cmd_trust(args, out) -> int:
    """The author's anchor, read off the file (remotely, with no
    connection); locally after the sync predicate held."""
    print(f"author      : {args.author}", file=out)
    path = _anchor_path(args.repo, args.author, args.remote)
    if not args.remote:
        with Workspace(args.repo, args.author):
            print("in sync     : yes -- one serial history explains every "
                  "anchor in trust/", file=out)
    print(f"anchor file : {path}", file=out)
    # A zero initial_tag is "pinned to no genesis root".
    registers = read_anchor(path) if os.path.isfile(path) else {}
    for name, value in registers.items():
        if value is not None:
            shown = value.hex() if isinstance(value, Digest) else value
            print(f"{name:12s}: {shown}", file=out)
    return 0


def cmd_sync(args, out) -> int:
    """The register exchange Protocol II assumes, over anchor files the
    users hand each other out of the server's reach (Theorem 4.2);
    ``FORKED`` is exit 3 with a bundle ``evidence-inspect`` re-verifies."""
    users, bundle = sync_verdict(args.genesis, _read_anchors(args.anchors))
    if bundle is None:
        print(f"CONSISTENT: one serial history explains {users}", file=out)
        return 0
    print(f"FORKED: no serial history explains {users}", file=out)
    print(f"evidence bundle: {bundle}", file=out)
    return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-R", "--repo", default=".", help="repository directory")
    parser.add_argument("-a", "--author", default=os.environ.get("USER", "anon"),
                        help="author identity (owns a trust anchor)")
    parser.add_argument("--remote", default=None, metavar="HOST:PORT",
                        help="operate against a TCP server instead of the "
                             "repository directory")
    commands = parser.add_subparsers(dest="command", required=True)

    init = commands.add_parser("init", help="create a repository")
    init.add_argument("repo_positional", nargs="?", default=None)
    init.add_argument("--backend", choices=("file", "sqlite"), default="file",
                      help="page store under the repository's checkpoints: "
                           "'file' appends to pages.log, 'sqlite' commits "
                           "to pages.db")
    init.set_defaults(handler=cmd_init)

    commit = commands.add_parser("commit", help="commit a file")
    commit.add_argument("path")
    commit.add_argument("-m", "--message", default="")
    commit.add_argument("--file", help="read content from a file instead of stdin")
    commit.set_defaults(handler=_verb(cmd_commit))

    checkout = commands.add_parser("checkout", help="print a revision")
    checkout.add_argument("path")
    checkout.add_argument("-r", "--revision", default=None)
    checkout.add_argument("--expand", action="store_true",
                          help="expand RCS keywords ($Id$, $Revision$, ...)")
    checkout.set_defaults(handler=_verb(cmd_checkout))

    log = commands.add_parser("log", help="revision history")
    log.add_argument("path")
    log.set_defaults(handler=_verb(cmd_log))

    diff = commands.add_parser("diff", help="diff two revisions")
    diff.add_argument("path")
    diff.add_argument("-r", "--revision", required=True)
    diff.add_argument("--to", default=None)
    diff.set_defaults(handler=_verb(cmd_diff))

    ls = commands.add_parser("ls", help="list live files")
    ls.add_argument("prefix", nargs="?", default="")
    ls.set_defaults(handler=_verb(cmd_ls))

    remove = commands.add_parser("remove", help="cvs remove")
    remove.add_argument("path")
    remove.add_argument("-m", "--message", default="")
    remove.set_defaults(handler=_verb(cmd_remove))

    branch = commands.add_parser("branch", help="create or list branches")
    branch.add_argument("path")
    branch.add_argument("-r", "--revision", default=None, help="branch point (default head)")
    branch.add_argument("-l", "--list", action="store_true")
    branch.set_defaults(handler=_verb(cmd_branch))

    bcommit = commands.add_parser("bcommit", help="commit onto a branch")
    bcommit.add_argument("path")
    bcommit.add_argument("-b", "--branch", required=True)
    bcommit.add_argument("-m", "--message", default="")
    bcommit.add_argument("--file", help="read content from a file instead of stdin")
    bcommit.set_defaults(handler=_verb(cmd_bcommit))

    merge = commands.add_parser("merge", help="merge a branch into the trunk")
    merge.add_argument("path")
    merge.add_argument("-b", "--branch", required=True)
    merge.add_argument("-m", "--message", default="")
    merge.set_defaults(handler=_verb(cmd_merge))

    update = commands.add_parser("update", help="merge the repository head into a working file")
    update.add_argument("path")
    update.add_argument("-r", "--revision", required=True,
                        help="the revision the working file was based on")
    update.add_argument("--file", required=True, help="the working file (rewritten in place)")
    update.set_defaults(handler=_verb(cmd_update))

    trust = commands.add_parser("trust", help="show the trust anchor")
    trust.set_defaults(handler=cmd_trust)

    sync = commands.add_parser(
        "sync", help="evaluate the Protocol II sync predicate over anchor files")
    sync.add_argument("genesis", type=Digest.from_hex,
                      help="the genesis root `repro serve` printed (hex)")
    sync.add_argument("anchors", nargs="+", metavar="ANCHOR",
                      help="each user's REPO/trust/USER@HOST_PORT.anchor")
    sync.set_defaults(handler=cmd_sync)

    annotate = commands.add_parser("annotate", help="per-line blame")
    annotate.add_argument("path")
    annotate.add_argument("-r", "--revision", default=None)
    annotate.set_defaults(handler=_verb(cmd_annotate))

    serve = commands.add_parser("serve", help="host the repository over TCP")
    serve.add_argument("-p", "--port", type=int, default=7117)
    serve.add_argument("--snapshot-every", type=int, default=256,
                       help="ops between checkpoints")
    serve.add_argument("--batch-max", type=int, default=64,
                       help="max ops per batch (one group commit, "
                            "one root pass, one Protocol I signing run)")
    serve.add_argument("--replicas", type=int, default=0, metavar="N",
                       help="witness count of the replicated deployment "
                            "(fixes the shared keyring with --key-seed)")
    serve.add_argument("--key-seed", type=int, default=4096,
                       help="deterministic seed for the deployment keyring")
    serve.add_argument("--witness", type=int, default=None, metavar="I",
                       help="serve as witness index I (banks root deposits; "
                            "requires --replicas)")
    serve.add_argument("--replicate-to", default=None, metavar="H:P,...",
                       help="primary mode: deposit every signed root with "
                            "these witness endpoints")
    serve.set_defaults(handler=cmd_serve)

    store_inspect = commands.add_parser(
        "store-inspect",
        help="describe a server data directory (checkpoint manifest, "
             "shard pages, WAL segments) without starting a server")
    store_inspect.add_argument("data_dir",
                               help="the server/witness data directory")
    store_inspect.set_defaults(handler=cmd_store_inspect)

    obs_report = commands.add_parser(
        "obs-report",
        help="run a simulated workload with observability on; print metrics")
    obs_report.add_argument("--protocol", default="protocol2",
                            help="protocol to simulate (default: protocol2)")
    obs_report.add_argument("--users", type=int, default=6)
    obs_report.add_argument("--ops", type=int, default=8,
                            help="operations per user")
    obs_report.add_argument("--shards", type=int, default=1,
                            help="shard the store into a Merkle forest")
    obs_report.add_argument("-k", type=int, default=4, help="sync period")
    obs_report.add_argument("--seed", type=int, default=9)
    obs_report.add_argument("--json", action="store_true",
                            help="emit the snapshot as JSON")
    obs_report.set_defaults(handler=cmd_obs_report)

    evidence_inspect = commands.add_parser(
        "evidence-inspect",
        help="decode a forensic evidence bundle and re-verify it offline")
    evidence_inspect.add_argument("bundle", help="path to a .evidence file")
    evidence_inspect.set_defaults(handler=cmd_evidence_inspect)
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "init" and getattr(args, "repo_positional", None):
        args.repo = args.repo_positional
    try:
        return args.handler(args, out)
    except (CliError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=out)
        return 2
    except IntegrityError as exc:
        print("INTEGRITY VIOLATION: the repository does not verify against "
              f"your trust anchor: {exc}", file=out)
        if getattr(exc, "evidence_path", None):
            print(f"evidence bundle: {exc.evidence_path}", file=out)
        return 3
    except TransientNetworkError as exc:
        # Liveness (a refusal included), never a verdict on the server.
        print(f"error: {args.remote}: {exc} -- an operation left unanswered "
              "may have been applied: it stays in flight under its request id",
              file=out)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
