"""Byzantine campaign: the attack gallery against real sockets, with
benign chaos in the same run, measured against the detection bound.

The simulator's detection matrix proves soundness in-process; the chaos
campaign proves liveness under benign faults.  This campaign closes the
remaining gap: a *malicious* server (every attack from
:mod:`repro.server.attacks`, run by the server core itself) serving a
real client fleet over TCP, composed with the chaos proxy's
drops/truncations/resets/delays, for Protocols I and II.

Pass criteria (each checked and named by :func:`failures`):

* **zero false positives** -- honest-but-chaotic runs (faults injected,
  no attack) never raise ``IntegrityError`` and pass every periodic
  sync;
* **zero missed detections** -- every deviating run is detected, and
  within the protocol's operation bound: instant-class attacks (bad VO,
  counter replay, forged signature) on the deviating operation itself,
  partition-class attacks (fork, drop-commit, stale root) by the next
  register/count synchronisation, i.e. within ``k * n_users + n_users``
  global operations of the first deviating response;
* **every detection is provable** -- a forensic evidence bundle is
  written (by the client for per-operation detections, from the
  exchanged registers/counts for sync detections) and
  ``repro evidence-inspect`` re-verifies each offline as a genuine
  deviation (exit 0).

Detection latency is measured against the ground truth the server core
judges (``core.judge.first_round``, an honest replay of every message
it executed): the server tick at which a response first differed from
the honest run's, converted to global operations.  An alarm is false
iff the judge found no deviation.

``python benchmarks/campaign.py byzantine --quick --check`` is the CI
gate; without ``--quick`` it runs every attack class against both
protocols.  ``replication`` is the N-server campaign below, at
:data:`REPLICAS` witnesses.
"""

from __future__ import annotations

import functools
import io
import os
import shutil
import tempfile
import time

from bench_common import failed_checks, progress

from repro.cli import main as cli_main
from repro.mtree.database import VerifiedDatabase
from repro.net import (
    ChaosConfig,
    ChaosProxy,
    IntegrityError,
    QuorumChecker,
    RemoteClient,
    Replicator,
    RetryPolicy,
    TransientNetworkError,
    WitnessCollusion,
    WitnessProtocol,
    count_sync_check,
    make_replica_keys,
    serve_in_thread,
    sync_check,
)
from repro.net import evidence
from repro.net.client import RemoteClientP1, ReplicationDivergence
from repro.net.replication import witness_name
from repro.core.scenarios import make_keys
from repro.protocols.base import ServerState
from repro.protocols.protocol1 import (
    Protocol1Server,
    bootstrap_server_state,
)
from repro.server.attacks import (
    CompositeAttack,
    CounterReplayAttack,
    DropCommitAttack,
    ForkAttack,
    SignatureForgeAttack,
    StaleRootReplayAttack,
    TamperValueAttack,
)

ORDER = 8
KEY_SEED = 4096
SEED = 2203
#: witnesses behind the primary in the replicated campaign's gallery
REPLICAS = 3


def _genuine(path) -> bool:
    """The bundle at ``path`` re-verifies as a genuine deviation and
    ``repro evidence-inspect`` certifies it (exit 0)."""
    return bool(path) and (
        evidence.reverify(evidence.read_bundle(path))[0]
        and cli_main(["evidence-inspect", path], out=io.StringIO()) == 0)


def _deviated(judge) -> bool:
    """Whether a server's judge has seen a response differ from the
    honest replay's (no attack: no judge, never)."""
    return judge is not None and judge.first_round is not None


# -- Protocol I and II runs ------------------------------------------------

def run_fleet(name, protocol, attack_factory, *, seed, k=4, steps,
              chaos=True) -> dict:
    """One seeded run: a round-robin client fleet through the chaos proxy
    against a (possibly Byzantine) server speaking ``protocol`` ("I" or
    "II"), with a register (II) or count (I) sync every ``k`` rounds of
    the fleet and a final one closing the run.  Returns the per-run
    record for the campaign report.

    Protocol I: alice operates first, as the elected signer.  Its client
    does not transparently reconnect, so benign chaos is delay-only --
    loss still reaches the *server side* untouched (the attack layer
    sits behind the proxy).  Each of its operations is two wire messages
    (request + follow-up signature), so ticks convert to operations 2:1.
    """
    attack = attack_factory() if attack_factory else None
    evidence_dir = tempfile.mkdtemp(prefix=f"byz-{name}-")
    if protocol == "I":
        users = ["alice", "bob"]
        keys = make_keys(users, seed=KEY_SEED)
        state = ServerState(database=VerifiedDatabase(order=ORDER))
        server_protocol = Protocol1Server()
        server_protocol.initialize(state)
        bootstrap_server_state(state, keys.signers["alice"])
        server = serve_in_thread(order=ORDER, protocol=server_protocol,
                                 state=state, block_timeout=10.0,
                                 attack=attack)
        noise = ChaosConfig(delay_rate=0.05, delay_s=0.002)

        def session(index, user, host, port):
            return RemoteClientP1(host, port, user, keys.signers[user],
                                  keys.verifier, order=ORDER,
                                  evidence_dir=evidence_dir)
        exchange, check = RemoteClientP1.counts, count_sync_check
        kind, bundle = "count-sync", evidence.count_sync_bundle
        messages_per_op = 2
    else:
        users = ["u0", "u1", "u2"]
        server = serve_in_thread(order=ORDER, attack=attack)
        genesis = server.initial_root_digest()
        noise = ChaosConfig(drop_rate=0.015, truncate_rate=0.01,
                            reset_rate=0.01, delay_rate=0.02, delay_s=0.002,
                            immune_chunks=1)

        def session(index, user, host, port):
            return RemoteClient(
                host, port, user, genesis, order=ORDER,
                connect_timeout=5.0, op_timeout=10.0,
                retry=RetryPolicy(attempts=24, base=0.01, cap=0.25,
                                  jitter=0.5, seed=seed + index),
                evidence_dir=evidence_dir)
        exchange = RemoteClient.registers
        check = functools.partial(sync_check, genesis)
        kind, bundle = "sync", functools.partial(evidence.sync_bundle, genesis)
        messages_per_op = 1
    proxy = None
    host, port = server.address
    if chaos:
        proxy = ChaosProxy(host, port, seed=seed, config=noise).start()
        host, port = proxy.address
    clients = {user: session(index, user, host, port)
               for index, user in enumerate(users)}

    detection = None  # (kind, global_op, bundle_path)
    false_alarm = False
    sync_rounds = 0
    global_op = 0

    def sync(tag) -> None:
        nonlocal detection, false_alarm, sync_rounds
        sync_rounds += 1
        exchanged = {u: exchange(c) for u, c in clients.items()}
        if check(exchanged):
            return
        if not _deviated(server.core.judge):
            false_alarm = True
        else:
            detection = (kind, global_op, evidence.write_bundle(
                os.path.join(evidence_dir, f"{kind}-{tag}.evidence"),
                bundle(exchanged)))

    try:
        for step in range(steps):
            for user in users:
                if detection or false_alarm:
                    break
                global_op += 1
                client = clients[user]
                try:
                    if step % 3 == 2:
                        client.get(f"{user}-{(step - 1) % 5}".encode())
                    else:
                        client.put(f"{user}-{step % 5}".encode(),
                                   f"{user}:{step}".encode())
                except IntegrityError as exc:
                    if not _deviated(server.core.judge):
                        false_alarm = True
                        break
                    detection = ("response", global_op,
                                 getattr(exc, "evidence_path", None))
                # A Protocol I follow-up is sent, not acknowledged: wait
                # until the server has ticked it, or the next user's
                # request, on its own connection, can be ticked first and
                # the deviation's ground-truth tick moves by one from run
                # to run.  (A Protocol II op is ticked once it is answered.)
                deadline = time.monotonic() + 5.0
                while (not detection
                       and server.core.round < messages_per_op * global_op
                       and time.monotonic() < deadline):
                    time.sleep(0.0005)
                if not detection and global_op % (k * len(users)) == 0:
                    sync(global_op)
            if detection or false_alarm:
                break
        if not detection and not false_alarm:  # a final sync closes every run
            sync("final")
    finally:
        for client in clients.values():
            client.close()
        if proxy is not None:
            proxy.stop()
        server.stop()

    return _run_record(name, protocol, attack, server.core.judge, detection,
                       false_alarm, global_op, k, len(users),
                       messages_per_op=messages_per_op,
                       sync_rounds=sync_rounds, evidence_dir=evidence_dir,
                       proxy=proxy)


# -- replicated (N-server) runs -------------------------------------------

_REPLICA_KEYS: dict[int, object] = {}


def _replica_keys(n_witnesses: int):
    """Deterministic deployment keyrings, memoised -- key generation
    dominates run setup and the ring depends only on (N, seed)."""
    if n_witnesses not in _REPLICA_KEYS:
        _REPLICA_KEYS[n_witnesses] = make_replica_keys(n_witnesses, KEY_SEED)
    return _REPLICA_KEYS[n_witnesses]


def run_replicated_fleet(name, attack_factory, *, seed, n_witnesses=3,
                         colluders=0, collusion_mode="fabricate", n_users=3,
                         steps=12, quorum_every=2) -> dict:
    """One N-server run: a (possibly Byzantine) primary behind the full
    chaos proxy replicating its signed root lineage to ``n_witnesses``
    witness servers (the first ``colluders`` of which lie on fetches),
    while a client fleet confirms every verified root against random
    f+1 witness quorums routed through light per-witness chaos.

    The run ends with each surviving client confirming its entire
    lineage (``require_all``) -- the no-rollback progress gate: as long
    as f+1 honest witnesses exist, honest clients finish their whole
    workload on the quorum-agreed lineage.
    """
    users = [f"u{i}" for i in range(n_users)]
    f = (n_witnesses - 1) // 2
    keys = _replica_keys(n_witnesses)
    attack = attack_factory() if attack_factory else None
    evidence_dir = tempfile.mkdtemp(prefix=f"byz-{name}-")

    collusions = {}
    witness_servers = []
    witness_proxies = []
    witness_endpoints = []  # client fetch leg, chaos-routed
    deposit_endpoints = []  # primary deposit leg, direct
    for index in range(n_witnesses):
        wid = witness_name(index)
        collusion = (WitnessCollusion(collusion_mode)
                     if index < colluders else None)
        if collusion is not None:
            collusions[wid] = collusion
        protocol = WitnessProtocol(wid, keys.witnesses[index], keys.verifier,
                                   collusion=collusion)
        witness = serve_in_thread(order=ORDER, protocol=protocol)
        witness_servers.append(witness)
        deposit_endpoints.append(witness.address)
        wproxy = ChaosProxy(*witness.address, seed=seed * 7 + index,
                            config=ChaosConfig(drop_rate=0.01,
                                               delay_rate=0.05,
                                               delay_s=0.001,
                                               immune_chunks=1)).start()
        witness_proxies.append(wproxy)
        witness_endpoints.append((wid, wproxy.address))

    replicator = Replicator(keys.primary, witnesses=deposit_endpoints)
    server = serve_in_thread(order=ORDER, attack=attack, replicator=replicator)
    genesis = server.initial_root_digest()
    proxy = ChaosProxy(*server.address, seed=seed, config=ChaosConfig(
        drop_rate=0.015, truncate_rate=0.01, reset_rate=0.01,
        delay_rate=0.02, delay_s=0.002, immune_chunks=1)).start()
    host, port = proxy.address

    clients = {}
    for index, user in enumerate(users):
        quorum = QuorumChecker(
            witness_endpoints, keys.verifier, f, user_id=user,
            seed=seed + 100 + index,
            retry=RetryPolicy(attempts=12, base=0.01, cap=0.25,
                              jitter=0.5, seed=seed + 200 + index),
            evidence_dir=evidence_dir, order=ORDER)
        clients[user] = RemoteClient(
            host, port, user, genesis, order=ORDER,
            connect_timeout=5.0, op_timeout=10.0,
            retry=RetryPolicy(attempts=24, base=0.01, cap=0.25,
                              jitter=0.5, seed=seed + index),
            evidence_dir=evidence_dir,
            quorum=quorum, quorum_every=quorum_every)

    detections = []        # primary-implicating halts, one per victim
    halted = {}
    false_alarm = False
    confirm_failures = []
    global_op = 0
    completed = {user: 0 for user in users}

    def _halt(user, exc):
        nonlocal false_alarm
        if not _deviated(server.core.judge):
            false_alarm = True
            return
        halted[user] = global_op
        detections.append({
            "user": user, "op": global_op,
            "kind": ("replication" if isinstance(exc, ReplicationDivergence)
                     else "response"),
            "deviant": getattr(exc, "deviant", None),
            "evidence_path": getattr(exc, "evidence_path", None)})

    try:
        for step in range(steps):
            for user in users:
                if false_alarm:
                    break
                if user in halted:
                    continue
                global_op += 1
                client = clients[user]
                try:
                    if step % 3 == 2:
                        client.get(f"{user}-{(step - 1) % 5}".encode())
                    else:
                        client.put(f"{user}-{step % 5}".encode(),
                                   f"{user}:{step}".encode())
                    completed[user] += 1
                except IntegrityError as exc:
                    _halt(user, exc)
            if false_alarm:
                break
        # The no-rollback gate: every client the attack did not halt
        # must confirm its whole lineage against the witness quorum.
        for user, client in clients.items():
            if user in halted or false_alarm:
                continue
            try:
                client.quorum_check(require_all=True)
            except IntegrityError as exc:
                _halt(user, exc)
            except TransientNetworkError as exc:
                confirm_failures.append((user, str(exc)))
    finally:
        for client in clients.values():
            client.close()
        proxy.stop()
        for wproxy in witness_proxies:
            wproxy.stop()
        server.stop()
        for witness in witness_servers:
            witness.stop()

    witness_detections = [
        dict(entry, user=user)
        for user, client in clients.items()
        for entry in client.quorum.detections
        if entry["mode"] == "witness-fabrication"]
    excluded = {user: sorted(client.quorum.excluded)
                for user, client in clients.items() if client.quorum.excluded}
    served = {wid: collusion.served for wid, collusion in collusions.items()}

    return _replicated_record(
        name, attack, server.core.judge, n_witnesses=n_witnesses, f=f,
        colluders=sorted(collusions),
        collusion_mode=collusion_mode if collusions else None,
        detections=detections, witness_detections=witness_detections,
        excluded=excluded, served=served, false_alarm=false_alarm,
        confirm_failures=confirm_failures, halted=halted,
        completed=completed, steps=steps, global_op=global_op,
        clients=clients, evidence_dir=evidence_dir)


def _replicated_record(name, attack, judge, *, n_witnesses, f, colluders,
                       collusion_mode, detections, witness_detections,
                       excluded, served, false_alarm, confirm_failures,
                       halted, completed, steps, global_op, clients,
                       evidence_dir) -> dict:
    deviated = _deviated(judge)
    colluder_set = set(colluders)

    bad_bundles = [entry for entry in detections + witness_detections
                   if not _genuine(entry["evidence_path"])]
    # Attribution: a primary-implicating replication bundle must name
    # the primary; a fabrication bundle must name an actual colluder.
    misattributed = (
        [entry for entry in detections
         if entry["kind"] == "replication" and entry["deviant"] != "primary"]
        + [entry for entry in witness_detections
           if entry["deviant"] not in colluder_set])
    # An honest witness must never be excluded.
    falsely_excluded = sorted({
        wid for wids in excluded.values() for wid in wids
        if wid not in colluder_set})
    # Progress: every client the attack did not halt finished its whole
    # workload and confirmed it against the quorum.
    survivors = [user for user in completed if user not in halted]
    stalled = [user for user in survivors if completed[user] != steps]
    fabricating = collusion_mode == "fabricate" and bool(colluder_set)
    record = {
        "run": name,
        "protocol": "replicated",
        "attack": attack.name if attack else None,
        "witnesses": n_witnesses,
        "f": f,
        "colluders": colluders,
        "collusion_mode": collusion_mode,
        "collusion_served": served,
        "operations": global_op,
        "quorum_checks": sum(c.quorum.checks for c in clients.values()),
        "confirmed_roots": sum(c.quorum.confirmed for c in clients.values()),
        "false_alarm": false_alarm,
        "deviated": deviated,
        "injected_responses": judge.deviations if judge else 0,
        "detected": bool(detections),
        "detections": [
            {k: v for k, v in entry.items() if k != "evidence_path"}
            for entry in detections],
        "witness_detections": [
            {k: v for k, v in entry.items() if k != "evidence_path"}
            for entry in witness_detections],
        "excluded": excluded,
        "confirm_failures": [user for user, _ in confirm_failures],
        "stalled_clients": stalled,
        "bad_bundles": len(bad_bundles),
        "misattributed": len(misattributed),
        "falsely_excluded": falsely_excluded,
        # Fabricating colluders that actually served a lie are always
        # caught (valid outer, invalid inner signature); withholding
        # ones never are -- starvation is indistinguishable from lag.
        "collusion_exercised": (not colluder_set
                                or any(count > 0 for count in served.values())),
        "false_accusations": (len(witness_detections)
                              if not fabricating else 0),
    }
    if false_alarm:
        progress(f"  [{name}] FALSE ALARM")
    elif deviated and not detections:
        progress(f"  [{name}] MISSED: primary deviated but no client halted")
    elif deviated:
        first = detections[0]
        progress(f"  [{name}] {len(detections)} client(s) caught the primary "
                 f"via {first['kind']} at op {first['op']}; "
                 f"{len(witness_detections)} fabrication(s) named; "
                 f"survivors confirmed {record['confirmed_roots']} roots")
    else:
        progress(f"  [{name}] clean: {global_op} ops, "
                 f"{record['quorum_checks']} quorum checks, "
                 f"{record['confirmed_roots']} roots confirmed, "
                 f"{len(witness_detections)} fabrication(s) named")
    shutil.rmtree(evidence_dir, ignore_errors=True)
    return record


# -- shared reporting ------------------------------------------------------

def _run_record(name, protocol, attack, judge, detection, false_alarm,
                global_op, k, n_users, messages_per_op, sync_rounds,
                evidence_dir, proxy) -> dict:
    bound = k * n_users + n_users
    deviated = _deviated(judge)
    record = {
        "run": name,
        "protocol": protocol,
        "attack": attack.name if attack else None,
        "operations": global_op,
        "sync_rounds": sync_rounds,
        "false_alarm": false_alarm,
        "deviated": deviated,
        "injected_responses": judge.deviations if judge else 0,
        "proxy_faults": dict(proxy.faults) if proxy else None,
        "detected": detection is not None,
        "bound_ops": bound,
    }
    if deviated:
        deviation_op = (judge.first_round
                        + messages_per_op - 1) // messages_per_op
        record["deviation_op"] = deviation_op
        if detection:
            kind, detect_op, bundle_path = detection
            latency = detect_op - deviation_op
            record.update({
                "detection_kind": kind,
                "detection_op": detect_op,
                "latency_ops": latency,
                "within_bound": 0 <= latency <= bound,
                "evidence_bundle": bundle_path,
                "evidence_genuine": _genuine(bundle_path),
            })
    if detection:
        progress(f"  [{name}] detected via {record['detection_kind']} at op "
                 f"{record['detection_op']} (deviated at "
                 f"{record['deviation_op']}, latency "
                 f"{record['latency_ops']} <= {bound}), evidence "
                 f"{'re-verified' if record['evidence_genuine'] else 'BAD'}")
    elif deviated:
        progress(f"  [{name}] MISSED: deviated but never detected")
    else:
        progress(f"  [{name}] honest run clean: {global_op} ops, "
                 f"{sync_rounds} sync round(s), no alarms")
    shutil.rmtree(evidence_dir, ignore_errors=True)
    return record


P2_ATTACKS = [
    ("p2-fork", lambda: ForkAttack(victims=["u1"], fork_round=10)),
    ("p2-drop-commit", lambda: DropCommitAttack(victim="u1", drop_round=10)),
    ("p2-stale-root", lambda: StaleRootReplayAttack(victim="u1",
                                                    freeze_round=10)),
    ("p2-tamper", lambda: TamperValueAttack(victim="u0", tamper_round=6)),
    ("p2-tamper-forged", lambda: TamperValueAttack(victim="u0",
                                                   tamper_round=6,
                                                   forge_proof=True)),
    ("p2-counter-replay", lambda: CounterReplayAttack(victim="u0",
                                                      replay_round=10)),
    ("p2-composite", lambda: CompositeAttack([
        ForkAttack(victims=["u2"], fork_round=12),
        TamperValueAttack(victim="u0", tamper_round=18),
    ])),
]

P1_ATTACKS = [
    ("p1-fork", lambda: ForkAttack(victims=["bob"], fork_round=8)),
    ("p1-stale-root", lambda: StaleRootReplayAttack(victim="bob",
                                                    freeze_round=8)),
    ("p1-sig-forge", lambda: SignatureForgeAttack(forge_round=8)),
    ("p1-tamper", lambda: TamperValueAttack(victim="alice", tamper_round=8)),
    ("p1-counter-replay", lambda: CounterReplayAttack(victim="alice",
                                                      replay_round=8)),
]

QUICK_P2 = {"p2-fork", "p2-tamper", "p2-counter-replay"}
QUICK_P1 = {"p1-fork", "p1-sig-forge"}


def _observed(fleets, counters):
    """Run each of ``fleets`` with the obs registry zeroed and on; the
    runs and the totals of ``counters``."""
    from repro import obs

    obs.reset()
    obs.enable()
    try:
        runs = [fleet() for fleet in fleets]
        return runs, {name: obs.registry.counter(name).total()
                      for name in counters}
    finally:
        obs.disable()


def run(quick: bool = False, seed: int = SEED) -> dict:
    """Both protocols' honest-but-chaotic runs and their galleries."""
    steps = {"II": 8 if quick else 14, "I": 8 if quick else 12}
    fleets = [
        functools.partial(run_fleet, "p2-honest-chaotic", "II", None,
                          seed=seed, steps=steps["II"]),
        functools.partial(run_fleet, "p1-honest-chaotic", "I", None,
                          seed=seed + 1, steps=steps["I"])]
    for protocol, attacks, subset, offset in (
            ("II", P2_ATTACKS, QUICK_P2, 10), ("I", P1_ATTACKS, QUICK_P1, 50)):
        fleets += [functools.partial(run_fleet, name, protocol, factory,
                                     seed=seed + offset + index,
                                     steps=steps[protocol])
                   for index, (name, factory) in enumerate(attacks)
                   if not quick or name in subset]
    runs, obs_counters = _observed(fleets, (
        "net.attacks_injected", "net.detections", "net.evidence_bundles",
        "chaos.resets", "chaos.conn_drops", "chaos.truncations"))

    honest = [r for r in runs if r["attack"] is None]
    malicious = [r for r in runs if r["attack"] is not None]
    deviating = [r for r in malicious if r["deviated"]]
    checks = {
        "false_positives": sum(1 for r in honest
                               if r["false_alarm"] or r["detected"]),
        "missed_detections": sum(1 for r in deviating if not r["detected"]),
        "out_of_bound_detections": sum(
            1 for r in deviating
            if r["detected"] and not r.get("within_bound", False)),
        "unproven_detections": sum(
            1 for r in deviating
            if r["detected"] and not r.get("evidence_genuine", False)),
        "attacks_that_never_deviated": sum(
            1 for r in malicious if not r["deviated"]),
        "obs_consistent": (
            obs_counters["net.attacks_injected"] >= len(deviating)
            and obs_counters["net.evidence_bundles"] >= len(deviating)),
    }
    return {
        "config": {"seed": seed, "quick": quick, "order": ORDER},
        "runs": runs,
        "obs": obs_counters,
        "checks": checks,
    }


# -- the replicated campaign ----------------------------------------------

# f-of-N colluding-witness sweep: every tolerated minority size at every
# deployment width the issue names.
REPL_COLLUSION_CONFIGS = [
    (3, 0), (3, 1),
    (5, 0), (5, 1), (5, 2),
    (7, 0), (7, 1), (7, 2),
]


def run_replication(quick: bool = False, seed: int = SEED) -> dict:
    """The N-server gauntlet: the full attack gallery on the primary
    at :data:`REPLICAS` witnesses, the f-of-N colluding-witness sweep, a
    withholding colluder (must read as noise, never an accusation), and
    a fork composed with a fabricating colluder."""
    fleet = functools.partial(run_replicated_fleet, steps=8 if quick else 12)
    fleets = [functools.partial(fleet, "repl-honest", None, seed=seed,
                                n_witnesses=REPLICAS)]
    fleets += [functools.partial(fleet, f"repl-{name}", factory,
                                 seed=seed + 10 + index, n_witnesses=REPLICAS)
               for index, (name, factory) in enumerate(P2_ATTACKS)
               if not quick or name in QUICK_P2]
    configs = [(3, 1)] if quick else REPL_COLLUSION_CONFIGS
    fleets += [functools.partial(
        fleet, f"repl-collude-{colluders}of{n_witnesses}", None,
        seed=seed + 40 + index, n_witnesses=n_witnesses, colluders=colluders)
        for index, (n_witnesses, colluders) in enumerate(configs)]
    if not quick:
        fleets += [
            functools.partial(fleet, "repl-withhold-1of3", None,
                              seed=seed + 70, n_witnesses=3, colluders=1,
                              collusion_mode="withhold"),
            functools.partial(fleet, "repl-fork+collude-1of5",
                              lambda: ForkAttack(victims=["u1"],
                                                 fork_round=10),
                              seed=seed + 71, n_witnesses=5, colluders=1)]
    runs, obs_counters = _observed(fleets, (
        "repl.deposits", "repl.quorum_checks", "repl.divergences",
        "net.attacks_injected"))

    deviating = [r for r in runs if r["deviated"]]
    named = sum(
        sum(1 for d in r["detections"] if d["kind"] == "replication")
        + len(r["witness_detections"])
        for r in runs)
    checks = {
        "false_positives": sum(1 for r in runs if r["false_alarm"]),
        "missed_divergences": sum(1 for r in deviating if not r["detected"]),
        "misattributed_bundles": sum(r["misattributed"] for r in runs),
        "unproven_detections": sum(r["bad_bundles"] for r in runs),
        "falsely_excluded_witnesses": sum(
            len(r["falsely_excluded"]) for r in runs),
        "false_accusations": sum(r["false_accusations"] for r in runs),
        "stalled_honest_clients": sum(
            len(r["stalled_clients"]) + len(r["confirm_failures"])
            for r in runs),
        "collusions_never_exercised": sum(
            1 for r in runs if not r["collusion_exercised"]),
        "attacks_that_never_deviated": sum(
            1 for r in runs if r["attack"] is not None and not r["deviated"]),
        # Every divergence the clients named is mirrored in the obs
        # counter, and the quorum machinery demonstrably ran.
        "obs_consistent": (obs_counters["repl.divergences"] >= named
                           and obs_counters["repl.deposits"] > 0
                           and obs_counters["repl.quorum_checks"] > 0),
    }
    return {
        "config": {"seed": seed, "quick": quick, "order": ORDER,
                   "replicas": REPLICAS},
        "runs": runs,
        "obs": obs_counters,
        "checks": checks,
    }


def failures(results: dict) -> list[str]:
    """Either campaign's criteria: no false alarm, no missed or
    unprovable detection, none out of its bound or misattributed, no
    attack that never deviated, no honest witness excluded or client
    stalled, and the obs counters agreeing."""
    return failed_checks(results["checks"])
