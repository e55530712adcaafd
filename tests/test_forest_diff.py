"""Differential harness: a forest of any shard count is observationally
identical to the forest of one.

Every store is a forest; its shard count changes the *shape* of the
committed state (how many shard trees under the top tree) and of every
verification object (a top half sent above one shard, implied at
one), but it must not change anything a user can observe: answers,
verification verdicts, or -- critically -- Byzantine detection.  These
tests drive identical operation sequences through stores of S in
{1, 2, 8} against the forest of one as the reference, at three levels:

* the database layer (``VerifiedDatabase`` + ``ClientVerifier``):
  thousands of randomised ops, every VO verified, answers compared
  op-for-op against the forest-of-one reference;
* the TCP layer (``serve_in_thread`` + ``RemoteClient``): the wire
  codec, framing, and sync machinery over real sockets;
* the adversarial layer: every attack in ``bench_byzantine``'s gallery
  replayed against one-shard and eight-shard servers, asserting
  detection in both with the *same first-deviation operation* (the
  ground truth the server core's judge records) and the same detection
  operation -- no attack may become easier or harder to catch because
  the store is sharded.
"""

import random
import time

import pytest

from repro.core.scenarios import make_keys
from repro.mtree.database import (
    ClientVerifier,
    DeleteQuery,
    RangeQuery,
    ReadQuery,
    VerifiedDatabase,
    WriteQuery,
)
from repro.mtree.forest import StoreSpec
from repro.net import (
    IntegrityError,
    RemoteClient,
    count_sync_check,
    serve_in_thread,
    sync_check,
)
from repro.net.client import RemoteClientP1
from repro.protocols.base import ServerState
from repro.protocols.protocol1 import Protocol1Server, bootstrap_server_state
from repro.server.attacks import TamperValueAttack

from bench_byzantine import P1_ATTACKS, P2_ATTACKS

ORDER = 4
SHARD_COUNTS = (1, 2, 8)


# -- database-level differential -------------------------------------------

def _op_sequence(seed: int, count: int):
    """A deterministic mixed workload (reads, writes, deletes, scans)."""
    rng = random.Random(seed)
    ops = []
    live = set()
    for _ in range(count):
        roll = rng.random()
        key = b"key-%04d" % rng.randrange(120)
        if roll < 0.45 or not live:
            ops.append(WriteQuery(key=key, value=b"val-%06d" % rng.getrandbits(20)))
            live.add(key)
        elif roll < 0.75:
            ops.append(ReadQuery(key=rng.choice(sorted(live))
                                 if rng.random() < 0.8 else key))
        elif roll < 0.9:
            low = b"key-%04d" % rng.randrange(100)
            high = low + b"\xff"
            if rng.random() < 0.5:
                high = b"key-%04d" % (rng.randrange(100) + 20)
            ops.append(RangeQuery(low=min(low, high), high=max(low, high)))
        else:
            victim = rng.choice(sorted(live))
            ops.append(DeleteQuery(key=victim))
            live.discard(victim)
    return ops


def _run_verified(ops, shards: int):
    """Apply ``ops`` through a fully verifying client; every VO checks
    or ``ClientVerifier.apply`` raises.  Returns the answer trace."""
    database = VerifiedDatabase(order=ORDER, shards=shards)
    verifier = ClientVerifier(database.root_digest(), order=database.spec)
    answers = []
    for query in ops:
        if isinstance(query, DeleteQuery) and database.get(query.key) is None:
            answers.append("skip-missing-delete")
            continue
        result = database.execute(query)
        answers.append(verifier.apply(query, result))
    assert verifier.root_digest == database.root_digest()
    return answers


class TestDatabaseDifferential:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", [11, 37])
    def test_forest_answers_identical_to_single_tree(self, shards, seed):
        ops = _op_sequence(seed, 400)
        reference = _run_verified(ops, shards=1)
        forest = _run_verified(ops, shards=shards)
        assert forest == reference

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_contents_identical_after_workload(self, shards):
        ops = _op_sequence(5, 300)
        reference = VerifiedDatabase(order=ORDER, shards=1)
        forest = VerifiedDatabase(order=ORDER, shards=shards)
        for query in ops:
            if isinstance(query, DeleteQuery) and reference.get(query.key) is None:
                continue
            reference.execute(query)
            forest.execute(query)
        assert list(forest.mtree.items()) == list(reference.mtree.items())


# -- TCP-level differential ------------------------------------------------

def _client_order(shards: int):
    """What a client is told about the store: a bare order for one
    shard (which coerces to a forest of one), the full spec otherwise."""
    return StoreSpec(order=ORDER, shards=shards) if shards > 1 else ORDER


def _p2_wire_run(shards: int, attack_factory=None, *, n_users=3, k=4,
                 steps=14):
    """``bench_byzantine.run_fleet``'s Protocol II loop, chaos-free and
    deterministic: round-robin fleet, periodic register syncs, final
    closing sync.  Returns the observable trace and the detection
    record."""
    users = [f"u{i}" for i in range(n_users)]
    attack = attack_factory() if attack_factory else None
    server = serve_in_thread(order=ORDER, shards=shards, attack=attack)
    replies = []
    detection = None
    global_op = 0
    try:
        host, port = server.address
        genesis = server.initial_root_digest()
        clients = {
            user: RemoteClient(host, port, user, genesis,
                               order=_client_order(shards))
            for user in users
        }
        try:
            for step in range(steps):
                for user in users:
                    if detection:
                        break
                    global_op += 1
                    client = clients[user]
                    try:
                        if step % 3 == 2:
                            replies.append(
                                client.get(f"{user}-{(step - 1) % 5}".encode()))
                        else:
                            client.put(f"{user}-{step % 5}".encode(),
                                       f"{user}:{step}".encode())
                            replies.append("ack")
                    except IntegrityError:
                        detection = ("response", global_op)
                    if not detection and global_op % (k * n_users) == 0:
                        registers = {u: c.registers()
                                     for u, c in clients.items()}
                        if not sync_check(genesis, registers):
                            detection = ("sync", global_op)
                if detection:
                    break
            if not detection:
                registers = {u: c.registers() for u, c in clients.items()}
                if not sync_check(genesis, registers):
                    detection = ("sync", global_op)
        finally:
            for client in clients.values():
                client.close()
    finally:
        server.stop()
    return {
        "replies": replies,
        "detection": detection,
        "deviation_op": server.core.judge and server.core.judge.first_round,
    }


def _p1_wire_run(shards: int, attack_factory=None, *, k=4, steps=12):
    """Protocol I differential run (alice elected, then round-robin)."""
    users = ["alice", "bob"]
    keys = make_keys(users, seed=4096)
    attack = attack_factory() if attack_factory else None
    state = ServerState(database=VerifiedDatabase(order=ORDER, shards=shards))
    protocol = Protocol1Server()
    protocol.initialize(state)
    bootstrap_server_state(state, keys.signers["alice"])
    server = serve_in_thread(order=ORDER, protocol=protocol, state=state,
                             block_timeout=5.0, attack=attack)
    replies = []
    detection = None
    global_op = 0
    try:
        host, port = server.address
        clients = {
            user: RemoteClientP1(host, port, user, keys.signers[user],
                                 keys.verifier, order=_client_order(shards))
            for user in users
        }
        try:
            for step in range(steps):
                for user in users:
                    if detection:
                        break
                    global_op += 1
                    client = clients[user]
                    try:
                        if step % 3 == 2:
                            replies.append(
                                client.get(f"{user}-{(step - 1) % 5}".encode()))
                        else:
                            client.put(f"{user}-{step % 5}".encode(),
                                       f"{user}:{step}".encode())
                            replies.append("ack")
                    except IntegrityError:
                        detection = ("response", global_op)
                    # A follow-up is sent, not acknowledged: wait until the
                    # server has ticked it (two ticks an op), or the next
                    # user's request, on its own connection, can be ticked
                    # first and the deviation's ground-truth tick moves by
                    # one from run to run.
                    deadline = time.monotonic() + 5.0
                    while (not detection and server.core.round < 2 * global_op
                           and time.monotonic() < deadline):
                        time.sleep(0.0005)
                    if not detection and global_op % (k * len(users)) == 0:
                        counts = {u: c.counts() for u, c in clients.items()}
                        if not count_sync_check(counts):
                            detection = ("count-sync", global_op)
                if detection:
                    break
            if not detection:
                counts = {u: c.counts() for u, c in clients.items()}
                if not count_sync_check(counts):
                    detection = ("count-sync", global_op)
        finally:
            for client in clients.values():
                client.close()
    finally:
        server.stop()
    return {
        "replies": replies,
        "detection": detection,
        "deviation_op": server.core.judge and server.core.judge.first_round,
    }


class TestTcpDifferential:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_honest_p2_replies_identical_and_synced(self, shards):
        reference = _p2_wire_run(1)
        run = _p2_wire_run(shards)
        assert run["detection"] is None, "false positive in forest mode"
        assert run["replies"] == reference["replies"]

    @pytest.mark.parametrize("shards", (2, 8))
    def test_honest_p1_replies_identical_and_synced(self, shards):
        reference = _p1_wire_run(1)
        run = _p1_wire_run(shards)
        assert run["detection"] is None, "false positive in forest mode"
        assert run["replies"] == reference["replies"]


# -- attack-gallery parity -------------------------------------------------
#
# The galleries are the Byzantine campaign's own (names, victims,
# trigger rounds), so the CI campaign and this harness stay in
# lock-step.


class TestAttackGalleryParity:
    @pytest.mark.parametrize("name,factory", P2_ATTACKS,
                             ids=[n for n, _ in P2_ATTACKS])
    def test_p2_attack_detected_identically(self, name, factory):
        reference = _p2_wire_run(1, factory)
        forest = _p2_wire_run(8, factory)
        assert reference["detection"] is not None, f"{name} missed (one shard)"
        assert forest["detection"] is not None, f"{name} missed (forest)"
        assert forest["deviation_op"] == reference["deviation_op"], name
        assert forest["detection"] == reference["detection"], name

    @pytest.mark.parametrize("name,factory", P1_ATTACKS,
                             ids=[n for n, _ in P1_ATTACKS])
    def test_p1_attack_detected_identically(self, name, factory):
        reference = _p1_wire_run(1, factory)
        forest = _p1_wire_run(8, factory)
        assert reference["detection"] is not None, f"{name} missed (one shard)"
        assert forest["detection"] is not None, f"{name} missed (forest)"
        assert forest["deviation_op"] == reference["deviation_op"], name
        assert forest["detection"] == reference["detection"], name

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_forged_forest_tamper_detected_at_two_shard_counts(self, shards):
        """The strongest forgery -- a fully re-chained two-level VO, at
        S=1 its inner half alone (the client derives the top half) --
        is internally consistent, so Protocol II can only catch it where
        forged roots meet honest ones: the register sync.  It must be
        caught there for every shard count, the forest of one's too."""
        factory = lambda: TamperValueAttack(victim="u0", tamper_round=4,
                                            forge_proof=True)
        run = _p2_wire_run(shards, factory, steps=10)
        assert run["deviation_op"] is not None
        assert run["detection"] is not None
