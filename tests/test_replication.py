"""Replicated root deposits across N untrusted servers.

A primary replicates its signed root lineage to witness servers; a
client confirms every verified root against a random f+1 witness
quorum.  These tests cover the codec, the witness's banking/attestation
protocol (including WAL crash replay), the client-side quorum check in
every verdict class -- confirmation, primary fork, primary
equivocation, witness fabrication, withholding-as-noise -- endpoint
failover, and the offline re-verification of every evidence bundle.
"""

import os

import pytest

from repro.crypto.hashing import Digest
from repro.mtree.database import VerifiedDatabase, WriteQuery
from repro.net import (
    EndpointConnector,
    QuorumChecker,
    RemoteClient,
    Replicator,
    RetryPolicy,
    TransientNetworkError,
    WitnessCollusion,
    WitnessProtocol,
    attest,
    attestation_valid,
    deposit_valid,
    make_deposit,
    make_replica_keys,
    serve_in_thread,
)
from repro.net import evidence
from repro.net.client import ReplicationDivergence
from repro.net.framing import recv_message, send_message
from repro.net.replication import (
    ATTEST_KEY,
    DEPOSIT_KEY,
    FETCH_KEY,
    HEAD_KEY,
    META_CONFLICTS,
    META_DEPOSITS,
    PRIMARY_ID,
    REPL_USER,
    RootAttestation,
    RootDeposit,
    witness_name,
)
from repro.protocols.base import Request, Response, ServerState
from repro.server.attacks import ForkAttack
from repro.wire import WireError, decode, encode

ORDER = 4
KEYS = make_replica_keys(3, 91)  # one keygen for the whole module


def _root(tag: bytes) -> Digest:
    from repro.crypto.hashing import hash_bytes

    return hash_bytes(b"test-root:" + tag)


def _witness_protocol(index: int, collusion=None) -> WitnessProtocol:
    wid = witness_name(index)
    return WitnessProtocol(wid, KEYS.witnesses[index], KEYS.verifier,
                           collusion=collusion)


def _witness_cluster(n=3, collusions=None, **serve_kwargs):
    """n witness servers; returns (servers, [(wid, (host, port))])."""
    servers, endpoints = [], []
    for index in range(n):
        protocol = _witness_protocol(index,
                                     (collusions or {}).get(index))
        server = serve_in_thread(order=ORDER, protocol=protocol,
                                 **serve_kwargs)
        servers.append(server)
        endpoints.append((witness_name(index), server.address))
    return servers, endpoints


def _quorum(endpoints, user="alice", f=1, seed=7, evidence_dir=None):
    return QuorumChecker(endpoints, KEYS.verifier, f, user_id=user,
                         seed=seed,
                         retry=RetryPolicy(attempts=8, base=0.005,
                                           cap=0.05, seed=seed),
                         evidence_dir=evidence_dir, order=ORDER)


# -- codec -----------------------------------------------------------------

class TestCodec:
    def test_deposit_roundtrip(self):
        deposit = make_deposit(KEYS.primary, 7, _root(b"a"))
        assert decode(encode(deposit)) == deposit

    def test_attestation_roundtrip(self):
        deposit = make_deposit(KEYS.primary, 3, _root(b"b"))
        attestation = attest(KEYS.witnesses[0], deposit)
        decoded = decode(encode(attestation))
        assert decoded == attestation
        assert attestation_valid(decoded, KEYS.verifier)

    def test_signatures_survive_the_wire(self):
        deposit = decode(encode(make_deposit(KEYS.primary, 1, _root(b"c"))))
        assert deposit_valid(deposit, KEYS.verifier, PRIMARY_ID)
        tampered = RootDeposit(primary_id=deposit.primary_id, ctr=2,
                               root=deposit.root,
                               signature=deposit.signature)
        assert not deposit_valid(tampered, KEYS.verifier, PRIMARY_ID)


# -- the witness protocol, driven directly ---------------------------------

class TestWitnessBanking:
    def _fresh(self, collusion=None):
        protocol = _witness_protocol(0, collusion)
        state = ServerState(database=VerifiedDatabase(order=ORDER))
        protocol.initialize(state)
        return protocol, state

    def _deposit(self, protocol, state, deposits):
        request = Request(query=None, extras={"user": REPL_USER,
                                              DEPOSIT_KEY: deposits})
        return protocol.handle_request(REPL_USER, request, state, round_no=0)

    def _fetch(self, protocol, state, ctrs, user="alice"):
        request = Request(query=None, extras={"user": user, FETCH_KEY: ctrs})
        return protocol.handle_request(user, request, state, round_no=0)

    def test_banks_valid_deposits_and_attests(self):
        protocol, state = self._fresh()
        deposit = make_deposit(KEYS.primary, 1, _root(b"x"))
        reply = self._deposit(protocol, state, [deposit])
        assert reply.extras["stored"] == 1
        assert reply.extras[HEAD_KEY] == 1
        attestation = self._fetch(protocol, state, [1]).extras[ATTEST_KEY][1]
        assert attestation.witness_id == witness_name(0)
        assert attestation.deposit == deposit
        assert attestation_valid(attestation, KEYS.verifier)

    def test_redelivery_is_idempotent(self):
        protocol, state = self._fresh()
        deposit = make_deposit(KEYS.primary, 1, _root(b"x"))
        self._deposit(protocol, state, [deposit])
        reply = self._deposit(protocol, state, [deposit, deposit])
        assert reply.extras["stored"] == 0
        assert len(state.meta[META_DEPOSITS]) == 1
        assert state.meta[META_CONFLICTS] == []

    def test_invalid_primary_signature_rejected(self):
        protocol, state = self._fresh()
        good = make_deposit(KEYS.primary, 1, _root(b"x"))
        forged = RootDeposit(primary_id=good.primary_id, ctr=2,
                             root=good.root, signature=good.signature)
        reply = self._deposit(protocol, state, [forged])
        assert reply.extras["rejected"] == 1
        assert state.meta[META_DEPOSITS] == {}
        assert protocol.rejected == 1

    def test_deposit_self_signed_under_another_id_rejected(self):
        """A witness's key over a deposit in its own name is not the
        primary's signature: counted rejected, never banked."""
        protocol, state = self._fresh()
        selfsigned = make_deposit(KEYS.witnesses[1], 1, _root(b"x"))
        reply = protocol._store_deposits([selfsigned], state)
        assert reply.extras["rejected"] == 1
        assert state.meta[META_DEPOSITS] == {}

    def test_conflicting_deposit_keeps_first_remembers_confession(self):
        protocol, state = self._fresh()
        first = make_deposit(KEYS.primary, 1, _root(b"x"))
        second = make_deposit(KEYS.primary, 1, _root(b"y"))
        self._deposit(protocol, state, [first])
        self._deposit(protocol, state, [second])
        assert state.meta[META_DEPOSITS][1] == first
        assert state.meta[META_CONFLICTS] == [second]

    def test_fetch_unknown_counter_is_lag_not_error(self):
        protocol, state = self._fresh()
        reply = self._fetch(protocol, state, [5])
        assert reply.extras[ATTEST_KEY][5] is None
        assert reply.extras[HEAD_KEY] == -1


class TestWitnessWalReplay:
    def test_crash_replay_rebuilds_the_deposit_store(self, tmp_path):
        """Deposits ride the hash-chained WAL: a crash-stop witness
        replays to the identical banked lineage."""
        import socket as socket_module

        data_dir = str(tmp_path / "witness")
        server = serve_in_thread(order=ORDER, protocol=_witness_protocol(0),
                                 data_dir=data_dir)
        deposits = [make_deposit(KEYS.primary, ctr, _root(b"%d" % ctr))
                    for ctr in (1, 2, 3)]
        with socket_module.create_connection(server.address,
                                             timeout=5) as sock:
            send_message(sock, Request(query=None, extras={
                "user": REPL_USER, DEPOSIT_KEY: deposits}))
            assert recv_message(sock).extras["stored"] == 3
        server.stop()  # crash: WAL only

        restarted = serve_in_thread(order=ORDER,
                                    protocol=_witness_protocol(0),
                                    data_dir=data_dir)
        try:
            assert restarted.replayed_records == 1
            banked = restarted.with_core(
                lambda core: dict(core.state.meta[META_DEPOSITS]))
            assert banked == {deposit.ctr: deposit for deposit in deposits}
        finally:
            restarted.stop()


# -- replication + quorum end to end ---------------------------------------

class TestQuorumEndToEnd:
    def test_honest_lineage_confirmed(self):
        witnesses, endpoints = _witness_cluster()
        replicator = Replicator(KEYS.primary,
                                witnesses=[e for _, e in endpoints])
        server = serve_in_thread(order=ORDER, replicator=replicator)
        try:
            host, port = server.address
            with RemoteClient(host, port, "alice",
                              server.initial_root_digest(), order=ORDER,
                              quorum=_quorum(endpoints), quorum_every=2) as alice:
                for i in range(6):
                    alice.put(b"k%d" % (i % 3), b"v%d" % i)
                assert replicator.flush(timeout=10)
                alice.quorum_check(require_all=True)
                assert alice.quorum.pending == 0
                assert alice.quorum.confirmed == 6
                assert alice.quorum.detections == []
        finally:
            server.stop()
            for witness in witnesses:
                witness.stop()

    def test_sender_and_fetch_sockets_are_no_delay(self, monkeypatch):
        import socket
        import threading

        from repro.net import client

        opened = []  # (opening thread, address, socket)
        open_connection = client.open_connection

        def recording(address, *args):
            sock = open_connection(address, *args)
            opened.append((threading.current_thread().name, address, sock))
            return sock

        # every session, witness sessions included, connects through it
        monkeypatch.setattr(client, "open_connection", recording)
        witnesses, endpoints = _witness_cluster()
        replicator = Replicator(KEYS.primary,
                                witnesses=[e for _, e in endpoints])
        server = serve_in_thread(order=ORDER, replicator=replicator)
        try:
            host, port = server.address
            quorum = _quorum(endpoints)
            with RemoteClient(host, port, "alice",
                              server.initial_root_digest(), order=ORDER,
                              quorum=quorum, quorum_every=2) as alice:
                for i in range(4):
                    alice.put(b"k%d" % i, b"v%d" % i)
                assert replicator.flush(timeout=10)
                alice.quorum_check(require_all=True)
                senders = [sock for name, _, sock in opened
                           if name.startswith("repl-sender-")]
                fetchers = [sock for name, address, sock in opened
                            if not name.startswith("repl-sender-")
                            and address in [e for _, e in endpoints]]
                assert len(senders) == len(witnesses)
                assert len(fetchers) >= quorum.quorum
                for sock in senders + fetchers:
                    assert sock.getsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_NODELAY) == 1
        finally:
            server.stop()
            for witness in witnesses:
                witness.stop()

    def test_async_primary_replicates_per_executed_op(self):
        witnesses, endpoints = _witness_cluster(n=1)
        replicator = Replicator(KEYS.primary,
                                witnesses=[e for _, e in endpoints])
        handle = serve_in_thread(order=ORDER, replicator=replicator)
        try:
            host, port = handle.address
            with RemoteClient(host, port, "alice",
                              handle.initial_root_digest(),
                              order=ORDER) as alice:
                for i in range(4):
                    alice.put(b"a%d" % i, b"v%d" % i)
            assert replicator.flush(timeout=10)
            banked = witnesses[0].with_core(
                lambda core: sorted(core.state.meta[META_DEPOSITS]))
            # one deposit per executed op, even under batched draining
            assert banked == [1, 2, 3, 4]
        finally:
            handle.graceful_stop()
            for witness in witnesses:
                witness.stop()

    def test_pipelined_client_confirms_through_quorum(self):
        witnesses, endpoints = _witness_cluster()
        replicator = Replicator(KEYS.primary,
                                witnesses=[e for _, e in endpoints])
        server = serve_in_thread(order=ORDER, replicator=replicator)
        try:
            host, port = server.address
            with RemoteClient(host, port, "alice",
                              server.initial_root_digest(),
                              order=ORDER, window=4,
                              quorum=_quorum(endpoints),
                              quorum_every=3) as alice:
                for i in range(8):
                    alice.put(b"p%d" % (i % 4), b"v%d" % i)
                alice.drain()
                assert replicator.flush(timeout=10)
                alice.quorum_check(require_all=True)
                assert alice.quorum.pending == 0
                assert alice.quorum.confirmed == 8
        finally:
            server.stop()
            for witness in witnesses:
                witness.stop()


def _banked(witness):
    return witness.with_core(
        lambda core: sorted(core.state.meta[META_DEPOSITS]))


class TestDepositLeg:
    def test_refused_deposits_are_not_delivered_and_back_off(self):
        """A replicator pointed at a plain Protocol II server (a mistyped
        ``--replicate-to`` port): every deposit is refused, so none
        counts as delivered, and the refusals back off, not spin."""
        from repro.protocols.protocol2 import Protocol2Server

        class Counting(Protocol2Server):
            deposits = 0

            def internal_defect(self, request):
                self.deposits += DEPOSIT_KEY in request.extras
                return super().internal_defect(request)

        protocol = Counting()
        plain = serve_in_thread(order=ORDER, protocol=protocol)
        replicator = Replicator(KEYS.primary, witnesses=[plain.address])
        server = serve_in_thread(order=ORDER, replicator=replicator)
        try:
            host, port = server.address
            with RemoteClient(host, port, "alice",
                              server.initial_root_digest(),
                              order=ORDER) as alice:
                for i in range(20):
                    alice.put(b"k%d" % i, b"v%d" % i)
            assert not replicator.flush(timeout=2)
            assert 0 < protocol.deposits < 20
        finally:
            server.stop()
            plain.stop()

    def test_a_down_witness_costs_lag_never_progress(self):
        """One of three witnesses on a dead port (f = 1): the live two
        bank everything and confirm the whole lineage; only the flush
        and nothing else waits on the dead one."""
        import time

        witnesses, endpoints = _witness_cluster(n=2)
        endpoints.append((witness_name(2), ("127.0.0.1", _dead_port())))
        replicator = Replicator(KEYS.primary,
                                witnesses=[e for _, e in endpoints])
        server = serve_in_thread(order=ORDER, replicator=replicator)
        try:
            host, port = server.address
            with RemoteClient(host, port, "alice",
                              server.initial_root_digest(), order=ORDER,
                              quorum=_quorum(endpoints),
                              quorum_every=2) as alice:
                for i in range(20):
                    alice.put(b"k%d" % i, b"v%d" % i)
                assert not replicator.flush(timeout=1)
                for witness in witnesses:
                    assert _banked(witness) == list(range(1, 21))
                alice.quorum_check(require_all=True)
                assert alice.quorum.pending == 0
                assert alice.quorum.confirmed == 20
        finally:
            started = time.monotonic()
            server.stop()
            stopped = time.monotonic() - started
            for witness in witnesses:
                witness.stop()
        assert stopped < 1.0

    def test_deposits_survive_chaos_and_a_witness_crash(self, tmp_path):
        """One witness behind a seeded chaos proxy (drops, truncations,
        resets); a durable one crash-killed and restarted on its port
        mid-run.  Both end holding exactly the lineage 1..N."""
        from repro.net.chaosproxy import ChaosConfig, ChaosProxy

        n = 30
        chaotic = serve_in_thread(order=ORDER, protocol=_witness_protocol(0))
        proxy = ChaosProxy(*chaotic.address, seed=5, config=ChaosConfig(
            drop_rate=0.05, truncate_rate=0.05, reset_rate=0.05)).start()
        data_dir = str(tmp_path / "w1")
        durable = serve_in_thread(order=ORDER, protocol=_witness_protocol(1),
                                  data_dir=data_dir)
        durable_port = durable.address[1]
        replicator = Replicator(KEYS.primary,
                                witnesses=[proxy.address, durable.address])
        server = serve_in_thread(order=ORDER, replicator=replicator)
        try:
            host, port = server.address
            with RemoteClient(host, port, "alice",
                              server.initial_root_digest(),
                              order=ORDER) as alice:
                for i in range(n):
                    if i == n // 2:
                        durable.stop()  # crash
                        durable = serve_in_thread(
                            order=ORDER, protocol=_witness_protocol(1),
                            data_dir=data_dir, port=durable_port)
                    alice.put(b"k%d" % i, b"v%d" % i)
            assert replicator.flush(timeout=30)
            assert _banked(chaotic) == list(range(1, n + 1))
            assert _banked(durable) == list(range(1, n + 1))
            faults = proxy.faults
            assert faults["drops"] + faults["truncations"] + faults["resets"]
        finally:
            server.stop()
            proxy.stop()
            chaotic.stop()
            durable.stop()


class TestForkDetection:
    def test_forked_client_is_outvoted_and_names_the_primary(self, tmp_path):
        """The tentpole scenario: the primary serves alice a forked
        history; the witnesses hold only the public lineage, so alice's
        next quorum check convicts the primary -- with offline-provable
        evidence -- while bob keeps operating with no rollback."""
        witnesses, endpoints = _witness_cluster()
        replicator = Replicator(KEYS.primary,
                                witnesses=[e for _, e in endpoints])
        attack = ForkAttack(victims=["alice"], fork_round=3)
        server = serve_in_thread(order=ORDER, attack=attack,
                                 replicator=replicator)
        evidence_dir = str(tmp_path)
        try:
            host, port = server.address
            genesis = server.initial_root_digest()
            alice = RemoteClient(host, port, "alice", genesis, order=ORDER,
                                 quorum=_quorum(endpoints, "alice",
                                                evidence_dir=evidence_dir),
                                 quorum_every=2)
            bob = RemoteClient(host, port, "bob", genesis, order=ORDER,
                               quorum=_quorum(endpoints, "bob", seed=8,
                                              evidence_dir=evidence_dir),
                               quorum_every=2)
            try:
                with pytest.raises(ReplicationDivergence) as caught:
                    for i in range(8):
                        alice.put(b"a%d" % i, b"v%d" % i)
                        bob.put(b"b%d" % i, b"v%d" % i)
                assert caught.value.deviant == "primary"
                path = caught.value.evidence_path
                genuine, why = evidence.reverify(evidence.read_bundle(path))
                assert genuine, why
                assert "fork" in why or "contradict" in why

                # bob was served the honest lineage: he finishes his
                # workload and confirms all of it -- the out-vote means
                # progress, not a halt.
                for i in range(8, 12):
                    bob.put(b"b%d" % i, b"v%d" % i)
                assert replicator.flush(timeout=10)
                bob.quorum_check(require_all=True)
                assert bob.quorum.pending == 0
                assert bob.quorum.detections == []
            finally:
                alice.close()
                bob.close()
        finally:
            server.stop()
            for witness in witnesses:
                witness.stop()


class TestWitnessFabrication:
    def test_fabricating_witness_is_named_and_excluded(self, tmp_path):
        """A colluding minority cannot equivocate: its lie (valid
        witness signature over a deposit the primary never signed) is
        itself the evidence, the client excludes it and keeps going."""
        collusion = WitnessCollusion("fabricate")
        witnesses, endpoints = _witness_cluster(collusions={0: collusion})
        replicator = Replicator(KEYS.primary,
                                witnesses=[e for _, e in endpoints])
        server = serve_in_thread(order=ORDER, replicator=replicator)
        evidence_dir = str(tmp_path)
        try:
            host, port = server.address
            with RemoteClient(host, port, "carol",
                              server.initial_root_digest(), order=ORDER,
                              quorum=_quorum(endpoints, "carol",
                                             evidence_dir=evidence_dir),
                              quorum_every=2) as carol:
                for i in range(8):
                    carol.put(b"c%d" % i, b"v%d" % i)
                assert replicator.flush(timeout=10)
                carol.quorum_check(require_all=True)
                assert carol.quorum.pending == 0
                assert collusion.served > 0  # the colluder really lied
                assert carol.quorum.excluded == {witness_name(0)}
                assert carol.quorum.detections, "fabrication went unnamed"
                for detection in carol.quorum.detections:
                    assert detection["deviant"] == witness_name(0)
                    assert detection["mode"] == "witness-fabrication"
                    genuine, why = evidence.reverify(
                        evidence.read_bundle(detection["evidence_path"]))
                    assert genuine, why
        finally:
            server.stop()
            for witness in witnesses:
                witness.stop()

    def test_withholding_witness_is_noise_not_evidence(self):
        """Starvation is indistinguishable from lag: a withholding
        witness must never be accused, and the honest majority still
        confirms everything."""
        collusion = WitnessCollusion("withhold")
        witnesses, endpoints = _witness_cluster(collusions={0: collusion})
        replicator = Replicator(KEYS.primary,
                                witnesses=[e for _, e in endpoints])
        server = serve_in_thread(order=ORDER, replicator=replicator)
        try:
            host, port = server.address
            with RemoteClient(host, port, "dave",
                              server.initial_root_digest(), order=ORDER,
                              quorum=_quorum(endpoints, "dave"),
                              quorum_every=2) as dave:
                for i in range(8):
                    dave.put(b"d%d" % i, b"v%d" % i)
                assert replicator.flush(timeout=10)
                dave.quorum_check(require_all=True)
                assert dave.quorum.pending == 0
                assert dave.quorum.detections == []
                assert dave.quorum.excluded == set()
        finally:
            server.stop()
            for witness in witnesses:
                witness.stop()


class TestEquivocation:
    def test_double_signed_counter_convicts_the_primary(self, tmp_path):
        """Hand-crafted equivocation: two witnesses each hold a
        *different* validly-signed deposit for one counter.  Sampling
        both exposes the primary's double signature."""
        witnesses, endpoints = _witness_cluster(n=2)
        try:
            roots = [_root(b"left"), _root(b"right")]
            for index, server in enumerate(witnesses):
                import socket as socket_module

                deposit = make_deposit(KEYS.primary, 1, roots[index])
                with socket_module.create_connection(server.address,
                                                     timeout=5) as sock:
                    send_message(sock, Request(query=None, extras={
                        "user": REPL_USER, DEPOSIT_KEY: [deposit]}))
                    assert recv_message(sock).extras["stored"] == 1
            checker = _quorum(endpoints, "erin",
                              evidence_dir=str(tmp_path))
            checker.record(1, roots[0])
            with pytest.raises(ReplicationDivergence) as caught:
                checker.check(require_all=True)
            assert caught.value.deviant == "primary"
            assert "equivocation" in caught.value.args[0] \
                or "different roots" in caught.value.args[0]
            genuine, why = evidence.reverify(
                evidence.read_bundle(caught.value.evidence_path))
            assert genuine, why
            checker.close()
        finally:
            for witness in witnesses:
                witness.stop()

    def test_unreachable_quorum_is_transient_not_divergence(self):
        witnesses, endpoints = _witness_cluster(n=2)
        for witness in witnesses:
            witness.stop()
        checker = QuorumChecker(endpoints, KEYS.verifier, 1, user_id="f",
                                retry=RetryPolicy(attempts=2, base=0.001,
                                                  cap=0.002, seed=1),
                                order=ORDER)
        checker.record(1, _root(b"z"))
        with pytest.raises(TransientNetworkError):
            checker.check(require_all=True)
        checker.close()


# -- evidence: negative re-verification ------------------------------------

class TestReplicationEvidenceNegatives:
    def _fork_bundle(self, tmp_path):
        deposit = make_deposit(KEYS.primary, 1, _root(b"served"))
        attestation = attest(KEYS.witnesses[0], deposit)
        bundle = evidence.replication_bundle(
            mode="primary-fork", deviant="primary", user_id="u", ctr=1,
            reason="test", attestations=[encode(attestation)],
            order=ORDER, expected_root=_root(b"expected"),
            verifier_keys=evidence.key_directory(KEYS.verifier))
        return bundle

    def test_honest_material_is_not_evidence(self, tmp_path):
        """A 'fork' bundle whose deposit matches the expected root
        verifies cleanly -- it implicates nobody."""
        deposit = make_deposit(KEYS.primary, 1, _root(b"same"))
        attestation = attest(KEYS.witnesses[0], deposit)
        bundle = evidence.replication_bundle(
            mode="primary-fork", deviant="primary", user_id="u", ctr=1,
            reason="test", attestations=[encode(attestation)],
            order=ORDER, expected_root=_root(b"same"),
            verifier_keys=evidence.key_directory(KEYS.verifier))
        genuine, why = evidence.reverify(bundle)
        assert not genuine

    def test_garbled_attestation_frame_is_not_evidence(self, tmp_path):
        bundle = self._fork_bundle(tmp_path)
        frame = bundle["attestation_frames"][0]
        bundle["attestation_frames"] = [frame[:-3]]
        genuine, why = evidence.reverify(bundle)
        assert not genuine

    def test_fabrication_bundle_requires_invalid_primary_signature(self):
        """An honestly-signed deposit wrapped in a fabrication claim
        must NOT convict the witness."""
        deposit = make_deposit(KEYS.primary, 1, _root(b"fine"))
        attestation = attest(KEYS.witnesses[0], deposit)
        bundle = evidence.replication_bundle(
            mode="witness-fabrication", deviant=witness_name(0),
            user_id="u", ctr=1, reason="test",
            attestations=[encode(attestation)], order=ORDER,
            verifier_keys=evidence.key_directory(KEYS.verifier))
        genuine, why = evidence.reverify(bundle)
        assert not genuine


# -- one verdict, live and offline ------------------------------------------

CTR = 1
W0, W1, W2 = (witness_name(i) for i in range(3))


def _op(value: bytes):
    """A verified write's (new root, request frame, response frame)."""
    database = VerifiedDatabase(order=ORDER)
    query = WriteQuery(b"k", value)
    result = database.execute(query)
    return (database.root_digest(),
            encode(Request(query=query, extras={})),
            encode(Response(result=result, extras={})))


def _vote(index: int, deposit) -> bytes:
    return encode(attest(KEYS.witnesses[index], deposit))


def _gallery():
    """shape -> (votes as (witness, frame), the client's pending entry,
    the verdict, and a hand-built bundle claim (mode, deviant, extra
    fields) for the shapes the live path writes no bundle for)."""
    served, other = _op(b"served"), _op(b"other")
    good = make_deposit(KEYS.primary, CTR, served[0])
    rival = make_deposit(KEYS.primary, CTR, other[0])
    flipped = _witness_protocol(0, WitnessCollusion("fabricate"))._fabricate(
        good, "g")
    selfsigned = make_deposit(KEYS.witnesses[0], CTR, other[0])
    fab = ("witness-fabrication", W0)
    wrong_sig = RootAttestation(W0, rival, attest(KEYS.witnesses[0],
                                                  good).signature)
    return {
        "honest": ([(W0, _vote(0, good)), (W1, _vote(1, good))], served,
                   None, ("primary-fork", PRIMARY_ID, {})),
        "collusion-flipped-root": (
            [(W0, encode(flipped)), (W1, _vote(1, good))], served, fab, None),
        "self-signed-deposit": (
            [(W0, _vote(0, selfsigned)), (W1, _vote(1, good))], served, fab,
            None),
        "genuine-deposit-other-counter": (
            [(W0, _vote(0, make_deposit(KEYS.primary, CTR + 1, other[0]))),
             (W1, _vote(1, good))], served, None, fab + ({},)),
        "attestation-naming-another-witness": (
            [(W1, _vote(0, good)), (W2, _vote(2, good))], served, None,
            ("witness-fabrication", W1, {})),
        "bad-witness-signature": (
            [(W0, encode(wrong_sig)), (W1, _vote(1, good))], served, None,
            fab + ({},)),
        "truncated-frame": (
            [(W0, encode(flipped)[:-3]), (W1, _vote(1, good))], served, None,
            fab + ({},)),
        "equivocating-pair": (
            [(W0, _vote(0, good)), (W1, _vote(1, rival))], served,
            ("primary-equivocation", PRIMARY_ID), None),
        "fork": ([(W0, _vote(0, rival)), (W1, _vote(1, rival))], served,
                 ("primary-fork", PRIMARY_ID), None),
        # The client verified the rival root from its own frames; the
        # bundle claims it expected another one.
        "fork-frames-derive-another-root": (
            [(W0, _vote(0, rival))], other, None,
            ("primary-fork", PRIMARY_ID, {"expected_root": served[0]})),
        # One witness pairs the primary's deposit with one it signed
        # itself: live, that names the witness; as an "equivocation" it
        # must not convict the primary.
        "forged-equivocation": (
            [(W0, _vote(0, selfsigned)), (W1, _vote(1, good))], served, fab,
            ("primary-equivocation", PRIMARY_ID, {})),
    }


GALLERY = sorted(_gallery())


def _live_verdict(votes, pending, evidence_dir):
    """The quorum check fed in memory; returns (verdict, bundle path)."""
    checker = QuorumChecker([(W0, ("127.0.0.1", 1)), (W1, ("127.0.0.1", 2)),
                             (W2, ("127.0.0.1", 3))], KEYS.verifier, 1,
                            user_id="g", evidence_dir=evidence_dir,
                            order=ORDER)
    checker.record(CTR, *pending)
    ballot = {CTR: []}
    for wid, frame in votes:
        try:
            attestation = decode(frame)
        except WireError:
            continue  # the session drops a reply it cannot decode
        checker._absorb(wid, {CTR: attestation}, ballot)
    try:
        checker._evaluate(ballot)
    except ReplicationDivergence:
        pass
    if not checker.detections:
        return None, None
    detection = checker.detections[-1]
    return ((detection["mode"], detection["deviant"]),
            detection["evidence_path"])


def _offline_verdict(bundle):
    genuine, _ = evidence.reverify(bundle)
    return (bundle["mode"], bundle["deviant"]) if genuine else None


class TestVerdictGallery:
    """The quorum check and ``evidence.reverify`` give one verdict, with
    one deviant, on every shape of answer a witness can give."""

    @pytest.mark.parametrize("shape", GALLERY)
    def test_live_and_offline_agree(self, shape, tmp_path):
        votes, pending, verdict, claim = _gallery()[shape]
        live, path = _live_verdict(votes, pending, str(tmp_path))
        assert live == verdict
        if path is not None:
            assert _offline_verdict(evidence.read_bundle(path)) == verdict
        if claim is not None:
            mode, deviant, fields = claim
            assert (mode, deviant) != verdict
            bundle = evidence.replication_bundle(
                mode=mode, deviant=deviant, user_id="g", ctr=CTR,
                reason="hand-built", attestations=[f for _, f in votes],
                order=ORDER, expected_root=pending[0],
                request_frame=pending[1], response_frame=pending[2],
                verifier_keys=evidence.key_directory(KEYS.verifier))
            bundle.update(fields)
            assert _offline_verdict(bundle) is None


# -- endpoint failover ------------------------------------------------------

def _dead_port() -> int:
    import socket as socket_module

    probe = socket_module.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestEndpointFailover:
    def test_connector_rotates_past_dead_endpoints(self):
        server = serve_in_thread(order=ORDER)
        try:
            connector = EndpointConnector(
                [("127.0.0.1", _dead_port()), server.address],
                connect_timeout=0.5, op_timeout=5.0)
            sock = connector.connect()
            sock.close()
            assert connector.failovers == 1
            assert connector.current == server.address
            # sticky: the next connect goes straight to the live one
            sock = connector.connect()
            sock.close()
            assert connector.failovers == 1
        finally:
            server.stop()

    def test_client_operates_through_failover_list(self):
        server = serve_in_thread(order=ORDER)
        try:
            endpoints = [("127.0.0.1", _dead_port()), server.address]
            with RemoteClient(endpoints, user_id="alice",
                              initial_root=server.initial_root_digest(),
                              order=ORDER, connect_timeout=0.5,
                              retry=RetryPolicy(attempts=6, base=0.005,
                                                cap=0.05, seed=3)) as alice:
                for i in range(4):
                    alice.put(b"k%d" % i, b"v%d" % i)
                assert alice.gctr == 4
        finally:
            server.stop()
