"""Byzantine mode over real sockets: the attack gallery on the wire.

The simulator's detection matrix (test_attacks.py) proves the
protocols' soundness in-process; these tests prove the same guarantees
survive the TCP deployment -- wire codec, framing, batching, blocking,
WAL -- with forensic evidence bundles capturing every detection."""

import io
import os

import pytest

from repro.cli import main as cli_main
from repro.mtree.database import ReadQuery, VerifiedDatabase, WriteQuery
from repro.net import (
    DeviationJudge,
    IntegrityError,
    RemoteClient,
    ServerCore,
    count_sync_check,
    serve_in_thread,
    sync_check,
)
from repro.net import evidence
from repro.net.client import RemoteClientP1
from repro.protocols.base import DeviationDetected, Request, ServerState
from repro.protocols.protocol1 import Protocol1Server, bootstrap_server_state
from repro.protocols.protocol2 import XorRegisters
from repro.server.attacks import (
    CompositeAttack,
    CounterReplayAttack,
    DropCommitAttack,
    ForkAttack,
    HonestBehavior,
    SignatureForgeAttack,
    StaleRootReplayAttack,
    TamperValueAttack,
)
from repro.storage.faults import ALWAYS, FaultyIO


def p2_server(attack=None, **kwargs):
    return serve_in_thread(order=4, attack=attack, **kwargs)


def p1_server(keys, attack=None, elected="alice", **kwargs):
    state = ServerState(database=VerifiedDatabase(order=4))
    protocol = Protocol1Server()
    protocol.initialize(state)
    bootstrap_server_state(state, keys.signers[elected])
    return serve_in_thread(order=4, protocol=protocol, state=state,
                           block_timeout=5.0, attack=attack, **kwargs)


def inspect(path):
    """Run ``repro evidence-inspect``; returns (exit_code, output)."""
    out = io.StringIO()
    code = cli_main(["evidence-inspect", path], out=out)
    return code, out.getvalue()


class TestWireAttacksProtocol2:
    def test_honest_wire_run_never_alarms(self, tmp_path):
        attack = HonestBehavior()
        server = p2_server(attack=attack)
        try:
            host, port = server.address
            genesis = server.initial_root_digest()
            clients = {
                user: RemoteClient(host, port, user, genesis, order=4,
                                   evidence_dir=str(tmp_path / "ev"))
                for user in ("alice", "bob")
            }
            for i in range(6):
                clients["alice"].put(f"a{i}".encode(), b"v")
                clients["bob"].put(f"b{i}".encode(), b"v")
            registers = {u: c.registers() for u, c in clients.items()}
            assert sync_check(genesis, registers)
            assert server.core.judge.deviations == 0
            assert server.core.judge.first_round is None
            assert not os.path.isdir(str(tmp_path / "ev"))  # no bundles
            for client in clients.values():
                client.close()
        finally:
            server.stop()

    def test_unforged_tamper_detected_instantly_with_evidence(self, tmp_path):
        attack = TamperValueAttack(victim="alice", tamper_round=4)
        server = p2_server(attack=attack)
        try:
            host, port = server.address
            genesis = server.initial_root_digest()
            with RemoteClient(host, port, "alice", genesis, order=4,
                              evidence_dir=str(tmp_path)) as alice:
                alice.put(b"k", b"v")
                with pytest.raises(IntegrityError, match="rejected") as exc:
                    for _ in range(6):
                        alice.get(b"k")
                path = exc.value.evidence_path
            assert server.core.judge.deviations >= 1
            bundle = evidence.read_bundle(path)
            assert bundle["kind"] == "response"
            assert bundle["protocol"] == "II"
            genuine, why = evidence.reverify(bundle)
            assert genuine, why
            code, output = inspect(path)
            assert code == 0
            assert "GENUINE DEVIATION" in output
        finally:
            server.stop()

    def test_counter_replay_detected_with_evidence(self, tmp_path):
        attack = CounterReplayAttack(victim="alice", replay_round=4)
        server = p2_server(attack=attack)
        try:
            host, port = server.address
            genesis = server.initial_root_digest()
            with RemoteClient(host, port, "alice", genesis, order=4,
                              evidence_dir=str(tmp_path)) as alice:
                with pytest.raises(IntegrityError, match="regressed") as exc:
                    for i in range(8):
                        alice.put(f"k{i}".encode(), b"v")
                path = exc.value.evidence_path
            genuine, why = evidence.reverify(evidence.read_bundle(path))
            assert genuine, why
            assert "regressed" in why
            assert inspect(path)[0] == 0
        finally:
            server.stop()

    @pytest.mark.parametrize("attack_factory", [
        lambda: ForkAttack(victims=["bob"], fork_round=5),
        lambda: StaleRootReplayAttack(victim="bob", freeze_round=5),
        lambda: DropCommitAttack(victim="bob", drop_round=5),
    ])
    def test_partition_attacks_fail_sync(self, tmp_path, attack_factory):
        """Fork-class attacks are invisible per-operation (each branch is
        internally consistent) but no serial history explains the union
        of registers: sync_check fails, and the register exchange itself
        is the evidence."""
        attack = attack_factory()
        server = p2_server(attack=attack)
        try:
            host, port = server.address
            genesis = server.initial_root_digest()
            clients = {
                user: RemoteClient(host, port, user, genesis, order=4)
                for user in ("alice", "bob")
            }
            for i in range(5):
                clients["alice"].put(f"a{i}".encode(), b"v")
                clients["bob"].put(f"b{i}".encode(), b"v")
            registers = {u: c.registers() for u, c in clients.items()}
            assert not sync_check(genesis, registers)
            assert server.core.judge.first_round is not None
            path = evidence.write_bundle(
                str(tmp_path / "sync.evidence"),
                evidence.sync_bundle(genesis, registers))
            genuine, why = evidence.reverify(evidence.read_bundle(path))
            assert genuine, why
            assert inspect(path)[0] == 0
            for client in clients.values():
                client.close()
        finally:
            server.stop()

    def test_composite_attack_on_the_wire(self):
        attack = CompositeAttack([
            ForkAttack(victims=["bob"], fork_round=6),
            TamperValueAttack(victim="alice", tamper_round=8),
        ])
        server = p2_server(attack=attack)
        try:
            host, port = server.address
            genesis = server.initial_root_digest()
            alice = RemoteClient(host, port, "alice", genesis, order=4)
            bob = RemoteClient(host, port, "bob", genesis, order=4)
            alice.put(b"k", b"v")
            detected_per_op = False
            try:
                for i in range(6):
                    alice.get(b"k")
                    bob.put(f"b{i}".encode(), b"v")
            except IntegrityError:
                detected_per_op = True
            synced = sync_check(
                genesis, {"alice": alice.registers(), "bob": bob.registers()})
            assert detected_per_op or not synced
            assert server.core.judge.first_round is not None
            alice.close()
            bob.close()
        finally:
            server.stop()


class TestWireAttacksProtocol1:
    def test_signature_forge_detected_and_reverifiable_offline(
            self, shared_keys, tmp_path):
        attack = SignatureForgeAttack(forge_round=3)
        server = p1_server(shared_keys, attack=attack)
        try:
            host, port = server.address
            with RemoteClientP1(host, port, "alice",
                                shared_keys.signers["alice"],
                                shared_keys.verifier, order=4,
                                evidence_dir=str(tmp_path)) as alice:
                with pytest.raises(IntegrityError, match="signature") as exc:
                    for i in range(5):
                        alice.put(f"k{i}".encode(), b"v")
                path = exc.value.evidence_path
            bundle = evidence.read_bundle(path)
            assert bundle["protocol"] == "I"
            assert bundle["verifier_keys"]  # keys travel with the bundle
            genuine, why = evidence.reverify(bundle)
            assert genuine, why
            assert "verify under the signer's key" in why
            assert inspect(path)[0] == 0
            # a bundle recording no run head is judged as a batch head
            bundle["client_state"] = {
                name: bundle["client_state"][name] for name in ("lctr", "gctr")}
            assert evidence.reverify(bundle) == (genuine, why)
        finally:
            server.stop()

    def test_fork_blocks_per_branch_and_fails_count_sync(self, shared_keys):
        """Each forked branch keeps Protocol I's blocking discipline
        (the victim's follow-ups land on the victim's branch), yet the
        branches' counters can no longer reconcile."""
        attack = ForkAttack(victims=["bob"], fork_round=4)
        server = p1_server(shared_keys, attack=attack)
        try:
            host, port = server.address
            alice = RemoteClientP1(host, port, "alice",
                                   shared_keys.signers["alice"],
                                   shared_keys.verifier, order=4)
            bob = RemoteClientP1(host, port, "bob",
                                 shared_keys.signers["bob"],
                                 shared_keys.verifier, order=4)
            for i in range(3):
                alice.put(f"a{i}".encode(), b"v")
                bob.put(f"b{i}".encode(), b"v")
            assert "fork" in server.core.states
            counts = {"alice": alice.counts(), "bob": bob.counts()}
            assert not count_sync_check(counts)
            genuine, why = evidence.reverify(evidence.count_sync_bundle(counts))
            assert genuine, why
            alice.close()
            bob.close()
        finally:
            server.stop()


class TestAsyncBatchedDetection:
    """The server's signature amortization must not weaken
    detection: one signed root covers a whole signing run, so a
    tampered operation *inside* the run has no per-op signature of its
    own -- the hash-chain membership check has to catch it."""

    def test_tampered_op_inside_signed_batch_detected_with_evidence(
            self, shared_keys, tmp_path):
        """Forge-proof value tamper on a read mid-window: the VO is
        internally consistent, but its implied root cannot join the
        hash chain anchored at the run's signed root.  IntegrityError
        plus an offline-reverifiable evidence bundle, exactly as the
        unbatched client would produce."""
        attack = TamperValueAttack(victim="alice", tamper_round=6,
                                   forge_proof=True)
        server = p1_server(shared_keys, attack=attack, batch_max=16)
        try:
            host, port = server.address
            alice = RemoteClientP1(
                host, port, "alice", shared_keys.signers["alice"],
                shared_keys.verifier, order=4, window=8,
                evidence_dir=str(tmp_path))
            for i in range(4):
                alice.submit(WriteQuery(f"k{i}".encode(), f"v{i}".encode()))
            alice.drain()
            with pytest.raises(IntegrityError) as exc:
                # an absent key is never tampered: the run's head is honest
                alice.submit(ReadQuery(b"absent"))
                for i in range(7):
                    alice.submit(ReadQuery(f"k{i % 4}".encode()))
                alice.drain()
            path = exc.value.evidence_path
            assert server.core.judge.deviations >= 1
            assert server.core.judge.first_round is not None

            bundle = evidence.read_bundle(path)
            assert bundle["protocol"] == "I"
            genuine, why = evidence.reverify(bundle)
            assert genuine, why
            # replayed by the rule the recorded state calls for: mid-run
            # (the usual case here) the verdict names the chain or the
            # VO, not the stale head signature every in-run response has
            if bundle["client_state"]["head_expected"]:
                assert "signature" in why
            else:
                assert "chain" in why or "verification object" in why
                assert "signature" not in why
            assert inspect(path)[0] == 0
            alice.close()
        finally:
            server.stop()

    def test_honest_in_run_responses_are_not_evidence(
            self, shared_keys, tmp_path):
        """Every honest response of a window=8 run, packaged exactly as
        a detection would package it (frames + the pre-operation state
        object), re-verifies clean.  The in-run ones carry the stale
        head signature by design; only a replay that knows the run head
        can tell that from a forgery."""
        class Accuser(RemoteClientP1):
            def _absorb(self, query, request, response):
                self._write_evidence(self.core._detected(
                    "fabricated", request, response, self._capture[-1]))
                return super()._absorb(query, request, response)

        server = p1_server(
            shared_keys, attack=HonestBehavior(), batch_max=16)
        try:
            host, port = server.address
            alice = Accuser(host, port, "alice", shared_keys.signers["alice"],
                            shared_keys.verifier, order=4, window=8,
                            evidence_dir=str(tmp_path))
            for i in range(8):
                alice.submit(WriteQuery(f"k{i}".encode(), b"v"))
            alice.drain()
            alice.close()
            paths = sorted(str(tmp_path / name)
                           for name in os.listdir(str(tmp_path)))
            assert len(paths) == 8
            in_run = 0
            for path in paths:
                bundle = evidence.read_bundle(path)
                in_run += not bundle["client_state"]["head_expected"]
                genuine, why = evidence.reverify(bundle)
                assert not genuine, (path, why)
                assert inspect(path)[0] == 1
            assert in_run >= 1 and alice.followups_sent == 8 - in_run
        finally:
            server.stop()

    def test_honest_batched_run_never_alarms(self, shared_keys, tmp_path):
        """Control: the same pipelined client over an honest async
        server produces zero bundles and passes count_sync_check."""
        attack = HonestBehavior()
        server = p1_server(shared_keys, attack=attack, batch_max=16)
        try:
            host, port = server.address
            alice = RemoteClientP1(
                host, port, "alice", shared_keys.signers["alice"],
                shared_keys.verifier, order=4, window=8,
                evidence_dir=str(tmp_path / "ev"))
            for i in range(8):
                alice.submit(WriteQuery(f"k{i}".encode(), b"v"))
            for i in range(8):
                alice.submit(ReadQuery(f"k{i}".encode()))
            alice.drain()
            assert server.core.judge.deviations == 0
            assert not os.path.isdir(str(tmp_path / "ev"))
            assert count_sync_check({"alice": alice.counts()})
            alice.close()
        finally:
            server.stop()


def _p2_fleet(server, steps):
    """``bench_byzantine.run_fleet``'s Protocol II loop without chaos or
    syncs: u0, u1, u2 in turn, a read every third step, writes
    otherwise.  Yields after each operation, which is one server tick."""
    host, port = server.address
    genesis = server.initial_root_digest()
    users = ["u0", "u1", "u2"]
    clients = {user: RemoteClient(host, port, user, genesis, order=4)
               for user in users}
    try:
        for step in range(steps):
            for user in users:
                if step % 3 == 2:
                    clients[user].get(f"{user}-{(step - 1) % 5}".encode())
                else:
                    clients[user].put(f"{user}-{step % 5}".encode(),
                                      f"{user}:{step}".encode())
                yield
    finally:
        for client in clients.values():
            client.close()


class TestDeviationJudge:
    """Ground truth is the core's judge: a response deviates iff it
    differs from the honest replay's, whatever branch served it."""

    @pytest.mark.parametrize("attack_factory,branch,branched_at,onset", [
        (lambda: DropCommitAttack(victim="u1", drop_round=10),
         "victim", 11, 12),
        (lambda: CompositeAttack([
            ForkAttack(victims=["u2"], fork_round=12),
            TamperValueAttack(victim="u0", tamper_round=18)]),
         "fork", 12, 13),
    ], ids=["p2-drop-commit", "p2-composite"])
    def test_an_identical_answer_is_not_a_deviation(
            self, attack_factory, branch, branched_at, onset):
        """The campaign's two runs whose first answer from another
        branch equals the honest one: the victim's write lands on a
        fresh clone of main, so answer, root and counter all match the
        honest run.  Onset is the next response, the first that
        differs."""
        server = p2_server(attack=attack_factory())
        try:
            first_private = None
            for tick, _ in enumerate(_p2_fleet(server, steps=5), start=1):
                assert server.core.round == tick
                if first_private is None and branch in server.core.states:
                    first_private = tick
                    assert server.core.judge.first_round is None
            assert first_private == branched_at
            assert server.core.judge.first_round == onset
            assert server.core.judge.first_op == onset - 1
        finally:
            server.stop()

    def test_a_disk_lie_no_attack_reports(self, tmp_path):
        """No attack, so no self-report and no judge in the core: a disk
        whose every fsync lies loses the acked writes in a crash, and
        the restarted server answers from genesis.  A judge held across
        the restart marks the first response after it, and a Protocol
        II register fed the same responses detects there, not before."""
        data_dir = str(tmp_path / "server")
        io_ = FaultyIO(lying_fsync=ALWAYS, torn_tail=False)
        core = ServerCore(order=4, data_dir=data_dir, io=io_)
        assert core.judge is None
        judge = DeviationJudge(core.protocol, core.state)
        registers = XorRegisters("alice", order=4)
        detected_at = None
        ops = 0

        def op(core, query):
            nonlocal detected_at, ops
            ops += 1
            request = Request(query=query)
            response = core.apply_request("alice", request)
            judge.request("alice", request, response, core.state, ops)
            try:
                registers.step(query, response)
            except DeviationDetected:
                if detected_at is None:
                    detected_at = ops

        for i in range(4):
            op(core, WriteQuery(f"k{i}".encode(), f"v{i}".encode()))
        assert judge.first_round is None and detected_at is None
        core.close_store()
        io_.simulate_crash()

        restarted = ServerCore(order=4, data_dir=data_dir)
        try:
            assert restarted.state.ctr == 0  # four acked writes are gone
            op(restarted, ReadQuery(b"k1"))  # acked as v1, answered None
            op(restarted, WriteQuery(b"k9", b"v9"))
        finally:
            restarted.close_store()
        assert (judge.first_round, judge.first_op) == (5, 4)
        assert judge.deviations == 2
        assert detected_at is not None and detected_at >= judge.first_round


class TestForkSurvivesWalReplay:
    def test_forked_branches_reconstructed_after_crash(self, tmp_path):
        """A Byzantine durable server crash-restarts into the *same*
        forked world: WAL replay routes through the attack at identical
        tick indices, so every branch's root digest is reproduced and
        both users resume their (divergent) verified sessions."""
        data_dir = str(tmp_path / "server")

        def make_attack():
            return ForkAttack(victims=["bob"], fork_round=4)

        server = p2_server(attack=make_attack(), data_dir=data_dir,
                           snapshot_every=3)
        host, port = server.address
        genesis = server.initial_root_digest()
        alice = RemoteClient(host, port, "alice", genesis, order=4)
        bob = RemoteClient(host, port, "bob", genesis, order=4)
        for i in range(4):
            alice.put(f"a{i}".encode(), b"v")
            bob.put(f"b{i}".encode(), b"v")
        def branches(core):
            return ({name: state.database.root_digest()
                     for name, state in core.states.items()}, core.round)

        before, ticks = server.with_core(branches)
        assert "fork" in before
        alice.close()
        bob.close()
        server.stop()  # crash-equivalent

        restarted = p2_server(attack=make_attack(), data_dir=data_dir,
                              snapshot_every=3)
        try:
            assert restarted.replayed_records > 0  # snapshots were suppressed
            assert restarted.with_core(branches) == (before, ticks)
            # both users resume against their own branch
            host2, port2 = restarted.address
            alice2 = RemoteClient(host2, port2, "alice", genesis, order=4)
            bob2 = RemoteClient(host2, port2, "bob", genesis, order=4)
            for i in range(4):
                assert alice2.get(f"a{i}".encode()) == b"v"
            assert bob2.get(b"b0") == b"v"
            assert bob2.get(b"a3") is None  # alice's post-fork write hidden
            alice2.close()
            bob2.close()
        finally:
            restarted.stop()


class TestEvidenceBundleFormat:
    def test_fabricated_bundle_does_not_implicate_the_server(self, tmp_path):
        """A bundle built from an *honest* exchange re-verifies clean:
        evidence-inspect refuses to certify it (exit 1)."""
        from repro.wire import encode

        server = p2_server()
        try:
            host, port = server.address
            genesis = server.initial_root_digest()
            captured = {}

            class Snitch(RemoteClient):
                def _absorb(self, query, request, response):
                    captured["request"] = request
                    captured["frame"] = self._capture[-1]
                    captured["state"] = self.core.snapshot()
                    return super()._absorb(query, request, response)

            with Snitch(host, port, "alice", genesis, order=4) as alice:
                alice.put(b"k", b"v")
            bundle = evidence.response_bundle(
                protocol="II", user_id="alice",
                reason="fabricated accusation", op_index=0, order=4,
                request_frame=encode(captured["request"]),
                response_frame=captured["frame"],
                client_state=captured["state"],
                anchor=evidence.anchor_lineage(None, None))
            path = evidence.write_bundle(str(tmp_path / "fake.evidence"),
                                         bundle)
            genuine, why = evidence.reverify(evidence.read_bundle(path))
            assert not genuine
            code, output = inspect(path)
            assert code == 1
            assert "NOT evidence" in output
        finally:
            server.stop()

    def test_corrupt_bundle_file_is_a_clean_cli_error(self, tmp_path):
        path = str(tmp_path / "junk.evidence")
        with open(path, "wb") as handle:
            handle.write(b"not a bundle at all")
        code, output = inspect(path)
        assert code == 2
        assert "error:" in output

    def test_bundle_roundtrip_is_canonical(self, tmp_path):
        bundle = evidence.count_sync_bundle(
            {"alice": {"lctr": 3, "gctr": 5}, "bob": {"lctr": 1, "gctr": 4}})
        p1 = evidence.write_bundle(str(tmp_path / "a.evidence"), bundle)
        p2 = evidence.write_bundle(str(tmp_path / "b.evidence"),
                                   evidence.read_bundle(p1))
        with open(p1, "rb") as h1, open(p2, "rb") as h2:
            assert h1.read() == h2.read()


class TestObsCounters:
    def test_attack_detection_and_bundle_counters(self, tmp_path):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            attack = TamperValueAttack(victim="alice", tamper_round=3)
            server = p2_server(attack=attack)
            try:
                host, port = server.address
                genesis = server.initial_root_digest()
                with RemoteClient(host, port, "alice", genesis, order=4,
                                  evidence_dir=str(tmp_path)) as alice:
                    alice.put(b"k", b"v")
                    with pytest.raises(IntegrityError):
                        for _ in range(5):
                            alice.get(b"k")
            finally:
                server.stop()
            counters = obs.snapshot()["counters"]
            assert counters["net.attacks_injected"]["total"] >= 1
            assert counters["net.detections"]["total"] >= 1
            assert counters["net.evidence_bundles"]["total"] >= 1
        finally:
            obs.disable()
