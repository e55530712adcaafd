"""Protocol III: epoch deposits, server-mediated audits, no broadcast
channel (Theorem 4.3: detection within two epochs)."""

import pytest

from helpers import FakeContext, run_scenario
from repro.core.scenarios import make_keys
from repro.crypto.hashing import Digest
from repro.mtree.database import ReadQuery, VerifiedDatabase, WriteQuery
from repro.protocols.base import DeviationDetected, ErrorReply, Request, Response, ServerState
from repro.protocols.protocol3 import EpochDeposit, Protocol3Client, Protocol3Server
from repro.server.attacks import ForkAttack, StaleRootReplayAttack
from repro.simulation.workload import epoch_workload

USERS = ["u0", "u1", "u2"]
EPOCH = 30


@pytest.fixture(scope="module")
def keys():
    return make_keys(USERS, seed=55)


@pytest.fixture
def rig(keys):
    state = ServerState(database=VerifiedDatabase(order=4))
    state.database.execute(WriteQuery(b"file", b"v0"))
    server = Protocol3Server(epoch_length=EPOCH)
    server.initialize(state)
    initial_root = state.database.root_digest()
    clients = {
        u: Protocol3Client(u, USERS, EPOCH, initial_root,
                           keys.signers[u], keys.verifier, order=4)
        for u in USERS
    }
    return state, server, clients


def roundtrip(state, server, client, query, round_no):
    ctx = FakeContext(round_no=round_no)
    request = client.make_request(query)
    response = server.handle_request(client.user_id, request, state, round_no)
    answer = client.handle_response(query, response, ctx)
    return answer, request


def answer(client, query, response):
    """``response`` judged as the answer to ``query``, put in flight
    first."""
    client.make_request(query)
    return client.handle_response(query, response, FakeContext())


def audit(client, response, epoch=0):
    """``response`` judged as the answer to an audit of ``epoch``."""
    client.state.audit = epoch
    client.core.submit(None)
    return client.handle_response(None, response, FakeContext())


class TestEpochs:
    def test_epoch_length_minimum(self):
        with pytest.raises(ValueError):
            Protocol3Server(epoch_length=2)

    def test_server_reports_epoch(self, rig):
        state, server, _clients = rig
        response = server.handle_request("u0", Request(query=ReadQuery(b"file")), state, 65)
        assert response.extras["epoch"] == 65 // EPOCH

    def test_client_tracks_epoch(self, rig):
        state, server, clients = rig
        client = clients["u0"]
        for _ in range(5):
            client.on_round(FakeContext())  # advance local clock
        roundtrip(state, server, client, ReadQuery(b"file"), 5)
        assert client.state.epoch == 0

    def test_deposit_on_second_op_of_new_epoch(self, rig):
        state, server, clients = rig
        client = clients["u0"]
        clock_ctx = FakeContext()
        for r in range(1, EPOCH + 6):
            client.on_round(clock_ctx)
        # two ops in epoch 0 would normally precede; jump straight in:
        roundtrip(state, server, client, ReadQuery(b"file"), 4)
        # first op in epoch 1: triggers the backup
        sigma_end_epoch0 = client.sigma
        last_end_epoch0 = client.last
        _answer, _request = roundtrip(state, server, client, ReadQuery(b"file"), EPOCH + 2)
        assert client.state.owed is not None
        # sigma was reset at the boundary, then accumulated exactly the
        # one transition of the new epoch: old_tag ^ new_tag.
        assert client.sigma == last_end_epoch0 ^ client.last
        # second op in epoch 1 carries the deposit
        request = client.make_request(ReadQuery(b"file"))
        deposit = request.extras["deposit"]
        assert isinstance(deposit, EpochDeposit)
        assert deposit.epoch == 0
        assert deposit.sigma == sigma_end_epoch0
        assert deposit.last == last_end_epoch0
        assert client.state.owed is None

    def test_server_stores_deposits(self, rig, keys):
        state, server, clients = rig
        client = clients["u0"]
        deposit = EpochDeposit(
            user_id="u0", epoch=0, sigma=Digest.zero(), last=Digest.zero(),
            signature=keys.signers["u0"].sign(
                EpochDeposit(user_id="u0", epoch=0, sigma=Digest.zero(),
                             last=Digest.zero(), signature=None).digest()),
        )
        request = Request(query=ReadQuery(b"file"), extras={"deposit": deposit})
        server.handle_request("u0", request, state, 40)
        assert state.meta["p3.deposits"][0]["u0"] is deposit

    def test_epoch_regression_detected(self, rig):
        state, server, clients = rig
        client = clients["u1"]
        clock = FakeContext()
        for _ in range(EPOCH * 2 + 10):
            client.on_round(clock)
        roundtrip(state, server, client, ReadQuery(b"file"), EPOCH * 2 + 2)
        response = server.handle_request("u1", Request(query=ReadQuery(b"file")), state, EPOCH * 2 + 4)
        lying = Response(result=response.result, extras={**response.extras, "epoch": 0})
        with pytest.raises(DeviationDetected, match="implausible|backwards"):
            answer(client, ReadQuery(b"file"), lying)

    def test_implausible_epoch_detected(self, rig):
        state, server, clients = rig
        client = clients["u2"]
        for _ in range(4):
            client.on_round(FakeContext())
        response = server.handle_request("u2", Request(query=ReadQuery(b"file")), state, 4)
        lying = Response(result=response.result, extras={**response.extras, "epoch": 7})
        with pytest.raises(DeviationDetected, match="implausible"):
            answer(client, ReadQuery(b"file"), lying)

    def test_missing_epoch_field_detected(self, rig):
        state, server, clients = rig
        response = server.handle_request("u0", Request(query=ReadQuery(b"file")), state, 4)
        extras = {k: v for k, v in response.extras.items() if k != "epoch"}
        with pytest.raises(DeviationDetected, match="epoch"):
            answer(clients["u0"], ReadQuery(b"file"),
                   Response(result=response.result, extras=extras))


class TestAuditing:
    def test_auditor_rotation(self, rig):
        _state, _server, clients = rig
        client = clients["u0"]
        assert client.auditor_of(0) == "u0"
        assert client.auditor_of(1) == "u1"
        assert client.auditor_of(2) == "u2"
        assert client.auditor_of(3) == "u0"

    def test_schedule_follows_rotation(self, rig):
        """Past epoch 4, each user fetches the oldest unaudited epoch
        ``auditor_of`` assigns it, and no other."""
        _state, _server, clients = rig
        for client in clients.values():
            client.state.epoch = 5
            ctx = FakeContext()
            client.on_round(ctx)
            assert client.auditor_of(client.state.audit) == client.user_id
            assert client.state.audit == USERS.index(client.user_id)
            assert len(ctx.internal_requests) == 1

    def test_refused_audit_detected(self, rig):
        """A refused audit fetch is a verdict: the deposits it withholds
        are what detects a fork within two epochs."""
        _state, _server, clients = rig
        with pytest.raises(DeviationDetected, match="epoch 0 audit refused"):
            audit(clients["u0"], ErrorReply(reason="busy"))

    def test_fetch_returns_deposits(self, rig):
        state, server, _clients = rig
        response = server.handle_request(
            "u0", Request(query=None, extras={"fetch_epochs": [0, 1]}), state, 70)
        assert response.extras["deposits"] == {0: {}, 1: {}}

    def test_missing_deposit_detected(self, rig):
        _state, _server, clients = rig
        client = clients["u0"]
        empty = Response(result=None, extras={"epoch": 2, "deposits": {0: {}}})
        with pytest.raises(DeviationDetected, match="no deposit"):
            audit(client, empty)

    def test_forged_deposit_signature_detected(self, rig, keys):
        _state, _server, clients = rig
        client = clients["u0"]
        deposits = {}
        for u in USERS:
            template = EpochDeposit(user_id=u, epoch=0, sigma=Digest.zero(),
                                    last=Digest.zero(), signature=None)
            deposits[u] = EpochDeposit(
                user_id=u, epoch=0, sigma=template.sigma, last=template.last,
                signature=keys.signers[u].sign(template.digest()))
        # corrupt one signature (server-forged bytes)
        good = deposits["u1"]
        deposits["u1"] = EpochDeposit(
            user_id="u1", epoch=0, sigma=good.sigma, last=good.last,
            signature=type(good.signature)(signer_id="u1", digest=good.signature.digest,
                                           raw=bytes(len(good.signature.raw))))
        response = Response(result=None, extras={"epoch": 2, "deposits": {0: deposits}})
        with pytest.raises(DeviationDetected, match="forged"):
            audit(client, response)

    def test_mislabelled_deposit_detected(self, rig, keys):
        _state, _server, clients = rig
        client = clients["u0"]
        deposits = {}
        for u in USERS:
            template = EpochDeposit(user_id=u, epoch=1, sigma=Digest.zero(),
                                    last=Digest.zero(), signature=None)
            deposits[u] = EpochDeposit(
                user_id=u, epoch=1, sigma=template.sigma, last=template.last,
                signature=keys.signers[u].sign(template.digest()))
        # epoch-1 deposits presented for an epoch-0 audit: replay across epochs
        response = Response(result=None, extras={"epoch": 2, "deposits": {0: deposits}})
        with pytest.raises(DeviationDetected, match="mislabelled"):
            audit(client, response)


class TestSimulations:
    def test_honest_run_clean(self):
        workload = epoch_workload(n_users=3, epoch_length=EPOCH, epochs=6, seed=1)
        report = run_scenario("protocol3", workload, epoch_length=EPOCH, seed=1)
        assert not report.detected
        assert sum(report.operations_completed.values()) == workload.total_operations()

    def test_honest_run_clean_under_drifting_clocks(self):
        workload = epoch_workload(n_users=3, epoch_length=EPOCH, epochs=5, seed=2)
        report = run_scenario("protocol3", workload, epoch_length=EPOCH, seed=2, p=2)
        assert not report.detected

    def test_fork_detected_within_two_epochs(self):
        workload = epoch_workload(n_users=3, epoch_length=EPOCH, epochs=9, seed=3)
        attack = ForkAttack(victims=["user2"], fork_round=int(EPOCH * 2.5))
        report = run_scenario("protocol3", workload, attack=attack, epoch_length=EPOCH, seed=3)
        assert report.detected
        assert not report.false_alarm
        # Theorem 4.3: within two epochs of the fault.
        assert report.detection_round is not None
        assert report.detection_round - report.first_deviation_round <= 2 * EPOCH + EPOCH // 2

    def test_fork_detected_when_audits_refused(self):
        """A forking server that refuses every audit fetch is still
        caught within two epochs."""
        class RefuseAudits(ForkAttack):
            def mutate_response(self, user_id, request, response, state, round_no):
                if request.query is None:
                    return ErrorReply(reason="busy")
                return response

        workload = epoch_workload(n_users=3, epoch_length=EPOCH, epochs=9, seed=3)
        attack = RefuseAudits(victims=["user2"], fork_round=int(EPOCH * 2.5))
        report = run_scenario("protocol3", workload, attack=attack, epoch_length=EPOCH, seed=3)
        assert report.detected
        assert any("audit refused" in alarm.reason for alarm in report.alarms.values())
        assert report.detection_round - report.first_deviation_round <= 2 * EPOCH + EPOCH // 2

    def test_stale_replay_detected(self):
        workload = epoch_workload(n_users=3, epoch_length=EPOCH, epochs=9, seed=4)
        attack = StaleRootReplayAttack(victim="user1", freeze_round=int(EPOCH * 2.2))
        report = run_scenario("protocol3", workload, attack=attack, epoch_length=EPOCH, seed=4)
        assert report.detected
        assert not report.false_alarm

    def test_no_broadcasts_used(self):
        workload = epoch_workload(n_users=4, epoch_length=EPOCH, epochs=4, seed=5)
        report = run_scenario("protocol3", workload, epoch_length=EPOCH, seed=5)
        assert report.broadcasts_sent == 0

    def test_constant_local_state(self, keys):
        client = Protocol3Client("u0", USERS, EPOCH, Digest.zero(),
                                 keys.signers["u0"], keys.verifier)
        assert client.state_size() < 10


class TestHeavyClockDrift:
    def test_honest_run_clean_at_p3(self):
        """p = 3 partial synchrony: local clocks run up to 3x slow; the
        epoch plausibility window must still admit every honest
        announcement."""
        workload = epoch_workload(n_users=3, epoch_length=EPOCH, epochs=5, seed=9)
        report = run_scenario("protocol3", workload, epoch_length=EPOCH, seed=9, p=3)
        assert not report.detected, report.alarms
        assert sum(report.operations_completed.values()) == workload.total_operations()
