"""Protocol III on the deployment's in-process path.

``ServerCore`` runs ``Protocol3Server`` unmodified, its ``clock=`` giving
the round.  Each of three users is a ``Protocol3Client``: it schedules
its audits and signs its deposits, and its session core -- an
``EpochRegisters`` state -- is driven by an ``InlineSession``, so every
answer meets ``SessionCore.receive`` as on a TCP session.  A fork is
caught within two epochs of the judge's onset (Theorem 4.3), and the
detection's evidence bundle re-judges offline.
"""

import random

import pytest

from repro.core.scenarios import make_keys
from repro.mtree.database import ReadQuery, WriteQuery
from repro.net import evidence
from repro.net.core import ServerCore
from repro.net.session import InlineSession, IntegrityError
from repro.protocols.protocol3 import Protocol3Client, Protocol3Server
from repro.server.attacks import ForkAttack
from repro.wire import encode

USERS = ["u0", "u1", "u2"]
EPOCH = 8


@pytest.fixture(scope="module")
def keys():
    return make_keys(USERS, seed=55)


class _Agent:
    """What a client asks of its agent between rounds: nothing is in
    flight, and an internal request is in the session's window already."""

    def has_pending(self):
        return False

    def issue_internal(self, request):
        pass


class _RecordingCore(ServerCore):
    """A server core on the round ``now[0]`` that keeps every answer by
    (round, user)."""

    def __init__(self, now, **options):
        super().__init__(clock=lambda: now[0], **options)
        self.now, self.answers = now, {}

    def apply_batch(self, batch):
        responses = super().apply_batch(batch)
        for (user, _request), response in zip(batch, responses):
            self.answers[self.now[0], user] = response
        return responses


def drive(keys, attack=None, rounds=200):
    """Three users, one operation (or audit) each per round, until the
    first detection; returns (audits, (round, user, error) or None,
    server)."""
    now = [0]
    server = _RecordingCore(now, protocol=Protocol3Server(EPOCH), order=4,
                            attack=attack)
    root = server.state.database.root_digest()
    clients = {user: Protocol3Client(user, USERS, EPOCH, root, keys.signers[user],
                                     keys.verifier, order=4)
               for user in USERS}
    sessions = {user: InlineSession(server, client.core)
                for user, client in clients.items()}
    rng, agent, audits = random.Random(7), _Agent(), 0
    for now[0] in range(rounds):
        for user in USERS:
            client = clients[user]
            client.on_round(agent)
            if client.state.audit is not None:
                audits += 1
            else:
                key = b"k%d" % rng.randrange(6)
                client.make_request(WriteQuery(key, b"%d" % now[0])
                                    if rng.random() < 0.5 else ReadQuery(key))
            try:
                sessions[user].window([])
            except IntegrityError as error:
                return audits, (now[0], user, error), server
    return audits, None, server


def test_honest_run_raises_no_alarm(keys):
    audits, alarm, server = drive(keys)
    assert alarm is None
    assert audits >= 20
    assert server.judge is None


@pytest.mark.parametrize("fork_round", [20, 50, 77])
def test_fork_detected_within_two_epochs(keys, fork_round):
    _audits, alarm, server = drive(keys, ForkAttack(["u2"], fork_round))
    onset = server.judge.first_round
    assert onset is not None and onset >= fork_round
    assert alarm is not None, "the fork went undetected"
    alarm_round, _user, error = alarm
    assert alarm_round // EPOCH - onset // EPOCH <= 2
    assert "audit" in str(error)


def test_detection_bundle_rejudges_offline(keys):
    _audits, (alarm_round, user, error), _server = drive(
        keys, ForkAttack(["u2"], 50))
    bundle = error.bundle
    assert bundle["protocol"] == "III"
    assert evidence.reverify(bundle) == (True, str(error))
    # The answer an honest server gave the same request in the same round.
    _none, _alarm, honest = drive(keys, rounds=alarm_round + 1)
    swapped = dict(bundle, response_frame=encode(honest.answers[alarm_round, user]))
    genuine, why = evidence.reverify(swapped)
    assert not genuine, why
    with pytest.raises(evidence.EvidenceError, match="protocol 'IV'"):
        evidence.reverify(dict(bundle, protocol="IV"))
