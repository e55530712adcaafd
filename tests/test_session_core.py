"""The session core without a socket.

``InlineSession`` drives a :class:`~repro.net.session.SessionCore`
against a :class:`~repro.net.core.ServerCore` in process: each window
goes to ``apply_batch`` as the one batch the event loop would drain
from a full window, and every answer goes back through ``receive``.
Two cases that otherwise need TCP are covered this way, and a refusal
reaching the simulator's Protocol I/II users is a liveness event there
too.
"""

import pytest

from repro import obs
from repro.mtree.database import RangeQuery, ReadQuery, VerifiedDatabase, WriteQuery
from repro.net.core import ServerCore
from repro.net.session import SessionCore
from repro.protocols.base import ServerState
from repro.protocols.protocol1 import (
    Protocol1Server, SignedRootChain, bootstrap_server_state)
from repro.protocols.protocol2 import XorRegisters, initial_state_tag, sync_check
from repro.simulation.workload import Intent, steady_workload
from repro.wire import encode

from helpers import run_scenario


class InlineSession:
    """A session core and a server core in one process: no socket."""

    def __init__(self, server: ServerCore, core: SessionCore) -> None:
        self.server, self.core = server, core
        self.followups = 0

    def window(self, queries, resend: bool = False) -> list:
        """One window: its requests as one batch, answered in order.
        ``resend`` loses the answers and sends the window again, verbatim."""
        batch = [(self.core.user_id, self.core.submit(query)) for query in queries]
        responses = self.server.apply_batch(batch)
        if resend:
            responses = self.server.apply_batch(batch)
        answers = []
        for response in responses:
            answer, followup = self.core.receive(response, encode(response))
            if followup is not None:
                self.server.apply_followup(self.core.user_id, followup)
                self.followups += 1
            answers.append(answer)
        return answers


WRITES = [WriteQuery(b"k%d" % i, b"v%d" % i) for i in range(4)]
READS = [ReadQuery(b"k%d" % i) for i in range(4)]


def test_protocol2_window_resent_is_answered_from_dedup():
    server = ServerCore(order=4)
    genesis = server.state.database.root_digest()
    core = SessionCore("alice", XorRegisters("alice", 4), 4, protocol="II",
                       nonce="n0", initial_tag=initial_state_tag(genesis))
    session = InlineSession(server, core)
    obs.enable()
    assert session.window(WRITES, resend=True) == [None] * 4
    assert obs.registry.counter("server.dedup_hits").total() == 4
    assert server.state.ctr == 4                  # nothing executed twice
    assert session.window(READS) == [b"v0", b"v1", b"v2", b"v3"]
    assert server.state.ctr == core.operations == 8 and not core.inflight
    assert sync_check(genesis, {"alice": {"sigma": core.state.sigma,
                                          "last": core.state.last}})


def test_protocol1_window_is_one_signing_run_with_one_followup(shared_keys):
    state = ServerState(database=VerifiedDatabase(order=4))
    bootstrap_server_state(state, shared_keys.signers["bob"])
    server = ServerCore(protocol=Protocol1Server(), state=state)
    core = SessionCore("alice", SignedRootChain("alice", shared_keys.verifier, 4),
                       4, protocol="I", nonce="n0",
                       signer=shared_keys.signers["alice"])
    session = InlineSession(server, core)
    assert session.window(WRITES) == [None] * 4
    assert session.followups == 1 and not server.blocked_for("alice")
    assert session.window(READS) == [b"v0", b"v1", b"v2", b"v3"]
    assert session.followups == 2 and core.state.lctr == server.state.ctr == 8


@pytest.mark.parametrize("protocol", ["protocol1", "protocol2"])
def test_a_refusal_reaching_the_simulator_is_no_alarm(protocol):
    """An empty range no state can execute: the server refuses it, the
    user's transaction ends uncompleted, and the run goes on verified."""
    workload = steady_workload(3, 8, seed=1)
    workload.schedules["user0"].insert(
        0, Intent(round=1, query=RangeQuery(b"z", b"a")))
    report = run_scenario(protocol, workload, k=4, seed=1)
    assert not report.detected
    assert report.operations_completed == {"user0": 8, "user1": 8, "user2": 8}
    refusals = [timed.action for timed in report.run.actions
                if timed.action.kind == "refusal"]
    assert [(action.user_id, action.description) for action in refusals] \
        == [("user0", "RangeQuery:z:a")]
    assert "empty range" in refusals[0].answer_digest
