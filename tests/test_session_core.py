"""The session core without a socket.

:class:`~repro.net.session.InlineSession` drives a
:class:`~repro.net.session.SessionCore` against a
:class:`~repro.net.core.ServerCore` in process: each window goes to
``apply_batch`` as the one batch the event loop would drain from a full
window, and every answer goes back through ``receive``.  Two cases
that otherwise need TCP are covered this way, and a refusal reaching
the simulator's Protocol I/II users is a liveness event there too.
Each request's ``ack`` is the oldest operation in flight, and every
answer the session may still ask for stays in the server's table.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.mtree.database import RangeQuery, ReadQuery, VerifiedDatabase, WriteQuery
from repro.net.core import ServerCore
from repro.net.session import InlineSession, ServerBusyError, SessionCore
from repro.protocols.base import ErrorReply, ServerState
from repro.protocols.protocol1 import (
    Protocol1Server, SignedRootChain, bootstrap_server_state)
from repro.protocols.protocol2 import XorRegisters, initial_state_tag, sync_check
from repro.simulation.workload import Intent, steady_workload

from helpers import run_scenario


WRITES = [WriteQuery(b"k%d" % i, b"v%d" % i) for i in range(4)]
READS = [ReadQuery(b"k%d" % i) for i in range(4)]


def test_protocol2_window_resent_is_answered_from_dedup():
    """A window the server executed but whose answers were lost (the
    client died) is answered from the dedup table on resume."""
    server = ServerCore(order=4)
    genesis = server.state.database.root_digest()
    core = SessionCore("alice", XorRegisters("alice", 4), 4, protocol="II",
                       nonce="n0", initial_tag=initial_state_tag(genesis))
    session = InlineSession(server, core)
    server.apply_batch([("alice", core.submit(query)) for query in WRITES])
    assert session.resume() == [None] * 4
    assert server.state.ctr == 4                  # nothing executed twice
    assert session.window(READS) == [b"v0", b"v1", b"v2", b"v3"]
    assert server.state.ctr == core.operations == 8 and not core.inflight
    session.close()
    # the last window stays until the session's next request acks it
    assert [rid for rid, _answer in server.dedup.export()["alice"]] \
        == [core.rid(seq) for seq in range(4, 8)]
    assert session.execute(READS[0]) == b"v0"
    assert [rid for rid, _answer in server.dedup.export()["alice"]] \
        == [core.rid(8)]
    assert sync_check(genesis, {"alice": {"sigma": core.state.sigma,
                                          "last": core.state.last}})


def test_protocol2_resume_drops_what_never_reached_the_server():
    """A request the dedup table does not remember never executed: it
    leaves the window unanswered, and is never executed late."""
    server = ServerCore(order=4)
    genesis = server.state.database.root_digest()
    core = SessionCore("alice", XorRegisters("alice", 4), 4, protocol="II",
                       nonce="n0", initial_tag=initial_state_tag(genesis))
    recorded = []
    session = InlineSession(server, core, recorded.append)
    server.apply_batch([("alice", core.submit(WRITES[0]))])
    core.submit(WRITES[1])
    assert session.resume() == [None]
    assert recorded == [[]] and not core.inflight
    assert server.state.ctr == core.operations == 1
    assert session.execute(READS[1]) is None
    assert sync_check(genesis, {"alice": {"sigma": core.state.sigma,
                                          "last": core.state.last}})


def test_protocol1_window_is_one_signing_run_with_one_followup(shared_keys):
    followups = []

    class Server(ServerCore):
        def apply_followup(self, user_id, message):
            followups.append(user_id)
            super().apply_followup(user_id, message)

    state = ServerState(database=VerifiedDatabase(order=4))
    bootstrap_server_state(state, shared_keys.signers["bob"])
    server = Server(protocol=Protocol1Server(), state=state)
    core = SessionCore("alice", SignedRootChain("alice", shared_keys.verifier, 4),
                       4, protocol="I", nonce="n0",
                       signer=shared_keys.signers["alice"])
    session = InlineSession(server, core)
    assert session.window(WRITES) == [None] * 4
    assert followups == ["alice"] and not server.blocked_for("alice")
    assert session.window(READS) == [b"v0", b"v1", b"v2", b"v3"]
    assert len(followups) == 2 and core.state.lctr == server.state.ctr == 8


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


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(["submit", "refused", "receive", "restore"]),
                max_size=40))
def test_an_ack_is_the_oldest_operation_in_flight(steps):
    """Across submits, answers, refusals leaving the window and a
    restore, a request's ``ack`` is the seq of the oldest operation in
    flight (its own when the window is empty), and the server's table
    still answers every executed operation in flight."""
    server = ServerCore(order=4)

    def session():
        return SessionCore("alice", XorRegisters("alice", 4), 4,
                           protocol="II", nonce="n0")

    def seq(request):
        return int(request.extras["rid"].rsplit(":", 1)[1])

    core = session()
    answers = deque()  # the server's answers, aligned with the window
    for n, step in enumerate(steps):
        if step in ("submit", "refused") and len(core.inflight) < 8:
            oldest = seq(core.inflight[0][1]) if core.inflight else core.seq
            query = (WriteQuery(b"k%d" % n, b"v") if step == "submit"
                     else RangeQuery(b"z", b"a"))  # no state executes it
            request = core.submit(query)
            assert request.extras["ack"] == oldest <= seq(request)
            answers.append(server.apply_request("alice", request))
        elif step == "receive" and core.inflight:
            answer = answers.popleft()
            if isinstance(answer, ErrorReply):
                with pytest.raises(ServerBusyError):
                    core.receive(answer)
            else:
                core.receive(answer)
        elif step == "restore":
            resumed = session()
            resumed.restore(core.snapshot(),
                            [request for _query, request in core.inflight])
            core = resumed
        for (_query, request), answer in zip(core.inflight, answers):
            if not isinstance(answer, ErrorReply):
                assert server.dedup.lookup("alice", request.extras["rid"]) \
                    is answer
    assert core.operations == server.state.ctr - len(
        [a for a in answers if not isinstance(a, ErrorReply)])
