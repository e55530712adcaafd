"""One server step: ``ServerCore`` executes every message, for the wire
and for the simulator, and fires the attack's ``on_round`` once each
time its round advances -- before the first message of that round,
request or follow-up."""

import pytest

from repro.core.scenarios import build_simulation
from repro.mtree.database import VerifiedDatabase
from repro.net import ServerCore, serve_in_thread
from repro.net.client import RemoteClientP1
from repro.protocols.base import ServerState
from repro.protocols.protocol1 import Protocol1Server, bootstrap_server_state
from repro.server.attacks import Attack
from repro.simulation.workload import steady_workload


class RoundRecorder(Attack):
    """Honest, but logs every ``on_round`` into a shared event list."""

    name = "round-recorder"

    def __init__(self, events: list) -> None:
        super().__init__()
        self.events = events

    def on_round(self, server, round_no: int) -> None:
        self.events.append(("on_round", round_no))


def _log_messages(protocol, events, monkeypatch) -> None:
    """Append ("request"|"followup", round) as the protocol executes."""
    handle_request, handle_followup = protocol.handle_request, protocol.handle_followup

    def request(user_id, message, state, round_no):
        events.append(("request", round_no))
        return handle_request(user_id, message, state, round_no)

    def followup(user_id, message, state, round_no):
        events.append(("followup", round_no))
        return handle_followup(user_id, message, state, round_no)

    monkeypatch.setattr(protocol, "handle_request", request)
    monkeypatch.setattr(protocol, "handle_followup", followup)


def test_on_the_wire_every_message_is_a_round(shared_keys, monkeypatch):
    events: list = []
    state = ServerState(database=VerifiedDatabase(order=4))
    protocol = Protocol1Server()
    protocol.initialize(state)
    bootstrap_server_state(state, shared_keys.signers["alice"])
    _log_messages(protocol, events, monkeypatch)
    server = serve_in_thread(order=4, protocol=protocol, state=state,
                             block_timeout=5.0, attack=RoundRecorder(events))
    try:
        host, port = server.address
        with RemoteClientP1(host, port, "alice", shared_keys.signers["alice"],
                            shared_keys.verifier, order=4) as alice:
            for i in range(3):
                alice.put(f"k{i}".encode(), b"v")
        assert server.quiesce(5.0)  # the last follow-up is written, not awaited
    finally:
        server.stop()
    expected = []
    for tick in range(1, 7):
        expected += [("on_round", tick),
                     ("request" if tick % 2 else "followup", tick)]
    assert events == expected


def test_under_a_simulation_once_per_round_with_traffic(monkeypatch):
    """Protocol I: follow-ups share rounds with requests.  ``on_round``
    fires once in every round the server executes anything, never in
    one it does not, and ahead of that round's follow-ups."""
    events: list = []
    workload = steady_workload(3, 6, spacing=2, keyspace=4, seed=5)
    simulation = build_simulation("protocol1", workload,
                                  attack=RoundRecorder(events), seed=5)
    _log_messages(simulation.server.core.protocol, events, monkeypatch)
    report = simulation.execute()
    assert not report.detected

    fired = [round_no for kind, round_no in events if kind == "on_round"]
    busy = {round_no for kind, round_no in events if kind != "on_round"}
    assert fired == sorted(busy)  # strictly increasing: once per round
    assert report.rounds_executed > len(fired)  # idle rounds fire nothing
    for index, (kind, round_no) in enumerate(events):
        if kind != "on_round":
            assert ("on_round", round_no) in events[:index]
    # the rule is exercised: some rounds open with a follow-up
    openers = [events[i + 1][0] for i, (kind, _) in enumerate(events)
               if kind == "on_round"]
    assert "followup" in openers and "request" in openers


def test_the_core_takes_only_gallery_attacks():
    with pytest.raises(TypeError, match="not an attack strategy"):
        ServerCore(attack=object())
