"""Shared test helpers: a fake client context and scenario shortcuts."""

from __future__ import annotations

from repro.core.scenarios import build_simulation
from repro.crypto.hashing import hash_leaf
from repro.mtree.forest import shard_key
from repro.mtree.proofs import LeafSnapshot
from repro.protocols.base import Followup, Request


class FakeContext:
    """Minimal ClientContext for protocol-client unit tests."""

    def __init__(self, round_no: int = 1, pending: bool = False) -> None:
        self._round = round_no
        self._pending = pending
        self.sent_to_server: list = []
        self.broadcasts: list = []
        self.internal_requests: list = []
        self.user_messages: list = []

    @property
    def round(self) -> int:
        return self._round

    def advance(self, rounds: int = 1) -> None:
        self._round += rounds

    def send_to_server(self, message) -> None:
        assert isinstance(message, (Followup, Request))
        self.sent_to_server.append(message)

    def broadcast(self, payload: dict) -> None:
        self.broadcasts.append(payload)

    def send_to_user(self, user_id: str, payload: dict) -> None:
        self.user_messages.append((user_id, payload))

    def has_pending(self) -> bool:
        return self._pending

    def issue_internal(self, request: Request) -> None:
        self.internal_requests.append(request)


def forest_of_one_root(shard_root):
    """The signed root of a forest of one whose shard tree has root
    ``shard_root``: its top tree is one leaf holding one entry,
    ``shard_key(0) -> shard_root``, which a client derives itself."""
    skey = shard_key(0)
    return LeafSnapshot(keys=(skey,), entry_digests=(
        hash_leaf(skey, shard_root.to_bytes()),)).digest()


def run_scenario(protocol, workload, attack=None, max_rounds=4000, **kwargs):
    """Build and execute a simulation; return the report."""
    simulation = build_simulation(protocol, workload, attack=attack, **kwargs)
    return simulation.execute(max_rounds=max_rounds)


def swap_state(server, state):
    """Make a running server serve from ``state`` (the stale-state fork:
    swapped on its loop, between two client operations); returns the
    state it served until now."""
    def swap(core):
        served, core.state = core.state, state
        return served
    return server.with_core(swap)
