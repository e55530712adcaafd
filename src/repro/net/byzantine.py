"""Byzantine mode for the TCP deployment: wire-level attack injection.

The attack gallery in :mod:`repro.server.attacks` realises the paper's
malicious-server moves -- forks, dropped commits, tampered answers,
counter replays, forged signatures -- but only ever ran inside the
in-process simulator.  This module adapts those exact strategies to the
request/response wire path of
:class:`~repro.net.core.ServerCore`, so a real client fleet
over sockets can be attacked deterministically and the k-bounded
deviation-detection guarantees validated end to end.

The adapter keeps the simulator's contract intact: an attack sees a
``server`` exposing ``states`` (a dict of named
:class:`~repro.protocols.base.ServerState` branches, ``"main"`` being
the honest history), ``protocol``, and is consulted per message for
state selection and last-minute response rewriting.  On the wire the
"round number" is the server's message tick -- the index of the message
in the serial execution order -- which is deterministic for a given
workload because retried requests are answered from the dedup table
without re-executing.

Durability interaction: a Byzantine durable server routes WAL *replay*
through the same attack hooks, so after a crash the forked per-victim
branches are reconstructed bit-for-bit (execution and attack triggers
both being deterministic in the tick index).  Automatic snapshots are
suppressed in Byzantine mode -- a snapshot persists only the main
branch, and truncating the WAL underneath a fork would silently erase
the very deviation the harness is injecting.
"""

from __future__ import annotations

from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.protocols.base import Followup, Request, Response, ServerState
from repro.server.attacks import Attack

_ATTACKS_INJECTED = _registry.counter(
    "net.attacks_injected",
    "deviating responses a Byzantine server put on the wire")


class WireAttack:
    """Adapts a simulator :class:`~repro.server.attacks.Attack` strategy
    to the TCP server's wire path.

    Wraps any gallery attack (including :class:`CompositeAttack`) and
    tracks ground truth for benchmarks: :attr:`first_deviation_op` is
    the earliest server tick at which the wire actually carried a
    deviating response -- either a response served from a non-main
    branch (for committing protocols that is itself a differing-response
    action per Definition 2.1) or a mutated response object.
    """

    def __init__(self, attack: Attack) -> None:
        self.attack = attack
        self.injected = 0
        self._first_deviation_op: int | None = None

    @property
    def name(self) -> str:
        return self.attack.name

    @property
    def first_deviation_op(self) -> int | None:
        """Earliest tick a deviating response went out (ground truth)."""
        candidates = [
            op for op in (self._first_deviation_op,
                          self.attack.first_deviation_round)
            if op is not None
        ]
        return min(candidates) if candidates else None

    def _mark(self, round_no: int, user_id: str) -> None:
        if self._first_deviation_op is None:
            self._first_deviation_op = round_no
        self.injected += 1
        if _obs.enabled:
            _ATTACKS_INJECTED.inc(attack=self.name, user=user_id)

    # -- wire path hooks ---------------------------------------------------

    def route_state(self, server, user_id: str, round_no: int) -> ServerState:
        """The branch that would serve this user right now.

        Used by the server's blocking check (Protocol I): a forked
        victim must wait on *its own branch's* outstanding follow-up,
        not the main branch's.  May lazily fork, exactly as the
        simulator's per-request selection does.
        """
        return self.attack.select_state(user_id, round_no, server)

    def apply_request(self, server, user_id: str, request: Request,
                      round_no: int) -> Response:
        """Execute one request the way the malicious server would."""
        self.attack.on_round(server, round_no)
        state = self.attack.select_state(user_id, round_no, server)
        deviating = (state is not server.states["main"]
                     and server.protocol.responses_commit_state)
        response = server.protocol.handle_request(
            user_id, request, state, round_no=round_no)
        mutated = self.attack.mutate_response(
            user_id, request, response, state, round_no)
        if mutated is not response:
            deviating = True
        if deviating:
            self._mark(round_no, user_id)
        return mutated

    def apply_followup(self, server, user_id: str, message: Followup,
                       round_no: int) -> None:
        """Absorb a follow-up into the branch that serves its sender."""
        state = self.attack.select_state(user_id, round_no, server)
        server.protocol.handle_followup(
            user_id, message, state, round_no=round_no)


class WitnessCollusion:
    """Byzantine behaviour for one *witness* replica.

    Handed to :class:`~repro.net.replication.WitnessProtocol`, it turns
    that witness into a colluder on every attestation fetch:

    ``"fabricate"``
        answer with attestations over doctored deposits -- a valid
        witness signature wrapping a deposit whose root was flipped and
        whose primary signature is therefore invalid.  Without the
        primary's key this is the strongest equivocation a witness can
        mount, and its shape (valid outer, invalid inner signature) is
        exactly what lets the client name the *witness* as the deviant;
    ``"withhold"``
        deny holding any deposit (and report an empty head), starving
        the fetch -- indistinguishable from lag, so the client must
        treat it as noise and re-sample, never as evidence.

    ``served`` counts fetches the collusion actually answered
    dishonestly -- the benchmark's ground truth that a configured
    colluder was really exercised.  Deposit *storage* stays honest
    either way: colluders still bank the real lineage, modelling
    witnesses that misbehave only where it could pay off.
    """

    MODES = ("fabricate", "withhold")

    def __init__(self, mode: str = "fabricate") -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown collusion mode {mode!r}")
        self.mode = mode
        self.served = 0


def as_wire_attack(attack) -> "WireAttack | None":
    """Normalise ``None`` / a gallery ``Attack`` / a ``WireAttack``."""
    if attack is None or isinstance(attack, WireAttack):
        return attack
    if isinstance(attack, Attack):
        return WireAttack(attack)
    raise TypeError(f"not an attack strategy: {type(attack).__name__}")
