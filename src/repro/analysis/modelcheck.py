"""Exhaustive small-model checking of Protocol II (Theorem 4.2).

Benchmarks sample the adversary space; this module *enumerates* it.
Within a bounded model -- n users, m operations -- the server's entire
freedom under Protocol II is:

* which previously created state to serve each operation from (the VO
  binds everything else: the client recomputes roots itself, so the
  server cannot invent transitions, only replay/fork real ones);
* which owner ``j`` to claim for the served state (the one field the VO
  does not bind).

We enumerate every combination of (operating-user sequence, serve-state
picks, claimed owners) and check, for each behaviour:

* ground truth: the behaviour is *honest* iff every operation was
  served from the current tip with the true owner -- anything else
  produces a run no serial execution matches;
* the protocol's verdict: immediate rejection (the per-op counter /
  initial-owner checks) or the end-of-run sync predicate.

The theorem, in miniature: honest behaviours are always accepted, and
every deviating behaviour is rejected by the end.  Exhaustiveness is
what the randomized campaigns cannot give.

The clients in the model are not a re-derivation: each user is the
:class:`~repro.protocols.protocol2.XorRegisters` (Protocol I:
:class:`~repro.protocols.protocol1.SignedRootChain`) object the
simulator and TCP clients run, and the closing verdict is the same
``sync_check`` / ``count_sync_check`` a deployment calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.crypto.hashing import Digest, hash_bytes
from repro.crypto.signatures import Verifier
from repro.protocols.base import DeviationDetected
from repro.protocols.protocol1 import SignedRootChain, count_sync_check
from repro.protocols.protocol2 import XorRegisters, sync_check


@dataclass(frozen=True)
class _State:
    """One database state in the model: root, counter, true owner."""

    root: Digest
    ctr: int
    owner: str


@dataclass(frozen=True)
class BehaviourResult:
    """Outcome of one enumerated server behaviour."""

    users: tuple[str, ...]
    picks: tuple[int, ...]
    claimed_owners: tuple[str, ...]
    honest: bool
    rejected_immediately: bool
    sync_passes: bool

    @property
    def accepted(self) -> bool:
        return not self.rejected_immediately and self.sync_passes


def _fresh_root(parent: _State, op_index: int) -> Digest:
    """A deterministic distinct root for the state an operation creates."""
    return hash_bytes(parent.root.value + bytes([op_index]))


def _run(user_sequence, picks, claimed_owners, advance, sync) -> BehaviourResult:
    """Serve each operation from the picked state with the claimed
    owner (``None``: the protocol has no owner field to lie about) and
    hand it to ``advance(user, served, claimed, new_state)`` -- the
    deployed clients' own per-response step; close with ``sync(initial)``,
    their own predicate.  Ground truth is kept alongside."""
    initial = _State(root=hash_bytes(b"genesis"), ctr=0, owner="")
    states: list[_State] = [initial]
    honest = True
    rejected = False
    for op_index, (user, pick) in enumerate(zip(user_sequence, picks)):
        served = states[pick]
        claimed = claimed_owners[op_index] if claimed_owners else served.owner
        if pick != len(states) - 1 or claimed != served.owner:
            honest = False
        new_state = _State(root=_fresh_root(served, op_index),
                           ctr=served.ctr + 1, owner=user)
        try:
            advance(user, served, claimed, new_state)
        except DeviationDetected:
            rejected = True
            break
        states.append(new_state)
    return BehaviourResult(
        users=user_sequence,
        picks=picks,
        claimed_owners=claimed_owners,
        honest=honest,
        rejected_immediately=rejected,
        sync_passes=not rejected and sync(initial),
    )


def run_behaviour(
    user_sequence: tuple[str, ...],
    picks: tuple[int, ...],
    claimed_owners: tuple[str, ...],
    all_users: tuple[str, ...],
) -> BehaviourResult:
    """Execute one fully specified server behaviour against Protocol II
    clients and return ground truth plus the protocol verdict.

    The clients are the deployed :class:`XorRegisters`, entered at
    :meth:`~XorRegisters.advance` -- the step minus VO replay, since the
    model has roots and no tree -- and the verdict at the end is the
    deployed :func:`sync_check`."""
    registers = {user: XorRegisters(user) for user in all_users}
    return _run(
        user_sequence, picks, claimed_owners,
        lambda user, served, claimed, new_state: registers[user].advance(
            served.ctr, claimed, served.root, new_state.root),
        lambda initial: sync_check(initial.root, {
            user: state.snapshot() for user, state in registers.items()}))


@dataclass(frozen=True)
class ModelCheckReport:
    """Aggregate verdict over the exhaustive behaviour space."""

    behaviours: int
    honest_accepted: int
    honest_rejected: int        # completeness violations (must be 0)
    deviating_rejected: int
    deviating_accepted: int     # soundness violations (must be 0)
    counterexamples: tuple[BehaviourResult, ...]

    @property
    def theorem_holds(self) -> bool:
        return self.honest_rejected == 0 and self.deviating_accepted == 0


def _report(results, max_counterexamples: int) -> ModelCheckReport:
    """Tally behaviours against ground truth; a counterexample is an
    honest behaviour rejected or a deviating one accepted."""
    tally = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
    counterexamples: list[BehaviourResult] = []
    for result in results:
        tally[result.honest, result.accepted] += 1
        if result.honest != result.accepted and len(counterexamples) < max_counterexamples:
            counterexamples.append(result)
    return ModelCheckReport(
        behaviours=sum(tally.values()),
        honest_accepted=tally[True, True],
        honest_rejected=tally[True, False],
        deviating_rejected=tally[False, False],
        deviating_accepted=tally[False, True],
        counterexamples=tuple(counterexamples),
    )


def _pick_sequences(n_ops: int):
    """Every way to serve op i from one of the i + 1 states so far."""
    return product(*(range(i + 1) for i in range(n_ops)))


def model_check(
    n_users: int = 2,
    n_ops: int = 4,
    enumerate_owner_lies: bool = True,
    max_counterexamples: int = 5,
) -> ModelCheckReport:
    """Enumerate every server behaviour in the bounded model."""
    users = tuple(f"u{i}" for i in range(n_users))

    def results():
        for user_sequence in product(users, repeat=n_ops):
            for picks in _pick_sequences(n_ops):
                if enumerate_owner_lies:
                    owner_space = product(users + ("",), repeat=n_ops)
                else:
                    owner_space = [tuple(_true_owners(user_sequence, picks))]
                for owners in owner_space:
                    yield run_behaviour(user_sequence, picks, owners, users)

    return _report(results(), max_counterexamples)


def _true_owners(user_sequence: tuple[str, ...], picks: tuple[int, ...]) -> list[str]:
    """The honest owner claims for a given pick sequence."""
    owners_of_states = [""]
    claims = []
    for user, pick in zip(user_sequence, picks):
        claims.append(owners_of_states[pick])
        owners_of_states.append(user)
    return claims


# ---------------------------------------------------------------------------
# Protocol I (Theorem 4.1) in the same bounded model
# ---------------------------------------------------------------------------


def run_behaviour_protocol1(
    user_sequence: tuple[str, ...],
    picks: tuple[int, ...],
    all_users: tuple[str, ...],
) -> BehaviourResult:
    """Protocol I against one fully specified server behaviour.

    Signatures bind states completely (the client recomputes the root
    from the VO and verifies the signature over exactly that root and
    counter) -- that is this model's stated assumption, so the server's
    only freedom is *which* signed state to serve each operation from.
    What is left of the deployed :class:`SignedRootChain` step is its
    counter half, :meth:`~SignedRootChain.advance`; the verdict at the
    end is the deployed :func:`count_sync_check`."""
    chains = {user: SignedRootChain(user, Verifier()) for user in all_users}
    return _run(
        user_sequence, picks, (),
        lambda user, served, claimed, new_state: chains[user].advance(served.ctr),
        lambda initial: count_sync_check({
            user: state.snapshot() for user, state in chains.items()}))


def model_check_protocol1(
    n_users: int = 2,
    n_ops: int = 5,
    max_counterexamples: int = 5,
) -> ModelCheckReport:
    """Enumerate every Protocol I server behaviour in the bounded model."""
    users = tuple(f"u{i}" for i in range(n_users))
    return _report(
        (run_behaviour_protocol1(user_sequence, picks, users)
         for user_sequence in product(users, repeat=n_ops)
         for picks in _pick_sequences(n_ops)),
        max_counterexamples)
