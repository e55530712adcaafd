"""Malicious-server strategies (the violations of paper Section 1).

Each attack realises one class of integrity/availability violation:

* :class:`ForkAttack` -- the partition attack of Figure 1 / Theorem
  3.1: after the fork round, one set of users is served from a cloned,
  frozen-then-divergent copy of the server state (multiple-user
  availability violation).
* :class:`DropCommitAttack` -- acknowledge a user's commit but hide it
  from everyone else (single-user availability violation): the
  committer is forked off onto a private branch.
* :class:`TamperValueAttack` -- return modified data, optionally with
  a re-forged verification object (single-user integrity violation).
* :class:`CounterReplayAttack` -- replay an old operation counter to
  the same user (the move Protocol II's step-4 check exists for).
* :class:`SignatureForgeAttack` -- hand back a fabricated state
  signature (Protocol I's unforgeability assumption under test).

Attacks see the protocol messages exactly as a real malicious server
would: they may clone whole server states (histories), choose which
state answers which user, and rewrite any field of a response.  They
do not say when they deviated: the one server step that runs them,
:class:`~repro.net.core.ServerCore`, judges every response against an
honest replay (:class:`~repro.net.core.DeviationJudge`).
"""

from __future__ import annotations



from repro.crypto.hashing import hash_leaf
from repro.crypto.signatures import Signature
from repro.mtree.bplus import route_index
from repro.mtree.database import QueryResult, ReadQuery
from repro.mtree.forest import ForestProof, shard_for_key, shard_key
from repro.mtree.proofs import (
    InternalSnapshot,
    LeafSnapshot,
    PathProof,
    implied_root_for_read,
)
from repro.protocols.base import Request, Response, ServerState


class Attack:
    """Base strategy: perfectly honest behaviour."""

    name = "honest"

    def on_round(self, server, round_no: int) -> None:
        """Called once each time the server's round advances, before the
        first message of that round executes."""

    def select_state(self, user_id: str, round_no: int, server) -> ServerState:
        """Which history this user is served from."""
        return server.states["main"]

    def mutate_response(
        self,
        user_id: str,
        request: Request,
        response: Response,
        state: ServerState,
        round_no: int,
    ) -> Response:
        """Last-minute rewriting of the outgoing response."""
        return response

    @staticmethod
    def _quiescent(server) -> bool:
        """Whether the main state can be forked cleanly right now.

        A smart adversary clones between transactions: cloning while a
        blocking protocol awaits a client follow-up would leave the
        clone waiting for a message that will never be routed to it,
        stalling the branch and exposing the attack as a trivial
        availability failure instead of a stealthy fork.
        """
        return not server.protocol.blocked(server.states["main"])


class HonestBehavior(Attack):
    """Explicit control condition for the attack gallery."""


class ForkAttack(Attack):
    """Serve ``victims`` from a clone frozen at ``fork_round`` (Figure 1).

    Both branches keep evolving with their own users' operations; the
    branches' users simply never see each other again -- exactly the
    partition of Section 3.1.
    """

    name = "fork"

    def __init__(self, victims: list[str], fork_round: int) -> None:
        self.victims = set(victims)
        self.fork_round = fork_round

    def on_round(self, server, round_no: int) -> None:
        if round_no >= self.fork_round and "fork" not in server.states and self._quiescent(server):
            server.states["fork"] = server.states["main"].clone()

    def select_state(self, user_id: str, round_no: int, server) -> ServerState:
        # Lazy fork: under a blocking protocol the quiescent windows the
        # per-round hook sees can be scarce; a victim request being
        # served is itself such a window (the head-of-line check already
        # established the state is not awaiting a follow-up).
        if (
            "fork" not in server.states
            and round_no >= self.fork_round
            and user_id in self.victims
            and self._quiescent(server)
        ):
            server.states["fork"] = server.states["main"].clone()
        if "fork" in server.states and user_id in self.victims:
            return server.states["fork"]
        return server.states["main"]


class DropCommitAttack(Attack):
    """Acknowledge the victim's next update after ``drop_round`` but hide
    it from all other users.

    Implemented by forking the victim onto a private branch right
    before that update executes; the main branch never receives it.
    """

    name = "drop-commit"

    def __init__(self, victim: str, drop_round: int) -> None:
        self.victim = victim
        self.drop_round = drop_round
        self._branched = False

    def select_state(self, user_id: str, round_no: int, server) -> ServerState:
        if (
            user_id == self.victim
            and round_no >= self.drop_round
            and not self._branched
            and self._quiescent(server)
        ):
            server.states["victim"] = server.states["main"].clone()
            self._branched = True
        if self._branched and user_id == self.victim:
            return server.states["victim"]
        return server.states["main"]


class TamperValueAttack(Attack):
    """Corrupt the answer to the victim's reads from ``tamper_round`` on.

    With ``forge_proof=False`` the VO is the honest path, whose leaf
    commits the true value's entry digest, so the corrupted answer is
    caught instantly by that digest.  With ``forge_proof=True`` the
    server also rebuilds the read proof around the corrupted value --
    internally consistent, but the implied root digest no longer
    matches any signed/accumulated state.
    """

    name = "tamper-value"

    def __init__(self, victim: str, tamper_round: int, forge_proof: bool = False) -> None:
        self.victim = victim
        self.tamper_round = tamper_round
        self.forge_proof = forge_proof

    def mutate_response(self, user_id, request, response, state, round_no):
        if user_id != self.victim or round_no < self.tamper_round:
            return response
        if not isinstance(request.query, ReadQuery):
            return response
        if response.result.answer is None:
            return response
        corrupted = b"/* backdoored */ " + bytes(response.result.answer)
        proof = response.result.proof
        if self.forge_proof and isinstance(proof, ForestProof):
            # Two-level forgery: rebuild the shard proof around the
            # corrupted value, then -- where a top half is sent at all
            # (a forest of one's the client derives) -- the top proof
            # around the shard root the forged shard proof now implies.
            # Fully internally consistent: only the final top root
            # betrays it.
            key = request.query.key
            forged_inner = self._forge_read_proof(proof.inner, key, corrupted)
            forged_top = proof.top
            if forged_top is not None:
                shard_root = implied_root_for_read(forged_inner, key, corrupted)
                skey = shard_key(shard_for_key(key, state.database.shards))
                forged_top = self._forge_read_proof(
                    forged_top, skey, shard_root.to_bytes())
            proof = ForestProof(inner=forged_inner, top=forged_top)
        return Response(
            result=QueryResult(answer=corrupted, proof=proof),
            extras=response.extras,
        )

    @staticmethod
    def _forge_read_proof(proof: PathProof, key: bytes, value: bytes) -> PathProof:
        """Rebuild a path proof around ``value``, re-chaining the path
        digests so every internal link checks out -- the forgery is only
        exposed when the implied root meets the trusted one."""
        position = proof.leaf.keys.index(key)
        entry_digests = list(proof.leaf.entry_digests)
        entry_digests[position] = hash_leaf(key, value)
        forged_leaf = LeafSnapshot(keys=proof.leaf.keys,
                                   entry_digests=tuple(entry_digests))
        digest = forged_leaf.digest()
        forged_internals = []
        for snapshot in reversed(proof.internals):
            index = route_index(snapshot.keys, key)
            child_digests = list(snapshot.child_digests)
            child_digests[index] = digest
            patched = InternalSnapshot(keys=snapshot.keys,
                                       child_digests=tuple(child_digests))
            forged_internals.append(patched)
            digest = patched.digest()
        forged_internals.reverse()
        return PathProof(internals=tuple(forged_internals), leaf=forged_leaf)


class CounterReplayAttack(Attack):
    """Replay a previously used operation counter to the same victim.

    This is the precise move the per-user regression check (Protocol II
    step 4) exists to stop: the same user validating two transitions
    out of the same counter value would break Lemma 4.1's in-degree
    argument.
    """

    name = "counter-replay"

    def __init__(self, victim: str, replay_round: int) -> None:
        self.victim = victim
        self.replay_round = replay_round
        self._seen_ctr: int | None = None

    def mutate_response(self, user_id, request, response, state, round_no):
        if user_id != self.victim or "ctr" not in response.extras:
            return response
        if round_no < self.replay_round:
            self._seen_ctr = response.extras["ctr"]
            return response
        if self._seen_ctr is None:
            self._seen_ctr = response.extras["ctr"]
            return response
        extras = dict(response.extras)
        extras["ctr"] = self._seen_ctr
        return Response(result=response.result, extras=extras)


class SignatureForgeAttack(Attack):
    """Replace the stored state signature with server-fabricated bytes.

    Protocol I's Theorem 4.1 rests on the server being unable to forge
    ``sign_j``; this attack tries anyway and must be caught on the very
    next verification.
    """

    name = "signature-forge"

    def __init__(self, forge_round: int) -> None:
        self.forge_round = forge_round

    def mutate_response(self, user_id, request, response, state, round_no):
        signature = response.extras.get("sig")
        if round_no < self.forge_round or not isinstance(signature, Signature):
            return response
        extras = dict(response.extras)
        extras["sig"] = Signature(
            signer_id=signature.signer_id,
            digest=signature.digest,
            raw=bytes(len(signature.raw)),  # all-zero forgery
        )
        return Response(result=response.result, extras=extras)


class StaleRootReplayAttack(Attack):
    """Answer the victim's operations from a snapshot frozen at
    ``freeze_round`` -- the out-of-date signed root digest scenario the
    Protocol I discussion warns about (Section 4.2).

    Unlike :class:`ForkAttack`, the frozen branch also *swallows* the
    victim's updates (they apply only to the snapshot), so the victim
    keeps seeing an internally consistent but dead-ended history.
    """

    name = "stale-root-replay"

    def __init__(self, victim: str, freeze_round: int) -> None:
        self.victim = victim
        self.freeze_round = freeze_round

    def on_round(self, server, round_no: int) -> None:
        if round_no >= self.freeze_round and "stale" not in server.states and self._quiescent(server):
            server.states["stale"] = server.states["main"].clone()

    def select_state(self, user_id: str, round_no: int, server) -> ServerState:
        if user_id == self.victim and "stale" in server.states:
            return server.states["stale"]
        return server.states["main"]


class CompositeAttack(Attack):
    """Several strategies at once: a thorough adversary.

    State selection takes the first non-main choice any sub-attack
    makes; response mutations apply in order.
    """

    name = "composite"

    def __init__(self, attacks: list[Attack]) -> None:
        if not attacks:
            raise ValueError("composite attack needs at least one component")
        self.attacks = list(attacks)

    def on_round(self, server, round_no: int) -> None:
        for attack in self.attacks:
            attack.on_round(server, round_no)

    def select_state(self, user_id: str, round_no: int, server) -> ServerState:
        for attack in self.attacks:
            state = attack.select_state(user_id, round_no, server)
            if state is not server.states["main"]:
                return state
        return server.states["main"]

    def mutate_response(self, user_id, request, response, state, round_no):
        for attack in self.attacks:
            response = attack.mutate_response(user_id, request, response, state, round_no)
        return response


class RandomizedAttackSchedule(Attack):
    """A seeded adversary that picks one strategy and a trigger round at
    random -- the fuzzing driver for soundness campaigns."""

    name = "randomized"

    def __init__(self, user_ids: list[str], horizon: int, seed: int) -> None:
        import random as _random

        rng = _random.Random(seed)
        victim = rng.choice(sorted(user_ids))
        other = rng.choice([u for u in sorted(user_ids) if u != victim] or [victim])
        trigger = rng.randrange(max(2, horizon // 5), max(3, (3 * horizon) // 4))
        factories = [
            lambda: ForkAttack(victims=[victim], fork_round=trigger),
            lambda: ForkAttack(victims=[victim, other], fork_round=trigger),
            lambda: DropCommitAttack(victim=victim, drop_round=trigger),
            lambda: StaleRootReplayAttack(victim=victim, freeze_round=trigger),
            lambda: TamperValueAttack(victim=victim, tamper_round=trigger),
            lambda: TamperValueAttack(victim=victim, tamper_round=trigger, forge_proof=True),
            lambda: CounterReplayAttack(victim=victim, replay_round=trigger),
            lambda: CompositeAttack([
                ForkAttack(victims=[victim], fork_round=trigger),
                TamperValueAttack(victim=other, tamper_round=trigger + 5),
            ]),
        ]
        self.inner = rng.choice(factories)()
        self.chosen = f"{self.inner.name}@{trigger} vs {victim}"

    def on_round(self, server, round_no: int) -> None:
        self.inner.on_round(server, round_no)

    def select_state(self, user_id: str, round_no: int, server) -> ServerState:
        return self.inner.select_state(user_id, round_no, server)

    def mutate_response(self, user_id, request, response, state, round_no):
        return self.inner.mutate_response(user_id, request, response, state, round_no)


ALL_ATTACKS = [
    HonestBehavior,
    ForkAttack,
    DropCommitAttack,
    TamperValueAttack,
    CounterReplayAttack,
    SignatureForgeAttack,
    StaleRootReplayAttack,
    CompositeAttack,
    RandomizedAttackSchedule,
]
