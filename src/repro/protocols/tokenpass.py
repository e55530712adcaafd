"""The token-passing strawman (paper Section 2.2.3).

"The protocol forces users to update the data only at pre-specified
time points (say, on the hour) and only in a pre-specified order. ...
This goes on in a token passing style cycling through the users.  If a
user does not have an operation, a signature of a null message is
stored."

It detects deviation (it literally simulates the single-user verified
database), but it fails *bounded workload preservation*: a user with
two back-to-back operations must wait for a full cycle of everyone
else's null records between them.  Benchmark E7 measures exactly this.

Time is sliced into fixed-length slots; slot s belongs to user
``s mod n``.  In its slot a user performs its next pending operation
(or a null operation), verifies the previous holder's signature over
the current state, and signs the new state.
"""

from __future__ import annotations

from repro.crypto.hashing import Digest, hash_state
from repro.crypto.signatures import Signature, Signer, Verifier
from repro.mtree.database import Query, QueryResult
from repro.mtree.forest import StoreSpec
from repro.protocols.base import (
    ClientContext,
    DeviationDetected,
    Followup,
    ProtocolClient,
    Request,
    Response,
    ServerProtocol,
    ServerState,
)
from repro.protocols.verify import verified_outcome

META_SIG = "tp.sig"
META_TURN = "tp.turn"
META_AWAITING = "tp.awaiting_sig"


def bootstrap_server_state(state: ServerState, elected: Signer) -> None:
    """The elected user signs the initial state for turn 0."""
    state.meta[META_SIG] = elected.sign(hash_state(state.database.root_digest(), 0))
    state.meta[META_TURN] = 0
    state.meta[META_AWAITING] = False


class TokenPassServer(ServerProtocol):
    """Returns the stored signature and turn; accepts the next signature.

    Like Protocol I, the server blocks between a response and the
    client's returned signature -- in token passing the chain of
    custody must never fork.
    """

    responses_commit_state = True

    def internal_defect(self, request: Request) -> str | None:
        return None  # a null operation

    def blocked(self, state: ServerState) -> bool:
        return bool(state.meta.get(META_AWAITING))

    def handle_request(self, user_id: str, request: Request, state: ServerState, round_no: int) -> Response:
        extras = {"turn": state.meta[META_TURN], "sig": state.meta[META_SIG]}
        state.meta[META_AWAITING] = True
        if request.query is None:
            # Null operation: nothing executes; the state is unchanged.
            extras["root"] = state.database.root_digest()
            return Response(result=QueryResult(answer=None, proof=None), extras=extras)
        result = state.database.execute(request.query)
        state.ctr += 1
        return Response(result=result, extras=extras)

    def handle_followup(self, user_id: str, followup: Followup, state: ServerState, round_no: int) -> None:
        signature = followup.extras.get("sig")
        if isinstance(signature, Signature):
            state.meta[META_SIG] = signature
            state.meta[META_TURN] = followup.extras.get("turn", state.meta[META_TURN] + 1)
        state.meta[META_AWAITING] = False


class TokenPassClient(ProtocolClient):
    """Operates only in its own time slots, passing the signed state."""

    def __init__(
        self,
        user_id: str,
        user_ids: list[str],
        signer: Signer,
        verifier: Verifier,
        slot_length: int = 4,
        order: "int | StoreSpec" = 8,
        quiet_after: int | None = None,
    ) -> None:
        super().__init__(user_id)
        self.user_ids = sorted(user_ids)
        self._my_index = self.user_ids.index(user_id)
        self._signer = signer
        self._verifier = verifier
        self.slot_length = slot_length
        self._order = StoreSpec.coerce(order)
        self._turn_done: set[int] = set()
        self._last_issue_slot: int | None = None
        self.null_operations = 0
        # After this round the client stops emitting null records -- a
        # simulation convenience so runs can quiesce; None = forever.
        self.quiet_after = quiet_after

    def _slot(self, round_no: int) -> int:
        return round_no // self.slot_length

    def _is_my_slot(self, round_no: int) -> bool:
        return self._slot(round_no) % len(self.user_ids) == self._my_index

    def may_start_transaction(self, ctx: ClientContext) -> bool:
        slot = self._slot(ctx.round)
        return self._is_my_slot(ctx.round) and slot not in self._turn_done

    def on_round(self, ctx: ClientContext) -> None:
        """Issue a null operation if this is our slot and the workload has
        nothing to do -- the token must keep moving."""
        slot = self._slot(ctx.round)
        if not self._is_my_slot(ctx.round) or slot in self._turn_done:
            return
        if self.quiet_after is not None and ctx.round > self.quiet_after:
            return
        # Give the workload the first few rounds of the slot; then null-op.
        if ctx.round % self.slot_length < self.slot_length - 2:
            return
        if ctx.has_pending():
            return
        self._turn_done.add(slot)
        self._last_issue_slot = slot
        self.null_operations += 1
        ctx.issue_internal(Request(query=None, extras={"null": True}))

    def on_issue(self, ctx: ClientContext) -> None:
        """A real workload operation was just issued in this slot."""
        slot = self._slot(ctx.round)
        self._turn_done.add(slot)
        self._last_issue_slot = slot

    def handle_response(self, query: Query, response: Response, ctx: ClientContext) -> object:
        try:
            turn = int(response.extras["turn"])
            signature = response.extras["sig"]
        except (KeyError, TypeError, ValueError):
            raise DeviationDetected(self.user_id, "malformed token-pass response") from None

        # The pre-specified schedule: slot s carries exactly one signed
        # record, so an operation issued in slot s must observe turn == s.
        # A lagging turn means some earlier user's record never made it
        # into this history -- the server dropped or forked it.
        if self._last_issue_slot is not None and turn != self._last_issue_slot:
            raise DeviationDetected(
                self.user_id,
                f"token schedule violated: operating in slot {self._last_issue_slot} "
                f"but the server's chain holds {turn} records",
            )

        if query is None:
            # Null operation: verify the current signed state, re-sign it.
            root = response.extras.get("root")
            if not isinstance(root, Digest):
                raise DeviationDetected(self.user_id, "null-op response lacks the current root")
            old_root = new_root = root
            answer = None
        else:
            outcome = verified_outcome(self.user_id, query, response, self._order)
            old_root, new_root, answer = outcome.old_root, outcome.new_root, outcome.answer
            self.completed_transactions += 1

        expected = hash_state(old_root, turn)
        if not isinstance(signature, Signature) or not self._verifier.verify(signature, expected):
            raise DeviationDetected(
                self.user_id,
                "token-pass chain broken: stored signature does not cover the presented state",
            )
        new_sig = self._signer.sign(hash_state(new_root, turn + 1))
        ctx.send_to_server(Followup(extras={"sig": new_sig, "turn": turn + 1}))
        return answer

    def state_size(self) -> int:
        return 3
