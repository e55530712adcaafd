"""Protocol III (paper Section 4.4): epoch audits, no broadcast channel.

The broadcast channel of Protocols I/II is simulated *through the
untrusted server*, which works because the permitted workload is
restricted: every user performs at least two operations every epoch
(t rounds).  Per epoch e:

* on its **first** operation in epoch e+1, a user learns from the
  server that the epoch advanced; it backs up its (sigma, last)
  registers -- their values as of the end of epoch e -- and resets
  sigma for the new epoch;
* on its **second** operation in e+1, the user deposits the backup on
  the server, *signed*, so the server cannot forge or alter it;
* in epoch e+2, the designated auditor (round-robin: user e mod n)
  fetches every user's signed epoch-e deposit plus the epoch-(e-1)
  deposits, and runs the Protocol II telescoping check per epoch:
  ``start_e XOR last_i^e == XOR_k sigma_k^e`` for some user i, where
  ``start_e`` is the closing state of epoch e-1 (one of the deposited
  ``last_j^{e-1}`` values; ``S0`` for epoch 0).

A fault is detected within two epochs (Theorem 4.3): any fork makes
some user's epoch deposit missing, stale, or inconsistent with the
chain the auditor reconstructs.

Clients also keep a p-partially-synchronous local clock and reject
epoch announcements that are implausible under the drift bound, so the
server cannot stretch or shrink epochs arbitrarily.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest, hash_epoch_snapshot, xor_all
from repro.crypto.signatures import Signature, Signer, Verifier
from repro.mtree.database import Query, QueryResult
from repro.protocols.base import (
    ClientContext,
    DeviationDetected,
    ProtocolClient,
    Request,
    Response,
    ServerProtocol,
    ServerState,
)
from repro.protocols.clock import LocalClock
from repro.protocols.protocol2 import INITIAL_OWNER, XorRegisters, initial_state_tag
from repro.protocols.verify import register

META_LAST_USER = "p3.last_user"
META_DEPOSITS = "p3.deposits"  # {epoch: {user_id: EpochDeposit}}


@dataclass(frozen=True)
class EpochDeposit:
    """A user's signed end-of-epoch snapshot of (sigma, last)."""

    user_id: str
    epoch: int
    sigma: Digest
    last: Digest
    signature: Signature

    def digest(self) -> Digest:
        return hash_epoch_snapshot(self.sigma, self.last, self.epoch, self.user_id)


class Protocol3Server(ServerProtocol):
    """Server half: Protocol II responses plus epoch numbers, deposit
    storage, and deposit retrieval for auditors."""

    responses_commit_state = True

    def __init__(self, epoch_length: int) -> None:
        if epoch_length < 4:
            raise ValueError("epoch length must be at least 4 rounds")
        self.epoch_length = epoch_length

    def initialize(self, state: ServerState) -> None:
        state.meta.setdefault(META_LAST_USER, INITIAL_OWNER)
        state.meta.setdefault(META_DEPOSITS, {})
        state.ctr = 0

    def current_epoch(self, round_no: int) -> int:
        return round_no // self.epoch_length

    def internal_defect(self, request: Request) -> str | None:
        wanted = request.extras.get("fetch_epochs")
        if isinstance(wanted, (list, tuple)) and all(type(e) is int for e in wanted):
            return None
        return "an audit fetch names its epochs as a list of ints"

    def handle_request(self, user_id: str, request: Request, state: ServerState, round_no: int) -> Response:
        epoch = self.current_epoch(round_no)
        deposit = request.extras.get("deposit")
        if isinstance(deposit, EpochDeposit):
            state.meta[META_DEPOSITS].setdefault(deposit.epoch, {})[deposit.user_id] = deposit

        if request.query is None:
            # Auditor fetch: return the deposits for the requested epochs.
            deposits = {
                e: dict(state.meta[META_DEPOSITS].get(e, {}))
                for e in request.extras["fetch_epochs"]
            }
            return Response(
                result=QueryResult(answer=None, proof=None),
                extras={"epoch": epoch, "deposits": deposits},
            )

        result = state.database.execute(request.query)
        response = Response(
            result=result,
            extras={
                "ctr": state.ctr,
                "last_user": state.meta[META_LAST_USER],
                "epoch": epoch,
            },
        )
        state.ctr += 1
        state.meta[META_LAST_USER] = user_id
        return response


class Protocol3Client(ProtocolClient):
    """Client half: Protocol II registers + epoch deposits + audits."""

    sigma = register("sigma")
    last = register("last")
    gctr = register("gctr")

    def __init__(
        self,
        user_id: str,
        user_ids: list[str],
        epoch_length: int,
        initial_root: Digest,
        signer: Signer,
        verifier: Verifier,
        order: int = 8,
        p: int = 1,
        clock_seed: int = 0,
    ) -> None:
        super().__init__(user_id)
        self.user_ids = sorted(user_ids)
        self.epoch_length = epoch_length
        self._initial_tag = initial_state_tag(initial_root)
        self._signer = signer
        self._verifier = verifier
        self.state = XorRegisters(user_id, order)
        self.current_epoch = 0
        self._pending_deposit: EpochDeposit | None = None
        self._clock = LocalClock(p=p, tick_probability=1.0 if p == 1 else 0.7, seed=clock_seed)
        # Audit bookkeeping.
        self._audited_epochs: set[int] = set()
        self._audit_in_flight: int | None = None
        self._verified_epoch_ends: dict[int, Digest] = {-1: self._initial_tag}

    # -- epoch / audit scheduling -------------------------------------------

    def auditor_of(self, epoch: int) -> str:
        """Round-robin epoch-auditor assignment."""
        return self.user_ids[epoch % len(self.user_ids)]

    def on_round(self, ctx: ClientContext) -> None:
        self._clock.advance()
        if self._audit_in_flight is not None:
            return
        due = self._next_audit_due()
        if due is None:
            return
        if getattr(ctx, "has_pending", None) is not None and ctx.has_pending():
            return
        self._audit_in_flight = due
        request = Request(
            query=None,
            extras={"fetch_epochs": [due - 1, due] if due > 0 else [due], "audit_epoch": due},
        )
        ctx.issue_internal(request)

    def _next_audit_due(self) -> int | None:
        """The oldest epoch assigned to us that is ready for audit."""
        for epoch in range(0, self.current_epoch - 1):
            if epoch in self._audited_epochs:
                continue
            if self.auditor_of(epoch) != self.user_id:
                self._audited_epochs.add(epoch)  # someone else's job
                continue
            return epoch
        return None

    # -- request / response -----------------------------------------------

    def make_request(self, query: Query) -> Request:
        extras = {}
        if self._pending_deposit is not None:
            # Second operation of the new epoch: deposit the signed
            # snapshot of the previous epoch on the server.
            extras["deposit"] = self._pending_deposit
            self._pending_deposit = None
        return Request(query=query, extras=extras)

    def handle_response(self, query: Query, response: Response, ctx: ClientContext) -> object:
        if query is None:
            answer = self._handle_audit_response(response)
            return answer
        self._observe_epoch(response)
        outcome = self.state.step(query, response)
        self.completed_transactions += 1
        return outcome.answer

    def _observe_epoch(self, response: Response) -> None:
        epoch = response.extras.get("epoch")
        if not isinstance(epoch, int):
            raise DeviationDetected(self.user_id, "response lacks an epoch number")
        lo, hi = self._clock.plausible_epochs(self.epoch_length)
        if not (lo - 1 <= epoch <= hi + 1):
            raise DeviationDetected(
                self.user_id,
                f"implausible epoch announcement {epoch}: local clock admits "
                f"only [{lo - 1}, {hi + 1}]",
            )
        if epoch < self.current_epoch:
            raise DeviationDetected(self.user_id, f"epoch went backwards: {self.current_epoch} -> {epoch}")
        if epoch == self.current_epoch:
            return
        if epoch > self.current_epoch + 1 and self.completed_transactions > 0:
            # With >= 2 operations per epoch a user can never skip a
            # whole epoch between consecutive operations.
            raise DeviationDetected(
                self.user_id,
                f"epoch skipped: {self.current_epoch} -> {epoch} between consecutive operations",
            )
        # First operation of a new epoch: back up the registers as they
        # stood at the end of the previous epoch, reset sigma.
        closed = self.current_epoch
        snapshot_digest = hash_epoch_snapshot(self.sigma, self.last, closed, self.user_id)
        self._pending_deposit = EpochDeposit(
            user_id=self.user_id,
            epoch=closed,
            sigma=self.sigma,
            last=self.last,
            signature=self._signer.sign(snapshot_digest),
        )
        self.sigma = Digest.zero()
        self.current_epoch = epoch

    # -- the audit itself ---------------------------------------------------

    def _handle_audit_response(self, response: Response) -> None:
        epoch = self._audit_in_flight
        self._audit_in_flight = None
        if epoch is None:
            raise DeviationDetected(self.user_id, "unsolicited audit response")
        deposits = response.extras.get("deposits", {})
        current = self._checked_deposits(deposits.get(epoch, {}), epoch)
        if epoch == 0:
            start_candidates = [self._initial_tag]
        else:
            previous = self._checked_deposits(deposits.get(epoch - 1, {}), epoch - 1)
            start_candidates = [deposit.last for deposit in previous.values()]

        sigma_total = xor_all(deposit.sigma for deposit in current.values())
        # (start ^ last) == total  <=>  last == start ^ total: one XOR
        # per start candidate, then set membership over the deposits.
        targets = {start ^ sigma_total for start in start_candidates}
        for deposit in current.values():
            if deposit.last in targets:
                self._audited_epochs.add(epoch)
                self._verified_epoch_ends[epoch] = deposit.last
                return None
        raise DeviationDetected(
            self.user_id,
            f"epoch {epoch} audit failed: deposited registers are "
            "inconsistent with a single serial execution",
        )

    def _checked_deposits(self, raw: dict, epoch: int) -> dict[str, EpochDeposit]:
        """Require a correctly signed deposit from *every* user."""
        checked: dict[str, EpochDeposit] = {}
        for user_id in self.user_ids:
            deposit = raw.get(user_id)
            if not isinstance(deposit, EpochDeposit):
                raise DeviationDetected(
                    self.user_id,
                    f"epoch {epoch} audit: user {user_id!r} has no deposit "
                    "(every user performs two operations per epoch, so one must exist)",
                )
            if deposit.epoch != epoch or deposit.user_id != user_id:
                raise DeviationDetected(self.user_id, f"epoch {epoch} audit: mislabelled deposit for {user_id!r}")
            if not self._verifier.verify(deposit.signature, deposit.digest()):
                raise DeviationDetected(self.user_id, f"epoch {epoch} audit: forged deposit signature for {user_id!r}")
            checked[user_id] = deposit
        return checked

    def state_size(self) -> int:
        # sigma, last, gctr, epoch, one pending deposit: constant.
        return 5
