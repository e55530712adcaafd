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

Every check a client makes is one state object, :class:`EpochRegisters`,
which the user's :class:`~repro.net.session.SessionCore` steps on each
answer -- an audit fetch is a query-less request in the same window --
as it steps Protocol II's registers; :class:`Protocol3Client` keeps the
clock, the audit schedule and the deposits' signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

from repro.crypto.hashing import Digest, hash_epoch_snapshot, xor_all
from repro.crypto.signatures import Signature, Signer, Verifier
from repro.mtree.database import Query, QueryResult, VerifiedOutcome
from repro.mtree.forest import StoreSpec
from repro.protocols.base import (
    ClientContext,
    DeviationDetected,
    Request,
    Response,
    ServerProtocol,
    ServerState,
)
from repro.protocols.clock import LocalClock
from repro.protocols.protocol2 import INITIAL_OWNER, XorRegisters, initial_state_tag
from repro.protocols.syncbase import SessionClient
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


class EpochRegisters(XorRegisters):
    """One user's Protocol III state -- Protocol II's registers, the
    epoch they cover, the audit in flight, the audited epochs' ends --
    and the step its session core runs on every answer: a query's meets
    the epoch rule, then Protocol II's step (the first of a new epoch
    leaves the closed epoch's registers ``owed`` and restarts sigma);
    an audit fetch's (no query) the telescoping check.  ``clock`` has
    ``plausible_epochs(epoch_length)``: the user's ``LocalClock``, or the
    window a bundle recorded."""

    def __init__(self, user_id: str, verifier: Verifier,
                 order: "int | StoreSpec", *, user_ids, epoch_length: int,
                 initial_tag: Digest, clock) -> None:
        super().__init__(user_id, order)
        self.verifier = verifier
        self.user_ids = sorted(user_ids)
        self.epoch_length = epoch_length
        self.clock = clock
        self.epoch = 0
        #: the epoch whose audit fetch is in flight
        self.audit: int | None = None
        #: each audited epoch's closing tagged state; -1 is the initial state
        self.epoch_ends: dict[int, Digest] = {-1: initial_tag}
        #: the closed epoch's registers until a request deposits them
        self.owed: EpochDeposit | None = None

    def step(self, query: Query, response: Response) -> VerifiedOutcome | None:
        if query is None:
            return self._audit(response)
        epoch = response.extras.get("epoch")
        if not isinstance(epoch, int):
            raise DeviationDetected(self.user_id, "response lacks an epoch number")
        lo, hi = self.clock.plausible_epochs(self.epoch_length)
        if not (lo - 1 <= epoch <= hi + 1):
            raise DeviationDetected(
                self.user_id,
                f"implausible epoch announcement {epoch}: local clock admits "
                f"only [{lo - 1}, {hi + 1}]",
            )
        if epoch < self.epoch:
            raise DeviationDetected(self.user_id, f"epoch went backwards: {self.epoch} -> {epoch}")
        if epoch > self.epoch + 1 and self.last:
            # With >= 2 operations per epoch a user can never skip a
            # whole epoch between consecutive operations.
            raise DeviationDetected(
                self.user_id,
                f"epoch skipped: {self.epoch} -> {epoch} between consecutive operations",
            )
        sigma, last = self.sigma, self.last
        outcome = super().step(query, response)
        if epoch > self.epoch:
            # First operation of a new epoch: the registers as they stood
            # at the end of the previous one are owed; sigma keeps only
            # this operation's transition.
            self.owed = EpochDeposit(self.user_id, self.epoch, sigma, last, None)
            self.sigma ^= sigma
            self.epoch = epoch
        return outcome

    def _audit(self, response: Response) -> None:
        epoch = self.audit
        if epoch is None:
            raise DeviationDetected(self.user_id, "unsolicited audit response")
        deposits = response.extras.get("deposits", {})
        current = self._checked_deposits(deposits.get(epoch, {}), epoch)
        if epoch == 0:
            start_candidates = [self.epoch_ends[-1]]
        else:
            previous = self._checked_deposits(deposits.get(epoch - 1, {}), epoch - 1)
            start_candidates = [deposit.last for deposit in previous.values()]

        sigma_total = xor_all(deposit.sigma for deposit in current.values())
        # (start ^ last) == total  <=>  last == start ^ total: one XOR
        # per start candidate, then set membership over the deposits.
        targets = {start ^ sigma_total for start in start_candidates}
        for deposit in current.values():
            if deposit.last in targets:
                self.audit = None
                self.epoch_ends[epoch] = deposit.last
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
            if not self.verifier.verify(deposit.signature, deposit.digest()):
                raise DeviationDetected(self.user_id, f"epoch {epoch} audit: forged deposit signature for {user_id!r}")
            checked[user_id] = deposit
        return checked

    def snapshot(self) -> dict:
        """The registers and everything else the step reads, the clock
        as the window it admits now."""
        return {**super().snapshot(), "epoch": self.epoch, "audit": self.audit,
                "window": list(self.clock.plausible_epochs(self.epoch_length)),
                "epoch_ends": dict(self.epoch_ends), "user_ids": list(self.user_ids),
                "epoch_length": self.epoch_length}

    def restore(self, snapshot: dict) -> None:
        super().restore(snapshot)
        window = tuple(snapshot["window"])
        self.clock = SimpleNamespace(plausible_epochs=lambda _length: window)
        self.epoch, self.audit = int(snapshot["epoch"]), snapshot["audit"]
        self.epoch_ends = dict(snapshot["epoch_ends"])
        self.user_ids = sorted(snapshot["user_ids"])
        self.epoch_length = int(snapshot["epoch_length"])


class Protocol3Client(SessionClient):
    """Client half: :class:`EpochRegisters` in a session core, the
    audit schedule, and the signature on each deposit."""

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
        self._signer = signer
        self._clock = LocalClock(p=p, tick_probability=1.0 if p == 1 else 0.7, seed=clock_seed)
        initial_tag = initial_state_tag(initial_root)
        # One operation in flight and no resend: no request ids, as for
        # the Protocol I users.
        self._open_session(
            EpochRegisters(user_id, verifier, order, user_ids=user_ids,
                           epoch_length=epoch_length, initial_tag=initial_tag,
                           clock=self._clock),
            order, protocol="III", rids=False, initial_tag=initial_tag)

    def auditor_of(self, epoch: int) -> str:
        """Round-robin epoch-auditor assignment."""
        return self.state.user_ids[epoch % len(self.state.user_ids)]

    def on_round(self, ctx: ClientContext) -> None:
        """Advance the clock; with nothing in flight, fetch the deposits
        of the oldest epoch assigned to us that is ready for audit."""
        self._clock.advance()
        if self.state.audit is not None or ctx.has_pending():
            return
        for epoch in range(self.state.epoch - 1):
            if self.auditor_of(epoch) == self.user_id and epoch not in self.state.epoch_ends:
                self.state.audit = epoch
                ctx.issue_internal(self.core.submit(None, {
                    "fetch_epochs": [epoch - 1, epoch] if epoch > 0 else [epoch]}))
                return

    def _settled(self, ctx: ClientContext, verified: bool) -> None:
        """A refused audit fetch withholds the deposits the audit must
        see within two epochs: the server deviated, as when it withholds
        a response past the transaction bound b*."""
        if not verified and self.state.audit is not None:
            raise DeviationDetected(
                self.user_id,
                f"epoch {self.state.audit} audit refused: the server withheld the deposits")

    def _request_extras(self) -> dict | None:
        """The second operation of a new epoch deposits the previous
        epoch's registers on the server, signed, so the server cannot
        forge or alter them."""
        owed, self.state.owed = self.state.owed, None
        if owed is not None:
            return {"deposit": replace(owed, signature=self._signer.sign(owed.digest()))}
        return None

    def state_size(self) -> int:
        # sigma, last, gctr, epoch, one pending deposit: constant.
        return 5
