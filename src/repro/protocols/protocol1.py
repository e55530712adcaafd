"""Protocol I (paper Section 4.2): signed root digests + counter sync.

Per operation, the server returns ``(Q(D), v(Q, D), ctr, j, sig)``
where ``sig = sign_j(h(M(D) || ctr))`` was produced by the last user
to operate.  The client

1. derives ``M(D)`` from the VO and checks ``sig`` is a legitimate
   signature of ``h(M(D) || ctr)`` by ``j`` (unforgeable by the
   server);
2. derives the post-operation root ``M(D')`` itself and returns
   ``sign_i(h(M(D') || ctr + 1))`` to the server -- the extra,
   *blocking* message: the server may not answer the next query until
   it holds this signature.

Every k operations the users sync over the broadcast channel: each
broadcasts its total operation count ``lctr_i``, and the check
succeeds iff some user's ``gctr_i`` equals ``sum_k lctr_k``
(Theorem 4.1).

Notes on the paper text: the paper maintains ``gctr_i = ctr + 1`` but
never states the per-response regression check explicitly; we apply
``ctr >= gctr_i`` (reject a counter older than one we have already
seen), which Protocols II/III state outright ("reports error if
ctr <= gctr_i" is a typo -- with ``gctr_i = ctr + 1`` a user's own
back-to-back operations would trip it; the intended check is a strict
regression test).
"""

from __future__ import annotations

from repro.crypto.hashing import Digest, hash_state
from repro.crypto.signatures import Signature, Signer, Verifier
from repro.mtree.database import Query
from repro.mtree.forest import StoreSpec
from repro.protocols.base import (
    DeviationDetected,
    Followup,
    Request,
    Response,
    ServerProtocol,
    ServerState,
)
from repro.protocols.syncbase import SyncingClient
from repro.protocols.verify import (
    VerifiedOutcome,
    register,
    reject_regression,
    verified_outcome,
)

META_SIG = "p1.sig"
META_LAST_USER = "p1.last_user"
META_AWAITING = "p1.awaiting_sig"

#: Request ``extras`` marker a *batching server* stamps on every request
#: of a single-user signing run except the last: the state does not
#: block after a deferred request, so one follow-up signature -- over
#: the batch-final root -- covers the whole run.  The marker is written
#: into the request before it is WAL-logged (replay reconstructs the
#: identical run) and is stripped from every request the server core's
#: ``apply_batch`` is handed, so a client cannot smuggle it in to skip
#: its signing duty.
DEFER_FOLLOWUP_KEY = "p1.defer_followup"

#: Response ``extras`` flag telling the client whether this response
#: closes a signing run (sign and send the follow-up) or sits inside
#: one (verify, but do not sign).  Absent means final -- the unbatched
#: servers never set it, and their every response expects a signature.
BATCH_FINAL_KEY = "batch_final"


def bootstrap_server_state(state: ServerState, elected: Signer) -> None:
    """Initialisation step: the elected user signs ``h(M(D0) || 0)`` and
    deposits it with the server."""
    initial = hash_state(state.database.root_digest(), 0)
    state.meta[META_SIG] = elected.sign(initial)
    state.meta[META_LAST_USER] = elected.signer_id
    state.meta[META_AWAITING] = False
    state.ctr = 0


class Protocol1Server(ServerProtocol):
    """Server half: attach counter + last signature, then block until the
    operating user returns a signature over the new state."""

    responses_commit_state = True
    blocks_after_request = True
    supports_deferred_followup = True

    def blocked(self, state: ServerState) -> bool:
        return bool(state.meta.get(META_AWAITING))

    def handle_request(self, user_id: str, request: Request, state: ServerState, round_no: int) -> Response:
        result = state.database.execute(request.query)
        final = not request.extras.get(DEFER_FOLLOWUP_KEY)
        response = Response(
            result=result,
            extras={
                "ctr": state.ctr,
                "last_user": state.meta[META_LAST_USER],
                "sig": state.meta[META_SIG],
                BATCH_FINAL_KEY: final,
            },
        )
        state.ctr += 1
        state.meta[META_AWAITING] = final
        return response

    def handle_followup(self, user_id: str, followup: Followup, state: ServerState, round_no: int) -> None:
        signature = followup.extras.get("sig")
        if isinstance(signature, Signature):
            state.meta[META_SIG] = signature
            state.meta[META_LAST_USER] = user_id
        state.meta[META_AWAITING] = False


class SignedRootChain:
    """One user's Protocol I verification state -- ``(lctr, gctr)`` and
    the head of the current signing run -- and the step every response
    goes through.

    This is the only place the signed-root check is written; the
    simulator client, the TCP session (at any window) and the evidence
    re-verifier each hold one and call :meth:`step`.  A
    response is judged one of two ways.  At a *batch head* -- the first
    response after this user's signature went to the server, and every
    response of a server that does not batch -- the presented signature
    must be ``sign_j(h(M(D) || ctr))`` by the claimed last user ``j``.
    *Inside a signing run* the stored signature is stale by design, so
    the response must instead continue the hash chain the head
    anchored: its VO-derived old root is the previous response's
    derived new root, with the counter advancing by exactly one.
    """

    def __init__(self, user_id: str, verifier: Verifier,
                 order: "int | StoreSpec" = 8) -> None:
        self.user_id = user_id
        self.verifier = verifier
        self.order = StoreSpec.coerce(order)
        self.lctr = 0  # total operations performed by this user
        self.gctr = 0  # ctr value the *next* response must meet or exceed
        self.head_expected = True
        self.prev_root: Digest | None = None
        self.prev_ctr: int | None = None

    def step(self, query: Query,
             response: Response) -> tuple[VerifiedOutcome, Digest | None]:
        """Verify one response and fold it in, or raise
        :class:`DeviationDetected` leaving the state untouched.

        Returns the outcome and, when the response closes a signing run
        (absent ``batch_final`` means it does), the digest
        ``h(M(D') || ctr + 1)`` this user must sign and send back.
        """
        try:
            ctr = int(response.extras["ctr"])
            last_user = response.extras["last_user"]
            signature = response.extras["sig"]
        except (KeyError, TypeError, ValueError):
            raise DeviationDetected(
                self.user_id,
                "malformed response: no well-formed ctr/last_user/sig") from None
        final = bool(response.extras.get(BATCH_FINAL_KEY, True))
        # advance() applies the rule again; here it comes first so that a
        # rewound counter is reported as one, not as the signature over a
        # different (root, ctr) that it necessarily also is.
        reject_regression(self.user_id, ctr, self.gctr)
        outcome = verified_outcome(self.user_id, query, response, self.order)
        if self.head_expected:
            self._check_signature(signature, last_user,
                                  hash_state(outcome.old_root, ctr))
        elif outcome.old_root != self.prev_root:
            raise DeviationDetected(
                self.user_id,
                "batch root chain broken: this operation's pre-state is "
                "not the previous operation's post-state")
        elif self.prev_ctr is None or ctr != self.prev_ctr + 1:
            raise DeviationDetected(
                self.user_id,
                f"batch counter not contiguous: {ctr} after {self.prev_ctr}")
        self.advance(ctr)
        self.prev_root, self.prev_ctr = outcome.new_root, ctr
        self.head_expected = final
        return outcome, hash_state(outcome.new_root, ctr + 1) if final else None

    def _check_signature(self, signature: object, last_user: str,
                         expected: Digest) -> None:
        if not isinstance(signature, Signature) or signature.signer_id != last_user:
            raise DeviationDetected(
                self.user_id,
                "state signature does not name the claimed last user")
        if signature.digest != expected:
            raise DeviationDetected(
                self.user_id,
                "illegitimate state signature: it covers a different state "
                "digest than the presented root and counter")
        if not self.verifier.verify(signature, expected):
            raise DeviationDetected(
                self.user_id,
                "illegitimate state signature: its bytes do not verify "
                "under the signer's key")

    def advance(self, ctr: int) -> None:
        """The counter half of the step (all of it, for a model in
        which signatures bind states by assumption)."""
        reject_regression(self.user_id, ctr, self.gctr)
        self.lctr += 1
        self.gctr = ctr + 1

    def snapshot(self) -> dict:
        """The state as an evidence bundle's ``client_state``."""
        return {"lctr": self.lctr, "gctr": self.gctr,
                "head_expected": self.head_expected,
                "prev_root": self.prev_root, "prev_ctr": self.prev_ctr}

    def restore(self, snapshot: dict) -> None:
        """A snapshot without the run-head fields is judged as a batch
        head."""
        self.lctr = int(snapshot["lctr"])
        self.gctr = int(snapshot["gctr"])
        self.head_expected = bool(snapshot.get("head_expected", True))
        self.prev_root = snapshot.get("prev_root")
        self.prev_ctr = snapshot.get("prev_ctr")


def count_holds(gctr: int, total: int) -> bool:
    """One user's count predicate (Theorem 4.1): its ``gctr`` equals
    the total of everyone's ``lctr``."""
    return gctr == total


def count_sync_check(counts: dict[str, dict]) -> bool:
    """Protocol I's predicate over exchanged counts: some user that
    operated must hold a gctr equal to the total of everyone's lctr."""
    total = sum(entry["lctr"] for entry in counts.values())
    gctrs = [entry["gctr"] for entry in counts.values() if entry["lctr"] > 0]
    return any(count_holds(gctr, total) for gctr in gctrs or [0])


class Protocol1Client(SyncingClient):
    """Client half: :class:`SignedRootChain` plus the count sync."""

    lctr = register("lctr")
    gctr = register("gctr")

    def __init__(
        self,
        user_id: str,
        user_ids: list[str],
        k: int,
        signer: Signer,
        verifier: Verifier,
        order: int = 8,
    ) -> None:
        super().__init__(user_id, user_ids, k)
        if signer.signer_id != user_id:
            raise ValueError("signer identity must match the user id")
        # One slot in flight and no resend: no request ids, as for a
        # TCP session at window 1.
        self._open_session(SignedRootChain(user_id, verifier, order), order,
                           protocol="I", rids=False, signer=signer)

    # -- sync ------------------------------------------------------------------

    def _sync_payload(self) -> dict:
        return {"lctr": self.lctr}

    def _evaluate_sync(self, data: dict[str, dict]) -> bool:
        return count_holds(
            self.gctr, sum(entry["lctr"] for entry in data.values()))

    def state_size(self) -> int:
        # lctr, gctr, signer key, sync counters: constant.
        return super().state_size() + 2
