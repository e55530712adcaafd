"""Protocol II (paper Section 4.3): XOR state registers, no signatures.

The server returns ``(Q(D), v(Q, D), ctr, j)`` -- no signature, no
blocking follow-up message.  Each client keeps two registers:

* ``sigma_i`` -- the XOR of the *tagged* states it has seen, where a
  state is ``h(M(D) || ctr || j)`` and ``j`` is the user that validated
  the transition *into* that state;
* ``last_i`` -- the tagged state its own latest operation produced.

Tagging states with the validating user is the crucial refinement over
a plain XOR of ``h(M(D) || ctr)`` values: it forces in-degree <= 1 in
the seen-state graph, which together with the per-user counter
regression check makes Lemma 4.1 applicable -- at a successful sync the
graph must be one directed path, so the server executed a single serial
history (Theorem 4.2).  Without the tag, the Figure 3 replay makes all
intermediate states cancel and the XOR check passes despite a fork; see
:mod:`repro.protocols.graph` and benchmark E3.

At sync, users broadcast ``sigma_i`` and the check succeeds iff for
some user ``i``: ``S0 XOR last_i == XOR_k sigma_k`` where ``S0`` is the
tagged initial state.

Indexing convention (the paper is loose here): ``ctr`` counts completed
operations; the state after n operations carries counter field n and
owner = the user whose operation produced it, with the initial state
owned by the empty user id.  The server returns the pre-operation
counter ``ctr = n`` and ``j`` = owner of the current state.
"""

from __future__ import annotations

from repro.crypto.hashing import Digest, hash_tagged_state, xor_all
from repro.mtree.database import Query
from repro.mtree.forest import StoreSpec
from repro.protocols.base import (
    DeviationDetected,
    Request,
    Response,
    ServerProtocol,
    ServerState,
)
from repro.protocols.localization import CheckpointRing
from repro.protocols.syncbase import SyncingClient
from repro.protocols.verify import (
    VerifiedOutcome,
    register,
    reject_regression,
    verified_outcome,
)

META_LAST_USER = "p2.last_user"
INITIAL_OWNER = ""


def initial_state_tag(initial_root: Digest) -> Digest:
    """The tagged initial state S0 (common knowledge among users)."""
    return hash_tagged_state(initial_root, 0, INITIAL_OWNER)


class Protocol2Server(ServerProtocol):
    """Server half: return (answer, VO, ctr, last user); no blocking."""

    responses_commit_state = True

    def initialize(self, state: ServerState) -> None:
        state.meta.setdefault(META_LAST_USER, INITIAL_OWNER)
        state.ctr = 0

    def handle_request(self, user_id: str, request: Request, state: ServerState, round_no: int) -> Response:
        result = state.database.execute(request.query)
        response = Response(
            result=result,
            extras={"ctr": state.ctr, "last_user": state.meta[META_LAST_USER]},
        )
        state.ctr += 1
        state.meta[META_LAST_USER] = user_id
        return response


class XorRegisters:
    """One user's Protocol II verification state -- ``(sigma, last,
    gctr)`` -- and the step every response goes through.

    This is the only place the register algebra is written.  The
    simulator clients (Protocols II and III), the TCP clients, the
    evidence re-verifier and the model checker each hold one of these
    per user and call :meth:`step` (or, having roots and no VO,
    :meth:`advance`).
    """

    def __init__(self, user_id: str, order: "int | StoreSpec" = 8) -> None:
        self.user_id = user_id
        self.order = StoreSpec.coerce(order)
        self.sigma = Digest.zero()
        self.last = Digest.zero()  # zero means "no operation yet"
        self.gctr = 0

    def step(self, query: Query, response: Response) -> VerifiedOutcome:
        """Verify one response and fold it into the registers, or raise
        :class:`DeviationDetected` leaving them untouched."""
        try:
            ctr = int(response.extras["ctr"])
            last_user = response.extras["last_user"]
        except (KeyError, TypeError, ValueError):
            raise DeviationDetected(
                self.user_id,
                "malformed response: no well-formed ctr/last_user") from None
        outcome = verified_outcome(self.user_id, query, response, self.order)
        self.advance(ctr, last_user, outcome.old_root, outcome.new_root)
        return outcome

    def advance(self, ctr: int, last_user: str,
                old_root: Digest, new_root: Digest) -> None:
        """The step once the VO has yielded its roots: the counter and
        initial-owner checks, then ``sigma ^= h(M(D)||ctr||j) ^
        h(M(D')||ctr+1||i)``."""
        reject_regression(self.user_id, ctr, self.gctr)
        if ctr == 0 and last_user != INITIAL_OWNER:
            raise DeviationDetected(
                self.user_id, "initial state attributed to a user")
        old_tag = hash_tagged_state(old_root, ctr, last_user)
        new_tag = hash_tagged_state(new_root, ctr + 1, self.user_id)
        self.sigma = self.sigma ^ old_tag ^ new_tag
        self.last = new_tag
        self.gctr = ctr + 1

    def snapshot(self) -> dict:
        """The registers as an evidence bundle's ``client_state``."""
        return {"sigma": self.sigma, "last": self.last, "gctr": self.gctr}

    def restore(self, snapshot: dict) -> None:
        self.sigma = snapshot["sigma"]
        self.last = snapshot["last"]
        self.gctr = int(snapshot["gctr"])


def sync_holds(initial_tag: Digest, last: Digest, total: Digest) -> bool:
    """One user's sync predicate ``S0 ^ last_i == XOR_k sigma_k``, over
    the XOR ``total`` of everyone's sigma.  A user that never operated
    succeeds only on the pristine system (nobody operated, zero total)."""
    if not last:
        return total == Digest.zero()
    return (initial_tag ^ total) == last


def sync_check(initial_root: Digest, registers: dict[str, dict]) -> bool:
    """The Protocol II predicate over all users' exchanged registers.

    True iff the server's behaviour is consistent with one serial
    history (Theorem 4.2): some user that operated holds the ``last``
    that closes the telescoping XOR.  Exchange the registers over any
    channel the server does not control.
    """
    initial_tag = initial_state_tag(initial_root)
    total = xor_all(entry["sigma"] for entry in registers.values())
    lasts = [entry["last"] for entry in registers.values() if entry["last"]]
    return any(sync_holds(initial_tag, last, total)
               for last in lasts or [Digest.zero()])


class Protocol2Client(SyncingClient):
    """Client half: :class:`XorRegisters` plus the broadcast sync."""

    sigma = register("sigma")
    last = register("last")
    gctr = register("gctr")

    def __init__(
        self,
        user_id: str,
        user_ids: list[str],
        k: int,
        initial_root: Digest,
        order: int = 8,
        keep_checkpoints: bool = False,
        checkpoint_capacity: int = 64,
    ) -> None:
        super().__init__(user_id, user_ids, k)
        self._open_session(XorRegisters(user_id, order), order, protocol="II",
                           initial_tag=initial_state_tag(initial_root))
        # Optional fault-localisation support (future-work item (1)):
        # snapshot the registers after every operation into a bounded
        # ring; see repro.protocols.localization.  The capacity bounds
        # both memory and how far back a fault can be localised.
        self.checkpoints = CheckpointRing(checkpoint_capacity) if keep_checkpoints else None

    def _settled(self, ctx, verified: bool) -> None:
        if verified and self.checkpoints is not None:
            self.checkpoints.record(self.gctr, self.sigma, self.last)
        super()._settled(ctx, verified)

    # -- sync ------------------------------------------------------------------

    def _sync_payload(self) -> dict:
        return {"sigma": self.sigma, "last": self.last}

    def _evaluate_sync(self, data: dict[str, dict]) -> bool:
        total = xor_all(entry["sigma"] for entry in data.values())
        return sync_holds(self.core.initial_tag, self.last, total)

    def state_size(self) -> int:
        # sigma, last, gctr: constant regardless of history length.
        return super().state_size() + 3


class Protocol2StrongClient(Protocol2Client):
    """The *stronger* bound the paper mentions but does not construct
    (Section 2.2.1): "the protocol should enable deviation detection
    before any k further operations are performed on the data, and not
    k operations per user".

    Observation: the server's counter is global, and every response
    reveals it.  A client therefore knows the total operation count
    whenever it completes an operation -- so instead of counting its
    *own* operations since the last sync, it announces a sync as soon
    as the *global* counter has advanced k past the last synchronised
    point.  Any active user notices the threshold crossing, whichever
    users performed the operations, so at most k total operations (plus
    the in-flight slack of concurrently issued ones) separate a
    deviation from the next sync.

    The residual caveat is inherent: if *no* user operates, nothing is
    learned -- but then no operations are lost either.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._last_sync_gctr = 0

    def wants_sync(self) -> bool:
        return (self.gctr - self._last_sync_gctr) >= self.k and not self._sync_data

    def _receive_sync_verdict(self, tag, sender, success, ctx) -> None:
        super()._receive_sync_verdict(tag, sender, success, ctx)
        if tag not in self._sync_verdicts:  # the sync just completed
            self._last_sync_gctr = max(self._last_sync_gctr, self.gctr)
