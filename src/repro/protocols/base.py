"""Protocol framework: the client/server interfaces all three protocols
(and the baselines) implement, plus the shared message vocabulary.

A protocol has two halves:

* a :class:`ProtocolClient` per user -- wraps each database query with
  verification state (root digests, counters, XOR registers,
  signatures) and raises :class:`DeviationDetected` the moment the
  server's behaviour is inconsistent with *every* trusted run;
* a :class:`ServerProtocol` -- the per-request server-side logic
  (what to return alongside ``Q(D)`` and ``v(Q, D)``), operating on a
  :class:`ServerState` that attacks may clone and swap underneath it.

The simulator (:mod:`repro.simulation.runner`) is protocol-agnostic: it
moves envelopes between agents and lets these objects do the thinking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol as TypingProtocol

from repro.mtree.database import Query, QueryResult, VerifiedDatabase


def _copy_meta(value):
    """Recursive copy of the ``meta`` container skeleton.

    Protocol metadata is plain containers (dict/list/set/tuple) over
    immutable leaves -- strings, ints, digests, frozen dataclasses such
    as signatures and epoch deposits.  Copying the containers and
    sharing the leaves gives the same isolation as ``copy.deepcopy`` at
    a fraction of the cost.
    """
    if isinstance(value, dict):
        return {key: _copy_meta(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_meta(item) for item in value]
    if isinstance(value, set):
        return {_copy_meta(item) for item in value}
    if isinstance(value, tuple):
        return tuple(_copy_meta(item) for item in value)
    return value


class DeviationDetected(Exception):
    """Raised by a client the moment it can prove the server deviated.

    Carries the detecting user, the round (filled by the agent), and a
    human-readable reason used in reports and tests.
    """

    def __init__(self, user_id: str, reason: str) -> None:
        super().__init__(f"user {user_id}: {reason}")
        self.user_id = user_id
        self.reason = reason


@dataclass
class ServerState:
    """Everything the server knows: the database plus protocol metadata.

    ``meta`` is a per-protocol scratch space (last signature, operation
    counter, deposited epoch snapshots, ...).  Attacks fork a server by
    deep-copying this object, which is exactly the power an untrusted
    server has: presenting different histories to different users.
    """

    database: VerifiedDatabase
    ctr: int = 0
    meta: dict = field(default_factory=dict)

    def clone(self) -> "ServerState":
        """Independent snapshot: structural tree copy + meta skeleton copy."""
        return ServerState(
            database=self.database.clone(),
            ctr=self.ctr,
            meta=_copy_meta(self.meta),
        )


#: ``extras`` key carrying a request's idempotency token: one id per
#: *logical* operation (``user:nonce:seq``, made by
#: :class:`repro.net.session.SessionCore`), reused verbatim on every
#: resend; the server answers a remembered id from its dedup table
#: instead of executing the query again.
RID_KEY = "rid"

#: ``extras`` key carrying, beside a ``user:nonce:seq`` request id, the
#: seq of the session's oldest operation still in flight: the session
#: has verified every answer before it and will never resend one, so
#: the server's dedup table may forget them.  A request without one
#: leaves the table's window as it is.
ACK_KEY = "ack"

#: how many recent (request id, response) pairs the server remembers
#: per user, and therefore the deepest window a session may open: a
#: reconnecting session resends its whole window verbatim, and every
#: one of those ids must still be answerable without re-execution.
#: Both sides import it -- the server sizes its table with it, the
#: client refuses to open a window above it.
DEDUP_WINDOW = 64


def request_id(message: "Request") -> str | None:
    """The idempotency token of a request, if its sender set one."""
    rid = message.extras.get(RID_KEY)
    return rid if isinstance(rid, str) else None


@dataclass(frozen=True)
class _Message:
    """``extras`` is a dict where a frame is built: a decodable frame
    carrying anything else there is malformed and meets no handler."""

    def __post_init__(self) -> None:
        if not isinstance(self.extras, dict):
            raise TypeError("message extras must be a dict")


@dataclass(frozen=True)
class Request(_Message):
    """A client->server message carrying one query plus protocol extras."""

    query: Query
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Response(_Message):
    """A server->client message: the answer, the VO, protocol extras."""

    result: QueryResult
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Followup(_Message):
    """A client->server message sent *after* verifying a response
    (Protocol I's signed new root digest; Protocol III's deposited
    epoch snapshot piggybacks similarly)."""

    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ErrorReply(_Message):
    """A server->client failure notice carrying no answer.

    Sent in place of a :class:`Response` when the server cannot serve
    the request at all -- e.g. the Protocol I handler timing out while
    waiting for another client's follow-up signature.  An explicit
    frame lets the requester distinguish "server gave up" from a hung
    connection; under the paper's b*-bounded transaction time
    assumption, a trusted server never emits one under honest load.
    """

    reason: str = ""
    extras: dict = field(default_factory=dict)


class ClientContext(TypingProtocol):
    """What a protocol client may do while handling an event.

    Implemented by the simulator's user agent; a thin fake suffices in
    unit tests.  ``has_pending`` says whether an operation is in flight,
    ``issue_internal`` sends a request of the protocol's own (an audit
    fetch, a null turn) that is no workload transaction.
    """

    @property
    def round(self) -> int: ...

    def send_to_server(self, message: Followup) -> None: ...

    def broadcast(self, payload: dict) -> None: ...

    def send_to_user(self, user_id: str, payload: dict) -> None: ...

    def has_pending(self) -> bool: ...

    def issue_internal(self, request: Request) -> None: ...


class ProtocolClient:
    """Base class for per-user protocol state machines.

    Subclasses override the hooks they need; the defaults implement a
    protocol with no verification at all (the naive baseline).
    """

    def __init__(self, user_id: str) -> None:
        self.user_id = user_id
        self.completed_transactions = 0

    # -- transaction lifecycle -------------------------------------------

    def make_request(self, query: Query) -> Request:
        """Wrap a query into the protocol's request message."""
        return Request(query=query)

    def on_issue(self, ctx: ClientContext) -> None:
        """Called by the agent right after a workload query was sent."""

    def handle_response(self, query: Query, response: Response, ctx: ClientContext) -> object:
        """Verify a response; return the (trustworthy) answer.

        Raises :class:`DeviationDetected` on any inconsistency.  May
        send a follow-up message or a broadcast through ``ctx``.
        """
        self.completed_transactions += 1
        return response.result.answer

    # -- synchronisation --------------------------------------------------

    def wants_sync(self) -> bool:
        """Whether this client should announce a sync-up now (checked
        after each completed transaction)."""
        return False

    def announce_sync(self, ctx: ClientContext) -> None:
        """Kick off a synchronisation (Protocol I/II sync-up message)."""

    def may_start_transaction(self, ctx: ClientContext) -> bool:
        """Whether the user may issue a new operation now.

        Protocols return ``False`` mid-sync ("users do not start a new
        transaction between the sync-up message and broadcast") or,
        for the token-passing baseline, while it is not their turn.
        """
        return True

    def handle_broadcast(self, sender: str, payload: dict, ctx: ClientContext) -> None:
        """Process a broadcast-channel message from another user."""

    def on_round(self, ctx: ClientContext) -> None:
        """Called once per simulation round (epoch bookkeeping etc.)."""

    # -- introspection ------------------------------------------------------

    def state_size(self) -> int:
        """Approximate local state footprint in *items* (digests,
        counters), used to check the bounded-local-state desideratum."""
        return 0


class ServerProtocol:
    """Base class for the server half of a protocol."""

    #: Whether responses commit to the database state (root digests,
    #: counters).  Read by the server core's deviation judge: for
    #: committing protocols, serving from a diverged state is itself a
    #: differing response action per Definition 2.1.
    responses_commit_state = True

    #: Whether ``handle_request`` leaves the state blocked until a
    #: follow-up arrives (Protocol I).  Servers that batch use this to
    #: plan signing runs; the simulator keeps using :meth:`blocked`.
    blocks_after_request = False

    #: Whether the protocol understands the defer-followup request
    #: marker (see :mod:`repro.protocols.protocol1`): requests so
    #: stamped do not block the state, letting one follow-up signature
    #: cover a whole batch from the same user.
    supports_deferred_followup = False

    def internal_defect(self, request: Request) -> str | None:
        """Why a request carrying no query (an audit fetch, a null turn,
        a deposit) cannot execute here, or ``None``.  A server refuses
        such a request before the log, so whatever this admits must
        execute without raising."""
        return "this protocol has no internal requests"

    def initialize(self, state: ServerState) -> None:
        """One-time setup of protocol metadata in ``state.meta``."""

    def blocked(self, state: ServerState) -> bool:
        """Whether the server must wait before answering the next query
        on this state (Protocol I waits for the client's signature)."""
        return False

    def handle_request(self, user_id: str, request: Request, state: ServerState, round_no: int) -> Response:
        """Execute the query on ``state`` and build the response."""
        result = state.database.execute(request.query)
        state.ctr += 1
        return Response(result=result)

    def handle_followup(self, user_id: str, followup: Followup, state: ServerState, round_no: int) -> None:
        """Absorb a client follow-up message into server state."""
