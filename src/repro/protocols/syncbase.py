"""The simulator's session client, and the broadcast-channel
synchronisation Protocols I and II add to it.

:class:`SessionClient` is the session half every verifying protocol's
simulated user shares: its answers go through the deployment's session
core (:class:`~repro.net.session.SessionCore`, opened by the subclass
with :meth:`SessionClient._open_session`) -- the TCP sessions' window,
request ids and rules, with one operation in flight -- and a verdict
becomes :class:`~repro.protocols.base.DeviationDetected`.  Protocol III
(:class:`~repro.protocols.protocol3.Protocol3Client`) adds its audit
schedule and deposits to it; :class:`SyncingClient` adds the sync
choreography Protocols I and II run (Section 4.2/4.3):

1. the first user to complete k operations since the last successful
   sync announces a *sync-up* on the broadcast channel;
2. every user, after completing its current transaction (issuing no
   new ones meanwhile), broadcasts its protocol registers;
3. once a user holds everyone's registers it evaluates its own success
   predicate and broadcasts the verdict;
4. if *no* user's predicate holds, everyone terminates and reports an
   error -- the server deviated.

Subclasses provide only the payload (:meth:`SyncingClient._sync_payload`)
and the predicate (:meth:`SyncingClient._evaluate_sync`); Protocol I
contributes operation counts, Protocol II contributes XOR registers.
"""

from __future__ import annotations

import hashlib

from repro.net.session import IntegrityError, ServerBusyError, SessionCore
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.protocols.base import (
    ClientContext, DeviationDetected, ProtocolClient, Request, Response)
from repro.mtree.database import Query

_SYNCS_STARTED = _registry.counter(
    "protocol.syncs_started", "sync-ups announced on the broadcast channel")
_SYNCS_PASSED = _registry.counter(
    "protocol.syncs_passed", "completed syncs where some user's predicate held")
_SYNCS_FAILED = _registry.counter(
    "protocol.syncs_failed", "completed syncs with no satisfiable predicate (deviation)")


class SessionClient(ProtocolClient):
    """A protocol client whose answers go through a session core."""

    def _open_session(self, state, order, **options) -> None:
        """Run this user's responses through a session core over
        ``state``.  Its request-id nonce depends only on the user id, so
        a run replays and two runs' views compare."""
        nonce = hashlib.sha256(self.user_id.encode()).hexdigest()[:8]
        self.core = SessionCore(self.user_id, state, order, nonce=nonce,
                                **options)

    @property
    def state(self):
        """The session core's protocol state object."""
        return self.core.state

    def _request_extras(self) -> dict | None:
        """What the next request carries beside the session's fields."""
        return None

    def _settled(self, ctx: ClientContext, verified: bool) -> None:
        """The operation in flight left the window: ``verified``, or
        refused."""

    def make_request(self, query: Query) -> Request:
        return self.core.submit(query, self._request_extras())

    def handle_response(self, query: Query, response: Response, ctx: ClientContext) -> object:
        """The core's rules on ``response`` (the in-flight operation's
        answer), the follow-up out.  A refusal
        (:class:`~repro.net.session.ServerBusyError`) ends the
        transaction uncompleted and propagates."""
        try:
            answer, followup = self.core.receive(response)
        except IntegrityError as exc:
            raise DeviationDetected(self.user_id, str(exc)) from exc
        except ServerBusyError:
            self._settled(ctx, False)
            raise
        if followup is not None:
            ctx.send_to_server(followup)
        if query is not None:
            self.completed_transactions += 1
        self._settled(ctx, True)
        return answer


class SyncingClient(SessionClient):
    """A session client with the k-operation broadcast sync machinery."""

    def __init__(self, user_id: str, user_ids: list[str], k: int) -> None:
        super().__init__(user_id)
        if k < 1:
            raise ValueError("sync period k must be at least 1")
        self.user_ids = sorted(user_ids)
        if user_id not in self.user_ids:
            raise ValueError(f"{user_id!r} missing from the user list")
        self.k = k
        self.ops_since_sync = 0
        self._sync_seq = 0
        # Per active sync tag: who sent data / verdicts.  ``_entered``
        # tracks which syncs we have joined (contributed or deferred):
        # with out-of-order delivery another user's sync-data can arrive
        # before the sync-request, so bucket existence alone must not be
        # mistaken for having joined.
        self._sync_data: dict[str, dict[str, dict]] = {}
        self._sync_verdicts: dict[str, dict[str, bool]] = {}
        self._entered: set[str] = set()
        self._deferred_data: set[str] = set()
        # Tags of completed syncs: with out-of-order delivery, stragglers
        # from a finished sync must not resurrect it as a ghost that can
        # never complete.
        self._finished: set[str] = set()

    # -- hooks for subclasses ------------------------------------------------

    def _settled(self, ctx: ClientContext, verified: bool) -> None:
        """"After completing their current transactions": count a
        verified operation, then send the sync data owed while the
        transaction was in flight (through :meth:`_send_sync_data`, the
        hook a tree-aggregated sync overrides)."""
        if verified:
            self.ops_since_sync += 1
        for tag in sorted(self._deferred_data):
            self._send_sync_data(tag, ctx)
        self._deferred_data.clear()

    def _sync_payload(self) -> dict:
        """The registers this user contributes to a sync."""
        raise NotImplementedError

    def _evaluate_sync(self, data: dict[str, dict]) -> bool:
        """This user's success predicate over everyone's registers."""
        raise NotImplementedError

    # -- transaction lifecycle --------------------------------------------

    def wants_sync(self) -> bool:
        return self.ops_since_sync >= self.k and not self._sync_data

    def may_start_transaction(self, ctx: ClientContext) -> bool:
        """No new transactions between a sync-up and our data broadcast."""
        return not self._sync_data

    # -- sync choreography ----------------------------------------------------

    def announce_sync(self, ctx: ClientContext) -> None:
        self._sync_seq += 1
        if _obs.enabled:
            _SYNCS_STARTED.inc(user=self.user_id)
        tag = f"{self.user_id}#{self._sync_seq}"
        ctx.broadcast({"type": "sync-request", "tag": tag})
        self._enter_sync(tag, ctx)

    def handle_broadcast(self, sender: str, payload: dict, ctx: ClientContext) -> None:
        kind = payload.get("type")
        if kind == "sync-request":
            self._enter_sync(payload["tag"], ctx)
        elif kind == "sync-data":
            self._receive_sync_data(payload["tag"], sender, payload["data"], ctx)
        elif kind == "sync-verdict":
            self._receive_sync_verdict(payload["tag"], sender, payload["success"], ctx)

    def _enter_sync(self, tag: str, ctx: ClientContext) -> None:
        if tag in self._entered or tag in self._finished:
            return
        self._entered.add(tag)
        self._sync_data.setdefault(tag, {})
        self._sync_verdicts.setdefault(tag, {})
        if ctx.has_pending():
            self._deferred_data.add(tag)
        else:
            self._send_sync_data(tag, ctx)

    def _send_sync_data(self, tag: str, ctx: ClientContext) -> None:
        payload = self._sync_payload()
        ctx.broadcast({"type": "sync-data", "tag": tag, "data": payload})
        self._receive_sync_data(tag, self.user_id, payload, ctx)

    def _receive_sync_data(self, tag: str, sender: str, data: dict, ctx: ClientContext) -> None:
        if tag in self._finished:
            return
        if sender != self.user_id:
            # A data message is also an implicit sync-up (the request
            # may still be in flight behind it).
            self._enter_sync(tag, ctx)
        bucket = self._sync_data.setdefault(tag, {})
        self._sync_verdicts.setdefault(tag, {})
        bucket[sender] = data
        if len(bucket) == len(self.user_ids) and self.user_id in bucket:
            success = self._evaluate_sync(bucket)
            ctx.broadcast({"type": "sync-verdict", "tag": tag, "success": success})
            self._receive_sync_verdict(tag, self.user_id, success, ctx)

    def _receive_sync_verdict(self, tag: str, sender: str, success: bool, ctx: ClientContext) -> None:
        if tag in self._finished:
            return
        if sender != self.user_id:
            self._enter_sync(tag, ctx)
        verdicts = self._sync_verdicts.setdefault(tag, {})
        verdicts[sender] = success
        if len(verdicts) < len(self.user_ids):
            return
        all_verdicts = list(verdicts.values())
        self._finished.add(tag)
        self._sync_data.pop(tag, None)
        self._sync_verdicts.pop(tag, None)
        self._entered.discard(tag)
        self._deferred_data.discard(tag)
        if not any(all_verdicts):
            if _obs.enabled:
                _SYNCS_FAILED.inc(user=self.user_id)
            raise DeviationDetected(
                self.user_id,
                "synchronisation failed: no user's registers are consistent "
                "with a single serial execution",
            )
        if _obs.enabled:
            _SYNCS_PASSED.inc(user=self.user_id)
        self.ops_since_sync = 0

    def state_size(self) -> int:
        # Registers + counters; sync buffers are transient and bounded
        # by the (fixed) number of users.
        return 4
