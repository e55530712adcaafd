"""Pipelined verifying clients: up to W in-flight operations per user.

A stop-and-wait client pays one full round trip per operation.  Since
every operation carries an idempotent request id (``user:nonce:seq``)
and the server answers each connection's requests in order, a client
can safely keep a *window* of W operations in flight: submit W
requests back to back, then match responses to requests by their
echoed rid and verify each one exactly as the stop-and-wait path does.
Nothing about verification weakens -- every response still carries its
own VO, counter, and attribution, and the register algebra (Protocol
II) or signature chain (Protocol I) is updated per operation in order.

Crash recovery (Protocol II): when the connection drops mid-window the
client reconnects and resends *every* in-flight request verbatim.  The
server's windowed dedup table answers the already-executed ones from
its memory and executes the rest, so the pipeline resumes with
exactly-once application -- this is why the server's dedup window must
be at least as deep as the client's pipeline.

Protocol I batching: the async server turns a run of W pipelined
requests from one user into a *signing run* -- only the last response
carries ``batch_final=True``.  How a run is verified (signed head, then
hash-chain membership) is
:class:`~repro.protocols.protocol1.SignedRootChain`'s business, the same
object the stop-and-wait client holds; the client signs when the step
hands it a digest, so RSA work drops from one sign + one verify per
operation to at most one of each per batch.
"""

from __future__ import annotations

import time
from collections import deque

from repro.mtree.database import Query
from repro.net.client import (
    IntegrityError,
    RemoteClient,
    RemoteClientP1,
    TransientNetworkError,
    _expect_response,
)
from repro.net.framing import FramingError, recv_message, send_messages
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.protocols.base import Request, Response
from repro.wire import WireError

#: default pipeline window; the server's dedup window (256) must stay
#: comfortably above whatever is used here.
DEFAULT_WINDOW = 16

_RESENDS = _registry.counter(
    "net.pipeline_resends", "in-flight requests resent after a reconnect")
_WINDOW_FULL = _registry.counter(
    "net.pipeline_window_full", "submissions that had to drain a slot first")


class _Window:
    """The window both pipelined clients keep: operations submitted and
    not yet answered, oldest first; the newest ``_unsent`` of them are
    held, not yet written.  The window is written with one ``sendall``
    when it fills or when the client first blocks on a read: the sockets
    are no-delay, so each write is its own segment, and one write lets
    the server find the whole window queued.  The client class supplies
    ``_drain_one`` and ``_flush`` (its reaction to a failed write)."""

    def _open_window(self, window: int) -> None:
        if window < 1:
            raise ValueError("pipeline window must be at least 1")
        self.window = window
        self._inflight: deque[tuple[Query, Request]] = deque()
        self._unsent = 0

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def submit(self, query: Query) -> list:
        """Queue one operation; returns answers completed on the way.

        Blocks only when the window is full (drains the oldest slot) or
        the transport needs recovery.  The request is written no later
        than the next blocking read or a full window.
        """
        drained = []
        while len(self._inflight) >= self.window:
            if _obs.enabled:
                _WINDOW_FULL.inc(user=self.user_id)
            drained.append(self._drain_one())
        request = Request(query=query, extras={
            "user": self.user_id, "rid": self._rid(self._seq)})
        self._seq += 1
        # A full window goes out now: it is then on the wire while the
        # caller submits to, or drains, another session.
        self._inflight.append((query, request))
        self._unsent += 1
        if len(self._inflight) >= self.window:
            self._flush()
        return drained

    def _write_unsent(self) -> None:
        if self._unsent:
            held = list(self._inflight)[-self._unsent:]
            send_messages(self._sock, [request for _query, request in held])
            self._unsent = 0

    def _answered(self, response: Response) -> tuple[Query, Request]:
        """The operation ``response`` answers: the oldest in flight,
        which an echoed request id must name."""
        query, request = self._inflight.popleft()
        echoed = response.extras.get("rid")
        if echoed is not None and echoed != request.extras["rid"]:
            exc = IntegrityError(
                f"response names request id {echoed!r} but the oldest "
                f"in-flight operation is {request.extras['rid']!r}: the "
                "server reordered or dropped operations within one "
                "connection")
            self._on_detection(exc, request)
            raise exc
        return query, request

    def drain(self) -> list:
        """Complete (and verify) every in-flight operation, in order."""
        answers = []
        while self._inflight:
            answers.append(self._drain_one())
        return answers

    def execute(self, query: Query) -> object:
        """Stop-and-wait compatibility: submit, then drain everything."""
        answers = self.submit(query)
        answers.extend(self.drain())
        return answers[-1]


class PipelinedRemoteClient(_Window, RemoteClient):
    """A Protocol II session keeping up to ``window`` operations in flight.

    ``submit(query)`` queues an operation (draining the oldest in-flight
    one first if the window is full) and returns any answers that
    completed as a side effect; ``drain()`` completes everything still
    in flight.  ``execute()`` degrades to submit-and-drain, so the
    convenience verbs (``get``/``put``/...) still work stop-and-wait.
    """

    def __init__(self, *args, window: int = DEFAULT_WINDOW, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._open_window(window)

    def _flush(self) -> None:
        """Put every held frame on the wire, reconnecting if need be."""
        if self._sock is None:
            self._recover_connection()
            return
        try:
            self._write_unsent()
        except OSError:
            self._drop_connection()
            self._recover_connection()

    def _drain_one(self) -> object:
        policy = self._retry
        failures = 0
        while True:
            try:
                self._flush()
                self._capture.clear()
                message = recv_message(self._sock, capture=self._capture)
                if message is None:
                    raise FramingError("server closed the connection")
                break
            except (OSError, FramingError, WireError) as exc:
                self._drop_connection()
                failures += 1
                if failures >= policy.attempts:
                    raise TransientNetworkError(
                        f"pipelined operation failed after {failures} "
                        f"connection failure(s): {exc}") from exc
                time.sleep(policy.delay(failures - 1))
        response = _expect_response(message)
        answer = self._absorb(*self._answered(response), response)
        if self._anchor_path is not None:
            self.save_anchor()
        return answer

    def _recover_connection(self) -> None:
        """Reconnect and resend every in-flight request verbatim, held
        ones included, in one write.

        Any of them may or may not have executed before the connection
        died; identical rids make the resend idempotent (the server's
        windowed dedup answers executed ones from memory), so the whole
        window is re-answered in order on the new connection.  Raises
        ``TransientNetworkError`` when the retry budget runs out.
        """
        policy = self._retry
        last_error: Exception | None = None
        for attempt in range(policy.attempts):
            try:
                self._connect()
                self._unsent = len(self._inflight)
                self._write_unsent()
                if _obs.enabled:
                    _RESENDS.inc(len(self._inflight), user=self.user_id)
                return
            except OSError as exc:
                last_error = exc
                self._drop_connection()
                if attempt + 1 < policy.attempts:
                    time.sleep(policy.delay(attempt))
        raise TransientNetworkError(
            f"could not recover the pipelined connection after "
            f"{policy.attempts} attempt(s): {last_error}") from last_error

    def close(self) -> None:
        # Draining on close would mask errors; callers drain explicitly.
        super().close()


class PipelinedRemoteClientP1(_Window, RemoteClientP1):
    """A Protocol I session with batched signature verification.

    The async server answers a window of W requests as one signing run:
    intermediate responses carry ``batch_final=False`` and the stored
    (stale) head signature; only the final one demands the client's
    follow-up signature.  The session's
    :class:`~repro.protocols.protocol1.SignedRootChain` verifies the
    run -- RSA at the batch head, hash-chain membership inside it, every
    VO independently -- so a tampered answer or root anywhere in the run
    raises :class:`~repro.net.client.IntegrityError` (with an evidence
    bundle when configured) exactly as the unbatched client would.
    ``followups_sent`` against the batching server is ~operations/W
    instead of ``operations``.

    No transparent reconnect, matching :class:`RemoteClientP1`: a lost
    connection mid-run surfaces as ``TransientNetworkError``.
    """

    def __init__(self, host: str, port: int, user_id: str,
                 signer, verifier, order: "int | StoreSpec" = 8,
                 window: int = DEFAULT_WINDOW, **kwargs) -> None:
        super().__init__(host, port, user_id, signer, verifier,
                         order=order, **kwargs)
        self._open_window(window)

    def _flush(self) -> None:
        try:
            self._write_unsent()
        except (OSError, FramingError) as exc:
            raise TransientNetworkError(
                f"Protocol I pipelined submit failed in transit: {exc}") from exc

    def _drain_one(self) -> object:
        self._flush()
        try:
            self._capture.clear()
            message = recv_message(self._sock, capture=self._capture)
            if message is None:
                raise FramingError("server closed the connection")
        except (OSError, FramingError) as exc:
            raise TransientNetworkError(
                f"Protocol I pipelined operation failed in transit: "
                f"{exc}") from exc
        response = _expect_response(message)
        return self._absorb(*self._answered(response), response)
