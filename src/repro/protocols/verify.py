"""Shared response-verification logic used by all protocol clients.

Every protocol's query step boils down to: take the server's answer and
verification object, derive the (old, new) root digests that the VO
vouches for, and authenticate the old root through protocol state
(Protocol I: the previous user's signature; Protocols II/III: the XOR
register algebra).  The first half -- deriving roots and the
trustworthy answer from ``v(Q, D)`` -- is :func:`repro.mtree.derive_outcome`;
this module instruments it and holds what else the protocol steps share,
so the protocols only differ in how they authenticate roots.
"""

from __future__ import annotations

from repro.mtree.database import Query, QueryResult, VerifiedOutcome
from repro.mtree.database import derive_outcome as _derive_outcome
from repro.mtree.forest import StoreSpec
from repro.mtree.proofs import ProofError
from repro.obs import runtime as _obs
from repro.obs.metrics import BYTE_BUCKETS, REGISTRY as _registry
from repro.protocols.base import DeviationDetected, Response
from repro.obs.tracing import TRACER as _tracer

_OPS_VERIFIED = _registry.counter(
    "protocol.ops_verified", "responses whose VO checked out, by query kind")
_VERIFY_FAILURES = _registry.counter(
    "protocol.verify_failures", "responses rejected by VO verification")
_VO_BYTES = _registry.histogram(
    "protocol.vo_bytes", "verification object size on the wire",
    buckets=BYTE_BUCKETS)


def derive_outcome(
    query: Query, result: QueryResult, order: int | StoreSpec
) -> VerifiedOutcome:
    """:func:`repro.mtree.database.derive_outcome` -- the rule itself,
    written once, there -- under the ``protocol.verify_vo`` span and the
    verified / rejected / VO-size counters.  ``order`` is the store's
    spec, or a bare order: a forest of one."""
    order = StoreSpec.coerce(order)
    if not _obs.enabled:
        return _derive_outcome(query, result, order)
    kind = type(query).__name__
    with _tracer.span("protocol.verify_vo"):
        try:
            outcome = _derive_outcome(query, result, order)
        except ProofError:
            _VERIFY_FAILURES.inc(kind=kind)
            raise
    _OPS_VERIFIED.inc(kind=kind)
    # Lazy import: repro.wire reaches back into the protocol modules.
    from repro.wire import WireError, wire_size

    try:
        _VO_BYTES.observe(wire_size(result.proof), kind=kind)
    except WireError:  # pragma: no cover - test-local proof stand-ins
        pass
    return outcome


def verified_outcome(
    user_id: str, query: Query, response: Response, order: int | StoreSpec
) -> VerifiedOutcome:
    """:func:`derive_outcome` as a protocol step sees it: a VO that
    does not check out is a deviation by the server."""
    try:
        return derive_outcome(query, response.result, order)
    except ProofError as exc:
        raise DeviationDetected(
            user_id, f"verification object rejected: {exc}") from exc


def reject_regression(user_id: str, ctr: int, gctr: int) -> None:
    """The per-user counter rule of all three protocols (Protocol II
    step 4): a response may not present a counter older than one this
    user has already advanced.  Without it two transitions out of the
    same (state, ctr) could be validated by the *same* user, breaking
    the in-degree argument of Lemma 4.1."""
    if ctr < gctr:
        raise DeviationDetected(
            user_id,
            f"operation counter regressed: server presented ctr={ctr} "
            f"after this user already advanced it to {gctr}")


def register(name: str) -> property:
    """A client attribute that is a register of its ``state`` object:
    ``client.gctr`` reads and assigns ``client.state.gctr``."""
    return property(lambda self: getattr(self.state, name),
                    lambda self, value: setattr(self.state, name, value))
