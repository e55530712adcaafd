"""Shared response-verification logic used by all protocol clients.

Every protocol's query step boils down to: take the server's answer and
verification object, derive the (old, new) root digests that the VO
vouches for, and authenticate the old root through protocol state
(Protocol I: the previous user's signature; Protocols II/III: the XOR
register algebra).  This module implements the first half -- deriving
roots and the trustworthy answer from ``v(Q, D)`` -- once, so the
protocols only differ in how they authenticate roots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest
from repro.mtree.database import (
    DeleteQuery,
    Query,
    QueryResult,
    RangeQuery,
    ReadQuery,
    WriteQuery,
)
from repro.mtree.forest import (
    ForestRangeProof,
    ForestReadProof,
    ForestUpdateProof,
    StoreSpec,
    derive_forest_update_roots,
    implied_root_for_forest_range,
    implied_root_for_forest_read,
)
from repro.mtree.proofs import (
    ProofError,
    RangeProof,
    ReadProof,
    UpdateProof,
    derive_update_roots,
    implied_root_for_range,
    implied_root_for_read,
)
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


@dataclass(frozen=True)
class VerifiedOutcome:
    """What a VO plus answer, checked for internal consistency, yields."""

    old_root: Digest
    new_root: Digest
    answer: object

    @property
    def is_update(self) -> bool:
        return self.old_root != self.new_root


def derive_outcome(
    query: Query, result: QueryResult, order: int | StoreSpec
) -> VerifiedOutcome:
    """Derive roots and answer from a response, or raise ProofError.

    For reads the old and new roots coincide; for updates the new root
    is *recomputed by the client* from the pre-update VO, never taken
    from the server.  ``order`` may be a bare B+-tree order (single
    tree) or a full :class:`StoreSpec`; in sharded mode the proofs must
    be the two-level forest kinds and the derived roots are top roots.
    """
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


def _derive_outcome(
    query: Query, result: QueryResult, order: int | StoreSpec
) -> VerifiedOutcome:
    spec = StoreSpec.coerce(order)
    if spec.sharded:
        return _derive_forest_outcome(query, result, spec)
    order = spec.order
    proof = result.proof
    if isinstance(query, ReadQuery):
        if not isinstance(proof, ReadProof):
            raise ProofError("read query answered with a non-read proof")
        root = implied_root_for_read(proof, query.key)
        if result.answer != proof.value:
            raise ProofError("server answer disagrees with its own proof")
        return VerifiedOutcome(old_root=root, new_root=root, answer=proof.value)
    if isinstance(query, RangeQuery):
        if not isinstance(proof, RangeProof):
            raise ProofError("range query answered with a non-range proof")
        if (proof.low, proof.high) != (query.low, query.high):
            raise ProofError("range proof covers a different range")
        root = implied_root_for_range(proof)
        if tuple(result.answer) != proof.entries:
            raise ProofError("server answer disagrees with its own proof")
        return VerifiedOutcome(old_root=root, new_root=root, answer=proof.entries)
    if isinstance(query, WriteQuery):
        if not isinstance(proof, UpdateProof) or proof.operation != "insert":
            raise ProofError("write query answered with a non-insert proof")
        old_root, new_root = derive_update_roots(proof, order, query.key, query.value)
        return VerifiedOutcome(old_root=old_root, new_root=new_root, answer=None)
    if isinstance(query, DeleteQuery):
        if not isinstance(proof, UpdateProof) or proof.operation != "delete":
            raise ProofError("delete query answered with a non-delete proof")
        old_root, new_root = derive_update_roots(proof, order, query.key)
        return VerifiedOutcome(old_root=old_root, new_root=new_root, answer=None)
    raise ProofError(f"unknown query type {type(query).__name__}")


def _derive_forest_outcome(
    query: Query, result: QueryResult, spec: StoreSpec
) -> VerifiedOutcome:
    """Sharded stores answer with two-level proofs; roots are top roots."""
    proof = result.proof
    if isinstance(query, ReadQuery):
        if not isinstance(proof, ForestReadProof):
            raise ProofError("read query answered with a non-read proof")
        root = implied_root_for_forest_read(proof, query.key, spec)
        if result.answer != proof.inner.value:
            raise ProofError("server answer disagrees with its own proof")
        return VerifiedOutcome(old_root=root, new_root=root, answer=proof.inner.value)
    if isinstance(query, RangeQuery):
        if not isinstance(proof, ForestRangeProof):
            raise ProofError("range query answered with a non-range proof")
        if (proof.low, proof.high) != (query.low, query.high):
            raise ProofError("range proof covers a different range")
        root = implied_root_for_forest_range(proof, spec)
        if tuple(result.answer) != proof.entries:
            raise ProofError("server answer disagrees with its own proof")
        return VerifiedOutcome(old_root=root, new_root=root, answer=proof.entries)
    if isinstance(query, WriteQuery):
        if not isinstance(proof, ForestUpdateProof) or proof.operation != "insert":
            raise ProofError("write query answered with a non-insert proof")
        old_root, new_root = derive_forest_update_roots(
            proof, spec, query.key, query.value)
        return VerifiedOutcome(old_root=old_root, new_root=new_root, answer=None)
    if isinstance(query, DeleteQuery):
        if not isinstance(proof, ForestUpdateProof) or proof.operation != "delete":
            raise ProofError("delete query answered with a non-delete proof")
        old_root, new_root = derive_forest_update_roots(proof, spec, query.key)
        return VerifiedOutcome(old_root=old_root, new_root=new_root, answer=None)
    raise ProofError(f"unknown query type {type(query).__name__}")
