"""Forensic evidence bundles: provable records of server deviations.

When a verifying client raises :class:`~repro.net.client.IntegrityError`
the exception alone is ephemeral -- useful to the process that caught
it, worthless to anyone else.  Following the accountability line of
SUNDR and PeerReview, this module serialises everything a third party
needs to re-run the failed verification *offline*:

* the verbatim offending frames (the request as encoded, the response
  payload exactly as it came off the socket -- not a re-encoding);
* the client's protocol state object as it stood immediately before
  the operation (Protocol I: counters *and* the signing-run head, so an
  in-run response replays by chain membership as it was judged live;
  Protocol III: the epoch, the clock's window, the audit in flight,
  the audited epochs' ends, the users and the epoch length);
* the trust-anchor lineage (initial tag and, when the client persists
  an anchor file, its raw contents);
* for Protocols I and III, the public-key directory the signatures
  were checked against, so a forged-signature verdict is reproducible
  without the PKI.

A bundle is a single file: an ASCII magic line followed by one
wire-encoded dict (the codec already covers every type involved, and
"equal objects encode identically" makes bundles canonical).

:func:`reverify` restores the session core the client ran
(:class:`~repro.net.session.SessionCore`) to the recorded pre-operation
``client_state`` with the recorded request in flight, hands it the
recorded response -- every rule the live session applied, the
request-id echo included -- and answers the only question that matters after
the fact: *is this bundle evidence of a genuine deviation, or would the
response have verified cleanly?*  Four bundle kinds exist:

``response``
    a per-operation verification failure (bad VO, counter regression,
    illegitimate signature, malformed extras);
``sync``
    a failed Protocol II synchronisation predicate over exchanged
    registers;
``count-sync``
    a failed Protocol I count-sync predicate over exchanged counts;
``replication``
    a cross-replica divergence proven by witness attestations
    (:mod:`repro.net.replication`), naming the deviating replica --
    the primary (fork/equivocation) or a fabricating witness, and
    re-judged by the rule the live quorum check runs
    (:func:`~repro.net.replication.classify`,
    :func:`~repro.net.replication.contradiction`).  Unlike ``response``
    bundles, the signed attestation frames ARE the proof: a frame that
    fails to decode or that the rule calls noise makes the bundle prove
    *nothing* (``genuine=False``).
"""

from __future__ import annotations

import os

from repro.crypto import rsa
from repro.crypto.hashing import Digest
from repro.crypto.signatures import Verifier
from repro.mtree.forest import StoreSpec
from repro.mtree.proofs import ProofError
from repro.net.replication import (
    FABRICATION,
    NOISE,
    PRIMARY_ID,
    REASONS,
    WITNESS_FABRICATION,
    classify,
    contradiction,
)
from repro.net.session import IntegrityError, ServerBusyError, SessionCore
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.protocols.base import Request
from repro.protocols.protocol1 import SignedRootChain, count_sync_check
from repro.protocols.protocol2 import XorRegisters, sync_check
from repro.protocols.protocol3 import EpochRegisters
from repro.protocols.verify import derive_outcome
from repro.storage.atomic import atomic_write
from repro.wire import CODEC_VERSION, WireError, decode, encode

_BUNDLES = _registry.counter(
    "net.evidence_bundles", "forensic evidence bundles written to disk")

_MAGIC = b"cvs-evidence-bundle 1\n"


class EvidenceError(Exception):
    """The file is not a readable evidence bundle."""


# -- serialisation ---------------------------------------------------------

def write_bundle(path: str, bundle: dict) -> str:
    """Serialise a bundle atomically and durably; returns ``path``.

    Evidence is the artefact a dispute is settled with -- it gets the
    same tmp + fsync + rename + dir-fsync treatment as a snapshot, so a
    power cut right after "evidence written" cannot leave a half bundle
    (or no bundle) behind.
    """
    payload = encode(bundle)
    atomic_write(path, _MAGIC + payload)
    if _obs.enabled:
        _BUNDLES.inc(kind=bundle.get("kind", "?"))
    return path


def read_bundle(path: str) -> dict:
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(_MAGIC):
        raise EvidenceError(f"{path!r} is not an evidence bundle")
    try:
        bundle = decode(blob[len(_MAGIC):])
    except WireError as exc:
        raise EvidenceError(f"corrupt evidence bundle: {exc}") from exc
    if not isinstance(bundle, dict) or "kind" not in bundle:
        raise EvidenceError("evidence bundle payload is not a bundle dict")
    if bundle.get("codec") != CODEC_VERSION:
        raise EvidenceError(
            f"bundle written by codec {bundle.get('codec')!r}, "
            f"this decoder is {CODEC_VERSION}")
    return bundle


# -- bundle builders -------------------------------------------------------

def anchor_lineage(initial_tag: Digest | None,
                   anchor_path: str | None) -> dict:
    contents = None
    if anchor_path is not None and os.path.isfile(anchor_path):
        try:
            with open(anchor_path, "r", encoding="ascii") as handle:
                contents = handle.read()
        except (OSError, UnicodeDecodeError):
            contents = None
    return {
        "initial_tag": initial_tag,
        "anchor_path": anchor_path,
        "anchor_file": contents,
    }


def key_directory(verifier) -> dict:
    """Public keys as hex ints -- self-contained, codec-friendly."""
    return {
        signer_id: {"modulus": format(key.modulus, "x"),
                    "exponent": key.exponent}
        for signer_id, key in verifier.directory().items()
    }


def response_bundle(*, protocol: str, user_id: str, reason: str,
                    op_index: int, order: int | dict,
                    request_frame: bytes, response_frame: bytes,
                    client_state: dict, anchor: dict,
                    verifier_keys: dict | None = None) -> dict:
    return {
        "codec": CODEC_VERSION,
        "kind": "response",
        "protocol": protocol,
        "user": user_id,
        "reason": reason,
        "op_index": op_index,
        "order": order,
        "request_frame": request_frame,
        "response_frame": response_frame,
        "client_state": client_state,
        "anchor": anchor,
        "verifier_keys": verifier_keys or {},
    }


def sync_bundle(initial_root: Digest,
                registers: dict[str, dict]) -> dict:
    return {
        "codec": CODEC_VERSION,
        "kind": "sync",
        "protocol": "II",
        "user": "*",
        "reason": "synchronisation predicate failed over exchanged registers",
        "initial_root": initial_root,
        "registers": {user: dict(entry)
                      for user, entry in registers.items()},
    }


def count_sync_bundle(counts: dict[str, dict]) -> dict:
    return {
        "codec": CODEC_VERSION,
        "kind": "count-sync",
        "protocol": "I",
        "user": "*",
        "reason": "count-sync predicate failed over exchanged counts",
        "counts": {user: dict(entry) for user, entry in counts.items()},
    }


def replication_bundle(*, mode: str, deviant: str, user_id: str, ctr: int,
                       reason: str, attestations: list[bytes],
                       order: int | dict, primary: str = PRIMARY_ID,
                       expected_root: Digest | None = None,
                       request_frame: bytes = b"",
                       response_frame: bytes = b"",
                       verifier_keys: dict | None = None) -> dict:
    """A cross-replica divergence, with the replica it implicates.

    ``mode`` is one of ``witness-fabrication`` (a valid witness
    signature over a deposit ``primary`` never signed),
    ``primary-equivocation`` (two valid primary-signed deposits at one
    counter with different roots), or ``primary-fork`` (a valid
    primary-signed deposit contradicting the root this client derived
    from the operation's own VO, whose frames ride along).
    ``attestations`` are canonical wire encodings of the
    :class:`~repro.net.replication.RootAttestation` frames that prove
    the claim; ``verifier_keys`` carries the replica group's public
    keys so the verdict reproduces offline without the PKI.
    """
    return {
        "codec": CODEC_VERSION,
        "kind": "replication",
        "protocol": "repl",
        "user": user_id,
        "reason": reason,
        "mode": mode,
        "deviant": deviant,
        "primary": primary,
        "ctr": ctr,
        "attestation_frames": list(attestations),
        "expected_root": expected_root,
        "request_frame": request_frame,
        "response_frame": response_frame,
        "order": order,
        "verifier_keys": verifier_keys or {},
    }


# -- offline re-verification ----------------------------------------------

def reverify(bundle: dict) -> tuple[bool, str]:
    """Re-run the recorded verification; ``(genuine, why)``.

    ``genuine=True`` means the bundle proves a deviation: the captured
    material fails verification against the recorded pre-operation
    state, exactly as it did live.  ``genuine=False`` means the
    material verifies cleanly -- the bundle does *not* implicate the
    server (e.g. someone fabricated or mixed up a bundle).
    """
    kind = bundle.get("kind")
    if kind == "sync":
        return _reverify_sync(bundle)
    if kind == "count-sync":
        return _reverify_count_sync(bundle)
    if kind == "response":
        return _reverify_response(bundle)
    if kind == "replication":
        return _reverify_replication(bundle)
    raise EvidenceError(f"unknown bundle kind {kind!r}")


def _reverify_sync(bundle: dict) -> tuple[bool, str]:
    if sync_check(bundle["initial_root"], bundle["registers"]):
        return False, "registers satisfy the sync predicate"
    return True, "no serial history explains the exchanged registers"


def _reverify_count_sync(bundle: dict) -> tuple[bool, str]:
    if count_sync_check(bundle["counts"]):
        return False, "counts satisfy the count-sync predicate"
    return True, "no user's gctr accounts for the total of local counters"


#: each protocol's state object, built bare from the user, the bundle's
#: keys and the order; the recorded ``client_state`` restores the rest
_STATES = {
    "I": SignedRootChain,
    "II": lambda user, _keys, order: XorRegisters(user, order),
    # restore() overwrites every field but the verifier.
    "III": lambda user, keys, order: EpochRegisters(
        user, keys, order, user_ids=(), epoch_length=0, initial_tag=None,
        clock=None),
}


def _reverify_response(bundle: dict) -> tuple[bool, str]:
    """Replay rule: the session core the client ran, restored to the
    state it recorded before the operation with the recorded request in
    flight, receives the recorded response -- the bundle is genuine iff
    the core raises its verdict.  Every rule the live session applied
    applies again: the request-id echo, the not-a-response rule, and a
    Protocol I signing run in progress judged by chain membership."""
    try:
        request = decode(bundle["request_frame"])
        response = decode(bundle["response_frame"])
    except WireError as exc:
        return True, f"offending frame does not decode: {exc}"
    if not isinstance(request, Request):
        return True, "recorded frames are not a protocol request and response"
    if bundle["protocol"] not in _STATES:
        raise EvidenceError(f"no response bundle of protocol {bundle['protocol']!r}")
    user, order = bundle["user"], StoreSpec.coerce(bundle["order"])
    state = _STATES[bundle["protocol"]](user, _bundle_verifier(bundle), order)
    core = SessionCore(user, state, order, protocol=bundle["protocol"],
                       counted=False)
    core.restore(bundle["client_state"], [request])
    try:
        core.receive(response, bundle["response_frame"])
    except IntegrityError as exc:
        return True, str(exc)
    except ServerBusyError:
        return False, "the server refused the operation: a refusal accuses nobody"
    return False, "response verifies cleanly against the recorded state"


def _bundle_verifier(bundle: dict) -> Verifier:
    """The public-key directory a bundle carries, as a :class:`Verifier`."""
    return Verifier({
        signer_id: rsa.PublicKey(modulus=int(info["modulus"], 16),
                                 exponent=int(info["exponent"]))
        for signer_id, info in bundle.get("verifier_keys", {}).items()})


def _reverify_replication(bundle: dict) -> tuple[bool, str]:
    """Re-judge a cross-replica divergence with the quorum check's rule:
    ``classify`` each recorded attestation, ``contradiction`` over the
    valid ones.  Genuine iff the rule returns the bundle's mode and
    deviant.  Unlike a ``response`` bundle's, these frames are the
    *proof*: one that does not decode, or is noise, implicates nobody.
    A bundle without a ``primary`` is judged against ``PRIMARY_ID``."""
    primary, ctr = bundle.get("primary", PRIMARY_ID), bundle.get("ctr")
    expected = bundle.get("expected_root")
    verifier, valid, verdict = _bundle_verifier(bundle), [], None
    try:
        for frame in bundle.get("attestation_frames", ()):
            attestation = decode(frame)
            # A bundle does not record whom the client asked: the
            # witness the attestation names stands in.
            witness = getattr(attestation, "witness_id", None)
            kind = classify(attestation, ctr, witness, primary, verifier)
            if kind == NOISE:
                return False, "an attestation is noise: it proves nothing"
            if kind == FABRICATION:
                verdict = (WITNESS_FABRICATION, witness)
                break
            valid.append(attestation)
        if verdict is None and bundle.get("request_frame") \
                and bundle.get("response_frame"):
            # The expected root, re-derived from the operation's own VO
            # rather than taken on the bundle's word.
            request = decode(bundle["request_frame"])
            response = decode(bundle["response_frame"])
            if derive_outcome(getattr(request, "query", None),
                              getattr(response, "result", None),
                              StoreSpec.coerce(bundle["order"])
                              ).new_root != expected:
                return False, "the recorded frames derive another root"
    except (WireError, ProofError) as exc:
        return False, f"a recorded frame does not re-verify: {exc}"
    if verdict is None:
        found = contradiction(ctr, valid, expected)
        verdict = found and (found[0], primary)
    if verdict != (bundle.get("mode"), bundle.get("deviant")):
        finds = "%s by %s" % verdict if verdict else "no divergence"
        return False, (f"the quorum rule finds {finds}, not "
                       f"{bundle.get('mode')} by {bundle.get('deviant')}")
    return True, REASONS[verdict[0]].format(deviant=verdict[1], ctr=ctr)
