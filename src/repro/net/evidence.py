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
  in-run response replays by chain membership as it was judged live);
* the trust-anchor lineage (initial tag and, when the client persists
  an anchor file, its raw contents);
* for Protocol I, the public-key directory the signature was checked
  against, so the forged-signature verdict is reproducible without the
  PKI.

A bundle is a single file: an ASCII magic line followed by one
wire-encoded dict (the codec already covers every type involved, and
"equal objects encode identically" makes bundles canonical).

:func:`reverify` rebuilds the protocol's state object from the recorded
pre-operation ``client_state``, runs the very step the client ran on
the recorded frames, and answers the only question that matters after
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
    the primary (fork/equivocation) or a fabricating witness.  Unlike
    ``response`` bundles, the signed attestation frames ARE the proof:
    a frame that fails to decode or a witness signature that does not
    verify makes the bundle prove *nothing* (``genuine=False``).
"""

from __future__ import annotations

import os

from repro.crypto import rsa
from repro.crypto.hashing import Digest
from repro.crypto.signatures import Signature, Verifier
from repro.mtree.forest import StoreSpec
from repro.mtree.proofs import ProofError
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.protocols.base import DeviationDetected, Request, Response
from repro.protocols.protocol1 import SignedRootChain, count_sync_check
from repro.protocols.protocol2 import XorRegisters, sync_check
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
                       order: int | dict,
                       expected_root: Digest | None = None,
                       request_frame: bytes = b"",
                       response_frame: bytes = b"",
                       verifier_keys: dict | None = None) -> dict:
    """A cross-replica divergence, with the replica it implicates.

    ``mode`` is one of ``witness-fabrication`` (a valid witness
    signature over a deposit the primary never signed),
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


def _reverify_response(bundle: dict) -> tuple[bool, str]:
    """Replay rule: rebuild the protocol's state object as the client
    recorded it before the operation and run the live step on the
    recorded frames -- the bundle is genuine iff the step raises.  A
    Protocol I bundle that records a signing run in progress is
    therefore judged by chain membership, as it was live."""
    try:
        request = decode(bundle["request_frame"])
        response = decode(bundle["response_frame"])
    except WireError as exc:
        return True, f"offending frame does not decode: {exc}"
    if not isinstance(response, Response) or not isinstance(request, Request):
        return True, "recorded frames are not a protocol request and response"
    order = StoreSpec.coerce(bundle["order"])
    if bundle["protocol"] == "I":
        state = SignedRootChain(bundle["user"], Verifier({
            signer_id: _bundle_key(bundle, signer_id)
            for signer_id in bundle.get("verifier_keys", {})}), order)
    else:
        state = XorRegisters(bundle["user"], order)
    state.restore(bundle["client_state"])
    try:
        state.step(request.query, response)
    except DeviationDetected as exc:
        return True, exc.reason
    return False, "response verifies cleanly against the recorded state"


def _bundle_key(bundle: dict, signer_id: str):
    info = bundle.get("verifier_keys", {}).get(signer_id)
    if info is None:
        return None
    return rsa.PublicKey(modulus=int(info["modulus"], 16),
                         exponent=int(info["exponent"]))


def _signature_holds(bundle: dict, signature, signer_id: str,
                     expected: Digest) -> bool:
    if not isinstance(signature, Signature) or signature.signer_id != signer_id:
        return False
    key = _bundle_key(bundle, signer_id)
    if key is None or signature.digest != expected:
        return False
    return rsa.verify_digest(key, expected, signature.raw)


def _reverify_replication(bundle: dict) -> tuple[bool, str]:
    """Re-judge a cross-replica divergence from its signed attestations.

    The polarity is inverted relative to ``response`` bundles: there, a
    frame that fails to decode is itself the deviation; here the
    attestation frames carry the *proof*, so anything unverifiable
    about them means the bundle implicates nobody.
    """
    from repro.net.replication import (
        RootAttestation,
        attestation_digest,
        deposit_digest,
    )

    mode = bundle.get("mode")
    deviant = bundle.get("deviant")
    ctr = bundle.get("ctr")
    attestations = []
    for frame in bundle.get("attestation_frames", ()):
        try:
            attestation = decode(frame)
        except WireError as exc:
            return False, f"attestation frame does not decode: {exc}"
        if not isinstance(attestation, RootAttestation):
            return False, "attestation frame is not a root attestation"
        expected = attestation_digest(attestation.witness_id,
                                      attestation.deposit)
        if not _signature_holds(bundle, attestation.signature,
                                attestation.witness_id, expected):
            return False, (f"witness signature by "
                           f"{attestation.witness_id!r} does not verify: "
                           "the attestation proves nothing")
        attestations.append(attestation)
    if not attestations:
        return False, "bundle carries no attestations"

    def primary_signed(deposit) -> bool:
        return _signature_holds(
            bundle, deposit.signature, deposit.primary_id,
            deposit_digest(deposit.primary_id, deposit.ctr, deposit.root))

    if mode == "witness-fabrication":
        attestation = attestations[0]
        if attestation.witness_id != deviant:
            return False, (f"bundle names {deviant!r} but the attestation "
                           f"was signed by {attestation.witness_id!r}")
        if primary_signed(attestation.deposit):
            return False, ("the attested deposit was validly signed by the "
                           "primary: the witness told the truth")
        return True, (f"witness {deviant!r} validly countersigned a deposit "
                      "the primary never signed")

    if mode == "primary-equivocation":
        valid = [a.deposit for a in attestations
                 if a.deposit.ctr == ctr and primary_signed(a.deposit)]
        if len(valid) < 2:
            return False, ("fewer than two validly primary-signed deposits "
                           f"at counter {ctr}")
        roots = {deposit.root for deposit in valid}
        if len(roots) < 2:
            return False, "the deposits agree on one root: no equivocation"
        if valid[0].primary_id != deviant:
            return False, (f"bundle names {deviant!r} but the deposits were "
                           f"signed by {valid[0].primary_id!r}")
        return True, (f"primary signed {len(roots)} different roots at "
                      f"counter {ctr}")

    if mode == "primary-fork":
        attestation = attestations[0]
        deposit = attestation.deposit
        if deposit.ctr != ctr or not primary_signed(deposit):
            return False, ("the attested deposit is not validly "
                           f"primary-signed at counter {ctr}")
        if deposit.primary_id != deviant:
            return False, (f"bundle names {deviant!r} but the deposit was "
                           f"signed by {deposit.primary_id!r}")
        expected_root = bundle.get("expected_root")
        if not isinstance(expected_root, Digest):
            return False, "bundle records no expected root to contradict"
        if bundle.get("request_frame") and bundle.get("response_frame"):
            # The strong form: re-derive the client's expected root from
            # the served operation's own VO, rather than trusting the
            # recorded digest.
            try:
                request = decode(bundle["request_frame"])
                response = decode(bundle["response_frame"])
                if not isinstance(request, Request) or \
                        not isinstance(response, Response):
                    raise ProofError("they are not a request and a response")
                outcome = derive_outcome(request.query, response.result,
                                         StoreSpec.coerce(bundle["order"]))
            except (WireError, ProofError) as exc:
                return False, (f"recorded operation frames do not re-verify: "
                               f"{exc}")
            if outcome.new_root != expected_root:
                return False, ("recorded frames do not derive the claimed "
                               "expected root")
        if deposit.root == expected_root:
            return False, ("the deposited root matches the VO-derived root: "
                           "no fork")
        return True, ("primary signed a deposit contradicting the root it "
                      f"served this client at counter {ctr}")

    return False, f"unknown replication divergence mode {mode!r}"
