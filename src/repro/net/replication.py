"""Replicated root deposits: out-vote a forking primary, name the deviant.

A single Trusted-CVS server can *fork* -- serve one client a diverging
history -- and the protocols only promise detection, at the price of a
rollback to the last verified state.  This module turns detection into
tolerance by replicating the primary's root lineage across ``2f + 1``
mutually untrusted *witness* servers:

* after every executed operation the primary signs a
  :class:`RootDeposit` -- ``sign_primary(h(primary, ctr, root))`` over
  the main branch's post-operation root -- and background sender
  threads (:class:`Replicator`) push it to every witness, each over
  its own :class:`~repro.net.client.WitnessSession`;
* a witness is just another
  :class:`~repro.net.aserver.AsyncTrustedCvsServer` running
  :class:`WitnessProtocol`: it stores every
  validly-signed deposit in ``state.meta``, so deposits ride the
  witness's own hash-chained WAL and survive witness crashes, and it
  answers fetches with :class:`RootAttestation` -- the deposit
  countersigned under the witness's key;
* clients record each verified operation's expected ``(ctr, new_root)``
  and periodically confirm them against a **random quorum of f + 1
  witnesses** (:class:`QuorumChecker`), asked together over one
  session each.  Any sample of ``f + 1`` witnesses contains at least
  one honest one, so:

  - a *forking primary* is out-voted: the victim's VO-derived root
    disagrees with the primary-signed deposit the honest witness holds
    at the same counter -- the fork is proven (the deposit *is* the
    primary's signed confession) and every non-victim client keeps
    operating from the quorum-agreed lineage instead of halting;
  - a *minority of colluding witnesses* cannot equivocate: they cannot
    forge primary-signed deposits, so a fabricated attestation is a
    valid witness signature over an invalid deposit -- which names the
    witness.  The client writes evidence, excludes it, and re-samples.

Attribution is explicit and offline-checkable.  Every divergence
produces an evidence bundle (``kind="replication"``) naming the
deviating replica, and :func:`classify` and :func:`contradiction`
decide it both live and when ``repro evidence-inspect`` re-checks the
bundle -- one rule, so the two cannot disagree:

``primary-fork``
    a valid primary-signed deposit whose root contradicts the VO-derived
    root the client itself verified at that counter;
``primary-equivocation``
    two valid primary-signed deposits at one counter with different
    roots (a double-signing primary, possibly laundered through
    colluding witnesses);
``witness-fabrication``
    a valid *witness* signature over a deposit the primary never signed.

Noise is never an accusation: an unreachable or refusing witness, or
an answer that proves nothing (a witness signature that fails, a
deposit for another counter), is replaced in the sample without
writing evidence -- zero false
positives under the chaos proxy is a campaign gate
(``benchmarks/campaign.py replication``).

This module moves no frame itself: the sessions connect, resend and
back off.  Import discipline: :mod:`repro.wire` imports the two message
dataclasses from here, so this module keeps its module-level imports
codec-free (digests are computed from hand-packed bytes, and the
client/evidence imports happen inside the classes that need them).
"""

from __future__ import annotations

import os
import queue
import random
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.crypto.hashing import Digest, hash_bytes
from repro.crypto.signatures import Signature, Signer, Verifier
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.protocols.base import Request, Response, ServerProtocol, ServerState

#: default identity of the operation-serving server in a replica group.
PRIMARY_ID = "primary"

#: ``extras`` keys of the replication control messages (they ride plain
#: :class:`Request`/:class:`Response` envelopes over the existing wire).
DEPOSIT_KEY = "repl.deposit"      # request: list[RootDeposit] to store
FETCH_KEY = "repl.fetch"          # request: list[int] ctrs to attest
ATTEST_KEY = "repl.attest"        # response: {ctr: RootAttestation | None}
HEAD_KEY = "repl.head"            # response: highest deposited ctr (-1 none)

#: the pseudo-user replication traffic runs under on the wire.
REPL_USER = "!repl"

#: ``state.meta`` keys of the witness store (WAL-replayed, snapshotted).
META_DEPOSITS = "repl.deposits"
META_CONFLICTS = "repl.conflicts"

_DEPOSITS = _registry.counter(
    "repl.deposits", "signed root deposits created (primary) / stored (witness)")
_QUORUM_CHECKS = _registry.counter(
    "repl.quorum_checks", "client quorum confirmations against f+1 witnesses")
_DIVERGENCES = _registry.counter(
    "repl.divergences", "cross-replica divergences proven, by deviant replica")
#: the server core's counter: a colluding witness's lies are injections too
_ATTACKS_INJECTED = _registry.counter("net.attacks_injected")


class ReplicationError(Exception):
    """Misuse of the replication layer (bad configuration, bad sizes)."""


# -- signed messages -------------------------------------------------------

def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def deposit_digest(primary_id: str, ctr: int, root: Digest) -> Digest:
    """The digest a primary signs to deposit ``root`` at counter ``ctr``.

    Domain-separated and length-prefixed by hand (not via the wire
    codec) so the signature's meaning is independent of codec details
    and this module stays importable from :mod:`repro.wire`.
    """
    return hash_bytes(b"cvs-root-deposit\x00" + _pack_str(primary_id)
                      + struct.pack(">q", ctr) + root.value)


def attestation_digest(witness_id: str, deposit: "RootDeposit") -> Digest:
    """The digest a witness signs to attest it holds ``deposit``."""
    return hash_bytes(b"cvs-root-attest\x00" + _pack_str(witness_id)
                      + deposit.digest().value)


@dataclass(frozen=True)
class RootDeposit:
    """One primary-signed root lineage entry: ``(ctr, root)``.

    ``ctr`` is the main branch's operation counter *after* the op, so
    the deposit at ``c`` is directly comparable to the ``new_root`` a
    client derives from the VO of the operation that advanced it to
    ``c``.  The signature covers :func:`deposit_digest`; per-counter
    uniqueness of an honest lineage is exactly what equivocation
    detection checks.
    """

    primary_id: str
    ctr: int
    root: Digest
    signature: Signature

    def digest(self) -> Digest:
        return deposit_digest(self.primary_id, self.ctr, self.root)


@dataclass(frozen=True)
class RootAttestation:
    """A deposit countersigned by the witness that stored it."""

    witness_id: str
    deposit: RootDeposit
    signature: Signature

    def digest(self) -> Digest:
        return attestation_digest(self.witness_id, self.deposit)


def make_deposit(signer: Signer, ctr: int, root: Digest) -> RootDeposit:
    return RootDeposit(
        primary_id=signer.signer_id, ctr=ctr, root=root,
        signature=signer.sign(deposit_digest(signer.signer_id, ctr, root)))


def deposit_valid(deposit: RootDeposit, verifier: Verifier,
                  primary_id: str) -> bool:
    """True iff ``deposit`` is a :class:`RootDeposit` signed by *that*
    primary -- a deposit some other key signed under its own name is
    not one."""
    return (isinstance(deposit, RootDeposit)
            and deposit.primary_id == primary_id
            and isinstance(deposit.signature, Signature)
            and deposit.signature.signer_id == primary_id
            and verifier.verify(deposit.signature, deposit.digest()))


def attest(signer: Signer, deposit: RootDeposit) -> RootAttestation:
    return RootAttestation(
        witness_id=signer.signer_id, deposit=deposit,
        signature=signer.sign(attestation_digest(signer.signer_id, deposit)))


def attestation_valid(attestation: RootAttestation,
                      verifier: Verifier) -> bool:
    """True iff the *witness* signature checks out.  Says nothing about
    the deposit inside -- that is a separate, separately-attributed
    check (:func:`deposit_valid`)."""
    if not isinstance(attestation.deposit, RootDeposit):
        return False
    if not isinstance(attestation.signature, Signature):
        return False
    if attestation.signature.signer_id != attestation.witness_id:
        return False
    return verifier.verify(attestation.signature, attestation.digest())


# -- the verdict: one rule, live (QuorumChecker) and offline (evidence) ------

NOISE, FABRICATION, VALID = "noise", "fabrication", "valid"
WITNESS_FABRICATION = "witness-fabrication"
PRIMARY_EQUIVOCATION = "primary-equivocation"
PRIMARY_FORK = "primary-fork"

#: what each divergence mode proves, and against whom
REASONS = {
    WITNESS_FABRICATION: ("witness {deviant} countersigned a deposit the "
                          "primary never signed at counter {ctr}"),
    PRIMARY_EQUIVOCATION: ("{deviant} signed two different roots at "
                           "counter {ctr}: an equivocation"),
    PRIMARY_FORK: ("{deviant} signed a root at counter {ctr} that "
                   "contradicts the one it served this client: a fork"),
}


def classify(attestation, ctr: int, witness_id: str, primary_id: str,
             verifier: Verifier) -> str:
    """Judge ``witness_id``'s answer to a fetch for counter ``ctr``.

    ``NOISE`` proves nothing about anyone: not an attestation, one
    naming another witness, a witness signature that does not verify,
    or a deposit for another counter (an attestation does not commit to
    the counter that was asked for, so no third party could check that
    claim).  ``FABRICATION`` is a valid witness signature over a deposit
    ``primary_id`` did not sign: the witness is the deviant, provably.
    ``VALID`` is a vote.
    """
    if (not isinstance(attestation, RootAttestation)
            or attestation.witness_id != witness_id
            or not attestation_valid(attestation, verifier)
            or attestation.deposit.ctr != ctr):
        return NOISE
    if not deposit_valid(attestation.deposit, verifier, primary_id):
        return FABRICATION
    return VALID


def contradiction(ctr: int, valid_votes: list[RootAttestation],
                  expected_root: Digest | None):
    """The primary's divergence at ``ctr`` that ``valid_votes`` prove, as
    ``(mode, attestations)``, or None.  Two deposits that differ are an
    equivocation, checked first; a deposit whose root is not the
    ``expected_root`` the client derived from its own VO is a fork (no
    expected root, no fork)."""
    by_digest: dict[Digest, RootAttestation] = {}
    for attestation in valid_votes:
        by_digest.setdefault(attestation.deposit.digest(), attestation)
    if len(by_digest) > 1:
        return PRIMARY_EQUIVOCATION, list(by_digest.values())[:2]
    if (valid_votes and isinstance(expected_root, Digest)
            and valid_votes[0].deposit.root != expected_root):
        return PRIMARY_FORK, valid_votes[:1]
    return None


# -- deployment keys -------------------------------------------------------

def witness_name(index: int) -> str:
    return f"w{index}"


@dataclass
class ReplicaKeys:
    """The key material of one N-server deployment: a primary signer,
    one signer per witness, and a verifier holding every public key."""

    primary: Signer
    witnesses: list[Signer]
    verifier: Verifier

    @property
    def n(self) -> int:
        return len(self.witnesses)

    @property
    def f(self) -> int:
        """Faults tolerated: with ``n = 2f + 1`` witnesses, ``f`` may
        collude (or be down) and a quorum of ``f + 1`` still contains an
        honest one."""
        return (len(self.witnesses) - 1) // 2


def make_replica_keys(n_witnesses: int, seed: int,
                      primary_id: str = PRIMARY_ID,
                      bits: int | None = None) -> ReplicaKeys:
    """Deterministic demo PKI for an N-server deployment.

    Seeded key generation hits the process-wide keypair cache, so
    harnesses can rebuild the same group cheaply.  A real deployment
    would distribute these through an actual PKI; the protocols only
    need every party to know every public key.
    """
    from repro.crypto import rsa

    bits = bits or rsa.DEFAULT_KEY_BITS
    if n_witnesses < 1:
        raise ReplicationError("a replica group needs at least one witness")
    primary = Signer.generate(primary_id, bits=bits, seed=seed)
    witnesses = [
        Signer.generate(witness_name(i), bits=bits, seed=seed + 1 + i)
        for i in range(n_witnesses)
    ]
    verifier = Verifier({s.signer_id: s.public_key
                         for s in [primary, *witnesses]})
    return ReplicaKeys(primary=primary, witnesses=witnesses,
                       verifier=verifier)


# -- the witness server protocol -------------------------------------------

class WitnessCollusion:
    """Byzantine behaviour for one *witness* replica, handed to
    :class:`WitnessProtocol` (which documents the two modes:
    ``"fabricate"`` and ``"withhold"``).

    ``served`` counts fetches the collusion actually answered
    dishonestly -- the benchmark's ground truth that a configured
    colluder was really exercised.  Deposit *storage* stays honest
    either way: colluders still bank the real lineage.
    """

    MODES = ("fabricate", "withhold")

    def __init__(self, mode: str = "fabricate") -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown collusion mode {mode!r}")
        self.mode = mode
        self.served = 0


class WitnessProtocol(ServerProtocol):
    """The server half of a witness: store deposits, answer attestations.

    Runs behind either TCP server exactly like the Trusted-CVS
    protocols do.  Deposits arrive as ordinary requests (``query=None``,
    ``extras[DEPOSIT_KEY]``), so the hosting server's WAL logs them
    *before* execution and crash replay rebuilds the deposit store
    bit-for-bit; snapshots serialise it with the rest of ``state.meta``.

    A witness is untrusted too: it validates the primary signature on
    every deposit it stores (garbage is counted and dropped, never
    stored), keeps the *first* validly-signed deposit per counter, and
    remembers later conflicting ones in ``META_CONFLICTS`` -- a
    double-signing primary leaves its confession on every honest
    witness it reaches.

    ``collusion`` (a :class:`WitnessCollusion`) makes this witness Byzantine for harnesses: ``"fabricate"`` serves
    attestations over doctored deposits (valid witness signature,
    invalid primary signature -- the strongest lie a witness can tell
    without the primary's key), ``"withhold"`` denies having anything
    (indistinguishable from lag: the client re-samples, never accuses).
    """

    responses_commit_state = False
    blocks_after_request = False

    def __init__(self, witness_id: str, signer: Signer, verifier: Verifier,
                 primary_id: str = PRIMARY_ID, collusion=None) -> None:
        if signer.signer_id != witness_id:
            raise ReplicationError(
                f"witness {witness_id!r} handed {signer.signer_id!r}'s key")
        self.witness_id = witness_id
        self.primary_id = primary_id
        self.collusion = collusion
        self._signer = signer
        self._verifier = verifier
        #: attestations are derived (witness-signed) data, not state:
        #: cached per (ctr, deposit digest), rebuilt lazily after replay.
        self._attestations: dict[tuple[int, Digest], RootAttestation] = {}
        self.rejected = 0

    def initialize(self, state: ServerState) -> None:
        state.meta.setdefault(META_DEPOSITS, {})
        state.meta.setdefault(META_CONFLICTS, [])

    def internal_defect(self, request: Request) -> str | None:
        return None  # every request is internal, and none raises

    def handle_request(self, user_id: str, request: Request,
                       state: ServerState, round_no: int) -> Response:
        state.ctr += 1
        deposits = request.extras.get(DEPOSIT_KEY)
        if deposits is not None:
            return self._store_deposits(deposits, state)
        fetch = request.extras.get(FETCH_KEY)
        if fetch is not None:
            return self._attest(fetch, state, user_id)
        return Response(result=None, extras={
            "error": "witness serves only deposit/fetch requests"})

    # -- deposit ingestion --------------------------------------------------

    def _store_deposits(self, deposits, state: ServerState) -> Response:
        store = state.meta[META_DEPOSITS]
        stored = rejected = 0
        for deposit in deposits if isinstance(deposits, (list, tuple)) else []:
            if not deposit_valid(deposit, self._verifier, self.primary_id):
                rejected += 1
                continue
            existing = store.get(deposit.ctr)
            if existing is None:
                store[deposit.ctr] = deposit
                stored += 1
                if _obs.enabled:
                    _DEPOSITS.inc(role="witness", witness=self.witness_id)
            elif existing.digest() != deposit.digest():
                # Two valid primary signatures over one counter: keep the
                # first lineage, preserve the conflicting confession.
                state.meta[META_CONFLICTS].append(deposit)
        self.rejected += rejected
        return Response(result=None, extras={
            HEAD_KEY: max(store) if store else -1,
            "stored": stored, "rejected": rejected})

    # -- attestation --------------------------------------------------------

    def _attest(self, fetch, state: ServerState, user_id: str) -> Response:
        store = state.meta[META_DEPOSITS]
        head = max(store) if store else -1
        mode = getattr(self.collusion, "mode", None)
        attestations: dict[int, RootAttestation | None] = {}
        for ctr in fetch if isinstance(fetch, (list, tuple)) else []:
            if not isinstance(ctr, int):
                # Not a counter (and maybe unhashable): the request was
                # logged before it got here, so it must not raise.
                continue
            deposit = store.get(ctr)
            if deposit is None:
                attestations[ctr] = None
                continue
            if mode == "withhold":
                self.collusion.served += 1
                attestations[ctr] = None
                continue
            if mode == "fabricate":
                self.collusion.served += 1
                attestations[ctr] = self._fabricate(deposit, user_id)
                continue
            attestations[ctr] = self._attestation_for(deposit)
        if mode == "withhold":
            head = -1
        return Response(result=None, extras={
            ATTEST_KEY: attestations, HEAD_KEY: head})

    def _attestation_for(self, deposit: RootDeposit) -> RootAttestation:
        key = (deposit.ctr, deposit.digest())
        attestation = self._attestations.get(key)
        if attestation is None:
            attestation = attest(self._signer, deposit)
            self._attestations[key] = attestation
        return attestation

    def _fabricate(self, deposit: RootDeposit,
                   user_id: str) -> RootAttestation:
        """The strongest equivocation a keyless-of-the-primary witness
        can mount: a doctored deposit (root flipped, the genuine primary
        signature copied over -- now invalid) under a *valid* witness
        signature.  Detection of exactly this shape is what pins the
        blame on the witness rather than the primary."""
        fake_root = Digest(bytes(b ^ 0xA5 for b in deposit.root.value))
        fake = RootDeposit(primary_id=deposit.primary_id, ctr=deposit.ctr,
                           root=fake_root, signature=deposit.signature)
        if _obs.enabled:
            _ATTACKS_INJECTED.inc(
                attack=f"witness-{self.collusion.mode}", user=user_id)
        return self._attestation_for(fake)


# -- the primary-side replicator -------------------------------------------

class Replicator:
    """Pushes the primary's signed root lineage to every witness.

    Attached to a :class:`~repro.net.core.ServerCore`; the core calls
    :meth:`observe` (from whichever thread/task serialises it) after
    every executed request.  When the **main** branch's counter
    advanced, a deposit over its current root is signed and fanned out
    to one sender thread per witness, each batching what queued
    meanwhile over its own :class:`~repro.net.client.WitnessSession`
    (a redelivered deposit is harmless: the witness store is
    idempotent).  A session blocks, so a witness that is down -- up to
    f may be -- must not share a thread with the live ones.

    A *forking* primary deposits only its public (main) lineage -- the
    forked branches it serves to victims are precisely what never
    reaches the witnesses, which is what the client quorum check
    exposes.
    """

    def __init__(self, signer: Signer,
                 witnesses: list[tuple[str, int]]) -> None:
        from repro.net.client import RetryPolicy

        if not witnesses:
            raise ReplicationError("replicator needs at least one witness")
        self._signer = signer
        self._endpoints = [tuple(endpoint) for endpoint in witnesses]
        #: 0.02 s doubling to 1 s, between reconnects and after a refusal
        self._retry = RetryPolicy(base=0.02, cap=1.0, jitter=0)
        self._last_ctr: int | None = None
        self.deposits_created = 0
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._enqueued = [0] * len(self._endpoints)
        self._delivered = [0] * len(self._endpoints)
        self._stop = threading.Event()
        self._queues: list[queue.SimpleQueue] = [
            queue.SimpleQueue() for _ in self._endpoints]
        self._threads = [
            threading.Thread(target=self._sender, args=(i,), daemon=True,
                             name=f"repl-sender-{i}")
            for i in range(len(self._endpoints))
        ]
        for thread in self._threads:
            thread.start()

    @property
    def primary_id(self) -> str:
        return self._signer.signer_id

    # -- core-facing hooks --------------------------------------------------

    def prime(self, core) -> None:
        """Attach to a core after construction/recovery: adopt its
        current main counter and (re-)deposit the recovered head so a
        restarted primary's witnesses catch up to the live root.
        Intermediate roots lost to a crash stay whatever the witnesses
        already hold -- deposits are WAL-crash-safe on *their* side."""
        state = core.states["main"]
        self._last_ctr = state.ctr
        if state.ctr > 0:
            self._enqueue(make_deposit(self._signer, state.ctr,
                                       state.database.root_digest()))

    def observe(self, core) -> None:
        """Called after each executed request: deposit the main branch's
        new ``(ctr, root)`` if it advanced.  ``root_digest()`` is a
        lazy dirty-path recompute, so this costs one op's hashing."""
        state = core.states["main"]
        if self._last_ctr is not None and state.ctr <= self._last_ctr:
            return
        self._last_ctr = state.ctr
        self._enqueue(make_deposit(self._signer, state.ctr,
                                   state.database.root_digest()))

    def _enqueue(self, deposit: RootDeposit) -> None:
        self.deposits_created += 1
        if _obs.enabled:
            _DEPOSITS.inc(role="primary")
        with self._lock:
            for index, q in enumerate(self._queues):
                self._enqueued[index] += 1
                q.put(deposit)

    # -- delivery -----------------------------------------------------------

    def _sender(self, index: int) -> None:
        """Deliver one witness's deposits, batched, over one session.  A
        batch a transport failure left in the window is completed first;
        a refused one is offered again after a backoff."""
        from repro.net.client import (
            IntegrityError, ServerBusyError, TransientNetworkError,
            WitnessSession)

        endpoint, q = self._endpoints[index], self._queues[index]
        session = WitnessSession(endpoint, REPL_USER, self._retry)
        batch: list[RootDeposit] = []  # created, not yet banked
        refusals = 0
        while not self._stop.is_set():
            if not session.inflight:
                try:
                    deposit = q.get(block=not batch)
                    while deposit is not None:
                        batch.append(deposit)
                        deposit = q.get_nowait()
                    self._stop.set()  # close() queued the None
                except queue.Empty:
                    pass
                if not batch:
                    break
            try:
                if session.inflight:
                    session.drain()
                else:
                    session.execute(None, {DEPOSIT_KEY: list(batch)})
            except (ServerBusyError, IntegrityError):
                # Refused, or not answered with a response: nothing was
                # banked.  Offer it again later, on a new connection.
                session.close()
                session = WitnessSession(endpoint, REPL_USER, self._retry)
                refusals = min(refusals + 1, 8)
                if self._stop.wait(self._retry.delay(refusals - 1)):
                    break
                continue
            except TransientNetworkError:
                continue  # still in the window: completed next time
            refusals = 0
            with self._lock:
                self._delivered[index] += len(batch)
                self._done.notify_all()
            batch = []
        session.close()

    def flush(self, timeout: float = 30.0) -> bool:
        """Block until every witness acknowledged every deposit created
        so far, or ``timeout``; False means some witness is behind
        (down, partitioned) -- a liveness condition, not an integrity
        one."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while any(self._delivered[i] < self._enqueued[i]
                      for i in range(len(self._endpoints))):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._done.wait(remaining)
        return True

    def close(self) -> None:
        self._stop.set()
        for q in self._queues:
            q.put(None)
        for thread in self._threads:
            thread.join(timeout=5.0)


# -- the client-side quorum checker -----------------------------------------

@dataclass
class _PendingRoot:
    """One verified-but-unconfirmed operation awaiting its quorum vote."""

    root: Digest
    request_frame: bytes
    response_frame: bytes


class QuorumChecker:
    """Confirms a client's verified root lineage against f+1 witnesses.

    The owning client records each verified operation
    (:meth:`record`: the post-operation counter, the VO-derived new
    root, and the verbatim frames for evidence) and calls :meth:`check`
    periodically.  A check samples a random quorum of ``f + 1``
    non-excluded witnesses, asks each of them at once for attestations
    of every pending counter (one :class:`~repro.net.client.WitnessSession`
    per witness, with its retry budget), and judges each vote with
    :func:`classify` and :func:`contradiction`:

    * transport failure past the budget, a refusal, a reply without
      attestations, or an attestation that is ``NOISE`` -> swap in a
      replacement witness (never an accusation);
    * ``FABRICATION`` -> the witness is the deviant: evidence is
      written, the witness is excluded, the client carries on (this is
      the out-vote: a lying minority costs nothing but a re-sample);
    * two valid deposits at one counter with different roots ->
      ``primary-equivocation``: raise (with evidence);
    * a valid deposit whose root contradicts the client's own VO-derived
      root -> ``primary-fork``: raise (with evidence);
    * a valid deposit matching the client's root -> confirmed.

    A counter no sampled witness has a deposit for yet is *lag*, not
    divergence: it stays pending for the next check.  With
    ``require_all=True`` (end of a session) the check retries with
    backoff until everything pending resolves or the budget ends in
    :class:`~repro.net.client.TransientNetworkError`.
    """

    def __init__(self, witnesses, verifier: Verifier, f: int,
                 primary_id: str = PRIMARY_ID,
                 user_id: str = "anonymous",
                 seed: int | None = None,
                 retry=None,
                 evidence_dir: str | None = None,
                 order: "int | dict" = 8) -> None:
        from repro.net.client import RetryPolicy

        self._witnesses = [(wid, tuple(endpoint)) for wid, endpoint in witnesses]
        if f < 0 or f + 1 > len(self._witnesses):
            raise ReplicationError(
                f"cannot sample f+1={f + 1} of {len(self._witnesses)} witnesses")
        self._verifier = verifier
        self.f = f
        self.primary_id = primary_id
        self.user_id = user_id
        self._rng = random.Random(seed)
        self._retry = retry or RetryPolicy(seed=seed)
        self._evidence_dir = evidence_dir
        self.set_order(order)
        self._sessions: dict = {}  # witness id -> WitnessSession
        self._pending: dict[int, _PendingRoot] = {}
        self.excluded: set[str] = set()
        self.detections: list[dict] = []
        self.checks = 0
        self.confirmed = 0

    def set_order(self, order) -> None:
        """Adopt the owning session's store spec, wire-normalised --
        evidence bundles must re-derive VOs under the same geometry the
        client verified them with.  The attaching client calls this."""
        from repro.mtree.forest import StoreSpec

        self._order = StoreSpec.coerce(order).to_wire()

    @property
    def quorum(self) -> int:
        return self.f + 1

    @property
    def pending(self) -> int:
        return len(self._pending)

    def record(self, ctr: int, root: Digest, request_frame: bytes = b"",
               response_frame: bytes = b"") -> None:
        """Remember a verified operation's expected lineage entry."""
        self._pending[ctr] = _PendingRoot(
            root=root, request_frame=request_frame,
            response_frame=response_frame)

    # -- the check ----------------------------------------------------------

    def check(self, require_all: bool = False) -> set[int]:
        """One quorum confirmation pass; returns the counters confirmed.

        Raises :class:`~repro.net.client.ReplicationDivergence` on a
        proven primary fork/equivocation (after writing evidence) and
        :class:`~repro.net.client.TransientNetworkError` when
        ``require_all`` is set but the pending lineage could not be
        resolved within the retry budget.
        """
        from repro.net.client import TransientNetworkError

        if not self._pending:
            return set()
        self.checks += 1
        if _obs.enabled:
            _QUORUM_CHECKS.inc(user=self.user_id)
        confirmed: set[int] = set()
        rounds = self._retry.attempts if require_all else 1
        last_problem = "no witness holds the pending deposits yet"
        for round_no in range(rounds):
            if round_no and self._pending:
                time.sleep(self._retry.delay(round_no - 1))
            if not self._pending:
                break
            votes, responded = self._collect(sorted(self._pending))
            if responded < self.quorum:
                last_problem = (f"only {responded} of the required "
                                f"{self.quorum} witnesses answered")
            confirmed |= self._evaluate(votes)
            if not self._pending:
                break
        if require_all and self._pending:
            raise TransientNetworkError(
                f"could not confirm root lineage at counter(s) "
                f"{sorted(self._pending)} against a witness quorum: "
                f"{last_problem}")
        return confirmed

    def _collect(self, ctrs: list[int]):
        """Fetch attestations for ``ctrs`` from a random quorum sample.
        Every sampled witness is asked before any reply is read (a
        session's window of one is full at once, so its fetch is on the
        wire); one that cannot be reached, refuses, or answers without
        attestations -- or is proven deviant -- is replaced from the
        rest of the sample until f+1 responded or the pool ran dry.
        Votes are absorbed in sample order."""
        from repro.net.client import (
            IntegrityError, TransientNetworkError, WitnessSession)

        available = [w for w in self._witnesses if w[0] not in self.excluded]
        self._rng.shuffle(available)
        votes: dict[int, list[RootAttestation]] = {c: [] for c in ctrs}
        spare, asked, responded = iter(available), deque(), 0
        while True:
            while responded + len(asked) < self.quorum:
                wid, endpoint = next(spare, (None, None))
                if wid is None:
                    break
                if wid not in self._sessions:
                    self._sessions[wid] = WitnessSession(
                        endpoint, f"{REPL_USER}:{self.user_id}", self._retry)
                try:
                    self._sessions[wid].submit(None, {FETCH_KEY: list(ctrs)})
                    asked.append(wid)
                except TransientNetworkError:
                    self._sessions.pop(wid).close()
            if not asked:
                return votes, responded
            wid = asked.popleft()
            try:
                [extras] = self._sessions[wid].drain()
            except (TransientNetworkError, IntegrityError):
                self._sessions.pop(wid).close()
                continue
            attestations = extras.get(ATTEST_KEY)
            if isinstance(attestations, dict) \
                    and self._absorb(wid, attestations, votes):
                responded += 1

    def _absorb(self, wid: str, attestations: dict, votes: dict) -> bool:
        """:func:`classify` one witness's attestations into ``votes``.

        Returns False when the witness does not count towards the
        quorum: its reply is noise, or it was just proven a fabricating
        deviant (named, excluded: the out-vote)."""
        accepted: dict[int, RootAttestation] = {}
        for ctr in votes:
            attestation = attestations.get(ctr)
            if attestation is None:
                continue
            verdict = classify(attestation, ctr, wid, self.primary_id,
                               self._verifier)
            if verdict == FABRICATION:
                self.excluded.add(wid)
                self._convict(WITNESS_FABRICATION, wid, ctr, [attestation])
            if verdict != VALID:
                return False
            accepted[ctr] = attestation
        for ctr, attestation in accepted.items():
            votes[ctr].append(attestation)
        return True

    def _evaluate(self, votes: dict) -> set[int]:
        from repro.net.client import ReplicationDivergence

        confirmed: set[int] = set()
        for ctr, vlist in votes.items():
            if not vlist or ctr not in self._pending:
                continue
            found = contradiction(ctr, vlist, self._pending[ctr].root)
            if found is not None:
                mode, attestations = found
                path = self._convict(mode, self.primary_id, ctr, attestations)
                raise ReplicationDivergence(
                    REASONS[mode].format(deviant=self.primary_id, ctr=ctr),
                    deviant=self.primary_id, evidence_path=path)
            del self._pending[ctr]
            self.confirmed += 1
            confirmed.add(ctr)
        return confirmed

    def _convict(self, mode: str, deviant: str, ctr: int,
                 attestations: list[RootAttestation]) -> str | None:
        """Record a proven divergence and write its evidence bundle (when
        there is an evidence directory); returns the bundle's path."""
        from repro.net import evidence
        from repro.wire import encode

        if _obs.enabled:
            _DIVERGENCES.inc(deviant=deviant, user=self.user_id)
        path = None
        if self._evidence_dir is not None:
            os.makedirs(self._evidence_dir, exist_ok=True)
            pending = self._pending[ctr]
            path = evidence.write_bundle(
                os.path.join(self._evidence_dir,
                             f"{self.user_id}-repl-{mode}-{deviant}-{ctr}"
                             ".evidence"),
                evidence.replication_bundle(
                    mode=mode, deviant=deviant, primary=self.primary_id,
                    user_id=self.user_id, ctr=ctr,
                    reason=REASONS[mode].format(deviant=deviant, ctr=ctr),
                    attestations=[encode(a) for a in attestations],
                    expected_root=pending.root,
                    request_frame=pending.request_frame,
                    response_frame=pending.response_frame,
                    order=self._order,
                    verifier_keys=evidence.key_directory(self._verifier)))
        self.detections.append({"deviant": deviant, "mode": mode, "ctr": ctr,
                                "evidence_path": path})
        return path

    def close(self) -> None:
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()
