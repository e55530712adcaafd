"""The transport-agnostic server core.

Everything a Trusted-CVS server *is* -- the named state branches, the
protocol, the request-ID dedup table, the WAL + checkpoint store, the
Byzantine attack hooks with the judge of their deviation, and the round
counter -- lives here, with **no
locking of its own**.  The caller owns serialisation:
:class:`~repro.net.aserver.AsyncTrustedCvsServer` funnels every call
through one synchronous pass on its event loop (single-writer model),
so no lock is needed at all.

It is the only code that executes a message, on the wire and in the
simulator (:class:`~repro.simulation.agents.ServerAgent` adapts it to
rounds), and it runs a gallery :class:`~repro.server.attacks.Attack`
directly.  A message's round is the caller's ``clock()`` (the
simulator's round) or, without one, the message tick.

Requests execute in *batches*: :meth:`ServerCore.apply_batch` dedups a
whole batch, appends every fresh request to the WAL with **one** fsync
(group commit), executes them back to back, and recomputes the Merkle
root **once** over all dirty paths (:meth:`BPlusTree.refresh_root`).
One request is the one-entry batch (:meth:`ServerCore.apply_request`).
:meth:`ServerCore.stream_batch` is the one batch loop: it yields each
response, in entry order, as soon as its operation has executed (after
the fsync, never before), and holds only the batch's last response
until the root pass and any checkpoint are done, so the event loop can
put early answers on the wire while the batch still executes;
``apply_batch`` is that generator run to its end.
For Protocol I a multi-request batch from one user is a *signing run*:
every request but the last is stamped with the defer-followup marker
before it is logged, so the server blocks (and the client signs) once
per batch rather than once per operation -- and WAL replay, which sees
the stamped requests, reconstructs the exact same per-op responses.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict

from repro.mtree.database import VerifiedDatabase, query_defect
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.protocols.base import (
    ACK_KEY,
    DEDUP_WINDOW,
    ErrorReply,
    Followup,
    Request,
    Response,
    ServerProtocol,
    ServerState,
    request_id,
)
from repro.protocols.protocol1 import DEFER_FOLLOWUP_KEY
from repro.protocols.protocol2 import Protocol2Server
from repro.net.wal import ServerStore, open_server_store
from repro.server.attacks import Attack
from repro.storage.pagestore import StorageError

#: write a checkpoint (and start the next log) every this many logged
#: messages; bounds replay work after a crash.
SNAPSHOT_EVERY = 256

_WAL_APPENDS = _registry.counter(
    "server.wal_appends", "messages durably logged before execution")
_WAL_REPLAYS = _registry.counter(
    "server.wal_replays", "WAL records re-executed during recovery")
_SNAPSHOTS = _registry.counter(
    "server.snapshots", "checkpoints written (one log each)")
_DEDUP_HITS = _registry.counter(
    "server.dedup_hits", "retried requests answered from the dedup table")
_DEDUP_ENTRIES = _registry.gauge(
    "server.dedup_entries", "responses the dedup table holds after a batch")
_DEDUP_RELEASED = _registry.counter(
    "server.dedup_released", "dedup entries dropped by a session's ack")
_BATCHES = _registry.counter(
    "server.batches", "request batches executed (group commit + one root pass)")
_BATCH_SIZE = _registry.histogram(
    "server.batch_size", "requests executed per batch")
_BATCH_ROOT_NODES = _registry.histogram(
    "server.batch_root_nodes", "Merkle nodes recomputed by the per-batch root pass")
_DIRTY_SHARDS = _registry.histogram(
    "server.dirty_shards", "shards visited per forest refresh pass")
_SNAPSHOT_FAILURES = _registry.counter(
    "server.snapshot_failures",
    "periodic checkpoints that failed (ENOSPC/EIO) and will be retried")
_ATTACKS_INJECTED = _registry.counter(
    "net.attacks_injected",
    "responses a Byzantine server sent that its judge found deviating")


def _session_seq(rid: str) -> tuple[str, int] | None:
    """A ``user:nonce:seq`` request id as ``("user:nonce:", seq)``, or
    ``None`` for an id of another shape.  The seq is written as a
    session writes it -- no leading zero, so one id names one seq, and
    at most 18 digits, so parsing it is cheap."""
    prefix, colon, seq = rid.rpartition(":")
    if ":" not in prefix or not (seq.isascii() and seq.isdigit()) \
            or len(seq) > 18 or (seq[0] == "0" and seq != "0"):
        return None
    return prefix + colon, int(seq)


def _ack_defect(message: Request) -> str | None:
    """Why ``message``'s ``ack`` is malformed, or ``None`` (also for a
    request without one): the rule :meth:`ServerCore.refusal` refuses
    by and WAL replay releases by."""
    if ACK_KEY not in message.extras:
        return None
    ack, rid = message.extras[ACK_KEY], request_id(message)
    session = None if rid is None else _session_seq(rid)
    if type(ack) is not int or ack < 0:
        return "an ack is a non-negative int"
    if session is None:
        return "an ack comes with a user:nonce:seq request id"
    if ack > session[1]:
        return "an ack beyond its own request"
    return None


class DedupTable:
    """Windowed per-user memory of (request id -> response).

    A session with W operations in flight that reconnects resends *all*
    W verbatim, and any of them may or may not have executed before the
    crash, so each must be answerable without re-execution.  A session
    says which answers it can still ask for: a request's ``ack`` is the
    seq of its oldest operation in flight, and :meth:`release` drops
    that session's answers below it -- a stop-and-wait session leaves
    one, a window of W at most W.  Whatever no ack releases is capped
    at the last ``window`` responses per user: the server's table holds
    :data:`~repro.protocols.base.DEDUP_WINDOW`, which is also the
    deepest window a session will open; another ``window`` is for unit
    tests.
    """

    def __init__(self, window: int = DEDUP_WINDOW) -> None:
        if window < 1:
            raise ValueError("dedup window must hold at least one entry")
        self.window = window
        #: user -> request id -> (its ``_session_seq``, response)
        self._users: dict[str, OrderedDict[
            str, tuple[tuple[str, int] | None, Response]]] = {}
        #: (user, session prefix) -> the seqs remembered, ascending: a
        #: ``user:nonce:seq`` id is its prefix and its seq written out
        self._sessions: dict[tuple[str, str], list[int]] = {}

    def lookup(self, user_id: str, rid: str) -> Response | None:
        entry = self._users.get(user_id, {}).get(rid)
        return None if entry is None else entry[1]

    def record(self, user_id: str, rid: str, response: Response) -> None:
        entries = self._users.setdefault(user_id, OrderedDict())
        session = _session_seq(rid)
        if rid not in entries and session is not None:
            # In order, a session's next seq is the largest: an append.
            insort(self._sessions.setdefault((user_id, session[0]), []),
                   session[1])
        entries[rid] = (session, response)
        entries.move_to_end(rid)
        while len(entries) > self.window:
            _rid, (evicted, _response) = entries.popitem(last=False)
            if evicted is not None:
                seqs = self._sessions[(user_id, evicted[0])]
                seqs.remove(evicted[1])
                if not seqs:
                    del self._sessions[(user_id, evicted[0])]

    def superseded(self, user_id: str, rid: str) -> bool:
        """Whether a later operation of ``rid``'s session is remembered.
        A session sends its operations in order, so an id the table
        does not hold was then executed and released (or refused), and
        the frame is a late copy -- off a dead connection -- that
        executing would apply twice."""
        session = _session_seq(rid)
        if session is None:
            return False
        seqs = self._sessions.get((user_id, session[0]))
        return bool(seqs) and seqs[-1] > session[1]

    def release(self, user_id: str, prefix: str, ack: int) -> None:
        """Drop the answers of session ``prefix`` (``user:nonce:``)
        numbered below ``ack``: it has verified them and asks for none
        again."""
        seqs = self._sessions.get((user_id, prefix))
        released = 0 if seqs is None else bisect_left(seqs, ack)
        if not released:
            return
        entries = self._users[user_id]
        for seq in seqs[:released]:
            del entries[f"{prefix}{seq}"]
        del seqs[:released]
        if not seqs:
            del self._sessions[(user_id, prefix)]
        if _obs.enabled:
            _DEDUP_RELEASED.inc(released, user=user_id)

    def export(self) -> dict[str, list[tuple[str, Response]]]:
        """Snapshot-serialisable form: user -> ordered (rid, response)."""
        return {user: [(rid, response)
                       for rid, (_session, response) in entries.items()]
                for user, entries in self._users.items()}

    def load(self, data: dict) -> None:
        """Restore from :meth:`export` output (oldest first per user)."""
        self._users.clear()
        self._sessions.clear()
        for user, pairs in data.items():
            entries = self._users[user] = OrderedDict(
                (rid, (_session_seq(rid), response))
                for rid, response in pairs)
            for session, _response in entries.values():
                if session is not None:
                    insort(self._sessions.setdefault(
                        (user, session[0]), []), session[1])

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._users.values())


class DeviationJudge:
    """When a server deviated (Definition 2.1): an attack-free replay of
    every message the server executes, in tick order, and each response
    to a query judged against the replay's.

    A response deviates iff its answer differs from the honest one, or
    its ``sig`` extra does, or -- for a protocol whose responses commit
    to the state -- the served branch's root or the ``ctr`` extra does.
    The replay steps the protocol's class, not the instance, so nothing
    installed on the live protocol object sees it.  A judge also stands
    alone: fed a server's messages and responses from outside, it holds
    the honest run across that server's crash and restart.
    """

    def __init__(self, protocol: ServerProtocol, state: ServerState) -> None:
        self._protocol = protocol
        self._honest = type(protocol)
        self._replay = state.clone()
        #: queries judged so far, and how many of them deviated
        self.judged = 0
        self.deviations = 0
        #: the round (tick) of the first deviating response, and the
        #: number of queries judged before it
        self.first_round: int | None = None
        self.first_op: int | None = None

    def followup(self, user_id: str, message: Followup, round_no: int) -> None:
        self._honest.handle_followup(
            self._protocol, user_id, message, self._replay, round_no)

    def request(self, user_id: str, message: Request, response: Response,
                served: ServerState, round_no: int) -> bool:
        """Replay ``message`` honestly; whether ``response``, served from
        ``served``, deviates from the honest answer."""
        honest = self._honest.handle_request(
            self._protocol, user_id, message, self._replay, round_no)
        if message.query is None:
            return False
        extras = response.extras
        deviates = (response.result.answer != honest.result.answer
                    or extras.get("sig") != honest.extras.get("sig"))
        if not deviates and self._protocol.responses_commit_state:
            deviates = (extras.get("ctr") != honest.extras.get("ctr")
                        or served.database.root_digest()
                        != self._replay.database.root_digest())
        if deviates:
            self.deviations += 1
            if self.first_round is None:
                self.first_round, self.first_op = round_no, self.judged
        self.judged += 1
        return deviates


class ServerCore:
    """State, durability, and execution for one Trusted-CVS server.

    No locking: the owner must serialise all calls (see module docs).
    """

    def __init__(
        self,
        order: int = 8,
        database: VerifiedDatabase | None = None,
        protocol: ServerProtocol | None = None,
        state: ServerState | None = None,
        data_dir: str | None = None,
        snapshot_every: int = SNAPSHOT_EVERY,
        fsync: bool = True,
        attack: Attack | None = None,
        shards: int = 1,
        replicator=None,
        backend: str = "file",
        io=None,
        lock: bool = False,
        clock=None,
    ) -> None:
        if attack is not None and not isinstance(attack, Attack):
            raise TypeError(f"not an attack strategy: {type(attack).__name__}")
        self.protocol = protocol or Protocol2Server()
        self._shards = shards
        self.snapshot_every = snapshot_every
        self._clock = clock  # None: every message is its own round
        self._round = 0
        self.dedup = DedupTable()
        self._ops_since_snapshot = 0
        self.store: ServerStore | None = None
        self.replayed_records = 0
        #: named state branches; ``"main"`` is the honest history, other
        #: entries are per-victim forks a Byzantine attack may create.
        self.states: dict[str, ServerState] = {}
        self.attack = attack
        #: ground truth under an attack: the honest replay each response
        #: is judged against (``None`` with no attack)
        self.judge: DeviationJudge | None = None
        if data_dir is not None:
            self.store = open_server_store(
                data_dir, backend=backend, fsync=fsync, io=io, lock=lock)
            self._recover(order=order, database=database, state=state)
        else:
            if state is not None:
                self.state = state
            else:
                self.state = ServerState(
                    database=database or VerifiedDatabase(
                        order=order, shards=shards))
            self.protocol.initialize(self.state)
            self._start_judge()
        #: primary-side replication: deposits the main branch's signed
        #: root lineage to the witness group after every executed
        #: request (see :mod:`repro.net.replication`).  Priming after
        #: recovery re-deposits the recovered head so a restarted
        #: primary's witnesses catch up to the live root.
        self.replicator = replicator
        if replicator is not None:
            replicator.prime(self)

    @property
    def state(self) -> ServerState:
        """The main (honest-history) state branch."""
        return self.states["main"]

    @state.setter
    def state(self, value: ServerState) -> None:
        self.states["main"] = value

    # -- durability --------------------------------------------------------

    def _recover(self, order: int, database: VerifiedDatabase | None,
                 state: ServerState | None) -> None:
        """Restore from checkpoint + WAL, or bootstrap a fresh store."""
        snapshot = self.store.load_snapshot()
        if snapshot is None:
            # First run in this directory: initialise, then anchor the
            # WAL chain with a genesis checkpoint so every later record
            # verifies against a recorded head.
            if state is not None:
                self.state = state
            else:
                self.state = ServerState(
                    database=database or VerifiedDatabase(
                        order=order, shards=self._shards))
            self.protocol.initialize(self.state)
            self.store.write_snapshot(self.state, self.dedup.export())
        else:
            restored_db, ctr, meta, dedup, chain = snapshot
            self.state = ServerState(database=restored_db, ctr=ctr, meta=meta)
            self.dedup.load(dedup)
            self.store.set_chain(chain)
        self._start_judge()
        records = self.store.wal_records(self.store._chain)
        for message in records:
            user_id = message.extras.get("user", "anonymous")
            if isinstance(message, Followup):
                self._execute_followup(user_id, message)
            else:
                self._remember(user_id, message,
                               self._execute_request(user_id, message))
            if _obs.enabled:
                _WAL_REPLAYS.inc()
        self.replayed_records = len(records)
        self._ops_since_snapshot = len(records)

    def _start_judge(self) -> None:
        """Under an attack, start the honest replay where the main state
        starts: on a fresh start, or at the loaded checkpoint before WAL
        replay (which the judge then sees too)."""
        if self.attack is not None:
            self.judge = DeviationJudge(self.protocol, self.state)

    def _execute_request(self, user_id: str, message: Request) -> Response:
        """Execute a request on the branch that serves its user, let the
        attack rewrite the answer, and judge what goes out.  Both the
        live path and WAL replay come here, so after a crash the
        per-victim forked branches are deterministically reconstructed
        (the attack triggers on the same tick indices)."""
        round_no = self.tick()
        state = self._branch_for(user_id, round_no)
        response = self.protocol.handle_request(
            user_id, message, state, round_no=round_no)
        if self.attack is not None:
            response = self.attack.mutate_response(
                user_id, message, response, state, round_no)
            if (self.judge.request(user_id, message, response, state, round_no)
                    and _obs.enabled):
                _ATTACKS_INJECTED.inc(attack=self.attack.name, user=user_id)
        rid = request_id(message)
        if rid is not None:
            # Echo the idempotency token so pipelined clients can match
            # replies to in-flight requests without trusting FIFO order.
            response.extras.setdefault("rid", rid)
        return response

    def _execute_followup(self, user_id: str, message: Followup) -> None:
        round_no = self.tick()
        self.protocol.handle_followup(
            user_id, message, self._branch_for(user_id, round_no),
            round_no=round_no)
        if self.judge is not None:
            self.judge.followup(user_id, message, round_no)

    def _branch_for(self, user_id: str, round_no: int) -> ServerState:
        """The history ``user_id`` is served from: main, or the attack's
        pick (which may fork lazily)."""
        if self.attack is None:
            return self.state
        return self.attack.select_state(user_id, round_no, self)

    # -- message application -------------------------------------------------

    def apply_request(self, user_id: str, message: Request) -> Response:
        """Dedup-check, log, and execute one request: the one-entry
        batch (caller serialised)."""
        return self.apply_batch([(user_id, message)])[0]

    def apply_followup(self, user_id: str, message: Followup,
                       received: bytes | None = None) -> None:
        """Log (as ``received``: :meth:`stream_batch`) and absorb one
        follow-up message (caller serialised)."""
        if self.store is not None:
            self.store.wal_append(message, received=received)
            if _obs.enabled:
                _WAL_APPENDS.inc()
        self._execute_followup(user_id, message)
        self._after_logged(1)

    def apply_batch(self, entries: list[tuple[str, Request]]
                    ) -> list[Response | ErrorReply]:
        """Execute a batch of requests; the responses aligned with
        ``entries`` (:meth:`stream_batch`, run to its end)."""
        return list(self.stream_batch(entries))

    def stream_batch(self, entries: list[tuple[str, Request]],
                     received: list[bytes] | None = None):
        """Execute a batch of requests with amortised durability +
        hashing, yielding each entry's response in entry order.

        ``entries`` is ``[(user_id, request), ...]`` in execution order;
        ``received``, if given, each request's bytes as its client sent
        them, which the log keeps unless the defer-followup marker below
        changes the request (encoded then, and without ``received``).
        Costs amortised across the batch:

        * **one** WAL flush+fsync covers every fresh request (each is
          still appended *before* any of them executes);
        * **one** Merkle dirty-path pass recomputes the root digest over
          all leaves the batch touched;
        * for a Protocol I signing run (one user, deferred follow-ups)
          the server blocks -- and the operating client signs -- once.

        Duplicate request ids (dedup hits and intra-batch retries) are
        answered from the recorded response, never re-executed.  A
        request no state could execute (:meth:`refusal`), or one its
        session has moved past (:meth:`DedupTable.superseded`), is
        answered with an :class:`ErrorReply`, not logged: every later
        recovery replays the log, so only what executes may reach it.

        Nothing is yielded before the fsync.  Every response but the
        last leaves as soon as its operation has executed, been
        remembered and been seen by the replicator, so a client
        verifies it while the rest of the batch executes; the last
        leaves after the root pass and any checkpoint the batch
        triggers, so a batch of one is answered only once all of its
        work is done.  The caller runs the generator to its end: once
        the fsync has returned, the logged requests must execute.
        """
        plan: list[tuple[str, object]] = []
        staged: dict[tuple[str, str], int] = {}
        fresh: list[tuple[str, Request]] = []
        logged: list[bytes | None] = []  # fresh's bytes for the log
        for position, (user_id, message) in enumerate(entries):
            # The defer-followup marker is the server's to set (below):
            # a client that sets it would skip its signing duty.
            changed = DEFER_FOLLOWUP_KEY in message.extras
            if changed:
                del message.extras[DEFER_FOLLOWUP_KEY]
            rid = request_id(message)
            if rid is not None:
                cached = self.dedup.lookup(user_id, rid)
                if cached is not None:
                    # A retry of an operation that already executed:
                    # return the recorded response so the write is never
                    # applied twice and the client's register chain
                    # stays intact.
                    if _obs.enabled:
                        _DEDUP_HITS.inc(user=user_id)
                    plan.append(("cached", cached))
                    continue
            defect = self.refusal(message)
            if defect is not None:
                plan.append(("refused", ErrorReply(
                    reason=f"malformed request: {defect}",
                    extras={"retryable": False})))
                continue
            if rid is not None:
                if self.dedup.superseded(user_id, rid):
                    plan.append(("refused", ErrorReply(
                        reason="stale request: its session has moved past it",
                        extras={"retryable": False})))
                    continue
                if (user_id, rid) in staged:
                    # The same id twice in one batch (a client retried
                    # while the original was still queued): the second
                    # gets the first's answer.
                    plan.append(("exec", staged[(user_id, rid)]))
                    continue
                staged[(user_id, rid)] = len(fresh)
            plan.append(("exec", len(fresh)))
            fresh.append((user_id, message))
            logged.append(None if received is None or changed
                          else received[position])

        if fresh and self._is_signing_run(fresh):
            # Stamp every request but the last *before* logging, so WAL
            # replay reconstructs the identical deferred-followup run.
            for index, (_user, message) in enumerate(fresh[:-1]):
                message.extras[DEFER_FOLLOWUP_KEY] = True
                logged[index] = None

        if self.store is not None and fresh:
            for (_user, message), payload in zip(fresh, logged):
                self.store.wal_append(message, sync=False, received=payload)
                if _obs.enabled:
                    _WAL_APPENDS.inc()
            self.store.wal_sync()

        executed: list[Response] = []

        def answer(position: int) -> Response | ErrorReply:
            kind, payload = plan[position]
            return executed[payload] if kind == "exec" else payload

        sent = 0  # the answers yielded so far, in entry order
        held = len(plan) - 1  # the last waits for the batch's end
        for index in range(len(fresh) + 1):
            # What is ready leaves: a dedup hit or a refusal at once,
            # an executed request's answer once ``index`` ops have run.
            while sent < held and (plan[sent][0] != "exec"
                                   or plan[sent][1] < index):
                yield answer(sent)
                sent += 1
            if index == len(fresh):
                break
            user_id, message = fresh[index]
            response = self._execute_request(user_id, message)
            self._remember(user_id, message, response)
            # Replication deposits are per-operation (a client confirms
            # each verified (ctr, root) pair), so in replicated mode the
            # batch pays one lazy dirty-path root recompute per op here
            # instead of amortising them all into refresh_roots() below.
            if self.replicator is not None:
                self.replicator.observe(self)
            executed.append(response)

        if fresh:
            recomputed = self.refresh_roots()
            if _obs.enabled:
                _BATCHES.inc()
                _BATCH_SIZE.observe(len(fresh))
                _BATCH_ROOT_NODES.observe(recomputed)
                _DEDUP_ENTRIES.set(len(self.dedup))
            self._after_logged(len(fresh))

        if plan:
            yield answer(held)

    def _remember(self, user_id: str, message: Request,
                  response: Response) -> None:
        """Record an executed request's response under its id, then
        release what its ``ack`` says the session will not ask for
        again: the live batch and WAL replay both come here, so a
        recovered table is the live one."""
        rid = request_id(message)
        if rid is None:
            return
        self.dedup.record(user_id, rid, response)
        # An ack the live server would refuse can reach only an older
        # build's log, which kept the window instead: so does replay.
        if ACK_KEY in message.extras and _ack_defect(message) is None:
            self.dedup.release(user_id, _session_seq(rid)[0],
                               message.extras[ACK_KEY])

    def refusal(self, message: Request) -> str | None:
        """Why ``message`` cannot be executed whatever the state holds,
        or ``None``: the one shape rule, applied before the log."""
        defect = _ack_defect(message)
        if defect is not None:
            return defect
        if message.query is None:
            return self.protocol.internal_defect(message)
        return query_defect(message.query)

    def _is_signing_run(self, fresh: list[tuple[str, Request]]) -> bool:
        """Whether this batch is a Protocol I-style signing run: a
        blocking protocol that supports deferred follow-ups, fed more
        than one request from a single user."""
        if len(fresh) < 2:
            return False
        if not getattr(self.protocol, "supports_deferred_followup", False):
            return False
        first_user = fresh[0][0]
        return all(user == first_user for user, _message in fresh)

    def refresh_roots(self) -> int:
        """One batched dirty-path Merkle pass over every state branch;
        returns the number of nodes recomputed.

        Only dirty shard paths plus the top tree are touched;
        ``server.dirty_shards`` records how many shards each pass
        actually had to visit."""
        recomputed = 0
        observing = _obs.enabled
        for state in self.states.values():
            mtree = state.database.mtree
            if observing:
                _DIRTY_SHARDS.observe(mtree.dirty_shard_count)
            _root, nodes = mtree.refresh_root()
            recomputed += nodes
        return recomputed

    # -- snapshots ---------------------------------------------------------

    def _after_logged(self, messages: int) -> None:
        if self.store is None:
            return
        self._ops_since_snapshot += messages
        if self._ops_since_snapshot >= self.snapshot_every:
            try:
                self.snapshot()
            except (StorageError, OSError):
                # A failed periodic checkpoint (ENOSPC, EIO) must not
                # take the server down: the WAL is intact and every
                # acked write is replayable from it.  Back off, keep
                # serving, retry a quarter-interval later.  Bootstrap
                # and operator-requested snapshots still propagate --
                # only the opportunistic path is survivable.
                if _obs.enabled:
                    _SNAPSHOT_FAILURES.inc()
                self._ops_since_snapshot = (
                    self.snapshot_every - max(1, self.snapshot_every // 4))

    def snapshot(self) -> None:
        """Write a checkpoint now (durable mode only); starts the next log."""
        if self.store is None:
            return
        if self.attack is not None:
            # A checkpoint persists only the main branch and retires
            # the log beneath any Byzantine forks; replaying from it could
            # not reconstruct them (ticks restart at the checkpoint).  In
            # Byzantine mode the genesis-anchored WAL is the sole truth.
            return
        self.store.write_snapshot(self.state, self.dedup.export())
        self._ops_since_snapshot = 0
        if _obs.enabled:
            _SNAPSHOTS.inc()

    # -- shared plumbing ---------------------------------------------------

    def _next_round(self) -> int:
        return self._round + 1 if self._clock is None else self._clock()

    def tick(self) -> int:
        """The round of the message about to execute.  The attack's
        ``on_round`` fires once each time the round advances, before the
        first message of that round, whether request or follow-up."""
        round_no = self._next_round()
        if round_no != self._round:
            self._round = round_no
            if self.attack is not None:
                self.attack.on_round(self, round_no)
        return round_no

    @property
    def round(self) -> int:
        return self._round

    def blocked_for(self, user_id: str) -> bool:
        """Whether this user's next request must wait.

        Honest servers have one history; a Byzantine server checks the
        branch the attack would serve this user from, so a forked victim
        blocks on its own branch's pending follow-up rather than the
        main branch's.
        """
        return self.protocol.blocked(self._branch_for(user_id, self._next_round()))

    def all_unblocked(self) -> bool:
        return all(not self.protocol.blocked(s) for s in self.states.values())

    def close_store(self) -> None:
        if self.replicator is not None:
            self.replicator.close()
        if self.store is not None:
            self.store.close()
