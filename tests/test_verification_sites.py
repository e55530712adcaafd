"""One verification step per protocol, run by every site: a differential test.

A scripted response sequence -- honest, or honest up to one deviation at
a known operation -- is fed to every place that verifies responses:

* the protocol state object itself (``XorRegisters`` / ``SignedRootChain``);
* the session core (``SessionCore``), the script fed straight to
  ``receive`` with no socket -- the rules every site below runs;
* the simulator client (``Protocol2Client`` / ``Protocol1Client``);
* the TCP clients over a socketpair, stop-and-wait and pipelined, through
  the wire codec -- the command line's ``--remote`` mode is this site (it
  opens a ``RemoteClient`` and holds no verification of its own:
  ``test_the_command_line_is_the_tcp_site``);
* ``evidence.reverify``, on a bundle of each operation packaged with the
  pre-operation state.

All of them must give the same verdict (the same reason) at the same
operation index, and hold the same registers after every accepted
operation.  A live detection's own bundle must replay to the same reason,
including for the rules the session adds to the step: a response that
echoes another operation's request id, and a frame that is no response.

The second half does the same one level down, for the rule every step
starts with -- a VO reduces to (old root, new root, answer) in
``repro.mtree.derive_outcome`` -- over one tree and two forests.
"""

import socket
import struct
import threading
from contextlib import contextmanager
from dataclasses import replace

import pytest

from helpers import FakeContext
from repro.crypto.hashing import Digest, hash_internal_node, hash_state
from repro.crypto.signatures import Signature
from repro.mtree import VerifiedOutcome, derive_outcome
from repro.mtree.database import (
    ClientVerifier,
    DeleteQuery,
    QueryResult,
    RangeQuery,
    ReadQuery,
    VerifiedDatabase,
    WriteQuery,
)
from repro.mtree.forest import StoreSpec, shard_for_key, shard_key
from repro.mtree.proofs import (
    FringeNode, ProofError, build_delete_proof, build_path_proof, build_range_proof)
from repro.net import (
    IntegrityError,
    RemoteClient,
    RemoteClientP1,
    RetryPolicy,
    TransientNetworkError,
    evidence,
)
from repro.net import client as client_module
from repro.net.framing import FramingError, recv_message, send_message
from repro.net.session import SessionCore
from repro.protocols.base import (
    DeviationDetected,
    Followup,
    Request,
    ServerState,
)
from repro.protocols.protocol1 import (
    DEFER_FOLLOWUP_KEY,
    Protocol1Client,
    Protocol1Server,
    SignedRootChain,
    bootstrap_server_state,
)
from repro.protocols.protocol2 import (
    Protocol2Client,
    Protocol2Server,
    XorRegisters,
)
from repro.wire import WireError, decode, encode

ORDER = 4
USER = "alice"
QUERIES = [
    WriteQuery(b"k0", b"v0"), WriteQuery(b"k1", b"v1"), ReadQuery(b"k0"),
    WriteQuery(b"k2", b"v2"), ReadQuery(b"k1"), DeleteQuery(b"k0"),
    ReadQuery(b"k2"), WriteQuery(b"k3", b"v3"),
]
#: Protocol I signing runs: ops 0-1, then ops 2-7; a run's last response
#: is final, so ops 0 and 2 are batch heads and 1, 3..7 are in-run.
RUNS = (2, 6)
HEAD, IN_RUN = 2, 4


# -- deviations: (server, state before the op, query, honest response) ->
# -- the response sent instead

def with_extras(**changes):
    def mutate(server, before, query, response):
        extras = {**response.extras}
        for name, change in changes.items():
            if change is None:
                del extras[name]
            else:
                extras[name] = change(extras[name]) if callable(change) else change
        return replace(response, extras=extras)
    return mutate


def bad_vo(server, before, query, response):
    """The answer no longer matches the proof that comes with it."""
    assert isinstance(query, ReadQuery)
    return replace(response, result=QueryResult(
        answer=b"/* backdoored */", proof=response.result.proof))


def forged_signature(signature):
    raw = bytes([signature.raw[0] ^ 1]) + signature.raw[1:]
    return Signature(signature.signer_id, signature.digest, raw)


def off_chain(server, before, query, response):
    """Serve the in-run operation from a state one hidden write away:
    the VO is sound and the counter contiguous, but its pre-state is not
    the previous operation's post-state."""
    before.database.execute(WriteQuery(b"hidden", b"write"))
    return server.handle_request(
        USER, Request(query, {DEFER_FOLLOWUP_KEY: True}), before, 0)


P2_SCENARIOS = {
    "honest": (None, None, None),
    "counter-regression": (4, with_extras(ctr=lambda ctr: ctr - 2), "regressed"),
    "initial-state-attributed": (0, with_extras(last_user="bob"), "initial state"),
    "missing-ctr": (3, with_extras(ctr=None), "malformed"),
    "non-integer-ctr": (3, with_extras(ctr="seven"), "malformed"),
    "bad-vo": (4, bad_vo, "verification object rejected"),
}

P1_SCENARIOS = {
    "honest": (None, None, None),
    "regression-at-head": (HEAD, with_extras(ctr=lambda ctr: ctr - 1), "regressed"),
    "regression-in-run": (IN_RUN, with_extras(ctr=lambda ctr: ctr - 3), "regressed"),
    "missing-signature": (IN_RUN, with_extras(sig=None), "malformed"),
    "non-integer-ctr": (HEAD, with_extras(ctr="seven"), "malformed"),
    "bad-vo": (IN_RUN, bad_vo, "verification object rejected"),
    "forged-signature": (HEAD, with_extras(sig=forged_signature),
                         "verify under the signer's key"),
    "wrong-signer": (HEAD, with_extras(last_user="bob"),
                     "does not name the claimed last user"),
    "signature-over-other-state": (HEAD, with_extras(ctr=lambda ctr: ctr + 1),
                                   "covers a different state digest"),
    "broken-in-run-chain": (IN_RUN, off_chain, "chain broken"),
    "non-contiguous-in-run-counter": (
        IN_RUN, with_extras(ctr=lambda ctr: ctr + 1), "not contiguous"),
}


# -- scripts ---------------------------------------------------------------

def p2_script(bad_at, mutate):
    """``(initial_root, [(query, response), ...])``; the script ends at
    the deviation, where every client halts."""
    state = ServerState(database=VerifiedDatabase(order=ORDER))
    server = Protocol2Server()
    server.initialize(state)
    initial_root = state.database.root_digest()
    script = []
    for index, query in enumerate(QUERIES):
        before = state.clone()
        response = server.handle_request(USER, Request(query), state, index)
        if index == bad_at:
            script.append((query, mutate(server, before, query, response)))
            break
        script.append((query, response))
    return initial_root, script


def p1_script(keys, bad_at, mutate):
    """An honest batching server's responses to ``RUNS``: each run's last
    request is final, the others carry the defer marker.  The honest
    follow-ups are produced the way a client would, so the next head
    presents a valid signature."""
    state = ServerState(database=VerifiedDatabase(order=ORDER))
    server = Protocol1Server()
    server.initialize(state)
    bootstrap_server_state(state, keys.signers["bob"])
    chain = SignedRootChain(USER, keys.verifier, ORDER)
    finals = {sum(RUNS[:n + 1]) - 1 for n in range(len(RUNS))}
    script = []
    for index, query in enumerate(QUERIES):
        extras = {} if index in finals else {DEFER_FOLLOWUP_KEY: True}
        before = state.clone()
        response = server.handle_request(
            USER, Request(query, extras), state, index)
        if index == bad_at:
            script.append((query, mutate(server, before, query, response)))
            break
        script.append((query, response))
        _outcome, to_sign = chain.step(query, response)
        if to_sign is not None:
            server.handle_followup(USER, Followup(
                {"sig": keys.signers[USER].sign(to_sign)}), state, index)
    return script


# -- sites: each returns (registers after every accepted op, verdict) ------

def registers_of(state):
    return tuple(state.snapshot().items())


def run_state_object(state, script):
    accepted = []
    for index, (query, response) in enumerate(script):
        try:
            state.step(query, response)
        except DeviationDetected as exc:
            return accepted, (index, exc.reason)
        accepted.append(registers_of(state))
    return accepted, None


def run_core(core, script):
    """Every script entry submitted and received; a detection's bundle
    (never written to disk) must replay to the same reason."""
    accepted = []
    for index, (query, response) in enumerate(script):
        core.submit(query)
        try:
            core.receive(response)
        except IntegrityError as exc:
            assert evidence.reverify(exc.bundle) == (True, str(exc))
            return accepted, (index, str(exc))
        accepted.append(registers_of(core.state))
    return accepted, None


def run_simulator_client(client, script):
    accepted = []
    for index, (query, response) in enumerate(script):
        client.make_request(query)
        try:
            client.handle_response(query, response, FakeContext())
        except DeviationDetected as exc:
            return accepted, (index, exc.reason)
        accepted.append(registers_of(client.state))
    return accepted, None


@contextmanager
def scripted_peer(monkeypatch, script):
    """The far end of a socketpair answering each request frame with the
    next scripted response; follow-ups are read and dropped."""
    ours, theirs = socket.socketpair()
    ours.settimeout(10)
    monkeypatch.setattr(client_module, "open_connection",
                        lambda *args, **kwargs: ours)

    def serve():
        responses = iter([response for _query, response in script])
        try:
            while True:
                message = recv_message(theirs)
                if message is None:
                    return
                if isinstance(message, Request):
                    response = next(responses)
                    if isinstance(response, bytes):  # a verbatim frame
                        theirs.sendall(struct.pack(">I", len(response)) + response)
                    else:
                        send_message(theirs, response)
        except (OSError, FramingError, StopIteration):
            return

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield
    finally:
        ours.close()
        theirs.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def recording(cls):
    """``cls`` noting its state object's registers after each verified op."""
    class Recording(cls):
        accepted = None

        def _absorb(self, query, request, response):
            answer = super()._absorb(query, request, response)
            self.accepted.append(registers_of(self.state))
            return answer
    return Recording


def run_tcp_client(make_client, script, pipelined):
    """Drive a TCP client through the script; a live detection's own
    bundle must replay to the same reason."""
    client = make_client()
    client.accepted = []
    try:
        if pipelined:
            for query, _response in script:
                client.submit(query)
            client.drain()
        else:
            for query, _response in script:
                client.execute(query)
    except IntegrityError as exc:
        replayed = evidence.reverify(evidence.read_bundle(exc.evidence_path))
        assert replayed == (True, str(exc))
        return client.accepted, (len(client.accepted), str(exc))
    return client.accepted, None


def run_reverify(state, protocol, script, keys, tmp_path):
    """Package every operation as a bundle against the pre-operation
    state; the first one that is genuine is the verdict."""
    for index, (query, response) in enumerate(script):
        bundle = evidence.response_bundle(
            protocol=protocol, user_id=USER, reason="replay", op_index=index,
            order=ORDER, request_frame=encode(Request(query, {"user": USER})),
            response_frame=encode(response), client_state=state.snapshot(),
            anchor=evidence.anchor_lineage(None, None),
            verifier_keys=evidence.key_directory(keys.verifier) if keys else None)
        path = evidence.write_bundle(str(tmp_path / f"{index}.evidence"), bundle)
        genuine, why = evidence.reverify(evidence.read_bundle(path))
        if genuine:
            return index, why
        state.step(query, response)
    return None


def assert_all_agree(reference, expected_at, expected_reason, script, traces,
                     replayed):
    accepted, verdict = reference
    if expected_at is None:
        assert verdict is None and len(accepted) == len(script)
    else:
        assert verdict is not None and verdict[0] == expected_at, verdict
        assert expected_reason in verdict[1]
    for site, trace in traces.items():
        assert trace == reference, site
    assert replayed == verdict


# -- the tests -------------------------------------------------------------

#: the TCP sites are one session class per protocol at three windows
TCP_SITES = {"stop-and-wait": 1, "pipelined-3": 3, "pipelined-8": 8}

@pytest.mark.parametrize("name", P2_SCENARIOS)
def test_protocol2_sites_agree(name, monkeypatch, tmp_path):
    bad_at, mutate, reason = P2_SCENARIOS[name]
    initial_root, script = p2_script(bad_at, mutate)
    reference = run_state_object(XorRegisters(USER, ORDER), script)

    traces = {
        "core": run_core(SessionCore(USER, XorRegisters(USER, ORDER), ORDER,
                                     protocol="II"), script),
        "simulator": run_simulator_client(
            Protocol2Client(USER, [USER, "bob"], 100, initial_root,
                            order=ORDER), script)}
    for site, window in TCP_SITES.items():
        with scripted_peer(monkeypatch, script):
            traces[site] = run_tcp_client(
                lambda: recording(RemoteClient)(
                    "peer", 0, USER, initial_root, order=ORDER,
                    retry=RetryPolicy(attempts=1), window=window,
                    evidence_dir=str(tmp_path / site)),
                script, pipelined=window > 1)
    replayed = run_reverify(XorRegisters(USER, ORDER), "II", script, None,
                            tmp_path)
    assert_all_agree(reference, bad_at, reason, script, traces, replayed)


def gets_with_a_foreign_rid():
    """Two honest answers to two gets; the second names a request id
    the session never sent."""
    state = ServerState(database=VerifiedDatabase(order=ORDER))
    server = Protocol2Server()
    server.initialize(state)
    initial_root = state.database.root_digest()
    script = [(query, server.handle_request(USER, Request(query), state, index))
              for index, query in enumerate([ReadQuery(b"k0")] * 2)]
    query, honest = script[1]
    script[1] = (query, replace(honest, extras={**honest.extras,
                                                "rid": "alice:x:99"}))
    return initial_root, script


@pytest.mark.parametrize("window", [1, 4])
def test_a_rid_mismatch_bundle_proves_itself(window, monkeypatch, tmp_path):
    """The rid rule is a session rule, and the bundle replays it."""
    initial_root, script = gets_with_a_foreign_rid()
    with scripted_peer(monkeypatch, script):
        client = RemoteClient("peer", 0, USER, initial_root, order=ORDER,
                              retry=RetryPolicy(attempts=1), window=window,
                              evidence_dir=str(tmp_path))
        with pytest.raises(IntegrityError, match="reordered or dropped") as live:
            for query, _response in script:
                client.submit(query)
            client.drain()
    assert client.operations == 1
    bundle = evidence.read_bundle(live.value.evidence_path)
    assert evidence.reverify(bundle) == (True, str(live.value))


def test_a_frame_that_is_not_a_response_is_a_detection(monkeypatch, tmp_path):
    """Counted, captured and out of the window like any other verdict."""
    from repro import obs

    initial_root, script = p2_script(None, None)
    script = [(script[0][0], Followup({"user": "bob"}))] + script[:1]
    obs.enable()
    with scripted_peer(monkeypatch, script):
        client = RemoteClient("peer", 0, USER, initial_root, order=ORDER,
                              retry=RetryPolicy(attempts=1),
                              evidence_dir=str(tmp_path))
        with pytest.raises(IntegrityError, match="not a response") as live:
            client.execute(script[0][0])
        assert client.inflight == 0
        assert obs.registry.counter("net.detections").total() == 1
        bundle = evidence.read_bundle(live.value.evidence_path)
        assert evidence.reverify(bundle) == (True, str(live.value))
        # the next operation reads its own answer, not the stale frame's
        assert client.execute(script[1][0]) is None and client.operations == 1


def test_the_command_line_is_the_tcp_site(tmp_path):
    """``repro --remote`` verifies nothing itself: its verbs run on the
    ``RemoteClient`` site above (``XorRegisters.step`` on every
    response), and ``cli.py`` names no proof, register, root rule or
    frame call a second copy would need.  What it prints on a deviation
    is compared with the step's reason in ``tests/test_cli_remote.py``."""
    import inspect

    from repro import cli
    from repro.net import serve_in_thread

    source = inspect.getsource(cli)
    for name in ("ClientVerifier", "implied_root", "derive_outcome",
                 "verified_outcome", "hash_tagged_state", "XorRegisters",
                 "repro.net.framing", "open_connection", "send_message",
                 "recv_message"):
        assert name not in source, name
    server = serve_in_thread(order=8)
    try:
        with cli.Workspace(str(tmp_path), USER,
                           remote="%s:%d" % server.address) as workspace:
            session = workspace.client._session
            assert type(session) is RemoteClient and session.window == 1
            assert type(session.state) is XorRegisters
    finally:
        server.stop()


@pytest.mark.parametrize("name", P1_SCENARIOS)
def test_protocol1_sites_agree(name, shared_keys, monkeypatch, tmp_path):
    bad_at, mutate, reason = P1_SCENARIOS[name]
    script = p1_script(shared_keys, bad_at, mutate)
    signer, verifier = shared_keys.signers[USER], shared_keys.verifier
    reference = run_state_object(SignedRootChain(USER, verifier, ORDER), script)

    traces = {
        "core": run_core(SessionCore(
            USER, SignedRootChain(USER, verifier, ORDER), ORDER, protocol="I",
            signer=signer), script),
        "simulator": run_simulator_client(
            Protocol1Client(USER, [USER, "bob"], 100, signer, verifier,
                            order=ORDER), script)}
    for site, window in TCP_SITES.items():
        with scripted_peer(monkeypatch, script):
            traces[site] = run_tcp_client(
                lambda: recording(RemoteClientP1)(
                    "peer", 0, USER, signer, verifier, order=ORDER,
                    window=window, evidence_dir=str(tmp_path / site)),
                script, pipelined=window > 1)
    replayed = run_reverify(SignedRootChain(USER, verifier, ORDER), "I",
                            script, shared_keys, tmp_path)
    assert_all_agree(reference, bad_at, reason, script, traces, replayed)


# -- the VO sites ----------------------------------------------------------
#
# The rule "a VO reduces to (old root, new root, answer)" is written once,
# in ``repro.mtree.derive_outcome``.  One gallery of VO deviations goes to
# everything that runs it -- the function itself, ``ClientVerifier``, both
# protocol state objects and ``evidence.reverify`` for both protocols -- at
# a forest of one and at two larger forests: the same verdict and reason
# everywhere, and the same roots after every accepted operation.

VO_SHARDS = (1, 2, 8)
VO_KEYS = [f"k{i:02d}".encode() for i in range(96)]


def vo_spec(shards):
    return StoreSpec(order=ORDER, shards=shards, top_order=ORDER)


def vo_store(shards):
    spec = vo_spec(shards)
    database = VerifiedDatabase(order=spec.order, shards=shards,
                                top_order=spec.top_order)
    for key in VO_KEYS:
        database.execute(WriteQuery(key, b"v-" + key))
    return database


def neighbour(key, shards, same_shard):
    """Another stored key, in ``key``'s shard or in a different one."""
    return next(k for k in VO_KEYS if k != key
                and (shard_for_key(k, shards) == shard_for_key(key, shards)) == same_shard)


#: an overwrite, reads (present, absent), a range, an insert, a delete
#: down the leftmost path of its tree, a delete of an absent key (the
#: verified no-op) and a read of what was deleted
VO_OPS = [WriteQuery(b"k05", b"new"), ReadQuery(b"k10"), ReadQuery(b"k10x"),
          RangeQuery(b"k08", b"k70"), WriteQuery(b"k96", b"v"),
          DeleteQuery(b"k00"), DeleteQuery(b"k77x"), ReadQuery(b"k00")]
VO_WRITE, VO_READ, VO_ABSENT, VO_RANGE, VO_INSERT, VO_DELETE = 0, 1, 2, 3, 4, 5


def with_inner(proof, **changes):
    """``proof`` with fields of its inner (one-tree) half changed."""
    return replace(proof, inner=replace(proof.inner, **changes))


def served_for(other_query):
    """The honest response to some other query."""
    def mutate(before, query, result, shards):
        return before.execute(other_query(query, shards))
    return mutate


def in_another_leaf(before, key, shards):
    """A stored key in ``key``'s shard, outside the leaf ``key`` routes
    to: its proof is another path."""
    leaf = before.execute(ReadQuery(key)).proof.inner.leaf
    return next(k for k in VO_KEYS if k not in leaf.keys
                and shard_for_key(k, shards) == shard_for_key(key, shards))


def absent_out_of_another_leaf(before, query, result, shards):
    """Absence, shown by the honest proof for a key in another leaf."""
    other = ReadQuery(in_another_leaf(before, query.key, shards))
    return QueryResult(None, before.execute(other).proof)


def write_in_another_leaf(before, query, result, shards):
    """The honest answer to the same write of a key in another leaf."""
    other = in_another_leaf(before, query.key, shards)
    return before.execute(WriteQuery(other, query.value))


def out_of_another_shard(before, query, result, shards):
    """The inner half built for the queried key itself, in a shard it
    does not route to (which lacks it), under the honest top half."""
    tree = before.shard_trees()[(shard_for_key(query.key, shards) + 1) % shards]
    inner = build_path_proof(tree, query.key) if isinstance(query, ReadQuery) \
        else build_delete_proof(tree, query.key)
    return QueryResult(None, replace(result.proof, inner=inner))


def stale_top(before, query, result, shards):
    """The shard part comes from a store one hidden write ahead of the
    one whose top tree the rest of the proof shows."""
    moved = before.clone()
    moved.execute(WriteQuery(neighbour(query.key, shards, True), b"hidden"))
    return QueryResult(result.answer, replace(
        result.proof, inner=moved.execute(query).proof.inner))


def revealed_digest(node):
    if isinstance(node, FringeNode):
        return hash_internal_node(
            node.keys, [revealed_digest(child) for child in node.children])
    return node if isinstance(node, Digest) else node.digest()


def hide_subtree(before, query, result, shards):
    """One revealed subtree of the queried range goes back to a bare
    digest (in one shard's proof, at a forest)."""
    def hide(proof):
        children = list(proof.root.children)
        index = next(i for i, child in enumerate(children)
                     if not isinstance(child, Digest))
        children[index] = revealed_digest(children[index])
        return replace(proof, root=FringeNode(proof.root.keys, tuple(children)))
    proof = result.proof
    shard_proofs = list(proof.shard_proofs)
    index = next(i for i, shard_proof in enumerate(shard_proofs)
                 if isinstance(shard_proof.root, FringeNode))
    shard_proofs[index] = hide(shard_proofs[index])
    return QueryResult(result.answer,
                       replace(proof, shard_proofs=tuple(shard_proofs)))


def other_answer(before, query, result, shards):
    answer = result.answer[1:] if isinstance(query, RangeQuery) else b"forged"
    return QueryResult(answer, result.proof)


def edge_sibling(before, query, result, shards):
    """A left sibling for the leftmost child of the path's first level."""
    inner = result.proof.inner
    first = inner.siblings[0]
    assert first.left is None and first.right is not None
    siblings = (replace(first, left=first.right),) + inner.siblings[1:]
    return QueryResult(result.answer, with_inner(result.proof, siblings=siblings))


def other_shape(before, query, result, shards):
    """The proof a store of the other shape would answer with."""
    other = vo_store(2 if shards == 1 else 1)
    return other.execute(query)


def top_dropped(before, query, result, shards):
    """The proof without its top half, as a forest of one answers."""
    return QueryResult(result.answer, replace(result.proof, top=None))


def top_sent(before, query, result, shards):
    """A forest of one's proof with the top half it implies sent anyway:
    the path to (or a range over) the one shard's entry in the top tree."""
    mtree, skey = before.mtree, shard_key(0)
    mtree.root_digest()  # the top tree commits the shard's current root
    top = build_range_proof(mtree.top_tree, skey, skey) if isinstance(query, RangeQuery) \
        else build_path_proof(mtree.top_tree, skey)
    return QueryResult(result.answer, replace(result.proof, top=top))


def shard_proof_dropped(before, query, result, shards):
    return QueryResult(result.answer, replace(
        result.proof, shard_proofs=result.proof.shard_proofs[:-1]))


#: name -> (operation, mutation, reason, the S it applies to).  A proof
#: names no key, shard, range or operation: those are the query's, and
#: a proof built for another one is refused at the op by a check on
#: what the client derives -- the routing fold, the top entry, range
#: completeness -- or by its type: a read and a write are answered
#: with the path, a delete with the path and its siblings.
VO_GALLERY = {
    "wrong-key-read": (VO_READ, absent_out_of_another_leaf,
                       "broken digest chain", VO_SHARDS),
    "wrong-key-absent-read": (VO_ABSENT, absent_out_of_another_leaf,
                              "broken digest chain", VO_SHARDS),
    "wrong-key-update": (VO_WRITE, write_in_another_leaf,
                         "broken digest chain", VO_SHARDS),
    "wrong-shard-read": (VO_READ, out_of_another_shard,
                         "top tree entry disagrees with the shard proof", (2, 8)),
    "wrong-shard-update": (VO_DELETE, out_of_another_shard,
                           "does not commit the shard's pre-update root", (2, 8)),
    "wrong-range": (VO_RANGE, served_for(lambda q, s: RangeQuery(b"k00", b"k95")),
                    "returned keys disagree with revealed leaves", VO_SHARDS),
    "stale-top-entry-read": (VO_READ, stale_top,
                             "top tree entry disagrees with the shard proof", (2, 8)),
    "stale-top-entry-update": (VO_WRITE, stale_top,
                               "does not commit the shard's pre-update root", (2, 8)),
    "hidden-in-range-subtree": (VO_RANGE, hide_subtree,
                                "hid a subtree that intersects", VO_SHARDS),
    "write-answered-with-delete-proof": (
        VO_WRITE, served_for(lambda q, s: DeleteQuery(q.key)),
        "a write's proof carries sibling pairs", VO_SHARDS),
    "delete-answered-with-insert-proof": (
        VO_DELETE, served_for(lambda q, s: WriteQuery(q.key, b"v")),
        "a delete's proof lacks its sibling pairs", VO_SHARDS),
    # a write's proof is the key's path, which is the read's proof: the
    # write's answer (None) is what gives it away
    "read-answered-with-update-proof": (VO_READ, served_for(
        lambda q, s: WriteQuery(q.key, b"v")),
        "server claimed absence but the leaf contains the key", VO_SHARDS),
    "read-answered-with-delete-proof": (VO_READ, served_for(
        lambda q, s: DeleteQuery(q.key)), "non-read proof", VO_SHARDS),
    "answer-is-not-the-proofs": (VO_READ, other_answer,
                                 "does not match the committed entry digest",
                                 VO_SHARDS),
    "answer-is-an-int": (VO_READ, lambda before, query, result, shards:
                         QueryResult(7, result.proof),
                         "read answer is neither a value nor None", VO_SHARDS),
    "range-answer-is-not-the-proofs": (VO_RANGE, other_answer,
                                       "returned keys disagree with revealed leaves",
                                       VO_SHARDS),
    "range-answer-is-none": (VO_RANGE, lambda before, query, result, shards:
                             QueryResult(None, result.proof),
                             "range answer is not a tuple of (key, value) entries",
                             VO_SHARDS),
    "range-answer-is-an-int": (VO_RANGE, lambda before, query, result, shards:
                               QueryResult(7, result.proof),
                               "range answer is not a tuple of (key, value) entries",
                               VO_SHARDS),
    "range-answer-out-of-order": (VO_RANGE, lambda before, query, result, shards:
                                  QueryResult(result.answer[1::-1] + result.answer[2:],
                                              result.proof),
                                  "range answer is not in key order", VO_SHARDS),
    "update-answered-with-a-value": (VO_WRITE, lambda before, query, result, shards:
                                     QueryResult(b"v", result.proof),
                                     "an update's answer must be None", VO_SHARDS),
    "sibling-for-an-edge-child": (VO_DELETE, edge_sibling,
                                  "left sibling supplied for a leftmost child",
                                  VO_SHARDS),
    # one store shape: a top half at S > 1 and none at S = 1, the
    # range's shard proofs one per shard
    "proof-of-the-other-store-shape": (VO_READ, other_shape,
                                       "top-tree half", VO_SHARDS),
    "range-proof-of-the-other-store-shape": (
        VO_RANGE, other_shape, "range proof does not cover every shard", VO_SHARDS),
    "top-half-dropped": (VO_READ, top_dropped,
                         "forest proof lacks its top-tree half", (2, 8)),
    "update-top-half-dropped": (VO_WRITE, top_dropped,
                                "forest proof lacks its top-tree half", (2, 8)),
    "range-top-half-dropped": (VO_RANGE, top_dropped,
                               "forest proof lacks its top-tree half", (2, 8)),
    "top-half-sent-for-a-forest-of-one": (
        VO_READ, top_sent, "a forest of one's proof carries a top-tree half", (1,)),
    "update-top-half-sent-for-a-forest-of-one": (
        VO_DELETE, top_sent, "a forest of one's proof carries a top-tree half", (1,)),
    "range-top-half-sent-for-a-forest-of-one": (
        VO_RANGE, top_sent, "a forest of one's proof carries a top-tree half", (1,)),
    "range-missing-a-shard-proof": (VO_RANGE, shard_proof_dropped,
                                    "range proof does not cover every shard", VO_SHARDS),
}


def vo_verdict(call):
    """``("ok", (old root, new root))`` or ``("rejected", reason)``."""
    try:
        outcome = call()
    except ProofError as exc:
        return "rejected", str(exc)
    except DeviationDetected as exc:
        prefix = "verification object rejected: "
        assert exc.reason.startswith(prefix), exc.reason
        return "rejected", exc.reason[len(prefix):]
    if isinstance(outcome, tuple):  # SignedRootChain: (outcome, to_sign)
        outcome = outcome[0]
    return "ok", (outcome.old_root, outcome.new_root)


def vo_reverify(protocol, state, query, response, spec, keys, tmp_path):
    bundle = evidence.response_bundle(
        protocol=protocol, user_id=USER, reason="replay", op_index=0,
        order=spec.to_wire(), request_frame=encode(Request(query, {"user": USER})),
        response_frame=encode(response), client_state=state.snapshot(),
        anchor=evidence.anchor_lineage(None, None),
        verifier_keys=evidence.key_directory(keys.verifier))
    path = evidence.write_bundle(str(tmp_path / f"{protocol}.evidence"), bundle)
    genuine, why = evidence.reverify(evidence.read_bundle(path))
    prefix = "verification object rejected: "
    return ("rejected", why[len(prefix):]) if genuine else ("ok", None)


def run_vo_sites(shards, keys, tmp_path, bad_at=None, mutate=None):
    """Every site on every operation; returns the per-operation verdicts
    of the reference site (``mtree.derive_outcome``) once all agree."""
    spec = vo_spec(shards)
    database = vo_store(shards)
    p2, p2_state = Protocol2Server(), ServerState(database=vo_store(shards))
    p2.initialize(p2_state)
    p1, p1_state = Protocol1Server(), ServerState(database=vo_store(shards))
    p1.initialize(p1_state)
    bootstrap_server_state(p1_state, keys.signers["bob"])
    tracked = ClientVerifier(database.root_digest(), spec)
    registers = XorRegisters(USER, spec)
    chain = SignedRootChain(USER, keys.verifier, spec)
    verdicts = []
    for index, query in enumerate(VO_OPS):
        before = database.clone()
        result = database.execute(query)
        p2_response = p2.handle_request(USER, Request(query), p2_state, index)
        p1_response = p1.handle_request(USER, Request(query), p1_state, index)
        assert p2_response.result == result == p1_response.result
        if index == bad_at:
            result = mutate(before, query, result, shards)
            p2_response = replace(p2_response, result=result)
            p1_response = replace(p1_response, result=result)
        reference = vo_verdict(lambda: derive_outcome(query, result, spec))
        replayed = {
            "reverify-II": vo_reverify("II", registers, query, p2_response,
                                       spec, keys, tmp_path),
            "reverify-I": vo_reverify("I", chain, query, p1_response,
                                      spec, keys, tmp_path),
        }
        def tracked_step():
            old_root = tracked.root_digest
            answer = tracked.apply(query, result)
            return VerifiedOutcome(old_root, tracked.root_digest, answer)
        sites = {
            "ClientVerifier": vo_verdict(tracked_step),
            "XorRegisters": vo_verdict(lambda: registers.step(query, p2_response)),
            "SignedRootChain": vo_verdict(lambda: chain.step(query, p1_response)),
        }
        for site, verdict in sites.items():
            assert verdict == reference, (index, site)
        for site, verdict in replayed.items():
            assert verdict[0] == reference[0], (index, site)
            if verdict[0] == "rejected":
                assert verdict[1] == reference[1], (index, site)
        verdicts.append(reference)
        if reference[0] == "rejected":
            break
        # the same roots everywhere, and they are the store's
        assert reference[1][1] == tracked.root_digest == database.root_digest()
        p1.handle_followup(USER, Followup({"sig": keys.signers[USER].sign(
            hash_state(reference[1][1], p1_state.ctr))}), p1_state, index)
    return verdicts


@pytest.mark.parametrize("shards", VO_SHARDS)
def test_vo_sites_accept_the_honest_store(shards, shared_keys, tmp_path):
    verdicts = run_vo_sites(shards, shared_keys, tmp_path)
    assert [kind for kind, _ in verdicts] == ["ok"] * len(VO_OPS)
    roots = [roots for _kind, roots in verdicts]
    for (_old, new), (old, _new) in zip(roots, roots[1:]):
        assert new == old  # each operation starts where the last one ended
    for index, (old, new) in enumerate(roots):
        moved = index in (VO_WRITE, VO_INSERT, VO_DELETE)
        assert (old != new) == moved, index  # the absent delete moved nothing


@pytest.mark.parametrize("name,shards", [
    (name, shards) for name, entry in VO_GALLERY.items() for shards in entry[3]])
def test_vo_sites_agree_on_the_gallery(name, shards, shared_keys, tmp_path):
    bad_at, mutate, reason, _applies = VO_GALLERY[name]
    verdicts = run_vo_sites(shards, shared_keys, tmp_path, bad_at, mutate)
    assert len(verdicts) == bad_at + 1
    assert verdicts[-1][0] == "rejected" and reason in verdicts[-1][1], verdicts[-1]


# An ill-typed VO -- a decodable value of the wrong wire type in a proof's
# field -- has one verdict too: it cannot be built.  In process the class
# refuses it; on the wire the frame is malformed, which a session treats
# as line noise (never an AttributeError out of the step) and the
# re-verifier as the deviation it is.

ILL_TYPED = [
    ("leaf", lambda part: None),
    ("leaf", lambda part: Digest.zero()),
    ("internals", lambda part: 7),
    ("internals", lambda part: (part.leaf,)),
    ("internals", lambda part: (Digest.zero(),)),
    ("path", lambda part: part.path.leaf),
    ("path", lambda part: None),
    ("siblings", lambda part: None),
    ("siblings", lambda part: (None,)),
    ("root", lambda part: Digest.zero()),
    ("root", lambda part: None),
]


def ill_typed_frames(shards):
    """``(query, response frame with one ill-typed field)`` for every
    field of every proof kind the store answers with.  In process the
    class refuses the value; the frame is the honest one with that
    field's bytes replaced by the ill-typed value's."""
    state = ServerState(database=vo_store(shards))
    server = Protocol2Server()
    server.initialize(state)
    for query in (ReadQuery(b"k10"), WriteQuery(b"k05", b"new"),
                  DeleteQuery(b"k20"), RangeQuery(b"k08", b"k70")):
        response = server.handle_request(USER, Request(query), state.clone(), 0)
        frame = encode(response)
        proof = response.result.proof
        parts = [proof.shard_proofs[0] if hasattr(proof, "shard_proofs")
                 else proof.inner]
        parts += [part.path for part in parts if hasattr(part, "path")]
        for part, (name, bad) in ((part, row) for part in parts for row in ILL_TYPED):
            if not hasattr(part, name):
                continue
            with pytest.raises(ProofError, match="malformed"):
                replace(part, **{name: bad(part)})
            honest = encode(getattr(part, name))
            at = frame.rfind(honest)
            assert at >= 0
            yield query, (frame[:at] + encode(bad(part))
                          + frame[at + len(honest):])


@pytest.mark.parametrize("shards", (1, 8))
def test_ill_typed_vo_has_one_verdict(shards, monkeypatch, tmp_path):
    spec = vo_spec(shards)
    cases = list(ill_typed_frames(shards))
    assert len(cases) >= 20
    for index, (query, frame) in enumerate(cases):
        with pytest.raises(WireError, match="malformed"):
            decode(frame)
        bundle = evidence.response_bundle(
            protocol="II", user_id=USER, reason="replay", op_index=0,
            order=spec.to_wire(), request_frame=encode(Request(query)),
            response_frame=frame,
            client_state=XorRegisters(USER, spec).snapshot(),
            anchor=evidence.anchor_lineage(None, None))
        genuine, why = evidence.reverify(bundle)
        assert genuine and "does not decode" in why
        with scripted_peer(monkeypatch, [(query, frame)]):
            client = RemoteClient(
                "peer", 0, USER, vo_store(shards).root_digest(), order=spec,
                retry=RetryPolicy(attempts=1),
                evidence_dir=str(tmp_path / str(index)))
            with pytest.raises(TransientNetworkError):
                client.execute(query)
