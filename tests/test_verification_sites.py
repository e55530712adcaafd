"""One verification step per protocol, run by every site: a differential test.

A scripted response sequence -- honest, or honest up to one deviation at
a known operation -- is fed to every place that verifies responses:

* the protocol state object itself (``XorRegisters`` / ``SignedRootChain``);
* the simulator client (``Protocol2Client`` / ``Protocol1Client``);
* the TCP clients over a socketpair, stop-and-wait and pipelined, through
  the wire codec;
* ``evidence.reverify``, on a bundle of each operation packaged with the
  pre-operation state.

All of them must give the same verdict (the same reason) at the same
operation index, and hold the same registers after every accepted
operation.  A live detection's own bundle must replay to the same reason.
"""

import socket
import threading
from contextlib import contextmanager
from dataclasses import replace

import pytest

from helpers import FakeContext
from repro.crypto.signatures import Signature
from repro.mtree.database import (
    DeleteQuery,
    QueryResult,
    ReadQuery,
    VerifiedDatabase,
    WriteQuery,
)
from repro.net import (
    IntegrityError,
    RemoteClient,
    RemoteClientP1,
    RetryPolicy,
    evidence,
)
from repro.net import client as client_module
from repro.net.framing import FramingError, recv_message, send_message
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
from repro.wire import encode

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


def run_simulator_client(client, script):
    accepted = []
    for index, (query, response) in enumerate(script):
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
                    send_message(theirs, next(responses))
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

    traces = {"simulator": run_simulator_client(
        Protocol2Client(USER, [USER, "bob"], 100, initial_root, order=ORDER),
        script)}
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


@pytest.mark.parametrize("name", P1_SCENARIOS)
def test_protocol1_sites_agree(name, shared_keys, monkeypatch, tmp_path):
    bad_at, mutate, reason = P1_SCENARIOS[name]
    script = p1_script(shared_keys, bad_at, mutate)
    signer, verifier = shared_keys.signers[USER], shared_keys.verifier
    reference = run_state_object(SignedRootChain(USER, verifier, ORDER), script)

    traces = {"simulator": run_simulator_client(
        Protocol1Client(USER, [USER, "bob"], 100, signer, verifier, order=ORDER),
        script)}
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
