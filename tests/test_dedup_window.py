"""The dedup window is one number both sides import.

What is pinned here:

* **the window is a fact** -- a session cannot open a window deeper than
  the server remembers per user, the deepest one is remembered whole,
  and a whole window resent after a kill is answered from the recovered
  table, counter advanced by 0;
* **bounded** -- a checkpoint never records more than the window for a
  session, however long it has run;
* **acknowledged** -- a request's ``ack`` releases its session's answers
  below it, live and on WAL replay alike: a stop-and-wait session's
  checkpoint records one response, a window's at most the window; a
  late copy of a released request is refused, not executed again, and
  an ``ack`` of the wrong shape is refused before the log, by name;
* **refused by name** -- a snapshot or manifest whose dedup entry is not
  ``(str, Response)`` is a ``WalError`` saying which, not a bare
  ``ValueError`` out of ``DedupTable.load``.
"""

import os
import sqlite3
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import Digest
from repro.mtree.database import WriteQuery
from repro.net import (
    RemoteClient, RemoteClientP1, ServerCore, WalError, serve_in_thread)
from repro.net.client import protocol2_core
from repro.net.core import DedupTable, _session_seq
from repro.net.wal import ServerStore
from repro.protocols.base import DEDUP_WINDOW, ErrorReply, Request
from repro.storage.pagestore import _meta_checksum
from repro.wire import decode, encode


def _request(user, seq):
    return Request(query=WriteQuery(b"%s-%04d" % (user.encode(), seq), b"v"),
                   extras={"user": user, "rid": f"{user}:{seq}"})


def _run(core, user, start, count):
    for seq in range(start, start + count):
        core.apply_request(user, _request(user, seq))


def _core(data_dir, backend):
    return ServerCore(order=4, data_dir=data_dir, backend=backend,
                      fsync=False, shards=2, snapshot_every=10**9)


class TestTheWindowIsAFact:
    def test_no_window_deeper_than_the_server_remembers(self):
        # refused before any connection is tried: nothing listens here
        with pytest.raises(ValueError, match="deeper than the 64 responses"):
            RemoteClient("127.0.0.1", 1, "u", Digest.zero(),
                         window=DEDUP_WINDOW + 1)
        with pytest.raises(ValueError, match="deeper than the 64 responses"):
            RemoteClientP1("127.0.0.1", 1, "u", None, None,
                           window=DEDUP_WINDOW + 1)

    def test_the_deepest_window_is_remembered_whole(self):
        server = serve_in_thread(order=4)
        try:
            host, port = server.address
            with RemoteClient(host, port, "u", server.initial_root_digest(),
                              order=4, window=DEDUP_WINDOW) as session:
                for n in range(DEDUP_WINDOW + 10):
                    session.submit(WriteQuery(b"k%d" % n, b"v"))
                session.drain()
                rids = [session.core.rid(n) for n in range(DEDUP_WINDOW + 10)]
            table = server.with_core(lambda core: core.dedup.export())
            assert [rid for rid, _answer in table["u"]] == rids[10:]
        finally:
            server.stop()

    def test_the_servers_table_is_the_window(self):
        assert DedupTable().window == ServerCore().dedup.window == \
            DEDUP_WINDOW == 64

    @pytest.mark.parametrize("backend", ["file", "sqlite"])
    def test_a_killed_servers_window_is_answered_from_the_table(
            self, tmp_path, backend):
        data_dir = str(tmp_path)
        core = _core(data_dir, backend)
        _run(core, "u", 0, 100)
        window = [("u", _request("u", 100 + n)) for n in range(16)]
        answers = core.apply_batch(window)
        core.snapshot()
        table = core.dedup.export()
        core.store.close()  # kill -9: nothing else runs
        fresh = _core(data_dir, backend)
        assert fresh.replayed_records == 0  # the checkpoint is all there is
        assert fresh.dedup.export() == table
        assert fresh.state.ctr == 116
        assert fresh.apply_batch(window) == answers
        assert fresh.state.ctr == 116
        fresh.close_store()

    def test_twenty_checkpoints_of_one_session_stay_inside_the_window(
            self, tmp_path):
        core = _core(str(tmp_path), "sqlite")
        for checkpoint in range(20):
            _run(core, "u", checkpoint * 30, 30)
            core.snapshot()
            assert len(core.store._manifest["dedup"]["u"]) == \
                min(DEDUP_WINDOW, 30 * (checkpoint + 1))
        core.close_store()


def _rids(core, user="u"):
    return [rid for rid, _answer in core.dedup.export().get(user, [])]


class TestTheAckReleases:
    @pytest.mark.parametrize("backend", ["file", "sqlite"])
    def test_a_sessions_window_killed_after_a_checkpoint_is_answered_whole(
            self, tmp_path, backend):
        data_dir = str(tmp_path)
        core = _core(data_dir, backend)
        session = protocol2_core("u", core.state.database.spec)
        verified = [session.submit(WriteQuery(b"k%d" % n, b"v"))
                    for n in range(16)]
        for answer in core.apply_batch([("u", r) for r in verified]):
            session.receive(answer)
        window = [session.submit(WriteQuery(b"k%d" % n, b"w"))
                  for n in range(16, 32)]
        assert {request.extras["ack"] for request in window} == {16}
        answers = core.apply_batch([("u", request) for request in window])
        core.snapshot()
        assert _rids(core) == [session.rid(n) for n in range(16, 32)]
        table = core.dedup.export()
        core.store.close()  # kill -9: nothing else runs
        fresh = _core(data_dir, backend)
        assert fresh.replayed_records == 0  # the checkpoint is all there is
        assert fresh.dedup.export() == table
        assert fresh.apply_batch([("u", r) for r in window]) == answers
        assert fresh.state.ctr == 32  # advanced by 0
        for answer in answers:
            session.receive(answer)
        fresh.close_store()

    def test_a_stop_and_wait_sessions_checkpoint_records_one_response(
            self, tmp_path):
        core = _core(str(tmp_path), "sqlite")
        session = protocol2_core("u", core.state.database.spec)
        for n in range(100):
            session.receive(core.apply_request(
                "u", session.submit(WriteQuery(b"k%d" % n, b"v"))))
        core.snapshot()
        assert [rid for rid, _answer in core.store._manifest["dedup"]["u"]] \
            == [session.rid(99)]
        core.close_store()

    def test_wal_replay_releases_as_the_live_server_did(self, tmp_path):
        data_dir = str(tmp_path)
        core = _core(data_dir, "file")
        sessions = [protocol2_core("u", core.state.database.spec)
                    for _ in range(2)]
        _run(core, "u", 0, 3)  # an ack-less session keeps its window
        for n in range(40):
            session = sessions[n % 2]
            session.receive(core.apply_request(
                "u", session.submit(WriteQuery(b"k%d" % n, b"v"))))
        live = core.dedup.export()
        assert _rids(core) == ["u:0", "u:1", "u:2", sessions[0].rid(19),
                               sessions[1].rid(19)]
        core.store.close()
        fresh = _core(data_dir, "file")
        assert fresh.replayed_records == 43
        assert fresh.dedup.export() == live
        fresh.close_store()

    def test_a_late_copy_of_a_released_request_is_refused_not_executed(self):
        core = ServerCore(order=4)
        session = protocol2_core("u", 4)
        first = session.submit(WriteQuery(b"a", b"1"))
        session.receive(core.apply_request("u", first))
        session.receive(core.apply_request(
            "u", session.submit(WriteQuery(b"b", b"1"))))
        assert _rids(core) == [session.rid(1)]
        late = core.apply_request("u", first)  # off a dead connection
        assert isinstance(late, ErrorReply)
        assert late.extras == {"retryable": False}
        assert "stale request" in late.reason
        assert core.state.ctr == 2  # not applied twice

    def test_an_id_twice_in_one_batch_is_answered_past_an_ack(self):
        core = ServerCore(order=4)
        first, second = (
            Request(query=WriteQuery(b"k%d" % seq, b"v"),
                    extras={"user": "u", "rid": f"u:n:{seq}", "ack": seq})
            for seq in range(2))
        answers = core.apply_batch([("u", first), ("u", second), ("u", first)])
        assert answers[2] is answers[0] and core.state.ctr == 2


#: request ids of two sessions of one user, and of no session at all
_RIDS = st.sampled_from(["u:a:", "u:b:", "u:", "u:a:0"]).flatmap(
    lambda prefix: st.just(prefix) if prefix == "u:a:0"
    else st.integers(0, 9).map(lambda seq: f"{prefix}{seq}"))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["record", "release", "superseded"]),
                          _RIDS, st.integers(0, 10)), max_size=40))
def test_the_table_is_a_window_filtered_by_acks(steps):
    """Against the table as a list scanned whole: record keeps the last
    four per user, release filters one session's ids below the ack,
    superseded asks for a later id of the same session."""
    table, model = DedupTable(window=4), []

    def sessions(rid):
        prefix, _colon, seq = rid.rpartition(":")
        return (prefix + ":", int(seq)) if ":" in prefix else None

    for step, rid, ack in steps:
        if step == "record":
            table.record("u", rid, rid.upper())
            model = [pair for pair in model if pair[0] != rid][-3:] \
                + [(rid, rid.upper())]
        elif step == "release" and sessions(rid) is not None:
            prefix = sessions(rid)[0]
            table.release("u", prefix, ack)
            model = [(known, answer) for known, answer in model
                     if sessions(known) is None
                     or sessions(known)[0] != prefix or sessions(known)[1] >= ack]
        elif step == "superseded":
            mine = sessions(rid)
            assert table.superseded("u", rid) == (mine is not None and any(
                sessions(known) is not None and sessions(known)[0] == mine[0]
                and sessions(known)[1] > mine[1] for known, _answer in model))
        assert table.export().get("u", []) == model
    restored = DedupTable(window=4)
    restored.load(table.export())
    assert restored.export().get("u", []) == model
    for rid in ["u:a:5", "u:b:5", "u:a:0"]:
        assert restored.superseded("u", rid) == table.superseded("u", rid)


class _ScanningTable:
    """The table as it was kept before each session's seqs were held in
    order: every verdict and release scans the user's whole window."""

    def __init__(self, window):
        self.window, self.users = window, {}

    def record(self, user, rid, response):
        entries = self.users.setdefault(user, OrderedDict())
        entries[rid] = response
        entries.move_to_end(rid)
        while len(entries) > self.window:
            entries.popitem(last=False)

    def _seqs(self, user, prefix):
        return [(session[1], rid) for rid in self.users.get(user, {})
                if (session := _session_seq(rid)) is not None
                and session[0] == prefix]

    def superseded(self, user, rid):
        session = _session_seq(rid)
        return session is not None and any(
            seq > session[1] for seq, _rid in self._seqs(user, session[0]))

    def release(self, user, prefix, ack):
        released = {rid for seq, rid in self._seqs(user, prefix) if seq < ack}
        for rid in released:
            del self.users[user][rid]
        return released


#: ids of two users' sessions, sent in any order, and of no session
_ANY_RIDS = st.tuples(
    st.sampled_from(["u", "v"]),
    st.sampled_from(["{u}:a:", "{u}:a:", "{u}:a:", "{u}:b:", "{u}:",
                     "{u}:a:0", "{u}:a:07", "{u}:a:x"]),
    st.integers(0, 7)).map(
        lambda pick: (pick[0], pick[1].format(u=pick[0])
                      + ("" if pick[1].endswith(("0", "7", "x"))
                         else str(pick[2]))))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["record", "record", "release", "superseded",
                     "superseded", "reload"]),
    _ANY_RIDS, st.integers(0, 8)), max_size=60))
def test_ordered_sessions_give_the_scanning_tables_verdicts(steps):
    """Verdicts and released ids equal a whole-window scan's over random
    streams: two users, seqs recorded out of order, windows overflowing,
    acks anywhere, and the table reloaded from its export."""
    table, reference = DedupTable(window=6), _ScanningTable(window=6)
    for step, (user, rid), ack in steps:
        if step == "record":
            table.record(user, rid, rid.upper())
            reference.record(user, rid, rid.upper())
        elif step == "release" and _session_seq(rid) is not None:
            prefix = _session_seq(rid)[0]
            before = {known for known, _ in table.export().get(user, [])}
            table.release(user, prefix, ack)
            after = {known for known, _ in table.export().get(user, [])}
            assert before - after == reference.release(user, prefix, ack)
        elif step == "superseded":
            assert table.superseded(user, rid) == \
                reference.superseded(user, rid)
        elif step == "reload":
            exported = table.export()
            table = DedupTable(window=6)
            table.load(exported)
        assert table.export() == {
            name: list(entries.items())
            for name, entries in reference.users.items()}


#: an ``ack`` no session sends, beside a rid whose seq is 5
_MALFORMED_ACK = {
    "a-bool": {"rid": "u:n:5", "ack": True},
    "a-str": {"rid": "u:n:5", "ack": "3"},
    "a-float": {"rid": "u:n:5", "ack": 3.0},
    "none": {"rid": "u:n:5", "ack": None},
    "negative": {"rid": "u:n:5", "ack": -1},
    "beyond-its-request": {"rid": "u:n:5", "ack": 6},
    "no-rid": {"ack": 0},
    "rid-without-a-nonce": {"rid": "u:5", "ack": 0},
    "rid-seq-not-a-number": {"rid": "u:n:five", "ack": 0},
}


class TestMalformedAckRefusedByName:
    @pytest.mark.parametrize("extras", _MALFORMED_ACK.values(),
                             ids=_MALFORMED_ACK)
    def test_refused_before_the_log(self, tmp_path, extras):
        data_dir = str(tmp_path)
        core = _core(data_dir, "file")
        for seq in range(5):
            core.apply_request("u", Request(
                query=WriteQuery(b"k%d" % seq, b"v"),
                extras={"user": "u", "rid": f"u:n:{seq}", "ack": 0}))
        table = core.dedup.export()
        wal = core.store.wal_path
        logged = os.path.getsize(wal)
        refused = core.apply_request("u", Request(
            query=WriteQuery(b"k", b"v"), extras={"user": "u", **extras}))
        assert isinstance(refused, ErrorReply)
        assert refused.extras == {"retryable": False}
        assert "malformed request: an ack" in refused.reason
        assert os.path.getsize(wal) == logged and core.state.ctr == 5
        assert core.dedup.export() == table
        core.store.close()
        assert _core(data_dir, "file").dedup.export() == table

    @pytest.mark.parametrize("extras", [
        {"rid": "x", "ack": "3"}, {"rid": "u:n:5", "ack": "3"},
        {"rid": "u:n:5", "ack": True}, {"rid": "u:n:5", "ack": 7}],
        ids=["a-str-beside-a-bare-rid", "a-str", "a-bool",
             "beyond-its-request"])
    def test_an_older_logs_malformed_ack_replays_and_releases_nothing(
            self, tmp_path, extras):
        # An older server checked nothing about ``ack``: it logged and
        # executed such a request and kept its window.
        data_dir = str(tmp_path)
        core = _core(data_dir, "file")
        for seq in range(5):
            core.store.wal_append(Request(
                query=WriteQuery(b"k%d" % seq, b"v"),
                extras={"user": "u", "rid": f"u:n:{seq}"}))
        core.store.wal_append(Request(
            query=WriteQuery(b"k", b"v"), extras={"user": "u", **extras}))
        core.store.close()
        fresh = _core(data_dir, "file")
        assert fresh.replayed_records == 6 and fresh.state.ctr == 6
        assert _rids(fresh) == [f"u:n:{seq}" for seq in range(5)] \
            + [extras["rid"]]
        fresh.close_store()

    @pytest.mark.parametrize("ack", [0, 3, 5])
    def test_an_ack_up_to_its_own_request_is_taken(self, ack):
        core = ServerCore(order=4)
        for seq in range(5):
            core.apply_request("u", Request(
                query=WriteQuery(b"k%d" % seq, b"v"),
                extras={"user": "u", "rid": f"u:n:{seq}"}))
        core.apply_request("u", Request(
            query=WriteQuery(b"k", b"v"),
            extras={"user": "u", "rid": "u:n:5", "ack": ack}))
        assert _rids(core) == [f"u:n:{seq}" for seq in range(ack, 6)]


#: what a dedup entry must not be, and may have been before the check
_ILL_TYPED = {
    "response": lambda pair: ["u:1", 5],
    "length": lambda pair: ["u:1", "u:1", pair[1]],
    "rid": lambda pair: [9, pair[1]],
}


@pytest.mark.parametrize("doctor", _ILL_TYPED.values(), ids=_ILL_TYPED)
class TestIllTypedEntryRefusedByName:
    def test_file_snapshot(self, tmp_path, doctor):
        data_dir = str(tmp_path)
        core = _core(data_dir, "file")
        _run(core, "u", 0, 3)
        state, table = core.state, core.dedup.export()
        core.close_store()
        table["u"][1] = tuple(doctor(table["u"][1]))
        store = ServerStore(data_dir, fsync=False)
        store.write_snapshot(state, table)
        store.close()
        with pytest.raises(WalError, match=r"checkpoint manifest: dedup entry 1 "
                                           r"of user 'u' is not a \(request id"):
            _core(data_dir, "file")

    def test_paged_manifest(self, tmp_path, doctor):
        data_dir = str(tmp_path)
        core = _core(data_dir, "sqlite")
        _run(core, "u", 0, 3)
        core.snapshot()
        core.close_store()
        conn = sqlite3.connect(os.path.join(data_dir, "pages.db"))
        (blob,) = conn.execute(
            "SELECT value FROM meta WHERE key='checkpoint'").fetchone()
        manifest = decode(bytes(blob))
        pairs = list(manifest["dedup"]["u"])
        pairs[1] = doctor(pairs[1])
        manifest["dedup"] = {"u": pairs}
        doctored = encode(manifest)  # past the row's checksum: the parser's rule
        conn.execute("UPDATE meta SET value=?, checksum=? WHERE key='checkpoint'",
                     (doctored, _meta_checksum("checkpoint", doctored)))
        conn.commit()
        conn.close()
        with pytest.raises(WalError, match=r"checkpoint manifest: dedup entry "
                                           r"1 of user 'u' is not a \(request"):
            _core(data_dir, "sqlite")
