"""The dedup window is one number both sides import.

What is pinned here:

* **the window is a fact** -- a session cannot open a window deeper than
  the server remembers per user, the deepest one is remembered whole,
  and a whole window resent after a kill is answered from the recovered
  table, counter advanced by 0;
* **bounded** -- a checkpoint never records more than the window for a
  session, however long it has run;
* **refused by name** -- a snapshot or manifest whose dedup entry is not
  ``(str, Response)`` is a ``WalError`` saying which, not a bare
  ``ValueError`` out of ``DedupTable.load``.
"""

import os
import sqlite3

import pytest

from repro.crypto.hashing import Digest
from repro.mtree.database import WriteQuery
from repro.net import (
    RemoteClient, RemoteClientP1, ServerCore, WalError, serve_in_thread)
from repro.net.core import DedupTable
from repro.net.wal import ServerStore
from repro.protocols.base import DEDUP_WINDOW, Request
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
        conn.execute("UPDATE meta SET value=? WHERE key='checkpoint'",
                     (encode(manifest),))
        conn.commit()
        conn.close()
        with pytest.raises(WalError, match=r"checkpoint manifest: dedup entry "
                                           r"1 of user 'u' is not a \(request"):
            _core(data_dir, "sqlite")
