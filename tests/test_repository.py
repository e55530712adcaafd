"""The multi-file repository verbs, on the verifying session.

``CvsClient`` needs one thing, ``execute(query) -> trusted answer``.
Here that is a Protocol II session per author against one served
repository -- what ``repro --remote`` runs -- so every verb below is
checked with two writers on one store, which the in-process Section 4.1
loop of ``tests/test_facade.py`` cannot have.  Every test ends with the
authors' register exchange: two honest writers never alarm.
"""

import pytest

from repro.core.facade import CvsClient
from repro.mtree.database import WriteQuery
from repro.net import RemoteClient, serve_in_thread, sync_check
from repro.storage.rcs import RevisionStore


@pytest.fixture
def team():
    """``(alice, bob)`` on one server; alice has made the initial import."""
    server = serve_in_thread(order=8)
    host, port = server.address
    genesis = server.initial_root_digest()
    sessions = {name: RemoteClient(host, port, name, genesis)
                for name in ("alice", "bob")}
    alice, bob = (CvsClient(session, author=name)
                  for name, session in sessions.items())
    alice.commit_many(
        {"src/main.c": ["int main() {}"], "src/common.h": ["#define VERSION 1"]},
        "initial import")
    try:
        yield alice, bob
        assert sync_check(genesis, {name: session.registers()
                                    for name, session in sessions.items()})
    finally:
        for session in sessions.values():
            session.close()
        server.stop()


class TestCommitCheckout:
    def test_paths(self, team):
        _alice, bob = team
        assert bob.paths() == ["src/common.h", "src/main.c"]

    def test_contains(self, team):
        _alice, bob = team
        assert "src/main.c" in bob.paths("src/")
        assert "unknown.c" not in bob.paths()

    def test_checkout_head(self, team):
        _alice, bob = team
        assert bob.checkout("src/common.h") == ["#define VERSION 1"]

    def test_checkout_old_revision(self, team):
        alice, bob = team
        bob.commit("src/common.h", ["#define VERSION 2"], "bump")
        assert alice.checkout("src/common.h") == ["#define VERSION 2"]
        assert alice.checkout("src/common.h", "1.1") == ["#define VERSION 1"]

    def test_unknown_path(self, team):
        _alice, bob = team
        with pytest.raises(FileNotFoundError):
            bob.checkout("nope.c")

    def test_empty_commit_rejected(self, team):
        alice, _bob = team
        with pytest.raises(ValueError):
            alice.commit_many({}, "empty")

    def test_checkout_all(self, team):
        _alice, bob = team
        copy = {path: bob.checkout(path) for path in bob.paths()}
        assert copy == {"src/common.h": ["#define VERSION 1"],
                        "src/main.c": ["int main() {}"]}

    def test_multi_file_commit_records_revisions(self, team):
        _alice, bob = team
        revisions = bob.commit_many(
            {"src/main.c": ["changed"], "README": ["docs"]}, "two files")
        assert set(revisions) == {"src/main.c", "README"}
        assert revisions["src/main.c"].number == "1.2"
        assert revisions["README"].number == "1.1"

    def test_history(self, team):
        alice, bob = team
        bob.commit("src/main.c", ["x"], "edit")
        history = alice.log("src/main.c")
        assert [revision.author for revision in history] == ["alice", "bob"]
        assert history[1].log_message == "edit"

    def test_head_revision(self, team):
        _alice, bob = team
        assert bob.log("src/main.c")[-1].number == "1.1"


class TestRemove:
    def test_remove_hides_path(self, team):
        alice, bob = team
        alice.remove("src/main.c", "drop")
        assert bob.paths() == ["src/common.h"]

    def test_dead_history_reachable(self, team):
        alice, bob = team
        alice.remove("src/main.c", "drop")
        assert bob.checkout("src/main.c", "1.1") == ["int main() {}"]

    def test_resurrect_via_commit(self, team):
        alice, bob = team
        alice.remove("src/main.c", "drop")
        revision = bob.commit("src/main.c", ["reborn"], "revive")
        assert revision.number == "1.3"
        assert alice.checkout("src/main.c") == ["reborn"]
        assert alice.paths() == ["src/common.h", "src/main.c"]

    def test_remove_unknown_rejected(self, team):
        _alice, bob = team
        with pytest.raises(FileNotFoundError):
            bob.remove("ghost.c", "drop")


class TestMerkleIntegration:
    """A file's Merkle-tree value is its whole history, keyed by path."""

    def test_serialize_file_roundtrip(self, team):
        _alice, bob = team
        blob = bob._session.get(b"src/main.c")
        store = RevisionStore.deserialize(blob)
        assert store.checkout() == ["int main() {}"]
        assert store.serialize() == blob

    def test_serialize_unknown(self, team):
        _alice, bob = team
        assert bob._session.get(b"ghost") is None


class _CommitsBeforeMyWrite:
    """A session that lets another author commit between this author's
    read of a file and the write that follows it: two authors who both
    checked out the same head, racing."""

    def __init__(self, session, other_commit) -> None:
        self._session = session
        self._other_commit = other_commit

    def execute(self, query):
        if isinstance(query, WriteQuery) and self._other_commit is not None:
            self._other_commit, commit = None, self._other_commit
            commit()
        return self._session.execute(query)


class TestLostUpdate:
    """ROADMAP item 17: a commit reads the file's history and writes the
    whole history back, with no condition between the two, so of two
    authors who both read 1.1 the second overwrites the first.  Every
    check passes -- the server was honest and the history is legal --
    which makes it the one known silent defect (DESIGN section 9).  When
    the up-to-date check of item 17(a) lands, this test passes and the
    strict xfail flips."""

    @pytest.mark.xfail(strict=True, reason="item 17: a commit can lose an "
                       "acked update (no up-to-date check)")
    def test_racing_commits_keep_both_revisions(self, team):
        alice, bob = team
        alice.commit("f.txt", ["1.1 text"], "import")
        racing_bob = CvsClient(_CommitsBeforeMyWrite(
            bob._session,
            lambda: alice.commit("f.txt", ["alice's 1.2"], "alice's edit")),
            author="bob")
        try:
            racing_bob.commit("f.txt", ["bob's 1.2"], "bob's edit")
        except Exception:  # refused as not up to date: that is the fix
            pass
        history = [(rev.number, rev.author) for rev in alice.log("f.txt")]
        assert ("1.2", "alice") in history, history
