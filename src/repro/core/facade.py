"""The Trusted CVS facade: a direct, in-process client/server API.

This is the developer-facing surface a downstream user adopts first:
a CVS-style server whose every answer carries a verification object,
and a client that checks everything and keeps only a root digest.

* :class:`CvsServer` stores, per file path, the *entire revision
  history* (an RCS store) as one Merkle-tree value -- so the root
  digest commits not just to head contents but to all of history.
* :class:`CvsClient` is the CVS verbs (checkout, commit, log, diff,
  remove, branches) over a session whose ``execute(query)`` returns a
  *trusted* answer or raises.  Given a :class:`CvsServer` that is the
  Section 4.1 single-user loop, in process: verify VO, advance the
  tracked root, :class:`~repro.mtree.proofs.ProofError` on any server
  misbehaviour.  Given a Protocol II session (``repro``'s local verbs,
  or a :class:`~repro.net.client.RemoteClient` over TCP) they run
  Protocol II: one tracked root cannot tell a second writer from a fork.

Simulated multi-user deployments are built with
:mod:`repro.core.scenarios` instead.
"""

from __future__ import annotations

from repro.crypto.hashing import Digest
from repro.mtree.database import (
    ClientVerifier,
    DeleteQuery,
    Query,
    QueryResult,
    RangeQuery,
    ReadQuery,
    VerifiedDatabase,
    WriteQuery,
)
from repro.storage.annotate import AnnotatedLine, annotate as _annotate
from repro.storage.diff import unified_diff
from repro.storage.keywords import collapse_keywords, expand_keywords
from repro.storage.merge import MergeResult, merge3
from repro.storage.rcs import Revision, RevisionStore


class CvsServer:
    """A CVS server over a verified database.

    The server is *not* trusted by clients: every response carries the
    VO that :class:`CvsClient` checks.  An honest instance behaves like
    a normal CVS; a compromised one is caught by the client.
    """

    def __init__(self, order: int = 8, shards: int = 1) -> None:
        self._database = VerifiedDatabase(order=order, shards=shards)

    @property
    def database(self) -> VerifiedDatabase:
        return self._database

    @property
    def spec(self):
        """The full store spec (order + shard layout) clients verify against."""
        return self._database.spec

    def root_digest(self) -> Digest:
        return self._database.root_digest()

    def execute(self, query: Query) -> QueryResult:
        """The single entry point clients talk to."""
        return self._database.execute(query)


def _branch_revision(store: RevisionStore, number: str) -> Revision:
    """Metadata for a branch revision number like ``1.2.2.3``."""
    branch_id, _, step_text = number.rpartition(".")
    return store.branch_log(branch_id)[int(step_text) - 1]


class _TrackedRoot:
    """Section 4.1's single-user loop around an in-process server: ask,
    reduce the VO against the tracked root, advance it."""

    def __init__(self, server: CvsServer) -> None:
        self._server = server
        self._verifier = ClientVerifier(server.root_digest(), order=server.spec)

    @property
    def root_digest(self) -> Digest:
        return self._verifier.root_digest

    def execute(self, query: Query) -> object:
        return self._verifier.apply(query, self._server.execute(query))


class CvsClient:
    """The CVS verbs over a verifying session.

    ``server`` is a :class:`CvsServer` -- the client then adopts its
    current root and checks every answer against it in process -- or
    any session whose ``execute(query)`` returns the trusted answer,
    such as a :class:`~repro.net.client.RemoteClient`.
    """

    def __init__(self, server, author: str) -> None:
        self._session = (_TrackedRoot(server) if isinstance(server, CvsServer)
                         else server)
        self.author = author
        self._logical_time = 0

    @property
    def root_digest(self) -> Digest:
        """The tracked root digest: an in-process client's entire trust
        state (a remote session keeps registers, not a root)."""
        return self._session.root_digest

    # -- internals ----------------------------------------------------------

    def _run(self, query: Query) -> object:
        return self._session.execute(query)

    def _key(self, path: str) -> bytes:
        return path.encode("utf-8")

    def _load_store(self, path: str) -> RevisionStore | None:
        blob = self._run(ReadQuery(key=self._key(path)))
        if blob is None:
            return None
        return RevisionStore.deserialize(blob)

    def _save_store(self, path: str, store: RevisionStore) -> None:
        self._run(WriteQuery(key=self._key(path), value=store.serialize()))

    def _stamp(self, history: list[Revision]) -> int:
        """Advance this client's logical clock -- never to behind the
        history it is about to append to: another author's may be ahead."""
        newest = history[-1].timestamp if history else 0
        self._logical_time = max(self._logical_time + 1, newest)
        return self._logical_time

    # -- CVS verbs ------------------------------------------------------------

    def paths(self, prefix: str = "") -> list[str]:
        """All live file paths under ``prefix`` (a verified range read)."""
        low = prefix.encode("utf-8")
        high = prefix.encode("utf-8") + b"\xff" * 4
        entries = self._run(RangeQuery(low=low, high=high))
        alive = []
        for key, blob in entries:
            store = RevisionStore.deserialize(blob)
            if not store.is_dead:
                alive.append(key.decode("utf-8"))
        return alive

    def checkout(self, path: str, revision: str | None = None,
                 expand: bool = False) -> list[str]:
        """Verified checkout of one file (head or a named revision).

        ``expand=True`` performs RCS keyword expansion (``$Id$``,
        ``$Revision$``, ...) against the checked-out revision's
        metadata.
        """
        store = self._load_store(path)
        if store is None:
            raise FileNotFoundError(f"no such file in repository: {path!r}")
        lines = store.checkout(revision)
        if expand:
            target = revision or store.head_number
            lines = expand_keywords(lines, path, store.revision(target)
                                    if target.count(".") < 3
                                    else _branch_revision(store, target))
        return lines

    def commit(self, path: str, lines: list[str], log_message: str = "") -> Revision:
        """Commit new content for ``path`` (creating it if needed).

        Expanded RCS keywords are collapsed to their bare form before
        storage, so keyword churn never pollutes deltas or merges.
        """
        lines = collapse_keywords(lines)
        store = self._load_store(path)
        if store is None:
            store = RevisionStore()
        append = store.resurrect if store.is_dead else store.commit
        revision = append(lines, self.author, log_message, self._stamp(store.log()))
        self._save_store(path, store)
        return revision

    def annotate(self, path: str, revision: str | None = None) -> list[AnnotatedLine]:
        """``cvs annotate``: per-line revision/author attribution."""
        store = self._load_store(path)
        if store is None:
            raise FileNotFoundError(f"no such file in repository: {path!r}")
        return _annotate(store, revision)

    def commit_many(self, changes: dict[str, list[str]], log_message: str = "") -> dict[str, Revision]:
        """Commit several files in one call (CVS-style: per-file
        revisions, no cross-file atomicity -- each write is separately
        verified and the root digest advances through all of them)."""
        if not changes:
            raise ValueError("empty commit")
        revisions: dict[str, Revision] = {}
        for path in sorted(changes):
            revisions[path] = self.commit(path, changes[path], log_message)
        return revisions

    def remove(self, path: str, log_message: str = "") -> Revision:
        """``cvs remove``: mark the file dead (history is preserved)."""
        store = self._load_store(path)
        if store is None:
            raise FileNotFoundError(f"no such file in repository: {path!r}")
        revision = store.remove(self.author, log_message, self._stamp(store.log()))
        self._save_store(path, store)
        return revision

    def log(self, path: str) -> list[Revision]:
        """Verified revision log of one file."""
        store = self._load_store(path)
        if store is None:
            raise FileNotFoundError(f"no such file in repository: {path!r}")
        return store.log()

    def diff(self, path: str, old_revision: str, new_revision: str | None = None) -> str:
        """Unified diff between two revisions of ``path``."""
        store = self._load_store(path)
        if store is None:
            raise FileNotFoundError(f"no such file in repository: {path!r}")
        old_lines = store.checkout(old_revision)
        new_lines = store.checkout(new_revision)
        new_label = new_revision or store.head_number or "head"
        return unified_diff(old_lines, new_lines,
                            f"{path} {old_revision}", f"{path} {new_label}")

    # -- branches ------------------------------------------------------------

    def branch(self, path: str, at_revision: str | None = None) -> str:
        """Open a branch on ``path`` (default: at the head revision)."""
        store = self._load_store(path)
        if store is None:
            raise FileNotFoundError(f"no such file in repository: {path!r}")
        if at_revision is None:
            at_revision = store.head_number
        branch_id = store.create_branch(at_revision)
        self._save_store(path, store)
        return branch_id

    def branches(self, path: str) -> list[str]:
        store = self._load_store(path)
        if store is None:
            raise FileNotFoundError(f"no such file in repository: {path!r}")
        return store.branches()

    def commit_on_branch(self, path: str, branch_id: str, lines: list[str],
                         log_message: str = "") -> Revision:
        """Commit onto a branch of ``path``."""
        store = self._load_store(path)
        if store is None:
            raise FileNotFoundError(f"no such file in repository: {path!r}")
        revision = store.commit_on_branch(
            branch_id, lines, self.author, log_message,
            self._stamp(store.branch_log(branch_id)))
        self._save_store(path, store)
        return revision

    def merge_branch(self, path: str, branch_id: str, log_message: str = "") -> MergeResult:
        """Merge a branch head back into the trunk head.

        On a clean merge the result is committed to the trunk and
        returned; on conflicts nothing is committed -- resolve by hand
        (``render_with_markers``) and commit the resolution.
        """
        store = self._load_store(path)
        if store is None:
            raise FileNotFoundError(f"no such file in repository: {path!r}")
        branch_head = store.branch_head(branch_id)
        if branch_head is None:
            raise ValueError(f"branch {branch_id!r} has no commits to merge")
        base = store.checkout(store.branch_base(branch_id))
        trunk = store.checkout()
        branch_lines = store.checkout(branch_head)
        result = merge3(base, trunk, branch_lines)
        if not result.has_conflicts:
            self.commit(path, result.lines(),
                        log_message or f"merge {branch_id} into trunk")
        return result

    def update(self, path: str, working_lines: list[str], base_revision: str) -> MergeResult:
        """``cvs update``: merge the repository head into a working copy.

        ``working_lines`` is the user's locally edited copy, derived
        from ``base_revision``.  Returns a
        :class:`~repro.storage.merge.MergeResult`: call ``.lines()`` if
        clean, or :func:`~repro.storage.merge.render_with_markers` to
        materialise conflicts for hand resolution.  Both the base and
        head revisions are fetched *verified*.
        """
        store = self._load_store(path)
        if store is None:
            raise FileNotFoundError(f"no such file in repository: {path!r}")
        base = store.checkout(base_revision)
        head = store.checkout()
        return merge3(base, working_lines, head)

    def purge(self, path: str) -> None:
        """Administratively erase a file *and its history* (rarely what
        you want -- ``remove`` keeps history)."""
        self._run(DeleteQuery(key=self._key(path)))
