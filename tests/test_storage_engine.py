"""The streaming shard codec: tree <-> one ``nodes`` stream plus a page
per leaf and a page per entry, bounded residency, root verification,
what a checkpoint writes, what the loader refuses, and what a shard
repair's replay of a retained log executes.

The codec is what makes a million-entry restart possible without
materialising the serialised tree: pages are parsed as they arrive.
``LoadStats.max_resident_page_bytes`` is the proof obligation -- these
tests pin it to one ``nodes`` page plus one leaf's pages regardless of
tree size.
"""

import pytest

from repro.crypto.hashing import hash_bytes
from repro.mtree.database import DeleteQuery, VerifiedDatabase, WriteQuery
from repro.mtree.forest import shard_for_key
from repro.mtree.merkle import MerkleBPlusTree
from repro.mtree.persistence import (
    PersistenceError,
    leaf_page_lines,
    load_tree_stream,
    parse_leaf_page,
    tree_stream_lines,
)
from repro.net.wal import _replay_shard
from repro.protocols.base import Followup, Request
from repro.storage.engine import (
    PAGE_BYTES,
    LoadStats,
    PageRows,
    load_shard_tree,
    row_fields,
    write_shard_pages,
)
from repro.storage.pagestore import (
    FilePageStore,
    MemoryPageStore,
    SqlitePageStore,
    StorageError,
)


def _tree(n, order=8, prefix=b"key"):
    tree = MerkleBPlusTree(order=order)
    for i in range(n):
        tree.insert(b"%s%06d" % (prefix, i), b"value-%d" % i)
    return tree


def _stream(tree):
    """The ``nodes`` lines, ``page -> leaf page lines`` numbering the
    leaves in walk order under generation 0, and ``page -> value`` for
    the values those lines name."""
    pages, values = {}, {}

    def place_leaf(leaf):
        refs = []
        for value in leaf.values:
            values[len(values)] = value
            refs.append((len(values) - 1, 0))
        pages[len(pages)] = leaf_page_lines(leaf.keys, refs)
        return len(pages) - 1, 0

    return list(tree_stream_lines(tree.tree, place_leaf)), pages, values


def _reader(pages, values):
    """``read_leaf`` over :func:`_stream`'s pages."""
    def read_leaf(page, gen):
        keys, refs = parse_leaf_page(pages[page])
        return [(key, values[value_page])
                for key, (value_page, _gen) in zip(keys, refs)]
    return read_leaf


class TestStreamCodec:
    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_roundtrip_identical_root(self, n):
        tree = _tree(n)
        expected, _ = tree.refresh_root()
        nodes, pages, values = _stream(tree)
        rebuilt = load_tree_stream(iter(nodes), _reader(pages, values))
        twin = MerkleBPlusTree.from_tree(rebuilt)
        actual, _ = twin.refresh_root()
        assert actual == expected
        assert len(rebuilt) == n

    def test_trailing_entries_rejected(self):
        nodes, pages, values = _stream(_tree(10))
        pages[1].append(pages[1][-1])  # a spliced-in extra leaf line
        with pytest.raises(PersistenceError, match="holds 7 entries, its leaf line says 6"):
            load_tree_stream(iter(nodes), _reader(pages, values))

    def test_truncated_entries_rejected(self):
        nodes, pages, values = _stream(_tree(10))
        pages[1].pop()
        with pytest.raises(PersistenceError,
                           match="holds 5 entries, its leaf line says 6"):
            load_tree_stream(iter(nodes), _reader(pages, values))

    def test_trailing_nodes_rejected(self):
        nodes, pages, values = _stream(_tree(10))
        with pytest.raises(PersistenceError, match="trailing"):
            load_tree_stream(iter(nodes + ["leaf 0 9 0"]),
                             _reader({**pages, 9: []}, values))

    def test_other_stream_version_refused(self):
        nodes, pages, values = _stream(_tree(3))
        nodes[0] = nodes[0].replace("bplus-snapshot 2", "bplus-snapshot 1")
        with pytest.raises(PersistenceError, match="not supported"):
            load_tree_stream(iter(nodes), _reader(pages, values))

    def test_a_leaf_page_holds_keys_and_value_pages(self):
        """A leaf page names each value's page; the value itself is
        nowhere in it, not even encoded."""
        leaf = _tree(5).tree.root
        refs = [(9, 2), (10, 2), (11, 0), (12, 1), (13, 2)]
        lines = leaf_page_lines(leaf.keys, refs)
        assert parse_leaf_page(lines) == (leaf.keys, refs)
        assert not any("dmFsdWU" in line for line in lines)  # b64 "value"
        for bad in ("a2V5 1", "a2V5 1 2 3", "a2V5 x 0"):
            with pytest.raises(PersistenceError, match="bad leaf page line"):
                parse_leaf_page([bad])


def _flat_pages(store):
    """Every committed page of a memory store: ``(kind, shard, gen, seq)
    -> (blob, checksum)``."""
    return {(*group_key, seq): page
            for group_key, group in store._groups.items()
            for seq, page in group.items()}


def _checkpoint(store, tree, gen, known=None, next_page=0, shard=0, **kwargs):
    store.begin()
    result = write_shard_pages(store, shard, gen, tree, known, next_page,
                               **kwargs)
    store.commit()
    return result


class TestShardPages:
    def test_roundtrip_through_store(self):
        store = MemoryPageStore()
        tree = _tree(500)
        expected, _ = tree.refresh_root()
        result = _checkpoint(store, tree, 7, shard=3, page_bytes=1024)
        counts = result.counts
        assert counts["nodes_pages"] > 1  # really paged, not one blob
        assert counts["leaf_pages"] == counts["leaves"] > 70
        assert counts["value_pages"] == counts["entries"] == 500
        assert counts["value_bytes"] == sum(len(v) for _, v in tree.items())
        assert len(result.rows) == counts["leaves"] + 500
        rows = PageRows()
        loaded = load_shard_tree(store, 3, 7, expected_root=expected,
                                 rows=rows)
        assert loaded.refresh_root()[0] == expected
        assert len(loaded) == 500
        assert rows == result.rows  # a load knows what the write knew

    def test_load_is_streaming_bounded(self):
        """Peak page residency must stay one ``nodes`` page plus one
        leaf's pages no matter how many pages the shard serialised to."""
        store = MemoryPageStore()
        tree = _tree(2000)
        counts = _checkpoint(store, tree, 0, page_bytes=2048).counts
        total = counts["nodes_bytes"] + counts["leaf_bytes"] \
            + counts["value_bytes"]
        stats = LoadStats()
        load_shard_tree(store, 0, 0, stats=stats)
        assert stats.bytes == total
        assert stats.pages == counts["nodes_pages"] + counts["leaf_pages"] \
            + counts["value_pages"]
        # the nodes page straddles the target by at most one line; a
        # leaf's pages here are seven short keys and seven short values
        assert stats.max_resident_page_bytes < 2 * 2048
        assert stats.max_resident_page_bytes < total / 4

    def test_root_mismatch_raises(self):
        store = MemoryPageStore()
        _checkpoint(store, _tree(50), 0)
        wrong = hash_bytes(b"not the root")
        with pytest.raises(StorageError, match="manifest records"):
            load_shard_tree(store, 0, 0, expected_root=wrong)

    def test_default_page_size_used(self):
        store = MemoryPageStore()
        counts = _checkpoint(store, _tree(30), 0).counts
        assert counts["nodes_bytes"] < PAGE_BYTES
        assert counts["nodes_pages"] == 1

    def test_only_changed_leaves_are_written(self):
        """Proportionality: k overwrites with values of *different
        lengths* write exactly their values and the touched leaves'
        pages; every other row is referenced where it lies."""
        store = MemoryPageStore()
        tree = _tree(400)
        first = _checkpoint(store, tree, 0)
        before = _flat_pages(store)
        touched = set()
        for i, index in enumerate((3, 150, 151, 399)):
            key = b"key%06d" % index
            tree.insert(key, b"x" * (50 * (i + 1)))
            touched.add(id(tree.tree.search_path(key)[-1]))
        second = _checkpoint(store, tree, 1, first.rows, first.next_page)
        assert second.counts["leaf_pages"] == len(touched) == 3
        assert second.counts["value_pages"] == 4
        assert second.counts["value_bytes"] == 50 * (1 + 2 + 3 + 4)
        assert second.next_page == first.next_page + 7
        assert len(second.superseded) == 7
        after = _flat_pages(store)
        assert all(after[key] == page for key, page in before.items())
        new_rows = {key for key in after if key not in before}
        assert {key[0] for key in new_rows} == {"nodes", "leaves", "entries"}
        assert sum(key[0] == "leaves" for key in new_rows) == 3
        assert sum(key[0] == "entries" for key in new_rows) == 4
        expected = tree.root_digest()
        rows = PageRows()
        assert load_shard_tree(store, 0, 1, expected_root=expected,
                               rows=rows).root_digest() == expected
        assert rows == second.rows

    def test_a_leaf_back_at_an_old_value_is_not_rewritten(self):
        """Dirtiness is by value: A -> B -> A between two checkpoints
        leaves nothing to write."""
        store = MemoryPageStore()
        tree = _tree(100)
        first = _checkpoint(store, tree, 0)
        tree.insert(b"key000050", b"detour")
        tree.insert(b"key000050", b"value-50")
        second = _checkpoint(store, tree, 1, first.rows, first.next_page)
        assert second.counts["leaf_pages"] == second.counts["value_pages"] == 0
        assert second.superseded == []
        assert second.rows == first.rows

    def test_redo_reproduces_the_same_rows(self):
        """The walk is a pure function of (tree, known rows, counter):
        a twin built the same way, checkpointed against the rows a
        *load* reports, writes the same pages under the same ids."""
        def history(tree):
            for i in range(0, 120, 7):
                tree.insert(b"key%06d" % i, b"second-%d" % i)
            for i in range(200, 230):
                tree.delete(b"key%06d" % i)
            for i in range(40):
                tree.insert(b"new%06d" % i, b"n")

        store = MemoryPageStore()
        tree = _tree(300, order=4)
        first = _checkpoint(store, tree, 0)
        history(tree)
        second = _checkpoint(store, tree, 1, first.rows, first.next_page)
        written = {key: page for key, page in _flat_pages(store).items()
                   if key[2] == 1}
        known = PageRows()
        twin = load_shard_tree(store, 0, 0, rows=known)
        history(twin)
        for kind in ("nodes", "leaves", "entries"):
            store.begin()
            store.drop_generation(kind, 0, 1)
            store.commit()
        redo = _checkpoint(store, twin, 1, known, first.next_page)
        assert (redo.rows, redo.next_page, redo.superseded) == \
            (second.rows, second.next_page, second.superseded)
        assert {key: page for key, page in _flat_pages(store).items()
                if key[2] == 1} == written


@pytest.fixture(params=["memory", "sqlite", "file"])
def page_store(request, tmp_path):
    if request.param == "memory":
        yield MemoryPageStore()
        return
    kind = SqlitePageStore if request.param == "sqlite" else FilePageStore
    store = kind(str(tmp_path / kind.FILE), fsync=False)
    yield store
    store.close()


class TestOnePagePerEntry:
    """The entry is the unit of a checkpoint, on every page store."""

    def _full_leaf(self, tree):
        leaf = tree.tree.search_path(b"")[-1]
        while len(leaf.keys) < tree.order - 1:
            leaf = leaf.next_leaf
        return leaf

    def test_overwriting_one_entry_of_a_full_leaf(self, page_store):
        tree = _tree(103)
        leaf = self._full_leaf(tree)
        first = _checkpoint(page_store, tree, 0)
        others = [digest for index, digest in enumerate(leaf.entry_digests)
                  if index != 3]
        value = bytes(range(256)) * 6  # raw bytes: no encoding to undo
        tree.insert(leaf.keys[3], value)
        second = _checkpoint(page_store, tree, 1, first.rows, first.next_page)
        counts = second.counts
        assert (counts["value_pages"], counts["value_bytes"]) == (1, len(value))
        assert counts["leaf_pages"] == 1
        assert page_store.page_keys("entries", 0)[-1] == (1, first.next_page)
        assert page_store.read_page("entries", 0, 1, first.next_page) == value
        (_gen, page), = (key for key in page_store.page_keys("leaves", 0)
                         if key[0] == 1)
        blob = page_store.read_page("leaves", 0, 1, page)
        assert counts["leaf_bytes"] == len(blob) < len(value) // 4
        # the leaf's six unchanged entries are referenced where they lie
        _keys, named = parse_leaf_page(blob.decode("ascii").split("\n")[:-1])
        for digest in others:
            assert second.rows[digest] == first.rows[digest]
            kind, page, gen = row_fields(second.rows[digest])
            assert (kind, gen) == ("entries", 0)
            assert (page, gen) in named
        assert second.superseded == sorted(
            row_fields(row) for digest, row in first.rows.items()
            if digest not in second.rows)
        assert [row[0] for row in second.superseded] == ["entries", "leaves"]
        rows = PageRows()
        loaded = load_shard_tree(page_store, 0, 1,
                                 expected_root=tree.root_digest(), rows=rows)
        assert loaded.get(leaf.keys[3]) == value
        assert rows == second.rows


class TestLoaderRejections:
    """The loader trusts nothing a leaf line says."""

    def _store(self):
        store = MemoryPageStore()
        tree = _tree(20)
        _checkpoint(store, tree, 0)
        tree.insert(b"key000000", b"changed")
        return store, tree

    def _rewrite_nodes(self, store, gen, edit):
        (blob,) = store.read_pages("nodes", 0, gen)
        lines = blob.decode("ascii").split("\n")
        store.begin()
        store.write_page("nodes", 0, gen, 0,
                         "\n".join(edit(lines)).encode("ascii"))
        store.commit()

    def test_leaf_generation_beyond_the_stream(self):
        store, tree = self._store()
        _checkpoint(store, tree, 5, next_page=100)
        # the same stream filed under generation 3 names a page of 5
        store.begin()
        store.write_page("nodes", 0, 3, 0, *store.read_pages("nodes", 0, 5))
        store.commit()
        with pytest.raises(PersistenceError, match="claims generation 5"):
            load_shard_tree(store, 0, 3)

    def test_negative_leaf_generation(self):
        store, _tree_ = self._store()
        self._rewrite_nodes(store, 0, lambda lines: [
            line[:-1] + "-1" if line.startswith("leaf ") else line
            for line in lines])
        with pytest.raises(PersistenceError, match="claims generation -1"):
            load_shard_tree(store, 0, 0)

    def test_two_leaves_on_one_page(self):
        store, _tree_ = self._store()

        def alias(lines):
            leaves = [i for i, line in enumerate(lines)
                      if line.startswith("leaf ")]
            lines[leaves[1]] = lines[leaves[0]]
            return lines

        self._rewrite_nodes(store, 0, alias)
        with pytest.raises(PersistenceError, match="page id .* named twice"):
            load_shard_tree(store, 0, 0)

    def _rewrite_leaf(self, store, edit):
        """Edit the second leaf's page (its lines, the last one kept
        newline-terminated); returns the page's id."""
        (_gen, page), = store.page_keys("leaves", 0)[1:2]
        lines = store.read_page("leaves", 0, 0, page).decode("ascii") \
            .split("\n")[:-1]
        store.begin()
        store.write_page("leaves", 0, 0, page,
                         "\n".join(edit(lines) + [""]).encode("ascii"))
        store.commit()
        return page

    def test_one_value_page_named_by_two_entries(self):
        store, _tree_ = self._store()
        self._rewrite_leaf(store, lambda lines: lines[:-1] + lines[-2:-1])
        with pytest.raises(PersistenceError, match="page id .* named twice"):
            load_shard_tree(store, 0, 0)

    @pytest.mark.parametrize("edit,holds", [
        (lambda lines: lines[:-1], "holds 3 entries, its leaf line says 4"),
        (lambda lines: lines + [lines[-1].split(" ")[0] + " 999 0"],
         "holds 5 entries, its leaf line says 4"),
    ], ids=["short", "over-long"])
    def test_leaf_page_of_the_wrong_length(self, edit, holds):
        store, _tree_ = self._store()
        store.begin()
        store.write_page("entries", 0, 0, 999, b"spliced")
        store.commit()
        self._rewrite_leaf(store, edit)
        with pytest.raises(PersistenceError, match=holds):
            load_shard_tree(store, 0, 0)

    def test_missing_page(self):
        for kind in ("entries", "leaves"):
            self._refused_without_a_page(kind)

    def _refused_without_a_page(self, kind):
        store, _tree_ = self._store()
        (gen, page), = store.page_keys(kind, 0)[2:3]
        store.begin()
        store.delete_page(kind, 0, gen, page)
        store.commit()
        with pytest.raises(PersistenceError,
                           match=rf"'{kind}', shard=0, gen=0, seq={page}\) "
                                 "is missing"):
            load_shard_tree(store, 0, 0)


class TestReplay:
    """Shard repair replays a retained log through the server's own
    ``VerifiedDatabase.execute``: a replayed shard is the shard live
    execution built."""

    def _request(self, query):
        return Request(query=query, extras={"user": "u"})

    def _live(self, messages, shard, shards):
        """The shard live execution of ``messages`` leaves behind."""
        live = VerifiedDatabase(order=8, shards=shards)
        for message in messages:
            query = getattr(message, "query", None)
            if isinstance(query, (WriteQuery, DeleteQuery)):
                live.execute(query)
        return live.shard_trees()[shard]

    def test_replay_mirrors_live_execution(self):
        shards = 4
        shard = 1
        tree = MerkleBPlusTree(order=8)
        messages = [self._request(WriteQuery(b"rk%04d" % i, b"v%d" % i))
                    for i in range(200)]
        messages += [self._request(DeleteQuery(b"rk%04d" % i))
                     for i in range(0, 200, 3)]
        _replay_shard(tree, messages, shard, shards)
        live = self._live(messages, shard, shards)
        assert dict(tree.items()) == dict(live.items())
        assert all(shard_for_key(key, shards) == shard for key, _ in tree.items())
        assert tree.refresh_root()[0] == live.refresh_root()[0]

    def test_delete_of_absent_key_is_noop(self):
        """Live execution of a delete of an absent key is a verified
        no-op -- so replay must treat it as one, not an error and not a
        tamper signal."""
        tree = MerkleBPlusTree(order=8)
        tree.insert(b"present", b"x")
        before = tree.refresh_root()[0]
        _replay_shard(tree, [self._request(DeleteQuery(b"never-existed"))],
                      0, 1)
        assert tree.refresh_root()[0] == before
        _replay_shard(tree, [self._request(DeleteQuery(b"present"))], 0, 1)
        assert b"present" not in tree

    def test_non_data_messages_ignored(self):
        tree = MerkleBPlusTree(order=8)
        messages = [
            Followup(extras={"user": "u"}),
            self._request(None),  # protocol-internal request
            self._request(WriteQuery(b"k", b"v")),
        ]
        _replay_shard(tree, messages, 0, 1)
        assert dict(tree.items()) == {b"k": b"v"}

    def test_overwrite_keeps_latest(self):
        tree = MerkleBPlusTree(order=8)
        messages = [
            self._request(WriteQuery(b"k", b"first")),
            self._request(WriteQuery(b"k", b"second")),
        ]
        _replay_shard(tree, messages, 0, 1)
        assert tree.get(b"k") == b"second"
