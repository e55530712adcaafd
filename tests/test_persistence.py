"""Tests for Merkle-tree snapshots (shape-exact persistence).

A tree is persisted as the paged store's ``bplus-snapshot 2`` stream: a
page per leaf and a page per value, named by the lines of the nodes
stream.  A database -- one tree or a forest -- is persisted by the
server store's checkpoint (:class:`~repro.net.wal.ServerStore`), whose
manifest records the spec and each shard's root.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.mtree.bplus import BPlusTree
from repro.mtree.database import ReadQuery, VerifiedDatabase, WriteQuery, DeleteQuery, ClientVerifier
from repro.mtree.persistence import (
    PersistenceError,
    leaf_page_lines,
    load_tree_stream,
    parse_leaf_page,
    tree_stream_lines,
)
from repro.net.wal import ServerStore, WalError, _MANIFEST_KEY
from repro.protocols.base import ServerState
from repro.storage.pagestore import open_page_store
from repro.wire import decode, encode


def build_random_tree(seed: int, ops: int = 200, order: int = 4) -> BPlusTree:
    rng = random.Random(seed)
    tree = BPlusTree(order=order)
    for step in range(ops):
        key = f"k{rng.randrange(60):03d}".encode()
        if rng.random() < 0.7:
            tree.insert(key, f"v{step}".encode())
        else:
            tree.delete(key)
    return tree


def stream_of(tree: BPlusTree):
    """``tree`` as the one parser reads it: the stream's lines plus
    ``page -> contents`` -- a page per leaf (its lines: keys and the
    pages of their values) and a page per value (its bytes), numbered
    from one counter."""
    pages = {}

    def place_leaf(leaf):
        refs = []
        for value in leaf.values:
            pages[len(pages)] = value
            refs.append((len(pages) - 1, 0))
        pages[len(pages)] = leaf_page_lines(leaf.keys, refs)
        return len(pages) - 1, 0

    return list(tree_stream_lines(tree, place_leaf)), pages


def load_stream(lines, pages) -> BPlusTree:
    def read_leaf(page, gen):
        keys, refs = parse_leaf_page(pages[page])
        return [(key, pages[value_page])
                for key, (value_page, _gen) in zip(keys, refs)]

    return load_tree_stream(iter(lines), read_leaf)


def roundtrip(tree: BPlusTree) -> BPlusTree:
    return load_stream(*stream_of(tree))


class TestTreeSnapshot:
    def test_roundtrip_preserves_entries(self):
        tree = build_random_tree(1)
        clone = roundtrip(tree)
        assert dict(clone.items()) == dict(tree.items())
        assert len(clone) == len(tree)
        assert clone.order == tree.order

    def test_roundtrip_preserves_shape(self):
        """The crucial property: the reloaded tree hashes identically."""
        from repro.mtree.merkle import MerkleBPlusTree

        tree = build_random_tree(2)
        original = MerkleBPlusTree.from_tree(tree)
        restored = MerkleBPlusTree.from_tree(roundtrip(tree))
        assert restored.root_digest() == original.root_digest()

    def test_empty_tree(self):
        clone = roundtrip(BPlusTree(order=5))
        assert len(clone) == 0
        assert clone.order == 5

    def test_leaf_chain_rebuilt(self):
        tree = build_random_tree(3)
        clone = roundtrip(tree)
        assert [k for k, _ in clone.items()] == sorted(clone.keys())
        lo, hi = b"k010", b"k040"
        assert list(clone.range(lo, hi)) == list(tree.range(lo, hi))

    def test_binary_safe(self):
        tree = BPlusTree(order=4)
        tree.insert(b"\x00\xff\n key", b"\xde\xad\xbe\xef\nvalue")
        clone = roundtrip(tree)
        assert clone.get(b"\x00\xff\n key") == b"\xde\xad\xbe\xef\nvalue"

    def test_bad_header(self):
        with pytest.raises(PersistenceError):
            load_stream(["not a snapshot"], {})

    def test_truncated(self):
        lines, pages = stream_of(build_random_tree(4))
        with pytest.raises(PersistenceError):
            load_stream(lines[: len(lines) // 2], pages)

    def test_trailing_data(self):
        lines, pages = stream_of(build_random_tree(5))
        with pytest.raises(PersistenceError):
            load_stream(lines + [f"leaf 0 {len(pages)} 0"],
                        {**pages, len(pages): []})

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), order=st.integers(3, 8))
    def test_roundtrip_property(self, seed, order):
        tree = build_random_tree(seed, ops=80, order=order)
        clone = roundtrip(tree)
        clone.check_invariants()
        assert dict(clone.items()) == dict(tree.items())


def checkpoint(data_dir, database: VerifiedDatabase, backend: str = "file"):
    """Write ``database`` as a server store's checkpoint in ``data_dir``."""
    store = ServerStore(str(data_dir), backend=backend, fsync=False)
    try:
        store.write_snapshot(ServerState(database=database), {})
    finally:
        store.close()


def reload(data_dir, backend: str = "file") -> VerifiedDatabase:
    """The database the checkpoint in ``data_dir`` restores."""
    store = ServerStore(str(data_dir), backend=backend, fsync=False)
    try:
        return store.load_snapshot()[0]
    finally:
        store.close()


def restart(tmp_path, database: VerifiedDatabase) -> VerifiedDatabase:
    checkpoint(tmp_path / "store", database)
    return reload(tmp_path / "store")


#: every order any benchmark or deployment path instantiates (the
#: benchmarks and net layer default to 8; tests drive 3-5; the sweep
#: extends to wide nodes so fan-out edge cases stay covered).
BENCHMARK_ORDERS = [3, 4, 5, 8, 16, 32]


class TestRoundtripAtEveryOrder:
    @pytest.mark.parametrize("order", BENCHMARK_ORDERS)
    def test_shape_exact_roundtrip(self, order):
        """Digest-identical reload at every order used anywhere in the
        repo -- the chaos campaign's recovery path depends on this."""
        from repro.mtree.merkle import MerkleBPlusTree

        tree = build_random_tree(seed=order, ops=150, order=order)
        clone = roundtrip(tree)
        clone.check_invariants()
        assert dict(clone.items()) == dict(tree.items())
        original = MerkleBPlusTree.from_tree(tree)
        restored = MerkleBPlusTree.from_tree(clone)
        assert restored.root_digest() == original.root_digest()

    @pytest.mark.parametrize("order", BENCHMARK_ORDERS)
    def test_database_roundtrip(self, order, tmp_path):
        db = VerifiedDatabase(order=order)
        rng = random.Random(order)
        for step in range(120):
            db.execute(WriteQuery(f"k{rng.randrange(50):03d}".encode(),
                                  f"v{step}".encode()))
        restored = restart(tmp_path, db)
        assert restored.root_digest() == db.root_digest()
        assert restored.order == order


def empty_leaf():
    return "leaf 0 0 0", {0: []}


class TestCorruptedSnapshotRejected:
    """Every corruption must surface as PersistenceError -- never a
    silently different tree, never a raw ValueError/struct garbage."""

    def test_garbage_header(self):
        leaf, pages = empty_leaf()
        for header in ("", "garbage header 4 1", "bplus-snapshot 2",
                       "bplus-snapshot 2 four 0", "bplus-snapshot 2 4 0 0"):
            with pytest.raises(PersistenceError):
                load_stream([header, leaf], pages)
        with pytest.raises(PersistenceError, match="end of snapshot"):
            load_stream([], pages)
        # the retired inline format is refused by name
        with pytest.raises(PersistenceError, match="'1' is not supported"):
            load_stream(["bplus-snapshot 1 4 0", "leaf 0"], pages)
        # the honest header over an inline leaf line
        with pytest.raises(PersistenceError, match="bad leaf line"):
            load_stream(["bplus-snapshot 2 4 0", "leaf 0"], pages)

    def test_implausible_order_or_size(self):
        leaf, pages = empty_leaf()
        for header in ("bplus-snapshot 2 2 0", "bplus-snapshot 2 4 -1"):
            with pytest.raises(PersistenceError, match="implausible"):
                load_stream([header, leaf], pages)

    def test_bad_base64_field(self):
        lines, pages = stream_of(build_random_tree(6, ops=20))
        entries = next(page for page in pages.values()
                       if isinstance(page, list) and page)
        entries[0] = "!!!notbase64!!! " + entries[0].split(" ", 1)[1]
        with pytest.raises(PersistenceError, match="base64"):
            load_stream(lines, pages)

    def test_wrong_node_count_vs_header(self):
        """The header's entry count is validated against what the nodes
        actually hold, so a doctored header cannot smuggle in a tree
        that disagrees with its own metadata."""
        lines, pages = stream_of(build_random_tree(7, ops=40))
        parts = lines[0].split(" ")
        parts[3] = str(int(parts[3]) + 1)
        lines[0] = " ".join(parts)
        with pytest.raises(PersistenceError, match="entries"):
            load_stream(lines, pages)

    def test_internal_key_count_mismatch(self):
        # order 3 guarantees internals
        lines, pages = stream_of(build_random_tree(8, ops=120, order=3))
        index = next(i for i, line in enumerate(lines)
                     if line.startswith("internal "))
        count = int(lines[index].split(" ")[1])
        lines[index] = f"internal {count + 1}"
        with pytest.raises(PersistenceError):
            load_stream(lines, pages)

    def test_truncated_and_trailing_streams(self):
        tree = build_random_tree(9, ops=120, order=3)
        lines, pages = stream_of(tree)
        assert dict(load_stream(lines, pages).items()) == dict(tree.items())
        with pytest.raises(PersistenceError, match="end of snapshot"):
            load_stream(lines[:-1], pages)
        with pytest.raises(PersistenceError, match="trailing data"):
            load_stream(lines + [f"leaf 0 {len(pages)} 0"],
                        {**pages, len(pages): []})
        for bad_leaf in ("leaf", "leaf x", "leaf -1 0 0"):
            with pytest.raises(PersistenceError):
                load_stream([lines[0].rsplit(" ", 1)[0] + " 0", bad_leaf],
                            {0: []})


class TestDatabaseSnapshot:
    def test_client_trust_survives_restart(self, tmp_path):
        """The point of shape-exact persistence: a client's tracked root
        digest still verifies against the reloaded server."""
        db = VerifiedDatabase(order=4)
        client = ClientVerifier(db.root_digest(), order=4)
        rng = random.Random(7)
        for step in range(150):
            key = f"k{rng.randrange(40):03d}".encode()
            query = WriteQuery(key, f"v{step}".encode())
            client.apply(query, db.execute(query))

        restarted = restart(tmp_path, db)
        assert restarted.root_digest() == db.root_digest()

        # the client keeps operating against the restarted server
        query = ReadQuery(b"k001")
        answer = client.apply(query, restarted.execute(query))
        assert answer == db.get(b"k001")
        update = WriteQuery(b"k001", b"after restart")
        client.apply(update, restarted.execute(update))
        assert client.root_digest == restarted.root_digest()

    def test_deletes_then_snapshot(self, tmp_path):
        db = VerifiedDatabase(order=3)
        for i in range(30):
            db.execute(WriteQuery(f"k{i:02d}".encode(), b"x"))
        for i in range(0, 30, 2):
            db.execute(DeleteQuery(f"k{i:02d}".encode()))
        restored = restart(tmp_path, db)
        assert restored.root_digest() == db.root_digest()
        assert len(restored) == 15


def build_random_forest(seed: int, shards: int = 4, ops: int = 200,
                        order: int = 4) -> VerifiedDatabase:
    rng = random.Random(seed)
    db = VerifiedDatabase(order=order, shards=shards)
    for step in range(ops):
        key = f"k{rng.randrange(60):03d}".encode()
        if rng.random() < 0.7:
            db.execute(WriteQuery(key, f"v{step}".encode()))
        else:
            db.execute(DeleteQuery(key))
    return db


class TestForestSnapshot:
    """Forest persistence: shard layout and top root bit-for-bit."""

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_roundtrip_preserves_top_root_and_layout(self, shards, tmp_path):
        db = build_random_forest(shards, shards=shards)
        clone = restart(tmp_path, db)
        assert clone.spec == db.spec
        assert clone.root_digest() == db.root_digest()
        assert list(clone.mtree.items()) == list(db.mtree.items())
        if shards == 1:
            return
        # per-shard layout (not just the union) is preserved exactly
        for index in range(shards):
            assert clone.mtree.shard_tree(index).root_digest() == \
                db.mtree.shard_tree(index).root_digest()

    def test_roundtrip_is_canonical(self, tmp_path):
        """A reloaded forest checkpoints to the very bytes it was
        loaded from."""
        db = build_random_forest(11, shards=3)
        checkpoint(tmp_path / "a", db)
        checkpoint(tmp_path / "b", reload(tmp_path / "a"))
        assert (tmp_path / "a" / "pages.log").read_bytes() == \
            (tmp_path / "b" / "pages.log").read_bytes()

    def test_database_roundtrip_dispatches_on_header(self, tmp_path):
        """The manifest's spec restores a forest, or one tree."""
        forest_db = VerifiedDatabase(order=4, shards=4)
        single_db = VerifiedDatabase(order=4)
        for step in range(80):
            query = WriteQuery(f"k{step % 30:03d}".encode(), b"x%d" % step)
            forest_db.execute(query)
            single_db.execute(query)
        restored = restart(tmp_path / "forest", forest_db)
        assert restored.shards == 4
        assert restored.root_digest() == forest_db.root_digest()
        restored_single = restart(tmp_path / "single", single_db)
        assert restored_single.shards == 1
        assert restored_single.root_digest() == single_db.root_digest()

    def test_client_trust_survives_forest_restart(self, tmp_path):
        db = VerifiedDatabase(order=4, shards=4)
        client = ClientVerifier(db.root_digest(), order=db.spec)
        rng = random.Random(13)
        for step in range(120):
            query = WriteQuery(f"k{rng.randrange(40):03d}".encode(),
                               f"v{step}".encode())
            client.apply(query, db.execute(query))
        restarted = restart(tmp_path, db)
        query = WriteQuery(b"k001", b"after restart")
        client.apply(query, restarted.execute(query))
        assert client.root_digest == restarted.root_digest()


class TestCorruptForestSnapshotRejected:
    """A forest's header is the checkpoint manifest: its spec and one
    record per shard.  A manifest that disagrees with itself or with the
    shards' pages is refused with a :class:`WalError`, never loaded."""

    def _doctor(self, tmp_path, edit, shards: int = 3, order: int = 4):
        data_dir = tmp_path / "store"
        checkpoint(data_dir, build_random_forest(21, shards=shards, ops=60,
                                                 order=order))
        pages = open_page_store(str(data_dir), fsync=False, backend="file")
        try:
            manifest = decode(pages.get_meta(_MANIFEST_KEY))
            edit(manifest)
            pages.begin()
            pages.put_meta(_MANIFEST_KEY, encode(manifest))
            pages.commit()
        finally:
            pages.close()
        return data_dir

    def _refused(self, tmp_path, edit, match, **forest):
        data_dir = self._doctor(tmp_path, edit, **forest)
        with pytest.raises(WalError, match=match):
            reload(data_dir)

    def test_garbage_headers(self, tmp_path):
        for n, value in enumerate(("forest-snapshot 1", None, 7)):
            self._refused(tmp_path / str(n),
                          lambda manifest: manifest.update(format=value),
                          "format")

    def test_implausible_header_values(self, tmp_path):
        for n, spec in enumerate(({"order": 2, "shards": 3},
                                  {"order": 4, "shards": 0})):
            self._refused(tmp_path / str(n),
                          lambda manifest: manifest.update(spec=spec),
                          "corrupt checkpoint manifest")

    def test_truncated_mid_shard_section(self, tmp_path):
        self._refused(
            tmp_path,
            lambda manifest: manifest.update(shards=manifest["shards"][:-1]),
            "disagree with the spec")

    def test_shard_count_mismatch_too_few_sections(self, tmp_path):
        """The spec claims more shards than the manifest records."""
        self._refused(
            tmp_path, lambda manifest: manifest["spec"].update(shards=5),
            "disagree with the spec")

    def test_shard_count_mismatch_reroutes_keys(self, tmp_path):
        """The spec claims *fewer* shards: the keys would no longer
        route to the shards holding them -- refused, instead of
        silently serving wrong-shard proofs."""
        self._refused(
            tmp_path, lambda manifest: manifest["spec"].update(shards=2),
            "disagree with the spec")

    def test_shard_sections_out_of_order(self, tmp_path):
        def swap(manifest):
            first, second, *rest = manifest["shards"]
            manifest["shards"] = [second, first, *rest]
        self._refused(tmp_path, swap, "top root")

    def test_shard_order_disagrees_with_header(self, tmp_path):
        self._refused(
            tmp_path, lambda manifest: manifest["spec"].update(order=5),
            "disagree with the store spec")

    def test_trailing_data(self, tmp_path):
        self._refused(
            tmp_path,
            lambda manifest: manifest.update(
                shards=[*manifest["shards"], manifest["shards"][0]]),
            "disagree with the spec")
