"""Tests for Merkle-tree snapshots (shape-exact persistence).

A tree is persisted as the paged store's pages, each a record of the
one codec: a ``nodes`` stream (the order, then a preorder walk naming a
page per leaf), a page per leaf and a page per value
(:mod:`repro.storage.engine`).  A database -- one tree or a forest --
is persisted by the server store's checkpoint
(:class:`~repro.net.wal.ServerStore`), whose manifest records the spec
and each shard's root.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.mtree.bplus import BPlusTree
from repro.mtree.database import ReadQuery, VerifiedDatabase, WriteQuery, DeleteQuery, ClientVerifier
from repro.net.wal import ServerStore, WalError, _MANIFEST_KEY
from repro.protocols.base import ServerState
from repro.storage.engine import (
    LeafEntry, NodeEntry, load_shard_tree, write_shard_pages)
from repro.storage.pagestore import MemoryPageStore, StorageError, open_page_store
from repro.wire import decode, decode_frames, encode


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


def stored(tree: BPlusTree) -> MemoryPageStore:
    """A store holding ``tree`` as shard 0, generation 0."""
    store = MemoryPageStore()
    store.begin()
    write_shard_pages(store, 0, 0, tree)
    store.commit()
    return store


def frames_of(store) -> list:
    """The frames of shard 0's one ``nodes`` page."""
    (blob,) = store.read_pages("nodes", 0, 0)
    return decode_frames(blob)


def with_nodes(store, blob_or_frames):
    """``store`` with shard 0's ``nodes`` page replaced by raw bytes or
    by frames, encoded back to back."""
    blob = blob_or_frames if isinstance(blob_or_frames, bytes) else \
        b"".join(map(encode, blob_or_frames))
    store.begin()
    store.write_page("nodes", 0, 0, 0, blob)
    store.commit()
    return store


def load(store) -> BPlusTree:
    return load_shard_tree(store, 0, 0)


def roundtrip(tree: BPlusTree) -> BPlusTree:
    return load(stored(tree))


class TestTreeSnapshot:
    def test_roundtrip_preserves_entries(self):
        tree = build_random_tree(1)
        clone = roundtrip(tree)
        assert dict(clone.items()) == dict(tree.items())
        assert len(clone) == len(tree)
        assert clone.order == tree.order

    def test_roundtrip_preserves_shape(self):
        """The crucial property: the reloaded tree hashes identically."""
        tree = build_random_tree(2)
        assert roundtrip(tree).root_digest() == tree.root_digest()

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
        store = stored(build_random_tree(4))
        with pytest.raises(StorageError, match="does not decode"):
            load(with_nodes(store, b"not a snapshot"))

    def test_truncated(self):
        store = stored(build_random_tree(4))
        frames = frames_of(store)
        with pytest.raises(StorageError, match="ends early"):
            load(with_nodes(store, frames[: len(frames) // 2]))

    def test_trailing_data(self):
        store = stored(build_random_tree(5))
        frames = frames_of(store)
        with pytest.raises(StorageError, match="trailing data"):
            load(with_nodes(store, frames + [frames[-1]]))

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
        tree = build_random_tree(seed=order, ops=150, order=order)
        clone = roundtrip(tree)
        clone.check_invariants()
        assert dict(clone.items()) == dict(tree.items())
        assert clone.root_digest() == tree.root_digest()

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


class TestCorruptedSnapshotRejected:
    """Every corruption must surface as StorageError -- never a
    silently different tree, never a raw ValueError/struct garbage."""

    def test_garbage_header(self):
        """The stream opens with the tree's order: anything else, or
        nothing, is refused."""
        store = stored(build_random_tree(6, ops=20))
        leaf = frames_of(store)[1:]
        for header in ("4", None, b"\x04", NodeEntry((b"k",))):
            with pytest.raises(StorageError, match="open with an order"):
                load(with_nodes(store, [header, *leaf]))
        with pytest.raises(StorageError, match="open with an order"):
            load(with_nodes(store, b""))
        # a format-7 text stream is not a frame of the codec at all
        with pytest.raises(StorageError, match="does not decode"):
            load(with_nodes(store, b"bplus-snapshot 2 4 0\nleaf 0 0 0\n"))

    def test_implausible_order(self):
        store = stored(build_random_tree(6, ops=20))
        leaf = frames_of(store)[1:]
        for order in (2, 0, -1):
            with pytest.raises(StorageError, match="open with an order"):
                load(with_nodes(store, [order, *leaf]))

    def test_undecodable_leaf_page(self):
        """A leaf page is one LeafPage record: bytes that do not decode,
        or a frame of another record, are refused."""
        store = stored(build_random_tree(6, ops=20))
        (_gen, page), = store.page_keys("leaves", 0)[:1]
        blob = store.read_page("leaves", 0, 0, page)
        for bad, match in ((blob[:-1], "does not decode"),
                           (b"\x00" + blob[1:], "does not decode"),
                           (encode(LeafEntry((1, 2, 0))),
                            "not one leaf page record"),
                           (blob + blob, "not one leaf page record")):
            store.begin()
            store.write_page("leaves", 0, 0, page, bad)
            store.commit()
            with pytest.raises(StorageError, match=match):
                load(store)

    def test_order_disagreeing_with_the_nodes(self):
        """The stream's order is checked against the tree it opens:
        order-3 nodes under an order-8 header are underfull."""
        store = stored(build_random_tree(7, ops=120, order=3))
        frames = frames_of(store)
        assert frames[0] == 3
        with pytest.raises(StorageError, match="invariants"):
            load(with_nodes(store, [8, *frames[1:]]))

    def test_internal_key_count_mismatch(self):
        # order 3 guarantees internals; the byte after an internal
        # node's tag is its key count, and so its children count
        store = stored(build_random_tree(8, ops=120, order=3))
        (blob,) = store.read_pages("nodes", 0, 0)
        at = blob.index(encode(frames_of(store)[1]))
        assert blob[at] == 0x50
        for count in (blob[at + 1] + 1, blob[at + 1] - 1):
            with pytest.raises(StorageError):
                load(with_nodes(store, blob[:at + 1] + bytes([count])
                                + blob[at + 2:]))

    def test_truncated_and_trailing_streams(self):
        tree = build_random_tree(9, ops=120, order=3)
        store = stored(tree)
        frames = frames_of(store)
        assert dict(load(store).items()) == dict(tree.items())
        with pytest.raises(StorageError, match="ends early"):
            load(with_nodes(store, frames[:-1]))
        with pytest.raises(StorageError, match="trailing data"):
            load(with_nodes(store, frames + [LeafEntry((0, 999, 0))]))
        (blob,) = store.read_pages("nodes", 0, 0)
        with pytest.raises(StorageError, match="does not decode"):
            load(with_nodes(store, blob[:-1]))
        for bad_leaf, match in ((LeafEntry(()), "a leaf entry of 0 fields"),
                                (LeafEntry((0, 0)), "a leaf entry of 2 fields"),
                                (LeafEntry((0, 0, 0, 0)), "a leaf entry of 4 fields"),
                                (b"leaf", "a bytes in the nodes stream")):
            with pytest.raises(StorageError, match=match):
                load(with_nodes(store, [3, bad_leaf]))


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
