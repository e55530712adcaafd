"""Tests for Merkle-tree snapshots (shape-exact persistence)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.mtree.bplus import BPlusTree
from repro.mtree.database import ReadQuery, VerifiedDatabase, WriteQuery, DeleteQuery, ClientVerifier
from repro.mtree.persistence import (
    PersistenceError,
    dump_database,
    dump_tree,
    leaf_page_lines,
    load_database,
    load_tree,
    load_tree_stream,
    parse_leaf_page,
    tree_stream_lines,
)


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


class TestTreeSnapshot:
    def test_roundtrip_preserves_entries(self):
        tree = build_random_tree(1)
        clone = load_tree(dump_tree(tree))
        assert dict(clone.items()) == dict(tree.items())
        assert len(clone) == len(tree)
        assert clone.order == tree.order

    def test_roundtrip_preserves_shape(self):
        """The crucial property: the reloaded tree hashes identically."""
        from repro.mtree.merkle import MerkleBPlusTree

        tree = build_random_tree(2)
        original = MerkleBPlusTree.from_tree(tree)
        clone = load_tree(dump_tree(tree))
        restored = MerkleBPlusTree.from_tree(clone)
        assert restored.root_digest() == original.root_digest()

    def test_empty_tree(self):
        tree = BPlusTree(order=5)
        clone = load_tree(dump_tree(tree))
        assert len(clone) == 0
        assert clone.order == 5

    def test_leaf_chain_rebuilt(self):
        tree = build_random_tree(3)
        clone = load_tree(dump_tree(tree))
        assert [k for k, _ in clone.items()] == sorted(clone.keys())
        lo, hi = b"k010", b"k040"
        assert list(clone.range(lo, hi)) == list(tree.range(lo, hi))

    def test_binary_safe(self):
        tree = BPlusTree(order=4)
        tree.insert(b"\x00\xff\n key", b"\xde\xad\xbe\xef\nvalue")
        clone = load_tree(dump_tree(tree))
        assert clone.get(b"\x00\xff\n key") == b"\xde\xad\xbe\xef\nvalue"

    def test_bad_header(self):
        with pytest.raises(PersistenceError):
            load_tree(b"not a snapshot\n")

    def test_truncated(self):
        blob = dump_tree(build_random_tree(4))
        with pytest.raises(PersistenceError):
            load_tree(blob[: len(blob) // 2])

    def test_trailing_data(self):
        blob = dump_tree(build_random_tree(5))
        with pytest.raises(PersistenceError):
            load_tree(blob + b"leaf 0\n")

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), order=st.integers(3, 8))
    def test_roundtrip_property(self, seed, order):
        tree = build_random_tree(seed, ops=80, order=order)
        clone = load_tree(dump_tree(tree))
        clone.check_invariants()
        assert dict(clone.items()) == dict(tree.items())


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
        clone = load_tree(dump_tree(tree))
        clone.check_invariants()
        assert dict(clone.items()) == dict(tree.items())
        original = MerkleBPlusTree.from_tree(tree)
        restored = MerkleBPlusTree.from_tree(clone)
        assert restored.root_digest() == original.root_digest()

    @pytest.mark.parametrize("order", BENCHMARK_ORDERS)
    def test_database_roundtrip(self, order):
        db = VerifiedDatabase(order=order)
        rng = random.Random(order)
        for step in range(120):
            db.execute(WriteQuery(f"k{rng.randrange(50):03d}".encode(),
                                  f"v{step}".encode()))
        restored = load_database(dump_database(db))
        assert restored.root_digest() == db.root_digest()
        assert restored.order == order


VERSIONS = (1, 2)


def stream_of(tree: BPlusTree, version: int):
    """``tree`` as the one parser reads it: the stream's lines plus
    ``page -> contents`` -- format 1 keeps a leaf's entries inline (no
    pages), format 2 names a page per leaf (its lines: keys and the
    pages of their values) and a page per value (its bytes), numbered
    from one counter."""
    if version == 1:
        return dump_tree(tree).decode("ascii").split("\n")[:-1], {}
    pages = {}

    def place_leaf(leaf):
        refs = []
        for value in leaf.values:
            pages[len(pages)] = value
            refs.append((len(pages) - 1, 0))
        pages[len(pages)] = leaf_page_lines(leaf.keys, refs)
        return len(pages) - 1, 0

    return list(tree_stream_lines(tree, place_leaf)), pages


def load_stream(lines, pages, version: int) -> BPlusTree:
    if version == 1:
        return load_tree("".join(line + "\n" for line in lines).encode("ascii"))

    def read_leaf(page, gen):
        keys, refs = parse_leaf_page(pages[page])
        return [(key, pages[value_page])
                for key, (value_page, _gen) in zip(keys, refs)]

    return load_tree_stream(iter(lines), read_leaf)


def empty_leaf(version: int):
    return ("leaf 0", {}) if version == 1 else ("leaf 0 0 0", {0: []})


class TestCorruptedSnapshotRejected:
    """Every corruption must surface as PersistenceError -- never a
    silently different tree, never a raw ValueError/struct garbage --
    from either snapshot format: ``bplus-snapshot 1`` (leaves inline)
    and ``2`` (a page per leaf) go through one parser."""

    def test_garbage_header(self):
        for blob in (b"", b"\n", b"\xff\xfe not even ascii"):
            with pytest.raises(PersistenceError):
                load_tree(blob)
        for version in VERSIONS:
            leaf, pages = empty_leaf(version)
            other = 3 - version
            for header in ("", "garbage header 4 1", f"bplus-snapshot {version}",
                           f"bplus-snapshot {other} 4 0",
                           f"bplus-snapshot {version} four 0",
                           f"bplus-snapshot {version} 4 0 0"):
                with pytest.raises(PersistenceError):
                    load_stream([header, leaf], pages, version)
            with pytest.raises(PersistenceError, match="end of snapshot"):
                load_stream([], pages, version)
            # the honest header over the other format's leaf line
            other_leaf, _ = empty_leaf(other)
            with pytest.raises(PersistenceError, match="bad leaf line"):
                load_stream([f"bplus-snapshot {version} 4 0", other_leaf],
                            pages, version)

    def test_implausible_order_or_size(self):
        for version in VERSIONS:
            leaf, pages = empty_leaf(version)
            for header in (f"bplus-snapshot {version} 2 0",
                           f"bplus-snapshot {version} 4 -1"):
                with pytest.raises(PersistenceError, match="implausible"):
                    load_stream([header, leaf], pages, version)

    def test_bad_base64_field(self):
        for version in VERSIONS:
            lines, pages = stream_of(build_random_tree(6, ops=20), version)
            entries = lines if version == 1 else next(
                page for page in pages.values()
                if isinstance(page, list) and page)
            index = next(i for i, line in enumerate(entries)
                         if " " in line and not line.startswith(
                             ("leaf", "internal", "bplus-snapshot")))
            entries[index] = "!!!notbase64!!! " + entries[index].split(" ", 1)[1]
            with pytest.raises(PersistenceError, match="base64"):
                load_stream(lines, pages, version)

    def test_wrong_node_count_vs_header(self):
        """The header's entry count is validated against what the nodes
        actually hold, so a doctored header cannot smuggle in a tree
        that disagrees with its own metadata."""
        for version in VERSIONS:
            lines, pages = stream_of(build_random_tree(7, ops=40), version)
            parts = lines[0].split(" ")
            parts[3] = str(int(parts[3]) + 1)
            lines[0] = " ".join(parts)
            with pytest.raises(PersistenceError, match="entries"):
                load_stream(lines, pages, version)

    def test_internal_key_count_mismatch(self):
        for version in VERSIONS:
            # order 3 guarantees internals
            lines, pages = stream_of(
                build_random_tree(8, ops=120, order=3), version)
            index = next(i for i, line in enumerate(lines)
                         if line.startswith("internal "))
            count = int(lines[index].split(" ")[1])
            lines[index] = f"internal {count + 1}"
            with pytest.raises(PersistenceError):
                load_stream(lines, pages, version)

    def test_truncated_and_trailing_streams(self):
        for version in VERSIONS:
            tree = build_random_tree(9, ops=120, order=3)
            lines, pages = stream_of(tree, version)
            assert dict(load_stream(lines, pages, version).items()) \
                == dict(tree.items())
            with pytest.raises(PersistenceError, match="end of snapshot"):
                load_stream(lines[:-1], pages, version)
            extra = "leaf 0" if version == 1 else f"leaf 0 {len(pages)} 0"
            with pytest.raises(PersistenceError, match="trailing data"):
                load_stream(lines + [extra], {**pages, len(pages): []}, version)
            for bad_leaf in ("leaf", "leaf x", "leaf -1" if version == 1
                             else "leaf -1 0 0"):
                with pytest.raises(PersistenceError):
                    load_stream([lines[0].rsplit(" ", 1)[0] + " 0", bad_leaf],
                                {0: []}, version)


class TestDatabaseSnapshot:
    def test_client_trust_survives_restart(self):
        """The point of shape-exact persistence: a client's tracked root
        digest still verifies against the reloaded server."""
        db = VerifiedDatabase(order=4)
        client = ClientVerifier(db.root_digest(), order=4)
        rng = random.Random(7)
        for step in range(150):
            key = f"k{rng.randrange(40):03d}".encode()
            query = WriteQuery(key, f"v{step}".encode())
            client.apply(query, db.execute(query))

        blob = dump_database(db)
        restarted = load_database(blob)
        assert restarted.root_digest() == db.root_digest()

        # the client keeps operating against the restarted server
        query = ReadQuery(b"k001")
        answer = client.apply(query, restarted.execute(query))
        assert answer == db.get(b"k001")
        update = WriteQuery(b"k001", b"after restart")
        client.apply(update, restarted.execute(update))
        assert client.root_digest == restarted.root_digest()

    def test_deletes_then_snapshot(self):
        db = VerifiedDatabase(order=3)
        for i in range(30):
            db.execute(WriteQuery(f"k{i:02d}".encode(), b"x"))
        for i in range(0, 30, 2):
            db.execute(DeleteQuery(f"k{i:02d}".encode()))
        restored = load_database(dump_database(db))
        assert restored.root_digest() == db.root_digest()
        assert len(restored) == 15


def build_random_forest(seed: int, shards: int = 4, ops: int = 200,
                        order: int = 4):
    from repro.mtree.forest import MerkleForest

    rng = random.Random(seed)
    forest = MerkleForest(order=order, shards=shards, top_order=4)
    for step in range(ops):
        key = f"k{rng.randrange(60):03d}".encode()
        if rng.random() < 0.7:
            forest.insert(key, f"v{step}".encode())
        else:
            forest.delete(key)
    return forest


class TestForestSnapshot:
    """Forest persistence: shard layout and top root bit-for-bit."""

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_roundtrip_preserves_top_root_and_layout(self, shards):
        from repro.mtree.persistence import dump_forest, load_forest

        forest = build_random_forest(shards, shards=shards)
        clone = load_forest(dump_forest(forest))
        assert clone.spec == forest.spec
        assert clone.refresh_root()[0] == forest.refresh_root()[0]
        assert list(clone.items()) == list(forest.items())
        # per-shard layout (not just the union) is preserved exactly
        for index in range(shards):
            assert clone.shard_tree(index).root_digest() == \
                forest.shard_tree(index).root_digest()

    def test_roundtrip_is_canonical(self):
        from repro.mtree.persistence import dump_forest, load_forest

        forest = build_random_forest(11, shards=3)
        blob = dump_forest(forest)
        assert dump_forest(load_forest(blob)) == blob

    def test_database_roundtrip_dispatches_on_header(self):
        forest_db = VerifiedDatabase(order=4, shards=4)
        single_db = VerifiedDatabase(order=4)
        for step in range(80):
            query = WriteQuery(f"k{step % 30:03d}".encode(), b"x%d" % step)
            forest_db.execute(query)
            single_db.execute(query)
        restored = load_database(dump_database(forest_db))
        assert restored.shards == 4
        assert restored.root_digest() == forest_db.root_digest()
        restored_single = load_database(dump_database(single_db))
        assert restored_single.shards == 1
        assert restored_single.root_digest() == single_db.root_digest()

    def test_client_trust_survives_forest_restart(self):
        db = VerifiedDatabase(order=4, shards=4)
        client = ClientVerifier(db.root_digest(), order=db.spec)
        rng = random.Random(13)
        for step in range(120):
            query = WriteQuery(f"k{rng.randrange(40):03d}".encode(),
                               f"v{step}".encode())
            client.apply(query, db.execute(query))
        restarted = load_database(dump_database(db))
        query = WriteQuery(b"k001", b"after restart")
        client.apply(query, restarted.execute(query))
        assert client.root_digest == restarted.root_digest()


class TestCorruptForestSnapshotRejected:
    def _blob(self, shards: int = 3) -> bytes:
        from repro.mtree.persistence import dump_forest

        return dump_forest(build_random_forest(21, shards=shards, ops=60))

    def test_garbage_headers(self):
        from repro.mtree.persistence import load_forest

        for blob in (b"", b"no newline at all",
                     b"forest-snapshot 2 4 4 3\n",
                     b"forest-snapshot 1 4 4\n",
                     b"forest-snapshot 1 4 4 zero\n",
                     b"bplus-snapshot 1 4 0\n"):
            with pytest.raises(PersistenceError):
                load_forest(blob)

    def test_implausible_header_values(self):
        from repro.mtree.persistence import load_forest

        with pytest.raises(PersistenceError, match="implausible"):
            load_forest(b"forest-snapshot 1 2 4 3\n")
        with pytest.raises(PersistenceError, match="implausible"):
            load_forest(b"forest-snapshot 1 4 4 0\n")

    def test_truncated_mid_shard_section(self):
        from repro.mtree.persistence import load_forest

        blob = self._blob()
        with pytest.raises(PersistenceError, match="truncated|cut short"):
            load_forest(blob[: len(blob) - len(blob) // 3])

    def test_shard_count_mismatch_too_few_sections(self):
        """Header claims more shards than the file holds: rejected with
        a message naming both counts."""
        from repro.mtree.persistence import load_forest

        blob = self._blob(shards=3)
        header, rest = blob.split(b"\n", 1)
        doctored = header.rsplit(b" ", 1)[0] + b" 5\n" + rest
        with pytest.raises(PersistenceError,
                           match="expected 5 shard sections"):
            load_forest(doctored)

    def test_shard_count_mismatch_reroutes_keys(self):
        """Header claims *fewer* shards: the sections still parse, but
        the loaded keys no longer route to the shards holding them --
        the invariant check refuses the snapshot instead of silently
        serving wrong-shard proofs."""
        from repro.mtree.persistence import load_forest

        blob = self._blob(shards=3)
        header, rest = blob.split(b"\n", 1)
        doctored = header.rsplit(b" ", 1)[0] + b" 2\n" + rest
        with pytest.raises(PersistenceError,
                           match="invariants|trailing data"):
            load_forest(doctored)

    def test_shard_sections_out_of_order(self):
        from repro.mtree.persistence import load_forest

        blob = self._blob()
        with pytest.raises(PersistenceError, match="out of order"):
            load_forest(blob.replace(b"shard 1 ", b"shard 2 ", 1))

    def test_shard_order_disagrees_with_header(self):
        from repro.mtree.persistence import dump_forest, load_forest
        from repro.mtree.forest import MerkleForest

        forest = MerkleForest(order=5, shards=2, top_order=4)
        forest.insert(b"k", b"v")
        blob = dump_forest(forest)
        doctored = blob.replace(b"forest-snapshot 1 5 4 2",
                                b"forest-snapshot 1 4 4 2")
        with pytest.raises(PersistenceError, match="disagrees"):
            load_forest(doctored)

    def test_trailing_data(self):
        from repro.mtree.persistence import load_forest

        with pytest.raises(PersistenceError, match="trailing data"):
            load_forest(self._blob() + b"extra")
