"""Hypothesis stateful machine over the Merkle forest.

Random shard counts, interleaved inserts/updates/deletes whose keys
hash across shard boundaries, and ``refresh_root`` calls injected at
arbitrary points -- asserting after every step that:

* the top root is *deterministic*: a mirror forest receiving the same
  operations under a completely different ``refresh_root`` schedule
  (never refreshed until comparison) reaches bit-for-bit the same
  root, so dirty-tracking and refresh interleaving can never leak
  into the committed state;
* every proof kind (read, update, range) built from the live forest
  verifies against the current root;
* structural invariants hold (per-shard trees sound, top tree commits
  exactly one fresh entry per shard, routing consistent).
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.mtree.forest import (
    MerkleForest,
    build_forest_proof,
    build_forest_range_proof,
    derive_forest_update_roots,
    implied_root_for_forest_range,
    implied_root_for_forest_read,
)
from repro.mtree.proofs import build_delete_proof, build_path_proof

KEYS = st.integers(min_value=0, max_value=30).map(lambda i: f"fkey{i:02d}".encode())
VALUES = st.binary(min_size=0, max_size=8)
SHARD_COUNTS = st.sampled_from([1, 2, 3, 5, 8])


class MerkleForestMachine(RuleBasedStateMachine):
    """The forest against a dict model, with two-level proof checks."""

    def __init__(self):
        super().__init__()
        self.shards = None
        self.forest = None
        self.mirror = None  # same ops, refresh schedule maximally skewed
        self.model = {}

    @precondition(lambda self: self.forest is None)
    @rule(shards=SHARD_COUNTS)
    def create(self, shards):
        self.shards = shards
        self.forest = MerkleForest(order=4, shards=shards, top_order=4)
        self.mirror = MerkleForest(order=4, shards=shards, top_order=4)

    @precondition(lambda self: self.forest is not None)
    @rule(key=KEYS, value=VALUES)
    def insert(self, key, value):
        proof = build_forest_proof(build_path_proof, self.forest, key)
        old_root = self.forest.root_digest()
        self.forest.insert(key, value)
        new_root = self.forest.refresh_root()[0]
        assert derive_forest_update_roots(
            proof, self.forest.spec, key, value=value) == (old_root, new_root)
        self.mirror.insert(key, value)
        self.model[key] = value

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_existing(self, data):
        key = data.draw(st.sampled_from(sorted(self.model)))
        proof = build_forest_proof(build_delete_proof, self.forest, key)
        old_root = self.forest.root_digest()
        self.forest.delete(key)
        new_root = self.forest.refresh_root()[0]
        assert derive_forest_update_roots(
            proof, self.forest.spec, key) == (old_root, new_root)
        self.mirror.delete(key)
        del self.model[key]

    @precondition(lambda self: self.forest is not None)
    @rule(key=KEYS)
    def read_with_proof(self, key):
        proof = build_forest_proof(build_path_proof, self.forest, key)
        assert self.forest.get(key) == self.model.get(key)
        assert implied_root_for_forest_read(
            proof, key, self.model.get(key), self.forest.spec) \
            == self.forest.root_digest()

    @precondition(lambda self: self.forest is not None)
    @rule(low=KEYS, high=KEYS)
    def range_with_proof(self, low, high):
        if low > high:
            low, high = high, low
        proof = build_forest_range_proof(self.forest, low, high)
        expected = tuple(sorted((k, v) for k, v in self.model.items()
                                if low <= k <= high))
        assert tuple(self.forest.range(low, high)) == expected
        assert implied_root_for_forest_range(
            proof, low, high, expected, self.forest.spec) == self.forest.root_digest()

    @precondition(lambda self: self.forest is not None)
    @rule()
    def refresh(self):
        """Interleaved refresh passes: the second of two back-to-back
        refreshes must find nothing dirty."""
        self.forest.refresh_root()
        _root, recomputed = self.forest.refresh_root()
        assert recomputed == 0
        assert self.forest.dirty_shard_count == 0

    @invariant()
    def contents_match_model(self):
        if self.forest is None:
            return
        assert len(self.forest) == len(self.model)
        assert list(self.forest.items()) == sorted(self.model.items())

    @invariant()
    def root_is_deterministic(self):
        """The mirror forest saw the same operations but was never
        refreshed mid-stream; one refresh now must land on the same
        root, proving the root is a pure function of the contents."""
        if self.forest is None:
            return
        assert self.mirror.refresh_root()[0] == self.forest.refresh_root()[0]

    @invariant()
    def structure_sound(self):
        if self.forest is not None:
            self.forest.check_invariants()


TestMerkleForestMachine = MerkleForestMachine.TestCase
TestMerkleForestMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None)
