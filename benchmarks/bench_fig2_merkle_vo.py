"""E2 -- Figure 2 / Section 4.1: Merkle B+-tree verification objects.

"Since the height of the tree is bounded by O(log n) ... for a single
update we only need to know O(log n) other digests to recompute the
root hash."

Regenerates the scaling series: database size n vs VO size (digests),
client verify time for reads and updates, and the number of node
re-hashes per update.  The shape must be logarithmic: growing n by
1024x should grow each cost by a small additive amount.
"""

import math
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from bench_common import emit
from repro.analysis import format_table
from repro.mtree.merkle import MerkleBPlusTree
from repro.mtree.proofs import (
    build_read_proof,
    build_update_proof,
    verify_read,
    verify_update,
)

SIZES = (2 ** 6, 2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16)
ORDER = 8


def build_tree(n: int) -> MerkleBPlusTree:
    mtree = MerkleBPlusTree(order=ORDER)
    for i in range(n):
        mtree.insert(f"{i:08d}".encode(), b"x" * 16)
    mtree.root_digest()
    return mtree


def _time(fn, repeats: int = 200) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats * 1e6  # microseconds


def test_fig2_vo_scaling(capsys, benchmark):
    rows = []
    read_sizes = {}
    for n in SIZES:
        mtree = build_tree(n)
        root = mtree.root_digest()
        key = f"{n // 2:08d}".encode()

        read_proof = build_read_proof(mtree, key)
        value = mtree.get(key)
        read_sizes[n] = read_proof.size_digests()
        read_us = _time(lambda: verify_read(root, read_proof, key, value))

        update_proof = build_update_proof(mtree, "insert", key)
        update_us = _time(
            lambda: verify_update(root, update_proof, ORDER, key, b"y" * 16), repeats=100)

        mtree.root_digest()
        before = mtree.digest_recomputations
        mtree.insert(key, b"z" * 16)
        mtree.root_digest()
        rehashes = mtree.digest_recomputations - before

        rows.append([n, mtree.height(), read_proof.size_digests(),
                     update_proof.size_digests(), round(read_us, 1),
                     round(update_us, 1), rehashes])

    emit(capsys, "E2_fig2_merkle_vo", format_table(
        ["n", "height", "read VO (digests)", "update VO (digests)",
         "verify read (us)", "verify update (us)", "re-hashes/update"],
        rows,
        title="E2 / Figure 2: Merkle B+-tree VO size and verification cost",
    ))

    # Shape assertions: 1024x more data, far-sublinear VO growth.
    assert read_sizes[2 ** 16] <= read_sizes[2 ** 6] + 6 * math.log(2 ** 10, ORDER) * ORDER
    assert read_sizes[2 ** 16] < 2 ** 6  # absurdly smaller than the data

    # Timed kernel: client-side read verification at n = 65536.
    mtree = build_tree(2 ** 16)
    root = mtree.root_digest()
    key = b"00032768"
    proof = build_read_proof(mtree, key)
    value = mtree.get(key)
    benchmark(lambda: verify_read(root, proof, key, value))


def test_fig2_update_verify_kernel(capsys, benchmark):
    mtree = build_tree(2 ** 12)
    root = mtree.root_digest()
    key = b"00002048"
    proof = build_update_proof(mtree, "insert", key)
    benchmark(lambda: verify_update(root, proof, ORDER, key, b"new value"))
