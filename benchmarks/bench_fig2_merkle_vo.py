"""E2 -- Figure 2 / Section 4.1: Merkle B+-tree verification objects.

"Since the height of the tree is bounded by O(log n) ... for a single
update we only need to know O(log n) other digests to recompute the
root hash."

Regenerates the scaling series: database size n vs VO size (digests)
-- a read's and a write's VO is the key's path, a delete's adds the
path nodes' siblings --, client verify time for reads and writes, and
the number of the tree's node re-hashes per update.  The store is the
system's, a forest of one: its VOs carry no top half (the client
derives the one-leaf top tree), and its one tree is the paper's.  The
shape must be logarithmic: growing n by 1024x should grow each cost by
a small additive amount.
"""

import math
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from bench_common import emit
from repro.analysis import format_table
from repro.mtree.database import (
    ClientVerifier, QueryResult, ReadQuery, VerifiedDatabase, WriteQuery)
from repro.mtree.proofs import build_delete_proof

SIZES = (2 ** 6, 2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16)
ORDER = 8


def build_store(n: int) -> VerifiedDatabase:
    database = VerifiedDatabase(order=ORDER)
    for i in range(n):
        database.mtree.insert(f"{i:08d}".encode(), b"x" * 16)
    database.root_digest()
    return database


def _time(fn, repeats: int = 200) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats * 1e6  # microseconds


def _verify(root, query, result):
    """What a client does with a response: fold it against its root."""
    return ClientVerifier(root, ORDER).apply(query, result)


def test_fig2_vo_scaling(capsys, benchmark):
    rows = []
    read_sizes = {}
    for n in SIZES:
        database = build_store(n)
        mtree = database.shard_trees()[0]
        root = database.root_digest()
        key = f"{n // 2:08d}".encode()

        read = database.execute(ReadQuery(key))
        read_sizes[n] = read.proof.size_digests()
        read_us = _time(lambda: _verify(root, ReadQuery(key), read))
        write = QueryResult(answer=None, proof=read.proof)
        write_us = _time(
            lambda: _verify(root, WriteQuery(key, b"y" * 16), write), repeats=100)
        delete_digests = build_delete_proof(mtree, key).size_digests()

        database.mtree.insert(key, b"z" * 16)
        _root, rehashes = mtree.refresh_root()

        rows.append([n, mtree.height(), read_sizes[n], delete_digests,
                     round(read_us, 1), round(write_us, 1), rehashes])

    emit(capsys, "E2_fig2_merkle_vo", format_table(
        ["n", "height", "read/write VO (digests)", "delete VO (digests)",
         "verify read (us)", "verify write (us)", "re-hashes/update"],
        rows,
        title="E2 / Figure 2: Merkle B+-tree VO size and verification cost",
    ))

    # Shape assertions: 1024x more data, far-sublinear VO growth.
    assert read_sizes[2 ** 16] <= read_sizes[2 ** 6] + 6 * math.log(2 ** 10, ORDER) * ORDER
    assert read_sizes[2 ** 16] < 2 ** 6  # absurdly smaller than the data

    # Timed kernel: client-side read verification at n = 65536.
    database = build_store(2 ** 16)
    root = database.root_digest()
    key = b"00032768"
    read = database.execute(ReadQuery(key))
    benchmark(lambda: _verify(root, ReadQuery(key), read))


def test_fig2_update_verify_kernel(capsys, benchmark):
    database = build_store(2 ** 12)
    root = database.root_digest()
    key = b"00002048"
    write = QueryResult(answer=None, proof=database.execute(ReadQuery(key)).proof)
    benchmark(lambda: _verify(root, WriteQuery(key, b"new value"), write))
