#!/usr/bin/env python3
"""The outsourcing model (paper Section 1, last paragraph).

"Our techniques also have applications in the outsourcing model where
multiple users own a common database maintained by an untrusted
third-party vendor."

Here the database is a customer table outsourced to a vendor.  The
owner issues point and range queries; every answer comes back with a
verification object.  We then let the vendor misbehave in three ways --
tampering with a row, hiding rows from a range scan, and replaying a
stale snapshot -- and show each one being caught by proof verification.

Run:  python examples/outsourced_database.py
"""

from repro.crypto.hashing import hash_leaf
from repro.mtree.database import (
    ClientVerifier,
    QueryResult,
    RangeQuery,
    ReadQuery,
    VerifiedDatabase,
    WriteQuery,
)
from repro.mtree.forest import ForestProof
from repro.mtree.proofs import LeafSnapshot, PathProof, ProofError


def load_customers(db, client):
    customers = [
        ("cust:0001", "Ada Lovelace,London,premium"),
        ("cust:0002", "Charles Babbage,London,basic"),
        ("cust:0003", "Grace Hopper,Arlington,premium"),
        ("cust:0004", "Alan Turing,Wilmslow,basic"),
        ("cust:0005", "Edsger Dijkstra,Nuenen,premium"),
    ]
    for key, row in customers:
        query = WriteQuery(key.encode(), row.encode())
        client.apply(query, db.execute(query))
    return customers


def main() -> None:
    print(__doc__)
    vendor = VerifiedDatabase(order=4)          # the untrusted vendor
    owner = ClientVerifier(vendor.root_digest(), order=4)
    load_customers(vendor, owner)
    print(f"owner's trust state: {owner.root_digest.hex()[:16]}... (32 bytes)\n")

    # -- honest queries -----------------------------------------------------
    query = ReadQuery(b"cust:0003")
    row = owner.apply(query, vendor.execute(query))
    print("verified point read :", row.decode())

    scan = RangeQuery(b"cust:0002", b"cust:0004")
    rows = owner.apply(scan, vendor.execute(scan))
    print("verified range scan :", [k.decode() for k, _ in rows])
    print()

    # -- attack 1: tampered row ----------------------------------------------
    path = vendor.execute(ReadQuery(b"cust:0001")).proof.inner  # the shard's path
    forged_value = b"Ada Lovelace,London,CANCELLED"
    position = path.leaf.keys.index(b"cust:0001")
    entry_digests = list(path.leaf.entry_digests)
    entry_digests[position] = hash_leaf(b"cust:0001", forged_value)
    forged = ForestProof(inner=PathProof(
        internals=path.internals,
        leaf=LeafSnapshot(keys=path.leaf.keys, entry_digests=tuple(entry_digests)),
    ), top=None)
    try:
        owner.apply(ReadQuery(b"cust:0001"), QueryResult(forged_value, forged))
        print("attack 1 (tampered row)     : MISSED -- this must never print")
    except ProofError as exc:
        print(f"attack 1 (tampered row)     : caught -> {exc}")

    # -- attack 2: rows hidden from a range scan -------------------------------
    honest = vendor.execute(RangeQuery(b"cust:0001", b"cust:0005"))
    try:
        owner.apply(RangeQuery(b"cust:0001", b"cust:0005"),
                    QueryResult(honest.answer[:-2], honest.proof))
        print("attack 2 (hidden rows)      : MISSED -- this must never print")
    except ProofError as exc:
        print(f"attack 2 (hidden rows)      : caught -> {exc}")

    # -- attack 3: stale snapshot replay ---------------------------------------
    stale = vendor.execute(ReadQuery(b"cust:0002"))  # snapshot now...
    update = WriteQuery(b"cust:0002", b"Charles Babbage,London,premium")
    owner.apply(update, vendor.execute(update))       # ...owner upgrades the row
    try:
        owner.apply(ReadQuery(b"cust:0002"), stale)   # vendor replays old answer
        print("attack 3 (stale snapshot)   : MISSED -- this must never print")
    except ProofError as exc:
        print(f"attack 3 (stale snapshot)   : caught -> {exc}")

    print()
    print("All three vendor attacks were rejected by VO verification;")
    print("the owner never stored more than one 32-byte digest.")


if __name__ == "__main__":
    main()
