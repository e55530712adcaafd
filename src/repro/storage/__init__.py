"""CVS storage substrate: diff engine, RCS revision chains, and the disk
layer under the Merkle forest.  (The multi-file verbs over these chains
are :class:`repro.core.facade.CvsClient`, keyed into the Merkle tree.)

* :mod:`repro.storage.diff` -- Myers O(ND) line diff, delta apply and
  inversion, unified-diff rendering.
* :mod:`repro.storage.rcs` -- reverse-delta revision stores with a
  deterministic serialisation (so Merkle digests commit to history).
* :mod:`repro.storage.atomic` -- durable file primitives
  (tmp+fsync+rename+dir-fsync writes, flock data-directory locks).
* :mod:`repro.storage.faults` -- the fault-injecting I/O shim the
  crash-recovery tests drive (torn writes, lying fsync, bit-rot...).
* :mod:`repro.storage.pagestore` -- checksummed page stores (sqlite,
  the append-only page file, in-memory) holding per-shard checkpoint
  pages.
* :mod:`repro.storage.engine` -- streaming shard-tree <-> pages codec
  (one page per entry and one per Merkle leaf, each written when its
  digest changed) plus the quarantined-shard repair replay.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "DirLock": ".atomic",
    "LockError": ".atomic",
    "atomic_write": ".atomic",
    "ALWAYS": ".faults",
    "REAL_IO": ".faults",
    "FaultyIO": ".faults",
    "IoShim": ".faults",
    "SimulatedCrash": ".faults",
    "CorruptPageError": ".pagestore",
    "MemoryPageStore": ".pagestore",
    "PageStore": ".pagestore",
    "SqlitePageStore": ".pagestore",
    "StorageError": ".pagestore",
    "open_page_store": ".pagestore",
    "Delta": ".diff",
    "Hunk": ".diff",
    "PatchError": ".diff",
    "apply_delta": ".diff",
    "delta_size": ".diff",
    "diff": ".diff",
    "invert_delta": ".diff",
    "unified_diff": ".diff",
    "AnnotatedLine": ".annotate",
    "annotate": ".annotate",
    "format_annotations": ".annotate",
    "collapse_keywords": ".keywords",
    "contains_keywords": ".keywords",
    "expand_keywords": ".keywords",
    "Conflict": ".merge",
    "MergeResult": ".merge",
    "merge3": ".merge",
    "render_with_markers": ".merge",
    "RcsError": ".rcs",
    "Revision": ".rcs",
    "RevisionStore": ".rcs",
})
