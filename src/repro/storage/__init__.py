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
* :mod:`repro.storage.pagestore` -- checksummed page stores (sqlite +
  in-memory) holding per-shard checkpoint pages.
* :mod:`repro.storage.engine` -- streaming shard-tree <-> pages codec
  (one page per Merkle leaf, written when its digest changed) plus the
  quarantined-shard repair replay.
"""

from repro.storage.atomic import DirLock, LockError, atomic_write
from repro.storage.faults import ALWAYS, REAL_IO, FaultyIO, IoShim, SimulatedCrash
from repro.storage.pagestore import (
    CorruptPageError,
    MemoryPageStore,
    PageStore,
    SqlitePageStore,
    StorageError,
    open_page_store,
)

from repro.storage.diff import (
    Delta,
    Hunk,
    PatchError,
    apply_delta,
    delta_size,
    diff,
    invert_delta,
    unified_diff,
)
from repro.storage.annotate import AnnotatedLine, annotate, format_annotations
from repro.storage.keywords import (
    collapse_keywords,
    contains_keywords,
    expand_keywords,
)
from repro.storage.merge import Conflict, MergeResult, merge3, render_with_markers
from repro.storage.rcs import RcsError, Revision, RevisionStore

__all__ = [
    "Delta",
    "Hunk",
    "PatchError",
    "apply_delta",
    "delta_size",
    "diff",
    "invert_delta",
    "unified_diff",
    "AnnotatedLine",
    "annotate",
    "format_annotations",
    "collapse_keywords",
    "contains_keywords",
    "expand_keywords",
    "Conflict",
    "MergeResult",
    "merge3",
    "render_with_markers",
    "RcsError",
    "Revision",
    "RevisionStore",
    "DirLock",
    "LockError",
    "atomic_write",
    "ALWAYS",
    "REAL_IO",
    "FaultyIO",
    "IoShim",
    "SimulatedCrash",
    "CorruptPageError",
    "MemoryPageStore",
    "PageStore",
    "SqlitePageStore",
    "StorageError",
    "open_page_store",
]
