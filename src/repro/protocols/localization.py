"""Fault localisation -- the paper's future-work item (1).

"Possible future directions are (1) to extend these protocols to
detect exactly when the fault occurred."

Protocol II's sync check is all-or-nothing: it says *that* the server
deviated, not *when*.  This module adds the natural extension the
paper gestures at: clients additionally keep a bounded ring of
*register checkpoints* -- snapshots of (gctr, sigma, last) taken every
``interval`` operations.  After an alarm, the users pool their
checkpoint logs (out-of-band; at this point they are off the server
anyway) and replay the prefix-consistency predicate at every recorded
global-counter cutoff:

    prefix up to cutoff c is consistent iff for the registers truncated
    at c,  S0 XOR last_i == XOR_k sigma_k  for some user i.

An honest prefix telescopes exactly as in Theorem 4.2; the first cutoff
where no user's predicate holds brackets the fault:

    last consistent cutoff  <  fault  <=  first inconsistent cutoff.

The bracket width is the checkpoint interval (per user), so the
operator tunes memory vs localisation precision; the ring keeps local
state bounded (the Section 2.2.5 desideratum), at the cost of only
localising faults within the retained window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest, xor_all


@dataclass(frozen=True)
class Checkpoint:
    """A user's registers right after the operation that set ``gctr``."""

    gctr: int
    sigma: Digest
    last: Digest


#: How far the bracket's upper end may sit *below* the judge's first
#: deviating operation: the judge counts arrival ordinals at the server,
#: the bracket branch counters, and on a fork the victim's branch lags
#: the arrival order by the main-branch operations that raced it.
ORDINAL_SLACK = 3


@dataclass(frozen=True)
class FaultLocalization:
    """The bracket around the first fault.

    ``consistent_upto`` is the largest examined cutoff whose prefix
    still telescopes (0 if none); ``inconsistent_at`` is the first
    cutoff that fails (None if every examined prefix is consistent --
    either no fault, or the fault predates the retained window).
    """

    consistent_upto: int
    inconsistent_at: int | None
    examined_cutoffs: tuple[int, ...]

    @property
    def fault_found(self) -> bool:
        return self.inconsistent_at is not None

    def bracket(self) -> tuple[int, int] | None:
        """(exclusive lower, inclusive upper) bound on the fault's
        global operation counter, or None."""
        if self.inconsistent_at is None:
            return None
        return (self.consistent_upto, self.inconsistent_at)

    def brackets(self, first_op: int) -> bool:
        """Whether the bracket holds ``first_op``, the judge's first
        deviating operation, up to :data:`ORDINAL_SLACK`."""
        return self.fault_found and self.consistent_upto <= first_op + 1 \
            and self.inconsistent_at >= first_op - ORDINAL_SLACK


class CheckpointRing:
    """A bounded ring of checkpoints (keeps the newest ``capacity``)."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 2:
            raise ValueError("checkpoint ring needs capacity >= 2")
        self.capacity = capacity
        self._items: list[Checkpoint] = []

    def record(self, gctr: int, sigma: Digest, last: Digest) -> None:
        self._items.append(Checkpoint(gctr=gctr, sigma=sigma, last=last))
        if len(self._items) > self.capacity:
            self._items.pop(0)

    def items(self) -> list[Checkpoint]:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)


def _registers_at(log: list[Checkpoint], cutoff: int) -> Checkpoint | None:
    """The newest checkpoint at or before ``cutoff`` (None = no ops yet)."""
    best = None
    for checkpoint in log:
        if checkpoint.gctr <= cutoff:
            if best is None or checkpoint.gctr > best.gctr:
                best = checkpoint
    return best


def prefix_consistent(
    initial_tag: Digest,
    logs: dict[str, list[Checkpoint]],
    cutoff: int,
) -> bool:
    """The Theorem 4.2 telescoping predicate over a prefix.

    Valid when every user has checkpointed at its last operation before
    ``cutoff`` -- which holds at any cutoff drawn from the union of the
    users' own checkpoint counters when the interval is 1, and holds up
    to interval-sized slack otherwise.
    """
    sigmas = []
    candidates = []
    for log in logs.values():
        checkpoint = _registers_at(log, cutoff)
        if checkpoint is None:
            continue
        sigmas.append(checkpoint.sigma)
        candidates.append(checkpoint.last)
    total = xor_all(sigmas)
    if not candidates:
        return total == Digest.zero()
    # (initial ^ last) == total  <=>  last == initial ^ total, so one
    # XOR up front replaces a fold per candidate.
    target = initial_tag ^ total
    return target in candidates


def localize_fault(initial_tag: Digest, logs: dict[str, list[Checkpoint]]) -> FaultLocalization:
    """Scan the pooled checkpoint logs for the first inconsistent prefix."""
    cutoffs = sorted({cp.gctr for log in logs.values() for cp in log})
    consistent_upto = 0
    inconsistent_at = None
    for cutoff in cutoffs:
        if prefix_consistent(initial_tag, logs, cutoff):
            # Only advance the lower bound while we have seen no failure:
            # after the fault, later prefixes may coincidentally pass.
            if inconsistent_at is None:
                consistent_upto = cutoff
        elif inconsistent_at is None:
            inconsistent_at = cutoff
    return FaultLocalization(
        consistent_upto=consistent_upto,
        inconsistent_at=inconsistent_at,
        examined_cutoffs=tuple(cutoffs),
    )
