"""Runs, points, and deviation (paper Section 2.1, Definition 2.1).

A *run* is the paper's function from time to global states; what
Definition 2.1 actually compares between runs is the set and order of
*query and response actions*.  We therefore record a run as the
ordered sequence of those actions, each stamped with its round, and
implement deviation as the paper defines it:

    A prefix of a run r deviates from a run r' if there is some prefix
    of r' such that (1) the sets of query/response actions differ, or
    (2) the order in which they occur differs.

Two runs with the same actions in the same order but at different
rounds do **not** deviate -- only timing moved, which is what bounded
workload preservation (Section 2.2.3) measures instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mtree.database import Query


@dataclass(frozen=True)
class Action:
    """One query or response action, identified by its transaction.

    ``txn_id`` is globally unique per transaction, so the query action
    and its matching response action share it.  ``answer_digest`` lets
    deviation comparison notice a response whose *content* differs
    (same transaction, different answer), which Definition 2.1 captures
    because such response actions are not "identical".
    """

    kind: str  # "query" | "response" | "refusal" (the server executed nothing)
    user_id: str
    txn_id: int
    description: str
    answer_digest: str = ""


@dataclass(frozen=True)
class TimedAction:
    action: Action
    round: int


@dataclass
class Run:
    """An ordered record of the query/response actions of one execution."""

    actions: list[TimedAction] = field(default_factory=list)

    def record(self, action: Action, round_no: int) -> None:
        self.actions.append(TimedAction(action=action, round=round_no))

    def action_sequence(self) -> list[Action]:
        """The untimed action sequence Definition 2.1 compares."""
        return [timed.action for timed in self.actions]

    def prefix(self, length: int) -> "Run":
        return Run(actions=list(self.actions[:length]))

    def __len__(self) -> int:
        return len(self.actions)


def describe_query(query: Query) -> str:
    """Stable one-line description of a query for action identity."""
    name = type(query).__name__
    parts = [name]
    for attr in ("key", "low", "high"):
        if hasattr(query, attr):
            parts.append(getattr(query, attr).decode("utf-8", "replace"))
    if hasattr(query, "value"):
        parts.append(f"{len(query.value)}B")
    return ":".join(parts)


def prefix_deviates(run: Run, reference: Run) -> bool:
    """Definition 2.1: does some prefix of ``run`` deviate from ``reference``?

    ``run`` deviates from ``reference`` iff no prefix of ``reference``
    has exactly the same action sequence as some prefix of ``run`` --
    operationally, iff ``run``'s action sequence is not a prefix of
    ``reference``'s (sets and order must both agree).
    """
    ours = run.action_sequence()
    theirs = reference.action_sequence()
    if len(ours) > len(theirs):
        return True
    return ours != theirs[: len(ours)]


def deviates_from_all(run: Run, trusted_runs: list[Run]) -> bool:
    """Whether ``run`` deviates from every run in ``trusted_runs``.

    This is the paper's definition of the *server* deviating: the
    observed untrusted-system run matches no possible trusted run.
    """
    return all(prefix_deviates(run, reference) for reference in trusted_runs)
