"""Tree-aggregated synchronisation -- the paper's future-work item (2).

"(2) to find protocols where the clients do only constant amount of
work as compared to proportional to the number of users in the system."

Protocol II's flat sync is all-to-all: each user receives n register
broadcasts and n verdicts, so per-sync client work is Theta(n).  This
variant arranges the users in a static binary tree (over the sorted
user list) and aggregates instead:

1. the initiating user broadcasts a sync-up (as before);
2. each user, after finishing its current transaction, XORs its sigma
   into its subtree aggregate; once a node holds contributions from
   both children it forwards the subtree aggregate *point-to-point* to
   its parent;
3. the root ends up with ``XOR_k sigma_k`` and broadcasts it;
4. every user evaluates its own predicate ``S0 ^ last_i == total`` and
   sends its verdict up the tree, OR-aggregated the same way;
5. the root broadcasts the outcome; failure means the server deviated.

Per sync a user now touches O(degree) = O(1) point-to-point messages
plus the three broadcasts -- constant work regardless of n, with the
same detection power (the total XOR and the existential verdict are
exactly the flat protocol's quantities).
"""

from __future__ import annotations

from repro.crypto.hashing import Digest
from repro.protocols.base import ClientContext, DeviationDetected
from repro.protocols.protocol2 import Protocol2Client, sync_holds


class AggregatedProtocol2Client(Protocol2Client):
    """Protocol II with tree-aggregated synchronisation."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._my_index = self.user_ids.index(self.user_id)
        # Per active sync tag:
        self._agg_sigma: dict[str, Digest] = {}       # subtree XOR so far
        self._agg_children_left: dict[str, int] = {}  # contributions awaited
        self._agg_verdict: dict[str, bool] = {}
        self._verdict_children_left: dict[str, int] = {}
        self._self_contributed: set[str] = set()
        self._seen_totals: set[str] = set()
        self.sync_messages_received = 0

    # -- tree topology -----------------------------------------------------

    def _parent(self) -> str | None:
        if self._my_index == 0:
            return None
        return self.user_ids[(self._my_index - 1) // 2]

    def _children(self) -> list[str]:
        n = len(self.user_ids)
        kids = []
        for child_index in (2 * self._my_index + 1, 2 * self._my_index + 2):
            if child_index < n:
                kids.append(self.user_ids[child_index])
        return kids

    # -- choreography --------------------------------------------------------

    def announce_sync(self, ctx: ClientContext) -> None:
        self._sync_seq += 1
        tag = f"{self.user_id}#{self._sync_seq}"
        ctx.broadcast({"type": "agg-sync-request", "tag": tag})
        self._enter(tag, ctx)

    def may_start_transaction(self, ctx: ClientContext) -> bool:
        return not self._agg_sigma

    def wants_sync(self) -> bool:
        return self.ops_since_sync >= self.k and not self._agg_sigma

    def handle_broadcast(self, sender: str, payload: dict, ctx: ClientContext) -> None:
        kind = payload.get("type")
        if kind == "agg-sync-request":
            self.sync_messages_received += 1
            self._enter(payload["tag"], ctx)
        elif kind == "agg-data":
            self.sync_messages_received += 1
            self._enter(payload["tag"], ctx)
            self._absorb_child_sigma(payload["tag"], payload["sigma"], ctx)
        elif kind == "agg-total":
            self.sync_messages_received += 1
            # A total implies the root saw our contribution, but with
            # out-of-order delivery the original sync-up may still be
            # in flight -- join defensively before evaluating.
            self._enter(payload["tag"], ctx)
            self._evaluate(payload["tag"], payload["total"], ctx)
        elif kind == "agg-verdict":
            self.sync_messages_received += 1
            self._absorb_child_verdict(payload["tag"], payload["success"], ctx)
        elif kind == "agg-outcome":
            self.sync_messages_received += 1
            self._finish(payload["tag"], payload["ok"])

    def _enter(self, tag: str, ctx: ClientContext) -> None:
        if tag in self._agg_sigma or tag in self._finished:
            return
        self._agg_sigma[tag] = Digest.zero()
        self._agg_children_left[tag] = len(self._children())
        self._agg_verdict[tag] = False
        self._verdict_children_left[tag] = len(self._children())
        if ctx.has_pending():
            self._deferred_data.add(tag)
        else:
            self._send_sync_data(tag, ctx)

    def _send_sync_data(self, tag: str, ctx: ClientContext) -> None:
        """This user's part of a sync: its sigma into the subtree XOR
        (also what a deferred contribution sends once the transaction
        in flight completes)."""
        if tag in self._self_contributed or tag not in self._agg_sigma:
            return
        self._self_contributed.add(tag)
        self._agg_sigma[tag] = self._agg_sigma[tag] ^ self.sigma
        self._maybe_forward_sigma(tag, ctx)

    def _absorb_child_sigma(self, tag: str, sigma: Digest, ctx: ClientContext) -> None:
        self._agg_sigma[tag] = self._agg_sigma[tag] ^ sigma
        self._agg_children_left[tag] -= 1
        self._maybe_forward_sigma(tag, ctx)

    def _maybe_forward_sigma(self, tag: str, ctx: ClientContext) -> None:
        if tag in self._self_contributed and self._agg_children_left.get(tag) == 0:
            parent = self._parent()
            if parent is None:
                # Root: the subtree aggregate is the global total.
                ctx.broadcast({"type": "agg-total", "tag": tag,
                               "total": self._agg_sigma[tag]})
                self._evaluate(tag, self._agg_sigma[tag], ctx)
            else:
                ctx.send_to_user(parent, {"type": "agg-data", "tag": tag,
                                          "sigma": self._agg_sigma[tag]})

    def _evaluate(self, tag: str, total: Digest, ctx: ClientContext) -> None:
        if tag not in self._agg_verdict:
            return
        self._seen_totals.add(tag)
        mine = sync_holds(self.core.initial_tag, self.last, total)
        self._agg_verdict[tag] = self._agg_verdict[tag] or mine
        self._maybe_forward_verdict(tag, ctx)

    def _absorb_child_verdict(self, tag: str, success: bool, ctx: ClientContext) -> None:
        if tag not in self._agg_verdict:
            return
        self._agg_verdict[tag] = self._agg_verdict[tag] or success
        self._verdict_children_left[tag] -= 1
        self._maybe_forward_verdict(tag, ctx)

    def _maybe_forward_verdict(self, tag: str, ctx: ClientContext) -> None:
        # Leaves evaluate then forward; internal nodes wait for children.
        if self._verdict_children_left.get(tag) != 0:
            return
        if not self._evaluated(tag):
            return
        parent = self._parent()
        if parent is None:
            ok = self._agg_verdict[tag]
            ctx.broadcast({"type": "agg-outcome", "tag": tag, "ok": ok})
            self._finish(tag, ok)
        else:
            ctx.send_to_user(parent, {"type": "agg-verdict", "tag": tag,
                                      "success": self._agg_verdict[tag]})
            # Mark so a late child verdict cannot double-send.
            self._verdict_children_left[tag] = -1

    def _evaluated(self, tag: str) -> bool:
        """Whether our own predicate has been folded in (happens inside
        :meth:`_evaluate`, which requires the root's total)."""
        return tag in self._seen_totals

    def _finish(self, tag: str, ok: bool) -> None:
        if tag in self._finished:
            return
        self._finished.add(tag)
        for table in (self._agg_sigma, self._agg_children_left,
                      self._agg_verdict, self._verdict_children_left):
            table.pop(tag, None)
        self._self_contributed.discard(tag)
        self._deferred_data.discard(tag)
        self._seen_totals.discard(tag)
        if not ok:
            raise DeviationDetected(
                self.user_id,
                "aggregated synchronisation failed: no user's registers are "
                "consistent with a single serial execution",
            )
        self.ops_since_sync = 0
