"""Deterministic aggregation tree for hierarchical view agreement.

At hundreds of members, the coordinator's flat prepare/flush/install
exchange makes it both the sender and the receiver of O(n) messages per
round.  The tree spreads that fan-out/fan-in over the members: the
coordinator is the root of a ``fanout``-ary heap-shaped tree over
``[coordinator] + sorted(other members)``; prepares and installs relay
down edge by edge, flush reports aggregate up, so no process touches
more than ``fanout`` peers per hop and the coordinator's inbound burst
drops from O(n) to O(fanout).

The tree is a pure function of ``(members, coordinator, fanout)`` —
every member computes the same one from the prepare it received, with no
extra coordination messages.  It is an *optimization overlay*, not a
correctness mechanism: when relays die, the round-timeout retry path
falls back to direct coordinator↔member exchange, so the protocol's
fault tolerance is unchanged.

Being a pure function of that key and never mutated after construction,
one tree serves everybody who asks for the same key: :func:`round_tree`
memoises on exactly ``(members, coordinator, fanout)``, so a round costs
one sort instead of one per member per prepare and per install.  The
memo is bounded (:data:`TREE_MEMO`); an evicted tree is simply rebuilt.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from repro.types import ProcessId

#: Trees kept by :func:`round_tree`.  Rounds in flight at one instant are
#: far fewer; at n=128 a tree is about 6 KB, so the memo stays under 1 MB.
TREE_MEMO = 128


class AggregationTree:
    """Heap-indexed ``fanout``-ary tree over one round's membership."""

    def __init__(
        self,
        members: Iterable[ProcessId],
        root: ProcessId,
        fanout: int,
    ) -> None:
        if fanout < 1:
            raise ValueError(f"tree fanout must be >= 1, got {fanout}")
        self.fanout = fanout
        others = set(members)
        others.discard(root)
        # A tuple: one tree is handed to every member of the round.
        self.order: tuple[ProcessId, ...] = (root, *sorted(others))
        self._index = {pid: i for i, pid in enumerate(self.order)}

    def __contains__(self, pid: ProcessId) -> bool:
        return pid in self._index

    def parent(self, pid: ProcessId) -> ProcessId | None:
        """The tree parent of ``pid`` (None for the root)."""
        idx = self._index[pid]
        if idx == 0:
            return None
        return self.order[(idx - 1) // self.fanout]

    def children(self, pid: ProcessId) -> tuple[ProcessId, ...]:
        """The direct children of ``pid`` (empty for leaves)."""
        idx = self._index[pid]
        first = idx * self.fanout + 1
        return self.order[first : first + self.fanout]

    def subtree_size(self, pid: ProcessId) -> int:
        """Number of members in the subtree rooted at ``pid`` (inclusive)."""
        total = 0
        frontier = [self._index[pid]]
        n = len(self.order)
        while frontier:
            idx = frontier.pop()
            total += 1
            first = idx * self.fanout + 1
            frontier.extend(range(first, min(first + self.fanout, n)))
        return total

    def ancestors(self, pid: ProcessId) -> list[ProcessId]:
        """Path from ``pid``'s parent up to the root, in order."""
        path: list[ProcessId] = []
        current = self.parent(pid)
        while current is not None:
            path.append(current)
            current = self.parent(current)
        return path


@lru_cache(maxsize=TREE_MEMO)
def round_tree(
    members: frozenset[ProcessId], root: ProcessId, fanout: int
) -> AggregationTree:
    """The (shared, read-only) tree of one round."""
    return AggregationTree(members, root, fanout)
