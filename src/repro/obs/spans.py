"""Bounded maps of open causal intervals.

A span is an interval bounded by two protocol events: a multicast and
one of its deliveries, a flush start and the view install that ends it,
a settlement start and its resolution.  The start side records the open
timestamp keyed by whatever identifies the interval (a message id, a
pid); the end side looks it up and observes the duration.

A span with several ends (one multicast, one delivery per member) is
opened with their count and closes by itself at its last :meth:`hit`.

The map is bounded: when it is full, the oldest open span is evicted
(FIFO).  Eviction loses the latency observation for that one interval —
acceptable for a metrics layer, but not silently: pass ``on_evict`` to
count the loss (:class:`~repro.obs.instrument.ClusterObs` surfaces it
as ``spans_evicted_total``).  The bound caps memory on hot paths where
ends can be lost (a member that crashes never delivers), and since a
span closes at its last end, an eviction is a lost end, never a span
that had simply finished.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable

__all__ = ["SpanMap"]


class SpanMap:
    """Open-interval starts keyed by id, with FIFO eviction when full."""

    __slots__ = ("_capacity", "_open", "_ends", "_order", "_on_evict")

    def __init__(
        self,
        capacity: int = 4096,
        on_evict: Callable[[Hashable], None] | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("SpanMap capacity must be positive")
        self._capacity = capacity
        self._open: dict[Hashable, float] = {}
        #: Key -> ends still to come, for a span with more than one.
        self._ends: dict[Hashable, int] = {}
        #: Open keys, oldest first; may also hold keys closed since.
        self._order: deque[Hashable] = deque()
        self._on_evict = on_evict

    def __len__(self) -> int:
        return len(self._open)

    def open(self, key: Hashable, at: float, ends: int = 1) -> None:
        """Record the start of an interval (first start wins); it closes
        by itself at its ``ends``-th :meth:`hit`."""
        if key in self._open:
            return
        while len(self._open) >= self._capacity:
            old = self._order.popleft()
            if self._open.pop(old, None) is not None:
                self._ends.pop(old, None)
                if self._on_evict is not None:
                    self._on_evict(old)
        if len(self._order) >= 2 * self._capacity:
            # Closed keys linger in the queue: keep the open ones, in
            # the order they opened (a dict's order).
            self._order = deque(self._open)
        self._open[key] = at
        if ends > 1:
            self._ends[key] = ends
        self._order.append(key)

    def hit(self, key: Hashable) -> float | None:
        """Start time of an open interval, counting one of its ends: the
        last one closes it.  None if unknown."""
        start = self._open.get(key)
        if start is not None:
            left = self._ends.get(key, 1) - 1
            if left > 0:
                self._ends[key] = left
            else:
                del self._open[key]
                self._ends.pop(key, None)
        return start

    def close(self, key: Hashable, at: float) -> float | None:
        """Close an interval and return its duration, or None if unknown."""
        start = self._open.pop(key, None)
        if start is None:
            return None
        self._ends.pop(key, None)
        return at - start

    def discard(self, key: Hashable) -> None:
        """Drop an open interval without observing it (abandon)."""
        self._open.pop(key, None)
        self._ends.pop(key, None)
