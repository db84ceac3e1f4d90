"""Virtual-time event scheduler.

A tiny, deterministic discrete-event core.  The heap holds ``(time,
seq, callback, args, event)`` tuples; ``seq`` is a monotonically
increasing counter that breaks ties between events scheduled for the
same instant, so execution order is a pure function of the schedule
(tuples never compare beyond ``seq``, which is unique).

Two scheduling lanes share the heap:

* the cancellable lane (:meth:`Scheduler.at` / :meth:`Scheduler.after`)
  returns an :class:`Event` handle whose :meth:`Event.cancel` prevents
  firing — used by timers and anything that may be rescinded;
* the fast lane (:meth:`Scheduler.fire_at` / :meth:`Scheduler.fire_after`)
  allocates no handle at all — used for fire-and-forget work such as
  message deliveries, which dominate event volume and never cancel.
  The network pushes one entry per multicast fan-out instant (every
  copy of one call that arrives at that time), so an event is not a
  message: ``events_run`` counts entries, the network counts copies.

Cancellation is lazy: a cancelled event stays in the heap (marked dead)
until it surfaces, but when dead entries exceed half the heap the queue
is compacted in one pass, so a workload that cancels heavily — e.g.
per-message retransmission timers — cannot grow the heap without bound.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError

# Compaction only kicks in past this heap size: tiny heaps are cheap to
# scan and compacting them would just churn.
_COMPACT_MIN = 64


class Event:
    """A scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sched")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        sched: "Scheduler | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sched = sched

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once."""
        if not self.cancelled:
            self.cancelled = True
            if self._sched is not None:
                self._sched._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, seq={self.seq}, {state})"


class Scheduler:
    """Orders and executes all events of one simulation run.

    This is the simulator's implementation of
    :class:`repro.ports.SchedulerPort` (``now`` is virtual time);
    :class:`repro.realnet.WallClockScheduler` implements the same
    contract over an asyncio event loop.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        # Heap entries: (time, seq, callback, args, event-or-None).
        self._heap: list[tuple[float, int, Callable[..., None], tuple, Event | None]] = []
        self._events_run = 0
        self._live = 0
        self._dead = 0  # cancelled entries still buried in the heap

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_run(self) -> int:
        """Number of events executed so far (for budget checks)."""
        return self._events_run

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live

    # -- scheduling -------------------------------------------------------

    def at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {time} < now {self._now}"
            )
        self._seq += 1
        event = Event(time, self._seq, callback, args, self)
        heapq.heappush(self._heap, (time, self._seq, callback, args, event))
        self._live += 1
        return event

    def after(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after a relative ``delay`` >= 0."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.at(self._now + delay, callback, *args)

    def fire_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Fast lane: schedule a fire-and-forget callback at ``time``.

        No :class:`Event` handle is allocated, so the entry can never be
        cancelled — the right lane for message deliveries (one entry per
        fan-out instant), which account for nearly all scheduled work
        and are only ever dropped by the network's own connectivity
        checks, never rescinded.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {time} < now {self._now}"
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, callback, args, None))
        self._live += 1

    def fire_after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fast lane, relative: fire-and-forget after ``delay`` >= 0."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.fire_at(self._now + delay, callback, *args)

    # -- lazy cancellation ------------------------------------------------

    def _note_cancel(self) -> None:
        self._live -= 1
        self._dead += 1
        if self._dead * 2 > len(self._heap) and len(self._heap) > _COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Purge cancelled entries in one pass and re-heapify.

        Pop order is unaffected: heap order is a total order on unique
        ``(time, seq)`` keys, so any valid heap arrangement pops the
        same sequence.
        """
        self._heap = [
            entry for entry in self._heap
            if entry[4] is None or not entry[4].cancelled
        ]
        heapq.heapify(self._heap)
        self._dead = 0

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.

        Returns False when the queue is empty (simulation quiescent).
        """
        while self._heap:
            time, _seq, callback, args, event = heapq.heappop(self._heap)
            if event is not None:
                if event.cancelled:
                    self._dead -= 1
                    continue
                # Detach so a late cancel() (e.g. a timer torn down after
                # it already fired) cannot skew the live/dead counters.
                event._sched = None
            self._live -= 1
            self._now = time
            self._events_run += 1
            callback(*args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Run events until quiescence or virtual time ``until``.

        Returns the virtual time at which the run stopped.  ``max_events``
        is a safety net against livelocked protocols: exceeding it raises
        :class:`SimulationError` rather than looping forever.
        """
        executed = 0
        while self._heap:
            head = self._heap[0]
            if head[4] is not None and head[4].cancelled:
                heapq.heappop(self._heap)
                self._dead -= 1
                continue
            if until is not None and head[0] > until:
                break
            if executed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; protocol livelock?"
                )
            self.step()
            executed += 1
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_for(self, duration: float, max_events: int = 10_000_000) -> float:
        """Run for ``duration`` units of virtual time from now."""
        return self.run(until=self._now + duration, max_events=max_events)
