"""Append-only trace recorder with query helpers.

One recorder observes the whole run.  Protocol stacks append events as
they happen; checkers and the ground-truth classifier query the result.
All query methods are pure reads — the recorder never influences the
execution it observes.

Recording cost is tunable for long or hot runs:

* ``level`` — a named filter over event types.  ``"full"`` (default)
  records everything; ``"membership"`` keeps only the rare structural
  events (view installs, e-view changes, mode changes, crash/recover)
  and drops the per-message firehose; ``"none"`` records nothing.
* ``only`` — an explicit set of event types, overriding ``level``.
* ``capacity`` — bounded ring-buffer mode: only the most recent
  ``capacity`` events are retained (``dropped`` counts evictions).

Hot paths consult :meth:`TraceRecorder.wants` before even constructing
an event object, so a filtered run pays neither allocation nor append.
The invariant checkers work unchanged on a filtered stream — they see a
prefix-consistent subset of the full trace (filtering is by type, never
by process or time window).

Queries read an index, not the event list: the first :meth:`of_type` or
view-shaped query after a change groups ``events`` by exact type in one
pass, and each view-shaped table (deliveries per ``(pid, view)``,
installs per process, ...) is derived from those groups on first use.
The index describes ``events`` as it stood when it was built; the next
query after *any* change — a ``record()`` that appended or evicted, or
``events`` rebound to another list — rebuilds it, so a query never
returns a stale answer and a run of queries costs a constant number of
scans however many views the run installed.  The checks do not query:
they walk ``events`` once (:mod:`repro.trace.checks`).
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Callable, Iterable, Iterator, TypeVar

from repro.errors import SimulationError
from repro.trace.events import (
    AppEvent,
    CrashEvent,
    DeliveryEvent,
    EViewChangeEvent,
    ModeChangeEvent,
    MulticastEvent,
    RecoverEvent,
    TraceEvent,
    ViewInstallEvent,
)
from repro.types import MessageId, ProcessId, ViewId

E = TypeVar("E", bound=TraceEvent)

#: Named recording levels; ``None`` means "accept every type".
LEVELS: dict[str, frozenset[type[TraceEvent]] | None] = {
    "full": None,
    "membership": frozenset(
        {
            ViewInstallEvent,
            EViewChangeEvent,
            ModeChangeEvent,
            CrashEvent,
            RecoverEvent,
        }
    ),
    "none": frozenset(),
}


class _TraceIndex:
    """Per-type and per-``(pid, view)`` tables over one state of a
    recorder's ``events`` (see the module docstring for the contract).

    ``by_type`` is the one pass over the events; every other table is
    built from its per-type lists the first time a query needs it.
    """

    def __init__(
        self, events: "list[TraceEvent] | deque[TraceEvent]", dropped: int
    ) -> None:
        self.events = events
        self.size = len(events)
        self.dropped = dropped
        self.by_type: dict[type[TraceEvent], list[TraceEvent]] = {}
        by_type = self.by_type
        for event in events:
            kind = type(event)
            group = by_type.get(kind)
            if group is None:
                group = by_type[kind] = []
            group.append(event)

    def describes(
        self, events: "list[TraceEvent] | deque[TraceEvent]", dropped: int
    ) -> bool:
        """Is ``events`` still the sequence this index was built over?
        An append grows it, a ring-buffer eviction bumps ``dropped``."""
        return (
            events is self.events
            and len(events) == self.size
            and dropped == self.dropped
        )

    @cached_property
    def delivered(self) -> dict[tuple[ProcessId, ViewId], set[MessageId]]:
        table: dict[tuple[ProcessId, ViewId], set[MessageId]] = {}
        for ev in self.by_type.get(DeliveryEvent, ()):
            key = (ev.pid, ev.view_id)
            ids = table.get(key)
            if ids is None:
                ids = table[key] = set()
            ids.add(ev.msg_id)
        return table

    @cached_property
    def installs_by_pid(self) -> dict[ProcessId, list[ViewInstallEvent]]:
        table: dict[ProcessId, list[ViewInstallEvent]] = {}
        for ev in self.by_type.get(ViewInstallEvent, ()):
            table.setdefault(ev.pid, []).append(ev)
        return table

    @cached_property
    def installers(self) -> dict[ViewId, set[ProcessId]]:
        table: dict[ViewId, set[ProcessId]] = {}
        for ev in self.by_type.get(ViewInstallEvent, ()):
            table.setdefault(ev.view_id, set()).add(ev.pid)
        return table

    @cached_property
    def successors(self) -> dict[tuple[ProcessId, ViewId], ViewId]:
        table: dict[tuple[ProcessId, ViewId], ViewId] = {}
        for ev in self.by_type.get(ViewInstallEvent, ()):
            if ev.prev_view_id is not None:
                table[(ev.pid, ev.prev_view_id)] = ev.view_id
        return table

    @cached_property
    def install_modes(self) -> dict[tuple[ProcessId, ViewId], str]:
        """First mode change of each process in each view."""
        table: dict[tuple[ProcessId, ViewId], str] = {}
        for ev in self.by_type.get(ModeChangeEvent, ()):
            table.setdefault((ev.pid, ev.view_id), ev.new_mode)
        return table


class TraceRecorder:
    """Collects the :class:`TraceEvent` stream of a run, in occurrence
    order, subject to the configured filter and capacity."""

    def __init__(
        self,
        level: str = "full",
        only: Iterable[type[TraceEvent]] | None = None,
        capacity: int | None = None,
        label: str | None = None,
    ) -> None:
        if level not in LEVELS:
            raise SimulationError(
                f"unknown trace level {level!r}; pick one of {sorted(LEVELS)}"
            )
        self.level = level
        self._accepts = frozenset(only) if only is not None else LEVELS[level]
        self.capacity = capacity
        #: Who recorded this: names the source in merged-trace overflow
        #: reports (``"sim"``, ``"site3"``, ``"env"``, ...).
        self.label = label
        self.events: "list[TraceEvent] | deque[TraceEvent]" = (
            [] if capacity is None else deque(maxlen=capacity)
        )
        self.filtered = 0  # events rejected by the type filter
        self.dropped = 0  # events evicted by the ring buffer
        #: Ring-buffer evictions attributed per source recorder; empty
        #: on a leaf recorder, populated by :meth:`merge` so a merged
        #: trace keeps *which node* undercounted, not just by how much.
        self.dropped_by_source: dict[str, int] = {}
        self._index: _TraceIndex | None = None

    def wants(self, event_type: type[TraceEvent]) -> bool:
        """Would an event of this type be recorded?  Hot paths check this
        before allocating the event object."""
        accepts = self._accepts
        return accepts is None or event_type in accepts

    def record(self, event: TraceEvent) -> None:
        accepts = self._accepts
        if accepts is not None and type(event) not in accepts:
            self.filtered += 1
            return
        events = self.events
        capacity = self.capacity
        if capacity is not None and len(events) == capacity:
            self.dropped += 1
        events.append(event)

    @classmethod
    def merge(cls, *recorders: "TraceRecorder") -> "TraceRecorder":
        """Merge several recorders into one coherent history.

        Built for runtimes where each node records locally (one
        :class:`TraceRecorder` per :class:`~repro.realnet.node.RealNode`)
        and analysis needs the global event stream the checkers expect.
        The sources must share a time base (co-located realnet nodes
        share one wall-clock scheduler, so they do).

        Ordering is total and stable: events sort by ``(time, pid,
        seq)``, where ``seq`` is the event's position within its source
        recorder — so same-timestamp events at one process keep their
        recorded (causal) order, and cross-process ties break
        deterministically by process identifier.  Events without a
        process (none currently) would sort before any process's at the
        same instant.

        The result is a plain unbounded ``level="full"`` recorder (the
        sources already applied their own filters); ``filtered`` and
        ``dropped`` counters are summed so loss remains visible, and
        per-node ring-buffer overflow is kept attributed in
        ``dropped_by_source`` (keyed by each source's ``label``) so a
        merged trace can say *which* node undercounts, not just that
        one does.  Re-merging a merged recorder folds its breakdown in
        unchanged.
        """
        merged = cls(level="full")
        keyed: list[tuple[float, tuple, int, int, TraceEvent]] = []
        for src_index, recorder in enumerate(recorders):
            merged.filtered += recorder.filtered
            merged.dropped += recorder.dropped
            for source, count in recorder.dropped_by_source.items():
                merged.dropped_by_source[source] = (
                    merged.dropped_by_source.get(source, 0) + count
                )
            # Only the drops not already attributed upstream (a merged
            # source carries its breakdown; adding its total again
            # would double count).
            own = recorder.dropped - sum(recorder.dropped_by_source.values())
            if own > 0:
                source = recorder.label or f"source{src_index}"
                merged.dropped_by_source[source] = (
                    merged.dropped_by_source.get(source, 0) + own
                )
            for seq, event in enumerate(recorder.events):
                pid = getattr(event, "pid", None)
                pid_key = (
                    (pid.site, pid.incarnation) if pid is not None else (-1, -1)
                )
                keyed.append((event.time, pid_key, seq, src_index, event))
        keyed.sort()
        merged.events = [item[-1] for item in keyed]
        return merged

    def __len__(self) -> int:
        return len(self.events)

    # -- generic queries ------------------------------------------------

    def _indexed(self) -> _TraceIndex:
        """The index over the current ``events``, rebuilt if they changed
        since it was built."""
        index = self._index
        if index is None or not index.describes(self.events, self.dropped):
            index = self._index = _TraceIndex(self.events, self.dropped)
        return index

    def of_type(self, event_type: type[E]) -> Iterator[E]:
        """All events of exactly the given type, in order."""
        return iter(self._indexed().by_type.get(event_type, ()))

    def where(self, predicate: Callable[[TraceEvent], bool]) -> Iterator[TraceEvent]:
        return (e for e in self.events if predicate(e))

    # -- view-synchrony-shaped queries -----------------------------------

    def multicasts(self) -> list[MulticastEvent]:
        return list(self.of_type(MulticastEvent))

    def deliveries(self) -> list[DeliveryEvent]:
        return list(self.of_type(DeliveryEvent))

    def view_installs(self) -> list[ViewInstallEvent]:
        return list(self.of_type(ViewInstallEvent))

    def eview_changes(self) -> list[EViewChangeEvent]:
        return list(self.of_type(EViewChangeEvent))

    def mode_changes(self) -> list[ModeChangeEvent]:
        return list(self.of_type(ModeChangeEvent))

    def app_events(self, tag: str | None = None) -> list[AppEvent]:
        events = self.of_type(AppEvent)
        if tag is None:
            return list(events)
        return [e for e in events if e.tag == tag]

    def installed_views(self) -> dict[ViewId, frozenset[ProcessId]]:
        """Mapping view id -> membership, over every installation."""
        views: dict[ViewId, frozenset[ProcessId]] = {}
        for ev in self.of_type(ViewInstallEvent):
            views[ev.view_id] = ev.members
        return views

    def installers_of(self, view_id: ViewId) -> set[ProcessId]:
        """Which processes actually installed ``view_id``."""
        return set(self._indexed().installers.get(view_id, ()))

    def deliveries_in_view(self, pid: ProcessId, view_id: ViewId) -> set[MessageId]:
        """Messages process ``pid`` delivered while in ``view_id``."""
        return set(self._indexed().delivered.get((pid, view_id), ()))

    def view_sequence(self, pid: ProcessId) -> list[ViewInstallEvent]:
        """The ordered sequence of views installed by process ``pid``."""
        return list(self._indexed().installs_by_pid.get(pid, ()))

    def successor_views(self) -> dict[tuple[ProcessId, ViewId], ViewId]:
        """For each (process, view) pair, the next view that process
        installed, if any.  Used by the Agreement checker to find the
        groups of processes that "survive from one view to the same
        next view"."""
        return dict(self._indexed().successors)

    def mode_at_install(self, pid: ProcessId, view_id: ViewId) -> str | None:
        """The mode ``pid`` adopted when it installed ``view_id``."""
        return self._indexed().install_modes.get((pid, view_id))
