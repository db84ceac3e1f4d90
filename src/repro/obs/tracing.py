"""Causal tracing: wire contexts, span events and the flight recorder.

The PR-5 metrics layer answers "how much / how fast"; this module
answers "why": a compact causal context — ``(trace_id, span_id,
parent)`` — is minted at each *root event* (a client request, a
view-change trigger, a settlement round), carried on the wire in new
optional trailing fields of the protocol dataclasses, and every
instrumented interval emits one :class:`SpanEvent` into a per-node
bounded :class:`FlightRecorder`.  The recorder is the black box of the
chaos-soak roadmap item: a byte-budgeted ring that always holds the
most recent causal history and dumps to disk when a checker trips, or
on demand over the ``obs`` frame kind.

Determinism: span identifiers come from a per-tracer counter salted
with the node's site, never from randomness or wall time, so a seeded
simulator run produces byte-identical traces.  Tracing is off by
default; when off, every context field stays ``None`` and costs zero
bytes on the wire (bin1 elides trailing ``None``-default fields).

Span taxonomy (see docs/observability.md for the full contract):

=================  =====================================================
``view.change``    root, minted where the view change was triggered
``view.flush``     member: prepare received -> flush sent
``view.agree``     coordinator: round start -> install decided
``view.install``   member: flush start -> view installed
``settle.round``   settlement leader: session start -> done/abandon
``settle.offer``   donor: state offer sent
``settle.adopt``   member: settlement state adopted
``mcast.send``     sender: view-synchronous multicast issued
``mcast.deliver``  receiver: multicast send -> this delivery
``client.put/get`` root, store service: request in -> reply out
``put.route``      store service: request routed to the group object
``put.quorum``     store service: multicast issued -> quorum commit
=================  =====================================================
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "TraceCtx",
    "SpanEvent",
    "TraceDump",
    "Tracer",
    "FlightRecorder",
    "load_dump",
    "dump_on_violations",
]


@dataclass(frozen=True)
class TraceCtx:
    """Causal context carried on the wire: ~10 bytes in ``bin1``.

    ``trace_id`` names the causal tree (it is the root span's id);
    ``span_id`` is the event this context *is*; ``parent`` is the span
    that caused it (0 for roots).  Contexts are immutable — deriving a
    child means minting a fresh ``span_id`` via :meth:`Tracer.mint`.
    """

    trace_id: int
    span_id: int
    parent: int = 0


@dataclass(frozen=True)
class SpanEvent:
    """One completed (or instantaneous) causal interval.

    ``t0 == t1`` marks an instant event.  Times are the emitting node's
    scheduler clock; cross-node merging adds the recorder's wall
    ``epoch`` first (zero on the simulator, where all nodes share one
    virtual clock).  ``attrs`` is a flat tuple of ``(key, value)``
    string pairs.
    """

    trace_id: int
    span_id: int
    parent: int
    name: str
    pid: str
    site: int
    t0: float
    t1: float
    attrs: tuple = ()


@dataclass(frozen=True)
class TraceDump:
    """One node's flight-recorder contents, as shipped in ``obs`` replies."""

    node: str
    runtime: str
    epoch: float  # wall-clock seconds at scheduler time 0 (0.0 on sim)
    dropped: int
    events: tuple = ()


def _event_cost(event: SpanEvent) -> int:
    """Approximate serialized size of one span event, in bytes.

    The budget math must stay off the critical path (every traced
    multicast pays it), so this estimates the ``bin1`` encoding —
    varint ids, 8-byte doubles, length-prefixed strings — instead of
    running the codec.  The estimate is intentionally a slight
    over-count, so the serialized dump stays inside the budget too.
    """
    cost = 40 + len(event.name) + len(event.pid)
    for pair in event.attrs:
        for part in pair:
            cost += len(str(part)) + 2
    return cost


class FlightRecorder:
    """Byte-budgeted ring buffer of span events (the black box).

    Appends are O(1); when the budget would be exceeded the oldest
    events are evicted and counted in :attr:`dropped`.  The recorder
    never exceeds ``budget`` bytes of (estimated) event payload, no
    matter the workload — crash storms included.
    """

    __slots__ = (
        "node",
        "runtime",
        "budget",
        "epoch",
        "_events",
        "_bytes",
        "dropped",
        "high_water",
        "_dumped",
    )

    def __init__(
        self,
        node: str = "node",
        runtime: str = "sim",
        *,
        budget: int = 256 * 1024,
        epoch: float = 0.0,
    ) -> None:
        if budget <= 0:
            raise ValueError("flight-recorder budget must be positive")
        self.node = node
        self.runtime = runtime
        self.budget = budget
        self.epoch = epoch
        self._events: deque[tuple[int, SpanEvent]] = deque()
        self._bytes = 0
        self.dropped = 0
        self.high_water = 0
        self._dumped: set[str] = set()

    def __len__(self) -> int:
        return len(self._events)

    @property
    def bytes(self) -> int:
        return self._bytes

    def append(self, event: SpanEvent) -> None:
        cost = _event_cost(event)
        if cost > self.budget:  # a single pathological event: drop it
            self.dropped += 1
            return
        events = self._events
        while self._bytes + cost > self.budget and events:
            old_cost, _ = events.popleft()
            self._bytes -= old_cost
            self.dropped += 1
        events.append((cost, event))
        self._bytes += cost
        if self._bytes > self.high_water:
            self.high_water = self._bytes

    def dump(self) -> TraceDump:
        """Snapshot the ring as an immutable, wire-ready dump."""
        return TraceDump(
            node=self.node,
            runtime=self.runtime,
            epoch=self.epoch,
            dropped=self.dropped,
            events=tuple(event for _, event in self._events),
        )

    @classmethod
    def from_dump(cls, dump: TraceDump) -> "FlightRecorder":
        """Rehydrate a recorder from a shipped dump.

        The realnet-proc driver pulls each child's ring over the control
        protocol and rebuilds local recorders so violation dumps work
        uniformly across backends.  The budget is sized to hold every
        shipped event (the child's own budget already bounded the ring),
        and ``dropped`` reports the *child-side* evictions.
        """
        budget = max(1, sum(_event_cost(event) for event in dump.events))
        recorder = cls(dump.node, dump.runtime, budget=budget, epoch=dump.epoch)
        for event in dump.events:
            recorder.append(event)
        recorder.dropped = dump.dropped
        return recorder

    # -- disk dumps --------------------------------------------------------

    def dump_to_file(self, path: str, reason: str = "") -> str:
        """Write the ring to ``path`` as plain JSON (no codec needed)."""
        write_dump_file(path, self.dump(), reason=reason)
        return path

    def violation_dump(self, violation: str, out_dir: str) -> str | None:
        """Dump-on-violation, exactly once per distinct violation.

        Returns the file path on the first call for ``violation``, and
        ``None`` on every repeat — a checker that trips on thousands of
        trace events must not write thousands of identical dumps.
        """
        if violation in self._dumped:
            return None
        self._dumped.add(violation)
        digest = hashlib.sha256(violation.encode("utf-8")).hexdigest()[:8]
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"flight-{self.node}-{digest}.json")
        return self.dump_to_file(path, reason=violation)


class Tracer:
    """Mints causal contexts and records their span events.

    One tracer per node (realnet) or per cluster (sim).  ``salt``
    disambiguates span ids minted by different nodes without any
    coordination: the id is ``(counter << 12) | salt``, so ids are
    unique as long as salts are (sites are) and runs stay under 2^52
    spans per node.  Everything is deterministic under a fixed seed.
    """

    __slots__ = ("recorder", "_clock", "_salt", "_next", "root_sample", "_roots")

    def __init__(
        self,
        recorder: FlightRecorder,
        clock: Callable[[], float],
        salt: int = 0,
        root_sample: int = 16,
    ) -> None:
        if root_sample < 1:
            raise ValueError("root_sample must be >= 1")
        self.recorder = recorder
        self._clock = clock
        self._salt = salt & 0xFFF
        self._next = 0
        self.root_sample = root_sample
        self._roots = 0

    @property
    def now(self) -> float:
        return self._clock()

    def sample_root(self) -> bool:
        """Deterministic 1-in-``root_sample`` gate for *uncaused* spans.

        Spans with a causal parent (a client put's multicast, a view
        change's installs) are always traced — they are why tracing
        exists.  Uncaused root events (steady workload multicasts) are
        sampled instead: tracing every one would put a full span
        pipeline on the hottest path in the system for traffic whose
        spans are all identical single-hop trees.  The counter-based
        gate keeps seeded runs deterministic; the first uncaused event
        is always sampled so short runs still populate the black box.
        """
        self._roots += 1
        return self._roots % self.root_sample == 1 or self.root_sample == 1

    def mint(self, parent: TraceCtx | None = None) -> TraceCtx:
        """A fresh context: a new root, or a child of ``parent``."""
        self._next += 1
        span_id = (self._next << 12) | self._salt
        if parent is None:
            return TraceCtx(trace_id=span_id, span_id=span_id, parent=0)
        return TraceCtx(
            trace_id=parent.trace_id, span_id=span_id, parent=parent.span_id
        )

    def span(
        self,
        name: str,
        pid: Any,
        site: int,
        t0: float,
        t1: float | None = None,
        *,
        parent: TraceCtx | None = None,
        ctx: TraceCtx | None = None,
        attrs: Iterable[tuple] = (),
    ) -> TraceCtx:
        """Record one span event and return its context.

        Pass ``ctx`` to emit an event for an already-minted context
        (e.g. the agree span whose id travelled in ``VcPrepare``);
        otherwise a new context is minted under ``parent``.
        """
        if ctx is None:
            ctx = self.mint(parent)
        self.recorder.append(
            SpanEvent(
                trace_id=ctx.trace_id,
                span_id=ctx.span_id,
                parent=ctx.parent,
                name=name,
                pid=str(pid),
                site=site,
                t0=t0,
                t1=t1 if t1 is not None else t0,
                attrs=tuple(attrs),
            )
        )
        return ctx


# -- disk dump format ------------------------------------------------------
#
# Dumps are plain JSON — readable with jq, loadable without either wire
# codec — because post-mortems happen on machines that may not have the
# repo's codec registry at the crashed build's fingerprint.

_EVENT_KEYS = (
    "trace_id", "span_id", "parent", "name", "pid", "site", "t0", "t1",
)


def write_dump_file(path: str, dump: TraceDump, reason: str = "") -> None:
    payload = {
        "format": "repro-flight-v1",
        "node": dump.node,
        "runtime": dump.runtime,
        "epoch": dump.epoch,
        "dropped": dump.dropped,
        "reason": reason,
        "events": [
            {
                **{key: getattr(event, key) for key in _EVENT_KEYS},
                "attrs": [list(pair) for pair in event.attrs],
            }
            for event in dump.events
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_dump(path: str) -> TraceDump:
    """Load a disk dump back into a :class:`TraceDump`."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "repro-flight-v1":
        raise ValueError(f"{path}: not a repro flight-recorder dump")
    events = tuple(
        SpanEvent(
            **{key: raw[key] for key in _EVENT_KEYS},
            attrs=tuple(tuple(pair) for pair in raw.get("attrs", ())),
        )
        for raw in payload.get("events", ())
    )
    return TraceDump(
        node=payload.get("node", "?"),
        runtime=payload.get("runtime", "?"),
        epoch=payload.get("epoch", 0.0),
        dropped=payload.get("dropped", 0),
        events=events,
    )


def dump_on_violations(
    cluster: Any, violations: Iterable[str], out_dir: str | None = None
) -> list[str]:
    """Write flight dumps for a run that tripped checkers.

    Called by the workload runners after the property checks: every
    flight recorder the cluster exposes writes at most one dump per
    distinct violation into ``out_dir`` (default: ``$REPRO_FLIGHT_DIR``
    or ``flight_dumps/``).  A no-op when tracing is off or the backend
    has no recorders.  Returns the paths written.
    """
    recorders_fn = getattr(cluster, "flight_recorders", None)
    if recorders_fn is None:
        return []
    recorders = recorders_fn()
    if not recorders:
        return []
    out_dir = out_dir or os.environ.get("REPRO_FLIGHT_DIR", "flight_dumps")
    paths = []
    for violation in violations:
        for recorder in recorders:
            path = recorder.violation_dump(violation, out_dir)
            if path is not None:
                paths.append(path)
    return paths
