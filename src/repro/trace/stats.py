"""Summary statistics over recorded traces.

Turns a raw trace into the aggregates experiments and operators care
about: view-change counts and rates, mode residency (how much
process-time was spent NORMAL / REDUCED / SETTLING), delivery counts,
and settlement activity.  Used by the CLI and by E-series analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.trace.events import (
    AppEvent,
    CrashEvent,
    DeliveryEvent,
    EViewChangeEvent,
    ModeChangeEvent,
    MulticastEvent,
    ViewInstallEvent,
)
from repro.trace.recorder import TraceRecorder
from repro.types import ProcessId


@dataclass
class ModeResidency:
    """Process-time spent in each mode (virtual units)."""

    normal: float = 0.0
    reduced: float = 0.0
    settling: float = 0.0

    @property
    def total(self) -> float:
        return self.normal + self.reduced + self.settling

    def fraction(self, mode: str) -> float:
        if self.total == 0:
            return 0.0
        value = {"N": self.normal, "R": self.reduced, "S": self.settling}[mode]
        return value / self.total


@dataclass
class TraceStats:
    """All aggregates for one trace."""

    duration: float = 0.0
    view_installs: int = 0
    distinct_views: int = 0
    max_concurrent_views: int = 0
    multicasts: int = 0
    deliveries: int = 0
    eview_changes: int = 0
    crashes: int = 0
    mode_transitions: dict[str, int] = field(default_factory=dict)
    residency: ModeResidency = field(default_factory=ModeResidency)
    settlement_sessions: int = 0


def mode_residency(rec: TraceRecorder, until: float | None = None) -> ModeResidency:
    """Integrate each process's mode over time, up to ``until`` (defaults
    to the last event time)."""
    horizon = until
    if horizon is None:
        horizon = max((e.time for e in rec.events), default=0.0)
    residency = ModeResidency()
    last_change: dict[ProcessId, tuple[float, str]] = {}
    dead: set[ProcessId] = set()

    def credit(mode: str, span: float) -> None:
        if span <= 0:
            return
        if mode == "N":
            residency.normal += span
        elif mode == "R":
            residency.reduced += span
        elif mode == "S":
            residency.settling += span

    for event in rec.events:
        if isinstance(event, ModeChangeEvent):
            previous = last_change.get(event.pid)
            if previous is not None:
                credit(previous[1], event.time - previous[0])
            last_change[event.pid] = (event.time, event.new_mode)
        elif isinstance(event, CrashEvent):
            previous = last_change.pop(event.pid, None)
            if previous is not None:
                credit(previous[1], event.time - previous[0])
            dead.add(event.pid)
    for pid, (since, mode) in last_change.items():
        if pid not in dead:
            credit(mode, horizon - since)
    return residency


def concurrent_view_peak(rec: TraceRecorder) -> int:
    """The largest number of distinct current views held simultaneously
    by live processes at any install instant."""
    current: dict[ProcessId, object] = {}
    dead: set[ProcessId] = set()
    peak = 0
    for event in rec.events:
        if isinstance(event, ViewInstallEvent):
            current[event.pid] = event.view_id
            dead.discard(event.pid)
        elif isinstance(event, CrashEvent):
            current.pop(event.pid, None)
            dead.add(event.pid)
        else:
            continue
        distinct = len({vid for pid, vid in current.items()})
        peak = max(peak, distinct)
    return peak


def summarize(rec: TraceRecorder) -> TraceStats:
    """Compute the full aggregate bundle for a trace."""
    stats = TraceStats()
    stats.duration = max((e.time for e in rec.events), default=0.0)
    installs = list(rec.of_type(ViewInstallEvent))
    stats.view_installs = len(installs)
    stats.distinct_views = len({e.view_id for e in installs})
    stats.max_concurrent_views = concurrent_view_peak(rec)
    stats.multicasts = sum(1 for _ in rec.of_type(MulticastEvent))
    stats.deliveries = sum(1 for _ in rec.of_type(DeliveryEvent))
    stats.eview_changes = sum(
        1 for e in rec.of_type(EViewChangeEvent) if e.eview_seq > 0
    )
    stats.crashes = sum(1 for _ in rec.of_type(CrashEvent))
    for event in rec.of_type(ModeChangeEvent):
        stats.mode_transitions[event.transition] = (
            stats.mode_transitions.get(event.transition, 0) + 1
        )
    stats.residency = mode_residency(rec)
    stats.settlement_sessions = sum(
        1 for e in rec.of_type(AppEvent) if e.tag == "settle_start"
    )
    return stats


#: The view-agreement payloads (:mod:`repro.gms.messages`) whose sends
#: make up ``gms.sends_per_install``.
GMS_PAYLOADS = (
    "VcPrepare",
    "VcPropose",
    "VcNack",
    "VcFlush",
    "VcFlushBatch",
    "VcInstall",
)


def cost_vector(cluster: Any) -> dict[str, float]:
    """The exact protocol cost of one sim run, one named row per cost.

    Built from what a run records anyway: sends per payload type (the
    network's detailed counters, so the cluster must keep them — the
    :class:`~repro.runtime.cluster.Cluster` default), installs, e-view
    changes, multicasts, deliveries and settlement sessions from the
    trace, every site's stable-storage writes and appends, and the
    estimated bytes of the settlement offers and adopts.
    ``gms.sends_per_install`` is the view-agreement traffic per view
    installed.  Every row repeats exactly for one seed, so a behaviour
    gate can pin the vector beside a trace digest and print the rows
    that moved.
    """
    net = cluster.network_stats()
    if not net.detailed:
        raise ValueError("cost_vector needs a cluster with detailed_stats")
    rec = cluster.gather_trace()
    stats = summarize(rec)
    out: dict[str, float] = {}
    for name, count in sorted(net.by_type.items()):
        out[f"send.{name}"] = count
    for name, size in sorted(net.bytes_by_type.items()):
        out[f"bytes.{name}"] = size
    out["installs"] = stats.view_installs
    out["eview_changes"] = stats.eview_changes
    out["multicasts"] = stats.multicasts
    out["deliveries"] = stats.deliveries
    out["settle_sessions"] = stats.settlement_sessions
    storages = [stack.storage for stack in cluster.stacks.values()]
    out["storage.writes"] = sum(s.writes for s in storages)
    out["storage.appends"] = sum(s.appends for s in storages)
    gms = sum(net.by_type.get(name, 0) for name in GMS_PAYLOADS)
    out["gms.sends_per_install"] = round(gms / max(1, stats.view_installs), 3)
    return out


def cost_table(pinned: dict[str, float], actual: dict[str, float]) -> str:
    """One row per cost of either vector: pinned, actual, and their
    ratio; a row that moved is marked ``*``."""
    lines = [f"  {'cost':<28} {'pinned':>12} {'actual':>12} {'ratio':>7}"]
    for name in sorted(pinned.keys() | actual.keys()):
        old, new = pinned.get(name), actual.get(name)
        ratio = f"{new / old:.3f}" if old and new is not None else "-"
        mark = " " if old == new else "*"
        lines.append(
            f"{mark} {name:<28} {_cell(old):>12} {_cell(new):>12} {ratio:>7}"
        )
    return "\n".join(lines)


def _cell(value: float | None) -> str:
    return "-" if value is None else f"{value:g}"
