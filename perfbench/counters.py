"""Layer counters read through ``ClusterPort`` introspection.

One flat ``dict[str, float]`` per reading, the same on every runtime, so
a measured window is the difference of two readings.  Nothing here
installs anything in the system under test: the sources are
``network_stats()``, ``transport_stats()`` (realnet only), the metrics
registry, and the public counters of the live stacks and store objects.
"""

from __future__ import annotations

import resource
import time
from typing import Any

#: Registry counter families summed over their label sets.
_REGISTRY_TOTALS = (
    "view_changes_total",
    "multicasts_total",
    "deliveries_total",
    "settlement_sessions_total",
    "state_transfer_chunks_total",
)

_TRANSPORT_KEYS = (
    "frames_sent",
    "frames_dropped",
    "flushes",
    "bytes_sent",
    "frames_received",
    "reads",
)


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB.

    ``VmHWM`` where ``/proc`` has it: ``ru_maxrss`` survives fork *and*
    exec, so a child started by a large parent reports the parent's peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_counters(cluster: Any) -> dict[str, float]:
    """A point-in-time reading of every counter the layer table uses."""
    out: dict[str, float] = {
        "cpu_s": time.process_time(),
        "wall_s": time.perf_counter(),
        "rss_mb": peak_rss_mb(),
        "now": float(cluster.now),
    }
    net = cluster.network_stats()
    out["net.sent"] = float(net.sent)
    out["net.delivered"] = float(net.delivered)
    out["net.dropped"] = float(
        net.dropped_partition + net.dropped_loss + net.dropped_dead
    )
    for name, count in net.by_type.items():
        out[f"net.type.{name}"] = float(count)
    transport_stats = getattr(cluster, "transport_stats", None)
    if callable(transport_stats):
        stats = transport_stats()
        for key in _TRANSPORT_KEYS:
            out[f"transport.{key}"] = float(stats.get(key, 0))
    snapshot = cluster.metrics_snapshot()
    for name in _REGISTRY_TOTALS:
        out[f"reg.{name}"] = float(snapshot.total(name))
    installs = 0
    committed = aborted = gets = 0
    for stack in cluster.live_stacks():
        installs += stack.membership.views_installed
        app = stack.app
        committed += getattr(app, "puts_committed", 0)
        aborted += getattr(app, "puts_aborted", 0)
        gets += getattr(app, "gets_served", 0)
    out["gms.site_installs"] = float(installs)
    out["apps.puts_committed"] = float(committed)
    out["apps.puts_aborted"] = float(aborted)
    out["apps.gets_served"] = float(gets)
    events = getattr(getattr(cluster, "scheduler", None), "events_run", None)
    if events is not None:
        out["sim.events"] = float(events)
    return out


def delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """``after - before`` per key; ``rss_mb`` (a peak) is taken from ``after``."""
    out = {key: value - before.get(key, 0.0) for key, value in after.items()}
    out["rss_mb"] = after["rss_mb"]
    return out
