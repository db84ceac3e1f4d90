"""From spans and counter deltas to the per-layer metric table.

:func:`span_report` condenses a :class:`~perfbench.spans.SpanLog` into
what crosses the process boundary (self time by name and by layer, plus
view-change and settlement durations in backend time).
:func:`counter_metrics` turns a counter delta, and :func:`span_metrics`
that report, into the ``<module>.<metric>`` rows of ``BENCHMARK.json``'s
``per_layer`` list.  They are separate because they read different runs:
counters come from the untraced reference, spans from the wrapped run.
A metric whose layer the workload does not touch reads 0.
"""

from __future__ import annotations

from typing import Any, Iterable

from perfbench.spans import LAYERS, SpanLog
from perfbench.stats import median

#: Wire message types the net layer reports by name.
NET_TYPES = ("Message", "DirectPayload", "Heartbeat", "StabilityReport", "StabilityNotice")

#: Membership-protocol message types (communication cost of a view change).
_GMS_TYPES = ("VcPropose", "VcPrepare", "VcFlush", "VcFlushBatch", "VcNack", "VcInstall", "VcAbort")


def paired_durations(
    begins: Iterable[tuple[str, float]], ends: Iterable[tuple[str, float]]
) -> list[float]:
    """Per-process ``begin -> end`` durations from two event streams.

    Each stream is ``(pid, time)`` in time order.  For every pid, an end
    closes the *earliest* begin seen since that pid's previous end (a
    restarted round re-prepares; the change started at the first
    prepare).  Ends with no open begin are ignored.
    """
    events = sorted(
        [(t, 0, pid) for pid, t in begins] + [(t, 1, pid) for pid, t in ends]
    )
    open_since: dict[str, float] = {}
    out = []
    for t, is_end, pid in events:
        if not is_end:
            open_since.setdefault(pid, t)
        elif pid in open_since:
            out.append(t - open_since.pop(pid))
    return out


def span_report(
    log: SpanLog, since: float = float("-inf"), until: float = float("inf")
) -> dict[str, Any]:
    """JSON-safe digest of the spans that started in ``[since, until]``."""
    threads = log.threads()
    summary = log.summary(since, until, threads)
    prepares: list[tuple[str, float]] = []
    installs: list[tuple[str, float]] = []
    settle_starts: list[tuple[str, float]] = []
    settle_dones: list[tuple[str, float]] = []
    total = 0
    transfer_bytes = 0
    for spans in threads:
        total += len(spans)
        for span in spans:
            if span.op is None or not since <= span.start <= until:
                continue
            if span.name == "ViewAgreement.on_prepare":
                prepares.append(span.op)
            elif span.name == "ViewAgreement._install":
                installs.append(span.op)
            elif span.name == "SettlementEngine.on_offer":
                transfer_bytes += span.op
            elif span.name == "SettlementEngine._record":
                pid, at, tag = span.op
                if tag == "settle_start":
                    settle_starts.append((pid, at))
                elif tag == "settle_done":
                    settle_dones.append((pid, at))
    return {
        "by_name": summary["by_name"],
        "by_layer": summary["by_layer"],
        "view_change": paired_durations(prepares, installs),
        "settle": paired_durations(settle_starts, settle_dones),
        "transfer_bytes": transfer_bytes,
        "span_count": total,
    }


def _calls(report: dict[str, Any], name: str) -> float:
    return float(report["by_name"].get(name, {}).get("count", 0))


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def counter_metrics(
    counters: dict[str, float], *, ops: int, puts: int, window_s: float
) -> dict[str, float]:
    """The counter-derived rows of the layer table.

    ``counters`` is a counter delta over a window ``window_s`` wall
    seconds long in which ``ops`` operations (``puts`` of them puts)
    completed ok.  On the store workloads all four come from the
    *untraced* reference, so no row here pays for the wrappers.
    """
    c = counters.get
    out: dict[str, float] = {}

    frames = c("transport.frames_sent", 0.0)
    flushes = c("transport.flushes", 0.0)
    out["transport.frames_per_flush"] = _ratio(frames, flushes)
    out["transport.flushes_per_op"] = _ratio(flushes, ops)
    out["transport.bytes_per_op"] = _ratio(c("transport.bytes_sent", 0.0), ops)
    out["transport.frames_per_read"] = _ratio(
        c("transport.frames_received", 0.0), c("transport.reads", 0.0)
    )
    out["transport.frames_dropped"] = c("transport.frames_dropped", 0.0)

    # The data path of a put: the multicast fan-out and the acks back.
    out["net.msgs_per_put"] = _ratio(
        c("net.type.Message", 0.0) + c("net.type.DirectPayload", 0.0), puts
    )
    for name in NET_TYPES:
        out[f"net.msgs_by_type.{name}"] = c(f"net.type.{name}", 0.0)

    out["vsync.mcasts_per_op"] = _ratio(c("reg.multicasts_total", 0.0), ops)
    out["vsync.deliveries_per_op"] = _ratio(c("reg.deliveries_total", 0.0), ops)
    out["vsync.retransmit_reqs"] = c("net.type.RetransmitRequest", 0.0)

    beats = c("net.type.Heartbeat", 0.0) + c("net.type.GossipDigest", 0.0)
    out["fd.heartbeats_per_s"] = _ratio(beats, window_s)

    installs = c("reg.view_changes_total", 0.0)
    out["gms.view_installs"] = installs
    out["gms.msgs_per_install"] = _ratio(
        sum(c(f"net.type.{name}", 0.0) for name in _GMS_TYPES), installs
    )

    out["core.settle_sessions"] = c("reg.settlement_sessions_total", 0.0)
    out["core.transfer_chunks"] = c("reg.state_transfer_chunks_total", 0.0)

    committed = c("apps.puts_committed", 0.0)
    out["apps.puts_committed"] = committed
    out["apps.puts_aborted"] = c("apps.puts_aborted", 0.0)
    out["apps.acks_per_put"] = _ratio(c("net.type.DirectPayload", 0.0), committed)

    out["sim.events"] = c("sim.events", 0.0)
    return out


def span_metrics(
    report: dict[str, Any], *, ops: int, puts_committed: float, sut_cpu_s: float
) -> dict[str, float]:
    """The rows only the wrappers can see, from the wrapped run alone.

    ``ops`` and ``puts_committed`` are what that run completed and
    ``sut_cpu_s`` the CPU the system under test used in it.  Besides the
    self times these are call counts and backend-time durations taken
    from span arguments; tracing slows the wall clock, not those.
    """
    out: dict[str, float] = {}
    out["gms.rounds_failed"] = (
        _calls(report, "ViewAgreement.on_nack")
        + _calls(report, "ViewAgreement.on_abort")
        + _calls(report, "ViewAgreement._round_timeout")
    )
    changes = report["view_change"]
    out["gms.view_change_p50"] = median(changes) if changes else 0.0
    settles = report["settle"]
    out["core.settle_p50_vt"] = median(settles) if settles else 0.0
    out["core.transfer_bytes"] = float(report["transfer_bytes"])
    out["apps.persist_appends_per_put"] = _ratio(
        _calls(report, "SiteStorage.append"), puts_committed
    )

    covered = 0.0
    for layer in LAYERS:
        self_s = float(report["by_layer"].get(layer, 0.0))
        covered += self_s
        out[f"{layer}.self_ms_per_op"] = _ratio(1000.0 * self_s, ops)
    out["bench.residual_share"] = 1.0 - _ratio(covered, sut_cpu_s) if sut_cpu_s else 0.0
    return out
