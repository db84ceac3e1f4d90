"""Names, units and bounds of every workload and metric.

``BENCHMARK.json`` at the repository root is the contract the driver
reads; this module is the same catalogue as data the benchmark code
uses, and a self-test keeps the two equal.
"""

from __future__ import annotations

from typing import NamedTuple

from perfbench.layers import NET_TYPES
from perfbench.spans import LAYERS


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only: allowed worsening, share


#: name -> why this workload exists (one line, also in BENCHMARK.json).
WORKLOADS: dict[str, str] = {
    "store_put_steady": (
        "realnet n=5, 100% puts at 300/s on an even grid: every op is a full quorum "
        "round with no batching chance; prices the fixed per-put path"
    ),
    "store_put_burst": (
        "same cluster and mean rate, arrivals in back-to-back bursts of 8 sharing a "
        "due time: puts land inside one flush tick, so batching or group commit shows"
    ),
    "store_read_mostly": (
        "95% get / 5% put, zipfian over 1M keys at 1500/s, any-replica reads: codec, "
        "transport, router and store read; vsync, gms and acks nearly idle"
    ),
    "sim_steady": (
        "sim n=24, every site multicasts on a 2.0-unit tick: scheduler, net.multicast "
        "and vsync channels only; codec or transport work must not move it"
    ),
    "sim_store_faults": (
        "sim n=16 store under scheduled open-loop load through a crash/recover and a "
        "half/half partition/heal, then property checks: gms, core and trace do the work"
    ),
    "sim_membership_n128": (
        "sim n=128 under the gossip/tree scale profile, no app traffic: cold bootstrap, "
        "half/half partition, heal; fd and gms do nearly all the work"
    ),
}

#: What one "op" is on each workload, printed with every result (README
#: has the long form).
OP_UNITS: dict[str, str] = {
    "store_put_steady": "client put, due time to reply",
    "store_put_burst": "client put, due time to reply (calibrated)",
    "store_read_mostly": "client get, due time to reply",
    "sim_steady": "20-unit slice of virtual time, 240 multicasts (calibrated)",
    "sim_store_faults": "one repetition of the fault scenario incl. checks (calibrated)",
    "sim_membership_n128": "one repetition of bootstrap + partition + heal (calibrated)",
}

END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("op_p50_ms", "ms", "lower", 0.25),
    Metric("cpu_ms_per_op", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.20),
)

_PER_LAYER: list[Metric] = [
    Metric("codec.encode_us", "us", "lower"),
    Metric("codec.decode_us", "us", "lower"),
    Metric("codec.bytes_per_msg", "B", "lower"),
    Metric("transport.frames_per_flush", "count", "higher"),
    Metric("transport.flushes_per_op", "count", "lower"),
    Metric("transport.bytes_per_op", "B", "lower"),
    Metric("transport.frames_per_read", "count", "higher"),
    Metric("transport.frames_dropped", "count", "lower"),
    Metric("net.msgs_per_put", "count", "lower"),
    *(Metric(f"net.msgs_by_type.{name}", "count", "lower") for name in NET_TYPES),
    Metric("vsync.mcasts_per_op", "count", "lower"),
    Metric("vsync.deliveries_per_op", "count", "lower"),
    Metric("vsync.retransmit_reqs", "count", "lower"),
    Metric("fd.heartbeats_per_s", "1/s", "lower"),
    Metric("gms.view_installs", "count", "lower"),
    Metric("gms.rounds_failed", "count", "lower"),
    Metric("gms.msgs_per_install", "count", "lower"),
    Metric("gms.bootstrap_vt", "vt", "lower"),
    Metric("gms.partition_vt", "vt", "lower"),
    Metric("gms.heal_vt", "vt", "lower"),
    Metric("gms.settle_vt", "vt", "lower"),
    Metric("gms.view_change_p50", "vt_or_s", "lower"),
    Metric("core.settle_sessions", "count", "lower"),
    Metric("core.settle_p50_vt", "vt_or_s", "lower"),
    Metric("core.transfer_chunks", "count", "lower"),
    Metric("core.transfer_bytes", "B", "lower"),
    Metric("apps.puts_committed", "count", "higher"),
    Metric("apps.puts_aborted", "count", "lower"),
    Metric("apps.acks_per_put", "count", "lower"),
    Metric("apps.persist_appends_per_put", "count", "lower"),
    Metric("apps.divergent_keys", "count", "lower"),
    Metric("apps.get_us", "us", "lower"),
    Metric("apps.apply_us", "us", "lower"),
    Metric("client.put_p50_ms", "ms", "lower"),
    Metric("client.put_p90_ms", "ms", "lower"),
    Metric("client.put_p99_ms", "ms", "lower"),
    Metric("client.put_max_ms", "ms", "lower"),
    Metric("client.get_p50_ms", "ms", "lower"),
    Metric("client.get_p90_ms", "ms", "lower"),
    Metric("client.get_p99_ms", "ms", "lower"),
    Metric("client.retries_per_op", "count", "lower"),
    Metric("client.slow_share", "share", "lower"),
    Metric("client.put_n1_p50_ms", "ms", "lower"),
    Metric("client.put_p50_vt", "vt", "lower"),
    Metric("client.put_p99_vt", "vt", "lower"),
    Metric("client.put_max_vt", "vt", "lower"),
    Metric("sim.noop_events_per_s", "1/s", "higher"),
    Metric("sim.events", "count", "lower"),
    Metric("sim.events_per_s", "1/s", "higher"),
    Metric("trace.events_recorded", "count", "lower"),
    Metric("trace.check_s", "s", "lower"),
    Metric("trace.violations", "count", "lower"),
    Metric("gen.late_p99_ms", "ms", "lower"),
    Metric("gen.cpu_s", "s", "lower"),
    *(Metric(f"{layer}.self_ms_per_op", "ms", "lower") for layer in LAYERS),
    Metric("bench.residual_share", "share", "lower"),
    Metric("bench.trace_overhead_ratio", "ratio", "lower"),
    Metric("bench.failed_share", "share", "lower"),
]
PER_LAYER: tuple[Metric, ...] = tuple(_PER_LAYER)

RUN_SECONDS = 12

#: Share of a run's operations that may fail (final status not ok/missing,
#: or never answered) before ``python -m perfbench`` itself exits non-zero.
#: Absolute, not a share of a parent's value: the workloads are chosen so
#: that none fails.
FAILED_SHARE_LIMIT = 0.002


def benchmark_json() -> dict:
    """The exact content ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
