"""Performance regression harness for the simulation core.

Runs a fixed workload matrix against the current core and reports
throughput next to the committed pre-change baseline:

* **bootstrap** — start ``n`` sites, run until membership settles on the
  full view.  Exercises the membership/flush protocol and timer churn.
* **partition_heal** — settle, then cut the group in half and heal it,
  twice.  Exercises view agreement under topology change and the
  in-flight message cut.
* **steady_multicast** — settle, then every site multicasts on a 2.0
  virtual-unit tick for 400 units.  Exercises the scheduler fast lane,
  ``Network.multicast`` and the per-sender delivery chains — the hot
  path of every long experiment.

Methodology: the baseline was captured on the pre-change core (commit
``82f3cc5``) with the only modes that core had — per-type wire stats
always on and full trace recording.  The current numbers are measured
with the benchmark modes the optimized core defaults to for throughput
work (``detailed_stats=False``, ``trace_level="none"``); the n=24
steady-state workload is additionally re-run with detailed stats and
full recording on, so the table separates what the core optimizations
bought from what the cheaper default modes bought.  Same seeds, same
virtual durations, same workload code on both sides.

The **scale lane** runs the same three cells at n ∈ {48, 128, 256}
(512 opt-in via ``--sizes``) under the scale profile — gossip failure
detection at fanout 4, hierarchical flush aggregation at tree fanout 8
— because the default all-to-all planes are O(n²) per interval and
would measure the profile, not the core.  The n=48 cell anchors the
steady-throughput flatness ratio (``steady_vs_n48`` in the JSON); the
profile's timer math is derived in docs/scaling.md.

Run::

    python -m repro.bench.perf                  # full matrix + scale lane
    python -m repro.bench.perf --quick          # CI smoke: small sizes, no file
    python -m repro.bench.perf --scale-smoke    # CI scale gate: n=128, wall budget
    python -m repro.bench.perf --sizes 128,256,512
    python -m repro.bench.perf --profile steady_multicast_n128
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.gms.membership import MembershipConfig
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.vsync.stack import StackConfig
from repro.workload import Table

SEED = 7
STEADY_TICK = 2.0
STEADY_DURATION = 400.0
SETTLE_TIMEOUT = 600.0

#: Default scale-lane sizes; 512 is opt-in (--sizes 48,128,256,512).
#: n=48 runs under the *same* scale profile as the big sizes and is the
#: anchor for the steady-throughput flatness ratio: comparing n=256
#: against the standard-profile n=48 cell would mix a protocol change
#: (gossip vs all-to-all heartbeats) into a core-scaling measurement.
SCALE_SIZES = (48, 128, 256)
#: Steady-state duration for scale cells: each virtual tick moves n
#: multicasts of n deliveries, so 60 units at n=256 already schedules
#: ~2M deliveries — enough signal without an hour of wall time.
SCALE_STEADY_DURATION = 60.0
#: Wall-time budget for --scale-smoke (CI fails the step past this).
SCALE_SMOKE_BUDGET_S = 120.0

#: Throughput of the pre-change core (events/sec, messages/sec) on this
#: exact workload matrix, captured before the fast-path rewrite landed.
#: Kept inline so the speedup column renders without any extra artifact.
BASELINE: dict[str, dict[str, Any]] = {
    "core": "pre-change (commit 82f3cc5)",
    "modes": "detailed stats always on, full trace recording (only modes available)",
    "workloads": {
        "steady_multicast_n8": {"events_per_s": 34592, "messages_per_s": 28387, "wall_s": 0.5583},
        "steady_multicast_n16": {"events_per_s": 24781, "messages_per_s": 22472, "wall_s": 3.0010},
        "steady_multicast_n24": {"events_per_s": 20242, "messages_per_s": 18968, "wall_s": 8.1582},
        "bootstrap_n8": {"events_per_s": 46883, "wall_s": 0.0057},
        "bootstrap_n16": {"events_per_s": 14836, "wall_s": 0.0633},
        "bootstrap_n24": {"events_per_s": 25308, "wall_s": 0.0788},
        "partition_heal_n8": {"events_per_s": 62342, "wall_s": 0.0148},
        "partition_heal_n16": {"events_per_s": 48447, "wall_s": 0.0625},
    },
}


def _bench_config(**overrides: Any) -> ClusterConfig:
    # metrics=False keeps the in-stack observability hooks off the hot
    # path; the registry's callback gauges still exist, so the counter
    # reads below go through the same surface ``repro obs`` reports.
    cfg = dict(
        seed=SEED, detailed_stats=False, trace_level="none", metrics=False
    )
    cfg.update(overrides)
    return ClusterConfig(**cfg)


#: Human-readable summary of the scale profile for reports and JSON.
SCALE_PROFILE = (
    "fd_mode=gossip fanout=4 fd_timeout=45 tree_fanout=8"
    " expand_debounce=6 flush_stall_timeout=90"
)


def _scale_config(**overrides: Any) -> ClusterConfig:
    """Bench config for the n>=128 lane.

    Gossip needs ``fd_timeout`` to cover a whole epidemic round —
    ``T*(log n / log(k+1) + 2)`` ≈ 45 at n=256, k=4, T=5 — not the one
    hop the all-to-all default (16) assumes; ``expand_debounce`` batches
    the flush-reported joiners of a big merge into one extra round
    instead of one round per discovery wave.
    """
    stack = StackConfig(
        fd_timeout=45.0,
        membership=MembershipConfig(
            tree_fanout=8, expand_debounce=6.0, flush_stall_timeout=90.0
        ),
    )
    cfg = dict(
        seed=SEED,
        detailed_stats=False,
        trace_level="none",
        metrics=False,
        stack=stack,
        fd_mode="gossip",
        gossip_fanout=4,
    )
    cfg.update(overrides)
    return ClusterConfig(**cfg)


def _events_run(cluster: Cluster) -> int:
    """Scheduler event count, read through the metrics registry."""
    return int(cluster.metrics.value("sim_events_total"))


@contextmanager
def _gc_quiesced() -> Iterator[None]:
    """Silence the cyclic GC for the duration of a measured window.

    The live-object population of a big cluster grows with n² (buffered
    multicasts awaiting stability), so generational collection pauses
    grow with cluster size and would read as core slowdown.  Collect
    once, move the survivors to the permanent generation, and switch
    the collector off until the window closes.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def _delivered(cluster: Cluster) -> int:
    """Network delivery count, read through the metrics registry."""
    return int(cluster.metrics.value("net_messages_delivered_total"))


def bench_bootstrap(n: int, config: ClusterConfig) -> dict[str, Any]:
    """Wall time to bring ``n`` sites from cold start to a settled view."""
    with _gc_quiesced():
        t0 = time.perf_counter()
        cluster = Cluster(n, config=config)
        settled = cluster.settle(timeout=SETTLE_TIMEOUT)
        wall = time.perf_counter() - t0
    events = _events_run(cluster)
    return {
        "n": n,
        "settled": settled,
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_s": int(events / wall) if wall > 0 else 0,
    }


def bench_partition_heal(
    n: int, config: ClusterConfig, cycles: int = 2
) -> dict[str, Any]:
    """Repeated half/half partition + heal, settling after each step."""
    cluster = Cluster(n, config=config)
    cluster.settle(timeout=SETTLE_TIMEOUT)
    ev0 = _events_run(cluster)
    half = n // 2
    with _gc_quiesced():
        t0 = time.perf_counter()
        for _ in range(cycles):
            cluster.partition([list(range(half)), list(range(half, n))])
            cluster.settle(timeout=SETTLE_TIMEOUT)
            cluster.heal()
            cluster.settle(timeout=SETTLE_TIMEOUT)
        wall = time.perf_counter() - t0
    events = _events_run(cluster) - ev0
    return {
        "n": n,
        "cycles": cycles,
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_s": int(events / wall) if wall > 0 else 0,
    }


def bench_steady_multicast(
    n: int, config: ClusterConfig, duration: float = STEADY_DURATION
) -> dict[str, Any]:
    """Every site multicasts on a fixed tick for ``duration`` units."""
    cluster = Cluster(n, config=config)
    cluster.settle(timeout=SETTLE_TIMEOUT)
    for site in sorted(cluster.stacks):
        stack = cluster.stacks[site]
        stack.set_periodic(
            STEADY_TICK,
            lambda s=stack: s.alive and s.multicast(("w", s.pid.site)),
        )
    ev0 = _events_run(cluster)
    delivered0 = _delivered(cluster)
    with _gc_quiesced():
        t0 = time.perf_counter()
        cluster.run_for(duration)
        wall = time.perf_counter() - t0
    events = _events_run(cluster) - ev0
    delivered = _delivered(cluster) - delivered0
    return {
        "n": n,
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_s": int(events / wall) if wall > 0 else 0,
        "messages_delivered": delivered,
        "messages_per_s": int(delivered / wall) if wall > 0 else 0,
    }


def run_matrix(quick: bool = False) -> dict[str, Any]:
    """Run the workload matrix; returns the results keyed like BASELINE."""
    sizes = (8,) if quick else (8, 16, 24, 48)
    duration = 100.0 if quick else STEADY_DURATION
    cycles = 1 if quick else 2
    results: dict[str, Any] = {}
    for n in sizes:
        results[f"bootstrap_n{n}"] = bench_bootstrap(n, _bench_config())
    for n in sizes[: 2 if quick else 3]:
        results[f"partition_heal_n{n}"] = bench_partition_heal(
            n, _bench_config(), cycles=cycles
        )
    for n in sizes:
        results[f"steady_multicast_n{n}"] = bench_steady_multicast(
            n, _bench_config(), duration=duration
        )
    if not quick:
        # Control run: same workload with the expensive modes the
        # baseline was forced to use, to isolate core vs. mode wins.
        results["steady_multicast_n24_full_recording"] = bench_steady_multicast(
            24,
            _bench_config(detailed_stats=True, trace_level="full"),
            duration=duration,
        )
    return results


def run_scale_matrix(sizes: tuple[int, ...] = SCALE_SIZES) -> dict[str, Any]:
    """The n>=128 lane under the scale profile; keyed like BASELINE."""
    results: dict[str, Any] = {}
    for n in sizes:
        results[f"bootstrap_n{n}"] = bench_bootstrap(n, _scale_config())
    for n in sizes:
        results[f"partition_heal_n{n}"] = bench_partition_heal(
            n, _scale_config(), cycles=1
        )
    for n in sizes:
        # The n=48 anchor moves ~10x fewer deliveries per virtual unit,
        # so it needs a longer window for a comparable sample.
        duration = SCALE_STEADY_DURATION if n >= 128 else 200.0
        results[f"steady_multicast_n{n}"] = bench_steady_multicast(
            n, _scale_config(), duration=duration
        )
    return results


def steady_flatness(scale_results: dict[str, Any]) -> dict[str, float]:
    """Steady messages/s of each big size relative to the n=48 anchor.

    This is the scaling headline: 1.0 means per-delivery cost is flat
    from n=48 to that size; 0.5 means each delivery costs twice as much
    (events/s would not do: one event carries a whole fan-out instant,
    and a fan-out grows with n).  The
    residual droop is working-set growth (the stability-bounded buffer
    of live multicasts grows with n², falling out of cache), not an
    O(n) term in any hot path — see docs/scaling.md.
    """
    anchor = scale_results.get("steady_multicast_n48")
    if not anchor or not anchor.get("messages_per_s"):
        return {}
    ratios: dict[str, float] = {}
    for name, row in scale_results.items():
        if name.startswith("steady_multicast_n") and name != "steady_multicast_n48":
            ratios[f"{name.removeprefix('steady_multicast_')}_vs_n48"] = round(
                row["messages_per_s"] / anchor["messages_per_s"], 3
            )
    return ratios


#: Cells --profile accepts: name -> zero-arg runner.
def _profile_cells() -> dict[str, Any]:
    cells: dict[str, Any] = {}
    for n in (8, 16, 24, 48):
        cells[f"bootstrap_n{n}"] = lambda n=n: bench_bootstrap(n, _bench_config())
        cells[f"partition_heal_n{n}"] = lambda n=n: bench_partition_heal(
            n, _bench_config()
        )
        cells[f"steady_multicast_n{n}"] = lambda n=n: bench_steady_multicast(
            n, _bench_config()
        )
    for n in (128, 256, 512):
        cells[f"bootstrap_n{n}"] = lambda n=n: bench_bootstrap(n, _scale_config())
        cells[f"partition_heal_n{n}"] = lambda n=n: bench_partition_heal(
            n, _scale_config(), cycles=1
        )
        cells[f"steady_multicast_n{n}"] = lambda n=n: bench_steady_multicast(
            n, _scale_config(), duration=SCALE_STEADY_DURATION
        )
    return cells


def run_profiled(cell: str) -> dict[str, Any]:
    """Run one cell under cProfile; print the top of the hot path."""
    cells = _profile_cells()
    if cell not in cells:
        raise SystemExit(
            f"unknown --profile cell {cell!r}; one of: {', '.join(sorted(cells))}"
        )
    profiler = cProfile.Profile()
    profiler.enable()
    row = cells[cell]()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    print(f"== cProfile: {cell} ==")
    stats.print_stats(25)
    return row


def scale_smoke(budget_s: float = SCALE_SMOKE_BUDGET_S) -> int:
    """CI gate: n=128 bootstrap + partition/heal settle within budget."""
    t0 = time.perf_counter()
    boot = bench_bootstrap(128, _scale_config())
    heal = bench_partition_heal(128, _scale_config(), cycles=1)
    wall = time.perf_counter() - t0
    ok = boot["settled"] and wall <= budget_s
    print(
        f"scale-smoke n=128: bootstrap settled={boot['settled']}"
        f" ({boot['wall_s']}s), partition+heal {heal['wall_s']}s,"
        f" total {wall:.1f}s (budget {budget_s:.0f}s) ->"
        f" {'OK' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def _vs_prev(
    prev: dict[str, Any] | None, results: dict[str, Any]
) -> dict[str, Any]:
    """events/s delta of each cell against the last committed run."""
    deltas: dict[str, Any] = {}
    for name, row in results.items():
        old = (prev or {}).get(name)
        if not isinstance(old, dict) or not old.get("events_per_s"):
            continue
        deltas[name] = {
            "prev_events_per_s": old["events_per_s"],
            "delta_pct": round(
                100.0 * (row["events_per_s"] / old["events_per_s"] - 1.0), 1
            ),
        }
    return deltas


def report(results: dict[str, Any]) -> Table:
    table = Table(
        "simulation core throughput (current vs pre-change baseline)",
        ["workload", "wall s", "events/s", "msgs/s", "baseline rate", "speedup"],
    )
    for name, row in results.items():
        base = BASELINE["workloads"].get(name, {})
        # Messages/s where the baseline has it: a multicast's copies that
        # arrive at one instant are one event, so events/s no longer
        # counts the work the baseline core's events did.
        rate = "messages_per_s" if "messages_per_s" in base else "events_per_s"
        base_rate = base.get(rate)
        speedup = f"{row[rate] / base_rate:.2f}x" if base_rate else "-"
        table.add(
            name,
            row["wall_s"],
            row["events_per_s"],
            row.get("messages_per_s", "-"),
            base_rate or "-",
            speedup,
        )
    return table


def report_scale(results: dict[str, Any], deltas: dict[str, Any]) -> Table:
    table = Table(
        f"scale lane ({SCALE_PROFILE})",
        ["workload", "wall s", "events/s", "msgs/s", "vs prev"],
    )
    for name, row in results.items():
        d = deltas.get(name)
        table.add(
            name,
            row["wall_s"],
            row["events_per_s"],
            row.get("messages_per_s", "-"),
            f"{d['delta_pct']:+.1f}%" if d else "-",
        )
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: n=8 only, short runs, no BENCH_PERF.json",
    )
    parser.add_argument(
        "--scale-smoke",
        action="store_true",
        help="CI scale gate: n=128 bootstrap + partition/heal under a"
        " wall-time budget, no BENCH_PERF.json",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=SCALE_SMOKE_BUDGET_S,
        help="wall-time budget in seconds for --scale-smoke",
    )
    parser.add_argument(
        "--sizes",
        default=",".join(str(n) for n in SCALE_SIZES),
        help="comma-separated scale-lane sizes (empty string skips the"
        " lane; 512 is opt-in: --sizes 128,256,512)",
    )
    parser.add_argument(
        "--profile",
        metavar="CELL",
        help="run one cell (e.g. steady_multicast_n128) under cProfile"
        " and print the hot path instead of the matrix",
    )
    parser.add_argument(
        "--out",
        default="BENCH_PERF.json",
        help="output path for the JSON report (full mode only)",
    )
    args = parser.parse_args(argv)

    if args.scale_smoke:
        return scale_smoke(budget_s=args.budget)
    if args.profile:
        row = run_profiled(args.profile)
        print(json.dumps({args.profile: row}, indent=1))
        return 0

    print("== perf harness ==")
    print(f"baseline core : {BASELINE['core']}")
    print(f"baseline modes: {BASELINE['modes']}")
    print("current modes : detailed_stats=False, trace_level='none'"
          " (plus one full-recording control run at n=24)")
    print(f"seed={SEED}  steady tick={STEADY_TICK}  duration={STEADY_DURATION}")

    t0 = time.perf_counter()
    results = run_matrix(quick=args.quick)
    total = time.perf_counter() - t0
    report(results).show()
    print(f"total wall time: {total:.1f}s")

    scale_sizes = tuple(
        int(s) for s in args.sizes.split(",") if s.strip()
    )
    scale_results: dict[str, Any] = {}
    scale_deltas: dict[str, Any] = {}
    out = Path(args.out)
    prev_scale: dict[str, Any] | None = None
    payload: dict[str, Any] = {}
    if out.exists():
        # Read-modify-write: other harnesses (repro.bench.client_perf,
        # repro.bench.obs_perf) own sibling sections of the same file, and the previous scale
        # section feeds the vs_prev delta column.
        try:
            payload = json.loads(out.read_text())
        except ValueError:
            payload = {}
        prev_scale = (payload.get("scale") or {}).get("workloads")
    if scale_sizes and not args.quick:
        t0 = time.perf_counter()
        scale_results = run_scale_matrix(scale_sizes)
        scale_total = time.perf_counter() - t0
        scale_deltas = _vs_prev(prev_scale, scale_results)
        report_scale(scale_results, scale_deltas).show()
        print(f"scale lane wall time: {scale_total:.1f}s")

    if not args.quick:
        payload["baseline"] = BASELINE
        payload["current"] = {
            "modes": "detailed_stats=False, trace_level='none'",
            "workloads": results,
        }
        if scale_results:
            payload["scale"] = {
                "profile": SCALE_PROFILE,
                "steady_duration": SCALE_STEADY_DURATION,
                "workloads": scale_results,
                "steady_vs_n48": steady_flatness(scale_results),
                "vs_prev": scale_deltas,
            }
        key = "steady_multicast_n24"
        base = BASELINE["workloads"][key]["messages_per_s"]
        cur = results[key]["messages_per_s"]
        payload["headline_speedup_n24"] = round(cur / base, 2)
        out.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.out} (n24 steady-state speedup: {cur / base:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
