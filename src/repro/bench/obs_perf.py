"""Tracing overhead harness: steady-state throughput, tracer on vs off.

The causal tracer (``tracing=True``) mints a context per root event,
threads it through the wire dataclasses, and appends a span event to
the flight recorder per hook firing.  All of that rides the hot
multicast path, so the acceptance bar for the tracing tentpole is
quantitative: **under 10% steady-state events/s overhead at n=24** on
the simulator.  (Uncaused workload roots are 1-in-N sampled — see
``Tracer.sample_root`` — which is what keeps the true cost low; this
harness is the regression tripwire for that property.)

Methodology: the ``steady_multicast`` cell from :mod:`repro.bench.perf`
(every site multicasts on a 2.0 virtual-unit tick), identical configs
except the ``tracing`` flag, metrics hooks *on* in both — so the ratio
isolates the tracer itself, not the hook plumbing it shares with the
metrics satellite.  The overhead is the **median of per-pair ratios**
over ``repeat`` back-to-back (off, on) pairs with alternating order —
see :func:`run_overhead` for why simpler designs read machine noise as
tracer cost on a virtualized runner.

Run::

    python -m repro.bench.obs_perf             # full: n=24, BENCH_PERF.json
    python -m repro.bench.obs_perf --quick     # CI smoke: n=16, no file
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path
from typing import Any

from repro.bench.perf import SEED, bench_steady_multicast
from repro.runtime.cluster import ClusterConfig
from repro.workload import Table

N = 24
DURATION = 400.0
#: Acceptance bar: tracing may cost at most this much steady events/s.
OVERHEAD_BUDGET_PCT = 10.0
#: CI trip-wire: shared runners swing ±15% run to run, so the smoke
#: lane gates at a threshold loose enough to never trip on noise but
#: tight enough to catch a real regression (an unsampled span pipeline
#: on the delivery path measures ~45%).
CI_GATE_PCT = 25.0


def _config(tracing: bool) -> ClusterConfig:
    return ClusterConfig(
        seed=SEED,
        detailed_stats=False,
        trace_level="none",
        metrics=True,
        tracing=tracing,
    )


def run_overhead(
    n: int = N, duration: float = DURATION, repeat: int = 9
) -> dict[str, Any]:
    """Measure the tracer's steady-state cost; returns the ``obs`` row.

    Measurement design, forced by a noisy virtualized runner whose
    throughput swings ±15% at both second and minute scale:

    * **pairs, not blocks** — an (off, on) pair runs back to back, so
      minute-scale drift hits both sides of each ratio about equally;
      two separate per-mode blocks would read drift as tracer cost;
    * **alternating order** — pairs run (off, on), (on, off), ... so a
      systematic position effect inside a pair cancels across pairs;
    * **median of ratios, not ratio of medians/bests** — one lucky
      burst in one mode decides a best-of comparison; the median of
      per-pair ratios needs half the pairs to be wrong to move.
    """
    for tracing in (False, True):  # unmeasured warmup, both modes
        bench_steady_multicast(
            n, _config(tracing), duration=min(duration, 100.0)
        )
    rows: dict[bool, list[dict[str, Any]]] = {False: [], True: []}
    ratios: list[float] = []
    for index in range(repeat):
        order = (False, True) if index % 2 == 0 else (True, False)
        pair: dict[bool, dict[str, Any]] = {}
        for tracing in order:
            pair[tracing] = bench_steady_multicast(
                n, _config(tracing), duration=duration
            )
            rows[tracing].append(pair[tracing])
        ratios.append(
            pair[True]["events_per_s"] / pair[False]["events_per_s"]
        )
    overhead = 100.0 * (1.0 - statistics.median(ratios))

    def _median_row(mode: bool) -> dict[str, Any]:
        ordered = sorted(rows[mode], key=lambda r: r["events_per_s"])
        return ordered[len(ordered) // 2]

    return {
        "workload": f"steady_multicast_n{n}",
        "pairs": repeat,
        "method": "median of per-pair on/off ratios, alternating order",
        "tracing_off": _median_row(False),
        "tracing_on": _median_row(True),
        "pair_ratios": [round(r, 3) for r in sorted(ratios)],
        "overhead_pct": round(overhead, 1),
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "within_budget": overhead <= OVERHEAD_BUDGET_PCT,
    }


def report(row: dict[str, Any]) -> Table:
    table = Table(
        f"tracing overhead ({row['workload']},"
        f" median of {row['pairs']} pair ratios)",
        ["mode", "wall s", "events/s", "msgs/s"],
    )
    for mode in ("tracing_off", "tracing_on"):
        cell = row[mode]
        table.add(
            mode, cell["wall_s"], cell["events_per_s"], cell["messages_per_s"]
        )
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: n=16 cells, no BENCH_PERF.json",
    )
    parser.add_argument(
        "--gate-pct",
        type=float,
        default=OVERHEAD_BUDGET_PCT,
        help="overhead percentage above which the exit code is nonzero"
        f" (CI smoke uses {CI_GATE_PCT:.0f} to stay clear of runner noise)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_PERF.json",
        help="JSON report to merge the 'obs' section into (full mode only)",
    )
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    if args.quick:
        # n=8 cells finish in ~0.1s wall — too little signal for a
        # ratio.  n=16 keeps the smoke around ~10s with ~0.5s cells.
        row = run_overhead(n=16, duration=400.0, repeat=9)
    else:
        row = run_overhead()
    report(row).show()
    ok = row["overhead_pct"] <= args.gate_pct
    print(
        f"tracing overhead: {row['overhead_pct']:+.1f}% events/s"
        f" (budget {OVERHEAD_BUDGET_PCT:.0f}%, gate {args.gate_pct:.0f}%)"
        f" -> {'OK' if ok else 'FAIL'}  [{time.perf_counter() - t0:.1f}s]"
    )

    if not args.quick:
        out = Path(args.out)
        payload: dict[str, Any] = {}
        if out.exists():
            # Read-modify-write: repro.bench.perf and friends own the
            # sibling sections of the same file.
            try:
                payload = json.loads(out.read_text())
            except ValueError:
                payload = {}
        payload["obs"] = row
        out.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.out} (obs section)")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
