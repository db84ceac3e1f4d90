"""Client-tier throughput/latency bench: the store under open-loop load.

This lane measures what an *external* client actually experiences —
request over TCP, quorum-acked put or any-replica get inside, reply
back out — under an open-loop offered rate, the honest way to price a
service tier (a slow server cannot slow the arrival process down and
flatter its own tail).

Cells, recorded in the ``client`` section of ``BENCH_PERF.json``:

* **mixed load** at n=8: 90% gets / 10% quorum-acked puts over a
  million-key zipfian keyspace, at a moderate and a saturating offered
  rate.  The saturating cell is the acceptance gate for the client
  tier: ≥ 1000 sustained client ops/s with per-op p50/p99 read from
  the ``client_op_latency`` obs histograms (the same numbers
  ``repro obs report`` prints — bench and observability can never
  disagree).
* **put-only load** at n=8: every operation is a full quorum
  round-trip, the worst case for the service tier.

Each cell is best-of-``reps`` by achieved ops/s, so a shared-machine
CPU spike shows up as a slow outlier rep, not a phantom regression.
Timers run at the default realnet profile (scale 1): the bench prices
the service under the same failure-detector pressure the CLI runs
with — a persistence or event-loop stall that trips the detector is a
real client-visible regression, not noise to be scaled away.

Run::

    python -m repro.bench.client_perf           # full matrix, updates BENCH_PERF.json
    python -m repro.bench.client_perf --quick   # CI smoke: n=3, short, no file
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Any

from repro.workload import Table

SEED = 7
SETTLE_TIMEOUT = 60.0


def _cell(
    n: int,
    rate: float,
    duration: float,
    read_fraction: float,
    clients: int = 16,
) -> dict[str, Any]:
    """One open-loop cell against a freshly booted realnet store."""
    from repro.apps.factories import app_factory
    from repro.ports import make_cluster
    from repro.workload.openloop import LoadSpec, OpenLoopLoad, slo_verdict

    cluster = make_cluster(
        "realnet",
        n,
        app_factory=app_factory("store", n),
        seed=SEED,
        trace_level="none",
    )
    try:
        assert cluster.settle(timeout=SETTLE_TIMEOUT), cluster.views()
        spec = LoadSpec(
            rate=rate,
            duration=duration,
            clients=clients,
            n_keys=1_000_000,
            key_dist="zipfian",
            read_fraction=read_fraction,
            seed=SEED,
        )
        report = OpenLoopLoad(cluster, spec).run()
        verdict = slo_verdict(cluster, target_p99=0.5)
        per_op = {
            op: {
                "count": int(stats["count"]),
                "p50_ms": round(1000.0 * stats["p50"], 3),
                "p99_ms": round(1000.0 * stats["p99"], 3),
            }
            for op, stats in sorted(verdict.per_op.items())
        }
        return {
            "n": n,
            "offered_rate": rate,
            "duration_s": duration,
            "clients": clients,
            "read_fraction": read_fraction,
            "offered": report.offered,
            "completed": report.completed,
            "acked_ok": report.ok,
            "ok_fraction": round(report.ok_fraction, 4),
            "late_sends": report.late,
            "by_status": report.by_status,
            "achieved_ops_s": int(report.achieved_rate),
            "worst_p50_ms": round(1000.0 * verdict.p50, 3),
            "worst_p99_ms": round(1000.0 * verdict.p99, 3),
            "per_op": per_op,
        }
    finally:
        cluster.close()


#: (cell key, n, offered ops/s, seconds, read fraction).
FULL_MATRIX = (
    ("n8_r400_mixed", 8, 400.0, 4.0, 0.9),
    ("n8_r1200_mixed", 8, 1200.0, 4.0, 0.9),
    ("n8_r300_put", 8, 300.0, 4.0, 0.0),
)
QUICK_MATRIX = (("n3_r150_mixed", 3, 150.0, 1.5, 0.9),)

#: The acceptance gate: the saturating mixed cell must sustain this.
ACCEPTANCE_OPS_S = 1000


def run_matrix(quick: bool = False, reps: int = 2) -> dict[str, Any]:
    matrix = QUICK_MATRIX if quick else FULL_MATRIX
    if quick:
        reps = 1
    cells: dict[str, Any] = {}
    for key, n, rate, duration, reads in matrix:
        best: dict[str, Any] | None = None
        for _ in range(reps):
            row = _cell(n, rate, duration, reads)
            if best is None or row["achieved_ops_s"] > best["achieved_ops_s"]:
                best = row
        assert best is not None
        best["reps"] = reps
        cells[key] = best
    return {
        "workload": "open-loop client load over TCP (see repro.bench.client_perf)",
        "keyspace": "1M keys, zipfian (YCSB theta=0.99)",
        "cells": cells,
    }


def report(results: dict[str, Any]) -> None:
    table = Table(
        "client tier under open-loop load (latency in ms)",
        ["cell", "offered/s", "achieved/s", "ok frac", "late", "p50", "p99"],
    )
    for key, row in results["cells"].items():
        table.add(
            key,
            int(row["offered_rate"]),
            row["achieved_ops_s"],
            row["ok_fraction"],
            row["late_sends"],
            row["worst_p50_ms"],
            row["worst_p99_ms"],
        )
    table.show()
    ops = Table(
        "per-operation latency (ms)",
        ["cell", "op", "count", "p50", "p99"],
    )
    for key, row in results["cells"].items():
        for op, stats in row["per_op"].items():
            ops.add(key, op, stats["count"], stats["p50_ms"], stats["p99_ms"])
    ops.show()


def update_bench_file(results: dict[str, Any], path: str = "BENCH_PERF.json") -> None:
    """Merge the ``client`` section into BENCH_PERF.json key-wise.

    Preserves every other section (simulator core, realnet wire) and
    any client keys this run didn't recompute."""
    out = Path(path)
    payload: dict[str, Any] = {}
    if out.exists():
        try:
            payload = json.loads(out.read_text())
        except ValueError:
            payload = {}
    section = payload.get("client")
    if not isinstance(section, dict):
        section = {}
    section.update(results)
    payload["client"] = section
    out.write_text(json.dumps(payload, indent=1) + "\n")


def _previous_headline(path: str) -> int | None:
    try:
        payload = json.loads(Path(path).read_text())
        return int(payload["client"]["cells"]["n8_r1200_mixed"]["achieved_ops_s"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: n=3 only, short cell, no BENCH_PERF.json",
    )
    parser.add_argument(
        "--out",
        default="BENCH_PERF.json",
        help="bench file to update in place (full mode only)",
    )
    args = parser.parse_args(argv)

    print("== client-tier perf harness ==")
    prev = None if args.quick else _previous_headline(args.out)
    t0 = time.perf_counter()
    results = run_matrix(quick=args.quick)
    total = time.perf_counter() - t0
    report(results)
    print(f"total wall time: {total:.1f}s")

    headline = results["cells"].get("n8_r1200_mixed")
    if headline is not None:
        achieved = headline["achieved_ops_s"]
        results["headline_ops_s_n8"] = achieved
        results["acceptance_1000_ops_s"] = achieved >= ACCEPTANCE_OPS_S
        gate = "PASS" if achieved >= ACCEPTANCE_OPS_S else "FAIL"
        print(
            f"n=8 saturating mixed cell: {achieved} ops/s sustained "
            f"(acceptance ≥ {ACCEPTANCE_OPS_S}: {gate}, "
            f"put p99 {headline['per_op'].get('put', {}).get('p99_ms', '-')}ms)"
        )
        if prev:
            ratio = round(achieved / prev, 2)
            results["vs_prev_n8"] = {
                "prev_ops_s": prev,
                "now_ops_s": achieved,
                "ratio": ratio,
            }
            print(f"vs previously recorded ({prev} ops/s): {ratio:.2f}x")
    if not args.quick:
        update_bench_file(results, args.out)
        print(f"updated {args.out} (client section)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
