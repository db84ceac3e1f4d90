#!/usr/bin/env python3
"""Alternating parent/change pairs of the repo benchmark, with verdicts.

Reads only ``BENCHMARK.json`` (command, run length, workloads, the
end-to-end metrics with their direction and bound).  The parent commit
is checked out into a temporary ``git worktree`` (or taken from
``--parent-dir``, an existing checkout); the change is the tree this
script runs in.  Per workload it runs N pairs of the contract command

    <command> --workload W --seed S --seconds <run_seconds> --trace 0

alternating which side goes first, then prints per metric x workload
both medians with their quartiles, the ratio change/parent with its
base, pairs won, and a verdict:

``unresolved``  either side's quartile distance is wider than the bound,
                so the runs cannot tell — unless every change run beat
                every parent run;
``worse``       the change's median is worse than the parent's by more
                than the metric's bound;
``improved``    out of at least ten pairs the change won at least nine
                tenths of the decided ones (ties count for neither
                side) and the medians differ by more than the distance
                between the parent's quartiles;
``=``           none of the above: no worse than the bound.

Exit status is non-zero on any ``worse``, on any run that exited
non-zero or reported ``correct=false``, and when the change failed a
larger share of its operations than the parent.

    python scripts/perf_pairs.py --pairs 10 --workload store_put_steady
    python scripts/perf_pairs.py --pairs 3            # every workload
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

REPO = Path(__file__).resolve().parent.parent
MIN_PAIRS_FOR_A_GAIN = 10
WIN_SHARE = 0.9


def run_once(
    command: list[str], cwd: Path, workload: str, seed: int, seconds: int
) -> dict[str, Any]:
    """One contract run; the result is the last line of its stdout."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit"] = proc.returncode
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict[str, Any]:
    """Compare paired runs of one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0  # sign * value: smaller is better
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * c < sign * p)
    losses = sum(1 for p, c in zip(parent, change) if sign * c > sign * p)
    decided = wins + losses
    base = abs(p_med)
    spread = max(p_q3 - p_q1, c_q3 - c_q1)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if base and spread > bound * base and not all_better:
        word = "unresolved"
    elif sign * (c_med - p_med) > bound * base:
        word = "worse"
    elif (
        len(parent) >= MIN_PAIRS_FOR_A_GAIN
        and decided
        and wins >= WIN_SHARE * decided
        and sign * (p_med - c_med) > (p_q3 - p_q1)
    ):
        word = "improved"
    else:
        word = "="
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "ratio": c_med / p_med if p_med else float("nan"),
        "wins": wins,
        "decided": decided,
        "verdict": word,
    }


def failed_share(runs: list[dict[str, Any]]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare_workload(
    bench: dict[str, Any], workload: str, parent_dir: Path, pairs: int, seed: int
) -> bool:
    """Run the pairs of one workload, print every run and the verdict
    table; True when nothing counts against the change."""
    command, seconds, metrics = bench["command"], bench["run_seconds"], bench["end_to_end"]
    runs: dict[str, list[dict[str, Any]]] = {"parent": [], "change": []}
    ok = True
    for pair in range(pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            cwd = parent_dir if side == "parent" else REPO
            result = run_once(command, cwd, workload, seed, seconds)
            runs[side].append(result)
            shown = " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                for m in metrics if m["name"] in result["metrics"]
            )
            print(f"run {workload} pair={pair} {side:6s} exit={result['exit']} "
                  f"correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} {shown}", flush=True)
            ok = ok and result["exit"] == 0 and result["correct"]
    p_failed, c_failed = failed_share(runs["parent"]), failed_share(runs["change"])
    ok = ok and c_failed <= p_failed
    print(f"\n== {workload}: {pairs} pairs, seed {seed}, {seconds} s runs; "
          f"failed share parent {p_failed:.4%} change {c_failed:.4%}")
    print(f"{'metric':16s} {'parent med [q1, q3]':>32s} {'change med [q1, q3]':>32s} "
          f"{'ratio':>7s} {'won':>6s} {'bound':>6s}  verdict")
    for m in metrics:
        name = m["name"]
        complete = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in zip(runs["parent"], runs["change"])
            if name in p["metrics"] and name in c["metrics"]
        ]
        if not complete:
            print(f"{name:16s} no complete pair")
            continue
        v = verdict([p for p, _ in complete], [c for _, c in complete], m["better"], m["bound"])
        ok = ok and v["verdict"] != "worse"
        cells = [
            f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {m['unit']}"
            for q in (v["parent"], v["change"])
        ]
        print(f"{name:16s} {cells[0]:>32s} {cells[1]:>32s} {v['ratio']:7.3f} "
              f"{v['wins']:3d}/{v['decided']:<2d} {m['bound']:6.0%}  {v['verdict']}")
    print(flush=True)
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--parent", default="HEAD",
                        help="revision to compare against (default HEAD: the "
                             "change is the uncommitted tree; use HEAD~1 after committing)")
    parser.add_argument("--parent-dir", type=Path,
                        help="use this existing checkout of the parent instead of a worktree")
    args = parser.parse_args(argv)
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    def compare(parent_dir: Path) -> int:
        results = [
            compare_workload(bench, workload, parent_dir, args.pairs, args.seed)
            for workload in workloads
        ]
        return 0 if all(results) else 1

    if args.parent_dir is not None:
        return compare(args.parent_dir.resolve())
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        worktree = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(worktree), args.parent],
                       cwd=REPO, check=True, capture_output=True)
        try:
            return compare(worktree)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(worktree)],
                           cwd=REPO, capture_output=True)


if __name__ == "__main__":
    sys.exit(main())
