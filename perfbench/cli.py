"""``python -m perfbench`` / ``python3 perfbench/run.py``: one command.

For each workload it prints every metric by name with its unit, verifies
the run's outputs, and exits non-zero on a correctness failure.  With a
single ``--workload`` the last line of standard output is the JSON object
the benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import time
import unittest
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable

_T_START = time.perf_counter()

from perfbench import add_src_to_path  # noqa: E402

add_src_to_path()

from perfbench import sim, store  # noqa: E402  (imports repro: part of set-up)
from perfbench.catalogue import (  # noqa: E402
    END_TO_END,
    FAILED_SHARE_LIMIT,
    RUN_SECONDS,
    WORKLOADS,
)
from perfbench.result import RunResult, host_info, print_result  # noqa: E402
from perfbench.stats import rel_diff  # noqa: E402

#: Seconds the imports above took; every sim workload's ``setup_s`` pays it.
IMPORTS_S = time.perf_counter() - _T_START

QUICK_SECONDS = 1.5

STORE_SPECS = {
    "store_put_steady": store.StoreSpec("store_put_steady", 300.0, 1, 0.0, "uniform", 100_000),
    "store_put_burst": store.StoreSpec(
        "store_put_burst", 300.0, 8, 0.0, "uniform", 100_000, cpu_bound_latency=True
    ),
    "store_read_mostly": store.StoreSpec(
        "store_read_mostly", 1500.0, 1, 0.95, "zipfian", 1_000_000
    ),
}

SIM_RUNNERS: dict[str, tuple[Callable[..., RunResult], Callable[..., RunResult]]] = {
    "sim_steady": (sim.steady_untraced, sim.steady_traced),
    "sim_store_faults": (sim.faults_untraced, sim.faults_traced),
    "sim_membership_n128": (sim.membership_untraced, sim.membership_traced),
}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    quick: bool,
    spans_out: str | None = None,
) -> RunResult:
    """One run of one workload, untraced (end-to-end) or traced (layers)."""
    spec = STORE_SPECS.get(name)
    if spec is not None:
        if traced:
            return store.run_traced(spec, seed, seconds, spans_out)
        return store.run_untraced(spec, seed, seconds, quick=quick)
    untraced, with_trace = SIM_RUNNERS[name]
    scale = sim.Scale.quick() if quick else sim.Scale()
    if traced:
        return with_trace(seed, seconds, scale, spans_out)
    return untraced(seed, seconds, scale, IMPORTS_S)


def _run_isolated(*args: Any) -> RunResult:
    """:func:`run_workload` in a fresh interpreter.

    Peak RSS and import time belong to a process, so workloads sharing
    one would report each other's (a heap that grew to 65 MB for
    ``sim_store_faults`` is still 55 MB when ``sim_steady`` runs next)."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        return pool.submit(run_workload, *args).result()


def _run_set(
    names: list[str],
    seed: int,
    seconds: float,
    traced: bool,
    quick: bool,
    host: dict,
    spans_out: str | None,
    isolated: bool,
) -> dict[str, RunResult]:
    run = _run_isolated if isolated else run_workload
    results: dict[str, RunResult] = {}
    for name in names:
        results[name] = run(name, seed, seconds, traced, quick, spans_out)
        print_result(results[name], host)
    return results


def _compare(first: dict[str, RunResult], second: dict[str, RunResult]) -> bool:
    """Print both sets side by side; False if a bound is exceeded.

    The second set may be worse than the first by at most the metric's
    bound (traced sets have no end-to-end metrics to compare).  What a
    sim workload reports as exact (virtual times, event and message
    counts) must be equal: same seed, same code.
    """
    ok = True
    print("== repeat: second set against first ==")
    print(f"{'workload':22s} {'metric':16s} {'first':>12s} {'second':>12s} {'diff':>8s} {'bound':>6s}")
    for name, a in first.items():
        b = second[name]
        for metric in END_TO_END if not a.traced else ():
            x, y = a.end_to_end[metric.name], b.end_to_end[metric.name]
            worse = rel_diff(x, y) if metric.better == "lower" else -rel_diff(x, y)
            verdict = "" if worse <= metric.bound else "  EXCEEDED"
            ok = ok and not verdict
            print(
                f"{name:22s} {metric.name:16s} {x:12.5g} {y:12.5g} "
                f"{100 * worse:+7.1f}% {100 * metric.bound:5.0f}%{verdict}"
            )
        for key in sorted(a.exact):
            if a.exact[key] != b.exact.get(key):
                ok = False
                print(f"{name:22s} {key:16s} {a.exact[key]!r} != {b.exact.get(key)!r}  NOT EXACT")
    return ok


def selftest() -> int:
    package = Path(__file__).resolve().parent
    tests = unittest.defaultTestLoader.discover(
        str(package / "tests"), top_level_dir=str(package.parent)
    )
    outcome = unittest.TextTestRunner(verbosity=1).run(tests)
    return 0 if outcome.wasSuccessful() else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(RUN_SECONDS), help="measured window"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="0: the untraced run, end-to-end metrics; 1: the traced run, layer table",
    )
    parser.add_argument("--quick", action="store_true", help="every workload <= 3 s (smoke)")
    parser.add_argument("--repeat", type=int, default=1, help="run the set N times and compare")
    parser.add_argument(
        "--spans-out",
        metavar="PATH",
        help="traced runs of a single --workload: write every span there, JSON lines",
    )
    parser.add_argument("--selftest", action="store_true", help="run perfbench/tests")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()
    if args.all == bool(args.workload):
        parser.error("give --workload NAME or --all")
    if args.spans_out and (args.all or not args.trace):
        parser.error("--spans-out takes a single --workload and --trace 1")
    names = list(WORKLOADS) if args.all else [args.workload]
    seconds = QUICK_SECONDS if args.quick else args.seconds
    host = host_info()

    repeats = max(1, args.repeat)
    sets = [
        _run_set(
            names,
            args.seed,
            seconds,
            bool(args.trace),
            args.quick,
            host,
            args.spans_out,
            isolated=len(names) * repeats > 1,  # a lone run owns this process
        )
        for _ in range(repeats)
    ]
    ok = all(
        r.correct and r.failed <= FAILED_SHARE_LIMIT * r.attempted
        for results in sets
        for r in results.values()
    )
    for later in sets[1:]:
        ok = _compare(sets[0], later) and ok
    last = sets[-1][names[-1]]
    if not args.all and (last.traced or last.end_to_end):
        # An untraced run that failed before it measured has no line to give.
        print(last.final_line())
    if not ok:
        print(
            "FAILED: a correctness check, the failed-operation limit or a repeat"
            " bound did not hold",
            file=sys.stderr,
        )
    return 0 if ok else 1
