"""A tour of the observability toolchain.

Runs a random adversarial schedule, then shows everything the trace
machinery can tell you about it: summary statistics, mode residency,
the per-process timeline, the shared-state problem log, and a JSONL
export that `python -m repro recheck` can re-verify later.

Run:  python examples/observability_tour.py
"""

from __future__ import annotations

import io

from repro.analysis import classification_score, diagnose_run, transition_matrix
from repro.apps import MajorityLockManager
from repro.ports import make_cluster
from repro.trace.checks import check_cluster
from repro.trace.export import dump_trace
from repro.trace.stats import summarize
from repro.trace.timeline import render_timeline
from repro.workload import run_checked_workload
from repro.workload.generator import RandomFaultGenerator

N = 5


def main() -> None:
    generator = RandomFaultGenerator(n_sites=N, seed=12, duration=300)
    schedule = generator.generate()
    print(f"-- running {len(schedule.actions)} fault actions over {N} sites --")
    cluster = make_cluster(
        "sim", N, lambda pid: MajorityLockManager(range(N)), seed=12
    )
    run_checked_workload(cluster, schedule, tail=generator.settle_tail + 150)
    cluster.run_for(200)
    cluster.settle(timeout=500)

    print("\n-- summary statistics --")
    stats = summarize(cluster.recorder)
    print(f"   duration {stats.duration:.0f}; {stats.view_installs} view installs "
          f"({stats.distinct_views} distinct, peak {stats.max_concurrent_views} "
          f"concurrent); {stats.deliveries} deliveries; {stats.crashes} crashes")
    print(f"   mode residency: N={stats.residency.fraction('N'):.0%} "
          f"R={stats.residency.fraction('R'):.0%} "
          f"S={stats.residency.fraction('S'):.0%}")
    print(f"   transitions: {stats.mode_transitions}")

    print("\n-- Figure-1 conformance --")
    matrix = transition_matrix(cluster.recorder)
    print(f"   conforms={matrix.conforms} "
          f"illegal={sorted(matrix.illegal_edges) or 'none'}")

    print("\n-- the first lines of the timeline --")
    lines = render_timeline(cluster.recorder).splitlines()
    for line in lines[:12]:
        print("   " + line)
    print(f"   ... ({len(lines)} rows total)")

    print("\n-- shared-state problem log --")
    entries = diagnose_run(
        cluster.recorder, lambda members: 2 * len(members) > N
    )
    for entry in entries[:5]:
        print(f"   {entry.pid} at {entry.view_id}: truth={entry.truth.label:10s}"
              f" flat={sorted(entry.flat_candidates)} "
              f"enriched={entry.enriched.label}")
    score = classification_score(entries)
    print(f"   score over {score['events']} events: "
          f"enriched exact {score['enriched_exact']:.0%}, "
          f"flat exact {score['flat_exact']:.0%}")

    print("\n-- property checks + export --")
    reports = check_cluster(cluster)
    assert all(r.ok for r in reports)
    print("   all", len(reports), "properties hold")
    buffer = io.StringIO()
    count = dump_trace(cluster.recorder, buffer)
    print(f"   exported {count} events "
          f"({len(buffer.getvalue()) // 1024} KiB of JSONL)")


if __name__ == "__main__":
    main()
