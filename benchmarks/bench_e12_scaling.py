"""E12 (extension) — protocol cost as the group grows.

Not a claim from the paper, but the engineering context behind its
Section 5 argument: view changes are *expensive* events (the reason an
"inordinate number" of them matters).  We sweep the group size and
measure what one bootstrap convergence and one partition/heal cycle
cost in protocol messages and virtual time, for the partitionable
stack.

Expected shapes: messages per view change grow ~quadratically in the
group size (all-to-all flush traffic), while the *number* of view
changes stays flat — the partitionable model pays per change, but needs
only a constant number of them per membership event (cf. E5).
"""

from __future__ import annotations

from typing import Any

from repro.runtime.cluster import Cluster, ClusterConfig
from repro.trace.events import ViewInstallEvent
from repro.workload import Table

SIZES = [2, 4, 8, 12, 16, 24]


def measure(n: int) -> dict[str, Any]:
    cluster = Cluster(n, config=ClusterConfig(seed=n))
    assert cluster.settle(timeout=1200), cluster.views()
    bootstrap_time = cluster.now
    bootstrap_msgs = cluster.network.stats.sent
    installs_before = len(list(cluster.recorder.of_type(ViewInstallEvent)))

    half = n // 2
    cluster.partition([list(range(half)), list(range(half, n))])
    assert cluster.settle(timeout=1200)
    cluster.heal()
    assert cluster.settle(timeout=1200)
    cycle_msgs = cluster.network.stats.sent - bootstrap_msgs
    installs_cycle = (
        len(list(cluster.recorder.of_type(ViewInstallEvent))) - installs_before
    )
    per_process_installs = installs_cycle / n
    return {
        "n": n,
        "bootstrap_time": bootstrap_time,
        "bootstrap_msgs": bootstrap_msgs,
        "cycle_msgs": cycle_msgs,
        "installs_per_process": per_process_installs,
    }


def run_experiment() -> list[dict[str, Any]]:
    return [measure(n) for n in SIZES]


def test_e12_protocol_scaling(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table(
        "E12 (extension) / protocol cost vs group size",
        [
            "group size",
            "bootstrap time",
            "bootstrap msgs",
            "partition+heal msgs",
            "installs per process (cycle)",
        ],
    )
    for row in rows:
        table.add(
            row["n"],
            row["bootstrap_time"],
            row["bootstrap_msgs"],
            row["cycle_msgs"],
            row["installs_per_process"],
        )
    table.show()

    # Convergence stays fast (a few heartbeat rounds) at every size.
    assert all(row["bootstrap_time"] < 120 for row in rows)
    # View-change *count* per process stays flat (about 2: split + merge,
    # plus occasional transients)...
    assert all(row["installs_per_process"] <= 5 for row in rows)
    # ...while message cost grows superlinearly with the group size.
    small, large = rows[0], rows[-1]
    ratio = large["cycle_msgs"] / max(1, small["cycle_msgs"])
    assert ratio > (large["n"] / small["n"]) * 1.5
