"""E5 — the Section 5 merge-cost analysis.

    "consider two partitions of m members each that merge after repairs.
    This event will result in m view changes in each of the two
    partitions, admitting one new process at a time into the view.
    When in fact, a single view change is all that is really required."

We sweep m and measure, on both stacks, how many view changes the
absorption takes and how long (virtual time) the system needs to settle:

* **partitionable** (this paper's model): two established m-member
  groups, separated by a partition, heal — each process installs ONE
  merged view regardless of m;
* **Isis-style** (one-at-a-time growth): an established m-member primary
  absorbs m processes — the primary installs m successive views, one
  per admitted member.

The paper's claim is the first column staying flat at 1 while the second
grows linearly in m.
"""

from __future__ import annotations

from typing import Any

from repro.isis import isis_stack_config
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.trace.events import ViewInstallEvent
from repro.workload import Table

MS = [1, 2, 4, 8, 16]


def partitionable_merge(m: int) -> dict[str, Any]:
    """Two m-member groups separated at bootstrap, later healed."""
    cluster = Cluster(2 * m, config=ClusterConfig(seed=m), auto_start=False)
    left = list(range(m))
    right = list(range(m, 2 * m))
    cluster.partition([left, right])
    for site in range(2 * m):
        cluster.start_site(site)
    assert cluster.settle(timeout=800), cluster.views()
    merge_start = cluster.now
    pid0 = cluster.stack_at(0).pid
    installs_before = len(cluster.recorder.view_sequence(pid0))
    cluster.heal()
    assert cluster.settle(timeout=800), cluster.views()
    installs_after = len(cluster.recorder.view_sequence(pid0))
    return {
        "view_changes": installs_after - installs_before,
        "settle_time": cluster.now - merge_start,
    }


def isis_merge(m: int) -> dict[str, Any]:
    """An m-member primary and m blocked processes become reachable."""
    config = ClusterConfig(seed=m, stack=isis_stack_config())
    cluster = Cluster(2 * m, config=config, auto_start=False)
    left = list(range(m))
    right = list(range(m, 2 * m))
    cluster.partition([left, right])
    for site in range(2 * m):
        cluster.start_site(site)
    cluster.run_for(100.0 + 80.0 * m)  # let the primary absorb its side
    pid0 = cluster.stack_at(0).pid
    assert len(cluster.stack_at(0).view.members) == m, cluster.views()
    merge_start = cluster.now
    installs_before = len(cluster.recorder.view_sequence(pid0))
    cluster.heal()
    # Run until the primary holds everyone (no settle(): the generic
    # convergence predicate does not apply to blocked minorities).
    deadline = cluster.now + 900.0 + 150.0 * m
    while cluster.now < deadline:
        cluster.run_for(25.0)
        if len(cluster.stack_at(0).view.members) == 2 * m:
            break
    assert len(cluster.stack_at(0).view.members) == 2 * m, cluster.views()
    merged_at = cluster.now
    installs_after = len(cluster.recorder.view_sequence(pid0))
    growths = [
        ev
        for ev in cluster.recorder.view_sequence(pid0)
        if ev.time > merge_start
    ]
    return {
        "view_changes": installs_after - installs_before,
        "settle_time": merged_at - merge_start,
        "growth_installs": len(growths),
    }


def run_experiment() -> list[dict[str, Any]]:
    rows = []
    for m in MS:
        part = partitionable_merge(m)
        isis = isis_merge(m)
        rows.append(
            {
                "m": m,
                "part_changes": part["view_changes"],
                "part_time": part["settle_time"],
                "isis_changes": isis["view_changes"],
                "isis_time": isis["settle_time"],
            }
        )
    return rows


def test_e5_merge_cost(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table(
        "E5 / Section 5 — view changes to merge two m-member groups",
        [
            "m",
            "partitionable: views",
            "partitionable: settle t",
            "isis-style: views",
            "isis-style: settle t",
        ],
    )
    for row in rows:
        table.add(
            row["m"],
            row["part_changes"],
            row["part_time"],
            row["isis_changes"],
            row["isis_time"],
        )
    table.show()

    for row in rows:
        # Partitionable: one view change absorbs the whole other side
        # (allow +1 for a transient re-install on unlucky seeds).
        assert row["part_changes"] <= 2, row
        # Isis-style: at least m installs to admit m members.
        assert row["isis_changes"] >= row["m"], row
    # The gap must *grow* with m (the paper's "inordinate number").
    first, last = rows[0], rows[-1]
    assert last["isis_changes"] - last["part_changes"] > (
        first["isis_changes"] - first["part_changes"]
    )
    # And the absorption time scales with m for Isis, not for ours.
    assert last["isis_time"] > 2 * rows[1]["isis_time"] * 0.8
