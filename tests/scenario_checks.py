"""Scenarios whose assertions hold on any runtime.

Shared by the simulator tests and the wall-clock ones under
``tests/realnet/``: the partition/merge scenario (so ``repro demo`` is
held to the same claims on both) and the store's hot-key reproducer.
"""

from __future__ import annotations

import contextlib

from repro.apps.factories import app_factory
from repro.fuzz.checkers import make_checkers, run_checkers
from repro.ports import make_cluster
from repro.workload.scenarios import partition_merge


def assert_partition_merge(runtime: str, n_sites: int = 3, **knobs) -> None:
    """Run :func:`partition_merge` and check what the paper claims
    (:attr:`PartitionMergeReport.ok`; the report's repr names the field
    that failed)."""
    with contextlib.closing(make_cluster(runtime, n_sites, **knobs)) as cluster:
        report = partition_merge(cluster)
    assert report.ok, report


def hot_key_chains(runtime: str, seed: int = 7, **knobs) -> tuple[list, list]:
    """Every site of a 5-site store puts the same key every 3 units for
    20 rounds, then 50 units pass with no puts.  Returns each replica's
    final chain of that key (as provenances) and the
    ``ReplicaDivergence`` report over the run's trace.

    Multicast is FIFO per sender only, so the replicas receive each
    round's five puts in different orders: a store whose chains followed
    arrival order would end with several orders and heads here."""
    n = 5
    cluster = make_cluster(runtime, n, app_factory("store", n), seed=seed, **knobs)
    with contextlib.closing(cluster):
        scale = cluster.time_scale
        assert cluster.settle(timeout=600.0 * scale)

        def put_round(r: int) -> None:
            for site in range(n):
                cluster.app_at(site).put("k", (site, r))
            if r + 1 < 20:
                cluster.after(3.0 * scale, lambda: put_round(r + 1))

        cluster.after(0.0, lambda: put_round(0))
        cluster.run_for((20 * 3.0 + 50.0) * scale)
        chains = [
            [e.prov for e in cluster.app_at(site).chains.get("k", ())]
            for site in range(n)
        ]
        (report,) = run_checkers(
            cluster.gather_trace(), make_checkers(["ReplicaDivergence"])
        )
    return chains, report
