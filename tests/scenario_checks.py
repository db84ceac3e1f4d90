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


def hot_key_chains(
    runtime: str, seed: int = 7, burst: int = 1, **knobs
) -> tuple[list, list, list]:
    """Every site of a 5-site store puts the same key ``burst`` times
    every 3 units for 20 rounds, then 50 units pass with no puts.
    Returns each replica's final chain of that key (as provenances), the
    ``ReplicaDivergence`` report over the run's trace and the tokens of
    the committed puts.

    Multicast is FIFO per sender only, so the replicas receive each
    round's puts in different orders: a store whose chains followed
    arrival order would end with several orders and heads here.  With
    ``burst > 1`` each site's puts of a round arrive as one input batch,
    as the client requests of one socket read do, so they leave as one
    group-commit multicast."""
    n = 5
    cluster = make_cluster(runtime, n, app_factory("store", n), seed=seed, **knobs)
    handles: list = []
    with contextlib.closing(cluster):
        scale = cluster.time_scale
        assert cluster.settle(timeout=600.0 * scale)

        def put_round(r: int) -> None:
            for site in range(n):
                store = cluster.app_at(site)
                if burst > 1:
                    store.stack.input_batch = True
                for i in range(burst):
                    handles.append(store.put("k", (site, r, i)))
                if burst > 1:
                    store.stack.end_input_batch()
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
    tokens = [h.token for h in handles if h.status == "committed"]
    return chains, report, tokens
