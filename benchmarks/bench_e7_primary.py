"""E7 — Section 4: "in applications that are structured around the
primary partition paradigm, state merging can never arise since primary
partitions are totally ordered and, therefore, there can never be more
than one cluster in S_N."

We histogram the number of S_N clusters at every installed view, for
three configurations driven by identical partition/heal schedules:

* partitionable stack + always-available object (weak consistency:
  every partition keeps serving) — multi-cluster events MUST occur;
* partitionable stack + majority-quorum object — quorum intersection
  already keeps S_N to one cluster (at most one concurrent FULL view);
* Isis-style primary-partition stack + majority object — merging is
  impossible *by construction*, the paper's claim.

The flip side of the claim is also measured: the primary-partition run
pays with availability — the minority performs no operations at all.
"""

from __future__ import annotations

from typing import Any

from repro.core.group_object import GroupObject
from repro.core.classify import ground_truth
from repro.core.mode_functions import (
    AlwaysFullModeFunction,
    DynamicPrimaryModeFunction,
    StaticMajorityModeFunction,
)
from repro.isis import isis_stack_config
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.workload import Table

N_SITES = 5
SEEDS = range(5)


class Obj(GroupObject):
    def __init__(self, fn):
        super().__init__(fn)
        self.data = {}

    def snapshot_state(self):
        return dict(self.data)

    def adopt_state(self, state):
        self.data = dict(state)

    def apply_op(self, sender, op, msg_id):
        self.data[op[0]] = op[1]

    def merge_app_states(self, offers):
        merged = {}
        for offer in sorted(offers, key=lambda o: (o.version, o.sender)):
            merged.update(offer.state)
        return merged


def drive(cluster: Cluster, seed: int) -> None:
    """A partition/heal cycle with writes wherever writes are possible."""
    cluster.run_for(250)
    groups = ([0, 1, 2], [3, 4]) if seed % 2 else ([0, 1], [2, 3, 4])
    cluster.partition(groups)
    cluster.run_for(250)
    for site in range(N_SITES):
        app = cluster.apps[site]
        if app.can_submit((f"k{site}", seed)):
            app.submit_op((f"k{site}", seed))
    cluster.run_for(60)
    cluster.heal()
    cluster.run_for(400)


def cluster_histogram(kind: str, seed: int) -> dict[str, Any]:
    if kind == "partitionable+weak":
        config = ClusterConfig(seed=seed)
        factory = lambda pid: Obj(AlwaysFullModeFunction())
    elif kind == "partitionable+quorum":
        config = ClusterConfig(seed=seed)
        factory = lambda pid: Obj(StaticMajorityModeFunction(range(N_SITES)))
    else:  # isis: primary-aware apps block outside the primary
        config = ClusterConfig(seed=seed, stack=isis_stack_config())
        factory = lambda pid: Obj(DynamicPrimaryModeFunction(range(N_SITES)))
    cluster = Cluster(N_SITES, app_factory=factory, config=config)
    drive(cluster, seed)
    histogram: dict[int, int] = {}
    ops = 0
    for view_id in cluster.recorder.installed_views():
        truth = ground_truth(cluster.recorder, view_id)
        clusters = len(truth.clusters)
        histogram[clusters] = histogram.get(clusters, 0) + 1
    ops = sum(app.ops_applied for app in cluster.apps.values())
    return {"histogram": histogram, "ops": ops}


def run_experiment() -> dict[str, Any]:
    results: dict[str, Any] = {}
    for kind in ("partitionable+weak", "partitionable+quorum", "isis+quorum"):
        merged: dict[int, int] = {}
        ops = 0
        for seed in SEEDS:
            out = cluster_histogram(kind, seed)
            for clusters, count in out["histogram"].items():
                merged[clusters] = merged.get(clusters, 0) + count
            ops += out["ops"]
        results[kind] = {"histogram": merged, "ops": ops}
    return results


def test_e7_primary_partition_excludes_merging(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table(
        "E7 / S_N cluster count at installed views "
        f"({N_SITES} sites, {len(list(SEEDS))} partition/heal cycles)",
        ["configuration", "0 clusters", "1 cluster", ">=2 clusters", "ops applied"],
    )
    for kind, data in results.items():
        h = data["histogram"]
        multi = sum(v for k, v in h.items() if k >= 2)
        table.add(kind, h.get(0, 0), h.get(1, 0), multi, data["ops"])
    table.show()

    weak = results["partitionable+weak"]["histogram"]
    quorum = results["partitionable+quorum"]["histogram"]
    isis = results["isis+quorum"]["histogram"]

    # Weak-consistency partitionable apps DO hit state merging.
    assert sum(v for k, v in weak.items() if k >= 2) > 0
    # Quorum exclusivity keeps S_N to at most one cluster...
    assert sum(v for k, v in quorum.items() if k >= 2) == 0
    # ...and the primary-partition baseline can never produce one either.
    assert sum(v for k, v in isis.items() if k >= 2) == 0
    # The price of the primary partition (Section 5): strictly less
    # progress than the weak-consistency configuration.
    assert results["isis+quorum"]["ops"] < results["partitionable+weak"]["ops"]
