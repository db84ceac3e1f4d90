"""E9 — Section 6.2: internal operations run undisturbed across view
changes under enriched views.

    "while an operation is being executed, the set of processes
    participating in it may only shrink — a new view may be delivered
    by view synchrony at arbitrary times but the composition of
    subviews and sv-sets may grow only at the will of the application.
    Therefore, algorithms can be easily designed to run undisturbed
    across view changes."

A flat-view application cannot tell whether a view change affected the
participants of its running reconciliation, so the only safe policy is
to abort and restart.  The enriched-view engine continues whenever the
processes it still waits on survive.  We drive both policies through
identical join-heavy churn (joins arrive while settlements run) and
count session restarts, continuations and total settlement work.
"""

from __future__ import annotations

from typing import Any

from repro.core.group_object import GroupObject
from repro.core.mode_functions import AlwaysFullModeFunction
from repro.core.modes import Mode
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.workload import Table

SEEDS = range(6)
INITIAL_SITES = 4
JOIN_WAVES = 3


class Obj(GroupObject):
    def __init__(self, continuation: bool):
        super().__init__(AlwaysFullModeFunction(), enriched_continuation=continuation)
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


def churn_run(continuation: bool, seed: int) -> dict[str, Any]:
    cluster = Cluster(
        INITIAL_SITES,
        app_factory=lambda pid: Obj(continuation),
        config=ClusterConfig(seed=seed),
    )
    assert cluster.settle(timeout=500)
    cluster.run_for(120)
    next_site = INITIAL_SITES
    for wave in range(JOIN_WAVES):
        # Provoke a settlement (a partition/heal) and, while it runs,
        # drop a brand-new member into the group.
        cluster.partition([[0, 1], list(range(2, next_site))])
        assert cluster.settle(timeout=600)
        cluster.run_for(120)
        cluster.heal()
        cluster.run_for(10 + (seed % 4))  # settlement is now in flight
        cluster.join(next_site)
        next_site += 1
        assert cluster.settle(timeout=800), cluster.views()
        cluster.run_for(250)
    restarted = continued = completed = 0
    for app in cluster.apps.values():
        stats = app.settlement.stats
        restarted += stats.sessions_restarted
        continued += stats.sessions_continued
        completed += stats.sessions_completed
    all_normal = all(
        app.mode is Mode.NORMAL
        for site, app in cluster.apps.items()
        if cluster.stacks[site].alive
    )
    return {
        "restarted": restarted,
        "continued": continued,
        "completed": completed,
        "all_normal": all_normal,
    }


def run_experiment() -> dict[str, Any]:
    out: dict[str, Any] = {}
    for label, continuation in (("enriched", True), ("flat", False)):
        totals = {"restarted": 0, "continued": 0, "completed": 0, "normal": 0}
        for seed in SEEDS:
            result = churn_run(continuation, seed)
            totals["restarted"] += result["restarted"]
            totals["continued"] += result["continued"]
            totals["completed"] += result["completed"]
            totals["normal"] += int(result["all_normal"])
        out[label] = totals
    return out


def test_e9_undisturbed_internal_operations(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table(
        "E9 / Section 6.2 — reconciliation sessions under join churn "
        f"({len(list(SEEDS))} seeds, {JOIN_WAVES} join waves each)",
        [
            "policy",
            "sessions restarted",
            "sessions continued",
            "sessions completed",
            "runs fully reconciled",
        ],
    )
    for label, totals in results.items():
        table.add(
            label,
            totals["restarted"],
            totals["continued"],
            totals["completed"],
            f"{totals['normal']}/{len(list(SEEDS))}",
        )
    table.show()

    enriched, flat = results["enriched"], results["flat"]
    # Both policies must eventually reconcile every run...
    assert enriched["normal"] == len(list(SEEDS))
    assert flat["normal"] == len(list(SEEDS))
    # ...but the flat policy can never continue a session across a view
    # change, while the enriched policy does, and restarts less.
    assert flat["continued"] == 0
    assert enriched["continued"] > 0
    assert enriched["restarted"] <= flat["restarted"]
