"""E4 — Figure 3 and Properties 6.1/6.2: e-view changes within a view.

Figure 3 shows two e-view changes inside one view: an SV-SetMerge of
three sv-sets followed by a SubviewMerge of two of the subviews.  This
experiment replays that sequence and prints the three structures, then
stresses the ordering properties with concurrent merge-request storms
from every member: all members must apply the identical totally
ordered sequence of changes (6.1), and no multicast may overtake an
e-view change (6.2).
"""

from __future__ import annotations

from typing import Any

from repro.runtime.cluster import Cluster, ClusterConfig
from repro.trace.checks import run_check
from repro.trace.events import EViewChangeEvent
from repro.workload import Table


def figure3_replay() -> list[tuple[str, str]]:
    """Three processes, three sv-sets -> one; then two subviews -> one."""
    stages = []
    cluster = Cluster(3, config=ClusterConfig(seed=0))
    assert cluster.settle(timeout=500)
    lead = cluster.stack_at(0)

    def snap(label):
        eview = lead.eview
        svs = " ".join(
            "{" + ",".join(str(p) for p in sorted(sv.members)) + "}"
            for sv in sorted(eview.structure.subviews, key=lambda s: min(s.members))
        )
        stages.append(
            (label, f"seq={eview.seq} svsets={len(eview.structure.svsets)} subviews: {svs}")
        )

    snap("view v (three singleton sv-sets)")
    lead.sv_set_merge([ss.ssid for ss in lead.eview.structure.svsets])
    cluster.run_for(15)
    snap("after SV-SetMerge")
    structure = lead.eview.structure
    sids = sorted((sv.sid for sv in structure.subviews), key=str)[:2]
    lead.subview_merge(sids)
    cluster.run_for(15)
    snap("after SubviewMerge")
    return stages


def merge_storm(seed: int) -> dict[str, Any]:
    """Every member fires merge requests concurrently; measure order."""
    cluster = Cluster(6, config=ClusterConfig(seed=seed))
    assert cluster.settle(timeout=500)
    # Round 1: everyone asks to merge a different pair of sv-sets.
    for round_no in range(3):
        for site in range(6):
            stack = cluster.stack_at(site)
            structure = stack.eview.structure
            ssids = sorted((ss.ssid for ss in structure.svsets), key=str)
            if len(ssids) >= 2:
                pick = [ssids[site % len(ssids)], ssids[(site + 1) % len(ssids)]]
                if pick[0] != pick[1]:
                    stack.sv_set_merge(pick)
            # Interleave multicasts so deliveries race the e-view
            # changes and the 6.2 gate actually gets exercised.
            stack.multicast(("storm", round_no, site))
        cluster.run_for(25)
    # Then merge subviews inside the (by now single) sv-set.
    lead = cluster.stack_at(0)
    structure = lead.eview.structure
    if len(structure.svsets) == 1 and len(structure.subviews) >= 2:
        lead.subview_merge([sv.sid for sv in structure.subviews])
        cluster.run_for(25)
    total = run_check("TotalOrder(6.1)", cluster.recorder)
    causal = run_check("CausalOrder(6.2)", cluster.recorder)
    cuts = run_check("CutConsistency(6.2)", cluster.recorder)
    applied = max(
        (e.eview_seq for e in cluster.recorder.of_type(EViewChangeEvent)),
        default=0,
    )
    return {
        "changes": applied,
        "total_checked": total.checked,
        "total_violations": len(total.violations),
        "causal_checked": causal.checked,
        "causal_violations": len(causal.violations) + len(cuts.violations),
        "cut_checked": cuts.checked,
    }


def run_experiment() -> dict[str, Any]:
    storms = [merge_storm(seed) for seed in range(6)]
    return {"stages": figure3_replay(), "storms": storms}


def test_e4_eview_change_ordering(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table("E4 / Figure 3 — scripted replay", ["stage", "structure at p0"])
    for label, description in result["stages"]:
        table.add(label, description)
    table.show()

    table2 = Table(
        "E4 / Properties 6.1 (Total Order) & 6.2 (Causal Order) under merge storms",
        ["seed", "max e-view seq", "6.1 checked", "6.1 viol", "6.2 checked", "6.2 viol"],
    )
    for seed, storm in enumerate(result["storms"]):
        table2.add(
            seed,
            storm["changes"],
            storm["total_checked"],
            storm["total_violations"],
            storm["causal_checked"],
            storm["causal_violations"],
        )
    table2.show()

    # Figure 3 shape: seq 0 -> 1 (sv-sets merged) -> 2 (two subviews merged).
    assert "seq=1" in result["stages"][1][1]
    assert "seq=2" in result["stages"][2][1]
    assert "{p0.0,p1.0}" in result["stages"][2][1].replace(" ", "")
    for storm in result["storms"]:
        assert storm["total_violations"] == 0
        assert storm["causal_violations"] == 0
        assert storm["changes"] >= 2  # the storm really sequenced merges
        assert storm["causal_checked"] > 50  # deliveries raced the changes
        assert storm["cut_checked"] >= storm["changes"]  # HB cuts verified
