"""E3 — Figure 2: views, subviews and sv-sets across view changes.

Figure 2 shows a view whose subview/sv-set structure survives a
partition and a merger.  This experiment (a) replays that exact
scenario on six sites and prints the structures the way the figure
draws them, and (b) measures, across random runs, the fraction of
view transitions that preserve co-subview and co-sv-set relations
(Property 6.3) — the reproduction target is 1.0.
"""

from __future__ import annotations

from typing import Any

from repro.ports import make_cluster
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.trace.checks import run_check
from repro.workload import Table, run_checked_workload
from repro.workload.generator import RandomFaultGenerator

SEEDS = range(8)


def figure2_replay() -> list[tuple[str, str]]:
    """Six sites; the application groups {0,1},{2,3} into subviews of
    one sv-set and leaves {4,5} alone; then the net splits and heals."""
    stages: list[tuple[str, str]] = []
    cluster = Cluster(6, config=ClusterConfig(seed=0))
    assert cluster.settle(timeout=500)
    lead = cluster.stack_at(0)

    def snap(label: str) -> None:
        eview = lead.eview
        svs = " ".join(
            "{" + ",".join(str(p) for p in sorted(sv.members)) + "}"
            for sv in sorted(eview.structure.subviews, key=lambda s: min(s.members))
        )
        stages.append((label, f"seq={eview.seq} subviews: {svs}"))

    snap("initial view (all singletons)")
    structure = lead.eview.structure
    lead.sv_set_merge([structure.svset_of(p).ssid for p in sorted(lead.eview.members)][:4])
    cluster.run_for(15)
    structure = lead.eview.structure
    sids = [structure.subview_of(p).sid for p in sorted(lead.eview.members)]
    lead.subview_merge(sids[:2])
    cluster.run_for(15)
    lead.subview_merge([structure.subview_of(p).sid for p in sorted(lead.eview.members)][2:4])
    cluster.run_for(15)
    snap("after application merges")
    cluster.partition([[0, 1, 2, 3], [4, 5]])
    assert cluster.settle(timeout=500)
    snap("after partition {0,1,2,3} | {4,5}")
    cluster.heal()
    assert cluster.settle(timeout=500)
    snap("after repair (merged view)")
    report = run_check("Structure(6.3)", cluster.recorder)
    assert report.ok, report.violations[:5]
    return stages


def preservation_rate() -> dict[str, Any]:
    checked = violations = 0
    for seed in SEEDS:
        gen = RandomFaultGenerator(n_sites=5, seed=seed, duration=300)
        run = run_checked_workload(
            make_cluster("sim", 5, seed=seed), gen.generate(), tail=gen.settle_tail
        )
        report = run_check("Structure(6.3)", run.trace)
        checked += report.checked
        violations += len(report.violations)
    return {"checked": checked, "violations": violations}


def run_experiment() -> dict[str, Any]:
    return {"stages": figure2_replay(), "rate": preservation_rate()}


def test_e3_structure_preservation(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table("E3 / Figure 2 — scripted replay", ["stage", "structure at p0"])
    for label, description in result["stages"]:
        table.add(label, description)
    table.show()

    rate = result["rate"]
    preserved = 1.0 - (rate["violations"] / rate["checked"] if rate["checked"] else 0)
    table2 = Table(
        "E3 / Property 6.3 across random runs",
        ["transitions checked", "violations", "preservation rate"],
    )
    table2.add(rate["checked"], rate["violations"], preserved)
    table2.show()

    # The merged view must preserve the application's groupings intact
    # across the partition/repair, exactly as Figure 2 draws it: the
    # merged subviews {0,1} and {2,3} survive, the never-merged 4 and 5
    # stay singletons.
    final_stage = result["stages"][-1][1].replace(" ", "")
    for group in ("{p0.0,p1.0}", "{p2.0,p3.0}", "{p4.0}", "{p5.0}"):
        assert group in final_stage, final_stage
    assert rate["violations"] == 0
    assert rate["checked"] > 50