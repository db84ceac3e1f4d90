"""Opt-in long soak tests.

These are heavier-than-CI confidence runs: enable with
``REPRO_SOAK=1 pytest tests/test_soak.py``.  The default test run keeps
a single representative slice so the file is never silently dead.
"""

from __future__ import annotations

import os

import pytest

from repro.apps.replicated_file import ReplicatedFile
from repro.ports import make_cluster
from repro.trace.checks import all_ok, check_enriched_views, check_view_synchrony
from repro.workload import run_checked_workload
from repro.workload.generator import RandomFaultGenerator

SOAK = os.environ.get("REPRO_SOAK") == "1"
SEEDS = range(40) if SOAK else [17]
SITES = (5, 7) if SOAK else (5,)


@pytest.mark.parametrize("n_sites", SITES)
@pytest.mark.parametrize("seed", SEEDS)
def test_soak_bare_stack(n_sites, seed):
    gen = RandomFaultGenerator(n_sites=n_sites, seed=seed, duration=350)
    cluster = make_cluster("sim", n_sites, seed=seed)
    run = run_checked_workload(
        cluster, gen.generate(), tail=gen.settle_tail, settle_timeout=900
    )
    assert all_ok(run.reports), [
        (r.name, r.violations[:2]) for r in run.reports if not r.ok
    ]
    assert run.settled, cluster.views()


@pytest.mark.parametrize("seed", SEEDS)
def test_soak_file_object(seed):
    votes = {s: 1 for s in range(5)}
    gen = RandomFaultGenerator(n_sites=5, seed=seed + 1000, duration=300)
    cluster = make_cluster("sim", 5, lambda pid: ReplicatedFile(votes), seed=seed)
    run_checked_workload(
        cluster, gen.generate(), tail=gen.settle_tail + 250, settle_timeout=900
    )
    cluster.run_for(200)
    cluster.settle(timeout=600)
    reports = check_view_synchrony(cluster.recorder)
    reports += check_enriched_views(cluster.recorder)
    assert all_ok(reports)
    live = [cluster.apps[s] for s in cluster.apps if cluster.stacks[s].alive]
    listings = [app.listing() for app in live]
    assert all(listing == listings[0] for listing in listings)
