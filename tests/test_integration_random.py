"""Randomized end-to-end integration: the six paper properties must hold
on every seeded adversarial run, for both the bare stack and a real
group object, and the system must converge once faults stop."""

from __future__ import annotations

import pytest

from repro.apps.replicated_file import ReplicatedFile
from repro.core.modes import Mode
from repro.ports import make_cluster
from repro.workload import run_checked_workload
from repro.workload.generator import RandomFaultGenerator

from tests.conftest import assert_all_properties

SEEDS = [0, 1, 2, 3, 5, 7, 9, 13]


@pytest.mark.parametrize("seed", SEEDS)
def test_bare_stack_properties_under_random_faults(seed):
    gen = RandomFaultGenerator(n_sites=5, seed=seed, duration=350)
    cluster = make_cluster("sim", 5, seed=seed)
    run = run_checked_workload(cluster, gen.generate(), tail=gen.settle_tail)
    assert run.ok, (cluster.views(), run.violations[:5])


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_file_object_properties_and_convergence_under_random_faults(seed):
    gen = RandomFaultGenerator(n_sites=5, seed=seed, duration=300)
    votes = {s: 1 for s in range(5)}
    cluster = make_cluster("sim", 5, lambda pid: ReplicatedFile(votes), seed=seed)
    run_checked_workload(cluster, gen.generate(), tail=gen.settle_tail + 200)
    cluster.run_for(250)
    assert cluster.is_settled(), cluster.views()
    assert_all_properties(cluster.recorder)
    # Once settled, everyone is NORMAL with identical contents.
    listings = [cluster.apps[s].listing() for s in cluster.apps
                if cluster.stacks[s].alive]
    modes = [app.mode for s, app in cluster.apps.items()
             if cluster.stacks[s].alive]
    assert all(m is Mode.NORMAL for m in modes), modes
    assert all(listing == listings[0] for listing in listings)


@pytest.mark.parametrize("seed", [1, 4])
def test_properties_hold_with_message_loss_and_jitter(seed):
    from repro.net.latency import UniformLatency

    gen = RandomFaultGenerator(n_sites=4, seed=seed, duration=250)
    cluster = make_cluster(
        "sim", 4, seed=seed, loss_prob=0.03, latency=UniformLatency(0.5, 3.0)
    )
    run = run_checked_workload(
        cluster, gen.generate(), tail=gen.settle_tail + 300, settle_timeout=900
    )
    assert not run.violations, run.violations[:5]
