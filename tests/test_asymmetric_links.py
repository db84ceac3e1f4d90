"""Asymmetric (one-way) link failures.

The paper's asynchronous model attributes unreachability to crashes,
slowness, or "the communication path may have been disconnected"
(Section 1) — and real paths fail asymmetrically.  Safety (the six
properties) must survive one-way cuts; liveness/convergence is only
required again once symmetry is restored.
"""

from __future__ import annotations

from repro.runtime.cluster import Cluster, ClusterConfig

from tests.conftest import assert_all_properties, settled_cluster


def test_oneway_cut_drops_only_one_direction():
    cluster = settled_cluster(2)
    cluster.topology.cut_oneway(0, 1)
    a, b = cluster.stack_at(0), cluster.stack_at(1)
    got = []
    a.app.on_direct = lambda src, p: got.append(("a", p))
    b.app.on_direct = lambda src, p: got.append(("b", p))
    a.send_direct(b.pid, "a->b")  # cut: lost
    b.send_direct(a.pid, "b->a")  # open: arrives
    cluster.run_for(10)
    assert got == [("a", "b->a")]


def test_heal_oneway_restores_direction():
    cluster = settled_cluster(2)
    cluster.topology.cut_oneway(0, 1)
    cluster.topology.heal_oneway(0, 1)
    got = []
    cluster.stack_at(1).app.on_direct = lambda src, p: got.append(p)
    cluster.stack_at(0).send_direct(cluster.stack_at(1).pid, "again")
    cluster.run_for(10)
    assert got == ["again"]


def test_global_heal_clears_oneway_cuts():
    cluster = settled_cluster(3)
    cluster.topology.cut_oneway(0, 1)
    cluster.heal()
    assert cluster.topology.allows(0, 1)


def test_safety_holds_under_asymmetric_failure():
    """A one-way cut between two members: the failure detectors see it
    asymmetrically (one side suspects, the other does not).  Whatever
    views result, the six properties must hold."""
    cluster = settled_cluster(4, seed=2)
    for i in range(5):
        cluster.stack_at(i % 4).multicast(("pre", i))
    cluster.run_for(10)
    cluster.topology.cut_oneway(3, 0)  # p3's messages to p0 vanish
    cluster.run_for(200)
    for i in range(5):
        stack = cluster.stack_at(i % 4)
        if stack.alive and not stack.is_flushing:
            stack.multicast(("mid", i))
    cluster.run_for(200)
    # Repair the asymmetry; the group must re-converge fully.
    cluster.topology.heal_oneway(3, 0)
    assert cluster.settle(timeout=900), cluster.views()
    assert_all_properties(cluster.recorder)


def test_convergence_after_asymmetric_churn():
    cluster = Cluster(5, config=ClusterConfig(seed=7))
    assert cluster.settle(timeout=500)
    cluster.topology.cut_oneway(1, 2)
    cluster.topology.cut_oneway(4, 0)
    cluster.run_for(300)
    cluster.heal()
    assert cluster.settle(timeout=900), cluster.views()
    assert_all_properties(cluster.recorder)


def test_oneway_fault_actions_in_schedules():
    from repro.net.faults import FaultSchedule, OneWayCut, OneWayHeal

    cluster = settled_cluster(3)
    schedule = FaultSchedule()
    schedule.add(OneWayCut(20.0, 1, 2))
    schedule.add(OneWayHeal(120.0, 1, 2))
    cluster.arm(schedule)
    cluster.run_for(60)
    assert not cluster.topology.allows(1, 2)
    assert cluster.topology.allows(2, 1)
    cluster.run_for(120)
    assert cluster.topology.allows(1, 2)
    assert cluster.settle(timeout=600)
    assert_all_properties(cluster.recorder)


def test_random_schedules_with_oneway_cuts_stay_safe():
    from repro.ports import make_cluster
    from repro.workload import run_checked_workload
    from repro.workload.generator import RandomFaultGenerator

    for seed in range(4):
        gen = RandomFaultGenerator(
            n_sites=4,
            seed=seed,
            duration=300,
            weights={
                "crash": 0.5, "recover": 1.0,
                "partition": 0.7, "heal": 1.2, "oneway": 1.0,
            },
        )
        cluster = make_cluster("sim", 4, seed=seed)
        run = run_checked_workload(
            cluster, gen.generate(), tail=gen.settle_tail + 200, settle_timeout=900
        )
        assert run.ok, (seed, cluster.views(), run.violations[:5])
