"""Tests for the heartbeat failure detector (through whole clusters)."""

from __future__ import annotations

from repro.fd.heartbeat import Heartbeat
from repro.net.latency import SpikeLatency
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.types import ProcessId, ViewId
from repro.vsync.stack import StackConfig

from tests.conftest import settled_cluster


def test_all_sites_mutually_reachable_after_settle():
    cluster = settled_cluster(3)
    for stack in cluster.live_stacks():
        assert stack.fd.reachable() == cluster.live_pids()


def test_crash_is_eventually_suspected():
    cluster = settled_cluster(3)
    victim = cluster.stack_at(2).pid
    cluster.crash(2)
    cluster.run_for(60.0)
    for stack in cluster.live_stacks():
        assert victim not in stack.fd.reachable()


def test_partition_makes_far_side_unreachable():
    cluster = settled_cluster(4)
    cluster.partition([[0, 1], [2, 3]])
    cluster.run_for(60.0)
    near = cluster.stack_at(0).fd.reachable()
    assert {p.site for p in near} == {0, 1}


def test_recovery_replaces_incarnation_in_estimates():
    cluster = settled_cluster(3)
    cluster.crash(1)
    cluster.run_for(60.0)
    fresh = cluster.recover(1)
    cluster.run_for(60.0)
    reachable = cluster.stack_at(0).fd.reachable()
    assert fresh.pid in reachable
    assert all(p.incarnation == 0 for p in reachable if p.site != 1)


def test_reachability_always_includes_self():
    cluster = settled_cluster(2)
    cluster.isolate(0)
    cluster.run_for(100.0)
    stack = cluster.stack_at(0)
    assert stack.pid in stack.fd.reachable()
    assert stack.fd.reachable() == frozenset({stack.pid})


def test_force_down_expires_site_immediately():
    cluster = settled_cluster(3)
    stack = cluster.stack_at(0)
    other = cluster.stack_at(2).pid
    assert other in stack.fd.reachable()
    stack.fd.force_down(2)
    assert other not in stack.fd.reachable()


def test_false_suspicion_under_latency_spikes_heals_itself():
    """Long delay spikes cause suspicions with no crash; the membership
    reacts with view changes, but once the network calms the group must
    converge back to one full view (the Section 2 asynchrony story)."""
    config = ClusterConfig(
        seed=3,
        latency=SpikeLatency(base=1.0, spike=40.0, spike_prob=0.02),
        stack=StackConfig(fd_timeout=12.0),
    )
    cluster = Cluster(3, config=config)
    cluster.run_for(800.0)
    cluster.config.latency = None  # calm: swap in the default constant
    cluster.network.latency = __import__(
        "repro.net.latency", fromlist=["ConstantLatency"]
    ).ConstantLatency(1.0)
    assert cluster.settle(timeout=800.0), cluster.views()


def test_view_disagreement_detected():
    cluster = settled_cluster(3)
    stack = cluster.stack_at(0)
    cluster.run_for(30.0)  # let post-install heartbeats refresh
    assert not stack.fd.view_disagreement(
        since=stack.membership.last_install_time
    )


def test_heard_views_bounded_by_sites_across_recoveries():
    """Fifty crash/recover cycles of one site: the heard-view table
    holds one entry per site, not one per incarnation ever heard."""
    n = 4
    cluster = settled_cluster(n)
    for _ in range(50):
        cluster.crash(1)
        cluster.run_for(30.0)
        cluster.recover(1)
        cluster.run_for(30.0)
    assert cluster.settle()
    latest = cluster.stack_at(1).pid
    assert latest.incarnation == 50
    for stack in cluster.live_stacks():
        assert len(stack.fd._heard_views) <= n
        if stack.pid != latest:
            assert stack.fd.heard_view(latest) == stack.current_view_id()
            assert stack.fd.heard_view(ProcessId(1, 49)) is None


def test_stale_incarnation_beacon_leaves_no_view_behind():
    cluster = settled_cluster(3)
    old = cluster.stack_at(1).pid
    cluster.crash(1)
    cluster.run_for(60.0)
    fresh = cluster.recover(1).pid
    assert cluster.settle()
    stack = cluster.stack_at(0)
    current = stack.fd.heard_view(fresh)
    stack.fd.on_heartbeat(old, Heartbeat(old, ViewId(99, old)))
    assert stack.fd.heard_view(old) is None
    assert stack.fd.heard_view(fresh) == current
    assert fresh in stack.fd.reachable() and old not in stack.fd.reachable()
