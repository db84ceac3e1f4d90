"""Tests for the cluster harness itself: lifecycle guards, joins,
recoveries, total-failure durability of every example application."""

from __future__ import annotations

import pytest

from repro.apps.lock_manager import MajorityLockManager
from repro.apps.replicated_db import ParallelLookupDatabase
from repro.errors import SimulationError
from repro.runtime.cluster import Cluster, ClusterConfig

from tests.conftest import settled_cluster


def test_start_running_site_rejected():
    cluster = settled_cluster(2)
    with pytest.raises(SimulationError):
        cluster.start_site(0)


def test_recover_live_site_rejected():
    cluster = settled_cluster(2)
    with pytest.raises(SimulationError):
        cluster.recover(1)


def test_stack_at_unknown_site_rejected():
    cluster = settled_cluster(2)
    with pytest.raises(SimulationError):
        cluster.stack_at(99)


def test_zero_site_cluster_rejected():
    with pytest.raises(SimulationError):
        Cluster(0)


def test_crash_is_idempotent_on_cluster():
    cluster = settled_cluster(2)
    cluster.crash(1)
    cluster.crash(1)  # second crash is a no-op
    assert not cluster.stacks[1].alive


def test_views_helper_excludes_dead_sites():
    cluster = settled_cluster(3)
    cluster.crash(2)
    views = cluster.views()
    assert 2 not in views
    assert set(views) == {0, 1}


def test_live_pids_tracks_incarnations():
    cluster = settled_cluster(2)
    cluster.crash(0)
    cluster.settle(timeout=400)
    fresh = cluster.recover(0)
    assert fresh.pid in cluster.live_pids()
    assert len(cluster.live_pids()) == 2


def test_join_extends_universe_and_heartbeats_reach_it():
    cluster = settled_cluster(2)
    cluster.join(5)  # non-contiguous site number
    assert cluster.settle(timeout=500)
    assert {p.site for p in cluster.stack_at(0).view.members} == {0, 1, 5}


def test_db_survives_total_failure():
    cluster = Cluster(
        3,
        app_factory=lambda pid: ParallelLookupDatabase({"all": lambda k, v: True}),
        config=ClusterConfig(seed=4),
    )
    assert cluster.settle(timeout=500)
    cluster.run_for(200)
    cluster.apps[0].insert("durable", 42)
    cluster.run_for(30)
    for site in range(3):
        cluster.crash(site)
    cluster.run_for(60)
    for site in range(3):
        cluster.recover(site)
    assert cluster.settle(timeout=600)
    cluster.run_for(300)
    assert cluster.apps[0].records.get("durable") == 42
    handle = cluster.apps[1].lookup("all")
    cluster.run_for(40)
    assert handle.status == "complete"
    assert ("durable", 42) in handle.results


def test_lock_manager_survives_total_failure():
    cluster = Cluster(
        3,
        app_factory=lambda pid: MajorityLockManager(range(3)),
        config=ClusterConfig(seed=5),
    )
    assert cluster.settle(timeout=500)
    cluster.run_for(200)
    cluster.apps[1].acquire()
    cluster.run_for(30)
    for site in range(3):
        cluster.crash(site)
    cluster.run_for(60)
    for site in range(3):
        cluster.recover(site)
    assert cluster.settle(timeout=600)
    cluster.run_for(300)
    # The old holder's incarnation is gone; the lock must be free (the
    # holder was not in the new view) and grantable again.
    assert all(cluster.apps[s].holder is None for s in range(3))
    handle = cluster.apps[2].acquire()
    cluster.run_for(30)
    assert handle.status == "granted"
