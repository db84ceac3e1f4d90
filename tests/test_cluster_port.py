"""ClusterPort: one harness surface over both runtimes.

These tests exercise the runtime-agnostic side of the port on the
deterministic simulator: construction through :func:`make_cluster`,
structural conformance, the scenario-unit time surface
(``time_scale`` / ``after`` / ``arm``), schedule scaling, and the
checked-workload harness that the CLI and the realnet smoke tests
share.  The realnet implementation of the same surface is covered in
``tests/realnet/`` (wall-clock lane).
"""

from __future__ import annotations

import contextlib

import pytest

from repro.errors import SimulationError
from repro.net.faults import Crash, FaultSchedule, Heal, Partition, Recover
from repro.ports import RUNTIMES, ClusterPort, make_cluster
from repro.workload.clients import MulticastClient, QueryClient
from repro.workload.runner import run_checked_workload
from repro.workload.scenarios import figure2_scenario
from tests.scenario_checks import assert_partition_merge


def make_sim(n_sites: int = 3, **kwargs) -> ClusterPort:
    return make_cluster("sim", n_sites, **kwargs)


# ---------------------------------------------------------------------------
# Construction and conformance
# ---------------------------------------------------------------------------


def test_sim_cluster_satisfies_the_port_protocol():
    cluster = make_sim()
    assert isinstance(cluster, ClusterPort)
    assert cluster.time_scale == 1.0


def test_make_cluster_rejects_unknown_runtime():
    with pytest.raises(ValueError, match="unknown runtime"):
        make_cluster("carrier-pigeon", 3)
    assert set(RUNTIMES) == {"sim", "realnet", "realnet-proc"}


def test_make_cluster_forwards_seed_and_knobs():
    cluster = make_cluster("sim", 3, seed=42, loss_prob=0.01)
    assert cluster.config.seed == 42
    assert cluster.config.loss_prob == 0.01


def test_port_is_closeable_and_context_managerless():
    # close() must be callable (and idempotent) on every backend, so
    # harness code can always `contextlib.closing` a port.
    with contextlib.closing(make_sim()) as cluster:
        assert cluster.settle()
    cluster.close()  # second close is a no-op


# ---------------------------------------------------------------------------
# Time surface: after / arm / wait_until
# ---------------------------------------------------------------------------


def test_after_fires_on_the_backend_clock():
    cluster = make_sim()
    fired: list[float] = []
    cluster.after(25.0, lambda: fired.append(cluster.now))
    cluster.run_for(30.0)
    assert fired == [25.0]


def test_after_event_is_cancellable():
    cluster = make_sim()
    fired: list[float] = []
    event = cluster.after(25.0, lambda: fired.append(cluster.now))
    event.cancel()
    cluster.run_for(30.0)
    assert fired == []


def test_wait_until_waits_on_a_cluster_predicate():
    cluster = make_sim(3)
    assert cluster.wait_until(lambda c: c.is_settled(), timeout=300.0)
    assert not cluster.wait_until(lambda c: False, timeout=20.0, poll=5.0)


def test_arm_is_relative_to_now():
    cluster = make_sim(3)
    cluster.settle()
    start = cluster.now
    schedule = FaultSchedule()
    schedule.add(Crash(50.0, 2))
    cluster.arm(schedule)
    cluster.run_for(40.0)
    assert cluster.stack_at(2).alive  # not yet: 50 units after *arm*
    cluster.run_for(20.0)
    assert not cluster.stack_at(2).alive
    assert cluster.now == start + 60.0


def test_app_at_raises_for_never_started_site():
    cluster = make_sim(3)
    assert cluster.app_at(0) is not None  # default no-op application
    with pytest.raises(SimulationError):
        cluster.app_at(99)


# ---------------------------------------------------------------------------
# FaultSchedule scaling
# ---------------------------------------------------------------------------


def test_schedule_scaled_and_shifted_rewrite_action_times():
    schedule = FaultSchedule()
    schedule.add(Crash(100.0, 1))
    schedule.add(Recover(200.0, 1))
    scaled = schedule.scaled(0.01).shifted(5.0)
    assert [a.time for a in scaled.actions] == [6.0, 7.0]
    assert [a.time for a in schedule.actions] == [100.0, 200.0]  # untouched
    assert scaled.horizon == 7.0


def test_schedule_identity_scaling_returns_self():
    schedule = FaultSchedule()
    schedule.add(Crash(100.0, 1))
    assert schedule.scaled(1.0) is schedule
    assert schedule.shifted(0.0) is schedule


# ---------------------------------------------------------------------------
# The checked-workload harness
# ---------------------------------------------------------------------------


def test_run_checked_workload_on_sim_figure2():
    def db_factory(pid):
        from repro.apps.replicated_db import ParallelLookupDatabase

        return ParallelLookupDatabase({"all": lambda k, v: True})

    cluster = make_cluster("sim", 6, app_factory=db_factory, seed=11)
    report = run_checked_workload(
        cluster,
        figure2_scenario(),
        client_factories=[
            lambda c: MulticastClient(c, interval=20.0),
            lambda c: QueryClient(c, interval=30.0),
        ],
    )
    assert report.settled and report.ok
    assert report.violations == []
    assert report.events_checked > 0
    assert report.schedule_actions == 2
    assert len(report.clients) == 2
    assert all(c.stats.succeeded > 0 for c in report.clients)
    assert len(report.trace) > 0
    assert report.check_wall_s >= 0.0


def test_run_checked_workload_stops_clients():
    cluster = make_sim(3)
    report = run_checked_workload(
        cluster, client_factories=[lambda c: MulticastClient(c, interval=10.0)]
    )
    (client,) = report.clients
    before = client.stats.attempted
    cluster.run_for(100.0)
    assert client.stats.attempted == before  # no ticks after stop


def test_run_checked_workload_without_schedule_still_checks():
    report = run_checked_workload(make_sim(3), tail=100.0)
    assert report.settled
    assert report.schedule_actions == 0
    assert report.reports  # the property checkers still ran
    assert report.ok


def test_run_checked_workload_accounts_time_in_scenario_units():
    cluster = make_sim(3)
    schedule = FaultSchedule()
    schedule.add(Partition(100.0, ((0, 1), (2,))))
    schedule.add(Heal(150.0))
    report = run_checked_workload(cluster, schedule, tail=75.0)
    assert report.horizon == 225.0  # schedule horizon + tail
    assert report.runtime_now == cluster.now
    # run phase covers horizon+tail; settle may add polls beyond it.
    assert cluster.now >= 225.0


# ---------------------------------------------------------------------------
# The partition/merge scenario behind `repro demo`
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_sites", [3, 5])
def test_partition_merge_scenario_on_sim(n_sites):
    assert_partition_merge("sim", n_sites, seed=4)
