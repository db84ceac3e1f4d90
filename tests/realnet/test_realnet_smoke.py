"""Loopback smoke tests: the unmodified stacks over real TCP sockets.

Everything here binds real localhost sockets and runs on the wall
clock, so these tests live behind the ``realnet`` marker and run in
their own CI lane (``pytest -m realnet tests/realnet``) instead of the
deterministic tier-1 lane.

Every scenario runs under :data:`HARD_TIMEOUT` via ``asyncio.wait_for``
— a wedged cluster fails the test instead of hanging CI.  Typical
wall time per scenario is well under two seconds; the budget is ~30x
that to absorb loaded shared runners.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.faults import FaultSchedule, Heal, Partition
from repro.net.latency import UniformLatency
from repro.realnet.cluster import RealCluster
from repro.runtime.core import ClusterConfig
from repro.trace.checks import check_cluster, check_enriched_views, check_view_synchrony
from tests.scenario_checks import assert_partition_merge

pytestmark = pytest.mark.realnet

#: Hard wall-clock budget per scenario (seconds).
HARD_TIMEOUT = 60.0
#: Budget for each individual settle inside a scenario.
SETTLE = 20.0


def run(coro) -> None:
    asyncio.run(asyncio.wait_for(coro, HARD_TIMEOUT))


def assert_no_violations(cluster: RealCluster) -> None:
    for report in check_cluster(cluster):
        assert report.ok, f"{report.name}: {report.violations[:5]}"


def test_three_node_bootstrap_reaches_common_view():
    async def scenario():
        async with RealCluster(3, config=ClusterConfig(seed=1)) as cluster:
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            views = {s.current_view_id() for s in cluster.live_stacks()}
            assert len(views) == 1
            members = cluster.stack_at(0).view.members
            assert members == cluster.live_pids()
            # Real frames crossed real sockets to get here.
            stats = cluster.network_stats()
            assert stats.delivered > 0
            assert any(n.network.frames_received() > 0 for n in cluster.nodes.values())
            assert_no_violations(cluster)

    run(scenario())


def test_node_kill_triggers_view_change():
    async def scenario():
        async with RealCluster(3, config=ClusterConfig(seed=2)) as cluster:
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            victim = cluster.stack_at(2).pid
            cluster.crash(2)  # kills the stack AND closes its sockets
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            for stack in cluster.live_stacks():
                assert victim not in stack.view.members
                assert stack.view.members == cluster.live_pids()
            assert_no_violations(cluster)

    run(scenario())


def test_busy_site_beacons_no_view_peer_and_its_crash_is_still_seen():
    """Site 1 multicasts every 10 ms for a second.  After its first
    interval its links to its view peers carry no Heartbeat frame (each
    multicast names what a beat would), and crashing it mid-stream still
    gets it excluded within fd_timeout + 2 fd_interval of the crash."""

    async def scenario():
        config = ClusterConfig(seed=6, scale=2.0)
        async with RealCluster(3, config=config) as cluster:
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            busy = cluster.stack_at(1)
            view = busy.current_view_id()
            busy.set_periodic(0.01, lambda: busy.multicast("tick"))
            interval = busy.config.fd_interval
            await asyncio.sleep(1.5 * interval)
            stats = cluster.nodes[1].network.stats
            beats = stats.by_type.get("Heartbeat", 0)
            skipped = busy.fd.beats_skipped
            await asyncio.sleep(1.0)
            assert busy.current_view_id() == view  # no flush meanwhile
            assert stats.by_type.get("Heartbeat", 0) == beats
            assert busy.fd.beats_skipped > skipped
            crashed_at = cluster.now
            cluster.crash(1)
            survivors = [cluster.stack_at(0), cluster.stack_at(2)]
            assert await cluster.wait_until(
                lambda c: all(
                    busy.pid not in s.view.members and not s.is_flushing
                    for s in survivors
                ),
                timeout=SETTLE,
            ), cluster.views()
            took = max(s.membership.last_install_time for s in survivors) - crashed_at
            assert took <= busy.config.fd_timeout + 2 * interval, took
            assert_no_violations(cluster)

    run(scenario())


def test_killed_node_recovers_with_fresh_incarnation():
    async def scenario():
        async with RealCluster(3, config=ClusterConfig(seed=3)) as cluster:
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            cluster.crash(1)
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            await cluster.recover(1)  # fresh incarnation, fresh port
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            fresh = cluster.stack_at(1).pid
            assert fresh.incarnation == 1
            for stack in cluster.live_stacks():
                assert fresh in stack.view.members
            assert_no_violations(cluster)

    run(scenario())


def test_partition_merge_scenario_over_sockets():
    """The acceptance scenario behind `repro demo --runtime realnet`:
    firewall -> two e-views -> SV-SetMerge -> heal -> SV-SetMerge, with
    the assertions the simulator run is held to."""
    assert_partition_merge("realnet", 3, seed=4)


def test_fault_schedule_applies_to_real_sockets():
    """A declarative FaultSchedule armed on the wall-clock scheduler."""

    async def scenario():
        async with RealCluster(3, config=ClusterConfig(seed=5)) as cluster:
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            # Scenario units, relative to now: 0.1 s and 1.2 s at scale 1.
            schedule = FaultSchedule()
            schedule.add(Partition(10.0, ((0, 1), (2,))))
            schedule.add(Heal(120.0))
            cluster.arm(schedule)
            split = await cluster.wait_until(
                lambda c: len({s.current_view_id() for s in c.live_stacks()}) == 2,
                timeout=SETTLE,
            )
            assert split, cluster.views()
            # A converged partition already counts as settled, so wait
            # for the post-heal merge explicitly rather than racing the
            # Heal timer with settle().
            merged = await cluster.wait_until(
                lambda c: c.is_settled()
                and len({s.current_view_id() for s in c.live_stacks()}) == 1,
                timeout=SETTLE,
            )
            assert merged, cluster.views()
            assert_no_violations(cluster)

    run(scenario())


def test_bootstrap_survives_injected_loss_and_latency():
    config = ClusterConfig(
        seed=6,
        loss_prob=0.03,
        latency=UniformLatency(0.0005, 0.004),
        scale=1.5,  # injected latency eats margin; stretch the timers
    )

    async def scenario():
        async with RealCluster(3, config=config) as cluster:
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            stats = cluster.network_stats()
            assert stats.dropped_loss > 0  # the chaos knob really fired
            assert_no_violations(cluster)

    run(scenario())

def test_every_link_connects_and_multicast_delivers():
    """Every link completes its handshake and app multicasts cross the
    wire through the bin1 data path."""

    async def scenario():
        delivered: list = []

        def factory(pid):
            from repro.vsync.events import GroupApplication

            class App(GroupApplication):
                def on_message(self, sender, payload, msg_id):
                    delivered.append((pid.site, payload))

            return App()

        config = ClusterConfig(seed=7)
        async with RealCluster(3, app_factory=factory, config=config) as cluster:
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            cluster.stack_at(0).multicast(("bin-payload", 1, 2.5, (3, 4)))
            arrived = await cluster.wait_until(
                lambda c: len(delivered) == 3, timeout=SETTLE
            )
            assert arrived, delivered
            assert all(p == ("bin-payload", 1, 2.5, (3, 4)) for _, p in delivered)
            wire = cluster.transport_stats()
            links = [
                link for node in cluster.nodes.values() for link in node.network._links.values()
            ]
            assert len(links) == 6 and all(link.connected for link in links)
            assert wire["frames_sent"] > 0
            assert wire["flushes"] > 0
            assert wire["frames_dropped"] == 0
            assert_no_violations(cluster)

    run(scenario())


# ---------------------------------------------------------------------------
# One harness, two runtimes: the blocking ClusterPort driver
# ---------------------------------------------------------------------------


def test_driver_presents_the_port_over_sockets():
    """RealClusterDriver satisfies ClusterPort with the simulator's
    synchronous contracts — including recover() returning the stack."""
    import contextlib

    from repro.ports import ClusterPort, make_cluster

    with contextlib.closing(make_cluster("realnet", 3, seed=9)) as cluster:
        assert isinstance(cluster, ClusterPort)
        assert cluster.time_scale == pytest.approx(0.01)
        assert cluster.settle(timeout=SETTLE), cluster.views()
        cluster.crash(2)
        assert cluster.settle(timeout=SETTLE), cluster.views()
        stack = cluster.recover(2)  # blocks until the fresh node is up
        assert stack.pid.incarnation == 1
        assert cluster.settle(timeout=SETTLE), cluster.views()
        assert stack.pid in cluster.live_pids()
        fired = []
        cluster.after(0.05, lambda: fired.append(cluster.now))
        assert cluster.wait_until(lambda c: fired, timeout=SETTLE)
        merged = cluster.gather_trace()
        assert len(merged) > 0
        reports = check_view_synchrony(merged) + check_enriched_views(merged)
        assert all(r.ok for r in reports), [r for r in reports if not r.ok]


def test_checked_workload_runs_unchanged_over_realnet():
    """The acceptance scenario: the same figure-2 schedule + client mix
    the simulator runs (tests/test_cluster_port.py) drives six real
    TCP nodes through the port, and the merged per-node trace passes
    every view-synchrony check."""
    import contextlib

    from repro.ports import make_cluster
    from repro.workload.clients import MulticastClient, QueryClient
    from repro.workload.runner import run_checked_workload
    from repro.workload.scenarios import figure2_scenario

    def db_factory(pid):
        from repro.apps.replicated_db import ParallelLookupDatabase

        return ParallelLookupDatabase({"all": lambda k, v: True})

    with contextlib.closing(
        make_cluster("realnet", 6, app_factory=db_factory, seed=10)
    ) as cluster:
        report = run_checked_workload(
            cluster,
            figure2_scenario(),
            client_factories=[
                lambda c: MulticastClient(c, interval=20.0),
                lambda c: QueryClient(c, interval=30.0),
            ],
        )
        assert report.settled, cluster.views()
        assert report.violations == [], report.violations[:5]
        assert report.events_checked > 0
        assert all(c.stats.succeeded > 0 for c in report.clients)
        # Real frames carried the workload: the wire counters moved.
        assert cluster.network_stats().delivered > 0


def test_checked_workload_over_realnet_with_gossip_plane():
    """The figure-2 schedule again, with the failure-detection plane
    switched to gossip digests (full fanout at n=6, so the epidemic
    degenerates to all-to-all and the default one-hop ``fd_timeout``
    stays valid): GossipDigest frames cross real sockets through the
    wire codec and the merged trace still passes every check."""
    import contextlib

    from repro.ports import make_cluster
    from repro.workload.clients import MulticastClient
    from repro.workload.runner import run_checked_workload
    from repro.workload.scenarios import figure2_scenario

    with contextlib.closing(
        make_cluster("realnet", 6, seed=10, fd_mode="gossip", gossip_fanout=5)
    ) as cluster:
        report = run_checked_workload(
            cluster,
            figure2_scenario(),
            client_factories=[lambda c: MulticastClient(c, interval=20.0)],
        )
        assert report.settled, cluster.views()
        assert report.violations == [], report.violations[:5]
        assert report.events_checked > 0
        assert cluster.network_stats().delivered > 0


def test_cli_run_realnet_end_to_end(capsys):
    """`python -m repro run --runtime realnet` completes with checks."""
    from repro.cli import main

    assert main(["run", "--runtime", "realnet", "--sites", "3",
                 "--seed", "7", "--duration", "150"]) == 0
    out = capsys.readouterr().out
    assert "runtime=realnet" in out
    assert "wall time (s)" in out
    assert "VIOLATIONS" not in out
