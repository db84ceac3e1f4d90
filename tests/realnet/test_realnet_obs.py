"""Realnet observability smoke: live snapshots over the link protocol.

``repro obs watch`` clients dial a node's *normal* listening socket,
negotiate a codec like any peer, and poll metric snapshots.  These
tests run an in-process :class:`RealCluster` and fetch snapshots over
both wire codecs, then check the checked-workload path emits the same
named metrics the simulator does (the unified-namespace acceptance
criterion).  Real sockets + wall clock, so they live behind the
``realnet`` marker.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.watch import fetch_snapshot, fetch_snapshots, render_watch
from repro.realnet.cluster import RealCluster
from repro.runtime.core import ClusterConfig

pytestmark = pytest.mark.realnet

HARD_TIMEOUT = 60.0
SETTLE = 20.0

#: Metric names both runtimes must emit for the same workload.
UNIFIED_NAMES = {
    "view_changes_total",
    "view_change_duration",
    "eview_changes_total",
    "multicasts_total",
    "deliveries_total",
    "multicast_delivery_latency",
    "mode_residency",
    "mode_transitions_total",
    "net_messages_sent_total",
    "net_messages_delivered_total",
    "fd_heartbeats_skipped_total",
    "store_put_multicasts_total",
}


def run(coro) -> None:
    asyncio.run(asyncio.wait_for(coro, HARD_TIMEOUT))


@pytest.mark.parametrize("codec", ["bin", "json"])
def test_watch_fetches_live_snapshot_over_each_codec(codec):
    async def scenario():
        config = ClusterConfig(seed=11, codec=codec)
        async with RealCluster(3, config=config) as cluster:
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            for stack in cluster.live_stacks():
                stack.multicast(("w", stack.pid.site))
            await asyncio.sleep(0.3)
            host, port = cluster.address_book[0]
            snap = await fetch_snapshot(host, port, codec=codec)
            assert snap.runtime == "realnet"
            assert snap.total("view_changes_total") >= 3
            assert snap.total("multicasts_total") >= 3
            assert snap.total("deliveries_total") >= 9
            # Link batching and backpressure are visible to the watcher.
            assert snap.total("transport_flushes_total") >= 1
            assert snap.total("transport_write_stalls_total") == 0

    run(scenario())


def test_watch_polls_all_nodes_and_renders_console():
    async def scenario():
        async with RealCluster(3, config=ClusterConfig(seed=12)) as cluster:
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            targets = [cluster.address_book[s] for s in sorted(cluster.address_book)]
            snapshots = await fetch_snapshots(targets)
            assert all(s is not None for s in snapshots)
            frame = render_watch(targets, snapshots)
            lines = frame.splitlines()
            assert len(lines) == 1 + len(targets)  # header + one row per node
            assert "unreachable" not in frame
            # Co-located nodes share one registry: no inflated merged row.
            assert "(merged)" not in frame
            down = targets + [("127.0.0.1", 1)]  # an unreachable target
            snapshots = await fetch_snapshots(down)
            assert snapshots[-1] is None
            assert "unreachable" in render_watch(down, snapshots)

    run(scenario())


def test_realnet_fig2_workload_emits_the_unified_metric_names():
    """Acceptance: the figure-2 checked workload emits the same named
    metrics over real sockets as on the simulator."""
    from repro.apps.replicated_db import ParallelLookupDatabase
    from repro.ports import make_cluster
    from repro.workload.clients import MulticastClient, QueryClient
    from repro.workload.runner import run_checked_workload
    from repro.workload.scenarios import figure2_scenario

    def db_factory(pid):
        return ParallelLookupDatabase({"all": lambda k, v: True})

    cluster = make_cluster("realnet", 6, app_factory=db_factory, seed=7)
    try:
        report = run_checked_workload(
            cluster,
            figure2_scenario(),
            client_factories=[
                lambda c: MulticastClient(c, interval=20.0),
                lambda c: QueryClient(c, interval=30.0),
            ],
        )
    finally:
        cluster.close()
    assert report.settled
    assert report.metrics.runtime == "realnet"
    names = set(report.metrics.names())
    missing = (UNIFIED_NAMES | {
        "settlement_sessions_total",
        "settlement_duration",
    }) - names
    assert not missing, f"realnet snapshot missing {sorted(missing)}"


def test_a_standalone_nodes_registry_exports_the_wire_gauges():
    """``repro realnet node`` serves its own registry, with the same
    ``net_*`` and ``transport_*`` rows as the cluster registries."""
    from repro.realnet.node import run_standalone
    from repro.realnet.transport import wait_for_condition

    async def scenario():
        book = {0: ("127.0.0.1", 0)}  # the bound port is written back
        stop = asyncio.Event()
        node = asyncio.get_running_loop().create_task(
            run_standalone(0, book, stop_event=stop)
        )
        try:
            assert await wait_for_condition(lambda: book[0][1] != 0, SETTLE)
            names = set((await fetch_snapshot(*book[0])).names())
            assert {
                "net_messages_sent_total",
                "transport_frames_received_total",
                "transport_bad_frames_total",
            } <= names
        finally:
            stop.set()
            await node

    run(scenario())
