"""Realnet causal tracing: live trace pulls and identical taxonomies.

Acceptance half of the tracing tentpole that needs real sockets: a
traced :class:`RealCluster` serves its flight recorder over the 0x02
obs frame on the normal listening port, the merged dumps
reconstruct the same span taxonomy the simulator produces, and a
traceless node simply never answers the trace request (the poller
yields ``None`` instead of hanging or crashing).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.trace_analysis import build_trees, critical_path
from repro.obs.tracing import TraceDump
from repro.obs.watch import fetch_trace, fetch_traces
from repro.realnet.cluster import RealCluster
from repro.runtime.core import ClusterConfig

pytestmark = pytest.mark.realnet

HARD_TIMEOUT = 60.0
SETTLE = 20.0


def run(coro) -> None:
    asyncio.run(asyncio.wait_for(coro, HARD_TIMEOUT))


def test_fetch_trace_pulls_the_flight_recorder():
    async def scenario():
        config = ClusterConfig(seed=11, tracing=True)
        async with RealCluster(3, config=config) as cluster:
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            host, port = cluster.address_book[0]
            dump = await fetch_trace(host, port)
            assert isinstance(dump, TraceDump)
            assert dump.runtime == "realnet"
            assert dump.epoch > 0  # wall-clock base for cross-node merge
            names = {event.name for event in dump.events}
            assert "view.change" in names and "view.install" in names

    run(scenario())


def test_traceless_node_yields_none_not_a_hang():
    async def scenario():
        config = ClusterConfig(seed=12)  # tracing off
        async with RealCluster(2, config=config) as cluster:
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            host, port = cluster.address_book[0]
            dumps = await fetch_traces([(host, port)], timeout=1.0)
            assert dumps == [None]

    run(scenario())


def test_realnet_view_install_tree_matches_sim_taxonomy():
    """The partition/heal view-change tree reconstructs over real
    sockets with the same span vocabulary the sim acceptance test
    checks (tests/test_obs_tracing.py::TAXONOMY)."""
    from tests.test_obs_tracing import TAXONOMY

    from repro.apps.versioned_store import VersionedStore
    from repro.client.client import DriverStoreClient
    from repro.ports import make_cluster

    cluster = make_cluster(
        "realnet", 3, app_factory=lambda pid: VersionedStore(),
        seed=7, tracing=True,
    )
    try:
        assert cluster.settle()
        client = DriverStoreClient(cluster)
        try:
            assert client.put("k", "v").status == "ok"
        finally:
            client.close()
        cluster.partition([[0, 1], [2]])
        assert cluster.settle()
        cluster.heal()
        assert cluster.settle()
        trees = build_trees([rec.dump() for rec in cluster.flight_recorders()])
    finally:
        cluster.close()

    names = {span.name for tree in trees for span in tree.spans()}
    assert names <= TAXONOMY, names - TAXONOMY
    puts = [t for t in trees if t.kind == "client.put"]
    assert puts and puts[0].root.attrs["status"] == "ok"
    full = [
        tree for tree in trees
        if tree.kind == "view.change"
        and {"view.agree", "view.install", "settle.round"}
        <= {span.name for span in tree.spans()}
    ]
    assert full, "no complete view-change tree over realnet"
    path = [span.name for span in critical_path(full[-1])]
    assert path[:3] == ["view.change", "view.agree", "view.install"]
