"""The realnet walkthrough: partition and EVS merge over real sockets.

One scripted scenario, used by ``python -m repro realnet demo``, by
``examples/realnet_partition_merge.py`` and (with assertions instead of
printing) by the loopback smoke tests:

1. boot ``n`` nodes on localhost TCP ports and settle into one view;
2. firewall the cluster into a majority and a minority — each side
   installs its own view, i.e. two concurrent e-views exist over real
   sockets;
3. heal the firewall — the sides merge into one view whose e-view
   structure still shows the partition's scars (one sv-set per former
   side, Property 6.3: structure preservation);
4. call ``SV-SetMerge`` on the merged structure and watch the change
   apply, totally ordered, at every member (Properties 6.1/6.2);
5. verify the paper's properties on the recorded trace.

Every phase runs under the caller's hard wall-clock budget.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.realnet.cluster import RealCluster
from repro.runtime.core import ClusterConfig
from repro.trace.checks import check_cluster


@dataclass
class DemoResult:
    """What happened, for printing or asserting."""

    n_sites: int
    bootstrap_view: str
    partition_views: dict[int, str]
    merged_view: str
    svsets_after_heal: int
    svsets_after_merge: int
    property_violations: int
    frames_sent: int
    frames_delivered: int
    dropped_partition: int
    wall_seconds: float
    wire_frames: int
    wire_flushes: int
    wire_bytes: int
    codecs: dict[str, int]


async def partition_merge_demo(
    n_sites: int = 3,
    seed: int = 0,
    scale: float = 1.0,
    timeout: float = 30.0,
    codec: str = "bin",
    printer=None,
) -> DemoResult:
    """Run the scripted scenario; raises AssertionError if a phase fails."""

    def say(msg: str) -> None:
        if printer is not None:
            printer(msg)

    async def must_settle(cluster: RealCluster, what: str) -> None:
        if not await cluster.settle(timeout=timeout):
            raise AssertionError(f"{what}: membership did not settle; views={cluster.views()}")

    config = ClusterConfig(seed=seed, scale=scale, codec=codec)
    async with RealCluster(n_sites, config=config) as cluster:
        t0 = cluster.now
        await must_settle(cluster, "bootstrap")
        bootstrap_view = str(cluster.stack_at(0).view)
        say(f"group formed over TCP at t={cluster.now:.2f}s:")
        for site, view in cluster.views().items():
            say(f"  site {site} @ {cluster.address_book[site][1]}: {view}")

        minority = max(1, n_sites // 3)
        left = list(range(n_sites - minority))
        right = list(range(n_sites - minority, n_sites))
        cluster.partition([left, right])
        await must_settle(cluster, "partition")
        partition_views = {s: str(cluster.stack_at(s).view) for s in range(n_sites)}
        side_views = {cluster.stack_at(s).current_view_id() for s in range(n_sites)}
        if len(side_views) != 2:
            raise AssertionError(f"expected two concurrent views, saw {side_views}")
        say(f"\nfirewalled {left} | {right}: two concurrent e-views")
        for site, view in cluster.views().items():
            say(f"  site {site}: {view}")

        # Each side consolidates its own structure while partitioned, so
        # the healed view visibly preserves one sv-set per former side
        # (Property 6.3) instead of a pile of bootstrap singletons.
        for side in (left, right):
            stack = cluster.stack_at(side[0])
            assert stack.eview is not None
            stack.sv_set_merge([ss.ssid for ss in stack.eview.structure.svsets])
        consolidated = await cluster.wait_until(
            lambda c: all(
                s.eview is not None and len(s.eview.structure.svsets) == 1
                for s in c.live_stacks()
            ),
            timeout=timeout,
        )
        if not consolidated:
            raise AssertionError("in-partition SV-SetMerge did not complete")

        cluster.heal()
        await must_settle(cluster, "heal")
        merged_view = str(cluster.stack_at(0).view)
        eview = cluster.stack_at(0).eview
        assert eview is not None
        svsets_after_heal = len(eview.structure.svsets)
        say(f"\nhealed: {merged_view}")
        say(f"  e-view structure: {eview}")
        if svsets_after_heal < 2:
            raise AssertionError(
                f"merge should preserve partition structure; svsets={svsets_after_heal}"
            )

        # SV-SetMerge: one call, sequenced by the coordinator, applied
        # in the same total order at every member.
        merger = cluster.stack_at(0)
        merger.sv_set_merge([ss.ssid for ss in merger.eview.structure.svsets])
        merged = await cluster.wait_until(
            lambda c: all(
                s.eview is not None and len(s.eview.structure.svsets) == 1
                for s in c.live_stacks()
            ),
            timeout=timeout,
        )
        if not merged:
            raise AssertionError("SV-SetMerge did not reach every member")
        svsets_after_merge = len(merger.eview.structure.svsets)
        say(f"\nafter SV-SetMerge: {merger.eview}")

        reports = check_cluster(cluster)
        violations = sum(len(r.violations) for r in reports)
        say("\nproperty checks on the recorded trace:")
        for report in reports:
            say(f"  {report}")

        stats = cluster.network_stats()
        wire = cluster.transport_stats()
        wall = cluster.now - t0
        say(
            f"\nwire totals: {stats.sent} sent, {stats.delivered} delivered, "
            f"{stats.dropped_partition} destroyed by the firewall, "
            f"{wall:.2f}s wall clock"
        )
        flushes = wire["flushes"]
        per_flush = wire["frames_sent"] / flushes if flushes else 0.0
        codec_summary = ", ".join(
            f"{name} x{count}" for name, count in sorted(wire["codecs"].items())
        ) or "none negotiated"
        say(
            f"transport: {wire['frames_sent']} frames in {flushes} flushes "
            f"({per_flush:.1f} frames/flush, max batch {wire['max_batch']}), "
            f"{wire['bytes_sent']} bytes, {wire['connects']} connects, "
            f"{wire['frames_dropped']} dropped; links: {codec_summary}"
        )
        return DemoResult(
            n_sites=n_sites,
            bootstrap_view=bootstrap_view,
            partition_views=partition_views,
            merged_view=merged_view,
            svsets_after_heal=svsets_after_heal,
            svsets_after_merge=svsets_after_merge,
            property_violations=violations,
            frames_sent=stats.sent,
            frames_delivered=stats.delivered,
            dropped_partition=stats.dropped_partition,
            wall_seconds=wall,
            wire_frames=wire["frames_sent"],
            wire_flushes=wire["flushes"],
            wire_bytes=wire["bytes_sent"],
            codecs=wire["codecs"],
        )


def run_demo(
    n_sites: int = 3,
    seed: int = 0,
    scale: float = 1.0,
    timeout: float = 30.0,
    codec: str = "bin",
    printer=print,
) -> DemoResult:
    """Synchronous entry point with a hard overall deadline."""
    return asyncio.run(
        asyncio.wait_for(
            partition_merge_demo(
                n_sites=n_sites, seed=seed, scale=scale, timeout=timeout,
                codec=codec, printer=printer,
            ),
            timeout=timeout * 4,
        )
    )
