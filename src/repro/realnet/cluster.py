"""In-process orchestration of a multi-node real-network cluster.

:class:`RealCluster` is the wall-clock sibling of
:class:`repro.runtime.cluster.Cluster`: it owns one shared
:class:`~repro.realnet.wallclock.WallClockScheduler`, one shared trace
recorder and stable store, and one :class:`~repro.realnet.node.RealNode`
per site, each with its own server socket on an ephemeral localhost
port.  Every node runs the unmodified fd/gms/vsync/evs stack; all
inter-node traffic crosses real TCP connections.

The same environment-action surface the simulator exposes is available
here — and because the orchestrator satisfies
:class:`repro.net.faults.FaultTarget` and carries a live
:class:`~repro.net.topology.Topology`, a declarative
:class:`~repro.net.faults.FaultSchedule` can be armed on the wall-clock
scheduler against real sockets unchanged:

* :meth:`crash` kills a stack and closes its sockets;
* :meth:`recover` boots a fresh incarnation at the same site (new
  ephemeral port; peers re-resolve it through the shared address book);
* :meth:`partition` / :meth:`heal` / :meth:`isolate` *firewall* site
  groups: the topology predicate is enforced on both the send and the
  receive side of every node, so frames across a cut are destroyed even
  when the TCP connections stay up;
* :meth:`join` grows the universe by a brand-new site.

``settle()`` is the wall-clock analogue of the simulator's: it polls
(on real time) the one convergence predicate of
:mod:`repro.runtime.core`.  All waiting entry points take hard timeouts
— a wedged cluster reports failure, it cannot hang the caller.

:class:`WallClockCluster` is what this adapter shares with the
process-per-site one (:mod:`repro.realnet.proc_driver`): both live on
an asyncio loop, wait with coroutines and return tasks from
``recover`` / ``join``; :class:`~repro.realnet.driver.RealClusterDriver`
wraps either behind the blocking :class:`~repro.ports.ClusterPort`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable

from repro.errors import SimulationError
from repro.net.network import NetworkStats
from repro.realnet.node import RealNode
from repro.realnet.transport import wait_for_condition
from repro.realnet.wallclock import WallClockScheduler
from repro.runtime.core import (
    SECONDS_PER_UNIT,
    AppFactory,
    ClusterConfig,
    ClusterCore,
    build_observability,
    crash_stack,
    new_recorder,
    register_wire_gauges,
    sum_network_stats,
    sum_transport_stats,
)
from repro.sim.rng import RngStreams
from repro.sim.stable_storage import StableStore
from repro.trace.events import RecoverEvent
from repro.trace.recorder import TraceRecorder
from repro.types import SiteId
from repro.vsync.stack import GroupStack


class WallClockCluster(ClusterCore):
    """The asyncio half of a wall-clock adapter.

    Lives on one event loop: ``start`` / ``stop`` / ``settle`` /
    ``wait_until`` are coroutines, environment actions run on the loop
    thread and track the tasks they spawn, and all times are wall
    seconds since :meth:`start`.
    """

    UNIT = SECONDS_PER_UNIT
    #: Default wall seconds between polls of a waiting method.
    POLL = 0.02

    def __init__(self, n_sites: int, config: ClusterConfig | None, **core: Any) -> None:
        super().__init__(n_sites, config, **core)
        self.address_book: dict[SiteId, tuple[str, int]] = {}
        self._bg: set[asyncio.Task] = set()

    async def stop(self) -> None:
        """Cancel and reap every tracked background task."""
        for task in list(self._bg):
            task.cancel()
        await asyncio.gather(*self._bg, return_exceptions=True)
        self._bg.clear()

    async def __aenter__(self) -> Any:
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    def _spawn(self, coro: Any) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._bg.add(task)
        task.add_done_callback(self._bg.discard)
        return task

    async def refresh(self) -> None:
        """Bring introspection state up to date before a predicate is
        evaluated (nothing to do when the stacks are in this process)."""

    async def settle(self, timeout: float = 10.0, poll: float | None = None) -> bool:
        """Wait (on the wall clock) for membership to converge."""
        return await self.wait_until(type(self).is_settled, timeout, poll)

    async def wait_until(
        self,
        predicate: Callable[[Any], Any],
        timeout: float = 10.0,
        poll: float | None = None,
    ) -> bool:
        """Poll ``predicate(cluster)`` on the loop thread."""
        return await wait_for_condition(
            lambda: predicate(self), timeout, poll or self.POLL, self.refresh
        )


class RealCluster(WallClockCluster):
    """A set of localhost sites running group stacks over real TCP."""

    runtime = "realnet"

    def __init__(
        self,
        n_sites: int,
        app_factory: AppFactory | None = None,
        config: ClusterConfig | None = None,
    ) -> None:
        super().__init__(n_sites, config)
        self.app_factory = self.config.app_factory(n_sites, app_factory)
        self.nodes: dict[SiteId, RealNode] = {}
        # Each node records its own history (as a real deployment
        # would); the orchestrator keeps one recorder for environment
        # events (crash/recover) and retains the recorders of replaced
        # incarnations so gather_trace() can merge the full execution.
        self._env_recorder = new_recorder(self.config, "env")
        self._retired_recorders: list[TraceRecorder] = []
        self.store = StableStore()
        self.rng = RngStreams(self.config.seed)
        # One registry, flight recorder and tracer shared by every
        # co-located node: they share one wall-clock scheduler, so
        # cross-node spans (multicast on one node, delivery on another)
        # are measurable on one clock.  The wall epoch is pinned in
        # start(), when the scheduler's t=0 is established.
        self.metrics, self.flight, _tracer, self.obs = build_observability(
            self.config, lambda: self.now,
            runtime="realnet", name="cluster", epoch=time.time(),
        )
        register_wire_gauges(
            self.metrics, self.network_stats, self.transport_stats,
            lambda: self.stacks.values(),
        )

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "RealCluster":
        """Bring every transport up, then boot every stack."""
        if self.scheduler is not None:
            raise SimulationError("cluster already started")
        self.scheduler = WallClockScheduler()
        if self.flight is not None:
            # Wall time of the scheduler's t=0: lets `repro obs trace`
            # merge this cluster's dump with other nodes' on one clock.
            self.flight.epoch = time.time() - self.scheduler.now
        for site in sorted(self.topology.sites):
            await self._make_node(site).start_transport()
        for site in sorted(self.nodes):
            self.nodes[site].start_stack()
        return self

    async def stop(self) -> None:
        """Tear everything down; idempotent."""
        await super().stop()
        for node in list(self.nodes.values()):
            await node.stop()

    def _make_node(self, site: SiteId) -> RealNode:
        pid = self._next_pid(site)
        old = self.nodes.get(site)
        if old is not None:
            self._retired_recorders.append(old.recorder)
        node = RealNode(
            pid,
            self.address_book,
            self.config,
            scheduler=self.scheduler,
            storage=self.store.site(site),
            recorder=new_recorder(self.config, f"site{site}/inc{pid.incarnation}"),
            app_factory=self.app_factory,
            universe=lambda: set(self.topology.sites),
            connectivity=self.topology.allows,
            rng=self.rng,
            obs=self.obs,
            metrics=self.metrics,
            metrics_source="cluster",
            flight=self.flight,
        )
        self.nodes[site] = node
        return node

    async def _boot(self, site: SiteId, recovering: bool) -> GroupStack:
        old = self.nodes.get(site)
        if old is not None:
            await old.network.stop()
        node = self._make_node(site)
        await node.start_transport()
        stack = node.start_stack()
        if recovering:
            self._env_recorder.record(
                RecoverEvent(time=self.now, pid=stack.pid, site=site)
            )
        return stack

    # -- environment actions (FaultTarget) -----------------------------

    def crash(self, site: SiteId) -> None:
        """Kill the process at ``site`` and close its sockets."""
        node = self.nodes.get(site)
        if node is not None and crash_stack(
            node.stack, self._env_recorder, self.obs, self.now
        ):
            self._spawn(node.network.stop())

    def recover(self, site: SiteId) -> "asyncio.Task[GroupStack]":
        """Restart ``site`` under a fresh incarnation on a fresh port.

        Returns the startup task; **awaiting it yields the fresh**
        :class:`~repro.vsync.stack.GroupStack` — the realnet analogue of
        the simulator's synchronous ``recover`` return value, and what
        the blocking :class:`~repro.realnet.driver.RealClusterDriver`
        resolves before returning.  Environment-action callers (armed
        fault schedules) may ignore the task; it is tracked and
        cancelled by :meth:`stop`.
        """
        node = self.nodes.get(site)
        if node is not None and node.alive:
            raise SimulationError(f"site {site} is up; cannot recover")
        return self._spawn(self._boot(site, recovering=True))

    def join(self, site: SiteId) -> "asyncio.Task[GroupStack]":
        """Add a brand-new site to the universe and boot it.

        Like :meth:`recover`, returns the startup task, which resolves
        to the new site's :class:`~repro.vsync.stack.GroupStack` once
        its transport is up and its stack is registered.
        """
        self.topology.add_site(site)
        return self._spawn(self._boot(site, recovering=False))

    # -- queries -------------------------------------------------------

    @property
    def stacks(self) -> dict[SiteId, GroupStack]:
        """Current incarnation's stack per booted site."""
        return {
            site: node.stack
            for site, node in self.nodes.items()
            if node.stack is not None
        }

    def gather_trace(self) -> TraceRecorder:
        """Merge every node's locally recorded history — live and
        retired incarnations, plus the orchestrator's crash/recover
        events — into one globally ordered trace, the input the property
        checkers expect.  All recorders share this cluster's wall-clock
        scheduler, so their timestamps are directly comparable; ordering
        is :meth:`~repro.trace.recorder.TraceRecorder.merge`'s
        ``(time, pid, seq)``.  Each call re-merges: grab it once after
        the run quiesces rather than inside a hot loop.
        """
        return TraceRecorder.merge(
            self._env_recorder,
            *self._retired_recorders,
            *(node.recorder for _, node in sorted(self.nodes.items())),
        )

    def network_stats(self) -> NetworkStats:
        """Aggregate wire counters over every node (live and dead)."""
        return sum_network_stats(
            (node.network.stats for node in self.nodes.values()),
            self.config.detailed_stats,
        )

    def transport_stats(self) -> dict[str, Any]:
        """Aggregate link/server counters over every node (live and
        dead); see :func:`~repro.runtime.core.sum_transport_stats`."""
        return sum_transport_stats(
            node.network.transport_stats() for node in self.nodes.values()
        )
