"""One group member on the real network.

A :class:`RealNode` bundles what the simulator's
:class:`~repro.runtime.cluster.Cluster` wires per site — stable storage,
trace recorder, application object and an unmodified
:class:`~repro.vsync.stack.GroupStack` — with a
:class:`~repro.realnet.network.RealNetwork` transport endpoint.  Startup
is two-phase so an orchestrator can bring every transport up (learning
the ephemeral ports) before any stack starts heartbeating:

1. :meth:`start_transport` binds the server socket and publishes the
   node's address in the shared address book;
2. :meth:`start_stack` builds the stack and registers it, which arms
   the failure detector and membership timers.

:func:`run_standalone` runs one self-contained node in its own OS
process (the ``repro realnet node`` CLI) against a static address book
of fixed ports; in-process orchestration across many nodes lives in
:mod:`repro.realnet.cluster`.

Timer profile: the stack's timer configs are unit-agnostic floats, so
the same :class:`~repro.vsync.stack.StackConfig` works on both backends
— only the magnitudes change.  :func:`realnet_stack_config` scales the
simulator's canonical ratios (latency 1 : fd-interval 5 : fd-timeout 16
: round-timeout 25) onto loopback reality, where a frame costs well
under a millisecond: ``scale=1.0`` means a 50 ms heartbeat and
sub-second view agreement, fast enough for CI smoke tests yet ~50x the
loopback RTT, the same safety margin the simulator's defaults have.
"""

from __future__ import annotations

import asyncio
import signal
import time
from typing import Any, Callable, Iterable

from repro.gms.membership import MembershipConfig
from repro.realnet.network import Connectivity, RealNetwork
from repro.realnet.wallclock import WallClockScheduler
from repro.runtime.core import (
    AppFactory,
    ClusterConfig,
    build_observability,
    register_wire_gauges,
)
from repro.sim.rng import RngStreams
from repro.sim.stable_storage import SiteStorage, StableStore
from repro.trace.recorder import TraceRecorder
from repro.types import ProcessId, SiteId
from repro.vsync.events import GroupApplication
from repro.vsync.stack import GroupStack, StackConfig


def realnet_stack_config(scale: float = 1.0) -> StackConfig:
    """Stack timers for loopback TCP, preserving the simulator's ratios.

    ``scale`` stretches every timer uniformly: raise it on slow or
    heavily loaded machines, lower it (cautiously) for faster tests.
    """
    return StackConfig(
        fd_interval=0.05 * scale,
        fd_timeout=0.16 * scale,
        membership=MembershipConfig(
            check_interval=0.07 * scale,
            flush_stall_timeout=0.45 * scale,
            round_timeout=0.25 * scale,
            min_initiate_gap=0.03 * scale,
        ),
        stability_interval=0.25 * scale,
    )


class RealNode:
    """One site's stack + transport on the real network."""

    def __init__(
        self,
        pid: ProcessId,
        address_book: dict[SiteId, tuple[str, int]],
        config: ClusterConfig | None = None,
        *,
        scheduler: WallClockScheduler | None = None,
        storage: SiteStorage | None = None,
        recorder: TraceRecorder | None = None,
        app_factory: AppFactory | None = None,
        universe: Callable[[], Iterable[SiteId]] | None = None,
        connectivity: Connectivity | None = None,
        rng: RngStreams | None = None,
        host: str | None = None,
        port: int = 0,
        obs: Any = None,
        metrics: Any = None,
        metrics_source: str | None = None,
        flight: Any = None,
    ) -> None:
        config = config or ClusterConfig()
        self.pid = pid
        self.address_book = address_book
        self.scheduler = scheduler if scheduler is not None else WallClockScheduler()
        self.storage = storage if storage is not None else StableStore().site(pid.site)
        self.recorder = (
            recorder
            if recorder is not None
            else TraceRecorder(level="full", label=f"site{pid.site}")
        )
        self.app_factory = app_factory or (lambda _pid: GroupApplication())
        self.stack_config = config.resolved_stack(realnet_stack_config(config.scale))
        self._universe = universe or (lambda: set(self.address_book))
        # Observability: the ClusterObs hub the stack reports into (may
        # be shared across co-located nodes) and the metrics registry
        # served to `repro obs watch` over the link protocol.
        self.obs = obs
        self.metrics = metrics if metrics is not None else (
            obs.registry if obs is not None else None
        )
        self.network = RealNetwork(
            self.scheduler,
            pid.site,
            address_book,
            host=host if host is not None else config.host,
            port=port,
            connectivity=connectivity,
            rng=rng,
            loss_prob=config.loss_prob,
            latency=config.latency,
            detailed_stats=config.detailed_stats,
            codec=config.codec,
            batch_bytes=config.batch_bytes,
            quiet=config.quiet,
        )
        # What an ``obs`` request may ask this node for, by name.
        self._obs_sources: dict[str, Callable[[], Any]] = {}
        if self.metrics is not None:
            registry = self.metrics
            # The source names the *registry*, not the node: co-located
            # nodes sharing one registry must answer with one source so
            # watch clients can tell shared from per-process registries.
            source = metrics_source or f"site{pid.site}"
            self._obs_sources["snapshot"] = lambda: registry.snapshot(source)
        # Flight recorder (may be shared across co-located nodes):
        # serves `repro obs trace` pulls on the same listening socket.
        self.flight = flight
        if flight is not None:
            self._obs_sources["trace"] = flight.dump
        self.network.side_handlers["obs"] = self._serve_obs
        self.app: GroupApplication | None = None
        self.stack: GroupStack | None = None

    # -- lifecycle -----------------------------------------------------

    async def start_transport(self) -> tuple[str, int]:
        """Phase 1: bind the server socket, publish our address."""
        return await self.network.start()

    def start_stack(
        self, pid: ProcessId | None = None, recorder: TraceRecorder | None = None
    ) -> GroupStack:
        """Phase 2: boot the unmodified protocol stack on the transport.

        ``pid`` / ``recorder`` boot a *fresh incarnation* on the same
        transport after the previous stack died — how a supervised
        process recovers without giving up its listening socket.
        """
        if pid is not None:
            self.pid = pid
        if recorder is not None:
            self.recorder = recorder
        self.app = self.app_factory(self.pid)
        self.stack = GroupStack(
            self.pid,
            self.scheduler,
            self.storage,
            self.app,
            self.recorder,
            universe=self._universe,
            config=self.stack_config,
            obs=self.obs,
        )
        self.network.register(self.stack)
        self._wire_client_service()
        return self.stack

    def _serve_obs(self, what: str, reply: Callable[[Any], None]) -> None:
        """Answer an ``obs`` request; one for something this node does
        not keep (a trace pull without tracing) goes unanswered and the
        poller times out rather than the node guessing at an answer."""
        source = self._obs_sources.get(what)
        if source is not None:
            reply(source())

    def _wire_client_service(self) -> None:
        """Serve external clients when the app is a versioned store.

        ``cli`` frames on this node's normal listening socket are routed
        into the store through a :class:`~repro.client.service.
        StoreService`; nodes running other apps register no handler and
        such frames are ignored.
        """
        from repro.apps.versioned_store import VersionedStore

        if not isinstance(self.app, VersionedStore):
            return
        from repro.client.service import StoreService

        service = StoreService(self.app, registry=self.metrics, obs=self.obs)
        self.network.side_handlers["cli"] = service.handle_control

    async def stop(self) -> None:
        """Kill the stack (if running) and tear the transport down."""
        if self.stack is not None and self.stack.alive:
            self.stack.crash()
        await self.network.stop()

    @property
    def alive(self) -> bool:
        return self.stack is not None and self.stack.alive


async def serve_until_stopped(stop: asyncio.Event) -> None:
    """Block until ``stop`` is set; SIGINT/SIGTERM set it."""
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    await stop.wait()


async def run_standalone(
    site: SiteId,
    address_book: dict[SiteId, tuple[str, int]],
    config: ClusterConfig | None = None,
    *,
    incarnation: int = 0,
    app_factory: AppFactory | None = None,
    on_view: Callable[[Any], None] | None = None,
    stop_event: asyncio.Event | None = None,
) -> RealNode:
    """Run one node in this OS process until SIGINT/SIGTERM (or
    ``stop_event``); the multi-process deployment surface.

    The node must already appear in ``address_book`` with a fixed port
    (every process needs the same book, so ephemeral ports are only for
    single-process orchestration).
    """
    if site not in address_book:
        raise ValueError(f"site {site} missing from the address book")
    config = config or ClusterConfig()
    host, port = address_book[site]
    scheduler = WallClockScheduler()
    registry, flight, _tracer, obs = build_observability(
        config, lambda: scheduler.now, runtime="realnet",
        name=f"site{site}", epoch=time.time() - scheduler.now, salt=site,
    )
    node = RealNode(
        ProcessId(site, incarnation),
        address_book,
        config,
        scheduler=scheduler,
        app_factory=config.app_factory(len(address_book), app_factory),
        rng=RngStreams(config.seed),
        host=host,
        port=port,
        obs=obs,
        metrics=registry,
        flight=flight,
    )
    network = node.network
    register_wire_gauges(
        registry, lambda: network.stats, network.transport_stats,
        lambda: [node.stack] if node.stack is not None else [],
    )
    await node.start_transport()
    node.start_stack()
    if on_view is not None:
        last_view: list[Any] = [None]

        def poll_view() -> None:
            stack = node.stack
            if stack is not None and stack.alive:
                if stack.view is not None and stack.view.view_id != last_view[0]:
                    last_view[0] = stack.view.view_id
                    on_view(stack.view)
                node.scheduler.after(0.1, poll_view)

        poll_view()
    try:
        await serve_until_stopped(
            stop_event if stop_event is not None else asyncio.Event()
        )
    finally:
        await node.stop()
    return node
