"""The simulator's cluster adapter: one object per simulated run.

Owns the scheduler, the network, stable storage, the trace recorder and
one :class:`~repro.vsync.stack.GroupStack` per site, and exposes the
environment actions fault schedules need (crash / recover / partition /
heal / join).  Examples, tests and benchmarks all start here.

:class:`Cluster` is the virtual-time adapter over
:class:`~repro.runtime.core.ClusterCore` and the simulator's
implementation of :class:`repro.ports.ClusterPort` — the harness layer
(workload clients, scenarios, property checks, the CLI) drives it only
through that contract, so the same code runs over the wall-clock
adapters unchanged.  Waiting advances virtual time;
backend time equals scenario time (``time_scale == 1.0``).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SimulationError
from repro.net.network import Network
from repro.runtime.core import (
    AppFactory,
    ClusterConfig,
    ClusterCore,
    build_observability,
    crash_stack,
    new_recorder,
    register_net_gauges,
)
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler
from repro.sim.stable_storage import StableStore
from repro.trace.events import RecoverEvent
from repro.trace.recorder import TraceRecorder
from repro.types import SiteId
from repro.vsync.events import GroupApplication
from repro.vsync.stack import GroupStack, StackConfig


class Cluster(ClusterCore):
    """A set of sites running group stacks over one simulated network."""

    runtime = "sim"

    def __init__(
        self,
        n_sites: int,
        app_factory: AppFactory | None = None,
        config: ClusterConfig | None = None,
        auto_start: bool = True,
    ) -> None:
        super().__init__(n_sites, config)
        self._stack_config = self.config.resolved_stack(StackConfig())
        self.app_factory = self.config.app_factory(n_sites, app_factory)
        self.scheduler = Scheduler()
        self.rng = RngStreams(self.config.seed)
        self.network = Network(
            self.scheduler,
            self.topology,
            self.rng,
            latency=self.config.latency,
            loss_prob=self.config.loss_prob,
            fifo_links=self.config.fifo_links,
            detailed_stats=self.config.detailed_stats,
        )
        self.store = StableStore()
        self.recorder = new_recorder(self.config, "sim")
        # Metrics read virtual time: every exported value is a
        # deterministic function of the seed.  A sim epoch of zero means
        # flight dumps merge with realnet ones on the wall epoch.
        self.metrics, self.flight, _tracer, self.obs = build_observability(
            self.config, lambda: self.scheduler.now,
            runtime="sim", name="sim", epoch=0.0,
        )
        self.metrics.gauge_callback(
            "sim_events_total",
            "Scheduler events executed: one per timer firing or per"
            " multicast fan-out instant (net_messages_delivered_total"
            " counts the copies)",
            lambda: float(self.scheduler.events_run),
        )
        register_net_gauges(
            self.metrics, self.network_stats, lambda: self.stacks.values()
        )
        self.stacks: dict[SiteId, GroupStack] = {}
        self.apps: dict[SiteId, GroupApplication] = {}
        if auto_start:
            for site in sorted(self.topology.sites):
                self.start_site(site)

    # -- process management --------------------------------------------------

    def start_site(self, site: SiteId) -> GroupStack:
        """Start (or restart) the process at ``site``."""
        if site in self.stacks and self.stacks[site].alive:
            raise SimulationError(f"site {site} is already running")
        pid = self._next_pid(site)
        app = self.app_factory(pid)
        stack = GroupStack(
            pid,
            self.scheduler,
            self.store.site(site),
            app,
            self.recorder,
            universe=lambda: self.topology.sites,
            config=self._stack_config,
            obs=self.obs,
        )
        self.stacks[site] = stack
        self.apps[site] = app
        self.network.register(stack)
        return stack

    def crash(self, site: SiteId) -> None:
        crash_stack(self.stacks.get(site), self.recorder, self.obs, self.now)

    def recover(self, site: SiteId) -> GroupStack:
        """Restart a crashed site under a fresh process identifier."""
        stack = self.stacks.get(site)
        if stack is not None and stack.alive:
            raise SimulationError(f"site {site} is up; cannot recover")
        new_stack = self.start_site(site)
        self.recorder.record(
            RecoverEvent(time=self.scheduler.now, pid=new_stack.pid, site=site)
        )
        return new_stack

    def join(self, site: SiteId) -> GroupStack:
        """Add a brand-new site to the universe and start it."""
        self.topology.add_site(site)
        return self.start_site(site)

    # -- execution ------------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        return self.scheduler.run(until=until)

    def run_for(self, duration: float) -> float:
        return self.scheduler.run_for(duration)

    def run_until(
        self,
        predicate: Callable[["Cluster"], Any],
        timeout: float = 600.0,
        poll: float = 5.0,
    ) -> bool:
        """Run until ``predicate(cluster)`` is truthy or ``timeout``
        virtual units elapse; returns whether it became true."""
        deadline = self.scheduler.now + timeout
        while self.scheduler.now < deadline:
            if predicate(self):
                return True
            self.run_for(min(poll, deadline - self.scheduler.now))
        return bool(predicate(self))

    # ClusterPort name for run_until: every backend waits on a predicate
    # of the cluster; the simulator does so by advancing virtual time.
    wait_until = run_until

    def settle(self, timeout: float = 600.0, poll: float = 10.0) -> bool:
        """Run until membership converges — :func:`~repro.runtime.core.
        settled` holds — or ``timeout`` virtual units elapse."""
        return self.run_until(Cluster.is_settled, timeout, poll)

    # -- queries ------------------------------------------------------------------------

    def gather_trace(self) -> TraceRecorder:
        """The full execution history: one shared recorder observes the
        whole simulated run, so there is nothing to merge."""
        return self.recorder

    def network_stats(self) -> Any:
        """Wire counters of the simulated network."""
        return self.network.stats
