"""Supervised node process: the child side of the multi-core cluster.

One OS process per site.  The parent (:class:`~repro.realnet.
proc_driver.ProcCluster`) spawns ``repro realnet node --supervised``
children, hands each the cluster config as one JSON argument, and steers
them over their *normal listening
sockets* with **control frames** — the ``ctl`` side-frame kind
(docs/protocol.md §7).  A control request carries one ``(op, arg)``
value; the reply carries ``(ok, result)``.
Lifecycle (crash / recover / boot / topology pushes / join bookkeeping),
workload injection, trace collection and wire-stat scraping all travel
through this one protocol, so the parent needs no side channels: the
same port that serves protocol traffic and ``repro obs watch`` serves
the cluster driver.

Design decisions worth naming:

* **Crash is a control op, not a SIGKILL.**  Killing the process would
  destroy its :class:`~repro.trace.recorder.TraceRecorder`, and the
  property checkers need every node's history (a delivery whose
  multicast was never recorded reads as a violation).  So ``crash``
  kills the *stack* — the transport and control surface stay up, frames
  addressed to the dead incarnation are dropped exactly as the
  simulator drops them — and ``recover`` boots a fresh incarnation in
  the same process.
* **Connectivity is pushed, not shared.**  Each child owns a local
  :class:`~repro.net.topology.Topology`; the parent mirrors every
  mutation (partition / heal / isolate / one-way cuts / joins) to all
  children wholesale via the ``topology`` op, so fault schedules
  written against the parent apply to real sockets across processes.
* **Clocks are aligned by wall epoch.**  Every ``status`` / ``trace``
  reply includes ``epoch = time.time() - scheduler.now`` (the wall time
  of the child's t=0); the parent shifts child event times by the epoch
  difference before merging, putting all recorders on one comparable
  time base.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Any, Callable

from repro.errors import SimulationError
from repro.net.topology import Topology
from repro.realnet.node import RealNode, serve_until_stopped
from repro.realnet.wallclock import WallClockScheduler
from repro.runtime.core import (
    ClusterConfig,
    build_observability,
    crash_stack,
    new_recorder,
    register_wire_gauges,
)
from repro.sim.rng import RngStreams
from repro.trace.events import RecoverEvent
from repro.trace.export import event_to_json
from repro.trace.recorder import TraceRecorder
from repro.types import ProcessId, SiteId


class NodeSupervisor:
    """One site's (re)bootable :class:`~repro.realnet.node.RealNode` +
    control dispatcher.

    Owns everything the in-process :class:`~repro.realnet.cluster.
    RealCluster` wires per site, but for exactly one site in its own
    process: a wall-clock scheduler, a metrics registry + ClusterObs, a
    local topology mirror, per-incarnation trace recorders (retired
    recorders are kept for ``gather_trace``) and one node on a fixed
    port, whose transport outlives its stacks.  The stack is **not**
    booted at construction — the parent issues ``boot`` once every
    child's transport is up, the same two-phase start the in-process
    orchestrator uses.
    """

    def __init__(
        self,
        site: SiteId,
        address_book: dict[SiteId, tuple[str, int]],
        config: ClusterConfig | None = None,
    ) -> None:
        if site not in address_book:
            raise ValueError(f"site {site} missing from the address book")
        self.config = config = config or ClusterConfig()
        self.site = site
        self.address_book = dict(address_book)
        self.scheduler = WallClockScheduler()
        self.registry, self.flight, _tracer, self.obs = build_observability(
            config, lambda: self.scheduler.now, runtime="realnet",
            name=f"site{site}", epoch=self.epoch, salt=site, whole_cluster=False,
        )
        self.topology = Topology(sorted(self.address_book))
        self.env_recorder = new_recorder(config, f"env{site}")
        self._retired: list[TraceRecorder] = []
        self._incarnation = -1
        self.stop_event: asyncio.Event = asyncio.Event()
        host, port = self.address_book[site]
        self.node = RealNode(
            ProcessId(site, 0),
            self.address_book,
            config,
            scheduler=self.scheduler,
            app_factory=config.app_factory(len(self.address_book)),
            universe=lambda: set(self.topology.sites),
            connectivity=self.topology.allows,
            rng=RngStreams(config.seed),
            host=host,
            port=port,
            obs=self.obs,
            metrics=self.registry,
            flight=self.flight,
        )
        node, network = self.node, self.node.network
        register_wire_gauges(
            self.registry, lambda: network.stats, network.transport_stats,
            lambda: [node.stack] if node.stack is not None else [],
        )
        network.side_handlers["ctl"] = self._handle_ctl

    # -- lifecycle -----------------------------------------------------

    @property
    def epoch(self) -> float:
        """Wall time of this scheduler's t=0 (for cross-process merge)."""
        return time.time() - self.scheduler.now

    def boot(self) -> ProcessId:
        """(Re)start the stack under a fresh incarnation."""
        if self.node.alive:
            raise SimulationError(f"site {self.site} is up; cannot boot")
        if self._incarnation >= 0:
            self._retired.append(self.node.recorder)
        self._incarnation += 1
        pid = ProcessId(self.site, self._incarnation)
        self.node.start_stack(
            pid, new_recorder(self.config, f"site{self.site}/inc{pid.incarnation}")
        )
        if self._incarnation > 0:
            self.env_recorder.record(
                RecoverEvent(time=self.scheduler.now, pid=pid, site=self.site)
            )
        return pid

    def crash(self) -> bool:
        """Kill the stack; transport and control surface stay up."""
        return crash_stack(
            self.node.stack, self.env_recorder, self.obs, self.scheduler.now
        )

    # -- control dispatch ----------------------------------------------

    def _handle_ctl(self, request: tuple, reply: Callable[[tuple], None]) -> None:
        try:
            op, arg = request
            result = self._dispatch(op, arg)
        except Exception as exc:  # noqa: BLE001 - reply, don't kill the link
            reply((False, f"{type(exc).__name__}: {exc}"))
        else:
            reply((True, result))

    def _dispatch(self, op: str, arg: Any) -> Any:
        if op == "status":
            return self._status()
        if op == "mcast":
            return self._mcast(arg)
        if op == "mcast_many":
            count, payload = arg
            accepted = 0
            for _ in range(count):
                if not self._mcast(payload):
                    break
                accepted += 1
            return accepted
        if op == "counts":
            snap = self.registry.snapshot(f"site{self.site}")
            return (
                int(snap.total("multicasts_total")),
                int(snap.total("deliveries_total")),
            )
        if op == "ping":
            return "pong"
        if op == "boot":
            pid = self.boot()
            return (pid.site, pid.incarnation)
        if op == "crash":
            return self.crash()
        if op == "topology":
            components, oneway_cuts, sites = arg
            self.topology.restore(components, oneway_cuts, sites)
            return True
        if op == "add_site":
            site, host, port = arg
            self.address_book[site] = (host, port)
            return True
        if op == "trace":
            return self._trace()
        if op == "flight":
            # The flight recorder's current ring (None without tracing);
            # TraceDump is codec-registered, so it crosses the control
            # protocol like any other value.
            return self.flight.dump() if self.flight is not None else None
        if op == "net_stats":
            return self._net_stats()
        if op == "shutdown":
            # Reply first; the event loop flushes the reply before the
            # scheduler callback tears the transport down.
            self.scheduler.after(0.1, self.stop_event.set)
            return True
        raise SimulationError(f"unknown control op {op!r}")

    def _mcast(self, payload: Any) -> bool:
        if not self.node.alive or self.node.stack.is_flushing:
            return False
        self.node.stack.multicast(payload)
        return True

    def _status(self) -> dict[str, Any]:
        stack, alive = self.node.stack, self.node.alive
        view = stack.view if alive else None
        return {
            "site": self.site,
            "inc": self._incarnation,
            "alive": alive,
            "view": view.view_id if view is not None else None,
            "view_str": str(view) if view is not None else "",
            "members": (
                tuple(
                    sorted(view.members, key=lambda p: (p.site, p.incarnation))
                )
                if view is not None
                else ()
            ),
            "flushing": bool(stack.is_flushing) if alive else False,
            "now": self.scheduler.now,
            "epoch": self.epoch,
        }

    def _trace(self) -> tuple[float, tuple]:
        recorders = [self.env_recorder, *self._retired]
        if self._incarnation >= 0:
            recorders.append(self.node.recorder)
        dumped = tuple(
            (rec.label, tuple(event_to_json(event) for event in rec.events))
            for rec in recorders
        )
        return (self.epoch, dumped)

    def _net_stats(self) -> dict[str, Any]:
        return {
            "net": dataclasses.asdict(self.node.network.stats),
            "transport": self.node.network.transport_stats(),
        }


async def run_supervised(
    site: SiteId,
    address_book: dict[SiteId, tuple[str, int]],
    config: ClusterConfig | None = None,
) -> NodeSupervisor:
    """Run one supervised node until ``shutdown`` (or SIGINT/SIGTERM).

    The transport comes up immediately so the parent can connect its
    control client; the *stack* waits for the parent's ``boot`` op, the
    same two-phase start the in-process orchestrator performs, so no
    child heartbeats into the void while its siblings are still
    importing Python.
    """
    supervisor = NodeSupervisor(site, address_book, config)
    await supervisor.node.start_transport()
    try:
        await serve_until_stopped(supervisor.stop_event)
    finally:
        await supervisor.node.stop()
    return supervisor
