"""The cluster core: everything the three runtimes share.

A cluster is a set of sites, one :class:`~repro.vsync.stack.GroupStack`
per live site, a :class:`~repro.net.topology.Topology` saying who can
talk to whom, and a clock.  What carries the messages differs — the
simulator's event queue, asyncio sockets on one loop, or one OS process
per site — and each of those is a thin *adapter* subclassing
:class:`ClusterCore`:

* ``sim`` — :class:`repro.runtime.cluster.Cluster`, virtual time;
* ``realnet`` — :class:`repro.realnet.cluster.RealCluster`, asyncio
  sockets on one loop, wall seconds;
* ``realnet-proc`` — :class:`repro.realnet.proc_driver.ProcCluster`, one
  OS process per site steered over control frames, wall seconds.

Everything else is stated once, here: the one config dataclass
(:class:`ClusterConfig`), the definition of "the group has converged"
(:func:`settled`), the observability wiring
(:func:`build_observability`, :func:`register_net_gauges`,
:func:`register_wire_gauges`), the wire
counter sums (:func:`sum_network_stats`, :func:`sum_transport_stats`),
the scenario-unit time base (:data:`SECONDS_PER_UNIT`,
:meth:`ClusterCore.arm`) and the introspection surface over
``self.stacks``.  This module is import-light (no asyncio, no sockets).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import SimulationError
from repro.net.network import NetworkStats
from repro.net.topology import Topology
from repro.obs.instrument import ClusterObs
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import MetricsSnapshot
from repro.obs.tracing import FlightRecorder, Tracer
from repro.trace.events import CrashEvent
from repro.trace.recorder import TraceRecorder
from repro.types import ProcessId, SiteId
from repro.vsync.events import GroupApplication
from repro.vsync.stack import StackConfig

AppFactory = Callable[[ProcessId], GroupApplication]

#: Wall seconds per scenario unit at ``scale=1.0`` on the wall-clock
#: runtimes.  :func:`repro.realnet.node.realnet_stack_config` maps the
#: simulator's canonical timer ratios onto loopback with the same factor
#: (fd-interval 5 units <-> 50 ms), so a fault schedule or workload
#: interval written in scenario units lands at the same point of
#: protocol time on every backend.
SECONDS_PER_UNIT = 0.01

#: Fields a runtime cannot honour.  A non-default value in one of them
#: is a ``ValueError`` naming the field, never a silently ignored knob.
UNSUPPORTED: dict[str, tuple[str, ...]] = {
    "sim": ("scale", "host", "codec", "batch_bytes", "quiet"),
    "realnet": ("fifo_links", "codec"),
    # Objects cannot cross the process boundary; the rest travels as JSON.
    "realnet-proc": ("fifo_links", "latency", "stack", "codec"),
}


@dataclass
class ClusterConfig:
    """Knobs for a cluster on any runtime — the only config dataclass.

    Every runtime honours every field except those :data:`UNSUPPORTED`
    lists for it (tabulated in docs/api.md, "Runtimes").

    ``latency`` and ``stack`` default to ``None`` = the runtime's own
    profile: the simulator delays every message by one unit and runs the
    canonical :class:`~repro.vsync.stack.StackConfig`; the wall-clock
    runtimes inject no latency on top of the kernel's and run
    :func:`~repro.realnet.node.realnet_stack_config` stretched by
    ``scale``.  ``loss_prob`` (and ``latency`` on the wall clock) are
    injected chaos, applied at every sender.

    ``detailed_stats`` keeps the per-payload-type wire breakdown that
    protocol analysis and the CLI report on; benchmarks switch it off.
    ``trace_level`` / ``trace_capacity`` configure the recorders (see
    :class:`~repro.trace.recorder.TraceRecorder`): ``"full"`` history for
    checkers and determinism comparisons, ``"membership"`` for long runs
    that only care about structure, ``"none"`` plus the ring buffer for
    throughput benchmarks.

    ``metrics`` gates the in-stack observability hooks (``stack.obs``);
    the registry itself and its callback gauges always exist — they
    cost nothing until a snapshot is taken — so ``metrics=False`` (the
    bench fast path) still exports scheduler/network counters.
    ``tracing`` attaches a causal :class:`~repro.obs.tracing.Tracer`
    backed by a byte-budgeted flight recorder to the same hooks (it
    implies they are live even with ``metrics=False``);
    ``flight_budget`` bounds the ring in approximate encoded bytes;
    *uncaused* root spans are sampled 1-in-16 and caused spans are
    always traced, see :meth:`Tracer.sample_root`.

    ``fd_mode`` / ``gossip_fanout`` are scale knobs folded onto the
    stack config (``None`` leaves the profile's own value alone), so a
    scale profile moves between runtimes unchanged; with gossip remember
    ``fd_timeout`` must cover an epidemic round, not one hop
    (docs/scaling.md).  The membership knobs (``tree_fanout``,
    ``expand_debounce``) are set in ``stack.membership`` only.

    ``codec`` selects nothing: ``bin1`` is the only wire format.  The
    field stays only because the benchmark harness passes
    ``codec="bin"``; every runtime lists it in :data:`UNSUPPORTED`, so
    any other value is a ``ValueError``, and nothing else reads it.
    ROADMAP item 11 removes that argument, and then this field.

    On the wall clock ``batch_bytes`` overrides the links' byte cap per
    write (``0`` = one frame per write, the unbatched benchmark
    baseline).  ``app`` names a factory from :mod:`repro.apps.factories`,
    used when no factory closure is given — the only way to pick an
    application on realnet-proc.
    """

    seed: int = 0
    latency: Any = None
    loss_prob: float = 0.0
    fifo_links: bool = True
    stack: StackConfig | None = None
    detailed_stats: bool = True
    trace_level: str = "full"
    trace_capacity: int | None = None
    metrics: bool = True
    tracing: bool = False
    flight_budget: int = 256 * 1024
    fd_mode: str | None = None
    gossip_fanout: int | None = None
    scale: float = 1.0
    host: str = "127.0.0.1"
    codec: str = "bin"
    batch_bytes: int | None = None
    quiet: bool = True
    app: str = "none"

    def resolved_stack(self, profile: StackConfig) -> StackConfig:
        """``stack`` (or the runtime's ``profile``) with the scale-knob
        overrides folded in."""
        stack = self.stack if self.stack is not None else profile
        overrides: dict[str, Any] = {}
        if self.fd_mode is not None:
            overrides["fd_mode"] = self.fd_mode
        if self.gossip_fanout is not None:
            overrides["gossip_fanout"] = self.gossip_fanout
        return dataclasses.replace(stack, **overrides) if overrides else stack

    def check_supported(self, runtime: str) -> None:
        """Raise ``ValueError`` naming the first field ``runtime`` cannot
        honour that is set away from its default."""
        for name in UNSUPPORTED[runtime]:
            field = self.__dataclass_fields__[name]
            if getattr(self, name) != field.default:
                raise ValueError(
                    f"ClusterConfig.{name} is not honoured by the "
                    f"{runtime!r} runtime"
                )

    def app_factory(self, n_sites: int, given: AppFactory | None = None) -> AppFactory:
        """``given``, else the factory ``app`` names, else inert apps."""
        if given is None and self.app != "none":
            from repro.apps.factories import app_factory

            given = app_factory(self.app, n_sites)
        return given or (lambda _pid: GroupApplication())

    def to_json(self) -> str:
        """The serialisable part, as the one argument a supervised child
        process receives (``latency`` / ``stack`` are objects and stay
        behind; :data:`UNSUPPORTED` rejects them on that runtime)."""
        portable = dataclasses.replace(self, latency=None, stack=None)
        return json.dumps(dataclasses.asdict(portable), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClusterConfig":
        return cls(**json.loads(text))


# -- the settle predicate --------------------------------------------------


def settled(rows: Iterable[tuple], topology: Topology) -> bool:
    """Has membership converged?  The one definition, for every runtime.

    ``rows`` holds ``(pid, view_id, members, flushing)`` for every
    **live** process.  Converged means: every live process has installed
    a view whose membership is exactly the live processes of its own
    network component, agrees on the view identifier with all of them,
    and is not in the middle of a flush.  Dead sites are simply absent;
    two components after a partition each settle on their own view.
    """
    component = {
        site: index
        for index, group in enumerate(topology.components())
        for site in group
    }
    groups: dict[int, list[tuple]] = {}
    for row in rows:
        pid, view_id, _members, flushing = row
        if view_id is None or flushing:
            return False
        groups.setdefault(component[pid.site], []).append(row)
    for peers in groups.values():
        expected = {row[0] for row in peers}
        agreed = peers[0][1]
        for _pid, view_id, members, _flushing in peers:
            if view_id != agreed or members != expected:
                return False
    return True


def stack_row(stack: Any) -> tuple:
    """The settle-predicate row of one live stack (or stack proxy)."""
    view = stack.view
    if view is None:
        return (stack.pid, None, frozenset(), stack.is_flushing)
    return (stack.pid, view.view_id, view.members, stack.is_flushing)


# -- observability wiring --------------------------------------------------


def build_observability(
    config: ClusterConfig,
    clock: Callable[[], float],
    *,
    runtime: str,
    name: str,
    epoch: float,
    salt: int = 0,
    whole_cluster: bool = True,
) -> tuple[MetricsRegistry, FlightRecorder | None, Tracer | None, ClusterObs | None]:
    """Registry, flight recorder, tracer and stack hooks from ``config``.

    One set per time base: the whole simulated cluster (virtual time is
    already a global order; ``epoch`` 0), all co-located realnet nodes
    (they share one wall-clock scheduler), or one supervised/standalone
    process (``salt`` = its site, so span ids minted by different
    processes never collide without coordination, and
    ``whole_cluster=False``: it sees only its own deliveries).
    ``epoch`` is the wall time of the clock's t=0, which lets ``repro
    obs trace`` merge dumps from different processes on one clock.
    """
    registry = MetricsRegistry(clock=clock, runtime=runtime)
    flight = tracer = None
    if config.tracing:
        flight = FlightRecorder(
            name, runtime, budget=config.flight_budget, epoch=epoch
        )
        tracer = Tracer(flight, clock, salt=salt)
    obs = (
        ClusterObs(registry, tracer, whole_cluster)
        if (config.metrics or tracer is not None)
        else None
    )
    return registry, flight, tracer, obs


def register_net_gauges(
    registry: MetricsRegistry,
    network_stats: Callable[[], NetworkStats],
    stacks: Callable[[], Iterable[Any]],
) -> None:
    """``net_*`` callback gauges over the wire counters a backend keeps,
    ``fd_heartbeats_skipped_total`` over its stacks' detectors and
    ``store_put_multicasts_total`` over their store applications.

    Read at snapshot time only — the hot path never touches the registry
    for these — and named identically on every runtime, so snapshots of
    one workload compare row by row.
    """
    for key, name, help_text, reason in (
        ("sent", "net_messages_sent_total", "Messages offered to the network", ()),
        ("delivered", "net_messages_delivered_total",
         "Messages delivered by the network", ()),
        *(
            (f"dropped_{why}", "net_messages_dropped_total",
             "Messages dropped, by reason", (why,))
            for why in ("partition", "loss", "dead")
        ),
    ):
        registry.gauge_callback(
            name, help_text,
            (lambda k: lambda: float(getattr(network_stats(), k)))(key),
            ("reason",) if reason else (), reason,
        )
    registry.gauge_callback(
        "fd_heartbeats_skipped_total",
        "Heartbeat copies not sent because a multicast had just carried"
        " their fields to the same view peer (current incarnations)",
        lambda: float(sum(stack.fd.beats_skipped for stack in stacks())),
    )
    registry.gauge_callback(
        "store_put_multicasts_total",
        "Multicasts that carried store puts (current incarnations); puts"
        " committed over this is puts per multicast",
        lambda: float(
            sum(getattr(stack.app, "put_multicasts", 0) for stack in stacks())
        ),
    )


#: ``transport_stats()`` counters exported as ``transport_<key>_total``.
TRANSPORT_GAUGES = (
    "frames_sent", "bytes_sent", "frames_received", "bytes_received",
    "frames_dropped", "flushes", "write_stalls", "reads", "bad_frames",
    "bad_connections",
)


def register_wire_gauges(
    registry: MetricsRegistry,
    network_stats: Callable[[], NetworkStats],
    transport_stats: Callable[[], Mapping[str, Any]],
    stacks: Callable[[], Iterable[Any]],
) -> None:
    """The :func:`register_net_gauges` set plus the socket-level
    ``transport_*`` gauges (wall-clock runtimes only: frames have no
    simulator analogue), for every registry that serves a realnet node."""
    register_net_gauges(registry, network_stats, stacks)
    for key in TRANSPORT_GAUGES:
        registry.gauge_callback(
            f"transport_{key}_total", f"Transport {key.replace('_', ' ')}",
            (lambda k: lambda: float(transport_stats().get(k, 0)))(key),
        )


# -- wire-counter aggregation ----------------------------------------------


def sum_network_stats(
    parts: Iterable[NetworkStats], detailed: bool
) -> NetworkStats:
    """Cluster-wide wire counters from per-node ones."""
    total = NetworkStats(detailed=detailed)
    for stats in parts:
        total.sent += stats.sent
        total.delivered += stats.delivered
        total.dropped_partition += stats.dropped_partition
        total.dropped_loss += stats.dropped_loss
        total.dropped_dead += stats.dropped_dead
        for name, count in stats.by_type.items():
            total.by_type[name] = total.by_type.get(name, 0) + count
        for name, size in stats.bytes_by_type.items():
            total.bytes_by_type[name] = total.bytes_by_type.get(name, 0) + size
    return total


def sum_transport_stats(parts: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Cluster-wide link/server counters from per-node ones.

    Sums frame, flush, byte and connection counters; ``max_batch`` /
    ``max_frames_per_read`` are cluster-wide maxima.
    """
    total: dict[str, Any] = {}
    for stats in parts:
        for key, value in stats.items():
            if key in ("max_batch", "max_frames_per_read"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


# -- lifecycle helpers -----------------------------------------------------


def new_recorder(config: ClusterConfig, label: str) -> TraceRecorder:
    """A trace recorder at ``config``'s level and capacity."""
    return TraceRecorder(
        level=config.trace_level, capacity=config.trace_capacity, label=label
    )


def crash_stack(
    stack: Any, recorder: TraceRecorder, obs: ClusterObs | None, now: float
) -> bool:
    """Kill ``stack`` and account for it; False if it was not running."""
    if stack is None or not stack.alive:
        return False
    stack.crash()
    recorder.record(CrashEvent(time=now, pid=stack.pid))
    if obs is not None:
        obs.process_crashed(stack.pid, now)
    return True


class ClusterCore:
    """What every runtime adapter inherits.

    An adapter provides ``runtime``, a ``scheduler`` (any
    :class:`~repro.ports.SchedulerPort`; ``None`` until a wall-clock
    adapter is started), ``stacks`` (site -> current stack or stack
    proxy, dead ones included), ``metrics`` / ``flight`` / ``obs`` (from
    :func:`build_observability`), the lifecycle actions (``crash`` /
    ``recover`` / ``join``), its own way of waiting, and
    ``gather_trace`` / ``network_stats``.  Connectivity, the time base,
    fault-schedule arming, the settle predicate and introspection over
    ``stacks`` come from here.
    """

    #: ClusterPort runtime tag (client/workload code branches on it).
    runtime = ""
    #: Backend time per scenario unit at ``scale=1.0``.
    UNIT = 1.0

    scheduler: Any = None
    stacks: Mapping[SiteId, Any]
    metrics: MetricsRegistry
    flight: FlightRecorder | None = None

    def __init__(
        self,
        n_sites: int,
        config: ClusterConfig | None,
        topology: Topology | None = None,
    ) -> None:
        if n_sites < 1:
            raise SimulationError("cluster needs at least one site")
        self.config = config or ClusterConfig()
        self.config.check_supported(self.runtime)
        self.topology = topology or Topology(range(n_sites))
        self._incarnation: dict[SiteId, int] = {}

    def _next_pid(self, site: SiteId) -> ProcessId:
        """A fresh process identifier for ``site`` (next incarnation)."""
        incarnation = self._incarnation.get(site, -1) + 1
        self._incarnation[site] = incarnation
        return ProcessId(site, incarnation)

    # -- connectivity --------------------------------------------------

    def partition(self, groups: Sequence[Sequence[SiteId]]) -> None:
        self.topology.partition(groups)

    def heal(self) -> None:
        self.topology.heal()

    def isolate(self, site: SiteId) -> None:
        self.topology.isolate(site)

    # -- time ----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.scheduler.now if self.scheduler is not None else 0.0

    @property
    def time_scale(self) -> float:
        """Backend time per scenario unit: 1.0 on the simulator (it runs
        *in* scenario units), :data:`SECONDS_PER_UNIT` stretched by
        ``config.scale`` on the wall clock."""
        return self.UNIT * self.config.scale

    def after(self, delay: float, callback: Callable[..., Any], *args: Any) -> Any:
        """Schedule ``callback`` after ``delay`` backend-time units.

        The :class:`~repro.ports.ClusterPort` timer surface — workload
        drivers arm their ticks here instead of touching the backend
        scheduler directly.
        """
        return self.scheduler.after(delay, callback, *args)

    def arm(self, schedule: Any) -> None:
        """Arm a :class:`~repro.net.faults.FaultSchedule` against this
        cluster.

        Action times are scenario units *relative to now*: the schedule
        is scaled by :attr:`time_scale` and shifted by the current time,
        so the same schedule object arms identically on a backend whose
        clock already advanced.  On a fresh simulated cluster
        (``now == 0``) this is exactly the classic
        ``schedule.arm(cluster.scheduler, cluster)``.
        """
        if self.scheduler is None:
            raise SimulationError("cluster is not started; cannot arm")
        schedule.scaled(self.time_scale).shifted(self.now).arm(self.scheduler, self)

    # -- introspection -------------------------------------------------

    def is_settled(self) -> bool:
        """:func:`settled` over the live stacks and the topology."""
        return settled(map(stack_row, self.live_stacks()), self.topology)

    def stack_at(self, site: SiteId) -> Any:
        stack = self.stacks.get(site)
        if stack is None:
            raise SimulationError(f"no process was ever started at site {site}")
        return stack

    def app_at(self, site: SiteId) -> Any:
        """The application object attached to the stack at ``site``."""
        return self.stack_at(site).app

    def live_stacks(self) -> list[Any]:
        return [s for s in self.stacks.values() if s.alive]

    def live_pids(self) -> set[ProcessId]:
        return {s.pid for s in self.live_stacks()}

    def views(self) -> dict[SiteId, str]:
        """Human-readable current view per live site (for debugging)."""
        return {
            site: str(stack.view)
            for site, stack in sorted(self.stacks.items())
            if stack.alive
        }

    def metrics_snapshot(self, source: str = "cluster") -> MetricsSnapshot:
        """Point-in-time metrics copy (the ClusterPort accessor)."""
        return self.metrics.snapshot(source)

    def flight_recorders(self) -> list[FlightRecorder]:
        """Live flight recorders (one per time base); ClusterPort
        accessor used by dump-on-violation and the trace CLI."""
        return [self.flight] if self.flight is not None else []

    def close(self) -> None:
        """Release what no event loop is needed to release; idempotent.
        Nothing on the simulator (part of the ClusterPort contract)."""
