"""Backend ports: the contracts between protocols and their runtime.

The protocol layers (:mod:`repro.fd`, :mod:`repro.gms`, :mod:`repro.vsync`,
:mod:`repro.evs`) never name a concrete scheduler or network class — they
talk to whatever their :class:`~repro.sim.process.Process` was wired to.
Historically those contracts were implicit duck types defined by the
simulator; this module states them explicitly so every backend — the
deterministic discrete-event simulator (:mod:`repro.sim` +
:mod:`repro.net`) and the asyncio real-network runtime
(:mod:`repro.realnet`) — is checked against the *same* interface, by the
type checker and by the conformance tests in
``tests/test_realnet_unit.py``.

Three ports exist:

:class:`SchedulerPort`
    A clock plus two scheduling lanes.  The cancellable lane
    (:meth:`~SchedulerPort.at` / :meth:`~SchedulerPort.after`) returns a
    :class:`CancellableEvent` handle — timers use it.  The fire-and-forget
    lane (:meth:`~SchedulerPort.fire_at` / :meth:`~SchedulerPort.fire_after`)
    allocates no handle — message deliveries use it.  ``now`` is *backend
    time*: virtual units in the simulator, seconds since backend start on
    a wall clock.  Protocol code must only ever compare or difference
    ``now`` values, never interpret them absolutely.

:class:`NetworkPort`
    Registration plus the four transmission calls the stack uses:
    point-to-point and multicast, each in process-addressed and
    site-addressed (reach-the-current-incarnation) flavours.  All four
    are fire-and-forget and may silently drop — every protocol above is
    written to tolerate loss.

:class:`ClusterPort`
    The contract one layer up: what the harness code *around* the stacks
    (workload clients, fault scenarios, trace-based property checks,
    the CLI) needs from a running cluster, regardless
    of which backend drives it.  The simulator's
    :class:`~repro.runtime.cluster.Cluster` satisfies it natively; the
    wall-clock runtimes satisfy it through the blocking
    :class:`~repro.realnet.driver.RealClusterDriver` facade (the
    adapter underneath — :class:`~repro.realnet.cluster.RealCluster` or
    :class:`~repro.realnet.proc_driver.ProcCluster` — exposes the same
    surface with ``async`` waiting methods for asyncio-native callers).
    All three adapters share :mod:`repro.runtime.core`, and
    :func:`make_cluster` builds any of them behind the port, so
    consumers never name a concrete cluster class.

Keep this module import-light: it must be importable from
:mod:`repro.sim.process` without touching :mod:`repro.net` (which imports
the process module back).  Runtime modules are only imported lazily,
inside :func:`make_cluster`.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Callable, Iterable, Protocol, runtime_checkable

from repro.types import ProcessId, SiteId

if TYPE_CHECKING:  # heavy imports: types only, never at runtime
    from repro.net.faults import FaultSchedule
    from repro.trace.recorder import TraceRecorder


@runtime_checkable
class CancellableEvent(Protocol):
    """Handle for a scheduled callback that may be rescinded.

    ``cancel`` must be idempotent and must be safe to call after the
    event has already fired (a no-op in that case).
    """

    def cancel(self) -> None: ...


@runtime_checkable
class ProcessPort(Protocol):
    """What a network backend needs from a registered process."""

    pid: ProcessId
    alive: bool
    #: Set by the backend while it hands over one batch of input.
    input_batch: bool

    def attach(self, network: "NetworkPort") -> None: ...

    def deliver_network(self, src: ProcessId, payload: Any) -> None: ...

    def end_input_batch(self) -> None: ...


@runtime_checkable
class SchedulerPort(Protocol):
    """Clock + timer service shared by every backend.

    Backends differ in what ``now`` means and in how strictly they treat
    the past: the simulator raises on an attempt to schedule before
    ``now`` (it would break determinism), a wall-clock backend clamps it
    to "as soon as possible" (the wall clock moves between reading
    ``now`` and scheduling, so a marginally-past deadline is normal, not
    a bug).  Protocol code only ever schedules relative to ``now``, so
    both behaviours are indistinguishable to it.
    """

    @property
    def now(self) -> float: ...

    def at(self, time: float, callback: Any, *args: Any) -> CancellableEvent: ...

    def after(self, delay: float, callback: Any, *args: Any) -> CancellableEvent: ...

    def fire_at(self, time: float, callback: Any, *args: Any) -> None: ...

    def fire_after(self, delay: float, callback: Any, *args: Any) -> None: ...


@runtime_checkable
class NetworkPort(Protocol):
    """Transmission service shared by every backend.

    All sends are fire-and-forget and lossy; None of these calls may
    raise on an unreachable / unknown / crashed destination — they drop
    (and account for) the payload instead.  ``send_to_site`` and
    ``multicast_sites`` address *sites* rather than process
    incarnations: they reach whichever incarnation currently lives
    there, which is how heartbeats and join probes find a recovered
    process without knowing its fresh identifier.
    """

    def register(self, process: ProcessPort) -> None: ...

    def send(self, src: ProcessId, dst: ProcessId, payload: Any) -> None: ...

    def multicast(
        self, src: ProcessId, dsts: Iterable[ProcessId], payload: Any
    ) -> None: ...

    def send_to_site(self, src: ProcessId, site: SiteId, payload: Any) -> None: ...

    def multicast_sites(
        self, src: ProcessId, sites: Iterable[SiteId], payload: Any
    ) -> None: ...


@runtime_checkable
class ClusterPort(Protocol):
    """Runtime-agnostic contract of a running cluster.

    Everything above the protocol stacks — workload clients, fault
    scenarios, property checks, the CLI — drives a
    cluster exclusively through this surface, so the same harness code
    runs over simulated time and over real sockets.

    **Time.**  ``now`` is backend time (virtual units in the simulator,
    wall seconds on the real network) and ``time_scale`` is the bridge
    between them: the backend-time cost of one *scenario unit*, the
    unit every :class:`~repro.net.faults.FaultSchedule` and workload
    interval is written in.  The simulator's scale is ``1.0``; the
    realnet runtime maps one scenario unit onto its timer profile
    (~0.01 wall seconds per unit at ``scale=1.0``), mirroring how
    :func:`~repro.realnet.node.realnet_stack_config` scales the
    protocol timers themselves.  Multiply scenario quantities by
    ``time_scale`` before handing them to ``run_for`` / ``settle`` /
    ``wait_until`` / ``after``, which all speak backend time.

    **Waiting.**  All waiting methods block the caller and take hard
    timeouts: ``run_for`` advances/passes a backend-time duration,
    ``settle`` waits for membership convergence
    (:func:`repro.runtime.core.settled`, the one definition on every
    runtime), ``wait_until`` polls an arbitrary predicate (see there).
    On the simulator blocking is free (virtual time); on the real
    network the blocking facade parks the calling thread while the event
    loop runs.

    **Lifecycle.**  The environment actions are a superset of
    :class:`~repro.net.faults.FaultTarget`, so a declarative fault
    schedule applies to any backend; ``arm`` schedules a whole
    :class:`~repro.net.faults.FaultSchedule` (written in scenario
    units) against this cluster.  ``recover`` and ``join`` return the
    fresh :class:`~repro.vsync.stack.GroupStack` on both backends.

    **Introspection.**  ``gather_trace`` returns one recorder holding
    the whole execution history — the simulator's single shared
    recorder, or the realnet per-node recorders merged by
    :meth:`~repro.trace.recorder.TraceRecorder.merge` — which is what
    the property checkers consume.  ``close`` releases backend
    resources (sockets, threads); it is a no-op on the simulator and
    idempotent everywhere.
    """

    #: Which backend this port fronts: one of :data:`RUNTIMES`.
    runtime: str

    # -- time ----------------------------------------------------------

    @property
    def now(self) -> float: ...

    @property
    def time_scale(self) -> float: ...

    def run_for(self, duration: float) -> float: ...

    def settle(self, timeout: float = ..., poll: float = ...) -> bool: ...

    def wait_until(
        self, predicate: Callable[[Any], Any], timeout: float = ..., poll: float = ...
    ) -> bool:
        """Block until ``predicate(cluster)`` is truthy or ``timeout``
        backend-time units pass; returns whether it became true.

        One rule on every runtime: the predicate is called with the port
        object, **on the calling thread**, once per ``poll``, and may
        call any port method — including the blocking ones.  (On the
        wall-clock runtimes that means it does *not* run on the event
        loop; reads of stack state are point-in-time, and a
        ``wait_until`` issued from a loop-thread callback is refused
        like every other blocking call.)
        """
        ...

    def is_settled(self) -> bool: ...

    def after(self, delay: float, callback: Any, *args: Any) -> CancellableEvent: ...

    # -- lifecycle / environment actions -------------------------------

    def crash(self, site: SiteId) -> None: ...

    def recover(self, site: SiteId) -> Any: ...

    def join(self, site: SiteId) -> Any: ...

    def partition(self, groups: Any) -> None: ...

    def heal(self) -> None: ...

    def isolate(self, site: SiteId) -> None: ...

    def arm(self, schedule: "FaultSchedule") -> None: ...

    def close(self) -> None: ...

    # -- introspection -------------------------------------------------

    def stack_at(self, site: SiteId) -> Any: ...

    def app_at(self, site: SiteId) -> Any: ...

    def live_stacks(self) -> list[Any]: ...

    def live_pids(self) -> set[ProcessId]: ...

    def views(self) -> dict[SiteId, str]: ...

    def gather_trace(self) -> "TraceRecorder": ...

    def network_stats(self) -> Any: ...

    @property
    def metrics(self) -> Any: ...

    def metrics_snapshot(self, source: str = "cluster") -> Any: ...


#: runtime -> (module, adapter class); imported lazily so this module
#: stays import-light for :mod:`repro.sim.process`.
_ADAPTERS = {
    "sim": ("repro.runtime.cluster", "Cluster"),
    "realnet": ("repro.realnet.cluster", "RealCluster"),
    "realnet-proc": ("repro.realnet.proc_driver", "ProcCluster"),
}

#: Names accepted by :func:`make_cluster`.
RUNTIMES = tuple(_ADAPTERS)


def make_cluster(
    runtime: str,
    n_sites: int,
    app_factory: Callable[[ProcessId], Any] | None = None,
    **knobs: Any,
) -> ClusterPort:
    """Build a cluster of ``n_sites`` behind the :class:`ClusterPort`.

    One construction path for every runtime: ``knobs`` become a
    :class:`~repro.runtime.core.ClusterConfig` (``seed``, ``loss_prob``,
    ``trace_level``, ``scale``, ``codec``, ``fd_mode``, ``app``, ... —
    see its field table), ``runtime`` picks the adapter, and a
    non-default field that runtime cannot honour is a ``ValueError``
    naming it (``fifo_links=False`` off the simulator, an
    ``app_factory`` closure on ``realnet-proc``).  ``"sim"`` returns the
    :class:`~repro.runtime.cluster.Cluster` itself; the wall-clock
    runtimes return their adapter wrapped in the blocking
    :class:`~repro.realnet.driver.RealClusterDriver`, already started
    and ready for synchronous calls.

    Callers own the result's lifetime: ``close()`` it (or use
    ``contextlib.closing``) when done — mandatory on the wall clock,
    where it tears down sockets, child processes and the loop thread.
    """
    if runtime not in _ADAPTERS:
        raise ValueError(f"unknown runtime {runtime!r}; pick one of {RUNTIMES}")
    from repro.runtime.core import ClusterConfig

    module, name = _ADAPTERS[runtime]
    adapter = getattr(importlib.import_module(module), name)(
        n_sites, app_factory, ClusterConfig(**knobs)
    )
    if runtime == "sim":
        return adapter
    from repro.realnet.driver import RealClusterDriver

    return RealClusterDriver(adapter).start()
