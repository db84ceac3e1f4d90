"""One harness, two runtimes: checked workload runs over any cluster.

:func:`run_checked_workload` is the one way to run a fault schedule: it
drives an already-built :class:`~repro.ports.ClusterPort` — simulated or
real-network — through a scenario-unit
:class:`~repro.net.faults.FaultSchedule` and a mix of workload clients,
settles, gathers the (merged) trace and runs the paper's property checks
over it.  The CLI's ``run``/``check`` commands, the paper's experiments,
the realnet workload smoke tests and the sim-vs-realnet bench all call
it (or its open-loop sibling :func:`run_client_load`); none of them name
a concrete cluster class.

Every duration parameter is in scenario units; the harness converts via
the cluster's :attr:`~repro.ports.ClusterPort.time_scale`, so the same
call is a 650-virtual-unit simulated run or a ~6.5-wall-second loopback
run.  The cluster is *not* closed here — the caller owns its lifetime
(and may want stats or more traffic afterwards).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.net.faults import FaultSchedule
from repro.obs.tracing import dump_on_violations
from repro.ports import ClusterPort
from repro.trace.checks import (
    PROPERTIES,
    STORE_CHECKS,
    CheckContext,
    CheckReport,
    make_checkers,
    run_checkers,
)
from repro.trace.recorder import TraceRecorder

#: Build a workload driver for a cluster (e.g. ``MulticastClient``).
ClientFactory = Callable[[ClusterPort], Any]


@dataclass
class WorkloadReport:
    """Everything a checked workload run produced."""

    runtime_now: float  # backend time when the run finished
    settled: bool
    schedule_actions: int
    horizon: float  # scenario units, including the settle tail
    trace: TraceRecorder
    reports: list[CheckReport] = field(default_factory=list)
    clients: list[Any] = field(default_factory=list)
    check_wall_s: float = 0.0
    #: MetricsSnapshot taken after the checks — every checked workload
    #: gets a metrics artifact alongside its trace.
    metrics: Any = None

    @property
    def events_checked(self) -> int:
        return sum(r.checked for r in self.reports)

    @property
    def violations(self) -> list[str]:
        return [v for r in self.reports for v in r.violations]

    @property
    def ok(self) -> bool:
        return self.settled and not self.violations


def run_checked_workload(
    cluster: ClusterPort,
    schedule: FaultSchedule | None = None,
    client_factories: Sequence[ClientFactory] = (),
    *,
    tail: float = 250.0,
    settle_timeout: float = 600.0,
    settle_poll: float = 10.0,
    checkers: Sequence[str] = (),
) -> WorkloadReport:
    """Run ``schedule`` + clients on ``cluster``, settle, check, report.

    The flow, identical on both runtimes:

    1. start one client per factory (ticks arm on the cluster's own
       scheduler, paced by ``time_scale``);
    2. arm the fault schedule (scenario units, relative to now);
    3. let ``schedule.horizon + tail`` scenario units elapse;
    4. stop the clients and wait up to ``settle_timeout`` scenario
       units for membership to converge;
    5. gather the trace — the simulator's shared recorder, or the
       realnet per-node recorders merged — and run the paper's
       property checks, then the named ``checkers`` from
       :data:`~repro.trace.checks.CHECKS`.
    """
    scale = cluster.time_scale
    schedule = schedule if schedule is not None else FaultSchedule()
    clients = [factory(cluster) for factory in client_factories]
    for client in clients:
        client.start()
    cluster.arm(schedule)
    cluster.run_for((schedule.horizon + tail) * scale)
    for client in clients:
        client.stop()
    return _settle_and_check(
        cluster, schedule, tail, settle_timeout, settle_poll, clients, checkers
    )


def _settle_and_check(
    cluster: ClusterPort,
    schedule: FaultSchedule,
    tail: float,
    settle_timeout: float,
    settle_poll: float,
    clients: list[Any],
    checkers: Sequence[str],
) -> WorkloadReport:
    """The tail every checked run ends in: settle, gather the trace, run
    the property checks plus the named ``checkers``, snapshot the
    metrics and report.  Everything after the settle only reads state."""
    scale = cluster.time_scale
    settled = cluster.settle(
        timeout=settle_timeout * scale, poll=settle_poll * scale
    )
    t0 = time.perf_counter()
    trace = cluster.gather_trace()
    names = dict.fromkeys((*PROPERTIES, *checkers))  # in order, once each
    reports = run_checkers(
        trace, make_checkers(names), CheckContext(time_scale=scale)
    )
    check_wall = time.perf_counter() - t0
    report = WorkloadReport(
        runtime_now=cluster.now,
        settled=settled,
        schedule_actions=len(schedule.actions),
        horizon=schedule.horizon + tail,
        trace=trace,
        reports=reports,
        clients=clients,
        check_wall_s=check_wall,
        metrics=cluster.metrics_snapshot(),
    )
    # Black box: a tripped checker freezes each flight recorder's recent
    # causal history to disk (no-op when tracing is off).
    dump_on_violations(cluster, report.violations)
    return report


@dataclass
class ClientLoadReport:
    """A checked run under open-loop client load.

    Bundles the usual :class:`WorkloadReport` (trace, property checks,
    metrics) with what the load generator measured
    (:class:`~repro.workload.openloop.LoadReport`) and the SLO verdict
    derived from the cluster's latency histograms.
    """

    workload: WorkloadReport
    load: Any  # repro.workload.openloop.LoadReport
    verdict: Any  # repro.workload.openloop.SloVerdict

    @property
    def ok(self) -> bool:
        return self.workload.ok and self.load.completed > 0


def run_client_load(
    cluster: ClusterPort,
    spec: Any,
    schedule: FaultSchedule | None = None,
    *,
    tail: float = 250.0,
    settle_timeout: float = 600.0,
    settle_poll: float = 10.0,
    slo_p99: float = 50.0,
    checkers: Sequence[str] = STORE_CHECKS,
) -> ClientLoadReport:
    """Open-loop client load plus a fault schedule, then the checks.

    The client-tier sibling of :func:`run_checked_workload`: instead of
    closed-loop workload drivers it runs an
    :class:`~repro.workload.openloop.OpenLoopLoad` with ``spec``
    (**backend-time** rate/duration, like the spec itself) against an
    armed scenario-unit fault schedule, settles, and checks the merged
    trace — the paper's property checks plus the named ``checkers``
    (by default the store's: ``AckedWriteLoss``, no write acked to a
    client may vanish across the run's partitions and settlements; and
    ``ReplicaDivergence``, the replicas of one component hold every
    key's versions in one order).  ``slo_p99`` is in scenario units and
    converted via ``time_scale``, like every other duration here.

    The load starts against a *formed* group (an initial settle), so
    the latency histograms price faults, not bootstrap.
    """
    from repro.workload.openloop import OpenLoopLoad, slo_verdict

    scale = cluster.time_scale
    schedule = schedule if schedule is not None else FaultSchedule()
    cluster.settle(timeout=settle_timeout * scale, poll=settle_poll * scale)
    start = cluster.now
    cluster.arm(schedule)
    load_report = OpenLoopLoad(cluster, spec).run()
    # The load grid may end before the fault horizon does; let the rest
    # of the schedule (plus the settle tail) play out before checking.
    remaining = start + schedule.horizon * scale - cluster.now
    cluster.run_for(max(0.0, remaining) + tail * scale)
    return ClientLoadReport(
        workload=_settle_and_check(
            cluster, schedule, tail, settle_timeout, settle_poll, [], checkers
        ),
        load=load_report,
        verdict=slo_verdict(cluster, slo_p99 * scale),
    )
