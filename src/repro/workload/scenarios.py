"""Canned fault scenarios used across tests and experiments.

Each builder returns a :class:`~repro.net.faults.FaultSchedule`;
``schedule.horizon`` tells callers how long to run before settling.
:func:`partition_merge` is the one scripted scenario: it calls
``SV-SetMerge`` on the stacks between faults, so it drives a
:class:`~repro.ports.ClusterPort` itself instead of returning a schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.net.faults import Crash, FaultSchedule, Heal, Join, Partition, Recover
from repro.ports import ClusterPort
from repro.trace.checks import CheckReport, check_cluster


def clean_scenario() -> FaultSchedule:
    """No faults at all: bootstrap and quiesce."""
    return FaultSchedule()


def minority_split(
    n_sites: int, minority: int | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Majority and minority site groups (one third by default)."""
    minority = minority if minority is not None else max(1, n_sites // 3)
    return tuple(range(n_sites - minority)), tuple(range(n_sites - minority, n_sites))


def partition_heal_scenario(
    n_sites: int,
    split_at: float = 150.0,
    heal_at: float = 400.0,
    minority: int | None = None,
) -> FaultSchedule:
    """One partition into majority + minority, later repaired."""
    schedule = FaultSchedule()
    schedule.add(Partition(split_at, minority_split(n_sites, minority)))
    schedule.add(Heal(heal_at))
    return schedule


def cascade_scenario(
    n_sites: int,
    first_crash: float = 150.0,
    gap: float = 60.0,
    crashes: int = 2,
    recover_after: float = 200.0,
) -> FaultSchedule:
    """Successive crashes followed by staggered recoveries."""
    crashes = min(crashes, n_sites - 1)
    schedule = FaultSchedule()
    for i in range(crashes):
        t_crash = first_crash + i * gap
        schedule.add(Crash(t_crash, i))
        schedule.add(Recover(t_crash + recover_after, i))
    return schedule


def total_failure_scenario(
    n_sites: int,
    first_crash: float = 150.0,
    gap: float = 25.0,
    recover_gap: float = 30.0,
) -> FaultSchedule:
    """Everybody crashes (staggered, so there is a meaningful last
    process to fail), then everybody recovers — the state creation
    scenario of Section 4."""
    schedule = FaultSchedule()
    last = first_crash
    for i in range(n_sites):
        last = first_crash + i * gap
        schedule.add(Crash(last, i))
    for i in range(n_sites):
        schedule.add(Recover(last + 100.0 + i * recover_gap, i))
    return schedule


def join_wave_scenario(
    initial_sites: int,
    joiners: int,
    first_join: float = 150.0,
    gap: float = 5.0,
) -> FaultSchedule:
    """``joiners`` new sites join an established group near-simultaneously
    — the workload of the Section 5 merge-cost analysis (E5)."""
    schedule = FaultSchedule()
    for i in range(joiners):
        schedule.add(Join(first_join + i * gap, initial_sites + i))
    return schedule


def figure2_scenario(
    split_at: float = 150.0,
    heal_at: float = 400.0,
) -> FaultSchedule:
    """The structure of Figure 2 on six sites: a partition separates
    {0,1,2,3} from {4,5}; both sides operate; the repair merges them,
    and the e-view of the merged view preserves who-was-with-whom."""
    schedule = FaultSchedule()
    schedule.add(Partition(split_at, ((0, 1, 2, 3), (4, 5))))
    schedule.add(Heal(heal_at))
    return schedule


@dataclass
class PartitionMergeReport:
    """What :func:`partition_merge` observed, for printing or asserting."""

    converged: bool  # every settle and wait met its bound
    concurrent_views: int  # distinct views while partitioned
    svsets_after_heal: int
    svsets_after_merge: int
    dropped_partition: int  # frames the partition destroyed
    reports: list[CheckReport] = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        return [v for r in self.reports for v in r.violations]

    @property
    def ok(self) -> bool:
        """Two concurrent e-views, a partition that really cut frames, a
        heal that kept its structure, one ``SV-SetMerge`` that unified
        it, no violation."""
        return (
            self.converged
            and self.concurrent_views == 2
            and self.dropped_partition > 0
            and self.svsets_after_heal >= 2
            and self.svsets_after_merge == 1
            and not self.violations
        )


def _svsets(stack: Any) -> int:
    return len(stack.eview.structure.svsets) if stack.eview is not None else 0


def partition_merge(
    cluster: ClusterPort, say: Callable[[str], None] = lambda _line: None
) -> PartitionMergeReport:
    """The paper's central scenario on a :class:`~repro.ports.ClusterPort`:

    1. bootstrap into one view;
    2. partition a majority from a minority: each side installs its own
       view, so two e-views exist concurrently;
    3. ``SV-SetMerge`` on each side, leaving one sv-set per side;
    4. heal: the merged view's e-view keeps one sv-set per former side
       (Property 6.3, structure preservation);
    5. ``SV-SetMerge`` once more, applied in the same order at every
       member (Properties 6.1/6.2);
    6. the property checks over the gathered trace.

    ``say`` receives the narration, one line per call.  Stack calls are
    armed with ``cluster.after``, so on the wall clock they run on the
    loop thread.  Every wait has the default settle bound of
    :func:`~repro.workload.runner.run_checked_workload`: 600 scenario
    units, polled every 10, times ``time_scale``.  The e-views are read
    in-process, so realnet-proc cannot run it.
    """
    scale = cluster.time_scale
    bound = dict(timeout=600.0 * scale, poll=10.0 * scale)
    converged = True

    def wait(predicate: Callable[[Any], Any] | None = None) -> None:
        nonlocal converged
        if predicate is None:
            converged = cluster.settle(**bound) and converged
        else:
            converged = cluster.wait_until(predicate, **bound) and converged

    def show(title: str) -> None:
        say(title)
        for stack in sorted(cluster.live_stacks(), key=lambda s: s.pid.site):
            svsets = stack.eview.structure.svsets if stack.eview else ()
            say(f"  site {stack.pid.site}: {stack.view}  sv-sets "
                + " ".join(map(str, svsets)))

    def merge_at(*sites: int) -> None:
        """``SV-SetMerge`` everything at each of ``sites``, then wait until
        every live stack holds one sv-set."""
        called: list[int] = []

        def call(stack: Any) -> None:
            stack.sv_set_merge([ss.ssid for ss in stack.eview.structure.svsets])
            called.append(stack.pid.site)

        for site in sites:
            cluster.after(0.0, call, cluster.stack_at(site))
        wait(lambda c: len(called) == len(sites)
             and all(_svsets(s) == 1 for s in c.live_stacks()))

    wait()
    show(f"group formed at t={cluster.now:.2f}:")
    left, right = minority_split(len(cluster.live_pids()))
    cluster.partition([left, right])
    wait()
    concurrent = len({s.current_view_id() for s in cluster.live_stacks()})
    show(f"\npartitioned {list(left)} | {list(right)}: {concurrent} concurrent e-views")
    merge_at(left[0], right[0])
    show("\nSV-SetMerge on each side:")
    cluster.heal()
    wait()
    after_heal = _svsets(cluster.stack_at(0))
    show(f"\nhealed: {after_heal} sv-sets, one per former side (Property 6.3)")
    merge_at(0)
    after_merge = _svsets(cluster.stack_at(0))
    show(f"\nSV-SetMerge after the heal: {after_merge} sv-set (Properties 6.1/6.2)")
    reports = check_cluster(cluster)
    say("\nproperty checks:")
    for report in reports:
        say(f"  {report}")
    stats = cluster.network_stats()
    say(f"\nnetwork: {stats.sent} sent, {stats.delivered} delivered, "
        f"{stats.dropped_partition} dropped by the partition")
    return PartitionMergeReport(
        converged=converged,
        concurrent_views=concurrent,
        svsets_after_heal=after_heal,
        svsets_after_merge=after_merge,
        dropped_partition=stats.dropped_partition,
        reports=reports,
    )
