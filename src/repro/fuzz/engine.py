"""The coverage-guided fuzzing loop.

One iteration = one checked workload run: build a cluster (any
:func:`~repro.ports.make_cluster` runtime), drive it through a fault
schedule plus a client workload, then judge the merged trace by the
paper's property checks and the named sequence-pattern detectors
(both from :data:`repro.trace.checks.CHECKS`, run by
:func:`~repro.workload.runner.run_checked_workload`).  The run's
protocol-coverage signature (:mod:`repro.fuzz.signature`) decides its
fate: runs contributing unseen features join the corpus and become
mutation parents; failing runs additionally get shrunk
(:mod:`repro.fuzz.shrink`) into minimal reproducers.

Outcome counters flow through the same :class:`MetricsRegistry` the
runtimes use, so a campaign exports ``fuzz_runs_total{outcome=...}``
next to protocol metrics.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.fuzz import bugs
from repro.fuzz.corpus import Corpus, CorpusEntry, WorkloadSpec
from repro.fuzz.mutate import mutate, normalize_schedule
from repro.fuzz.shrink import ShrinkResult, shrink_entry
from repro.fuzz.signature import coverage_signature
from repro.obs.registry import MetricsRegistry
from repro.ports import make_cluster
from repro.trace.checks import make_checkers
from repro.workload.generator import RandomFaultGenerator
from repro.workload.runner import run_checked_workload


@dataclass
class FuzzConfig:
    """Knobs of one fuzz campaign."""

    runtime: str = "sim"
    n_sites: int = 5
    app: str = "file"
    seed: int = 0
    loss_prob: float = 0.0
    #: Stop after this many iterations (None = no iteration cap).
    iterations: int | None = 50
    #: Stop after this many wall seconds (None = no time cap).
    time_budget_s: float | None = None
    #: Detectors to run besides the properties (None = all of them).
    checkers: tuple[str, ...] | None = None
    #: Arm this planted bug for every run (test-only hook).
    planted_bug: str | None = None
    #: Include asymmetric one-way cuts in generated schedules.
    asymmetric: bool = False
    #: Scenario-unit shape of generated schedules.
    fault_start: float = 120.0
    fault_duration: float = 450.0
    mean_gap: float = 60.0
    tail: float = 250.0
    settle_timeout: float = 600.0
    #: Probability of generating a fresh seed schedule instead of
    #: mutating a corpus parent.
    fresh_prob: float = 0.25
    #: Oracle-call budget for each automatic shrink.
    shrink_budget: int = 80
    #: Shrink failures as they are found (disable to just collect).
    auto_shrink: bool = True

    def workload(self) -> WorkloadSpec:
        return WorkloadSpec(app=self.app, n_sites=self.n_sites, tail=self.tail)


@dataclass
class FuzzStats:
    """What a campaign did, for reports and tests."""

    iterations: int = 0
    failures: int = 0
    novel: int = 0
    features: int = 0
    wall_s: float = 0.0
    shrunk: list[str] = field(default_factory=list)  # entry ids
    first_failure: CorpusEntry | None = None


class FuzzEngine:
    """Drives the generate -> execute -> judge -> mutate loop."""

    def __init__(
        self,
        config: FuzzConfig,
        corpus: Corpus | None = None,
        metrics: MetricsRegistry | None = None,
        log: Callable[[str], None] | None = None,
    ) -> None:
        self.config = config
        self.corpus = corpus if corpus is not None else Corpus()
        self.rng = random.Random(config.seed)
        self.checkers = [name for name, _check in make_checkers(config.checkers)]
        self.metrics = (
            metrics
            if metrics is not None
            else MetricsRegistry(clock=time.monotonic, runtime="fuzz")
        )
        self._runs = self.metrics.counter(
            "fuzz_runs_total",
            "fuzz iterations by outcome (failing/novel/boring/unsettled)",
            ("outcome",),
        )
        self._features = self.metrics.counter(
            "fuzz_features_total", "novel coverage features discovered"
        )
        self._checker_hits = self.metrics.counter(
            "fuzz_checker_violations_total",
            "violations reported, by checker",
            ("checker",),
        )
        self._shrink_runs = self.metrics.counter(
            "fuzz_shrink_oracle_runs_total", "replays spent shrinking"
        )
        self._log = log if log is not None else (lambda line: None)

    # -- one run -----------------------------------------------------------

    def execute_entry(self, entry: CorpusEntry) -> CorpusEntry:
        """Replay one entry on a fresh cluster; fill in its verdicts."""
        config = self.config
        spec = entry.workload
        planted = entry.planted_bug
        prior_env = os.environ.get("REPRO_FUZZ_BUG")
        if planted and config.runtime == "realnet-proc":
            # Child processes arm the bug from the environment.
            os.environ["REPRO_FUZZ_BUG"] = planted
        try:
            with bugs.planted(planted):
                cluster = make_cluster(
                    config.runtime,
                    spec.n_sites,
                    app=spec.app,
                    seed=entry.seed,
                    loss_prob=entry.loss_prob,
                )
                try:
                    report = run_checked_workload(
                        cluster,
                        entry.schedule,
                        spec.client_factories(),
                        tail=spec.tail,
                        settle_timeout=config.settle_timeout,
                        checkers=self.checkers,
                    )
                finally:
                    cluster.close()
        finally:
            if planted and config.runtime == "realnet-proc":
                if prior_env is None:
                    os.environ.pop("REPRO_FUZZ_BUG", None)
                else:
                    os.environ["REPRO_FUZZ_BUG"] = prior_env
        failing: list[str] = []
        violations: list[str] = []
        for check in report.reports:
            if not check.ok:
                failing.append(check.name)
                violations.extend(check.violations)
                self._checker_hits.labels(check.name).inc(
                    len(check.violations) or 1
                )
        if not report.settled:
            failing.append("Unsettled")
            violations.append(
                f"membership did not converge within "
                f"{self.config.settle_timeout:g} scenario units"
            )
        return replace(
            entry,
            signature=coverage_signature(report.trace),
            failing_checkers=tuple(failing),
            violations=tuple(violations),
        )

    # -- schedule sources --------------------------------------------------

    def seed_entry(self) -> CorpusEntry:
        """A fresh random entry from the schedule generator."""
        config = self.config
        gen_seed = self.rng.randrange(2**31)
        schedule = RandomFaultGenerator(
            n_sites=config.n_sites,
            seed=gen_seed,
            start=config.fault_start,
            duration=config.fault_duration,
            mean_gap=config.mean_gap,
            asymmetric=config.asymmetric,
        ).generate()
        return CorpusEntry(
            schedule=schedule,
            workload=config.workload(),
            seed=self.rng.randrange(2**31),
            loss_prob=config.loss_prob,
            kind="seed",
            planted_bug=config.planted_bug,
        )

    def mutant_entry(self, parent: CorpusEntry) -> CorpusEntry:
        """Mutate a corpus parent (occasionally splicing another)."""
        others = [
            e
            for e in self.corpus.entries.values()
            if e.entry_id != parent.entry_id
        ]
        other = self.rng.choice(others).schedule if others else None
        child_schedule = mutate(
            parent.schedule, self.rng, self.config.n_sites, other
        )
        child = parent.with_schedule(child_schedule)
        return replace(
            child,
            kind="mutant",
            parent=parent.entry_id,
            seed=self.rng.randrange(2**31),
        )

    def next_entry(self) -> CorpusEntry:
        parents = list(self.corpus.entries.values())
        if not parents or self.rng.random() < self.config.fresh_prob:
            return self.seed_entry()
        # Rarity-weighted parent selection: entries carrying features
        # few corpus members share get proportionally more mutation
        # budget, pushing the campaign toward the frontier instead of
        # re-mutating the crowd around common coverage.
        weights = [self.corpus.rarity_weight(p) for p in parents]
        return self.mutant_entry(self.rng.choices(parents, weights=weights)[0])

    # -- the campaign ------------------------------------------------------

    def run(self) -> FuzzStats:
        """Fuzz until the iteration or time budget is exhausted."""
        config = self.config
        stats = FuzzStats()
        t0 = time.monotonic()
        while True:
            if (
                config.iterations is not None
                and stats.iterations >= config.iterations
            ):
                break
            if (
                config.time_budget_s is not None
                and time.monotonic() - t0 >= config.time_budget_s
            ):
                break
            entry = self.next_entry()
            executed = self.execute_entry(entry)
            stats.iterations += 1
            fresh = self.corpus.novel_features(executed.signature)
            real_failure = any(
                name != "Unsettled" for name in executed.failing_checkers
            )
            if real_failure:
                outcome = "failing"
                stats.failures += 1
                if stats.first_failure is None:
                    stats.first_failure = executed
                self._log(
                    f"[{stats.iterations}] FAIL "
                    f"{','.join(executed.failing_checkers)} "
                    f"({len(executed.schedule.actions)} actions)"
                )
            elif executed.failing_checkers:  # only "Unsettled" left
                outcome = "unsettled"
            elif fresh:
                outcome = "novel"
                stats.novel += 1
                self._log(
                    f"[{stats.iterations}] +{len(fresh)} features "
                    f"({len(self.corpus.seen) + len(fresh)} total)"
                )
            else:
                outcome = "boring"
            self._runs.labels(outcome).inc()
            self._features.labels().inc(len(fresh))
            if fresh or real_failure:
                self.corpus.add(executed)
            if real_failure and config.auto_shrink:
                shrunk, result = self.shrink(executed)
                stats.shrunk.append(shrunk.entry_id)
                self._log(
                    f"    shrunk to {len(shrunk.schedule.actions)} actions "
                    f"in {result.oracle_calls} replays"
                )
        stats.features = len(self.corpus.seen)
        stats.wall_s = time.monotonic() - t0
        return stats

    def shrink(
        self, entry: CorpusEntry, max_oracle_calls: int | None = None
    ) -> tuple[CorpusEntry, ShrinkResult]:
        """Reduce a failing entry to a minimal reproducer; corpus gets
        the shrunk entry."""
        budget = (
            max_oracle_calls
            if max_oracle_calls is not None
            else self.config.shrink_budget
        )

        def execute(candidate: CorpusEntry) -> CorpusEntry:
            self._shrink_runs.labels().inc()
            return self.execute_entry(candidate)

        shrunk, result = shrink_entry(
            entry, execute, max_oracle_calls=budget
        )
        self.corpus.add(shrunk)
        return shrunk, result

    # -- replay ------------------------------------------------------------

    def replay(self, entry: CorpusEntry) -> tuple[bool, CorpusEntry]:
        """Re-execute an entry; True iff it reproduces its verdict.

        A failing entry reproduces when every checker it recorded fails
        again; a clean entry reproduces when no checker fails.
        """
        executed = self.execute_entry(entry)
        if entry.failing_checkers:
            ok = set(entry.failing_checkers) <= set(executed.failing_checkers)
        else:
            ok = not executed.failed
        return ok, executed


def quick_entry(
    schedule_actions: Any = None, **config_kwargs: Any
) -> CorpusEntry:
    """Convenience for tests: an entry around a literal schedule."""
    from repro.net.faults import FaultSchedule

    config = FuzzConfig(**config_kwargs)
    schedule = FaultSchedule(list(schedule_actions or []))
    return CorpusEntry(
        schedule=normalize_schedule(schedule, config.n_sites),
        workload=config.workload(),
        seed=config.seed,
        loss_prob=config.loss_prob,
        planted_bug=config.planted_bug,
    )
