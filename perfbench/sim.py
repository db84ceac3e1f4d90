"""The three simulator workloads, run in the benchmark process.

Virtual-time results (latencies, settle times, event and message counts)
repeat exactly, so each run repeats its scenario and requires those
numbers to be equal across repetitions; wall and CPU time are what vary.
They are CPU-bound, so they are reported *calibrated* against host-speed
probes taken between chunks of the work (:mod:`perfbench.calibrate`), as
medians over repetitions.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from repro.apps.factories import app_factory
from repro.client.sim import SimStoreClient
from repro.fuzz.checkers import CheckContext, make_checkers, run_checkers
from repro.gms.membership import MembershipConfig
from repro.net.faults import Crash, FaultSchedule, Heal, Partition, Recover
from repro.ports import make_cluster
from repro.trace.checks import check_cluster
from repro.vsync.events import GroupApplication
from repro.vsync.stack import StackConfig

from perfbench import ROOT, calibrate
from perfbench.counters import delta, peak_rss_mb, read_counters
from perfbench.inputs import due_times, make_ops
from perfbench.layers import counter_metrics, span_metrics, span_report
from perfbench.result import RunResult
from perfbench.spans import SpanLog
from perfbench.stats import median, quantile

SETTLE_TIMEOUT = 600.0
#: Seed of every simulated cluster's own randomness (link latency draws,
#: gossip peer choice).  It is fixed, not taken from ``--seed``: a
#: different protocol seed is a different amount of virtual work (n=128
#: settles in 145 to 185 units depending on it), which would read as a
#: 35% run-to-run spread that no code change caused.  ``--seed`` drives
#: the workload's inputs, where the workload has any.
PROTOCOL_SEED = 7
#: Set-ups per run; ``setup_s`` takes their median.
SETUP_REPEATS = 5
MIN_REPS = 3
#: Shortest stretch of work worth its own pair of host-speed probes.
CHUNK_S = 0.3


@dataclass
class Scale:
    """Sizes of the sim workloads; ``--quick`` shrinks them."""

    steady_n: int = 24
    steady_traced_units: float = 400.0
    faults_n: int = 16
    faults_rate: float = 2.0
    membership_n: int = 128

    @classmethod
    def quick(cls) -> "Scale":
        return cls(
            steady_n=8,
            steady_traced_units=100.0,
            faults_n=6,
            faults_rate=0.5,
            membership_n=24,
        )


@dataclass
class Rep:
    """One repetition: what varies (time) and what must not (``exact``)."""

    #: Calibrated wall milliseconds of one op (see README: what an op is).
    op_ms: float
    #: Calibrated CPU milliseconds per unit of application work.
    cpu_ms_per_op: float
    #: Units of application work done (the divisor of the line above).
    ops: int
    attempted: int
    failed: int
    #: Uncalibrated wall time of the measured work (probes excluded).
    raw_wall_s: float
    #: Output checks that did not hold (checker reports, unsettled phases,
    #: lost deliveries); any makes the run incorrect.
    violations: int = 0
    exact: dict[str, Any] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)


def _timed_setups(workload: str, scale: "Scale", imports_s: float) -> tuple[Any, float]:
    """Set the workload up :data:`SETUP_REPEATS` times; return what this
    process built and the median set-up time.

    A set-up is the imports plus building the cluster.  This process's
    own is one sample.  Imports happen once per interpreter and are four
    fifths of the time, so the other samples are complete set-ups in
    fresh interpreters (:mod:`perfbench.setup_child`): a single sample
    of the imports read 0.32 and 0.47 s on two runs of the same code.
    """
    t0 = time.perf_counter()
    built = SETUPS[workload](scale)
    samples = [imports_s + time.perf_counter() - t0]
    argv = [sys.executable, "-m", "perfbench.setup_child", workload, json.dumps(asdict(scale))]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            argv, cwd=str(ROOT), capture_output=True, text=True, timeout=120.0, check=True
        )
        samples.append(float(done.stdout.split()[-1]))
    return built, median(samples)


def _rep_loop(rep: Callable[[], Rep], seconds: float) -> list[Rep]:
    """At least :data:`MIN_REPS` repetitions, more while they fit in
    ``seconds``."""
    reps: list[Rep] = []
    t0 = time.perf_counter()
    while True:
        reps.append(rep())
        elapsed = time.perf_counter() - t0
        if len(reps) >= MIN_REPS and elapsed + reps[-1].raw_wall_s > seconds:
            return reps


def _fold(workload: str, reps: list[Rep], setup_s: float) -> RunResult:
    """Untraced result of a repeated scenario: medians over repetitions,
    correct only if every exact value repeated and nothing was violated."""
    first = reps[0].exact
    drift = sorted(
        {key for rep in reps[1:] for key in first if rep.exact.get(key) != first[key]}
    )
    result = RunResult(
        workload=workload,
        traced=False,
        correct=not drift and not any(r.violations for r in reps),
        attempted=sum(r.attempted for r in reps),
        failed=sum(r.failed for r in reps),
    )
    if drift:
        result.notes.append(f"not repeatable across repetitions: {drift}")
    if any(r.violations for r in reps):
        result.notes.append(
            f"output checks failed: {[r.violations for r in reps]} per repetition"
        )
    result.end_to_end = {
        "setup_s": setup_s,
        "op_p50_ms": median(r.op_ms for r in reps),
        "cpu_ms_per_op": median(r.cpu_ms_per_op for r in reps),
        "peak_rss_mb": peak_rss_mb(),
    }
    result.exact = dict(first)
    result.detail = {
        "reps": float(len(reps)),
        "raw_wall_s": median(r.raw_wall_s for r in reps),
        **{k: float(v) for k, v in first.items() if isinstance(v, (int, float))},
        **reps[0].extra,
    }
    result.flags = {"generator_saturated": False, "spurious_view_changes": 0}
    return result


def _traced(
    workload: str,
    log: SpanLog,
    run: Callable[[], tuple[Rep, dict[str, float], dict[str, float]]],
    reference: Rep,
    spans_out: str | None,
) -> RunResult:
    """Layer table of one traced repetition against an untraced one.

    ``run`` returns the repetition and the counter readings that bracket
    it; spans and CPU are taken over exactly that window."""
    from perfbench.probes import micro_probes

    log.install()
    try:
        rep, before, after = run()
    finally:
        log.uninstall()
    if spans_out:
        log.dump(spans_out)
    counters = delta(before, after)
    report = span_report(log, before["wall_s"], after["wall_s"])
    # Virtual time is deterministic, so the wrapped run's counts are the
    # untraced run's counts (checked below: ``exact`` must be equal); what
    # tracing does slow is the wall clock, so every wall-based row is
    # taken from the untraced reference.
    layers = counter_metrics(
        counters,
        ops=rep.ops,
        puts=int(rep.extra.get("puts_ok", 0)),
        window_s=reference.raw_wall_s,
    )
    layers.update(
        span_metrics(
            report,
            ops=rep.ops,
            puts_committed=counters["apps.puts_committed"],
            sut_cpu_s=counters["cpu_s"],
        )
    )
    layers["bench.trace_overhead_ratio"] = rep.cpu_ms_per_op / reference.cpu_ms_per_op
    layers["bench.failed_share"] = reference.failed / reference.attempted
    layers["trace.violations"] = float(reference.violations + rep.violations)
    layers.update({k: v for k, v in reference.extra.items() if "." in k})
    layers.update(micro_probes())
    result = RunResult(
        workload=workload,
        traced=True,
        correct=rep.violations == 0
        and reference.violations == 0
        and rep.exact == reference.exact,
        attempted=reference.attempted + rep.attempted,
        failed=reference.failed + rep.failed,
        per_layer=layers,
        exact=dict(reference.exact),
    )
    if rep.exact != reference.exact:
        result.notes.append("the traced run diverged from the untraced one")
    result.detail = {"spans": float(report["span_count"])}
    result.flags = {"generator_saturated": False, "spurious_view_changes": 0}
    return result


# -- sim_steady ------------------------------------------------------------

STEADY_TICK = 2.0
STEADY_SLICE = 20.0
STEADY_WARMUP = 40.0
#: Slices between two host-speed probes.
STEADY_GROUP = 5
#: Groups replayed on a second cluster to prove the run is deterministic.
STEADY_REPLAY_GROUPS = 2


class _CountingApp(GroupApplication):
    """Counts deliveries of the current window's multicasts into its
    workload's tally; one still in flight from before the window opened
    carries an older window number and is not counted."""

    def __init__(self, tally: "_Steady") -> None:
        super().__init__()
        self.tally = tally

    def on_message(self, sender: Any, payload: Any, msg_id: Any) -> None:
        if payload[2] == self.tally.window:
            self.tally.delivered += 1


class _Steady:
    """A settled n-site cluster with every site multicasting on a tick."""

    def __init__(self, n: int, observed: bool) -> None:
        # The end-to-end configuration has per-type stats, trace recording
        # and the metrics hooks off; the traced run turns stats and hooks
        # on because the layer table reads them.
        self.delivered = 0
        self.window = 0
        self.cluster = make_cluster(
            "sim",
            n,
            lambda pid: _CountingApp(self),
            seed=PROTOCOL_SEED,
            detailed_stats=observed,
            trace_level="none",
            metrics=observed,
        )
        if not self.cluster.settle(timeout=SETTLE_TIMEOUT):
            raise RuntimeError("sim_steady cluster did not settle")
        self.n = n
        self.sent = 0
        self.refused = 0
        self.active = True
        for site in sorted(self.cluster.stacks):
            stack = self.cluster.stacks[site]
            stack.set_periodic(STEADY_TICK, lambda s=stack: self._tick(s))
        self.cluster.run_for(STEADY_WARMUP)

    def _tick(self, stack: Any) -> None:
        if self.active and stack.alive:
            if stack.multicast(("w", stack.pid.site, self.window)) is None:
                self.refused += 1
            else:
                self.sent += 1

    def slice(self) -> tuple[float, int]:
        """Run one slice; returns its wall time and event count."""
        events = self.cluster.scheduler.events_run
        t0 = time.perf_counter()
        self.cluster.run_for(STEADY_SLICE)
        return time.perf_counter() - t0, self.cluster.scheduler.events_run - events


def _steady_window(steady: _Steady, groups: int | None, seconds: float) -> Rep:
    """``groups`` groups of slices (or as many as fit in ``seconds``), each
    between two host-speed probes; then drain and count: every multicast
    of the window must have reached every site, once."""
    steady.window += 1
    steady.delivered = 0
    sent0 = steady.sent
    slice_ms: list[float] = []
    cpu_ms_per_op: list[float] = []
    events: list[int] = []
    raw_wall = 0.0
    t0 = time.perf_counter()
    before = calibrate.probe()
    while (len(cpu_ms_per_op) < groups) if groups else (time.perf_counter() - t0 < seconds):
        sent = steady.sent
        cpu = time.process_time()
        walls = []
        for _ in range(STEADY_GROUP):
            wall, count = steady.slice()
            walls.append(wall)
            events.append(count)
        cpu = time.process_time() - cpu
        after = calibrate.probe()
        factor = calibrate.scale(before, after)
        slice_ms += [1000.0 * w * factor for w in walls]
        cpu_ms_per_op.append(1000.0 * cpu * factor / (steady.sent - sent))
        raw_wall += sum(walls)
        before = after
    steady.active = False
    steady.cluster.run_for(50.0)
    steady.active = True
    sent = steady.sent - sent0
    missing = sent * steady.n - steady.delivered
    return Rep(
        op_ms=median(slice_ms),
        cpu_ms_per_op=median(cpu_ms_per_op),
        ops=sent,
        attempted=sent + steady.refused,
        failed=steady.refused + abs(missing),
        raw_wall_s=raw_wall,
        violations=int(missing != 0),
        exact={"events_head": tuple(events[: STEADY_REPLAY_GROUPS * STEADY_GROUP])},
        extra={
            "slices": float(len(slice_ms)),
            "events": float(sum(events)),
            "sim.events_per_s": sum(events) / raw_wall,
        },
    )


def steady_untraced(seed: int, seconds: float, scale: Scale, imports_s: float) -> RunResult:
    """Slices for ``seconds``; one slice is the op, its median the result.
    (The workload has no inputs to draw from ``seed``.)"""
    steady, setup_s = _timed_setups("sim_steady", scale, imports_s)
    rep = _steady_window(steady, None, seconds)
    replay = _steady_window(
        _Steady(scale.steady_n, observed=False), STEADY_REPLAY_GROUPS, 0.0
    )
    result = _fold("sim_steady", [rep], setup_s)
    if replay.exact != rep.exact:
        result.correct = False
        result.notes.append("a second cluster ran different events")
    return result


def steady_traced(
    seed: int, seconds: float, scale: Scale, spans_out: str | None = None
) -> RunResult:
    groups = int(scale.steady_traced_units / STEADY_SLICE / STEADY_GROUP)
    reference = _steady_window(_Steady(scale.steady_n, observed=False), groups, 0.0)
    log = SpanLog()

    def run() -> tuple[Rep, dict[str, float], dict[str, float]]:
        steady = _Steady(scale.steady_n, observed=True)
        before = read_counters(steady.cluster)
        rep = _steady_window(steady, groups, 0.0)
        return rep, before, read_counters(steady.cluster)

    return _traced("sim_steady", log, run, reference, spans_out)


# -- sim_store_faults ------------------------------------------------------

FAULTS_HORIZON = 1400.0
FAULTS_TAIL = 250.0
FAULTS_KEYS = 100_000
#: Virtual units run between two looks at the stopwatch.
FAULTS_STEP = 50.0
#: SimStoreClient gives up after ``max_attempts * 20`` units; the crash
#: keeps site 0 down for 300, so its clients need more than the default 10.
FAULTS_MAX_ATTEMPTS = 25


def _faults_cluster(scale: Scale) -> Any:
    n = scale.faults_n
    cluster = make_cluster(
        "sim", n, app_factory("store", n), seed=PROTOCOL_SEED, trace_level="full"
    )
    if not cluster.settle(timeout=SETTLE_TIMEOUT):
        raise RuntimeError("sim_store_faults cluster did not settle")
    return cluster


def _faults_rep(
    seed: int, scale: Scale, observed_log: SpanLog | None = None
) -> tuple[Rep, dict[str, float], dict[str, float]]:
    """One fault scenario under scheduled load, settled and checked.

    The op stream (keys, put/get mix, values) comes from ``seed``."""
    n = scale.faults_n
    cluster = _faults_cluster(scale)
    half = n // 2
    schedule = FaultSchedule(
        [
            Crash(200.0, 0),
            Recover(500.0, 0),
            Partition(800.0, [list(range(half)), list(range(half, n))]),
            Heal(1100.0),
        ]
    )
    dues = due_times(scale.faults_rate, FAULTS_HORIZON)
    ops = make_ops(
        len(dues), seed, read_fraction=0.5, key_dist="zipfian", n_keys=FAULTS_KEYS
    )
    clients = [
        SimStoreClient(
            cluster, site=i, client_id=f"gen{i}", max_attempts=FAULTS_MAX_ATTEMPTS
        )
        for i in range(n)
    ]
    latency: dict[str, list[float]] = {"put": [], "get": []}
    statuses: dict[str, int] = {}

    def fire(k: int, due: float) -> None:
        op = ops[k]

        def done(pending: Any) -> None:
            status = pending.reply.status
            statuses[status] = statuses.get(status, 0) + 1
            if status in ("ok", "missing"):
                latency[op.kind].append(cluster.now - due)

        clients[k % n].submit(op.kind, op.key, op.value, on_done=done)

    gc.collect()
    before = read_counters(cluster)
    watch = calibrate.Stopwatch()
    start = cluster.now
    cluster.arm(schedule)
    for k, due in enumerate(dues):
        cluster.after(due, fire, k, start + due)
    while cluster.now < start + FAULTS_HORIZON + FAULTS_TAIL:
        cluster.run_for(FAULTS_STEP)
        watch.lap(CHUNK_S)
    settled = cluster.settle(timeout=SETTLE_TIMEOUT)
    watch.lap()
    t_check = time.perf_counter()
    trace = cluster.gather_trace()
    check = check_cluster
    if observed_log is not None:
        # Imported by name here, so the class-level wrappers cannot reach it.
        check = observed_log.wrap(check_cluster, "check_cluster", "trace")
    reports = check(cluster, trace=trace)
    reports += run_checkers(
        trace, make_checkers(("AckedWriteLoss",)), CheckContext(time_scale=1.0)
    )
    check_s = time.perf_counter() - t_check
    watch.lap()
    after = read_counters(cluster)
    counters = delta(before, after)
    violations = sum(1 for r in reports if not r.ok) + (0 if settled else 1)
    ok = len(latency["put"]) + len(latency["get"])
    puts = latency["put"]
    vt = {
        "put_p50_vt": quantile(puts, 0.5),
        "put_p99_vt": quantile(puts, 0.99),
        "put_max_vt": max(puts),
    }
    rep = Rep(
        op_ms=1000.0 * watch.wall_s,
        cpu_ms_per_op=1000.0 * watch.cpu_s / ok,
        ops=ok,
        attempted=len(ops),
        failed=len(ops) - ok,
        raw_wall_s=watch.raw_wall_s,
        violations=violations,
        exact={
            "events": int(counters["sim.events"]),
            "net_sent": int(counters["net.sent"]),
            "trace_events": len(trace),
            "statuses": tuple(sorted(statuses.items())),
            **vt,
        },
        extra={
            "puts_ok": float(len(puts)),
            **{f"client.{name}": value for name, value in vt.items()},
            "trace.events_recorded": float(len(trace)),
            "trace.check_s": check_s,
            "sim.events_per_s": counters["sim.events"] / watch.raw_wall_s,
        },
    )
    return rep, before, after


def faults_untraced(seed: int, seconds: float, scale: Scale, imports_s: float) -> RunResult:
    _, setup_s = _timed_setups("sim_store_faults", scale, imports_s)
    reps = _rep_loop(lambda: _faults_rep(seed, scale)[0], seconds)
    return _fold("sim_store_faults", reps, setup_s)


def faults_traced(
    seed: int, seconds: float, scale: Scale, spans_out: str | None = None
) -> RunResult:
    reference = _faults_rep(seed, scale)[0]
    log = SpanLog()
    return _traced(
        "sim_store_faults",
        log,
        lambda: _faults_rep(seed, scale, log),
        reference,
        spans_out,
    )


# -- sim_membership_n128 ---------------------------------------------------

#: Virtual units between two checks for a settled membership.
MEMBERSHIP_POLL = 5.0


def _membership_cluster(scale: Scale, observed: bool = False) -> Any:
    """n sites under the n>=128 profile (the one
    ``repro.bench.perf._scale_config`` builds, restated here so the legacy
    harness can go away): gossip failure detection at fanout 4 with a
    timeout covering an epidemic round, tree-aggregated flush at fanout 8,
    debounced round expansion."""
    return make_cluster(
        "sim",
        scale.membership_n,
        seed=PROTOCOL_SEED,
        detailed_stats=observed,
        trace_level="none",
        metrics=observed,
        stack=StackConfig(
            fd_timeout=45.0,
            membership=MembershipConfig(
                tree_fanout=8, expand_debounce=6.0, flush_stall_timeout=90.0
            ),
        ),
        fd_mode="gossip",
        gossip_fanout=4,
    )


def _membership_rep(
    seed: int, scale: Scale, observed: bool = False
) -> tuple[Rep, dict[str, float], dict[str, float]]:
    """Cold bootstrap to settled, half/half partition, heal.  (The workload
    has no inputs to draw from ``seed``.)"""
    n = scale.membership_n
    gc.collect()
    cluster = _membership_cluster(scale, observed)
    before = read_counters(cluster)
    watch = calibrate.Stopwatch()
    half = n // 2
    phases: dict[str, float] = {}
    unsettled = 0
    for name, act in (
        ("bootstrap", lambda: None),
        ("partition", lambda: cluster.partition([list(range(half)), list(range(half, n))])),
        ("heal", cluster.heal),
    ):
        since = cluster.now
        act()
        while not cluster.is_settled():
            if cluster.now - since >= SETTLE_TIMEOUT:
                unsettled += 1
                break
            cluster.run_for(MEMBERSHIP_POLL)
            watch.lap(CHUNK_S)
        phases[name] = cluster.now - since
    watch.lap()
    after = read_counters(cluster)
    counters = delta(before, after)
    installs = max(1, int(counters["gms.site_installs"]))
    rep = Rep(
        op_ms=1000.0 * watch.wall_s,
        cpu_ms_per_op=1000.0 * watch.cpu_s / installs,
        ops=installs,
        attempted=3,
        failed=unsettled,
        raw_wall_s=watch.raw_wall_s,
        violations=unsettled,
        exact={
            "events": int(cluster.scheduler.events_run),
            "net_sent": int(counters["net.sent"]),
            "site_installs": installs,
            **{f"{name}_vt": vt for name, vt in phases.items()},
        },
        extra={
            "gms.bootstrap_vt": phases["bootstrap"],
            "gms.partition_vt": phases["partition"],
            "gms.heal_vt": phases["heal"],
            "gms.settle_vt": sum(phases.values()),
            "sim.events_per_s": counters["sim.events"] / watch.raw_wall_s,
        },
    )
    return rep, before, after


def membership_untraced(
    seed: int, seconds: float, scale: Scale, imports_s: float
) -> RunResult:
    # Set-up is building the n stacks; from there on it is the workload.
    _, setup_s = _timed_setups("sim_membership_n128", scale, imports_s)
    reps = _rep_loop(lambda: _membership_rep(seed, scale)[0], seconds)
    return _fold("sim_membership_n128", reps, setup_s)


def membership_traced(
    seed: int, seconds: float, scale: Scale, spans_out: str | None = None
) -> RunResult:
    reference = _membership_rep(seed, scale)[0]
    log = SpanLog()
    return _traced(
        "sim_membership_n128",
        log,
        lambda: _membership_rep(seed, scale, observed=True),
        reference,
        spans_out,
    )


#: What each workload builds before its measured window opens.
SETUPS: dict[str, Callable[[Scale], Any]] = {
    "sim_steady": lambda scale: _Steady(scale.steady_n, observed=False),
    "sim_store_faults": _faults_cluster,
    "sim_membership_n128": _membership_cluster,
}
