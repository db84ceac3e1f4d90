"""The two perf gates CI runs on every push, one flagless command each.

Run::

    python -m repro.bench.gates scale     # n=128 membership under the scale profile
    python -m repro.bench.gates tracing   # causal-tracer cost on steady multicast

Each prints one verdict line and exits 0 on a pass, 1 on a failure.
Every other perf number comes from the repo benchmark (``perfbench/``,
paired against a parent by ``scripts/perf_pairs.py``); these two gates
stay here until that benchmark carries them.

* **scale** — the membership plane at n=128 under the scale profile
  (gossip failure detection at fanout 4, the flush aggregation tree at
  fanout 8; docs/scaling.md): a cold bootstrap, then, on a fresh
  cluster, one half/half partition and its heal.  It fails unless the
  bootstrap, the partition and the heal each settle and the whole run
  fits :data:`SCALE_BUDGET_S` of wall time.
* **tracing** — steady multicast at n=16 (every site multicasts on a
  2.0-unit tick for 400 units), tracer off against tracer on with the
  metrics hooks live in both, so the ratio isolates the tracer itself.
  It fails when the tracer costs more than :data:`TRACING_GATE_PCT` of
  steady events/s.  The ratio is the **median of per-pair ratios** over
  :data:`TRACING_PAIRS` back-to-back (off, on) pairs, a design forced
  by a virtualized runner whose throughput swings ±15% at both second
  and minute scale:

  - *pairs, not blocks*: minute-scale drift hits both sides of each
    ratio about equally, where two per-mode blocks would read it as
    tracer cost;
  - *alternating order*: pairs run (off, on), (on, off), ... so a
    position effect inside a pair cancels across pairs;
  - *median of ratios*: one lucky burst decides a best-of comparison,
    while half the pairs must be wrong to move a median.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Iterator

from repro.gms.membership import MembershipConfig
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.vsync.stack import StackConfig

SEED = 7
SETTLE_TIMEOUT = 600.0

SCALE_N = 128
#: Wall seconds the scale gate may take: generous enough for a shared
#: runner, while a membership plane gone quadratic blows through it.
SCALE_BUDGET_S = 300.0

TRACING_N = 16
STEADY_TICK = 2.0
STEADY_DURATION = 400.0
#: Virtual units of the unmeasured warmup run in each mode.
TRACING_WARMUP = 100.0
TRACING_PAIRS = 9
#: The tracer may cost at most this share of steady events/s.  Shared
#: runners swing ±15% run to run, so the gate sits well above the 10%
#: acceptance bar the tracer was built to (recorded at n=24,
#: docs/performance.md) yet below a real regression: an unsampled span
#: pipeline on the delivery path measures ~45%.
TRACING_GATE_PCT = 25.0


def _scale_config() -> ClusterConfig:
    """The scale profile, with benchmark recording modes.

    Gossip needs ``fd_timeout`` to cover a whole epidemic round —
    ``T*(log n / log(k+1) + 2)`` ≈ 45 at n=256, k=4, T=5 — not the one
    hop the all-to-all default (16) assumes; ``expand_debounce`` batches
    the flush-reported joiners of a big merge into one extra round
    instead of one round per discovery wave.
    """
    return ClusterConfig(
        seed=SEED,
        detailed_stats=False,
        trace_level="none",
        metrics=False,
        stack=StackConfig(
            fd_timeout=45.0,
            membership=MembershipConfig(
                tree_fanout=8, expand_debounce=6.0, flush_stall_timeout=90.0
            ),
        ),
        fd_mode="gossip",
        gossip_fanout=4,
    )


@contextmanager
def _gc_quiesced() -> Iterator[None]:
    """Silence the cyclic GC for the duration of a measured window.

    The live-object population of a big cluster grows with n² (buffered
    multicasts awaiting stability), so generational collection pauses
    grow with cluster size and would read as core slowdown.  Collect
    once, move the survivors to the permanent generation, and switch
    the collector off until the window closes.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def _settle(cluster: Cluster) -> float | None:
    """Settle ``cluster``: the virtual time it settled at, or ``None``."""
    return cluster.now if cluster.settle(timeout=SETTLE_TIMEOUT) else None


def scale_gate() -> int:
    """n=128 bootstrap, partition and heal each settle within budget."""
    t0 = time.perf_counter()
    with _gc_quiesced():
        bootstrap = _settle(Cluster(SCALE_N, config=_scale_config()))
    boot_wall = time.perf_counter() - t0
    # The cycle runs on a fresh cluster, as it always has: its bootstrap
    # repeats the first one event for event, so the budget still covers
    # the same work.
    cluster = Cluster(SCALE_N, config=_scale_config())
    cluster.settle(timeout=SETTLE_TIMEOUT)
    half = SCALE_N // 2
    with _gc_quiesced():
        t1 = time.perf_counter()
        cluster.partition([list(range(half)), list(range(half, SCALE_N))])
        partition = _settle(cluster)
        cluster.heal()
        heal = _settle(cluster)
        cycle_wall = time.perf_counter() - t1
    wall = time.perf_counter() - t0
    phases = {"bootstrap": bootstrap, "partition": partition, "heal": heal}
    ok = None not in phases.values() and wall <= SCALE_BUDGET_S
    settled = ", ".join(
        f"{name} UNSETTLED" if at is None else f"{name} at t={at:g}"
        for name, at in phases.items()
    )
    print(
        f"scale gate n={SCALE_N}: {settled}; bootstrap {boot_wall:.2f}s,"
        f" partition+heal {cycle_wall:.2f}s, total {wall:.1f}s"
        f" (budget {SCALE_BUDGET_S:.0f}s) -> {'OK' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def _steady_events_per_s(tracing: bool, duration: float) -> float:
    """Settle n=16, then every site multicasts on the tick for
    ``duration`` units; scheduler events per wall second of that window."""
    cluster = Cluster(
        TRACING_N,
        config=ClusterConfig(
            seed=SEED,
            detailed_stats=False,
            trace_level="none",
            metrics=True,
            tracing=tracing,
        ),
    )
    cluster.settle(timeout=SETTLE_TIMEOUT)
    for site in sorted(cluster.stacks):
        stack = cluster.stacks[site]
        stack.set_periodic(
            STEADY_TICK,
            lambda s=stack: s.alive and s.multicast(("w", s.pid.site)),
        )
    events0 = cluster.metrics.value("sim_events_total")
    with _gc_quiesced():
        t0 = time.perf_counter()
        cluster.run_for(duration)
        wall = time.perf_counter() - t0
    return (cluster.metrics.value("sim_events_total") - events0) / wall


def tracing_gate() -> int:
    """The tracer costs at most the gate's share of steady events/s."""
    t0 = time.perf_counter()
    for tracing in (False, True):
        _steady_events_per_s(tracing, TRACING_WARMUP)
    ratios = []
    for index in range(TRACING_PAIRS):
        order = (False, True) if index % 2 == 0 else (True, False)
        rate = {t: _steady_events_per_s(t, STEADY_DURATION) for t in order}
        ratios.append(rate[True] / rate[False])
    overhead = 100.0 * (1.0 - statistics.median(ratios))
    ok = overhead <= TRACING_GATE_PCT
    print(
        f"tracing gate n={TRACING_N}: pair ratios"
        f" {[round(r, 3) for r in sorted(ratios)]},"
        f" overhead {overhead:+.1f}% events/s (gate {TRACING_GATE_PCT:.0f}%)"
        f" -> {'OK' if ok else 'FAIL'}  [{time.perf_counter() - t0:.1f}s]"
    )
    return 0 if ok else 1


GATES = {"scale": scale_gate, "tracing": tracing_gate}


def main() -> int:
    gate = GATES.get(sys.argv[1]) if len(sys.argv) == 2 else None
    if gate is None:
        usage = f"usage: python -m repro.bench.gates {{{','.join(GATES)}}}"
        print(usage, file=sys.stderr)
        return 2
    return gate()


if __name__ == "__main__":
    raise SystemExit(main())
