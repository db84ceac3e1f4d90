"""Sim vs realnet: the same workloads on both runtimes, side by side.

Two matched workloads run once per runtime, with identical protocol
code (the fd/gms/vsync/evs stacks are shared — only the scheduler and
network ports differ):

* **bootstrap** — cold start of ``n`` sites until membership settles on
  the full view.
* **steady multicast** — after settling, every site issues ``rounds``
  view-synchronous multicasts on a fixed pace; the run ends when every
  member has delivered every message.
* **checked workload** — the full harness loop through the
  :class:`~repro.ports.ClusterPort`: the figure-2 partition/heal
  schedule plus a multicast + query client mix on six sites, via
  :func:`~repro.workload.runner.run_checked_workload`, ending with the
  Section 2/6 property checks over the (merged) trace.  One code path,
  both runtimes; the table reports how many events the checkers
  consumed, how long checking took, and the violation count (zero).

For each runtime the table reports wall seconds, application-level
delivery throughput (deliveries/sec of wall time), and the per-message
delivery latency distribution (send to remote ``on_message``).  The
two latency columns are *not* the same quantity — the simulator's is
virtual units under the model's latency distribution, the realnet one
is real microseconds through the kernel loopback plus the wire codec —
which is exactly the point of printing them together: the simulator
models ordering and failure interleavings, not wall-clock cost, while
realnet pays for real sockets, real timers and real serialization.

Results are recorded in ``EXPERIMENTS.md`` ("Realnet: the stacks over
real sockets").  This harness never touches ``BENCH_PERF.json`` — that
file belongs to the simulator regression harness
(:mod:`repro.bench.perf`).

Run::

    python -m repro.bench.realnet_compare           # full matrix
    python -m repro.bench.realnet_compare --quick   # CI smoke: n=3, few rounds
"""

from __future__ import annotations

import argparse
import asyncio
import time
from typing import Any, Callable

from repro.realnet.cluster import RealCluster
from repro.runtime.core import ClusterConfig
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.types import MessageId, ProcessId
from repro.vsync.events import GroupApplication
from repro.workload import Table

SEED = 7
SETTLE_TIMEOUT = 60.0
#: Pace between multicast rounds: virtual units (sim) / seconds (realnet).
#: 2.0 sim units at the realnet timer scale (~10 ms/unit) is 0.02 s.
SIM_TICK = 2.0
REAL_TICK = 0.02


class _Recorder(GroupApplication):
    """Counts deliveries and samples send-to-deliver latency."""

    def __init__(self, now: Callable[[], float]) -> None:
        super().__init__()
        self._now = now
        self.delivered = 0
        self.latencies: list[float] = []

    def on_message(self, sender: ProcessId, payload: Any, msg_id: MessageId) -> None:
        self.delivered = self.delivered + 1
        if sender != self.stack.pid:
            self.latencies.append(self._now() - payload[1])


def _latency_stats(apps: list[_Recorder]) -> dict[str, float]:
    samples = sorted(s for app in apps for s in app.latencies)
    if not samples:
        return {"lat_mean": 0.0, "lat_p50": 0.0, "lat_p95": 0.0}
    return {
        "lat_mean": sum(samples) / len(samples),
        "lat_p50": samples[len(samples) // 2],
        "lat_p95": samples[min(len(samples) - 1, int(len(samples) * 0.95))],
    }


# ---------------------------------------------------------------------------
# Simulator side
# ---------------------------------------------------------------------------


def sim_bootstrap(n: int) -> dict[str, Any]:
    t0 = time.perf_counter()
    cluster = Cluster(n, config=ClusterConfig(seed=SEED))
    settled = cluster.settle(timeout=SETTLE_TIMEOUT)
    wall = time.perf_counter() - t0
    assert settled
    return {"runtime": "sim", "workload": f"bootstrap_n{n}", "wall_s": wall,
            "virtual": cluster.now}


def sim_steady(n: int, rounds: int) -> dict[str, Any]:
    apps: list[_Recorder] = []
    box: dict[str, Cluster] = {}

    def factory(pid: ProcessId) -> _Recorder:
        app = _Recorder(lambda: box["cluster"].now)
        apps.append(app)
        return app

    cluster = Cluster(n, app_factory=factory, config=ClusterConfig(seed=SEED))
    box["cluster"] = cluster
    cluster.settle(timeout=SETTLE_TIMEOUT)
    expected = n * n * rounds
    t0 = time.perf_counter()
    for _ in range(rounds):
        for stack in cluster.stacks.values():
            stack.multicast(("w", cluster.now))
        cluster.run_for(SIM_TICK)
    cluster.run_until(lambda c: sum(a.delivered for a in apps) >= expected,
                      timeout=SETTLE_TIMEOUT)
    wall = time.perf_counter() - t0
    delivered = sum(a.delivered for a in apps)
    assert delivered >= expected, f"only {delivered}/{expected} delivered"
    return {"runtime": "sim", "workload": f"steady_n{n}x{rounds}",
            "wall_s": wall, "delivered": delivered,
            "msgs_per_s": delivered / wall if wall > 0 else 0.0,
            **_latency_stats(apps)}


# ---------------------------------------------------------------------------
# Realnet side
# ---------------------------------------------------------------------------


async def _real_bootstrap(n: int) -> dict[str, Any]:
    t0 = time.perf_counter()
    async with RealCluster(n, config=ClusterConfig(seed=SEED)) as cluster:
        settled = await cluster.settle(timeout=SETTLE_TIMEOUT)
        wall = time.perf_counter() - t0
        assert settled, cluster.views()
        return {"runtime": "realnet", "workload": f"bootstrap_n{n}", "wall_s": wall}


async def _real_steady(n: int, rounds: int) -> dict[str, Any]:
    apps: list[_Recorder] = []

    def factory(pid: ProcessId) -> _Recorder:
        app = _Recorder(time.perf_counter)
        apps.append(app)
        return app

    config = ClusterConfig(seed=SEED, trace_level="none")
    async with RealCluster(n, app_factory=factory, config=config) as cluster:
        assert await cluster.settle(timeout=SETTLE_TIMEOUT), cluster.views()
        expected = n * n * rounds
        t0 = time.perf_counter()
        for _ in range(rounds):
            for stack in cluster.live_stacks():
                stack.multicast(("w", time.perf_counter()))
            await asyncio.sleep(REAL_TICK)
        done = await cluster.wait_until(
            lambda c: sum(a.delivered for a in apps) >= expected,
            timeout=SETTLE_TIMEOUT,
        )
        wall = time.perf_counter() - t0
        delivered = sum(a.delivered for a in apps)
        assert done, f"only {delivered}/{expected} delivered"
        return {"runtime": "realnet", "workload": f"steady_n{n}x{rounds}",
                "wall_s": wall, "delivered": delivered,
                "msgs_per_s": delivered / wall if wall > 0 else 0.0,
                **_latency_stats(apps)}


# ---------------------------------------------------------------------------
# Checked workload through the ClusterPort (identical code, both runtimes)
# ---------------------------------------------------------------------------


def checked_workload(runtime: str, n: int = 6) -> dict[str, Any]:
    from repro.apps.replicated_db import ParallelLookupDatabase
    from repro.ports import make_cluster
    from repro.workload.clients import MulticastClient, QueryClient
    from repro.workload.runner import run_checked_workload
    from repro.workload.scenarios import figure2_scenario

    def db_factory(pid: ProcessId) -> ParallelLookupDatabase:
        return ParallelLookupDatabase({"all": lambda k, v: True})

    t0 = time.perf_counter()
    cluster = make_cluster(runtime, n, app_factory=db_factory, seed=SEED)
    try:
        result = run_checked_workload(
            cluster,
            figure2_scenario(),
            client_factories=[
                lambda c: MulticastClient(c, interval=20.0),
                lambda c: QueryClient(c, interval=30.0),
            ],
        )
    finally:
        cluster.close()
    wall = time.perf_counter() - t0
    assert result.settled, "checked workload failed to settle"
    return {"runtime": runtime, "workload": f"checked_fig2_n{n}",
            "wall_s": wall, "trace_events": len(result.trace),
            "events_checked": result.events_checked,
            "check_wall_s": result.check_wall_s,
            "violations": len(result.violations)}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def run_matrix(quick: bool = False) -> list[dict[str, Any]]:
    sizes = (3,) if quick else (3, 5)
    rounds = 5 if quick else 40
    rows: list[dict[str, Any]] = []
    for n in sizes:
        rows.append(sim_bootstrap(n))
        rows.append(asyncio.run(asyncio.wait_for(_real_bootstrap(n), 120)))
    for n in sizes:
        rows.append(sim_steady(n, rounds))
        rows.append(asyncio.run(asyncio.wait_for(_real_steady(n, rounds), 300)))
    for runtime in ("sim", "realnet"):
        rows.append(checked_workload(runtime))
    return rows


def report(rows: list[dict[str, Any]]) -> Table:
    table = Table(
        "sim vs realnet: same stacks, different runtime "
        "(latency: virtual units for sim, milliseconds for realnet)",
        ["workload", "runtime", "wall s", "delivered", "msgs/s",
         "lat p50", "lat p95"],
    )
    for row in rows:
        if "events_checked" in row:
            continue  # checked-workload rows get their own table
        is_real = row["runtime"] == "realnet"
        unit = 1000.0 if is_real else 1.0  # realnet latencies in ms
        table.add(
            row["workload"],
            row["runtime"],
            f"{row['wall_s']:.3f}",
            row.get("delivered", "-"),
            f"{row['msgs_per_s']:.0f}" if "msgs_per_s" in row else "-",
            f"{row['lat_p50'] * unit:.3f}" if "lat_p50" in row else "-",
            f"{row['lat_p95'] * unit:.3f}" if "lat_p95" in row else "-",
        )
    return table


def report_checked(rows: list[dict[str, Any]]) -> Table:
    table = Table(
        "checked workload through the ClusterPort: figure-2 schedule + "
        "client mix, property checks over the (merged) trace",
        ["workload", "runtime", "wall s", "trace events",
         "events checked", "check wall s", "violations"],
    )
    for row in rows:
        if "events_checked" not in row:
            continue
        table.add(
            row["workload"], row["runtime"], f"{row['wall_s']:.3f}",
            row["trace_events"], row["events_checked"],
            f"{row['check_wall_s']:.3f}", row["violations"],
        )
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: n=3 only, 5 rounds")
    args = parser.parse_args(argv)
    rows = run_matrix(quick=args.quick)
    report(rows).show()
    report_checked(rows).show()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
