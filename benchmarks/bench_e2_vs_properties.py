"""E2 — Section 2, Properties 2.1-2.3 (view synchrony specification).

The paper *specifies* view synchrony through Agreement, Uniqueness and
Integrity; our reproduction implements the protocol and this experiment
verifies the specification holds mechanically across adversarial runs:
random crash/recovery/partition/heal schedules with concurrent
application traffic, plus message loss and latency jitter.  The table
reports, per property, how many items each checker examined and how
many violations it found (the reproduction target is zero everywhere).
"""

from __future__ import annotations

from typing import Any

from repro.net.latency import UniformLatency
from repro.ports import make_cluster
from repro.vsync.events import GroupApplication
from repro.workload import Table, run_checked_workload
from repro.workload.generator import RandomFaultGenerator

N_SITES = 5
SEEDS = range(10)


class Chatty(GroupApplication):
    """Multicasts a burst every few simulated seconds."""

    def bind(self, stack) -> None:
        super().bind(stack)
        self._n = 0
        stack.set_periodic(9.0, self._talk)

    def _talk(self) -> None:
        if self.stack is not None and not self.stack.is_flushing:
            self._n += 1
            self.stack.multicast(("chat", self.stack.pid.site, self._n))


def run_experiment() -> dict[str, Any]:
    totals: dict[str, dict[str, int]] = {}
    deliveries = 0
    for seed in SEEDS:
        loss = 0.03 if seed % 2 else 0.0
        gen = RandomFaultGenerator(n_sites=N_SITES, seed=seed, duration=300)
        cluster = make_cluster(
            "sim",
            N_SITES,
            lambda pid: Chatty(),
            seed=seed,
            loss_prob=loss,
            latency=UniformLatency(0.5, 2.5),
        )
        run = run_checked_workload(
            cluster,
            gen.generate(),
            tail=gen.settle_tail + 200,
            settle_timeout=900,
        )
        deliveries += len(run.trace.deliveries())
        for report in run.reports:
            entry = totals.setdefault(report.name, {"checked": 0, "violations": 0})
            entry["checked"] += report.checked
            entry["violations"] += len(report.violations)
    return {"totals": totals, "deliveries": deliveries}


def test_e2_view_synchrony_properties(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table(
        "E2 / Properties 2.1-2.3 (and 6.1-6.3) under adversarial schedules "
        f"({len(list(SEEDS))} seeds, {result['deliveries']} deliveries)",
        ["property", "items checked", "violations"],
    )
    for name, entry in sorted(result["totals"].items()):
        table.add(name, entry["checked"], entry["violations"])
    table.show()

    for name, entry in result["totals"].items():
        assert entry["violations"] == 0, name
    # The run must have been substantial enough to mean something.
    assert result["totals"]["Agreement(2.1)"]["checked"] > 20
    assert result["deliveries"] > 1000
