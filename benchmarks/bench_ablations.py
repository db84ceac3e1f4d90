"""Ablations — which mechanism carries which guarantee.

DESIGN.md calls out three load-bearing design choices; each ablation
disables exactly one of them and shows the corresponding paper property
actually fail, while the guarded configuration stays clean on the same
workload:

* **A1 — the e-view delivery gate** (messages carry the sender's e-view
  sequence number; receivers delay past-the-cut deliveries).  Without
  it, Property 6.2 (Causal Order) breaks under latency jitter.
* **A2 — flush-time e-view suspension** (a member stops applying e-view
  changes once its flush report fixed its position; the authority's log
  is replayed at install).  Without it, members leave a view at
  positions the coordinator never saw, and Properties 6.1/6.3 break.
* **A3 — the linear-membership guards of the Isis baseline** (sticky
  one-coordinator-per-view endorsement plus stale-primary freshness
  deference).  Without them, racing coordinators assemble overlapping
  "majorities" and install *concurrent primaries* — the
  linear-membership invariant breaks.
"""

from __future__ import annotations

from typing import Any

from repro.isis import IsisConfig, isis_stack_config
from repro.net.latency import UniformLatency
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.trace.checks import run_check
from repro.trace.events import ViewInstallEvent
from repro.vsync.stack import StackConfig


from repro.vsync.events import GroupApplication
from repro.workload import Table


class _Reactor(GroupApplication):
    """Multicasts the instant an e-view change applies — the message is
    tagged with the new sequence number while peers may not have applied
    it yet, which is exactly the race the 6.2 gate exists to close."""

    def on_eview(self, eview) -> None:
        if self.stack is not None and not self.stack.is_flushing:
            self.stack.multicast(("react", str(eview.view_id), eview.seq))


def _merge_pump(cluster: Cluster) -> None:
    """Keep requesting merges (one per pump tick) from rotating members
    so e-view changes flow continuously while structure allows."""
    state = {"turn": 0}

    def pump() -> None:
        state["turn"] += 1
        site = state["turn"] % 5
        stack = cluster.stacks.get(site)
        if stack is None or not stack.alive or stack.eview is None:
            return
        structure = stack.eview.structure
        ssids = sorted((ss.ssid for ss in structure.svsets), key=str)
        if len(ssids) >= 2:
            stack.sv_set_merge(ssids[:2])
            return
        sids = sorted((sv.sid for sv in structure.subviews), key=str)
        if len(sids) >= 2:
            stack.subview_merge(sids[:2])

    start = cluster.now
    for tick in range(1, 200):
        cluster.scheduler.at(start + 2.0 * tick, pump)


def ablation_gate(disabled: bool) -> int:
    """A1: total Causal Order (6.2) violations over jittery runs."""
    violations = 0
    for seed in range(5):
        config = ClusterConfig(
            seed=seed,
            latency=UniformLatency(0.3, 4.0),
            stack=StackConfig(unsafe_disable_eview_gate=disabled),
        )
        cluster = Cluster(5, app_factory=lambda pid: _Reactor(), config=config)
        cluster.run_for(60)  # group forms
        _merge_pump(cluster)
        # Periodic partition/heal cycles reset the structure so merges
        # (and hence race windows) keep occurring.
        base = cluster.now
        cluster.scheduler.at(base + 90.0, cluster.partition, [[0, 1, 2], [3, 4]])
        cluster.scheduler.at(base + 180.0, cluster.heal)
        cluster.run(until=base + 440.0)
        violations += len(run_check("CausalOrder(6.2)", cluster.recorder).violations)
    return violations


def ablation_suspension(disabled: bool) -> int:
    """A2: 6.1 + 6.3 violations when merges race view changes."""
    violations = 0
    for seed in range(5):
        config = ClusterConfig(
            seed=seed,
            latency=UniformLatency(0.3, 4.0),
            stack=StackConfig(unsafe_disable_eview_suspension=disabled),
        )
        cluster = Cluster(5, config=config)
        cluster.run_for(60)
        _merge_pump(cluster)
        # View changes racing the merge stream: crash/recover and
        # partition/heal while merges are in flight.
        base = cluster.now
        cluster.scheduler.at(base + 41.0, cluster.partition, [[0, 1, 2], [3, 4]])
        cluster.scheduler.at(base + 121.0, cluster.heal)
        cluster.scheduler.at(base + 201.0, cluster.crash, 4)
        cluster.scheduler.at(base + 261.0, cluster.recover, 4)
        cluster.run(until=base + 440.0)
        violations += len(run_check("TotalOrder(6.1)", cluster.recorder).violations)
        violations += len(run_check("Structure(6.3)", cluster.recorder).violations)
    return violations


def ablation_endorsement(disabled: bool) -> int:
    """A3: concurrent-primary anomalies (same-epoch multi-member views
    with different identifiers, or overlapping concurrent memberships)."""
    anomalies = 0
    for seed in (0, 2, 4):
        isis = IsisConfig(sticky_endorsement=not disabled)
        config = ClusterConfig(
            seed=seed, stack=isis_stack_config(isis_config=isis)
        )
        cluster = Cluster(5, config=config)
        cluster.run_for(250)
        cluster.partition([[0, 1], [2, 3, 4]])
        cluster.run_for(250)
        cluster.heal()
        cluster.run_for(400)
        by_epoch: dict[int, set] = {}
        for ev in cluster.recorder.of_type(ViewInstallEvent):
            if len(ev.members) > 1:
                by_epoch.setdefault(ev.view_id.epoch, set()).add(ev.view_id)
        anomalies += sum(1 for ids in by_epoch.values() if len(ids) > 1)
    return anomalies


def run_experiment() -> dict[str, Any]:
    return {
        "A1 e-view gate (6.2)": (ablation_gate(False), ablation_gate(True)),
        "A2 flush suspension (6.1+6.3)": (
            ablation_suspension(False),
            ablation_suspension(True),
        ),
        "A3 isis linear-membership guards": (
            ablation_endorsement(False),
            ablation_endorsement(True),
        ),
    }


def test_ablations(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table(
        "Ablations — violations with the mechanism ON vs OFF",
        ["mechanism (property it carries)", "violations ON", "violations OFF"],
    )
    for name, (on, off) in results.items():
        table.add(name, on, off)
    table.show()

    for name, (on, off) in results.items():
        assert on == 0, f"{name}: guarded configuration must be clean"
        assert off > 0, f"{name}: ablation must expose the failure"
