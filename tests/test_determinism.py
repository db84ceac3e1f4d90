"""Determinism: the same configuration must produce the identical
execution, event for event — the property the whole test methodology
rests on (any failing adversarial run is replayable)."""

from __future__ import annotations

import io

from repro.apps.replicated_file import ReplicatedFile
from repro.net.latency import UniformLatency
from repro.ports import make_cluster
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.trace.export import dump_trace
from repro.workload import run_checked_workload
from repro.workload.generator import RandomFaultGenerator


def _run_once(seed: int) -> str:
    gen = RandomFaultGenerator(n_sites=4, seed=seed, duration=250)
    votes = {s: 1 for s in range(4)}
    cluster = make_cluster(
        "sim",
        4,
        lambda pid: ReplicatedFile(votes),
        seed=seed,
        latency=UniformLatency(0.5, 2.5),
    )
    run = run_checked_workload(cluster, gen.generate(), tail=gen.settle_tail)
    buffer = io.StringIO()
    dump_trace(run.trace, buffer)
    return buffer.getvalue()


def test_identical_seed_identical_trace():
    assert _run_once(3) == _run_once(3)


def test_different_seed_different_trace():
    assert _run_once(3) != _run_once(4)


def test_scheduler_time_identical_across_runs():
    durations = []
    for _ in range(2):
        cluster = Cluster(5, config=ClusterConfig(seed=9))
        cluster.settle(timeout=400)
        cluster.stack_at(0).multicast("x")
        cluster.run_for(50)
        durations.append((cluster.now, cluster.scheduler.events_run))
    assert durations[0] == durations[1]


def test_fault_generator_stable_under_weight_dict_order():
    a = RandomFaultGenerator(
        n_sites=4, seed=5,
        weights={"crash": 1.0, "recover": 1.5, "partition": 1.0, "heal": 1.5},
    ).generate()
    b = RandomFaultGenerator(
        n_sites=4, seed=5,
        weights={"heal": 1.5, "partition": 1.0, "recover": 1.5, "crash": 1.0},
    ).generate()
    assert a.actions == b.actions
