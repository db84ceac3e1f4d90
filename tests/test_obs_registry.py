"""Metrics registry units + the sim determinism acceptance check.

Tier-1 coverage for :mod:`repro.obs.registry` and
:mod:`repro.obs.snapshot`:

* histogram bucket-boundary assignment under Prometheus ``le``
  (inclusive upper bound) semantics, including exact boundaries and
  the ``+Inf`` overflow slot;
* ``merge_snapshots`` is associative and key-wise correct over mixed
  counter/histogram series;
* two identical seeded simulator runs of the figure-2 checked workload
  produce **byte-identical** Prometheus exports (metric values are a
  deterministic function of the seed);
* the ``metrics=False`` bench mode keeps the registry readable while
  the in-stack hooks stay off the hot path.
"""

from __future__ import annotations

import math

import pytest

from repro.apps.replicated_db import ParallelLookupDatabase
from repro.obs.export import to_prometheus
from repro.obs.registry import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.snapshot import MetricSample, MetricsSnapshot, merge_snapshots
from repro.ports import make_cluster
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.workload.clients import MulticastClient, QueryClient
from repro.workload.runner import run_checked_workload
from repro.workload.scenarios import figure2_scenario

INF = float("inf")


def _registry() -> MetricsRegistry:
    return MetricsRegistry(clock=lambda: 42.0, runtime="sim")


def _cum(sample: MetricSample) -> dict[float, int]:
    return {le: cum for le, cum in sample.buckets}


# -- histogram bucket assignment -------------------------------------------


def test_default_buckets_are_powers_of_two():
    assert DEFAULT_BUCKETS[0] == 2.0**-10
    assert DEFAULT_BUCKETS[-1] == 2.0**10
    assert len(DEFAULT_BUCKETS) == 21
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


def test_histogram_exact_boundary_counts_into_le_bucket():
    reg = _registry()
    fam = reg.histogram("h", "test", ("pid",))
    fam.labels("p0.0").observe(1.0)  # exactly a boundary: le=1.0 holds it
    cum = _cum(reg.snapshot().sample("h", pid="p0.0"))
    assert cum[1.0] == 1
    assert cum[0.5] == 0
    assert cum[2.0] == 1
    assert cum[INF] == 1


def test_histogram_between_boundaries_rounds_up():
    reg = _registry()
    fam = reg.histogram("h", "test")
    fam.labels().observe(1.5)  # strictly between 1.0 and 2.0
    cum = _cum(reg.snapshot().sample("h"))
    assert cum[1.0] == 0
    assert cum[2.0] == 1


def test_histogram_underflow_and_overflow():
    reg = _registry()
    fam = reg.histogram("h", "test")
    child = fam.labels()
    child.observe(0.0)  # below the smallest bound: first bucket
    child.observe(2.0**-10)  # exactly the smallest bound: same bucket
    child.observe(4096.0)  # above the largest bound: only +Inf holds it
    sample = reg.snapshot().sample("h")
    cum = _cum(sample)
    assert cum[2.0**-10] == 2
    assert cum[2.0**10] == 2  # the overflow is in no finite bucket
    assert cum[INF] == 3
    assert sample.count == 3
    assert sample.value == pytest.approx(0.0 + 2.0**-10 + 4096.0)


def test_histogram_cumulative_is_nondecreasing():
    reg = _registry()
    child = reg.histogram("h", "test").labels()
    for v in (0.01, 0.5, 1.0, 3.0, 100.0, 5000.0):
        child.observe(v)
    cum = [c for _le, c in reg.snapshot().sample("h").buckets]
    assert cum == sorted(cum)
    assert cum[-1] == 6


# -- registry surface ------------------------------------------------------


def test_value_reads_counter_histogram_and_callback():
    reg = _registry()
    reg.counter("c", "test", ("pid",)).labels("p0.0").inc(3.0)
    reg.histogram("h", "test").labels().observe(1.0)
    reg.gauge_callback("g", "test", lambda: 7.5)
    assert reg.value("c", "p0.0") == 3.0
    assert reg.value("h") == 1.0  # histograms read as their count
    assert reg.value("g") == 7.5
    with pytest.raises(KeyError):
        reg.value("nope")


def test_reregistration_same_shape_ok_mismatch_raises():
    reg = _registry()
    fam = reg.counter("c", "test", ("pid",))
    assert reg.counter("c", "test", ("pid",)) is fam
    with pytest.raises(ValueError):
        reg.gauge("c", "test", ("pid",))
    with pytest.raises(ValueError):
        reg.counter("c", "test", ("site",))


def test_snapshot_is_sorted_and_immutable_copy():
    reg = _registry()
    fam = reg.counter("z_last", "test", ("pid",))
    fam.labels("p1.0").inc()
    fam.labels("p0.0").inc()
    reg.counter("a_first", "test").labels().inc()
    snap = reg.snapshot("unit")
    names = [(s.name, s.labels) for s in snap.samples]
    assert names == sorted(names)
    assert snap.source == "unit"
    assert snap.time == 42.0
    fam.labels("p0.0").inc(10)  # mutating after the fact
    assert snap.sample("z_last", pid="p0.0").value == 1.0


# -- merge -----------------------------------------------------------------


def _snap(source: str, *samples: MetricSample) -> MetricsSnapshot:
    return MetricsSnapshot(
        source=source, runtime="sim", time=1.0, samples=tuple(samples)
    )


def _counter(name: str, pid: str, value: float) -> MetricSample:
    return MetricSample(
        name=name, kind="counter", labels=(("pid", pid),), value=value
    )


def _hist(name: str, value: float, count: int, buckets) -> MetricSample:
    return MetricSample(
        name=name,
        kind="histogram",
        labels=(),
        value=value,
        count=count,
        buckets=tuple(buckets),
    )


def test_merge_sums_matching_series_and_keeps_distinct_ones():
    a = _snap("a", _counter("c", "p0.0", 2.0), _counter("c", "p1.0", 1.0))
    b = _snap("b", _counter("c", "p0.0", 3.0), _counter("d", "p0.0", 5.0))
    merged = merge_snapshots(a, b)
    assert merged.sample("c", pid="p0.0").value == 5.0
    assert merged.sample("c", pid="p1.0").value == 1.0
    assert merged.sample("d", pid="p0.0").value == 5.0
    assert merged.runtime == "sim"


def test_merge_histograms_adds_buckets_by_bound():
    a = _snap("a", _hist("h", 3.0, 2, [(1.0, 1), (2.0, 2), (INF, 2)]))
    b = _snap("b", _hist("h", 10.0, 3, [(1.0, 0), (2.0, 1), (INF, 3)]))
    merged = merge_snapshots(a, b).sample("h")
    assert merged.value == 13.0
    assert merged.count == 5
    assert _cum(merged) == {1.0: 1, 2.0: 3, INF: 5}


def test_merge_is_associative():
    # Integer-valued series so float addition order cannot differ.
    a = _snap("a", _counter("c", "p0.0", 2.0), _hist("h", 3.0, 2, [(1.0, 2), (INF, 2)]))
    b = _snap("b", _counter("c", "p0.0", 4.0), _counter("c", "p1.0", 8.0))
    c = _snap("c", _hist("h", 5.0, 1, [(1.0, 0), (INF, 1)]))
    left = merge_snapshots(merge_snapshots(a, b), c)
    right = merge_snapshots(a, merge_snapshots(b, c))
    assert left.samples == right.samples
    assert left.time == right.time


def test_merge_mixed_runtime_is_labeled_mixed():
    a = _snap("a", _counter("c", "p0.0", 1.0))
    b = MetricsSnapshot(
        source="b", runtime="realnet", time=2.0,
        samples=(_counter("c", "p0.0", 1.0),),
    )
    merged = merge_snapshots(a, b)
    assert merged.runtime == "mixed"
    assert merged.time == 2.0


# -- sim determinism (acceptance criterion) --------------------------------


def _fig2_prometheus() -> tuple[str, MetricsSnapshot]:
    def db_factory(pid):
        return ParallelLookupDatabase({"all": lambda k, v: True})

    cluster = make_cluster("sim", 6, app_factory=db_factory, seed=7)
    report = run_checked_workload(
        cluster,
        figure2_scenario(),
        client_factories=[
            lambda c: MulticastClient(c, interval=20.0),
            lambda c: QueryClient(c, interval=30.0),
        ],
    )
    assert report.settled and not report.violations
    return to_prometheus(report.metrics), report.metrics


def test_sim_metrics_identical_across_two_seeded_runs():
    text1, snap1 = _fig2_prometheus()
    text2, snap2 = _fig2_prometheus()
    assert text1 == text2  # byte-identical exports
    assert snap1.samples == snap2.samples
    assert snap1.time == snap2.time
    for name in (
        "view_changes_total",
        "settlement_duration",
        "multicast_delivery_latency",
        "mode_residency",
        "view_change_duration",
        "sim_events_total",
        "fd_heartbeats_skipped_total",
        "store_put_multicasts_total",
    ):
        assert name in snap1.names(), name
    assert snap1.total("view_changes_total") > 0
    assert snap1.total("multicasts_total") > 0


# -- bench mode ------------------------------------------------------------


def test_metrics_off_keeps_registry_readable_but_hooks_silent():
    cluster = Cluster(4, config=ClusterConfig(seed=1, metrics=False))
    assert cluster.settle()
    assert cluster.obs is None
    assert all(s.obs is None for s in cluster.live_stacks())
    # Callback gauges still serve the bench read path...
    assert cluster.metrics.value("sim_events_total") > 0
    assert cluster.metrics.value("net_messages_delivered_total") > 0
    # ...but no stack-hook series exist.
    assert "view_changes_total" not in cluster.metrics_snapshot().names()


def test_metrics_on_wires_stack_hooks():
    cluster = Cluster(4, config=ClusterConfig(seed=1))
    assert cluster.settle()
    assert all(s.obs is cluster.obs for s in cluster.live_stacks())
    snap = cluster.metrics_snapshot()
    assert snap.total("view_changes_total") >= 4  # one install per site
    assert math.isclose(
        snap.total("view_changes_total"),
        len(list(cluster.gather_trace().view_installs())),
    )
