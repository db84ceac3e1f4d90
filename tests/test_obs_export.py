"""Exporter + wire-codec coverage for metrics snapshots.

* The Prometheus text export of a real simulator run parses with the
  dependency-free parser in ``tests/prom_parser.py`` (the same parser
  the CI obs-smoke steps use) and passes its structural validation.
* The JSONL export is one meta line plus one JSON object per sample.
* Metric-snapshot payloads round-trip through both codec layers of
  ``bin1`` — the value codec and the ``obs`` reply frame around it —
  including ``+Inf`` histogram bounds: the frames ``repro obs watch``
  polls.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.obs.export import to_jsonl, to_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import MetricsSnapshot
from repro.realnet.codec_bin import BIN_FORMAT, decode_value_bin, encode_value_bin
from repro.runtime.cluster import Cluster, ClusterConfig

from tests.prom_parser import parse, validate


@pytest.fixture(scope="module")
def run_snapshot() -> tuple[MetricsSnapshot, dict[str, str]]:
    """One settled + partitioned sim run's snapshot and help texts."""
    cluster = Cluster(4, config=ClusterConfig(seed=5))
    assert cluster.settle()
    cluster.partition([[0, 1], [2, 3]])
    assert cluster.settle()
    cluster.heal()
    assert cluster.settle()
    for stack in cluster.live_stacks():
        stack.multicast(("w", stack.pid.site))
    cluster.run_for(50.0)
    return cluster.metrics_snapshot(), cluster.metrics.help_texts()


def test_prometheus_export_parses_and_validates(run_snapshot):
    snap, helps = run_snapshot
    text = to_prometheus(snap, helps)
    exposition = parse(text)
    validate(exposition)
    assert exposition.types["view_changes_total"] == "counter"
    assert exposition.types["view_change_duration"] == "histogram"
    assert exposition.types["mode_residency"] == "gauge"
    # HELP lines travel for every family that has one.
    assert "view_changes_total" in exposition.helps


def test_prometheus_values_match_snapshot(run_snapshot):
    snap, helps = run_snapshot
    exposition = parse(to_prometheus(snap, helps))
    assert exposition.value(
        "view_changes_total", pid="p0.0"
    ) == snap.sample("view_changes_total", pid="p0.0").value
    hist = snap.sample("view_change_duration", pid="p0.0")
    assert exposition.value(
        "view_change_duration_count", pid="p0.0"
    ) == hist.count
    assert exposition.value(
        "view_change_duration_bucket", pid="p0.0", le="+Inf"
    ) == hist.count


def test_prometheus_runtime_label_on_every_series(run_snapshot):
    snap, helps = run_snapshot
    exposition = parse(to_prometheus(snap, helps))
    assert exposition.samples  # non-empty
    for _name, labels, _value in exposition.samples:
        assert labels.get("runtime") == "sim"


def test_jsonl_shape(run_snapshot):
    snap, _helps = run_snapshot
    lines = to_jsonl(snap).splitlines()
    meta = json.loads(lines[0])
    assert meta["runtime"] == "sim"
    assert meta["samples"] == len(snap.samples) == len(lines) - 1
    for line, sample in zip(lines[1:], snap.samples):
        obj = json.loads(line)
        assert obj["name"] == sample.name
        assert obj["kind"] == sample.kind
        assert obj["labels"] == dict(sample.labels)
        if sample.kind == "histogram":
            assert obj["count"] == sample.count
            assert obj["buckets"][-1][0] == "+Inf"


def test_snapshot_roundtrips_both_codecs(run_snapshot):
    snap, _helps = run_snapshot
    assert decode_value_bin(encode_value_bin(snap)) == snap
    body = BIN_FORMAT.frame_side("obs", snap, True)[4:]
    assert BIN_FORMAT.parse_side(body, 0, len(body), True) == ("obs", snap)


def test_inf_bucket_bounds_survive_bin_codec():
    reg = MetricsRegistry(clock=lambda: 1.0, runtime="realnet")
    reg.histogram("h", "test").labels().observe(9999.0)  # overflow bucket
    snap = reg.snapshot("node")
    back = decode_value_bin(encode_value_bin(snap))
    assert back == snap
    le, cum = back.sample("h").buckets[-1]
    assert math.isinf(le) and cum == 1
