"""Tests for trace statistics and the ASCII timeline."""

from __future__ import annotations

from repro.apps.replicated_file import ReplicatedFile
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.trace.stats import concurrent_view_peak, mode_residency, summarize

from tests.conftest import settled_cluster


def file_cluster() -> Cluster:
    votes = {s: 1 for s in range(5)}
    cluster = Cluster(
        5, app_factory=lambda pid: ReplicatedFile(votes), config=ClusterConfig(seed=0)
    )
    assert cluster.settle(timeout=500)
    cluster.run_for(200)
    return cluster


def test_summary_counts_match_recorder():
    cluster = file_cluster()
    cluster.apps[0].write("f", 1)
    cluster.run_for(30)
    stats = summarize(cluster.recorder)
    assert stats.view_installs == len(cluster.recorder.view_installs())
    assert stats.deliveries == len(cluster.recorder.deliveries())
    assert stats.multicasts == len(cluster.recorder.multicasts())
    assert stats.duration > 0
    assert stats.settlement_sessions >= 1
    assert "Reconcile" in stats.mode_transitions


def test_mode_residency_integrates_to_process_time():
    cluster = file_cluster()
    horizon = cluster.now
    residency = mode_residency(cluster.recorder, until=horizon)
    # Five processes alive the whole run: total residency close to 5x
    # the horizon (minus the pre-first-mode instants, which are 0-width
    # here because modes are set at bootstrap time 0).
    assert residency.total <= 5 * horizon + 1e-6
    assert residency.total >= 4.5 * horizon
    assert residency.fraction("N") > 0.8  # mostly serving


def test_mode_residency_counts_reduced_during_partition():
    cluster = file_cluster()
    cluster.partition([[0, 1, 2], [3, 4]])
    cluster.settle(timeout=500)
    cluster.run_for(300)
    residency = mode_residency(cluster.recorder, until=cluster.now)
    assert residency.reduced > 200  # two processes stuck in R


def test_residency_stops_at_crash():
    cluster = settled_cluster(3)
    cluster.crash(2)
    cluster.run_for(300)
    residency = mode_residency(cluster.recorder)
    # No mode events for plain GroupApplication, so residency is zero —
    # but the call must handle crashes without error.
    assert residency.total == 0.0


def test_concurrent_view_peak_sees_partition():
    cluster = file_cluster()
    assert concurrent_view_peak(cluster.recorder) >= 1
    cluster.partition([[0, 1, 2], [3, 4]])
    cluster.settle(timeout=500)
    assert concurrent_view_peak(cluster.recorder) >= 2


def test_timeline_renders_lanes_and_events():
    from repro.trace.timeline import render_timeline

    cluster = file_cluster()
    cluster.crash(2)
    cluster.settle(timeout=400)
    cluster.recover(2)
    cluster.settle(timeout=400)
    text = render_timeline(cluster.recorder)
    assert "p0.0" in text and "p2.0" in text and "p2.1" in text
    assert "CRASH" in text
    assert "UP" in text
    assert "[R:N]" in text  # some Reconcile happened


def test_timeline_empty_trace():
    from repro.trace.recorder import TraceRecorder
    from repro.trace.timeline import render_timeline

    assert render_timeline(TraceRecorder()) == "(empty trace)"


def test_timeline_row_cap():
    from repro.trace.timeline import render_timeline

    cluster = file_cluster()
    cluster.partition([[0, 1, 2], [3, 4]])
    cluster.settle(timeout=400)
    cluster.heal()
    cluster.settle(timeout=400)
    text = render_timeline(cluster.recorder, max_rows=2)
    assert "more rows" in text


def test_timeline_includes_eviews_on_request():
    from repro.trace.timeline import render_timeline

    cluster = file_cluster()
    lead = cluster.stack_at(0)
    lead.sv_set_merge([ss.ssid for ss in lead.eview.structure.svsets])
    cluster.run_for(20)
    text = render_timeline(cluster.recorder, include_eviews=True)
    assert "ev#1" in text
