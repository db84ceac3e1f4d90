"""Tests for trace export/import and the happens-before cut checker."""

from __future__ import annotations

import io

import pytest

from repro.errors import ReproError
from repro.trace.checks import check_view_synchrony, run_check
from repro.trace.events import DeliveryEvent, EViewChangeEvent, MulticastEvent
from repro.trace.export import dump_trace, event_from_json, event_to_json, load_trace
from repro.trace.recorder import TraceRecorder
from repro.types import MessageId, ProcessId, SubviewId, SvSetId, ViewId

from tests.conftest import settled_cluster

P0, P1 = ProcessId(0), ProcessId(1)
V1 = ViewId(1, P0)
M1 = MessageId(P0, V1, 1)


def test_round_trip_of_every_event_type():
    cluster = settled_cluster(3)
    cluster.stack_at(0).multicast("payload")
    cluster.run_for(20)
    cluster.crash(2)
    cluster.settle(timeout=500)
    cluster.recover(2)
    cluster.settle(timeout=500)
    buffer = io.StringIO()
    count = dump_trace(cluster.recorder, buffer)
    assert count == len(cluster.recorder.events)
    buffer.seek(0)
    loaded = load_trace(buffer)
    assert len(loaded) == count
    for original, restored in zip(cluster.recorder.events, loaded.events):
        assert type(original) is type(restored)
        assert original.time == restored.time
        assert original.pid == restored.pid


def test_loaded_trace_passes_the_same_checks():
    cluster = settled_cluster(4)
    cluster.stack_at(1).multicast("x")
    cluster.run_for(20)
    cluster.partition([[0, 1], [2, 3]])
    cluster.settle(timeout=500)
    buffer = io.StringIO()
    dump_trace(cluster.recorder, buffer)
    buffer.seek(0)
    loaded = load_trace(buffer)
    for report in check_view_synchrony(loaded):
        assert report.ok, report.violations[:3]
        assert report.checked > 0 or report.name.startswith("Agreement")


def test_identifier_round_trip_exactness():
    event = DeliveryEvent(
        time=1.5, pid=P1, msg_id=M1, view_id=V1, sender_eview_seq=3
    )
    restored = event_from_json(event_to_json(event))
    assert restored == event


def test_structure_snapshot_round_trip():
    event = EViewChangeEvent(
        time=2.0,
        pid=P0,
        view_id=V1,
        eview_seq=1,
        subviews=((SubviewId(1, P0, 0), frozenset({P0, P1})),),
        svsets=((SvSetId(1, P0, 0), frozenset({SubviewId(1, P0, 0)})),),
    )
    restored = event_from_json(event_to_json(event))
    assert restored == event


def test_unknown_event_type_rejected():
    with pytest.raises(ReproError):
        event_from_json('{"type": "NoSuchEvent"}')


def test_blank_lines_ignored():
    rec = TraceRecorder()
    rec.record(MulticastEvent(time=0.0, pid=P0, msg_id=M1))
    buffer = io.StringIO()
    dump_trace(rec, buffer)
    text = "\n" + buffer.getvalue() + "\n\n"
    assert len(load_trace(io.StringIO(text))) == 1


# ---------------------------------------------------------------------------
# Happens-before cut consistency (the stronger 6.2 checker)
# ---------------------------------------------------------------------------


def test_cut_consistency_holds_on_real_runs():
    cluster = settled_cluster(4)
    lead = cluster.stack_at(0)
    lead.sv_set_merge([ss.ssid for ss in lead.eview.structure.svsets])
    lead.multicast("racing")
    cluster.run_for(30)
    report = run_check("CutConsistency(6.2)", cluster.recorder)
    assert report.ok
    assert report.checked >= 1


def test_cut_consistency_flags_backward_crossing():
    """Synthetic trace: p0 applies change 1 then multicasts; p1 delivers
    the multicast BEFORE applying change 1 — an inconsistent cut."""
    rec = TraceRecorder()
    sub = ((SubviewId(1, P0, 0), frozenset({P0, P1})),)
    sets = ((SvSetId(1, P0, 0), frozenset({SubviewId(1, P0, 0)})),)
    rec.record(EViewChangeEvent(time=0, pid=P0, view_id=V1, eview_seq=0,
                                subviews=sub, svsets=sets))
    rec.record(EViewChangeEvent(time=0, pid=P1, view_id=V1, eview_seq=0,
                                subviews=sub, svsets=sets))
    rec.record(EViewChangeEvent(time=1, pid=P0, view_id=V1, eview_seq=1,
                                subviews=sub, svsets=sets))
    rec.record(MulticastEvent(time=2, pid=P0, msg_id=M1))
    rec.record(DeliveryEvent(time=3, pid=P1, msg_id=M1, view_id=V1,
                             sender_eview_seq=1))
    rec.record(EViewChangeEvent(time=4, pid=P1, view_id=V1, eview_seq=1,
                                subviews=sub, svsets=sets))
    report = run_check("CutConsistency(6.2)", rec)
    assert not report.ok
    assert "crosses the cut" in report.violations[0]


def test_cut_consistency_allows_forward_crossing():
    """A message sent BEFORE the change and delivered after it is fine:
    the cut is still consistent (nothing crosses backwards)."""
    rec = TraceRecorder()
    sub = ((SubviewId(1, P0, 0), frozenset({P0, P1})),)
    sets = ((SvSetId(1, P0, 0), frozenset({SubviewId(1, P0, 0)})),)
    rec.record(EViewChangeEvent(time=0, pid=P0, view_id=V1, eview_seq=0,
                                subviews=sub, svsets=sets))
    rec.record(EViewChangeEvent(time=0, pid=P1, view_id=V1, eview_seq=0,
                                subviews=sub, svsets=sets))
    rec.record(MulticastEvent(time=1, pid=P0, msg_id=M1))
    rec.record(EViewChangeEvent(time=2, pid=P0, view_id=V1, eview_seq=1,
                                subviews=sub, svsets=sets))
    rec.record(EViewChangeEvent(time=3, pid=P1, view_id=V1, eview_seq=1,
                                subviews=sub, svsets=sets))
    rec.record(DeliveryEvent(time=4, pid=P1, msg_id=M1, view_id=V1,
                             sender_eview_seq=0))
    assert run_check("CutConsistency(6.2)", rec).ok
