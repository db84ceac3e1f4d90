"""The checkers must *detect* violations, not just pass clean traces.

Each test fabricates a synthetic trace seeded with exactly one defect
and asserts the corresponding checker flags it (and only it).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.fuzz.bugs import KNOWN_BUGS
from repro.fuzz.corpus import WorkloadSpec
from repro.fuzz.engine import FuzzConfig, FuzzEngine, quick_entry
from repro.net.faults import Heal, Partition
from repro.trace.checks import (
    check_agreement,
    check_causal_order,
    check_integrity,
    check_structure,
    check_total_order,
    check_uniqueness,
    check_view_monotonicity,
)
from repro.trace.events import (
    AppEvent,
    CrashEvent,
    DeliveryEvent,
    EViewChangeEvent,
    ModeChangeEvent,
    MulticastEvent,
    ViewInstallEvent,
)
from repro.trace.recorder import TraceRecorder
from repro.types import MessageId, ProcessId, SubviewId, SvSetId, ViewId
from tests.test_golden_traces import SCENARIOS

P0, P1, P2 = ProcessId(0), ProcessId(1), ProcessId(2)
V1 = ViewId(1, P0)
V2 = ViewId(2, P0)
V3 = ViewId(3, P0)
M = MessageId(P0, V1, 1)


def _install(rec, t, pid, vid, members, prev):
    rec.record(
        ViewInstallEvent(
            time=t, pid=pid, view_id=vid, members=frozenset(members), prev_view_id=prev
        )
    )


def _structure(rec, t, pid, vid, seq, groups):
    subviews = tuple(
        (SubviewId(vid.epoch, min(g), i), frozenset(g))
        for i, g in enumerate(groups)
    )
    svsets = tuple(
        (SvSetId(vid.epoch, min(g), i), frozenset({subviews[i][0]}))
        for i, g in enumerate(groups)
    )
    rec.record(
        EViewChangeEvent(
            time=t, pid=pid, view_id=vid, eview_seq=seq,
            subviews=subviews, svsets=svsets,
        )
    )


def test_agreement_flags_divergent_delivery_sets():
    rec = TraceRecorder()
    for pid in (P0, P1):
        _install(rec, 0, pid, V1, {P0, P1}, None)
    rec.record(MulticastEvent(time=1, pid=P0, msg_id=M))
    rec.record(DeliveryEvent(time=2, pid=P0, msg_id=M, view_id=V1))
    # P1 never delivers M, yet both survive into V2.
    for pid in (P0, P1):
        _install(rec, 3, pid, V2, {P0, P1}, V1)
    report = check_agreement(rec)
    assert not report.ok
    assert "disagree" in report.violations[0]


def test_agreement_ok_when_survivor_groups_differ():
    rec = TraceRecorder()
    for pid in (P0, P1):
        _install(rec, 0, pid, V1, {P0, P1}, None)
    rec.record(MulticastEvent(time=1, pid=P0, msg_id=M))
    rec.record(DeliveryEvent(time=2, pid=P0, msg_id=M, view_id=V1))
    _install(rec, 3, P0, V2, {P0}, V1)
    _install(rec, 3, P1, V3, {P1}, V1)  # different next view: unconstrained
    assert check_agreement(rec).ok


def test_uniqueness_flags_two_view_delivery():
    rec = TraceRecorder()
    rec.record(MulticastEvent(time=0, pid=P0, msg_id=M))
    rec.record(DeliveryEvent(time=1, pid=P0, msg_id=M, view_id=V1))
    rec.record(DeliveryEvent(time=2, pid=P1, msg_id=M, view_id=V2))
    report = check_uniqueness(rec)
    assert not report.ok


def test_integrity_flags_duplicate_delivery():
    rec = TraceRecorder()
    rec.record(MulticastEvent(time=0, pid=P0, msg_id=M))
    rec.record(DeliveryEvent(time=1, pid=P1, msg_id=M, view_id=V1))
    rec.record(DeliveryEvent(time=2, pid=P1, msg_id=M, view_id=V1))
    report = check_integrity(rec)
    assert any("twice" in v for v in report.violations)


def test_integrity_flags_phantom_message():
    rec = TraceRecorder()
    rec.record(DeliveryEvent(time=1, pid=P1, msg_id=M, view_id=V1))
    report = check_integrity(rec)
    assert any("never-multicast" in v for v in report.violations)


def test_monotonicity_flags_regressing_views():
    rec = TraceRecorder()
    _install(rec, 0, P0, V2, {P0}, None)
    _install(rec, 1, P0, V1, {P0}, V2)
    report = check_view_monotonicity(rec)
    assert not report.ok


def test_total_order_flags_skipped_sequence():
    rec = TraceRecorder()
    _structure(rec, 0, P0, V1, 0, [[P0, P1]])
    _structure(rec, 1, P0, V1, 2, [[P0, P1]])  # skipped seq 1
    report = check_total_order(rec)
    assert not report.ok


def test_total_order_flags_divergent_structures():
    rec = TraceRecorder()
    _structure(rec, 0, P0, V1, 0, [[P0], [P1]])
    _structure(rec, 0, P1, V1, 0, [[P0, P1]])  # same seq, different shape
    report = check_total_order(rec)
    assert any("divergent" in v for v in report.violations)


def test_causal_order_flags_premature_delivery():
    rec = TraceRecorder()
    _structure(rec, 0, P0, V1, 0, [[P0, P1]])
    rec.record(MulticastEvent(time=1, pid=P1, msg_id=M))
    rec.record(
        DeliveryEvent(
            time=2, pid=P0, msg_id=M, view_id=V1, sender_eview_seq=3
        )
    )
    report = check_causal_order(rec)
    assert not report.ok


def test_causal_order_passes_when_change_applied_first():
    rec = TraceRecorder()
    _structure(rec, 0, P0, V1, 0, [[P0, P1]])
    _structure(rec, 1, P0, V1, 1, [[P0, P1]])
    rec.record(
        DeliveryEvent(time=2, pid=P0, msg_id=M, view_id=V1, sender_eview_seq=1)
    )
    assert check_causal_order(rec).ok


def test_structure_flags_split_within_view():
    rec = TraceRecorder()
    _structure(rec, 0, P0, V1, 0, [[P0, P1]])
    _structure(rec, 1, P0, V1, 1, [[P0], [P1]])  # a split: illegal
    report = check_structure(rec)
    assert any("split" in v for v in report.violations)


def test_structure_flags_separated_mates_across_views():
    rec = TraceRecorder()
    for pid in (P0, P1):
        _install(rec, 0, pid, V1, {P0, P1}, None)
        _structure(rec, 0, pid, V1, 0, [[P0, P1]])
    for pid in (P0, P1):
        _install(rec, 1, pid, V2, {P0, P1}, V1)
        _structure(rec, 1, pid, V2, 0, [[P0], [P1]])  # mates separated
    report = check_structure(rec)
    assert any("separated" in v for v in report.violations)


def test_structure_ignores_processes_on_different_chains():
    rec = TraceRecorder()
    for pid in (P0, P1):
        _install(rec, 0, pid, V1, {P0, P1}, None)
        _structure(rec, 0, pid, V1, 0, [[P0, P1]])
    # P0 takes V1 -> V2; P1 skips to V3 directly: pairs unconstrained.
    _install(rec, 1, P0, V2, {P0, P1}, V1)
    _structure(rec, 1, P0, V2, 0, [[P0], [P1]])
    _install(rec, 2, P1, V3, {P0, P1}, V1)
    _structure(rec, 2, P1, V3, 0, [[P0], [P1]])
    assert check_structure(rec).ok


def test_reports_render():
    rec = TraceRecorder()
    report = check_uniqueness(rec)
    assert str(report) == "[Uniqueness(2.2)] checked=0 OK"


# ---------------------------------------------------------------------------
# TraceRecorder.merge: per-node recorders -> one coherent global history
# ---------------------------------------------------------------------------


def test_merge_orders_by_time_then_pid_then_seq():
    a, b = TraceRecorder(), TraceRecorder()
    # Same-instant events: P1's (in b) must sort after P0's (in a), and
    # P0's two t=1 events must keep their recorded order.
    a.record(MulticastEvent(time=1, pid=P0, msg_id=M))
    a.record(DeliveryEvent(time=1, pid=P0, msg_id=M, view_id=V1))
    a.record(DeliveryEvent(time=3, pid=P0, msg_id=M, view_id=V1))
    b.record(DeliveryEvent(time=1, pid=P1, msg_id=M, view_id=V1))
    b.record(MulticastEvent(time=2, pid=P1, msg_id=M))
    merged = TraceRecorder.merge(a, b)
    assert [(e.time, e.pid) for e in merged.events] == [
        (1, P0), (1, P0), (1, P1), (2, P1), (3, P0)
    ]
    assert type(merged.events[0]) is MulticastEvent  # stable within P0@t=1
    assert type(merged.events[1]) is DeliveryEvent


def test_merge_sums_loss_counters_and_sources_unchanged():
    a = TraceRecorder(level="membership")
    b = TraceRecorder(capacity=1)
    a.record(MulticastEvent(time=0, pid=P0, msg_id=M))  # filtered out
    _install(a, 1, P0, V1, {P0}, None)
    b.record(DeliveryEvent(time=2, pid=P1, msg_id=M, view_id=V1))
    b.record(DeliveryEvent(time=3, pid=P1, msg_id=M, view_id=V1))  # evicts
    merged = TraceRecorder.merge(a, b)
    assert merged.filtered == 1
    assert merged.dropped == 1
    assert len(merged) == 2
    assert len(a) == 1 and len(b) == 1  # sources untouched


def test_merge_of_nothing_is_empty_full_recorder():
    merged = TraceRecorder.merge()
    assert len(merged) == 0
    assert merged.level == "full"
    assert merged.wants(MulticastEvent)


def test_checkers_see_split_history_whole_after_merge():
    """A per-process split of a healthy history checks clean merged."""
    per_node = {pid: TraceRecorder() for pid in (P0, P1)}
    for pid in (P0, P1):
        _install(per_node[pid], 0, pid, V1, {P0, P1}, None)
    per_node[P0].record(MulticastEvent(time=1, pid=P0, msg_id=M))
    for pid in (P0, P1):
        per_node[pid].record(
            DeliveryEvent(time=2, pid=pid, msg_id=M, view_id=V1)
        )
        _install(per_node[pid], 3, pid, V2, {P0, P1}, V1)
    merged = TraceRecorder.merge(*per_node.values())
    for check in (check_agreement, check_uniqueness, check_integrity,
                  check_view_monotonicity):
        report = check(merged)
        assert report.ok, report.violations


# ---------------------------------------------------------------------------
# Cut consistency and the bundled enriched-view checks: edge cases
# ---------------------------------------------------------------------------


def test_cut_consistency_flags_message_crossing_cut_backwards():
    from repro.trace.checks import check_cut_consistency

    rec = TraceRecorder()
    # P0 applies e-view change (V1, 1), then multicasts...
    _structure(rec, 1, P0, V1, 1, [[P0, P1]])
    rec.record(MulticastEvent(time=2, pid=P0, msg_id=M))
    # ...which P1 delivers before applying the same change: inconsistent cut.
    rec.record(DeliveryEvent(time=3, pid=P1, msg_id=M, view_id=V1))
    _structure(rec, 4, P1, V1, 1, [[P0, P1]])
    report = check_cut_consistency(rec)
    assert not report.ok
    assert "crosses the cut" in report.violations[0]


def test_cut_consistency_clean_when_delivery_respects_cut():
    from repro.trace.checks import check_cut_consistency

    rec = TraceRecorder()
    _structure(rec, 1, P0, V1, 1, [[P0, P1]])
    _structure(rec, 1, P1, V1, 1, [[P0, P1]])
    rec.record(MulticastEvent(time=2, pid=P0, msg_id=M))
    rec.record(DeliveryEvent(time=3, pid=P1, msg_id=M, view_id=V1))
    report = check_cut_consistency(rec)
    assert report.ok and report.checked == 1


def test_enriched_checks_accept_an_empty_trace():
    from repro.trace.checks import all_ok, check_enriched_views

    reports = check_enriched_views(TraceRecorder())
    assert all_ok(reports)
    assert [r.checked for r in reports] == [0, 0, 0, 0]


def test_cut_consistency_skips_the_install_itself():
    from repro.trace.checks import check_cut_consistency

    rec = TraceRecorder()
    # Only seq-0 changes (the install); covered by view semantics, not cuts.
    _structure(rec, 1, P0, V1, 0, [[P0, P1]])
    _structure(rec, 1, P1, V1, 0, [[P0, P1]])
    report = check_cut_consistency(rec)
    assert report.ok and report.checked == 0


def test_enriched_checks_accept_single_site_views():
    from repro.trace.checks import all_ok, check_enriched_views

    rec = TraceRecorder()
    _install(rec, 0, P0, V1, {P0}, None)
    _structure(rec, 0, P0, V1, 0, [[P0]])
    solo = MessageId(P0, V1, 1)
    rec.record(MulticastEvent(time=1, pid=P0, msg_id=solo))
    rec.record(DeliveryEvent(time=2, pid=P0, msg_id=solo, view_id=V1))
    assert all_ok(check_enriched_views(rec))


def test_enriched_checks_keep_incarnations_distinct():
    from repro.trace.checks import all_ok, check_enriched_views

    rec = TraceRecorder()
    old, fresh = ProcessId(1, 0), ProcessId(1, 1)
    # The old incarnation lived in V1 and applied its changes there...
    _install(rec, 0, P0, V1, {P0, old}, None)
    _install(rec, 0, old, V1, {P0, old}, None)
    _structure(rec, 0, P0, V1, 0, [[P0], [old]])
    _structure(rec, 0, old, V1, 0, [[P0], [old]])
    _structure(rec, 1, P0, V1, 1, [[P0, old]])
    _structure(rec, 1, old, V1, 1, [[P0, old]])
    # ...the fresh one starts in V2; its history is independent.
    _install(rec, 5, P0, V2, {P0, fresh}, V1)
    _install(rec, 5, fresh, V2, {P0, fresh}, None)
    _structure(rec, 5, P0, V2, 0, [[P0], [fresh]])
    _structure(rec, 5, fresh, V2, 0, [[P0], [fresh]])
    m2 = MessageId(fresh, V2, 1)
    rec.record(MulticastEvent(time=6, pid=fresh, msg_id=m2))
    rec.record(DeliveryEvent(time=7, pid=fresh, msg_id=m2, view_id=V2))
    rec.record(DeliveryEvent(time=7, pid=P0, msg_id=m2, view_id=V2))
    assert all_ok(check_enriched_views(rec))


# ---------------------------------------------------------------------------
# The query index against a full-scan oracle
# ---------------------------------------------------------------------------
#
# The oracle is the recorder's query set as first written: every answer
# is one comprehension over ``rec.events``.  It lives here, not in the
# recorder, so the index has a reference that shares none of its code.


def _scan_of_type(rec, event_type):
    return [e for e in rec.events if type(e) is event_type]


def _scan_deliveries_in_view(rec, pid, view_id):
    return {
        e.msg_id
        for e in rec.events
        if type(e) is DeliveryEvent and e.pid == pid and e.view_id == view_id
    }


def _scan_view_sequence(rec, pid):
    return [e for e in rec.events if type(e) is ViewInstallEvent and e.pid == pid]


def _scan_installers_of(rec, view_id):
    return {
        e.pid
        for e in rec.events
        if type(e) is ViewInstallEvent and e.view_id == view_id
    }


def _scan_successor_views(rec):
    result = {}
    for e in rec.events:
        if type(e) is ViewInstallEvent and e.prev_view_id is not None:
            result[(e.pid, e.prev_view_id)] = e.view_id
    return result


def _scan_mode_at_install(rec, pid, view_id):
    for e in rec.events:
        if type(e) is ModeChangeEvent and e.pid == pid and e.view_id == view_id:
            return e.new_mode
    return None


def _assert_queries_match_scan(rec):
    """Every indexed query, over every key the trace holds plus misses."""
    kinds = {type(e) for e in rec.events} | {CrashEvent, AppEvent}
    for kind in kinds:
        assert list(rec.of_type(kind)) == _scan_of_type(rec, kind)
    assert rec.deliveries() == _scan_of_type(rec, DeliveryEvent)
    assert rec.view_installs() == _scan_of_type(rec, ViewInstallEvent)
    assert rec.successor_views() == _scan_successor_views(rec)
    nobody, nowhere = ProcessId(999, 9), ViewId(999, ProcessId(999, 9))
    pids = {e.pid for e in rec.events} | {nobody}
    views = {
        e.view_id
        for e in rec.events
        if isinstance(e, (DeliveryEvent, ViewInstallEvent, ModeChangeEvent))
    } | {nowhere}
    for pid in pids:
        assert rec.view_sequence(pid) == _scan_view_sequence(rec, pid)
        for view_id in views:
            assert rec.deliveries_in_view(pid, view_id) == (
                _scan_deliveries_in_view(rec, pid, view_id)
            )
            assert rec.mode_at_install(pid, view_id) == (
                _scan_mode_at_install(rec, pid, view_id)
            )
    for view_id in views:
        assert rec.installers_of(view_id) == _scan_installers_of(rec, view_id)


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def golden_trace(request):
    trace, _cluster = SCENARIOS[request.param]()
    return trace


def test_indexed_queries_match_scan_on_golden_traces(golden_trace):
    _assert_queries_match_scan(golden_trace)


def test_indexed_queries_match_scan_on_merged_per_node_trace(golden_trace):
    """The realnet shape: one recorder per site, merged for analysis."""
    per_site = {}
    for event in golden_trace.events:
        site = event.pid.site
        if site not in per_site:
            per_site[site] = TraceRecorder(label=f"site{site}")
        per_site[site].record(event)
    merged = TraceRecorder.merge(*per_site.values())
    assert len(merged) == len(golden_trace)
    _assert_queries_match_scan(merged)


def test_indexed_queries_match_scan_on_an_evicting_ring_buffer(golden_trace):
    ring = TraceRecorder(capacity=len(golden_trace) // 3)
    for event in golden_trace.events:
        ring.record(event)
    assert ring.dropped > 0
    _assert_queries_match_scan(ring)


@pytest.mark.parametrize("capacity", [None, 4])
def test_index_does_not_go_stale_across_record(capacity):
    """query -> record() -> query: the second answer includes the new
    event; at capacity the length never changes, only the contents."""
    rec = TraceRecorder(capacity=capacity)
    m2 = MessageId(P0, V1, 2)
    for pid in (P0, P1):
        _install(rec, 0, pid, V1, {P0, P1}, None)
    rec.record(MulticastEvent(time=1, pid=P0, msg_id=M))
    rec.record(DeliveryEvent(time=2, pid=P1, msg_id=M, view_id=V1))
    assert len(rec) == 4
    _assert_queries_match_scan(rec)
    assert rec.deliveries_in_view(P1, V1) == {M}
    rec.record(DeliveryEvent(time=3, pid=P1, msg_id=m2, view_id=V1))
    assert rec.deliveries_in_view(P1, V1) == {M, m2}
    _install(rec, 4, P1, V2, {P1}, V1)
    assert rec.successor_views() == {(P1, V1): V2}
    assert rec.installers_of(V2) == {P1}
    rec.record(
        ModeChangeEvent(
            time=4, pid=P1, view_id=V2, old_mode="N", new_mode="R",
            transition="Failure",
        )
    )
    assert rec.mode_at_install(P1, V2) == "R"
    _assert_queries_match_scan(rec)
    if capacity is not None:
        assert len(rec) == capacity and rec.dropped == 3
        assert rec.view_sequence(P0) == []  # P0's install was evicted


def test_index_follows_a_rebound_event_list():
    rec = TraceRecorder()
    rec.record(MulticastEvent(time=1, pid=P0, msg_id=M))
    assert len(rec.multicasts()) == 1
    rec.events = [DeliveryEvent(time=2, pid=P0, msg_id=M, view_id=V1)]
    assert rec.multicasts() == []
    _assert_queries_match_scan(rec)


def test_query_results_are_the_callers_to_mutate():
    rec = TraceRecorder()
    _install(rec, 0, P0, V1, {P0}, None)
    _install(rec, 1, P0, V2, {P0}, V1)
    rec.record(DeliveryEvent(time=2, pid=P0, msg_id=M, view_id=V2))
    rec.deliveries_in_view(P0, V2).clear()
    rec.successor_views().clear()
    rec.view_sequence(P0).clear()
    rec.installers_of(V1).clear()
    _assert_queries_match_scan(rec)


#: Which checker is the one that catches each planted bug.
CATCHES = {
    "lost_settlement": "LostSettlement",
    "stale_transfer": "StaleStateTransfer",
    "append_order": "ReplicaDivergence",
}

#: The workload a planted bug needs, where the default one (the
#: replicated file) cannot show it: a store bug needs the store, and
#: puts to one key from several sites close enough to race.
WORKLOADS = {
    "append_order": WorkloadSpec(app="store", clients=(("store", 1.0),)),
}


def test_every_planted_bug_has_a_named_checker():
    assert set(CATCHES) == KNOWN_BUGS


@pytest.mark.parametrize("bug", sorted(CATCHES))
def test_planted_bug_still_caught_by_its_checker(bug):
    """The checked-in reproducer's schedule, through the whole pipeline
    (run, gather, every registered checker over the indexed trace)."""
    schedule = [Partition(200.0, ((1, 2, 3, 4), (0,))), Heal(400.0)]
    engine = FuzzEngine(FuzzConfig(seed=3))
    entry = quick_entry(schedule, seed=3)
    if bug in WORKLOADS:
        entry = replace(entry, workload=WORKLOADS[bug])
    executed = engine.execute_entry(replace(entry, planted_bug=bug))
    assert executed.failing_checkers == (CATCHES[bug],)
    clean = engine.execute_entry(entry)
    assert not clean.failed
