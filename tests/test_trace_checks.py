"""The checkers must *detect* violations, not just pass clean traces.

Each test fabricates a synthetic trace seeded with exactly one defect
and asserts the corresponding checker flags it (and only it).  The
end of the file holds every check's whole-trace definition, the oracle
its one-pass monitor is compared with.
"""

from __future__ import annotations

import io
from dataclasses import replace

import pytest

from repro.core.versioning import Provenance
from repro.fuzz import bugs
from repro.fuzz.bugs import KNOWN_BUGS
from repro.fuzz.corpus import WorkloadSpec
from repro.fuzz.engine import FuzzConfig, FuzzEngine, quick_entry
from repro.net.faults import Heal, Partition
from repro.ports import make_cluster
from repro.trace.checks import (
    CHECKS,
    LOST_SETTLEMENT_GRACE,
    STORE_CHECKS,
    CheckContext,
    CheckPass,
    CheckReport,
    make_checkers,
    run_check,
    run_checkers,
)
from repro.trace.events import (
    AppEvent,
    CrashEvent,
    DeliveryEvent,
    EViewChangeEvent,
    ModeChangeEvent,
    MulticastEvent,
    RecoverEvent,
    StoreApplied,
    ViewInstallEvent,
)
from repro.trace.export import dump_trace, flat_provenance, load_trace
from repro.trace.recorder import TraceRecorder
from repro.vsync.channel import ViewChannels
from repro.workload.clients import LockClient
from repro.workload.generator import RandomFaultGenerator
from repro.workload.runner import run_checked_workload
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
    report = run_check("Agreement(2.1)", rec)
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
    assert run_check("Agreement(2.1)", rec).ok


def test_uniqueness_flags_two_view_delivery():
    rec = TraceRecorder()
    rec.record(MulticastEvent(time=0, pid=P0, msg_id=M))
    rec.record(DeliveryEvent(time=1, pid=P0, msg_id=M, view_id=V1))
    rec.record(DeliveryEvent(time=2, pid=P1, msg_id=M, view_id=V2))
    report = run_check("Uniqueness(2.2)", rec)
    assert not report.ok


def test_integrity_flags_duplicate_delivery():
    rec = TraceRecorder()
    rec.record(MulticastEvent(time=0, pid=P0, msg_id=M))
    rec.record(DeliveryEvent(time=1, pid=P1, msg_id=M, view_id=V1))
    rec.record(DeliveryEvent(time=2, pid=P1, msg_id=M, view_id=V1))
    report = run_check("Integrity(2.3)", rec)
    assert any("twice" in v for v in report.violations)


def test_integrity_flags_phantom_message():
    rec = TraceRecorder()
    rec.record(DeliveryEvent(time=1, pid=P1, msg_id=M, view_id=V1))
    report = run_check("Integrity(2.3)", rec)
    assert any("never-multicast" in v for v in report.violations)


def test_monotonicity_flags_regressing_views():
    rec = TraceRecorder()
    _install(rec, 0, P0, V2, {P0}, None)
    _install(rec, 1, P0, V1, {P0}, V2)
    report = run_check("ViewMonotonicity", rec)
    assert not report.ok


def test_total_order_flags_skipped_sequence():
    rec = TraceRecorder()
    _structure(rec, 0, P0, V1, 0, [[P0, P1]])
    _structure(rec, 1, P0, V1, 2, [[P0, P1]])  # skipped seq 1
    report = run_check("TotalOrder(6.1)", rec)
    assert not report.ok


def test_total_order_flags_divergent_structures():
    rec = TraceRecorder()
    _structure(rec, 0, P0, V1, 0, [[P0], [P1]])
    _structure(rec, 0, P1, V1, 0, [[P0, P1]])  # same seq, different shape
    report = run_check("TotalOrder(6.1)", rec)
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
    report = run_check("CausalOrder(6.2)", rec)
    assert not report.ok


def test_causal_order_passes_when_change_applied_first():
    rec = TraceRecorder()
    _structure(rec, 0, P0, V1, 0, [[P0, P1]])
    _structure(rec, 1, P0, V1, 1, [[P0, P1]])
    rec.record(
        DeliveryEvent(time=2, pid=P0, msg_id=M, view_id=V1, sender_eview_seq=1)
    )
    assert run_check("CausalOrder(6.2)", rec).ok


def test_structure_flags_split_within_view():
    rec = TraceRecorder()
    _structure(rec, 0, P0, V1, 0, [[P0, P1]])
    _structure(rec, 1, P0, V1, 1, [[P0], [P1]])  # a split: illegal
    report = run_check("Structure(6.3)", rec)
    assert any("split" in v for v in report.violations)


def test_structure_flags_separated_mates_across_views():
    rec = TraceRecorder()
    for pid in (P0, P1):
        _install(rec, 0, pid, V1, {P0, P1}, None)
        _structure(rec, 0, pid, V1, 0, [[P0, P1]])
    for pid in (P0, P1):
        _install(rec, 1, pid, V2, {P0, P1}, V1)
        _structure(rec, 1, pid, V2, 0, [[P0], [P1]])  # mates separated
    report = run_check("Structure(6.3)", rec)
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
    assert run_check("Structure(6.3)", rec).ok


def test_reports_render():
    rec = TraceRecorder()
    report = run_check("Uniqueness(2.2)", rec)
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
    for name in ("Agreement(2.1)", "Uniqueness(2.2)", "Integrity(2.3)",
                 "ViewMonotonicity"):
        report = run_check(name, merged)
        assert report.ok, report.violations


# ---------------------------------------------------------------------------
# Cut consistency and the bundled enriched-view checks: edge cases
# ---------------------------------------------------------------------------


def test_cut_consistency_flags_message_crossing_cut_backwards():
    rec = TraceRecorder()
    # P0 applies e-view change (V1, 1), then multicasts...
    _structure(rec, 1, P0, V1, 1, [[P0, P1]])
    rec.record(MulticastEvent(time=2, pid=P0, msg_id=M))
    # ...which P1 delivers before applying the same change: inconsistent cut.
    rec.record(DeliveryEvent(time=3, pid=P1, msg_id=M, view_id=V1))
    _structure(rec, 4, P1, V1, 1, [[P0, P1]])
    report = run_check("CutConsistency(6.2)", rec)
    assert not report.ok
    assert "crosses the cut" in report.violations[0]


def test_cut_consistency_clean_when_delivery_respects_cut():
    rec = TraceRecorder()
    _structure(rec, 1, P0, V1, 1, [[P0, P1]])
    _structure(rec, 1, P1, V1, 1, [[P0, P1]])
    rec.record(MulticastEvent(time=2, pid=P0, msg_id=M))
    rec.record(DeliveryEvent(time=3, pid=P1, msg_id=M, view_id=V1))
    report = run_check("CutConsistency(6.2)", rec)
    assert report.ok and report.checked == 1


def test_enriched_checks_accept_an_empty_trace():
    from repro.trace.checks import all_ok, check_enriched_views

    reports = check_enriched_views(TraceRecorder())
    assert all_ok(reports)
    assert [r.checked for r in reports] == [0, 0, 0, 0]


def test_cut_consistency_skips_the_install_itself():
    rec = TraceRecorder()
    # Only seq-0 changes (the install); covered by view semantics, not cuts.
    _structure(rec, 1, P0, V1, 0, [[P0, P1]])
    _structure(rec, 1, P1, V1, 0, [[P0, P1]])
    report = run_check("CutConsistency(6.2)", rec)
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


# ---------------------------------------------------------------------------
# The monitors against the whole-trace oracle
# ---------------------------------------------------------------------------
#
# The oracle is each check as first written: a function of the whole
# trace, reading it through the recorder's queries after the run.  The
# monitors replaced these in ``repro.trace.checks``; they live on here,
# sharing none of the monitors' code, as the definition each monitor's
# report must equal.  Two texts list a set sorted (Agreement's
# difference, Uniqueness's views), so that they do not depend on a
# set's layout.


def _dict_of(data):
    """A ``store_apply`` record as the dict it was written as."""
    return data.as_dict() if isinstance(data, StoreApplied) else data


def check_agreement(rec, ctx=CheckContext()) -> CheckReport:
    """Property 2.1: processes that survive from one view to the same
    next view deliver the same set of messages (in the old view)."""
    report = CheckReport("Agreement(2.1)")
    groups: dict[tuple[ViewId, ViewId], set[ProcessId]] = {}
    for (pid, prev), nxt in rec.successor_views().items():
        groups.setdefault((prev, nxt), set()).add(pid)
    for (prev, nxt), pids in groups.items():
        if len(pids) < 2:
            continue
        report.checked += 1
        sets = {pid: frozenset(rec.deliveries_in_view(pid, prev)) for pid in pids}
        reference = next(iter(sets.values()))
        for pid, delivered in sets.items():
            if delivered != reference:
                diff = delivered ^ reference
                report.violation(
                    f"survivors of {prev}->{nxt} disagree: {pid} differs on {sorted(diff)}"
                )
    return report


def check_uniqueness(rec, ctx=CheckContext()) -> CheckReport:
    """Property 2.2: a message is delivered in at most one view."""
    report = CheckReport("Uniqueness(2.2)")
    views_of: dict = {}
    for ev in rec.of_type(DeliveryEvent):
        views_of.setdefault(ev.msg_id, set()).add(ev.view_id)
    report.checked = len(views_of)
    for msg_id, views in views_of.items():
        if len(views) > 1:
            report.violation(
                f"{msg_id} delivered in {len(views)} views: {sorted(views)}"
            )
    return report


def check_integrity(rec, ctx=CheckContext()) -> CheckReport:
    """Property 2.3: at-most-once per process, and only genuine messages."""
    report = CheckReport("Integrity(2.3)")
    multicast_ids = {ev.msg_id for ev in rec.of_type(MulticastEvent)}
    seen: set = set()
    for ev in rec.of_type(DeliveryEvent):
        report.checked += 1
        key = (ev.pid, ev.msg_id)
        if key in seen:
            report.violation(f"{ev.pid} delivered {ev.msg_id} twice")
        seen.add(key)
        if ev.msg_id not in multicast_ids:
            report.violation(f"{ev.pid} delivered never-multicast {ev.msg_id}")
    return report


def check_view_monotonicity(rec, ctx=CheckContext()) -> CheckReport:
    """Sanity: each process installs strictly increasing view ids."""
    report = CheckReport("ViewMonotonicity")
    for pid in {ev.pid for ev in rec.of_type(ViewInstallEvent)}:
        seq = rec.view_sequence(pid)
        report.checked += 1
        for earlier, later in zip(seq, seq[1:]):
            if later.view_id <= earlier.view_id:
                report.violation(
                    f"{pid} installed {later.view_id} after {earlier.view_id}"
                )
            if later.prev_view_id != earlier.view_id:
                report.violation(
                    f"{pid} has broken view chain at {later.view_id}"
                )
    return report


def check_total_order(rec, ctx=CheckContext()) -> CheckReport:
    """Property 6.1: e-view changes within a view are totally ordered.

    Concretely: every process applies consecutively numbered changes
    starting at 0 (the install), and any two processes that applied the
    same change number in the same view saw the identical structure.
    """
    report = CheckReport("TotalOrder(6.1)")
    per_proc: dict[tuple[ProcessId, ViewId], list[EViewChangeEvent]] = {}
    canonical: dict[tuple[ViewId, int], tuple] = {}
    for ev in rec.of_type(EViewChangeEvent):
        per_proc.setdefault((ev.pid, ev.view_id), []).append(ev)
        key = (ev.view_id, ev.eview_seq)
        snapshot = (ev.subviews, ev.svsets)
        if key in canonical:
            report.checked += 1
            if canonical[key] != snapshot:
                report.violation(
                    f"divergent structure at {ev.view_id} seq {ev.eview_seq}"
                )
        else:
            canonical[key] = snapshot
    for (pid, vid), events in per_proc.items():
        report.checked += 1
        seqs = [e.eview_seq for e in events]
        if seqs != sorted(seqs):
            report.violation(f"{pid} applied e-view changes out of order in {vid}")
        if seqs and (seqs[0] != 0 or seqs != list(range(len(seqs)))):
            report.violation(
                f"{pid} skipped e-view changes in {vid}: applied {seqs}"
            )
    return report


def check_causal_order(rec, ctx=CheckContext()) -> CheckReport:
    """Property 6.2: e-view changes are consistent cuts — no process
    delivers a message multicast after an e-view change it has not yet
    applied itself."""
    report = CheckReport("CausalOrder(6.2)")
    applied: dict[tuple[ProcessId, ViewId], int] = {}
    for ev in rec.events:
        if isinstance(ev, EViewChangeEvent):
            applied[(ev.pid, ev.view_id)] = ev.eview_seq
        elif isinstance(ev, DeliveryEvent):
            report.checked += 1
            have = applied.get((ev.pid, ev.view_id), -1)
            if ev.sender_eview_seq > have:
                report.violation(
                    f"{ev.pid} delivered {ev.msg_id} tagged e-view seq "
                    f"{ev.sender_eview_seq} while at seq {have}"
                )
    return report


def _subview_partner_map(snapshot: tuple) -> dict[ProcessId, frozenset[ProcessId]]:
    return {pid: members for _, members in snapshot for pid in members}


def check_structure(rec, ctx=CheckContext()) -> CheckReport:
    """Property 6.3: subview and sv-set structures are preserved across
    view changes, and never split within a view.

    Two parts:

    * *across views*: processes common to ``v`` and its successor ``v'``
      that shared a subview (sv-set) at the end of ``v`` still share one
      at the start of ``v'``;
    * *within a view*: successive structure snapshots at one process only
      coarsen (merges), never split.
    """
    report = CheckReport("Structure(6.3)")
    # Last snapshot per (pid, view) and first (seq 0) snapshot per (pid, view).
    last: dict[tuple[ProcessId, ViewId], EViewChangeEvent] = {}
    first: dict[tuple[ProcessId, ViewId], EViewChangeEvent] = {}
    history: dict[tuple[ProcessId, ViewId], list[EViewChangeEvent]] = {}
    for ev in rec.of_type(EViewChangeEvent):
        key = (ev.pid, ev.view_id)
        last[key] = ev
        if key not in first or ev.eview_seq < first[key].eview_seq:
            first[key] = ev
        history.setdefault(key, []).append(ev)
    # Like Agreement (2.1), the property quantifies over processes that
    # "survive from one view to the same next view": the pair (p, q) is
    # constrained only when q's own installed-view chain also has v as
    # the immediate predecessor of v'.  A process listed in a view it
    # never adopted, or one that reached v' through an intermediate view
    # the other never installed, did not take the v -> v' transition.
    successor: dict[tuple[ProcessId, ViewId], ViewId] = rec.successor_views()

    # Within-view: no splits.
    for (pid, vid), events in history.items():
        for earlier, later in zip(events, events[1:]):
            report.checked += 1
            earlier_map = _subview_partner_map(earlier.subviews)
            later_map = _subview_partner_map(later.subviews)
            for member, mates in earlier_map.items():
                if member in later_map and not mates <= later_map[member]:
                    report.violation(
                        f"subview of {member} split within {vid} at {pid}"
                    )

    # Across views.
    for ev in rec.of_type(ViewInstallEvent):
        if ev.prev_view_id is None:
            continue
        old_key = (ev.pid, ev.prev_view_id)
        new_key = (ev.pid, ev.view_id)
        if old_key not in last or new_key not in first:
            continue
        report.checked += 1
        old_subviews = _subview_partner_map(last[old_key].subviews)
        new_subviews = _subview_partner_map(first[new_key].subviews)
        transitioned = {
            q
            for q in old_subviews
            if successor.get((q, ev.prev_view_id)) == ev.view_id
        }
        survivors = set(old_subviews) & set(new_subviews) & transitioned
        for member in survivors:
            old_mates = old_subviews[member] & frozenset(survivors)
            if not old_mates <= new_subviews[member]:
                report.violation(
                    f"subview mates of {member} separated across "
                    f"{ev.prev_view_id} -> {ev.view_id}"
                )
        old_ssets = _svset_partner_map(last[old_key])
        new_ssets = _svset_partner_map(first[new_key])
        for member in survivors:
            old_mates = old_ssets.get(member, frozenset()) & frozenset(survivors)
            if member in new_ssets and not old_mates <= new_ssets[member]:
                report.violation(
                    f"sv-set mates of {member} separated across "
                    f"{ev.prev_view_id} -> {ev.view_id}"
                )
    return report


def _svset_partner_map(ev: EViewChangeEvent) -> dict[ProcessId, frozenset[ProcessId]]:
    """pid -> all processes sharing an sv-set with it in this snapshot."""
    subview_members = {sid: members for sid, members in ev.subviews}
    result: dict[ProcessId, frozenset[ProcessId]] = {}
    for _, subview_ids in ev.svsets:
        group: set[ProcessId] = set()
        for sid in subview_ids:
            group |= subview_members.get(sid, frozenset())
        frozen = frozenset(group)
        for pid in frozen:
            result[pid] = frozen
    return result


def check_cut_consistency(rec, ctx=CheckContext()) -> CheckReport:
    """Property 6.2, order-theoretic form: e-view changes define
    consistent cuts of the computation.

    Where :func:`check_causal_order` verifies the *mechanism* (the
    sender's sequence tag never exceeds the receiver's applied count),
    this checker verifies the *definition*: for every e-view change
    ``(v, k)``, no multicast issued by a process after it applied the
    change is delivered by another process before that process applied
    it.  Happens-before is generated by per-process event order plus
    multicast -> delivery edges, reconstructed from the trace alone.
    """
    report = CheckReport("CutConsistency(6.2)")
    # One pass: each event's index in its own process's sequence, kept
    # for the three kinds the cuts are defined over.
    seen: dict[ProcessId, int] = {}
    # Application points of each e-view change per process.
    applied_at: dict[tuple[ViewId, int], dict[ProcessId, int]] = {}
    mcast_pos: dict = {}
    # A cut constrains only the deliveries made in its own view.
    delivered_in: dict[ViewId, list[tuple[DeliveryEvent, int]]] = {}
    for ev in rec.events:
        pid = getattr(ev, "pid", None)
        if pid is None:
            continue
        at = seen.get(pid, 0)
        seen[pid] = at + 1
        kind = type(ev)
        if kind is DeliveryEvent:
            delivered_in.setdefault(ev.view_id, []).append((ev, at))
        elif kind is MulticastEvent:
            mcast_pos[ev.msg_id] = (pid, at)
        elif kind is EViewChangeEvent:
            applied_at.setdefault((ev.view_id, ev.eview_seq), {})[pid] = at

    for (view_id, seq_no), cut in applied_at.items():
        if seq_no == 0:
            continue  # the install itself is covered by view semantics
        report.checked += 1
        for ev, delivered_at in delivered_in.get(view_id, ()):
            if ev.pid not in cut:
                continue
            origin = mcast_pos.get(ev.msg_id)
            if origin is None:
                continue
            sender, sent_at = origin
            if sender not in cut:
                continue
            sent_after_cut = sent_at > cut[sender]
            delivered_before_cut = delivered_at < cut[ev.pid]
            if sent_after_cut and delivered_before_cut:
                report.violation(
                    f"{ev.msg_id} crosses the cut of e-view change "
                    f"({view_id}, {seq_no}) backwards: sent after at "
                    f"{sender}, delivered before at {ev.pid}"
                )
    return report




def check_stale_state_transfer(rec, ctx=CheckContext()) -> CheckReport:
    """A state transfer/merge adopted less than the best offered state.

    The settlement leader records every ``settle_decide`` with the
    offered versions and the version actually adopted.  Outside state
    *creation* (where last-process-to-fail selection may legitimately
    prefer an older-versioned snapshot), adopting a version below the
    maximum offered silently discards committed operations.
    """
    report = CheckReport("StaleStateTransfer")
    for ev in rec.of_type(AppEvent):
        if ev.tag != "settle_decide" or not isinstance(ev.data, dict):
            continue
        if ev.data.get("kind") not in ("transfer", "merge"):
            continue
        versions = ev.data.get("versions")
        chosen = ev.data.get("chosen_version")
        if not versions or chosen is None:
            continue  # trace predates version accounting
        report.checked += 1
        best = max(versions)
        if chosen < best:
            report.violation(
                f"{ev.pid} adopted version {chosen} but a donor offered "
                f"{best} (t={ev.time:g}, kind={ev.data.get('kind')})"
            )
    return report


def check_lost_settlement(rec, ctx=CheckContext()) -> CheckReport:
    """A process entered S-mode and the settlement never came.

    After the run's settle tail, a process still in SETTLING whose view
    has been stable for longer than :data:`LOST_SETTLEMENT_GRACE` —
    with no settlement activity anywhere in that window, and not parked
    on the legitimate ``settle_wait_all_sites`` state-creation barrier —
    lost its internal operation: the leader never started (or never
    finished) the session that would reconcile it back to N-mode.
    """
    report = CheckReport("LostSettlement")
    if not rec.events:
        return report
    t_end = max(ev.time for ev in rec.events)
    grace = LOST_SETTLEMENT_GRACE * ctx.time_scale
    crashed = {ev.pid for ev in rec.of_type(CrashEvent)}
    last_mode: dict = {}
    mode_at: dict = {}
    for ev in rec.of_type(ModeChangeEvent):
        last_mode[ev.pid] = ev.new_mode
        mode_at[ev.pid] = ev.time
    last_install: dict = {}
    for ev in rec.of_type(ViewInstallEvent):
        last_install[ev.pid] = ev.time
    settle_events = [
        ev for ev in rec.of_type(AppEvent) if ev.tag.startswith("settle")
    ]
    latest_settle = max((ev.time for ev in settle_events), default=None)
    waiting_all_sites = {
        ev.pid
        for ev in settle_events
        if ev.tag == "settle_wait_all_sites" and ev.time > t_end - grace
    }
    for pid, mode in sorted(last_mode.items(), key=lambda kv: repr(kv[0])):
        if pid in crashed:
            continue
        report.checked += 1
        if mode != "S":
            continue
        if t_end - last_install.get(pid, t_end) < grace:
            continue  # view changed recently; settlement may be due
        if t_end - mode_at.get(pid, t_end) < grace:
            continue
        if latest_settle is not None and t_end - latest_settle < grace:
            continue  # a session is visibly making progress
        if waiting_all_sites:
            continue  # creation legitimately parked on missing sites
        report.violation(
            f"{pid} stuck in S-mode since t={mode_at.get(pid, 0.0):g} "
            f"with no settlement activity in the last "
            f"{LOST_SETTLEMENT_GRACE:g} scenario units"
        )
    return report


def check_subview_merge_atomicity(rec, ctx=CheckContext()) -> CheckReport:
    """Subview merges must be whole and agreed.

    Two patterns (Section 6.2's merge discipline):

    * *whole*: within a view, a later structure's subview must be the
      union of complete earlier subviews — a subview that absorbs only
      part of another was split by the merge, which the paper forbids;
    * *agreed*: processes that survive a view change into the same next
      view must have applied the same number of e-view changes in the
      old view — a survivor that missed a merge violates the
      view-synchronous delivery of e-view changes.
    """
    report = CheckReport("SubviewMergeAtomicity")
    canonical: dict = {}
    max_seq: dict = {}
    for ev in rec.of_type(EViewChangeEvent):
        canonical.setdefault((ev.view_id, ev.eview_seq), ev.subviews)
        key = (ev.pid, ev.view_id)
        if ev.eview_seq > max_seq.get(key, -1):
            max_seq[key] = ev.eview_seq
    by_view: dict = {}
    for (view_id, seq), subviews in canonical.items():
        by_view.setdefault(view_id, {})[seq] = subviews
    # Whole-subview merges within each view.
    for view_id, seq_map in by_view.items():
        for seq in sorted(seq_map):
            before = seq_map.get(seq - 1)
            if before is None:
                continue
            report.checked += 1
            old_sets = [members for _, members in before]
            for sid, members in seq_map[seq]:
                parts = [m for m in old_sets if m & members]
                torn = [m for m in parts if not m <= members]
                union = frozenset().union(*parts) if parts else frozenset()
                if torn or (parts and union != members):
                    report.violation(
                        f"partial subview merge at {view_id} seq {seq}: "
                        f"{sid} is not a union of whole prior subviews"
                    )
    # Survivor agreement on the e-view change count.
    groups: dict = {}
    for (pid, prev), nxt in rec.successor_views().items():
        groups.setdefault((prev, nxt), set()).add(pid)
    for (prev, _nxt), pids in groups.items():
        counts = {
            pid: max_seq[(pid, prev)] for pid in pids if (pid, prev) in max_seq
        }
        if len(counts) < 2:
            continue
        report.checked += 1
        if len(set(counts.values())) > 1:
            detail = ", ".join(
                f"{pid}={count}"
                for pid, count in sorted(counts.items(), key=lambda kv: repr(kv[0]))
            )
            report.violation(
                f"survivors of {prev} applied different e-view change "
                f"counts: {detail}"
            )
    return report


def check_acked_write_loss(rec, ctx=CheckContext()) -> CheckReport:
    """No acknowledged client write may vanish from the store.

    :class:`~repro.apps.versioned_store.VersionedStore` records three
    audit events: ``store_ack`` when a put earns its quorum certificate
    (the client saw "ok"), ``store_apply`` when a member adds a version,
    and ``store_state`` whenever a member's whole chain set is
    *replaced* (state adoption after settlement, or a disk restore on
    recovery) — carrying the provenance of every version it now holds.

    Replaying those per process — ``store_state`` resets the process's
    holdings, ``store_apply`` adds to them — yields what each process
    retains at the end of the run.  Every acked provenance must appear
    in the union over processes still alive at the end: merges are
    provenance-unions, so losing an acked write means a state decision
    discarded a version some client was promised.

    A provenance is the store's own
    :class:`~repro.core.versioning.Provenance` in a recorded trace and
    its flat ``(epoch, site, incarnation, seq)`` in an imported one.
    Either is read as it is, and a report prints the flat form, so a
    trace and its export report the same text.
    """
    report = CheckReport("AckedWriteLoss")
    acked: dict[tuple, tuple] = {}  # prov -> (time, pid, key)
    holdings: dict = {}  # pid -> set of provs
    # Replay in time order: a later store_state replaces holdings, so
    # ordering against store_apply matters.
    for ev in sorted(rec.of_type(AppEvent), key=lambda e: e.time):
        data = _dict_of(ev.data)
        if not isinstance(data, dict):
            continue
        if ev.tag == "store_ack":
            prov = data.get("prov")
            if prov:
                acked.setdefault(prov, (ev.time, ev.pid, data.get("key")))
        elif ev.tag == "store_apply":
            prov = data.get("prov")
            if prov:
                holdings.setdefault(ev.pid, set()).add(prov)
        elif ev.tag == "store_state":
            holdings[ev.pid] = set(data.get("provs", ()))
    if not acked:
        return report
    dead = {ev.pid for ev in rec.of_type(CrashEvent)}
    retained: set = set()
    for pid, provs in holdings.items():
        if pid not in dead:
            retained |= provs
    for prov, (time, pid, key) in sorted(acked.items()):
        report.checked += 1
        if prov not in retained:
            report.violation(
                f"write {flat_provenance(prov)} on key {key!r} was acked "
                f"to its client by {pid} at t={time:g} but no live process "
                f"retains it at the end of the run"
            )
    return report


def check_certified_ack(rec, ctx=CheckContext()) -> CheckReport:
    """Every "committed" the store answers was certified when given.

    A ``store_ack`` by process p must be backed by a strict majority of
    p's view at that point of the trace (the last view p installed)
    holding the acked provenance.  What a process holds is replayed
    from the trace's start, as for :func:`check_acked_write_loss`:
    ``store_state`` replaces its holdings, ``store_apply`` adds to them.
    """
    report = CheckReport("CertifiedAck")
    views: dict = {}  # pid -> the last ViewInstallEvent
    holdings: dict = {}  # pid -> set of provs
    for ev in rec.events:
        if type(ev) is ViewInstallEvent:
            views[ev.pid] = ev
            continue
        if type(ev) is not AppEvent:
            continue
        data = _dict_of(ev.data)
        if not isinstance(data, dict):
            continue
        if ev.tag == "store_apply":
            holdings.setdefault(ev.pid, set()).add(data.get("prov"))
        elif ev.tag == "store_state":
            holdings[ev.pid] = set(data.get("provs", ()))
        elif ev.tag == "store_ack" and data.get("prov"):
            report.checked += 1
            prov = data["prov"]
            view = views.get(ev.pid)
            members = view.members if view is not None else frozenset()
            holders = len([m for m in members if prov in holdings.get(m, ())])
            if 2 * holders <= len(members):
                report.violation(
                    f"write {flat_provenance(prov)} on key {data.get('key')!r} "
                    f"was acked to its client by {ev.pid} at t={ev.time:g} "
                    f"while {holders} of the {len(members)} members of its "
                    f"view {view.view_id if view is not None else None} held it"
                )
    return report


def check_replica_divergence(rec, ctx=CheckContext()) -> CheckReport:
    """The live replicas of one component end with one store, in order.

    Replays each process's ``store_state`` (every chain, in order:
    ``keys``, their chain ``lens`` and the ``provs`` in chain order) and
    ``store_apply`` events (a version appended, or inserted at ``at``)
    into the chains it holds at the end of the run, then groups the
    live store replicas by the last view each installed.  Within a
    group every key's versions must stand in one order, hence one head
    for an any-replica ``get``.  Multicast is FIFO per sender only, so a
    store whose result depended on the order in which different
    writers' puts arrived would fail here.  A put still in flight when
    the run ends is left out (only versions every replica of the group
    holds are compared); whether a version survives at all is
    :func:`check_acked_write_loss`'s business.  Provenances are read in
    either form, as there.
    """
    report = CheckReport("ReplicaDivergence")
    held: dict = {}  # pid -> key -> [prov, ...] in chain order
    for ev in rec.of_type(AppEvent):
        data = _dict_of(ev.data)
        if not isinstance(data, dict):
            continue
        if ev.tag == "store_apply":
            chain = held.setdefault(ev.pid, {}).setdefault(data.get("key"), [])
            chain.insert(data.get("at", len(chain)), data.get("prov"))
        elif ev.tag == "store_state":
            provs = data.get("provs", ())
            chains = held[ev.pid] = {}
            at = 0
            for key, n in zip(data.get("keys", ()), data.get("lens", ())):
                chains[key] = list(provs[at : at + n])
                at += n
    if not held:
        return report
    dead = {ev.pid for ev in rec.of_type(CrashEvent)}
    last_view: dict = {}
    for ev in rec.of_type(ViewInstallEvent):
        last_view[ev.pid] = ev.view_id
    components: dict = {}
    for pid in sorted(held):
        if pid not in dead and pid in last_view:
            components.setdefault(last_view[pid], []).append(pid)
    for view_id, pids in components.items():
        if len(pids) < 2:
            continue
        keys = set().union(*(held[pid] for pid in pids))
        for key in sorted(keys, key=repr):
            report.checked += 1
            chains = [held[pid].get(key, ()) for pid in pids]
            # A put still in flight when the run ends is held by some
            # replicas only: compare the versions all hold.
            common = set(chains[0]).intersection(*chains[1:])
            orders = {tuple(p for p in chain if p in common) for chain in chains}
            if len(orders) > 1:
                heads = {order[-1] for order in orders if order}
                report.violation(
                    f"the {len(pids)} live replicas in {view_id} hold "
                    f"{len(orders)} orders of key {key!r}'s "
                    f"{len(common)} versions ({len(heads)} different heads)"
                )
    return report


def check_lock_exclusion(rec, ctx=CheckContext()) -> CheckReport:
    """No lock grant lands over a live holder.

    Every ``lock_apply`` grant by p is judged against p's view at that
    point of the trace, the last one it installed before the grant:
    the holder p knew before the grant must be nobody, the grantee, or
    a process outside that view.
    """
    report = CheckReport("LockExclusion")
    installs: dict = {}  # pid -> [(event index, members)], in trace order
    for index, ev in enumerate(rec.events):
        if type(ev) is ViewInstallEvent:
            installs.setdefault(ev.pid, []).append((index, ev.members))
    for index, ev in enumerate(rec.events):
        if type(ev) is not AppEvent or ev.tag != "lock_apply":
            continue
        data = _dict_of(ev.data)
        if data.get("kind") != "grant":
            continue
        report.checked += 1
        before = [m for at, m in installs.get(ev.pid, ()) if at < index]
        members = before[-1] if before else frozenset()
        holder = data.get("holder")
        if holder not in (None, data.get("subject")) and holder in members:
            report.violation(
                f"{ev.pid} applied a grant to {data.get('subject')} at "
                f"t={ev.time:g} while {holder} of its view held the lock"
            )
    return report


def check_zombie_incarnation(rec, ctx=CheckContext()) -> CheckReport:
    """No event from a crashed or superseded incarnation.

    A process identifier names one incarnation of a site.  After its
    crash is recorded, no later trace event may carry that pid; and
    once a site recovers under a fresh incarnation, deliveries
    attributed to a *retired* incarnation of the same site are zombie
    deliveries — state surviving where the failure model says it died.
    """
    report = CheckReport("ZombieIncarnation")
    crashed_at: dict = {}
    superseded_at: dict = {}  # pid -> time a newer incarnation started
    for ev in rec.events:
        if type(ev) is CrashEvent:
            crashed_at.setdefault(ev.pid, ev.time)
        elif type(ev) is RecoverEvent:
            site = ev.pid.site
            for inc in range(ev.pid.incarnation):
                superseded_at.setdefault(type(ev.pid)(site, inc), ev.time)
    if not crashed_at and not superseded_at:
        return report
    for ev in rec.events:
        if type(ev) in (CrashEvent, RecoverEvent):
            continue
        pid = getattr(ev, "pid", None)
        if pid is None:
            continue
        report.checked += 1
        t_dead = crashed_at.get(pid)
        if t_dead is not None and ev.time > t_dead:
            report.violation(
                f"{pid} recorded {type(ev).__name__} at t={ev.time:g} "
                f"after crashing at t={t_dead:g}"
            )
            continue
        if type(ev) is DeliveryEvent:
            t_super = superseded_at.get(pid)
            if t_super is not None and ev.time > t_super:
                report.violation(
                    f"retired incarnation {pid} delivered {ev.msg_id} "
                    f"at t={ev.time:g} after its site recovered as a "
                    f"newer incarnation at t={t_super:g}"
                )
    return report


ORACLE = {
    "Agreement(2.1)": check_agreement,
    "Uniqueness(2.2)": check_uniqueness,
    "Integrity(2.3)": check_integrity,
    "ViewMonotonicity": check_view_monotonicity,
    "TotalOrder(6.1)": check_total_order,
    "CausalOrder(6.2)": check_causal_order,
    "CutConsistency(6.2)": check_cut_consistency,
    "Structure(6.3)": check_structure,
    "AckedWriteLoss": check_acked_write_loss,
    "CertifiedAck": check_certified_ack,
    "LockExclusion": check_lock_exclusion,
    "LostSettlement": check_lost_settlement,
    "ReplicaDivergence": check_replica_divergence,
    "StaleStateTransfer": check_stale_state_transfer,
    "SubviewMergeAtomicity": check_subview_merge_atomicity,
    "ZombieIncarnation": check_zombie_incarnation,
}


def _as_tuples(reports):
    return [(r.name, r.checked, r.violations) for r in reports]


def _assert_monitors_match_oracle(rec):
    """Every monitor's report, in one pass, equals its oracle's: name,
    checked count and the violations in order; and the same again on
    the trace's export, read back."""
    expected = _as_tuples(check(rec) for check in ORACLE.values())
    assert _as_tuples(run_checkers(rec, make_checkers(CHECKS))) == expected
    out = io.StringIO()
    dump_trace(rec, out)
    imported = load_trace(out.getvalue().splitlines())
    assert _as_tuples(run_checkers(imported, make_checkers(CHECKS))) == (
        _as_tuples(check(imported) for check in ORACLE.values())
    )
    return expected


def test_the_oracle_covers_the_table():
    assert list(ORACLE) == list(CHECKS)


def test_monitors_match_the_oracle_on_golden_traces(golden_trace):
    _assert_monitors_match_oracle(golden_trace)


def _late_installer():
    """P1 installs V1 only after P0 has left it for V2: V1 must stay
    open for its member P1, so the two are one V1 -> V2 group, and they
    disagree."""
    rec = TraceRecorder()
    m2 = MessageId(P0, V1, 2)
    _install(rec, 0, P0, V1, {P0, P1}, None)
    rec.record(MulticastEvent(time=1, pid=P0, msg_id=M))
    rec.record(DeliveryEvent(time=2, pid=P0, msg_id=M, view_id=V1))
    rec.record(MulticastEvent(time=2, pid=P0, msg_id=m2))
    rec.record(DeliveryEvent(time=2, pid=P0, msg_id=m2, view_id=V1))
    _install(rec, 3, P0, V2, {P0, P1}, V1)
    _install(rec, 4, P1, V1, {P0, P1}, None)
    rec.record(DeliveryEvent(time=5, pid=P1, msg_id=M, view_id=V1))
    _install(rec, 6, P1, V2, {P0, P1}, V1)
    return rec


def _cut_applied_twice():
    """P1 delivers a message sent after change 1 before applying it,
    then applies it twice: one crossing, as the cut is the last
    application."""
    rec = TraceRecorder()
    for pid in (P0, P1):
        _install(rec, 0, pid, V1, {P0, P1}, None)
        _structure(rec, 0, pid, V1, 0, [[P0], [P1]])
    _structure(rec, 1, P0, V1, 1, [[P0, P1]])
    rec.record(MulticastEvent(time=2, pid=P0, msg_id=M))
    rec.record(DeliveryEvent(time=3, pid=P1, msg_id=M, view_id=V1))
    _structure(rec, 4, P1, V1, 1, [[P0, P1]])
    _structure(rec, 5, P1, V1, 1, [[P0, P1]])
    for pid in (P0, P1):
        _install(rec, 6, pid, V2, {P0, P1}, V1)
    return rec


def _delivered_twice_and_elsewhere(late: bool = False):
    """A duplicate, a message delivered in two views (in V2 while V1 is
    open), and one never multicast (judged when V1 closes).  ``late``
    delivers the message again in V3 after V1 closed."""
    rec = TraceRecorder()
    phantom = MessageId(P1, V1, 7)
    for pid in (P0, P1):
        _install(rec, 0, pid, V1, {P0, P1}, None)
    rec.record(DeliveryEvent(time=1, pid=P0, msg_id=phantom, view_id=V1))
    rec.record(MulticastEvent(time=1, pid=P0, msg_id=M))
    for pid in (P0, P1):
        rec.record(DeliveryEvent(time=2, pid=pid, msg_id=M, view_id=V1))
    rec.record(DeliveryEvent(time=2, pid=P1, msg_id=M, view_id=V1))
    _install(rec, 3, P0, V2, {P0}, V1)
    rec.record(DeliveryEvent(time=4, pid=P0, msg_id=M, view_id=V2))
    _install(rec, 5, P1, V3, {P0, P1}, V1)
    _install(rec, 5, P0, V3, {P0, P1}, V2)
    if late:
        rec.record(DeliveryEvent(time=6, pid=P1, msg_id=M, view_id=V3))
    return rec


def _acked_at_one_holder():
    """P0 acks a write only it holds in the three-member V1, then one
    that P1 holds too: the first ack was not certified."""
    rec = TraceRecorder()
    for pid in (P0, P1, P2):
        _install(rec, 0, pid, V1, {P0, P1, P2}, None)
    first, second = Provenance(1, P0, 1), Provenance(1, P0, 2)
    ack = {"key": "k", "client": "c", "client_seq": 1}
    rec.record(AppEvent(time=1, pid=P0, tag="store_apply",
                        data=StoreApplied("k", first, "c", 1)))
    rec.record(AppEvent(time=1, pid=P0, tag="store_ack", data={**ack, "prov": first}))
    for pid in (P0, P1):
        rec.record(AppEvent(time=2, pid=pid, tag="store_apply",
                            data=StoreApplied("k", second, "c", 2)))
    rec.record(AppEvent(time=3, pid=P0, tag="store_ack",
                        data={**ack, "client_seq": 2, "prov": second}))
    return rec


def _granted_over_a_holder():
    """In V1 = {P0, P1, P2}, P0 grants P1 the lock, re-grants it to P1
    and then grants it to P2 while P1 still holds it; P1, now alone in
    V2, grants itself the lock P0 held (P0 is outside V2: no
    violation) and releases it."""
    rec = TraceRecorder()
    for pid in (P0, P1, P2):
        _install(rec, 0, pid, V1, {P0, P1, P2}, None)

    def lock(t, pid, kind, subject, holder):
        rec.record(AppEvent(time=t, pid=pid, tag="lock_apply", data={
            "kind": kind, "subject": subject, "holder": holder,
        }))

    lock(1, P0, "grant", P1, None)
    lock(2, P0, "grant", P1, P1)
    lock(3, P0, "grant", P2, P1)
    _install(rec, 4, P1, V2, {P1}, V1)
    lock(5, P1, "grant", P1, P0)
    lock(6, P1, "release", P1, P1)
    return rec


@pytest.mark.parametrize(
    "trace",
    [
        _late_installer,
        _cut_applied_twice,
        _delivered_twice_and_elsewhere,
        _acked_at_one_holder,
        _granted_over_a_holder,
    ],
)
def test_monitors_match_the_oracle_on_synthetic_traces(trace):
    reports = _assert_monitors_match_oracle(trace())
    assert any(violations for _name, _n, violations in reports)


def test_lock_exclusion_reports_only_the_grant_over_a_live_holder():
    report = run_check("LockExclusion", _granted_over_a_holder())
    assert report.checked == 4
    assert report.violations == [
        f"{P0} applied a grant to {P2} at t=3 while {P1} of its view held the lock"
    ]


@pytest.fixture
def resending_channel(monkeypatch):
    """The channel as it was before a refused send became a drop: it
    buffers a send it refuses during a view change and re-issues it,
    with a fresh identifier, right after the next view's early
    arrivals."""
    multicast, activate = ViewChannels.multicast, ViewChannels.activate
    held: dict[ViewChannels, list] = {}

    def buffering_multicast(self, payload, trace=None):
        if self.view is not None and self.suspended:
            held.setdefault(self, []).append((payload, trace))
            return None
        return multicast(self, payload, trace)

    def resending_activate(self):
        activate(self)
        for payload, trace in held.pop(self, ()):
            self.multicast(payload, trace)

    monkeypatch.setattr(ViewChannels, "multicast", buffering_multicast)
    monkeypatch.setattr(ViewChannels, "activate", resending_activate)


def test_lock_exclusion_catches_a_resent_grant(resending_channel):
    """Lock seed 8 on the re-issuing channel: a manager granted each
    request it received during a flush (its holder was still None),
    and the buffered grants land one after another at t=136.361, so
    p0.0's lock passes to p1.0 without a release.  The send rule drops
    those grants; ``tests/test_applied_prefixes.py`` runs this seed
    clean."""
    gen = RandomFaultGenerator(n_sites=5, seed=8, duration=200)
    cluster = make_cluster("sim", 5, app="lock", seed=8)
    run = run_checked_workload(
        cluster,
        gen.generate(),
        [lambda c: LockClient(c, interval=5.0)],
        tail=gen.settle_tail,
    )
    report = run_check("LockExclusion", run.trace)
    assert report.violations[0] == (
        "p0.0 applied a grant to p1.0 at t=136.361 while p0.0 of its view "
        "held the lock"
    )
    oracle = check_lock_exclusion(run.trace)
    assert (oracle.checked, oracle.violations) == (
        report.checked, report.violations
    )


def test_the_store_checks_share_one_replay_per_pass():
    """A pass builds one store replay for the monitors that read it and
    feeds it once per event; a pass with no reader builds none."""
    checking = CheckPass(make_checkers(STORE_CHECKS))
    readers = [m for m in checking.monitors if m.reads_stores]
    assert [m.name for m in readers] == ["CertifiedAck", "ReplicaDivergence"]
    assert all(m.stores is checking.stores for m in readers)
    checking.feed_all(_acked_at_one_holder().events)
    assert checking.stores.chains == {
        P0: {"k": [Provenance(1, P0, 1), Provenance(1, P0, 2)]},
        P1: {"k": [Provenance(1, P0, 2)]},
    }
    assert CheckPass(make_checkers(("Agreement(2.1)",))).stores is None


def test_a_replay_crash_is_a_violation_of_each_monitor_that_reads_it():
    rec = _acked_at_one_holder()
    rec.record(AppEvent(time=4, pid=P1, tag="store_state",
                        data={"keys": ["k"], "lens": ["one"], "provs": []}))
    names = ("Agreement(2.1)", *STORE_CHECKS)
    reports = {r.name: r for r in run_checkers(rec, make_checkers(names))}
    for name in ("CertifiedAck", "ReplicaDivergence"):
        assert reports[name].violations[0].startswith("checker crashed: TypeError")
    assert reports["Agreement(2.1)"].ok


def test_a_delivery_after_its_view_closed_is_uniquenesss_to_report():
    """Once every member left V1, Integrity no longer holds who
    delivered V1's messages: a third view of M is Uniqueness's to
    report, and Integrity does not call it a second delivery."""
    rec = _delivered_twice_and_elsewhere(late=True)
    (unique,) = [r for r in run_checkers(rec, make_checkers(CHECKS))
                 if r.name == "Uniqueness(2.2)"]
    assert unique.violations == [
        f"{M} delivered in 3 views: {sorted([V1, V2, V3])}"
    ]
    assert check_uniqueness(rec).violations == unique.violations
    integrity = run_check("Integrity(2.3)", rec)
    assert len(check_integrity(rec).violations) == len(integrity.violations) + 1


def _entry_trace(entry):
    """The trace of one fuzz entry, run as the fuzz engine runs it."""
    spec = entry.workload
    with bugs.planted(entry.planted_bug):
        cluster = make_cluster(
            "sim", spec.n_sites, app=spec.app, seed=entry.seed,
            loss_prob=entry.loss_prob,
        )
        report = run_checked_workload(
            cluster, entry.schedule, spec.client_factories(), tail=spec.tail
        )
    return report.trace


@pytest.mark.parametrize("bug", sorted(CATCHES))
def test_monitors_match_the_oracle_on_planted_bugs(bug):
    schedule = [Partition(200.0, ((1, 2, 3, 4), (0,))), Heal(400.0)]
    entry = replace(quick_entry(schedule, seed=3), planted_bug=bug)
    if bug in WORKLOADS:
        entry = replace(entry, workload=WORKLOADS[bug])
    reports = _assert_monitors_match_oracle(_entry_trace(entry))
    assert CATCHES[bug] in [name for name, _n, violations in reports if violations]


#: A store workload light enough to run twenty schedules of.
STORE_LOAD = WorkloadSpec(app="store", clients=(("store", 5.0),))


@pytest.mark.parametrize("seed", range(20))
def test_monitors_match_the_oracle_on_generated_fault_schedules(seed):
    """Random crash/recover/partition/heal schedules, half of them under
    the store's workload (whose audit events the store checks read)."""
    entry = FuzzEngine(FuzzConfig(seed=seed, fault_duration=300.0)).seed_entry()
    if seed % 2:
        entry = replace(entry, workload=STORE_LOAD)
    _assert_monitors_match_oracle(_entry_trace(entry))
