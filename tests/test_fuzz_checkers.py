"""The sequence-pattern detectors must detect, not just pass.

Mirrors ``test_trace_checks.py``: each test fabricates a synthetic
trace seeded with exactly one bug pattern and asserts the checker flags
it — plus the clean variant that must stay silent.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.trace.checks import (
    CHECKS,
    DETECTORS,
    PROPERTIES,
    CheckContext,
    LostSettlement,
    Monitor,
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
    RecoverEvent,
    ViewInstallEvent,
)
from repro.trace.recorder import TraceRecorder
from repro.types import MessageId, ProcessId, SubviewId, SvSetId, ViewId

P0, P1, P2 = ProcessId(0), ProcessId(1), ProcessId(2)
V1 = ViewId(1, P0)
V2 = ViewId(2, P0)
CTX = CheckContext(time_scale=1.0)


def _install(rec, t, pid, vid, members, prev):
    rec.record(
        ViewInstallEvent(
            time=t, pid=pid, view_id=vid,
            members=frozenset(members), prev_view_id=prev,
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


def _mode(rec, t, pid, old, new, transition):
    rec.record(
        ModeChangeEvent(
            time=t, pid=pid, old_mode=old, new_mode=new,
            transition=transition, view_id=V1,
        )
    )


def _decide(rec, t, pid, kind, versions, chosen):
    rec.record(
        AppEvent(
            time=t, pid=pid, tag="settle_decide",
            data={
                "kind": kind, "offers": len(versions),
                "versions": tuple(versions), "chosen_version": chosen,
            },
        )
    )


# -- StaleStateTransfer -----------------------------------------------------


def test_stale_transfer_flags_adopting_below_best_offer():
    rec = TraceRecorder()
    _decide(rec, 10, P0, "transfer", (3, 7), 3)
    report = run_check("StaleStateTransfer", rec, CTX)
    assert not report.ok
    assert "adopted version 3" in report.violations[0]


def test_stale_transfer_passes_when_best_offer_adopted():
    rec = TraceRecorder()
    _decide(rec, 10, P0, "transfer", (3, 7), 7)
    _decide(rec, 20, P0, "merge", (5, 5), 5)
    report = run_check("StaleStateTransfer", rec, CTX)
    assert report.ok and report.checked == 2


def test_stale_transfer_ignores_creation_and_untagged_decides():
    rec = TraceRecorder()
    # Creation may legitimately prefer an older-versioned snapshot.
    _decide(rec, 10, P0, "creation", (3, 7), 3)
    # A trace from before version accounting carries no chosen_version.
    _decide(rec, 20, P0, "transfer", (3, 7), None)
    report = run_check("StaleStateTransfer", rec, CTX)
    assert report.ok


# -- LostSettlement ---------------------------------------------------------


def _stuck_in_s(rec, *, end=500.0):
    """P0 enters S at t=10, view stable, nothing else happens."""
    _install(rec, 10, P0, V1, {P0, P1}, None)
    _mode(rec, 10, P0, "N", "S", "Failure")
    _mode(rec, 10, P1, "N", "N", "Reconcile")
    rec.record(AppEvent(time=end, pid=P1, tag="tick", data=None))


def test_lost_settlement_flags_stuck_s_mode():
    rec = TraceRecorder()
    _stuck_in_s(rec)
    report = run_check("LostSettlement", rec, CTX)
    assert not report.ok
    assert "stuck in S-mode" in report.violations[0]


def test_lost_settlement_passes_with_recent_settle_activity():
    rec = TraceRecorder()
    _stuck_in_s(rec)
    rec.record(
        AppEvent(time=450, pid=P1, tag="settle_start", data={"kind": "transfer"})
    )
    assert run_check("LostSettlement", rec, CTX).ok


def test_lost_settlement_passes_when_parked_on_creation_barrier():
    rec = TraceRecorder()
    _stuck_in_s(rec)
    rec.record(
        AppEvent(
            time=450, pid=P0, tag="settle_wait_all_sites",
            data={"present": 2, "expected": 3},
        )
    )
    assert run_check("LostSettlement", rec, CTX).ok


def test_lost_settlement_ignores_crashed_and_recent_processes():
    rec = TraceRecorder()
    _stuck_in_s(rec)
    # P2 also hits S but crashes: dead processes settle nothing.
    _mode(rec, 12, P2, "N", "S", "Failure")
    rec.record(CrashEvent(time=20, pid=P2))
    report = run_check("LostSettlement", rec, CTX)
    assert [v for v in report.violations if "p2" in v] == []
    # A view installed moments ago resets the grace window.
    rec2 = TraceRecorder()
    _install(rec2, 490, P0, V1, {P0, P1}, None)
    _mode(rec2, 490, P0, "N", "S", "Failure")
    rec2.record(AppEvent(time=500, pid=P1, tag="tick", data=None))
    assert run_check("LostSettlement", rec2, CTX).ok


def test_lost_settlement_grace_scales_with_time_scale():
    # On a wall-clock runtime 500 "units" of quiet is 5 seconds at
    # scale 0.01 — far beyond the scaled grace, still a violation.
    rec = TraceRecorder()
    _install(rec, 0.1, P0, V1, {P0, P1}, None)
    _mode(rec, 0.1, P0, "N", "S", "Failure")
    rec.record(AppEvent(time=5.0, pid=P1, tag="tick", data=None))
    ctx = CheckContext(time_scale=0.01)
    assert not run_check("LostSettlement", rec, ctx).ok
    # At sim scale the same numbers are within grace: silent.
    assert run_check("LostSettlement", rec, CTX).ok


# -- SubviewMergeAtomicity --------------------------------------------------


def test_merge_atomicity_flags_partial_merge():
    rec = TraceRecorder()
    _structure(rec, 0, P0, V1, 0, [[P0], [P1, P2]])
    # {P1,P2} was torn apart: P1 merged into P0's subview, P2 left out.
    _structure(rec, 1, P0, V1, 1, [[P0, P1], [P2]])
    report = run_check("SubviewMergeAtomicity", rec, CTX)
    assert any("partial subview merge" in v for v in report.violations)


def test_merge_atomicity_passes_whole_merges():
    rec = TraceRecorder()
    _structure(rec, 0, P0, V1, 0, [[P0], [P1, P2]])
    _structure(rec, 1, P0, V1, 1, [[P0, P1, P2]])
    assert run_check("SubviewMergeAtomicity", rec, CTX).ok


def test_merge_atomicity_flags_survivor_count_disagreement():
    rec = TraceRecorder()
    for pid in (P0, P1):
        _install(rec, 0, pid, V1, {P0, P1}, None)
        _structure(rec, 0, pid, V1, 0, [[P0], [P1]])
    # Only P0 applies the merge, yet both survive into the same view.
    _structure(rec, 1, P0, V1, 1, [[P0, P1]])
    for pid in (P0, P1):
        _install(rec, 2, pid, V2, {P0, P1}, V1)
    report = run_check("SubviewMergeAtomicity", rec, CTX)
    assert any("different e-view change counts" in v for v in report.violations)


def test_merge_atomicity_unconstrained_across_different_next_views():
    rec = TraceRecorder()
    for pid in (P0, P1):
        _install(rec, 0, pid, V1, {P0, P1}, None)
        _structure(rec, 0, pid, V1, 0, [[P0], [P1]])
    _structure(rec, 1, P0, V1, 1, [[P0, P1]])
    # Different successor views: the survivors rule does not apply.
    _install(rec, 2, P0, V2, {P0}, V1)
    _install(rec, 2, P1, ViewId(2, P1), {P1}, V1)
    assert run_check("SubviewMergeAtomicity", rec, CTX).ok


# -- ZombieIncarnation ------------------------------------------------------


def test_zombie_flags_event_after_own_crash():
    rec = TraceRecorder()
    m = MessageId(P0, V1, 1)
    rec.record(CrashEvent(time=5, pid=P1))
    rec.record(DeliveryEvent(time=7, pid=P1, msg_id=m, view_id=V1))
    report = run_check("ZombieIncarnation", rec, CTX)
    assert any("after crashing" in v for v in report.violations)


def test_zombie_flags_delivery_by_superseded_incarnation():
    rec = TraceRecorder()
    m = MessageId(P0, V1, 1)
    fresh = ProcessId(1, 1)
    rec.record(RecoverEvent(time=10, pid=fresh, site=1))
    rec.record(DeliveryEvent(time=12, pid=P1, msg_id=m, view_id=V1))
    report = run_check("ZombieIncarnation", rec, CTX)
    assert any("retired incarnation" in v for v in report.violations)


def test_zombie_passes_events_before_crash_and_fresh_incarnations():
    rec = TraceRecorder()
    m = MessageId(P0, V1, 1)
    rec.record(DeliveryEvent(time=3, pid=P1, msg_id=m, view_id=V1))
    rec.record(CrashEvent(time=5, pid=P1))
    fresh = ProcessId(1, 1)
    rec.record(RecoverEvent(time=10, pid=fresh, site=1))
    rec.record(DeliveryEvent(time=12, pid=fresh, msg_id=m, view_id=V1))
    assert run_check("ZombieIncarnation", rec, CTX).ok


# -- the table ---------------------------------------------------------------


def test_the_table_holds_the_eight_properties_then_the_detectors():
    assert list(CHECKS) == [*PROPERTIES, *DETECTORS]
    assert len(PROPERTIES) == 8
    assert DETECTORS == (
        "AckedWriteLoss", "CertifiedAck", "LockExclusion", "LostSettlement",
        "ReplicaDivergence", "StaleStateTransfer", "SubviewMergeAtomicity",
        "ZombieIncarnation",
    )
    assert [name for name, _check in make_checkers()] == list(DETECTORS)


def test_every_check_reports_under_its_table_name():
    for name, check in CHECKS.items():
        assert check.name == name
        (report,) = run_checkers(TraceRecorder(), [(name, check)], CTX)
        assert report.name == name


def test_make_checkers_by_name():
    ((name, check),) = make_checkers(["LostSettlement"])
    assert name == "LostSettlement" and check is LostSettlement
    with pytest.raises(ReproError):
        make_checkers(["NoSuchChecker"])
    with pytest.raises(ReproError):
        make_checkers(["repro.trace.checks:LostSettlement"])


def test_run_checkers_survives_a_crashing_checker():
    class Broken(Monitor):
        name = "Broken"
        feeds = (CrashEvent,)

        def feed(self, ev) -> None:
            raise RuntimeError("boom")

    rec = TraceRecorder()
    rec.record(CrashEvent(time=1.0, pid=P0))
    checks = [("Broken", Broken), *make_checkers(["LostSettlement"])]
    reports = run_checkers(rec, checks)
    by_name = {r.name: r for r in reports}
    assert "checker crashed" in by_name["Broken"].violations[0]
    assert by_name["LostSettlement"].ok


# -- acked write loss -------------------------------------------------------

PROV = (1, 0, 0, 1)


def _app(rec, t, pid, tag, data):
    rec.record(AppEvent(time=t, pid=pid, tag=tag, data=data))


def _ack(rec, t, pid, prov=PROV, key="k"):
    _app(rec, t, pid, "store_ack", {"key": key, "prov": prov, "client": "c", "client_seq": 1})


def _apply(rec, t, pid, prov=PROV, key="k"):
    _app(rec, t, pid, "store_apply", {"key": key, "prov": prov, "client": "c", "client_seq": 1})


def _state(rec, t, pid, provs, key="k"):
    data = {"keys": (key,), "lens": (len(provs),), "provs": tuple(provs)}
    _app(rec, t, pid, "store_state", data)


def test_acked_write_loss_passes_when_any_live_process_retains():
    rec = TraceRecorder()
    _apply(rec, 1.0, P0)
    _apply(rec, 1.1, P1)
    _ack(rec, 1.2, P0)
    # P1 adopts a state without the write, but P0 still holds it.
    _state(rec, 2.0, P1, [])
    report = run_check("AckedWriteLoss", rec, CTX)
    assert report.checked == 1 and report.ok


def test_acked_write_loss_flags_universal_loss():
    rec = TraceRecorder()
    _apply(rec, 1.0, P0)
    _apply(rec, 1.1, P1)
    _ack(rec, 1.2, P0)
    # Every holder adopts a merged state that dropped the acked write —
    # the realnet settlement race this checker exists to catch.
    _state(rec, 2.0, P0, [(1, 0, 0, 7)])
    _state(rec, 2.1, P1, [])
    report = run_check("AckedWriteLoss", rec, CTX)
    assert not report.ok
    assert "no live process retains" in report.violations[0]


def test_acked_write_loss_ignores_holdings_of_crashed_processes():
    rec = TraceRecorder()
    _apply(rec, 1.0, P0)
    _ack(rec, 1.1, P0)
    rec.record(CrashEvent(time=2.0, pid=P0))
    report = run_check("AckedWriteLoss", rec, CTX)
    # The only holder died and nobody else ever applied it: flagged.
    assert not report.ok
    # A recovered incarnation restoring it from disk clears the flag.
    p0b = ProcessId(0, 1)
    rec.record(RecoverEvent(time=2.5, pid=p0b))
    _state(rec, 2.6, p0b, [PROV])
    report = run_check("AckedWriteLoss", rec, CTX)
    assert report.ok


def test_acked_write_loss_replays_states_in_time_order():
    rec = TraceRecorder()
    _ack(rec, 1.0, P0)
    # State reset happens *before* the apply: the write survives.
    _state(rec, 0.5, P0, [])
    _apply(rec, 1.5, P0)
    report = run_check("AckedWriteLoss", rec, CTX)
    assert report.ok


def test_acked_write_loss_silent_without_store_traffic():
    rec = TraceRecorder()
    report = run_check("AckedWriteLoss", rec, CTX)
    assert report.checked == 0 and report.ok


# -- replica divergence -----------------------------------------------------

A, B, C = (1, 0, 0, 1), (1, 1, 0, 1), (1, 2, 0, 1)


def _members(rec, t, view, pids):
    for pid in pids:
        rec.record(
            ViewInstallEvent(time=t, pid=pid, view_id=view, members=frozenset(pids),
                             prev_view_id=None)
        )


def _apply_at(rec, t, pid, prov, at=None, key="k"):
    data = {"key": key, "prov": prov, "client": "", "client_seq": 0}
    if at is not None:
        data["at"] = at
    _app(rec, t, pid, "store_apply", data)


def test_replica_divergence_passes_when_inserts_rebuild_one_order():
    rec = TraceRecorder()
    _members(rec, 0.0, V1, [P0, P1])
    _state(rec, 0.5, P0, [A])
    _state(rec, 0.5, P1, [A])
    # P0 sees C then B (B inserted before C); P1 sees B then C.
    _apply_at(rec, 1.0, P0, C)
    _apply_at(rec, 1.1, P0, B, at=1)
    _apply_at(rec, 1.0, P1, B)
    _apply_at(rec, 1.1, P1, C)
    report = run_check("ReplicaDivergence", rec, CTX)
    assert report.checked == 1 and report.ok


def test_replica_divergence_flags_two_orders_of_one_key():
    rec = TraceRecorder()
    _members(rec, 0.0, V1, [P0, P1])
    _apply_at(rec, 1.0, P0, C)
    _apply_at(rec, 1.1, P0, B)
    _apply_at(rec, 1.0, P1, B)
    _apply_at(rec, 1.1, P1, C)
    report = run_check("ReplicaDivergence", rec, CTX)
    assert not report.ok
    assert "2 orders of key 'k''s 2 versions (2 different heads)" in report.violations[0]


def test_replica_divergence_leaves_out_a_put_still_in_flight():
    rec = TraceRecorder()
    _members(rec, 0.0, V1, [P0, P1])
    for pid in (P0, P1):
        _apply_at(rec, 1.0, pid, A)
    _apply_at(rec, 2.0, P0, B)  # the run ends before P1 applies it
    report = run_check("ReplicaDivergence", rec, CTX)
    assert report.checked == 1 and report.ok


def test_replica_divergence_compares_only_live_replicas_of_one_component():
    rec = TraceRecorder()
    _members(rec, 0.0, V1, [P0, P1])
    _members(rec, 0.0, V2, [P2])
    _apply_at(rec, 1.0, P0, A)
    _apply_at(rec, 1.0, P1, A)
    _apply_at(rec, 1.0, P2, B)  # another component may hold other writes
    _apply_at(rec, 1.2, P1, C)
    rec.record(CrashEvent(time=2.0, pid=P1))  # the odd one out died
    report = run_check("ReplicaDivergence", rec, CTX)
    assert report.checked == 0 and report.ok
    assert run_check("ReplicaDivergence", TraceRecorder(), CTX).checked == 0
