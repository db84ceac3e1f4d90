"""Tests for enriched views: data structures, merges, Properties 6.1-6.3."""

from __future__ import annotations

import pytest

from repro.errors import EnrichedViewError
from repro.evs.eview import EvDelta, EView, EViewStructure, Subview, SvSet
from repro.gms.view import View
from repro.trace.checks import run_check
from repro.types import ProcessId, SubviewId, SvSetId, ViewId

from tests.conftest import assert_all_properties, settled_cluster


def pids(*sites: int) -> list[ProcessId]:
    return [ProcessId(s) for s in sites]


# ---------------------------------------------------------------------------
# EViewStructure
# ---------------------------------------------------------------------------


def test_singletons_structure():
    members = frozenset(pids(0, 1, 2))
    structure = EViewStructure.singletons(1, members)
    structure.validate(members)
    assert len(structure.subviews) == 3
    assert len(structure.svsets) == 3
    for pid in members:
        assert structure.subview_of(pid).members == {pid}


def test_degenerate_structure():
    members = frozenset(pids(0, 1, 2))
    structure = EViewStructure.degenerate(1, ProcessId(0), members)
    structure.validate(members)
    assert len(structure.subviews) == 1
    assert len(structure.svsets) == 1
    assert structure.subview_of(ProcessId(2)).members == members


def test_validate_rejects_overlapping_subviews():
    sv1 = Subview(SubviewId(1, ProcessId(0), 0), frozenset(pids(0, 1)))
    sv2 = Subview(SubviewId(1, ProcessId(1), 0), frozenset(pids(1, 2)))
    ss = SvSet(SvSetId(1, ProcessId(0), 0), frozenset({sv1.sid, sv2.sid}))
    structure = EViewStructure((sv1, sv2), (ss,))
    with pytest.raises(EnrichedViewError):
        structure.validate(frozenset(pids(0, 1, 2)))


def test_validate_rejects_uncovered_members():
    sv = Subview(SubviewId(1, ProcessId(0), 0), frozenset(pids(0)))
    ss = SvSet(SvSetId(1, ProcessId(0), 0), frozenset({sv.sid}))
    structure = EViewStructure((sv,), (ss,))
    with pytest.raises(EnrichedViewError):
        structure.validate(frozenset(pids(0, 1)))


def test_validate_rejects_subview_in_two_svsets():
    sv = Subview(SubviewId(1, ProcessId(0), 0), frozenset(pids(0)))
    ss1 = SvSet(SvSetId(1, ProcessId(0), 0), frozenset({sv.sid}))
    ss2 = SvSet(SvSetId(1, ProcessId(0), 1), frozenset({sv.sid}))
    with pytest.raises(EnrichedViewError):
        EViewStructure((sv,), (ss1, ss2)).validate(frozenset(pids(0)))


def _three_singleton_structure() -> EViewStructure:
    return EViewStructure.singletons(1, frozenset(pids(0, 1, 2)))


def test_svset_merge_delta():
    structure = _three_singleton_structure()
    inputs = frozenset(ss.ssid for ss in structure.svsets)
    delta = EvDelta(1, "svset", inputs, new_svset=SvSetId(1, ProcessId(0), 1))
    merged = structure.apply(delta)
    merged.validate(frozenset(pids(0, 1, 2)))
    assert len(merged.svsets) == 1
    assert len(merged.subviews) == 3  # subviews untouched


def test_subview_merge_requires_common_svset():
    """Section 6.1: SubviewMerge has no effect if the input subviews do
    not initially belong to the same sv-set."""
    structure = _three_singleton_structure()
    inputs = frozenset(sv.sid for sv in structure.subviews[:2])
    delta = EvDelta(1, "subview", inputs, new_subview=SubviewId(1, ProcessId(0), 1))
    unchanged = structure.apply(delta)
    assert unchanged is structure


def test_subview_merge_within_svset():
    structure = _three_singleton_structure()
    all_ssids = frozenset(ss.ssid for ss in structure.svsets)
    structure = structure.apply(
        EvDelta(1, "svset", all_ssids, new_svset=SvSetId(1, ProcessId(0), 1))
    )
    sv_inputs = frozenset(sv.sid for sv in structure.subviews[:2])
    new_sid = SubviewId(1, ProcessId(0), 2)
    merged = structure.apply(EvDelta(2, "subview", sv_inputs, new_subview=new_sid))
    merged.validate(frozenset(pids(0, 1, 2)))
    assert len(merged.subviews) == 2
    merged_sv = merged.subview_by_id(new_sid)
    assert len(merged_sv.members) == 2
    # The merged subview stays in the enclosing sv-set.
    assert merged.svset_of_subview(new_sid).ssid == SvSetId(1, ProcessId(0), 1)


def test_merge_with_unknown_inputs_is_noop():
    structure = _three_singleton_structure()
    ghost = frozenset({SubviewId(9, ProcessId(9), 9)})
    assert structure.apply(
        EvDelta(1, "subview", ghost, new_subview=SubviewId(1, ProcessId(0), 5))
    ) is structure


def test_svset_members_query():
    structure = _three_singleton_structure()
    all_ssids = frozenset(ss.ssid for ss in structure.svsets)
    new_id = SvSetId(1, ProcessId(0), 1)
    merged = structure.apply(EvDelta(1, "svset", all_ssids, new_svset=new_id))
    assert merged.svset_members(new_id) == frozenset(pids(0, 1, 2))


def test_eview_accessors():
    members = frozenset(pids(0, 1))
    view = View(ViewId(1, ProcessId(0)), members)
    eview = EView(view, EViewStructure.singletons(1, members))
    assert eview.members == members
    assert eview.view_id == view.view_id
    assert eview.subview_of(ProcessId(1)).members == {ProcessId(1)}
    assert eview.svset_of(ProcessId(0)) is not None


# ---------------------------------------------------------------------------
# Live merge calls and properties (through clusters)
# ---------------------------------------------------------------------------


def test_fresh_join_appears_as_singleton_subview_in_singleton_svset():
    cluster = settled_cluster(3)
    cluster.join(3)
    assert cluster.settle(timeout=500)
    eview = cluster.stack_at(0).eview
    joiner = cluster.stack_at(3).pid
    assert eview.subview_of(joiner).members == {joiner}
    assert eview.structure.svset_of(joiner).subviews == {
        eview.subview_of(joiner).sid
    }


def test_sv_set_merge_then_subview_merge_figure3():
    """The Figure 3 sequence: one SV-SetMerge then one SubviewMerge,
    both totally ordered within the view."""
    cluster = settled_cluster(4)
    stack = cluster.stack_at(0)
    before = stack.eview
    stack.sv_set_merge([ss.ssid for ss in before.structure.svsets])
    cluster.run_for(15)
    mid = stack.eview
    assert mid.seq == 1
    assert len(mid.structure.svsets) == 1
    assert "seq=1" in str(mid)
    stack.subview_merge([sv.sid for sv in mid.structure.subviews[:2]])
    cluster.run_for(15)
    after = cluster.stack_at(3).eview  # check a non-coordinator
    assert after.seq == 2
    sizes = sorted(len(sv.members) for sv in after.structure.subviews)
    assert sizes == [1, 1, 2]
    assert run_check("TotalOrder(6.1)", cluster.recorder).ok
    assert run_check("CausalOrder(6.2)", cluster.recorder).ok


def test_eview_changes_are_identical_at_all_members():
    cluster = settled_cluster(5)
    stack = cluster.stack_at(2)
    stack.sv_set_merge([ss.ssid for ss in stack.eview.structure.svsets])
    cluster.run_for(15)
    snapshots = {
        tuple(s.eview.structure.as_tuples()[1]) for s in cluster.live_stacks()
    }
    assert len(snapshots) == 1


def test_structure_projection_across_partition():
    """Figure 2: subview/sv-set groupings survive the view changes."""
    cluster = settled_cluster(4)
    stack = cluster.stack_at(0)
    stack.sv_set_merge([ss.ssid for ss in stack.eview.structure.svsets])
    cluster.run_for(15)
    stack.subview_merge([sv.sid for sv in stack.eview.structure.subviews])
    cluster.run_for(15)
    assert len(stack.eview.structure.subviews) == 1
    cluster.partition([[0, 1], [2, 3]])
    assert cluster.settle(timeout=500)
    left = cluster.stack_at(0).eview
    assert len(left.structure.subviews) == 1
    assert left.subview_of(cluster.stack_at(0).pid).members == left.members
    cluster.heal()
    assert cluster.settle(timeout=500)
    merged = cluster.stack_at(0).eview
    # The two sides arrive as two intact subviews, not four singletons.
    assert len(merged.structure.subviews) == 2
    assert {len(sv.members) for sv in merged.structure.subviews} == {2}
    assert run_check("Structure(6.3)", cluster.recorder).ok
    assert_all_properties(cluster.recorder)


def test_merge_requests_from_non_coordinator_are_sequenced():
    cluster = settled_cluster(3)
    follower = cluster.stack_at(2)
    follower.sv_set_merge([ss.ssid for ss in follower.eview.structure.svsets])
    cluster.run_for(15)
    assert len(cluster.stack_at(0).eview.structure.svsets) == 1


def test_concurrent_merge_requests_get_distinct_sequence_numbers():
    cluster = settled_cluster(4)
    s1, s2 = cluster.stack_at(1), cluster.stack_at(2)
    ssids = [ss.ssid for ss in s1.eview.structure.svsets]
    s1.sv_set_merge(ssids[:2])
    s2.sv_set_merge(ssids[2:])
    cluster.run_for(20)
    assert cluster.stack_at(0).eview.seq == 2
    assert run_check("TotalOrder(6.1)", cluster.recorder).ok


def test_stale_merge_request_from_old_view_ignored():
    cluster = settled_cluster(3)
    stack = cluster.stack_at(0)
    old_ssids = [ss.ssid for ss in stack.eview.structure.svsets]
    cluster.crash(2)
    assert cluster.settle(timeout=500)
    seq_before = stack.eview.seq
    stack.sv_set_merge(old_ssids)  # ids refer to departed structure
    cluster.run_for(20)
    # The request may apply (ids projected) or no-op, but never crashes
    # nor violates the properties.
    assert stack.eview.seq in (seq_before, seq_before + 1)
    assert_all_properties(cluster.recorder)


def test_messages_gated_on_eview_changes():
    """Property 6.2 operationally: a message multicast after an e-view
    change is never delivered before that change at any member."""
    cluster = settled_cluster(4)
    stack = cluster.stack_at(0)
    stack.sv_set_merge([ss.ssid for ss in stack.eview.structure.svsets])
    stack.multicast("after-change")  # sent in the same scheduler turn
    cluster.run_for(20)
    assert run_check("CausalOrder(6.2)", cluster.recorder).ok

