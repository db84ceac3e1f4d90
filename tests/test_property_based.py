"""Property-based tests (hypothesis) on the core data structures.

These pin down the algebraic invariants the protocols rely on:
structure partitions stay partitions under merges, flat classification
always contains the truth, the scheduler is deterministic, and so on.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.classify import classify_flat
from repro.core.shared_state import diagnose
from repro.evs.eview import EvDelta, EViewStructure
from repro.sim.scheduler import Scheduler
from repro.types import MessageId, ProcessId, SubviewId, SvSetId, ViewId

sites = st.integers(min_value=0, max_value=7)
pids = st.builds(ProcessId, sites, st.integers(min_value=0, max_value=2))


# ---------------------------------------------------------------------------
# EViewStructure under random merge sequences
# ---------------------------------------------------------------------------


@st.composite
def members_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return frozenset(ProcessId(s) for s in range(n))


@st.composite
def merge_program(draw):
    """A members set plus a random sequence of merge instructions given
    as index pairs into the then-current structure."""
    members = draw(members_strategy())
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["subview", "svset"]),
                st.integers(min_value=0, max_value=10),
                st.integers(min_value=0, max_value=10),
            ),
            max_size=6,
        )
    )
    return members, steps


@given(merge_program())
@settings(max_examples=120, deadline=None)
def test_structure_stays_valid_partition_under_merges(program):
    members, steps = program
    structure = EViewStructure.singletons(1, members)
    seq = 0
    for kind, i, j in steps:
        seq += 1
        if kind == "svset":
            ssids = [ss.ssid for ss in structure.svsets]
            inputs = frozenset({ssids[i % len(ssids)], ssids[j % len(ssids)]})
            delta = EvDelta(
                seq, "svset", inputs, new_svset=SvSetId(1, min(members), seq)
            )
        else:
            sids = [sv.sid for sv in structure.subviews]
            inputs = frozenset({sids[i % len(sids)], sids[j % len(sids)]})
            delta = EvDelta(
                seq, "subview", inputs, new_subview=SubviewId(1, min(members), seq)
            )
        structure = structure.apply(delta)
        structure.validate(members)  # always a two-level partition


@given(merge_program())
@settings(max_examples=120, deadline=None)
def test_merges_only_coarsen_subviews(program):
    members, steps = program
    structure = EViewStructure.singletons(1, members)
    seq = 0
    for kind, i, j in steps:
        seq += 1
        before = {pid: structure.subview_of(pid).members for pid in members}
        sids = [sv.sid for sv in structure.subviews]
        ssids = [ss.ssid for ss in structure.svsets]
        if kind == "svset":
            delta = EvDelta(
                seq,
                "svset",
                frozenset({ssids[i % len(ssids)], ssids[j % len(ssids)]}),
                new_svset=SvSetId(1, min(members), seq),
            )
        else:
            delta = EvDelta(
                seq,
                "subview",
                frozenset({sids[i % len(sids)], sids[j % len(sids)]}),
                new_subview=SubviewId(1, min(members), seq),
            )
        structure = structure.apply(delta)
        for pid in members:
            assert before[pid] <= structure.subview_of(pid).members


# ---------------------------------------------------------------------------
# Classification consistency
# ---------------------------------------------------------------------------


@st.composite
def s_mode_cut(draw):
    """Random pre-install states for members of a new view."""
    n = draw(st.integers(min_value=1, max_value=6))
    modes = draw(
        st.lists(st.sampled_from(["N", "R", "S"]), min_size=n, max_size=n)
    )
    # Assign previous views: members with mode N get one of up to 2 views.
    prev_choice = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    v_a, v_b = ViewId(5, ProcessId(0)), ViewId(6, ProcessId(3))
    prev_modes = {ProcessId(i): modes[i] for i in range(n)}
    prev_views = {
        ProcessId(i): (v_a if prev_choice[i] == 0 else v_b) for i in range(n)
    }
    return prev_modes, prev_views


@given(s_mode_cut())
@settings(max_examples=200, deadline=None)
def test_ground_truth_label_is_a_flat_candidate(cut):
    """Soundness of the flat classifier: whatever actually happened is
    always among the candidates local reasoning produces."""
    prev_modes, prev_views = cut
    truth = diagnose(ViewId(9, ProcessId(0)), prev_modes, prev_views)
    some_member = sorted(prev_modes)[0]
    labels = classify_flat(
        prev_modes[some_member], len(prev_modes), exclusive_full=False
    )
    assert truth.label in labels


@given(s_mode_cut())
@settings(max_examples=200, deadline=None)
def test_diagnose_partitions_members(cut):
    prev_modes, prev_views = cut
    truth = diagnose(ViewId(9, ProcessId(0)), prev_modes, prev_views)
    assert truth.s_n | truth.s_r == set(prev_modes)
    assert not truth.s_n & truth.s_r
    clustered = set().union(*truth.clusters) if truth.clusters else set()
    assert clustered == truth.s_n


# ---------------------------------------------------------------------------
# Scheduler determinism
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30))
def test_scheduler_executes_in_nondecreasing_time_order(delays):
    sched = Scheduler()
    fired: list[float] = []
    for delay in delays:
        sched.after(delay, lambda: fired.append(sched.now))
    sched.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ---------------------------------------------------------------------------
# Identifier ordering
# ---------------------------------------------------------------------------


@given(pids, pids)
def test_process_id_order_matches_tuple_order(a, b):
    assert (a < b) == ((a.site, a.incarnation) < (b.site, b.incarnation))


@given(pids, st.integers(1, 5), st.integers(1, 5))
def test_message_id_orders_by_view_then_seqno(sender, epoch, seqno):
    earlier = MessageId(sender, ViewId(epoch, sender), seqno)
    later_view = MessageId(sender, ViewId(epoch + 1, sender), 1)
    assert earlier < later_view
    if seqno > 1:
        prev = MessageId(sender, ViewId(epoch, sender), seqno - 1)
        assert prev < earlier
