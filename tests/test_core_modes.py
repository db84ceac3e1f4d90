"""Tests for the mode automaton (Figure 1) and the mode functions."""

from __future__ import annotations

import pytest

from repro.core.mode_functions import (
    AlwaysFullModeFunction,
    Capability,
    QuorumModeFunction,
    StaticMajorityModeFunction,
)
from repro.core.modes import (
    LEGAL_TRANSITIONS,
    Mode,
    ModeAutomaton,
    Transition,
)
from repro.errors import ApplicationError
from repro.evs.eview import EView, EViewStructure
from repro.gms.view import View
from repro.types import ProcessId, ViewId


def make_eview(epoch: int, *sites: int) -> EView:
    members = frozenset(ProcessId(s) for s in sites)
    view = View(ViewId(epoch, min(members)), members)
    return EView(view, EViewStructure.singletons(epoch, members))


def quorum5() -> QuorumModeFunction:
    return QuorumModeFunction.uniform(range(5))


# ---------------------------------------------------------------------------
# Mode functions
# ---------------------------------------------------------------------------


def test_quorum_capability_thresholds():
    fn = quorum5()
    assert fn.capability(make_eview(1, 0, 1, 2)) is Capability.FULL
    assert fn.capability(make_eview(1, 0, 1)) is Capability.REDUCED
    assert fn.n_capable(frozenset({ProcessId(0), ProcessId(1), ProcessId(2)}))
    assert not fn.n_capable(frozenset({ProcessId(0)}))


def test_weighted_quorum():
    fn = QuorumModeFunction({0: 3, 1: 1, 2: 1})
    assert fn.n_capable(frozenset({ProcessId(0)}))  # 3 of 5 votes
    assert not fn.n_capable(frozenset({ProcessId(1), ProcessId(2)}))


def test_quorum_rejects_bad_votes():
    with pytest.raises(ValueError):
        QuorumModeFunction({})
    with pytest.raises(ValueError):
        QuorumModeFunction({0: -1})


def test_quorum_needs_settling_only_on_expansion():
    fn = quorum5()
    big = make_eview(1, 0, 1, 2, 3)
    small = make_eview(2, 0, 1, 2)
    assert not fn.needs_settling(big, small)  # pure shrink
    assert fn.needs_settling(small, big)  # expansion
    assert fn.needs_settling(None, small)  # first view


def test_always_full_settles_on_any_membership_change():
    fn = AlwaysFullModeFunction()
    a = make_eview(1, 0, 1)
    b = make_eview(2, 0)
    same = make_eview(3, 0, 1)
    assert fn.capability(b) is Capability.FULL
    assert fn.needs_settling(a, b)  # shrink still redistributes
    assert not fn.needs_settling(a, same)  # same membership: nothing moved


def test_static_majority_counts_universe():
    fn = StaticMajorityModeFunction(range(5))
    assert fn.total == 5


# ---------------------------------------------------------------------------
# Automaton transitions (Figure 1)
# ---------------------------------------------------------------------------


def test_join_enters_settling_when_capable():
    auto = ModeAutomaton(AlwaysFullModeFunction())
    change = auto.on_view(make_eview(1, 0))
    assert change.transition is Transition.JOIN
    assert auto.mode is Mode.SETTLING


def test_join_enters_reduced_without_quorum():
    auto = ModeAutomaton(quorum5())
    auto.on_view(make_eview(1, 0))
    assert auto.mode is Mode.REDUCED


def test_failure_transition_n_to_r():
    auto = ModeAutomaton(quorum5())
    auto.on_view(make_eview(1, 0, 1, 2))
    auto.reconcile()
    assert auto.mode is Mode.NORMAL
    change = auto.on_view(make_eview(2, 0, 1))
    assert change.transition is Transition.FAILURE
    assert (change.old, change.new) == (Mode.NORMAL, Mode.REDUCED)


def test_failure_transition_s_to_r():
    auto = ModeAutomaton(quorum5())
    auto.on_view(make_eview(1, 0, 1, 2))
    assert auto.mode is Mode.SETTLING
    change = auto.on_view(make_eview(2, 0))
    assert change.transition is Transition.FAILURE


def test_repair_transition_r_to_s():
    auto = ModeAutomaton(quorum5())
    auto.on_view(make_eview(1, 0, 1))
    assert auto.mode is Mode.REDUCED
    change = auto.on_view(make_eview(2, 0, 1, 2))
    assert change.transition is Transition.REPAIR
    assert auto.mode is Mode.SETTLING


def test_reconfigure_transition_n_to_s():
    auto = ModeAutomaton(quorum5())
    auto.on_view(make_eview(1, 0, 1, 2))
    auto.reconcile()
    change = auto.on_view(make_eview(2, 0, 1, 2, 3))
    assert change.transition is Transition.RECONFIGURE
    assert auto.mode is Mode.SETTLING


def test_reconfigure_transition_s_to_s():
    """Overlapping reconstruction instances (Section 3)."""
    auto = ModeAutomaton(quorum5())
    auto.on_view(make_eview(1, 0, 1, 2))
    assert auto.mode is Mode.SETTLING
    change = auto.on_view(make_eview(2, 0, 1, 2, 3))
    assert change.transition is Transition.RECONFIGURE
    assert (change.old, change.new) == (Mode.SETTLING, Mode.SETTLING)


def test_reconcile_transition_s_to_n():
    auto = ModeAutomaton(quorum5())
    auto.on_view(make_eview(1, 0, 1, 2))
    change = auto.reconcile()
    assert change.transition is Transition.RECONCILE
    assert auto.mode is Mode.NORMAL


def test_reconcile_outside_settling_raises():
    auto = ModeAutomaton(quorum5())
    auto.on_view(make_eview(1, 0))  # REDUCED
    with pytest.raises(ApplicationError):
        auto.reconcile()


def test_pure_shrink_keeps_normal_without_transition():
    auto = ModeAutomaton(quorum5())
    auto.on_view(make_eview(1, 0, 1, 2, 3))
    auto.reconcile()
    change = auto.on_view(make_eview(2, 0, 1, 2))
    assert change is None
    assert auto.mode is Mode.NORMAL


def test_reduced_stays_reduced_without_transition():
    auto = ModeAutomaton(quorum5())
    auto.on_view(make_eview(1, 0, 1))
    change = auto.on_view(make_eview(2, 0))
    assert change is None
    assert auto.mode is Mode.REDUCED


def test_settling_stays_settling_on_non_expanding_change():
    auto = ModeAutomaton(quorum5())
    auto.on_view(make_eview(1, 0, 1, 2, 3))
    assert auto.mode is Mode.SETTLING
    change = auto.on_view(make_eview(2, 0, 1, 2))
    assert change is None
    assert auto.mode is Mode.SETTLING


def test_legal_transition_table_matches_figure_1():
    """Exactly the six labelled edges of Figure 1."""
    edges = {
        (label, old, new)
        for label, pairs in LEGAL_TRANSITIONS.items()
        for old, new in pairs
    }
    assert edges == {
        (Transition.FAILURE, Mode.NORMAL, Mode.REDUCED),
        (Transition.FAILURE, Mode.SETTLING, Mode.REDUCED),
        (Transition.REPAIR, Mode.REDUCED, Mode.SETTLING),
        (Transition.RECONFIGURE, Mode.NORMAL, Mode.SETTLING),
        (Transition.RECONFIGURE, Mode.SETTLING, Mode.SETTLING),
        (Transition.RECONCILE, Mode.SETTLING, Mode.NORMAL),
    }


def test_change_history_is_recorded():
    seen = []
    auto = ModeAutomaton(quorum5(), on_change=lambda c, e: seen.append(c))
    auto.on_view(make_eview(1, 0, 1, 2))
    auto.reconcile()
    auto.on_view(make_eview(2, 0))
    labels = [c.transition for c in seen]
    assert labels == [Transition.JOIN, Transition.RECONCILE, Transition.FAILURE]


def test_on_change_callback_fires():
    seen = []
    auto = ModeAutomaton(quorum5(), on_change=lambda c, e: seen.append(c))
    auto.on_view(make_eview(1, 0, 1, 2))
    assert len(seen) == 1
