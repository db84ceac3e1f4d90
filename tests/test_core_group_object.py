"""Tests for the group-object framework, settlement and classifiers on
live clusters: transfer, creation, merging, reconcile, op replay."""

from __future__ import annotations

from repro.core.classify import classify_enriched, ground_truth
from repro.core.cuts import cut_at_install, s_mode_entries
from repro.core.group_object import GroupObject
from repro.core.mode_functions import AlwaysFullModeFunction, QuorumModeFunction
from repro.core.modes import Mode
from repro.core.shared_state import Problem
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.types import ProcessId

from tests.conftest import assert_all_properties


class KvObject(GroupObject):
    """A minimal key/value group object for framework tests."""

    def __init__(self, mode_function, persist: bool = False, **kwargs) -> None:
        super().__init__(mode_function, **kwargs)
        self.data: dict = {}
        self.persist = persist

    def bind(self, stack) -> None:
        super().bind(stack)
        if self.persist:
            stored = stack.storage.read("kv.data")
            if stored is not None:
                self.data = stored

    def snapshot_state(self):
        return dict(self.data)

    def adopt_state(self, state):
        self.data = dict(state)
        self._save()

    def apply_op(self, sender, op, msg_id):
        key, value = op
        self.data[key] = value
        self._save()

    def merge_app_states(self, offers):
        merged: dict = {}
        for offer in sorted(offers, key=lambda o: (o.version, o.sender)):
            merged.update(offer.state)
        return merged

    def _save(self):
        if self.persist and self.stack is not None:
            self.stack.storage.write("kv.data", self.data)


def quorum_cluster(n: int = 5, seed: int = 0, persist: bool = False, **kwargs) -> Cluster:
    fn_votes = {s: 1 for s in range(n)}
    cluster = Cluster(
        n,
        app_factory=lambda pid: KvObject(
            QuorumModeFunction(fn_votes), persist=persist, **kwargs
        ),
        config=ClusterConfig(seed=seed),
    )
    assert cluster.settle(timeout=500)
    cluster.run_for(150)
    return cluster


def test_bootstrap_creation_reaches_normal_mode():
    cluster = quorum_cluster()
    for app in cluster.apps.values():
        assert app.mode is Mode.NORMAL
        assert app.fresh


def test_ops_replicate_to_all_members():
    cluster = quorum_cluster()
    cluster.apps[0].submit_op(("x", 1))
    cluster.apps[3].submit_op(("y", 2))
    cluster.run_for(30)
    for app in cluster.apps.values():
        assert app.data == {"x": 1, "y": 2}


def test_minority_cannot_submit():
    cluster = quorum_cluster()
    cluster.partition([[0, 1, 2], [3, 4]])
    assert cluster.settle(timeout=500)
    cluster.run_for(120)
    assert cluster.apps[3].mode is Mode.REDUCED
    assert not cluster.apps[3].can_submit(("z", 9))
    assert cluster.apps[0].can_submit(("z", 9))


def test_state_transfer_after_heal():
    cluster = quorum_cluster()
    cluster.apps[0].submit_op(("k", "before"))
    cluster.run_for(30)
    cluster.partition([[0, 1, 2], [3, 4]])
    assert cluster.settle(timeout=500)
    cluster.run_for(120)
    cluster.apps[0].submit_op(("k", "updated"))
    cluster.run_for(30)
    cluster.heal()
    assert cluster.settle(timeout=500)
    cluster.run_for(250)
    for app in cluster.apps.values():
        assert app.mode is Mode.NORMAL
        assert app.data["k"] == "updated"
    assert_all_properties(cluster.recorder)


def test_transfer_identified_by_enriched_classifier_matches_ground_truth():
    cluster = quorum_cluster()
    cluster.partition([[0, 1, 2], [3, 4]])
    assert cluster.settle(timeout=500)
    cluster.run_for(150)
    cluster.heal()
    assert cluster.settle(timeout=500)
    merged_view = cluster.stack_at(0).current_view_id()
    truth = ground_truth(cluster.recorder, merged_view)
    assert truth.problems == {Problem.STATE_TRANSFER}
    eview_at_install = None
    for stack in cluster.live_stacks():
        pass
    # Classify from the structure delivered with the merged view.
    fn = cluster.apps[0].automaton.mode_function
    # Reconstruct the install-time e-view from the trace (seq 0).
    from repro.trace.events import EViewChangeEvent
    from repro.evs.eview import EView, EViewStructure, Subview, SvSet
    from repro.gms.view import View

    snapshot = next(
        ev
        for ev in cluster.recorder.of_type(EViewChangeEvent)
        if ev.view_id == merged_view and ev.eview_seq == 0
    )
    subviews = tuple(Subview(sid, members) for sid, members in snapshot.subviews)
    svsets = tuple(SvSet(ssid, sids) for ssid, sids in snapshot.svsets)
    members = frozenset(p for sv in subviews for p in sv.members)
    eview = EView(View(merged_view, members), EViewStructure(subviews, svsets))
    verdict = classify_enriched(eview, fn.n_capable)
    assert verdict.label == truth.label == "transfer"
    assert verdict.s_n == truth.s_n
    assert verdict.s_r == truth.s_r


def test_state_creation_after_total_failure_uses_persistent_state():
    cluster = quorum_cluster(persist=True)
    cluster.apps[0].submit_op(("important", "data"))
    cluster.run_for(30)
    for site in range(5):
        cluster.crash(site)
    cluster.run_for(60)
    for site in range(5):
        cluster.recover(site)
    assert cluster.settle(timeout=600)
    cluster.run_for(300)
    for app in (cluster.apps[s] for s in range(5)):
        assert app.mode is Mode.NORMAL
        assert app.data.get("important") == "data"


def test_creation_without_persistence_restarts_empty():
    cluster = quorum_cluster(persist=False)
    cluster.apps[0].submit_op(("volatile", 1))
    cluster.run_for(30)
    for site in range(5):
        cluster.crash(site)
    cluster.run_for(60)
    for site in range(5):
        cluster.recover(site)
    assert cluster.settle(timeout=600)
    cluster.run_for(300)
    assert cluster.apps[0].mode is Mode.NORMAL
    assert "volatile" not in cluster.apps[0].data


def test_state_merging_with_always_full_object():
    cluster = Cluster(
        4,
        app_factory=lambda pid: KvObject(AlwaysFullModeFunction()),
        config=ClusterConfig(seed=1),
    )
    assert cluster.settle(timeout=500)
    cluster.run_for(200)
    cluster.partition([[0, 1], [2, 3]])
    assert cluster.settle(timeout=500)
    cluster.run_for(200)
    assert cluster.apps[0].mode is Mode.NORMAL
    assert cluster.apps[2].mode is Mode.NORMAL
    cluster.apps[0].submit_op(("left", "L"))
    cluster.apps[2].submit_op(("right", "R"))
    cluster.run_for(30)
    cluster.heal()
    assert cluster.settle(timeout=500)
    cluster.run_for(250)
    # The heal-merge view (not necessarily the latest one, if transient
    # reinstalls followed) must diagnose as a two-cluster merging event.
    merge_diagnoses = [
        ground_truth(cluster.recorder, view_id)
        for view_id in cluster.recorder.installed_views()
    ]
    merging = [d for d in merge_diagnoses if Problem.STATE_MERGING in d.problems]
    assert merging, [d.label for d in merge_diagnoses]
    assert any(len(d.clusters) == 2 for d in merging)
    for app in cluster.apps.values():
        assert app.data["left"] == "L" and app.data["right"] == "R"


def test_ops_delivered_while_settling_are_replayed_after_adopt():
    """A donor keeps serving while a transfer runs; the receiver must not
    lose those concurrent updates (the op-buffering discipline)."""
    cluster = quorum_cluster()
    cluster.partition([[0, 1, 2], [3, 4]])
    assert cluster.settle(timeout=500)
    cluster.run_for(150)
    cluster.heal()
    # Do NOT settle yet: write while the merge/settlement is in flight.
    cluster.run_for(25)
    if cluster.apps[0].can_submit(("during", "settle")):
        cluster.apps[0].submit_op(("during", "settle"))
    assert cluster.settle(timeout=500)
    cluster.run_for(250)
    data = [cluster.apps[s].data for s in range(5)]
    assert all(d == data[0] for d in data), data


def test_op_buffered_before_fresh_not_applied_twice():
    cluster = quorum_cluster()
    cluster.apps[1].submit_op(("a", 1))
    cluster.run_for(30)
    assert cluster.apps[1].ops_applied == cluster.apps[0].ops_applied
    counts = {s: cluster.apps[s].ops_applied for s in range(5)}
    assert len(set(counts.values())) == 1


def test_mode_history_and_cuts_are_extractable():
    cluster = quorum_cluster()
    entries = s_mode_entries(cluster.recorder)
    assert entries, "bootstrap must produce S-mode entries"
    view_id = cluster.stack_at(0).current_view_id()
    cut = cut_at_install(cluster.recorder, view_id)
    assert set(cut) == cluster.live_pids()


def test_settlement_stats_track_sessions():
    cluster = quorum_cluster()
    leader_app = cluster.apps[0]
    assert leader_app.settlement.stats.sessions_completed >= 1
