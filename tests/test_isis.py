"""Tests for the Isis-style baseline: primary partition, one-at-a-time
growth, blocking state transfer, flat views."""

from __future__ import annotations

from repro.apps.replicated_file import ReplicatedFile
from repro.isis import isis_stack_config
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.trace.checks import check_view_synchrony
from repro.trace.events import ViewInstallEvent


def isis_cluster(n: int, seed: int = 0, **kwargs) -> Cluster:
    config = ClusterConfig(seed=seed, stack=isis_stack_config(**kwargs))
    return Cluster(n, config=config)


def primary_views(cluster: Cluster) -> list[ViewInstallEvent]:
    """Views installed at the bootstrap site, in order."""
    pid0 = cluster.stack_at(0).pid
    return cluster.recorder.view_sequence(pid0)


def test_growth_is_one_member_per_view_change():
    cluster = isis_cluster(5)
    cluster.run_for(600)
    sizes = [len(ev.members) for ev in primary_views(cluster)]
    assert sizes == [1, 2, 3, 4, 5]


def test_absorbing_m_members_costs_m_view_changes():
    """The Section 5 merge-cost claim, baseline side."""
    for m in (2, 4):
        cluster = isis_cluster(1 + m)
        cluster.run_for(900)
        views = primary_views(cluster)
        growths = [
            later
            for earlier, later in zip(views, views[1:])
            if len(later.members) > len(earlier.members)
        ]
        assert len(growths) == m
        # ... and each growth admitted exactly one member.
        assert all(
            len(later.members) - len(earlier.members) == 1
            for earlier, later in zip(views, views[1:])
            if len(later.members) > len(earlier.members)
        )


def test_final_view_includes_everyone():
    cluster = isis_cluster(4)
    cluster.run_for(600)
    members = cluster.stack_at(0).view.members
    assert {p.site for p in members} == {0, 1, 2, 3}
    views = {s.current_view_id() for s in cluster.live_stacks()}
    assert len(views) == 1


def test_minority_blocks_on_partition():
    cluster = isis_cluster(5)
    cluster.run_for(600)
    view_before = cluster.stack_at(3).current_view_id()
    cluster.partition([[0, 1, 2], [3, 4]])
    cluster.run_for(400)
    # Majority moved on; minority is frozen in the old view.
    assert cluster.stack_at(0).current_view_id() != view_before
    assert cluster.stack_at(3).current_view_id() == view_before
    assert {p.site for p in cluster.stack_at(0).view.members} == {0, 1, 2}


def test_no_concurrent_primary_views():
    """Linear membership: the set of installed multi-member views is
    totally ordered by epoch with unique epochs."""
    cluster = isis_cluster(5, seed=2)
    cluster.run_for(600)
    cluster.partition([[0, 1, 2], [3, 4]])
    cluster.run_for(300)
    cluster.heal()
    cluster.run_for(600)
    epochs = [
        ev.view_id.epoch
        for ev in cluster.recorder.of_type(ViewInstallEvent)
        if len(ev.members) > 1
    ]
    installed = sorted(set(epochs))
    assert installed == sorted(installed)
    # Every multi-member view id appears with one membership only.
    views = {}
    for ev in cluster.recorder.of_type(ViewInstallEvent):
        if len(ev.members) > 1:
            views.setdefault(ev.view_id, ev.members)
            assert views[ev.view_id] == ev.members


def test_primary_halts_after_majority_loss():
    cluster = isis_cluster(5)
    cluster.run_for(600)
    for site in (0, 1, 2):
        cluster.crash(site)
    cluster.run_for(200)
    for site in (0, 1, 2):
        cluster.recover(site)
    cluster.run_for(600)
    # Survivors of the old primary are a minority; recovered processes
    # are not primary: nobody can install a multi-member view.
    assert len(cluster.stack_at(3).view.members) == 5  # frozen old view
    for site in (0, 1, 2):
        assert len(cluster.stack_at(site).view.members) == 1


def test_isis_views_are_flat():
    cluster = isis_cluster(4)
    cluster.run_for(600)
    for stack in cluster.live_stacks():
        structure = stack.eview.structure
        assert len(structure.subviews) == 1
        assert len(structure.svsets) == 1


def test_vs_properties_hold_on_isis_runs():
    cluster = isis_cluster(4, seed=1)
    cluster.run_for(600)
    cluster.partition([[0, 1, 2], [3]])
    cluster.run_for(300)
    cluster.heal()
    cluster.run_for(500)
    for report in check_view_synchrony(cluster.recorder):
        assert report.ok, (report.name, report.violations[:3])


def test_blocking_transfer_moves_state_before_install():
    votes = {s: 1 for s in range(3)}
    config = ClusterConfig(
        stack=isis_stack_config(blocking_transfer=True)
    )
    cluster = Cluster(
        3,
        app_factory=lambda pid: ReplicatedFile(votes),
        config=config,
    )
    cluster.run_for(700)
    # Everyone ended up in the full view with identical file state and
    # fresh flags (the tool installed state at each joiner pre-install).
    assert {p.site for p in cluster.stack_at(0).view.members} == {0, 1, 2}
    for site in range(3):
        assert cluster.apps[site].fresh


def test_blocking_transfer_counts_and_blocked_time():
    config = ClusterConfig(
        stack=isis_stack_config(blocking_transfer=True, size_of=lambda app: 10)
    )
    cluster = Cluster(3, config=config)
    cluster.run_for(900)
    agreement = cluster.stack_at(0).membership
    tool = agreement.transfer_tool
    assert tool is not None
    assert tool.transfers_completed >= 2
    assert tool.blocked_time > 0


def test_minority_reabsorbed_after_heal_with_blocking_transfer():
    """Regression: a minority coordinator's members must release their
    endorsement when its round is blocked (VcAbort), or they would
    ignore the primary's prepares forever after the repair; and a
    pending blocking transfer must freeze coordination without leaking
    stale unfreeze timers."""
    votes = {s: 1 for s in range(5)}
    config = ClusterConfig(
        stack=isis_stack_config(blocking_transfer=True, size_of=lambda app: 20)
    )
    cluster = Cluster(
        5, app_factory=lambda pid: ReplicatedFile(votes), config=config
    )
    cluster.run_for(900)
    assert len(cluster.stack_at(0).view.members) == 5
    tool = cluster.stack_at(0).membership.transfer_tool
    assert tool.transfers_completed == 4  # exactly one per admitted member
    cluster.apps[0].write("ledger", "v1")
    cluster.run_for(40)
    cluster.partition([[0, 1, 2], [3, 4]])
    cluster.run_for(300)
    handle = cluster.apps[0].write("ledger", "v2")
    cluster.run_for(40)
    assert handle.status == "committed"
    cluster.heal()
    cluster.run_for(900)
    for site in range(5):
        assert len(cluster.stack_at(site).view.members) == 5, site
        assert cluster.apps[site].read("ledger") == "v2", site


def test_repeated_partition_cycles_always_reabsorb():
    """Liveness regression for three endorsement-release bugs: a stale
    primary standing off against the fresher chain, epoch-vs-identifier
    deference, and one-at-a-time trims leaving excluded joiners pledged
    to a round that will never install them."""
    import random as _random

    for seed in (1, 3, 5):
        rng = _random.Random(seed)
        cluster = isis_cluster(5, seed=seed)
        cluster.run_for(700)
        for _ in range(3):
            cut = rng.randint(1, 4)
            cluster.partition([list(range(cut)), list(range(cut, 5))])
            cluster.run_for(rng.uniform(100, 300))
            cluster.heal()
            cluster.run_for(900)
        for site in range(5):
            assert len(cluster.stack_at(site).view.members) == 5, (seed, site)
        # Linear membership throughout: one multi-member view per epoch.
        by_epoch: dict = {}
        for ev in cluster.recorder.of_type(ViewInstallEvent):
            if len(ev.members) > 1:
                by_epoch.setdefault(ev.view_id.epoch, set()).add(ev.view_id)
        assert all(len(v) == 1 for v in by_epoch.values())


def test_a_dead_donors_partial_transfer_is_dropped_at_the_view_change():
    """Bounded transfer state: the coordinator streaming state to a
    rejoining site crashes mid-transfer; once the joiner installs a view
    without it, the partial transfer is gone and counted."""
    cluster = isis_cluster(5, seed=7, blocking_transfer=True, size_of=lambda app: 20)
    cluster.run_for(900)
    cluster.partition([[0, 1, 2], [3, 4]])
    cluster.run_for(300)
    cluster.heal()
    receivers = {s: cluster.stack_at(s).app_transfer_hook._receiver for s in (3, 4)}
    partial = None
    for _ in range(400):
        cluster.run_for(1)
        partial = next(
            ((s, r) for s, r in receivers.items() if r._collected), None
        )
        if partial is not None:
            break
    assert partial is not None, "no transfer to a joiner started"
    site, receiver = partial
    (donor, _n), = receiver._collected
    cluster.crash(donor.site)
    cluster.run_for(900)
    assert receiver._collected == {}
    assert receiver.dropped == 1
    assert donor not in cluster.stack_at(site).view.members
