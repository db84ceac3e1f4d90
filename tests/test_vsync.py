"""Tests for view-synchronous multicast: Properties 2.1-2.3 and the
delivery machinery around them."""

from __future__ import annotations

from typing import Any

from repro.runtime.cluster import Cluster, ClusterConfig
from repro.trace.checks import run_check
from repro.types import MessageId, ProcessId
from repro.vsync.events import GroupApplication

from tests.conftest import assert_all_properties, settled_cluster


class Collector(GroupApplication):
    """Remembers everything delivered to it."""

    def __init__(self) -> None:
        super().__init__()
        self.messages: list[tuple[ProcessId, Any]] = []
        self.views: list[Any] = []

    def on_message(self, sender, payload, msg_id) -> None:
        self.messages.append((sender, payload))

    def on_view(self, eview) -> None:
        self.views.append(eview)


def collector_cluster(n: int, seed: int = 0) -> Cluster:
    cluster = Cluster(
        n, app_factory=lambda pid: Collector(), config=ClusterConfig(seed=seed)
    )
    assert cluster.settle(timeout=500)
    return cluster


def test_multicast_reaches_every_member_including_sender():
    cluster = collector_cluster(4)
    cluster.stack_at(1).multicast("ping")
    cluster.run_for(20)
    for site in range(4):
        assert (cluster.stack_at(1).pid, "ping") in cluster.apps[site].messages


def test_fifo_per_sender_within_view():
    cluster = collector_cluster(3)
    for i in range(10):
        cluster.stack_at(0).multicast(i)
    cluster.run_for(30)
    sender = cluster.stack_at(0).pid
    for site in range(3):
        got = [p for s, p in cluster.apps[site].messages if s == sender]
        assert got == list(range(10))


def test_interleaved_senders_all_delivered():
    cluster = collector_cluster(3)
    for i in range(5):
        for site in range(3):
            cluster.stack_at(site).multicast((site, i))
    cluster.run_for(50)
    for site in range(3):
        assert len(cluster.apps[site].messages) == 15


def test_multicast_during_flush_is_dropped_and_never_delivered():
    cluster = collector_cluster(4)
    cluster.crash(3)
    cluster.run_for(18)  # suspicion propagates; flush starts
    sender = cluster.stack_at(0)
    # Force a send while the view change is (likely) in progress.
    sender.membership.flushing = True
    sender.channels.suspend()
    result = sender.multicast("late")
    assert result is None  # refused: dropped, not re-issued
    sender.membership.flushing = False
    assert cluster.settle(timeout=500)
    cluster.run_for(30)
    for site in range(3):
        payloads = [p for _, p in cluster.apps[site].messages]
        assert "late" not in payloads
    assert_all_properties(cluster.recorder)


def test_agreement_across_partition_cut():
    """Messages multicast right as a partition forms must be delivered
    consistently: same-install survivors see the same set (2.1)."""
    cluster = collector_cluster(5, seed=2)
    for i in range(3):
        cluster.stack_at(i % 5).multicast(("pre", i))
    cluster.run_for(2)
    cluster.partition([[0, 1, 2], [3, 4]])
    for i in range(3):
        cluster.stack_at(i).multicast(("mid", i))
    assert cluster.settle(timeout=500)
    report = run_check("Agreement(2.1)", cluster.recorder)
    assert report.ok, report.violations
    assert_all_properties(cluster.recorder)


def test_multicast_in_flight_at_a_crash_reaches_every_survivor():
    """A multicast still in flight when a member crashes is delivered
    to every survivor, once, before or in the next view."""
    cluster = collector_cluster(4, seed=2)
    cluster.stack_at(0).multicast("cutover")
    cluster.run_for(1.0)  # delivered at the sender only
    cluster.crash(3)
    assert cluster.settle(timeout=500)
    cluster.run_for(60)
    for site in range(3):
        payloads = [p for _, p in cluster.apps[site].messages]
        assert payloads.count("cutover") == 1, site
    assert_all_properties(cluster.recorder)


def test_uniqueness_under_churn():
    cluster = collector_cluster(4, seed=5)
    for round_no in range(3):
        for site in range(4):
            stack = cluster.stacks[site]
            if stack.alive and not stack.is_flushing:
                stack.multicast((round_no, site))
        if round_no == 0:
            cluster.partition([[0, 1], [2, 3]])
        elif round_no == 1:
            cluster.heal()
        cluster.run_for(80)
    cluster.settle(timeout=500)
    assert run_check("Uniqueness(2.2)", cluster.recorder).ok
    assert run_check("Integrity(2.3)", cluster.recorder).ok


def test_no_delivery_without_multicast_and_no_duplicates():
    cluster = collector_cluster(3)
    cluster.stack_at(0).multicast("once")
    cluster.run_for(20)
    report = run_check("Integrity(2.3)", cluster.recorder)
    assert report.ok
    payloads = [p for _, p in cluster.apps[1].messages if p == "once"]
    assert payloads == ["once"]


def test_message_to_old_view_is_dropped_after_install():
    """A message tagged with a superseded view never gets delivered."""
    cluster = collector_cluster(3)
    stack = cluster.stack_at(0)
    old_view_id = stack.current_view_id()
    cluster.crash(2)
    assert cluster.settle(timeout=500)
    deliveries = [
        ev
        for ev in cluster.recorder.deliveries()
        if ev.view_id != ev.msg_id.view
    ]
    assert deliveries == []
    assert stack.current_view_id() != old_view_id


def test_messages_under_loss_still_satisfy_properties():
    cluster = Cluster(
        3,
        app_factory=lambda pid: Collector(),
        config=ClusterConfig(seed=9, loss_prob=0.08),
    )
    assert cluster.settle(timeout=900)
    for i in range(10):
        for site in range(3):
            stack = cluster.stacks[site]
            if stack.alive and not stack.is_flushing:
                stack.multicast((site, i))
        cluster.run_for(15)
    cluster.settle(timeout=900)
    assert_all_properties(cluster.recorder)


def test_message_id_embeds_view_and_orders():
    cluster = collector_cluster(2)
    stack = cluster.stack_at(0)
    first = stack.multicast("a")
    second = stack.multicast("b")
    assert isinstance(first, MessageId)
    assert first.view == stack.current_view_id()
    assert first < second
