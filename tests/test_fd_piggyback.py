"""Liveness rides on data: a heartbeat-plane process sends no beat to a
view member that its latest multicast reached within the last
``fd_interval`` (docs/protocol.md §2).

A skipped beat carried its sender's view, multicast count and e-view
count.  Each test pins the receiver-side rule that keeps one of those
signals without the beat, and fails if that rule is removed: in-view
loss repair from the detector tick (``ViewChannels.chase_held``), view
evidence read off data (the divergence rule, ``heard_view``), and the
beat resuming once its sender goes quiet.
"""

from __future__ import annotations

import random

from repro.evs.messages import EvChange
from repro.fd.heartbeat import Heartbeat
from repro.net.latency import UniformLatency
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.trace.events import DeliveryEvent, MulticastEvent
from repro.types import Message, MessageId, ViewId
from repro.vsync.channel import ViewChannels
from repro.vsync.events import GroupApplication
from repro.vsync.stack import StackConfig

INTERVAL = StackConfig().fd_interval


def _settled(n: int, app_factory=None, **knobs) -> Cluster:
    cluster = Cluster(
        n, app_factory=app_factory, config=ClusterConfig(seed=7, **knobs)
    )
    assert cluster.settle(), cluster.views()
    return cluster


def _drop_from_fanouts(cluster: Cluster, select) -> list:
    """Drop the copies of multi-destination sends that
    ``select(dst, payload)`` picks, logged as ``(time, dst, payload)``.
    Unicasts, which carry every repair, always get through."""
    network = cluster.network
    real = network.multicast
    dropped: list = []

    def multicast(src, dsts, payload):
        dsts = list(dsts)
        if len(dsts) > 1:
            lost = [dst for dst in dsts if select(dst, payload)]
            dropped.extend((network.scheduler.now, dst, payload) for dst in lost)
            dsts = [dst for dst in dsts if dst not in lost]
        real(src, dsts, payload)

    network.multicast = multicast
    return dropped


def _chatter(stacks, burst: int = 1) -> list:
    """Each stack multicasts ``burst`` messages every unit until the
    returned list is made non-empty."""
    stop: list = []
    for stack in stacks:

        def tick(s=stack) -> None:
            if not stop:
                for _ in range(burst):
                    s.multicast(("w", s.pid.site))

        stack.set_periodic(1.0, tick)
    return stop


def _delays(cluster: Cluster) -> dict:
    """``(receiver, msg_id) -> delivery time - multicast time``."""
    trace = cluster.gather_trace()
    sent = {e.msg_id: e.time for e in trace.of_type(MulticastEvent)}
    return {
        (e.pid, e.msg_id): e.time - sent[e.msg_id]
        for e in trace.of_type(DeliveryEvent)
    }


def test_beats_skip_exactly_the_view_peers_a_multicast_just_reached():
    """Two components of two sites, everyone multicasting every unit:
    site 0 beacons the far component (merge detection) and never its
    view peer, and the skipped copies are counted and exported."""
    cluster = _settled(4)
    cluster.partition([[0, 1], [2, 3]])
    assert cluster.settle(), cluster.views()
    _chatter(cluster.live_stacks())
    cluster.run_for(1.5)
    targets: list = []
    network = cluster.network
    real = network.multicast

    def spy(src, dsts, payload):
        dsts = list(dsts)
        if isinstance(payload, Heartbeat) and src.site == 0:
            targets.append(sorted(dst.site for dst in dsts))
        real(src, dsts, payload)

    network.multicast = spy
    fd = cluster.stack_at(0).fd
    skipped = fd.beats_skipped
    cluster.run_for(4 * INTERVAL)
    assert targets and all(sites == [2, 3] for sites in targets)
    assert fd.beats_skipped - skipped == len(targets)
    assert cluster.metrics.value("fd_heartbeats_skipped_total") == sum(
        s.fd.beats_skipped for s in cluster.stacks.values()
    )


def test_copy_lost_mid_stream_is_repaired_within_two_intervals():
    """5% of the multicast copies are lost while every site multicasts
    every unit, so no site beacons another: each loss is found at the
    receiver's next tick and repaired within 2 fd_interval."""
    cluster = _settled(4)
    view = cluster.stack_at(0).current_view_id()
    rng = random.Random(3)
    dropped = _drop_from_fanouts(
        cluster, lambda dst, p: isinstance(p, Message) and rng.random() < 0.05
    )
    stop = _chatter(cluster.live_stacks())
    cluster.run_for(60.0)
    stop.append(True)
    quiet = cluster.now
    cluster.run_for(4 * INTERVAL)
    assert len(dropped) > 10
    delays = _delays(cluster)
    for when, dst, msg in dropped:
        assert (dst, msg.msg_id) in delays  # nothing is lost for good
        if when < quiet - 2.0:  # a later multicast of its sender followed
            assert delays[dst, msg.msg_id] <= 2 * INTERVAL, (when, dst, msg)
    assert {s.current_view_id() for s in cluster.live_stacks()} == {view}


def test_lost_final_multicast_is_repaired_once_the_beat_resumes():
    """A site's last multicast copy to one peer is lost and the site
    goes quiet: no later message shows the gap, and the next beat is
    skipped (the multicast carried its fields), but the one after it
    advertises the count."""
    cluster = _settled(3)
    sender, victim = cluster.stack_at(1), cluster.stack_at(2)
    dropped = _drop_from_fanouts(
        cluster,
        lambda dst, p: isinstance(p, Message)
        and dst == victim.pid
        and p.msg_id.seqno == 5,
    )
    for _ in range(5):
        sender.multicast("x")
        cluster.run_for(1.0)
    cluster.run_for(3 * INTERVAL)
    ((_when, _dst, msg),) = dropped
    assert sender.fd.beats_skipped > 0
    assert _delays(cluster)[victim.pid, msg.msg_id] <= 2 * INTERVAL + 3.0


def test_lost_eview_change_under_traffic_is_repaired():
    """Site 3 misses an SV-SetMerge's EvChange while every site
    multicasts every unit: the multicasts it holds at the e-view gate
    name the change it lacks, and its tick asks the coordinator."""
    cluster = _settled(4)
    lead, victim = cluster.stack_at(0), cluster.stack_at(3)
    dropped = _drop_from_fanouts(
        cluster, lambda dst, p: isinstance(p, EvChange) and dst == victim.pid
    )
    stop = _chatter(cluster.live_stacks())
    cluster.run_for(2.5)
    lead.sv_set_merge([ss.ssid for ss in lead.eview.structure.svsets])
    cluster.run_for(2 * INTERVAL + 3.0)
    assert len(dropped) == 1
    assert victim.evs.applied_seq == lead.evs.applied_seq == 1
    stop.append(True)
    cluster.run_for(4 * INTERVAL)
    trace = cluster.gather_trace()
    multicasts = sum(1 for _ in trace.of_type(MulticastEvent))
    assert sum(1 for _ in trace.of_type(DeliveryEvent)) == 4 * multicasts


def test_newer_view_multicast_is_view_evidence_without_a_beat():
    cluster = _settled(3)
    stack = cluster.stack_at(0)
    peer = cluster.stack_at(1).pid
    since = stack.membership.last_install_time
    assert not stack.fd.view_disagreement(since=since)
    newer = ViewId(stack.current_view_id().epoch + 1, peer)
    stack.on_network(peer, Message(MessageId(peer, newer, 1), "x"))
    assert stack.fd.view_disagreement(since=since)


class _EagerSite1(GroupApplication):
    """Site 1 multicasts the moment it installs a view."""

    def on_view(self, eview) -> None:
        if self.stack.pid.site == 1:
            self.stack.multicast("installed")


def test_heard_view_names_the_current_view_of_a_busy_peer_never_beaconing_it():
    """Site 1 multicasts on every install and every unit after, so it
    beacons none of its view peers once the view is in: site 0 last
    heard a beat from it during the flush, naming the old view."""
    cluster = _settled(3, app_factory=lambda pid: _EagerSite1())
    busy = cluster.stack_at(1)
    _chatter([busy])
    cluster.crash(2)
    assert cluster.settle(), cluster.views()
    cluster.run_for(4 * INTERVAL)
    stack = cluster.stack_at(0)
    mine = stack.current_view_id()
    assert stack.fd._heard_views[1][2] != mine  # no beacon named it
    assert stack.fd.heard_view(busy.pid) == mine


def test_reordering_without_loss_sends_no_retransmit_request(monkeypatch):
    """Links that reorder (two multicasts per tick under latency jitter)
    but lose nothing: a gap that the late copy fills before the
    receiver's tick never becomes a RetransmitRequest."""
    reordered = [0]
    real = ViewChannels.on_app_message

    def counting(self, msg):
        mid = msg.msg_id
        if (
            self.view is not None
            and mid.view == self.view.view_id
            and mid.seqno > self._fifo_next.get(mid.sender, 1)
        ):
            reordered[0] += 1
        real(self, msg)

    monkeypatch.setattr(ViewChannels, "on_app_message", counting)
    cluster = _settled(4, fifo_links=False, latency=UniformLatency(1.0, 1.01))
    _chatter(cluster.live_stacks(), burst=2)
    cluster.run_for(100.0)
    assert reordered[0] > 10
    assert cluster.network.stats.by_type.get("RetransmitRequest", 0) == 0
