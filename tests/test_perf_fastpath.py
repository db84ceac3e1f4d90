"""Tests for the fast-path simulation core: scheduler fast lane and
compaction, ``Network.multicast``, trace filtering/ring buffer,
copy-on-write stable storage, and heartbeat phase staggering."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.fd.heartbeat import HeartbeatDetector
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.network import Network
from repro.net.topology import Topology
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.sim.process import Process
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler
from repro.sim.stable_storage import SiteStorage, snapshot
from repro.trace.events import DeliveryEvent, MulticastEvent, ViewInstallEvent
from repro.trace.recorder import TraceRecorder
from repro.types import MessageId, ProcessId, ViewId


# ---------------------------------------------------------------------------
# Scheduler: fast lane, O(1) pending, compaction
# ---------------------------------------------------------------------------


def test_fast_lane_runs_in_time_and_seq_order():
    sched = Scheduler()
    seen = []
    sched.fire_at(2.0, seen.append, "b")
    sched.fire_after(1.0, seen.append, "a")
    sched.at(2.0, seen.append, "c")  # same instant: scheduling order wins
    sched.run()
    assert seen == ["a", "b", "c"]


def test_fast_lane_rejects_past_and_negative():
    sched = Scheduler()
    sched.at(5.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.fire_at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sched.fire_after(-0.5, lambda: None)


def test_pending_counts_live_events_only():
    sched = Scheduler()
    events = [sched.at(float(i + 1), lambda: None) for i in range(5)]
    sched.fire_at(10.0, lambda: None)
    assert sched.pending == 6
    events[0].cancel()
    events[0].cancel()  # idempotent: counted once
    assert sched.pending == 5
    sched.run(until=3.0)
    assert sched.pending == 3
    sched.run()
    assert sched.pending == 0


def test_cancel_after_fire_does_not_corrupt_pending():
    sched = Scheduler()
    event = sched.at(1.0, lambda: None)
    sched.at(2.0, lambda: None)
    sched.run(until=1.5)
    event.cancel()  # already fired: must be a no-op
    assert sched.pending == 1
    sched.run()
    assert sched.pending == 0


def test_heavy_cancellation_compacts_the_heap():
    sched = Scheduler()
    survivors = []
    keep = sched.at(500.0, survivors.append, "kept")
    cancelled = [sched.at(float(i + 1), lambda: None) for i in range(400)]
    for event in cancelled:
        event.cancel()
    # Dead entries outnumber live ones by far: compaction must have
    # purged them rather than leaving 400 tombstones buried.
    assert len(sched._heap) < 100
    assert sched.pending == 1
    sched.run()
    assert survivors == ["kept"]
    assert keep.cancelled is False


# ---------------------------------------------------------------------------
# Network.multicast
# ---------------------------------------------------------------------------


class _Sink(Process):
    def __init__(self, pid, scheduler, storage):
        super().__init__(pid, scheduler, storage)
        self.inbox = []

    def on_network(self, src, payload):
        self.inbox.append((src, payload, self.now))


def _net(n=4, **kwargs):
    sched = Scheduler()
    net = Network(sched, Topology(range(n)), RngStreams(kwargs.pop("seed", 0)), **kwargs)
    procs = []
    for site in range(n):
        proc = _Sink(ProcessId(site), sched, SiteStorage(site))
        net.register(proc)
        procs.append(proc)
    return sched, net, procs


def test_multicast_reaches_every_destination():
    sched, net, procs = _net(latency=ConstantLatency(1.0))
    net.multicast(procs[0].pid, [p.pid for p in procs[1:]], "hi")
    sched.run()
    assert all(p.inbox == [(procs[0].pid, "hi", 1.0)] for p in procs[1:])
    assert net.stats.sent == 3
    assert net.stats.delivered == 3


def test_multicast_matches_send_loop_under_fixed_seed():
    """A seeded multicast is observationally identical to the
    per-destination send loop it replaced (same RNG draw order)."""

    def run(use_multicast):
        sched, net, procs = _net(
            latency=UniformLatency(0.5, 4.0), loss_prob=0.3, seed=42
        )
        dsts = [p.pid for p in procs[1:]]
        for _ in range(20):
            if use_multicast:
                net.multicast(procs[0].pid, dsts, "x")
            else:
                for dst in dsts:
                    net.send(procs[0].pid, dst, "x")
        sched.run()
        arrivals = [p.inbox for p in procs]
        return arrivals, net.stats.dropped_loss, net.stats.delivered

    assert run(True) == run(False)


def test_multicast_counts_partition_drops_per_destination():
    sched, net, procs = _net()
    net.topology.partition([(0, 1), (2, 3)])
    net.multicast(procs[0].pid, [p.pid for p in procs[1:]], "cut")
    sched.run()
    assert net.stats.sent == 3
    assert net.stats.dropped_partition == 2
    assert procs[1].inbox and not procs[2].inbox and not procs[3].inbox


def test_multicast_inflight_cut_drops_at_delivery_time():
    sched, net, procs = _net(latency=ConstantLatency(10.0))
    net.multicast(procs[0].pid, [p.pid for p in procs[1:]], "doomed")
    sched.at(5.0, net.topology.partition, [(0,), (1, 2, 3)])
    sched.run()
    assert net.stats.dropped_partition == 3
    assert all(not p.inbox for p in procs[1:])


def test_multicast_dropped_loss_is_deterministic():
    def drops():
        sched, net, procs = _net(loss_prob=0.5, seed=9)
        dsts = [p.pid for p in procs[1:]]
        for _ in range(50):
            net.multicast(procs[0].pid, dsts, "y")
        sched.run()
        return net.stats.dropped_loss, net.stats.delivered

    first, second = drops(), drops()
    assert first == second
    assert first[0] > 0 and first[1] > 0


def test_multicast_to_dead_incarnation_counts_dropped_dead():
    sched, net, procs = _net()
    net.multicast_sites(procs[0].pid, [1, 2, 99], "knock")
    sched.run()
    assert net.stats.dropped_dead == 1  # site 99 hosts nobody
    assert procs[1].inbox and procs[2].inbox


def test_multicast_fifo_links_preserve_per_link_order():
    sched, net, procs = _net(latency=UniformLatency(0.1, 5.0), fifo_links=True)
    dsts = [p.pid for p in procs[1:]]
    for i in range(20):
        net.multicast(procs[0].pid, dsts, i)
    sched.run()
    for p in procs[1:]:
        assert [payload for _, payload, _ in p.inbox] == list(range(20))


def test_multicast_non_fifo_links_may_reorder():
    sched, net, procs = _net(latency=UniformLatency(0.1, 5.0), fifo_links=False)
    dsts = [p.pid for p in procs[1:]]
    for i in range(20):
        net.multicast(procs[0].pid, dsts, i)
    sched.run()
    reordered = False
    for p in procs[1:]:
        payloads = [payload for _, payload, _ in p.inbox]
        assert sorted(payloads) == list(range(20))
        reordered = reordered or payloads != list(range(20))
    assert reordered


def test_link_clocks_pruned_after_topology_change():
    sched, net, procs = _net(latency=ConstantLatency(1.0))
    net.multicast(procs[0].pid, [p.pid for p in procs[1:]], "warm")
    sched.run()
    assert net._link_clock
    net.topology.partition([(0,), (1, 2, 3)])
    sched.at(sched.now + 50.0, lambda: None)
    sched.run()
    net.send(procs[1].pid, procs[2].pid, "after")  # triggers lazy prune
    assert all(clock + 1e-9 > 0 for clock in net._link_clock.values())
    assert (procs[0].pid, procs[1].pid) not in net._link_clock


def test_send_many_from_process():
    sched, net, procs = _net(latency=ConstantLatency(1.0))
    procs[0].send_many([p.pid for p in procs[1:]], "bulk")
    sched.run()
    assert all(p.inbox for p in procs[1:])


# ---------------------------------------------------------------------------
# Trace recorder: level filter and ring buffer
# ---------------------------------------------------------------------------


def _delivery(t):
    pid = ProcessId(0)
    vid = ViewId(1, pid)
    return DeliveryEvent(
        time=t, pid=pid, msg_id=MessageId(pid, vid, int(t)), view_id=vid,
        sender_eview_seq=0,
    )


def test_membership_level_filters_message_events():
    rec = TraceRecorder(level="membership")
    assert rec.wants(ViewInstallEvent)
    assert not rec.wants(DeliveryEvent)
    assert not rec.wants(MulticastEvent)
    rec.record(_delivery(1.0))
    assert len(rec) == 0
    assert rec.filtered == 1


def test_none_level_records_nothing():
    rec = TraceRecorder(level="none")
    rec.record(_delivery(1.0))
    assert len(rec) == 0
    assert not rec.wants(DeliveryEvent)


def test_unknown_level_rejected():
    with pytest.raises(SimulationError):
        TraceRecorder(level="verbose")


def test_only_overrides_level():
    rec = TraceRecorder(level="none", only=[DeliveryEvent])
    assert rec.wants(DeliveryEvent)
    rec.record(_delivery(1.0))
    assert len(rec) == 1


def test_ring_buffer_keeps_most_recent():
    rec = TraceRecorder(capacity=10)
    for i in range(25):
        rec.record(_delivery(float(i)))
    assert len(rec) == 10
    assert rec.dropped == 15
    assert [e.time for e in rec.events] == [float(i) for i in range(15, 25)]


def test_cluster_trace_level_none_records_nothing():
    cluster = Cluster(3, config=ClusterConfig(trace_level="none"))
    cluster.settle()
    cluster.run_for(50.0)
    assert len(cluster.recorder) == 0
    assert cluster.recorder.filtered > 0


# ---------------------------------------------------------------------------
# Stable storage: copy-on-write snapshots
# ---------------------------------------------------------------------------


def test_snapshot_shares_immutable_values():
    pid = ProcessId(3, 1)
    deep = (1, "x", frozenset({pid}), (ViewId(2, pid), None))
    assert snapshot(deep) is deep


def test_snapshot_copies_mutable_values():
    value = {"log": [1, 2]}
    copy_ = snapshot(value)
    assert copy_ == value and copy_ is not value
    copy_["log"].append(3)
    assert value["log"] == [1, 2]


def test_snapshot_copies_frozen_dataclass_with_mutable_field():
    from repro.types import Message

    msg = Message(MessageId(ProcessId(0), ViewId(1, ProcessId(0)), 1), ["mut"])
    assert snapshot(msg) is not msg


def test_storage_write_isolates_mutable_and_shares_immutable():
    store = SiteStorage(0)
    mutable = [1, 2]
    store.write("m", mutable)
    mutable.append(3)
    assert store.read("m") == [1, 2]
    pid = ProcessId(7)
    store.write("p", pid)
    assert store.read("p") is pid


# ---------------------------------------------------------------------------
# Heartbeat staggering
# ---------------------------------------------------------------------------


def test_phase_offsets_distinct_and_deterministic():
    cluster = Cluster(8)
    offsets = [
        cluster.stacks[site].fd._phase_offset()
        for site in sorted(cluster.stacks)
    ]
    assert len(set(offsets)) == len(offsets)
    assert all(0.0 <= off < cluster.stacks[0].fd.interval for off in offsets)
    again = [
        cluster.stacks[site].fd._phase_offset()
        for site in sorted(cluster.stacks)
    ]
    assert offsets == again


def test_recovered_incarnation_gets_new_phase():
    cluster = Cluster(3)
    cluster.settle()
    before = cluster.stacks[1].fd._phase_offset()
    cluster.crash(1)
    cluster.run_for(50.0)
    cluster.recover(1)
    after = cluster.stacks[1].fd._phase_offset()
    assert before != after


@pytest.mark.parametrize("fd_mode", ["heartbeat", "gossip"])
def test_sweep_cost_tracks_live_peers_not_universe(fd_mode):
    """The periodic expiry sweep must examine O(live peers) entries,
    not every site the detector ever heard: a mostly-dead universe of
    24 sites with 4 survivors sweeps 3 peers per tick, not 23."""
    from repro.vsync.stack import StackConfig

    config = ClusterConfig(
        fd_mode=fd_mode,
        gossip_fanout=4,
        # Gossip needs the epidemic-round timeout (docs/scaling.md);
        # harmless for the heartbeat flavour.
        stack=StackConfig(fd_timeout=45.0),
    )
    cluster = Cluster(24, config=config)
    assert cluster.settle()
    for site in range(4, 24):
        cluster.crash(site)
    cluster.run_for(100.0)  # let reachability converge on the survivors
    survivors = [cluster.stacks[site] for site in range(4)]
    assert all(len(s.fd.reachable()) == 4 for s in survivors)
    for stack in survivors:
        stack.fd.sweep_examined = 0
    window = 200.0
    cluster.run_for(window)
    for stack in survivors:
        sweeps = window / stack.fd.interval
        assert 0 < stack.fd.sweep_examined <= (sweeps + 2) * 3


def test_scale_profile_work_counts_track_change_not_size(monkeypatch):
    """n=64 under the scale profile, bootstrap + partition + heal.
    Counts, not wall time: the reachable set is rebuilt from scratch
    O(sweeps + expiries) times per site, not once per peer learned, and
    a round's aggregation tree is built once, not once per member per
    message."""
    from repro.fd.heartbeat import DetectorBase
    from repro.gms import tree as tree_mod
    from repro.gms.membership import MembershipConfig, ViewAgreement
    from repro.vsync.stack import StackConfig

    n, fanout, timeout = 64, 8, 45.0
    learned = [0]
    built = [0]
    tree_keys = set()

    def spy(cls, name, before):
        original = getattr(cls, name)

        def wrapper(self, *args):
            before(self, *args)
            return original(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    def count(counter):
        def bump(*_):
            counter[0] += 1

        return bump

    def key(members, coordinator):
        if len(members) > fanout + 1:  # smaller rounds stay flat
            tree_keys.add((members, coordinator))

    spy(DetectorBase, "_admit", count(learned))
    spy(tree_mod.AggregationTree, "__init__", count(built))
    spy(ViewAgreement, "on_prepare", lambda _s, _src, m: key(m.members, m.round_id[0]))
    spy(ViewAgreement, "on_install", lambda _s, _src, m: key(m.view.members, m.round_id[0]))
    tree_mod.round_tree.cache_clear()

    config = ClusterConfig(
        fd_mode="gossip",
        gossip_fanout=4,
        trace_level="none",
        stack=StackConfig(
            fd_timeout=timeout,
            membership=MembershipConfig(
                tree_fanout=fanout, expand_debounce=6.0, flush_stall_timeout=90.0
            ),
        ),
    )
    cluster = Cluster(n, config=config)
    assert cluster.settle()
    cluster.partition([list(range(n // 2)), list(range(n // 2, n))])
    assert cluster.settle()
    cluster.heal()
    assert cluster.settle()

    stacks = list(cluster.stacks.values())
    sweeps = cluster.now / stacks[0].fd.interval + 2
    expiries = n // 2  # the far half, lost once
    for stack in stacks:
        assert stack.fd.full_rebuilds <= sweeps + expiries
    # Every site learned the other 63 and re-learned the far 32.
    assert learned[0] >= n * (n - 1 + n // 2)
    assert sum(s.fd.full_rebuilds for s in stacks) * 8 <= learned[0]
    assert 0 < built[0] <= len(tree_keys)


def test_staggered_heartbeats_do_not_share_an_instant():
    cluster = Cluster(6, config=ClusterConfig(latency=ConstantLatency(1.0)))
    cluster.settle()
    sent_times: dict[int, list[float]] = {}
    for site, stack in cluster.stacks.items():
        original = stack.fd._beat
        def beat(s=site, orig=original):
            sent_times.setdefault(s, []).append(cluster.now)
            orig()
        stack.fd._beat = beat
    cluster.run_for(60.0)
    steady = {
        site: [t for t in times if t > cluster.now - 30.0]
        for site, times in sent_times.items()
    }
    all_times = [t for times in steady.values() for t in times]
    assert len(all_times) == len(set(all_times))  # no same-instant bursts
