"""Tests for the fast-path simulation core: scheduler fast lane and
compaction, ``Network.multicast``, trace filtering/ring buffer,
copy-on-write stable storage, and heartbeat phase staggering."""

from __future__ import annotations

import copy
import dataclasses
import enum
import random
from typing import Any, NamedTuple

import pytest

from repro.core.versioning import Provenance, VersionEntry

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


def test_constant_latency_multicast_is_one_heap_entry():
    sched, net, procs = _net(latency=ConstantLatency(1.0))
    net.multicast(procs[0].pid, [p.pid for p in procs[1:]], "one")
    assert len(sched._heap) == 1
    sched.run()
    assert sched.events_run == 1
    assert all(p.inbox == [(procs[0].pid, "one", 1.0)] for p in procs[1:])


def test_steady_window_runs_one_event_per_send_or_timer(monkeypatch):
    """n=24, every site multicasting on a 2-unit tick: a window's events
    are bounded by its network calls plus its timer firings (plus the
    deliveries already queued when it opened), not by the copies — one
    event per fan-out instant.  FIFO links are off: a link clock's
    1e-9 bump can split one call's copies over two instants.  The
    fan-out size is stated over data multicasts: busy sites send their
    view peers no heartbeats."""
    from repro.sim.process import Timer
    from repro.types import Message

    counts = {"send": 0, "multicast": 0, "data": 0, "timer": 0}
    nested = [0]
    send, multicast, fire = Network.send, Network.multicast, Timer._fire

    def counted_send(self, *args):
        counts["send"] += 1
        nested[0] += 1
        try:
            send(self, *args)
        finally:
            nested[0] -= 1

    def counted_multicast(self, *args):
        if not nested[0]:
            counts["multicast"] += 1
            counts["data"] += isinstance(args[2], Message)
        multicast(self, *args)

    def counted_fire(self):
        counts["timer"] += 1
        fire(self)

    monkeypatch.setattr(Network, "send", counted_send)
    monkeypatch.setattr(Network, "multicast", counted_multicast)
    monkeypatch.setattr(Timer, "_fire", counted_fire)
    config = ClusterConfig(
        seed=7, trace_level="none", latency=ConstantLatency(1.0), fifo_links=False
    )
    cluster = Cluster(24, config=config)
    assert cluster.settle()
    for stack in cluster.stacks.values():
        stack.set_periodic(2.0, lambda s=stack: s.multicast(("w", s.pid.site)))
    cluster.run_for(40.0)
    sched = cluster.scheduler
    queued = sum(1 for entry in sched._heap if entry[4] is None)
    events, delivered = sched.events_run, cluster.network.stats.delivered
    for key in counts:
        counts[key] = 0
    cluster.run_for(100.0)
    events = sched.events_run - events
    delivered = cluster.network.stats.delivered - delivered
    assert counts["data"] > 1000
    assert delivered > 20 * counts["data"]
    assert events <= counts["multicast"] + counts["send"] + counts["timer"] + queued


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


def _immutable_by_definition(value) -> bool:
    """The definition :func:`snapshot` implements, as first written:
    reflection on every value, nothing remembered between calls."""
    atomic = (int, float, complex, bool, str, bytes, type(None))
    if isinstance(value, atomic):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_immutable_by_definition(item) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        params = getattr(value, "__dataclass_params__", None)
        if params is None or not params.frozen:
            return False
        return all(
            _immutable_by_definition(getattr(value, f.name))
            for f in dataclasses.fields(value)
        )
    return False


class _Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


class _Pair(NamedTuple):
    left: Any
    right: Any


@dataclasses.dataclass(frozen=True)
class _Sealed:
    tag: str
    payload: Any  # may hold a list: frozen is not immutable


@dataclasses.dataclass(frozen=True)
class _Empty:
    pass


@dataclasses.dataclass
class _Open:
    payload: Any


def _zoo_value(rng: random.Random, depth: int = 0) -> Any:
    """One random nested value; leaves only once ``depth`` runs out."""
    pid = ProcessId(rng.randrange(8), rng.randrange(3))
    vid = ViewId(rng.randrange(1, 9), pid)
    leaves = [
        lambda: rng.randrange(-5, 5),
        lambda: rng.random(),
        lambda: rng.choice(["", "x", "key"]),
        lambda: rng.choice([True, False, None, b"raw", 2j]),
        lambda: rng.choice(list(_Colour)),
        lambda: pid,
        lambda: vid,
        lambda: MessageId(pid, vid, rng.randrange(1, 99)),
        lambda: _Empty(),
        lambda: [],
        lambda: {},
    ]
    if depth >= 3:
        return rng.choice(leaves)()

    def child():
        return _zoo_value(rng, depth + 1)

    def hashable_child():
        value = child()
        return value if _immutable_by_definition(value) else rng.randrange(9)

    nodes = [
        lambda: tuple(child() for _ in range(rng.randrange(4))),
        lambda: frozenset(hashable_child() for _ in range(rng.randrange(4))),
        lambda: _Pair(child(), child()),
        lambda: _Sealed("t", child()),
        lambda: _Open(child()),
        lambda: VersionEntry(child(), Provenance(vid.epoch, pid, 1), "c", 2),
        lambda: [child() for _ in range(rng.randrange(3))],
        lambda: {"k": child(), 2: child()},
        lambda: {hashable_child()},
    ]
    return rng.choice(leaves + nodes * 3)()


def _scribble(value: Any) -> None:
    """Mutate every mutable object reachable from ``value`` in place."""
    if isinstance(value, list):
        for item in value:
            _scribble(item)
        value.append("scribble")
    elif isinstance(value, dict):
        for item in value.values():
            _scribble(item)
        value["scribble"] = True
    elif isinstance(value, set):
        value.add("scribble")
    elif isinstance(value, (tuple, frozenset)):
        for item in value:
            _scribble(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _scribble(getattr(value, f.name))
        if isinstance(value, _Open):
            value.payload = "scribble"


def test_snapshot_zoo_shares_exactly_what_the_definition_allows():
    """Seeded zoo: the share-or-copy decision equals the reflective
    definition on every value, and whatever was decided, scribbling on
    the original never shows through a read."""
    rng = random.Random(23)
    shared = copied = 0
    for i in range(600):
        value = _zoo_value(rng)
        immutable = _immutable_by_definition(value)
        snap = snapshot(value)
        assert (snap is value) == immutable, value
        assert snap == value
        store = SiteStorage(0)
        store.write("w", value)
        store.append("log", value)
        before = copy.deepcopy(value)
        _scribble(value)
        assert immutable == (value == before)  # the scribble took
        assert store.read("w") == before, before
        assert store.read("log") == [before], before
        # A read hands out a snapshot too: scribbling on it is private.
        _scribble(store.read("w"))
        assert store.read("w") == before
        shared += immutable
        copied += not immutable
    assert shared > 100 and copied > 100  # the zoo exercises both


def test_snapshot_named_cases():
    pid = ProcessId(1)
    prov = Provenance(1, pid, 1)
    assert snapshot(_Colour.RED) is _Colour.RED
    assert snapshot(True) is True
    pair = _Pair((1, frozenset({pid})), "x")
    assert snapshot(pair) is pair
    assert type(snapshot(_Pair([1], 2))) is _Pair
    assert snapshot(_Pair([1], 2)) == _Pair([1], 2)
    empty = _Empty()
    assert snapshot(empty) is empty
    entry = VersionEntry("v", prov, "c", 1)
    assert snapshot(("k", entry))[1] is entry
    mutable_entry = VersionEntry(["v"], prov, "c", 1)
    copied = snapshot(("k", mutable_entry))[1]
    assert copied == mutable_entry and copied is not mutable_entry
    assert copied.value is not mutable_entry.value
    # The frozen flag is a fact about the class; what a field holds is
    # not — one class, both verdicts, in either order.
    assert snapshot(_Sealed("t", (1, 2))) == _Sealed("t", (1, 2))
    sealed_list = _Sealed("t", [1])
    assert snapshot(sealed_list) is not sealed_list
    sealed_tuple = _Sealed("t", (1,))
    assert snapshot(sealed_tuple) is sealed_tuple
    opened = _Open(1)
    assert snapshot(opened) is not opened


def test_snapshot_reflects_on_a_class_once(monkeypatch):
    """``dataclasses.fields`` / ``is_dataclass`` run when a class is
    first seen, never per value: the op-log append pays attribute reads."""
    from repro.sim import stable_storage

    calls = [0]

    def counting(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(stable_storage, "fields", counting(dataclasses.fields))
    monkeypatch.setattr(
        stable_storage, "is_dataclass", counting(dataclasses.is_dataclass)
    )

    def item(i: int):
        pid = ProcessId(i % 5, i % 2)
        return (f"k{i}", VersionEntry(f"v{i}", Provenance(1 + i, pid, i), "c", i))

    store = SiteStorage(0)
    store.append("log", item(0))  # warm-up: classes seen for the first time
    calls[0] = 0
    for i in range(1, 200):
        store.append("log", item(i))
    store.write("base", tuple(store.read("log")))
    assert calls[0] == 0
    assert len(store.read("base")) == 200


# ---------------------------------------------------------------------------
# Property checks: cost follows the trace, not the number of views
# ---------------------------------------------------------------------------


class _CountingEvents(list):
    """An event list that counts how often it is walked end to end."""

    def __init__(self, events):
        super().__init__(events)
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def _checked_run(cycles: int):
    """A seeded 5-site store run through ``cycles`` crash/recover
    cycles under client puts; returns (passes over the events made by
    ``check_cluster``, views installed)."""
    from repro.apps.factories import app_factory
    from repro.client.sim import SimStoreClient
    from repro.trace.checks import check_cluster

    cluster = Cluster(
        5, app_factory=app_factory("store", 5), config=ClusterConfig(seed=4)
    )
    assert cluster.settle(timeout=500)
    client = SimStoreClient(cluster, site=0, client_id="c")
    for cycle in range(cycles):
        assert client.put("k", cycle).ok
        cluster.crash(4)
        assert cluster.settle(timeout=500)
        assert client.put("k", -cycle).ok
        cluster.recover(4)
        assert cluster.settle(timeout=500)
    rec = cluster.gather_trace()
    views = len(rec.installed_views())
    rec.events = _CountingEvents(rec.events)
    reports = check_cluster(cluster, trace=rec)
    assert all(r.ok for r in reports), [str(r) for r in reports if not r.ok]
    assert sum(r.checked for r in reports) > 0
    return rec.events.passes, views


def test_check_cluster_passes_over_the_trace_do_not_grow_with_views():
    """k faults and 2k faults: twice the views, the same number of full
    passes over ``rec.events`` — every per-view question is answered by
    the index, which is built in one."""
    passes_k, views_k = _checked_run(3)
    passes_2k, views_2k = _checked_run(6)
    assert views_2k >= views_k + 6
    assert passes_2k == passes_k
    assert 0 < passes_k <= 4


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
    O(sweeps + expiries) times per site, not once per peer learned; a
    round's aggregation tree is built once, not once per member per
    message; a digest is its sender's table, the very row objects it
    holds, and a row older than the receiver's table stops at the
    comparison (the detector's ``indirect_rows`` counts exactly the
    newer third-party rows the sender does not suspect); and the least
    member of a set is computed once per distinct set."""
    from repro.fd.gossip import GossipDetector, GossipDigest
    from repro.fd.heartbeat import DetectorBase
    from repro.gms import tree as tree_mod
    from repro.gms.membership import MembershipConfig, ViewAgreement
    from repro.types import least_member
    from repro.vsync.stack import GroupStack, StackConfig

    n, fanout, timeout = 64, 8, 45.0
    learned = [0]
    built = [0]
    tree_keys = set()
    rows = {"received": 0, "newer": 0, "indirect": 0, "pushed": 0}
    asked = set()

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

    def prepare(agreement, _src, msg):
        key(msg.members, msg.round_id[0])
        asked.update((msg.members, agreement.stack.fd.reachable()))

    def received(det, src, digest):
        table = det._rows
        own = det.stack.pid.site
        rows["received"] += len(digest.rows)
        for site, stamp in digest.rows:
            if site != own and stamp > table.get(site, (site, (-1, -1)))[1]:
                rows["newer"] += 1
                if site != src.site and site not in digest.suspects:
                    rows["indirect"] += 1

    def pushed(stack, _sites, payload):
        if isinstance(payload, GossipDigest):
            table = stack.fd._rows
            assert all(row is table[row[0]] for row in payload.rows[1:])
            rows["pushed"] += 1

    spy(DetectorBase, "_admit", count(learned))
    spy(tree_mod.AggregationTree, "__init__", count(built))
    spy(ViewAgreement, "on_prepare", prepare)
    spy(ViewAgreement, "on_install", lambda _s, _src, m: key(m.view.members, m.round_id[0]))
    spy(GossipDetector, "on_digest", received)
    spy(GroupStack, "send_sites", pushed)
    tree_mod.round_tree.cache_clear()
    least_member.cache_clear()

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
    assert rows["pushed"] > 0
    assert sum(s.fd.indirect_rows for s in stacks) == rows["indirect"]
    assert rows["newer"] * 4 < rows["received"]
    assert 0 < least_member.cache_info().misses <= len(asked)


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
