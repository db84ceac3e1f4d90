"""Differential test: one scheduler event per multicast fan-out instant.

``Network.multicast`` groups the copies of one call that arrive at the
same virtual time into one heap entry.  ``_PerCopyNetwork`` below is the
reference: every copy its own heap entry, delivered through
``Process.deliver_network``.  Seeded random runs drive both
through one script whose handlers, partway through a fan-out, partition
the topology, cut a link one way, crash (and later recover) another
receiver of the same fan-out, and schedule zero-delay work.  The
delivery logs and every ``NetworkStats`` field must be equal.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Iterable

import pytest

from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.process import Process
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler
from repro.sim.stable_storage import SiteStorage
from repro.types import ProcessId


class _PerCopyNetwork(Network):
    """The reference: one heap entry and one ``_deliver_copy`` per copy,
    with the payload classified per destination."""

    def send(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        stats = self.stats
        stats.sent += 1
        if stats.detailed:
            stats.record_type(payload)
        if dst.site not in self.topology.sites:
            stats.dropped_dead += 1
            return
        if not self.topology.allows(src.site, dst.site):
            stats.dropped_partition += 1
            return
        if self.loss_prob > 0 and self._rng.random() < self.loss_prob:
            stats.dropped_loss += 1
            return
        arrival = self.scheduler.now + self.latency.sample(self._rng)
        if self.fifo_links:
            arrival = self._fifo_arrival(src, dst, arrival)
        self.scheduler.fire_at(arrival, self._deliver_copy, src, dst, payload)

    def multicast(self, src: ProcessId, dsts: Iterable[ProcessId], payload: Any) -> None:
        stats = self.stats
        now = self.scheduler.now
        sent = dropped_dead = dropped_partition = dropped_loss = 0
        for dst in dsts:
            sent += 1
            if stats.detailed:
                stats.record_type(payload)
            if dst.site not in self.topology.sites:
                dropped_dead += 1
                continue
            if not self.topology.allows(src.site, dst.site):
                dropped_partition += 1
                continue
            if self.loss_prob > 0 and self._rng.random() < self.loss_prob:
                dropped_loss += 1
                continue
            arrival = now + self.latency.sample(self._rng)
            if self.fifo_links:
                arrival = self._fifo_arrival(src, dst, arrival)
            self.scheduler.fire_at(arrival, self._deliver_copy, src, dst, payload)
        stats.sent += sent
        stats.dropped_dead += dropped_dead
        stats.dropped_partition += dropped_partition
        stats.dropped_loss += dropped_loss

    def _fifo_arrival(self, src: ProcessId, dst: ProcessId, arrival: float) -> float:
        clock = self._link_clock
        if self.topology.changes != self._topo_epoch:
            self._prune_link_clocks()
        link = (src.site, dst.site)
        prev = clock.get(link)
        if prev is not None:
            arrival = max(arrival, prev + 1e-9)
        clock[link] = arrival
        return arrival

    def _deliver_copy(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        if not self.topology.allows(src.site, dst.site):
            self.stats.dropped_partition += 1
            return
        target = self._site_live.get(dst.site)
        if (
            target is None
            or not target.alive
            or (target.pid is not dst and target.pid != dst)
        ):
            self.stats.dropped_dead += 1
            return
        self.stats.delivered += 1
        target.deliver_network(src, payload)


class _Node(Process):
    def __init__(self, pid: ProcessId, world: "_World") -> None:
        super().__init__(pid, world.sched, SiteStorage(pid.site))
        self.world = world

    def on_network(self, src: ProcessId, payload: Any) -> None:
        self.world.on_delivery(self, src, payload)


#: What the first receiver of a payload does to the rest of its fan-out.
MID_FANOUT = ("partition", "oneway", "crash", "zero")


class _World:
    """One seeded run: ``n`` nodes, a scripted reaction to every delivery.

    The script's own ``random.Random`` decides every reaction, so two
    networks that deliver the same copies in the same order are driven
    through the same run; the first divergence shows in the log.
    """

    def __init__(
        self,
        net_cls: type[Network],
        seed: int,
        latency: Any,
        loss_prob: float,
        fifo: bool,
        n: int = 6,
        budget: int = 300,
    ) -> None:
        self.n = n
        self.sched = Scheduler()
        self.topology = Topology(range(n))
        self.net = net_cls(
            self.sched,
            self.topology,
            RngStreams(seed),
            latency=latency,
            loss_prob=loss_prob,
            fifo_links=fifo,
            detailed_stats=True,
        )
        self.script = random.Random(seed * 7919 + 1)
        self.budget = budget
        self.serial = 0
        self.log: list[tuple] = []
        self.acted: dict[str, int] = {kind: 0 for kind in MID_FANOUT}
        self.first_seen: set[int] = set()
        self.nodes: dict[int, _Node] = {}
        for site in range(n):
            self._spawn(ProcessId(site))
        for k in range(1, 12):
            self.sched.at(9.0 * k, self.topology.heal)
        # A kick every few units keeps traffic alive when the script's
        # chain of reactions dies out.
        for k in range(1, 40):
            self.sched.at(2.5 * k, lambda site=k % n: self.emit(self.nodes[site]))

    def _spawn(self, pid: ProcessId) -> None:
        node = _Node(pid, self)
        self.nodes[pid.site] = node
        self.net.register(node)

    def _recover(self, site: int) -> None:
        old = self.nodes[site]
        if not old.alive:
            self._spawn(old.pid.next_incarnation())

    def _targets(self, src: _Node) -> list[ProcessId]:
        """A shuffled subset, sometimes with a stale incarnation or a
        site outside the topology."""
        pids = [node.pid for node in self.nodes.values() if node is not src]
        pids = self.script.sample(pids, self.script.randint(1, len(pids)))
        roll = self.script.random()
        if roll < 0.1:
            pids.append(ProcessId(self.n + 3))
        elif roll < 0.2:
            stale = self.script.choice(pids)
            if stale.incarnation:
                pids.append(ProcessId(stale.site, stale.incarnation - 1))
        return pids

    def _payload(self, targets: list[ProcessId]) -> tuple:
        self.serial += 1
        roll = self.script.random()
        kind = MID_FANOUT[int(roll * 8)] if roll < 0.5 else "data"
        return (kind, self.serial, tuple(p.site for p in targets))

    def emit(self, node: _Node) -> None:
        if not node.alive or self.budget <= 0:
            return
        self.budget -= 1
        net = self.net
        roll = self.script.random()
        if roll < 0.6:
            targets = self._targets(node)
            net.multicast(node.pid, targets, self._payload(targets))
        elif roll < 0.75:
            sites = [self.script.randrange(self.n + 1) for _ in range(3)]
            net.multicast_sites(node.pid, sites, self._payload([]))
        elif roll < 0.9:
            target = self.script.choice(self._targets(node))
            net.send(node.pid, target, self._payload([target]))
        else:
            site = self.script.randrange(self.n + 1)
            net.send_to_site(node.pid, site, self._payload([]))

    def on_delivery(self, node: _Node, src: ProcessId, payload: tuple) -> None:
        self.log.append((self.sched.now, src, node.pid, payload))
        kind, serial, sites = payload
        if serial not in self.first_seen:
            self.first_seen.add(serial)
            self._mid_fanout(node, src, kind, sites)
        if self.script.random() < 0.7:
            self.emit(node)

    def _mid_fanout(self, node: _Node, src: ProcessId, kind: str, sites: tuple) -> None:
        """The first receiver of a payload acts on another receiver of
        it, which under constant latency has not had its copy yet."""
        later = [site for site in sites if site != node.pid.site and site < self.n]
        if kind == "data" or not later:
            return
        self.acted[kind] += 1
        victim = self.script.choice(later)
        if kind == "partition":
            self.topology.partition([[s for s in range(self.n) if s != victim]])
        elif kind == "oneway":
            self.topology.cut_oneway(src.site, victim)
        elif kind == "crash":
            self.nodes[victim].crash()
            self.sched.at(self.sched.now + self.script.uniform(1.0, 6.0), self._recover, victim)
        else:
            self.sched.fire_after(0.0, self.emit, node)
            node.set_timer(0.0, lambda: self.emit(node))

    def run(self) -> "_World":
        for node in list(self.nodes.values()):
            self.emit(node)
        self.sched.run()
        return self


#: ``coarse-uniform-fifo`` draws latencies 2e-9 apart at most: arrival
#: times that nearly coincide, and FIFO bumps that land on each other.
CONFIGS = {
    "constant-fifo": (ConstantLatency(1.0), 0.0, True),
    "constant-nonfifo-loss": (ConstantLatency(1.0), 0.2, False),
    "uniform-fifo-loss": (UniformLatency(0.5, 3.0), 0.1, True),
    "uniform-nonfifo": (UniformLatency(0.5, 3.0), 0.0, False),
    "coarse-uniform-fifo": (UniformLatency(1.0, 1.0 + 2e-9), 0.05, True),
}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_grouped_fanout_matches_per_copy_events(config, seed):
    latency, loss_prob, fifo = CONFIGS[config]
    grouped = _World(Network, seed, latency, loss_prob, fifo).run()
    reference = _World(_PerCopyNetwork, seed, latency, loss_prob, fifo).run()

    assert len(reference.log) > 100
    assert grouped.log == reference.log
    assert dataclasses.asdict(grouped.net.stats) == dataclasses.asdict(
        reference.net.stats
    )
    assert grouped.sched.now == reference.sched.now
    assert grouped.sched.events_run <= reference.sched.events_run
    if isinstance(latency, ConstantLatency):
        assert grouped.sched.events_run < reference.sched.events_run


def test_script_exercises_every_mid_fanout_action():
    """Across the seeds of one configuration every handler action lands
    partway through a fan-out, and every drop counter moves."""
    acted = {kind: 0 for kind in MID_FANOUT}
    stats = []
    for seed in range(6):
        world = _World(Network, seed, ConstantLatency(1.0), 0.2, True).run()
        for kind, count in world.acted.items():
            acted[kind] += count
        stats.append(world.net.stats)
    assert all(count > 0 for count in acted.values()), acted
    assert sum(s.dropped_partition for s in stats) > 0
    assert sum(s.dropped_dead for s in stats) > 0
    assert sum(s.dropped_loss for s in stats) > 0


def test_handler_crashing_a_later_receiver_drops_that_copy():
    """One heap entry carries the whole fan-out, and a copy is checked
    when it is reached: receiver 1 crashes receiver 3 before its turn."""
    sched = Scheduler()
    net = Network(sched, Topology(range(4)), RngStreams(0))
    got = []

    class Sink(Process):
        def on_network(self, src, payload):
            got.append(self.pid.site)
            if self.pid.site == 1:
                procs[3].crash()

    procs = [Sink(ProcessId(site), sched, SiteStorage(site)) for site in range(4)]
    for proc in procs:
        net.register(proc)
    net.multicast(procs[0].pid, [p.pid for p in procs[1:]], "x")
    assert sched.pending == 1
    sched.run()
    assert got == [1, 2]
    assert sched.events_run == 1
    assert (net.stats.delivered, net.stats.dropped_dead) == (2, 1)
