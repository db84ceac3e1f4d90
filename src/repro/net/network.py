"""The simulated message-passing network.

Point-to-point, connectivity-gated delivery with per-link latency and
optional loss.  Connectivity is checked both when a message is sent and
when it would be delivered, so a partition that forms while a message is
in flight destroys it — the harshest (and simplest) cut semantics.

Links are FIFO by default: deliveries on the same ``(src, dst)`` link
never overtake each other even when sampled latencies would reorder
them — except that the first copy clocked after a topology change is
left unclocked (see :meth:`Network.multicast`).  The protocols above do not *depend* on this (sequence numbers and
round identifiers guard them), but FIFO links keep traces easier to read;
tests exercise the non-FIFO mode too.

Fast-path notes: deliveries ride the scheduler's fire-and-forget lane
(no cancellable handle is ever needed for an in-flight message), and
:meth:`Network.multicast` fans a payload out to many destinations with
one stats update and one pass — per-destination loss and latency are
still sampled independently, in destination order, so a multicast is
observationally identical to the equivalent ``send`` loop.

One scheduler event per fan-out instant: the copies of one call that
arrive at the same virtual time share one heap entry, which delivers
them back to back in destination order.  One entry per copy would run
the same execution: those entries would take consecutive ``seq``
numbers, so nothing could run between them, and whatever a handler
schedules for that instant queues behind the last of them either way.
Every copy is still checked (connectivity, live incarnation) at its
own delivery, so a handler that cuts a link or crashes a later
receiver still drops that copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import NetworkError
from repro.net.latency import ConstantLatency
from repro.net.topology import Topology
from repro.sim.process import Process
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler
from repro.types import ProcessId, SiteId


@dataclass
class NetworkStats:
    """Counters describing what happened on the wire.

    ``detailed`` enables the per-payload-type breakdown (``by_type``),
    which costs a type lookup and a dict update per send call (once per
    multicast); benchmarks leave it off, protocol analysis turns it on
    (the :class:`~repro.runtime.cluster.Cluster` default).
    """

    detailed: bool = False
    sent: int = 0
    delivered: int = 0
    dropped_partition: int = 0
    dropped_loss: int = 0
    dropped_dead: int = 0
    by_type: dict[str, int] = field(default_factory=dict)
    #: Estimated bytes of the payloads whose size a detailed run tracks
    #: (settlement offers and adopts), by payload type.
    bytes_by_type: dict[str, int] = field(default_factory=dict)

    def record_type(self, payload: Any, count: int = 1) -> None:
        name = type(payload).__name__
        self.by_type[name] = self.by_type.get(name, 0) + count

    def record_bytes(self, payload: Any, size: int) -> None:
        name = type(payload).__name__
        self.bytes_by_type[name] = self.bytes_by_type.get(name, 0) + size


class Network:
    """Routes payloads between registered processes.

    This is the simulator's implementation of
    :class:`repro.ports.NetworkPort`; :class:`repro.realnet.RealNetwork`
    implements the same contract over real TCP sockets.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        topology: Topology,
        rng: RngStreams,
        latency: Any = None,
        loss_prob: float = 0.0,
        fifo_links: bool = True,
        detailed_stats: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.topology = topology
        self.latency = latency if latency is not None else ConstantLatency(1.0)
        self.loss_prob = loss_prob
        self.fifo_links = fifo_links
        self.stats = NetworkStats(detailed=detailed_stats)
        self._rng = rng.stream("network")
        self._procs: dict[ProcessId, Process] = {}
        self._site_proc: dict[int, ProcessId] = {}
        # Site-keyed mirror of ``_procs`` holding the freshest
        # incarnation's process: the delivery hot path resolves targets
        # with an int lookup plus an identity check instead of a
        # ProcessId hash.
        self._site_live: dict[int, Process] = {}
        # Keyed by (src site, dst site): int tuples hash without a
        # Python-level __hash__ call, and FIFO per site pair subsumes
        # FIFO per incarnation pair (a site runs one process at a time).
        self._link_clock: dict[tuple[SiteId, SiteId], float] = {}
        self._topo_epoch = topology.changes

    # -- registration -------------------------------------------------

    def register(self, process: Process) -> None:
        """Attach ``process`` so it can send and receive.

        A site's next incarnation supersedes its previous one, which is
        forgotten: nothing is delivered to a superseded incarnation, and
        keeping it would hold a dead stack per crash for the whole run.
        """
        if process.pid in self._procs:
            raise NetworkError(f"duplicate process id {process.pid}")
        if process.pid.site not in self.topology.sites:
            raise NetworkError(f"site {process.pid.site} not in topology")
        superseded = self._site_proc.get(process.pid.site)
        if superseded is not None:
            del self._procs[superseded]
        self._procs[process.pid] = process
        self._site_proc[process.pid.site] = process.pid
        self._site_live[process.pid.site] = process
        process.attach(self)

    def process(self, pid: ProcessId) -> Process | None:
        return self._procs.get(pid)

    def pid_at_site(self, site: int) -> ProcessId | None:
        """Identifier of the most recent incarnation hosted at ``site``."""
        return self._site_proc.get(site)

    def live_processes(self) -> list[Process]:
        return [p for p in self._procs.values() if p.alive]

    # -- transmission ---------------------------------------------------

    def send_to_site(self, src: ProcessId, site: int, payload: Any) -> None:
        """Send to whichever incarnation currently lives at ``site``.

        Used by heartbeats and join probes, which must reach a recovered
        process without knowing its fresh identifier.
        """
        dst = self._site_proc.get(site)
        if dst is None:
            self.stats.dropped_dead += 1
            return
        self.send(src, dst, payload)

    def send(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        """Send ``payload`` from ``src`` to ``dst`` (may silently drop):
        a fan-out of one."""
        self.multicast(src, (dst,), payload)

    def multicast(self, src: ProcessId, dsts: Iterable[ProcessId], payload: Any) -> None:
        """Fan ``payload`` out from ``src`` to every destination.

        Loss and latency are sampled independently per destination, in
        the iteration order of ``dsts`` (so a seeded call draws what a
        loop of one-destination sends would draw), but the stats
        counters are updated in one batch and the payload type is
        classified once.  The surviving copies are grouped by arrival
        time, and each distinct arrival time is one scheduler event.
        """
        stats = self.stats
        topology = self.topology
        sites = topology.sites
        allows = topology.allows
        loss_prob = self.loss_prob
        rng = self._rng
        sample = self.latency.sample
        fifo = self.fifo_links
        clock = self._link_clock
        stale = fifo and topology.changes != self._topo_epoch
        now = self.scheduler.now
        src_site = src.site

        # Surviving destinations keyed by arrival time; dicts keep
        # insertion order, so each group stays in destination order.
        instants: dict[float, list[ProcessId]] = {}
        sent = dropped_dead = dropped_partition = dropped_loss = 0
        for dst in dsts:
            sent += 1
            site = dst.site
            if site not in sites:
                dropped_dead += 1
                continue
            if not allows(src_site, site):
                dropped_partition += 1
                continue
            if loss_prob > 0 and rng.random() < loss_prob:
                dropped_loss += 1
                continue
            arrival = now + sample(rng)
            if fifo:
                # FIFO: a copy arrives after the previous one on its link.
                link = (src_site, site)
                prev = clock.get(link)
                if prev is not None and arrival < prev + 1e-9:
                    arrival = prev + 1e-9
                if stale:
                    # The first copy clocked after a topology change
                    # prunes the table and leaves its own link unclocked
                    # (its clock has always gone into the table the
                    # prune replaces), so the next copy on that link may
                    # overtake it.  The golden digests depend on this;
                    # fixing it is a change that must name the digests
                    # it moves.
                    self._prune_link_clocks()
                    clock = self._link_clock
                    stale = False
                else:
                    clock[link] = arrival
            group = instants.get(arrival)
            if group is None:
                instants[arrival] = [dst]
            else:
                group.append(dst)
        stats.sent += sent
        stats.dropped_dead += dropped_dead
        stats.dropped_partition += dropped_partition
        stats.dropped_loss += dropped_loss
        if sent and stats.detailed:
            stats.record_type(payload, sent)
        fire_at = self.scheduler.fire_at
        for arrival, group in instants.items():
            fire_at(arrival, self._deliver, src, group, payload)

    def multicast_sites(self, src: ProcessId, sites: Iterable[SiteId], payload: Any) -> None:
        """Fan out to whichever incarnations currently live at ``sites``
        (the site-addressed analogue of :meth:`multicast`, used by the
        heartbeat failure detector)."""
        site_proc = self._site_proc
        dsts: list[ProcessId] = []
        missing = 0
        for site in sites:
            dst = site_proc.get(site)
            if dst is None:
                missing += 1
            else:
                dsts.append(dst)
        self.stats.dropped_dead += missing
        self.multicast(src, dsts, payload)

    def _prune_link_clocks(self) -> None:
        """Drop link-clock entries that can no longer affect ordering.

        Called lazily on the first copy sent after a topology change.  An
        entry whose clock is already in the past constrains nothing (a
        fresh arrival is at least ``now``), so long partition/heal
        histories cannot accumulate clocks without bound.  Entries with
        in-flight traffic (clock still in the future) are kept even
        across cuts: a message sent before a cut that heals before
        arrival still delivers, and must not be overtaken.
        """
        self._topo_epoch = self.topology.changes
        now = self.scheduler.now
        self._link_clock = {
            link: clock
            for link, clock in self._link_clock.items()
            if clock + 1e-9 > now
        }

    def _deliver(self, src: ProcessId, dsts: list[ProcessId], payload: Any) -> None:
        """Deliver one fan-out instant's copies in destination order.

        Each copy is checked when it is reached, so a handler earlier in
        the group that cuts a link or crashes a later receiver drops that
        copy.  The liveness check is the one ``deliver_network`` would
        make, so the handler is called directly.
        """
        allows = self.topology.allows
        live = self._site_live
        stats = self.stats
        src_site = src.site
        for dst in dsts:
            site = dst.site
            if not allows(src_site, site):
                stats.dropped_partition += 1
                continue
            target = live.get(site)
            if (
                target is None
                or not target.alive
                or (target.pid is not dst and target.pid != dst)
            ):
                stats.dropped_dead += 1
                continue
            stats.delivered += 1
            target.on_network(src, payload)
