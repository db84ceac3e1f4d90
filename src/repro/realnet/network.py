"""Real-network implementation of :class:`repro.ports.NetworkPort`.

One :class:`RealNetwork` instance is one node's view of the wire: a
frame server listening on its own localhost port plus one outbound
:class:`~repro.realnet.transport.PeerLink` per peer site, addressed
through a (possibly shared, possibly mutating) *address book* mapping
``site -> (host, port)``.  The protocol stack registered on it is
exactly the stack the simulator runs — same :meth:`send` /
:meth:`multicast` / :meth:`send_to_site` / :meth:`multicast_sites`
surface, same drop-never-raise semantics, same
:class:`~repro.net.network.NetworkStats` accounting.

Fault injection carries over from the simulated network:

* ``loss_prob`` drops outgoing frames at the sender with the same
  seeded substream discipline (:class:`~repro.sim.rng.RngStreams`);
* ``latency`` (any :mod:`repro.net.latency` model) delays frames via
  the wall-clock scheduler before they reach the socket;
* ``connectivity`` is a predicate over ``(src_site, dst_site)`` —
  the orchestrator wires it to a live :class:`~repro.net.topology.Topology`
  so :class:`~repro.net.faults.FaultSchedule` partitions/heals (and even
  one-way cuts) apply to real sockets unchanged.  It is enforced on
  **both** send and receive, mirroring the simulator's "a partition that
  forms while a message is in flight destroys it" semantics at
  firewall granularity.

Self-addressed traffic never touches a socket: it is looped back
through the scheduler (never synchronously — a send must not reenter
the stack before returning, an invariant the simulator provides for
free and protocol code implicitly relies on).

Frames addressed to a specific incarnation are dropped by the receiver
when a different incarnation now lives at the site — the wire analogue
of the simulator delivering only to the registered ``ProcessId``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.errors import TransportError
from repro.net.network import NetworkStats
from repro.ports import ProcessPort
from repro.realnet.codec_bin import (
    WIRE_FORMATS,
    ParsedMsg,
    process_id,
    supported_formats,
)
from repro.realnet.transport import (
    BATCH_BYTES,
    FrameServer,
    OutMessage,
    PeerLink,
    enable_stderr_logging,
)
from repro.realnet.wallclock import WallClockScheduler
from repro.sim.rng import RngStreams
from repro.types import ProcessId, SiteId

Connectivity = Callable[[SiteId, SiteId], bool]

AddressBook = "dict[SiteId, tuple[str, int]]"


class RealNetwork:
    """One node's :class:`~repro.ports.NetworkPort` over TCP sockets."""

    def __init__(
        self,
        scheduler: WallClockScheduler,
        site: SiteId,
        address_book: dict[SiteId, tuple[str, int]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        connectivity: Connectivity | None = None,
        loss_prob: float = 0.0,
        latency: Any = None,
        rng: RngStreams | None = None,
        detailed_stats: bool = True,
        codec: str = "bin",
        batch_bytes: int | None = None,
        quiet: bool = True,
    ) -> None:
        self.scheduler = scheduler
        self.site = site
        self.address_book = address_book
        self.host = host
        self._requested_port = port
        self.connectivity = connectivity or (lambda src, dst: True)
        self.loss_prob = loss_prob
        self.latency = latency
        self._rng = (rng or RngStreams(0)).stream(f"realnet.{site}")
        self.stats = NetworkStats(detailed=detailed_stats)
        self._formats = supported_formats(codec)
        self._preferred = WIRE_FORMATS[self._formats[0]]
        self._batch_bytes = BATCH_BYTES if batch_bytes is None else batch_bytes
        if not quiet:
            enable_stderr_logging()
        self._proc: ProcessPort | None = None
        self._server: FrameServer | None = None
        self._links: dict[SiteId, PeerLink] = {}
        #: Side-frame handlers by kind (a row name of
        #: :data:`~repro.realnet.codec_bin.SIDE_KINDS`), installed by
        #: whoever serves that plane on this node: ``handler(value,
        #: reply)`` gets the decoded request and answers — now or later,
        #: any number of times — through ``reply(value)``.  A kind
        #: nobody registered is ignored.
        self.side_handlers: dict[str, Callable[[Any, Callable[[Any], None]], None]] = {}

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start the frame server; publish our address.

        Port 0 binds an ephemeral port; the actually-bound address is
        written into the shared address book and returned.
        """
        if self._server is not None:
            raise TransportError(f"site {self.site}: transport already started")
        self._server = FrameServer(
            self.host, self._requested_port, self._on_msg,
            accept_formats=self._formats,
            on_side=self._on_side,
            on_read_end=self._end_input_batch,
        )
        address = await self._server.start()
        self.address_book[self.site] = address
        return address

    async def stop(self) -> None:
        """Close every link and the server; safe to call twice."""
        links, self._links = self._links, {}
        for link in links.values():
            await link.stop()
        server, self._server = self._server, None
        if server is not None:
            await server.stop()

    def register(self, process: ProcessPort) -> None:
        """Attach the (single) local protocol stack.

        A *dead* registered stack may be replaced — the in-process
        recover path of the multi-process node boots a fresh incarnation
        on the same transport (same port, same live connections) after
        the previous stack crashed.  Replacing a live stack stays an
        error.
        """
        if self._proc is not None and self._proc.alive:
            raise TransportError(f"site {self.site}: a process is already registered")
        self._proc = process
        process.attach(self)
        pid = process.pid
        for link in self._links.values():
            link.rebind_src((pid.site, pid.incarnation))

    # -- NetworkPort: transmission -------------------------------------

    def send(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        stats = self.stats
        stats.sent += 1
        if stats.detailed:
            stats.record_type(payload)
        self._transmit(dst.site, dst.incarnation, payload, {})

    def send_to_site(self, src: ProcessId, site: SiteId, payload: Any) -> None:
        stats = self.stats
        stats.sent += 1
        if stats.detailed:
            stats.record_type(payload)
        self._transmit(site, None, payload, {})

    def multicast(self, src: ProcessId, dsts: Iterable[ProcessId], payload: Any) -> None:
        self._fan_out(tuple((d.site, d.incarnation) for d in dsts), payload)

    def multicast_sites(self, src: ProcessId, sites: Iterable[SiteId], payload: Any) -> None:
        self._fan_out(tuple((site, None) for site in sites), payload)

    def _fan_out(
        self, targets: tuple[tuple[SiteId, int | None], ...], payload: Any
    ) -> None:
        """Shared fan-out: one payload-encoding cell across every target."""
        stats = self.stats
        stats.sent += len(targets)
        if stats.detailed:
            for _ in targets:
                stats.record_type(payload)
        cell: dict[str, Any] = {}
        for site, incarnation in targets:
            self._transmit(site, incarnation, payload, cell)

    def _transmit(
        self,
        dst_site: SiteId,
        dst_inc: int | None,
        payload: Any,
        cell: dict[str, Any],
    ) -> None:
        """Route one payload; ``cell`` shares encodings across a fan-out.

        Drop accounting mirrors the simulator: unknown/unreachable site
        -> ``dropped_dead``, firewall -> ``dropped_partition``, injected
        or congestion loss -> ``dropped_loss``.
        """
        stats = self.stats
        if not self.connectivity(self.site, dst_site):
            stats.dropped_partition += 1
            return
        if self.loss_prob > 0 and self._rng.random() < self.loss_prob:
            stats.dropped_loss += 1
            return
        delay = self.latency.sample(self._rng) if self.latency is not None else 0.0
        if dst_site == self.site:
            # Loop back locally — but never synchronously: the stack
            # must not be reentered before its send() returns.
            self.scheduler.fire_after(delay, self._deliver_local, dst_inc, payload)
            return
        if dst_site not in self.address_book:
            stats.dropped_dead += 1
            return
        fmt = self._preferred
        if fmt.name not in cell:
            # Encode eagerly in our preferred format: the work is shared
            # across the fan-out and an unencodable payload raises here,
            # in the sender's context, not in a background link task.
            cell[fmt.name] = fmt.encode_payload(payload)
        msg = OutMessage(dst_inc, payload, cell)
        if delay > 0:
            self.scheduler.fire_after(delay, self._offer, dst_site, msg)
        else:
            self._offer(dst_site, msg)

    def _offer(self, dst_site: SiteId, msg: OutMessage) -> None:
        link = self._links.get(dst_site)
        if link is None:
            pid = self._pid()
            link = PeerLink(
                name=f"{self.site}->{dst_site}",
                src=(pid.site, pid.incarnation),
                dst_site=dst_site,
                resolve=lambda site=dst_site: self.address_book.get(site),
                offer_formats=self._formats,
                batch_bytes=self._batch_bytes,
            )
            self._links[dst_site] = link
            link.start()
        if not link.offer(msg):
            self.stats.dropped_loss += 1

    def _pid(self) -> ProcessId:
        if self._proc is None:
            raise TransportError(f"site {self.site}: no process registered")
        return self._proc.pid

    def _deliver_local(self, dst_inc: int | None, payload: Any) -> None:
        """Scheduler-looped self-delivery (same checks as the wire path)."""
        stats = self.stats
        proc = self._proc
        if proc is None or not proc.alive:
            stats.dropped_dead += 1
            return
        if dst_inc is not None and dst_inc != proc.pid.incarnation:
            stats.dropped_dead += 1
            return
        stats.delivered += 1
        proc.deliver_network(proc.pid, payload)

    # -- receive path --------------------------------------------------

    def _on_msg(self, msg: ParsedMsg) -> None:
        """Validate and deliver one inbound ``msg`` frame.

        An undecodable payload raises :class:`~repro.errors.CodecError`
        to the frame server, which counts it in ``bad_frames`` and keeps
        the link.
        """
        stats = self.stats
        if msg.dst_site != self.site:
            stats.dropped_dead += 1  # misdelivered: stale address book
            return
        # Delivery-time firewall check: a partition installed while the
        # frame was in flight (or queued) destroys it, as in the sim.
        if not self.connectivity(msg.src_site, self.site):
            stats.dropped_partition += 1
            return
        proc = self._proc
        if proc is None or not proc.alive:
            stats.dropped_dead += 1
            return
        if msg.dst_inc is not None and msg.dst_inc != proc.pid.incarnation:
            stats.dropped_dead += 1  # addressed to a previous incarnation
            return
        payload = msg.payload()
        stats.delivered += 1
        # The frames of one read are one input batch: the stack may hold
        # work (cumulative acks) for the batch's end.
        proc.input_batch = True
        proc.deliver_network(process_id(msg.src_site, msg.src_inc), payload)

    def _end_input_batch(self) -> None:
        """The frame server finished a read that carried msg or side
        frames."""
        proc = self._proc
        if proc is not None and proc.input_batch:
            proc.end_input_batch()

    def _on_side(self, kind: str, value: Any, reply: Callable[[Any], None]) -> None:
        """Hand one decoded side frame to the handler of its kind.

        Client requests are input to the stack, so the ``cli`` frames of
        one read are one input batch too: their puts leave as one
        multicast when it ends (group commit).  Control and obs frames
        are served outside any batch.
        """
        handler = self.side_handlers.get(kind)
        if handler is not None:
            if kind == "cli":
                proc = self._proc
                if proc is not None and proc.alive:
                    proc.input_batch = True
            handler(value, reply)

    # -- introspection -------------------------------------------------

    @property
    def address(self) -> tuple[str, int] | None:
        return self.address_book.get(self.site)

    def link_stats(self) -> dict[SiteId, dict[str, Any]]:
        """Per-peer link counters, including batching and codec state."""
        return {
            site: {**link.stats(), "codec": link.wire_format}
            for site, link in sorted(self._links.items())
        }

    def transport_stats(self) -> dict[str, Any]:
        """This node's wire totals: links + server, one flat dict."""
        totals = {
            "frames_sent": 0,
            "frames_dropped": 0,
            "encode_errors": 0,
            "connects": 0,
            "flushes": 0,
            "bytes_sent": 0,
            "max_batch": 0,
            "write_stalls": 0,
            "queued": 0,
            "frames_received": 0,
            "bytes_received": 0,
            "reads": 0,
            "max_frames_per_read": 0,
            "bad_connections": 0,
            "bad_frames": 0,
        }
        codecs: dict[str, int] = {}
        for link in self._links.values():
            for key, value in link.stats().items():
                if key == "max_batch":
                    totals[key] = max(totals[key], value)
                else:
                    totals[key] += value
            if link.wire_format is not None:
                codecs[link.wire_format] = codecs.get(link.wire_format, 0) + 1
        server = self._server
        if server is not None:
            totals["frames_received"] = server.frames_received
            totals["bytes_received"] = server.bytes_received
            totals["reads"] = server.reads
            totals["max_frames_per_read"] = server.max_frames_per_read
            totals["bad_connections"] = server.bad_connections
            totals["bad_frames"] = server.bad_frames
        totals["codecs"] = codecs
        return totals

    def frames_received(self) -> int:
        return self._server.frames_received if self._server is not None else 0
