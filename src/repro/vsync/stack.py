"""The group communication stack: one process's complete protocol state.

``GroupStack`` composes the four protocol components — heartbeat failure
detector (:mod:`repro.fd`), view agreement (:mod:`repro.gms`), per-view
channels (:mod:`repro.vsync.channel`) and the enriched-view manager
(:mod:`repro.evs`) — and exposes the paper's programming interface to an
application object:

* ``multicast(payload)`` — view-synchronous multicast (``mcast``);
* ``subview_merge(...)`` / ``sv_set_merge(...)`` — the two calls that
  augment the usual view-synchrony interface (Section 6.1);
* ``send_direct(dst, payload)`` — plain point-to-point messages for
  protocols, like bulk state transfer, that do not need view synchrony;
* ``leave()`` — terminate participation.

Events flow back through a :class:`~repro.vsync.events.GroupApplication`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.evs.eview import EView
from repro.evs.manager import EViewManager
from repro.evs.messages import EvChange, EvRepairReq, EvReq
from repro.fd.gossip import GossipDetector, GossipDigest
from repro.fd.heartbeat import Heartbeat, HeartbeatDetector
from repro.gms.membership import MembershipConfig, ViewAgreement
from repro.gms.messages import (
    Leave,
    VcAbort,
    VcFlush,
    VcFlushBatch,
    VcInstall,
    VcNack,
    VcPrepare,
    VcPropose,
)
from repro.gms.view import View
from repro.ports import SchedulerPort
from repro.sim.process import Process
from repro.sim.stable_storage import SiteStorage
from repro.trace.recorder import TraceRecorder
from repro.types import Message, MessageId, ProcessId, SiteId, SubviewId, SvSetId, ViewId
from repro.vsync.channel import RetransmitRequest, ViewChannels
from repro.vsync.events import GroupApplication
from repro.vsync.stability import StabilityNotice, StabilityReport, StabilityTracker


@dataclass(frozen=True)
class DirectPayload:
    """Wrapper marking a point-to-point application payload."""

    payload: Any


@dataclass(frozen=True)
class SubviewScoped:
    """A multicast payload addressed to the sender's subview only.

    Carries the subview's membership snapshot at multicast time: the
    message is still a regular view-synchronous multicast (so all the
    delivery guarantees apply at the VS level), but the stack hands it
    to the application only at the snapshot members — the Section 6.2
    discipline of performing external operations *within* a subview.
    """

    members: frozenset[ProcessId]
    payload: Any


@dataclass
class StackConfig:
    """Tunable timers for the whole stack.

    ``membership_factory`` lets a baseline substitute its own view
    agreement (the Isis-style protocol in :mod:`repro.isis` plugs in
    here); it receives the stack and must return a
    :class:`~repro.gms.membership.ViewAgreement` (or subclass).
    """

    fd_interval: float = 5.0
    fd_timeout: float = 16.0
    #: Failure-detection plane: ``"heartbeat"`` (all-to-all beacon, the
    #: paper's model, O(n²) messages/interval) or ``"gossip"`` (epidemic
    #: digest push, O(n·fanout); see :mod:`repro.fd.gossip`).  With
    #: gossip, ``fd_timeout`` must cover a whole epidemic round trip,
    #: not one hop (docs/scaling.md).
    fd_mode: str = "heartbeat"
    gossip_fanout: int = 3
    membership: MembershipConfig = field(default_factory=MembershipConfig)
    membership_factory: Callable[["GroupStack"], ViewAgreement] | None = None
    # Ablation switches (benchmarks/bench_ablations.py): disabling these
    # guards makes specific paper properties fail, demonstrating which
    # mechanism carries which guarantee.  Never disable them in real use.
    unsafe_disable_eview_gate: bool = False
    unsafe_disable_eview_suspension: bool = False
    # Message stability / garbage collection period (0 disables it).
    stability_interval: float = 25.0


class GroupStack(Process):
    """A full view-synchronous group member."""

    def __init__(
        self,
        pid: ProcessId,
        scheduler: SchedulerPort,
        storage: SiteStorage,
        app: GroupApplication,
        recorder: TraceRecorder,
        universe: Callable[[], Iterable[SiteId]],
        config: StackConfig | None = None,
        obs: Any = None,
    ) -> None:
        super().__init__(pid, scheduler, storage)
        self.app = app
        self.recorder = recorder
        # Optional ClusterObs hub (repro.obs.instrument); hot paths guard
        # every call with ``if obs is not None`` so metrics-off runs
        # (e.g. the bench harnesses) pay nothing.
        self.obs = obs
        self._universe = universe
        self.config = config or StackConfig()
        if self.config.fd_mode == "gossip":
            self.fd: HeartbeatDetector | GossipDetector = GossipDetector(
                self,
                interval=self.config.fd_interval,
                timeout=self.config.fd_timeout,
                fanout=self.config.gossip_fanout,
            )
        else:
            self.fd = HeartbeatDetector(
                self, interval=self.config.fd_interval, timeout=self.config.fd_timeout
            )
        # Optional interceptor for point-to-point traffic (the Isis
        # blocking-transfer tool installs itself here, possibly from the
        # membership factory below — so this must be initialised first).
        self.app_transfer_hook: Any = None
        if self.config.membership_factory is not None:
            self.membership = self.config.membership_factory(self)
        else:
            self.membership = ViewAgreement(self, self.config.membership)
        self.channels = ViewChannels(self)
        self.evs = EViewManager(self)
        self.stability = StabilityTracker(self, self.config.stability_interval)
        app.bind(self)

    # -- wiring --------------------------------------------------------------

    def on_start(self) -> None:
        self.membership.start()
        self.fd.on_change = self.membership.on_fd_change
        self.fd.on_beat = self.app.on_beat
        self.fd.start()
        self.stability.start()

    def universe_sites(self) -> list[SiteId]:
        return sorted(self._universe())

    def universe_size(self) -> int:
        """Site-universe cardinality without the sorted materialisation
        (the gossip plane consults this on every digest)."""
        universe = self._universe()
        try:
            return len(universe)  # type: ignore[arg-type]
        except TypeError:
            return sum(1 for _ in universe)

    def send_site(self, site: SiteId, payload: Any) -> None:
        if self.network is not None and self.alive:
            self.network.send_to_site(self.pid, site, payload)

    def send_sites(self, sites: Iterable[SiteId], payload: Any) -> None:
        """Site-addressed multicast (heartbeats, join probes)."""
        if self.network is not None and self.alive:
            self.network.multicast_sites(self.pid, sites, payload)

    # -- dispatch ---------------------------------------------------------------

    def on_network(self, src: ProcessId, payload: Any) -> None:
        self.fd.heard(src)  # every message is evidence of life
        # Dispatch order follows traffic volume: application multicasts
        # dominate every steady-state workload, then heartbeats.
        if isinstance(payload, Message):
            self.channels.on_app_message(payload)
        elif isinstance(payload, Heartbeat):
            self.fd.on_heartbeat(src, payload)
            # In-view loss repair: a beacon naming our current view
            # advertises the sender's traffic position; chase gaps.
            if (
                payload.view_id is not None
                and payload.view_id == self.current_view_id()
                and not self.is_flushing
            ):
                self.channels.note_sender_high(src, payload.last_seqno)
                self.evs.note_peer_seq(src, payload.eview_seq)
        elif isinstance(payload, GossipDigest):
            self.fd.on_digest(src, payload)
            # Same in-view loss-repair piggyback as the heartbeat path:
            # the digest names the sender's traffic position.
            if (
                payload.view_id is not None
                and payload.view_id == self.current_view_id()
                and not self.is_flushing
            ):
                self.channels.note_sender_high(src, payload.last_seqno)
                self.evs.note_peer_seq(src, payload.eview_seq)
        elif isinstance(payload, VcPropose):
            self.membership.on_propose(src, payload)
        elif isinstance(payload, VcPrepare):
            self.membership.on_prepare(src, payload)
        elif isinstance(payload, VcFlush):
            self.membership.on_flush(src, payload)
        elif isinstance(payload, VcFlushBatch):
            self.membership.on_flush_batch(src, payload)
        elif isinstance(payload, VcNack):
            self.membership.on_nack(src, payload)
        elif isinstance(payload, VcInstall):
            self.membership.on_install(src, payload)
        elif isinstance(payload, Leave):
            self.membership.on_leave(src, payload)
        elif isinstance(payload, VcAbort):
            self.membership.on_abort(src, payload)
        elif isinstance(payload, StabilityReport):
            self.stability.on_report(src, payload)
        elif isinstance(payload, StabilityNotice):
            self.stability.on_notice(src, payload)
        elif isinstance(payload, RetransmitRequest):
            self.channels.on_retransmit_request(src, payload)
        elif isinstance(payload, EvRepairReq):
            self.evs.on_repair_request(src, payload)
        elif isinstance(payload, EvReq):
            self.evs.on_request(src, payload)
        elif isinstance(payload, EvChange):
            self.evs.on_change(src, payload)
        elif isinstance(payload, DirectPayload):
            hook = self.app_transfer_hook
            if hook is None or not hook.on_direct(src, payload.payload):
                self.app.on_direct(src, payload.payload)
        else:
            self.app.on_direct(src, payload)

    # -- the paper's interface -----------------------------------------------------

    def multicast(self, payload: Any, trace: Any = None) -> MessageId | None:
        """View-synchronous multicast to the current view.

        ``trace`` optionally names the causal parent of the send
        (tracing only; ignored when the cluster has no tracer).  During
        a view change the send is dropped and this returns None
        (:meth:`ViewChannels.multicast`).
        """
        return self.channels.multicast(payload, trace)

    def multicast_subview(self, payload: Any) -> MessageId | None:
        """Multicast delivered (to the application) only within the
        sender's current subview — the Section 6.2 methodology's
        "external operations are performed within a subview"."""
        if self.eview is None:
            return None
        subview = self.eview.subview_of(self.pid)
        return self.multicast(SubviewScoped(subview.members, payload))

    def deliver_app_message(self, sender: ProcessId, payload: Any, msg_id: MessageId) -> None:
        """Final delivery hop: unwraps subview scoping."""
        if isinstance(payload, SubviewScoped):
            if self.pid in payload.members:
                self.app.on_message(sender, payload.payload, msg_id)
            return
        self.app.on_message(sender, payload, msg_id)

    def subview_merge(self, sids: Iterable[SubviewId]) -> None:
        """``SubviewMerge(sv-list)`` of Section 6.1."""
        self.evs.subview_merge(sids)

    def sv_set_merge(self, ssids: Iterable[SvSetId]) -> None:
        """``SV-SetMerge(sv-set-list)`` of Section 6.1."""
        self.evs.sv_set_merge(ssids)

    def send_direct(self, dst: ProcessId, payload: Any) -> None:
        self.send(dst, DirectPayload(payload))

    def leave(self) -> None:
        """Gracefully terminate participation in the group."""
        self.membership.announce_leave()
        self.crash()

    # -- queries ------------------------------------------------------------------

    @property
    def view(self) -> View | None:
        return self.membership.view

    @property
    def eview(self) -> EView | None:
        return self.evs.eview

    @property
    def is_flushing(self) -> bool:
        return self.membership.flushing

    def stable_prefix(self, sender: ProcessId) -> int:
        """The highest seqno of ``sender``'s multicasts in the current
        view that every member has delivered, as the last
        :class:`~repro.vsync.stability.StabilityNotice` said (0 before
        the view's first notice)."""
        return self.channels._stable.get(sender, 0)

    def current_view_id(self) -> ViewId | None:
        return self.membership.current_view_id()

    def on_eview_progress(self) -> None:
        """An e-view change was applied; retry gated deliveries."""
        self.channels.try_deliver()

    def on_crash(self) -> None:
        self.app.on_stop()
