"""Coordinator-driven view agreement for partitionable groups.

One :class:`ViewAgreement` instance runs inside every
:class:`~repro.vsync.stack.GroupStack`.  The protocol (DESIGN.md §4.1):

1. A process whose failure detector disagrees with its view (or that
   hears a reachable peer report a different view identifier) *initiates*
   a change: it proposes its reachability estimate to the least
   unsuspected identifier, the coordinator candidate.
2. The coordinator runs numbered *rounds*: it broadcasts ``VcPrepare``;
   members stop multicasting, suspend delivery and e-view application,
   and answer ``VcFlush``.  Estimates are merged until a fixed point;
   members that stay silent past a timeout are dropped and the round
   restarts; discovering a smaller live identifier makes the coordinator
   abdicate to it.
3. When every proposed member has flushed, the coordinator *decides*:
   it picks a fresh epoch, computes per-predecessor-view delivery unions
   and the authoritative e-view log, projects the old subview / sv-set
   structure onto the survivors (Property 6.3), and broadcasts
   ``VcInstall``.  Members replay the e-view log tail, deliver the union
   (Agreement, 2.1) *in the old view*, then install.

Concurrent partitions run disjoint instances of this loop and install
concurrent views — the paper's partitionable model, where two successive
views can differ by arbitrarily many members (contrast
:mod:`repro.isis`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.evs.eview import EViewStructure, Subview, SvSet
from repro.gms.messages import (
    Leave,
    PredecessorPlan,
    RoundId,
    VcFlush,
    VcFlushBatch,
    VcInstall,
    VcNack,
    VcPrepare,
    VcPropose,
)
from repro.gms.tree import AggregationTree, round_tree
from repro.gms.view import View
from repro.trace.events import ViewInstallEvent
from repro.types import (
    Message,
    MessageId,
    ProcessId,
    SubviewId,
    SvSetId,
    ViewId,
    least_member,
    min_process,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.vsync.stack import GroupStack

_MAX_EPOCH_KEY = "gms.max_epoch"


@dataclass
class MembershipConfig:
    """Protocol timers (virtual-time units; network latency is ~1)."""

    check_interval: float = 7.0
    flush_stall_timeout: float = 45.0
    round_timeout: float = 25.0
    min_initiate_gap: float = 3.0
    #: Aggregation-tree fanout for hierarchical view agreement
    #: (:mod:`repro.gms.tree`): prepares and installs relay down the
    #: tree, flush reports aggregate up it, so the coordinator touches
    #: O(fanout) peers per round instead of O(n).  0 keeps the flat
    #: coordinator↔member exchange; rounds with no interior relay
    #: (fewer than ``tree_fanout + 2`` members) stay flat regardless.
    #: Assumes a uniform value across the cluster — members rebuild the
    #: coordinator's tree locally from the round's membership.
    tree_fanout: int = 0
    #: Coordinator-side debounce for flush-reply expansion.  At scale,
    #: restarting the round on *every* flush that names a new reachable
    #: member costs a round per discovery wave; with a debounce the
    #: extras batch up for this long and the round restarts once.  0
    #: restarts immediately (the original behavior).  Under sparse
    #: gossip the bootstrap hold (:meth:`ViewAgreement._held`) already
    #: starts the first round from a settled set, so few flushes name
    #: anyone new: at n=128 under the scale profile, 0 instead of 6
    #: costs 1,268 instead of 1,088 bootstrap prepares (6,706 against
    #: 5,943 without the hold) and leaves the heal unchanged.
    expand_debounce: float = 0.0


@dataclass
class _Round:
    """Coordinator-side state of one prepare/flush round."""

    round_id: RoundId
    members: frozenset[ProcessId]
    replies: dict[ProcessId, VcFlush] = field(default_factory=dict)
    attempts: int = 0
    timer: object = None
    #: Tracing: the view change's root context (carried across round
    #: restarts), the round's agree-span context, and the round start.
    trace: object = None
    agree: object = None
    t0: float = 0.0


@dataclass
class _FlushAgg:
    """Member-side aggregation state for one tree round: the flushes of
    this member's subtree, batched before going up to ``parent``."""

    round_id: RoundId
    parent: ProcessId
    expected: int
    collected: dict[ProcessId, VcFlush] = field(default_factory=dict)
    timer: object = None
    sent: bool = False


class ViewAgreement:
    """The membership state machine of one process."""

    def __init__(self, stack: "GroupStack", config: MembershipConfig | None = None) -> None:
        self.stack = stack
        self.config = config or MembershipConfig()
        self.view: View | None = None
        self.flushing = False
        self._flushed_round: RoundId | None = None
        self._flush_since = 0.0
        self._round: _Round | None = None
        self._round_counter = 0
        self._last_initiate = -1e9
        self.max_epoch = int(stack.storage.read(_MAX_EPOCH_KEY, 0))
        self.views_installed = 0
        self.last_install_time = 0.0
        # Members dropped from a timed-out round are quarantined briefly
        # so flush-reply expansion does not immediately re-admit a
        # reachable-but-unresponsive process and livelock the round.
        self._quarantine: dict[ProcessId, float] = {}
        # Hierarchical agreement state: this member's subtree aggregator
        # (at most one flush round is in progress per member) and the
        # coordinator's debounced expansion set.
        self._flush_agg: _FlushAgg | None = None
        self._pending_extra: set[ProcessId] = set()
        self._expand_timer: object = None
        # Bootstrap hold (:meth:`_held`), fixed at the reachable set's
        # first change: the hold, the end of the detector's learning
        # window (the cap), the set's last change, and the wake-up armed
        # while the hold lasts.
        self._hold = 0.0
        self._learning_until: float | None = None
        self._fd_last_change = 0.0
        self._hold_timer: object = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bootstrap: install a singleton view, then watch for peers.

        Joining is uniform with partition healing: a fresh process is a
        one-member group whose view merges with others as soon as the
        failure detectors on both sides hear each other.
        """
        epoch = self.max_epoch + 1
        view = View(ViewId(epoch, self.stack.pid), frozenset({self.stack.pid}))
        structure = EViewStructure.singletons(epoch, view.members)
        self._install(view, structure, predecessors={})
        self.stack.set_periodic(self.config.check_interval, self._check)

    # -- trigger logic --------------------------------------------------------

    def _check(self) -> None:
        if self.view is None:
            return
        if self.flushing:
            if self.stack.now - self._flush_since > self.config.flush_stall_timeout:
                self._initiate()
            return
        reachable = self._unquarantined(self.stack.fd.reachable())
        # The disagreement probe walks every reachable peer; it is a
        # pure query, so ask only when the cheap test did not decide.
        if (
            reachable != self.view.members
            or self.stack.fd.view_disagreement(since=self.last_install_time)
        ) and not self._held():
            self._initiate()

    def on_fd_change(self) -> None:
        """Failure-detector output changed; maybe start a view change."""
        now = self.stack.now
        self._fd_last_change = now
        if self._learning_until is None:
            fd = self.stack.fd
            self._hold = fd.settle_hold
            self._learning_until = now + fd.timeout if self._hold > 0 else now
        if not self._held():  # else the hold's wake-up runs the check
            self._check()

    def _held(self) -> bool:
        """Whether this process must hold its proposals a while longer.

        A detector that learns peers epidemically (``fd.settle_hold >
        0``: sparse gossip) fills in a fresh process's reachable set hop
        by hop, for up to ``fd.timeout`` after the set's first change
        (its learning window).  Inside that window:

        * a process initiates only once its set has been unchanged for
          ``settle_hold``: a proposal made earlier names a partial
          "least" candidate that a smaller one soon supersedes, a nacked
          round per neighbourhood;
        * a set that only *lacks* members of the installed view waits
          for the window's end: no stamp taken inside the window can
          expire before it closes, so such a member has not been heard
          of yet rather than failed, and proposing would only install
          the same membership again.

        The window's end is the cap: a set still changing by then is
        flapping, not learning, and waits no longer.  Prepares and
        proposes from other sites are answered at once; only initiating
        waits (docs/protocol.md §3).
        """
        until = self._learning_until
        if until is None:
            return False
        now = self.stack.now
        # Timers fire at their due time up to rounding: read it as due.
        if now >= until - 1e-9:
            return False
        release = self._fd_last_change + self._hold
        if now >= release - 1e-9:
            if not self.stack.fd.reachable() < self.view.members:
                return False
            release = until
        if self._hold_timer is None:
            self._hold_timer = self.stack.set_timer(
                min(release, until) - now, self._hold_expired
            )
        return True

    def _hold_expired(self) -> None:
        self._hold_timer = None
        self._check()

    def _initiate(self) -> None:
        now = self.stack.now
        if now - self._last_initiate < self.config.min_initiate_gap:
            return
        self._last_initiate = now
        target = self._unquarantined(self.stack.fd.reachable() | {self.stack.pid})
        obs = self.stack.obs
        root = obs.view_trigger(self.stack.pid, now) if obs is not None else None
        candidate = min_process(target)
        if candidate == self.stack.pid:
            self._start_round(target, trace=root)
        else:
            self.stack.send(
                candidate, VcPropose(self.stack.pid, target, trace=root)
            )

    # -- coordinator side ---------------------------------------------------------

    def on_propose(self, src: ProcessId, msg: VcPropose) -> None:
        target = self._unquarantined(
            msg.target | self.stack.fd.reachable() | {self.stack.pid}
        )
        candidate = min_process(target)
        if candidate != self.stack.pid:
            # We are not the right coordinator; forward.
            self.stack.send(
                candidate, VcPropose(self.stack.pid, target, trace=msg.trace)
            )
            return
        if self._round is not None:
            extra = target - self._round.members
            if extra:
                self._start_round(self._round.members | extra)
            return
        self._start_round(target, trace=msg.trace)

    def _start_round(
        self, members: frozenset[ProcessId], trace: object = None
    ) -> None:
        members = members | {self.stack.pid}
        candidate = min_process(members)
        if candidate != self.stack.pid:
            # A smaller identifier belongs in the coordinator seat.
            self._cancel_round()
            self.stack.send(
                candidate, VcPropose(self.stack.pid, members, trace=trace)
            )
            return
        if self._round is not None and self._round.members == members:
            # The same round is already running; restarting it here would
            # reset its timeout forever and silent members could never be
            # dropped.  Let the round's own timer drive retries/shrinks.
            return
        if trace is None and self._round is not None:
            trace = self._round.trace  # restarts stay in the same tree
        self._cancel_round()
        self._round_counter += 1
        round_id: RoundId = (self.stack.pid, self._round_counter)
        obs = self.stack.obs
        agree = None
        if obs is not None:
            if trace is None:
                trace = obs.view_trigger(self.stack.pid, self.stack.now)
            agree = obs.view_agree_ctx(trace)
        rnd = _Round(
            round_id, members, trace=trace, agree=agree, t0=self.stack.now
        )
        rnd.timer = self.stack.set_timer(self.config.round_timeout, self._round_timeout)
        self._round = rnd
        prepare = VcPrepare(round_id, members, trace=agree)
        own = self.stack.pid
        if self._round_tree(own, members) is None:
            self.stack.send_many((m for m in members if m != own), prepare)
        # Tree mode sends nothing here: the self-delivery below relays
        # the prepare to the coordinator's tree children, exactly as
        # every interior member relays it onward to its own.
        self.on_prepare(self.stack.pid, prepare)

    def _round_tree(
        self, coordinator: ProcessId, members: frozenset[ProcessId]
    ) -> AggregationTree | None:
        """The aggregation tree of one round, or None when flat.

        A pure function of the round's coordinator and membership, so
        every member reconstructs the coordinator's tree locally from
        the prepare (or install) it received — and all of them may share
        the one :func:`~repro.gms.tree.round_tree` keeps for that key.
        """
        fanout = self.config.tree_fanout
        if fanout <= 0 or len(members) <= fanout + 1:
            return None
        return round_tree(members, coordinator, fanout)

    def _cancel_round(self) -> None:
        if self._round is not None and self._round.timer is not None:
            self._round.timer.cancel()  # type: ignore[attr-defined]
        self._round = None
        self._pending_extra.clear()
        if self._expand_timer is not None:
            self._expand_timer.cancel()  # type: ignore[attr-defined]
            self._expand_timer = None

    def _round_timeout(self) -> None:
        rnd = self._round
        if rnd is None:
            return
        missing = rnd.members - set(rnd.replies)
        if not missing:
            return
        rnd.attempts += 1
        if rnd.attempts == 1:
            # Maybe the prepare or the reply was lost — or, in tree
            # mode, a relay on the path died.  Ask again directly,
            # bypassing the tree in both directions.
            prepare = VcPrepare(
                rnd.round_id, rnd.members, direct=True, trace=rnd.agree
            )
            self.stack.send_many(missing, prepare)
            rnd.timer = self.stack.set_timer(
                self.config.round_timeout, self._round_timeout
            )
            return
        # Give up on the silent members and re-run without them.  Only
        # the *reachable* silent ones are quarantined — they can hear us
        # yet did not flush, which is exactly the livelock the
        # quarantine guards against.  An unreachable member is already
        # excluded by the failure detector; quarantining it too would
        # outlast the partition that silenced it and stall the heal-time
        # merge until the quarantine expires.
        until = self.stack.now + 4 * self.config.round_timeout
        reachable_now = self.stack.fd.reachable()
        for silent in missing:
            if silent in reachable_now:
                self._quarantine[silent] = until
        survivors = frozenset(rnd.replies) | {self.stack.pid}
        self._start_round(survivors)

    def _unquarantined(self, pids: frozenset[ProcessId]) -> frozenset[ProcessId]:
        """``pids`` less the quarantined peers (this process never is)."""
        if not self._quarantine:
            return pids
        return pids - (self._quarantined() - {self.stack.pid})

    def _quarantined(self) -> frozenset[ProcessId]:
        now = self.stack.now
        self._quarantine = {
            pid: until for pid, until in self._quarantine.items() if until > now
        }
        return frozenset(self._quarantine)

    def on_nack(self, src: ProcessId, msg: VcNack) -> None:
        rnd = self._round
        if rnd is None or msg.round_id != rnd.round_id:
            return
        if msg.better < self.stack.pid:
            members = rnd.members
            self._cancel_round()
            self.stack.send(msg.better, VcPropose(self.stack.pid, members))

    def on_flush(self, src: ProcessId, msg: VcFlush) -> None:
        rnd = self._round
        if rnd is None or msg.round_id != rnd.round_id:
            return
        rnd.replies[msg.sender] = msg
        extra = (
            (msg.reachable - rnd.members)
            & self.stack.fd.reachable()
        ) - self._quarantined()
        if extra:
            if self.config.expand_debounce > 0:
                self._pending_extra |= extra
                if self._expand_timer is None:
                    self._expand_timer = self.stack.set_timer(
                        self.config.expand_debounce, self._expand_round
                    )
            else:
                self._start_round(rnd.members | extra)
                return
        if set(rnd.replies) == set(rnd.members) and not self._pending_extra:
            self._decide(rnd)

    def _expand_round(self) -> None:
        """Debounced expansion: fold every extra member the round's
        flush replies named into one restart."""
        self._expand_timer = None
        extra = frozenset(self._pending_extra)
        self._pending_extra.clear()
        rnd = self._round
        if rnd is None:
            return
        extra = (
            (extra - rnd.members) & self.stack.fd.reachable()
        ) - self._quarantined()
        if extra:
            self._start_round(rnd.members | extra)
        elif set(rnd.replies) == set(rnd.members):
            # The extras went unreachable while we debounced; the round
            # may already be complete without them.
            self._decide(rnd)

    def on_flush_batch(self, src: ProcessId, batch: VcFlushBatch) -> None:
        """A subtree's aggregated flush reports arrived (tree mode)."""
        if batch.round_id[0] == self.stack.pid:
            for flush in batch.flushes:
                self.on_flush(flush.sender, flush)
            return
        agg = self._flush_agg
        if agg is not None and agg.round_id == batch.round_id:
            self._agg_absorb(agg, batch.flushes)
            return
        # No aggregation state for this round — we moved on, or never
        # saw its prepare.  Forward straight to the coordinator so the
        # subtree's reports are not orphaned.
        self.stack.send(batch.round_id[0], batch)

    def _decide(self, rnd: _Round) -> None:
        """All members flushed: compute and broadcast the install."""
        replies = rnd.replies
        new_epoch = 1 + max(
            [self.max_epoch]
            + [f.max_epoch for f in replies.values()]
            + [f.view_id.epoch for f in replies.values()]
        )
        view = View(ViewId(new_epoch, self.stack.pid), rnd.members)

        # Group survivors by predecessor view.
        groups: dict[ViewId, list[VcFlush]] = {}
        for flush in replies.values():
            groups.setdefault(flush.view_id, []).append(flush)

        predecessors: dict[ViewId, PredecessorPlan] = {}
        subviews: list[Subview] = []
        svsets: list[SvSet] = []
        for prev_vid, flushes in groups.items():
            authority = max(
                flushes, key=lambda f: (f.eview_seq, f.sender)
            )
            union: dict[MessageId, Message] = {}
            for flush in flushes:
                for m in flush.received:
                    union[m.msg_id] = m
            # Messages tagged past the authority's e-view position can
            # only come from non-survivors (a surviving sender would have
            # reported the higher position and become the authority);
            # dropping them keeps the e-view gate consistent at install.
            messages = tuple(
                union[mid]
                for mid in sorted(union)
                if union[mid].eview_seq <= authority.eview_seq
            )
            predecessors[prev_vid] = PredecessorPlan(
                messages=messages,
                evlog=authority.evlog,
                eview_seq=authority.eview_seq,
            )
            survivors = frozenset(f.sender for f in flushes)
            self._project_structure(
                authority.structure, survivors, new_epoch, subviews, svsets
            )

        structure = EViewStructure(tuple(subviews), tuple(svsets))
        install = VcInstall(
            rnd.round_id, view, structure, predecessors, trace=rnd.agree
        )
        obs = self.stack.obs
        if obs is not None:
            obs.view_agreed(
                self.stack.pid,
                rnd.agree,
                rnd.t0,
                self.stack.now,
                attrs=(
                    ("view", str(view.view_id)),
                    ("members", str(len(view.members))),
                ),
            )
        self._cancel_round()
        own = self.stack.pid
        tree = self._round_tree(own, view.members)
        if tree is None:
            self.stack.send_many((m for m in view.members if m != own), install)
        else:
            # Tree mode: hand the install to the tree children only;
            # each receiver relays it onward before its own processing.
            self.stack.send_many(tree.children(own), install)
        self.on_install(self.stack.pid, install)

    @staticmethod
    def _project_structure(
        structure: EViewStructure,
        survivors: frozenset[ProcessId],
        new_epoch: int,
        subviews: list[Subview],
        svsets: list[SvSet],
    ) -> None:
        """Project one predecessor group's structure onto its survivors.

        Subviews and sv-sets keep their *composition* (restricted to
        survivors; empty ones disappear) but get fresh identifiers keyed
        by their least member — identifiers from the old view cannot be
        reused because two concurrent predecessor views descending from
        a common ancestor may both carry the same ones.  The least
        member is unique within the new view since subviews (sv-sets)
        are disjoint, so the derived identifiers never clash.  Appends
        into the accumulator lists shared by all predecessor groups of
        the new view.
        """
        renamed: dict = {}
        for sv in structure.subviews:
            remaining = sv.members & survivors
            if remaining:
                new_sid = SubviewId(new_epoch, min_process(remaining), 0)
                renamed[sv.sid] = new_sid
                subviews.append(Subview(new_sid, remaining))
        for ss in structure.svsets:
            remaining_ids = frozenset(
                renamed[sid] for sid in ss.subviews if sid in renamed
            )
            if remaining_ids:
                anchor = min(
                    member
                    for sv in subviews
                    if sv.sid in remaining_ids
                    for member in sv.members
                )
                svsets.append(
                    SvSet(SvSetId(new_epoch, anchor, 0), remaining_ids)
                )

    # -- member side --------------------------------------------------------------

    def on_prepare(self, src: ProcessId, msg: VcPrepare) -> None:
        coordinator = msg.round_id[0]
        tree = None if msg.direct else self._round_tree(coordinator, msg.members)
        if tree is not None and self.stack.pid in tree:
            # Relay down the tree before any local decision: even a
            # member that nacks or abdicates must not orphan its
            # subtree — the round's liveness would then hang on the
            # coordinator's timeout instead of one extra hop.
            children = tree.children(self.stack.pid)
            if children:
                self.stack.send_many(children, msg)
        least = (least_member(msg.members), least_member(self.stack.fd.reachable()))
        candidate = min(*least, self.stack.pid)
        if candidate == self.stack.pid and coordinator != self.stack.pid:
            # We should coordinate instead; tell them and do it.
            self.stack.send(coordinator, VcNack(msg.round_id, self.stack.pid))
            self._start_round(
                self._unquarantined(msg.members | self.stack.fd.reachable()),
                trace=msg.trace,
            )
            return
        if candidate < coordinator:
            self.stack.send(coordinator, VcNack(msg.round_id, candidate))
            self.stack.send(
                candidate,
                VcPropose(
                    self.stack.pid, msg.members | {candidate}, trace=msg.trace
                ),
            )
            return
        self._flush_to(msg.round_id, coordinator, tree=tree, trace=msg.trace)

    def _flush_to(
        self,
        round_id: RoundId,
        coordinator: ProcessId,
        tree: AggregationTree | None = None,
        trace: object = None,
    ) -> None:
        if self.view is None:
            return
        if not self.flushing:
            self.flushing = True
            self._flush_since = self.stack.now
            obs = self.stack.obs
            if obs is not None:
                obs.view_change_started(self.stack.pid, self.stack.now, trace=trace)
            self.stack.channels.suspend()
            self.stack.evs.suspend()
        self._flushed_round = round_id
        eview_seq, structure, evlog = self.stack.evs.flush_snapshot()
        flush = VcFlush(
            round_id=round_id,
            sender=self.stack.pid,
            view_id=self.view.view_id,
            max_epoch=self.max_epoch,
            received=self.stack.channels.flush_report(),
            eview_seq=eview_seq,
            structure=structure,
            evlog=evlog,
            reachable=self.stack.fd.reachable(),
        )
        if coordinator == self.stack.pid:
            self.on_flush(self.stack.pid, flush)
        elif tree is not None and self.stack.pid in tree:
            self._agg_begin(round_id, tree, flush)
        else:
            self.stack.send(coordinator, flush)

    # -- tree aggregation (member side) -------------------------------------

    def _agg_begin(
        self, round_id: RoundId, tree: AggregationTree, own_flush: VcFlush
    ) -> None:
        """Open this member's subtree aggregator for one round.

        Leaves have a subtree of one, so their own flush goes up
        immediately; interior members hold for their children up to a
        quarter round-timeout, then send whatever arrived — the
        coordinator's own retry path covers true stragglers.
        """
        prev = self._flush_agg
        if prev is not None and prev.timer is not None:
            prev.timer.cancel()  # type: ignore[attr-defined]
        parent = tree.parent(self.stack.pid)
        assert parent is not None  # the coordinator never aggregates
        agg = _FlushAgg(
            round_id=round_id,
            parent=parent,
            expected=tree.subtree_size(self.stack.pid),
        )
        self._flush_agg = agg
        if agg.expected > 1:
            agg.timer = self.stack.set_timer(
                self.config.round_timeout / 4,
                lambda: self._agg_hold_expired(agg),
            )
        self._agg_absorb(agg, (own_flush,))

    def _agg_absorb(
        self, agg: _FlushAgg, flushes: tuple[VcFlush, ...]
    ) -> None:
        if agg.sent:
            # Stragglers after the hold expired: forward up unbatched so
            # they still reach the coordinator within this round.
            self.stack.send(agg.parent, VcFlushBatch(agg.round_id, tuple(flushes)))
            return
        for flush in flushes:
            agg.collected[flush.sender] = flush
        if len(agg.collected) >= agg.expected:
            self._agg_send(agg)

    def _agg_send(self, agg: _FlushAgg) -> None:
        agg.sent = True
        if agg.timer is not None:
            agg.timer.cancel()  # type: ignore[attr-defined]
            agg.timer = None
        batch = VcFlushBatch(
            agg.round_id,
            tuple(agg.collected[pid] for pid in sorted(agg.collected)),
        )
        self.stack.send(agg.parent, batch)

    def _agg_hold_expired(self, agg: _FlushAgg) -> None:
        if agg is not self._flush_agg or agg.sent:
            return
        self._agg_send(agg)

    def on_install(self, src: ProcessId, msg: VcInstall) -> None:
        if src != self.stack.pid:
            # Tree mode: relay to our tree children *before* the guards
            # below — even a member that moved past this round must not
            # orphan its subtree's installs.  (The coordinator's
            # self-delivery skips this; _decide already sent to its
            # children.)
            tree = self._round_tree(msg.round_id[0], msg.view.members)
            if tree is not None and self.stack.pid in tree:
                children = tree.children(self.stack.pid)
                if children:
                    self.stack.send_many(children, msg)
        if msg.round_id != self._flushed_round:
            return  # we have moved on to a newer round
        if self.view is not None and msg.view.view_id <= self.view.view_id:
            return  # never regress
        self._install(msg.view, msg.structure, msg.predecessors, trace=msg.trace)

    def _install(
        self,
        view: View,
        structure: EViewStructure,
        predecessors,
        trace: object = None,
    ) -> None:
        prev_view_id = self.view.view_id if self.view is not None else None
        if prev_view_id is not None and prev_view_id in predecessors:
            plan = predecessors[prev_view_id]
            # First catch up on the e-view changes the authority applied,
            # then deliver the union — both still in the old view.
            self.stack.evs.replay(plan.evlog, plan.eview_seq)
            self.stack.channels.deliver_plan(plan.messages)

        self.view = view
        self.last_install_time = self.stack.now
        self.max_epoch = max(self.max_epoch, view.epoch)
        self.stack.storage.write(_MAX_EPOCH_KEY, self.max_epoch)
        self.flushing = False
        self._flushed_round = None
        self.views_installed += 1

        self.stack.channels.install(view)
        self.stack.evs.install(view, structure)
        self.stack.recorder.record(
            ViewInstallEvent(
                time=self.stack.now,
                pid=self.stack.pid,
                view_id=view.view_id,
                members=view.members,
                prev_view_id=prev_view_id,
            )
        )
        obs = self.stack.obs
        if obs is not None:
            obs.view_installed(
                self.stack.pid, self.stack.now, trace=trace, view=view.view_id
            )
        self.stack.app.on_view(self.stack.evs.eview)
        self.stack.channels.activate()
        self.stack.channels.try_deliver()

    # -- leaves ----------------------------------------------------------------------

    def announce_leave(self) -> None:
        if self.view is None:
            return
        own = self.stack.pid
        self.stack.send_many(
            (m for m in self.view.members if m != own), Leave(self.stack.pid)
        )

    def on_leave(self, src: ProcessId, msg: Leave) -> None:
        self.stack.fd.force_down(msg.sender.site)
        self._check()

    def on_abort(self, src: ProcessId, msg) -> None:
        """Round-abort notification; the base protocol has no pledged
        state to release (subclasses override)."""

    # -- queries ----------------------------------------------------------------------

    def current_view_id(self) -> ViewId | None:
        return self.view.view_id if self.view is not None else None
