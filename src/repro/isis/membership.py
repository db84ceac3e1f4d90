"""Primary-partition, one-at-a-time membership (the Isis model).

Implemented as a :class:`~repro.gms.membership.ViewAgreement` subclass
that restricts *which* views may be decided:

* only a *primary* process coordinates installs, and a decision is legal
  only if the new membership contains a strict majority of the
  coordinator's current view (linear membership: every primary view has
  a majority of its predecessor, so primary views are totally ordered
  and concurrent primaries are impossible);
* an expansion admits exactly one new member per view change; the
  remaining candidates are absorbed by subsequent changes, which the
  failure detector keeps triggering until the estimate and the view
  agree;
* installed structures are *degenerate* e-views (one sv-set, one
  subview): Isis has flat views, so the enriched-view machinery above
  this layer sees exactly what an Isis application would.

Bootstrap: the process at ``IsisConfig.bootstrap_site`` forms the
initial primary; everyone else starts blocked and is absorbed by joins.
A recovered process is never primary on its own — if the primary
majority is ever lost, the group halts, which is precisely the total
failure scenario whose repair the paper calls the state creation
problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.evs.eview import EViewStructure
from repro.gms.membership import MembershipConfig, ViewAgreement, _Round
from repro.gms.messages import VcAbort, VcPropose
from repro.gms.view import View
from repro.types import ProcessId, min_process

if TYPE_CHECKING:  # pragma: no cover
    from repro.isis.transfer_tool import BlockingTransferTool
    from repro.vsync.stack import GroupStack


@dataclass
class IsisConfig:
    """Baseline-specific knobs on top of the common membership timers.

    ``sticky_endorsement=False`` is an ablation switch: without the
    one-coordinator-per-view endorsement, racing coordinators can
    install concurrent primaries (see benchmarks/bench_ablations.py).
    """

    bootstrap_site: int = 0
    membership: MembershipConfig | None = None
    sticky_endorsement: bool = True


class PrimaryPartitionAgreement(ViewAgreement):
    """The Isis-style view agreement."""

    def __init__(
        self,
        stack: "GroupStack",
        isis_config: IsisConfig | None = None,
        transfer_tool: "BlockingTransferTool | None" = None,
    ) -> None:
        isis_config = isis_config or IsisConfig()
        super().__init__(stack, isis_config.membership)
        self.isis_config = isis_config
        self.transfer_tool = transfer_tool
        self.primary = (
            stack.pid.site == isis_config.bootstrap_site
            and stack.pid.incarnation == 0
        )
        self.blocked_decisions = 0
        self._bootstrapping = False
        # While a blocking state transfer is in flight, the decided
        # install is deferred; starting new rounds meanwhile would make
        # members re-flush and orphan the install when it finally ships.
        self._transfer_pending = False
        self._transfer_token = 0
        # Sticky endorsement: while in one view, flush only for a single
        # coordinator.  Without it two coordinators could concurrently
        # assemble "majorities" of the same predecessor view (each
        # member endorsing both, one after the other) and install
        # concurrent primaries — exactly what linear membership forbids.
        self._endorsed: ProcessId | None = None

    def start(self) -> None:
        """Everyone bootstraps a singleton view (it provides the flush
        predecessor for absorption), but only the bootstrap process's
        singleton is a *primary* view."""
        self._bootstrapping = True
        try:
            super().start()
        finally:
            self._bootstrapping = False

    # -- coordination restrictions ------------------------------------------------

    def on_propose(self, src: ProcessId, msg: VcPropose) -> None:
        if not self.primary or self._transfer_pending:
            return  # only primary members may run view changes
        target = msg.target | self.stack.fd.reachable() | {self.stack.pid}
        if self.view is not None:
            candidate = min_process(
                {p for p in target if p in self.view.members}
            )
            if candidate != self.stack.pid:
                self.stack.send(candidate, VcPropose(self.stack.pid, target))
                return
        if self._round is not None:
            extra = target - self._round.members
            if extra:
                self._start_round(self._round.members | extra)
            return
        self._start_round(target)

    def _initiate(self) -> None:
        if self._transfer_pending:
            return
        target = self.stack.fd.reachable() | {self.stack.pid}
        if not self.primary:
            # A blocked process cannot coordinate; it can only knock on
            # every reachable door and hope a primary member answers.
            for pid in target:
                if pid != self.stack.pid:
                    self.stack.send(pid, VcPropose(self.stack.pid, target))
            return
        # The coordinator must be a reachable *primary* member — the
        # least identifier overall may be a blocked joiner or a stale
        # incarnation of the bootstrap site.
        candidates = (
            target & self.view.members if self.view is not None else {self.stack.pid}
        )
        candidate = min_process(candidates or {self.stack.pid})
        if candidate == self.stack.pid:
            self._start_round(target)
        else:
            self.stack.send(candidate, VcPropose(self.stack.pid, target))

    def _abort_round_if_any(self) -> None:
        """Cancel our in-flight round AND release its members' pledges;
        leaving them endorsed to us while we stop coordinating would
        deadlock the group (they ignore the real coordinator forever)."""
        if self._round is None:
            return
        abort = VcAbort(self._round.round_id)
        for member in self._round.members:
            if member != self.stack.pid:
                self.stack.send(member, abort)
        self.on_abort(self.stack.pid, abort)
        self._cancel_round()

    def _fresher_primary(self) -> ProcessId | None:
        """A reachable peer whose current view identifier dominates ours.

        After a heal, a *stale* primary member (left behind by the real
        primary chain during the partition) must not coordinate: the
        current primary's views carry strictly larger identifiers, and
        heartbeats expose them.  Returns the peer to defer to, or None
        if our view is the freshest we can see.
        """
        if self.view is None:
            return None
        best: ProcessId | None = None
        best_epoch = self.view.epoch
        for pid in self.stack.fd.reachable():
            if pid == self.stack.pid:
                continue
            theirs = self.stack.fd.heard_view(pid)
            # Strictly larger *epoch* only: the coordinator component of
            # a view identifier is a tie-break, not evidence of a fresher
            # chain (bootstrap singletons all share epoch 1, for one).
            if theirs is not None and theirs.epoch > best_epoch:
                best, best_epoch = pid, theirs.epoch
        return best

    def _start_round(self, members: frozenset[ProcessId]) -> None:
        if not self.primary:
            return
        # Both linear-membership guards (freshness deference here, the
        # endorsement rule in on_prepare) hang off the same ablation
        # switch: together they are what makes concurrent primaries
        # impossible (benchmarks/bench_ablations.py, A3).
        fresher = (
            self._fresher_primary()
            if self.isis_config.sticky_endorsement
            else None
        )
        if fresher is not None:
            # We are a stale primary: defer to the fresher chain.
            self._abort_round_if_any()
            self.stack.send(fresher, VcPropose(self.stack.pid, members))
            return
        # The coordinator must be a primary member, not merely the least
        # identifier overall — a blocked joiner with a small id must not
        # seize coordination.
        if self.view is not None:
            primary_candidates = members & self.view.members
            if primary_candidates and min_process(primary_candidates) != self.stack.pid:
                # Hand coordination to the better candidate.
                self._abort_round_if_any()
                self.stack.send(
                    min_process(primary_candidates),
                    VcPropose(self.stack.pid, members),
                )
                return
        self._run_round(members)

    def _run_round(self, members: frozenset[ProcessId]) -> None:
        """The unrestricted round-start logic of the base class."""
        members = members | {self.stack.pid}
        self._cancel_round()
        self._round_counter += 1
        round_id = (self.stack.pid, self._round_counter)
        rnd = _Round(round_id, members)
        rnd.timer = self.stack.set_timer(self.config.round_timeout, self._round_timeout)
        self._round = rnd
        from repro.gms.messages import VcPrepare

        prepare = VcPrepare(round_id, members)
        for member in members:
            if member != self.stack.pid:
                self.stack.send(member, prepare)
        self.on_prepare(self.stack.pid, prepare)

    def on_prepare(self, src: ProcessId, msg) -> None:
        # Members never nack towards a smaller non-primary identifier;
        # they flush to whoever coordinates — but endorse at most one
        # coordinator per view, releasing the endorsement only when that
        # coordinator is suspected (it may have crashed mid-round) or
        # when a challenger demonstrably belongs to a *fresher* primary
        # chain (strictly larger heard view identifier).  The strictness
        # is what keeps endorsement safe: two coordinators racing over
        # the same predecessor view have equal identifiers and can never
        # steal each other's members.
        coordinator = msg.round_id[0]
        if (
            self.isis_config.sticky_endorsement
            and self._endorsed is not None
            and self._endorsed != coordinator
            and self._endorsed in self.stack.fd.reachable()
            and not self._challenger_is_fresher(coordinator)
        ):
            return
        self._endorsed = coordinator
        self._flush_to(msg.round_id, coordinator)

    def _heard_view_of(self, pid: ProcessId):
        if pid == self.stack.pid:
            return self.view.view_id if self.view is not None else None
        return self.stack.fd.heard_view(pid)

    def _challenger_is_fresher(self, challenger: ProcessId) -> bool:
        held = self._heard_view_of(self._endorsed)
        offered = self._heard_view_of(challenger)
        if offered is None:
            return False
        return held is None or offered.epoch > held.epoch

    def _decide(self, rnd: _Round) -> None:
        """Apply the Isis restrictions, then decide as usual."""
        members = rnd.members
        current = self.view.members if self.view is not None else frozenset()
        # Primary-partition rule: majority of the current view required.
        if current and 2 * len(members & current) <= len(current):
            self.blocked_decisions += 1
            self._cancel_round()
            # Tell the members the round died so they release their
            # endorsement; without this, a minority coordinator's
            # members stay pledged to it forever and ignore the real
            # primary's prepares after the partition heals.
            abort = VcAbort(rnd.round_id)
            for member in rnd.members:
                if member != self.stack.pid:
                    self.stack.send(member, abort)
            self.on_abort(self.stack.pid, abort)
            return  # minority: block (no view is ever installed here)
        # One-at-a-time growth.
        joiners = members - current
        if current and len(joiners) > 1:
            admitted = min(joiners)
            excluded = joiners - {admitted}
            members = (members & current) | {admitted}
            rnd = _Round(rnd.round_id, members, replies={
                pid: f for pid, f in rnd.replies.items() if pid in members
            })
            # The joiners deferred to the next change DID flush to this
            # round and pledged themselves to us; release them or they
            # will ignore every subsequent prepare (including ours).
            abort = VcAbort(rnd.round_id)
            for member in excluded:
                self.stack.send(member, abort)
        trimmed = rnd
        if self.transfer_tool is not None and current:
            new_members = members - current
            if new_members:
                joiner = min(new_members)
                self._cancel_round()
                self._transfer_pending = True
                self._transfer_token += 1
                token = self._transfer_token
                chunks = self.transfer_tool.run(
                    joiner, on_done=lambda: self._finish_decide(trimmed)
                )
                # Safety valve: if the joiner dies mid-transfer, unfreeze
                # coordination so the group is not wedged forever.  The
                # token pins the timer to THIS transfer: a stale timer
                # from a completed one must not unfreeze a later one.
                deadline = 40.0 + 4.0 * chunks
                self.stack.set_timer(
                    deadline, lambda: self._abort_stuck_transfer(token)
                )
                return
        self._finish_decide(trimmed)

    def _abort_stuck_transfer(self, token: int) -> None:
        if self._transfer_pending and self._transfer_token == token:
            self._transfer_pending = False

    def on_abort(self, src: ProcessId, msg) -> None:
        if self._flushed_round == msg.round_id:
            self._endorsed = None

    def _finish_decide(self, rnd: _Round) -> None:
        self._transfer_pending = False
        super()._decide(rnd)

    def _install(
        self, view: View, structure: EViewStructure, predecessors, trace=None
    ) -> None:
        # Isis views are flat: collapse whatever structure the generic
        # decision computed into the degenerate single-subview form.
        flat = EViewStructure.degenerate(
            view.epoch, view.coordinator, view.members
        )
        super()._install(view, flat, predecessors, trace=trace)
        if self.transfer_tool is not None:
            self.transfer_tool.on_view(view.members)
        self._endorsed = None
        if not self._bootstrapping:
            # Every non-bootstrap install comes from a primary round, so
            # installing it absorbs us into the primary partition.
            self.primary = True
