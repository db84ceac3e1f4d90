"""Group objects (Section 3) over enriched view synchrony.

A *group object* is an instance of an abstract data type whose logical
state is simulated by a global state distributed over the group members,
with invariants that must survive view changes.  :class:`GroupObject`
packages the machinery every such object needs:

* an operation log: external operations are multicast; members with
  fresh state apply them immediately, members still settling buffer them
  and replay after adopting (so a transfer never loses concurrent
  updates — the two-piece discipline of Section 5's discussion);
* a :class:`~repro.core.settlement.SettlementEngine` running the
  Section 6.2 methodology to solve whatever shared-state problem a view
  change produces;
* freshness tracking and the synchronous Reconcile transition back to
  N-mode;
* persistence hooks for state creation (view epochs and versions go to
  the site's stable storage, supporting last-process-to-fail selection).

Subclasses implement the abstract-data-type half: ``snapshot_state`` /
``adopt_state`` / ``apply_op`` plus, optionally, ``merge_states`` and
``choose_creation_state`` policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable

from repro.core.mode_functions import ModeFunction
from repro.core.modes import Mode, ModeTrackingApp
from repro.core.settlement import (
    SettlementEngine,
    StateAdopt,
    StateOffer,
    StateRequest,
)
from repro.core.state_creation import choose_by_last_to_fail
from repro.core.versioning import QuorumTally
from repro.errors import ApplicationError
from repro.evs.eview import EView
from repro.types import MessageId, ProcessId, ViewId

_VERSION_KEY = "groupobject.version"
_EPOCH_KEY = "groupobject.last_epoch"

#: ``(sender, view) -> seqno``: every operation ``sender`` multicast in
#: ``view`` with a seqno up to this one has been applied, and no later
#: one has (DESIGN.md 4.10).
AppliedPrefixes = dict[tuple[ProcessId, ViewId], int]


def high_water_ids(prefixes: AppliedPrefixes) -> frozenset[MessageId]:
    """``prefixes`` as it travels in a snapshot envelope: one
    :class:`MessageId` per ``(sender, view)``, its highest applied."""
    return frozenset(
        MessageId(sender, view, seqno) for (sender, view), seqno in prefixes.items()
    )


def prefixes_of(ids: Iterable[MessageId]) -> AppliedPrefixes:
    """The prefixes that high-water ``ids`` name; for one ``(sender,
    view)`` named twice the higher wins, since of two prefixes the
    longer contains the shorter."""
    prefixes: AppliedPrefixes = {}
    for sender, view, seqno in ids:
        key = (sender, view)
        if seqno > prefixes.get(key, 0):
            prefixes[key] = seqno
    return prefixes


@dataclass(frozen=True)
class AppStateOffer:
    """A donor cluster's state as seen by application merge policies."""

    sender: ProcessId
    state: Any
    version: int
    last_epoch: int


@dataclass(frozen=True, slots=True)
class _OpMsg:
    """Envelope for an external operation multicast.

    A frozen dataclass so the realnet codec can carry it across real
    sockets (only dataclasses are wire-registrable); ``slots`` keeps
    the envelope as cheap as the hand-rolled ``__slots__`` class the
    simulator hot path used.
    """

    op: Any


class GroupObject(ModeTrackingApp):
    """Base class for replicated abstract data types."""

    def __init__(
        self,
        mode_function: ModeFunction,
        enriched_continuation: bool = True,
        creation_requires_all_sites: bool = False,
    ) -> None:
        super().__init__(mode_function)
        self.settlement = SettlementEngine(self, enriched_continuation)
        # Skeen-safe state creation: wait for every site before
        # recreating, so the last process to fail is certainly heard.
        self.creation_requires_all_sites = creation_requires_all_sites
        self.fresh = False
        self.version = 0
        self._prev_members: frozenset[ProcessId] | None = None
        self._buffered_ops: list[tuple[ProcessId, Any, MessageId]] = []
        #: What has been applied, as one prefix per (sender, view):
        #: delivery is FIFO per sender per view, and a replay after an
        #: adopt goes in identifier order.
        self._applied_prefixes: AppliedPrefixes = {}
        #: The quorum-acked subclasses' :class:`~repro.core.versioning.
        #: QuorumTally`; None for objects whose operations need no acks.
        self._tally: QuorumTally | None = None
        #: Writers of the current view whose ack successor this replica
        #: is not: its acks to them wait for the next beat tick.
        self._lazy_writers: frozenset[ProcessId] = frozenset()
        #: writer -> newest ack owed to it at the end of the input batch.
        self._batched_acks: dict[ProcessId, Any] = {}
        #: writer -> newest ack owed to it at the next beat tick.
        self._owed_acks: dict[ProcessId, Any] = {}
        self.ops_applied = 0
        self.ops_rejected = 0

    @property
    def pid(self) -> ProcessId:
        if self.stack is None:
            raise ApplicationError("application not bound to a stack yet")
        return self.stack.pid

    def bind(self, stack) -> None:
        super().bind(stack)
        # A recovered incarnation resumes its persisted operation-count
        # lineage: offers must not claim version 0 over restored state —
        # last-process-to-fail selection breaks ties by version, and the
        # stale-transfer detector compares offer versions.
        self.version = int(stack.storage.read(_VERSION_KEY, 0))
        fn = self.automaton.mode_function
        if getattr(fn, "dynamic", False):
            fn.bind_stack(stack)
            stack.set_periodic(10.0, self._reevaluate_mode)

    def _reevaluate_mode(self) -> None:
        """Dynamic mode functions (see :class:`~repro.core.
        mode_functions.DynamicPrimaryModeFunction`) are re-run between
        view changes: a process stuck outside the primary partition must
        notice it lost FULL capability even though no view arrives."""
        eview = self.stack.eview if self.stack is not None else None
        if eview is not None and self.mode is not None:
            self.automaton.on_view(eview)

    # ------------------------------------------------------------------
    # Abstract-data-type interface (override in subclasses)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> Any:
        """Return a copyable snapshot of the object state."""
        raise NotImplementedError

    def adopt_state(self, state: Any) -> None:
        """Replace the object state with ``state``."""
        raise NotImplementedError

    def apply_op(self, sender: ProcessId, op: Any, msg_id: MessageId) -> None:
        """Apply one delivered external operation to the local state."""
        raise NotImplementedError

    def merge_app_states(self, states: list["AppStateOffer"]) -> Any:
        """Reconcile divergent application states after a partition merge.

        Called with one entry per donor cluster.  The default refuses:
        an application that can experience state merging must choose a
        policy (each app in :mod:`repro.apps` defines its own; the
        versioned store's is :func:`repro.core.versioning.merge_chains`).
        """
        raise ApplicationError(
            f"{type(self).__name__} got a state-merging problem but "
            "defines no merge_app_states policy"
        )

    def choose_creation_offer(self, offers: list[StateOffer]) -> StateOffer:
        """Pick the offer to recreate from after a total failure.

        Default: last-process-to-fail selection on persisted view epochs
        (Skeen-style), breaking ties by version then process identifier.
        """
        return choose_by_last_to_fail(offers)

    # The two methods below keep the settlement engine ignorant of the
    # (state, high-water ids, version) envelope this class transports.

    def merge_states(self, offers: list[StateOffer]) -> Any:
        app_offers = [
            AppStateOffer(o.sender, o.snapshot[0], o.version, o.last_epoch)
            for o in offers
        ]
        merged = self.merge_app_states(app_offers)
        # The union of two prefixes of one (sender, view) is the longer.
        applied = prefixes_of(chain.from_iterable(o.snapshot[1] for o in offers))
        version = max(o.version for o in offers)
        return (merged, high_water_ids(applied), version)

    def choose_creation_state(self, offers: list[StateOffer]) -> Any:
        return self.choose_creation_offer(offers).snapshot

    def op_allowed(self, op: Any, mode: Mode) -> bool:
        """Which external operations the current mode admits.

        Default: everything in NORMAL, nothing otherwise.  Objects with
        a REDUCED repertoire (e.g. read-only) override this.
        """
        return mode is Mode.NORMAL

    # ------------------------------------------------------------------
    # External operations
    # ------------------------------------------------------------------

    def submit_op(self, op: Any, trace: Any = None) -> MessageId | None:
        """Multicast an external operation to the group.

        Raises :class:`ApplicationError` if the current mode does not
        admit it (callers can pre-check with :meth:`can_submit`).
        ``trace`` optionally names the causal parent of the multicast
        (e.g. a client request's root span; tracing only).  Returns
        None during a view change: the operation is then dropped, and
        no replica ever applies it.
        """
        if self.stack is None or self.mode is None:
            raise ApplicationError("object not running yet")
        if not self.op_allowed(op, self.mode):
            self.ops_rejected += 1
            raise ApplicationError(
                f"operation {op!r} not allowed in mode {self.mode}"
            )
        return self.stack.multicast(_OpMsg(op), trace)

    def can_submit(self, op: Any) -> bool:
        return (
            self.stack is not None
            and self.mode is not None
            and self.op_allowed(op, self.mode)
        )

    # ------------------------------------------------------------------
    # Plumbing: deliveries
    # ------------------------------------------------------------------

    def on_message(self, sender: ProcessId, payload: Any, msg_id: MessageId) -> None:
        if isinstance(payload, _OpMsg):
            self._on_op(sender, payload.op, msg_id)
        elif isinstance(payload, StateAdopt):
            self._on_adopt(payload)
        else:
            self.on_app_message(sender, payload, msg_id)

    def on_app_message(self, sender: ProcessId, payload: Any, msg_id: MessageId) -> None:
        """Hook for subclasses that multicast their own payloads."""

    def _on_op(self, sender: ProcessId, op: Any, msg_id: MessageId) -> None:
        if self.fresh:
            self._apply(sender, op, msg_id)
        else:
            self._buffered_ops.append((sender, op, msg_id))

    def _apply(self, sender: ProcessId, op: Any, msg_id: MessageId) -> None:
        prefixes = self._applied_prefixes
        key = msg_id[:2]  # (sender, view)
        seqno = msg_id[2]
        if seqno <= prefixes.get(key, 0):
            return  # inside the applied prefix: the snapshot has it
        prefixes[key] = seqno
        self.version += 1
        self.apply_op(sender, op, msg_id)
        self.ops_applied += 1
        self._persist_meta()

    def _on_adopt(self, adopt: StateAdopt) -> None:
        eview = self.stack.eview if self.stack is not None else None
        if (
            adopt.view_id is not None
            and eview is not None
            and adopt.view_id != eview.view_id
        ):
            # Decided under another view's structure (the multicast
            # straddled a view change): not installable here — see
            # StateAdopt.  The session covering this view re-issues.
            return
        obs = self.stack.obs if self.stack is not None else None
        if obs is not None and adopt.trace is not None:
            obs.settle_adopt(self.pid, self.stack.now, adopt.trace)
        state, applied, version = adopt.state
        self.adopt_state(state)
        self._applied_prefixes = prefixes_of(applied)
        self.version = max(self.version, version)
        self.fresh = True
        self._persist_meta()
        # Replay concurrent operations the snapshot predates.
        buffered, self._buffered_ops = self._buffered_ops, []
        for sender, op, msg_id in sorted(buffered, key=lambda t: t[2]):
            self._apply(sender, op, msg_id)
        self.settlement.on_adopt_delivered()
        self._maybe_reconcile()

    # ------------------------------------------------------------------
    # Plumbing: views, e-views, settlement
    # ------------------------------------------------------------------

    def on_view(self, eview: EView) -> None:
        self._plan_acks(eview.members)
        super().on_view(eview)  # drive the mode automaton first
        if self.mode is Mode.NORMAL:
            # Pure shrink while fresh: nothing to rebuild.
            self.fresh = True
        if self.mode is not Mode.NORMAL and not self._i_am_donor(eview):
            self.fresh = False
        self.stack.storage.write(_EPOCH_KEY, eview.view.epoch)
        # On a non-expanding view change, reconcile *before* driving
        # settlement: a single subview of fresh members needs no
        # settlement, and the synchronous Reconcile completes (and
        # clears) any session carried over from the churn window —
        # driving settlement first would let it re-issue its adopt into
        # this view, clobbering operations applied after the donor's
        # snapshot was taken.  An expansion must settle first: under
        # flat views the joiners share our subview while unfresh, so an
        # early reconcile would strand them in S-mode.
        expanded = (
            self._prev_members is None
            or not eview.members <= self._prev_members
        )
        self._prev_members = eview.members
        if not expanded:
            self._maybe_reconcile()
        self.settlement.on_view(eview)
        self._maybe_reconcile()

    def on_eview(self, eview: EView) -> None:
        self.settlement.on_eview(eview)
        self._maybe_reconcile()

    def _i_am_donor(self, eview: EView) -> bool:
        """Fresh state survives a view change iff our subview is
        N-capable (we come from the group that was serving externals)."""
        if not self.fresh:
            return False
        subview = eview.structure.subview_of(self.pid)
        return self.automaton.mode_function.n_capable(subview.members)

    def _maybe_reconcile(self) -> None:
        """The synchronous Reconcile transition (Section 4): fire when
        the structure shows a single subview spanning the view and our
        state is fresh."""
        if self.mode is not Mode.SETTLING or not self.fresh:
            return
        eview = self.stack.eview if self.stack else None
        if eview is None:
            return
        if len(eview.structure.subviews) == 1:
            self.reconcile()
            self.settlement.on_reconciled()

    # ------------------------------------------------------------------
    # Settlement support
    # ------------------------------------------------------------------

    def state_envelope(self) -> tuple[Any, frozenset[MessageId], int]:
        """What a transfer carries: the snapshot, the high-water ids of
        the applied prefixes, and the version."""
        return (
            self.snapshot_state(),
            high_water_ids(self._applied_prefixes),
            self.version,
        )

    def make_offer(self, session) -> StateOffer:
        return StateOffer(
            session=session,
            sender=self.pid,
            snapshot=self.state_envelope(),
            version=self.version,
            last_epoch=int(self.stack.storage.read(_EPOCH_KEY, 0)),
        )

    def on_direct(self, sender: ProcessId, payload: Any) -> None:
        if isinstance(payload, StateRequest):
            self.settlement.on_request(sender, payload)
        elif isinstance(payload, StateOffer):
            self.settlement.on_offer(sender, payload)
        else:
            self.on_app_direct(sender, payload)

    def on_app_direct(self, sender: ProcessId, payload: Any) -> None:
        """Hook for subclasses using point-to-point messages."""

    def send_ack(self, writer: ProcessId, ack: Any) -> None:
        """Send ``writer`` a cumulative acknowledgement of its operations
        (see :class:`~repro.core.versioning.QuorumTally`).

        Only a writer's ack successors (:meth:`~repro.core.versioning.
        QuorumTally.ack_successors`) ack it at once: with the writer's
        own vote theirs make the quorum.  Every other replica keeps the
        newest ack it owes each writer and sends it at its next failure-
        detector beat tick (:meth:`on_beat`), so a crashed, settling or
        slow successor delays a commit by at most one beat interval.

        "At once" is at once outside an input batch.  Inside one, only
        the newest ack per writer is kept, and the batch's acks leave
        when it ends, in the order their writers were first acked: each
        one covers every earlier ack to the same writer.
        """
        if writer in self._lazy_writers:
            self._owed_acks[writer] = ack
            return
        stack = self.stack
        if not stack.input_batch:
            stack.send_direct(writer, ack)
            return
        acks = self._batched_acks
        if not acks:
            stack.at_batch_end(self._send_batched_acks)
        acks[writer] = ack

    def _send_batched_acks(self) -> None:
        acks, self._batched_acks = self._batched_acks, {}
        self._send_acks(acks)

    def on_beat(self) -> None:
        """The failure detector's beat tick: send the owed acks."""
        if self._owed_acks:
            acks, self._owed_acks = self._owed_acks, {}
            self._send_acks(acks)

    def _send_acks(self, acks: dict[ProcessId, Any]) -> None:
        send_direct = self.stack.send_direct
        for writer, ack in acks.items():
            send_direct(writer, ack)

    def _plan_acks(self, members: frozenset[ProcessId]) -> None:
        """A view of ``members`` was installed: drop the acks owed in
        the old one (the new tally ignores them) and work out, once for
        the view, which writers this replica acks only at a beat tick."""
        self._owed_acks = {}
        tally = self._tally
        if tally is None:
            return
        me = self.pid
        self._lazy_writers = frozenset(
            writer
            for writer, successors in tally.ack_successors(members).items()
            if writer != me and me not in successors
        )

    def _persist_meta(self) -> None:
        if self.stack is not None:
            self.stack.storage.write(_VERSION_KEY, self.version)
