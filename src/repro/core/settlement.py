"""The Section 6.2 settlement protocol.

This is the internal-operations engine behind
:class:`~repro.core.group_object.GroupObject`, implementing the paper's
methodology: *external operations are performed within a subview;
internal operations are performed across subviews belonging to the same
sv-set; upon successful completion of an internal operation, the
corresponding subviews are merged into a single one.*

One settlement session, led by the least view member:

1. **mark** — merge all sv-sets into one, marking every member as a
   participant of the internal operation;
2. **collect** — classify the situation from the e-view structure
   (:func:`~repro.core.classify.classify_enriched`) and send a
   :class:`StateRequest` to the responders it identifies: one
   representative per donor subview, or everybody for state creation;
   each answers with exactly one :class:`StateOffer` carrying its whole
   state, one high-water id per ``(sender, view)`` it applied
   operations from, and its version;
3. **decide** — a single donor's snapshot is adopted as-is; multiple
   donors go through the application's ``merge_states``; creation goes
   through ``choose_creation_state``;
4. **adopt** — the decision is multicast view-synchronously; every
   member installs it;
5. **collapse** — all subviews are merged into one; each member seeing
   a single subview spanning the view, with fresh state, performs the
   (synchronous) Reconcile transition back to N-mode.

The *continuation rule* is the paper's §6.2 punchline: because subview
and sv-set composition can only shrink underneath a running internal
operation, the session survives a view change whenever the processes it
is still waiting on survive — with ``enriched_continuation=False`` the
engine instead restarts on every view change, which is all a flat-view
application can safely do.  Experiment E9 measures the difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.core.classify import classify_enriched
from repro.core.mode_functions import Capability
from repro.evs.eview import EView
from repro.fuzz import bugs as _fuzz_bugs
from repro.trace.events import AppEvent
from repro.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.group_object import GroupObject

SessionId = tuple[ProcessId, int]


def wire_size(value: Any) -> int:
    """A cheap estimate of ``value``'s encoded size: the length of a
    string or bytes, 16 per other scalar, summed over containers and
    the fields of dataclasses and named tuples (identifiers, version
    records).  The store caps a group-commit multicast with it, and a
    detailed run sizes every settlement offer and adopt by it."""
    kind = type(value)
    if kind is str or kind is bytes:
        return len(value) + 16
    if kind is int:
        return 16 + value.bit_length() // 3
    if kind is tuple or kind is list or kind is frozenset or kind is set:
        return 16 + sum(map(wire_size, value))
    if kind is dict:
        return 16 + sum(wire_size(k) + wire_size(v) for k, v in value.items())
    if isinstance(value, tuple):  # a named tuple: its fields are its items
        return 16 + sum(map(wire_size, value))
    if is_dataclass(value):
        return 16 + sum(wire_size(getattr(value, f.name)) for f in fields(value))
    return 16


@dataclass(frozen=True)
class StateRequest:
    """Leader -> responder: please offer your state."""

    session: SessionId
    #: Causal context of the leader's settle.round span (tracing only).
    trace: Any = None


@dataclass(frozen=True)
class StateOffer:
    """Responder -> leader: snapshot plus selection metadata."""

    session: SessionId
    sender: ProcessId
    snapshot: Any
    version: int
    last_epoch: int  # highest view epoch persisted before this offer
    trace: Any = None  # settle.round context, echoed from the request


@dataclass(frozen=True)
class StateAdopt:
    """Leader -> view (view-synchronous): the reconstructed state.

    ``view_id`` names the view whose e-view structure the decision was
    made under.  A decision is only installable in that view: a
    multicast straddling a view change can be reassigned to the next
    view by the membership layer, where the donor set may have grown
    (a healed branch, a recovered incarnation) — installing it there
    would overwrite state the decision never merged.  Receivers drop
    such strays; the session re-issues (or restarts and re-decides)
    under the new view.
    """

    session: SessionId
    state: Any
    view_id: Any = None
    trace: Any = None  # settle.round context (tracing only)


@dataclass
class _Session:
    session_id: SessionId
    responders: frozenset[ProcessId]
    offers: dict[ProcessId, StateOffer] = field(default_factory=dict)
    kind: str = "transfer"
    adopted_sent: bool = False

    @property
    def pending(self) -> frozenset[ProcessId]:
        return self.responders - frozenset(self.offers)


@dataclass
class SettlementStats:
    """Counters for E9."""

    sessions_started: int = 0
    sessions_restarted: int = 0
    sessions_continued: int = 0
    sessions_completed: int = 0


class SettlementEngine:
    """Leader-side driver plus member-side hooks of the protocol."""

    def __init__(self, obj: "GroupObject", enriched_continuation: bool = True) -> None:
        self.obj = obj
        self.enriched_continuation = enriched_continuation
        self.session: _Session | None = None
        self._counter = 0
        self.stats = SettlementStats()
        self._retry_interval = 20.0
        self._retry_timer = None

    # -- leadership --------------------------------------------------------

    def _i_lead(self, eview: EView) -> bool:
        return min(eview.members) == self.obj.pid

    def _needed(self, eview: EView) -> bool:
        fn = self.obj.automaton.mode_function
        if fn.capability(eview) is not Capability.FULL:
            return False  # cannot reach N-mode anyway; wait for repair
        if len(eview.structure.subviews) > 1:
            return True
        return self.obj.mode is not None and str(self.obj.mode) == "S"

    # -- events from the group object -------------------------------------------

    def _session_valid(self, eview: EView) -> bool:
        """Whether the running session may keep driving this e-view.

        The continuation rule is only sound while the donor structure
        *shrinks*: a view change that surfaces a donor subview the
        session is not collecting from (a healed partition branch, a
        recovered incarnation carrying state) must restart the session,
        or the adopt would overwrite that branch's state without ever
        merging it.  Likewise a creation session must restart when a
        donor appears or a new member (a potential last-to-fail
        candidate) joins, and any session is moot once the view lost
        FULL capability.
        """
        session = self.session
        assert session is not None
        fn = self.obj.automaton.mode_function
        if fn.capability(eview) is not Capability.FULL:
            return False
        verdict = classify_enriched(eview, fn.n_capable)
        if session.kind == "creation":
            return (
                not verdict.donor_subviews
                and eview.members <= session.responders
            )
        if not verdict.donor_subviews:
            return False
        reps = {min(sv.members) for sv in verdict.donor_subviews}
        return reps <= session.responders

    def on_view(self, eview: EView) -> None:
        """A view change: continue the session if allowed, else restart."""
        self._arm_retry()
        if self.session is not None:
            survivors_ok = (
                self.session.pending <= eview.members
                and self._session_valid(eview)
            )
            if self.enriched_continuation and survivors_ok and self._i_lead(eview):
                self.stats.sessions_continued += 1
                # The new view invalidates the previous adopt multicast:
                # members that entered without fresh state (the view
                # change may have demoted donors) need the decision
                # re-issued, and StateAdopt application is idempotent.
                self.session.adopted_sent = False
                self._progress(eview)
                return
            self._abandon()
        self.maybe_start(eview)

    def on_eview(self, eview: EView) -> None:
        self._progress(eview)

    def maybe_start(self, eview: EView) -> None:
        if not self._i_lead(eview) or not self._needed(eview):
            return
        if self.session is not None:
            return
        self._counter += 1
        verdict = classify_enriched(
            eview, self.obj.automaton.mode_function.n_capable
        )
        if verdict.donor_subviews and _fuzz_bugs.active("lost_settlement"):
            # Planted bug (test-only): the leader silently never starts
            # transfer/merge sessions, so a process that joined after
            # the initial creation never reconciles back to N-mode.
            return
        if verdict.donor_subviews:
            responders = frozenset(
                min(sv.members) for sv in verdict.donor_subviews
            )
            kind = "merge" if len(verdict.donor_subviews) > 1 else "transfer"
        else:
            if getattr(self.obj, "creation_requires_all_sites", False):
                # Skeen-safe creation: recreating from a subset of the
                # group risks missing the true last process to fail;
                # wait until every site of the universe has recovered.
                present = {p.site for p in eview.members}
                expected = set(self.obj.stack.universe_sites())
                if not expected <= present:
                    self._record(
                        "settle_wait_all_sites",
                        {"present": len(present), "expected": len(expected)},
                    )
                    return
            responders = eview.members
            kind = "creation"
        session = _Session(
            session_id=(self.obj.pid, self._counter),
            responders=responders,
            kind=kind,
        )
        self.session = session
        self.stats.sessions_started += 1
        self._record("settle_start", {"kind": kind, "responders": len(responders)})
        self._progress(eview)
        self._arm_retry()

    # -- the protocol ----------------------------------------------------------------

    def _progress(self, eview: EView) -> None:
        """Drive whichever phase is currently incomplete."""
        session = self.session
        if session is None or not self._i_lead(eview):
            return
        if not session.adopted_sent and not self._session_valid(eview):
            # The structure changed underneath the session (see
            # _session_valid); restart so the new donor set is heard.
            # A session whose adopt is already out keeps driving its
            # collapse phase — the decision was made under a structure
            # the adopt's view-synchronous delivery matches.
            self._abandon()
            self.maybe_start(eview)
            return
        stack = self.obj.stack
        assert stack is not None
        # Phase 1: mark -- collapse sv-sets into one.
        ssids = [ss.ssid for ss in eview.structure.svsets]
        if len(ssids) > 1:
            stack.sv_set_merge(ssids)
            return  # resume from on_eview when the change lands
        obs = stack.obs
        ctx = obs.settle_ctx(self.obj.pid) if obs is not None else None
        # Phase 2: collect.
        if session.pending:
            request = StateRequest(session.session_id, trace=ctx)
            for responder in session.pending:
                if responder == self.obj.pid:
                    self.on_offer(self.obj.pid, self._make_offer(request))
                else:
                    stack.send_direct(responder, request)
            return
        # Phase 3 + 4: decide and adopt.
        if not session.adopted_sent:
            state = self._decide(session)
            session.adopted_sent = True
            adopt = StateAdopt(session.session_id, state, eview.view_id, trace=ctx)
            self._count_bytes(stack, adopt)
            stack.multicast(adopt, ctx)
            return
        # Phase 5: collapse subviews once everyone could adopt.
        sids = [sv.sid for sv in eview.structure.subviews]
        if len(sids) > 1 and self.obj.fresh:
            stack.subview_merge(sids)

    def _decide(self, session: _Session) -> Any:
        offers = list(session.offers.values())
        if session.kind == "creation":
            chosen = self.obj.choose_creation_state(offers)
        elif len(offers) == 1:
            chosen = offers[0].snapshot
        else:
            chosen = self.obj.merge_states(offers)
        if _fuzz_bugs.active("stale_transfer") and session.kind != "creation":
            # Planted bug (test-only): the leader ignores the donors and
            # adopts its own state — stale whenever it was not a donor.
            chosen = self.obj.state_envelope()
        # The versions of every offer plus the adopted one go into the
        # trace: the StaleStateTransfer detector (repro.trace.checks)
        # flags a transfer/merge that adopted less than the best offer.
        chosen_version = (
            chosen[2]
            if isinstance(chosen, tuple)
            and len(chosen) == 3
            and isinstance(chosen[2], int)
            else None
        )
        self._record(
            "settle_decide",
            {
                "kind": session.kind,
                "offers": len(offers),
                "versions": tuple(sorted(o.version for o in offers)),
                "chosen_version": chosen_version,
            },
        )
        return chosen

    def _make_offer(self, request: StateRequest) -> StateOffer:
        """This member's one-message answer to ``request``, local or
        remote: the snapshot, the round's trace echoed back, and the
        ``settle.offer`` span."""
        offer = self.obj.make_offer(request.session)
        stack = self.obj.stack
        if request.trace is not None:
            offer = replace(offer, trace=request.trace)
            if stack.obs is not None:
                stack.obs.settle_offer(self.obj.pid, stack.now, request.trace)
        self._count_bytes(stack, offer)
        return offer

    @staticmethod
    def _count_bytes(stack: Any, payload: Any) -> None:
        """Add ``payload``'s estimated size to the wire counters of a
        detailed run (:func:`repro.trace.stats.cost_vector` reads them);
        a run that keeps no per-type breakdown sizes nothing."""
        stats = stack.network.stats
        if stats.detailed:
            stats.record_bytes(payload, wire_size(payload))

    # -- message hooks (wired through the group object) ---------------------------------

    def on_request(self, src: ProcessId, request: StateRequest) -> None:
        self.obj.stack.send_direct(src, self._make_offer(request))

    def on_offer(self, src: ProcessId, offer: StateOffer) -> None:
        session = self.session
        if session is None or offer.session != session.session_id:
            return
        session.offers[offer.sender] = offer
        eview = self.obj.stack.eview if self.obj.stack else None
        if eview is not None and not session.pending:
            self._progress(eview)

    def on_adopt_delivered(self) -> None:
        """Called by the group object after it installed an adopt."""
        eview = self.obj.stack.eview if self.obj.stack else None
        if eview is not None:
            self._progress(eview)

    def on_reconciled(self) -> None:
        if self.session is not None:
            self.stats.sessions_completed += 1
            self._record("settle_done", {"kind": self.session.kind})
            self.session = None

    # -- plumbing -------------------------------------------------------------------------

    def _abandon(self) -> None:
        if self.session is not None:
            self.stats.sessions_restarted += 1
            self._record("settle_abandon", {"kind": self.session.kind})
            self.session = None

    def _arm_retry(self) -> None:
        stack = self.obj.stack
        if stack is None or not stack.alive:
            return
        if self._retry_timer is None or not self._retry_timer.active:
            self._retry_timer = stack.set_periodic(
                self._retry_interval, self._retry
            )

    def _retry(self) -> None:
        stack = self.obj.stack
        if stack is None or stack.eview is None:
            return
        if self.session is not None:
            self._progress(stack.eview)
        else:
            self.maybe_start(stack.eview)

    def _record(self, tag: str, data: Any) -> None:
        stack = self.obj.stack
        if stack is not None:
            stack.recorder.record(
                AppEvent(time=stack.now, pid=stack.pid, tag=tag, data=data)
            )
            obs = stack.obs
            if obs is not None:
                kind = data.get("kind", "") if isinstance(data, dict) else ""
                obs.settlement_event(stack.pid, tag, kind, stack.now)
