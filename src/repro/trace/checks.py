"""Every check of a run, in one table, each a one-pass monitor.

A check is a :class:`Monitor`: :func:`run_checkers` walks a trace's
events once and hands each to the monitors that subscribe to its type
(``feed``), then asks each for its :class:`CheckReport` (``report``);
an empty ``violations`` list means what it checks held on that
execution.  :data:`CHECKS` lists every check under its report name:

* the paper's properties (:data:`PROPERTIES`): Agreement (2.1),
  Uniqueness (2.2), Integrity (2.3) and the view-chain sanity check for
  view synchrony, then Total Order (6.1), Causal Order (6.2, as a
  mechanism and as consistent cuts) and Structure (6.3) for enriched
  views;
* the sequence-pattern detectors (:data:`DETECTORS`), RESTler-style:
  each scans the trace for one bug pattern the properties do not state
  (a stale state transfer, a lost settlement, a torn subview merge, an
  acked write lost, an ack no majority of the view held, a lock granted
  over a live holder, replicas in different orders, a zombie
  incarnation), and is chosen by name.

State is bounded by the views still open.  A view *closes* once every
member of it (and every process that installed it) has installed a
later view or crashed (:class:`ViewLife`); a process records its events
in the view it has installed, so no event of a sound run names a closed
view again (DESIGN.md 4.6 says how a late one is judged).
At the close each monitor settles what it held for the view and lets
its per-delivery and per-message state go; what it keeps after that is
at most one entry per ``(sender, view)`` or per process (DESIGN.md 4.6
lists them).  Messages are held as :class:`Seqnos`, one high-water
seqno per ``(sender, view)``.

:func:`check_cluster` runs the properties over a cluster's trace,
:func:`make_checkers`/:func:`run_checkers` run any named subset and
:func:`run_check` one; the workload runner, the CLI (``--checkers``,
``recheck``) and the fuzzer all pick from this one table.  The test
suite and the E2/E3/E4 experiments run these over adversarial fault
schedules; ``tests/test_trace_checks.py`` keeps the whole-trace
definitions as the oracle every monitor is compared with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, ClassVar, Iterable, NamedTuple, Sequence

from repro.errors import ReproError
from repro.ports import ClusterPort
from repro.trace.events import (
    AppEvent,
    CrashEvent,
    DeliveryEvent,
    EViewChangeEvent,
    ModeChangeEvent,
    MulticastEvent,
    RecoverEvent,
    StoreApplied,
    TraceEvent,
    ViewInstallEvent,
)
from repro.trace.recorder import TraceRecorder
from repro.types import MessageId, ProcessId, ViewId


@dataclass
class CheckReport:
    """Outcome of one check on one trace."""

    name: str
    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violation(self, text: str) -> None:
        self.violations.append(text)

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return f"[{self.name}] checked={self.checked} {status}"


@dataclass(frozen=True)
class CheckContext:
    """What a check may know about the run besides the trace."""

    #: Backend-time cost of one scenario unit (1.0 on the simulator):
    #: trace timestamps are backend time, grace periods scenario units.
    time_scale: float = 1.0


#: The context of a simulated run, for checks called without one.
CONTEXT = CheckContext()


# ---------------------------------------------------------------------------
# What the monitors share: view lifetimes and message sets
# ---------------------------------------------------------------------------


class ViewEnd(NamedTuple):
    """A view that closed, and who passed through it."""

    view_id: ViewId
    #: Installer -> the view it came from, in install order.
    entered: dict = {}
    #: Next view -> ``(order, movers)``: the processes that went from
    #: this view straight to that one, in install order, and the
    #: install count when the first of them did (the group's place in
    #: the trace).
    onward: dict = {}


class _OpenView:
    __slots__ = ("waiting", "entered", "onward")

    def __init__(self) -> None:
        #: Members not yet past the view; None until its first install
        #: names them.
        self.waiting: set[ProcessId] | None = None
        self.entered: dict[ProcessId, ViewId | None] = {}
        self.onward: dict[ViewId, tuple[int, list[ProcessId]]] = {}


class ViewLife:
    """Which views are still open, for the monitors of one pass.

    A view closes once every member of it, and every process that
    installed it, has installed a later view (view ids grow along each
    process's history) or crashed.  A view named only as another's
    predecessor, never installed in the trace (a ring buffer evicted
    the install), has no known members and stays open to the end.
    """

    __slots__ = ("current", "crashed", "open", "waits_on", "installs")

    def __init__(self) -> None:
        #: Process -> the last view it installed.
        self.current: dict[ProcessId, ViewId] = {}
        self.crashed: set[ProcessId] = set()
        self.open: dict[ViewId, _OpenView] = {}
        #: Process -> the open views waiting for it to move on.
        self.waits_on: dict[ProcessId, set[ViewId]] = {}
        self.installs = 0

    def _view(self, view_id: ViewId) -> _OpenView:
        view = self.open.get(view_id)
        if view is None:
            view = self.open[view_id] = _OpenView()
        return view

    def _wait(self, pid: ProcessId, view_id: ViewId, view: _OpenView) -> None:
        view.waiting.add(pid)  # type: ignore[union-attr]
        views = self.waits_on.get(pid)
        if views is None:
            views = self.waits_on[pid] = set()
        views.add(view_id)

    def install(self, ev: ViewInstallEvent) -> list[ViewEnd]:
        """``ev.pid`` entered ``ev.view_id``: returns the views that
        closed because it left them."""
        pid, view_id, prev = ev.pid, ev.view_id, ev.prev_view_id
        self.installs += 1
        view = self._view(view_id)
        if view.waiting is None:
            view.waiting = set()
            current, crashed = self.current, self.crashed
            for member in ev.members:
                if member not in crashed and not current.get(member, view_id) > view_id:
                    self._wait(member, view_id, view)
        self._wait(pid, view_id, view)
        view.entered[pid] = prev
        if prev is not None:
            onward = self._view(prev).onward
            group = onward.get(view_id)
            if group is None:
                onward[view_id] = (self.installs, [pid])
            else:
                group[1].append(pid)
        self.current[pid] = view_id
        return self._leave(pid, view_id)

    def crash(self, pid: ProcessId) -> list[ViewEnd]:
        """``pid`` crashed: returns the views that closed without it."""
        self.crashed.add(pid)
        return self._leave(pid, None)

    def _leave(self, pid: ProcessId, below: ViewId | None) -> list[ViewEnd]:
        views = self.waits_on.get(pid)
        if not views:
            return []
        ends = []
        for view_id in [v for v in views if below is None or v < below]:
            views.discard(view_id)
            view = self.open[view_id]
            view.waiting.discard(pid)  # type: ignore[union-attr]
            if not view.waiting:
                del self.open[view_id]
                ends.append(ViewEnd(view_id, view.entered, view.onward))
        if not views:
            del self.waits_on[pid]
        return ends

    def finish(self) -> list[ViewEnd]:
        """The trace ended: every view still open closes."""
        ends = [
            ViewEnd(view_id, view.entered, view.onward)
            for view_id, view in self.open.items()
        ]
        self.open.clear()
        self.waits_on.clear()
        return ends


class Seqnos:
    """A set of ``(key, seqno)`` pairs, held as the highest seqno below
    which a key has every one, plus the pairs above a gap.

    Keyed by ``(sender, view)`` it holds message ids: seqnos number a
    sender's multicasts in a view from 1, and a process delivers a FIFO
    prefix of each sender's, so on a sound trace nothing lies above a
    gap and a set costs one int per key, however many messages it has.
    """

    __slots__ = ("high", "gapped")

    def __init__(self) -> None:
        self.high: dict[Any, int] = {}
        self.gapped: set[tuple[Any, int]] | None = None

    def add(self, key: Any, seqno: int) -> bool:
        """Add ``(key, seqno)``; False when it was already there."""
        high = self.high.get(key, 0)
        if seqno == high + 1:
            gapped = self.gapped
            if gapped:
                while (key, seqno + 1) in gapped:
                    seqno += 1
                    gapped.discard((key, seqno))
            self.high[key] = seqno
            return True
        if 0 < seqno <= high:
            return False
        gapped = self.gapped
        if gapped is None:
            gapped = self.gapped = set()
        elif (key, seqno) in gapped:
            return False
        gapped.add((key, seqno))
        return True

    def has(self, key: Any, seqno: int) -> bool:
        if 0 < seqno <= self.high.get(key, 0):
            return True
        return self.gapped is not None and (key, seqno) in self.gapped

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Seqnos):
            return NotImplemented
        return self.high == other.high and (self.gapped or set()) == (
            other.gapped or set()
        )

    __hash__ = None  # type: ignore[assignment]

    def message_ids(self) -> set[MessageId]:
        """Every pair as a message id (``key`` is ``(sender, view)``)."""
        ids = {
            MessageId(sender, view, seqno)
            for (sender, view), high in self.high.items()
            for seqno in range(1, high + 1)
        }
        ids.update(MessageId(*key, seqno) for key, seqno in self.gapped or ())
        return ids


_NOTHING = Seqnos()  # what a process that delivered nothing holds; never added to


class Monitor:
    """One check, fed a trace one event at a time.

    ``feed`` sees, in trace order, every event whose type is in
    :attr:`feeds` (every event when that is None); ``close`` sees each
    view as it closes (:class:`ViewLife`), after the event that closed
    it was fed; ``report`` is asked once, after the last event.  State
    a monitor holds for a view lives in :attr:`held` under the view's
    id: ``close`` settles and drops it, and ``report`` closes what is
    left of a view the trace never installed.
    """

    #: The report name, the check's key in :data:`CHECKS`.
    name: ClassVar[str] = ""
    #: The event types ``feed`` subscribes to; None for all.
    feeds: ClassVar[tuple[type[TraceEvent], ...] | None] = ()
    #: Whether the monitor reads the pass's one :class:`StoreReplay`,
    #: which :class:`CheckPass` hands it as ``stores`` and feeds every
    #: :class:`AppEvent` before any monitor sees it.
    reads_stores: ClassVar[bool] = False

    def __init__(self, ctx: CheckContext = CONTEXT) -> None:
        self.ctx = ctx
        self.checked = 0
        #: Per-view state, keyed by view id.
        self.held: dict[ViewId, Any] = {}
        #: Violations found so far, each under a key giving its place
        #: in the report.
        self.found: list[tuple[Any, str]] = []

    def feed(self, ev: TraceEvent) -> None:
        raise NotImplementedError

    def close(self, end: ViewEnd) -> None:
        self.held.pop(end.view_id, None)

    def violations(self) -> list[str]:
        return [text for _key, text in sorted(self.found, key=itemgetter(0))]

    def report(self) -> CheckReport:
        for view_id in list(self.held):
            self.close(ViewEnd(view_id))
        return CheckReport(self.name, self.checked, self.violations())


def _held(held: dict, view_id: ViewId, make: type) -> Any:
    state = held.get(view_id)
    if state is None:
        state = held[view_id] = make()
    return state


# ---------------------------------------------------------------------------
# View synchrony: Properties 2.1 - 2.3
# ---------------------------------------------------------------------------


class Agreement(Monitor):
    """Property 2.1: processes that survive from one view to the same
    next view deliver the same set of messages (in the old view).

    Holds what each process delivered in each open view; when a view
    closes, every group that moved on to the same next view is final
    and compared.
    """

    name = "Agreement(2.1)"
    feeds = (DeliveryEvent,)

    def feed(self, ev: DeliveryEvent) -> None:
        by_pid = self.held.get(ev.view_id)
        if by_pid is None:
            by_pid = self.held[ev.view_id] = {}
        delivered = by_pid.get(ev.pid)
        if delivered is None:
            delivered = by_pid[ev.pid] = Seqnos()
        sender, view, seqno = ev.msg_id
        delivered.add((sender, view), seqno)

    def close(self, end: ViewEnd) -> None:
        delivered = self.held.pop(end.view_id, {})
        for nxt, (order, movers) in end.onward.items():
            pids = set(movers)
            if len(pids) < 2:
                continue
            self.checked += 1
            sets = {pid: delivered.get(pid, _NOTHING) for pid in pids}
            reference = next(iter(sets.values()))
            for pid, got in sets.items():
                if got != reference:
                    diff = got.message_ids() ^ reference.message_ids()
                    self.found.append((
                        (order, len(self.found)),
                        f"survivors of {end.view_id}->{nxt} disagree: "
                        f"{pid} differs on {sorted(diff)}",
                    ))


class Uniqueness(Monitor):
    """Property 2.2: a message is delivered in at most one view.

    A message delivered in its own view is one seqno in :attr:`seen`;
    only one delivered elsewhere gets an entry of its own, with every
    view it was delivered in.
    """

    name = "Uniqueness(2.2)"
    feeds = (DeliveryEvent,)

    def __init__(self, ctx: CheckContext = CONTEXT) -> None:
        super().__init__(ctx)
        #: Messages delivered in the view they were multicast in.
        self.seen = Seqnos()
        #: Message -> the views it was delivered in, for one delivered
        #: outside its own view.
        self.elsewhere: dict[MessageId, list[ViewId]] = {}

    def feed(self, ev: DeliveryEvent) -> None:
        msg_id, view_id = ev.msg_id, ev.view_id
        sender, view, seqno = msg_id
        views = self.elsewhere.get(msg_id) if self.elsewhere else None
        if views is None:
            if view_id == view:
                if self.seen.add((sender, view), seqno):
                    self.checked += 1
                return
            views = self.elsewhere[msg_id] = []
            if self.seen.has((sender, view), seqno):
                views.append(view)
            else:
                self.checked += 1
        if view_id not in views:
            views.append(view_id)

    def violations(self) -> list[str]:
        return [
            f"{msg_id} delivered in {len(views)} views: {sorted(views)}"
            for msg_id, views in self.elsewhere.items()
            if len(views) > 1
        ]


class Integrity(Monitor):
    """Property 2.3: at-most-once per process, and only genuine messages.

    A message is genuine when its sender multicast it: its seqno is in
    :attr:`sent`, kept for the run at one high-water seqno per
    ``(sender, view)``.  A delivery seen before its multicast is judged
    when its view closes.  What each process delivered is held per
    message view while that view is open: a delivery after its
    message's view closed is not checked for a duplicate, and
    :class:`Uniqueness` reports it as the message's second view.
    """

    name = "Integrity(2.3)"
    feeds = (MulticastEvent, DeliveryEvent)

    def __init__(self, ctx: CheckContext = CONTEXT) -> None:
        super().__init__(ctx)
        self.sent = Seqnos()

    def feed(self, ev: TraceEvent) -> None:
        if type(ev) is MulticastEvent:
            sender, view, seqno = ev.msg_id
            self.sent.add((sender, view), seqno)
            return
        self.checked += 1
        pid, msg_id = ev.pid, ev.msg_id
        sender, view, seqno = msg_id
        state = self.held.get(view)
        if state is None:
            state = self.held[view] = (Seqnos(), [])
        delivered, unproven = state
        if not delivered.add((pid, sender), seqno):
            self.found.append(((self.checked, 0), f"{pid} delivered {msg_id} twice"))
        if not self.sent.has((sender, view), seqno):
            unproven.append((self.checked, pid, msg_id))

    def close(self, end: ViewEnd) -> None:
        state = self.held.pop(end.view_id, None)
        if state is None:
            return
        for order, pid, msg_id in state[1]:
            sender, view, seqno = msg_id
            if not self.sent.has((sender, view), seqno):
                self.found.append(
                    ((order, 1), f"{pid} delivered never-multicast {msg_id}")
                )


class ViewMonotonicity(Monitor):
    """Sanity: each process installs strictly increasing view ids."""

    name = "ViewMonotonicity"
    feeds = (ViewInstallEvent,)

    def __init__(self, ctx: CheckContext = CONTEXT) -> None:
        super().__init__(ctx)
        #: Process -> its last install, in first-install order.
        self.last: dict[ProcessId, ViewInstallEvent] = {}
        self.broken: dict[ProcessId, list[str]] = {}

    def feed(self, ev: ViewInstallEvent) -> None:
        earlier = self.last.get(ev.pid)
        self.last[ev.pid] = ev
        if earlier is None:
            return
        texts = []
        if ev.view_id <= earlier.view_id:
            texts.append(f"{ev.pid} installed {ev.view_id} after {earlier.view_id}")
        if ev.prev_view_id != earlier.view_id:
            texts.append(f"{ev.pid} has broken view chain at {ev.view_id}")
        if texts:
            self.broken.setdefault(ev.pid, []).extend(texts)

    def report(self) -> CheckReport:
        pids = set(self.last)
        violations = [text for pid in pids for text in self.broken.get(pid, ())]
        return CheckReport(self.name, len(pids), violations)


# ---------------------------------------------------------------------------
# Enriched views: Properties 6.1 - 6.3
# ---------------------------------------------------------------------------


class _Applied:
    """A view's e-view changes, as one process-by-process record."""

    __slots__ = ("canonical", "seqs")

    def __init__(self) -> None:
        #: Change number -> the first structure recorded for it.
        self.canonical: dict[int, tuple] = {}
        #: Process -> (its place among (process, view) pairs, the
        #: change numbers it applied in order).
        self.seqs: dict[ProcessId, tuple[int, list[int]]] = {}


class TotalOrder(Monitor):
    """Property 6.1: e-view changes within a view are totally ordered.

    Concretely: every process applies consecutively numbered changes
    starting at 0 (the install), and any two processes that applied the
    same change number in the same view saw the identical structure.
    """

    name = "TotalOrder(6.1)"
    feeds = (EViewChangeEvent,)

    def __init__(self, ctx: CheckContext = CONTEXT) -> None:
        super().__init__(ctx)
        self.pairs = 0
        self.divergent: list[str] = []

    def feed(self, ev: EViewChangeEvent) -> None:
        state = _held(self.held, ev.view_id, _Applied)
        snapshot = (ev.subviews, ev.svsets)
        canonical = state.canonical.get(ev.eview_seq)
        if canonical is None:
            state.canonical[ev.eview_seq] = snapshot
        else:
            self.checked += 1
            if canonical != snapshot:
                self.divergent.append(
                    f"divergent structure at {ev.view_id} seq {ev.eview_seq}"
                )
        applied = state.seqs.get(ev.pid)
        if applied is None:
            self.pairs += 1
            applied = state.seqs[ev.pid] = (self.pairs, [])
        applied[1].append(ev.eview_seq)

    def close(self, end: ViewEnd) -> None:
        state = self.held.pop(end.view_id, None)
        if state is None:
            return
        for pid, (order, seqs) in state.seqs.items():
            self.checked += 1
            if seqs != sorted(seqs):
                self.found.append((
                    (order, 0),
                    f"{pid} applied e-view changes out of order in {end.view_id}",
                ))
            if seqs and (seqs[0] != 0 or seqs != list(range(len(seqs)))):
                self.found.append((
                    (order, 1),
                    f"{pid} skipped e-view changes in {end.view_id}: applied {seqs}",
                ))

    def violations(self) -> list[str]:
        return self.divergent + super().violations()


class CausalOrder(Monitor):
    """Property 6.2: e-view changes are consistent cuts — no process
    delivers a message multicast after an e-view change it has not yet
    applied itself.  Holds the last change each process applied in
    each open view."""

    name = "CausalOrder(6.2)"
    feeds = (EViewChangeEvent, DeliveryEvent)

    def feed(self, ev: TraceEvent) -> None:
        if type(ev) is EViewChangeEvent:
            _held(self.held, ev.view_id, dict)[ev.pid] = ev.eview_seq
            return
        self.checked += 1
        applied = self.held.get(ev.view_id)
        have = -1 if applied is None else applied.get(ev.pid, -1)
        if ev.sender_eview_seq > have:
            self.found.append((
                self.checked,
                f"{ev.pid} delivered {ev.msg_id} tagged e-view seq "
                f"{ev.sender_eview_seq} while at seq {have}",
            ))


def _subview_partner_map(snapshot: tuple) -> dict[ProcessId, frozenset[ProcessId]]:
    return {pid: members for _, members in snapshot for pid in members}


def _svset_partner_map(ev: EViewChangeEvent) -> dict[ProcessId, frozenset[ProcessId]]:
    """pid -> all processes sharing an sv-set with it in this snapshot."""
    subview_members = {sid: members for sid, members in ev.subviews}
    result: dict[ProcessId, frozenset[ProcessId]] = {}
    for _, subview_ids in ev.svsets:
        group: set[ProcessId] = set()
        for sid in subview_ids:
            group |= subview_members.get(sid, frozenset())
        frozen = frozenset(group)
        for pid in frozen:
            result[pid] = frozen
    return result


class _Cuts:
    """One open view's cuts, multicasts and deliveries still to judge."""

    __slots__ = ("numbered", "applied", "sent_after", "waiting")

    def __init__(self) -> None:
        #: Change number (0 aside) -> its cut's place among all cuts.
        self.numbered: dict[int, int] = {}
        #: Process -> the change numbers (0 aside) it has applied.
        self.applied: dict[ProcessId, frozenset[int]] = {}
        #: Message -> the changes its sender applied before sending it.
        self.sent_after: dict[MessageId, frozenset[int]] = {}
        #: Process -> deliveries it made before applying a change their
        #: message was sent after: ``[order, msg_id, changes]``.
        self.waiting: dict[ProcessId, list[list]] = {}


class CutConsistency(Monitor):
    """Property 6.2, order-theoretic form: e-view changes define
    consistent cuts of the computation.

    Where :class:`CausalOrder` verifies the *mechanism* (the sender's
    sequence tag never exceeds the receiver's applied count), this
    checker verifies the *definition*: for every e-view change
    ``(v, k)``, no multicast issued by a process after it applied the
    change is delivered by another process before that process applied
    it.  Happens-before is generated by per-process event order plus
    multicast -> delivery edges, reconstructed from the trace alone:
    each multicast is tagged with the changes its sender had applied,
    and a delivery waits, until its view closes, on those of them its
    receiver had not applied yet.
    """

    name = "CutConsistency(6.2)"
    feeds = (EViewChangeEvent, MulticastEvent, DeliveryEvent)

    def __init__(self, ctx: CheckContext = CONTEXT) -> None:
        super().__init__(ctx)
        self.deliveries = 0

    def feed(self, ev: TraceEvent) -> None:
        kind = type(ev)
        if kind is DeliveryEvent:
            self.deliveries += 1
            msg_id = ev.msg_id
            origin = self.held.get(msg_id.view)
            after = origin.sent_after.get(msg_id) if origin and origin.sent_after else None
            if after:
                state = _held(self.held, ev.view_id, _Cuts)
                missing = after - state.applied.get(ev.pid, frozenset())
                if missing:
                    state.waiting.setdefault(ev.pid, []).append(
                        [self.deliveries, msg_id, set(missing)]
                    )
        elif kind is MulticastEvent:
            msg_id = ev.msg_id
            state = self.held.get(msg_id.view)
            applied = None if state is None else state.applied.get(ev.pid)
            if applied:
                state.sent_after[msg_id] = applied
        else:
            seq_no = ev.eview_seq
            if seq_no == 0:
                return  # the install itself is covered by view semantics
            view_id, pid = ev.view_id, ev.pid
            state = _held(self.held, view_id, _Cuts)
            order = state.numbered.get(seq_no)
            if order is None:
                self.checked += 1
                order = state.numbered[seq_no] = self.checked
            state.applied[pid] = state.applied.get(pid, frozenset()) | {seq_no}
            for entry in state.waiting.get(pid, ()):
                delivered, msg_id, missing = entry
                if seq_no in missing:
                    missing.discard(seq_no)
                    self.found.append((
                        (order, delivered),
                        f"{msg_id} crosses the cut of e-view change "
                        f"({view_id}, {seq_no}) backwards: sent after at "
                        f"{msg_id.sender}, delivered before at {pid}",
                    ))


class _Structures:
    """One open view's structure snapshots, per process."""

    __slots__ = ("last", "first", "order", "installs")

    def __init__(self) -> None:
        self.last: dict[ProcessId, EViewChangeEvent] = {}
        #: The snapshot with the lowest change number (the first of equals).
        self.first: dict[ProcessId, EViewChangeEvent] = {}
        #: Process -> its (process, view) pair's place in the trace.
        self.order: dict[ProcessId, int] = {}
        #: Installs of this view to check across views once it closes:
        #: ``(order, pid, previous view, last snapshot there)``.
        self.installs: list[tuple[int, ProcessId, ViewId, EViewChangeEvent]] = []


class Structure(Monitor):
    """Property 6.3: subview and sv-set structures are preserved across
    view changes, and never split within a view.

    Two parts:

    * *across views*: processes common to ``v`` and its successor ``v'``
      that shared a subview (sv-set) at the end of ``v`` still share one
      at the start of ``v'``;
    * *within a view*: successive structure snapshots at one process only
      coarsen (merges), never split.

    Like Agreement (2.1), the property quantifies over processes that
    "survive from one view to the same next view": the pair (p, q) is
    constrained only when q's own installed-view chain also has v as
    the immediate predecessor of v'.  A process listed in a view it
    never adopted, or one that reached v' through an intermediate view
    the other never installed, did not take the v -> v' transition.
    An install is checked when its new view closes, which is when its
    first snapshot and who entered it from where are known.
    """

    name = "Structure(6.3)"
    feeds = (EViewChangeEvent, ViewInstallEvent)

    def __init__(self, ctx: CheckContext = CONTEXT) -> None:
        super().__init__(ctx)
        self.pairs = 0
        self.installs = 0
        self.across: list[tuple[int, str]] = []

    def feed(self, ev: TraceEvent) -> None:
        if type(ev) is ViewInstallEvent:
            self.installs += 1
            prev = ev.prev_view_id
            if prev is None:
                return
            old = self.held.get(prev)
            last = None if old is None else old.last.get(ev.pid)
            if last is not None:
                _held(self.held, ev.view_id, _Structures).installs.append(
                    (self.installs, ev.pid, prev, last)
                )
            return
        pid = ev.pid
        state = _held(self.held, ev.view_id, _Structures)
        earlier = state.last.get(pid)
        if earlier is None:
            self.pairs += 1
            state.order[pid] = self.pairs
        else:
            self.checked += 1
            earlier_map = _subview_partner_map(earlier.subviews)
            later_map = _subview_partner_map(ev.subviews)
            for member, mates in earlier_map.items():
                if member in later_map and not mates <= later_map[member]:
                    self.found.append((
                        (state.order[pid], len(self.found)),
                        f"subview of {member} split within {ev.view_id} at {pid}",
                    ))
        state.last[pid] = ev
        first = state.first.get(pid)
        if first is None or ev.eview_seq < first.eview_seq:
            state.first[pid] = ev

    def close(self, end: ViewEnd) -> None:
        state = self.held.pop(end.view_id, None)
        if state is None:
            return
        view_id, entered = end.view_id, end.entered
        for order, pid, prev, last in state.installs:
            first = state.first.get(pid)
            if first is None:
                continue
            self.checked += 1
            old_subviews = _subview_partner_map(last.subviews)
            new_subviews = _subview_partner_map(first.subviews)
            transitioned = {
                q for q in old_subviews if q in entered and entered[q] == prev
            }
            survivors = set(old_subviews) & set(new_subviews) & transitioned
            for member in survivors:
                old_mates = old_subviews[member] & frozenset(survivors)
                if not old_mates <= new_subviews[member]:
                    self.across.append((
                        order,
                        f"subview mates of {member} separated across "
                        f"{prev} -> {view_id}",
                    ))
            old_ssets = _svset_partner_map(last)
            new_ssets = _svset_partner_map(first)
            for member in survivors:
                old_mates = old_ssets.get(member, frozenset()) & frozenset(survivors)
                if member in new_ssets and not old_mates <= new_ssets[member]:
                    self.across.append((
                        order,
                        f"sv-set mates of {member} separated across "
                        f"{prev} -> {view_id}",
                    ))

    def violations(self) -> list[str]:
        return super().violations() + [
            text for _order, text in sorted(self.across, key=itemgetter(0))
        ]


# ---------------------------------------------------------------------------
# Sequence-pattern detectors
# ---------------------------------------------------------------------------


class StaleStateTransfer(Monitor):
    """A state transfer/merge adopted less than the best offered state.

    The settlement leader records every ``settle_decide`` with the
    offered versions and the version actually adopted.  Outside state
    *creation* (where last-process-to-fail selection may legitimately
    prefer an older-versioned snapshot), adopting a version below the
    maximum offered silently discards committed operations.
    """

    name = "StaleStateTransfer"
    feeds = (AppEvent,)

    def feed(self, ev: AppEvent) -> None:
        if ev.tag != "settle_decide" or not isinstance(ev.data, dict):
            return
        if ev.data.get("kind") not in ("transfer", "merge"):
            return
        versions = ev.data.get("versions")
        chosen = ev.data.get("chosen_version")
        if not versions or chosen is None:
            return  # trace predates version accounting
        self.checked += 1
        best = max(versions)
        if chosen < best:
            self.found.append((
                self.checked,
                f"{ev.pid} adopted version {chosen} but a donor offered "
                f"{best} (t={ev.time:g}, kind={ev.data.get('kind')})",
            ))


#: Scenario units of quiet after which a process stuck in S counts as
#: a lost settlement.
LOST_SETTLEMENT_GRACE = 120.0


class LostSettlement(Monitor):
    """A process entered S-mode and the settlement never came.

    After the run's settle tail, a process still in SETTLING whose view
    has been stable for longer than :data:`LOST_SETTLEMENT_GRACE` —
    with no settlement activity anywhere in that window, and not parked
    on the legitimate ``settle_wait_all_sites`` state-creation barrier —
    lost its internal operation: the leader never started (or never
    finished) the session that would reconcile it back to N-mode.
    Holds one entry per process and the latest times.
    """

    name = "LostSettlement"
    feeds = None  # the run's end is the latest event of any type

    def __init__(self, ctx: CheckContext = CONTEXT) -> None:
        super().__init__(ctx)
        self.t_end: float | None = None
        self.crashed: set[ProcessId] = set()
        self.last_mode: dict[ProcessId, str] = {}
        self.mode_at: dict[ProcessId, float] = {}
        self.last_install: dict[ProcessId, float] = {}
        self.latest_settle: float | None = None
        self.latest_wait_all: float | None = None

    def feed(self, ev: TraceEvent) -> None:
        t = ev.time
        if self.t_end is None or t > self.t_end:
            self.t_end = t
        kind = type(ev)
        if kind is AppEvent:
            tag = ev.tag
            if tag.startswith("settle"):
                if self.latest_settle is None or t > self.latest_settle:
                    self.latest_settle = t
                if tag == "settle_wait_all_sites" and (
                    self.latest_wait_all is None or t > self.latest_wait_all
                ):
                    self.latest_wait_all = t
        elif kind is ModeChangeEvent:
            self.last_mode[ev.pid] = ev.new_mode
            self.mode_at[ev.pid] = t
        elif kind is ViewInstallEvent:
            self.last_install[ev.pid] = t
        elif kind is CrashEvent:
            self.crashed.add(ev.pid)

    def report(self) -> CheckReport:
        report = CheckReport(self.name)
        t_end = self.t_end
        if t_end is None:
            return report
        grace = LOST_SETTLEMENT_GRACE * self.ctx.time_scale
        latest_settle = self.latest_settle
        waiting_all_sites = (
            self.latest_wait_all is not None and self.latest_wait_all > t_end - grace
        )
        for pid, mode in sorted(self.last_mode.items(), key=lambda kv: repr(kv[0])):
            if pid in self.crashed:
                continue
            report.checked += 1
            if mode != "S":
                continue
            if t_end - self.last_install.get(pid, t_end) < grace:
                continue  # view changed recently; settlement may be due
            if t_end - self.mode_at.get(pid, t_end) < grace:
                continue
            if latest_settle is not None and t_end - latest_settle < grace:
                continue  # a session is visibly making progress
            if waiting_all_sites:
                continue  # creation legitimately parked on missing sites
            report.violation(
                f"{pid} stuck in S-mode since t={self.mode_at.get(pid, 0.0):g} "
                f"with no settlement activity in the last "
                f"{LOST_SETTLEMENT_GRACE:g} scenario units"
            )
        return report


class _Merges:
    """One open view's e-view structures, for merge atomicity."""

    __slots__ = ("order", "canonical", "max_seq")

    def __init__(self) -> None:
        self.order = 0
        #: Change number -> the first subviews recorded for it.
        self.canonical: dict[int, tuple] = {}
        #: Process -> the highest change number it applied.
        self.max_seq: dict[ProcessId, int] = {}


class SubviewMergeAtomicity(Monitor):
    """Subview merges must be whole and agreed.

    Two patterns (Section 6.2's merge discipline):

    * *whole*: within a view, a later structure's subview must be the
      union of complete earlier subviews — a subview that absorbs only
      part of another was split by the merge, which the paper forbids;
    * *agreed*: processes that survive a view change into the same next
      view must have applied the same number of e-view changes in the
      old view — a survivor that missed a merge violates the
      view-synchronous delivery of e-view changes.

    Both are judged when the view closes.
    """

    name = "SubviewMergeAtomicity"
    feeds = (EViewChangeEvent,)

    def __init__(self, ctx: CheckContext = CONTEXT) -> None:
        super().__init__(ctx)
        self.views = 0
        self.disagreed: list[tuple[int, str]] = []

    def feed(self, ev: EViewChangeEvent) -> None:
        state = self.held.get(ev.view_id)
        if state is None:
            state = self.held[ev.view_id] = _Merges()
            self.views += 1
            state.order = self.views
        state.canonical.setdefault(ev.eview_seq, ev.subviews)
        if ev.eview_seq > state.max_seq.get(ev.pid, -1):
            state.max_seq[ev.pid] = ev.eview_seq

    def close(self, end: ViewEnd) -> None:
        state = self.held.pop(end.view_id, None)
        if state is None:
            return
        view_id, seq_map = end.view_id, state.canonical
        # Whole-subview merges within the view.
        for seq in sorted(seq_map):
            before = seq_map.get(seq - 1)
            if before is None:
                continue
            self.checked += 1
            old_sets = [members for _, members in before]
            for sid, members in seq_map[seq]:
                parts = [m for m in old_sets if m & members]
                torn = [m for m in parts if not m <= members]
                union = frozenset().union(*parts) if parts else frozenset()
                if torn or (parts and union != members):
                    self.found.append((
                        (state.order, len(self.found)),
                        f"partial subview merge at {view_id} seq {seq}: "
                        f"{sid} is not a union of whole prior subviews",
                    ))
        # Survivor agreement on the e-view change count.
        max_seq = state.max_seq
        for _nxt, (order, movers) in end.onward.items():
            counts = {pid: max_seq[pid] for pid in set(movers) if pid in max_seq}
            if len(counts) < 2:
                continue
            self.checked += 1
            if len(set(counts.values())) > 1:
                detail = ", ".join(
                    f"{pid}={count}"
                    for pid, count in sorted(counts.items(), key=lambda kv: repr(kv[0]))
                )
                self.disagreed.append((
                    order,
                    f"survivors of {view_id} applied different e-view change "
                    f"counts: {detail}",
                ))

    def violations(self) -> list[str]:
        return super().violations() + [
            text for _order, text in sorted(self.disagreed, key=itemgetter(0))
        ]


def _provenance_text(prov: Any) -> tuple:
    # trace.export imports repro.core, whose package imports
    # repro.trace and so this module: bound at call time, not at the top.
    from repro.trace.export import flat_provenance

    return flat_provenance(prov)


class AckedWriteLoss(Monitor):
    """No acknowledged client write may vanish from the store.

    :class:`~repro.apps.versioned_store.VersionedStore` records three
    audit events: ``store_ack`` when a put earns its quorum certificate
    (the client saw "ok"), ``store_apply`` when a member adds a version,
    and ``store_state`` whenever a member's whole chain set is
    *replaced* (state adoption after settlement, or a disk restore on
    recovery) — carrying the provenance of every version it now holds.

    Replaying those per process in trace order (which is time order:
    a recorder appends as time passes and a merge sorts by time) —
    ``store_state`` resets the process's holdings, ``store_apply`` adds
    to them — yields what each process retains at the end of the run.
    Every acked provenance must appear in the union over processes
    still alive at the end: merges are provenance-unions, so losing an
    acked write means a state decision discarded a version some client
    was promised.

    That asks more than the store promises.  "Committed" means held by
    a majority of the certifying view (:class:`CertifiedAck`), and under
    the always-full mode function that view can be a minority
    component whose members all crash for good; the write is then gone
    with no fault in the store.  So this check is sound only under
    schedules that recover every site, as the fuzzer's and the workload
    generator's do (``tests/test_certified_ack.py`` pins the case).

    A provenance is the store's own
    :class:`~repro.core.versioning.Provenance` in a recorded trace and
    its flat ``(epoch, site, incarnation, seq)`` in an imported one, and
    a ``store_apply`` holds a :class:`~repro.trace.events.StoreApplied`
    or, imported, its dict.  Either is read as it is, and a report
    prints the flat provenance, so a trace and its export report the
    same text.  What it holds grows with the store: the acked writes,
    and per process the inventory of its last ``store_state`` (the
    event's own tuple, not a copy) plus the versions applied since.
    """

    name = "AckedWriteLoss"
    feeds = (AppEvent, CrashEvent)

    def __init__(self, ctx: CheckContext = CONTEXT) -> None:
        super().__init__(ctx)
        self.acked: dict[Any, tuple] = {}  # prov -> (time, pid, key)
        #: Process -> (its last inventory, what it applied since).
        self.holdings: dict[ProcessId, tuple[Sequence, set]] = {}
        self.dead: set[ProcessId] = set()

    def feed(self, ev: TraceEvent) -> None:
        if type(ev) is CrashEvent:
            self.dead.add(ev.pid)
            return
        tag, data = ev.tag, ev.data
        if tag == "store_apply":
            if type(data) is not StoreApplied:
                data = StoreApplied.read(data)
            if data is not None and data.prov:
                holding = self.holdings.get(ev.pid)
                if holding is None:
                    holding = self.holdings[ev.pid] = ((), set())
                holding[1].add(data.prov)
        elif not isinstance(data, dict):
            return
        elif tag == "store_ack":
            prov = data.get("prov")
            if prov:
                self.acked.setdefault(prov, (ev.time, ev.pid, data.get("key")))
        elif tag == "store_state":
            self.holdings[ev.pid] = (data.get("provs", ()), set())

    def report(self) -> CheckReport:
        report = CheckReport(self.name)
        if not self.acked:
            return report
        retained: set = set()
        for pid, (inventory, applied) in self.holdings.items():
            if pid not in self.dead:
                retained.update(inventory)
                retained |= applied
        for prov, (time, pid, key) in sorted(self.acked.items()):
            report.checked += 1
            if prov not in retained:
                report.violation(
                    f"write {_provenance_text(prov)} on key {key!r} was acked "
                    f"to its client by {pid} at t={time:g} but no live process "
                    f"retains it at the end of the run"
                )
        return report


class StoreReplay:
    """What each process's store holds, replayed from its audit events.

    ``store_state`` (every chain, in order: ``keys``, their chain
    ``lens`` and the ``provs`` in chain order) replaces what a process
    holds, and ``store_apply`` adds a version (appended, or inserted at
    ``at``).  A trace is in time order (a recorder appends as time
    passes and a merge sorts by time), so once an event is fed the
    replay holds what each process held at that event's time.  Records
    are read in either form, recorded or imported; what it holds is a
    replica of each store's chains.  A :class:`CheckPass` keeps one for
    the monitors that read it (:attr:`Monitor.reads_stores`:
    :class:`CertifiedAck` and :class:`ReplicaDivergence`).
    """

    __slots__ = ("chains",)

    def __init__(self) -> None:
        #: pid -> key -> the provenances of its chain, in chain order.
        self.chains: dict[ProcessId, dict[Any, list]] = {}

    def feed(self, ev: AppEvent) -> None:
        tag, data = ev.tag, ev.data
        if tag == "store_apply":
            applied = StoreApplied.read(data)
            if applied is None:
                return
            held = self.chains.get(ev.pid)
            if held is None:
                held = self.chains[ev.pid] = {}
            chain = held.get(applied.key)
            if chain is None:
                chain = held[applied.key] = []
            at = applied.at
            chain.insert(len(chain) if at is None else at, applied.prov)
        elif tag == "store_state" and isinstance(data, dict):
            provs = data.get("provs", ())
            chains = self.chains[ev.pid] = {}
            at = 0
            for key, n in zip(data.get("keys", ()), data.get("lens", ())):
                chains[key] = list(provs[at : at + n])
                at += n

    def holds(self, pid: ProcessId, key: Any, prov: Any) -> bool:
        """Does ``pid`` hold version ``prov`` of ``key`` now?"""
        held = self.chains.get(pid)
        return held is not None and prov in held.get(key, ())


class CertifiedAck(Monitor):
    """Every "committed" the store answers was certified when given.

    A ``store_ack`` by process p at time t records that p answered a
    put "committed" with the write ``prov``.  A strict majority of p's
    view at t (the last view p installed) must then hold ``prov``, as
    :class:`StoreReplay` replays the members' stores up to that event:
    the retry contract's "applied and persisted by a majority of the
    certifying view" (docs/api.md).  Unlike :class:`AckedWriteLoss` it
    needs no write to be lost to fire, so it holds a run to the
    contract under schedules that recover every site too.  It reads the
    pass's store replay and holds each process's last install.
    """

    name = "CertifiedAck"
    feeds = (AppEvent, ViewInstallEvent)
    reads_stores = True

    def __init__(self, ctx: CheckContext = CONTEXT) -> None:
        super().__init__(ctx)
        self.stores = StoreReplay()
        self.installed: dict[ProcessId, ViewInstallEvent] = {}

    def feed(self, ev: TraceEvent) -> None:
        if type(ev) is ViewInstallEvent:
            self.installed[ev.pid] = ev
            return
        if ev.tag != "store_ack":
            return
        data = ev.data
        if not isinstance(data, dict) or not data.get("prov"):
            return
        self.checked += 1
        prov, key = data["prov"], data.get("key")
        view = self.installed.get(ev.pid)
        members = view.members if view is not None else frozenset()
        holders = sum(1 for m in members if self.stores.holds(m, key, prov))
        if 2 * holders <= len(members):
            self.found.append((
                self.checked,
                f"write {_provenance_text(prov)} on key {key!r} was acked "
                f"to its client by {ev.pid} at t={ev.time:g} while "
                f"{holders} of the {len(members)} members of its view "
                f"{view.view_id if view is not None else None} held it",
            ))


class LockExclusion(Monitor):
    """No lock grant lands over a live holder.

    A ``lock_apply`` by process p records a lock op (``kind`` grant or
    release, its ``subject``) and the ``holder`` p knew just before
    applying it.  A grant to s while another process h of p's view (the
    last view p installed) holds the lock takes the lock from h without
    h releasing it: h was told ``granted`` and has lost the lock, so
    two processes of one view each believe they hold it.  Holds each
    process's last installed membership.
    """

    name = "LockExclusion"
    feeds = (AppEvent, ViewInstallEvent)

    def __init__(self, ctx: CheckContext = CONTEXT) -> None:
        super().__init__(ctx)
        self.members: dict[ProcessId, frozenset[ProcessId]] = {}

    def feed(self, ev: TraceEvent) -> None:
        if type(ev) is ViewInstallEvent:
            self.members[ev.pid] = ev.members
            return
        data = ev.data
        if ev.tag != "lock_apply" or not isinstance(data, dict):
            return
        if data.get("kind") != "grant":
            return  # a release cannot take the lock from anyone
        self.checked += 1
        holder, subject = data.get("holder"), data.get("subject")
        if holder is None or holder == subject:
            return
        if holder in self.members.get(ev.pid, ()):
            self.found.append((
                self.checked,
                f"{ev.pid} applied a grant to {subject} at t={ev.time:g} "
                f"while {holder} of its view held the lock",
            ))


class ReplicaDivergence(Monitor):
    """The live replicas of one component end with one store, in order.

    Replays each process's ``store_state`` (every chain, in order:
    ``keys``, their chain ``lens`` and the ``provs`` in chain order) and
    ``store_apply`` events (a version appended, or inserted at ``at``)
    into the chains it holds at the end of the run, then groups the
    live store replicas by the last view each installed.  Within a
    group every key's versions must stand in one order, hence one head
    for an any-replica ``get``.  Multicast is FIFO per sender only, so a
    store whose result depended on the order in which different
    writers' puts arrived would fail here.  A put still in flight when
    the run ends is left out (only versions every replica of the group
    holds are compared); whether a version survives at all is
    :class:`AckedWriteLoss`'s business.  The replay is the pass's
    :class:`StoreReplay`.
    """

    name = "ReplicaDivergence"
    feeds = (ViewInstallEvent, CrashEvent)
    reads_stores = True

    def __init__(self, ctx: CheckContext = CONTEXT) -> None:
        super().__init__(ctx)
        self.stores = StoreReplay()
        self.dead: set[ProcessId] = set()
        self.last_view: dict[ProcessId, ViewId] = {}

    def feed(self, ev: TraceEvent) -> None:
        if type(ev) is ViewInstallEvent:
            self.last_view[ev.pid] = ev.view_id
        else:
            self.dead.add(ev.pid)

    def report(self) -> CheckReport:
        report = CheckReport(self.name)
        held = self.stores.chains
        if not held:
            return report
        components: dict[ViewId, list[ProcessId]] = {}
        for pid in sorted(held):
            if pid not in self.dead and pid in self.last_view:
                components.setdefault(self.last_view[pid], []).append(pid)
        for view_id, pids in components.items():
            if len(pids) < 2:
                continue
            keys = set().union(*(held[pid] for pid in pids))
            for key in sorted(keys, key=repr):
                report.checked += 1
                chains = [held[pid].get(key, ()) for pid in pids]
                # A put still in flight when the run ends is held by some
                # replicas only: compare the versions all hold.
                common = set(chains[0]).intersection(*chains[1:])
                orders = {tuple(p for p in chain if p in common) for chain in chains}
                if len(orders) > 1:
                    heads = {order[-1] for order in orders if order}
                    report.violation(
                        f"the {len(pids)} live replicas in {view_id} hold "
                        f"{len(orders)} orders of key {key!r}'s "
                        f"{len(common)} versions ({len(heads)} different heads)"
                    )
        return report


class ZombieIncarnation(Monitor):
    """No event from a crashed or superseded incarnation.

    A process identifier names one incarnation of a site.  After its
    crash is recorded, no later trace event may carry that pid; and
    once a site recovers under a fresh incarnation, deliveries
    attributed to a *retired* incarnation of the same site are zombie
    deliveries — state surviving where the failure model says it died.
    Holds one time per incarnation.
    """

    name = "ZombieIncarnation"
    feeds = None

    def __init__(self, ctx: CheckContext = CONTEXT) -> None:
        super().__init__(ctx)
        self.crashed_at: dict[ProcessId, float] = {}
        #: Incarnation -> the time a newer one of its site started.
        self.superseded_at: dict[ProcessId, float] = {}

    def feed(self, ev: TraceEvent) -> None:
        kind = type(ev)
        pid = ev.pid
        if kind is CrashEvent:
            self.crashed_at.setdefault(pid, ev.time)
            return
        if kind is RecoverEvent:
            for inc in range(pid.incarnation):
                self.superseded_at.setdefault(type(pid)(pid.site, inc), ev.time)
            return
        self.checked += 1
        t_dead = self.crashed_at.get(pid)
        if t_dead is not None and ev.time > t_dead:
            self.found.append((
                self.checked,
                f"{pid} recorded {kind.__name__} at t={ev.time:g} "
                f"after crashing at t={t_dead:g}",
            ))
            return
        if kind is DeliveryEvent:
            t_super = self.superseded_at.get(pid)
            if t_super is not None and ev.time > t_super:
                self.found.append((
                    self.checked,
                    f"retired incarnation {pid} delivered {ev.msg_id} "
                    f"at t={ev.time:g} after its site recovered as a "
                    f"newer incarnation at t={t_super:g}",
                ))

    def report(self) -> CheckReport:
        report = super().report()
        if not self.crashed_at and not self.superseded_at:
            report.checked = 0  # nothing died: nothing to check
        return report


# ---------------------------------------------------------------------------
# The table, and running from it
# ---------------------------------------------------------------------------


#: A check: its monitor's class, made afresh for each pass.
Check = type[Monitor]

#: Every check under its report name (``CHECKS[n].name == n``).
CHECKS: dict[str, Check] = {
    monitor.name: monitor
    for monitor in (
        Agreement,
        Uniqueness,
        Integrity,
        ViewMonotonicity,
        TotalOrder,
        CausalOrder,
        CutConsistency,
        Structure,
        AckedWriteLoss,
        CertifiedAck,
        LockExclusion,
        LostSettlement,
        ReplicaDivergence,
        StaleStateTransfer,
        SubviewMergeAtomicity,
        ZombieIncarnation,
    )
}

#: Section 2: Properties 2.1-2.3 plus the view-chain sanity check.
VIEW_SYNCHRONY = tuple(list(CHECKS)[:4])
#: Section 6: Properties 6.1-6.3 (both 6.2 formulations).
ENRICHED_VIEWS = tuple(list(CHECKS)[4:8])
#: The paper's properties, in report order: what every run is checked by.
PROPERTIES = VIEW_SYNCHRONY + ENRICHED_VIEWS
#: The sequence-pattern detectors, which a run names to be checked by.
DETECTORS = tuple(list(CHECKS)[8:])
#: The store's guarantees, checked on every run that serves the store.
STORE_CHECKS = ("AckedWriteLoss", "CertifiedAck", "ReplicaDivergence")


def make_checkers(names: Iterable[str] | None = None) -> list[tuple[str, Check]]:
    """``(name, check)`` for each named check (the detectors by default)."""
    names = DETECTORS if names is None else tuple(names)
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise ReproError(f"unknown checker(s) {unknown}; known: {sorted(CHECKS)}")
    return [(name, CHECKS[name]) for name in names]


class CheckPass:
    """Monitors fed one trace in one pass.

    What several monitors derive is derived here once: the view
    lifetimes every monitor is closed by, and the one store replay the
    monitors that read it share, fed each event before they are.  One
    monitor crashing (in its constructor, ``feed``, ``close`` or
    ``report``) becomes a violation of its own report, and the replay
    crashing becomes one of each monitor that reads it; the others run
    on.
    """

    def __init__(
        self, checks: Sequence[tuple[str, Check]], ctx: CheckContext = CONTEXT
    ) -> None:
        self.views = ViewLife()
        self.names = [name for name, _check in checks]
        self.monitors: list[Monitor | None] = []
        self.crashes: dict[int, Exception] = {}
        for index, (_name, check) in enumerate(checks):
            try:
                self.monitors.append(check(ctx))
            except Exception as exc:  # checker bugs must surface, not abort
                self.monitors.append(None)
                self.crashes[index] = exc
        readers = [m for m in self.monitors if m is not None and m.reads_stores]
        self.stores = StoreReplay() if readers else None
        for monitor in readers:
            monitor.stores = self.stores
        #: Event type -> the bound ``feed`` of the store replay (for an
        #: :class:`AppEvent`) and of each monitor subscribed to it.
        self._routes: dict[type, list] = {}

    def _route(self, kind: type) -> list:
        feeds = [
            monitor.feed
            for monitor in self.monitors
            if monitor is not None
            and (monitor.feeds is None or kind in monitor.feeds)
        ]
        if kind is AppEvent and self.stores is not None:
            feeds.insert(0, self.stores.feed)
        return feeds

    def _crashed(self, owner: Monitor | StoreReplay, exc: Exception) -> None:
        if owner is self.stores:
            self.stores = None
            for monitor in self.monitors:
                if monitor is not None and monitor.reads_stores:
                    self._crashed(monitor, exc)
            return
        index = next((i for i, m in enumerate(self.monitors) if m is owner), None)
        if index is None:
            return  # already crashed earlier in this event's feeds
        self.monitors[index] = None
        self.crashes[index] = exc
        self._routes.clear()

    def _close(self, ends: list[ViewEnd]) -> None:
        for end in ends:
            for monitor in self.monitors:
                if monitor is None:
                    continue
                try:
                    monitor.close(end)
                except Exception as exc:  # checker bugs must surface, not abort
                    self._crashed(monitor, exc)

    def feed_all(self, events: Iterable[TraceEvent]) -> None:
        """Feed every event, in order."""
        routes, views = self._routes, self.views
        for ev in events:
            kind = type(ev)
            feeds = routes.get(kind)
            if feeds is None:
                feeds = routes[kind] = self._route(kind)
            for feed in feeds:
                try:
                    feed(ev)
                except Exception as exc:  # checker bugs must surface, not abort
                    self._crashed(feed.__self__, exc)
            if kind is ViewInstallEvent:
                ends = views.install(ev)
                if ends:
                    self._close(ends)
            elif kind is CrashEvent:
                ends = views.crash(ev.pid)
                if ends:
                    self._close(ends)

    def reports(self) -> list[CheckReport]:
        """The trace ended: close the open views and report, in the
        order the checks were given."""
        self._close(self.views.finish())
        reports: list[CheckReport] = []
        for index, name in enumerate(self.names):
            monitor = self.monitors[index]
            if monitor is not None:
                try:
                    reports.append(monitor.report())
                    continue
                except Exception as exc:  # checker bugs must surface, not abort
                    self.crashes[index] = exc
            report = CheckReport(name)
            report.violation(f"checker crashed: {self.crashes[index]!r}")
            reports.append(report)
        return reports


def run_checkers(
    rec: TraceRecorder,
    checks: Sequence[tuple[str, Check]],
    ctx: CheckContext = CONTEXT,
) -> list[CheckReport]:
    """Run every check over ``rec`` in one pass of its events; one check
    crashing becomes a violation of its own report instead of aborting
    the sweep."""
    checking = CheckPass(checks, ctx)
    checking.feed_all(rec.events)
    return checking.reports()


def run_check(name: str, rec: TraceRecorder, ctx: CheckContext = CONTEXT) -> CheckReport:
    """The one named check over ``rec``."""
    (report,) = run_checkers(rec, make_checkers((name,)), ctx)
    return report


def check_view_synchrony(rec: TraceRecorder) -> list[CheckReport]:
    """All of Properties 2.1-2.3 plus the view-chain sanity check."""
    return run_checkers(rec, make_checkers(VIEW_SYNCHRONY))


def check_enriched_views(rec: TraceRecorder) -> list[CheckReport]:
    """All of Properties 6.1-6.3 (both 6.2 formulations)."""
    return run_checkers(rec, make_checkers(ENRICHED_VIEWS))


def all_ok(reports: list[CheckReport]) -> bool:
    return all(r.ok for r in reports)


def check_cluster(
    cluster: "ClusterPort", *, trace: TraceRecorder | None = None
) -> list[CheckReport]:
    """Run the paper's :data:`PROPERTIES` over a whole cluster's execution.

    Works on any :class:`~repro.ports.ClusterPort`: the trace comes
    from ``cluster.gather_trace()``, which is the simulator's single
    shared recorder or the real-network runtime's per-node recorders
    merged into one globally ordered history
    (:meth:`~repro.trace.recorder.TraceRecorder.merge`) — the checks
    themselves are identical on either.  Pass ``trace`` to reuse an
    already-gathered recorder (gathering merges on the realnet).
    """
    rec = trace if trace is not None else cluster.gather_trace()
    return run_checkers(rec, make_checkers(PROPERTIES))
