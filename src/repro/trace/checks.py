"""Every check of a run, in one table.

A check is a function ``(trace, ctx) -> CheckReport``; an empty
``violations`` list means what it checks held on that execution.
:data:`CHECKS` lists every check under its report name:

* the paper's properties (:data:`PROPERTIES`): Agreement (2.1),
  Uniqueness (2.2), Integrity (2.3) and the view-chain sanity check for
  view synchrony, then Total Order (6.1), Causal Order (6.2, as a
  mechanism and as consistent cuts) and Structure (6.3) for enriched
  views;
* the sequence-pattern detectors (:data:`DETECTORS`), RESTler-style:
  each scans the trace for one bug pattern the properties do not state
  (a stale state transfer, a lost settlement, a torn subview merge, an
  acked write lost, replicas in different orders, a zombie
  incarnation), and is chosen by name.

:func:`check_cluster` runs the properties over a cluster's trace,
:func:`make_checkers`/:func:`run_checkers` run any named subset; the
workload runner, the CLI (``--checkers``, ``recheck``) and the fuzzer
all pick from this one table.  The test suite and the E2/E3/E4
experiments run these over adversarial fault schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

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
    ViewInstallEvent,
)
from repro.trace.recorder import TraceRecorder
from repro.types import ProcessId, ViewId


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

#: A check: a trace and its context in, one report out.
Check = Callable[[TraceRecorder, CheckContext], CheckReport]


# ---------------------------------------------------------------------------
# View synchrony: Properties 2.1 - 2.3
# ---------------------------------------------------------------------------


def check_agreement(rec: TraceRecorder, ctx: CheckContext = CONTEXT) -> CheckReport:
    """Property 2.1: processes that survive from one view to the same
    next view deliver the same set of messages (in the old view)."""
    report = CheckReport("Agreement(2.1)")
    groups: dict[tuple[ViewId, ViewId], set[ProcessId]] = {}
    for (pid, prev), nxt in rec.successor_views().items():
        groups.setdefault((prev, nxt), set()).add(pid)
    for (prev, nxt), pids in groups.items():
        if len(pids) < 2:
            continue
        report.checked += 1
        sets = {pid: frozenset(rec.deliveries_in_view(pid, prev)) for pid in pids}
        reference = next(iter(sets.values()))
        for pid, delivered in sets.items():
            if delivered != reference:
                diff = delivered ^ reference
                report.violation(
                    f"survivors of {prev}->{nxt} disagree: {pid} differs on {diff}"
                )
    return report


def check_uniqueness(rec: TraceRecorder, ctx: CheckContext = CONTEXT) -> CheckReport:
    """Property 2.2: a message is delivered in at most one view."""
    report = CheckReport("Uniqueness(2.2)")
    views_of: dict = {}
    for ev in rec.of_type(DeliveryEvent):
        views_of.setdefault(ev.msg_id, set()).add(ev.view_id)
    report.checked = len(views_of)
    for msg_id, views in views_of.items():
        if len(views) > 1:
            report.violation(f"{msg_id} delivered in {len(views)} views: {views}")
    return report


def check_integrity(rec: TraceRecorder, ctx: CheckContext = CONTEXT) -> CheckReport:
    """Property 2.3: at-most-once per process, and only genuine messages."""
    report = CheckReport("Integrity(2.3)")
    multicast_ids = {ev.msg_id for ev in rec.of_type(MulticastEvent)}
    seen: set = set()
    for ev in rec.of_type(DeliveryEvent):
        report.checked += 1
        key = (ev.pid, ev.msg_id)
        if key in seen:
            report.violation(f"{ev.pid} delivered {ev.msg_id} twice")
        seen.add(key)
        if ev.msg_id not in multicast_ids:
            report.violation(f"{ev.pid} delivered never-multicast {ev.msg_id}")
    return report


def check_view_monotonicity(
    rec: TraceRecorder, ctx: CheckContext = CONTEXT
) -> CheckReport:
    """Sanity: each process installs strictly increasing view ids."""
    report = CheckReport("ViewMonotonicity")
    for pid in {ev.pid for ev in rec.of_type(ViewInstallEvent)}:
        seq = rec.view_sequence(pid)
        report.checked += 1
        for earlier, later in zip(seq, seq[1:]):
            if later.view_id <= earlier.view_id:
                report.violation(
                    f"{pid} installed {later.view_id} after {earlier.view_id}"
                )
            if later.prev_view_id != earlier.view_id:
                report.violation(
                    f"{pid} has broken view chain at {later.view_id}"
                )
    return report


# ---------------------------------------------------------------------------
# Enriched views: Properties 6.1 - 6.3
# ---------------------------------------------------------------------------


def check_total_order(rec: TraceRecorder, ctx: CheckContext = CONTEXT) -> CheckReport:
    """Property 6.1: e-view changes within a view are totally ordered.

    Concretely: every process applies consecutively numbered changes
    starting at 0 (the install), and any two processes that applied the
    same change number in the same view saw the identical structure.
    """
    report = CheckReport("TotalOrder(6.1)")
    per_proc: dict[tuple[ProcessId, ViewId], list[EViewChangeEvent]] = {}
    canonical: dict[tuple[ViewId, int], tuple] = {}
    for ev in rec.of_type(EViewChangeEvent):
        per_proc.setdefault((ev.pid, ev.view_id), []).append(ev)
        key = (ev.view_id, ev.eview_seq)
        snapshot = (ev.subviews, ev.svsets)
        if key in canonical:
            report.checked += 1
            if canonical[key] != snapshot:
                report.violation(
                    f"divergent structure at {ev.view_id} seq {ev.eview_seq}"
                )
        else:
            canonical[key] = snapshot
    for (pid, vid), events in per_proc.items():
        report.checked += 1
        seqs = [e.eview_seq for e in events]
        if seqs != sorted(seqs):
            report.violation(f"{pid} applied e-view changes out of order in {vid}")
        if seqs and (seqs[0] != 0 or seqs != list(range(len(seqs)))):
            report.violation(
                f"{pid} skipped e-view changes in {vid}: applied {seqs}"
            )
    return report


def check_causal_order(rec: TraceRecorder, ctx: CheckContext = CONTEXT) -> CheckReport:
    """Property 6.2: e-view changes are consistent cuts — no process
    delivers a message multicast after an e-view change it has not yet
    applied itself."""
    report = CheckReport("CausalOrder(6.2)")
    applied: dict[tuple[ProcessId, ViewId], int] = {}
    for ev in rec.events:
        if isinstance(ev, EViewChangeEvent):
            applied[(ev.pid, ev.view_id)] = ev.eview_seq
        elif isinstance(ev, DeliveryEvent):
            report.checked += 1
            have = applied.get((ev.pid, ev.view_id), -1)
            if ev.sender_eview_seq > have:
                report.violation(
                    f"{ev.pid} delivered {ev.msg_id} tagged e-view seq "
                    f"{ev.sender_eview_seq} while at seq {have}"
                )
    return report


def _subview_partner_map(snapshot: tuple) -> dict[ProcessId, frozenset[ProcessId]]:
    return {pid: members for _, members in snapshot for pid in members}


def check_structure(rec: TraceRecorder, ctx: CheckContext = CONTEXT) -> CheckReport:
    """Property 6.3: subview and sv-set structures are preserved across
    view changes, and never split within a view.

    Two parts:

    * *across views*: processes common to ``v`` and its successor ``v'``
      that shared a subview (sv-set) at the end of ``v`` still share one
      at the start of ``v'``;
    * *within a view*: successive structure snapshots at one process only
      coarsen (merges), never split.
    """
    report = CheckReport("Structure(6.3)")
    # Last snapshot per (pid, view) and first (seq 0) snapshot per (pid, view).
    last: dict[tuple[ProcessId, ViewId], EViewChangeEvent] = {}
    first: dict[tuple[ProcessId, ViewId], EViewChangeEvent] = {}
    history: dict[tuple[ProcessId, ViewId], list[EViewChangeEvent]] = {}
    for ev in rec.of_type(EViewChangeEvent):
        key = (ev.pid, ev.view_id)
        last[key] = ev
        if key not in first or ev.eview_seq < first[key].eview_seq:
            first[key] = ev
        history.setdefault(key, []).append(ev)
    # Like Agreement (2.1), the property quantifies over processes that
    # "survive from one view to the same next view": the pair (p, q) is
    # constrained only when q's own installed-view chain also has v as
    # the immediate predecessor of v'.  A process listed in a view it
    # never adopted, or one that reached v' through an intermediate view
    # the other never installed, did not take the v -> v' transition.
    successor: dict[tuple[ProcessId, ViewId], ViewId] = rec.successor_views()

    # Within-view: no splits.
    for (pid, vid), events in history.items():
        for earlier, later in zip(events, events[1:]):
            report.checked += 1
            earlier_map = _subview_partner_map(earlier.subviews)
            later_map = _subview_partner_map(later.subviews)
            for member, mates in earlier_map.items():
                if member in later_map and not mates <= later_map[member]:
                    report.violation(
                        f"subview of {member} split within {vid} at {pid}"
                    )

    # Across views.
    for ev in rec.of_type(ViewInstallEvent):
        if ev.prev_view_id is None:
            continue
        old_key = (ev.pid, ev.prev_view_id)
        new_key = (ev.pid, ev.view_id)
        if old_key not in last or new_key not in first:
            continue
        report.checked += 1
        old_subviews = _subview_partner_map(last[old_key].subviews)
        new_subviews = _subview_partner_map(first[new_key].subviews)
        transitioned = {
            q
            for q in old_subviews
            if successor.get((q, ev.prev_view_id)) == ev.view_id
        }
        survivors = set(old_subviews) & set(new_subviews) & transitioned
        for member in survivors:
            old_mates = old_subviews[member] & frozenset(survivors)
            if not old_mates <= new_subviews[member]:
                report.violation(
                    f"subview mates of {member} separated across "
                    f"{ev.prev_view_id} -> {ev.view_id}"
                )
        old_ssets = _svset_partner_map(last[old_key])
        new_ssets = _svset_partner_map(first[new_key])
        for member in survivors:
            old_mates = old_ssets.get(member, frozenset()) & frozenset(survivors)
            if member in new_ssets and not old_mates <= new_ssets[member]:
                report.violation(
                    f"sv-set mates of {member} separated across "
                    f"{ev.prev_view_id} -> {ev.view_id}"
                )
    return report


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


def check_cut_consistency(
    rec: TraceRecorder, ctx: CheckContext = CONTEXT
) -> CheckReport:
    """Property 6.2, order-theoretic form: e-view changes define
    consistent cuts of the computation.

    Where :func:`check_causal_order` verifies the *mechanism* (the
    sender's sequence tag never exceeds the receiver's applied count),
    this checker verifies the *definition*: for every e-view change
    ``(v, k)``, no multicast issued by a process after it applied the
    change is delivered by another process before that process applied
    it.  Happens-before is generated by per-process event order plus
    multicast -> delivery edges, reconstructed from the trace alone.
    """
    report = CheckReport("CutConsistency(6.2)")
    # One pass: each event's index in its own process's sequence, kept
    # for the three kinds the cuts are defined over.
    seen: dict[ProcessId, int] = {}
    # Application points of each e-view change per process.
    applied_at: dict[tuple[ViewId, int], dict[ProcessId, int]] = {}
    mcast_pos: dict = {}
    # A cut constrains only the deliveries made in its own view.
    delivered_in: dict[ViewId, list[tuple[DeliveryEvent, int]]] = {}
    for ev in rec.events:
        pid = getattr(ev, "pid", None)
        if pid is None:
            continue
        at = seen.get(pid, 0)
        seen[pid] = at + 1
        kind = type(ev)
        if kind is DeliveryEvent:
            delivered_in.setdefault(ev.view_id, []).append((ev, at))
        elif kind is MulticastEvent:
            mcast_pos[ev.msg_id] = (pid, at)
        elif kind is EViewChangeEvent:
            applied_at.setdefault((ev.view_id, ev.eview_seq), {})[pid] = at

    for (view_id, seq_no), cut in applied_at.items():
        if seq_no == 0:
            continue  # the install itself is covered by view semantics
        report.checked += 1
        for ev, delivered_at in delivered_in.get(view_id, ()):
            if ev.pid not in cut:
                continue
            origin = mcast_pos.get(ev.msg_id)
            if origin is None:
                continue
            sender, sent_at = origin
            if sender not in cut:
                continue
            sent_after_cut = sent_at > cut[sender]
            delivered_before_cut = delivered_at < cut[ev.pid]
            if sent_after_cut and delivered_before_cut:
                report.violation(
                    f"{ev.msg_id} crosses the cut of e-view change "
                    f"({view_id}, {seq_no}) backwards: sent after at "
                    f"{sender}, delivered before at {ev.pid}"
                )
    return report




# ---------------------------------------------------------------------------
# Sequence-pattern detectors
# ---------------------------------------------------------------------------


def check_stale_state_transfer(
    rec: TraceRecorder, ctx: CheckContext = CONTEXT
) -> CheckReport:
    """A state transfer/merge adopted less than the best offered state.

    The settlement leader records every ``settle_decide`` with the
    offered versions and the version actually adopted.  Outside state
    *creation* (where last-process-to-fail selection may legitimately
    prefer an older-versioned snapshot), adopting a version below the
    maximum offered silently discards committed operations.
    """
    report = CheckReport("StaleStateTransfer")
    for ev in rec.of_type(AppEvent):
        if ev.tag != "settle_decide" or not isinstance(ev.data, dict):
            continue
        if ev.data.get("kind") not in ("transfer", "merge"):
            continue
        versions = ev.data.get("versions")
        chosen = ev.data.get("chosen_version")
        if not versions or chosen is None:
            continue  # trace predates version accounting
        report.checked += 1
        best = max(versions)
        if chosen < best:
            report.violation(
                f"{ev.pid} adopted version {chosen} but a donor offered "
                f"{best} (t={ev.time:g}, kind={ev.data.get('kind')})"
            )
    return report


#: Scenario units of quiet after which a process stuck in S counts as
#: a lost settlement.
LOST_SETTLEMENT_GRACE = 120.0


def check_lost_settlement(
    rec: TraceRecorder, ctx: CheckContext = CONTEXT
) -> CheckReport:
    """A process entered S-mode and the settlement never came.

    After the run's settle tail, a process still in SETTLING whose view
    has been stable for longer than :data:`LOST_SETTLEMENT_GRACE` —
    with no settlement activity anywhere in that window, and not parked
    on the legitimate ``settle_wait_all_sites`` state-creation barrier —
    lost its internal operation: the leader never started (or never
    finished) the session that would reconcile it back to N-mode.
    """
    report = CheckReport("LostSettlement")
    if not rec.events:
        return report
    t_end = max(ev.time for ev in rec.events)
    grace = LOST_SETTLEMENT_GRACE * ctx.time_scale
    crashed = {ev.pid for ev in rec.of_type(CrashEvent)}
    last_mode: dict = {}
    mode_at: dict = {}
    for ev in rec.of_type(ModeChangeEvent):
        last_mode[ev.pid] = ev.new_mode
        mode_at[ev.pid] = ev.time
    last_install: dict = {}
    for ev in rec.of_type(ViewInstallEvent):
        last_install[ev.pid] = ev.time
    settle_events = [
        ev for ev in rec.of_type(AppEvent) if ev.tag.startswith("settle")
    ]
    latest_settle = max((ev.time for ev in settle_events), default=None)
    waiting_all_sites = {
        ev.pid
        for ev in settle_events
        if ev.tag == "settle_wait_all_sites" and ev.time > t_end - grace
    }
    for pid, mode in sorted(last_mode.items(), key=lambda kv: repr(kv[0])):
        if pid in crashed:
            continue
        report.checked += 1
        if mode != "S":
            continue
        if t_end - last_install.get(pid, t_end) < grace:
            continue  # view changed recently; settlement may be due
        if t_end - mode_at.get(pid, t_end) < grace:
            continue
        if latest_settle is not None and t_end - latest_settle < grace:
            continue  # a session is visibly making progress
        if waiting_all_sites:
            continue  # creation legitimately parked on missing sites
        report.violation(
            f"{pid} stuck in S-mode since t={mode_at.get(pid, 0.0):g} "
            f"with no settlement activity in the last "
            f"{LOST_SETTLEMENT_GRACE:g} scenario units"
        )
    return report


def check_subview_merge_atomicity(
    rec: TraceRecorder, ctx: CheckContext = CONTEXT
) -> CheckReport:
    """Subview merges must be whole and agreed.

    Two patterns (Section 6.2's merge discipline):

    * *whole*: within a view, a later structure's subview must be the
      union of complete earlier subviews — a subview that absorbs only
      part of another was split by the merge, which the paper forbids;
    * *agreed*: processes that survive a view change into the same next
      view must have applied the same number of e-view changes in the
      old view — a survivor that missed a merge violates the
      view-synchronous delivery of e-view changes.
    """
    report = CheckReport("SubviewMergeAtomicity")
    canonical: dict = {}
    max_seq: dict = {}
    for ev in rec.of_type(EViewChangeEvent):
        canonical.setdefault((ev.view_id, ev.eview_seq), ev.subviews)
        key = (ev.pid, ev.view_id)
        if ev.eview_seq > max_seq.get(key, -1):
            max_seq[key] = ev.eview_seq
    by_view: dict = {}
    for (view_id, seq), subviews in canonical.items():
        by_view.setdefault(view_id, {})[seq] = subviews
    # Whole-subview merges within each view.
    for view_id, seq_map in by_view.items():
        for seq in sorted(seq_map):
            before = seq_map.get(seq - 1)
            if before is None:
                continue
            report.checked += 1
            old_sets = [members for _, members in before]
            for sid, members in seq_map[seq]:
                parts = [m for m in old_sets if m & members]
                torn = [m for m in parts if not m <= members]
                union = frozenset().union(*parts) if parts else frozenset()
                if torn or (parts and union != members):
                    report.violation(
                        f"partial subview merge at {view_id} seq {seq}: "
                        f"{sid} is not a union of whole prior subviews"
                    )
    # Survivor agreement on the e-view change count.
    groups: dict = {}
    for (pid, prev), nxt in rec.successor_views().items():
        groups.setdefault((prev, nxt), set()).add(pid)
    for (prev, _nxt), pids in groups.items():
        counts = {
            pid: max_seq[(pid, prev)] for pid in pids if (pid, prev) in max_seq
        }
        if len(counts) < 2:
            continue
        report.checked += 1
        if len(set(counts.values())) > 1:
            detail = ", ".join(
                f"{pid}={count}"
                for pid, count in sorted(counts.items(), key=lambda kv: repr(kv[0]))
            )
            report.violation(
                f"survivors of {prev} applied different e-view change "
                f"counts: {detail}"
            )
    return report


def check_acked_write_loss(
    rec: TraceRecorder, ctx: CheckContext = CONTEXT
) -> CheckReport:
    """No acknowledged client write may vanish from the store.

    :class:`~repro.apps.versioned_store.VersionedStore` records three
    audit events: ``store_ack`` when a put earns its quorum certificate
    (the client saw "ok"), ``store_apply`` when a member adds a version,
    and ``store_state`` whenever a member's whole chain set is
    *replaced* (state adoption after settlement, or a disk restore on
    recovery) — carrying the provenance of every version it now holds.

    Replaying those per process — ``store_state`` resets the process's
    holdings, ``store_apply`` adds to them — yields what each process
    retains at the end of the run.  Every acked provenance must appear
    in the union over processes still alive at the end: merges are
    provenance-unions, so losing an acked write means a state decision
    discarded a version some client was promised.

    A provenance is the store's own
    :class:`~repro.core.versioning.Provenance` in a recorded trace and
    its flat ``(epoch, site, incarnation, seq)`` in an imported one.
    Either is read as it is, and a report prints the flat form, so a
    trace and its export report the same text.
    """
    # trace.export imports repro.core, whose package imports
    # repro.trace and so this module: bound at call time, not at the top.
    from repro.trace.export import flat_provenance

    report = CheckReport("AckedWriteLoss")
    acked: dict[tuple, tuple] = {}  # prov -> (time, pid, key)
    holdings: dict = {}  # pid -> set of provs
    # Replay in time order: a later store_state replaces holdings, so
    # ordering against store_apply matters.
    for ev in sorted(rec.of_type(AppEvent), key=lambda e: e.time):
        if not isinstance(ev.data, dict):
            continue
        if ev.tag == "store_ack":
            prov = ev.data.get("prov")
            if prov:
                acked.setdefault(prov, (ev.time, ev.pid, ev.data.get("key")))
        elif ev.tag == "store_apply":
            prov = ev.data.get("prov")
            if prov:
                holdings.setdefault(ev.pid, set()).add(prov)
        elif ev.tag == "store_state":
            holdings[ev.pid] = set(ev.data.get("provs", ()))
    if not acked:
        return report
    dead = {ev.pid for ev in rec.of_type(CrashEvent)}
    retained: set = set()
    for pid, provs in holdings.items():
        if pid not in dead:
            retained |= provs
    for prov, (time, pid, key) in sorted(acked.items()):
        report.checked += 1
        if prov not in retained:
            report.violation(
                f"write {flat_provenance(prov)} on key {key!r} was acked "
                f"to its client by {pid} at t={time:g} but no live process "
                f"retains it at the end of the run"
            )
    return report


def check_replica_divergence(
    rec: TraceRecorder, ctx: CheckContext = CONTEXT
) -> CheckReport:
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
    :func:`check_acked_write_loss`'s business.  Provenances are read in
    either form, as there.
    """
    report = CheckReport("ReplicaDivergence")
    held: dict = {}  # pid -> key -> [prov, ...] in chain order
    for ev in rec.of_type(AppEvent):
        if not isinstance(ev.data, dict):
            continue
        if ev.tag == "store_apply":
            chain = held.setdefault(ev.pid, {}).setdefault(ev.data.get("key"), [])
            chain.insert(ev.data.get("at", len(chain)), ev.data.get("prov"))
        elif ev.tag == "store_state":
            provs = ev.data.get("provs", ())
            chains = held[ev.pid] = {}
            at = 0
            for key, n in zip(ev.data.get("keys", ()), ev.data.get("lens", ())):
                chains[key] = list(provs[at : at + n])
                at += n
    if not held:
        return report
    dead = {ev.pid for ev in rec.of_type(CrashEvent)}
    last_view: dict = {}
    for ev in rec.of_type(ViewInstallEvent):
        last_view[ev.pid] = ev.view_id
    components: dict = {}
    for pid in sorted(held):
        if pid not in dead and pid in last_view:
            components.setdefault(last_view[pid], []).append(pid)
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


def check_zombie_incarnation(
    rec: TraceRecorder, ctx: CheckContext = CONTEXT
) -> CheckReport:
    """No event from a crashed or superseded incarnation.

    A process identifier names one incarnation of a site.  After its
    crash is recorded, no later trace event may carry that pid; and
    once a site recovers under a fresh incarnation, deliveries
    attributed to a *retired* incarnation of the same site are zombie
    deliveries — state surviving where the failure model says it died.
    """
    report = CheckReport("ZombieIncarnation")
    crashed_at: dict = {}
    superseded_at: dict = {}  # pid -> time a newer incarnation started
    for ev in rec.events:
        if type(ev) is CrashEvent:
            crashed_at.setdefault(ev.pid, ev.time)
        elif type(ev) is RecoverEvent:
            site = ev.pid.site
            for inc in range(ev.pid.incarnation):
                superseded_at.setdefault(type(ev.pid)(site, inc), ev.time)
    if not crashed_at and not superseded_at:
        return report
    for ev in rec.events:
        if type(ev) in (CrashEvent, RecoverEvent):
            continue
        pid = getattr(ev, "pid", None)
        if pid is None:
            continue
        report.checked += 1
        t_dead = crashed_at.get(pid)
        if t_dead is not None and ev.time > t_dead:
            report.violation(
                f"{pid} recorded {type(ev).__name__} at t={ev.time:g} "
                f"after crashing at t={t_dead:g}"
            )
            continue
        if type(ev) is DeliveryEvent:
            t_super = superseded_at.get(pid)
            if t_super is not None and ev.time > t_super:
                report.violation(
                    f"retired incarnation {pid} delivered {ev.msg_id} "
                    f"at t={ev.time:g} after its site recovered as a "
                    f"newer incarnation at t={t_super:g}"
                )
    return report


# ---------------------------------------------------------------------------
# The table, and running from it
# ---------------------------------------------------------------------------


#: Every check under its report name (``CHECKS[n](rec).name == n``).
CHECKS: dict[str, Check] = {
    "Agreement(2.1)": check_agreement,
    "Uniqueness(2.2)": check_uniqueness,
    "Integrity(2.3)": check_integrity,
    "ViewMonotonicity": check_view_monotonicity,
    "TotalOrder(6.1)": check_total_order,
    "CausalOrder(6.2)": check_causal_order,
    "CutConsistency(6.2)": check_cut_consistency,
    "Structure(6.3)": check_structure,
    "AckedWriteLoss": check_acked_write_loss,
    "LostSettlement": check_lost_settlement,
    "ReplicaDivergence": check_replica_divergence,
    "StaleStateTransfer": check_stale_state_transfer,
    "SubviewMergeAtomicity": check_subview_merge_atomicity,
    "ZombieIncarnation": check_zombie_incarnation,
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
STORE_CHECKS = ("AckedWriteLoss", "ReplicaDivergence")


def make_checkers(names: Iterable[str] | None = None) -> list[tuple[str, Check]]:
    """``(name, check)`` for each named check (the detectors by default)."""
    names = DETECTORS if names is None else tuple(names)
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise ReproError(f"unknown checker(s) {unknown}; known: {sorted(CHECKS)}")
    return [(name, CHECKS[name]) for name in names]


def run_checkers(
    rec: TraceRecorder,
    checks: Sequence[tuple[str, Check]],
    ctx: CheckContext = CONTEXT,
) -> list[CheckReport]:
    """Run every check; one check crashing becomes a violation of its
    own report instead of aborting the sweep."""
    reports: list[CheckReport] = []
    for name, check in checks:
        try:
            reports.append(check(rec, ctx))
        except Exception as exc:  # checker bugs must surface, not abort
            report = CheckReport(name)
            report.violation(f"checker crashed: {exc!r}")
            reports.append(report)
    return reports


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
