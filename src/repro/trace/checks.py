"""Mechanical checkers for the paper's six properties.

Each checker consumes a recorded trace and returns a
:class:`CheckReport`; an empty ``violations`` list means the property
held on that execution.  The test suite and the E2/E3/E4 experiments run
these over adversarial fault schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ports import ClusterPort
from repro.trace.events import (
    DeliveryEvent,
    EViewChangeEvent,
    MulticastEvent,
    ViewInstallEvent,
)
from repro.trace.recorder import TraceRecorder
from repro.types import ProcessId, ViewId


@dataclass
class CheckReport:
    """Outcome of one property check on one trace."""

    name: str
    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violation(self, text: str) -> None:
        self.violations.append(text)

    def merge(self, other: "CheckReport") -> "CheckReport":
        merged = CheckReport(f"{self.name}+{other.name}")
        merged.checked = self.checked + other.checked
        merged.violations = self.violations + other.violations
        return merged

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return f"[{self.name}] checked={self.checked} {status}"


# ---------------------------------------------------------------------------
# View synchrony: Properties 2.1 - 2.3
# ---------------------------------------------------------------------------


def check_agreement(rec: TraceRecorder) -> CheckReport:
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


def check_uniqueness(rec: TraceRecorder) -> CheckReport:
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


def check_integrity(rec: TraceRecorder) -> CheckReport:
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


def check_view_monotonicity(rec: TraceRecorder) -> CheckReport:
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


def check_view_synchrony(rec: TraceRecorder) -> list[CheckReport]:
    """All of Properties 2.1-2.3 plus the view-chain sanity check."""
    return [
        check_agreement(rec),
        check_uniqueness(rec),
        check_integrity(rec),
        check_view_monotonicity(rec),
    ]


# ---------------------------------------------------------------------------
# Enriched views: Properties 6.1 - 6.3
# ---------------------------------------------------------------------------


def check_total_order(rec: TraceRecorder) -> CheckReport:
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


def check_causal_order(rec: TraceRecorder) -> CheckReport:
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


def check_structure(rec: TraceRecorder) -> CheckReport:
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


def check_cut_consistency(rec: TraceRecorder) -> CheckReport:
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


def check_enriched_views(rec: TraceRecorder) -> list[CheckReport]:
    """All of Properties 6.1-6.3 (both 6.2 formulations)."""
    return [
        check_total_order(rec),
        check_causal_order(rec),
        check_cut_consistency(rec),
        check_structure(rec),
    ]


def all_ok(reports: list[CheckReport]) -> bool:
    return all(r.ok for r in reports)


# ---------------------------------------------------------------------------
# Cluster-level entry point (any runtime)
# ---------------------------------------------------------------------------


def check_cluster(
    cluster: "ClusterPort",
    *,
    enriched: bool = True,
    trace: TraceRecorder | None = None,
) -> list[CheckReport]:
    """Run the property checks over a whole cluster's execution.

    Works on any :class:`~repro.ports.ClusterPort`: the trace comes
    from ``cluster.gather_trace()``, which is the simulator's single
    shared recorder or the real-network runtime's per-node recorders
    merged into one globally ordered history
    (:meth:`~repro.trace.recorder.TraceRecorder.merge`) — the checkers
    themselves are identical on either.  Pass ``trace`` to reuse an
    already-gathered recorder (gathering merges on the realnet).

    Returns the Section 2 view-synchrony reports
    (:func:`check_view_synchrony`), plus the Section 6 enriched-view
    reports (:func:`check_enriched_views`) unless ``enriched=False``.
    """
    rec = trace if trace is not None else cluster.gather_trace()
    reports = check_view_synchrony(rec)
    if enriched:
        reports += check_enriched_views(rec)
    return reports
