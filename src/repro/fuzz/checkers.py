"""Pluggable trace checkers, RESTler-style.

The paper's six property checks (:mod:`repro.trace.checks`) verify the
*core* view-synchrony contract.  The fuzzer additionally runs a library
of independent sequence-pattern detectors over the same merged trace —
modeled on RESTler's checker architecture: each checker is a small
object that scans the execution history for one bug pattern, is
registered by name, and can be enabled/disabled per run.

Third-party checkers plug in three ways:

* :func:`register_checker` — decorate a subclass of
  :class:`TraceChecker` anywhere that gets imported;
* ``module:attr`` specs — :func:`load_checker` imports them on demand
  (the CLI's ``--checkers`` accepts these);
* entry points — :func:`discover_checkers` scans the
  ``repro.fuzz_checkers`` group of installed distributions.

Every checker receives a :class:`CheckContext` so detectors that reason
about elapsed time work on both runtimes: trace timestamps are backend
time, and ``time_scale`` converts the scenario-unit grace periods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.errors import ReproError
from repro.trace.checks import CheckReport
from repro.trace.events import (
    AppEvent,
    CrashEvent,
    DeliveryEvent,
    EViewChangeEvent,
    ModeChangeEvent,
    RecoverEvent,
    ViewInstallEvent,
)
from repro.trace.recorder import TraceRecorder

#: Entry-point group scanned by :func:`discover_checkers`.
ENTRY_POINT_GROUP = "repro.fuzz_checkers"


@dataclass
class CheckContext:
    """What a checker may know about the run besides the trace."""

    #: Backend-time cost of one scenario unit (1.0 on the simulator).
    time_scale: float = 1.0
    #: Universe size the cluster was built with (0 when unknown).
    n_sites: int = 0
    #: Free-form extras for third-party checkers.
    extras: dict = field(default_factory=dict)


class TraceChecker:
    """Base class: one bug-pattern detector over a merged trace."""

    #: Registry / report name; subclasses must override.
    name = "?"

    def run(self, rec: TraceRecorder, ctx: CheckContext) -> CheckReport:
        raise NotImplementedError

    def report(self) -> CheckReport:
        return CheckReport(self.name)


#: name -> zero-argument factory producing a fresh checker instance.
_REGISTRY: dict[str, Callable[[], TraceChecker]] = {}


def register_checker(cls: type[TraceChecker]) -> type[TraceChecker]:
    """Class decorator: make ``cls`` constructible by name."""
    if not cls.name or cls.name == "?":
        raise ReproError(f"checker {cls.__name__} needs a name")
    _REGISTRY[cls.name] = cls
    return cls


def registered_checkers() -> dict[str, Callable[[], TraceChecker]]:
    return dict(_REGISTRY)


def load_checker(spec: str) -> TraceChecker:
    """Instantiate a checker from a registry name or ``module:attr``."""
    factory = _REGISTRY.get(spec)
    if factory is not None:
        return factory()
    if ":" in spec:
        import importlib

        module_name, attr = spec.split(":", 1)
        try:
            obj = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError) as exc:
            raise ReproError(f"cannot load checker {spec!r}: {exc}") from exc
        return obj() if isinstance(obj, type) else obj
    raise ReproError(
        f"unknown checker {spec!r}; registered: {sorted(_REGISTRY)} "
        f"(or pass a module:attr spec)"
    )


def discover_checkers() -> list[str]:
    """Register checkers advertised via package entry points.

    Returns the names added.  Safe without importlib.metadata entry
    points for the group (returns an empty list).
    """
    added: list[str] = []
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - py>=3.10 always has it
        return added
    try:
        found = entry_points(group=ENTRY_POINT_GROUP)
    except TypeError:  # pragma: no cover - legacy dict API
        found = entry_points().get(ENTRY_POINT_GROUP, ())
    for ep in found:
        try:
            obj = ep.load()
        except Exception:  # one broken plugin must not kill discovery
            continue
        if isinstance(obj, type) and issubclass(obj, TraceChecker):
            register_checker(obj)
            added.append(obj.name)
    return added


def make_checkers(names: Iterable[str] | None = None) -> list[TraceChecker]:
    """Fresh instances: all registered checkers, or the named subset."""
    if names is None:
        return [factory() for _name, factory in sorted(_REGISTRY.items())]
    return [load_checker(name) for name in names]


def run_checkers(
    rec: TraceRecorder,
    checkers: Sequence[TraceChecker],
    ctx: CheckContext | None = None,
) -> list[CheckReport]:
    """Run every checker; one checker crashing becomes a violation of
    its own report instead of aborting the sweep."""
    ctx = ctx if ctx is not None else CheckContext()
    reports: list[CheckReport] = []
    for checker in checkers:
        try:
            reports.append(checker.run(rec, ctx))
        except Exception as exc:  # checker bugs must surface, not abort
            report = checker.report()
            report.violation(f"checker crashed: {exc!r}")
            reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# The seeded detector library
# ---------------------------------------------------------------------------


@register_checker
class StaleStateTransferChecker(TraceChecker):
    """A state transfer/merge adopted less than the best offered state.

    The settlement leader records every ``settle_decide`` with the
    offered versions and the version actually adopted.  Outside state
    *creation* (where last-process-to-fail selection may legitimately
    prefer an older-versioned snapshot), adopting a version below the
    maximum offered silently discards committed operations.
    """

    name = "StaleStateTransfer"

    def run(self, rec: TraceRecorder, ctx: CheckContext) -> CheckReport:
        report = self.report()
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


@register_checker
class LostSettlementChecker(TraceChecker):
    """A process entered S-mode and the settlement never came.

    After the run's settle tail, a process still in SETTLING whose view
    has been stable for longer than the grace period — with no
    settlement activity anywhere in that window, and not parked on the
    legitimate ``settle_wait_all_sites`` state-creation barrier — lost
    its internal operation: the leader never started (or never
    finished) the session that would reconcile it back to N-mode.
    """

    name = "LostSettlement"

    def __init__(self, grace: float = 120.0) -> None:
        #: Scenario units of quiet after which a stuck S counts as lost.
        self.grace = grace

    def run(self, rec: TraceRecorder, ctx: CheckContext) -> CheckReport:
        report = self.report()
        if not rec.events:
            return report
        t_end = max(ev.time for ev in rec.events)
        grace = self.grace * ctx.time_scale
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
            ev
            for ev in rec.of_type(AppEvent)
            if ev.tag.startswith("settle")
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
                f"{self.grace:g} scenario units"
            )
        return report


@register_checker
class SubviewMergeAtomicityChecker(TraceChecker):
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

    name = "SubviewMergeAtomicity"

    def run(self, rec: TraceRecorder, ctx: CheckContext) -> CheckReport:
        report = self.report()
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
        successor = rec.successor_views()
        groups: dict = {}
        for (pid, prev), nxt in successor.items():
            groups.setdefault((prev, nxt), set()).add(pid)
        for (prev, _nxt), pids in groups.items():
            counts = {
                pid: max_seq[(pid, prev)]
                for pid in pids
                if (pid, prev) in max_seq
            }
            if len(counts) < 2:
                continue
            report.checked += 1
            if len(set(counts.values())) > 1:
                detail = ", ".join(
                    f"{pid}={count}" for pid, count in sorted(
                        counts.items(), key=lambda kv: repr(kv[0])
                    )
                )
                report.violation(
                    f"survivors of {prev} applied different e-view change "
                    f"counts: {detail}"
                )
        return report


@register_checker
class AckedWriteLossChecker(TraceChecker):
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
    """

    name = "AckedWriteLoss"

    def run(self, rec: TraceRecorder, ctx: CheckContext) -> CheckReport:
        report = self.report()
        acked: dict[tuple, tuple] = {}  # prov -> (time, pid, key)
        holdings: dict = {}  # pid -> set of prov tuples
        # Replay in time order: a later store_state replaces holdings,
        # so ordering against store_apply matters.
        for ev in sorted(rec.of_type(AppEvent), key=lambda e: e.time):
            if not isinstance(ev.data, dict):
                continue
            if ev.tag == "store_ack":
                prov = tuple(ev.data.get("prov", ()))
                if prov:
                    acked.setdefault(prov, (ev.time, ev.pid, ev.data.get("key")))
            elif ev.tag == "store_apply":
                prov = tuple(ev.data.get("prov", ()))
                if prov:
                    holdings.setdefault(ev.pid, set()).add(prov)
            elif ev.tag == "store_state":
                holdings[ev.pid] = {
                    tuple(p) for p in ev.data.get("provs", ())
                }
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
                    f"write {prov} on key {key!r} was acked to its client "
                    f"by {pid} at t={time:g} but no live process retains "
                    f"it at the end of the run"
                )
        return report


@register_checker
class ReplicaDivergenceChecker(TraceChecker):
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
    :class:`AckedWriteLossChecker`'s business.
    """

    name = "ReplicaDivergence"

    def run(self, rec: TraceRecorder, ctx: CheckContext) -> CheckReport:
        report = self.report()
        held: dict = {}  # pid -> key -> [prov tuple, ...] in chain order
        for ev in rec.of_type(AppEvent):
            if not isinstance(ev.data, dict):
                continue
            if ev.tag == "store_apply":
                chain = held.setdefault(ev.pid, {}).setdefault(ev.data.get("key"), [])
                chain.insert(ev.data.get("at", len(chain)), tuple(ev.data.get("prov", ())))
            elif ev.tag == "store_state":
                provs = [tuple(p) for p in ev.data.get("provs", ())]
                chains = held[ev.pid] = {}
                at = 0
                for key, n in zip(ev.data.get("keys", ()), ev.data.get("lens", ())):
                    chains[key] = provs[at : at + n]
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
                # A put still in flight when the run ends is held by
                # some replicas only: compare the versions all hold.
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


@register_checker
class ZombieIncarnationChecker(TraceChecker):
    """No event from a crashed or superseded incarnation.

    A process identifier names one incarnation of a site.  After its
    crash is recorded, no later trace event may carry that pid; and
    once a site recovers under a fresh incarnation, deliveries
    attributed to a *retired* incarnation of the same site are zombie
    deliveries — state surviving where the failure model says it died.
    """

    name = "ZombieIncarnation"

    def run(self, rec: TraceRecorder, ctx: CheckContext) -> CheckReport:
        report = self.report()
        crashed_at: dict = {}
        superseded_at: dict = {}  # pid -> time a newer incarnation started
        for ev in rec.events:
            if type(ev) is CrashEvent:
                crashed_at.setdefault(ev.pid, ev.time)
            elif type(ev) is RecoverEvent:
                site = ev.pid.site
                for inc in range(ev.pid.incarnation):
                    old = type(ev.pid)(site, inc)
                    superseded_at.setdefault(old, ev.time)
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
