"""A checked run keeps one copy of each fact.

The store's audit events reference the provenances its chains and put
handles already hold, instead of flat copies of them, and the checks
read a recorded trace and its exported copy alike: same names, same
checked counts, same violation texts.
"""

from __future__ import annotations

import collections
import io

from repro.apps.versioned_store import VersionedStore
from repro.core.versioning import Provenance
from repro.fuzz import bugs
from repro.net.faults import FaultSchedule, Heal, Partition
from repro.ports import make_cluster
from repro.trace.checks import CHECKS, make_checkers, run_checkers
from repro.trace.events import AppEvent, CrashEvent, StoreApplied
from repro.trace.export import dump_trace, load_trace
from repro.trace.recorder import TraceRecorder
from repro.types import ProcessId
from repro.workload.clients import StoreClient
from repro.workload.runner import run_checked_workload
from tests.test_golden_traces import store_faults_trace

P0 = ProcessId(0)


def _reports(rec: TraceRecorder) -> list[tuple[str, int, list[str]]]:
    reports = run_checkers(rec, make_checkers(CHECKS))
    return [(r.name, r.checked, r.violations) for r in reports]


def _dumped(rec: TraceRecorder) -> str:
    out = io.StringIO()
    dump_trace(rec, out)
    return out.getvalue()


def _store_events(rec: TraceRecorder, tag: str) -> list[AppEvent]:
    return [ev for ev in rec.of_type(AppEvent) if ev.tag == tag]


def test_store_faults_checks_read_the_same_on_the_export() -> None:
    trace, _cluster = store_faults_trace()
    text = _dumped(trace)
    imported = load_trace(text.splitlines())
    assert _dumped(imported) == text
    assert _reports(imported) == _reports(trace)
    # The recorded trace holds the store's provenances in fixed-shape
    # records; the import holds their flat form in dicts.
    for rec, record, kind in ((trace, StoreApplied, Provenance), (imported, dict, tuple)):
        applied = [ev.data for ev in _store_events(rec, "store_apply")]
        assert applied and all(type(data) is record for data in applied)
        provs = [StoreApplied.read(data).prov for data in applied]
        assert all(type(p) is kind for p in provs)


def test_planted_append_order_reads_the_same_on_the_export() -> None:
    schedule = FaultSchedule()
    schedule.add(Partition(200.0, ((1, 2, 3, 4), (0,))))
    schedule.add(Heal(400.0))
    with bugs.planted("append_order"):
        cluster = make_cluster("sim", 5, app="store", seed=3)
        report = run_checked_workload(
            cluster, schedule, [lambda c: StoreClient(c, interval=1.0)]
        )
    trace = report.trace
    reports = _reports(trace)
    assert [name for name, _n, violations in reports if violations] == [
        "ReplicaDivergence"
    ]
    assert _reports(load_trace(_dumped(trace).splitlines())) == reports


def test_a_lost_write_prints_its_flat_provenance_either_way() -> None:
    prov = Provenance(1, P0, 1)
    rec = TraceRecorder()
    rec.record(AppEvent(time=1.0, pid=P0, tag="store_apply", data={"key": "k", "prov": prov}))
    rec.record(AppEvent(time=1.1, pid=P0, tag="store_ack", data={"key": "k", "prov": prov}))
    rec.record(CrashEvent(time=2.0, pid=P0))
    reports = _reports(rec)
    assert _reports(load_trace(_dumped(rec).splitlines())) == reports
    [lost] = [violations for name, _n, violations in reports if name == "AckedWriteLoss"]
    assert lost[0].startswith("write (1, 0, 0, 1) on key 'k' was acked")


def test_store_audit_events_hold_the_stores_own_provenances(monkeypatch) -> None:
    """Checked as each audit event is recorded, against what the store
    holds at that moment: a ``store_apply`` record names the chain entry's
    ``prov``, a ``store_ack`` the put handle's token, and a
    ``store_state`` every chain entry's ``prov``, in order — the same
    objects, not equal copies."""
    record, committed = VersionedStore._record, VersionedStore._committed
    acking: list = []
    seen: collections.Counter = collections.Counter()

    def committing(self, handle) -> None:
        acking.append(handle)
        try:
            committed(self, handle)
        finally:
            acking.pop()

    def recording(self, tag, data) -> None:
        if tag == "store_apply":
            chain = self.chains[data.key]
            at = len(chain) - 1 if data.at is None else data.at
            assert data.prov is chain[at].prov
        elif tag == "store_ack":
            assert data["prov"] is acking[-1].token
        elif tag == "store_state":
            entries = [e for key in data["keys"] for e in self.chains[key]]
            assert len(data["provs"]) == len(entries)
            assert all(p is e.prov for p, e in zip(data["provs"], entries))
        seen[tag] += 1
        record(self, tag, data)

    monkeypatch.setattr(VersionedStore, "_committed", committing)
    monkeypatch.setattr(VersionedStore, "_record", recording)
    store_faults_trace()
    assert seen["store_apply"] and seen["store_ack"] and seen["store_state"]
