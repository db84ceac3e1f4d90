"""The store answers "committed" only when the view can certify it.

A client retry whose request already landed is found in the store's
exactly-once index.  It is answered through the one commit path,
``VersionedStore._committed``, and only when a majority of the view
holds the original write: outside NORMAL mode it aborts like a fresh
put, and a write of this view must be stable first.  No store multicast
is re-issued in a later view, so a retry never overtakes a copy of its
own original.  ``CertifiedAck`` checks every answer on the trace; each
scenario here failed before these rules (sim n=5, one unit of link
latency, seed 7).
"""

from __future__ import annotations

from repro.apps.versioned_store import PutHandle, VersionedStore
from repro.core.modes import Mode
from repro.net.latency import ConstantLatency
from repro.ports import make_cluster
from repro.trace.checks import STORE_CHECKS, make_checkers, run_checkers

SITES = range(5)


def store_cluster():
    cluster = make_cluster("sim", 5, app="store", seed=7, latency=ConstantLatency(1.0))
    assert cluster.settle()
    cluster.run_for(20.0)
    return cluster


def holders(cluster, key, sites=SITES) -> list[int]:
    return [site for site in sites if key in cluster.app_at(site).chains]


def store_reports(cluster) -> dict:
    reports = run_checkers(cluster.gather_trace(), make_checkers(STORE_CHECKS))
    return {report.name: report for report in reports}


def put_then_split(cluster):
    """Site 0 multicasts a put just before {0,1} | {2,3,4} splits: only
    sites 0 and 1 apply it, and it aborts."""
    store = cluster.app_at(0)
    first = store.put("k", "v", client="c", client_seq=1)
    cluster.partition([[0, 1], [2, 3, 4]])
    assert cluster.settle()
    assert first.status == "aborted"
    assert holders(cluster, "k") == [0, 1]
    return store, first


def settling_retry(cluster):
    """After the heal, site 0's retry while it is SETTLING in the
    five-member view, where the write is held at 2 of 5 sites."""
    store, first = put_then_split(cluster)
    cluster.heal()
    assert cluster.run_until(
        lambda c: len(store.stack.view.members) == 5 and store.mode is Mode.SETTLING,
        poll=0.25,
    )
    assert holders(cluster, "k") == [0, 1]
    return store, first, store.put("k", "v", client="c", client_seq=1)


def test_a_retry_while_settling_aborts_then_commits_once_certified():
    cluster = store_cluster()
    store, first, retry = settling_retry(cluster)
    assert retry.status == "aborted" and retry.token is None
    assert cluster.settle()
    assert holders(cluster, "k") == list(SITES)
    again = store.put("k", "v", client="c", client_seq=1)
    # An earlier view's write: certified, answered from the index.
    assert again.status == "committed" and again.msg_id is None
    assert again.token == first.prov
    for site in SITES:
        assert [e.prov for e in cluster.app_at(site).chains["k"]] == [first.prov]
    reports = store_reports(cluster)
    assert reports["CertifiedAck"].checked == 1 and reports["CertifiedAck"].ok
    assert reports["AckedWriteLoss"].checked == 1 and reports["AckedWriteLoss"].ok


def test_a_retry_that_overtakes_its_original_is_a_fresh_multicast():
    """A put caught by a flush aborts and is not re-issued: the client's
    retry at the writer, right after the install, is the only copy, and
    it commits on a quorum, never on the writer's vote alone."""
    cluster = store_cluster()
    store = cluster.app_at(0)
    view = store.stack.view.view_id
    cluster.crash(4)
    assert cluster.run_until(lambda c: store.stack.is_flushing, poll=0.25)
    first = store.put("k", "v", client="c", client_seq=1)
    assert first.status == "aborted"
    assert cluster.run_until(lambda c: store.stack.view.view_id != view, poll=0.25)
    assert holders(cluster, "k", range(4)) == []
    retry = store.put("k", "v", client="c", client_seq=1)
    assert retry.status == "pending" and retry.msg_id is not None
    cluster.run_for(10.0)
    assert retry.status == "committed" and retry.token == retry.prov
    assert len(retry.ackers) >= 3  # a majority of the four members
    assert holders(cluster, "k", range(4)) == [0, 1, 2, 3]
    reports = store_reports(cluster)
    assert reports["CertifiedAck"].checked == 1 and reports["CertifiedAck"].ok


def uncertified_put(self, key, value, client="", client_seq=0, on_done=None, trace=None):
    """The mutant: ``put`` answering an index hit through ``_committed``
    before the mode check, with no certification."""
    if client and (client, client_seq) in self._client_index:
        handle = PutHandle(key, value, client, client_seq, on_done=on_done)
        self._committed(handle)
        return handle
    return certified_put(self, key, value, client, client_seq, on_done, trace)


certified_put = VersionedStore.put


def test_certified_ack_flags_a_hit_answered_before_the_mode_check(monkeypatch):
    monkeypatch.setattr(VersionedStore, "put", uncertified_put)
    cluster = store_cluster()
    _store, _first, retry = settling_retry(cluster)
    assert retry.status == "committed"
    report = store_reports(cluster)["CertifiedAck"]
    assert len(report.violations) >= 1
    assert "while 2 of the 5 members" in report.violations[0]


def test_a_minority_certified_write_is_lost_when_its_holders_crash_for_good():
    """``committed`` means a majority of the certifying view holds the
    write, and under the always-full mode function that view can be a
    minority component.  Its holders then crash for good: the write is
    gone, and AckedWriteLoss (sound only under schedules that recover
    every site) reports it."""
    cluster = store_cluster()
    store, first = put_then_split(cluster)
    retry = store.put("k", "v", client="c", client_seq=1)
    assert retry.status == "committed" and retry.token == first.prov
    assert len(store.stack.view.members) == 2
    cluster.crash(0)
    cluster.crash(1)
    cluster.heal()
    assert cluster.settle()
    assert holders(cluster, "k", (2, 3, 4)) == []
    reports = store_reports(cluster)
    assert reports["CertifiedAck"].checked == 1 and reports["CertifiedAck"].ok
    loss = reports["AckedWriteLoss"]
    assert loss.checked == 1 and len(loss.violations) == 1
    assert "no live process retains it" in loss.violations[0]
