"""Replicas in one process share each write's immutable records.

Every member of a view applies the same delivered message, so the
provenance, version entry, exactly-once index key, op-log record and
append audit record of a put are derived once per message
(:func:`repro.apps.versioned_store.put_records`) and held by every
replica that applies it.  Pinned here: the sharing itself, that it keys
on the very op object (never on an equal one), that a mutable value is
still snapshotted into stable storage, that a retry already indexed is
still skipped and acked, and that the memo stays bounded.
"""

from __future__ import annotations

import repro.apps.versioned_store as vs_mod
from repro.apps.versioned_store import PUT_MEMO, PutHandle, put_records
from repro.client.sim import SimStoreClient
from repro.runtime.cluster import Cluster
from repro.trace.events import AppEvent, StoreApplied
from repro.types import MessageId, ProcessId, ViewId
from tests.test_versioned_store import store_cluster


def op_log(cluster: Cluster, site: int) -> list:
    """The op-log records as stable storage holds them (no read copy)."""
    return cluster.stack_at(site).storage._data.get(vs_mod._LOG_KEY, [])


def test_replicas_hold_one_entry_provenance_and_log_record_per_write() -> None:
    n = 5
    cluster = store_cluster(n, seed=3)
    for site in range(n):
        client = SimStoreClient(cluster, site=site, client_id=f"c{site}")
        for i in range(4):
            assert client.put(f"k{i % 3}", f"v{site}.{i}").ok
    cluster.run_for(100)
    apps = [cluster.app_at(site) for site in range(n)]
    first = apps[0].chains
    assert sum(map(len, first.values())) == 4 * n
    for app in apps[1:]:
        assert app.chains == first
        for key, chain in app.chains.items():
            for mine, theirs in zip(chain, first[key]):
                assert mine is theirs
                assert mine.prov is theirs.prov
    for app in apps:
        for request, prov in app._client_index.items():
            assert prov is apps[0]._client_index[request]
    logs = [op_log(cluster, site)[-4 * n:] for site in range(n)]
    for log in logs[1:]:
        assert {id(r) for r in log} == {id(r) for r in logs[0]}
    entries = {id(e) for chain in first.values() for e in chain}
    assert {id(entry) for _key, entry in logs[0]} == entries


def test_clusters_that_reach_one_msg_id_keep_their_own_values() -> None:
    # Same seed, same operations: the two clusters number their
    # multicasts alike, so both puts are delivered as one msg_id while
    # the first cluster's records are in the memo.  ``1 == True``, so an
    # equality match would hand the second cluster the entry holding 1.
    handles = []
    for value in (1, True):
        cluster = store_cluster(3, seed=5)
        handle = cluster.app_at(0).put("k", value, client="c", client_seq=1)
        cluster.run_for(100)
        assert handle.status == "committed"
        handles.append((cluster, handle))
    (ints, one), (bools, true) = handles
    assert one.msg_id == true.msg_id
    for site in range(3):
        assert type(ints.app_at(site).chains["k"][0].value) is int
        assert type(bools.app_at(site).chains["k"][0].value) is bool
        assert type(op_log(bools, site)[-1][1].value) is bool


def test_equal_ops_for_one_msg_id_build_their_own_records() -> None:
    msg_id = MessageId(ProcessId(40, 0), ViewId(7, ProcessId(40, 0)), 1)
    one = ("put", "k", 1, "", 0)
    true = ("put", "k", True, "", 0)
    assert one == true
    (_, one_entry, *_rest), = put_records(one, msg_id, True)
    (_, true_entry, *_rest), = put_records(true, msg_id, True)
    assert type(one_entry.value) is int and type(true_entry.value) is bool
    assert put_records(true, msg_id, True)[0][1] is true_entry


def test_a_mutable_value_is_still_copied_into_stable_storage() -> None:
    cluster = store_cluster(3)
    value = [1, 2]
    handle = cluster.app_at(0).put("k", value, client="m", client_seq=1)
    cluster.run_for(100)
    assert handle.status == "committed"
    held = cluster.app_at(0).chains["k"][0]
    for site in range(3):
        key, persisted = op_log(cluster, site)[-1]
        assert key == "k" and persisted == held
        assert persisted is not held and persisted.value is not held.value
    value.append(3)
    assert op_log(cluster, 1)[-1][1].value == [1, 2]


def test_a_retry_already_indexed_skips_the_apply_and_still_acks() -> None:
    cluster = store_cluster(3)
    app = cluster.app_at(0)
    first = app.put("k", "v", client="r", client_seq=1)
    cluster.run_for(100)
    assert first.status == "committed"
    appends = [cluster.stack_at(site).storage.appends for site in range(3)]
    # A second multicast of the same request, as a retry that reached a
    # replica before its index had the write would send.
    again = PutHandle("k", "v", "r", 1)
    app._multicast_puts([(again, None)])
    cluster.run_for(100)
    assert again.status == "committed" and again.token == first.token
    assert again.prov != first.prov
    for site in range(3):
        assert len(cluster.app_at(site).chains["k"]) == 1
        assert cluster.stack_at(site).storage.appends == appends[site]


def test_the_memo_never_holds_more_than_its_cap() -> None:
    writer = ProcessId(41, 0)
    view = ViewId(3, writer)
    built = []
    for seqno in range(1, 3 * PUT_MEMO):
        op = ("put", seqno, "v", "", 0)
        msg_id = MessageId(writer, view, seqno)
        records = put_records(op, msg_id, True)
        assert put_records(op, msg_id, True) is records
        assert len(vs_mod._put_memo) <= PUT_MEMO
        built.append((op, msg_id, records))
    assert len(vs_mod._put_memo) == PUT_MEMO
    # The oldest were evicted: asked again, they are built again.
    op, msg_id, records = built[0]
    rebuilt = put_records(op, msg_id, True)
    assert rebuilt == records and rebuilt is not records
    assert len(vs_mod._put_memo) == PUT_MEMO


def test_a_record_built_without_audits_still_audits_the_next_replica() -> None:
    cluster = store_cluster(3)
    app = cluster.app_at(0)
    view = cluster.stack_at(0).current_view_id()
    writer = ProcessId(8, 0)  # outside the cluster: its ack goes nowhere
    op = ("put", "a", "v", "w", 1)
    msg_id = MessageId(writer, view, 900)
    ((_key, entry, _request, _record, applied),) = put_records(op, msg_id, False)
    assert applied is None
    app.apply_op(writer, op, msg_id)
    assert app.chains["a"][0] is entry
    audits = [
        ev.data
        for ev in cluster.gather_trace().events
        if isinstance(ev, AppEvent) and ev.tag == "store_apply" and ev.data.key == "a"
    ]
    assert audits == [StoreApplied("a", entry.prov, "w", 1)]
