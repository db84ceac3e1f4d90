"""Tests for the versioned record store: semantics, durability, merges."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.apps.versioned_store as vs_mod
from repro.apps.factories import app_factory
from repro.apps.versioned_store import (
    VersionedStore,
    prov_from_tuple,
    prov_tuple,
)
from repro.client.sim import SimStoreClient
from repro.core.versioning import Provenance, VersionEntry, merge_chains
from repro.fuzz import bugs
from repro.fuzz.checkers import CheckContext, make_checkers, run_checkers
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.types import MessageId, ProcessId
from tests.scenario_checks import hot_key_chains


def store_cluster(n: int = 5, seed: int = 0) -> Cluster:
    cluster = Cluster(
        n, app_factory=app_factory("store", n), config=ClusterConfig(seed=seed)
    )
    assert cluster.settle(timeout=500)
    cluster.run_for(100)
    return cluster


def provs_at(cluster: Cluster, site: int) -> set[tuple]:
    app = cluster.app_at(site)
    return {
        prov_tuple(e.prov) for chain in app.chains.values() for e in chain
    }


# ---------------------------------------------------------------------------
# Basic semantics through the client tier
# ---------------------------------------------------------------------------


def test_put_commits_with_token_and_reads_back() -> None:
    cluster = store_cluster()
    client = SimStoreClient(cluster, site=0, client_id="alice")
    put = client.put("k", "v1")
    assert put.ok and put.reply.prov is not None
    token = put.reply.prov
    # Read-your-writes against a *different* replica: either the write
    # already replicated there (ok) or the replica must refuse (retry),
    # never silently serve an older version.
    other = SimStoreClient(cluster, site=3, client_id="alice2")
    got = other.get("k", ryw=token)
    assert got.reply.status == "ok" and got.reply.value == "v1"
    assert got.reply.prov == token


def test_put_retry_is_exactly_once() -> None:
    cluster = store_cluster()
    app = cluster.app_at(0)
    done: list = []
    first = app.put("k", "v", client="c9", client_seq=1, on_done=done.append)
    cluster.run_for(100)
    assert first.status == "committed"
    # The client's resubmission of the same (client, client_seq) lands
    # on the original entry: same token, no new chain link.
    again = app.put("k", "v", client="c9", client_seq=1)
    assert again.status == "committed" and again.token == first.token
    assert len(app.chains["k"]) == 1


def test_history_returns_full_chain_oldest_first() -> None:
    cluster = store_cluster()
    client = SimStoreClient(cluster, site=1, client_id="h")
    for i in range(3):
        assert client.put("k", f"v{i}").ok
    res = cluster.app_at(2).history("k")
    assert res.status == "ok"
    assert [e.value for e in res.chain] == ["v0", "v1", "v2"]
    assert [e.prov for e in res.chain] == sorted(e.prov for e in res.chain)
    assert res.value == "v2"  # head doubles as the get() answer


def test_leader_is_least_view_member() -> None:
    cluster = store_cluster()
    assert cluster.app_at(3).leader() == ProcessId(0, 0)
    client = SimStoreClient(cluster, site=3, client_id="l", read_mode="leader")
    client.put("k", "v")
    got = client.get("k")
    # The dialed replica is not the leader: the client must have been
    # redirected there rather than served locally.
    assert got.reply.status == "ok"
    assert "not_leader" in got.retries


def test_prov_tuple_roundtrip() -> None:
    p = Provenance(7, ProcessId(3, 2), 41)
    assert prov_from_tuple(prov_tuple(p)) == p


# ---------------------------------------------------------------------------
# Durability: base + op log
# ---------------------------------------------------------------------------


def test_crash_recover_restores_chains_from_disk() -> None:
    cluster = store_cluster()
    client = SimStoreClient(cluster, site=2, client_id="d")
    tokens = [client.put(f"k{i}", i).reply.prov for i in range(5)]
    assert all(t is not None for t in tokens)
    before = provs_at(cluster, 2)
    cluster.crash(2)
    cluster.run_for(50)
    cluster.recover(2)
    assert cluster.settle(timeout=1000)
    cluster.run_for(100)
    assert provs_at(cluster, 2) >= before


def test_applies_append_to_op_log_not_full_base(monkeypatch) -> None:
    # The serving path must stay O(1) per write: applies append to the
    # op log; the full base is only rewritten at the compaction
    # threshold.
    cluster = store_cluster(n=3)
    app = cluster.app_at(0)
    baseline_base = app.stack.storage.read(vs_mod._CHAINS_KEY)
    client = SimStoreClient(cluster, site=0, client_id="log")
    assert client.put("k", "v").ok
    log = app.stack.storage.read(vs_mod._LOG_KEY)
    assert log and log[-1][0] == "k"
    assert isinstance(log[-1][1], VersionEntry)
    assert app.stack.storage.read(vs_mod._CHAINS_KEY) == baseline_base


def test_compaction_rewrites_base_and_resets_log(monkeypatch) -> None:
    monkeypatch.setattr(vs_mod, "_COMPACT_EVERY", 3)
    cluster = store_cluster(n=3)
    client = SimStoreClient(cluster, site=0, client_id="c")
    for i in range(4):
        assert client.put(f"k{i}", i).ok
    app = cluster.app_at(0)
    assert app._log_len < 3
    base = dict(app.stack.storage.read(vs_mod._CHAINS_KEY))
    assert len(base) >= 3
    # Recovery replays base + whatever the log holds past compaction.
    before = provs_at(cluster, 0)
    cluster.crash(0)
    cluster.run_for(50)
    cluster.recover(0)
    assert cluster.settle(timeout=1000)
    cluster.run_for(100)
    assert provs_at(cluster, 0) >= before


# ---------------------------------------------------------------------------
# Adoption and merge policies
# ---------------------------------------------------------------------------


def _entry(epoch: int, site: int, seq: int, value: str) -> VersionEntry:
    return VersionEntry(value, Provenance(epoch, ProcessId(site, 0), seq))


def test_adopt_state_unions_with_local_chains() -> None:
    # A put can apply between the moment this replica's settlement offer
    # was snapshotted and the moment the decision arrives; adoption must
    # keep it, not clobber it with the (older) decided snapshot.
    store = VersionedStore()
    local = _entry(3, 1, 1, "local-concurrent")
    decided = _entry(2, 0, 1, "decided")
    store.chains = {"k": (local,)}
    store.adopt_state({"k": (decided,), "other": (_entry(1, 2, 1, "x"),)})
    assert store.chains["k"] == (decided, local)
    assert "other" in store.chains
    # Idempotent: adopting the same decision again changes nothing.
    snapshot = dict(store.chains)
    store.adopt_state({"k": (decided,)})
    assert store.chains == snapshot


class _StorageCalls:
    """Counts the op-log appends and base writes a store makes."""

    def __init__(self, monkeypatch, storage) -> None:
        self.appends = self.base_writes = 0
        append, write = storage.append, storage.write

        def counting_append(key, item):
            self.appends += key == vs_mod._LOG_KEY
            append(key, item)

        def counting_write(key, value):
            self.base_writes += key == vs_mod._CHAINS_KEY
            write(key, value)

        monkeypatch.setattr(storage, "append", counting_append)
        monkeypatch.setattr(storage, "write", counting_write)


def test_adoption_persists_exactly_the_versions_it_adds(monkeypatch) -> None:
    cluster = store_cluster(n=3)
    client = SimStoreClient(cluster, site=0, client_id="dur")
    for i in range(3):
        assert client.put(f"k{i}", i).ok
    app = cluster.app_at(0)
    storage = app.stack.storage
    calls = _StorageCalls(monkeypatch, storage)

    # The decided state equals what is held: no append, no base write.
    app.adopt_state(app.snapshot_state())
    assert (calls.appends, calls.base_writes) == (0, 0)

    # Three versions from a writer outside the cluster: one that sorts
    # before the held version of k0, one on a new key, and one carrying a
    # client request.
    writer = ProcessId(9, 0)
    early = VersionEntry("early", Provenance(0, writer, 1))
    fresh = VersionEntry("fresh", Provenance(1, writer, 2))
    retried = VersionEntry("req", Provenance(1, writer, 3), "other", 5)
    decided = app.snapshot_state()
    decided["k0"] = merge_chains((decided["k0"], (early,)))
    decided["new"] = (fresh,)
    decided["k1"] = merge_chains((decided["k1"], (retried,)))
    log_before = len(storage.read(vs_mod._LOG_KEY))
    app.adopt_state(decided)
    assert (calls.appends, calls.base_writes) == (3, 0)
    assert len(storage.read(vs_mod._LOG_KEY)) == log_before + 3
    assert app.chains == decided

    # The index knows the adopted request at once: a retry commits with
    # its original provenance and adds no version.
    again = app.put("k1", "req", client="other", client_seq=5)
    assert again.status == "committed" and again.token == retried.prov
    assert app.chains["k1"] == decided["k1"]

    # Recovery rebuilds the adopted versions from base + op log, before
    # any settlement runs, and the rebuilt index knows the request too.
    cluster.crash(0)
    cluster.run_for(50)
    cluster.recover(0)
    recovered = cluster.app_at(0)
    assert recovered.chains == decided
    again = recovered.put("k1", "req", client="other", client_seq=5)
    assert again.status == "committed" and again.token == retried.prov
    assert recovered.chains["k1"] == decided["k1"]


def test_adoption_that_fills_the_op_log_rewrites_the_base(monkeypatch) -> None:
    # Appending the adopted versions one by one would cross the
    # compaction threshold midway, and a base written there already
    # holds the versions still to be appended: recovery would read them
    # twice.  The adoption writes the base instead.
    monkeypatch.setattr(vs_mod, "_COMPACT_EVERY", 4)
    cluster = store_cluster(n=3)
    app = cluster.app_at(0)
    storage = app.stack.storage
    assert app._log_len == 0
    writer = ProcessId(9, 0)
    decided = app.snapshot_state()
    for seq in range(1, 6):
        decided.setdefault("k", ())
        decided["k"] += (VersionEntry(seq, Provenance(1, writer, seq)),)
    calls = _StorageCalls(monkeypatch, storage)
    app.adopt_state(decided)
    assert (calls.appends, calls.base_writes) == (0, 1)
    assert storage.read(vs_mod._LOG_KEY) == [] and app._log_len == 0
    cluster.crash(0)
    cluster.run_for(50)
    cluster.recover(0)
    assert cluster.app_at(0).chains == decided


def _rebuild_adoption(
    held: dict[str, tuple[VersionEntry, ...]],
    decided: dict[str, tuple[VersionEntry, ...]],
) -> tuple[dict, dict]:
    """Adoption as a full rebuild: every key held or decided merged
    afresh, the exactly-once index rebuilt from every chain."""
    chains = {
        key: merge_chains((tuple(decided.get(key, ())), held.get(key, ())))
        for key in set(decided) | set(held)
    }
    index = {
        (e.client, e.client_seq): e.prov
        for chain in chains.values()
        for e in chain
        if e.client
    }
    return chains, index


_KEYS = ("a", "b", "c", "d")


@st.composite
def held_and_decided(draw):
    """Provenance-sorted held and decided chain sets over one pool of
    writes: a write has one provenance, one key and one entry wherever
    it is carried.  Keys may be on one side only, or carry one chain on
    both; a request ``(client, client_seq)`` can land twice on its key
    under two provenances (a retry served in two partitions)."""
    writes = draw(
        st.lists(
            st.tuples(
                st.integers(1, 3),  # view epoch
                st.integers(0, 2),  # writer site
                st.integers(1, 4),  # seq
                st.sampled_from(_KEYS),
                st.sampled_from((None, 0, 1)),  # client request, if any
                st.sampled_from(("held", "decided", "both")),
            ),
            max_size=24,
            unique_by=lambda w: w[:3],
        )
    )
    held: dict[str, list[VersionEntry]] = {}
    decided: dict[str, list[VersionEntry]] = {}
    for epoch, site, seq, key, request, side in writes:
        prov = Provenance(epoch, ProcessId(site, 0), seq)
        client = "" if request is None else f"client-{key}"
        entry = VersionEntry(f"{key}@{prov}", prov, client, request or 0)
        if side != "decided":
            held.setdefault(key, []).append(entry)
        if side != "held":
            decided.setdefault(key, []).append(entry)
    for key in draw(st.sets(st.sampled_from(_KEYS))):
        if key in held:
            decided[key] = list(held[key])  # identical chains

    def sort(chains):
        return {
            key: tuple(sorted(chain, key=lambda e: e.prov))
            for key, chain in chains.items()
        }

    return sort(held), sort(decided)


@settings(max_examples=200, deadline=None)
@given(held_and_decided())
def test_delta_adoption_equals_a_full_rebuild(sides) -> None:
    held, decided = sides
    store = VersionedStore()
    store.chains = dict(held)
    store._reindex()
    store.adopt_state(decided)
    chains, index = _rebuild_adoption(held, decided)
    assert store.chains == chains
    assert store._client_index == index


def test_merge_app_states_drops_retired_incarnations() -> None:
    from repro.core.group_object import AppStateOffer

    store = VersionedStore()
    stale = {"k": (_entry(1, 0, 1, "old"),)}
    live = {"k": (_entry(1, 0, 1, "old"), _entry(2, 0, 2, "new"))}
    other = {"k": (_entry(2, 1, 1, "peer"),)}
    offers = [
        AppStateOffer(ProcessId(0, 0), stale, version=9, last_epoch=1),
        AppStateOffer(ProcessId(0, 1), live, version=2, last_epoch=2),
        AppStateOffer(ProcessId(1, 0), other, version=3, last_epoch=2),
    ]
    merged = store.merge_app_states(offers)
    provs = {e.prov for e in merged["k"]}
    assert provs == {
        _entry(1, 0, 1, "").prov,
        _entry(2, 0, 2, "").prov,
        _entry(2, 1, 1, "").prov,
    }


# ---------------------------------------------------------------------------
# Partitions: provenance survives divergence (satellite property test)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_disjoint_partition_writes_all_survive_merge(seed: int) -> None:
    cluster = store_cluster(seed=seed)
    cluster.partition([[0, 1, 2], [3, 4]])
    cluster.run_for(400)  # let each side install its own view
    majority = SimStoreClient(cluster, site=0, client_id="maj")
    minority = SimStoreClient(cluster, site=3, client_id="min")
    acked: dict[tuple, tuple[str, object]] = {}
    for i in range(4):
        put = majority.put(f"shared{i % 2}", f"maj{i}")
        if put.ok:
            acked[put.reply.prov] = (f"shared{i % 2}", f"maj{i}")
        put = minority.put(f"shared{i % 2}", f"min{i}")
        if put.ok:
            acked[put.reply.prov] = (f"shared{i % 2}", f"min{i}")
    assert acked, "no write was acked in either partition"
    cluster.heal()
    assert cluster.settle(timeout=2000)
    cluster.run_for(300)
    # Every acked write survives on every live replica, with its value
    # recorded under the exact provenance it was acked with.
    for site in range(5):
        app = cluster.app_at(site)
        for prov, (key, value) in acked.items():
            chain = app.chains.get(key, ())
            match = [e for e in chain if prov_tuple(e.prov) == prov]
            assert match and match[0].value == value, (
                f"site {site} lost acked write {prov} on {key!r}"
            )
        for chain in app.chains.values():
            assert list(chain) == sorted(chain, key=lambda e: e.prov)


# ---------------------------------------------------------------------------
# Settlement write-loss regression (the canonical seed-7 schedule)
# ---------------------------------------------------------------------------


def test_no_acked_write_lost_across_crash_recover_partition_merge() -> None:
    from repro.workload.clients import StoreClient

    cluster = Cluster(
        5, app_factory=app_factory("store", 5), config=ClusterConfig(seed=7)
    )
    assert cluster.settle(timeout=500)
    client = StoreClient(cluster, interval=12.0)
    client.start()
    cluster.run_for(100)
    cluster.partition([[0, 1, 2], [3, 4]])
    cluster.run_for(200)
    cluster.crash(4)
    cluster.run_for(100)
    cluster.heal()
    cluster.recover(4)
    assert cluster.settle(timeout=3000)
    cluster.run_for(300)
    client.stop()
    reports = run_checkers(
        cluster.gather_trace(),
        make_checkers(["AckedWriteLoss"]),
        CheckContext(time_scale=cluster.time_scale),
    )
    assert reports and reports[0].checked > 0
    assert not reports[0].violations, reports[0].violations


# ---------------------------------------------------------------------------
# Replica determinism: chain order does not depend on arrival order
# ---------------------------------------------------------------------------


def test_concurrent_writers_leave_one_chain_order_and_one_head() -> None:
    chains, report, _tokens = hot_key_chains("sim")
    assert len(chains[0]) == 100
    assert all(chain == chains[0] for chain in chains)
    assert chains[0] == sorted(chains[0])
    assert report.checked == 1 and report.ok


def test_append_order_bug_diverges_and_the_checker_sees_it() -> None:
    with bugs.planted("append_order"):
        chains, report, _tokens = hot_key_chains("sim")
    assert len({tuple(chain) for chain in chains}) > 1
    assert len({chain[-1] for chain in chains}) > 1
    assert report.violations and "orders of key 'k''s 100 versions" in report.violations[0]


def test_apply_inserts_by_provenance_and_recovery_replays_in_that_order() -> None:
    cluster = store_cluster(n=3)
    app = cluster.app_at(0)
    view = cluster.stack_at(0).current_view_id()
    # Two writers outside the cluster (their acks go nowhere), arriving
    # larger provenance first.
    late, early = ProcessId(8, 0), ProcessId(7, 0)
    app.apply_op(late, ("put", "hot", "b", "", 0), MessageId(late, view, 900))
    app.apply_op(early, ("put", "hot", "a", "", 0), MessageId(early, view, 900))
    assert [e.value for e in app.chains["hot"]] == ["a", "b"]
    assert app.get("hot").value == "b"
    before = app.chains["hot"]
    cluster.crash(0)
    cluster.run_for(50)
    cluster.recover(0)
    # Straight from the base and the op log, before any settlement.
    assert cluster.app_at(0).chains["hot"] == before
