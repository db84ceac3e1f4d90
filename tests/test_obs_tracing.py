"""Causal tracing end to end on the simulator.

Units for the tracer (deterministic, salted span ids) plus the
acceptance scenarios: a traced sim cluster reconstructs complete causal
trees for (a) one client put and (b) one partition/heal view install,
with the documented span taxonomy; a disk dump replays into the same
trees; eviction of open metric spans is itself metered.
"""

from __future__ import annotations

import pytest

from repro.obs.trace_analysis import (
    breakdown,
    build_trees,
    critical_path,
    perfetto_events,
    render_tree,
    render_trees,
    write_perfetto,
)
from repro.obs.tracing import FlightRecorder, TraceCtx, Tracer, load_dump
from repro.ports import make_cluster

#: The documented span vocabulary (docs/observability.md).
TAXONOMY = {
    "view.change", "view.flush", "view.agree", "view.install",
    "settle.round", "settle.offer", "settle.adopt",
    "mcast.send", "mcast.deliver",
    "client.put", "client.get", "client.history",
    "put.route", "put.quorum",
}


# -- tracer units -----------------------------------------------------------


def test_mint_roots_and_children():
    tracer = Tracer(FlightRecorder(), lambda: 1.0, salt=3)
    root = tracer.mint()
    assert root.trace_id == root.span_id and root.parent == 0
    assert root.span_id & 0xFFF == 3  # salted
    child = tracer.mint(root)
    assert child.trace_id == root.trace_id
    assert child.parent == root.span_id
    assert child.span_id != root.span_id


def test_mint_is_deterministic_and_salt_disjoint():
    ids_a = [Tracer(FlightRecorder(), lambda: 0.0, salt=1).mint().span_id
             for _ in range(3)]
    assert len(set(ids_a)) == 1  # same counter start, same ids
    tracer1 = Tracer(FlightRecorder(), lambda: 0.0, salt=1)
    tracer2 = Tracer(FlightRecorder(), lambda: 0.0, salt=2)
    minted1 = {tracer1.mint().span_id for _ in range(100)}
    minted2 = {tracer2.mint().span_id for _ in range(100)}
    assert not minted1 & minted2  # different sites never collide


def test_span_records_event_with_explicit_or_minted_ctx():
    recorder = FlightRecorder()
    tracer = Tracer(recorder, lambda: 2.0)
    ctx = TraceCtx(trace_id=0x9000, span_id=0xA000, parent=0x9000)
    returned = tracer.span("view.agree", "p0.0", 0, 1.0, 2.0, ctx=ctx)
    assert returned is ctx
    fresh = tracer.span("view.flush", "p1.0", 1, 1.5, parent=ctx)
    assert fresh.parent == ctx.span_id and fresh.trace_id == ctx.trace_id
    events = recorder.dump().events
    assert [e.name for e in events] == ["view.agree", "view.flush"]
    assert events[1].t0 == events[1].t1 == 1.5  # instant form


def test_uncaused_roots_are_sampled_caused_spans_always_traced():
    """Workload multicasts hit the 1-in-N gate; parented spans don't."""
    from repro.obs.instrument import ClusterObs
    from repro.obs.registry import MetricsRegistry

    recorder = FlightRecorder()
    tracer = Tracer(recorder, lambda: 0.0, root_sample=4)
    obs = ClusterObs(MetricsRegistry(clock=lambda: 0.0, runtime="sim"), tracer)
    ctxs = [obs.multicast_sent("p0.0", ("m", i), 0.0) for i in range(8)]
    assert [c is not None for c in ctxs] == [True, False, False, False] * 2
    parent = tracer.mint()
    caused = [
        obs.multicast_sent("p0.0", ("c", i), 0.0, parent=parent)
        for i in range(8)
    ]
    assert all(c is not None for c in caused)
    with pytest.raises(ValueError):
        Tracer(recorder, lambda: 0.0, root_sample=0)
    always = Tracer(recorder, lambda: 0.0, root_sample=1)
    assert all(always.sample_root() for _ in range(5))


# -- acceptance: sim causal trees ------------------------------------------


@pytest.fixture(scope="module")
def traced_run():
    """One traced sim run: settle, client put, partition/heal."""
    from repro.apps.versioned_store import VersionedStore
    from repro.client.sim import SimStoreClient

    cluster = make_cluster(
        "sim", 3, app_factory=lambda pid: VersionedStore(),
        seed=7, tracing=True,
    )
    try:
        assert cluster.settle()
        client = SimStoreClient(cluster)
        op = client.put("k", "v")
        assert op.ok, op.reply
        cluster.partition([[0, 1], [2]])
        assert cluster.settle()
        cluster.heal()
        assert cluster.settle()
        dumps = [rec.dump() for rec in cluster.flight_recorders()]
    finally:
        cluster.close()
    return build_trees(dumps)


def _trees_of_kind(trees, kind):
    return [t for t in trees if t.kind == kind]


def test_every_span_uses_the_documented_taxonomy(traced_run):
    names = {span.name for tree in traced_run for span in tree.spans()}
    assert names <= TAXONOMY, names - TAXONOMY


def test_client_put_tree_is_complete(traced_run):
    puts = _trees_of_kind(traced_run, "client.put")
    assert len(puts) == 1
    tree = puts[0]
    root = tree.root
    assert root.attrs["status"] == "ok"
    assert not root.orphan and len(tree.roots) == 1
    child_names = {c.name for c in root.children}
    assert child_names == {"put.route", "put.quorum", "mcast.send"}
    sends = [c for c in root.children if c.name == "mcast.send"]
    deliveries = [g for g in sends[0].children if g.name == "mcast.deliver"]
    assert len(deliveries) == 3  # one per member of the 3-view
    assert {d.event.site for d in deliveries} == {0, 1, 2}
    quorum = next(c for c in root.children if c.name == "put.quorum")
    assert quorum.attrs["status"] == "committed"
    path = [span.name for span in critical_path(tree)]
    assert path[0] == "client.put"
    assert set(path[1:]) <= {"put.quorum", "mcast.send", "mcast.deliver"}


def test_view_install_tree_is_complete(traced_run):
    """The heal's merge view: detect -> agree -> install -> settlement."""
    full = [
        tree for tree in _trees_of_kind(traced_run, "view.change")
        if {"view.agree", "view.install", "settle.round"}
        <= {span.name for span in tree.spans()}
    ]
    assert full, "no complete view-change tree reconstructed"
    tree = full[-1]  # the heal (last merge) is the richest
    root = tree.root
    agree = next(c for c in root.children if c.name == "view.agree")
    installs = [c for c in agree.children if c.name == "view.install"]
    assert len(installs) == 3  # every member installed under the agree
    assert len({i.event.pid for i in installs}) == 3
    settles = [
        span for i in installs for span in i.children
        if span.name == "settle.round"
    ]
    assert settles, "no settlement chained to the install"
    settle_children = {c.name for s in settles for c in s.children}
    assert {"settle.offer", "settle.adopt"} <= settle_children
    path = [span.name for span in critical_path(tree)]
    assert path[:3] == ["view.change", "view.agree", "view.install"]


def test_breakdown_and_renderers_cover_the_trees(traced_run):
    tree = _trees_of_kind(traced_run, "client.put")[0]
    rows = breakdown(tree)
    assert {name for name, _c, _t in rows} == {
        span.name for span in tree.spans()
    }
    assert all(count >= 1 for _n, count, _t in rows)
    text = render_tree(tree)
    assert "client.put" in text and "status=ok" in text
    listing = render_trees(traced_run, limit=2)
    assert "critical path:" in listing
    assert "more trees" in listing


def test_disk_dump_replays_into_the_same_trees(tmp_path, traced_run):
    """Acceptance: a violation dump reconstructs the same causal trees
    as the live rings it snapshotted."""
    from repro.apps.versioned_store import VersionedStore
    from repro.client.sim import SimStoreClient

    cluster = make_cluster(
        "sim", 3, app_factory=lambda pid: VersionedStore(),
        seed=7, tracing=True,
    )
    try:
        assert cluster.settle()
        assert SimStoreClient(cluster).put("k", "v").ok
        live = build_trees([rec.dump() for rec in cluster.flight_recorders()])
        path = cluster.flight.violation_dump("planted: lost write", str(tmp_path))
    finally:
        cluster.close()
    assert path is not None
    replayed = build_trees([load_dump(path)])
    assert [t.trace_id for t in replayed] == [t.trace_id for t in live]
    live_put = _trees_of_kind(live, "client.put")[0]
    replay_put = _trees_of_kind(replayed, "client.put")[0]
    assert [s.event for s in replay_put.spans()] == [
        s.event for s in live_put.spans()
    ]


def test_perfetto_export_is_valid_trace_event_json(tmp_path, traced_run):
    from tests.perfetto_check import validate_perfetto_file

    path = str(tmp_path / "trace.json")
    write_perfetto(path, traced_run)
    stats = validate_perfetto_file(path)
    assert stats["complete"] > 0 and stats["instant"] > 0
    assert stats["names"] <= TAXONOMY
    events = perfetto_events(traced_run)
    span_events = [e for e in events if e["ph"] in ("X", "i")]
    assert all(e["ts"] >= 0 for e in span_events)
    assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")


# -- orphans and merge edge cases ------------------------------------------


def test_orphan_spans_root_their_own_subtree():
    recorder = FlightRecorder()
    tracer = Tracer(recorder, lambda: 0.0)
    root = tracer.mint()
    lost_child = tracer.mint(root)  # parent event never recorded
    tracer.span("mcast.deliver", "p1.0", 1, 1.0, 2.0, ctx=lost_child)
    trees = build_trees([recorder.dump()])
    assert len(trees) == 1
    assert trees[0].roots[0].orphan
    assert trees[0].roots[0].name == "mcast.deliver"


def test_duplicate_span_ids_across_dumps_collapse():
    recorder = FlightRecorder("shared", "realnet")
    tracer = Tracer(recorder, lambda: 0.0)
    tracer.span("view.change", "p0.0", 0, 1.0)
    dump = recorder.dump()
    trees = build_trees([dump, dump])  # same ring pulled twice
    assert len(trees) == 1
    assert len(trees[0].spans()) == 1


def test_epoch_shifts_merge_onto_one_time_base():
    rec_a = FlightRecorder("a", "realnet", epoch=100.0)
    rec_b = FlightRecorder("b", "realnet", epoch=90.0)
    ctx = Tracer(rec_a, lambda: 0.0, salt=1).span("mcast.send", "p0.0", 0, 5.0)
    Tracer(rec_b, lambda: 0.0, salt=2).span(
        "mcast.deliver", "p1.0", 1, 16.0, 17.0, parent=ctx
    )
    (tree,) = build_trees([rec_a.dump(), rec_b.dump()])
    send = tree.root
    (deliver,) = send.children
    assert send.t0 == 105.0  # 100 + 5
    assert deliver.t0 == 106.0  # 90 + 16: later than the send on the
    assert deliver.t0 > send.t0  # shared base despite the bigger local t


# -- SpanMap eviction metering (satellite) ---------------------------------


def test_open_span_evictions_are_metered():
    from repro.obs.instrument import ClusterObs
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry(clock=lambda: 0.0, runtime="sim")
    obs = ClusterObs(registry)
    for i in range(5000):  # SpanMap cap is 4096: the first 904 evict
        obs.multicast_sent(f"p0.0", ("m", i), float(i))
    snap = registry.snapshot("test")
    evicted = [
        s for s in snap.samples
        if s.name == "spans_evicted_total" and ("map", "mcast") in s.labels
    ]
    assert evicted and evicted[0].value == 5000 - 4096
    # Transfer-map evictions land in their own label.
    for i in range(600):
        obs.transfer_started("p0.0", f"peer{i}", float(i))
    snap = registry.snapshot("test")
    transfer = [
        s for s in snap.samples
        if s.name == "spans_evicted_total" and ("map", "transfer") in s.labels
    ]
    assert transfer and transfer[0].value == 600 - 512


def _evicted(registry, span_map: str) -> float:
    snap = registry.snapshot("test")
    return sum(
        s.value for s in snap.samples
        if s.name == "spans_evicted_total" and ("map", span_map) in s.labels
    )


def test_a_fully_delivered_multicast_is_no_eviction():
    """A multicast's span closes at its last expected delivery, so only
    a member that never delivered makes an eviction."""
    from repro.obs.instrument import ClusterObs
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry(clock=lambda: 0.0, runtime="sim")
    obs = ClusterObs(registry)
    members = [f"p{site}.0" for site in range(4)]
    for i in range(5000):
        obs.multicast_sent(members[0], ("m", i), float(i), receivers=4)
        for member in members:
            obs.message_delivered(member, ("m", i), float(i) + 1.0)
    assert _evicted(registry, "mcast") == 0
    assert len(obs._mcast) == 0
    # One member missing every delivery: each span stays open, and the
    # ones pushed out are lost observations.
    for i in range(5000, 10000):
        obs.multicast_sent(members[0], ("m", i), float(i), receivers=4)
        for member in members[:3]:
            obs.message_delivered(member, ("m", i), float(i) + 1.0)
    assert _evicted(registry, "mcast") == 5000 - 4096


def test_a_one_process_observer_closes_at_its_own_delivery():
    from repro.obs.instrument import ClusterObs
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry(clock=lambda: 0.0, runtime="realnet")
    obs = ClusterObs(registry, whole_cluster=False)
    for i in range(5000):
        obs.multicast_sent("p0.0", ("m", i), float(i), receivers=4)
        obs.message_delivered("p0.0", ("m", i), float(i) + 1.0)
    assert _evicted(registry, "mcast") == 0


def test_span_queue_stays_bounded_as_spans_close():
    from repro.obs.spans import SpanMap

    spans = SpanMap(8)
    for i in range(1000):
        spans.open(i, float(i))
        assert spans.hit(i) == float(i)
    assert len(spans) == 0 and len(spans._order) <= 16
