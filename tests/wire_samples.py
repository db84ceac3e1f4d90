"""One instance of every registered wire dataclass, shared by the
codec tests.

``test_realnet_codec_bin`` asserts the table covers the registry
exactly, so a new wire class fails there until it gets a sample here;
``test_codec_zero_copy`` packs every entry, and
``test_trace_context_codec`` derives its traced samples from the
entries with a ``trace`` field.
"""

from __future__ import annotations

from repro.apps.lock_manager import _AcquireReq, _Denied, _ReleaseReq
from repro.apps.replicated_db import _LookupReply, _LookupRequest
from repro.apps.replicated_file import _WriteAck
from repro.apps.versioned_store import _StoreAck
from repro.client.protocol import ClientReply, ClientRequest
from repro.core.group_object import _OpMsg
from repro.core.settlement import StateAdopt, StateOffer, StateRequest
from repro.core.state_transfer import TAck, TChunk, TSmallPiece
from repro.core.versioning import Provenance, VersionEntry
from repro.evs.eview import EvDelta, EView, EViewStructure, Subview, SvSet
from repro.evs.messages import EvChange, EvRepairReq, EvReq
from repro.fd.gossip import GossipDigest
from repro.fd.heartbeat import Heartbeat
from repro.gms.messages import (
    Leave,
    PredecessorPlan,
    VcAbort,
    VcFlush,
    VcFlushBatch,
    VcInstall,
    VcNack,
    VcPrepare,
    VcPropose,
)
from repro.gms.view import View
from repro.obs.snapshot import MetricSample, MetricsSnapshot
from repro.obs.tracing import SpanEvent, TraceCtx, TraceDump
from repro.types import Message, MessageId, ProcessId, SubviewId, SvSetId, ViewId
from repro.vsync.stability import StabilityNotice, StabilityReport
from repro.vsync.stack import DirectPayload, RetransmitRequest, SubviewScoped


def samples():
    """One instance of every registered wire dataclass."""
    p0, p1, p2 = ProcessId(0, 0), ProcessId(1, 0), ProcessId(2, 3)
    vid = ViewId(4, p0)
    view = View(vid, frozenset({p0, p1, p2}))
    structure = EViewStructure.singletons(4, view.members)
    svid = SubviewId(4, p0, 0)
    ssid = SvSetId(4, p0, 0)
    delta = EvDelta(
        seq=1,
        kind="svset",
        inputs=frozenset({ssid, SvSetId(4, p1, 0)}),
        new_svset=SvSetId(4, p0, 1),
    )
    msg = Message(
        MessageId(p1, vid, 7), payload={"op": "put", "k": [1, 2.5]}, eview_seq=2
    )
    return [
        p2,
        vid,
        MessageId(p1, vid, 7),
        svid,
        ssid,
        view,
        Subview(svid, frozenset({p0, p1})),
        SvSet(ssid, frozenset({svid, SubviewId(4, p1, 0)})),
        structure,
        EView(view, structure, seq=3),
        delta,
        msg,
        Heartbeat(p1, vid, last_seqno=9, eview_seq=2),
        GossipDigest(
            sender=p1,
            view_id=vid,
            last_seqno=9,
            eview_seq=2,
            rows=((1, (0, 9)), (0, (0, 5)), (2, (3, 17))),
            suspects=frozenset({2}),
        ),
        VcPropose(p1, frozenset({p0, p1})),
        VcPrepare((p0, 5), frozenset({p0, p1}), direct=True),
        VcNack((p0, 5), p2),
        VcAbort((p0, 5)),
        Leave(p1),
        VcFlush(
            round_id=(p0, 5),
            sender=p1,
            view_id=vid,
            max_epoch=4,
            received=(msg,),
            eview_seq=2,
            structure=structure,
            evlog=(delta,),
            reachable=frozenset({p0, p1}),
        ),
        VcFlushBatch(
            round_id=(p0, 5),
            flushes=(
                VcFlush(
                    round_id=(p0, 5),
                    sender=p2,
                    view_id=vid,
                    max_epoch=4,
                    received=(),
                    eview_seq=2,
                    structure=structure,
                    evlog=(),
                    reachable=frozenset({p0, p2}),
                ),
            ),
        ),
        VcInstall(
            round_id=(p0, 5),
            view=view,
            structure=structure,
            predecessors={
                vid: PredecessorPlan(messages=(msg,), evlog=(delta,), eview_seq=2)
            },
        ),
        PredecessorPlan(messages=(msg,), evlog=(delta,), eview_seq=2),
        EvReq(p1, vid, "subview", frozenset({svid})),
        EvChange(vid, delta),
        EvRepairReq(vid, have_seq=2),
        StabilityReport(vid, p1, ((p0, 3), (p1, 9))),
        StabilityNotice(vid, ((p0, 3), (p1, 9))),
        RetransmitRequest(vid, (3, 4, 7)),
        DirectPayload({"blob": "x" * 10}),
        SubviewScoped(frozenset({p0, p1}), ["nested", {"deep": (1, 2.5)}]),
        StateRequest(session=(p0, 2)),
        StateOffer(
            session=(p0, 2),
            sender=p1,
            snapshot={"files": {"a": "1:3"}},
            version=5,
            last_epoch=4,
        ),
        StateAdopt(session=(p0, 2), state={"files": {"a": "1:3"}}, view_id=vid),
        Provenance(view_epoch=4, writer=p1, seq=7),
        VersionEntry(
            value="v1",
            prov=Provenance(view_epoch=4, writer=p1, seq=7),
            client="c0",
            client_seq=3,
        ),
        _StoreAck(MessageId(p1, vid, 9)),
        ClientRequest(
            req_id=11,
            op="put",
            key="user42",
            value="v1",
            client="c0",
            client_seq=3,
            read_mode="leader",
            ryw=(4, 1, 0, 7),
        ),
        ClientReply(
            req_id=11,
            status="ok",
            value="v1",
            prov=(4, 1, 0, 7),
            chain=(("v0", (3, 0, 0, 2), "c0", 1),),
            leader_site=0,
        ),
        TChunk(transfer=(p1, 1), index=0, payload=["bulk", 7], last=False),
        TAck(transfer=(p1, 1), index=0),
        TSmallPiece(transfer=(p1, 1), payload={"meta": 1}, large_chunks=3),
        _OpMsg(("write", "a", "0:1")),
        _AcquireReq(requester=p2),
        _ReleaseReq(requester=p2),
        _Denied(holder=p0),
        _LookupRequest(query_id=3, origin=p1, predicate_name="all"),
        _LookupReply(query_id=3, matches=frozenset({("k1", 1)})),
        _WriteAck(MessageId(p1, vid, 7)),
        MetricSample(
            name="multicast_delivery_latency",
            kind="histogram",
            labels=(("pid", "p1.0"),),
            value=3.5,
            count=2,
            buckets=((1.0, 1), (2.0, 2), (float("inf"), 2)),
        ),
        MetricsSnapshot(
            source="site1",
            runtime="realnet",
            time=12.5,
            samples=(
                MetricSample(
                    name="view_changes_total",
                    kind="counter",
                    labels=(("pid", "p1.0"),),
                    value=4.0,
                ),
            ),
        ),
        TraceCtx(trace_id=0x1001, span_id=0x2001, parent=0x1001),
        SpanEvent(
            trace_id=0x1001,
            span_id=0x2001,
            parent=0x1001,
            name="view.agree",
            pid="p1.0",
            site=1,
            t0=1.5,
            t1=2.25,
            attrs=(("view", "v4@p0.0"),),
        ),
        TraceDump(
            node="site1",
            runtime="realnet",
            epoch=1000.5,
            dropped=2,
            events=(
                SpanEvent(
                    trace_id=0x1001,
                    span_id=0x3001,
                    parent=0,
                    name="view.change",
                    pid="p1.0",
                    site=1,
                    t0=1.0,
                    t1=1.0,
                ),
            ),
        ),
    ]
