"""Cumulative quorum acks: one per writer per socket read.

A replica's ``_StoreAck`` says "I applied every put of yours through
this one", so within one batch of input a replica owes each writer only
its newest ack.  On the wall clock a batch is one read of the node
socket: ``RealNetwork._on_msg`` opens it, the frame server's
``on_read_end`` callback closes it, and the store's acks leave then.
The first cases drive a node's receive path over a fake transport; the
last one runs a real cluster (``realnet`` marker).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.apps.factories import app_factory
from repro.apps.versioned_store import VersionedStore, _StoreAck
from repro.core.group_object import _OpMsg
from repro.realnet.codec_bin import BIN_FORMAT as FMT
from repro.realnet.network import RealNetwork
from repro.realnet.transport import FrameServer
from repro.realnet.wallclock import WallClockScheduler
from repro.sim.process import Process
from repro.sim.stable_storage import SiteStorage
from repro.types import Message, MessageId, ProcessId, ViewId
from tests.test_frame_server import FakeTransport, hello

VIEW = ViewId(3, ProcessId(0, 0))


class StoreNode(Process):
    """A registered process whose store applies every put it is handed.

    No view machinery: what is under test is the receive path and the
    store's acks, which this node records as it sends them."""

    def __init__(self, pid: ProcessId) -> None:
        super().__init__(pid, WallClockScheduler(), SiteStorage(pid.site))
        self.store = VersionedStore(audit_trace=False)
        self.store.stack = self
        self.acks: list[tuple[ProcessId, int]] = []

    def send_direct(self, dst: ProcessId, payload) -> None:
        assert isinstance(payload, _StoreAck)
        self.acks.append((dst, payload.msg_id.seqno))

    def on_network(self, src: ProcessId, payload) -> None:
        if payload == "boom":
            raise RuntimeError("a handler failed")
        self.store.apply_op(src, payload.payload.op, payload.msg_id)


def put(writer: int, seqno: int) -> bytes:
    msg = Message(
        MessageId(ProcessId(writer, 0), VIEW, seqno),
        _OpMsg(("put", f"k{seqno}", seqno, "", 0)),
    )
    return FMT.frame_msg((writer, 0), 0, 0, FMT.encode_payload(msg))


def boom() -> bytes:
    return FMT.frame_msg((1, 0), 0, 0, FMT.encode_payload("boom"))


def run(scenario) -> None:
    asyncio.run(asyncio.wait_for(scenario(), 5))


def node_behind_a_connection() -> tuple[StoreNode, RealNetwork, object]:
    network = RealNetwork(WallClockScheduler(), 0, {})
    node = StoreNode(ProcessId(0, 0))
    network.register(node)
    server = FrameServer(
        "", 0, network._on_msg,
        on_side=network._on_side, on_read_end=network._end_input_batch,
    )
    conn = server._connection()
    conn.connection_made(FakeTransport())
    conn.data_received(hello())
    return node, network, conn


def test_one_read_of_k_puts_from_one_writer_sends_one_ack():
    async def scenario():
        node, _network, conn = node_behind_a_connection()
        conn.data_received(b"".join(put(1, seqno) for seqno in range(1, 9)))
        assert node.acks == [(ProcessId(1, 0), 8)]
        assert node.store.chains.keys() == {f"k{s}" for s in range(1, 9)}
        assert not node.input_batch
        # The next read is the next batch.
        conn.data_received(put(1, 9) + put(1, 10))
        assert node.acks[1:] == [(ProcessId(1, 0), 10)]

    run(scenario)


def test_acks_leave_in_the_order_their_writers_were_first_acked():
    async def scenario():
        node, _network, conn = node_behind_a_connection()
        frames = [put(2, 1), put(1, 1), put(2, 2), put(1, 2), put(2, 3)]
        conn.data_received(b"".join(frames))
        assert node.acks == [(ProcessId(2, 0), 3), (ProcessId(1, 0), 2)]

    run(scenario)


def test_a_failing_handler_still_ends_the_batch():
    async def scenario():
        node, _network, conn = node_behind_a_connection()
        with pytest.raises(RuntimeError, match="a handler failed"):
            conn.data_received(put(1, 1) + put(1, 2) + boom() + put(1, 3))
        assert node.acks == [(ProcessId(1, 0), 2)]
        assert not node.input_batch

    run(scenario)


def test_applies_outside_a_read_ack_at_once():
    async def scenario():
        node, network, conn = node_behind_a_connection()
        writer = ProcessId(1, 0)
        # A timer (or any loop callback outside a read).
        node.store.apply_op(writer, ("put", "a", 1, "", 0), MessageId(writer, VIEW, 1))
        assert node.acks == [(writer, 1)]

        # A side frame: not a msg frame, so no batch is open.
        def handler(value, reply) -> None:
            node.store.apply_op(writer, ("put", "b", 2, "", 0), MessageId(writer, VIEW, 2))
            assert node.acks[-1] == (writer, 2)

        network.side_handlers["ctl"] = handler
        conn.data_received(FMT.frame_side("ctl", ("ping", 1)))
        assert node.acks == [(writer, 1), (writer, 2)]

    run(scenario)


@pytest.mark.realnet
def test_a_burst_of_puts_commits_on_fewer_acks_than_puts_realnet():
    from repro.ports import make_cluster

    n, bursts, per_burst = 5, 12, 8
    cluster = make_cluster("realnet", n, app_factory("store", n), seed=11)
    try:
        assert cluster.settle(timeout=600.0 * cluster.time_scale)
        before = cluster.network_stats().by_type.get("DirectPayload", 0)
        handles: list = []

        def burst(left: int) -> None:
            store = cluster.app_at(0)
            handles.extend(store.put(f"k{len(handles)}", i) for i in range(per_burst))
            if left > 1:
                cluster.after(5.0 * cluster.time_scale, lambda: burst(left - 1))

        cluster.after(0.0, lambda: burst(bursts))
        cluster.run_for((5.0 * bursts + 50.0) * cluster.time_scale)
        acks = cluster.network_stats().by_type.get("DirectPayload", 0) - before
        puts = bursts * per_burst
        assert len(handles) == puts
        assert all(h.status == "committed" for h in handles)
        assert acks < puts * (n - 1)
    finally:
        cluster.close()
