"""Socket-free realnet units: ports conformance, codec, wall clock.

These run in the default (tier-1) lane — no sockets, sub-second wall
time.  The loopback smoke tests that exercise real TCP live in
``tests/realnet/`` behind the ``realnet`` marker.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import CodecError
from repro.net.network import Network
from repro.net.topology import Topology
from repro.ports import NetworkPort, SchedulerPort
from repro.realnet.codec import MAX_FRAME_BYTES, encode_frame, registered_payloads
from repro.realnet.codec_bin import BIN_FORMAT, decode_value_bin, encode_value_bin
from repro.realnet.transport import FrameServer, OutMessage, PeerLink
from repro.realnet.wallclock import WallClockScheduler
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler


# ---------------------------------------------------------------------------
# Ports: both backends satisfy the same explicit contracts
# ---------------------------------------------------------------------------


def test_sim_scheduler_satisfies_scheduler_port():
    assert isinstance(Scheduler(), SchedulerPort)


def test_wallclock_scheduler_satisfies_scheduler_port():
    async def check():
        assert isinstance(WallClockScheduler(), SchedulerPort)

    asyncio.run(check())


def test_sim_network_satisfies_network_port():
    network = Network(Scheduler(), Topology(range(2)), RngStreams(0))
    assert isinstance(network, NetworkPort)


def test_real_network_satisfies_network_port():
    from repro.realnet.network import RealNetwork

    async def check():
        network = RealNetwork(WallClockScheduler(), 0, {})
        assert isinstance(network, NetworkPort)

    asyncio.run(check())


def test_every_registry_serving_a_node_exports_the_wire_gauges():
    from repro.realnet.cluster import RealCluster
    from repro.realnet.procnode import NodeSupervisor
    from repro.runtime.core import TRANSPORT_GAUGES, ClusterConfig

    wanted = {
        "net_messages_sent_total", "net_messages_dropped_total",
        "fd_heartbeats_skipped_total", "store_put_multicasts_total",
    } | {
        f"transport_{key}_total" for key in TRANSPORT_GAUGES
    }
    assert {"transport_reads_total", "transport_bad_frames_total",
            "transport_bad_connections_total"} <= wanted

    async def check():
        child = NodeSupervisor(0, {0: ("127.0.0.1", 0)}, ClusterConfig())
        assert wanted <= set(child.registry.snapshot("site0").names())
        cluster = RealCluster(2)
        assert wanted <= set(cluster.metrics.snapshot("cluster").names())

    asyncio.run(check())


# ---------------------------------------------------------------------------
# Codec: bin1 values, the handshake frame cap, the registry
# ---------------------------------------------------------------------------


def test_codec_scalar_and_container_tags():
    value = {
        "ints": (1, -2, 0),
        "floats": [1.5, float("inf"), float("-inf")],
        "set": {1, 2},
        "none": None,
        ("tuple", "key"): frozenset({"a"}),
    }
    decoded = decode_value_bin(encode_value_bin(value))
    assert decoded == value
    assert type(decoded["ints"]) is tuple and type(decoded["floats"]) is list
    assert type(decoded["set"]) is set
    nan = decode_value_bin(encode_value_bin(float("nan")))
    assert nan != nan  # NaN survives the trip as NaN


def test_codec_rejects_unregistered_dataclass():
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class NotOnTheWire:
        x: int = 1

    with pytest.raises(CodecError, match="unregistered dataclass"):
        encode_value_bin(NotOnTheWire())


def test_codec_rejects_arbitrary_objects():
    with pytest.raises(CodecError):
        encode_value_bin(object())
    with pytest.raises(CodecError):  # nested inside a container too
        BIN_FORMAT.encode_payload(("m", [object()]))


def test_frame_cap_enforced():
    with pytest.raises(CodecError):
        encode_frame({"p": "x" * (MAX_FRAME_BYTES + 1)})


def test_registry_covers_the_stack_vocabulary():
    names = set(registered_payloads())
    for required in (
        "Heartbeat", "Message", "VcPropose", "VcPrepare", "VcFlush", "VcNack",
        "VcInstall", "VcAbort", "Leave", "EvReq", "EvChange", "EvRepairReq",
        "StabilityReport", "StabilityNotice", "RetransmitRequest",
        "DirectPayload", "SubviewScoped", "PredecessorPlan",
    ):
        assert required in names


# ---------------------------------------------------------------------------
# WallClockScheduler
# ---------------------------------------------------------------------------


def test_wallclock_fires_in_order_and_cancels():
    async def scenario():
        sched = WallClockScheduler()
        fired: list[str] = []
        sched.fire_after(0.02, fired.append, "b")
        sched.fire_after(0.0, fired.append, "a")
        handle = sched.after(0.01, fired.append, "cancelled")
        keep = sched.after(0.01, fired.append, "kept")
        handle.cancel()
        handle.cancel()  # idempotent
        await asyncio.sleep(0.06)
        keep.cancel()  # after firing: harmless
        assert fired == ["a", "kept", "b"]
        assert sched.events_run == 3

    asyncio.run(asyncio.wait_for(scenario(), 5))


def test_wallclock_equal_deadlines_all_fire():
    # asyncio does not promise insertion order on equal deadlines (the
    # protocols are seqno-guarded against that), but nothing may be lost.
    async def scenario():
        sched = WallClockScheduler()
        fired: list[int] = []
        for i in range(5):
            sched.fire_at(0.01, fired.append, i)
        await asyncio.sleep(0.05)
        assert sorted(fired) == [0, 1, 2, 3, 4]

    asyncio.run(asyncio.wait_for(scenario(), 5))


def test_wallclock_clamps_the_past_instead_of_raising():
    async def scenario():
        sched = WallClockScheduler()
        fired: list[str] = []
        sched.at(-100.0, fired.append, "past")
        sched.after(-5.0, fired.append, "negative-delay")
        await asyncio.sleep(0.02)
        assert sorted(fired) == ["negative-delay", "past"]

    asyncio.run(asyncio.wait_for(scenario(), 5))


def test_wallclock_contains_callback_exceptions():
    async def scenario():
        caught: list[BaseException] = []
        sched = WallClockScheduler(on_error=caught.append)
        fired: list[str] = []

        def boom():
            raise RuntimeError("protocol bug")

        sched.fire_after(0.0, boom)
        sched.fire_after(0.01, fired.append, "still-running")
        await asyncio.sleep(0.03)
        assert fired == ["still-running"]
        assert sched.errors == 1
        assert isinstance(caught[0], RuntimeError)

    asyncio.run(asyncio.wait_for(scenario(), 5))


def test_wallclock_now_advances():
    async def scenario():
        sched = WallClockScheduler()
        start = sched.now
        await asyncio.sleep(0.02)
        assert sched.now >= start + 0.015

    asyncio.run(asyncio.wait_for(scenario(), 5))


# ---------------------------------------------------------------------------
# Peer link flush: packing, byte cap, encode errors (fake writer, no sockets)
# ---------------------------------------------------------------------------


class _FakeWriter:
    """Stands in for the StreamWriter *and* its transport: records each
    ``write`` and reports whatever buffer size the test sets."""

    def __init__(self) -> None:
        self.writes: list[bytes] = []
        self.buffered = 0
        self.transport = self

    def write(self, data) -> None:
        self.writes.append(bytes(data))

    def is_closing(self) -> bool:
        return False

    def get_write_buffer_size(self) -> int:
        return self.buffered

    def get_write_buffer_limits(self) -> tuple[int, int]:
        return (16 * 1024, 64 * 1024)


def out(payload) -> OutMessage:
    """``payload`` queued for any incarnation, encoded like the sender does."""
    return OutMessage(None, BIN_FORMAT.encode_payload(payload))


def _flushed_link(messages, **link_kwargs):
    """Offer ``messages`` to a connected link in one loop turn; returns
    (link, payloads carried by each write, in write order)."""
    writer = _FakeWriter()
    link = PeerLink("0->1", (0, 0), 1, lambda: None, **link_kwargs)

    async def scenario():
        link._link_up(writer)
        for msg in messages:
            assert link.offer(msg)
        assert writer.writes == []  # nothing leaves before the turn ends
        await asyncio.sleep(0)

    asyncio.run(asyncio.wait_for(scenario(), 5))
    splitter = FrameServer("", 0, lambda msg: None)
    written = [
        [
            BIN_FORMAT.parse_msg_at(body, 0, len(body)).payload()
            for body in splitter._split_frames(bytearray(data))
        ]
        for data in writer.writes
    ]
    return link, written


def test_link_flush_splits_one_turns_messages_at_batch_bytes_in_order():
    payloads = [("m", i, "x" * 1000) for i in range(10)]
    link, written = _flushed_link([out(p) for p in payloads], batch_bytes=2500)
    assert [len(batch) for batch in written] == [3, 3, 3, 1]
    assert [p for batch in written for p in batch] == payloads
    stats = link.stats()
    assert (stats["flushes"], stats["max_batch"], stats["frames_sent"]) == (4, 3, 10)
    assert stats["queued"] == 0


def test_link_flush_with_batch_bytes_zero_writes_one_frame_per_write():
    payloads = [("m", i) for i in range(5)]
    link, written = _flushed_link([out(p) for p in payloads], batch_bytes=0)
    assert written == [[p] for p in payloads]
    assert link.stats()["max_batch"] == 1


def test_link_flush_counts_and_skips_an_unencodable_payload():
    # The sender encodes, so an unencodable payload never reaches a
    # link; what a link can still fail to frame is a body over the cap.
    oversize = OutMessage(None, b"x" * MAX_FRAME_BYTES)
    link, written = _flushed_link([out(("a", 1)), oversize, out(("b", 2))])
    assert written == [[("a", 1), ("b", 2)]]  # neighbours kept, in order
    stats = link.stats()
    assert (stats["encode_errors"], stats["frames_sent"], stats["queued"]) == (1, 2, 0)


def test_link_flush_above_high_water_writes_nothing_and_keeps_the_queue():
    writer = _FakeWriter()
    link = PeerLink("0->1", (0, 0), 1, lambda: None, queue_cap=4)

    def offer(i: int) -> bool:
        return link.offer(out(("m", i)))

    async def scenario():
        link._link_up(writer)
        writer.buffered = 64 * 1024 + 1
        assert [offer(i) for i in range(3)] == [True] * 3
        await asyncio.sleep(0)
        assert writer.writes == []
        stats = link.stats()
        assert (stats["write_stalls"], stats["queued"]) == (1, 3)
        # The flush is now owed by the link task (after a drain): offers
        # keep queueing up to the cap but schedule nothing meanwhile.
        assert [offer(i) for i in range(3, 6)] == [True, False, False]
        await asyncio.sleep(0)
        stats = link.stats()
        assert (stats["write_stalls"], stats["queued"], stats["frames_dropped"]) == (1, 4, 2)
        assert writer.writes == []

    asyncio.run(asyncio.wait_for(scenario(), 5))
