"""The node socket's receive path, without sockets.

Each connection a :class:`FrameServer` accepts is an asyncio protocol
whose ``data_received`` walks the frames of one read and dispatches
them before it returns.  These cases drive one such connection over a
fake transport: the framing property (any split of a byte stream
dispatches what one read of it does, and what the copying reference
``FrameServer._split_frames`` carves), the connection-fatal cases, and
the accounting of a payload that does not decode.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.errors import CodecError
from repro.realnet import codec_bin
from repro.realnet.codec import _LEN, MAX_FRAME_BYTES, encode_frame
from repro.realnet.codec_bin import (
    BIN_FORMAT,
    JSON_FORMAT,
    encode_value_bin,
    schema_fingerprint,
)
from repro.realnet.network import RealNetwork
from repro.realnet.transport import FrameServer
from repro.realnet.wallclock import WallClockScheduler
from repro.types import ProcessId

FORMATS = (BIN_FORMAT, JSON_FORMAT)


class FakeTransport:
    """What a connection writes to: records each ``write``, closes on
    request.  A closed transport delivers no more reads."""

    def __init__(self) -> None:
        self.writes: list[bytes] = []
        self.closed = False

    def write(self, data) -> None:
        self.writes.append(bytes(data))

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True


def hello(fmt) -> bytes:
    return encode_frame(
        {"k": "hello", "src": [1, 0], "codecs": [fmt.name], "schema": schema_fingerprint()}
    )


def wrong_typed_payload(fmt):
    """A ProcessId whose site is a list: well framed, but its
    constructor (or its memo key) cannot hash it."""
    if fmt is JSON_FORMAT:
        return {"__c__": "ProcessId", "f": {"site": [1], "incarnation": 0}}
    out = bytearray([codec_bin._T_CLASS])
    codec_bin._enc_uvarint(out, codec_bin.class_table().by_class[ProcessId][0])
    codec_bin._enc_uvarint(out, 2)
    return bytes(out + encode_value_bin([1]) + encode_value_bin(0))


def garbled_payload(fmt):
    return {"__c__": "NoSuchClass", "f": {}} if fmt is JSON_FORMAT else b"\x7f"


# ---------------------------------------------------------------------------
# An undecodable payload is one bad frame
# ---------------------------------------------------------------------------


class Process:
    """The registered stack: keeps what it is delivered."""

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        self.alive = True
        self.input_batch = False
        self.delivered: list[tuple[ProcessId, object]] = []

    def attach(self, network) -> None:
        pass

    def deliver_network(self, src: ProcessId, payload) -> None:
        self.delivered.append((src, payload))

    def end_input_batch(self) -> None:
        self.input_batch = False


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_an_undecodable_payload_is_one_bad_frame_and_the_link_lives(fmt):
    async def scenario():
        network = RealNetwork(WallClockScheduler(), 0, {})
        process = Process(ProcessId(0, 0))
        network.register(process)
        server = FrameServer(
            "", 0, network._on_msg, accept_formats=(fmt.name,),
            on_side=network._on_side,
        )
        transport = FakeTransport()
        conn = server._connection()
        conn.connection_made(transport)
        conn.data_received(hello(fmt))
        for payload in (garbled_payload(fmt), wrong_typed_payload(fmt)):
            before = (server.bad_frames, network.stats.dropped_dead)
            conn.data_received(fmt.frame_msg((1, 0), 0, 0, payload))
            after = (server.bad_frames, network.stats.dropped_dead)
            assert after == (before[0] + 1, before[1])
        conn.data_received(fmt.frame_msg((1, 0), 0, 0, fmt.encode_payload(("ok", 1))))
        assert process.delivered == [(ProcessId(1, 0), ("ok", 1))]
        assert (server.bad_connections, transport.closed) == (0, False)
        assert network.stats.delivered == 1

    asyncio.run(asyncio.wait_for(scenario(), 5))


# ---------------------------------------------------------------------------
# Framing: any split of the stream dispatches what one read does
# ---------------------------------------------------------------------------


def seeded_stream(fmt, rng: random.Random, n_frames: int = 60) -> bytes:
    """One hello, then msg, side and garbage-body frames in random order."""
    frames = [hello(fmt)]
    for i in range(n_frames):
        shape = rng.choice(("msg", "msg", "side", "garbage", "unknown"))
        if shape == "msg":
            payload = ("m", i, "x" * rng.randrange(0, 300))
            frames.append(fmt.frame_msg((1, i % 3), 0, None, fmt.encode_payload(payload)))
        elif shape == "side":
            frames.append(fmt.frame_side("ctl", ("ping", i)))
        elif shape == "garbage":
            bad = rng.choice((garbled_payload(fmt), wrong_typed_payload(fmt)))
            frames.append(fmt.frame_msg((1, 0), 0, None, bad))
        elif fmt is BIN_FORMAT:
            frames.append(_LEN.pack(2) + b"\x7f\x00")
        else:
            frames.append(encode_frame({"k": "from_the_future", "p": i}))
    return b"".join(frames)


def reference_dispatch(fmt, stream: bytes) -> tuple[list, int, int]:
    """(dispatched frames, bad frames, msg frames) from the copying
    reference splitter and the format's parsers, frame by frame."""
    bodies = FrameServer("", 0, lambda msg: None)._split_frames(bytearray(stream))
    dispatched: list = []
    bad = 0
    msgs = 0
    for body in bodies[1:]:  # the first is the hello
        try:
            parsed = fmt.parse_msg_at(body, 0, len(body))
            if parsed is not None:
                msgs += 1
                dispatched.append(("msg", parsed.src_inc, parsed.payload()))
                continue
            side = fmt.parse_side(body, 0, len(body))
            if side is not None:
                dispatched.append(("side", *side))
        except CodecError:
            bad += 1
    return dispatched, bad, msgs


def split(stream: bytes, rng: random.Random, low: int, high: int) -> list[bytes]:
    chunks = []
    pos = 0
    while pos < len(stream):
        step = rng.randint(low, high)
        chunks.append(stream[pos : pos + step])
        pos += step
    return chunks


class Recorder:
    """A frame server whose handlers record, in order, what reaches them."""

    def __init__(self, fmt) -> None:
        self.dispatched: list = []
        self.server = FrameServer(
            "", 0, self._msg, accept_formats=(fmt.name,), on_side=self._side
        )
        self.transport = FakeTransport()
        self.conn = self.server._connection()
        self.conn.connection_made(self.transport)

    def _msg(self, parsed) -> None:
        self.dispatched.append(("msg", parsed.src_inc, parsed.payload()))

    def _side(self, kind, value, reply) -> None:
        self.dispatched.append(("side", kind, value))

    def feed(self, chunks: list[bytes]) -> None:
        for chunk in chunks:
            if self.transport.closed:
                break
            self.conn.data_received(chunk)

    def counters(self) -> tuple[int, int, int, int]:
        server = self.server
        return (
            server.frames_received,
            server.bad_frames,
            server.bad_connections,
            server.bytes_received,
        )


def splits(stream: bytes, rng: random.Random) -> dict[str, list[bytes]]:
    return {
        "one byte per read": [stream[i : i + 1] for i in range(len(stream))],
        "frames spanning reads": split(stream, rng, 1, 40),
        "many frames per read": split(stream, rng, 200, 3000),
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_any_split_dispatches_what_one_read_and_the_reference_do(fmt, seed):
    rng = random.Random(seed)
    stream = seeded_stream(fmt, rng)
    expected, expected_bad, expected_msgs = reference_dispatch(fmt, stream)
    assert expected_bad > 0 and any(d[0] == "side" for d in expected)

    whole = Recorder(fmt)
    whole.feed([stream])
    whole.conn.eof_received()
    walked = len(FrameServer("", 0, None)._split_frames(bytearray(stream))) - 1
    assert whole.dispatched == expected
    assert (whole.server.bad_frames, whole.server.frames_received) == (
        expected_bad, expected_msgs
    )
    assert (whole.server.reads, whole.server.max_frames_per_read) == (1, walked)
    assert (whole.server.bad_connections, whole.transport.closed) == (0, False)
    assert whole.server.bytes_received == len(stream)

    for name, chunks in splits(stream, rng).items():
        pieces = Recorder(fmt)
        pieces.feed(chunks)
        pieces.conn.eof_received()
        assert pieces.dispatched == expected, name
        assert pieces.counters() == whole.counters(), name
        assert pieces.server.reads <= len(chunks), name
        assert pieces.conn._buf == b"", name  # nothing left over
        # the welcome, and the ctl side frames went unanswered
        assert len(pieces.transport.writes) == 1, name


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_an_oversize_length_closes_the_connection_once(fmt):
    rng = random.Random(11)
    head = seeded_stream(fmt, rng, n_frames=20)
    expected, _, _ = reference_dispatch(fmt, head)
    tail = seeded_stream(fmt, rng, n_frames=5)[len(hello(fmt)):]
    stream = head + _LEN.pack(MAX_FRAME_BYTES + 1) + b"junk" + tail
    with pytest.raises(CodecError, match="exceeds cap"):
        FrameServer("", 0, None)._split_frames(bytearray(stream))
    for name, chunks in {"one read": [stream], **splits(stream, rng)}.items():
        rec = Recorder(fmt)
        rec.feed(chunks)
        assert rec.transport.closed, name
        assert rec.dispatched == expected, name
        assert rec.server.bad_connections == 1, name


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_eof_mid_frame_and_a_missing_hello_cost_the_connection(fmt):
    frame = fmt.frame_msg((1, 0), 0, None, fmt.encode_payload("x"))
    rec = Recorder(fmt)
    rec.feed([hello(fmt) + frame + frame[:3]])
    rec.conn.eof_received()
    assert [d[2] for d in rec.dispatched] == ["x"]
    assert rec.server.bad_connections == 1

    rec = Recorder(fmt)
    rec.feed([frame, hello(fmt)])  # a msg where the hello belongs
    assert rec.transport.closed and rec.transport.writes == []
    assert (rec.server.bad_connections, rec.dispatched) == (1, [])
