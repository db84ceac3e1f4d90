"""The side channel of the node socket: one frame table, one dispatch.

Everything that is not a ``msg`` — obs polls, control ops, client
requests — is one row of ``codec_bin.SIDE_KINDS``, framed and parsed by
the two wire formats and dispatched by kind (docs/protocol.md §7).  The
framing cases run over every kind x format x direction; the dispatch
cases drive a ``FrameServer`` connection over a fake transport, no
sockets.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.client.protocol import (
    ClientReply,
    ClientRequest,
    client_reply_frame,
    client_request_frame,
    parse_client_reply,
    parse_client_request,
)
from repro.errors import CodecError
from repro.obs.snapshot import MetricsSnapshot
from repro.realnet.codec import _LEN, decode_frame_body, encode_frame
from repro.realnet.codec_bin import (
    BIN_FORMAT,
    JSON_FORMAT,
    SIDE_KINDS,
    WIRE_FORMATS,
    BinWireFormat,
    JsonWireFormat,
    schema_fingerprint,
)
from repro.realnet.network import RealNetwork
from repro.realnet.transport import FrameServer
from repro.realnet.wallclock import WallClockScheduler
from tests.test_frame_server import FakeTransport

FORMATS = (BIN_FORMAT, JSON_FORMAT)

SNAPSHOT = MetricsSnapshot(source="site0", runtime="realnet", time=1.5, samples=())
REQUEST = ClientRequest(7, "put", "k123456", 4242, client="gen0", client_seq=99)
REPLY = ClientReply(7, "ok", prov=(3, 0, 0, 99))

#: kind -> (a request value, a reply value)
SAMPLES = {
    "obs": ("snapshot", SNAPSHOT),
    "ctl": (("mcast_many", (32, ("client", 0, 1))), (True, {"site": 3, "alive": True})),
    "cli": (REQUEST, REPLY),
}

#: kind -> a value no frame of that kind may carry, in either direction
WRONG = {"obs": ("status", None), "ctl": "status", "cli": ("put", "k")}


def test_samples_cover_the_table():
    assert set(SAMPLES) == set(WRONG) == set(SIDE_KINDS)


@pytest.mark.parametrize("reply", [False, True], ids=["request", "reply"])
@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
@pytest.mark.parametrize("kind", sorted(SIDE_KINDS))
def test_side_frame(kind, fmt, reply):
    value = SAMPLES[kind][reply]
    frame = fmt.frame_side(kind, value, reply)
    (length,) = _LEN.unpack(frame[:4])
    body = frame[4:]
    assert length == len(body)
    # round trip, at an offset inside a larger buffer (the receive loop
    # parses in place)
    buf = bytearray(b"\xee" * 3 + body + b"\xee" * 3)
    assert fmt.parse_side(buf, 3, 3 + len(body), reply) == (kind, value)
    # not a msg: the msg parser passes it on instead of raising
    assert fmt.parse_msg_at(buf, 3, 3 + len(body)) is None
    # and a msg is nobody's side frame
    msg = fmt.frame_msg((0, 0), 1, 0, fmt.encode_payload("x"))[4:]
    assert fmt.parse_side(msg, 0, len(msg), reply) is None
    # a frame of another kind parses to that kind: "not mine" for the
    # per-plane parsers, never an error
    for other in SIDE_KINDS:
        theirs = fmt.frame_side(other, SAMPLES[other][reply], reply)[4:]
        parse = parse_client_reply if reply else parse_client_request
        mine = parse(fmt, theirs)
        assert mine == (SAMPLES["cli"][reply] if other == "cli" else None)
    # the right kind around the wrong payload type is garbage
    garbled = fmt.frame_side(kind, WRONG[kind], reply)[4:]
    with pytest.raises(CodecError, match=f"{kind} .* frame carried"):
        fmt.parse_side(garbled, 0, len(garbled), reply)


def test_bin1_client_frames_are_byte_identical_to_the_recorded_ones():
    """Literals printed by the parent of the PR that introduced the side
    table, for the frames ``perfbench/probes.py`` prices."""
    assert client_request_frame(BIN_FORMAT, REQUEST) == (
        b'\x00\x00\x00"\x04\x0b\x01\x07\x87\x05\x03put\x05\x07k123456'
        b"\x03\xa4B\x05\x04gen0\xe3\x05\x03any"
    )
    assert client_reply_frame(BIN_FORMAT, REPLY) == (
        b"\x00\x00\x00\x14\x04\x0b\x00\x06\x87\x05\x02ok\x00\x07\x04"
        b"\x83\x80\x80\xe3\x07\x00\x03\x01"
    )


def test_bin1_side_frame_must_fill_its_frame():
    body = BIN_FORMAT.frame_side("ctl", ("ping", None))[4:]
    with pytest.raises(CodecError):
        BIN_FORMAT.parse_side(body + b"\x00", 0, len(body) + 1)
    with pytest.raises(CodecError):
        BIN_FORMAT.parse_side(body, 0, len(body) - 1)
    with pytest.raises(CodecError):  # a bare kind byte carries no value
        BIN_FORMAT.parse_side(body, 0, 1)


# ---------------------------------------------------------------------------
# Dispatch: FrameServer + RealNetwork over a fake transport
# ---------------------------------------------------------------------------


def _counting(base):
    class Counting(base):
        side_parses = 0

        def parse_side(self, buf, start, end, reply=False):
            self.side_parses += 1
            return super().parse_side(buf, start, end, reply)

    return Counting()


@pytest.mark.parametrize(
    "base", [BinWireFormat, JsonWireFormat], ids=lambda cls: cls.name
)
def test_a_side_frame_is_decoded_once_and_reaches_exactly_one_handler(
    monkeypatch, base
):
    fmt = _counting(base)
    monkeypatch.setitem(WIRE_FORMATS, fmt.name, fmt)
    hello = encode_frame(
        {
            "k": "hello",
            "src": [-1, 0],
            "codecs": [fmt.name],
            "schema": schema_fingerprint(),
        }
    )
    unknown = (
        _LEN.pack(2) + b"\x7f\x00"
        if fmt.name == "bin1"
        else encode_frame({"k": "from_the_future", "p": 1})
    )
    garbled = fmt.frame_side("obs", WRONG["obs"])
    stream = (
        hello
        + fmt.frame_side("obs", "snapshot")
        + fmt.frame_side("cli", REQUEST)  # nobody serves cli here
        + unknown
        + garbled
        + fmt.frame_side("ctl", ("ping", None))
    )
    seen: list[tuple[str, object]] = []

    def serve(name):
        def handler(value, reply):
            seen.append((name, value))
            reply(SAMPLES[name][True])

        return handler

    async def scenario():
        network = RealNetwork(WallClockScheduler(), 0, {})
        network.side_handlers["obs"] = serve("obs")
        network.side_handlers["ctl"] = serve("ctl")
        server = FrameServer(
            "", 0, network._on_msg, accept_formats=(fmt.name,),
            on_side=network._on_side,
        )
        transport = FakeTransport()
        conn = server._connection()
        conn.connection_made(transport)
        conn.data_received(stream)
        conn.eof_received()
        conn.connection_lost(None)
        return server, transport

    server, writer = asyncio.run(asyncio.wait_for(scenario(), 5))
    assert seen == [("obs", "snapshot"), ("ctl", ("ping", None))]
    # one decode per non-msg frame, whoever (if anyone) serves its kind
    assert fmt.side_parses == 5
    # the unserved and the unknown kind cost nothing; the garbled frame
    # cost one frame, not the link: the ctl request after it was served
    assert (server.bad_frames, server.bad_connections) == (1, 0)
    welcome, *replies = writer.writes
    assert decode_frame_body(welcome[4:]) == {"k": "welcome", "codec": fmt.name}
    assert [fmt.parse_side(r, 4, len(r), True) for r in replies] == [
        ("obs", SNAPSHOT),
        ("ctl", SAMPLES["ctl"][True]),
    ]
