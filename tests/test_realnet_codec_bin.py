"""Binary wire codec units: roundtrips and error paths.

Tier-1 (socket-free) coverage for :mod:`repro.realnet.codec_bin`:

* a sample of **every** registered wire dataclass (the shared
  ``tests/wire_samples.py`` table) round-trips identically through
  both codec layers — the value codec and the ``msg`` frame around it
  (a coverage assertion keeps the table honest when new payload
  classes are registered);
* scalars and containers round-trip with their types, and values
  outside the wire vocabulary are refused;
* the ``bin1`` msg framing round-trips through ``frame_msg`` /
  ``parse_msg``;
* malformed input dies loudly — truncation, oversized frames, unknown
  classes, field-layout drift, registry collisions.

The handshake that refuses a peer with another schema fingerprint is
``tests/test_frame_server.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import CodecError
from repro.fd.heartbeat import Heartbeat
from repro.realnet import codec_bin
from repro.realnet.codec import MAX_FRAME_BYTES, register_payload, registered_payloads
from repro.realnet.codec_bin import (
    BIN_FORMAT,
    FORMAT_BIN,
    decode_value_bin,
    encode_value_bin,
    schema_fingerprint,
)
from repro.types import ProcessId, ViewId
from tests.wire_samples import samples


def test_samples_cover_every_registered_class():
    sampled = {type(s).__name__ for s in samples()}
    assert sampled == set(registered_payloads())


@pytest.mark.parametrize("payload", samples(), ids=lambda p: type(p).__name__)
def test_both_codecs_roundtrip_identically(payload):
    via_value = decode_value_bin(encode_value_bin(payload))
    frame = BIN_FORMAT.frame_msg((2, 1), 5, 0, BIN_FORMAT.encode_payload(payload))
    via_frame = BIN_FORMAT.parse_msg(frame[4:]).payload()
    assert via_value == payload
    assert via_frame == payload
    assert type(via_value) is type(payload)
    assert type(via_frame) is type(payload)


@pytest.mark.parametrize(
    "value",
    [
        0,
        127,
        128,
        -1,
        -64,
        2**100,
        -(2**100),
        0.0,
        -2.5,
        float("inf"),
        float("-inf"),
        "",
        "naïve-ütf8 ✓",
        "x" * 5000,
        (),
        [],
        {},
        frozenset(),
        set(),
        ((1, 2), [3, [4]], {"k": (5,)}),
        {(1, "a"): frozenset({2}), None: True, False: 0},
    ],
    ids=repr,
)
def test_bin_scalars_and_containers_roundtrip(value):
    decoded = decode_value_bin(encode_value_bin(value))
    assert decoded == value
    assert type(decoded) is type(value)


def test_bin_nan_and_numeric_types_survive():
    nan = decode_value_bin(encode_value_bin(float("nan")))
    assert nan != nan
    assert isinstance(decode_value_bin(encode_value_bin(3)), int)
    assert isinstance(decode_value_bin(encode_value_bin(3.0)), float)
    assert decode_value_bin(encode_value_bin(True)) is True
    assert decode_value_bin(encode_value_bin(False)) is False


class _FloatSub(float):
    pass


@dataclasses.dataclass(frozen=True)
class _Unregistered:
    x: int = 1


#: Values outside the wire vocabulary, each with what its error says.
#: Only bool/int/str subclasses are encoded as their base type.
REJECTED = (
    (object(), "cannot encode object value"),
    (b"raw-bytes", "cannot encode bytes value"),
    (1 + 2j, "cannot encode complex value"),
    (_FloatSub(1.5), "cannot encode _FloatSub value"),
    (_Unregistered(), "unregistered dataclass on the wire"),
    (_Unregistered, "cannot encode type value"),
    ((1, [object()]), "cannot encode object value"),
)


def test_bin_rejects_what_json_rejects():
    """The values the former tagged-JSON encoder refused, and more."""
    for bad, message in REJECTED:
        with pytest.raises(CodecError, match=message):
            encode_value_bin(bad)


# ---------------------------------------------------------------------------
# msg framing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", [BIN_FORMAT], ids=[FORMAT_BIN])
@pytest.mark.parametrize("dst_inc", [None, 0, 7, 300], ids=lambda v: f"inc={v}")
def test_msg_framing_roundtrip(fmt, dst_inc):
    payload = Heartbeat(ProcessId(2, 1), ViewId(9, ProcessId(0, 0)), 4, 1)
    frame = fmt.frame_msg((2, 1), 5, dst_inc, fmt.encode_payload(payload))
    parsed = fmt.parse_msg(frame[4:])
    assert (parsed.src_site, parsed.src_inc) == (2, 1)
    assert parsed.dst_site == 5
    assert parsed.dst_inc == dst_inc
    assert parsed.payload() == payload


def test_bin_unknown_frame_kind_is_skipped_not_fatal():
    assert BIN_FORMAT.parse_msg(b"\xff whatever") is None


def test_bin_frame_cap_enforced():
    with pytest.raises(CodecError):
        BIN_FORMAT.frame_msg((0, 0), 1, None, b"x" * (MAX_FRAME_BYTES + 1))


# ---------------------------------------------------------------------------
# error paths: the decoder must die loudly, not misread
# ---------------------------------------------------------------------------


def _bin_body(payload) -> bytes:
    return BIN_FORMAT.frame_msg((0, 0), 1, 0, encode_value_bin(payload))[4:]


def test_bin_truncation_every_prefix_raises_or_differs():
    payload = samples()[18]  # VcFlush: the deepest nesting
    encoded = encode_value_bin(payload)
    for cut in range(len(encoded)):
        with pytest.raises(CodecError):
            decode_value_bin(encoded[:cut])


def test_bin_trailing_bytes_rejected():
    with pytest.raises(CodecError, match="trailing"):
        decode_value_bin(encode_value_bin((1, 2)) + b"\x00")
    body = _bin_body(("x",)) + b"\x00"
    with pytest.raises(CodecError, match="trailing"):
        BIN_FORMAT.parse_msg(body).payload()


def test_bin_unknown_class_id():
    out = bytearray([codec_bin._T_CLASS])
    codec_bin._enc_uvarint(out, 10_000)
    codec_bin._enc_uvarint(out, 0)
    with pytest.raises(CodecError, match="unknown wire payload class id"):
        decode_value_bin(bytes(out))


def test_bin_unknown_value_tag():
    with pytest.raises(CodecError, match="unknown binary value tag"):
        decode_value_bin(b"\x7f")


def test_bin_field_layout_mismatch():
    # A peer whose ProcessId grew a third field: same class id, arity 3.
    table = codec_bin.class_table()
    class_id = table.by_class[ProcessId][0]
    out = bytearray([codec_bin._T_CLASS])
    codec_bin._enc_uvarint(out, class_id)
    codec_bin._enc_uvarint(out, 3)
    for value in (1, 2, 3):
        codec_bin._enc_int(out, value)
    with pytest.raises(CodecError, match="field-layout mismatch"):
        decode_value_bin(bytes(out))


def test_bin_varint_too_long():
    with pytest.raises(CodecError):
        decode_value_bin(bytes([codec_bin._T_INT]) + b"\xff" * 25)


def test_split_frames_rejects_oversized_length_prefix():
    from repro.realnet.codec import _LEN
    from repro.realnet.transport import FrameServer

    server = FrameServer("127.0.0.1", 0, lambda msg: None)
    buf = bytearray(_LEN.pack(MAX_FRAME_BYTES + 1) + b"x")
    with pytest.raises(CodecError, match="exceeds cap"):
        server._split_frames(buf)


def test_split_frames_carves_complete_frames_only():
    from repro.realnet.codec import _LEN
    from repro.realnet.transport import FrameServer

    server = FrameServer("127.0.0.1", 0, lambda msg: None)
    whole = _LEN.pack(3) + b"abc" + _LEN.pack(2) + b"de"
    buf = bytearray(whole + _LEN.pack(4) + b"xy")  # third frame truncated
    assert server._split_frames(buf) == [b"abc", b"de"]
    assert bytes(buf) == _LEN.pack(4) + b"xy"  # partial tail kept for next read
    buf += b"zw"
    assert server._split_frames(buf) == [b"xyzw"]
    assert not buf


def test_register_payload_collision_rules():
    # Re-registering the identical class is a no-op ...
    register_payload(ProcessId)
    fingerprint = schema_fingerprint()
    assert fingerprint == schema_fingerprint()

    # ... but a different class under a taken name must raise.
    class ProcessId2:
        pass

    ProcessId2.__name__ = "ProcessId"
    with pytest.raises(CodecError):
        register_payload(ProcessId2)


def test_schema_fingerprint_is_stable_and_short():
    fp = schema_fingerprint()
    assert fp == schema_fingerprint()
    assert len(fp) == 16
    int(fp, 16)  # hex


# ---------------------------------------------------------------------------
# Identifier memo: one shared object per ProcessId / ViewId value
# ---------------------------------------------------------------------------


def test_decoded_identifiers_are_shared_and_equal_to_fresh_ones():
    pid = ProcessId(3, 7)
    vid = ViewId(9, ProcessId(3, 7))
    first = decode_value_bin(encode_value_bin((pid, vid)))
    second = BIN_FORMAT.parse_msg(_bin_body((vid, pid))).payload()
    assert first == (pid, vid) and second == (vid, pid)
    assert (hash(first[0]), hash(first[1])) == (hash(pid), hash(vid))
    assert first[0] is second[1] and first[1] is second[0]
    assert first[1].coordinator is first[0]
    # the receiver's sender ids come from the same memo
    assert codec_bin.process_id(3, 7) is first[0]


def test_identifier_memos_are_bounded():
    for inc in range(10_000):
        decoded = decode_value_bin(encode_value_bin(ViewId(inc, ProcessId(5, inc))))
        assert decoded.coordinator == ProcessId(5, inc)
    for cls in codec_bin.INTERNED:
        assert 0 < len(codec_bin._MEMOS[cls]) <= codec_bin.MEMO_CAP == 4096


def test_a_warm_put_frame_decodes_without_building_identifiers(monkeypatch):
    from collections import Counter

    from repro.core.group_object import _OpMsg
    from repro.types import Message, MessageId

    built: Counter[str] = Counter()
    for cls in (ProcessId, ViewId):
        def counting(cls_, *args, _original=cls.__new__, _name=cls.__name__):
            built[_name] += 1
            return _original(cls_, *args)

        monkeypatch.setattr(cls, "__new__", counting)
    writer = ProcessId(1, 0)
    put = Message(
        MessageId(writer, ViewId(4, ProcessId(0, 0)), 7),
        _OpMsg(("put", "k42", "v", "gen0", 3)),
        eview_seq=2,
    )
    assert built == Counter(ProcessId=2, ViewId=1)  # the patch counts
    body = _bin_body(put)
    assert BIN_FORMAT.parse_msg(body).payload() == put  # warms the memos
    built.clear()
    assert BIN_FORMAT.parse_msg(body).payload() == put
    assert built == Counter()
