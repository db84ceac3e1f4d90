"""Binary wire codec units: roundtrips, negotiation, error paths.

Tier-1 (socket-free) coverage for :mod:`repro.realnet.codec_bin`:

* a sample of **every** registered wire dataclass (the shared
  ``tests/wire_samples.py`` table) round-trips identically under both
  codecs (a coverage assertion keeps the table honest when new payload
  classes are registered);
* the ``bin1`` msg framing round-trips through ``frame_msg`` /
  ``parse_msg``;
* both codecs reject the same malformed inputs — truncation, oversized
  frames, unknown classes, field-layout drift, registry collisions;
* ``hello`` negotiation picks binary only between schema-matched peers
  and falls back to JSON everywhere else.
"""

from __future__ import annotations

import pytest

from repro.errors import CodecError
from repro.fd.heartbeat import Heartbeat
from repro.realnet import codec_bin
from repro.realnet.codec import (
    MAX_FRAME_BYTES,
    decode_value,
    encode_value,
    register_payload,
    registered_payloads,
)
from repro.realnet.codec_bin import (
    BIN_FORMAT,
    FORMAT_BIN,
    FORMAT_JSON,
    JSON_FORMAT,
    choose_format,
    decode_value_bin,
    encode_value_bin,
    schema_fingerprint,
    supported_formats,
)
from repro.types import ProcessId, ViewId
from tests.wire_samples import samples


def test_samples_cover_every_registered_class():
    sampled = {type(s).__name__ for s in samples()}
    assert sampled == set(registered_payloads())


@pytest.mark.parametrize("payload", samples(), ids=lambda p: type(p).__name__)
def test_both_codecs_roundtrip_identically(payload):
    via_bin = decode_value_bin(encode_value_bin(payload))
    via_json = decode_value(encode_value(payload))
    assert via_bin == payload
    assert via_json == payload
    assert type(via_bin) is type(payload)
    assert via_bin == via_json


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


def test_bin_rejects_what_json_rejects():
    for bad in (object(), b"raw-bytes", 1 + 2j):
        with pytest.raises(CodecError):
            encode_value(bad)
        with pytest.raises(CodecError):
            encode_value_bin(bad)


# ---------------------------------------------------------------------------
# msg framing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", [JSON_FORMAT, BIN_FORMAT], ids=lambda f: f.name)
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


def test_json_truncated_body_raises():
    from repro.realnet.codec import decode_frame_body, encode_frame

    frame = encode_frame({"k": "msg", "p": "hello"})
    with pytest.raises(CodecError):
        decode_frame_body(frame[4:-3])
    with pytest.raises(CodecError):
        decode_frame_body(b"\xff\xfe not json")


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


# ---------------------------------------------------------------------------
# negotiation
# ---------------------------------------------------------------------------


def test_supported_formats_preference_order():
    assert supported_formats("json") == (FORMAT_JSON,)
    assert supported_formats("bin") == (FORMAT_BIN, FORMAT_JSON)
    assert supported_formats("bin1") == (FORMAT_BIN, FORMAT_JSON)
    with pytest.raises(CodecError):
        supported_formats("msgpack")


def test_choose_format_picks_binary_on_schema_match():
    fp = schema_fingerprint()
    accept = supported_formats("bin")
    assert choose_format([FORMAT_BIN, FORMAT_JSON], fp, accept) == FORMAT_BIN
    assert choose_format([FORMAT_JSON, FORMAT_BIN], fp, accept) == FORMAT_JSON


def test_choose_format_schema_mismatch_falls_back_to_json():
    accept = supported_formats("bin")
    assert choose_format([FORMAT_BIN, FORMAT_JSON], "0" * 16, accept) == FORMAT_JSON
    assert choose_format([FORMAT_BIN], None, accept) == FORMAT_JSON


def test_choose_format_json_only_server_never_picks_binary():
    fp = schema_fingerprint()
    accept = supported_formats("json")
    assert choose_format([FORMAT_BIN, FORMAT_JSON], fp, accept) == FORMAT_JSON


def test_choose_format_pre_binary_peer_and_garbage_hellos():
    fp = schema_fingerprint()
    accept = supported_formats("bin")
    assert choose_format(None, fp, accept) == FORMAT_JSON  # pre-binary hello
    assert choose_format("bin1", fp, accept) == FORMAT_JSON  # not a list
    assert choose_format(["gzip", 42], fp, accept) == FORMAT_JSON  # unknown names


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
        def counting(self, _original=cls.__post_init__, _name=cls.__name__):
            built[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    writer = ProcessId(1, 0)
    put = Message(
        MessageId(writer, ViewId(4, ProcessId(0, 0)), 7),
        _OpMsg(("put", "k42", "v", "gen0", 3)),
        eview_seq=2,
    )
    body = _bin_body(put)
    assert BIN_FORMAT.parse_msg(body).payload() == put  # warms the memos
    built.clear()
    assert BIN_FORMAT.parse_msg(body).payload() == put
    assert built == Counter()
