"""Zero-copy wire path units: packer table, in-place framing, offset decode.

Tier-1 (socket-free) coverage for the PR-6 data-path rework of
:mod:`repro.realnet.codec_bin` and the transport batch packing built on
it:

* the precomputed class-id -> packer table covers every registered
  payload class and refreshes when the registry grows;
* ``frame_msg_into`` produces byte-identical frames to ``frame_msg``
  (the wire layout is unchanged), rolls back cleanly on a cap
  violation, and packs multi-frame batches that the offset-walking
  ``parse_msg_at`` decodes without per-frame body copies;
* truncated frames, lying lengths and cross-frame overruns all surface
  as :class:`CodecError` — never a wrong value, never a raw
  ``IndexError``/``struct.error`` out of the decoder;
* buffer compaction after synchronous dispatch (the receive-loop
  pattern) never corrupts already-decoded payloads;
* the ``msg`` parser and the side-frame parser pass each other's frames
  on (side-frame framing itself is ``tests/test_side_frames.py``).

The sample list is the shared ``tests/wire_samples.py`` table, whose
"covers every registered class" assertion in ``test_realnet_codec_bin``
keeps this file honest too.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.errors import CodecError
from repro.realnet.codec import MAX_FRAME_BYTES, _LEN, registered_payloads
from repro.realnet.codec_bin import (
    BIN_FORMAT,
    FORMAT_BIN,
    BinWireFormat,
    decode_value_bin,
    encode_value_bin,
    packer_table,
)
from tests.wire_samples import samples

#: The wire formats these cases run over; ``bin1`` is the only one.
FORMATS = (BIN_FORMAT,)


# ---------------------------------------------------------------------------
# Packer table
# ---------------------------------------------------------------------------


def test_packer_table_covers_every_registered_class():
    table = packer_table()
    builtins = {cls for cls in table if cls.__module__ == "builtins"}
    assert set(table) - builtins == set(registered_payloads().values())


def test_packer_table_refreshes_when_the_registry_grows(monkeypatch):
    import dataclasses

    from repro.realnet import codec

    @dataclasses.dataclass(frozen=True)
    class _ZcProbe:
        x: int

    before = packer_table()
    assert _ZcProbe not in before
    monkeypatch.setitem(codec._REGISTRY, "_ZcProbe", _ZcProbe)
    try:
        after = packer_table()
        assert _ZcProbe in after
        assert decode_value_bin(encode_value_bin(_ZcProbe(7))) == _ZcProbe(7)
    finally:
        # monkeypatch restores _REGISTRY; drop the stale packer table too
        # so later tests rebuild it against the clean registry.
        codec._REGISTRY.pop("_ZcProbe", None)
        packer_table()


@pytest.mark.parametrize("payload", samples(), ids=lambda p: type(p).__name__)
def test_packer_output_roundtrips_for_every_class(payload):
    assert decode_value_bin(encode_value_bin(payload)) == payload


def test_encoder_still_rejects_unregistered_types():
    class _Alien:
        pass

    with pytest.raises(CodecError):
        encode_value_bin(_Alien())


def test_bool_and_int_subclasses_take_the_fallback_path():
    class _MyInt(int):
        pass

    assert decode_value_bin(encode_value_bin(_MyInt(41))) == 41
    assert decode_value_bin(encode_value_bin(True)) is True


# ---------------------------------------------------------------------------
# frame_msg_into == frame_msg
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", FORMATS, ids=[FORMAT_BIN])
@pytest.mark.parametrize("dst_inc", [None, 0, 3])
def test_frame_msg_into_matches_frame_msg(fmt, dst_inc):
    payload = fmt.encode_payload(("client", 3, {"k": [1, 2.5]}))
    whole = fmt.frame_msg((2, 1), 5, dst_inc, payload)
    out = bytearray(b"prefix")
    fmt.frame_msg_into(out, (2, 1), 5, dst_inc, payload)
    assert bytes(out[len(b"prefix"):]) == whole
    (length,) = _LEN.unpack_from(whole, 0)
    assert length == len(whole) - 4


def test_bin_header_cache_is_layout_transparent():
    fmt = BinWireFormat()  # fresh instance: empty header cache
    payload = fmt.encode_payload("x")
    first = fmt.frame_msg((1, 0), 2, 7, payload)
    again = fmt.frame_msg((1, 0), 2, 7, payload)  # cached header path
    other = fmt.frame_msg((1, 1), 2, 7, payload)  # different src
    assert first == again
    assert first != other
    parsed = fmt.parse_msg(other[4:])
    assert (parsed.src_site, parsed.src_inc) == (1, 1)


def test_frame_msg_into_rolls_back_on_cap_violation():
    out = bytearray(b"keep")
    huge = b"\x05" + b"x" * MAX_FRAME_BYTES  # raw oversized pseudo-payload
    with pytest.raises(CodecError, match="exceeds cap"):
        BIN_FORMAT.frame_msg_into(out, (0, 0), 1, 0, huge)
    assert out == b"keep"  # no partial frame left behind


# ---------------------------------------------------------------------------
# parse_msg_at: offset walking over shared buffers
# ---------------------------------------------------------------------------


def _pack_batch(messages):
    """Pack [(src, dst_site, dst_inc, payload), ...] like the send path."""
    batch = bytearray()
    extents = []
    for src, dst_site, dst_inc, payload in messages:
        base = len(batch)
        encoded = BIN_FORMAT.encode_payload(payload)
        BIN_FORMAT.frame_msg_into(batch, src, dst_site, dst_inc, encoded)
        extents.append((base + 4, len(batch)))
    return batch, extents


@pytest.mark.parametrize("fmt", FORMATS, ids=[FORMAT_BIN])
def test_parse_msg_at_walks_a_multi_frame_batch(fmt):
    messages = [
        ((0, 0), 1, 0, ("client", 0, 1)),
        ((0, 0), 1, None, {"op": "put", "k": (1, 2.5)}),
        ((2, 3), 1, 0, "x" * 200),
    ]
    batch, extents = _pack_batch(messages)
    for (start, end), (src, dst_site, dst_inc, payload) in zip(extents, messages):
        parsed = fmt.parse_msg_at(batch, start, end)
        assert (parsed.src_site, parsed.src_inc) == src
        assert (parsed.dst_site, parsed.dst_inc) == (dst_site, dst_inc)
        assert parsed.payload() == payload


def test_parse_msg_at_every_registered_payload_at_offsets():
    """Every wire dataclass decodes from mid-buffer extents in one batch."""
    payloads = samples()
    batch, extents = _pack_batch([((0, 0), 1, 0, payload) for payload in payloads])
    for (start, end), payload in zip(extents, payloads):
        assert BIN_FORMAT.parse_msg_at(batch, start, end).payload() == payload


def test_parse_msg_at_empty_extent_is_truncated():
    with pytest.raises(CodecError, match="truncated"):
        BIN_FORMAT.parse_msg_at(bytearray(b"anything"), 3, 3)


def test_parse_msg_at_short_extent_never_reads_the_next_frame():
    """An ``end`` that lies short must raise, not decode the neighbour."""
    messages = [((0, 0), 1, 0, (1, 2, 3)), ((0, 0), 1, 0, "neighbour")]
    batch, extents = _pack_batch(messages)
    start, end = extents[0]
    for short_end in range(start, end):
        try:
            parsed = BIN_FORMAT.parse_msg_at(batch, start, short_end)
            parsed.payload()
        except CodecError:
            continue
        pytest.fail(f"extent [{start}:{short_end}] decoded without error")


def test_parse_msg_at_long_extent_reports_trailing_bytes():
    batch, extents = _pack_batch([((0, 0), 1, 0, (1, 2))])
    start, end = extents[0]
    batch += b"\x00\x00"
    with pytest.raises(CodecError, match="trailing bytes"):
        BIN_FORMAT.parse_msg_at(batch, start, end + 2).payload()


def test_parse_msg_at_fuzzed_truncations_all_raise_codec_error():
    """Seeded sweep: any truncation point raises CodecError, never a raw
    IndexError/struct.error and never a silently wrong value."""
    rng = random.Random(7)
    payloads = samples()
    for _ in range(200):
        payload = rng.choice(payloads)
        body = BIN_FORMAT.frame_msg((1, 0), 2, 0, BIN_FORMAT.encode_payload(payload))[4:]
        cut = rng.randrange(0, len(body))
        buf = bytearray(body[:cut])
        try:
            parsed = BIN_FORMAT.parse_msg_at(buf, 0, len(buf))
            if parsed is not None:
                parsed.payload()
        except CodecError:
            continue
        except (IndexError, struct.error) as exc:  # pragma: no cover
            pytest.fail(f"raw {type(exc).__name__} leaked at cut={cut}")
        # A cut that still parses must have hit a prefix that is itself
        # a complete frame; for a tagged positional codec that can only
        # be the full body.
        assert cut == len(body)


def test_future_frame_kinds_are_ignored_not_fatal():
    body = bytearray([0x7F]) + b"whatever"
    assert BIN_FORMAT.parse_msg_at(body, 0, len(body)) is None


def test_compaction_after_dispatch_keeps_decoded_payloads():
    """The receive-loop contract: payload() before compaction; values
    survive the buffer being compacted and refilled afterwards."""
    messages = [((0, 0), 1, 0, ["a", 1]), ((0, 0), 1, 0, {"b": (2.5, "c")})]
    batch, extents = _pack_batch(messages)
    decoded = [
        BIN_FORMAT.parse_msg_at(batch, start, end).payload()
        for start, end in extents
    ]
    del batch[:]  # compact
    batch += b"\xff" * 64  # recycle with garbage
    assert decoded == [["a", 1], {"b": (2.5, "c")}]


# ---------------------------------------------------------------------------
# msg frames next to side frames
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", FORMATS, ids=[FORMAT_BIN])
def test_ctl_parsers_ignore_other_frame_kinds(fmt):
    msg = fmt.frame_msg((0, 0), 1, 0, fmt.encode_payload("x"))[4:]
    assert fmt.parse_side(msg, 0, len(msg)) is None
    assert fmt.parse_side(msg, 0, len(msg), True) is None
    # and a ctl body is not a msg frame: the msg parser must pass it on
    ctl = fmt.frame_side("ctl", ("mcast_many", (32, ("client", 0, 1))))[4:]
    assert fmt.parse_msg_at(bytearray(ctl), 0, len(ctl)) is None
