"""Trace-context wire fields, with and without context.

Every protocol dataclass that grew an optional trailing ``trace`` field
must:

* round-trip identically through both codec layers of ``bin1`` — the
  value codec and the ``msg`` frame around it — with a context attached;
* round-trip with the context absent (``None``), the tracing-off case;
* cost **zero wire bytes** while absent — ``bin1`` elides the trailing
  field from the announced arity (so the bytes equal what a
  pre-tracing peer would have produced, which is also why the
  decoder's ``min_arity`` tolerance reads both).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.client.protocol import ClientReply
from repro.obs.tracing import TraceCtx
from repro.realnet.codec import wire_fields
from repro.realnet.codec_bin import BIN_FORMAT, decode_value_bin, encode_value_bin
from tests.wire_samples import samples

CTX = TraceCtx(trace_id=0x4001, span_id=0x5001, parent=0x4001)


def _traced_samples():
    """Every shared wire sample whose class carries a ``trace`` field."""
    return [
        s for s in samples()
        if any(name == "trace" for name, _ in wire_fields(type(s)))
    ]


def _ids(sample):
    return type(sample).__name__


def _via_frame(value):
    """``value`` sent as one ``msg`` frame and parsed back."""
    frame = BIN_FORMAT.frame_msg((2, 1), 0, 0, BIN_FORMAT.encode_payload(value))
    return BIN_FORMAT.parse_msg(frame[4:]).payload()


@pytest.mark.parametrize("sample", _traced_samples(), ids=_ids)
def test_has_trace_field_defaulting_none(sample):
    assert sample.trace is None
    field = {f.name: f for f in dataclasses.fields(sample)}["trace"]
    assert field.default is None


@pytest.mark.parametrize("sample", _traced_samples(), ids=_ids)
def test_roundtrip_with_context_both_codecs(sample):
    traced = dataclasses.replace(sample, trace=CTX)
    via_value = decode_value_bin(encode_value_bin(traced))
    via_frame = _via_frame(traced)
    assert via_value == traced and via_frame == traced
    assert via_value.trace == CTX and via_frame.trace == CTX


@pytest.mark.parametrize("sample", _traced_samples(), ids=_ids)
def test_roundtrip_without_context_both_codecs(sample):
    via_value = decode_value_bin(encode_value_bin(sample))
    via_frame = _via_frame(sample)
    assert via_value == sample and via_frame == sample
    assert via_value.trace is None and via_frame.trace is None


@pytest.mark.parametrize("sample", _traced_samples(), ids=_ids)
def test_absent_context_costs_zero_bin_bytes(sample):
    bare = encode_value_bin(sample)
    traced = encode_value_bin(dataclasses.replace(sample, trace=CTX))
    # The context itself is ~10 bytes of payload; eliding it must shed
    # at least that much, not merely encode a None placeholder.
    assert len(traced) - len(bare) >= len(encode_value_bin(CTX)) - 2
    # And the elided bytes never mention the context's ids.
    assert decode_value_bin(bare).trace is None


def test_reply_echoes_request_context_shape():
    """The service echoes the root ctx on the reply; the wire carries it
    as a nested registered dataclass, not an opaque blob."""
    reply = ClientReply(req_id=9, status="ok", trace=CTX)
    back = decode_value_bin(encode_value_bin(reply))
    assert isinstance(back.trace, TraceCtx)
    assert back.trace == CTX
