"""Trace-context wire fields: both codecs, with and without context.

Every protocol dataclass that grew an optional trailing ``trace`` field
must:

* round-trip identically through both codecs with a context attached;
* round-trip with the context absent (``None``), the tracing-off case;
* cost **zero wire bytes** while absent — the JSON codec elides the
  key entirely, the ``bin1`` codec elides the trailing field from the
  announced arity (so the bytes equal what a pre-tracing peer would
  have produced, which is also why the decoder's ``min_arity``
  tolerance makes the formats interoperable across the change).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.client.protocol import ClientReply
from repro.obs.tracing import TraceCtx
from repro.realnet.codec import decode_value, encode_value
from repro.realnet.codec_bin import decode_value_bin, encode_value_bin
from tests.wire_samples import samples

CTX = TraceCtx(trace_id=0x4001, span_id=0x5001, parent=0x4001)


def _traced_samples():
    """Every shared wire sample whose class carries a ``trace`` field."""
    return [
        s for s in samples()
        if any(f.name == "trace" for f in dataclasses.fields(s))
    ]


def _ids(sample):
    return type(sample).__name__


@pytest.mark.parametrize("sample", _traced_samples(), ids=_ids)
def test_has_trace_field_defaulting_none(sample):
    assert sample.trace is None
    field = {f.name: f for f in dataclasses.fields(sample)}["trace"]
    assert field.default is None


@pytest.mark.parametrize("sample", _traced_samples(), ids=_ids)
def test_roundtrip_with_context_both_codecs(sample):
    traced = dataclasses.replace(sample, trace=CTX)
    via_bin = decode_value_bin(encode_value_bin(traced))
    via_json = decode_value(encode_value(traced))
    assert via_bin == traced and via_json == traced
    assert via_bin.trace == CTX and via_json.trace == CTX


@pytest.mark.parametrize("sample", _traced_samples(), ids=_ids)
def test_roundtrip_without_context_both_codecs(sample):
    via_bin = decode_value_bin(encode_value_bin(sample))
    via_json = decode_value(encode_value(sample))
    assert via_bin == sample and via_json == sample
    assert via_bin.trace is None and via_json.trace is None


@pytest.mark.parametrize("sample", _traced_samples(), ids=_ids)
def test_absent_context_costs_zero_json_bytes(sample):
    encoded = encode_value(sample)
    assert "trace" not in encoded["f"]
    traced = encode_value(dataclasses.replace(sample, trace=CTX))
    assert "trace" in traced["f"]


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
    """The service echoes the root ctx on the reply; both codecs carry
    it as a nested registered dataclass, not an opaque blob."""
    reply = ClientReply(req_id=9, status="ok", trace=CTX)
    for roundtrip in (
        lambda v: decode_value_bin(encode_value_bin(v)),
        lambda v: decode_value(encode_value(v)),
    ):
        back = roundtrip(reply)
        assert isinstance(back.trace, TraceCtx)
        assert back.trace == CTX
