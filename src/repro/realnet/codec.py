"""Wire codec: protocol payloads <-> length-prefixed JSON frames.

The protocol stacks exchange frozen dataclasses built from a small
vocabulary of shapes — identifiers, tuples, frozensets, mappings and
opaque application payloads.  The codec walks that shape recursively and
emits plain JSON with explicit type tags, so a frame is self-describing
and debuggable with ``jq`` on a packet capture:

===========================  =============================================
Python value                 JSON encoding
===========================  =============================================
None / bool / int / str      itself
float                        ``{"__f__": value-or-"inf"/"-inf"/"nan"}``
list                         ``[...]`` (elements encoded)
tuple                        ``{"__t__": [...]}``
frozenset / set              ``{"__fs__"/"__s__": [...]}``
dict                         ``{"__d__": [[key, value], ...]}``
registered dataclass         ``{"__c__": "ClassName", "f": {field: ...}}``
===========================  =============================================

Dicts are encoded as pair lists because protocol mappings are keyed by
identifiers (e.g. ``VcInstall.predecessors`` maps :class:`ViewId` to
plans), which JSON objects cannot express.  Floats are tagged so ints
and floats survive the round trip distinguishably and the non-finite
values JSON rejects still travel.

Every wire dataclass of the stack is registered here by class name; a
deployment embedding its own application payload types registers them
with :func:`register_payload` on both ends.  Decoding an unregistered
tag raises :class:`~repro.errors.CodecError` — a version-skewed or
malicious peer cannot instantiate arbitrary classes.

Frames on the socket are ``4-byte big-endian length + UTF-8 JSON body``,
capped at :data:`MAX_FRAME_BYTES` (a corrupt length prefix must not make
a reader allocate gigabytes).  See docs/protocol.md ("Wire format").
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import fields, is_dataclass
from typing import Any

from repro.errors import CodecError

#: Hard ceiling on one frame's JSON body (16 MiB).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")

_REGISTRY: dict[str, type] = {}


def register_payload(cls: type) -> type:
    """Register a dataclass for wire transport (usable as a decorator).

    Registration is by ``__name__``; both peers must register the same
    name to the same field layout.  Returns ``cls`` unchanged.
    """
    if not is_dataclass(cls):
        raise CodecError(f"only dataclasses can be wire payloads: {cls!r}")
    existing = _REGISTRY.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise CodecError(f"payload name collision: {cls.__name__}")
    _REGISTRY[cls.__name__] = cls
    return cls


def registered_payloads() -> dict[str, type]:
    """Snapshot of the registry (name -> class), for docs and tests."""
    return dict(_REGISTRY)


# -- value codec ----------------------------------------------------------

#: Per-class cache: field names whose declared default is ``None``.
#: Such fields are elided from the encoding when their value is None —
#: the decoder already tolerates missing fields — so optional context
#: fields (tracing) cost zero wire bytes while unused.
_NONE_DEFAULT_FIELDS: dict[type, frozenset] = {}


def _none_default_fields(cls: type) -> frozenset:
    cached = _NONE_DEFAULT_FIELDS.get(cls)
    if cached is None:
        cached = _NONE_DEFAULT_FIELDS[cls] = frozenset(
            f.name for f in fields(cls) if f.default is None
        )
    return cached


def encode_value(value: Any) -> Any:
    """Encode ``value`` into the JSON-safe tagged representation."""
    if value is None or value is True or value is False:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return {"__f__": value}
        return {"__f__": "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")}
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, tuple):
        return {"__t__": [encode_value(item) for item in value]}
    if isinstance(value, frozenset):
        return {"__fs__": [encode_value(item) for item in value]}
    if isinstance(value, set):
        return {"__s__": [encode_value(item) for item in value]}
    if isinstance(value, dict):
        return {"__d__": [[encode_value(k), encode_value(v)] for k, v in value.items()]}
    if is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if _REGISTRY.get(name) is not type(value):
            raise CodecError(
                f"unregistered dataclass on the wire: {type(value).__module__}.{name}"
            )
        elidable = _none_default_fields(type(value))
        encoded_fields = {}
        for f in fields(value):
            item = getattr(value, f.name)
            if item is None and f.name in elidable:
                continue
            encoded_fields[f.name] = encode_value(item)
        return {"__c__": name, "f": encoded_fields}
    raise CodecError(f"cannot encode {type(value).__name__} value for the wire: {value!r}")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):  # a bare float only via hand-written JSON
        return value
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        if "__f__" in value:
            raw = value["__f__"]
            return float(raw)
        if "__t__" in value:
            return tuple(decode_value(item) for item in value["__t__"])
        if "__fs__" in value:
            return frozenset(decode_value(item) for item in value["__fs__"])
        if "__s__" in value:
            return {decode_value(item) for item in value["__s__"]}
        if "__d__" in value:
            return {decode_value(k): decode_value(v) for k, v in value["__d__"]}
        if "__c__" in value:
            name = value["__c__"]
            cls = _REGISTRY.get(name)
            if cls is None:
                raise CodecError(f"unknown wire payload type: {name!r}")
            raw_fields = value.get("f", {})
            if not isinstance(raw_fields, dict):
                raise CodecError(f"{name}: wire fields are not an object")
            known = {f.name for f in fields(cls)}
            unknown = set(raw_fields) - known
            if unknown:
                raise CodecError(f"{name}: unknown wire fields {sorted(unknown)}")
            return cls(**{k: decode_value(v) for k, v in raw_fields.items()})
        raise CodecError(f"untagged JSON object on the wire: {sorted(value)[:4]}")
    raise CodecError(f"cannot decode wire value of type {type(value).__name__}")


# -- frame codec ----------------------------------------------------------


def encode_frame(frame: dict[str, Any]) -> bytes:
    """Serialize one frame dict to ``length-prefix + JSON`` bytes."""
    body = json.dumps(frame, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(body)} bytes exceeds cap {MAX_FRAME_BYTES}")
    return _LEN.pack(len(body)) + body


def decode_frame_body(body: bytes) -> dict[str, Any]:
    """Parse one frame body; raises :class:`CodecError` on garbage."""
    try:
        frame = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"undecodable frame body: {exc}") from None
    if not isinstance(frame, dict):
        raise CodecError("frame body is not a JSON object")
    return frame


async def read_body(reader: Any) -> bytes:
    """Read one frame body from an :class:`asyncio.StreamReader`.

    Raises :class:`CodecError` on an oversized length prefix and lets
    EOF (:class:`asyncio.IncompleteReadError`) and socket errors
    propagate to the caller's reconnect logic.
    """
    (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {length} exceeds cap {MAX_FRAME_BYTES}")
    return await reader.readexactly(length)


# -- registry population --------------------------------------------------
#
# Every message the fd/gms/vsync/evs stacks put on the wire, plus the
# identifier and structure types they embed.  Importing this module is
# enough to make a node able to talk the full protocol.


def _register_stack_payloads() -> None:
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
    from repro.types import Message, MessageId, ProcessId, SubviewId, SvSetId, ViewId
    from repro.vsync.channel import RetransmitRequest
    from repro.vsync.stability import StabilityNotice, StabilityReport
    from repro.vsync.stack import DirectPayload, SubviewScoped

    for cls in (
        ProcessId, ViewId, MessageId, SubviewId, SvSetId, Message,
        View, Subview, SvSet, EvDelta, EViewStructure, EView,
        Heartbeat, GossipDigest,
        VcPropose, VcPrepare, VcNack, VcFlush, VcFlushBatch, PredecessorPlan,
        VcInstall, VcAbort, Leave,
        EvReq, EvChange, EvRepairReq,
        StabilityReport, StabilityNotice, RetransmitRequest,
        DirectPayload, SubviewScoped,
    ):
        register_payload(cls)


def _register_harness_payloads() -> None:
    """Everything the group-object layer and the example applications
    put on the wire: settlement state transfer, bulk two-piece
    transfer, the operation envelope and the apps' request/reply
    types.  Registered here so workloads run over real sockets exactly
    as they do on the simulator."""
    from repro.apps.lock_manager import _AcquireReq, _Denied, _ReleaseReq
    from repro.apps.replicated_db import _LookupReply, _LookupRequest
    from repro.apps.replicated_file import _WriteAck
    from repro.core.group_object import _OpMsg
    from repro.core.settlement import StateAdopt, StateOffer, StateRequest
    from repro.core.state_transfer import TAck, TChunk, TSmallPiece

    for cls in (
        StateRequest, StateOffer, StateAdopt,
        TChunk, TAck, TSmallPiece,
        _OpMsg,
        _AcquireReq, _ReleaseReq, _Denied,
        _LookupRequest, _LookupReply,
        _WriteAck,
    ):
        register_payload(cls)


def _register_obs_payloads() -> None:
    """Metric-snapshot and tracing payloads for the ``obs`` side frames:
    registered with both wire codecs so a watch/trace client can poll
    mixed-codec clusters, and so :class:`~repro.obs.tracing.TraceCtx`
    can ride inside any protocol payload."""
    from repro.obs.snapshot import MetricSample, MetricsSnapshot
    from repro.obs.tracing import SpanEvent, TraceCtx, TraceDump

    for cls in (MetricSample, MetricsSnapshot, TraceCtx, SpanEvent, TraceDump):
        register_payload(cls)


def _register_client_payloads() -> None:
    """The client service tier: the store's replicated types (version
    provenance, chain entries, its quorum ack) and the external
    request/reply vocabulary.  Registered at import like every other
    group so the bin1 schema fingerprint is identical across
    processes."""
    from repro.apps.versioned_store import _StoreAck
    from repro.client.protocol import ClientReply, ClientRequest
    from repro.core.versioning import Provenance, VersionEntry

    for cls in (Provenance, VersionEntry, _StoreAck, ClientRequest, ClientReply):
        register_payload(cls)


_register_stack_payloads()
_register_harness_payloads()
_register_obs_payloads()
_register_client_payloads()
