"""The wire's payload registry and its JSON handshake frames.

The protocol stacks exchange frozen dataclasses built from a small
vocabulary of shapes — identifiers, tuples, frozensets, mappings and
opaque application payloads.  Every wire dataclass of the stack is
registered here by class name; a deployment embedding its own
application payload types registers them with :func:`register_payload`
on both ends.  The ``bin1`` codec (:mod:`repro.realnet.codec_bin`)
numbers the registered classes and encodes their fields positionally,
so both ends must hold the same registry: its schema fingerprint is
what the handshake compares.  Decoding an unregistered class id raises
:class:`~repro.errors.CodecError` — a version-skewed or malicious peer
cannot instantiate arbitrary classes.

Frames on the socket are ``4-byte big-endian length + body``, capped
at :data:`MAX_FRAME_BYTES` (a corrupt length prefix must not make a
reader allocate gigabytes).  The two handshake frames (``hello`` and
``welcome``) have a small JSON object for a body
(:func:`encode_frame` / :func:`decode_frame_body`); every later frame
is ``bin1``.  See docs/protocol.md §7.
"""

from __future__ import annotations

import json
import struct
from dataclasses import is_dataclass
from typing import Any

from repro.errors import CodecError

#: Hard ceiling on one frame's body (16 MiB).
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


# -- frame codec ----------------------------------------------------------


def encode_frame(frame: dict[str, Any]) -> bytes:
    """Serialize one handshake frame dict to ``length-prefix + JSON`` bytes."""
    body = json.dumps(frame, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(body)} bytes exceeds cap {MAX_FRAME_BYTES}")
    return _LEN.pack(len(body)) + body


def decode_frame_body(body: bytes) -> dict[str, Any]:
    """Parse one handshake frame body; raises :class:`CodecError` on garbage."""
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
    """Metric-snapshot and tracing payloads for the ``obs`` side frames,
    registered so a watch/trace client can poll any node, and so
    :class:`~repro.obs.tracing.TraceCtx` can ride inside any protocol
    payload."""
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
