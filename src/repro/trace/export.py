"""Trace export / import.

Serialises a recorded trace to JSON-lines and reads it back, so runs
can be archived, diffed across code versions, or re-checked offline
(``python -m repro run`` output + an exported trace is a reproducible
bug report).  The round trip is exact for every event type, with one
documented flattening: the store's audit events hold the store's own
:class:`~repro.core.versioning.Provenance` objects, which are written
as the flat ``{"$tuple": [epoch, site, incarnation, seq]}`` of
:func:`flat_provenance` and so come back from import as that flat
tuple.  A ``store_apply`` event's :class:`~repro.trace.events.StoreApplied`
is written as the dict of its fields and comes back as that dict.  The
checks read either form (:mod:`repro.trace.checks`), and export ->
import -> export is byte-identical.
"""

from __future__ import annotations

import json
from typing import Any, IO, Iterable

from repro.core.versioning import Provenance
from repro.errors import ReproError
from repro.trace.events import (
    AppEvent,
    CrashEvent,
    DeliveryEvent,
    EViewChangeEvent,
    ModeChangeEvent,
    MulticastEvent,
    RecoverEvent,
    StoreApplied,
    TraceEvent,
    ViewInstallEvent,
)
from repro.trace.recorder import TraceRecorder
from repro.types import MessageId, ProcessId, SubviewId, SvSetId, ViewId

_EVENT_TYPES = {
    cls.__name__: cls
    for cls in (
        MulticastEvent,
        DeliveryEvent,
        ViewInstallEvent,
        EViewChangeEvent,
        ModeChangeEvent,
        CrashEvent,
        RecoverEvent,
        AppEvent,
    )
}


# -- value codecs -----------------------------------------------------------


def flat_provenance(prov: Provenance | tuple) -> tuple:
    """A store provenance as a trace writes it: ``(epoch, site,
    incarnation, seq)``.  A provenance read back from an exported trace
    is that flat tuple already and is returned as it is."""
    if isinstance(prov, Provenance):
        writer = prov.writer
        return (prov.view_epoch, writer.site, writer.incarnation, prov.seq)
    return prov


def _encode(value: Any) -> Any:
    if isinstance(value, ProcessId):
        return {"$pid": [value.site, value.incarnation]}
    if isinstance(value, ViewId):
        return {"$vid": [value.epoch, _encode(value.coordinator)]}
    if isinstance(value, MessageId):
        return {
            "$mid": [_encode(value.sender), _encode(value.view), value.seqno]
        }
    if isinstance(value, SubviewId):
        return {"$svid": [value.view_epoch, _encode(value.origin), value.counter]}
    if isinstance(value, SvSetId):
        return {"$ssid": [value.view_epoch, _encode(value.origin), value.counter]}
    if isinstance(value, frozenset):
        return {"$fset": sorted((_encode(v) for v in value), key=json.dumps)}
    if isinstance(value, Provenance):
        return {"$tuple": list(flat_provenance(value))}
    if isinstance(value, StoreApplied):
        return _encode(value.as_dict())
    if isinstance(value, tuple):
        return {"$tuple": [_encode(v) for v in value]}
    if isinstance(value, dict):
        return {"$dict": [[_encode(k), _encode(v)] for k, v in value.items()]}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return {"$repr": repr(value)}  # opaque app data degrades to repr


def _decode(value: Any) -> Any:
    if not isinstance(value, dict):
        return value
    if "$pid" in value:
        site, inc = value["$pid"]
        return ProcessId(site, inc)
    if "$vid" in value:
        epoch, coordinator = value["$vid"]
        return ViewId(epoch, _decode(coordinator))
    if "$mid" in value:
        sender, view, seqno = value["$mid"]
        return MessageId(_decode(sender), _decode(view), seqno)
    if "$svid" in value:
        epoch, origin, counter = value["$svid"]
        return SubviewId(epoch, _decode(origin), counter)
    if "$ssid" in value:
        epoch, origin, counter = value["$ssid"]
        return SvSetId(epoch, _decode(origin), counter)
    if "$fset" in value:
        return frozenset(_decode(v) for v in value["$fset"])
    if "$tuple" in value:
        return tuple(_decode(v) for v in value["$tuple"])
    if "$dict" in value:
        return {_decode(k): _decode(v) for k, v in value["$dict"]}
    if "$repr" in value:
        return value["$repr"]
    return value


# -- event codecs --------------------------------------------------------------


def event_to_json(event: TraceEvent) -> str:
    payload = {"type": type(event).__name__}
    for field_name in event.__dataclass_fields__:  # type: ignore[attr-defined]
        payload[field_name] = _encode(getattr(event, field_name))
    return json.dumps(payload, sort_keys=True)


def event_from_json(line: str) -> TraceEvent:
    payload = json.loads(line)
    type_name = payload.pop("type", None)
    cls = _EVENT_TYPES.get(type_name)
    if cls is None:
        raise ReproError(f"unknown trace event type {type_name!r}")
    kwargs = {name: _decode(value) for name, value in payload.items()}
    return cls(**kwargs)


# -- whole-trace I/O -------------------------------------------------------------


def dump_trace(rec: TraceRecorder, stream: IO[str]) -> int:
    """Write every event as one JSON line; returns the event count."""
    count = 0
    for event in rec.events:
        stream.write(event_to_json(event))
        stream.write("\n")
        count += 1
    return count


def load_trace(lines: Iterable[str]) -> TraceRecorder:
    """Rebuild a recorder from JSON lines (blank lines ignored)."""
    rec = TraceRecorder()
    for line in lines:
        line = line.strip()
        if line:
            rec.record(event_from_json(line))
    return rec
