"""Trace event records.

Each record captures one externally visible event of the execution, in
the vocabulary of the paper: ``mcast(p, m)``, ``dlvr(p, m)`` and
``vchg(p, v)`` (Section 2), plus e-view changes (Section 6), mode
transitions (Section 3) and environment events.

Records are frozen and slotted: a checked fault run keeps tens of
thousands of them until its checks end, and a slotted record carries
no per-instance dict.  An :class:`AppEvent`'s ``data`` references what
the application holds instead of copying it (the store's audit events
list the :class:`~repro.core.versioning.Provenance` objects its chain
entries hold, one object per write however many replicas of the
process applied it); :mod:`repro.trace.export` writes those in their
flat form.  The store's most frequent audit event, ``store_apply``,
carries a fixed-shape :class:`StoreApplied` rather than a dict, and
every replica that appended the same write records the same one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.types import MessageId, ProcessId, SiteId, SubviewId, SvSetId, ViewId


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base record: when and at which process something happened."""

    time: float
    pid: ProcessId


@dataclass(frozen=True, slots=True)
class MulticastEvent(TraceEvent):
    """``mcast(pid, msg)``: the application handed a message to VS."""

    msg_id: MessageId


@dataclass(frozen=True, slots=True)
class DeliveryEvent(TraceEvent):
    """``dlvr(pid, msg)``: VS delivered a message to the application.

    ``view_id`` is the view the process had installed at delivery time;
    Uniqueness (2.2) says each ``msg_id`` appears with exactly one
    ``view_id`` across the whole trace.  ``sender_eview_seq`` is the
    e-view change count the *sender* had applied when it multicast; the
    Causal Order checker (6.2) verifies the receiver had applied at
    least as many at delivery time.
    """

    msg_id: MessageId
    view_id: ViewId
    sender_eview_seq: int = 0


@dataclass(frozen=True, slots=True)
class ViewInstallEvent(TraceEvent):
    """``vchg(pid, view)``: the process installed a new view."""

    view_id: ViewId
    members: frozenset[ProcessId]
    prev_view_id: ViewId | None


@dataclass(frozen=True, slots=True)
class EViewChangeEvent(TraceEvent):
    """An enriched-view change was applied at a process.

    ``eview_seq`` counts e-view changes within the enclosing ``view_id``
    (0 is the structure delivered with the view itself); ``subviews`` and
    ``svsets`` snapshot the structure after the change.
    """

    view_id: ViewId
    eview_seq: int
    subviews: tuple[tuple[SubviewId, frozenset[ProcessId]], ...]
    svsets: tuple[tuple[SvSetId, frozenset[SubviewId]], ...]


@dataclass(frozen=True, slots=True)
class ModeChangeEvent(TraceEvent):
    """A mode-automaton transition (Figure 1) at a process."""

    old_mode: str
    new_mode: str
    transition: str
    view_id: ViewId


@dataclass(frozen=True, slots=True)
class CrashEvent(TraceEvent):
    """The process at ``pid`` crashed."""


@dataclass(frozen=True, slots=True)
class RecoverEvent(TraceEvent):
    """A site restarted; ``pid`` is the fresh incarnation."""

    site: SiteId = -1


@dataclass(frozen=True, slots=True)
class AppEvent(TraceEvent):
    """Free-form application event (state transfers, merges, ...)."""

    tag: str = ""
    data: Any = None


class StoreApplied(NamedTuple):
    """The data of a store's ``store_apply`` audit event: a member added
    version ``prov`` of ``key``, for request ``(client, client_seq)``.

    A record of fixed shape, where the event used to carry a dict of
    these names; :mod:`repro.trace.export` writes it as that dict
    (:meth:`as_dict`), so an imported trace holds the dict.
    """

    key: Any
    prov: Any
    client: str
    client_seq: int
    #: Where in the chain the version went, when not appended at its end.
    at: int | None = None

    def as_dict(self) -> dict[str, Any]:
        data = {
            "key": self.key,
            "prov": self.prov,
            "client": self.client,
            "client_seq": self.client_seq,
        }
        if self.at is not None:
            data["at"] = self.at
        return data

    @classmethod
    def read(cls, data: Any) -> "StoreApplied | None":
        """The record of a ``store_apply`` event's data, recorded or
        imported; None for data of neither form."""
        if type(data) is cls:
            return data
        if not isinstance(data, dict):
            return None
        return cls(
            data.get("key"),
            data.get("prov"),
            data.get("client", ""),
            data.get("client_seq", 0),
            data.get("at"),
        )
