"""E-view data structures: subviews, sv-sets, structures, deltas.

Everything here is immutable; applying an :class:`EvDelta` produces a
new :class:`EViewStructure`.  Immutability is what lets flush replies
carry structure snapshots and per-view delta logs without aliasing bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from repro.errors import EnrichedViewError
from repro.gms.view import View
from repro.types import ProcessId, SubviewId, SvSetId


@dataclass(frozen=True)
class Subview:
    """A named, non-overlapping set of processes within one view."""

    sid: SubviewId
    members: frozenset[ProcessId]

    def __str__(self) -> str:
        names = ",".join(str(p) for p in sorted(self.members))
        return f"{self.sid}{{{names}}}"


@dataclass(frozen=True)
class SvSet:
    """A named group of subviews within one view."""

    ssid: SvSetId
    subviews: frozenset[SubviewId]

    def __str__(self) -> str:
        names = ",".join(str(s) for s in sorted(self.subviews))
        return f"{self.ssid}{{{names}}}"


@dataclass(frozen=True)
class EvDelta:
    """One application-requested merge, as sequenced by the coordinator.

    ``seq`` is the e-view change number within the view (starting at 1;
    seq 0 is the structure installed with the view).  ``kind`` selects
    between :func:`merge_subviews` and :func:`merge_svsets` semantics.
    """

    seq: int
    kind: Literal["subview", "svset"]
    inputs: frozenset
    new_subview: SubviewId | None = None
    new_svset: SvSetId | None = None


@dataclass(frozen=True)
class EViewStructure:
    """The subview / sv-set decomposition of one view's membership."""

    subviews: tuple[Subview, ...]
    svsets: tuple[SvSet, ...]

    # -- construction ---------------------------------------------------

    @staticmethod
    def singletons(view_epoch: int, members: Iterable[ProcessId]) -> "EViewStructure":
        """Every member alone in its own subview and its own sv-set.

        This is how fresh processes appear (Section 6.1: a joining
        process "appears within the new view in a new sv-set containing
        a new subview containing only the process itself").
        """
        subviews = []
        svsets = []
        for pid in sorted(members):
            sid = SubviewId(view_epoch, pid, 0)
            ssid = SvSetId(view_epoch, pid, 0)
            subviews.append(Subview(sid, frozenset({pid})))
            svsets.append(SvSet(ssid, frozenset({sid})))
        return EViewStructure(tuple(subviews), tuple(svsets))

    @staticmethod
    def degenerate(view_epoch: int, origin: ProcessId, members: Iterable[ProcessId]) -> "EViewStructure":
        """One sv-set containing one subview containing everyone.

        "The case where there is a single sv-set containing a single
        subview containing all of the processes degenerates to the
        traditional view abstraction" (Section 6.1).  The Isis-style
        baseline uses this shape.
        """
        sid = SubviewId(view_epoch, origin, 0)
        ssid = SvSetId(view_epoch, origin, 0)
        return EViewStructure(
            (Subview(sid, frozenset(members)),),
            (SvSet(ssid, frozenset({sid})),),
        )

    # -- validation -------------------------------------------------------

    def validate(self, members: frozenset[ProcessId]) -> None:
        """Check the structure is a partition of ``members`` at both
        levels; raises :class:`EnrichedViewError` otherwise."""
        seen: set[ProcessId] = set()
        for sv in self.subviews:
            if not sv.members:
                raise EnrichedViewError(f"empty subview {sv.sid}")
            overlap = seen & sv.members
            if overlap:
                raise EnrichedViewError(f"processes {overlap} in two subviews")
            seen |= sv.members
        if seen != members:
            raise EnrichedViewError(
                f"subviews cover {seen}, view members are {members}"
            )
        sv_ids = {sv.sid for sv in self.subviews}
        grouped: set[SubviewId] = set()
        for ss in self.svsets:
            if not ss.subviews:
                raise EnrichedViewError(f"empty sv-set {ss.ssid}")
            if ss.subviews & grouped:
                raise EnrichedViewError("subview in two sv-sets")
            if not ss.subviews <= sv_ids:
                raise EnrichedViewError(f"sv-set {ss.ssid} names unknown subviews")
            grouped |= ss.subviews
        if grouped != sv_ids:
            raise EnrichedViewError("sv-sets do not cover all subviews")

    # -- queries ----------------------------------------------------------

    def subview_of(self, pid: ProcessId) -> Subview:
        for sv in self.subviews:
            if pid in sv.members:
                return sv
        raise EnrichedViewError(f"{pid} not in any subview")

    def subview_by_id(self, sid: SubviewId) -> Subview:
        for sv in self.subviews:
            if sv.sid == sid:
                return sv
        raise EnrichedViewError(f"no subview {sid}")

    def svset_of_subview(self, sid: SubviewId) -> SvSet:
        for ss in self.svsets:
            if sid in ss.subviews:
                return ss
        raise EnrichedViewError(f"subview {sid} not in any sv-set")

    def svset_of(self, pid: ProcessId) -> SvSet:
        return self.svset_of_subview(self.subview_of(pid).sid)

    def svset_members(self, ssid: SvSetId) -> frozenset[ProcessId]:
        """All processes whose subview belongs to sv-set ``ssid``."""
        for ss in self.svsets:
            if ss.ssid == ssid:
                members: set[ProcessId] = set()
                for sid in ss.subviews:
                    members |= self.subview_by_id(sid).members
                return frozenset(members)
        raise EnrichedViewError(f"no sv-set {ssid}")

    def as_tuples(self):
        """Hashable snapshot used by trace events.

        A pure function of a frozen object that every member installing
        the same view shares, so it is computed once per instance.
        """
        try:
            return self._tuples  # type: ignore[attr-defined]
        except AttributeError:
            pass
        subviews = tuple(sorted(((sv.sid, sv.members) for sv in self.subviews)))
        svsets = tuple(sorted(((ss.ssid, ss.subviews) for ss in self.svsets)))
        object.__setattr__(self, "_tuples", (subviews, svsets))
        return subviews, svsets

    # -- delta application -------------------------------------------------

    def apply(self, delta: EvDelta) -> "EViewStructure":
        """Return the structure after one merge; no-ops return self.

        Per Section 6.1, ``SubviewMerge`` "has no effect" if the input
        subviews do not all belong to the same sv-set; we mirror that by
        returning the unchanged structure rather than raising.
        """
        if delta.kind == "subview":
            return self._merge_subviews(delta)
        return self._merge_svsets(delta)

    def _merge_subviews(self, delta: EvDelta) -> "EViewStructure":
        inputs: frozenset[SubviewId] = delta.inputs
        if delta.new_subview is None:
            raise EnrichedViewError("subview merge delta lacks a new id")
        known = {sv.sid for sv in self.subviews}
        if not inputs <= known or len(inputs) < 1:
            return self
        owners = {self.svset_of_subview(sid).ssid for sid in inputs}
        if len(owners) != 1:
            return self  # inputs span sv-sets: the call has no effect
        merged_members: set[ProcessId] = set()
        for sid in inputs:
            merged_members |= self.subview_by_id(sid).members
        new_sv = Subview(delta.new_subview, frozenset(merged_members))
        subviews = tuple(
            sv for sv in self.subviews if sv.sid not in inputs
        ) + (new_sv,)
        svsets = []
        for ss in self.svsets:
            if ss.subviews & inputs:
                svsets.append(
                    SvSet(ss.ssid, (ss.subviews - inputs) | {new_sv.sid})
                )
            else:
                svsets.append(ss)
        return EViewStructure(subviews, tuple(svsets))

    def _merge_svsets(self, delta: EvDelta) -> "EViewStructure":
        inputs: frozenset[SvSetId] = delta.inputs
        if delta.new_svset is None:
            raise EnrichedViewError("sv-set merge delta lacks a new id")
        known = {ss.ssid for ss in self.svsets}
        if not inputs <= known or len(inputs) < 1:
            return self
        merged_subviews: set[SubviewId] = set()
        for ss in self.svsets:
            if ss.ssid in inputs:
                merged_subviews |= ss.subviews
        new_ss = SvSet(delta.new_svset, frozenset(merged_subviews))
        svsets = tuple(
            ss for ss in self.svsets if ss.ssid not in inputs
        ) + (new_ss,)
        return EViewStructure(self.subviews, svsets)


@dataclass(frozen=True)
class EView:
    """An enriched view: a view plus its current structure.

    ``seq`` counts the e-view changes applied within the view; the
    structure delivered together with the view itself has ``seq == 0``.
    """

    view: View
    structure: EViewStructure
    seq: int = 0

    @property
    def members(self) -> frozenset[ProcessId]:
        return self.view.members

    @property
    def view_id(self):
        return self.view.view_id

    def subview_of(self, pid: ProcessId) -> Subview:
        return self.structure.subview_of(pid)

    def svset_of(self, pid: ProcessId) -> SvSet:
        return self.structure.svset_of(pid)

    def __str__(self) -> str:
        svs = " ".join(str(sv) for sv in self.structure.subviews)
        return f"EView({self.view_id}, seq={self.seq}, {svs})"
