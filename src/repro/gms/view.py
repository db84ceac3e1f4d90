"""The view abstraction."""

from __future__ import annotations

from dataclasses import dataclass

from repro.types import ProcessId, ViewId


@dataclass(frozen=True)
class View:
    """An agreed snapshot of the group's believed-reachable membership.

    The installing coordinator is embedded in the identifier; since the
    protocol abdicates to smaller identifiers before deciding, it is
    always the least member, and doubles as the in-view sequencer for
    e-view changes.
    """

    view_id: ViewId
    members: frozenset[ProcessId]

    @property
    def coordinator(self) -> ProcessId:
        return self.view_id.coordinator

    @property
    def epoch(self) -> int:
        return self.view_id.epoch

    def __contains__(self, pid: ProcessId) -> bool:
        return pid in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        names = ",".join(str(p) for p in sorted(self.members))
        return f"View({self.view_id}: {names})"
