"""Message stability tracking and garbage collection.

The flush protocol needs each member's set of received messages for the
current view, so naively every message is buffered until the next view
change — unbounded for long-lived views.  A message is *stable* once
every view member has delivered it: it can never appear in an install
plan again (plans only deliver what some survivor is missing, and
nobody is missing it), so buffering it is pointless.

The tracker runs a classic two-phase gossip through the view
coordinator:

1. every ``interval`` units, each member sends the coordinator a
   :class:`StabilityReport` carrying, per sender, the contiguous prefix
   of sequence numbers it has *delivered*;
2. the coordinator takes the pointwise minimum over all members it has
   heard from in the current round and, when it has a full set,
   broadcasts a :class:`StabilityNotice`;
3. members prune every buffered message at or below the stable prefix.

Everything is tagged with the view identifier and resets at each view
change, so stability can never leak across views (Uniqueness keeps
messages view-local anyway).  Disable by setting ``interval`` to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.types import ProcessId, ViewId

if TYPE_CHECKING:  # pragma: no cover
    from repro.vsync.stack import GroupStack


@dataclass(frozen=True)
class StabilityReport:
    """Member -> coordinator: delivered contiguous prefix per sender."""

    view_id: ViewId
    sender: ProcessId
    delivered_prefix: tuple[tuple[ProcessId, int], ...]


@dataclass(frozen=True)
class StabilityNotice:
    """Coordinator -> members: the group-wide stable prefix per sender."""

    view_id: ViewId
    stable_prefix: tuple[tuple[ProcessId, int], ...]


class StabilityTracker:
    """Per-process stability component."""

    def __init__(self, stack: "GroupStack", interval: float = 30.0) -> None:
        self.stack = stack
        self.interval = interval
        self._reports: dict[ProcessId, dict[ProcessId, int]] = {}
        self._report_view: ViewId | None = None
        self.notices_sent = 0
        self.messages_pruned = 0

    def start(self) -> None:
        if self.interval > 0:
            self.stack.set_periodic(self.interval, self._tick)

    # -- member side --------------------------------------------------------

    def _tick(self) -> None:
        stack = self.stack
        view = stack.view
        if view is None or stack.is_flushing or len(view.members) < 2:
            return
        delivered = stack.channels.delivered_prefix()
        prefix = tuple((pid, delivered[pid]) for pid in sorted(delivered))
        report = StabilityReport(view.view_id, stack.pid, prefix)
        if view.coordinator == stack.pid:
            self.on_report(stack.pid, report)
        else:
            stack.send(view.coordinator, report)

    def on_notice(self, src: ProcessId, notice: StabilityNotice) -> None:
        view = self.stack.view
        if view is None or notice.view_id != view.view_id:
            return
        self.messages_pruned += self.stack.channels.prune(
            dict(notice.stable_prefix)
        )

    # -- coordinator side -------------------------------------------------------

    def on_report(self, src: ProcessId, report: StabilityReport) -> None:
        view = self.stack.view
        if view is None or report.view_id != view.view_id:
            return
        if view.coordinator != self.stack.pid:
            return
        if self._report_view != view.view_id:
            self._reports = {}
            self._report_view = view.view_id
        self._reports[report.sender] = dict(report.delivered_prefix)
        if set(self._reports) >= set(view.members) - {self.stack.pid}:
            self._reports[self.stack.pid] = self.stack.channels.delivered_prefix()
            self._broadcast_notice(view)
            self._reports = {}

    def _broadcast_notice(self, view) -> None:
        stable: dict[ProcessId, int] = {}
        for sender in view.members:
            prefix = min(
                report.get(sender, 0) for report in self._reports.values()
            )
            if prefix > 0:
                stable[sender] = prefix
        if not stable:
            return
        notice = StabilityNotice(
            view.view_id, tuple((pid, stable[pid]) for pid in sorted(stable))
        )
        self.notices_sent += 1
        own = self.stack.pid
        self.stack.send_many((m for m in view.members if m != own), notice)
        self.on_notice(self.stack.pid, notice)
