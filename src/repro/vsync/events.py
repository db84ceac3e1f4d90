"""Application-facing callback interface.

A group application subclasses :class:`GroupApplication` and overrides
the hooks it cares about.  The stack calls:

* :meth:`on_view` for every installed view (an e-view, so flat-view
  applications simply ignore the structure);
* :meth:`on_eview` for every in-view e-view change;
* :meth:`on_message` for every view-synchronous delivery;
* :meth:`on_direct` for point-to-point payloads sent with
  :meth:`~repro.vsync.stack.GroupStack.send_direct` (state-transfer
  protocols use these — bulk data does not need view synchrony);
* :meth:`on_beat` at every beat tick of the failure detector, for work
  that may wait up to one detector interval (a quorum object's owed
  acks).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.evs.eview import EView
from repro.types import MessageId, ProcessId

if TYPE_CHECKING:  # pragma: no cover
    from repro.vsync.stack import GroupStack


class GroupApplication:
    """Base class for applications running on a :class:`GroupStack`."""

    def __init__(self) -> None:
        self.stack: "GroupStack | None" = None

    def bind(self, stack: "GroupStack") -> None:
        """Called once by the stack before the first event."""
        self.stack = stack

    # -- hooks (all optional) ----------------------------------------------

    def on_view(self, eview: EView) -> None:
        """A new view (with its e-view structure) was installed."""

    def on_eview(self, eview: EView) -> None:
        """The e-view structure changed within the current view."""

    def on_message(self, sender: ProcessId, payload: Any, msg_id: MessageId) -> None:
        """A view-synchronous multicast was delivered."""

    def on_direct(self, sender: ProcessId, payload: Any) -> None:
        """A point-to-point payload arrived."""

    def on_beat(self) -> None:
        """The failure detector's beat tick (every ``fd_interval``)."""

    def on_stop(self) -> None:
        """The hosting process crashed or left the group."""
