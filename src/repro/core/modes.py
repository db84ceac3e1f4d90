"""Execution modes and the transition automaton of Figure 1.

A group-object process is always in one of three modes (Section 3):

* **NORMAL** — serves all external operations;
* **REDUCED** — serves only a subset of the external operations;
* **SETTLING** — serves internal operations only (state reconstruction).

The automaton admits exactly the six labelled transitions of Figure 1:

====================  ==========  =========================================
transition            edge        cause
====================  ==========  =========================================
``Failure``           N -> R      view no longer supports external ops
``Failure``           S -> R      ditto, during reconstruction
``Repair``            R -> S      view supports external ops again
``Reconfigure``       N -> S      view expanded; state must be rebuilt
``Reconfigure``       S -> S      overlapping reconstruction instances
``Reconcile``         S -> N      reconstruction completed (synchronous!)
====================  ==========  =========================================

``Reconcile`` is the only transition that is *synchronous with the
computation*: it fires when the application reports that the global
state has been successfully reconstructed, not when the environment does
something (Section 4).  The automaton therefore exposes it as a method
(:meth:`ModeAutomaton.reconcile`) rather than deriving it from views.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.core.mode_functions import Capability, ModeFunction
from repro.errors import ApplicationError
from repro.evs.eview import EView
from repro.trace.events import ModeChangeEvent
from repro.types import MessageId, ProcessId
from repro.vsync.events import GroupApplication


class Mode(str, enum.Enum):
    NORMAL = "N"
    REDUCED = "R"
    SETTLING = "S"

    def __str__(self) -> str:
        return self.value


class Transition(str, enum.Enum):
    """Edge labels of Figure 1, plus the initial pseudo-transition."""

    JOIN = "Join"  # entering the first view; not an edge of Figure 1
    FAILURE = "Failure"
    REPAIR = "Repair"
    RECONFIGURE = "Reconfigure"
    RECONCILE = "Reconcile"

    def __str__(self) -> str:
        return self.value


#: The legal (old_mode, new_mode) pairs per transition, exactly Figure 1.
LEGAL_TRANSITIONS: dict[Transition, set[tuple[Mode, Mode]]] = {
    Transition.FAILURE: {(Mode.NORMAL, Mode.REDUCED), (Mode.SETTLING, Mode.REDUCED)},
    Transition.REPAIR: {(Mode.REDUCED, Mode.SETTLING)},
    Transition.RECONFIGURE: {
        (Mode.NORMAL, Mode.SETTLING),
        (Mode.SETTLING, Mode.SETTLING),
    },
    Transition.RECONCILE: {(Mode.SETTLING, Mode.NORMAL)},
}


@dataclass(frozen=True)
class ModeChange:
    """One transition taken by the automaton."""

    old: Mode | None
    new: Mode
    transition: Transition


class ModeAutomaton:
    """Per-process mode tracker driven by view changes and reconciles."""

    def __init__(
        self,
        mode_function: ModeFunction,
        on_change: Callable[[ModeChange, EView], None] | None = None,
    ) -> None:
        self.mode_function = mode_function
        self.on_change = on_change
        self.mode: Mode | None = None
        self.eview: EView | None = None

    # -- environment-driven transitions ----------------------------------

    def on_view(self, eview: EView) -> ModeChange | None:
        """Re-evaluate the mode for a newly installed view.

        Mirrors the paper's simplifying assumption: the mode function
        depends on the current view composition (and, through the mode
        function object, on local permanent flags), so all members of
        the new view compute the same next mode along the install cut.
        """
        old_eview, self.eview = self.eview, eview
        capability = self.mode_function.capability(eview)
        if self.mode is None:
            initial = (
                Mode.SETTLING if capability is Capability.FULL else Mode.REDUCED
            )
            return self._take(None, initial, Transition.JOIN)
        if capability is Capability.REDUCED:
            if self.mode is Mode.REDUCED:
                return None  # still reduced; no edge taken
            return self._take(self.mode, Mode.REDUCED, Transition.FAILURE)
        # The new view supports all external operations.
        if self.mode is Mode.REDUCED:
            return self._take(self.mode, Mode.SETTLING, Transition.REPAIR)
        if self.mode_function.needs_settling(old_eview, eview):
            return self._take(self.mode, Mode.SETTLING, Transition.RECONFIGURE)
        return None  # N stays N (pure shrink), S stays S (keep settling)

    # -- application-driven transition -------------------------------------

    def reconcile(self) -> ModeChange:
        """The application finished reconstructing the global state."""
        if self.mode is not Mode.SETTLING:
            raise ApplicationError(
                f"Reconcile is only legal from SETTLING, not {self.mode}"
            )
        return self._take(Mode.SETTLING, Mode.NORMAL, Transition.RECONCILE)

    # -- internals -----------------------------------------------------------

    def _take(self, old: Mode | None, new: Mode, transition: Transition) -> ModeChange:
        if transition is not Transition.JOIN:
            legal = LEGAL_TRANSITIONS[transition]
            if (old, new) not in legal:
                raise ApplicationError(
                    f"illegal transition {transition}: {old} -> {new}"
                )
        self.mode = new
        change = ModeChange(old, new, transition)
        if self.on_change is not None and self.eview is not None:
            self.on_change(change, self.eview)
        return change


class ModeTrackingApp(GroupApplication):
    """A :class:`GroupApplication` that runs a mode automaton.

    Applications subclass this instead of ``GroupApplication`` and get:
    ``self.mode``, mode-change trace events, and the
    :meth:`on_mode_change` hook.  They call :meth:`reconcile` when their
    internal operations complete.
    """

    def __init__(self, mode_function: ModeFunction) -> None:
        super().__init__()
        self.automaton = ModeAutomaton(mode_function, self._record_change)

    @property
    def mode(self) -> Mode | None:
        return self.automaton.mode

    def on_view(self, eview: EView) -> None:
        self.automaton.on_view(eview)

    def reconcile(self) -> None:
        if self.automaton.mode is Mode.SETTLING:
            self.automaton.reconcile()

    def _record_change(self, change: ModeChange, eview: EView) -> None:
        if self.stack is not None:
            self.stack.recorder.record(
                ModeChangeEvent(
                    time=self.stack.now,
                    pid=self.stack.pid,
                    old_mode=str(change.old) if change.old is not None else "",
                    new_mode=str(change.new),
                    transition=str(change.transition),
                    view_id=eview.view_id,
                )
            )
            obs = self.stack.obs
            if obs is not None:
                obs.mode_changed(
                    self.stack.pid, change.new, change.transition, self.stack.now
                )
        self.on_mode_change(change, eview)

    def on_mode_change(self, change: ModeChange, eview: EView) -> None:
        """Hook for subclasses."""

    def on_message(self, sender: ProcessId, payload, msg_id: MessageId) -> None:
        """Hook for subclasses."""
