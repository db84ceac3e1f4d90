"""Majority write-lock manager (the Section 6.2 example).

    "suppose that external operations can be run only in a view
    containing a majority of processes and that their implementation
    involves the management of a mutually-exclusive write lock within
    such a view.  The shared global state will thus include the
    identities of the lock manager and the current lock holder (if
    any)."

The manager is the least member of the current majority view; clients
ask it for the lock with point-to-point requests, and grants/releases
are multicast so every member tracks (manager, holder) — the shared
state.  Because at most one concurrent view holds a majority, at most
one manager exists system-wide, giving global mutual exclusion; E10
verifies it on traces.

This object is the test bed for experiment E6: a process switching
from R-mode to S-mode on a new majority view must decide between the
paper's scenarios (i) state transfer from a surviving majority,
(ii) waiting for a creation protocol already in progress, and
(iii) creation from scratch — locally decidable with e-views, ambiguous
with flat views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.group_object import AppStateOffer, GroupObject
from repro.core.mode_functions import StaticMajorityModeFunction
from repro.core.modes import Mode
from repro.core.versioning import newest_incarnations
from repro.evs.eview import EView
from repro.trace.events import AppEvent
from repro.types import MessageId, ProcessId, SiteId

_LOCK_KEY = "lock_manager.state"


@dataclass
class LockHandle:
    """Client-visible state of one acquire attempt."""

    requester: ProcessId
    status: str = "pending"  # pending | granted | denied | aborted

    @property
    def done(self) -> bool:
        return self.status != "pending"


@dataclass(frozen=True)
class _AcquireReq:
    requester: ProcessId


@dataclass(frozen=True)
class _ReleaseReq:
    requester: ProcessId


@dataclass(frozen=True)
class _Denied:
    holder: ProcessId


class MajorityLockManager(GroupObject):
    """The (manager, holder) shared state plus its client protocol."""

    def __init__(self, universe: Iterable[SiteId]) -> None:
        super().__init__(StaticMajorityModeFunction(universe))
        self.holder: ProcessId | None = None
        self.grants = 0
        self.denials = 0
        self._my_request: LockHandle | None = None

    # ------------------------------------------------------------------
    # Shared-state queries
    # ------------------------------------------------------------------

    @property
    def manager(self) -> ProcessId | None:
        """The lock manager: least member of the view, in N-mode only."""
        if self.mode is not Mode.NORMAL or self.stack.view is None:
            return None
        return min(self.stack.view.members)

    def i_hold_lock(self) -> bool:
        return self.holder == self.pid

    # ------------------------------------------------------------------
    # External operations
    # ------------------------------------------------------------------

    def acquire(self) -> LockHandle:
        """Request the write lock; requires N-mode (a majority view)."""
        handle = LockHandle(self.pid)
        manager = self.manager
        if manager is None:
            handle.status = "aborted"
            return handle
        self._my_request = handle
        request = _AcquireReq(self.pid)
        if manager == self.pid:
            self._manage(self.pid, request)
        else:
            self.stack.send_direct(manager, request)
        return handle

    def release(self) -> None:
        """Give the lock back (no-op unless we hold it)."""
        if not self.i_hold_lock():
            return
        manager = self.manager
        if manager is None:
            return
        request = _ReleaseReq(self.pid)
        if manager == self.pid:
            self._manage(self.pid, request)
        else:
            self.stack.send_direct(manager, request)

    # ------------------------------------------------------------------
    # Manager protocol
    # ------------------------------------------------------------------

    def _manage(self, src: ProcessId, request: Any) -> None:
        if self.manager != self.pid:
            return  # stale request; client will retry after the view change
        if isinstance(request, _AcquireReq):
            if self.holder is None:
                self.submit_op(("grant", request.requester))
            else:
                self.denials += 1
                if request.requester == self.pid:
                    self._deny_local()
                else:
                    self.stack.send_direct(request.requester, _Denied(self.holder))
        elif isinstance(request, _ReleaseReq):
            if request.requester == self.holder:
                self.submit_op(("release", request.requester))

    def _deny_local(self) -> None:
        if self._my_request is not None and not self._my_request.done:
            self._my_request.status = "denied"
            self._my_request = None

    def on_app_direct(self, sender: ProcessId, payload: Any) -> None:
        if isinstance(payload, (_AcquireReq, _ReleaseReq)):
            self._manage(sender, payload)
        elif isinstance(payload, _Denied):
            self._deny_local()

    # ------------------------------------------------------------------
    # Replicated state updates
    # ------------------------------------------------------------------

    def apply_op(self, sender: ProcessId, op: Any, msg_id: MessageId) -> None:
        kind, subject = op
        recorder = self.stack.recorder
        if recorder.wants(AppEvent):
            # The holder before the op: LockExclusion's evidence.
            recorder.record(AppEvent(
                time=self.stack.now, pid=self.pid, tag="lock_apply",
                data={"kind": kind, "subject": subject, "holder": self.holder},
            ))
        if kind == "grant":
            self.holder = subject
            self.grants += 1
            if subject == self.pid and self._my_request is not None:
                self._my_request.status = "granted"
                self._my_request = None
        elif kind == "release":
            if self.holder == subject:
                self.holder = None
        self._persist_lock()

    def on_view(self, eview: EView) -> None:
        if self._my_request is not None and not self._my_request.done:
            self._my_request.status = "aborted"
            self._my_request = None
        # A holder outside the new view lost the lock with its view: the
        # grant was only meaningful within the majority that issued it.
        if self.holder is not None and self.holder not in eview.members:
            self.holder = None
            self._persist_lock()
        super().on_view(eview)

    # ------------------------------------------------------------------
    # Shared-state policies
    # ------------------------------------------------------------------

    def snapshot_state(self) -> Any:
        return self.holder

    def adopt_state(self, state: Any) -> None:
        self.holder = state
        self._persist_lock()

    def merge_app_states(self, offers: list[AppStateOffer]) -> Any:
        """At most one majority can have granted a lock, so at most one
        offer carries a non-None holder; prefer it (highest version wins
        ties defensively).  Retired-incarnation offers are dropped first
        so a stale pre-crash holder cannot resurface."""
        best = max(
            newest_incarnations(offers),
            key=lambda o: (o.state is not None, o.version, o.sender),
        )
        return best.state

    def _persist_lock(self) -> None:
        if self.stack is not None:
            self.stack.storage.write(_LOCK_KEY, self.holder)
