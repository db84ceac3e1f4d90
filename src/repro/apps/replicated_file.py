"""Replicated file with weighted-vote quorums (Section 3, example 1).

    "Consider a group object implementing a file with the two external
    operations read and write. ... associate with each replica of the
    file a vote and define a quorum to be a collection of votes that can
    be obtained in at most one concurrent view."

Correctness criteria, as stated by the paper and checked by E10:

* **writes** behave as if there were a single copy of the file — a
  write is acknowledged to the client only after a quorum of replicas
  applied it, and quorum intersection plus view synchrony guarantee
  every later quorum view knows it;
* **reads** may return stale data (they are served in R-mode too).

Mode interpretation (the paper's): a quorum view is N-mode; a
non-quorum view is R-mode (reads only); a view where some members lack
an up-to-date replica is S-mode until transfer completes.

Each replica acks a writer's writes to it cumulatively.  Only the
writer's ack successors — the fewest view members after it in ring
order whose votes make a quorum with the writer's own — ack at once;
the rest send their newest owed ack at their next failure-detector
beat tick (:meth:`~repro.core.group_object.GroupObject.send_ack`).

File contents are *permanent* local state (Section 3 allows part of the
local state to survive failures): every applied write is persisted, so
after a total failure state creation can recover the file from the
last process(es) to fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.group_object import AppStateOffer, GroupObject
from repro.core.mode_functions import QuorumModeFunction
from repro.core.modes import Mode
from repro.core.versioning import QuorumTally, newest_incarnations
from repro.errors import ApplicationError
from repro.evs.eview import EView
from repro.types import MessageId, ProcessId, SiteId

_FILES_KEY = "replicated_file.contents"


@dataclass
class WriteHandle:
    """Client-visible completion state of one write."""

    name: str
    value: Any
    msg_id: MessageId | None = None
    acked_votes: int = 0
    status: str = "pending"  # pending | committed | aborted
    ackers: set[ProcessId] = field(default_factory=set)

    @property
    def done(self) -> bool:
        return self.status != "pending"


@dataclass(frozen=True)
class _WriteAck:
    """A cumulative ack: the sender applied every write of ours through
    ``msg_id`` (see :class:`~repro.core.versioning.QuorumTally`)."""

    msg_id: MessageId


class ReplicatedFile(GroupObject):
    """A quorum-replicated map of file names to contents."""

    def __init__(self, votes: Mapping[SiteId, int]) -> None:
        super().__init__(QuorumModeFunction(votes))
        self.votes = dict(votes)
        self.files: dict[str, tuple[Any, MessageId]] = {}
        # Quorum bookkeeping (pending handles, cumulative acks, vote
        # counting) lives in the shared tally; votes are the static
        # per-site weights.
        self._tally = QuorumTally(votes)
        self.reads_served = 0
        self.stale_reads_possible = 0

    def bind(self, stack) -> None:
        super().bind(stack)
        persisted = stack.storage.read(_FILES_KEY)
        if persisted is not None:
            self.files = persisted

    # ------------------------------------------------------------------
    # External operations
    # ------------------------------------------------------------------

    def write(self, name: str, value: Any) -> WriteHandle:
        """Start a write; returns a handle that commits once a quorum of
        votes acknowledged the update.  Requires N-mode."""
        handle = WriteHandle(name, value)
        if self.mode is not Mode.NORMAL:
            handle.status = "aborted"
            return handle
        msg_id = self.submit_op(("write", name, value))
        if msg_id is None:
            handle.status = "aborted"  # a view change is in progress
            return handle
        handle.msg_id = msg_id
        self._tally.open(msg_id, handle)
        return handle

    def read(self, name: str) -> Any:
        """Read a file; allowed in N-mode and (possibly stale) R-mode."""
        if self.mode is None or self.mode is Mode.SETTLING:
            raise ApplicationError("read not served while settling")
        self.reads_served += 1
        if self.mode is Mode.REDUCED:
            self.stale_reads_possible += 1
        entry = self.files.get(name)
        return entry[0] if entry is not None else None

    def listing(self) -> dict[str, Any]:
        """All file names and contents (same staleness rules as read)."""
        return {name: value for name, (value, _) in self.files.items()}

    def op_allowed(self, op: Any, mode: Mode) -> bool:
        return mode is Mode.NORMAL  # only writes go through submit_op

    # ------------------------------------------------------------------
    # Replication machinery
    # ------------------------------------------------------------------

    def apply_op(self, sender: ProcessId, op: Any, msg_id: MessageId) -> None:
        kind, name, value = op
        if kind != "write":
            raise ApplicationError(f"unknown file op {kind!r}")
        current = self.files.get(name)
        # Last-writer-wins by message identifier: identical at every
        # replica regardless of interleaving with other senders.
        if current is None or current[1] < msg_id:
            self.files[name] = (value, msg_id)
        self._persist()
        if sender == self.pid:
            self._tally.ack(msg_id, sender)  # our replica counts
        else:
            self.send_ack(sender, _WriteAck(msg_id))

    def on_app_direct(self, sender: ProcessId, payload: Any) -> None:
        if isinstance(payload, _WriteAck):
            self._tally.ack(payload.msg_id, sender)

    def on_view(self, eview: EView) -> None:
        # A view change aborts unacknowledged writes: their quorum can no
        # longer be certified in the view they were issued in (2.2).
        self._tally.abort_all(eview.view_id)
        super().on_view(eview)

    # ------------------------------------------------------------------
    # Shared-state policies
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict[str, tuple[Any, MessageId]]:
        return dict(self.files)

    def adopt_state(self, state: dict[str, tuple[Any, MessageId]]) -> None:
        self.files = dict(state)
        self._persist()

    def merge_app_states(self, offers: list[AppStateOffer]) -> Any:
        """With quorum votes at most one donor cluster can exist, but a
        divergence-tolerant merge keeps us safe even under false
        suspicions: per file, the write with the greatest identifier
        wins (identifiers embed the view epoch, so later quorums win).
        Offers from retired incarnations of a site are dropped first."""
        merged: dict[str, tuple[Any, MessageId]] = {}
        for offer in newest_incarnations(offers):
            for name, (value, stamp) in offer.state.items():
                if name not in merged or merged[name][1] < stamp:
                    merged[name] = (value, stamp)
        return merged

    def _persist(self) -> None:
        if self.stack is not None:
            self.stack.storage.write(_FILES_KEY, self.files)
