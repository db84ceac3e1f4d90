"""Core identifier types shared across every layer.

The paper's system model (Section 2) assumes an *infinite name space of
process identifiers*: a recovering process takes a fresh identifier, so
identifiers never repeat across crashes.  We realise this with
:class:`ProcessId` — a pair of a stable *site* number and a monotonically
increasing *incarnation* number managed by the site's stable storage.

View identifiers (:class:`ViewId`) are pairs ``(epoch, coordinator)``
ordered lexicographically; concurrent partitions produce distinct view
identifiers because either the epoch or the installing coordinator
differs.  Message identifiers (:class:`MessageId`) are ``(sender, view,
seqno)`` triples: the embedded view is what lets the delivery rule
enforce Uniqueness (Property 2.2) purely locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, NamedTuple

SiteId = int


class ProcessId(NamedTuple):
    """Identifier of one incarnation of a process at a site.

    Ordering is lexicographic on ``(site, incarnation)``; the membership
    protocol uses the minimum live identifier as view coordinator.

    Identifiers key every hot dict and set (delivery maps, reachability
    estimates, link clocks), so the three identifier classes are tuples:
    hash, equality, order and construction run in C, and the hash of an
    identifier is the hash of the tuple of its fields (DESIGN.md 4.9).
    """

    site: SiteId
    incarnation: int = 0

    def __str__(self) -> str:
        return f"p{self.site}.{self.incarnation}"

    def next_incarnation(self) -> "ProcessId":
        """Identifier assigned to this site's process after a recovery."""
        return ProcessId(self.site, self.incarnation + 1)


class ViewId(NamedTuple):
    """Identifier of an installed view: ``(epoch, coordinator)``.

    Epochs grow monotonically along every process history (a coordinator
    picks ``1 + max`` over every epoch reported in flush replies), so a
    process never installs a view with a smaller identifier than its
    current one.
    """

    epoch: int
    coordinator: ProcessId

    def __str__(self) -> str:
        return f"v{self.epoch}@{self.coordinator}"


class MessageId(NamedTuple):
    """Identifier of an application multicast.

    ``seqno`` numbers the sender's multicasts *within* ``view`` starting
    from 1, giving per-sender FIFO order and gap detection for free.
    """

    sender: ProcessId
    view: ViewId
    seqno: int

    def __str__(self) -> str:
        return f"m({self.sender},{self.view},{self.seqno})"


# Subview and sv-set identifiers stay dataclasses: as tuples of one
# shape they would compare equal to each other (DESIGN.md 4.9).


@dataclass(frozen=True, order=True)
class SubviewId:
    """Identifier of a subview.

    Subviews are created either by the membership service (singletons for
    fresh processes, projections of old subviews onto survivors) or by
    application-requested merges.  The ``(view_epoch, origin, counter)``
    triple makes identifiers unique across the whole execution.
    """

    view_epoch: int
    origin: ProcessId
    counter: int

    def __str__(self) -> str:
        return f"sv({self.view_epoch},{self.origin},{self.counter})"


@dataclass(frozen=True, order=True)
class SvSetId:
    """Identifier of a subview set (sv-set); same uniqueness scheme."""

    view_epoch: int
    origin: ProcessId
    counter: int

    def __str__(self) -> str:
        return f"ss({self.view_epoch},{self.origin},{self.counter})"


@dataclass(frozen=True)
class Message:
    """An application multicast as carried by the network.

    ``payload`` is opaque to every protocol layer.  ``eview_seq`` is the
    sender's enriched-view sequence number at multicast time; receivers
    delay delivery until they have applied that e-view change, which is
    exactly what makes e-view changes consistent cuts (Property 6.2).
    ``trace`` is the causal context of the send (tracing only; ``None``
    — zero wire bytes — when tracing is off).
    """

    msg_id: MessageId
    payload: Any = None
    eview_seq: int = 0
    trace: Any = None

    def __str__(self) -> str:
        return f"Message({self.msg_id}, eview_seq={self.eview_seq})"


def min_process(pids: "set[ProcessId] | frozenset[ProcessId]") -> ProcessId:
    """Deterministic coordinator choice: the least process identifier."""
    if not pids:
        raise ValueError("cannot pick a coordinator from an empty set")
    return min(pids)


@lru_cache(maxsize=512)
def least_member(pids: "frozenset[ProcessId]") -> ProcessId:
    """:func:`min_process`, memoised like :func:`repro.gms.tree.round_tree`.
    One n=128 bootstrap, partition and heal asks about 1.7k distinct sets,
    each in a burst, and 512 entries evict none before its burst ends."""
    return min_process(pids)
