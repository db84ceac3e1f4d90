"""Op-log versioning helpers shared by the group-object applications.

Three concerns every replicated abstract data type in ``repro.apps``
kept reimplementing privately are extracted here so the versioned
record store, the quorum file and the lock manager consume one
implementation:

* **Provenance** — the ``(view_epoch, writer, seq)`` coordinate of one
  applied external operation, derived from its :class:`~repro.types.
  MessageId`.  Provenance totally orders writes system-wide (epochs
  grow along every history; within an epoch the writer identifier and
  its per-view sequence number break ties) and names them stably across
  partitions, merges and state transfers.
* **Version chains** — append-only per-key histories of
  :class:`VersionEntry` records.  :func:`merge_chains` is the
  deterministic provenance-union reconciliation used when divergent
  partitions repair: every entry from every donor survives exactly
  once, ordered by provenance.
* **Quorum tallies** — the acknowledgement bookkeeping of
  quorum-acked writes (pending handles, vote counting, the early-ack
  race with synchronous self-delivery), previously private to
  ``replicated_file``.

:func:`newest_incarnations` addresses a subtle state-merge hazard: a
site that crashed, recovered and then partitioned can appear in the
offer set *twice* — once through a donor cluster that still carries the
retired incarnation's state and once as its live incarnation.  Merge
policies that fold offers in ``(version, sender)`` order would let the
retired copy shadow the newer one.  Filtering to the newest incarnation
per site first makes any downstream fold safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.types import MessageId, ProcessId, SiteId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.group_object import AppStateOffer

__all__ = [
    "Provenance",
    "VersionEntry",
    "QuorumTally",
    "provenance_of",
    "merge_chains",
    "newest_incarnations",
]


@dataclass(frozen=True, order=True)
class Provenance:
    """Where one write came from: ``(view_epoch, writer, seq)``.

    The triple is a projection of the write's :class:`MessageId` that
    drops the view coordinator: coordinators differ between concurrent
    partitions with equal epochs, and provenance must order such writes
    the same way at every site, so only writer identity breaks the tie.
    """

    view_epoch: int
    writer: ProcessId
    seq: int

    def __str__(self) -> str:
        return f"w{self.view_epoch}/{self.writer}/{self.seq}"


def provenance_of(msg_id: MessageId) -> Provenance:
    """The provenance coordinate of the operation multicast ``msg_id``."""
    return Provenance(msg_id.view.epoch, msg_id.sender, msg_id.seqno)


@dataclass(frozen=True)
class VersionEntry:
    """One link of a per-key version chain.

    ``client``/``client_seq`` identify the external request that caused
    the write (empty for writes submitted by the group members
    themselves); they are what makes client retries after a view change
    idempotent.
    """

    value: Any
    prov: Provenance
    client: str = ""
    client_seq: int = 0


def merge_chains(
    chains: Iterable[tuple[VersionEntry, ...]]
) -> tuple[VersionEntry, ...]:
    """Provenance-union of divergent version chains for one key.

    Every entry from every chain survives exactly once (entries are
    identical iff their provenance is — a write has one coordinate no
    matter which partition's chain carried it here), ordered by
    provenance.  Deterministic in the set of input entries, so every
    member of a merging view computes the same chain.
    """
    by_prov: dict[Provenance, VersionEntry] = {}
    for chain in chains:
        for entry in chain:
            by_prov.setdefault(entry.prov, entry)
    return tuple(by_prov[p] for p in sorted(by_prov))


def newest_incarnations(offers: list["AppStateOffer"]) -> list["AppStateOffer"]:
    """Drop state offers attributed to retired incarnations.

    For each site represented in ``offers`` keep only the offers whose
    sender is that site's newest incarnation present; among several
    offers from the same incarnation (possible when donor clusters
    overlap) keep the highest-version one.  The result preserves the
    input's deterministic usability: equal inputs give equal outputs.
    """
    newest: dict[SiteId, ProcessId] = {}
    for offer in offers:
        pid = offer.sender
        cur = newest.get(pid.site)
        if cur is None or pid.incarnation > cur.incarnation:
            newest[pid.site] = pid
    best: dict[ProcessId, "AppStateOffer"] = {}
    for offer in offers:
        if newest[offer.sender.site] != offer.sender:
            continue
        cur = best.get(offer.sender)
        if cur is None or offer.version > cur.version:
            best[offer.sender] = offer
    return [best[pid] for pid in sorted(best)]


@dataclass
class _PendingAck:
    """Tally-internal view of one pending quorum-acked operation."""

    handle: Any
    ackers: set[ProcessId] = field(default_factory=set)
    votes: int = 0


class QuorumTally:
    """Acknowledgement bookkeeping for quorum-acked writes.

    The owning group object multicasts an operation, registers the
    returned message identifier with :meth:`open`, counts replica
    acknowledgements with :meth:`ack` and aborts everything still
    pending on a view change with :meth:`abort_all`.  The tally also
    handles the *early-ack* race: self-delivery is synchronous inside
    ``multicast``, so our own replica's acknowledgement can arrive
    before ``open`` registers the handle; it parks until then.  No
    other replica can be that early, and our messages open in sending
    order, so an acknowledgement for one at or below the newest opened
    is late (the operation already committed), not early: it is
    dropped, and nothing stays parked behind a committed operation.

    Handles are duck-typed: they must expose mutable ``status``
    (``"pending"`` until the tally sets ``"committed"``/``"aborted"``),
    ``ackers`` (set of replicas counted) and ``acked_votes`` fields.
    """

    def __init__(self, votes: Mapping[SiteId, int]) -> None:
        self.votes = dict(votes)
        self._total = sum(self.votes.values())
        self._pending: dict[MessageId, Any] = {}
        self._early: dict[MessageId, set[ProcessId]] = {}
        self._newest_opened: MessageId | None = None

    def __len__(self) -> int:
        return len(self._pending)

    def open(self, msg_id: MessageId, handle: Any, my_pid: ProcessId) -> Any | None:
        """Track ``handle`` until quorum; drain parked early acks.

        Returns the handle if the drained acks already commit it (a
        single-site quorum), else ``None``.
        """
        self._pending[msg_id] = handle
        self._newest_opened = msg_id
        committed = None
        for replica in sorted(self._early.pop(msg_id, set())):
            done = self.ack(msg_id, replica, my_pid)
            if done is not None:
                committed = done
        return committed

    def ack(
        self, msg_id: MessageId, replica: ProcessId, my_pid: ProcessId
    ) -> Any | None:
        """Count one replica's acknowledgement.

        Returns the handle when this acknowledgement commits it, else
        ``None``.  Our own ack for a message of ours not opened yet is
        parked for :meth:`open`; anything else is a stale ack for an
        operation already committed or aborted and is dropped.
        """
        handle = self._pending.get(msg_id)
        if handle is None:
            newest = self._newest_opened
            if (
                replica == my_pid
                and msg_id.sender == my_pid
                and (newest is None or msg_id > newest)
            ):
                self._early.setdefault(msg_id, set()).add(replica)
            return None
        if handle.done or replica in handle.ackers:
            return None
        handle.ackers.add(replica)
        handle.acked_votes += self.votes.get(replica.site, 0)
        if 2 * handle.acked_votes > self._total:
            handle.status = "committed"
            del self._pending[msg_id]
            return handle
        return None

    def abort_all(self) -> list[Any]:
        """Abort every pending handle (view change: the quorum can no
        longer be certified in the view the write was issued in)."""
        aborted = list(self._pending.values())
        for handle in aborted:
            handle.status = "aborted"
        self._pending.clear()
        self._early.clear()
        return aborted
