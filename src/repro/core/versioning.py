"""Op-log versioning helpers shared by the group-object applications.

Three concerns every replicated abstract data type in ``repro.apps``
kept reimplementing privately are extracted here so the versioned
record store, the quorum file and the lock manager consume one
implementation:

* **Provenance** — the ``(view_epoch, writer, seq)`` coordinate of one
  applied write, derived from the :class:`~repro.types.MessageId` of
  the multicast that carried it.  A multicast carrying one write gives
  it the message's seqno; one carrying several (group commit) gives
  them consecutive seqs from a carried offset, so seq is not always the
  message seqno (see :class:`Provenance`).  Provenance totally orders
  writes system-wide (epochs grow along every history; within an epoch
  the writer identifier and its per-view seq break ties) and names them
  stably across partitions, merges and state transfers.
* **Version chains** — append-only per-key histories of
  :class:`VersionEntry` records.  :func:`merge_chains` is the
  deterministic provenance-union reconciliation used when divergent
  partitions repair: every entry from every donor survives exactly
  once, ordered by provenance.
* **Quorum tallies** — the acknowledgement bookkeeping of
  quorum-acked writes: pending handles, each replica's cumulative
  acknowledged prefix, which counts votes, and each writer's ack
  successors, the replicas whose acks it waits for.

:func:`newest_incarnations` addresses a subtle state-merge hazard: a
site that crashed, recovered and then partitioned can appear in the
offer set *twice* — once through a donor cluster that still carries the
retired incarnation's state and once as its live incarnation.  Merge
policies that fold offers in ``(version, sender)`` order would let the
retired copy shadow the newer one.  Filtering to the newest incarnation
per site first makes any downstream fold safe.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple

from repro.types import MessageId, ProcessId, SiteId, ViewId

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


class Provenance(NamedTuple):
    """Where one write came from: ``(view_epoch, writer, seq)``.

    The triple is derived from the carrying multicast's
    :class:`MessageId` and drops the view coordinator: coordinators
    differ between concurrent partitions with equal epochs, and
    provenance must order such writes the same way at every site, so
    only writer identity breaks the tie.

    ``seq`` is the message seqno for a multicast that carries one write
    and no skew.  A writer that multicasts ``k`` writes in one message
    at seqno ``n`` gives them ``n + s .. n + s + k - 1``, where ``s``,
    carried in the message, counts the extra seqs the writer's earlier
    such messages of the view used; the next message then starts at the
    last seq plus one.  So a writer's seqs stay unique, increasing in
    issue order and gap-free within one view, and receivers read ``s``
    off the message instead of counting.

    Every apply builds one and every chain insert, merge and
    read-your-writes probe compares them, so provenance is a tuple like
    the identifiers of :mod:`repro.types`: its hash is the hash of its
    field tuple and its order is field-tuple order (DESIGN.md 4.9).
    """

    view_epoch: int
    writer: ProcessId
    seq: int

    def __str__(self) -> str:
        return f"w{self.view_epoch}/{self.writer}/{self.seq}"


def provenance_of(msg_id: MessageId, offset: int = 0) -> Provenance:
    """The provenance of a write multicast as ``msg_id``: ``offset`` is
    the carried skew plus the write's index in the message (0 for a
    lone write with no skew, see :class:`Provenance`)."""
    return Provenance(msg_id.view.epoch, msg_id.sender, msg_id.seqno + offset)


class VersionEntry(NamedTuple):
    """One link of a per-key version chain.

    ``client``/``client_seq`` identify the external request that caused
    the write (empty for writes submitted by the group members
    themselves); they are what makes client retries after a view change
    idempotent.  A tuple, like :class:`Provenance`: chains are ordered
    by ``prov`` explicitly, never by comparing entries.
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


class QuorumTally:
    """Acknowledgement bookkeeping for one writer's quorum-acked writes.

    The owning group object multicasts an operation, registers the
    returned message identifier with :meth:`open`, counts replica
    acknowledgements with :meth:`ack` and aborts everything still
    pending on a view change with :meth:`abort_all`, which also names
    the view the tally counts in from then on.

    Acknowledgements are *cumulative*: an ack of ``msg_id`` from a
    replica means "I applied every operation of yours through
    ``msg_id.seqno`` in ``msg_id.view``".  View-synchronous delivery is
    FIFO per sender within a view, and a settling replica replays its
    buffered operations in identifier order, so a replica that applied
    one of our operations applied all our earlier ones of that view.
    The tally therefore keeps only each replica's acknowledged prefix;
    the voters of a pending operation are the replicas whose prefix
    covers it, so voters shrink along the pending list, and operations
    commit in sending order.  Our own replica applies our operation
    synchronously inside ``multicast``, before ``open``: that simply
    raises our own prefix, and ``open`` counts it.

    Handles are duck-typed: they must expose mutable ``status``
    (``"pending"`` until the tally sets ``"committed"``/``"aborted"``),
    ``ackers`` (set of replicas counted) and ``acked_votes`` fields.
    Several handles may open with one ``msg_id`` (the writes of one
    group-commit multicast): they share every vote and commit together.
    """

    def __init__(self, votes: Mapping[SiteId, int], view: ViewId | None = None) -> None:
        self.votes = dict(votes)
        self._total = sum(self.votes.values())
        #: The view whose acknowledgements count.
        self.view = view
        #: Pending handles in sending order, with their sequence numbers.
        self._seqnos: list[int] = []
        self._pending: list[Any] = []
        #: replica -> highest sequence number it acknowledged in ``view``.
        self._prefix: dict[ProcessId, int] = {}

    def __len__(self) -> int:
        return len(self._pending)

    def ack_successors(
        self, members: Iterable[ProcessId]
    ) -> dict[ProcessId, tuple[ProcessId, ...]]:
        """Each member's *ack successors* in a view of ``members``.

        A writer's successors are the fewest members after it in the
        sorted ring of ``members`` whose votes, with the writer's own,
        exceed half of :attr:`votes`' total: the replicas whose acks
        commit its writes, with one vote per member the next
        ``len(members) // 2``.  Any two majorities intersect, so acks
        from the other replicas add nothing to safety and may wait
        (:meth:`~repro.core.group_object.GroupObject.send_ack`).  When
        the members cannot reach a quorum at all, every other member is
        a successor.
        """
        ring = sorted(members)
        k = len(ring)
        weights = [self.votes.get(pid.site, 0) for pid in ring]
        total = self._total
        if 2 * sum(weights) <= total:
            return {
                writer: tuple(ring[i + 1:] + ring[:i])
                for i, writer in enumerate(ring)
            }
        table = {}
        for i, writer in enumerate(ring):
            held, last = weights[i], i
            while 2 * held <= total:
                last += 1
                held += weights[last % k]
            table[writer] = tuple(ring[j % k] for j in range(i + 1, last + 1))
        return table

    def open(self, msg_id: MessageId, handle: Any) -> list[Any]:
        """Track ``handle`` until quorum, with the vote of every replica
        whose prefix already covers it; returns the handles that
        commits (``[handle]`` or none)."""
        seqno = msg_id.seqno
        votes = self.votes
        for replica, acked in self._prefix.items():
            if acked >= seqno:
                handle.ackers.add(replica)
                handle.acked_votes += votes.get(replica.site, 0)
        self._seqnos.append(seqno)
        self._pending.append(handle)
        return self._commit_front()

    def ack(self, msg_id: MessageId, replica: ProcessId) -> list[Any]:
        """Raise ``replica``'s prefix to ``msg_id.seqno``.

        The replica's vote goes to every pending handle the new prefix
        newly covers.  Returns the handles this commits, oldest first.
        An ack for another view, or at or below the replica's prefix
        (reordered or stale), changes nothing.
        """
        view = msg_id.view
        if view is not self.view and view != self.view:
            return []
        seqno = msg_id.seqno
        prefix = self._prefix
        old = prefix.get(replica, 0)
        if seqno <= old:
            return []
        prefix[replica] = seqno
        seqnos = self._seqnos
        if not seqnos or seqnos[-1] <= old:
            return []  # a late ack: what it covers already committed
        lo = bisect_right(seqnos, old)
        hi = bisect_right(seqnos, seqno)
        if lo == hi:
            return []
        vote = self.votes.get(replica.site, 0)
        pending = self._pending
        for i in range(lo, hi):
            handle = pending[i]
            handle.ackers.add(replica)
            handle.acked_votes += vote
        # Voters shrink along the list, so only an ack that reached the
        # oldest pending handle can commit anything.
        if lo or 2 * pending[0].acked_votes <= self._total:
            return []
        return self._commit_front()

    def _commit_front(self) -> list[Any]:
        pending = self._pending
        total = self._total
        done = 0
        while done < len(pending) and 2 * pending[done].acked_votes > total:
            pending[done].status = "committed"
            done += 1
        if not done:
            return []
        committed = pending[:done]
        del pending[:done]
        del self._seqnos[:done]
        return committed

    def abort_all(self, view: ViewId | None = None) -> list[Any]:
        """Abort every pending handle (view change: the quorum can no
        longer be certified in the view the write was issued in) and
        count acknowledgements in ``view`` from now on."""
        aborted = self._pending
        for handle in aborted:
            handle.status = "aborted"
        self._pending = []
        self._seqnos = []
        self._prefix = {}
        self.view = view
        return aborted
