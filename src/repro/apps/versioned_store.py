"""Versioned record store: the client-serving group object.

``repro.apps.replicated_db`` demonstrates the paper's weak-consistency
example with an opaque grow-only record set; this object grows that
data model into what an external client tier needs — agreements as
living versioned data rather than static rows:

* **append-only per-key version chains**: a put never overwrites; it
  appends a :class:`~repro.core.versioning.VersionEntry` stamped with
  the write's :class:`~repro.core.versioning.Provenance`
  ``(view_epoch, writer, seq)``, so the full audit history of every key
  survives partitions and merges;
* **provenance-aware reconciliation**: partition repair is a
  deterministic provenance-union of the divergent chains
  (:func:`~repro.core.versioning.merge_chains`) — *every* partition's
  writes survive with correct attribution, not last-writer-wins;
* **read-your-writes tokens**: a committed put returns its provenance;
  a later read presenting that token is refused (``retry``) by any
  replica whose chain does not yet contain the write;
* **quorum acknowledgements**: a put is acknowledged only after a
  majority of the current view applied it
  (:class:`~repro.core.versioning.QuorumTally`), and a retry the
  exactly-once index holds only once the view certifies the original
  (:meth:`VersionedStore._certified`), so a majority of the answering
  view holds every acked write.  Two trace checks hold the store to it:
  ``CertifiedAck`` (a majority held it when it was acked) and
  ``AckedWriteLoss`` (some live process still holds it at the end of
  the run; see :mod:`repro.trace.checks`).  Only the writer's next ``k // 2``
  members in ring order (its ack successors) ack at once; the other
  replicas' acks wait for their next beat tick
  (:meth:`~repro.core.group_object.GroupObject.send_ack`).

Writes are allowed in every view (each partition keeps serving its
clients; chains make the repair safe), which makes this the store-side
half of the paper's partition-availability story.

**Group commit.**  The puts a replica receives in one input batch (on
the wall clock: the client requests of one socket read) leave as one
multicast when the batch ends, one provenance per put, and commit
together on one cumulative ack from each replica.  View synchrony
delivers that multicast whole or not at all to every survivor of the
view, FIFO per sender, so the replicas apply the k puts together and in
one order — the certificate k multicasts would give.  Provenance seqs
stay unique per writer through a carried skew (see
:class:`~repro.core.versioning.Provenance`).  No store multicast is
re-issued in a later view, whose seqs a skewed one would collide with:
a put a view change catches aborts, and its client retries.  The
simulator never opens a batch, so there every put is its own
``("put", ...)`` multicast.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable

from repro.core.group_object import AppStateOffer, GroupObject
from repro.core.mode_functions import AlwaysFullModeFunction
from repro.core.modes import Mode
from repro.core.settlement import wire_size as _wire_size
from repro.core.versioning import (
    Provenance,
    QuorumTally,
    VersionEntry,
    merge_chains,
    newest_incarnations,
    provenance_of,
)
from repro.evs.eview import EView
from repro.fuzz import bugs as _fuzz_bugs
from repro.trace.events import AppEvent, StoreApplied
from repro.types import MessageId, ProcessId, ViewId

_CHAINS_KEY = "versioned_store.chains"
_LOG_KEY = "versioned_store.log"

#: Appended writes between full-base compactions of the persisted state.
_COMPACT_EVERY = 4096

#: Estimated bytes (:func:`_wire_size`) of the puts one group-commit
#: multicast may carry before the next put starts a new one: an eighth
#: of the wire's 16 MiB frame cap (``repro.realnet.codec.
#: MAX_FRAME_BYTES``), which leaves room for UTF-8, JSON escapes and
#: type tags on top of the estimate.
_MULTICAST_BYTES = 2 * 1024 * 1024

#: Delivered messages whose put records :func:`put_records` keeps.  In
#: the simulator every member applies a message within a few units of
#: the first: an n=16 fault run shares as much at 64 as at 1024.  A
#: message applied after its entry was evicted builds its records
#: again.  Where nothing is shared (a realnet node decodes its own
#: copy) the memo holds the last this-many ops and their records, about
#: half a kilobyte per one-put message beyond what the chains hold.
PUT_MEMO = 128

#: msg_id -> (the op it was built from, its puts' records), oldest first.
_put_memo: OrderedDict[MessageId, tuple[Any, tuple[tuple, ...]]] = OrderedDict()


def prov_tuple(prov: Provenance) -> tuple[int, int, int, int]:
    """Client-wire flat form of a provenance coordinate (a trace export
    writes the same form, :func:`repro.trace.export.flat_provenance`)."""
    return (prov.view_epoch, prov.writer.site, prov.writer.incarnation, prov.seq)


def prov_from_tuple(raw: tuple[int, int, int, int]) -> Provenance:
    epoch, site, incarnation, seq = raw
    return Provenance(int(epoch), ProcessId(int(site), int(incarnation)), int(seq))


def put_records(op: tuple, msg_id: MessageId, audits: bool) -> tuple[tuple, ...]:
    """The immutable records of the puts ``op`` carries, delivered as
    ``msg_id``: per put, ``(key, entry, request, record, applied)`` —
    its :class:`VersionEntry` (which holds its provenance), its
    ``(client, client_seq)`` exactly-once index key (None without a
    client), its ``(key, entry)`` op-log record and its ``store_apply``
    audit record for an append (built only when ``audits``, else None).

    They are a function of the message alone, and every member of the
    view applies the same message, so one set serves every replica in
    the process (DESIGN.md 4.9): a memo of :data:`PUT_MEMO` messages,
    oldest evicted first.  It serves an entry only for the very op
    object it was built from — the simulator hands one payload object to
    every receiver, while an equal op of another cluster that reached the
    same ``msg_id`` (``1 == True``) or a copy decoded off a socket builds
    its own.
    """
    held = _put_memo.get(msg_id)
    if held is not None and held[0] is op:
        return held[1]
    if op[0] == "put":
        skew, puts = 0, (op[1:],)
    else:
        _kind, skew, puts = op
    records = []
    for offset, (key, value, client, client_seq) in enumerate(puts, skew):
        prov = provenance_of(msg_id, offset)
        entry = VersionEntry(value, prov, client, client_seq)
        records.append((
            key,
            entry,
            (client, client_seq) if client else None,
            (key, entry),
            StoreApplied(key, prov, client, client_seq) if audits else None,
        ))
    built = tuple(records)
    if held is None and len(_put_memo) >= PUT_MEMO:
        _put_memo.popitem(last=False)
    _put_memo[msg_id] = (op, built)
    return built


@dataclass
class PutHandle:
    """Client-visible completion state of one put."""

    key: Any
    value: Any
    client: str = ""
    client_seq: int = 0
    msg_id: MessageId | None = None
    #: The put's own provenance, set when it is multicast.
    prov: Provenance | None = None
    acked_votes: int = 0
    status: str = "pending"  # pending | committed | aborted
    ackers: set[ProcessId] = field(default_factory=set)
    #: Read-your-writes token, set when the put commits.
    token: Provenance | None = None
    #: Completion callback (service tier replies to the client here).
    on_done: Callable[["PutHandle"], None] | None = None

    @property
    def done(self) -> bool:
        return self.status != "pending"


@dataclass(frozen=True)
class ReadResult:
    """Outcome of one get/history call."""

    status: str  # ok | missing | retry
    value: Any = None
    prov: Provenance | None = None
    chain: tuple[VersionEntry, ...] = ()


@dataclass(frozen=True)
class _StoreAck:
    """A cumulative ack: the sender applied every put of ours through
    ``msg_id`` (see :class:`~repro.core.versioning.QuorumTally`)."""

    msg_id: MessageId


class VersionedStore(GroupObject):
    """Append-only versioned key space with quorum-acked writes."""

    def __init__(self, audit_trace: bool = True) -> None:
        super().__init__(AlwaysFullModeFunction())
        #: key -> append-only chain ordered by provenance.
        self.chains: dict[Any, tuple[VersionEntry, ...]] = {}
        #: (client, client_seq) -> prov: the exactly-once index.
        self._client_index: dict[tuple[str, int], Provenance] = {}
        self._tally = QuorumTally({})
        #: Puts of the open input batch, with their trace parents.
        self._queued_puts: list[tuple[PutHandle, Any]] = []
        #: Extra provenance seqs our group-commit multicasts used in
        #: ``_skew_view`` (see :class:`~repro.core.versioning.Provenance`).
        self._skew = 0
        self._skew_view: ViewId | None = None
        self.audit_trace = audit_trace
        self.puts_committed = 0
        self.puts_aborted = 0
        #: Multicasts that carried puts (``puts_committed`` over this is
        #: puts per multicast).
        self.put_multicasts = 0
        self.gets_served = 0
        self.ryw_retries = 0
        #: Writes appended to the persisted op log since the last
        #: full-base write (compaction trigger).
        self._log_len = 0

    def bind(self, stack) -> None:
        super().bind(stack)
        persisted = stack.storage.read(_CHAINS_KEY)
        log = stack.storage.read(_LOG_KEY)
        if persisted is not None or log:
            self.chains = dict(persisted or ())
            touched = set()
            for key, entry in log or ():
                self.chains[key] = self.chains.get(key, ()) + (entry,)
                touched.add(key)
            if not _fuzz_bugs.active("append_order"):
                # The log holds applies in arrival order; the chains
                # they built are in provenance order.
                for key in touched:
                    self.chains[key] = tuple(
                        sorted(self.chains[key], key=attrgetter("prov"))
                    )
            self._log_len = len(log or ())
            self._reindex()
            if self._audits():
                # A recovered incarnation re-enters holding these
                # versions; record it so trace audits (the acked-write
                # checker) see disk-restored state, not just adoptions.
                self._record_state()

    # ------------------------------------------------------------------
    # External operations
    # ------------------------------------------------------------------

    def put(
        self,
        key: Any,
        value: Any,
        client: str = "",
        client_seq: int = 0,
        on_done: Callable[[PutHandle], None] | None = None,
        trace: Any = None,
    ) -> PutHandle:
        """Append a new version of ``key``.

        Returns a handle that commits once a majority of the current
        view applied the write; outside NORMAL mode, or when a view
        change catches its multicast, it aborts and the client retries
        with the same ``(client, client_seq)``.  A retry the exactly-once
        index already holds adds no entry: it commits with the original
        provenance once this view certifies that write
        (:meth:`_certified`), and aborts until then.  Either way the
        answer "committed" comes from :meth:`_committed` alone.  Inside
        an input batch the put is multicast when the batch ends, with
        the batch's other puts (group commit).  ``trace`` names the
        causal parent of the replication multicast (the serving tier's
        request span; tracing only).
        """
        handle = PutHandle(key, value, client, client_seq, on_done=on_done)
        if self.mode is not Mode.NORMAL:
            self._abort(handle)
            return handle
        if client:
            done = self._client_index.get((client, client_seq))
            if done is not None:
                # A retry of a write that already landed: no new chain
                # entry, and "committed" only once this view certifies
                # the original.
                if self._certified(done):
                    self._committed(handle)
                else:
                    self._abort(handle)
                return handle
        stack = self.stack
        if stack.input_batch:
            queued = self._queued_puts
            if not queued:
                stack.at_batch_end(self._send_queued_puts)
            queued.append((handle, trace))
            return handle
        self._multicast_puts([(handle, trace)])
        return handle

    def get(self, key: Any, ryw: Provenance | None = None) -> ReadResult:
        """Read the newest version of ``key``.

        Served in any view (possibly stale across a partition).  With a
        read-your-writes token the read is refused (``retry``) unless
        this replica's chain already contains the tokened write — the
        client then retries, typically against the replica that acked.
        """
        if self.mode is None or self.mode is Mode.SETTLING:
            return ReadResult("retry")
        self.gets_served += 1
        chain = self.chains.get(key, ())
        if ryw is not None and all(e.prov != ryw for e in chain):
            self.ryw_retries += 1
            return ReadResult("retry")
        if not chain:
            return ReadResult("missing")
        head = chain[-1]
        return ReadResult("ok", head.value, head.prov)

    def history(self, key: Any, ryw: Provenance | None = None) -> ReadResult:
        """The full audit chain of ``key``, oldest first."""
        if self.mode is None or self.mode is Mode.SETTLING:
            return ReadResult("retry")
        self.gets_served += 1
        chain = self.chains.get(key, ())
        if ryw is not None and all(e.prov != ryw for e in chain):
            self.ryw_retries += 1
            return ReadResult("retry")
        if not chain:
            return ReadResult("missing")
        head = chain[-1]
        return ReadResult("ok", head.value, head.prov, chain)

    def leader(self) -> ProcessId | None:
        """Leader-read anchor: the least member of the current view."""
        if self.mode is not Mode.NORMAL or self.stack.view is None:
            return None
        return min(self.stack.view.members)

    def op_allowed(self, op: Any, mode: Mode) -> bool:
        return mode is Mode.NORMAL

    # ------------------------------------------------------------------
    # Replication machinery
    # ------------------------------------------------------------------

    def _send_queued_puts(self) -> None:
        """The input batch ended: multicast its puts in arrival order,
        starting a new multicast wherever the next put would take one
        past :data:`_MULTICAST_BYTES`."""
        queued, self._queued_puts = self._queued_puts, []
        if self.mode is not Mode.NORMAL:
            for handle, _trace in queued:
                self._abort(handle)
            return
        start = size = 0
        for i, (handle, _trace) in enumerate(queued):
            cost = _wire_size(handle.key) + _wire_size(handle.value) + len(handle.client)
            if i > start and size + cost > _MULTICAST_BYTES:
                self._multicast_puts(queued[start:i])
                start, size = i, 0
            size += cost
        self._multicast_puts(queued[start:])

    def _multicast_puts(self, puts: list[tuple[PutHandle, Any]]) -> None:
        """Multicast ``puts`` as one operation, parented under the first
        one's trace, and track each one's quorum.

        One put with no skew in this view is the plain ``("put", key,
        value, client, client_seq)`` op.  Anything else is ``("puts",
        skew, ((key, value, client, client_seq), ...))``: its puts take
        seqs from the message seqno plus ``skew``.  No store op is
        re-issued in a later view: during a view change the puts abort
        at once, and each client's retry is the only copy that lands.
        """
        skew = self._skew if self.stack.view.view_id == self._skew_view else 0
        if len(puts) == 1 and not skew:
            handle = puts[0][0]
            op = ("put", handle.key, handle.value, handle.client, handle.client_seq)
        else:
            op = (
                "puts",
                skew,
                tuple((h.key, h.value, h.client, h.client_seq) for h, _ in puts),
            )
        msg_id = self.submit_op(op, puts[0][1])
        if msg_id is None:
            for handle, _trace in puts:
                self._abort(handle)  # a view change is in progress
            return
        self.put_multicasts += 1
        self._skew_view, self._skew = msg_id.view, skew + len(puts) - 1
        tally = self._tally
        for i, (handle, _trace) in enumerate(puts, skew):
            handle.msg_id = msg_id
            handle.prov = provenance_of(msg_id, i)
            for committed in tally.open(msg_id, handle):
                self._committed(committed)

    def apply_op(self, sender: ProcessId, op: Any, msg_id: MessageId) -> None:
        if op[0] not in ("put", "puts"):
            return
        chains = self.chains
        index = self._client_index
        audits = self._audits()
        for key, entry, request, record, applied in put_records(op, msg_id, audits):
            if request is not None and request in index:
                continue  # a retry of a write that already landed
            prov = entry.prov
            chain = chains.get(key, ())
            at = None
            if not chain or chain[-1].prov < prov or _fuzz_bugs.active("append_order"):
                chains[key] = chain + (entry,)
            else:
                # Multicast is FIFO per sender only, so writes from
                # different writers reach replicas in different orders:
                # insert by provenance so every replica builds one chain.
                at = bisect_right(chain, prov, key=attrgetter("prov"))
                chains[key] = chain[:at] + (entry,) + chain[at:]
                if at == len(chain):
                    at = None  # an append after all
            if request is not None:
                index[request] = prov
            self._persist_entry(record)
            if audits:
                if at is not None or applied is None:
                    # An insert says where the version went; and the
                    # message's first replica may have built no record.
                    applied = StoreApplied(
                        key, prov, entry.client, entry.client_seq, at
                    )
                self._record("store_apply", applied)
        # Acknowledge even duplicates: a retry multicast by a replica
        # that lacked the original still needs its quorum certificate.
        if sender == self.pid:
            for committed in self._tally.ack(msg_id, sender):
                self._committed(committed)
        else:
            self.send_ack(sender, _StoreAck(msg_id))

    def on_app_direct(self, sender: ProcessId, payload: Any) -> None:
        if isinstance(payload, _StoreAck):
            for committed in self._tally.ack(payload.msg_id, sender):
                self._committed(committed)

    def _certified(self, prov: Provenance) -> bool:
        """Does a majority of this view hold the landed write ``prov``?

        Yes if it was written in an earlier view: Agreement (2.1) gave
        it to every survivor of that view, and settlement's union to
        every member that joined since, so every NORMAL member holds it.
        Yes if it lies within its writer's stable prefix of this view:
        every member delivered it (``prov.seq`` is at least the message
        seqno, so the test errs towards no).  Otherwise it may still be
        in flight: a retry can overtake copies of its original, held so
        far by its writer alone (DESIGN.md 4.8).
        """
        stack = self.stack
        epoch = stack.view.view_id.epoch
        return prov.view_epoch < epoch or (
            prov.view_epoch == epoch and prov.seq <= stack.stable_prefix(prov.writer)
        )

    def _committed(self, handle: PutHandle) -> None:
        """The one place a put is answered "committed": by its quorum
        certificate, or, for a retry the index holds, once
        :meth:`_certified`.  The token is the index's provenance for the
        request, and a ``store_ack`` audit event records the answer."""
        handle.status = "committed"
        self.puts_committed += 1
        done = None
        if handle.client:
            done = self._client_index.get((handle.client, handle.client_seq))
        if done is not None:
            handle.token = done
        else:
            handle.token = handle.prov
        if handle.token is not None and self._audits():
            self._record(
                "store_ack",
                {
                    "key": handle.key,
                    "prov": handle.token,
                    "client": handle.client,
                    "client_seq": handle.client_seq,
                },
            )
        self._finish(handle)

    def _abort(self, handle: PutHandle) -> None:
        handle.status = "aborted"
        self.puts_aborted += 1
        self._finish(handle)

    def _finish(self, handle: PutHandle) -> None:
        if handle.on_done is not None:
            callback, handle.on_done = handle.on_done, None
            callback(handle)

    def on_view(self, eview: EView) -> None:
        # Quorums are per view: abort what the old view cannot certify
        # and retally over the new membership (one vote per site).
        for handle in self._tally.abort_all():
            self.puts_aborted += 1
            self._finish(handle)
        self._tally = QuorumTally({m.site: 1 for m in eview.members}, eview.view_id)
        super().on_view(eview)

    def on_mode_change(self, change, eview: EView) -> None:
        if change.new is Mode.NORMAL and self._audits():
            self._record_state()

    # ------------------------------------------------------------------
    # Shared-state policies
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict[Any, tuple[VersionEntry, ...]]:
        return dict(self.chains)

    def adopt_state(self, state: dict[Any, tuple[VersionEntry, ...]]) -> None:
        """Union the decided state into the local chains.

        Adoption must not *replace*: settlement offers are snapshots,
        and a put can commit between the moment this replica's offer
        was taken and the moment the decision arrives (Section 6.2's
        undisturbed internal operations — a same-membership reinstall
        settles while client ops keep flowing).  Replacing chains with
        the decided snapshot would silently drop those concurrent,
        possibly already-acked writes on every replica at once.  The
        chain set is a grow-only provenance union, so merging the
        decision with what is held locally is deterministic, idempotent
        and always safe.

        The work is in proportion to the divergence, not to the state:
        a decided chain equal to the held one is skipped, any other is
        merged with it in place, and only the versions the merge adds
        reach the exactly-once index and the op log.  A key held but
        not decided is already its own union.
        """
        chains = self.chains
        index = self._client_index
        added: list[tuple[Any, VersionEntry]] = []
        for key, decided in state.items():
            held = chains.get(key, ())
            if decided == held:
                continue
            merged = merge_chains((decided, held))
            chains[key] = merged
            if len(merged) == len(held):
                continue  # nothing new, at most reordered
            held_provs = {e.prov for e in held}
            for entry in merged:
                if entry.prov in held_provs:
                    continue
                added.append((key, entry))
                if entry.client:
                    # The index names the newest version of a request
                    # (the last one in its chain), as a rebuild would.
                    request = (entry.client, entry.client_seq)
                    done = index.get(request)
                    if done is None or done < entry.prov:
                        index[request] = entry.prov
        if added:
            if self._log_len + len(added) >= _COMPACT_EVERY:
                self._persist()
            else:
                for record in added:
                    self._persist_entry(record)
        if self._audits():
            self._record_state()

    def merge_app_states(self, offers: list[AppStateOffer]) -> Any:
        """Partition repair: provenance-union every donor's chains.

        Offers from retired incarnations of a site are dropped first —
        their surviving writes are also carried by whichever donor
        cluster merged them, and the retired copy must not shadow the
        newer incarnation's chains.
        """
        live = newest_incarnations(offers)
        merged: dict[Any, tuple[VersionEntry, ...]] = {}
        keys = {key for offer in live for key in offer.state}
        for key in keys:
            merged[key] = merge_chains(
                offer.state.get(key, ()) for offer in live
            )
        return merged

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _reindex(self) -> None:
        self._client_index = {
            (e.client, e.client_seq): e.prov
            for chain in self.chains.values()
            for e in chain
            if e.client
        }

    def _persist_entry(self, record: tuple[Any, VersionEntry]) -> None:
        """O(1) durability for one applied or adopted write: append its
        ``(key, entry)`` record to the op log.

        Rewriting (and snapshotting) the whole chain set on every put is
        O(total state) work on the serving path; on realnet that stalls
        the shared event loop long enough to trip the failure detector
        under load.  Instead each apply, and each version an adoption
        adds, appends its record — a tuple, so stable storage shares it
        without a copy unless its value is mutable; an apply's record is
        the one :func:`put_records` built for its message, the same
        object at every replica of the process — and the base is
        rewritten only once the log holds ``_COMPACT_EVERY`` records (an
        adoption that would take it there rewrites the base instead of
        appending).
        """
        if self.stack is None:
            return
        self.stack.storage.append(_LOG_KEY, record)
        self._log_len += 1
        if self._log_len >= _COMPACT_EVERY:
            self._persist()

    def _persist(self) -> None:
        """Full-base write: persist every chain and reset the op log."""
        if self.stack is not None:
            self.stack.storage.write(_CHAINS_KEY, tuple(self.chains.items()))
            self.stack.storage.write(_LOG_KEY, [])
            self._log_len = 0

    def _audits(self) -> bool:
        """Would an audit event be recorded?  Asked before building one:
        a ``store_state`` inventory lists every provenance held."""
        stack = self.stack
        return (
            self.audit_trace
            and stack is not None
            and stack.recorder.wants(AppEvent)
        )

    def _record_state(self) -> None:
        """Every chain held, flat: ``provs`` lists the chains of ``keys``
        one after another, in chain order, ``lens`` says where each ends.
        The provenances are the chain entries' own objects, not copies.
        Keys go by ``repr``: adoption adds new keys in the decided
        state's order, which comes from a set of keys
        (:meth:`merge_app_states`), so the dict's order is not the same
        from one interpreter to the next."""
        chains = self.chains
        keys = sorted(chains, key=repr)
        self._record(
            "store_state",
            {
                "keys": tuple(keys),
                "lens": tuple(len(chains[key]) for key in keys),
                "provs": tuple(e.prov for key in keys for e in chains[key]),
            },
        )

    def _record(self, tag: str, data: Any) -> None:
        stack = self.stack
        if stack is not None:
            stack.recorder.record(
                AppEvent(time=stack.now, pid=stack.pid, tag=tag, data=data)
            )
