"""Per-view message bookkeeping.

Tracks, for the current view: what this process multicast, what it
received, and what it delivered.  Normal-path delivery is FIFO per
sender and gated on the sender's e-view sequence number (the mechanism
behind Property 6.2).  At a view change, the membership layer suspends
normal delivery, reports the received set in its flush reply, and later
delivers the coordinator's union before installing — which is where
Agreement (2.1) comes from.

Uniqueness (2.2) is enforced by the view tag: a message is delivered
only while the view it was multicast in is the receiver's current view.
A multicast requested while a flush is in progress is refused and
dropped: the caller gets None, and no member ever delivers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import ViewSynchronyError
from repro.gms.view import View
from repro.trace.events import DeliveryEvent, MulticastEvent
from repro.types import Message, MessageId, ProcessId, SiteId, ViewId

if TYPE_CHECKING:  # pragma: no cover
    from repro.vsync.stack import GroupStack


@dataclass(frozen=True)
class RetransmitRequest:
    """Receiver -> original sender: these seqnos never arrived."""

    view_id: ViewId
    seqnos: tuple[int, ...]


class ViewChannels:
    """Message state of one process for its current view."""

    def __init__(self, stack: "GroupStack") -> None:
        self.stack = stack
        self.view: View | None = None
        self._next_seqno = 0
        self._fifo_next: dict[ProcessId, int] = {}
        self.suspended = False
        self._future: dict[ViewId, list[Message]] = {}
        # The single message buffer (sender -> seqno -> message): the
        # delivery loop probes "sender's next seqno" on every arrival,
        # and an integer dict lookup is far cheaper than keying by full
        # MessageId.  The delivered set is not materialised at all —
        # normal-path and plan delivery are both per-sender contiguous,
        # so "delivered" is exactly ``seqno < _fifo_next[sender]``.
        self._chains: dict[ProcessId, dict[int, Message]] = {}
        self._senders: tuple[ProcessId, ...] = ()
        self._peers: tuple[ProcessId, ...] = ()
        # Garbage collection: per-sender stable prefix (everything at or
        # below it was delivered by every member and has been pruned).
        self._stable: dict[ProcessId, int] = {}
        self._peer_sites: frozenset[SiteId] = frozenset()
        # When our latest multicast left and the e-view count it carried
        # (see covered_sites): one store each per multicast.
        self._mcast_at = float("-inf")
        self._mcast_eview = 0
        # Senders with an arrival the normal path could not deliver (a
        # gap or the e-view gate); chase_held re-examines them.
        self._held: set[ProcessId] = set()

    @property
    def received(self) -> dict[MessageId, Message]:
        """Buffered messages keyed by identifier (diagnostic view).

        Rebuilt on demand: the hot path keys buffers by (sender, seqno)
        only — see ``_chains``."""
        return {
            msg.msg_id: msg
            for chain in self._chains.values()
            for msg in chain.values()
        }

    # -- view lifecycle ------------------------------------------------------

    def install(self, view: View) -> None:
        """Reset per-view state for a freshly installed view.

        Messages of the new view that arrived early stay buffered until
        :meth:`activate` — the e-view structure must be installed first,
        or the delivery gate would consult the old view's sequence.
        """
        self.view = view
        self._next_seqno = 0
        self._fifo_next = {m: 1 for m in view.members}
        self._chains = {}
        self._senders = tuple(sorted(view.members))
        own = self.stack.pid
        self._peers = tuple(m for m in self._senders if m != own)
        self._peer_sites = frozenset(m.site for m in self._peers)
        self.suspended = False
        self._stable = {}
        self._held = set()

    def activate(self) -> None:
        """Feed in the new view's early arrivals (post e-view install)."""
        if self.view is None:
            return
        early = self._future.pop(self.view.view_id, [])
        # Drop buffered messages for views we will now never install.
        self._future = {
            vid: msgs for vid, msgs in self._future.items()
            if vid.epoch > self.view.epoch
        }
        for msg in early:
            self.on_app_message(msg)

    def suspend(self) -> None:
        """Stop normal-path delivery (a flush reply is about to fix our
        received set); arrivals keep accumulating in ``received``."""
        self.suspended = True

    # -- sending ---------------------------------------------------------------

    def multicast(self, payload: Any, trace: Any = None) -> MessageId | None:
        """Multicast ``payload`` in the current view.

        Returns the message identifier, or None if a view change is in
        progress: the send is then dropped, never re-issued in a later
        view, so a refused send stays a definite failure.  ``trace`` is
        the causal parent of the send (e.g. a client put's root span);
        with tracing on the send mints its own span and the context
        rides on the :class:`Message` so receivers can parent their
        delivery spans.
        """
        if self.view is None:
            raise ViewSynchronyError("multicast before the first view")
        if self.suspended:
            return None
        self._next_seqno += 1
        msg_id = MessageId(self.stack.pid, self.view.view_id, self._next_seqno)
        recorder = self.stack.recorder
        if recorder.wants(MulticastEvent):
            recorder.record(
                MulticastEvent(time=self.stack.now, pid=self.stack.pid, msg_id=msg_id)
            )
        obs = self.stack.obs
        send_ctx = None
        if obs is not None:
            send_ctx = obs.multicast_sent(
                self.stack.pid, msg_id, self.stack.now, parent=trace,
                receivers=len(self._peers) + 1,
            )
        msg = Message(
            msg_id, payload, eview_seq=self.stack.evs.applied_seq, trace=send_ctx
        )
        self._mcast_at = self.stack.now
        self._mcast_eview = msg.eview_seq
        self.stack.send_many(self._peers, msg)
        self.on_app_message(msg)  # self-delivery path
        return msg_id

    # -- receiving ----------------------------------------------------------------

    def on_app_message(self, msg: Message) -> None:
        """Accept a message from the network (or from ourselves)."""
        view = self.view
        if view is None:
            return
        mid = msg.msg_id
        vid = mid.view
        my_vid = view.view_id
        # Identity first: in-process delivery shares the installer's
        # ViewId object, so the common case never runs the field compare.
        if vid is not my_vid and vid != my_vid:
            if vid > my_vid:
                # Evidence for the divergence rule, as a beacon naming
                # this view would be.  An older view is evidence of
                # nothing, and under reordering it could overwrite a
                # fresher heard view.
                self.stack.fd.beacon(mid.sender, vid)
            if vid.epoch > view.epoch:
                self._future.setdefault(vid, []).append(msg)
            return  # older view: the message missed its window (2.2)
        sender = mid.sender
        chain = self._chains.get(sender)
        if chain is None:
            chain = self._chains[sender] = {}
        seqno = mid.seqno
        if seqno in chain:
            return  # duplicate (2.3)
        floor = self._stable.get(sender, 0)
        if seqno <= floor:
            return  # already stable (delivered by everyone) and pruned
        chain[seqno] = msg
        # Only this sender's FIFO chain can have become deliverable: a
        # full scan here would re-probe every other sender for nothing.
        # Messages held by the e-view gate are retried from
        # ``on_eview_progress`` / ``activate``, which do the full scan.
        if self.suspended:
            return
        # In-order arrival with nothing buffered beyond it is the
        # overwhelmingly common case (FIFO links deliver a sender's run
        # in seqno order): the chain then holds exactly the contiguous
        # run ``floor+1 .. seqno``, so this one delivery cannot unblock
        # anything and the generic chain walk is pure overhead.
        if (
            seqno == self._fifo_next.get(sender, 1)
            and len(chain) == seqno - floor
            and (
                msg.eview_seq <= self.stack.evs.applied_seq
                or self.stack.config.unsafe_disable_eview_gate
            )
        ):
            self._deliver(msg)
            return
        self._run_sender(sender)
        if seqno >= self._fifo_next.get(sender, 1):
            self._held.add(sender)  # a gap or the e-view gate

    def try_deliver(self) -> None:
        """Deliver everything currently eligible on the normal path.

        Walks every sender's contiguous run (in identifier order,
        matching the old sorted-MessageId delivery order: all buffered
        messages carry the current view, so MessageId order *is*
        (sender, seqno) order).  The outer loop repeats because
        delivering can unblock earlier-ordered messages — the e-view
        gate can open mid-pass via application callbacks.
        """
        if self.suspended or self.view is None:
            return
        vid = self.view.view_id
        progress = True
        while progress:
            progress = False
            for sender in self._senders:
                if self._run_sender(sender):
                    progress = True
                if self.suspended or self.view is None or self.view.view_id != vid:
                    return  # a callback changed the world under us

    def _run_sender(self, sender: ProcessId) -> bool:
        """Deliver ``sender``'s eligible contiguous run; True if any.

        Per-sender FIFO makes the next deliverable message of a sender
        the one at ``_fifo_next[sender]``, so delivery is a probe of the
        sender's chain by integer sequence number — no backlog sorting,
        no MessageId construction.
        """
        chain = self._chains.get(sender)
        if not chain:
            return False
        view = self.view
        assert view is not None
        gate_enabled = not self.stack.config.unsafe_disable_eview_gate
        # Snapshot the gate: if a callback applies an e-view change mid
        # loop, on_eview_progress retries the full scan anyway.
        applied_seq = self.stack.evs.applied_seq
        fifo_next = self._fifo_next
        chain_get = chain.get
        progress = False
        while True:
            msg = chain_get(fifo_next.get(sender, 1))
            if msg is None:
                return progress
            if gate_enabled and msg.eview_seq > applied_seq:
                return progress  # e-view gate (Property 6.2)
            if self.suspended or self.view is not view:
                return progress  # a callback changed the world under us
            self._deliver(msg)
            progress = True

    def _deliver(self, msg: Message) -> None:
        assert self.view is not None
        self._fifo_next[msg.msg_id.sender] = msg.msg_id.seqno + 1
        recorder = self.stack.recorder
        if recorder.wants(DeliveryEvent):
            recorder.record(
                DeliveryEvent(
                    time=self.stack.now,
                    pid=self.stack.pid,
                    msg_id=msg.msg_id,
                    view_id=self.view.view_id,
                    sender_eview_seq=msg.eview_seq,
                )
            )
        obs = self.stack.obs
        if obs is not None:
            obs.message_delivered(
                self.stack.pid, msg.msg_id, self.stack.now, trace=msg.trace
            )
        self.stack.deliver_app_message(msg.msg_id.sender, msg.payload, msg.msg_id)

    # -- flush / install -----------------------------------------------------------

    def flush_report(self) -> tuple[Message, ...]:
        """The received set reported in our flush reply."""
        msgs = [
            msg for chain in self._chains.values() for msg in chain.values()
        ]
        msgs.sort(key=lambda m: m.msg_id)
        return tuple(msgs)

    # -- loss repair within a stable view -----------------------------------

    def own_seqno(self) -> int:
        """Our multicast count in the current view (heartbeat payload)."""
        return self._next_seqno

    def covered_sites(
        self, since: float, view_id: ViewId | None, eview_seq: int
    ) -> frozenset[SiteId]:
        """The peer sites a heartbeat naming ``view_id``, :meth:`own_seqno`
        and ``eview_seq`` would tell nothing new: our latest multicast
        reached them after ``since`` carrying exactly those fields (it is
        the latest of this view, so its seqno is our count)."""
        view = self.view
        if (
            self._next_seqno
            and self._mcast_at > since
            and self._mcast_eview == eview_seq
            and view is not None
            and view.view_id == view_id
        ):
            return self._peer_sites
        return frozenset()

    def note_sender_high(self, sender: ProcessId, high: int) -> None:
        """``sender`` has multicast at least ``high`` messages in this
        view (a heartbeat's count, or the highest seqno we hold); request
        retransmission of the first 64 we are missing below it.  Without
        a view change, a lost copy would otherwise never be repaired."""
        if self.view is None or self.suspended or high <= 0:
            return
        if sender not in self.view.members:
            return
        # Everything below the delivered prefix arrived, and a stable
        # seqno is refused on arrival: the walk starts past both.
        start = max(self._fifo_next.get(sender, 1), self._stable.get(sender, 0) + 1)
        chain = self._chains.get(sender) or {}
        missing: list[int] = []
        for seqno in range(start, high + 1):
            if seqno not in chain:
                missing.append(seqno)
                if len(missing) == 64:
                    break
        if missing:
            self.stack.send(
                sender, RetransmitRequest(self.view.view_id, tuple(missing))
            )

    def chase_held(self) -> None:
        """Repair what no heartbeat advertises while multicasts stand in
        for them; the detector calls this once per ``fd_interval``.

        For each sender whose buffered messages the normal path could not
        deliver: request the seqnos missing below the highest one held,
        and when the next one waits on the e-view gate, ask for the
        e-view changes it names.  A gap that a reordered copy filled in
        before the tick costs nothing.
        """
        held = self._held
        if not held or self.view is None or self.suspended:
            return
        self._held = still = set()
        for sender in sorted(held):
            chain = self._chains.get(sender)
            if not chain:
                continue
            high = max(chain)
            next_seqno = self._fifo_next.get(sender, 1)
            if high < next_seqno:
                continue  # delivered since it was held
            still.add(sender)
            head = chain.get(next_seqno)
            if head is not None:
                self.stack.evs.note_peer_seq(sender, head.eview_seq)
            self.note_sender_high(sender, high)

    def on_retransmit_request(self, src: ProcessId, request: "RetransmitRequest") -> None:
        """Resend our own messages a peer reports missing."""
        if self.view is None or request.view_id != self.view.view_id:
            return
        own_chain = self._chains.get(self.stack.pid) or {}
        for seqno in request.seqnos:
            msg = own_chain.get(seqno)
            if msg is not None:
                self.stack.send(src, msg)

    # -- stability / garbage collection ------------------------------------

    def delivered_view(self, sender: ProcessId) -> ViewId | None:
        """Our current view if ``sender`` has delivered a multicast to us
        in it (so it has installed that view), else None."""
        view = self.view
        if view is not None and self._fifo_next.get(sender, 1) > 1:
            return view.view_id
        return None

    def delivered_prefix(self) -> dict[ProcessId, int]:
        """Per sender, the contiguous prefix of seqnos we delivered."""
        return {
            sender: next_seq - 1
            for sender, next_seq in self._fifo_next.items()
            if next_seq > 1
        }

    def prune(self, stable: dict[ProcessId, int]) -> int:
        """Drop buffered messages every member has delivered.

        Safe because a stable message can never appear in an install
        plan as *missing* at anyone; returns how many were pruned.
        """
        pruned = 0
        for sender, prefix in stable.items():
            current = self._stable.get(sender, 0)
            if prefix > current:
                self._stable[sender] = prefix
        for sender, floor in self._stable.items():
            chain = self._chains.get(sender)
            if not chain:
                continue
            # Never past our own delivered prefix: the group-wide floor
            # must not prune input we are still gated on.
            high = min(floor, self._fifo_next.get(sender, 1) - 1)
            if high <= 0:
                continue
            stale = [seqno for seqno in chain if seqno <= high]
            for seqno in stale:
                del chain[seqno]
            pruned += len(stale)
        return pruned

    def deliver_plan(self, messages: tuple[Message, ...]) -> None:
        """Deliver the coordinator's union before leaving the view.

        Every survivor of the same install executes this with the same
        ``messages``, so their delivered sets in the old view end up
        identical — Agreement (2.1).  FIFO order per sender is respected
        because the union is replayed in message-identifier order and
        the union always contains a sender-prefix of what anyone saw.
        """
        if self.view is None:
            return
        for msg in sorted(messages, key=lambda m: m.msg_id):
            mid = msg.msg_id
            if mid.view != self.view.view_id:
                raise ViewSynchronyError(
                    f"install plan crosses views: {mid} vs {self.view.view_id}"
                )
            sender, seqno = mid.sender, mid.seqno
            if seqno < self._fifo_next.get(sender, 1):
                continue  # already delivered on the normal path
            if seqno <= self._stable.get(sender, 0):
                continue  # stable: we delivered and pruned it already
            chain = self._chains.setdefault(sender, {})
            if seqno not in chain:
                chain[seqno] = msg
            self._deliver(msg)
