"""State-transfer machinery (Section 4 / Section 5 discussion).

Two disciplines from the paper:

* **blocking** (Isis-style): the new view is not installed until the
  joiner holds the state.  Simple for the application — everyone in a
  view is always up to date — but the installation latency grows with
  the state size (see :mod:`repro.isis.transfer_tool` and E8).
* **two-piece**: "split the state into two parts: a (small) piece that
  needs to be transferred in synchrony with the join event; another
  (large) piece that can be transferred concurrently with application
  activity in the new view".  The view installs after one round trip;
  the bulk streams in the background over point-to-point messages,
  which need no view synchrony.

Both are built on the chunked transfer protocol here: one chunk per
message, next chunk on acknowledgement, so transferring ``n`` chunks
costs ``n`` round trips of simulated latency — the linear cost that E8
sweeps.

The *incremental* layer below (:class:`IncrementalSender` /
:class:`IncrementalReceiver`, the ``TOffer`` / ``TResume`` messages)
extends the same chunk stream with what settlement at scale needs:

* **version-range diffs** — a donor that recognises the requester's
  ``(version, lineage digest)`` as a prefix of its own history ships
  only the missed operations, not the whole snapshot;
* **fixed-size snapshot chunking** — large snapshots split into
  ``chunk_size``-entry chunks (:func:`snapshot_chunks`) instead of one
  blob message;
* **a resumable cursor** — the receiver persists arrived chunks and the
  next expected index in the site's stable storage, so a crashed
  receiver's next incarnation resumes mid-stream (``TResume``) instead
  of starting over.

Everything here is announcement-first: the donor sends a ``TOffer``
describing the stream and waits for the receiver's ``TResume`` cursor
before the first chunk, so resumption costs one round trip and an empty
diff (receiver already current) costs zero chunks.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ApplicationError
from repro.types import MessageId, ProcessId

if TYPE_CHECKING:  # pragma: no cover
    from repro.vsync.stack import GroupStack

TransferId = tuple[ProcessId, int]


def op_digest(digest: int, msg_id: Any) -> int:
    """Fold one applied operation into a lineage digest.

    XOR of a stable per-operation hash: order independent (adopt-time
    recomputation from the applied set needs no order), incremental (one
    XOR per apply), and *reversible* — a donor can compute what the
    requester's digest should be at an older version by XOR-ing its own
    log tail back out.  Uses crc32 over the repr, not ``hash()``, so the
    value agrees across realnet processes with randomised hash seeds.

    Every replica folds the same identifier in (and adoption folds the
    whole applied set again), so a :class:`~repro.types.MessageId`
    keeps its hash once computed, the way it keeps ``_hash``.
    """
    try:
        return digest ^ msg_id._op_crc
    except AttributeError:
        crc = zlib.crc32(repr(msg_id).encode())
        if type(msg_id) is MessageId:
            object.__setattr__(msg_id, "_op_crc", crc)
        return digest ^ crc


@dataclass(frozen=True)
class TChunk:
    """One chunk of a bulk transfer."""

    transfer: TransferId
    index: int
    payload: Any
    last: bool


@dataclass(frozen=True)
class TAck:
    """Receiver acknowledgement enabling the next chunk."""

    transfer: TransferId
    index: int


@dataclass(frozen=True)
class TSmallPiece:
    """The synchronous (small) half of a two-piece transfer."""

    transfer: TransferId
    payload: Any
    large_chunks: int


class ChunkSender:
    """Donor side: streams chunks to one peer, one per acknowledgement."""

    _counter = 0

    def __init__(
        self,
        stack: "GroupStack",
        peer: ProcessId,
        chunks: list[Any],
        on_done: Callable[[], None] | None = None,
    ) -> None:
        if not chunks:
            raise ApplicationError("transfer needs at least one chunk")
        ChunkSender._counter += 1
        self.transfer_id: TransferId = (stack.pid, ChunkSender._counter)
        self.stack = stack
        self.peer = peer
        self.chunks = chunks
        self.on_done = on_done
        self._next = 0
        self.done = False

    def start(self) -> TransferId:
        obs = self.stack.obs
        if obs is not None:
            obs.transfer_started(self.stack.pid, self.peer, self.stack.now)
        self._send(0)
        return self.transfer_id

    def _send(self, index: int) -> None:
        last = index == len(self.chunks) - 1
        self.stack.send_direct(
            self.peer, TChunk(self.transfer_id, index, self.chunks[index], last)
        )

    def on_ack(self, ack: TAck) -> None:
        if ack.transfer != self.transfer_id or self.done:
            return
        if ack.index == len(self.chunks) - 1:
            self.done = True
            obs = self.stack.obs
            if obs is not None:
                obs.transfer_done(self.stack.pid, self.peer, self.stack.now)
            if self.on_done is not None:
                self.on_done()
            return
        self._send(ack.index + 1)


class ChunkReceiver:
    """Joiner side: collects chunks, acks each, reports completion."""

    def __init__(
        self,
        stack: "GroupStack",
        on_complete: Callable[[list[Any]], None],
    ) -> None:
        self.stack = stack
        self.on_complete = on_complete
        self._collected: dict[TransferId, dict[int, Any]] = {}
        self.completed: list[TransferId] = []

    def on_chunk(self, src: ProcessId, chunk: TChunk) -> None:
        store = self._collected.setdefault(chunk.transfer, {})
        store[chunk.index] = chunk.payload
        self.stack.send_direct(src, TAck(chunk.transfer, chunk.index))
        if chunk.last and len(store) == chunk.index + 1:
            self.completed.append(chunk.transfer)
            payloads = [store[i] for i in range(len(store))]
            del self._collected[chunk.transfer]
            self.on_complete(payloads)


class TwoPieceTransfer:
    """Donor-side driver of the Section 5 two-piece discipline.

    ``small`` goes immediately (the receiver can enter the view after
    this single message); ``large_chunks`` then stream in the background.
    The receiver distinguishes the phases by message type.
    """

    def __init__(
        self,
        stack: "GroupStack",
        peer: ProcessId,
        small: Any,
        large_chunks: list[Any],
        on_done: Callable[[], None] | None = None,
    ) -> None:
        self.stack = stack
        self.peer = peer
        self.small = small
        self.sender = ChunkSender(stack, peer, large_chunks or [None], on_done)

    def start(self) -> TransferId:
        self.stack.send_direct(
            self.peer,
            TSmallPiece(
                self.sender.transfer_id,
                self.small,
                len(self.sender.chunks),
            ),
        )
        return self.sender.start()


# -- incremental transfer (version diffs, chunking, resumable cursor) ------


@dataclass(frozen=True)
class TOffer:
    """Donor → requester: announcement of an incremental stream.

    ``kind`` is ``"diff"`` (chunks carry delta-log entries to replay on
    top of ``base_version``) or ``"snapshot"`` (chunks carry
    :func:`snapshot_chunks` pieces; ``base_version`` is -1).  The
    receiver answers with its :class:`TResume` cursor — 0 for a fresh
    stream, higher when resuming persisted progress, ``total_chunks``
    when it already holds everything (notably the empty diff).
    """

    transfer: TransferId
    session: Any
    kind: str
    total_chunks: int
    base_version: int
    target_version: int
    sender: ProcessId
    last_epoch: int
    #: Causal context the stream runs under (the settlement round's
    #: span when the transfer serves a settlement; tracing only).
    trace: Any = None


@dataclass(frozen=True)
class TResume:
    """Requester → donor: start (or restart) streaming at this index."""

    transfer: TransferId
    next_index: int


class IncrementalSender:
    """Donor side of one announced stream: offer, then ack-paced chunks
    from wherever the receiver's cursor says to start."""

    _counter = 0

    def __init__(
        self,
        stack: "GroupStack",
        peer: ProcessId,
        offer_of: Callable[[TransferId], TOffer],
        chunks: list[Any],
        on_done: Callable[[], None] | None = None,
    ) -> None:
        IncrementalSender._counter += 1
        self.transfer_id: TransferId = (stack.pid, IncrementalSender._counter)
        self.stack = stack
        self.peer = peer
        self.offer = offer_of(self.transfer_id)
        self.chunks = chunks
        self.on_done = on_done
        self.done = False

    def start(self) -> TransferId:
        obs = self.stack.obs
        if obs is not None:
            obs.transfer_started(self.stack.pid, self.peer, self.stack.now)
        self.stack.send_direct(self.peer, self.offer)
        return self.transfer_id

    def on_resume(self, msg: TResume) -> None:
        if msg.transfer != self.transfer_id or self.done:
            return
        if msg.next_index >= len(self.chunks):
            self._finish()
            return
        self._send(msg.next_index)

    def on_ack(self, ack: TAck) -> None:
        if ack.transfer != self.transfer_id or self.done:
            return
        if ack.index >= len(self.chunks) - 1:
            self._finish()
            return
        self._send(ack.index + 1)

    def _send(self, index: int) -> None:
        last = index == len(self.chunks) - 1
        self.stack.send_direct(
            self.peer, TChunk(self.transfer_id, index, self.chunks[index], last)
        )
        obs = self.stack.obs
        if obs is not None:
            obs.transfer_chunk_sent(self.stack.pid, self.offer.kind)

    def _finish(self) -> None:
        self.done = True
        obs = self.stack.obs
        if obs is not None:
            obs.transfer_done(
                self.stack.pid, self.peer, self.stack.now, trace=self.offer.trace
            )
        if self.on_done is not None:
            self.on_done()


@dataclass
class _RxStream:
    """Receiver-side state of one active incoming stream."""

    offer: TOffer
    donor: ProcessId
    chunks: dict[int, Any] = field(default_factory=dict)
    next_index: int = 0


def _partial_key(donor_site: Any) -> str:
    return f"transfer.partial.{donor_site}"


class IncrementalReceiver:
    """Requester side: answers offers with a cursor, persists progress.

    Progress (arrived chunks + next expected index) goes to the site's
    stable storage keyed by donor site, so the next incarnation of a
    crashed requester resumes where this one stopped — provided the
    donor re-offers the *same* stream (same kind and target version);
    any mismatch discards the partial and restarts from chunk 0.
    """

    def __init__(
        self,
        stack: "GroupStack",
        on_complete: Callable[[TOffer, list[Any]], None],
    ) -> None:
        self.stack = stack
        self.on_complete = on_complete
        self._active: dict[TransferId, _RxStream] = {}

    def owns(self, transfer: TransferId) -> bool:
        return transfer in self._active

    def on_offer(self, src: ProcessId, offer: TOffer) -> None:
        stream = _RxStream(offer=offer, donor=src)
        saved = self.stack.storage.read(_partial_key(src.site))
        if (
            isinstance(saved, dict)
            and saved.get("kind") == offer.kind
            and saved.get("target_version") == offer.target_version
            and saved.get("total") == offer.total_chunks
        ):
            stream.chunks = dict(saved["chunks"])
            stream.next_index = saved["next"]
            obs = self.stack.obs
            if obs is not None:
                obs.transfer_resumed(self.stack.pid)
        if stream.next_index >= offer.total_chunks:
            # Nothing left to stream — the empty diff, or a partial that
            # was fully persisted before the crash.  A cursor at the end
            # finishes the donor without a single chunk.
            self.stack.send_direct(src, TResume(offer.transfer, stream.next_index))
            self._finish(stream)
            return
        self._active[offer.transfer] = stream
        self.stack.send_direct(src, TResume(offer.transfer, stream.next_index))

    def on_chunk(self, src: ProcessId, chunk: TChunk) -> None:
        stream = self._active.get(chunk.transfer)
        if stream is None:
            return
        stream.chunks[chunk.index] = chunk.payload
        stream.next_index = max(stream.next_index, chunk.index + 1)
        self.stack.storage.write(
            _partial_key(stream.donor.site),
            {
                "kind": stream.offer.kind,
                "target_version": stream.offer.target_version,
                "total": stream.offer.total_chunks,
                "next": stream.next_index,
                "chunks": dict(stream.chunks),
            },
        )
        self.stack.send_direct(src, TAck(chunk.transfer, chunk.index))
        if stream.next_index >= stream.offer.total_chunks:
            # The ack of the last chunk finishes the donor side.
            del self._active[chunk.transfer]
            self._finish(stream)

    def _finish(self, stream: _RxStream) -> None:
        self.stack.storage.write(_partial_key(stream.donor.site), None)
        payloads = [stream.chunks[i] for i in range(stream.offer.total_chunks)]
        self.on_complete(stream.offer, payloads)


def snapshot_chunks(snapshot: Any, chunk_size: int) -> list[Any]:
    """Split a ``(state, applied-ops, version)`` settlement envelope into
    fixed-size chunks.

    Dict states large enough split item-wise alongside the applied-op
    identifiers; anything else rides whole as chunk 0.  Inverse:
    :func:`assemble_snapshot`.
    """
    state, applied, _version = snapshot
    size = max(1, chunk_size)
    chunks: list[Any] = []
    if isinstance(state, dict) and len(state) > size:
        items = sorted(state.items(), key=lambda kv: repr(kv[0]))
        for start in range(0, len(items), size):
            chunks.append(("state_part", tuple(items[start:start + size])))
    else:
        chunks.append(("state", state))
    ops = sorted(applied)
    for start in range(0, len(ops), size):
        chunks.append(("ops", tuple(ops[start:start + size])))
    return chunks


def assemble_snapshot(payloads: list[Any], version: int) -> Any:
    """Rebuild the settlement envelope from :func:`snapshot_chunks`."""
    state: Any = None
    parts: dict = {}
    split_state_seen = False
    ops: set = set()
    for tag, payload in payloads:
        if tag == "state":
            state = payload
        elif tag == "state_part":
            split_state_seen = True
            parts.update(dict(payload))
        elif tag == "ops":
            ops.update(payload)
    if split_state_seen:
        state = parts
    return (state, frozenset(ops), version)


def split_state(state: dict, small_keys: set, chunk_size: int) -> tuple[dict, list[dict]]:
    """Partition a dict state into (small piece, large chunks)."""
    small = {k: v for k, v in state.items() if k in small_keys}
    rest = sorted((k, v) for k, v in state.items() if k not in small_keys)
    chunks: list[dict] = []
    for start in range(0, len(rest), max(1, chunk_size)):
        chunks.append(dict(rest[start:start + max(1, chunk_size)]))
    return small, chunks or [{}]
