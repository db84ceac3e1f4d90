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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ApplicationError
from repro.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover
    from repro.vsync.stack import GroupStack

TransferId = tuple[ProcessId, int]


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
    """Joiner side: collects chunks, acks each, reports completion.

    The final chunk completes the transfer *before* it is acknowledged:
    whatever ``on_complete`` sends (installing state may drive
    settlement) leaves ahead of the ack that releases the donor.

    A donor that dies mid-transfer never sends the rest, so its partial
    transfer would be held forever: :meth:`on_view` drops the transfers
    of donors outside the view just installed, and counts them.
    """

    def __init__(
        self,
        stack: "GroupStack",
        on_complete: Callable[[list[Any]], None],
    ) -> None:
        self.stack = stack
        self.on_complete = on_complete
        self._collected: dict[TransferId, dict[int, Any]] = {}
        #: Transfers finished so far (a count: nothing per transfer is kept).
        self.completed = 0
        #: Partial transfers dropped because their donor left the view.
        self.dropped = 0

    def on_chunk(self, src: ProcessId, chunk: TChunk) -> None:
        store = self._collected.setdefault(chunk.transfer, {})
        store[chunk.index] = chunk.payload
        if chunk.last and len(store) == chunk.index + 1:
            self.completed += 1
            payloads = [store[i] for i in range(len(store))]
            del self._collected[chunk.transfer]
            self.on_complete(payloads)
        self.stack.send_direct(src, TAck(chunk.transfer, chunk.index))

    def on_view(self, members: frozenset[ProcessId]) -> None:
        """A view was installed: drop the partial transfers of donors
        that are not among its ``members``."""
        gone = [t for t in self._collected if t[0] not in members]
        for transfer in gone:
            del self._collected[transfer]
        self.dropped += len(gone)


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


def split_state(state: dict, small_keys: set, chunk_size: int) -> tuple[dict, list[dict]]:
    """Partition a dict state into (small piece, large chunks)."""
    small = {k: v for k, v in state.items() if k in small_keys}
    rest = sorted((k, v) for k, v in state.items() if k not in small_keys)
    chunks: list[dict] = []
    for start in range(0, len(rest), max(1, chunk_size)):
        chunks.append(dict(rest[start:start + max(1, chunk_size)]))
    return small, chunks or [{}]
