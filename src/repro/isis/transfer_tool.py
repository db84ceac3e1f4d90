"""The Isis state-transfer tool (Section 5).

"Isis ... provides a state transfer tool that permits a process joining
the group to bring itself up-to-date automatically ... a state transfer
is performed *before* installing a new view that includes the joining
process", guaranteeing every view member is up to date, at the cost of
"additional synchrony between the application and the external
environment" — the view is blocked for the whole transfer.

The tool runs at the coordinator deciding a view that admits a joiner:
it snapshots the local application state (the coordinator is by
construction up to date in the primary), streams it to the joiner as
``size`` chunks (one chunk per round trip, so blocking time grows
linearly in the state size — experiment E8) through
:class:`~repro.core.state_transfer.ChunkSender` /
:class:`~repro.core.state_transfer.ChunkReceiver`, installs the state at
the joiner, and only then releases the deferred view installation.

Works with any application; with a :class:`~repro.core.group_object.
GroupObject` it moves real state and marks the joiner fresh, so the
joiner enters the view ready to reconcile immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.settlement import StateAdopt
from repro.core.state_transfer import ChunkReceiver, ChunkSender, TAck, TChunk
from repro.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover
    from repro.vsync.stack import GroupStack


@dataclass(frozen=True)
class _IsisState:
    """Final chunk payload carrying the snapshot envelope."""

    envelope: Any


class BlockingTransferTool:
    """Coordinator-side blocking transfer, one instance per stack.

    ``size_of`` maps the application to its transferable state size in
    chunks; the default asks the application for ``transfer_size()`` if
    it has one, else uses a single chunk.
    """

    def __init__(
        self,
        stack: "GroupStack",
        size_of: Callable[[Any], int] | None = None,
    ) -> None:
        self.stack = stack
        self.size_of = size_of
        self._senders: dict = {}
        self._receiver = ChunkReceiver(stack, self._install_state)
        self.transfers_started = 0
        self.transfers_completed = 0
        self.blocked_time = 0.0
        stack.app_transfer_hook = self  # for the receiving side

    # -- donor side ----------------------------------------------------------

    def run(self, joiner: ProcessId, on_done: Callable[[], None]) -> int:
        """Stream our state to ``joiner``; call ``on_done`` when it has
        acknowledged everything (the deferred view may then install).
        Returns the number of chunks the transfer will take."""
        self.transfers_started += 1
        started = self.stack.now
        app = self.stack.app
        size = self._state_size(app)
        envelope = self._snapshot_envelope(app)
        chunks: list[Any] = [None] * max(0, size - 1) + [_IsisState(envelope)]

        def finished() -> None:
            self.transfers_completed += 1
            self.blocked_time += self.stack.now - started
            on_done()

        sender = ChunkSender(self.stack, joiner, chunks, finished)
        self._senders[sender.transfer_id] = sender
        sender.start()
        return len(chunks)

    def _state_size(self, app: Any) -> int:
        if self.size_of is not None:
            return max(1, self.size_of(app))
        if hasattr(app, "transfer_size"):
            return max(1, app.transfer_size())
        return 1

    @staticmethod
    def _snapshot_envelope(app: Any) -> Any:
        envelope = getattr(app, "state_envelope", None)
        return envelope() if envelope is not None else None

    # -- message handling (both sides) -------------------------------------------

    def on_view(self, members: frozenset[ProcessId]) -> None:
        """A view was installed here: a transfer still arriving from a
        donor outside it will never finish."""
        self._receiver.on_view(members)

    def on_direct(self, src: ProcessId, payload: Any) -> bool:
        """Intercept transfer traffic; returns True when consumed."""
        if isinstance(payload, TChunk):
            self._receiver.on_chunk(src, payload)
            return True
        if isinstance(payload, TAck):
            sender = self._senders.get(payload.transfer)
            if sender is not None:
                sender.on_ack(payload)
                if sender.done:
                    del self._senders[payload.transfer]
            return True
        return False

    def _install_state(self, payloads: list[Any]) -> None:
        last = payloads[-1]
        app = self.stack.app
        if (
            isinstance(last, _IsisState)
            and last.envelope is not None
            and hasattr(app, "_on_adopt")
        ):
            app._on_adopt(StateAdopt((self.stack.pid, 0), last.envelope))
