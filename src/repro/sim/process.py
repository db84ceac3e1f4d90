"""Actor-style process base class.

A :class:`Process` is a purely event-driven entity: it reacts to network
deliveries (:meth:`Process.on_network`) and to its own timers.  Crashing
a process cancels every pending timer and silences it permanently — per
the paper's model a recovery is a *new* process with a fresh identifier,
so a crashed ``Process`` instance is never reused.

A process is backend-agnostic: it holds whatever
:class:`~repro.ports.SchedulerPort` and :class:`~repro.ports.NetworkPort`
it was wired to, so the same subclass runs unmodified inside the
discrete-event simulator and on the asyncio real-network runtime
(:mod:`repro.realnet`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.errors import SimulationError
from repro.ports import CancellableEvent, NetworkPort, SchedulerPort
from repro.sim.stable_storage import SiteStorage
from repro.types import ProcessId


class Timer:
    """A cancellable (optionally periodic) timer owned by a process."""

    def __init__(
        self,
        process: "Process",
        interval: float,
        callback: Callable[[], None],
        periodic: bool,
    ) -> None:
        self._process = process
        self._interval = interval
        self._callback = callback
        self._periodic = periodic
        self._event: CancellableEvent | None = None
        self.active = True
        self._arm()

    def _arm(self) -> None:
        self._event = self._process.scheduler.after(self._interval, self._fire)

    def _fire(self) -> None:
        if not self.active or not self._process.alive:
            return
        if self._periodic:
            self._arm()
        else:
            self.active = False
        self._callback()

    def cancel(self) -> None:
        self.active = False
        if self._event is not None:
            self._event.cancel()
            self._event = None


class Process:
    """Base class for every protocol entity living at a site.

    Subclasses implement :meth:`on_network` and may override
    :meth:`on_start` (called when the process is attached to the network)
    and :meth:`on_crash` (called when the process is killed).
    """

    def __init__(self, pid: ProcessId, scheduler: SchedulerPort, storage: SiteStorage) -> None:
        self.pid = pid
        self.scheduler = scheduler
        self.storage = storage
        self.alive = True
        self.network: NetworkPort | None = None
        self._timers: list[Timer] = []
        #: True while a runtime is handing this process one batch of
        #: input (on the wall clock: the frames of one socket read).  The
        #: simulator never opens a batch.
        self.input_batch = False
        self._at_batch_end: list[Callable[[], None]] = []

    @property
    def now(self) -> float:
        return self.scheduler.now

    # -- wiring -----------------------------------------------------------

    def attach(self, network: NetworkPort) -> None:
        """Called by the network when the process is registered."""
        self.network = network
        self.on_start()

    def on_start(self) -> None:
        """Hook: the process has been attached and may arm timers."""

    # -- communication ----------------------------------------------------

    def send(self, dst: ProcessId, payload: Any) -> None:
        """Send ``payload`` to ``dst`` over the simulated network."""
        if self.network is None:
            raise SimulationError(f"{self.pid} is not attached to a network")
        if not self.alive:
            return
        self.network.send(self.pid, dst, payload)

    def send_many(self, dsts: "Iterable[ProcessId]", payload: Any) -> None:
        """Multicast ``payload`` to every destination in one network call.

        Equivalent to ``for dst in dsts: self.send(dst, payload)`` —
        loss/latency are still per-destination — but batched through
        :meth:`Network.multicast` so the fan-out loops of the protocol
        layers stay off the per-send slow path.
        """
        if self.network is None:
            raise SimulationError(f"{self.pid} is not attached to a network")
        if not self.alive:
            return
        self.network.multicast(self.pid, dsts, payload)

    def on_network(self, src: ProcessId, payload: Any) -> None:
        """Hook: a network message from ``src`` has been delivered."""
        raise NotImplementedError

    def deliver_network(self, src: ProcessId, payload: Any) -> None:
        """Entry point used by the real-network runtime; drops input if
        crashed.  The simulated network makes the same liveness check
        per copy of a fan-out and calls :meth:`on_network` directly."""
        if not self.alive:
            return
        self.on_network(src, payload)

    # -- input batches ----------------------------------------------------

    def at_batch_end(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the open input batch ends (callers check
        :attr:`input_batch` first: outside a batch there is no end)."""
        self._at_batch_end.append(callback)

    def end_input_batch(self) -> None:
        """The runtime handed over the whole batch: run what waited for
        its end, in the order it was registered."""
        self.input_batch = False
        if self._at_batch_end:
            callbacks, self._at_batch_end = self._at_batch_end, []
            for callback in callbacks:
                callback()

    # -- timers -----------------------------------------------------------

    def set_timer(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Arm a one-shot timer; it is silenced automatically on crash."""
        timer = Timer(self, delay, callback, periodic=False)
        self._timers.append(timer)
        self._prune_timers()
        return timer

    def set_periodic(self, interval: float, callback: Callable[[], None]) -> Timer:
        """Arm a periodic timer firing every ``interval`` units."""
        timer = Timer(self, interval, callback, periodic=True)
        self._timers.append(timer)
        self._prune_timers()
        return timer

    def _prune_timers(self) -> None:
        if len(self._timers) > 64:
            self._timers = [t for t in self._timers if t.active]

    # -- failure ----------------------------------------------------------

    def crash(self) -> None:
        """Kill the process: silence timers and all future deliveries."""
        if not self.alive:
            return
        self.alive = False
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self.on_crash()

    def on_crash(self) -> None:
        """Hook: the process has just been crashed."""

    def __repr__(self) -> str:
        status = "up" if self.alive else "crashed"
        return f"{type(self).__name__}({self.pid}, {status})"
