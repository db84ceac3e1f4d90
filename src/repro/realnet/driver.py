"""The blocking facade: synchronous code over an event-loop thread.

The simulator's :class:`~repro.runtime.cluster.Cluster` is synchronous —
``settle()`` returns when membership converged, ``recover()`` returns
the fresh stack — while the wall-clock adapters
(:class:`~repro.realnet.cluster.RealCluster`,
:class:`~repro.realnet.proc_driver.ProcCluster`) are asyncio-native:
their waiting methods are coroutines and their lifecycle actions return
tasks.  Two classes erase that skew, once, for both:

:class:`LoopThread`
    An event loop on a dedicated daemon thread plus the only three ways
    onto it: :meth:`~LoopThread.submit` (run a coroutine, block for its
    result, cancel it on timeout), :meth:`~LoopThread.invoke` (call a
    function there — inline when already on the loop) and
    :meth:`~LoopThread.after` (a timer whose ``cancel`` hops threads).
    Also used by :class:`repro.workload.openloop.LoadTarget`.

:class:`RealClusterDriver`
    The blocking :class:`~repro.ports.ClusterPort` over either
    wall-clock adapter, so synchronous harness code (workload clients,
    the CLI, plain tests) drives any runtime through the same port.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import inspect
import threading
import time
from typing import Any, Callable

from repro.errors import SimulationError
from repro.realnet.wallclock import new_event_loop

#: Default hard timeout for individual submitted actions (seconds).
#: Generous — actions are local socket operations; a hang is a bug.
ACTION_TIMEOUT = 30.0
#: Hard timeout for booting a cluster or one joining site (seconds); on
#: realnet-proc it covers spawn + connect + boot, dominated by
#: interpreter startup.
STARTUP_TIMEOUT = 60.0


class LoopTimer:
    """Cancellable-event proxy whose ``cancel`` hops to the loop thread."""

    __slots__ = ("_loop", "_handle")

    def __init__(self, loop: "LoopThread", handle: Any) -> None:
        self._loop = loop
        self._handle = handle

    def cancel(self) -> None:
        self._loop.invoke(self._handle.cancel)


class LoopThread:
    """An asyncio event loop running on its own daemon thread."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "LoopThread":
        if self._loop is not None:
            raise SimulationError(f"{self.name} loop already started")
        self._loop = new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=self.name, daemon=True
        )
        self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return self._loop is not None and not self._loop.is_closed()

    def on_loop(self) -> bool:
        """Is the caller on the loop thread?"""
        return threading.current_thread() is self._thread

    def submit(self, coro: Any, timeout: float | None = None) -> Any:
        """Run ``coro`` on the loop thread and block until its result.

        On ``timeout`` the coroutine is cancelled and
        :class:`~repro.errors.SimulationError` raised.  Refused from the
        loop thread itself: the caller would wait on its own loop.
        """
        if not self.running or self.on_loop():
            coro.close()  # never scheduled: silence "never awaited"
            raise SimulationError(
                "blocking driver call from the loop thread; use the adapter's "
                "async surface instead"
                if self.running
                else f"{self.name} loop is not running"
            )
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise SimulationError(
                f"{self.name} action did not complete within {timeout}s"
            ) from None

    def invoke(
        self, fn: Callable[..., Any], *args: Any, timeout: float = ACTION_TIMEOUT
    ) -> Any:
        """Call ``fn(*args)`` on the loop thread and return its result.

        Inline when already there (fault-schedule actions, workload
        ticks) — an awaitable result is then returned as is, for the
        loop to run.  From any other thread it is a blocking round trip
        that also awaits an awaitable result (a startup task, a
        coroutine method), so the caller gets the finished value.
        """
        if self.on_loop():
            return fn(*args)

        async def call() -> Any:
            result = fn(*args)
            return await result if inspect.isawaitable(result) else result

        return self.submit(call(), timeout)

    def after(
        self, scheduler: Any, delay: float, callback: Callable[..., None], *args: Any
    ) -> LoopTimer:
        """Arm ``callback`` on ``scheduler`` (a loop-bound
        :class:`~repro.ports.SchedulerPort`) from any thread; the
        callback runs on the loop thread and the handle's ``cancel`` is
        safe from any thread."""
        return LoopTimer(self, self.invoke(scheduler.after, delay, callback, *args))

    def close(self) -> None:
        """Stop the loop and join the thread; idempotent."""
        if not self.running:
            return
        assert self._loop is not None and self._thread is not None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=ACTION_TIMEOUT)
        self._loop.close()


class RealClusterDriver:
    """Synchronous :class:`~repro.ports.ClusterPort` over a wall-clock
    adapter running on its own loop thread.

    Wrap an adapter and call :meth:`start`, use the driver as a context
    manager, or get one already started from
    :func:`repro.ports.make_cluster`::

        with RealClusterDriver(RealCluster(3, config=ClusterConfig(seed=7))) as cluster:
            assert cluster.settle(timeout=10.0)
            cluster.partition([[0, 1], [2]])
            ...

    The methods below are the ones that *wait*.  Everything else on the
    port — ``crash`` / ``recover`` / ``partition`` / ``heal`` / ``arm``
    / ``stack_at`` / ``live_stacks`` / ``gather_trace`` /
    ``network_stats`` / ``metrics_snapshot`` / ``transport_stats`` and
    adapter extras such as the proc adapter's ``mcast_many`` — is the
    adapter's own attribute, reached through :meth:`__getattr__`:
    methods run on the loop thread — inline when the caller is already
    there (an armed fault schedule's action, a workload tick), otherwise
    as a blocking round trip, whereby ``recover`` / ``join`` resolve
    their startup task and return the stack, exactly like the simulator
    — and plain attributes (``now``, ``time_scale``, ``metrics``,
    ``address_book``) read through.  A blocking call made *from* the
    loop thread would wait on itself and is refused.

    All times on this surface are **wall seconds**; scenario-unit
    quantities must be multiplied by ``time_scale`` first — ``arm`` and
    the workload drivers do that internally.
    """

    def __init__(self, cluster: Any) -> None:
        self.cluster = cluster
        self.loop = LoopThread(f"{cluster.runtime}-driver")

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_") or name == "cluster":
            raise AttributeError(name)
        attr = getattr(self.cluster, name)
        if callable(attr):
            return functools.partial(self.loop.invoke, attr)
        return attr

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "RealClusterDriver":
        """Spin up the loop thread and boot the cluster; returns
        ``self`` for chaining.  A failed boot closes everything."""
        self.loop.start()
        try:
            self.loop.submit(self.cluster.start(), timeout=STARTUP_TIMEOUT)
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Stop the cluster, the loop and the thread; idempotent.  Also
        runs on context-manager exit, and the thread is a daemon, so a
        crashed test cannot leak a loop."""
        try:
            if self.loop.running:
                self.loop.submit(self.cluster.stop(), timeout=ACTION_TIMEOUT)
        finally:
            self.loop.close()
            self.cluster.close()

    def __enter__(self) -> "RealClusterDriver":
        return self if self.loop.running else self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- waiting -------------------------------------------------------

    def run_for(self, duration: float) -> float:
        """Let ``duration`` wall seconds elapse.

        The loop thread keeps running protocols, armed fault schedules
        and workload timers the whole while; the *caller* simply waits.
        Returns the new ``now``.
        """
        time.sleep(max(0.0, duration))
        return self.cluster.now

    def settle(self, timeout: float = 10.0, poll: float | None = None) -> bool:
        """Block until membership converges (or ``timeout`` wall seconds)."""
        return self.loop.submit(
            self.cluster.settle(timeout=timeout, poll=poll),
            timeout=timeout + ACTION_TIMEOUT,
        )

    def wait_until(
        self,
        predicate: Callable[[Any], Any],
        timeout: float = 10.0,
        poll: float | None = None,
    ) -> bool:
        """Block until ``predicate(driver)`` is truthy.

        The predicate runs on the **calling thread**, after the adapter
        refreshed its introspection state, so it may call any port
        method — including blocking ones (``network_stats``,
        ``settle``, the proc adapter's ``delivered_total``).  The same
        rule on both wall-clock runtimes.
        """
        poll = poll or self.cluster.POLL
        deadline = time.monotonic() + timeout
        while True:
            self.loop.submit(self.cluster.refresh(), timeout=ACTION_TIMEOUT)
            if predicate(self):
                return True
            if time.monotonic() >= deadline:
                return bool(predicate(self))
            time.sleep(poll)

    def after(self, delay: float, callback: Callable[..., None], *args: Any) -> LoopTimer:
        """Arm ``callback`` on the cluster's wall-clock scheduler after
        ``delay`` wall seconds; callable from any thread.  The callback
        runs on the loop thread."""
        return self.loop.after(self.cluster.scheduler, delay, callback, *args)

    def join(self, site: Any) -> Any:
        """Grow the universe by ``site`` and return its stack once up
        (bounded by the startup timeout: on realnet-proc an interpreter
        has to boot)."""
        return self.loop.invoke(self.cluster.join, site, timeout=STARTUP_TIMEOUT)
