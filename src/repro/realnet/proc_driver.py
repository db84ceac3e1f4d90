"""Process-per-site cluster adapter: one OS process (and core) per site.

:class:`ProcCluster` is the multi-core sibling of
:class:`~repro.realnet.cluster.RealCluster`: the same asyncio adapter
surface (wrapped by the same blocking
:class:`~repro.realnet.driver.RealClusterDriver`), but instead of
co-locating every node on one event loop it spawns one ``repro realnet
node --supervised`` child per site, so an n-node cluster escapes the GIL
and uses n cores.  Each child receives the serialisable part of the
:class:`~repro.runtime.core.ClusterConfig` as one JSON argument, and all
steering goes over its normal listening socket via the control protocol
in :mod:`repro.realnet.procnode`:

* **lifecycle** — ``boot`` / ``crash`` / ``recover`` ops; ``join``
  spawns a fresh process and teaches the others its address;
* **connectivity** — the adapter's :class:`_MirrorTopology` broadcasts
  every mutation (partition / heal / isolate / one-way cuts) to all
  children, so an armed :class:`~repro.net.faults.FaultSchedule`
  written in scenario units applies across process boundaries
  unchanged;
* **observability** — ``gather_trace`` pulls every child's recorders as
  JSON-lines and shifts event times by the child<->parent wall-epoch
  difference onto one comparable time base before merging;
  ``metrics_snapshot`` polls each child's ``obs`` frame kind (the
  same service ``repro obs watch`` uses) and merges the per-process
  registries with the parent's own.

A background poller refreshes a per-site status cache (~20 Hz), which
backs the introspection surface: ``stacks`` holds one
:class:`_ProcStackProxy` per site, and the core's settle predicate reads
view id, membership and flush state through them.  Waiting methods
refresh the cache explicitly, so a ``settle()`` that returns True
reflects fresh child state.

Applications are named, not passed: a closure cannot cross an OS
process boundary, so ``config.app`` selects from
:mod:`repro.apps.factories` and ``app_at`` raises — workloads on this
runtime drive the cluster through :class:`~repro.workload.clients.
MulticastClient` (which only touches stacks), exactly what the checked
figure-2 workload needs.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.errors import SimulationError
from repro.net.network import NetworkStats
from repro.net.topology import Topology
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import MetricsSnapshot, merge_snapshots
from repro.obs.tracing import FlightRecorder, TraceDump
from repro.realnet.cluster import WallClockCluster
from repro.realnet.driver import ACTION_TIMEOUT
from repro.realnet.transport import CONN_LOST, SideConn
from repro.realnet.wallclock import WallClockScheduler
from repro.runtime.core import (
    AppFactory,
    ClusterConfig,
    sum_network_stats,
    sum_transport_stats,
)
from repro.trace.export import event_from_json
from repro.trace.recorder import TraceRecorder
from repro.types import ProcessId, SiteId


class _CtlClient:
    """One side connection to a supervised child, on the driver loop.

    Requests are serialized by a lock (the reply stream is FIFO per
    connection); a dropped connection is re-dialed once per request.  A
    round trip that times out or is cancelled closes the connection, so
    the child's late reply cannot be read as the answer to the next
    request: that one dials afresh.
    """

    def __init__(self, name: str, host: str, port: int, codec: str) -> None:
        self.name = name
        self._host = host
        self._port = port
        self._codec = codec
        self._lock = asyncio.Lock()
        self._conn: SideConn | None = None

    async def connect(self) -> None:
        self._conn = await SideConn.open(self._host, self._port, self._codec)

    async def aclose(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            await conn.close()

    async def _exchange(self, kind: str, value: Any) -> Any:
        """Send one ``kind`` request and return its reply's value."""
        for attempt in (0, 1):
            try:
                if self._conn is None:
                    await self.connect()
                assert self._conn is not None
                await self._conn.send(kind, value)
                return await self._conn.recv(kind)
            except CONN_LOST:
                await self.aclose()
                if attempt:
                    raise

    async def _round_trip(self, kind: str, value: Any, timeout: float) -> Any:
        async with self._lock:
            try:
                return await asyncio.wait_for(self._exchange(kind, value), timeout)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                await self.aclose()
                raise

    async def request(
        self, op: str, arg: Any = None, timeout: float = ACTION_TIMEOUT
    ) -> Any:
        """One control round trip; a child-side failure raises here."""
        ok, result = await self._round_trip("ctl", (op, arg), timeout)
        if not ok:
            raise SimulationError(
                f"control op {op!r} failed on {self.name}: {result}"
            )
        return result

    async def fetch_metrics(self) -> MetricsSnapshot:
        """One obs snapshot poll over this connection (the frame kind
        ``repro obs watch`` uses), bounded like a control op."""
        return await self._round_trip("obs", "snapshot", ACTION_TIMEOUT)


class _MirrorTopology(Topology):
    """Parent-side topology whose mutations broadcast to every child.

    Fault schedules mutate ``target.topology`` directly (one-way cuts)
    or via the adapter's partition/heal/isolate; either way the change
    must reach the children, so every mutator calls ``_on_change`` (set
    by the adapter once its children are up) after applying locally.
    """

    _on_change: Callable[[], None] | None = None


def _notifying(mutator: Callable[..., None]) -> Callable[..., None]:
    def mutate(self: _MirrorTopology, *args: Any) -> None:
        mutator(self, *args)
        if self._on_change is not None:
            self._on_change()

    return mutate


for _name in ("partition", "heal", "isolate", "add_site", "cut_oneway", "heal_oneway"):
    setattr(_MirrorTopology, _name, _notifying(getattr(Topology, _name)))


class _RemoteView(NamedTuple):
    """What the status cache knows of a child's installed view."""

    view_id: Any
    members: frozenset
    text: str

    def __str__(self) -> str:
        return self.text


class _ProcStackProxy:
    """The slice of a remote stack the harness surface touches.

    Reads come from the adapter's status cache; ``multicast`` ships the
    payload to the child as a control op, fire-and-forget from any
    thread (workload ticks run on the loop thread and must not block it
    on a round trip).
    """

    def __init__(self, cluster: "ProcCluster", site: SiteId) -> None:
        self._cluster = cluster
        self.site = site

    @property
    def _status(self) -> dict[str, Any]:
        return self._cluster._status.get(self.site) or {}

    @property
    def pid(self) -> ProcessId:
        return ProcessId(self.site, self._status.get("inc", 0))

    @property
    def alive(self) -> bool:
        return bool(self._status.get("alive"))

    @property
    def is_flushing(self) -> bool:
        return bool(self._status.get("flushing"))

    @property
    def view(self) -> _RemoteView | None:
        status = self._status
        if status.get("view") is None:
            return None
        return _RemoteView(
            status["view"], frozenset(status["members"]), status["view_str"]
        )

    @property
    def app(self) -> Any:
        raise SimulationError(
            "applications live in child processes on the realnet-proc "
            "runtime; drive them through multicast workloads instead"
        )

    def multicast(self, payload: Any) -> None:
        cluster = self._cluster
        cluster._loop.call_soon_threadsafe(
            cluster._spawn, cluster._ctl_request(self.site, "mcast", payload)
        )


class ProcCluster(WallClockCluster):
    """Asyncio cluster adapter over supervised child processes.

    Introspection that needs a control round trip (``gather_trace``,
    ``network_stats``, ``transport_stats``, ``metrics_snapshot``,
    ``flight_recorders``, ``mcast_many``, ``delivered_total``) is a
    coroutine here; the blocking facade awaits it like any other call.
    """

    runtime = "realnet-proc"
    #: Status-cache refresh period, and the default poll of a wait.
    POLL = 0.05

    def __init__(
        self,
        n_sites: int,
        app_factory: AppFactory | None = None,
        config: ClusterConfig | None = None,
    ) -> None:
        if app_factory is not None:
            raise ValueError(
                "an app_factory closure cannot cross the process boundary on "
                "'realnet-proc'; name the application with ClusterConfig.app"
            )
        super().__init__(n_sites, config, topology=_MirrorTopology(range(n_sites)))
        self._procs: dict[SiteId, subprocess.Popen] = {}
        self._ctl: dict[SiteId, _CtlClient] = {}
        self._status: dict[SiteId, dict[str, Any]] = {}
        self._log_dir: str | None = None
        # The children own the stack metrics (see metrics_snapshot);
        # this registry carries what the parent itself measures, e.g. an
        # open-loop generator's client-side latency histograms.  Same
        # runtime label as the children's so the merge keeps it.
        self.metrics = MetricsRegistry(clock=lambda: self.now, runtime="realnet")

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "ProcCluster":
        if self.scheduler is not None:
            raise SimulationError("cluster already started")
        self.scheduler = WallClockScheduler()
        self._loop = asyncio.get_running_loop()
        self._log_dir = tempfile.mkdtemp(prefix="repro-proc-")
        sites = sorted(self.topology.sites)
        for site in sites:
            self._reserve_address(site)
        for site in sites:
            self._spawn_proc(site)
        await asyncio.gather(*(self._connect_ctl(site) for site in sites))
        await self._ask_all("boot", strict=True)
        await self.refresh()
        self._spawn(self._poll_loop())
        self.topology._on_change = lambda: self._spawn(self._push_topology())
        return self

    def _reserve_address(self, site: SiteId) -> tuple[str, int]:
        """Publish a currently-free port for ``site`` (best effort: the
        child re-binds it a moment later; localhost collisions are rare
        and surface as a failed startup, never silent corruption)."""
        with socket.socket() as sock:
            sock.bind((self.config.host, 0))
            self.address_book[site] = (self.config.host, sock.getsockname()[1])
        return self.address_book[site]

    def _spawn_proc(self, site: SiteId) -> None:
        book = ",".join(
            f"{s}:{host}:{port}"
            for s, (host, port) in sorted(self.address_book.items())
        )
        cmd = [
            sys.executable, "-m", "repro", "realnet", "node",
            "--supervised",
            "--site", str(site),
            "--book", book,
            "--config", self.config.to_json(),
        ]
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parent.parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir if not existing else src_dir + os.pathsep + existing
        )
        assert self._log_dir is not None
        with open(Path(self._log_dir) / f"site{site}.log", "w", encoding="utf-8") as log:
            self._procs[site] = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env
            )

    async def _connect_ctl(self, site: SiteId) -> None:
        host, port = self.address_book[site]
        client = _CtlClient(f"site{site}", host, port, self.config.codec)
        deadline = asyncio.get_running_loop().time() + self.config.startup_timeout
        while True:
            proc = self._procs.get(site)
            if proc is not None and proc.poll() is not None:
                raise SimulationError(
                    f"site {site} process exited with {proc.returncode} during "
                    f"startup (log: {self._log_dir}/site{site}.log)"
                )
            try:
                await client.connect()
                await client.request("ping", timeout=5.0)
                break
            except CONN_LOST:
                await client.aclose()
                if asyncio.get_running_loop().time() >= deadline:
                    raise SimulationError(
                        f"site {site} did not come up within "
                        f"{self.config.startup_timeout}s"
                    ) from None
                await asyncio.sleep(0.1)
        self._ctl[site] = client

    async def stop(self) -> None:
        """Stop polling and ask every child to shut down; the processes
        themselves are reaped by :meth:`close`."""
        await super().stop()
        for client in list(self._ctl.values()):
            try:
                await client.request("shutdown", timeout=5.0)
            except Exception:
                pass
            await client.aclose()

    def close(self) -> None:
        """Terminate (then kill) the children and drop their logs.  Runs
        on the caller's thread, after the loop is gone, so a wedged loop
        cannot leak processes."""
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        deadline = time.time() + 5.0
        for proc in self._procs.values():
            try:
                proc.wait(timeout=max(0.1, deadline - time.time()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
        self._procs.clear()
        if self._log_dir is not None:
            shutil.rmtree(self._log_dir, ignore_errors=True)
            self._log_dir = None

    # -- plumbing ------------------------------------------------------

    async def _ctl_request(self, site: SiteId, op: str, arg: Any = None) -> Any:
        client = self._ctl.get(site)
        if client is None:
            raise SimulationError(f"no control connection to site {site}")
        return await client.request(op, arg)

    async def _ask_all(
        self,
        op: str,
        arg: Any = None,
        strict: bool = False,
        timeout: float = ACTION_TIMEOUT,
    ) -> dict[SiteId, Any]:
        """One control op on every child: site -> reply, in site order.
        A child that fails to answer is left out — or, with ``strict``,
        fails the call."""
        sites = sorted(self._ctl)
        results = await asyncio.gather(
            *(self._ctl[site].request(op, arg, timeout) for site in sites),
            return_exceptions=not strict,
        )
        return {
            site: result
            for site, result in zip(sites, results)
            if not isinstance(result, BaseException)
        }

    async def refresh(self) -> None:
        """Re-read every child's status into the cache (a child that
        does not answer keeps its stale entry; the next poll retries)."""
        self._status.update(await self._ask_all("status", timeout=5.0))

    async def _poll_loop(self) -> None:
        while True:
            await asyncio.sleep(self.POLL)
            await self.refresh()

    async def _push_topology(self) -> None:
        components = tuple(
            tuple(sorted(group)) for group in self.topology.components()
        )
        oneway = tuple(sorted(self.topology._oneway_cuts))
        sites = tuple(sorted(self.topology.sites))
        await self._ask_all("topology", (components, oneway, sites))

    # -- lifecycle / environment actions -------------------------------

    def crash(self, site: SiteId) -> "asyncio.Task[bool]":
        """Kill the stack at ``site``; the task is the child's
        acknowledgement (the blocking driver waits for it)."""
        status = self._status.get(site)
        if status is not None:
            status["alive"] = False
        return self._spawn(self._ctl_request(site, "crash"))

    def recover(self, site: SiteId) -> "asyncio.Task[_ProcStackProxy]":
        """Boot a fresh incarnation in the child at ``site``; the task
        resolves to its stack proxy once the status cache shows it."""
        if self._status.get(site, {}).get("alive"):
            raise SimulationError(f"site {site} is up; cannot recover")
        return self._spawn(self._boot(site))

    async def _boot(self, site: SiteId) -> _ProcStackProxy:
        await self._ctl_request(site, "boot")
        await self.refresh()
        return _ProcStackProxy(self, site)

    def join(self, site: SiteId) -> "asyncio.Task[_ProcStackProxy]":
        self.topology.add_site(site)  # broadcasts the grown universe
        return self._spawn(self._join(site))

    async def _join(self, site: SiteId) -> _ProcStackProxy:
        await self._ask_all("add_site", (site, *self._reserve_address(site)))
        self._spawn_proc(site)
        await self._connect_ctl(site)
        await self._push_topology()
        return await self._boot(site)

    # -- introspection -------------------------------------------------

    @property
    def stacks(self) -> dict[SiteId, _ProcStackProxy]:
        return {site: _ProcStackProxy(self, site) for site in sorted(self._status)}

    async def mcast_many(self, site: SiteId, count: int, payload: Any) -> int:
        """Bulk multicast injection at one site (bench workloads).

        Returns how many multicasts the child's stack accepted; it stops
        at the first rejection (stack flushing a view change), so the
        caller retries the remainder.
        """
        return await self._ctl_request(site, "mcast_many", (count, payload))

    async def delivered_total(self) -> int:
        """Cluster-wide app deliveries (control-polled; bench barrier).
        Read from the children's registries, so it needs
        ``config.metrics``."""
        counts = await self._ask_all("counts")
        return sum(delivered for _mcast, delivered in counts.values())

    async def flight_recorders(self) -> list[FlightRecorder]:
        """Pull each child's flight-recorder ring and rehydrate locally.

        Children own the live recorders; the ``flight`` control op ships
        their rings as :class:`~repro.obs.tracing.TraceDump` values (the
        dataclass is codec-registered), which rebuild into local
        recorders so :func:`~repro.obs.tracing.dump_on_violations`
        works uniformly across backends.  Empty when tracing is off.
        """
        if not self.config.tracing:
            return []
        return [
            FlightRecorder.from_dump(dump)
            for dump in (await self._ask_all("flight")).values()
            if isinstance(dump, TraceDump)
        ]

    async def gather_trace(self) -> TraceRecorder:
        """Pull every child's recorders and merge on one time base.

        Child event times are local to each child's scheduler; the wall
        epoch each child reports places its t=0 on the shared wall
        clock, and shifting by the epoch difference re-expresses every
        event in the *parent's* scheduler time before the merge sort.
        """
        dumps = await self._ask_all("trace", strict=True)
        parent_epoch = time.time() - self.now
        recorders: list[TraceRecorder] = []
        for child_epoch, recs in dumps.values():
            shift = child_epoch - parent_epoch
            for label, lines in recs:
                recorder = TraceRecorder(level="full", label=label)
                for line in lines:
                    event = event_from_json(line)
                    recorder.record(
                        dataclasses.replace(event, time=event.time + shift)
                    )
                recorders.append(recorder)
        return TraceRecorder.merge(*recorders)

    async def network_stats(self) -> NetworkStats:
        replies = await self._ask_all("net_stats")
        return sum_network_stats(
            (NetworkStats(**reply["net"]) for reply in replies.values()),
            self.config.detailed_stats,
        )

    async def transport_stats(self) -> dict[str, Any]:
        replies = await self._ask_all("net_stats")
        return sum_transport_stats(r["transport"] for r in replies.values())

    async def metrics_snapshot(self, source: str = "cluster") -> MetricsSnapshot:
        """The parent's own registry (what it measures itself, e.g. an
        open-loop generator's ``client_op_latency``) merged with every
        child's (one registry per OS process, polled over the ``obs``
        frame kind; a child that does not answer is left out)."""

        async def one(client: _CtlClient) -> MetricsSnapshot | None:
            try:
                return await asyncio.wait_for(client.fetch_metrics(), 10.0)
            except Exception:
                return None

        snaps = await asyncio.gather(*(one(c) for c in self._ctl.values()))
        return merge_snapshots(
            self.metrics.snapshot(source), *(s for s in snaps if s is not None)
        )
