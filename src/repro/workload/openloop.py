"""Open-loop load generation against the client service tier.

Unlike the closed-loop drivers in :mod:`repro.workload.clients` (which
issue the next operation only after the previous tick), an open-loop
generator *offers* load on a fixed schedule — operation ``k`` is due at
``t0 + k/rate`` whether or not earlier operations completed — which is
the only honest way to measure latency under load: a slow server
cannot slow the arrival process down and flatter its own tail.

The generator drives the store exclusively through the client tier:

* **realnet** — a pool of real TCP connections
  (:class:`~repro.client.client.AsyncStoreClient`), all pipelining on
  the driver's event loop, so thousands of concurrent in-flight
  operations cost one task each, not one thread each;
* **sim** — the in-process port (:class:`~repro.client.sim.
  SimStoreClient`) with the whole send grid pre-armed on the virtual
  scheduler.

Key choice comes from a pluggable distribution sized for million-user
keyspaces: :class:`UniformKeys` or the YCSB-style :class:`ZipfianKeys`
(constant-time sampling after a one-off zeta precomputation, hot keys
scattered over the keyspace by a multiplicative scramble).

Every completion lands in the cluster's metrics registry —
``client_ops_total{op,status}`` and the ``client_op_latency{op}``
histogram — and :func:`slo_verdict` turns those histograms into
per-operation p50/p99 and a pass/fail against a latency target: the
verdict :func:`~repro.workload.runner.run_client_load` returns.

Rates and durations are in **backend time** (wall seconds on realnet,
virtual units on the simulator), like every other duration handed to
:meth:`~repro.ports.ClusterPort.run_for`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.obs.report import quantile

__all__ = [
    "UniformKeys",
    "ZipfianKeys",
    "make_key_dist",
    "LoadSpec",
    "LoadReport",
    "LoadTarget",
    "SloVerdict",
    "OpenLoopLoad",
    "slo_verdict",
]


# -- key distributions -----------------------------------------------------

#: zeta(n, theta) is an O(n) sum; memoised so a fleet of generators over
#: the same keyspace pays for it once.
_ZETA_CACHE: dict[tuple[int, float], float] = {}


def _zeta(n: int, theta: float) -> float:
    key = (n, theta)
    cached = _ZETA_CACHE.get(key)
    if cached is None:
        cached = _ZETA_CACHE[key] = sum(1.0 / i**theta for i in range(1, n + 1))
    return cached


class UniformKeys:
    """Keys drawn uniformly from ``user0 .. user{n_keys-1}``."""

    def __init__(self, n_keys: int, seed: int = 0, prefix: str = "user") -> None:
        if n_keys < 1:
            raise ValueError("need at least one key")
        self.n_keys = n_keys
        self.prefix = prefix
        self._rng = random.Random(seed)

    def sample(self) -> str:
        return f"{self.prefix}{self._rng.randrange(self.n_keys)}"


class ZipfianKeys:
    """YCSB-style zipfian keys: few hot keys, a long cold tail.

    Sampling is O(1) per draw (Gray et al.'s quick zipf); rank ``r`` is
    scrambled across the keyspace with a multiplicative hash so the hot
    set is not the lexicographically-first keys.
    """

    def __init__(
        self,
        n_keys: int,
        theta: float = 0.99,
        seed: int = 0,
        prefix: str = "user",
    ) -> None:
        if n_keys < 1:
            raise ValueError("need at least one key")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.n_keys = n_keys
        self.theta = theta
        self.prefix = prefix
        self._rng = random.Random(seed)
        self._zetan = _zeta(n_keys, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / n_keys) ** (1.0 - theta)) / (
            1.0 - _zeta(2, theta) / self._zetan
        )

    def _rank(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        return int(self.n_keys * (self._eta * u - self._eta + 1.0) ** self._alpha)

    def sample(self) -> str:
        rank = min(self._rank(), self.n_keys - 1)
        return f"{self.prefix}{(rank * 2654435761) % self.n_keys}"


def make_key_dist(name: str, n_keys: int, seed: int = 0) -> Any:
    """Resolve a distribution by CLI name: ``uniform`` or ``zipfian``."""
    if name == "uniform":
        return UniformKeys(n_keys, seed=seed)
    if name == "zipfian":
        return ZipfianKeys(n_keys, seed=seed)
    raise ValueError(f"unknown key distribution {name!r}")


# -- load specification ----------------------------------------------------


@dataclass
class LoadSpec:
    """One open-loop load shape.

    ``rate``/``duration`` are backend time (ops per wall second and
    wall seconds on realnet; per virtual unit and virtual units on the
    simulator).  ``read_fraction`` of operations are gets,
    ``history_fraction`` history reads, the rest puts.
    """

    rate: float = 200.0
    duration: float = 10.0
    clients: int = 8
    n_keys: int = 1_000_000
    key_dist: str = "zipfian"
    read_fraction: float = 0.9
    history_fraction: float = 0.0
    read_mode: str = "any"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.duration <= 0 or self.clients < 1:
            raise ValueError("rate, duration and clients must be positive")
        if self.read_fraction + self.history_fraction > 1.0:
            raise ValueError("read + history fractions exceed 1")

    @property
    def total_ops(self) -> int:
        return max(1, int(self.rate * self.duration))


@dataclass
class SloVerdict:
    """Did the run meet its latency target?"""

    target_p99: float
    p50: float
    p99: float
    count: int
    met: bool
    per_op: dict[str, dict[str, float]] = field(default_factory=dict)


@dataclass
class LoadReport:
    """What an open-loop run offered, finished and measured.

    ``duration`` is the offer window and ``achieved_rate`` the
    completions inside it per unit of it, so a straggler that finishes
    long after the window (an attempt lost with its replica ends only at
    the reply timeout) does not sink the rate.  ``drain`` is how long
    past the window the last completion came (0 if none did).
    """

    offered: int
    completed: int
    ok: int
    late: int
    by_status: dict[str, int]
    duration: float
    achieved_rate: float
    drain: float

    @property
    def ok_fraction(self) -> float:
        return self.ok / self.offered if self.offered else 0.0


# -- standalone targets ----------------------------------------------------


class LoadTarget:
    """An *external* realnet cluster as a load-generation target.

    ``repro load`` points the open-loop generator at servers it did not
    boot — ``repro serve`` in another terminal, or one ``repro realnet
    node`` per machine.  This adapter carries exactly what
    :class:`OpenLoopLoad` and :func:`slo_verdict` need from a cluster
    port — an address book, a metrics registry on a wall clock, and an
    event-loop thread to pipeline the connections on — with no cluster
    lifecycle behind it.  All times are wall seconds.
    """

    runtime = "realnet"

    def __init__(self, address_book: dict[int, tuple[str, int]]) -> None:
        import time

        from repro.obs.registry import MetricsRegistry
        from repro.realnet.driver import LoopThread

        if not address_book:
            raise ValueError("need at least one target address")
        self.address_book = dict(address_book)
        self._clock = time.monotonic
        self._t0 = self._clock()
        self.metrics = MetricsRegistry(
            clock=lambda: self.now, runtime="realnet"
        )
        self.loop = LoopThread("load-target").start()

    @property
    def now(self) -> float:
        return self._clock() - self._t0

    def metrics_snapshot(self, source: str = "load") -> Any:
        return self.metrics.snapshot(source=source)

    def close(self) -> None:
        self.loop.close()

    def __enter__(self) -> "LoadTarget":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# -- SLO verdicts from the registry ----------------------------------------


def slo_verdict(
    cluster: Any,
    target_p99: float,
    metric: str = "client_op_latency",
) -> SloVerdict:
    """p50/p99 from the cluster registry's latency histogram vs a target.

    Quantiles are upper-bound estimates from the histogram's log-scale
    buckets — the same numbers ``repro obs report`` prints — so the SLO
    verdict and the observability surface can never disagree.
    """
    snapshot = cluster.metrics_snapshot()
    per_op: dict[str, dict[str, float]] = {}
    merged_count = 0
    worst_p50 = 0.0
    worst_p99 = 0.0
    for sample in snapshot.samples:
        if sample.name != metric or sample.kind != "histogram":
            continue
        op = sample.label_dict().get("op", "")
        p50 = quantile(sample, 0.50)
        p99 = quantile(sample, 0.99)
        per_op[op] = {"count": float(sample.count), "p50": p50, "p99": p99}
        merged_count += sample.count
        worst_p50 = max(worst_p50, p50)
        worst_p99 = max(worst_p99, p99)
    return SloVerdict(
        target_p99=target_p99,
        p50=worst_p50,
        p99=worst_p99,
        count=merged_count,
        met=merged_count > 0 and worst_p99 <= target_p99,
        per_op=per_op,
    )


# -- the generator ---------------------------------------------------------


class OpenLoopLoad:
    """Offer ``spec`` against ``cluster`` through the client tier."""

    def __init__(self, cluster: Any, spec: LoadSpec) -> None:
        self.cluster = cluster
        self.spec = spec
        self._rng = random.Random(spec.seed)
        self._dist = make_key_dist(spec.key_dist, spec.n_keys, seed=spec.seed)
        registry = cluster.metrics
        self._ops = registry.counter(
            "client_ops_total",
            "Open-loop client operations completed, by op and reply status.",
            ("op", "status"),
        )
        self._latency = registry.histogram(
            "client_op_latency",
            "Client-observed operation latency (submit to final reply, "
            "backend time), by op.",
            ("op",),
        )
        self._late = registry.counter(
            "client_ops_late_total",
            "Open-loop send slots that fired behind schedule.",
        )
        self.by_status: dict[str, int] = {}
        self.completed = 0
        self.ok = 0
        self.late = 0
        # Completions inside the offer window, and when the last one
        # came (both on the cluster clock, set when run() opens the window).
        self.in_window = 0
        self._window_end = 0.0
        self._last_done = 0.0

    # -- op selection --------------------------------------------------

    def _pick(self, k: int) -> tuple[str, str, Any]:
        u = self._rng.random()
        key = self._dist.sample()
        if u < self.spec.read_fraction:
            return "get", key, None
        if u < self.spec.read_fraction + self.spec.history_fraction:
            return "history", key, None
        return "put", key, k

    def _count(self, op: str, status: str, latency: float) -> None:
        self.completed += 1
        now = self.cluster.now
        if now <= self._window_end:
            self.in_window += 1
        self._last_done = max(self._last_done, now)
        self.by_status[status] = self.by_status.get(status, 0) + 1
        if status == "ok" or status == "missing":
            self.ok += 1
        self._ops.labels(op, status).inc()
        self._latency.labels(op).observe(latency)

    def run(self) -> LoadReport:
        """Offer the whole grid, wait for stragglers, report."""
        window = self.spec.duration
        self._window_end = self._last_done = self.cluster.now + window
        if getattr(self.cluster, "runtime", "sim") == "sim":
            self._run_sim()
        else:
            self._run_realnet()
        return LoadReport(
            offered=self.spec.total_ops,
            completed=self.completed,
            ok=self.ok,
            late=self.late,
            by_status=dict(sorted(self.by_status.items())),
            duration=window,
            achieved_rate=self.in_window / max(window, 1e-9),
            drain=self._last_done - self._window_end,
        )

    # -- simulator -----------------------------------------------------

    def _run_sim(self) -> None:
        from repro.client import core
        from repro.client.sim import SimStoreClient

        spec = self.spec
        sites = sorted(s.pid.site for s in self.cluster.live_stacks()) or [0]
        clients = [
            SimStoreClient(
                self.cluster,
                site=sites[i % len(sites)],
                client_id=f"load{i}",
                read_mode=spec.read_mode,
            )
            for i in range(spec.clients)
        ]
        pending: list[Any] = []

        def fire(k: int) -> None:
            op, key, val = self._pick(k)
            client = clients[k % len(clients)]
            issued = self.cluster.now

            def done(p: Any, _issued: float = issued, _op: str = op) -> None:
                self._count(_op, p.reply.status, self.cluster.now - _issued)

            pending.append(client.submit(op, key, val, on_done=done))

        for k in range(spec.total_ops):
            self.cluster.after(k / spec.rate, fire, k)
        self.cluster.run_for(spec.duration)
        # Drain stragglers: retries may still be in flight, and an
        # attempt lost with its replica ends only at its reply timeout.
        deadline = self.cluster.now + spec.duration + (
            core.REPLY_TIMEOUT + core.RETRY_DELAY
        ) * self.cluster.time_scale
        while self.cluster.now < deadline and any(
            not p.done for p in pending
        ):
            self.cluster.run_for(10.0)

    # -- realnet -------------------------------------------------------

    def _run_realnet(self) -> None:
        import asyncio

        from repro.client.client import AsyncStoreClient

        driver = self.cluster
        spec = self.spec
        book = dict(driver.address_book)
        sites = sorted(book)

        async def go() -> None:
            loop = asyncio.get_event_loop()
            clients = [
                AsyncStoreClient(
                    addresses=book,
                    site=sites[i % len(sites)],
                    client_id=f"load{i}",
                    read_mode=spec.read_mode,
                )
                for i in range(spec.clients)
            ]
            await asyncio.gather(
                *(c.connect() for c in clients), return_exceptions=True
            )
            inflight: set[asyncio.Task] = set()

            async def one(k: int) -> None:
                op, key, val = self._pick(k)
                client = clients[k % len(clients)]
                issued = loop.time()
                try:
                    reply = await client.call(op, key, val)
                    status = reply.status
                except Exception:
                    status = "error"
                self._count(op, status, loop.time() - issued)

            t0 = loop.time()
            # The window opens once the clients are connected.
            self._window_end = self._last_done = driver.now + spec.duration
            for k in range(spec.total_ops):
                due = t0 + k / spec.rate
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                elif delay < -1.0 / spec.rate:
                    self.late += 1
                    self._late.labels().inc()
                task = asyncio.ensure_future(one(k))
                inflight.add(task)
                task.add_done_callback(inflight.discard)
            if inflight:
                await asyncio.wait(inflight, timeout=spec.duration + 30.0)
            for task in set(inflight):
                task.cancel()
            await asyncio.gather(*inflight, return_exceptions=True)
            await asyncio.gather(
                *(c.close() for c in clients), return_exceptions=True
            )

        driver.loop.submit(go(), timeout=spec.duration * 3 + 120.0)
