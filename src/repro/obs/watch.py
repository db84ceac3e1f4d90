"""Live metrics console: poll snapshots from running realnet nodes.

``repro obs watch`` dials each node's normal listening socket as a side
connection (docs/protocol.md §7) and makes one ``obs`` round trip: the
request names what it wants — ``"snapshot"`` for the node's
:class:`~repro.obs.snapshot.MetricsSnapshot`, ``"trace"`` for its
flight recorder as a :class:`~repro.obs.tracing.TraceDump` (``repro obs
trace``) — and the reply carries it.  Nodes without tracing simply
don't answer a trace pull, and the client times out and reports the
node as traceless.

A node whose socket is down (or dies mid-read, or accepts and never
answers the hello) is *skipped* for the poll, never fatal:
:func:`fetch_snapshots` yields ``None`` for it and reports the skip
through ``on_skip``, which :func:`watch` counts in its
``watch_nodes_skipped_total`` gauge — the loop keeps polling and picks
the node back up when it returns.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Sequence

from repro.errors import CodecError
from repro.obs.snapshot import MetricsSnapshot, merge_snapshots
from repro.obs.tracing import TraceDump
from repro.realnet.transport import CONN_LOST, SideConn

__all__ = [
    "fetch_snapshot",
    "fetch_snapshots",
    "fetch_trace",
    "fetch_traces",
    "render_watch",
    "watch",
]

_REQUEST_TIMEOUT = 5.0


# -- the polling client ----------------------------------------------------


async def _fetch_obs(
    host: str, port: int, what: str, expect: type, timeout: float
) -> Any:
    """One obs round trip for ``what``, an ``expect``."""

    async def _go() -> Any:
        conn = await SideConn.open(host, port)
        try:
            await conn.send("obs", what)
            return await conn.recv("obs")
        finally:
            await conn.close()

    value = await asyncio.wait_for(_go(), timeout=timeout)
    if not isinstance(value, expect):
        raise CodecError(f"obs {what} reply carried {type(value).__name__}")
    return value


async def fetch_snapshot(
    host: str,
    port: int,
    *,
    timeout: float = _REQUEST_TIMEOUT,
) -> MetricsSnapshot:
    """Dial one node, request and return its snapshot."""
    return await _fetch_obs(host, port, "snapshot", MetricsSnapshot, timeout)


async def fetch_trace(
    host: str,
    port: int,
    *,
    timeout: float = _REQUEST_TIMEOUT,
) -> TraceDump:
    """Pull one node's flight recorder (a TraceDump).

    Times out (the node never answers) when the node has no tracer.
    """
    return await _fetch_obs(host, port, "trace", TraceDump, timeout)


async def fetch_snapshots(
    targets: Sequence[tuple[str, int]],
    *,
    timeout: float = _REQUEST_TIMEOUT,
    on_skip: Callable[[], None] | None = None,
) -> list[MetricsSnapshot | None]:
    """Poll every target concurrently; unreachable nodes yield None.

    ``on_skip`` is called once per node skipped this round (socket
    down, died mid-read, garbled reply, timeout) — the watch loop's
    skip gauge hangs off it.
    """

    async def _one(host: str, port: int) -> MetricsSnapshot | None:
        try:
            return await fetch_snapshot(host, port, timeout=timeout)
        except CONN_LOST:
            if on_skip is not None:
                on_skip()
            return None

    return list(
        await asyncio.gather(*(_one(host, port) for host, port in targets))
    )


async def fetch_traces(
    targets: Sequence[tuple[str, int]],
    *,
    timeout: float = _REQUEST_TIMEOUT,
) -> list[Any]:
    """Pull every target's flight recorder; traceless nodes yield None."""

    async def _one(host: str, port: int) -> Any:
        try:
            return await fetch_trace(host, port, timeout=timeout)
        except CONN_LOST:
            return None

    return list(
        await asyncio.gather(*(_one(host, port) for host, port in targets))
    )


# -- console rendering -----------------------------------------------------

_WATCH_COLUMNS = (
    ("views", "view_changes_total"),
    ("eviews", "eview_changes_total"),
    ("mcast", "multicasts_total"),
    ("deliv", "deliveries_total"),
    ("settled", "settlement_sessions_total"),
    ("crashes", "crashes_total"),
)


def render_watch(
    targets: Sequence[tuple[str, int]],
    snapshots: Sequence[MetricsSnapshot | None],
) -> str:
    """One poll's console frame: a row per node plus a merged total row."""
    header = ["node".ljust(22)] + [name.rjust(8) for name, _ in _WATCH_COLUMNS]
    lines = ["".join(header)]
    # A snapshot's source names its *registry*.  Co-located nodes
    # (in-process RealCluster) share one registry and all answer with
    # source="cluster"; dedupe by source so the merged row only sums
    # genuinely distinct registries (multi-process deployments).
    alive: list[MetricsSnapshot] = []
    seen: set[str] = set()
    for s in snapshots:
        if s is not None and s.source not in seen:
            seen.add(s.source)
            alive.append(s)
    for (host, port), snap in zip(targets, snapshots):
        label = f"{host}:{port}".ljust(22)
        if snap is None:
            lines.append(label + "unreachable".rjust(8))
            continue
        cells = [
            format(int(snap.total(metric)), "d").rjust(8)
            for _, metric in _WATCH_COLUMNS
        ]
        lines.append(label + "".join(cells))
    if len(alive) > 1:
        merged = merge_snapshots(*alive)
        cells = [
            format(int(merged.total(metric)), "d").rjust(8)
            for _, metric in _WATCH_COLUMNS
        ]
        lines.append("(merged)".ljust(22) + "".join(cells))
    return "\n".join(lines)


def watch(
    targets: Sequence[tuple[str, int]],
    *,
    interval: float = 2.0,
    count: int = 0,
    out: Callable[[str], None] = print,
    registry: Any = None,
) -> int:
    """Poll ``targets`` every ``interval`` seconds, ``count`` times
    (0 = until interrupted).  Returns 0 if the final poll reached at
    least one node.

    Down nodes are skipped for the round, never fatal; cumulative skips
    are exported as the ``watch_nodes_skipped_total`` gauge on
    ``registry`` (one is created if not supplied) and shown per frame.
    """
    if registry is None:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry(clock=time.time, runtime="watch")
    skips = [0]

    def on_skip() -> None:
        skips[0] += 1

    registry.gauge_callback(
        "watch_nodes_skipped_total",
        "Node polls skipped because the node's socket was down",
        lambda: float(skips[0]),
    )
    polls = 0
    any_alive = False
    try:
        while True:
            snapshots = asyncio.run(
                fetch_snapshots(targets, on_skip=on_skip)
            )
            any_alive = any(s is not None for s in snapshots)
            stamp = time.strftime("%H:%M:%S")
            out(f"-- {stamp} --")
            out(render_watch(targets, snapshots))
            if skips[0]:
                out(f"(skipped node polls so far: {skips[0]})")
            polls += 1
            if count and polls >= count:
                break
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0 if any_alive else 1
