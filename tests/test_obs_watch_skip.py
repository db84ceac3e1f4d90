"""Watch poll loops skip down nodes instead of aborting.

Regression coverage for the ``repro obs watch`` crash: a node dying
mid-read surfaces as :class:`asyncio.IncompleteReadError`, which is an
``EOFError`` — *not* an ``OSError`` — so the old per-node error net
let it abort the whole poll round.  These tests drive the poll helpers
with every skip-class failure and check the loop survives, yields
``None`` for the dead node, and counts skips in the
``watch_nodes_skipped_total`` gauge.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import CodecError
from repro.obs import watch as watch_mod
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import MetricsSnapshot


def _snapshot(source: str) -> MetricsSnapshot:
    return MetricsSnapshot(source=source, runtime="realnet", time=1.0, samples=())


_FAILURES = [
    asyncio.IncompleteReadError(partial=b"\x00", expected=4),  # died mid-read
    ConnectionRefusedError("refused"),  # socket down
    ConnectionResetError("reset"),
    OSError("no route"),
    CodecError("garbled reply"),
    asyncio.TimeoutError(),  # no answer inside the window
]


@pytest.mark.parametrize(
    "failure", _FAILURES, ids=lambda exc: type(exc).__name__
)
def test_one_dead_node_never_aborts_the_round(monkeypatch, failure):
    async def fake_fetch(host, port, *, timeout=5.0):
        if port == 2:
            raise failure
        return _snapshot(f"site{port}")

    monkeypatch.setattr(watch_mod, "fetch_snapshot", fake_fetch)
    skips = []
    snapshots = asyncio.run(
        watch_mod.fetch_snapshots(
            [("h", 1), ("h", 2), ("h", 3)], on_skip=lambda: skips.append(1)
        )
    )
    assert [s is None for s in snapshots] == [False, True, False]
    assert len(skips) == 1


def test_fetch_traces_skips_dead_nodes_too(monkeypatch):
    async def fake_fetch(host, port, *, timeout=5.0):
        raise asyncio.IncompleteReadError(partial=b"x", expected=4)

    monkeypatch.setattr(watch_mod, "fetch_trace", fake_fetch)
    dumps = asyncio.run(watch_mod.fetch_traces([("h", 1), ("h", 2)]))
    assert dumps == [None, None]


def test_watch_loop_counts_skips_in_the_gauge(monkeypatch):
    calls = {"n": 0}

    async def fake_fetch(host, port, *, timeout=5.0):
        calls["n"] += 1
        if port == 2:  # one persistently down node
            raise asyncio.IncompleteReadError(partial=b"", expected=4)
        return _snapshot(f"site{port}")

    monkeypatch.setattr(watch_mod, "fetch_snapshot", fake_fetch)
    registry = MetricsRegistry(clock=lambda: 0.0, runtime="watch")
    frames: list[str] = []
    code = watch_mod.watch(
        [("h", 1), ("h", 2)],
        interval=0.0,
        count=3,
        out=frames.append,
        registry=registry,
    )
    assert code == 0  # the live node kept the watch alive
    assert calls["n"] == 6  # skipped node is retried every round
    snap = registry.snapshot("watch")
    gauge = [s for s in snap.samples if s.name == "watch_nodes_skipped_total"]
    assert gauge and gauge[0].value == 3.0
    assert any("skipped node polls so far: 3" in frame for frame in frames)
    assert any("unreachable" in frame for frame in frames)


def test_watch_returns_nonzero_when_every_node_is_down(monkeypatch):
    async def fake_fetch(host, port, *, timeout=5.0):
        raise ConnectionRefusedError

    monkeypatch.setattr(watch_mod, "fetch_snapshot", fake_fetch)
    registry = MetricsRegistry(clock=lambda: 0.0, runtime="watch")
    code = watch_mod.watch(
        [("h", 1)], interval=0.0, count=1, out=lambda _line: None,
        registry=registry,
    )
    assert code == 1
