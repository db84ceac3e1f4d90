"""E8 — Section 5's state-transfer discussion.

    "if the application involved very large amounts of data ... the
    strategy of blocking view installations while state transfer is in
    progress might be infeasible.  In such a situation, it will be
    desirable to split the state into two parts: a (small) piece that
    needs to be transferred in synchrony with the join event; another
    (large) piece that can be transferred concurrently with application
    activity in the new view."

We sweep the application state size (in transfer chunks) and measure,
for a join into an established group:

* **blocking (Isis tool)**: how long the pending view is withheld —
  this is unavailability for the *whole group* and must grow linearly
  with the state size;
* **two-piece**: how long until the view could install (one small-piece
  round trip — constant), and separately how long until the joiner is
  fully current (linear, but off the critical path).
"""

from __future__ import annotations

from typing import Any

from repro.core.state_transfer import TAck, TChunk, TSmallPiece, TwoPieceTransfer
from repro.isis import isis_stack_config
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.workload import Table

SIZES = [1, 10, 40, 100, 200]


def blocking_join_latency(size: int) -> float:
    """Average time the Isis tool blocks a joining view change."""
    config = ClusterConfig(
        seed=size, stack=isis_stack_config(blocking_transfer=True, size_of=lambda app: size)
    )
    cluster = Cluster(3, config=config)
    cluster.run_for(1200 + 6 * size)
    agreement = cluster.stack_at(0).membership
    tool = agreement.transfer_tool
    assert tool is not None and tool.transfers_completed >= 2, (
        tool.transfers_started,
        tool.transfers_completed,
    )
    return tool.blocked_time / tool.transfers_completed


def two_piece_latencies(size: int) -> tuple[float, float]:
    """(time to small piece, time to full sync) for a two-piece
    transfer between two established processes."""
    cluster = Cluster(2, config=ClusterConfig(seed=size))
    assert cluster.settle(timeout=500)
    donor, joiner = cluster.stack_at(0), cluster.stack_at(1)
    marks: dict[str, float] = {}

    from repro.core.state_transfer import ChunkReceiver

    receiver = ChunkReceiver(
        joiner, on_complete=lambda _: marks.setdefault("full", cluster.now)
    )

    def joiner_direct(src, payload):
        if isinstance(payload, TSmallPiece):
            marks.setdefault("small", cluster.now)
        elif isinstance(payload, TChunk):
            receiver.on_chunk(src, payload)

    transfer = TwoPieceTransfer(
        donor, joiner.pid, small={"meta": True}, large_chunks=[0] * size
    )
    donor.app.on_direct = lambda src, p: (
        transfer.sender.on_ack(p) if isinstance(p, TAck) else None
    )
    joiner.app.on_direct = joiner_direct
    start = cluster.now
    transfer.start()
    cluster.run_for(50 + 4 * size)
    return marks["small"] - start, marks["full"] - start


def run_experiment() -> list[dict[str, Any]]:
    rows = []
    for size in SIZES:
        blocking = blocking_join_latency(size)
        small, full = two_piece_latencies(size)
        rows.append(
            {
                "size": size,
                "blocking_install": blocking,
                "two_piece_install": small,
                "two_piece_full": full,
            }
        )
    return rows


def test_e8_blocking_vs_two_piece_transfer(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table(
        "E8 / Section 5 — state-transfer discipline vs state size (chunks)",
        [
            "state size",
            "blocking: view withheld",
            "two-piece: view-ready after",
            "two-piece: fully current after",
        ],
    )
    for row in rows:
        table.add(
            row["size"],
            row["blocking_install"],
            row["two_piece_install"],
            row["two_piece_full"],
        )
    table.show()

    first, last = rows[0], rows[-1]
    # Blocking unavailability grows with state size (roughly linearly).
    assert last["blocking_install"] > 20 * first["blocking_install"] * 0.5
    # The two-piece view-ready latency is flat: one message, any size.
    assert last["two_piece_install"] <= first["two_piece_install"] * 1.5 + 1.0
    # But the full catch-up is linear for both disciplines: the
    # two-piece trick moves it off the critical path, it does not
    # make the bytes cheaper.
    assert last["two_piece_full"] > 20 * max(1.0, first["two_piece_full"]) * 0.5
    # Crossover: for tiny state, blocking is fine; for large state the
    # blocked window dwarfs the two-piece install latency.
    assert last["blocking_install"] > 10 * last["two_piece_install"]
