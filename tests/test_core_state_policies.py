"""Tests for state transfer chunks and creation choice."""

from __future__ import annotations

import pytest

from repro.core.settlement import StateOffer
from repro.core.state_creation import (
    choose_by_last_to_fail,
    creation_is_safe,
    last_to_fail_order,
)
from repro.core.state_transfer import (
    ChunkReceiver,
    ChunkSender,
    TAck,
    TChunk,
    TwoPieceTransfer,
    split_state,
)
from repro.errors import ApplicationError
from repro.types import ProcessId

from tests.conftest import settled_cluster


def raw_offer(site: int, version: int, last_epoch: int) -> StateOffer:
    return StateOffer(
        session=(ProcessId(0), 1),
        sender=ProcessId(site),
        snapshot=f"state-{site}",
        version=version,
        last_epoch=last_epoch,
    )


# ---------------------------------------------------------------------------
# State creation (last process to fail)
# ---------------------------------------------------------------------------


def test_last_to_fail_prefers_highest_epoch():
    offers = [raw_offer(0, version=9, last_epoch=3), raw_offer(1, 1, 7)]
    assert choose_by_last_to_fail(offers).sender.site == 1


def test_last_to_fail_ties_break_on_version_then_pid():
    offers = [raw_offer(0, 1, 5), raw_offer(1, 2, 5)]
    assert choose_by_last_to_fail(offers).sender.site == 1
    offers = [raw_offer(0, 2, 5), raw_offer(1, 2, 5)]
    assert choose_by_last_to_fail(offers).sender.site == 1  # larger pid


def test_last_to_fail_order_is_best_first():
    offers = [raw_offer(0, 1, 1), raw_offer(1, 1, 9), raw_offer(2, 5, 4)]
    ordered = last_to_fail_order(offers)
    assert [o.sender.site for o in ordered] == [1, 2, 0]


def test_creation_requires_candidates():
    with pytest.raises(ApplicationError):
        choose_by_last_to_fail([])


def test_creation_is_safe_wants_every_site():
    offers = [raw_offer(0, 1, 1), raw_offer(1, 1, 1)]
    assert creation_is_safe(offers, expected_sites=2)
    assert not creation_is_safe(offers, expected_sites=3)


# ---------------------------------------------------------------------------
# Chunked transfers (over a live cluster's direct messages)
# ---------------------------------------------------------------------------


def test_chunked_transfer_moves_all_chunks_in_order():
    cluster = settled_cluster(2)
    donor, joiner = cluster.stack_at(0), cluster.stack_at(1)
    received: list = []
    receiver = ChunkReceiver(joiner, on_complete=received.extend)
    done = []
    sender = ChunkSender(donor, joiner.pid, ["a", "b", "c"], lambda: done.append(1))

    donor.app.on_direct = lambda src, p: (
        sender.on_ack(p) if isinstance(p, TAck) else None
    )
    joiner.app.on_direct = lambda src, p: (
        receiver.on_chunk(src, p) if isinstance(p, TChunk) else None
    )
    sender.start()
    cluster.run_for(30)
    assert received == ["a", "b", "c"]
    assert done == [1]
    assert sender.done


def test_receiver_keeps_no_state_per_finished_transfer():
    class _Stack:
        """All a ``ChunkReceiver`` asks of its stack."""

        def send_direct(self, dst, payload):
            acks.append(payload)

    acks: list = []
    done: list = []
    receiver = ChunkReceiver(_Stack(), on_complete=done.append)
    donor = ProcessId(0)
    for k in range(1000):
        for index in range(3):
            receiver.on_chunk(donor, TChunk((donor, k), index, (k, index), index == 2))
    assert receiver.completed == 1000
    assert len(done) == 1000 and len(acks) == 3000
    held = {
        name: value
        for name, value in vars(receiver).items()
        if isinstance(value, (list, dict, set, tuple)) and value
    }
    assert not held


def test_receiver_drops_partial_transfers_of_donors_outside_the_view():
    class _Stack:
        def send_direct(self, dst, payload):
            pass

    receiver = ChunkReceiver(_Stack(), on_complete=lambda _: None)
    dead, live = ProcessId(0), ProcessId(1)
    receiver.on_chunk(dead, TChunk((dead, 1), 0, "a", False))
    receiver.on_chunk(live, TChunk((live, 2), 0, "b", False))
    receiver.on_view(frozenset({live, ProcessId(2)}))
    assert list(receiver._collected) == [(live, 2)]
    assert receiver.dropped == 1
    receiver.on_view(frozenset({live}))
    assert receiver.dropped == 1  # nothing more to drop


def test_transfer_time_grows_linearly_with_chunks():
    durations = {}
    for n_chunks in (2, 8):
        cluster = settled_cluster(2)
        donor, joiner = cluster.stack_at(0), cluster.stack_at(1)
        finished = []
        receiver = ChunkReceiver(joiner, on_complete=lambda _: None)
        sender = ChunkSender(
            donor, joiner.pid, list(range(n_chunks)),
            lambda: finished.append(cluster.now),
        )
        donor.app.on_direct = lambda src, p: (
            sender.on_ack(p) if isinstance(p, TAck) else None
        )
        joiner.app.on_direct = lambda src, p: (
            receiver.on_chunk(src, p) if isinstance(p, TChunk) else None
        )
        start = cluster.now
        sender.start()
        cluster.run_for(100)
        durations[n_chunks] = finished[0] - start
    assert durations[8] > 3 * durations[2] * 0.9  # ~linear in chunk count


def test_two_piece_transfer_small_arrives_first():
    from repro.core.state_transfer import TSmallPiece

    cluster = settled_cluster(2)
    donor, joiner = cluster.stack_at(0), cluster.stack_at(1)
    events = []
    receiver = ChunkReceiver(joiner, on_complete=lambda _: events.append("large"))

    def joiner_direct(src, p):
        if isinstance(p, TSmallPiece):
            events.append("small")
        elif isinstance(p, TChunk):
            receiver.on_chunk(src, p)

    transfer = TwoPieceTransfer(donor, joiner.pid, {"meta": 1}, [1, 2, 3, 4])
    donor.app.on_direct = lambda src, p: (
        transfer.sender.on_ack(p) if isinstance(p, TAck) else None
    )
    joiner.app.on_direct = joiner_direct
    transfer.start()
    cluster.run_for(60)
    assert events[0] == "small"
    assert events[-1] == "large"


def test_split_state():
    state = {"meta": 0, **{f"k{i}": i for i in range(10)}}
    small, chunks = split_state(state, {"meta"}, chunk_size=3)
    assert small == {"meta": 0}
    assert sum(len(c) for c in chunks) == 10
    assert all(len(c) <= 3 for c in chunks)


def test_split_state_empty_large_part():
    small, chunks = split_state({"meta": 1}, {"meta"}, chunk_size=4)
    assert chunks == [{}]


def test_chunk_sender_rejects_empty():
    cluster = settled_cluster(2)
    with pytest.raises(ApplicationError):
        ChunkSender(cluster.stack_at(0), cluster.stack_at(1).pid, [])
