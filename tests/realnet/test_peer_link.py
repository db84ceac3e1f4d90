"""One :class:`PeerLink` against a real loopback :class:`FrameServer`.

The link flushes at the end of the loop turn that filled its queue, so
the interesting assertions are structural — how many writes a turn's
offers became, whether a timer was armed — never wall-clock thresholds.
Waiting for bytes to cross the socket uses a polled predicate under a
hard timeout.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.realnet.codec_bin import BIN_FORMAT, ParsedMsg
from repro.realnet.transport import (
    FrameServer,
    OutMessage,
    PeerLink,
    wait_for_condition,
)

pytestmark = pytest.mark.realnet

HARD_TIMEOUT = 60.0
WAIT = 20.0


def run(coro) -> None:
    asyncio.run(asyncio.wait_for(coro, HARD_TIMEOUT))


class Sink(FrameServer):
    """A frame server that keeps what it receives, in arrival order, and
    can stop reading its connections (a peer that is not keeping up)."""

    def __init__(self) -> None:
        super().__init__("127.0.0.1", 0, self._keep)
        self.frames: list[tuple[int, object]] = []  # (src incarnation, payload)

    def _keep(self, msg: ParsedMsg) -> None:
        self.frames.append((msg.src_inc, msg.payload()))

    @property
    def payloads(self) -> list[object]:
        return [payload for _, payload in self.frames]

    def pause_reading(self) -> None:
        # The server's accepted transports, as each connection recorded
        # its own in connection_made.
        for transport in self._transports:
            transport.pause_reading()

    def resume_reading(self) -> None:
        for transport in self._transports:
            transport.resume_reading()


def message(payload: object) -> OutMessage:
    return OutMessage(None, BIN_FORMAT.encode_payload(payload))


async def connected_link(address: list, **kwargs) -> PeerLink:
    """A started link (dialling ``address[0]``) whose handshake is done."""
    link = PeerLink("0->1", (0, 0), 1, lambda: address[0], **kwargs)
    link.start()
    assert await wait_for_condition(lambda: link.connected, WAIT)
    return link


@pytest.mark.parametrize("k", [1, 8])
def test_one_turns_offers_leave_as_one_write_when_the_turn_ends(k):
    # k=1 is the case the flush timer used to tax: with it, a lone
    # message was still unsent one turn after the offer.
    async def scenario():
        sink = Sink()
        link = await connected_link([await sink.start()])
        try:
            for i in range(k):
                assert link.offer(message(("m", i)))
            assert link.flushes == 0  # same turn: nothing written yet
            await asyncio.sleep(0)  # the turn ends; the flush callback runs
            assert (link.flushes, link.max_batch, link.frames_sent) == (1, k, k)
            assert link.stats()["queued"] == 0
            assert await wait_for_condition(lambda: len(sink.frames) == k, WAIT)
            assert sink.payloads == [("m", i) for i in range(k)]
        finally:
            await link.stop()
            await sink.stop()

    run(scenario())


def test_a_lone_offer_on_an_idle_link_arms_no_timer():
    async def scenario():
        sink = Sink()
        link = await connected_link([await sink.start()])
        loop = asyncio.get_running_loop()
        timers: list[str] = []

        def counting(name):
            original = getattr(loop, name)

            def wrapper(*args, **kwargs):
                timers.append(name)
                return original(*args, **kwargs)

            return wrapper

        try:
            loop.call_later = counting("call_later")
            loop.call_at = counting("call_at")
            try:
                assert link.offer(message("lone"))
                await asyncio.sleep(0)
                written = link.frames_sent
            finally:
                del loop.call_later, loop.call_at
            assert written == 1
            assert timers == []
            assert await wait_for_condition(lambda: sink.payloads == ["lone"], WAIT)
        finally:
            await link.stop()
            await sink.stop()

    run(scenario())


def test_a_peer_that_stops_reading_costs_bounded_memory_and_counted_drops():
    cap = 8
    blob = "x" * (64 * 1024)

    async def scenario():
        sink = Sink()
        link = await connected_link([await sink.start()], queue_cap=cap)
        try:
            sink.pause_reading()
            accepted: list[int] = []
            refused = 0
            # Keep offering (yielding so flushes run) until the kernel
            # buffers and the transport's are full and the queue backs
            # up to its cap.  Bounded: that is a few MB on loopback.
            for i in range(20_000):
                if link.offer(message((i, blob))):
                    accepted.append(i)
                else:
                    refused += 1
                    if refused == 5:
                        break
                assert link.stats()["queued"] <= cap
                await asyncio.sleep(0)
            stats = link.stats()
            assert refused == 5 and stats["frames_dropped"] == 5
            assert stats["queued"] == cap
            assert stats["write_stalls"] >= 1
            assert len(sink.frames) < len(accepted)

            sink.resume_reading()
            assert await wait_for_condition(
                lambda: len(sink.frames) == len(accepted), WAIT
            )
            # Everything accepted arrived, in offer order; only the
            # refused offers are missing.
            assert [payload[0] for payload in sink.payloads] == accepted
            stats = link.stats()
            assert (stats["queued"], stats["frames_sent"]) == (0, len(accepted))
            assert stats["connects"] == 1
        finally:
            await link.stop()
            await sink.stop()

    run(scenario())


def test_messages_offered_while_the_peer_is_down_arrive_in_order_on_its_new_port():
    async def scenario():
        first = Sink()
        address = [await first.start()]
        link = await connected_link(address)
        second = Sink()
        try:
            assert link.offer(message("before"))
            assert await wait_for_condition(lambda: first.payloads == ["before"], WAIT)
            await first.stop()
            # The link notices the loss by itself, without an offer.
            assert await wait_for_condition(lambda: not link.connected, WAIT)
            for i in range(5):
                assert link.offer(message(("down", i)))
            assert link.stats()["queued"] == 5
            address[0] = await second.start()  # recovered on a fresh port
            assert await wait_for_condition(lambda: len(second.frames) == 5, WAIT)
            assert second.payloads == [("down", i) for i in range(5)]
            stats = link.stats()
            assert (stats["connects"], stats["queued"], stats["frames_dropped"]) == (2, 0, 0)
        finally:
            await link.stop()
            await first.stop()
            await second.stop()

    run(scenario())


def test_rebind_src_stamps_the_next_flush():
    async def scenario():
        sink = Sink()
        link = await connected_link([await sink.start()])
        try:
            assert link.offer(message("old"))
            await asyncio.sleep(0)
            # The source is read when the turn's flush runs, so a
            # message offered just before the rebind carries it too.
            assert link.offer(message("same turn"))
            link.rebind_src((0, 3))
            assert link.offer(message("new"))
            assert await wait_for_condition(lambda: len(sink.frames) == 3, WAIT)
            assert sink.frames == [(0, "old"), (3, "same turn"), (3, "new")]
        finally:
            await link.stop()
            await sink.stop()

    run(scenario())


def test_a_flush_left_over_after_stop_is_a_no_op():
    async def scenario():
        sink = Sink()
        link = await connected_link([await sink.start()])
        try:
            await link.stop()
            assert link.offer(message("late"))  # queues; there is no link to flush to
            link._flush()  # what a callback scheduled before stop() would do
            await asyncio.sleep(0.05)
            stats = link.stats()
            assert (stats["frames_sent"], stats["flushes"], stats["queued"]) == (0, 0, 1)
            assert sink.frames == []
        finally:
            await sink.stop()

    run(scenario())
