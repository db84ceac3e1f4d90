"""The store client's retry contract (``tests/client_contract.py``)
against :class:`AsyncStoreClient` over real loopback sockets: one
``StubNode`` per site, each answering from the row's events."""

from __future__ import annotations

import asyncio

import pytest

from repro.client import core
from repro.client.client import AsyncStoreClient
from repro.runtime.core import SECONDS_PER_UNIT
from tests.client_contract import BACKOFF, CONTRACT, NOW, SITES, answer, check_attempts
from tests.realnet.stub_node import StubNode

pytestmark = pytest.mark.realnet

#: Scenario units, shortened so the give-up rows take seconds, not minutes.
RETRY_DELAY = 10.0  # 0.1 s
REPLY_TIMEOUT = 20.0  # 0.2 s


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_contract_on_the_tcp_adapter(name: str, monkeypatch) -> None:
    monkeypatch.setattr(core, "RETRY_DELAY", RETRY_DELAY)
    monkeypatch.setattr(core, "REPLY_TIMEOUT", REPLY_TIMEOUT)
    row = CONTRACT[name]
    events = list(row.events)
    #: (site, arrival time, request, what the stub answered) per attempt.
    seen: list[tuple] = []

    async def scenario():
        loop = asyncio.get_running_loop()

        def serve(site: int):
            def handle(request):
                replies = answer(request, events)
                seen.append((site, loop.time(), request, replies))
                return replies

            return handle

        nodes = {site: StubNode("scripted", answer=serve(site)) for site in SITES}
        book = {site: await node.start() for site, node in nodes.items()}
        client = AsyncStoreClient(addresses=book, site=0, client_id="c")
        try:
            return await client.put("k", "v")
        finally:
            await client.close()
            for node in nodes.values():
                await node.stop()

    final = asyncio.run(asyncio.wait_for(scenario(), 60.0))
    assert not events
    backoff = RETRY_DELAY * SECONDS_PER_UNIT
    attempts, ended = [], None
    for site, at, request, replies in seen:
        # Wall-clock gaps: at least the backoff, or well under it.
        wait = NOW if ended is None or at - ended < 0.8 * backoff else BACKOFF
        attempts.append((site, wait, request))
        timed_out = replies is not None and all(
            r.req_id != request.req_id for r in replies
        )
        ended = at + (REPLY_TIMEOUT * SECONDS_PER_UNIT if timed_out else 0.0)
    check_attempts(row, attempts, final)
