"""Open-loop load generator, outside the system under test.

Runs on the benchmark process's own event loop and reaches the cluster
only over TCP, through pipelined
:class:`~repro.client.client.AsyncStoreClient` connections.  Every
operation has a *due* time on a grid fixed before the window opens
(:func:`perfbench.inputs.due_times`); it is sent when the loop reaches
that time whether or not earlier operations completed, and its latency
runs from the due time, so a stall is charged to every operation it
delayed.  How late the generator itself fired is reported next to the
latencies (``gen.late_p99_ms``) so a saturated generator is visible.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.client.client import AsyncStoreClient
from repro.client.protocol import ClientReply, ClientRequest

from perfbench.inputs import Op

#: Seconds to wait, after the last due time, for operations still in
#: flight (a put aborted by a view change retries after 0.2 s).
DRAIN_TIMEOUT = 8.0

#: Statuses that count as served: a read of a never-written key is
#: ``missing``, which is a correct answer.
OK_STATUSES = ("ok", "missing")


class CountingClient(AsyncStoreClient):
    """The stock client, counting attempts so retries per op can be read."""

    attempts = 0

    async def request(self, request: ClientRequest) -> ClientReply:
        self.attempts += 1
        return await super().request(request)


@dataclass
class LoadResult:
    """What one open-loop window offered, and what came back."""

    attempted: int = 0
    #: Latency from due time, seconds, per op kind, served ops only.
    latency: dict[str, list[float]] = field(default_factory=dict)
    #: Fire time minus due time, seconds, one per op.
    lateness: list[float] = field(default_factory=list)
    statuses: dict[str, int] = field(default_factory=dict)
    #: Provenance tokens of acked puts (the server must still hold them).
    tokens: list[tuple] = field(default_factory=list)
    attempts: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def ok(self) -> int:
        return sum(self.statuses.get(s, 0) for s in OK_STATUSES)

    @property
    def failed(self) -> int:
        """Ops refused, errored or never answered."""
        return self.attempted - self.ok

    def ok_of(self, kind: str) -> int:
        return len(self.latency.get(kind, ()))


def client_sites(n_sites: int, connections: int) -> list[int]:
    """Sites the connections dial: site 0 (the least member, i.e. the
    coordinator) and then evenly around the ring (``n // 2`` for two)."""
    return [(i * n_sites) // connections for i in range(connections)]


async def offer_load(
    addresses: dict[int, tuple[str, int]],
    sites: Sequence[int],
    ops: Sequence[Op],
    dues: Sequence[float],
    *,
    read_mode: str = "any",
    client_prefix: str = "gen",
) -> LoadResult:
    """Offer ``ops`` on the ``dues`` grid; return once all are resolved."""
    if len(ops) != len(dues):
        raise ValueError("one due time per op")
    loop = asyncio.get_running_loop()
    clients = [
        CountingClient(
            addresses=addresses,
            site=site,
            client_id=f"{client_prefix}{i}",
            read_mode=read_mode,
        )
        for i, site in enumerate(sites)
    ]
    await asyncio.gather(*(c.connect() for c in clients))
    result = LoadResult(attempted=len(ops))
    latency = result.latency
    statuses = result.statuses
    pending: set[asyncio.Task] = set()
    now = loop.time

    async def one(k: int, due: float) -> None:
        op = ops[k]
        try:
            reply = await clients[k % len(clients)].call(op.kind, op.key, op.value)
            status = reply.status
        except Exception:  # a failed op is a counted outcome, not a crash
            status = "error"
            reply = None
        done = now()
        statuses[status] = statuses.get(status, 0) + 1
        if status in OK_STATUSES:
            latency.setdefault(op.kind, []).append(done - due)
            if op.kind == "put" and reply is not None and reply.prov is not None:
                result.tokens.append(tuple(reply.prov))

    def fire(first: int, last: int, due: float) -> None:
        late = now() - due
        for k in range(first, last):
            result.lateness.append(late)
            task = loop.create_task(one(k, due))
            pending.add(task)
            task.add_done_callback(pending.discard)

    cpu0 = time.process_time()
    t0 = now() + 0.02
    first = 0
    for k in range(1, len(dues) + 1):
        # One timer per group of ops sharing a due time (a burst).
        if k == len(dues) or dues[k] != dues[first]:
            loop.call_at(t0 + dues[first], fire, first, k, t0 + dues[first])
            first = k
    await asyncio.sleep(max(0.0, t0 + dues[-1] - now()) + 0.01)
    if pending:
        await asyncio.wait(set(pending), timeout=DRAIN_TIMEOUT)
    for task in set(pending):
        task.cancel()  # never answered: counted through attempted - ok
    await asyncio.gather(*pending, return_exceptions=True)
    result.wall_s = now() - t0
    result.cpu_s = time.process_time() - cpu0
    result.attempts = sum(c.attempts for c in clients)
    await asyncio.gather(*(c.close() for c in clients), return_exceptions=True)
    return result


def run_load(*args: Any, **kwargs: Any) -> LoadResult:
    """Blocking form of :func:`offer_load` on a fresh event loop."""
    return asyncio.run(offer_load(*args, **kwargs))
