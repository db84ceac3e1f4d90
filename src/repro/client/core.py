"""The store's retry contract, written once, as a sans-I/O core.

A view can certify an external operation only while it lasts, so a
client resubmits across view changes; ``(client, client_seq)``
deduplication makes that safe (docs/protocol.md §8).  :class:`ClientCore`
takes events — start an operation, a reply, a lost attempt — and
returns actions (:class:`Send` a request to a site, now or after a
delay); it owns no socket, timer or clock, so its decisions are a pure
function of its inputs.  :class:`~repro.client.sim.SimStoreClient` and
:class:`~repro.client.client.AsyncStoreClient` carry the actions out.
The rules are the table in docs/api.md, "The retry contract".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple

from repro.client.protocol import ClientReply, ClientRequest

# In scenario units (0.01 wall seconds each on realnet); adapters read
# them through this module at use time.

#: Delay before resubmitting after ``retry`` or a lost attempt (0.2 s).
RETRY_DELAY = 20.0

#: Wait for one attempt's reply before it counts as lost (10 s).
REPLY_TIMEOUT = 1000.0

#: Attempts before an operation gives up.
MAX_ATTEMPTS = 25


@dataclass
class PendingOp:
    """Completion state of one client operation (across retries)."""

    #: The current attempt's request (its ``req_id`` changes per attempt).
    request: ClientRequest
    #: The site the current attempt went to.
    site: int
    reply: ClientReply | None = None
    attempts: int = 0
    #: Transient outcomes consumed by the retry loop (for diagnostics):
    #: reply statuses, ``"lost"`` and ``"timeout"``.
    retries: list[str] = field(default_factory=list)
    #: Fired once with this op when the final reply lands (open-loop
    #: load measures completion latency through it).
    on_done: Any = None

    @property
    def done(self) -> bool:
        return self.reply is not None

    @property
    def ok(self) -> bool:
        return self.reply is not None and self.reply.status == "ok"

    def _finish(self, reply: ClientReply) -> None:
        self.reply = reply
        callback, self.on_done = self.on_done, None
        if callback is not None:
            callback(self)


class Send(NamedTuple):
    """Action: send ``request`` to ``site`` after ``delay`` scenario units."""

    request: ClientRequest
    site: int
    delay: float


class ClientCore:
    """One client identity's retry contract; no I/O.

    ``sites`` is the failover order (sorted); ``site`` is where the
    client starts.  Every event method returns the next :class:`Send`,
    or ``None`` when there is nothing to send — the operation finished
    (``pending.done``) or the event was stale.
    """

    def __init__(
        self,
        client_id: str,
        site: int,
        sites: Iterable[int],
        read_mode: str = "any",
        max_attempts: int = MAX_ATTEMPTS,
    ) -> None:
        self.client_id = client_id
        #: Where the next operation goes; moved by failover and redirects.
        self.site = site
        self.sites = sorted(sites) or [site]
        self.read_mode = read_mode
        self.max_attempts = max_attempts
        #: Read-your-writes token: provenance of our last acked put.
        self.last_token: tuple | None = None
        self._seq = 0
        self._req = 0

    def start(
        self,
        op: str,
        key: Any = None,
        value: Any = None,
        read_mode: str | None = None,
        ryw: tuple | None = None,
        on_done: Any = None,
    ) -> tuple[PendingOp, Send]:
        """A new operation and its first attempt, sent at once."""
        self._req += 1
        if op == "put":
            self._seq += 1
        seq = self._seq if op == "put" else 0
        request = ClientRequest(
            self._req, op, key, value, self.client_id, seq,
            read_mode or self.read_mode, ryw,
        )
        pending = PendingOp(request, self.site, attempts=1, on_done=on_done)
        return pending, Send(request, self.site, 0.0)

    def on_reply(self, pending: PendingOp, reply: ClientReply) -> Send | None:
        if pending.done or reply.req_id != pending.request.req_id:
            return None  # a reply to an attempt we already moved past
        status = reply.status
        if status in ("retry", "not_leader") and pending.attempts < self.max_attempts:
            pending.retries.append(status)
            if status == "not_leader" and reply.leader_site in self.sites:
                self.site = reply.leader_site
                return self._resend(pending, 0.0)
            return self._resend(pending, RETRY_DELAY)
        if status == "ok" and pending.request.op == "put":
            self.last_token = reply.prov
        pending._finish(reply)
        return None

    def on_lost(
        self, pending: PendingOp, req_id: int, why: str = "lost"
    ) -> Send | None:
        """The attempt ``req_id`` will never be answered: its connection
        dropped, its replica is down, or (``why="timeout"``) its reply
        is :data:`REPLY_TIMEOUT` overdue."""
        if pending.done or req_id != pending.request.req_id:
            return None
        if pending.attempts >= self.max_attempts:
            pending._finish(ClientReply(req_id, "retry"))
            return None
        pending.retries.append(why)
        if self.site == pending.site:  # not already moved by another op
            sites = self.sites
            where = sites.index(self.site) + 1 if self.site in sites else 0
            self.site = sites[where % len(sites)]
        return self._resend(pending, RETRY_DELAY)

    def _resend(self, pending: PendingOp, delay: float) -> Send:
        # Fresh req_id (a late reply to the last attempt must not satisfy
        # this one), same client_seq (so a put stays exactly-once).
        self._req += 1
        request = dataclasses.replace(pending.request, req_id=self._req)
        pending.request = request
        pending.site = self.site
        pending.attempts += 1
        return Send(request, self.site, delay)
