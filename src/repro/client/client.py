"""Real TCP store clients: dial a node socket, pipeline requests.

:class:`AsyncStoreClient` is the asyncio-native client: one
:class:`~repro.realnet.transport.SideConn` to one serving node, plus
what the store protocol adds to it — pipelined ``cli`` frames with
replies matched to in-flight requests by ``req_id``.  Pipelining
matters: put replies are deferred server-side until quorum commit, so
one connection can carry many outstanding operations — the open-loop
load generator depends on that.

:meth:`AsyncStoreClient.call` also implements the client half of the
retry contract: on ``retry`` it backs off and resubmits *the same*
``(client, client_seq)`` (the store's exactly-once index collapses
duplicates of writes that actually landed), on ``not_leader`` it
redials the named site, and on connection loss — a dial nobody
welcomes and a garbled reply included — it redials the next site and
resubmits: an acked write is therefore acked exactly once, whatever
views did in between.

:class:`DriverStoreClient` is the blocking facade over a
:class:`~repro.realnet.driver.RealClusterDriver`: it runs one
:class:`AsyncStoreClient` on the driver's loop thread and exposes the
same ``submit``/``put``/``get``/``history`` surface as the sim port.
"""

from __future__ import annotations

import asyncio
from typing import Any, Mapping

from repro.client.protocol import ClientReply, ClientRequest
from repro.realnet.transport import CONN_LOST, SideConn

#: Wall seconds between resubmissions of a retried operation.
RETRY_DELAY = 0.2

#: Attempts before giving up on an operation.
MAX_ATTEMPTS = 25

#: Wall seconds to await one reply before treating the attempt as lost.
REPLY_TIMEOUT = 10.0


class AsyncStoreClient:
    """One client identity over TCP; redials across faults and views.

    ``addresses`` maps sites to ``(host, port)`` so ``not_leader``
    redirects and reconnects after a crash can find their target; a
    bare ``(host, port)`` pair in ``target`` works for single-node use.
    """

    def __init__(
        self,
        target: tuple[str, int] | None = None,
        *,
        addresses: Mapping[int, tuple[str, int]] | None = None,
        site: int = 0,
        client_id: str = "c0",
        codec: str = "bin",
        read_mode: str = "any",
        retry_delay: float = RETRY_DELAY,
        max_attempts: int = MAX_ATTEMPTS,
        reply_timeout: float = REPLY_TIMEOUT,
    ) -> None:
        if target is None and not addresses:
            raise ValueError("need a target address or an address book")
        self.addresses: dict[int, tuple[str, int]] = dict(addresses or {})
        if target is not None:
            self.addresses.setdefault(site, target)
        self.site = site
        self.client_id = client_id
        self.codec = codec
        self.read_mode = read_mode
        self.retry_delay = retry_delay
        self.max_attempts = max_attempts
        self.reply_timeout = reply_timeout
        #: Read-your-writes token: provenance of our last acked put.
        self.last_token: tuple | None = None
        self._seq = 0
        self._req = 0
        self._conn: SideConn | None = None
        self._read_task: asyncio.Task | None = None
        self._inflight: dict[int, asyncio.Future] = {}
        self._connected_site: int | None = None

    # -- connection ----------------------------------------------------

    async def connect(self, site: int | None = None) -> None:
        """Dial ``site`` (default: the configured one) and negotiate."""
        await self.close()
        dial = self.site if site is None else site
        self._conn = await SideConn.open(*self.addresses[dial], self.codec)
        self._connected_site = dial
        self._read_task = asyncio.ensure_future(self._read_loop(self._conn))

    async def close(self) -> None:
        task, conn = self._read_task, self._conn
        self._read_task = self._conn = self._connected_site = None
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        if conn is not None:
            await conn.close()
        self._fail_inflight(ConnectionResetError("connection closed"))

    def _fail_inflight(self, exc: Exception) -> None:
        inflight, self._inflight = self._inflight, {}
        for future in inflight.values():
            if not future.done():
                future.set_exception(exc)

    async def _read_loop(self, conn: SideConn) -> None:
        try:
            while True:
                reply = await conn.recv("cli")
                future = self._inflight.pop(reply.req_id, None)
                if future is not None and not future.done():
                    future.set_result(reply)
        except CONN_LOST as exc:
            # Nobody reads this socket any more: it is lost, whatever
            # state the peer thinks it is in.
            if self._conn is conn:
                self._conn = self._connected_site = None
            self._fail_inflight(exc)
            await conn.close()

    # -- one attempt ---------------------------------------------------

    async def request(self, request: ClientRequest) -> ClientReply:
        """Send one request on the live connection, await its reply."""
        conn = self._conn
        if conn is None:
            raise ConnectionResetError("not connected")
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        self._inflight[request.req_id] = future
        try:
            await conn.send("cli", request)
            return await asyncio.wait_for(future, timeout=self.reply_timeout)
        finally:
            self._inflight.pop(request.req_id, None)
            if future.done() and not future.cancelled():
                # A send that raised leaves the parked future behind for
                # close() to fail; consume the exception so an abandoned
                # reply never logs "exception was never retrieved".
                future.exception()

    # -- retrying operations -------------------------------------------

    def _next_request(
        self,
        op: str,
        key: Any,
        value: Any,
        read_mode: str | None,
        ryw: tuple | None,
    ) -> ClientRequest:
        self._req += 1
        if op == "put":
            self._seq += 1
        return ClientRequest(
            req_id=self._req,
            op=op,
            key=key,
            value=value,
            client=self.client_id,
            client_seq=self._seq if op == "put" else 0,
            read_mode=read_mode or self.read_mode,
            ryw=ryw,
        )

    async def call(
        self,
        op: str,
        key: Any = None,
        value: Any = None,
        read_mode: str | None = None,
        ryw: tuple | None = None,
    ) -> ClientReply:
        """One operation, retried to completion across views and faults."""
        request = self._next_request(op, key, value, read_mode, ryw)
        dial: int | None = None
        last = ClientReply(request.req_id, "retry")
        for attempt in range(self.max_attempts):
            if attempt:
                await asyncio.sleep(self.retry_delay)
                # Fresh req_id per attempt (a stale reply to a timed-out
                # attempt must not satisfy the resubmission), same
                # client_seq (so a put retry stays exactly-once).
                request = ClientRequest(
                    req_id=self._bump(),
                    op=request.op,
                    key=request.key,
                    value=request.value,
                    client=request.client,
                    client_seq=request.client_seq,
                    read_mode=request.read_mode,
                    ryw=request.ryw,
                )
            try:
                if self._conn is None or (
                    dial is not None and dial != self._connected_site
                ):
                    await self.connect(dial)
                reply = await self.request(request)
            except CONN_LOST:
                # Dead, wedged or garbling connection: redial somewhere
                # and retry the same client_seq — never double-acked,
                # thanks to the store's exactly-once index.
                await self.close()
                dial = self._fallback_site(dial)
                continue
            last = reply
            if reply.status == "retry":
                continue
            if reply.status == "not_leader":
                if reply.leader_site >= 0 and reply.leader_site in self.addresses:
                    dial = reply.leader_site
                continue
            if op == "put" and reply.status == "ok":
                self.last_token = reply.prov
            return reply
        return last

    def _bump(self) -> int:
        self._req += 1
        return self._req

    def _fallback_site(self, dial: int | None) -> int | None:
        """Next site to try once the current one stops answering."""
        sites = sorted(self.addresses)
        if not sites:
            return dial
        current = dial if dial is not None else self.site
        try:
            where = sites.index(current)
        except ValueError:
            return sites[0]
        return sites[(where + 1) % len(sites)]

    # -- conveniences --------------------------------------------------

    async def put(self, key: Any, value: Any) -> ClientReply:
        return await self.call("put", key, value)

    async def get(self, key: Any, ryw: tuple | None = None) -> ClientReply:
        return await self.call("get", key, ryw=ryw)

    async def history(self, key: Any) -> ClientReply:
        return await self.call("history", key)

    async def ping(self) -> ClientReply:
        return await self.call("ping")


class DriverStoreClient:
    """Blocking store client over a :class:`RealClusterDriver`.

    Mirrors the sim port's blocking surface: each call submits the
    coroutine to the driver's loop thread and waits for the final
    (post-retry) reply.
    """

    def __init__(
        self,
        driver: Any,
        site: int = 0,
        client_id: str = "c0",
        codec: str = "bin",
        read_mode: str = "any",
    ) -> None:
        self.driver = driver
        self._client = AsyncStoreClient(
            addresses=dict(driver.address_book),
            site=site,
            client_id=client_id,
            codec=codec,
            read_mode=read_mode,
        )

    @property
    def last_token(self) -> tuple | None:
        return self._client.last_token

    def _run(self, coro: Any) -> ClientReply:
        return self.driver.loop.submit(coro, timeout=60.0)

    def put(self, key: Any, value: Any) -> ClientReply:
        return self._run(self._client.put(key, value))

    def get(self, key: Any, ryw: tuple | None = None) -> ClientReply:
        return self._run(self._client.get(key, ryw=ryw))

    def history(self, key: Any) -> ClientReply:
        return self._run(self._client.history(key))

    def ping(self) -> ClientReply:
        return self._run(self._client.ping())

    def close(self) -> None:
        self._run(self._client.close())
