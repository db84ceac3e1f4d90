"""Real TCP store clients: dial a node socket, pipeline requests.

:class:`AsyncStoreClient` is one :class:`~repro.realnet.transport.
SideConn` to one serving node plus pipelined ``cli`` frames, replies
matched to in-flight requests by ``req_id`` (put replies wait for
quorum commit, so one connection carries many operations).  Its
:meth:`~AsyncStoreClient.call` carries out the actions of
:class:`~repro.client.core.ClientCore` with ``asyncio.sleep``,
:meth:`~AsyncStoreClient.connect` and :meth:`~AsyncStoreClient.request`.
:class:`DriverStoreClient` is the blocking facade over a
:class:`~repro.realnet.driver.RealClusterDriver`'s loop thread.
"""

from __future__ import annotations

import asyncio
from typing import Any, Mapping

from repro.client import core
from repro.client.core import ClientCore
from repro.client.protocol import ClientReply, ClientRequest
from repro.realnet.transport import CONN_LOST, SideConn
from repro.runtime.core import SECONDS_PER_UNIT


class AsyncStoreClient:
    """One client identity over TCP; redials across faults and views.

    ``addresses`` maps sites to ``(host, port)`` so ``not_leader``
    redirects and failover after a crash can find their target; a
    bare ``(host, port)`` pair in ``target`` works for single-node use.
    """

    def __init__(
        self,
        target: tuple[str, int] | None = None,
        *,
        addresses: Mapping[int, tuple[str, int]] | None = None,
        site: int = 0,
        client_id: str = "c0",
        read_mode: str = "any",
    ) -> None:
        if target is None and not addresses:
            raise ValueError("need a target address or an address book")
        self.addresses: dict[int, tuple[str, int]] = dict(addresses or {})
        if target is not None:
            self.addresses.setdefault(site, target)
        self.core = ClientCore(client_id, site, self.addresses, read_mode)
        self._conn: SideConn | None = None
        self._read_task: asyncio.Task | None = None
        self._inflight: dict[int, asyncio.Future] = {}
        self._connected_site: int | None = None

    @property
    def site(self) -> int:
        return self.core.site

    @property
    def last_token(self) -> tuple | None:
        return self.core.last_token

    # -- connection ----------------------------------------------------

    async def connect(self, site: int | None = None) -> None:
        """Dial ``site`` (default: the client's current one) and handshake."""
        await self.close()
        dial = self.site if site is None else site
        self._conn = await SideConn.open(*self.addresses[dial])
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
        """Send one request on the live connection, await its reply
        (``asyncio.TimeoutError`` after ``core.REPLY_TIMEOUT``)."""
        conn = self._conn
        if conn is None:
            raise ConnectionResetError("not connected")
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        self._inflight[request.req_id] = future
        try:
            await conn.send("cli", request)
            return await asyncio.wait_for(
                future, timeout=core.REPLY_TIMEOUT * SECONDS_PER_UNIT
            )
        finally:
            self._inflight.pop(request.req_id, None)
            if future.done() and not future.cancelled():
                # A send that raised leaves the parked future behind for
                # close() to fail; consume the exception so an abandoned
                # reply never logs "exception was never retrieved".
                future.exception()

    # -- operations ----------------------------------------------------

    async def call(
        self,
        op: str,
        key: Any = None,
        value: Any = None,
        read_mode: str | None = None,
        ryw: tuple | None = None,
    ) -> ClientReply:
        """One operation, retried to completion across views and faults."""
        pending, send = self.core.start(op, key, value, read_mode, ryw)
        while send is not None:
            if send.delay:
                await asyncio.sleep(send.delay * SECONDS_PER_UNIT)
            conn = None
            try:
                if self._connected_site != send.site:
                    await self.connect(send.site)
                conn = self._conn
                reply = await self.request(send.request)
            except CONN_LOST:
                if self._conn is conn:  # not already replaced by another call
                    await self.close()
                send = self.core.on_lost(pending, send.request.req_id)
            else:
                send = self.core.on_reply(pending, reply)
        return pending.reply

    async def put(self, key: Any, value: Any) -> ClientReply:
        return await self.call("put", key, value)

    async def get(self, key: Any, ryw: tuple | None = None) -> ClientReply:
        return await self.call("get", key, ryw=ryw)

    async def history(self, key: Any) -> ClientReply:
        return await self.call("history", key)

    async def ping(self) -> ClientReply:
        return await self.call("ping")


class DriverStoreClient:
    """Blocking store client over a :class:`RealClusterDriver`: each call
    runs on the driver's loop thread and returns the final reply."""

    def __init__(
        self,
        driver: Any,
        site: int = 0,
        client_id: str = "c0",
        read_mode: str = "any",
    ) -> None:
        self.driver = driver
        self._client = AsyncStoreClient(
            addresses=dict(driver.address_book),
            site=site,
            client_id=client_id,
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
