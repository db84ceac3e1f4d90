"""In-process client port: the client API on the simulator runtime.

The simulator has no sockets, but workloads must drive the store
through the *same* request/reply vocabulary and retry contract
(:class:`~repro.client.core.ClientCore`) as the TCP clients.  This
adapter turns the core's actions into cluster timers and
:meth:`~repro.client.service.StoreService.handle_request` calls on the
target site (only the wire framing is skipped), counts a down replica
as a lost connection and arms the reply timeout.  :meth:`submit`
returns a :class:`PendingOp` that completes as virtual time advances
(for scheduler callbacks); :meth:`put` / :meth:`get` / :meth:`history`
run the cluster until it completes (for top-level callers).
"""

from __future__ import annotations

from typing import Any

from repro.client import core
from repro.client.core import ClientCore, PendingOp, Send
from repro.client.protocol import ClientReply
from repro.client.service import StoreService


class SimStoreClient:
    """The client API of one external client, over a sim cluster."""

    def __init__(
        self,
        cluster: Any,
        site: int = 0,
        client_id: str = "c0",
        read_mode: str = "any",
        max_attempts: int = core.MAX_ATTEMPTS,
    ) -> None:
        self.cluster = cluster
        self.core = ClientCore(
            client_id, site, cluster.stacks, read_mode, max_attempts
        )
        #: One router per serving app (a recovered site is a new app).
        self._services: dict[int, StoreService] = {}

    @property
    def last_token(self) -> tuple | None:
        return self.core.last_token

    def submit(
        self,
        op: str,
        key: Any = None,
        value: Any = None,
        read_mode: str | None = None,
        ryw: tuple | None = None,
        on_done: Any = None,
    ) -> PendingOp:
        """Issue one operation; completion arrives as the sim runs."""
        pending, send = self.core.start(op, key, value, read_mode, ryw, on_done)
        self._act(pending, send)
        return pending

    def _act(self, pending: PendingOp, send: Send | None) -> None:
        """Carry out one action of the core: an attempt, now or later."""
        if send is None or pending.done:
            return
        if send.delay:
            later = send._replace(delay=0.0)
            self.cluster.after(
                send.delay * self.cluster.time_scale, self._act, pending, later
            )
            return
        req_id = send.request.req_id
        service = self._service(send.site)
        if service is None:
            return self._lost(pending, req_id)
        timer = None

        def on_reply(reply: ClientReply) -> None:
            if timer is not None:
                timer.cancel()
            self._act(pending, self.core.on_reply(pending, reply))

        service.handle_request(send.request, on_reply)
        if not pending.done and pending.request.req_id == req_id:
            # Not answered at once (a put waits for quorum commit).
            timer = self.cluster.after(
                core.REPLY_TIMEOUT * self.cluster.time_scale,
                self._lost, pending, req_id, "timeout",
            )

    def _lost(self, pending: PendingOp, req_id: int, why: str = "lost") -> None:
        self._act(pending, self.core.on_lost(pending, req_id, why))

    def _service(self, site: int) -> StoreService | None:
        """The router of the live app at ``site``; None when it is down
        (the same as a refused connection)."""
        try:
            app = self.cluster.app_at(site)
        except Exception:
            return None
        stack = getattr(app, "stack", None)
        if stack is None or not getattr(stack, "alive", False):
            return None
        service = self._services.get(site)
        if service is None or service.store is not app:
            service = self._services[site] = StoreService(
                app, registry=self.cluster.metrics, obs=self.cluster.obs
            )
        return service

    def _wait(self, pending: PendingOp, timeout: float) -> PendingOp:
        deadline = self.cluster.now + timeout * self.cluster.time_scale
        while not pending.done and self.cluster.now < deadline:
            self.cluster.run_for(core.RETRY_DELAY * self.cluster.time_scale)
        if pending.reply is None:
            pending._finish(ClientReply(pending.request.req_id, "retry"))
        return pending

    def put(self, key: Any, value: Any, timeout: float = 2000.0) -> PendingOp:
        return self._wait(self.submit("put", key, value), timeout)

    def get(
        self, key: Any, ryw: tuple | None = None, timeout: float = 2000.0
    ) -> PendingOp:
        return self._wait(self.submit("get", key, ryw=ryw), timeout)

    def history(self, key: Any, timeout: float = 2000.0) -> PendingOp:
        return self._wait(self.submit("history", key), timeout)

    def close(self) -> None:
        """Symmetry with the TCP clients; nothing to release."""
