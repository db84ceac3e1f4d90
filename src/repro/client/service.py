"""Server side of the client protocol: route requests into the store.

One :class:`StoreService` fronts one node's :class:`~repro.apps.
versioned_store.VersionedStore`.  The core router
(:meth:`handle_request`) is runtime-agnostic — it maps a
:class:`~repro.client.protocol.ClientRequest` to store calls and hands
every :class:`~repro.client.protocol.ClientReply` to a callback, which
is what makes replies *asynchronous*: a put's reply fires from the
store's quorum-commit callback, not from the request dispatch.  The
sim client port calls the router directly; on realnet the node
registers :meth:`handle_control` as its ``cli`` side-frame handler
(docs/protocol.md §7), so it gets decoded requests and the connection's
``reply`` function.

The service never blocks an operation across a view change: it answers
``retry`` and the client resubmits (:mod:`repro.client.core`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

from repro.apps.versioned_store import (
    PutHandle,
    VersionedStore,
    prov_from_tuple,
    prov_tuple,
)
from repro.client.protocol import OPS, ClientReply, ClientRequest

ReplyCb = Callable[[ClientReply], None]


class StoreService:
    """Request router for one serving replica."""

    def __init__(
        self, store: VersionedStore, registry: Any = None, obs: Any = None
    ) -> None:
        self.store = store
        self._obs = obs
        self._requests = self._duration = None
        if registry is not None:
            self._requests = registry.counter(
                "client_requests_total",
                "Client store requests served, by operation and reply status.",
                ("op", "status"),
            )
            self._duration = registry.histogram(
                "client_op_duration",
                "Server-side latency of client store operations "
                "(request dispatch to reply, in the runtime's clock units).",
                ("op",),
            )
            self._now = registry.now
        elif obs is not None:
            self._now = obs.registry.now
        else:
            self._now = lambda: 0.0

    # ------------------------------------------------------------------
    # Core router (both runtimes)
    # ------------------------------------------------------------------

    def handle_request(self, request: ClientRequest, reply_cb: ReplyCb) -> None:
        """Serve one request; every path ends in exactly one reply.

        With tracing on, the request is a root event: its context is
        minted here (or taken from a tracing client's ``request.trace``),
        parents every downstream protocol span, and is echoed back on
        the reply so drivers can correlate.
        """
        start = self._now()
        obs = self._obs
        ctx = obs.client_ctx(request.trace) if obs is not None else request.trace

        def finish(reply: ClientReply) -> None:
            if self._requests is not None:
                self._requests.labels(request.op, reply.status).inc()
                self._duration.labels(request.op).observe(self._now() - start)
            if obs is not None:
                obs.client_op(
                    self.store.pid, request.op, ctx, start, self._now(),
                    reply.status,
                )
            if ctx is not None and reply.trace is None:
                reply = replace(reply, trace=ctx)
            reply_cb(reply)

        op = request.op
        if op == "put":
            self._put(request, finish, ctx, start)
        elif op == "get" or op == "history":
            finish(self._read(request))
        elif op == "ping":
            finish(ClientReply(request.req_id, "ok"))
        else:
            finish(ClientReply(request.req_id, "error", value=f"unknown op {op!r}"))

    def _put(
        self,
        request: ClientRequest,
        finish: ReplyCb,
        ctx: Any = None,
        start: float = 0.0,
    ) -> None:
        req_id = request.req_id
        obs = self._obs

        def on_done(handle: PutHandle) -> None:
            if obs is not None:
                obs.put_quorum(
                    self.store.pid, start, self._now(), ctx, handle.status
                )
            if handle.status == "committed" and handle.token is not None:
                finish(ClientReply(req_id, "ok", prov=prov_tuple(handle.token)))
            else:
                # Aborted by a view change (or refused mid-settlement):
                # the client resubmits; the exactly-once index collapses
                # a retry of a write that actually landed.
                finish(ClientReply(req_id, "retry"))

        if obs is not None:
            obs.put_route(self.store.pid, start, ctx)
        self.store.put(
            request.key,
            request.value,
            client=request.client,
            client_seq=request.client_seq,
            on_done=on_done,
            trace=ctx,
        )

    def _read(self, request: ClientRequest) -> ClientReply:
        req_id = request.req_id
        store = self.store
        if request.read_mode == "leader":
            leader = store.leader()
            if leader is None:
                return ClientReply(req_id, "retry")
            if leader != store.pid:
                return ClientReply(req_id, "not_leader", leader_site=leader.site)
        ryw = prov_from_tuple(request.ryw) if request.ryw is not None else None
        if request.op == "history":
            result = store.history(request.key, ryw=ryw)
        else:
            result = store.get(request.key, ryw=ryw)
        if result.status != "ok":
            return ClientReply(req_id, result.status)
        chain = tuple(
            (e.value, prov_tuple(e.prov), e.client, e.client_seq)
            for e in result.chain
        )
        return ClientReply(
            req_id,
            "ok",
            value=result.value,
            prov=prov_tuple(result.prov) if result.prov is not None else None,
            chain=chain,
        )

    # ------------------------------------------------------------------
    # Realnet adapter: the node's ``cli`` side-frame handler
    # ------------------------------------------------------------------

    def handle_control(self, request: ClientRequest, reply: ReplyCb) -> None:
        """Serve one ``cli`` frame, once per frame.

        Every reply (deferred put acks included) travels through
        ``reply`` on the originating connection.  An op outside
        :data:`OPS` is refused here so it never becomes a metric label.
        """
        if request.op not in OPS:
            reply(
                ClientReply(request.req_id, "error", value=f"unknown op {request.op!r}")
            )
        else:
            self.handle_request(request, reply)
