"""ClusterObs: the hook hub the protocol stacks report into.

One :class:`ClusterObs` per cluster, shared by every site's stack via
``stack.obs``.  Every hook is a small, allocation-light method; hot
paths in the stacks guard calls with ``if obs is not None`` so a
cluster built with ``metrics=False`` (the bench harnesses' fast path)
pays nothing.

Span bookkeeping lives here, not in the stacks: the gms layer reports
"flush started" / "view installed" and this class turns the pair into a
``view_change_duration`` observation.  Mode residency is integrated the
same way :func:`repro.trace.stats.mode_residency` integrates the trace
— per-process intervals credited on transition and crash, open
intervals credited at read time — so the live metric and the
trace-derived aggregate are directly comparable.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanMap
from repro.obs.tracing import TraceCtx, Tracer

__all__ = ["ClusterObs"]

_MODES = ("N", "R", "S")


def _site(pid: Any) -> int:
    """Site number for span lanes; -1 for non-ProcessId reporters."""
    return getattr(pid, "site", -1)


def _label(pid: Any) -> str:
    """The metric label and span-state key of ``pid``: its site, so a
    recovered incarnation continues its site's series instead of
    starting one per crash.  A reporter that is not a ProcessId labels
    as itself."""
    site = getattr(pid, "site", None)
    return str(pid) if site is None else str(site)


class _ModeTracker:
    """Per-process mode-interval integrator (process-time per mode)."""

    __slots__ = ("_clock", "_open", "_acc")

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._open: dict[str, tuple[str, float]] = {}  # site -> (mode, since)
        self._acc: dict[str, float] = {m: 0.0 for m in _MODES}

    def change(self, pid: str, mode: str, at: float) -> None:
        previous = self._open.get(pid)
        if previous is not None and at > previous[1]:
            self._acc[previous[0]] = self._acc.get(previous[0], 0.0) + (
                at - previous[1]
            )
        self._open[pid] = (mode, at)

    def crash(self, pid: str, at: float) -> None:
        previous = self._open.pop(pid, None)
        if previous is not None and at > previous[1]:
            self._acc[previous[0]] = self._acc.get(previous[0], 0.0) + (
                at - previous[1]
            )

    def residency(self, mode: str) -> float:
        now = self._clock()
        total = self._acc.get(mode, 0.0)
        for open_mode, since in self._open.values():
            if open_mode == mode and now > since:
                total += now - since
        return total


class ClusterObs:
    """Instrument families + span state for one cluster's registry.

    ``tracer`` (optional, attached by the cluster when tracing is on)
    turns the same hook calls into causal :class:`SpanEvent` records:
    the stacks report protocol events exactly once, and this class
    fans them out to metrics and to the flight recorder.  Every
    tracing path is guarded by ``self.tracer is None`` so a cluster
    with metrics but no tracing pays a single attribute check.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        tracer: Tracer | None = None,
        whole_cluster: bool = True,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        #: Does this see every site's deliveries (one per cluster), or
        #: only its own process's (one per process)?
        self.whole_cluster = whole_cluster
        r = registry
        self.view_changes = r.counter(
            "view_changes_total", "Views installed, per site", ("site",)
        )
        self.view_change_duration = r.histogram(
            "view_change_duration",
            "Flush start to view install, per site",
            ("site",),
        )
        self.eview_changes = r.counter(
            "eview_changes_total", "E-view changes applied, per site", ("site",)
        )
        self.multicasts = r.counter(
            "multicasts_total", "View-synchronous multicasts sent", ("site",)
        )
        self.deliveries = r.counter(
            "deliveries_total", "Application deliveries", ("site",)
        )
        self.delivery_latency = r.histogram(
            "multicast_delivery_latency",
            "Multicast send to each delivery (the tail is the last delivery)",
            ("site",),
        )
        self.settlements = r.counter(
            "settlement_sessions_total",
            "Settlement sessions resolved, by outcome",
            ("site", "outcome"),
        )
        self.settlement_duration = r.histogram(
            "settlement_duration",
            "Settlement start to reconciliation, per site and kind",
            ("site", "kind"),
        )
        self.mode_transitions = r.counter(
            "mode_transitions_total",
            "Figure-1 mode automaton edges taken",
            ("transition",),
        )
        self.transfer_duration = r.histogram(
            "state_transfer_duration",
            "Chunked state transfer start to final ack, per sending site",
            ("site",),
        )
        self.crashes = r.counter(
            "crashes_total", "Process crashes injected", ("site",)
        )
        self.gossip_digests = r.counter(
            "gossip_digests_sent_total",
            "Gossip failure-detector digests pushed, per site",
            ("site",),
        )
        self.spans_evicted = r.counter(
            "spans_evicted_total",
            "Open spans evicted from bounded span maps before closing"
            " (each one is a lost latency observation)",
            ("map",),
        )
        self._mcast = SpanMap(  # msg_id -> multicast time, until delivered
            4096, on_evict=lambda _key: self.spans_evicted.labels("mcast").inc()
        )
        self._transfers = SpanMap(  # (site, peer site) -> start time
            512, on_evict=lambda _key: self.spans_evicted.labels("transfer").inc()
        )
        # Keyed by site like the labels: a crash clears its site's
        # entries, and the next incarnation reuses the key.
        self._flush: dict[str, float] = {}  # site -> flush start
        self._settle: dict[str, tuple] = {}  # site -> (start, kind, ctx)
        self._view_ctx: dict[str, TraceCtx] = {}  # site -> last install ctx
        self._modes = _ModeTracker(r.now)
        for mode in _MODES:
            r.gauge_callback(
                "mode_residency",
                "Process-time spent per mode (trace-stats semantics)",
                (lambda m: lambda: self._modes.residency(m))(mode),
                ("mode",),
                (mode,),
            )

    # -- gms: view changes -------------------------------------------------

    def view_trigger(
        self, pid: Any, at: float, cause: TraceCtx | None = None
    ) -> TraceCtx | None:
        """Root span of a view change, minted where it was triggered.

        Returns the context to put on ``VcPropose`` / hand to the local
        round; None when tracing is off.
        """
        t = self.tracer
        if t is None:
            return None
        return t.span("view.change", pid, _site(pid), at, parent=cause)

    def view_agree_ctx(self, root: TraceCtx | None) -> TraceCtx | None:
        """Child context for a round's agree span (travels in
        ``VcPrepare``/``VcInstall``; the event itself is emitted by
        :meth:`view_agreed` when the round decides)."""
        t = self.tracer
        if t is None or root is None:
            return None
        return t.mint(root)

    def view_agreed(
        self, pid: Any, ctx: TraceCtx | None, t0: float, t1: float, attrs=()
    ) -> None:
        """Coordinator decided: emit the agree span for ``ctx``."""
        t = self.tracer
        if t is not None and ctx is not None:
            t.span("view.agree", pid, _site(pid), t0, t1, ctx=ctx, attrs=attrs)

    def view_change_started(
        self, pid: Any, at: float, trace: TraceCtx | None = None
    ) -> None:
        self._flush.setdefault(_label(pid), at)
        t = self.tracer
        if t is not None and trace is not None:
            t.span("view.flush", pid, _site(pid), at, parent=trace)

    def view_installed(
        self, pid: Any, at: float, trace: TraceCtx | None = None, view: Any = None
    ) -> None:
        label = _label(pid)
        self.view_changes.labels(label).inc()
        start = self._flush.pop(label, None)
        if start is not None:
            self.view_change_duration.labels(label).observe(at - start)
        t = self.tracer
        if t is not None and trace is not None:
            attrs = (("view", str(view)),) if view is not None else ()
            ctx = t.span(
                "view.install",
                pid,
                _site(pid),
                start if start is not None else at,
                at,
                parent=trace,
                attrs=attrs,
            )
            # Settlement rounds triggered by this install parent here.
            self._view_ctx[label] = ctx

    # -- evs ---------------------------------------------------------------

    def eview_changed(self, pid: Any) -> None:
        self.eview_changes.labels(_label(pid)).inc()

    # -- vsync: multicast and delivery ------------------------------------

    def multicast_sent(
        self,
        pid: Any,
        msg_id: Any,
        at: float,
        parent: TraceCtx | None = None,
        receivers: int = 1,
    ) -> TraceCtx | None:
        """Returns the send's causal context (rides on the Message), or
        None when tracing is off.  With tracing on, a *caused* multicast
        (a client put, a settlement message) always gets a send span
        parented under its cause; an uncaused one (steady workload
        traffic) is root-sampled 1-in-``tracer.root_sample`` to keep the
        span pipeline off the hottest path — see
        :meth:`Tracer.sample_root`.  ``receivers`` is how many members
        will deliver the message (the sender included): its span closes
        at the last delivery this observer sees."""
        self.multicasts.labels(_label(pid)).inc()
        self._mcast.open(msg_id, at, receivers if self.whole_cluster else 1)
        t = self.tracer
        if t is None:
            return None
        if parent is None and not t.sample_root():
            return None
        return t.span("mcast.send", pid, _site(pid), at, parent=parent)

    def message_delivered(
        self, pid: Any, msg_id: Any, at: float, trace: TraceCtx | None = None
    ) -> None:
        label = _label(pid)
        self.deliveries.labels(label).inc()
        start = self._mcast.hit(msg_id)
        if start is not None:
            self.delivery_latency.labels(label).observe(at - start)
        t = self.tracer
        if t is not None and trace is not None:
            t.span(
                "mcast.deliver",
                pid,
                _site(pid),
                start if start is not None else at,
                at,
                parent=trace,
            )

    # -- settlement --------------------------------------------------------

    def settlement_event(self, pid: Any, tag: str, kind: str, at: float) -> None:
        label = _label(pid)
        t = self.tracer
        if tag == "settle_start":
            ctx = None
            if t is not None:
                ctx = t.mint(self._view_ctx.get(label))
            self._settle[label] = (at, kind, ctx)
        elif tag == "settle_done":
            entry = self._settle.pop(label, None)
            if entry is not None:
                self.settlement_duration.labels(label, entry[1]).observe(
                    at - entry[0]
                )
                if t is not None and entry[2] is not None:
                    t.span(
                        "settle.round",
                        pid,
                        _site(pid),
                        entry[0],
                        at,
                        ctx=entry[2],
                        attrs=(("kind", entry[1]), ("outcome", "done")),
                    )
            self.settlements.labels(label, "done").inc()
        elif tag == "settle_abandon":
            entry = self._settle.pop(label, None)
            if entry is not None and t is not None and entry[2] is not None:
                t.span(
                    "settle.round",
                    pid,
                    _site(pid),
                    entry[0],
                    at,
                    ctx=entry[2],
                    attrs=(("kind", entry[1]), ("outcome", "abandoned")),
                )
            self.settlements.labels(label, "abandoned").inc()

    def settle_ctx(self, pid: Any) -> TraceCtx | None:
        """The open settlement round's context (for StateRequest et al)."""
        entry = self._settle.get(_label(pid))
        return entry[2] if entry is not None else None

    def settle_offer(
        self, pid: Any, at: float, trace: TraceCtx | None
    ) -> None:
        """Donor answered a state request (instant, child of the round)."""
        t = self.tracer
        if t is not None and trace is not None:
            t.span("settle.offer", pid, _site(pid), at, parent=trace)

    def settle_adopt(
        self, pid: Any, at: float, trace: TraceCtx | None
    ) -> None:
        """Member adopted settled state (instant, child of the round)."""
        t = self.tracer
        if t is not None and trace is not None:
            t.span("settle.adopt", pid, _site(pid), at, parent=trace)

    # -- client service ----------------------------------------------------

    def client_ctx(self, trace: TraceCtx | None = None) -> TraceCtx | None:
        """Root context for one client request.

        Echoes a caller-supplied context (a tracing client) or mints a
        fresh root; passes ``trace`` through unchanged when tracing is
        off, so untraced servers still echo client contexts back."""
        t = self.tracer
        if t is None or trace is not None:
            return trace
        return t.mint()

    def client_op(
        self, pid: Any, op: str, ctx: TraceCtx | None,
        t0: float, t1: float, status: str,
    ) -> None:
        """The request's root span (dispatch to reply), named by op."""
        t = self.tracer
        if t is not None and ctx is not None:
            t.span(
                "client." + op, pid, _site(pid), t0, t1,
                ctx=ctx, attrs=(("status", status),),
            )

    def put_route(self, pid: Any, at: float, parent: TraceCtx | None) -> None:
        """Put handed to the store (instant, child of the request)."""
        t = self.tracer
        if t is not None and parent is not None:
            t.span("put.route", pid, _site(pid), at, parent=parent)

    def put_quorum(
        self, pid: Any, t0: float, t1: float,
        parent: TraceCtx | None, status: str,
    ) -> None:
        """Put dispatch to quorum certificate (or abort)."""
        t = self.tracer
        if t is not None and parent is not None:
            t.span(
                "put.quorum", pid, _site(pid), t0, t1,
                parent=parent, attrs=(("status", status),),
            )

    # -- modes -------------------------------------------------------------

    def mode_changed(self, pid: Any, new: Any, transition: Any, at: float) -> None:
        self.mode_transitions.labels(str(transition)).inc()
        self._modes.change(_label(pid), str(new), at)

    # -- failure detection -------------------------------------------------

    def gossip_digest_sent(self, pid: Any, count: int) -> None:
        self.gossip_digests.labels(_label(pid)).inc(count)

    # -- state transfer ----------------------------------------------------

    def transfer_started(self, pid: Any, peer: Any, at: float) -> None:
        self._transfers.open((_label(pid), _label(peer)), at)

    def transfer_done(self, pid: Any, peer: Any, at: float) -> None:
        duration = self._transfers.close((_label(pid), _label(peer)), at)
        if duration is not None:
            self.transfer_duration.labels(_label(pid)).observe(duration)

    # -- faults ------------------------------------------------------------

    def process_crashed(self, pid: Any, at: float) -> None:
        label = _label(pid)
        self.crashes.labels(label).inc()
        self._modes.crash(label, at)
        self._flush.pop(label, None)
        self._settle.pop(label, None)
