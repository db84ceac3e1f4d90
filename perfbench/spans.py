"""Outside-in tracing: timing wrappers over the layer-boundary methods.

The traced run installs, at class level and before the cluster boots, a
wrapper around each boundary method listed in :data:`BOUNDARIES`.  Each
call records one span — name, start, end, the span that was open on the
same thread when it started, and an operation identifier where the
arguments carry one — into in-memory arrays.  Nothing under ``src/`` is
edited; tracing inside the program is a later change.

A layer's *self time* is its spans' duration minus the part covered by
their child spans (:func:`self_times`), so the layer rows add up to the
traced wall time inside the outermost spans and no work is counted
twice.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from array import array
from typing import Any, Callable, Iterable, NamedTuple

#: Layer of every span name the traced run can produce, in table order.
LAYERS = (
    "client",
    "apps",
    "vsync",
    "gms",
    "fd",
    "core",
    "realnet_network",
    "transport",
    "codec",
    "sim",
    "net",
    "trace",
)


class Boundary(NamedTuple):
    """Methods of one class to wrap, and the layer they are charged to.

    A method name ending in ``*`` matches every method the class itself
    defines with that prefix (``on_*``).
    """

    layer: str
    module: str
    cls: str
    methods: tuple[str, ...]


def _put_op(args: tuple, kwargs: dict) -> Any:
    """``VersionedStore.put(self, key, value, client, client_seq, ...)``."""
    client = kwargs.get("client", args[3] if len(args) > 3 else "")
    seq = kwargs.get("client_seq", args[4] if len(args) > 4 else 0)
    return (client, seq) if client else None


def _apply_op(args: tuple, kwargs: dict) -> Any:
    """``VersionedStore.apply_op(self, sender, op, msg_id)``; op carries
    ``(kind, key, value, client, client_seq)``."""
    op = args[2] if len(args) > 2 else kwargs.get("op")
    return (op[3], op[4]) if isinstance(op, tuple) and len(op) == 5 and op[3] else None


def _member_now(args: tuple, kwargs: dict) -> Any:
    """``ViewAgreement.<method>(self, ...)`` -> ``(pid, backend time)``."""
    stack = args[0].stack
    return (str(stack.pid), stack.now)


def _settle_tag(args: tuple, kwargs: dict) -> Any:
    """``SettlementEngine._record(self, tag, data)`` -> ``(pid, time, tag)``."""
    stack = args[0].obj.stack
    if stack is None:
        return None
    return (str(stack.pid), stack.now, args[1])


def _offer_bytes(args: tuple, kwargs: dict) -> Any:
    """``SettlementEngine.on_offer(self, src, offer)`` -> bin1 size of the
    offer, which is the state a settlement moves.  Runs before the span's
    clock starts, so the encoding is not charged to the ``core`` layer."""
    from repro.realnet.codec_bin import encode_value_bin

    try:
        return len(encode_value_bin(args[2]))
    except Exception:  # an offer the wire codec cannot carry has no wire size
        return None


#: ``Class.method`` -> extractor of the operation identifier.  The
#: membership and settlement extractors also carry backend time, which is
#: how view-change and settlement durations are read in virtual units.
OP_IDS: dict[str, Callable[[tuple, dict], Any]] = {
    "VersionedStore.put": _put_op,
    "VersionedStore.apply_op": _apply_op,
    "ViewAgreement.on_prepare": _member_now,
    "ViewAgreement._install": _member_now,
    "SettlementEngine._record": _settle_tag,
    "SettlementEngine.on_offer": _offer_bytes,
}

BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("client", "repro.client.service", "StoreService", ("handle_control",)),
    Boundary(
        "apps",
        "repro.apps.versioned_store",
        "VersionedStore",
        ("put", "apply_op", "on_app_direct", "get"),
    ),
    Boundary("vsync", "repro.vsync.stack", "GroupStack", ("multicast", "on_network")),
    Boundary(
        "vsync", "repro.vsync.channel", "ViewChannels", ("on_app_message", "try_deliver")
    ),
    # _round_timeout and _install are not message handlers: the first is
    # one of the three ways a round fails, the second is the install.
    Boundary(
        "gms",
        "repro.gms.membership",
        "ViewAgreement",
        ("on_*", "_round_timeout", "_install"),
    ),
    Boundary("fd", "repro.fd.heartbeat", "DetectorBase", ("heard", "on_digest")),
    Boundary("fd", "repro.fd.heartbeat", "HeartbeatDetector", ("on_heartbeat",)),
    Boundary("fd", "repro.fd.gossip", "GossipDetector", ("on_digest",)),
    Boundary("core", "repro.core.settlement", "SettlementEngine", ("on_*", "_record")),
    # The store's persistence calls; charged to the layer that makes them.
    Boundary("apps", "repro.sim.stable_storage", "SiteStorage", ("append", "write")),
    Boundary(
        "realnet_network", "repro.realnet.network", "RealNetwork", ("send", "multicast")
    ),
    Boundary("transport", "repro.realnet.transport", "PeerLink", ("offer",)),
    # encode_payload and ParsedMsg.payload hold the payload work that
    # frame_msg_into/parse_msg_at deliberately leave to their callers.
    Boundary(
        "codec",
        "repro.realnet.codec_bin",
        "BinWireFormat",
        ("frame_msg_into", "parse_msg_at", "encode_payload"),
    ),
    Boundary("codec", "repro.realnet.codec_bin", "ParsedMsg", ("payload",)),
    Boundary("net", "repro.net.network", "Network", ("multicast",)),
    Boundary("sim", "repro.sim.scheduler", "Scheduler", ("run",)),
)


class _ThreadSpans:
    """One thread's spans, as parallel arrays (24 bytes per span)."""

    __slots__ = ("names", "starts", "ends", "parents", "ops", "top")

    def __init__(self) -> None:
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.ops: dict[int, Any] = {}
        self.top = -1  # index of the open span on this thread


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the same list, -1 for a root
    op: Any = None


class SpanLog:
    """In-memory span store plus the class-level wrappers feeding it."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layers: dict[str, str] = {}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._installed: list[tuple[type, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        known = self._name_ids.get(name)
        if known is None:
            known = self._name_ids[name] = len(self._names)
            self._names.append(name)
            self._layers[name] = layer
        return known

    def _thread(self) -> _ThreadSpans:
        spans = _ThreadSpans()
        self._local.spans = spans
        with self._lock:
            self._threads.append(spans)
        return spans

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        op_of: Callable[[tuple, dict], Any] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span recorded around every call."""
        name_id = self._name_id(name, layer)
        local = self._local
        new_thread = self._thread
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                spans = local.spans
            except AttributeError:
                spans = new_thread()
            index = len(spans.starts)
            parent = spans.top
            spans.names.append(name_id)
            spans.parents.append(parent)
            spans.ends.append(0.0)
            if op_of is not None:
                op = op_of(args, kwargs)
                if op is not None:
                    spans.ops[index] = op
            spans.top = index
            spans.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                spans.ends[index] = clock()
                spans.top = parent

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- installing ----------------------------------------------------

    def install(self, boundaries: Iterable[Boundary] = BOUNDARIES) -> None:
        """Wrap every boundary method, at class level.

        Must run before the cluster boots: code that already bound a
        method (``frame_into = fmt.frame_msg_into``) keeps what it bound.
        """
        for spec in boundaries:
            cls = getattr(importlib.import_module(spec.module), spec.cls)
            for pattern in spec.methods:
                if pattern.endswith("*"):
                    prefix = pattern[:-1]
                    methods = sorted(
                        m
                        for m, v in vars(cls).items()
                        if m.startswith(prefix) and callable(v)
                    )
                else:
                    methods = [pattern] if pattern in vars(cls) else []
                for method in methods:
                    original = vars(cls)[method]
                    name = f"{spec.cls}.{method}"
                    setattr(
                        cls,
                        method,
                        self.wrap(original, name, spec.layer, OP_IDS.get(name)),
                    )
                    self._installed.append((cls, method, original))

    def uninstall(self) -> None:
        while self._installed:
            cls, method, original = self._installed.pop()
            setattr(cls, method, original)

    # -- reading -------------------------------------------------------

    def threads(self) -> list[list[Span]]:
        """Every thread's spans, in start order, parents as list indices."""
        out = []
        for t in list(self._threads):
            out.append(
                [
                    Span(
                        self._names[t.names[i]],
                        t.starts[i],
                        t.ends[i],
                        t.parents[i],
                        t.ops.get(i),
                    )
                    for i in range(len(t.starts))
                ]
            )
        return out

    def summary(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        threads: list[list[Span]] | None = None,
    ) -> dict[str, Any]:
        """Per-name and per-layer self time (seconds) and call counts of
        the spans that started in ``[since, until]`` (``perf_counter``).
        ``threads`` saves a caller that already holds :meth:`threads`
        from materialising every span a second time."""
        by_name: dict[str, dict[str, float]] = {}
        for spans in self.threads() if threads is None else threads:
            for name, (count, total, own) in self_times(spans, since, until).items():
                row = by_name.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
                row["count"] += count
                row["total_s"] += total
                row["self_s"] += own
        by_layer = {layer: 0.0 for layer in LAYERS}
        for name, row in by_name.items():
            by_layer[self._layers[name]] += row["self_s"]
        return {"by_name": by_name, "by_layer": by_layer}

    def dump(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for thread_id, spans in enumerate(self.threads()):
                for index, span in enumerate(spans):
                    out.write(
                        json.dumps(
                            {
                                "thread": thread_id,
                                "id": index,
                                "name": span.name,
                                "layer": self._layers[span.name],
                                "start": span.start,
                                "end": span.end,
                                "parent": span.parent,
                                "op": span.op,
                            }
                        )
                        + "\n"
                    )
                    written += 1
        return written


def self_times(
    spans: list[Span], since: float = float("-inf"), until: float = float("inf")
) -> dict[str, tuple[int, float, float]]:
    """``name -> (calls, total seconds, self seconds)`` for one thread,
    over the spans that started in ``[since, until]``.

    A span's self time is its duration minus the durations of its direct
    children (which, on one thread, nest strictly inside it).  A span
    still open when the log was read (``end < start``) is skipped, and
    so is its claim on its parent.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.end >= span.start and span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out: dict[str, tuple[int, float, float]] = {}
    for index, span in enumerate(spans):
        if span.end < span.start or not since <= span.start <= until:
            continue
        duration = span.end - span.start
        count, total, own = out.get(span.name, (0, 0.0, 0.0))
        out[span.name] = (
            count + 1,
            total + duration,
            own + max(0.0, duration - child_time[index]),
        )
    return out
