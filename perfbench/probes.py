"""Micro-probes: call one layer's public functions directly, time them.

These price a layer in isolation (no cluster under load), so a change in
the layer moves its probe even when the end-to-end run is too noisy to
show it.  Each probe reports the median over :data:`BATCHES` batches.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from perfbench.stats import median

BATCHES = 5


def _per_call_us(fn: Callable[[], Any], calls: int) -> float:
    """Median microseconds per call of ``fn`` over :data:`BATCHES` batches."""
    batches = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter() - t0) / calls)
    return 1e6 * median(batches)


def _capture_put_frames() -> tuple[Any, Any]:
    """The ``Message`` and the ``_StoreAck`` ``DirectPayload`` one real put
    puts on the wire, taken off a two-site sim store cluster."""
    from repro.apps.factories import app_factory
    from repro.client.sim import SimStoreClient
    from repro.ports import make_cluster

    cluster = make_cluster("sim", 2, app_factory("store", 2), seed=0, trace_level="none")
    if not cluster.settle(timeout=600.0):
        raise RuntimeError("probe cluster did not settle")
    sent: list[Any] = []
    network = cluster.network
    plain_send, plain_multicast = network.send, network.multicast

    def send(src: Any, dst: Any, payload: Any) -> None:
        sent.append(payload)
        plain_send(src, dst, payload)

    def multicast(src: Any, dsts: Any, payload: Any) -> None:
        sent.append(payload)
        plain_multicast(src, dsts, payload)

    network.send, network.multicast = send, multicast
    done = SimStoreClient(cluster, site=0, client_id="probe").put("k1", 1)
    network.send, network.multicast = plain_send, plain_multicast
    if not done.ok:
        raise RuntimeError("probe put did not commit")
    message = next(p for p in sent if type(p).__name__ == "Message")
    ack = next(p for p in sent if type(p).__name__ == "DirectPayload")
    return message, ack


def codec_probe() -> dict[str, float]:
    """bin1 cost of the four frames of one put: request, multicast, ack, reply."""
    from repro.client.protocol import (
        ClientReply,
        ClientRequest,
        client_reply_frame,
        client_request_frame,
        parse_client_reply,
        parse_client_request,
    )
    from repro.realnet.codec_bin import BIN_FORMAT as fmt

    message, ack = _capture_put_frames()
    request = ClientRequest(7, "put", "k123456", 4242, client="gen0", client_seq=99)
    reply = ClientReply(7, "ok", prov=(3, 0, 0, 99))
    src = (0, 0)

    def frame(payload: Any) -> bytes:
        out = bytearray()
        fmt.frame_msg_into(out, src, 1, 0, fmt.encode_payload(payload))
        return bytes(out)

    frames = [frame(message), frame(ack)]
    request_frame = client_request_frame(fmt, request)
    reply_frame = client_reply_frame(fmt, reply)

    def encode() -> None:
        frame(message)
        frame(ack)
        client_request_frame(fmt, request)
        client_reply_frame(fmt, reply)

    def decode() -> None:
        for data in frames:
            fmt.parse_msg_at(data, 4, len(data)).payload()
        parse_client_request(fmt, request_frame[4:])
        parse_client_reply(fmt, reply_frame[4:])

    sizes = [len(f) for f in frames] + [len(request_frame), len(reply_frame)]
    return {
        "codec.encode_us": _per_call_us(encode, 1000),
        "codec.decode_us": _per_call_us(decode, 1000),
        "codec.bytes_per_msg": sum(sizes) / len(sizes),
    }


def apps_probe() -> dict[str, float]:
    """Store read and apply cost on a one-site sim cluster."""
    from repro.apps.factories import app_factory
    from repro.ports import make_cluster
    from repro.types import MessageId

    cluster = make_cluster("sim", 1, app_factory("store", 1), seed=0, trace_level="none")
    if not cluster.settle(timeout=600.0):
        raise RuntimeError("probe cluster did not settle")
    store = cluster.app_at(0)
    pid = store.pid
    view = cluster.stack_at(0).current_view_id()
    seq = 0

    def apply() -> None:
        nonlocal seq
        seq += 1
        store.apply_op(
            pid, ("put", f"k{seq % 1000}", seq, "probe", seq), MessageId(pid, view, seq)
        )

    apply_us = _per_call_us(apply, 1000)
    keys = [f"k{i}" for i in range(1000)]
    at = 0

    def get() -> None:
        nonlocal at
        at = (at + 1) % 1000
        store.get(keys[at])

    return {"apps.apply_us": apply_us, "apps.get_us": _per_call_us(get, 10000)}


def sim_probe() -> dict[str, float]:
    """Scheduler throughput on events that do nothing."""
    from repro.sim.scheduler import Scheduler

    def noop() -> None:
        pass

    count = 50_000
    rates = []
    for _ in range(BATCHES):
        scheduler = Scheduler()
        for i in range(count):
            scheduler.fire_after(float(i % 97), noop)
        t0 = time.perf_counter()
        scheduler.run()
        rates.append(count / (time.perf_counter() - t0))
    return {"sim.noop_events_per_s": median(rates)}


def micro_probes() -> dict[str, float]:
    """Every probe; the same on all workloads (they load no cluster)."""
    return {**codec_probe(), **apps_probe(), **sim_probe()}
