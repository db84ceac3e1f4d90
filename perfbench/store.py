"""The three store workloads: realnet n=5 in a child, load from here.

Two processes on two cores, loopback TCP, no injected delay: latency is
processor time plus the transport's 0.5 ms flush tick, not a network's.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any

from perfbench import ROOT, calibrate
from perfbench.counters import delta
from perfbench.inputs import due_times, make_ops
from perfbench.layers import counter_metrics, span_metrics
from perfbench.loadgen import LoadResult, client_sites, run_load
from perfbench.result import RunResult
from perfbench.stats import median, quantile

#: Fresh child + cluster segments per end-to-end run.
SEGMENTS = 3
#: Length of one measured window.
WINDOW_S = 1.0
WARMUP_S = 1.0
#: Length of the single-node baseline (``client.put_n1_p50_ms``).
BASELINE_S = 1.0
REPLY_TIMEOUT = 90.0
#: ``client.slow_share`` thresholds, milliseconds.
SLOW_MS = {"put": 50.0, "get": 10.0}
#: Generator lateness (p99, ms) above which a run is flagged.
SATURATED_MS = 10.0


@dataclass(frozen=True)
class StoreSpec:
    """One open-loop traffic mix against the n=5 realnet store."""

    name: str
    rate: float
    burst: int
    read_fraction: float
    key_dist: str
    n_keys: int
    n_sites: int = 5
    #: True where latency is queueing on the server's CPU (a burst keeps it
    #: saturated while it drains), so it scales with host speed and is
    #: calibrated; on an even grid most of the latency is flush ticks and
    #: wake-ups, which do not.
    cpu_bound_latency: bool = False

    @property
    def main_op(self) -> str:
        return "get" if self.read_fraction >= 0.5 else "put"


class ServerChild:
    """The ``perfbench.server`` child and its command channel."""

    def __init__(self, traced: bool, hash_seed: int = 0) -> None:
        argv = [sys.executable, "-m", "perfbench.server"]
        if traced:
            argv.append("--traced")
        # A fixed hash seed per segment: string hashing (and with it set
        # order and dict layout) is the same in every run, and a run
        # averages over as many layouts as it has segments.
        self._proc = subprocess.Popen(
            argv,
            cwd=str(ROOT),
            env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        if self._proc.stdin is None or self._proc.stdout is None:
            raise RuntimeError("server child started without pipes")
        self._stdin, self._stdout = self._proc.stdin, self._proc.stdout
        self._buf = b""

    def call(self, cmd: str, **fields: Any) -> dict[str, Any]:
        self._stdin.write((json.dumps({"cmd": cmd, **fields}) + "\n").encode())
        deadline = time.monotonic() + REPLY_TIMEOUT
        fd = self._stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError(f"server child did not answer {cmd!r}")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise RuntimeError(f"server child exited during {cmd!r}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"server child failed {cmd!r}: {reply['error']}")
        return reply

    def close(self) -> None:
        """Stop the child and wait until it has ended."""
        proc = self._proc
        try:
            if proc.poll() is None:
                self._stdin.write(b'{"cmd": "exit"}\n')
                self._stdin.close()
            proc.wait(timeout=30.0)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        finally:
            self._stdout.close()

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _addresses(reply: dict[str, Any]) -> dict[int, tuple[str, int]]:
    return {int(s): (a[0], int(a[1])) for s, a in reply["addresses"].items()}


@dataclass
class Window:
    """One open-loop window, the server CPU it cost, and the host-speed
    probes (on the server's loop thread) on either side of it."""

    load: LoadResult
    cpu_s: float
    scale: float

    @property
    def raw_cpu_ms_per_op(self) -> float:
        return 1000.0 * self.cpu_s / self.load.ok

    @property
    def cpu_ms_per_op(self) -> float:
        """Calibrated server CPU per served op, milliseconds."""
        return self.raw_cpu_ms_per_op * self.scale

    def p50_ms(self, kind: str, cpu_bound: bool) -> float:
        """Median latency; calibrated only where it is CPU queueing."""
        raw = 1000.0 * median(self.load.latency[kind])
        return raw * self.scale if cpu_bound else raw


def _offer(
    spec: StoreSpec,
    addresses: dict[int, tuple[str, int]],
    seed: int,
    seconds: float,
    prefix: str,
) -> LoadResult:
    """Generate the window's inputs from ``seed`` and offer them."""
    dues = due_times(spec.rate, seconds, spec.burst)
    ops = make_ops(
        len(dues),
        seed,
        read_fraction=spec.read_fraction,
        key_dist=spec.key_dist,
        n_keys=spec.n_keys,
    )
    connections = min(os.cpu_count() or 1, 4)
    sites = client_sites(spec.n_sites, connections)
    return run_load(addresses, sites, ops, dues, client_prefix=prefix)


@dataclass
class Segment:
    """One fresh child, one fresh cluster, a row of measured windows."""

    windows: list[Window]
    counters: dict[str, float]
    verdict: dict[str, Any]
    setup_s: float
    spans: dict[str, Any] | None = None
    put_n1_p50_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return bool(self.verdict["ok"]) and all(w.load.ok for w in self.windows)


def run_segment(
    spec: StoreSpec,
    seed: int,
    windows: int,
    *,
    index: int = 0,
    traced: bool = False,
    warmup_s: float = WARMUP_S,
    baseline: bool = False,
    spans_out: str | None = None,
) -> Segment:
    """Start a child, boot to a settled view, warm up, measure, verify.

    Set-up time is everything before the first window opens: child start
    and imports, boot, and the warm-up at the workload's own rate.
    """
    t_start = time.perf_counter()
    with ServerChild(traced=traced, hash_seed=index) as child:
        child.call("hello")
        booted = child.call("boot", n=spec.n_sites, seed=seed)
        if not booted["ok"]:
            raise RuntimeError("cluster did not settle at boot")
        addresses = _addresses(booted)
        loads = [_offer(spec, addresses, seed * 64 + 63, warmup_s, "warm")]
        setup_s = time.perf_counter() - t_start

        before = child.call("mark")["counters"]
        measured = []
        probe = child.call("probe")
        for w in range(windows):
            load = _offer(spec, addresses, seed * 64 + w, WINDOW_S, f"gen{w}")
            after_probe = child.call("probe")
            measured.append(
                Window(
                    load=load,
                    cpu_s=after_probe["cpu_before"] - probe["cpu_after"],
                    scale=calibrate.scale(probe["probe_s"], after_probe["probe_s"]),
                )
            )
            loads.append(load)
            probe = after_probe
        after = child.call("mark")["counters"]
        segment = Segment(
            windows=measured,
            counters=delta(before, after),
            verdict=child.call(
                "verify", tokens=[list(t) for load in loads for t in load.tokens]
            ),
            setup_s=setup_s,
        )
        if traced:
            segment.spans = child.call(
                "spans", since=before["wall_s"], until=after["wall_s"], out=spans_out
            )
        if baseline:
            single = StoreSpec("n1", 300.0, 1, 0.0, "uniform", 100_000, n_sites=1)
            booted = child.call("boot", n=1, seed=seed)
            n1 = _offer(single, _addresses(booted), seed * 64 + 62, BASELINE_S, "n1")
            puts = n1.latency.get("put", ())
            segment.put_n1_p50_ms = 1000.0 * median(puts) if puts else 0.0
        child.call("stop")
    return segment


def _pooled(windows: list[Window]) -> LoadResult:
    """Every window's samples as one load (for the tail rows)."""
    pooled = LoadResult()
    for load in (w.load for w in windows):
        pooled.attempted += load.attempted
        pooled.attempts += load.attempts
        pooled.cpu_s += load.cpu_s
        pooled.wall_s += load.wall_s
        pooled.lateness += load.lateness
        for kind, samples in load.latency.items():
            pooled.latency.setdefault(kind, []).extend(samples)
        for status, count in load.statuses.items():
            pooled.statuses[status] = pooled.statuses.get(status, 0) + count
    return pooled


def _client_metrics(load: LoadResult) -> dict[str, float]:
    """Generator-side rows of the layer table, milliseconds from due time."""
    out: dict[str, float] = {}
    for kind in ("put", "get"):
        samples = [1000.0 * s for s in load.latency.get(kind, ())]
        for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            out[f"client.{kind}_{label}_ms"] = quantile(samples, q) if samples else 0.0
    puts = load.latency.get("put", ())
    out["client.put_max_ms"] = 1000.0 * max(puts) if puts else 0.0
    slow = sum(
        1
        for kind, limit in SLOW_MS.items()
        for s in load.latency.get(kind, ())
        if 1000.0 * s > limit
    )
    out["client.slow_share"] = slow / load.ok if load.ok else 0.0
    out["client.retries_per_op"] = (
        (load.attempts - load.attempted) / load.attempted if load.attempted else 0.0
    )
    out["gen.late_p99_ms"] = 1000.0 * quantile(load.lateness, 0.99)
    out["gen.cpu_s"] = load.cpu_s
    return out


def _flags(load: LoadResult, segments: list[Segment]) -> dict[str, Any]:
    return {
        "generator_saturated": 1000.0 * quantile(load.lateness, 0.99) > SATURATED_MS,
        "spurious_view_changes": int(
            sum(s.counters["gms.site_installs"] for s in segments)
        ),
        "chain_order_divergent_keys": int(
            sum(s.verdict["divergent_keys"] for s in segments)
        ),
    }


def run_untraced(
    spec: StoreSpec, seed: int, seconds: float, quick: bool = False
) -> RunResult:
    """The end-to-end run, tracing off.

    The measured time is split over :data:`SEGMENTS` fresh children and
    clusters, each measuring a row of one-second windows, and latency and
    CPU per op are medians of the per-window values.  The host's speed
    shifts for seconds at a time, and one spurious view change
    (``fd_timeout`` is 160 ms) can push a cluster into seconds of churn;
    a median over a dozen windows on three clusters keeps either from
    deciding a run.  ``quick`` (the smoke mode) runs one short segment.
    """
    count = 1 if quick else SEGMENTS
    per_segment = max(1, round(seconds / count / WINDOW_S))
    segments = [
        run_segment(
            spec,
            seed * 8 + i,
            per_segment,
            index=i,
            warmup_s=WARMUP_S / 4 if quick else WARMUP_S,
        )
        for i in range(count)
    ]
    windows = [w for s in segments for w in s.windows]
    load = _pooled(windows)
    result = RunResult(
        workload=spec.name,
        traced=False,
        correct=all(s.ok for s in segments),
        attempted=load.attempted,
        failed=load.failed,
    )
    result.notes += [
        f"segment {i}: site_installs={int(s.counters['gms.site_installs'])} "
        f"verify={s.verdict}"
        for i, s in enumerate(segments)
    ]
    if not all(w.load.latency.get(spec.main_op) for w in windows):
        result.correct = False
        result.notes.append("a window completed no operation")
        return result
    result.end_to_end = {
        "setup_s": median(s.setup_s for s in segments),
        "op_p50_ms": median(
            w.p50_ms(spec.main_op, spec.cpu_bound_latency) for w in windows
        ),
        "cpu_ms_per_op": median(w.cpu_ms_per_op for w in windows),
        "peak_rss_mb": median(s.counters["rss_mb"] for s in segments),
    }
    result.detail = {
        **_client_metrics(load),
        "samples": float(load.ok_of(spec.main_op)),
        "windows": float(len(windows)),
        "host_scale_min": min(w.scale for w in windows),
        "host_scale_max": max(w.scale for w in windows),
        "raw_p50_ms": median(w.p50_ms(spec.main_op, False) for w in windows),
        "raw_cpu_ms_per_op": median(w.raw_cpu_ms_per_op for w in windows),
        "apps.divergent_keys": float(sum(s.verdict["divergent_keys"] for s in segments)),
    }
    result.flags = _flags(load, segments)
    return result


def run_traced(
    spec: StoreSpec, seed: int, seconds: float, spans_out: str | None = None
) -> RunResult:
    """The layer-table run: an untraced reference segment, then the same
    windows under the boundary wrappers, each half as long as the
    end-to-end run.

    Every row the wrappers would perturb — the ``client.*`` latencies,
    ``gen.*``, and everything derived from counters — is read from the
    reference.  The wrapped segment gives only what nothing else can:
    per-layer self times, the residual, and the rows counted from spans.
    With ``spans_out`` the child writes every span there as JSON lines."""
    from perfbench.probes import micro_probes

    half = max(1, round(seconds / 2.0 / WINDOW_S))
    ref = run_segment(spec, seed, half, warmup_s=WARMUP_S / 2, baseline=True)
    run = run_segment(
        spec, seed, half, warmup_s=WARMUP_S / 2, traced=True, spans_out=spans_out
    )
    load, wrapped = _pooled(ref.windows), _pooled(run.windows)
    result = RunResult(
        workload=spec.name,
        traced=True,
        correct=run.ok and ref.ok,
        attempted=load.attempted + wrapped.attempted,
        failed=load.failed + wrapped.failed,
    )
    result.notes += [f"verify (untraced): {ref.verdict}", f"verify (wrapped): {run.verdict}"]
    if not result.correct or run.spans is None:
        return result
    layers = counter_metrics(
        ref.counters,
        ops=load.ok,
        puts=load.ok_of("put"),
        window_s=ref.counters["wall_s"],
    )
    layers.update(
        span_metrics(
            run.spans,
            ops=wrapped.ok,
            puts_committed=run.counters["apps.puts_committed"],
            sut_cpu_s=run.counters["cpu_s"],
        )
    )
    layers["bench.trace_overhead_ratio"] = median(
        w.cpu_ms_per_op for w in run.windows
    ) / median(w.cpu_ms_per_op for w in ref.windows)
    layers["bench.failed_share"] = load.failed / load.attempted
    layers["apps.divergent_keys"] = float(ref.verdict["divergent_keys"])
    layers.update(_client_metrics(load))
    layers["client.put_n1_p50_ms"] = ref.put_n1_p50_ms
    layers.update(micro_probes())
    result.per_layer = layers
    result.detail = {"spans": float(run.spans["span_count"])}
    result.flags = _flags(load, [ref, run])
    return result
