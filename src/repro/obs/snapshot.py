"""Frozen snapshot types for metric export and wire transport.

A :class:`MetricsSnapshot` is a point-in-time copy of a registry: a flat
tuple of :class:`MetricSample` rows, sorted by ``(name, labels)`` so two
snapshots of equal state serialize byte-identically.  Both types are
plain frozen dataclasses built from the wire codec's value vocabulary
(strings, floats, ints, nested tuples), so they are registered wire
payloads (see :mod:`repro.realnet.codec`) and travel the link protocol
for ``repro obs watch``.

Merging snapshots sums counters, gauges and histograms key-wise.  That
matches the merge semantics of the underlying quantities (per-node
counters add up to cluster totals); it is associative as long as the
summed values are exactly representable, which holds for all counts and
for virtual-time sums in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MetricSample", "MetricsSnapshot", "merge_snapshots"]


@dataclass(frozen=True)
class MetricSample:
    """One exported time series at one instant.

    ``value`` is the counter/gauge value, or the running sum for a
    histogram.  ``count`` and ``buckets`` are only populated for
    histograms; ``buckets`` holds cumulative ``(upper_bound, count)``
    pairs ending with ``(inf, count)``, i.e. Prometheus ``le`` form.
    """

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: tuple[tuple[str, str], ...]
    value: float
    count: int = 0
    buckets: tuple[tuple[float, int], ...] = ()

    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)


@dataclass(frozen=True)
class MetricsSnapshot:
    """A registry's state at one instant, ready for export or the wire."""

    source: str  # who took it: "cluster", "site3", "merged", ...
    runtime: str  # "sim" | "realnet"
    time: float  # registry clock at snapshot time (virtual or wall)
    samples: tuple[MetricSample, ...]

    def sample(self, name: str, **labels: str) -> MetricSample | None:
        """First sample matching ``name`` and the given label subset."""
        want = labels.items()
        for s in self.samples:
            if s.name == name and all(
                dict(s.labels).get(k) == v for k, v in want
            ):
                return s
        return None

    def total(self, name: str) -> float:
        """Sum of ``value`` over every sample named ``name``."""
        return sum(s.value for s in self.samples if s.name == name)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted({s.name for s in self.samples}))


def _merge_buckets(
    a: tuple[tuple[float, int], ...], b: tuple[tuple[float, int], ...]
) -> tuple[tuple[float, int], ...]:
    if not a:
        return b
    if not b:
        return a
    merged: dict[float, int] = {}
    for le, cnt in a:
        merged[le] = merged.get(le, 0) + cnt
    for le, cnt in b:
        merged[le] = merged.get(le, 0) + cnt
    return tuple(sorted(merged.items()))


def merge_snapshots(
    *snapshots: MetricsSnapshot, source: str = "merged"
) -> MetricsSnapshot:
    """Key-wise sum of any number of snapshots.

    Counters, gauges, histogram sums/counts and bucket counts all add;
    the merged time is the max of the inputs.  The runtime is preserved
    when all inputs agree and reported as ``"mixed"`` otherwise.
    """
    keyed: dict[tuple[str, str, tuple[tuple[str, str], ...]], MetricSample] = {}
    runtimes: list[str] = []
    at = 0.0
    for snap in snapshots:
        if snap.runtime and snap.runtime not in runtimes:
            runtimes.append(snap.runtime)
        at = max(at, snap.time)
        for s in snap.samples:
            key = (s.name, s.kind, s.labels)
            prev = keyed.get(key)
            if prev is None:
                keyed[key] = s
            else:
                keyed[key] = MetricSample(
                    name=s.name,
                    kind=s.kind,
                    labels=s.labels,
                    value=prev.value + s.value,
                    count=prev.count + s.count,
                    buckets=_merge_buckets(prev.buckets, s.buckets),
                )
    samples = tuple(
        keyed[key] for key in sorted(keyed, key=lambda k: (k[0], k[2], k[1]))
    )
    runtime = runtimes[0] if len(runtimes) == 1 else ("mixed" if runtimes else "")
    return MetricsSnapshot(source=source, runtime=runtime, time=at, samples=samples)
