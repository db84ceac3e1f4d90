"""Snapshot exporters: Prometheus text format and JSONL.

Both formats are pure functions of a :class:`MetricsSnapshot`, whose
samples are already sorted — so for the simulator the exported bytes
are a deterministic function of the seed, and two identical seeded runs
produce byte-identical files.

Prometheus exposition (text format 0.0.4): one ``# TYPE`` line per
family, histogram samples expanded into ``_bucket{le=...}`` /
``_sum`` / ``_count`` series.  The snapshot's ``runtime`` travels as a
``runtime`` label on every series so sim and realnet scrapes of the
same workload coexist in one store.

JSONL: a meta line followed by one JSON object per sample — the format
``--metrics-jsonl`` writes (``repro run``, ``obs report``, ``fuzz run``) and downstream tooling greps.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

from repro.obs.snapshot import MetricSample, MetricsSnapshot

__all__ = ["to_prometheus", "to_jsonl", "write_prometheus", "write_jsonl"]


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_bound(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    return repr(bound)


def _fmt_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labelstr(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return "{" + inner + "}"


def to_prometheus(
    snapshot: MetricsSnapshot, help_texts: Mapping[str, str] | None = None
) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    help_texts = help_texts or {}
    lines: list[str] = []
    last_name: str | None = None
    for s in snapshot.samples:
        labels = s.labels + (("runtime", snapshot.runtime),)
        if s.name != last_name:
            text = help_texts.get(s.name)
            if text:
                lines.append(f"# HELP {s.name} {_escape(text)}")
            lines.append(f"# TYPE {s.name} {s.kind}")
            last_name = s.name
        if s.kind == "histogram":
            for bound, cum in s.buckets:
                blabels = labels + (("le", _fmt_bound(bound)),)
                lines.append(f"{s.name}_bucket{_labelstr(blabels)} {cum}")
            lines.append(f"{s.name}_sum{_labelstr(labels)} {_fmt_value(s.value)}")
            lines.append(f"{s.name}_count{_labelstr(labels)} {s.count}")
        else:
            lines.append(f"{s.name}{_labelstr(labels)} {_fmt_value(s.value)}")
    return "\n".join(lines) + "\n"


def _sample_obj(s: MetricSample) -> dict:
    obj: dict = {
        "name": s.name,
        "kind": s.kind,
        "labels": dict(s.labels),
        "value": s.value,
    }
    if s.kind == "histogram":
        obj["count"] = s.count
        obj["buckets"] = [
            ["+Inf" if math.isinf(le) else le, cum] for le, cum in s.buckets
        ]
    return obj


def to_jsonl(snapshot: MetricsSnapshot) -> str:
    """Render a snapshot as JSONL: one meta line, then one line per sample."""
    lines = [
        json.dumps(
            {
                "source": snapshot.source,
                "runtime": snapshot.runtime,
                "time": snapshot.time,
                "samples": len(snapshot.samples),
            },
            sort_keys=True,
        )
    ]
    for s in snapshot.samples:
        lines.append(json.dumps(_sample_obj(s), sort_keys=True))
    return "\n".join(lines) + "\n"


def write_prometheus(
    snapshot: MetricsSnapshot,
    path: str,
    help_texts: Mapping[str, str] | None = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_prometheus(snapshot, help_texts))


def write_jsonl(snapshot: MetricsSnapshot, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_jsonl(snapshot))
