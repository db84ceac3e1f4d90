"""One run's outcome, the host it ran on, and how both are printed."""

from __future__ import annotations

import asyncio
import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from typing import Any

from perfbench import ROOT
from perfbench.catalogue import END_TO_END, OP_UNITS, PER_LAYER


@dataclass
class RunResult:
    """Everything one run of one workload measured.

    ``end_to_end`` is filled by untraced runs only and ``per_layer`` by
    traced runs only, so an end-to-end number can never come from a run
    that paid for tracing.  ``detail`` holds ungated extras worth
    printing (component times, sample counts).
    """

    workload: str
    traced: bool
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    detail: dict[str, float] = field(default_factory=dict)
    #: Values that must repeat exactly for a seed (sim workloads only).
    exact: dict[str, Any] = field(default_factory=dict)
    flags: dict[str, Any] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def metrics(self) -> dict[str, dict[str, Any]]:
        """The contract's ``metrics`` object: every catalogued metric of
        this run's kind, by name, with its unit.  A layer the workload
        does not touch reads 0; a missing end-to-end metric is an error."""
        if self.traced:
            unknown = set(self.per_layer) - {m.name for m in PER_LAYER}
            if unknown:
                raise KeyError(f"uncatalogued per-layer metrics: {sorted(unknown)}")
            return {
                m.name: {"value": float(self.per_layer.get(m.name, 0.0)), "unit": m.unit}
                for m in PER_LAYER
            }
        return {
            m.name: {"value": float(self.end_to_end[m.name]), "unit": m.unit}
            for m in END_TO_END
        }

    def final_line(self) -> str:
        return json.dumps(
            {
                "correct": bool(self.correct),
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": self.metrics(),
            }
        )


def host_info() -> dict[str, Any]:
    """Host and validity metadata carried by every result row."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=5.0,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    try:
        import uvloop  # type: ignore[import-not-found]  # noqa: F401

        loop_impl = "uvloop"
    except ImportError:
        loop = asyncio.new_event_loop()
        loop_impl = type(loop).__name__
        loop.close()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loop": loop_impl,
        "commit": commit or "unknown",  # the driver's checkout is not a git repository
        "load1": round(os.getloadavg()[0], 2),
    }


def print_result(result: RunResult, host: dict[str, Any]) -> None:
    """Every metric by name with its unit, then flags and host."""
    kind = "traced" if result.traced else "untraced"
    print(f"== {result.workload} ({kind}) ==  one op: {OP_UNITS[result.workload]}")
    for name, cell in result.metrics().items():
        print(f"{name:36s} {cell['value']:>16.6g} {cell['unit']}")
    for name, value in sorted(result.detail.items()):
        print(f"  ~{name:33s} {value:>16.6g}")
    share = result.failed / result.attempted if result.attempted else 1.0
    print(
        f"attempted={result.attempted} failed={result.failed} "
        f"failed_share={share:.6f} correct={result.correct}"
    )
    for note in result.notes:
        print(f"note: {note}")
    print("meta " + json.dumps({"workload": result.workload, **result.flags, **host}))
