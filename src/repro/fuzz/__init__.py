"""Coverage-guided protocol fuzzer with trace checkers chosen by name.

The fuzzer *generates* fault schedules plus client workloads, executes
them on any :class:`~repro.ports.ClusterPort` runtime through
:func:`~repro.workload.runner.run_checked_workload`, extracts a
protocol-coverage signature from the merged trace (view-graph shapes,
e-view merge patterns, mode-transition sequences, cluster
decompositions — :mod:`repro.fuzz.signature`), and keeps mutating the
corpus entries that reach novel signatures (:mod:`repro.fuzz.engine`).
A failing schedule is shrunk to a minimal reproducer
(:mod:`repro.fuzz.shrink`) serialized as JSON (:mod:`repro.fuzz.corpus`)
so it replays byte-identically in sim or over real sockets.

A run is judged by the paper's property checks plus the
sequence-pattern detectors it names, RESTler-style: every check is a
monitor fed the merged trace in one pass, listed under its report name
in one table (:data:`repro.trace.checks.CHECKS`).

This ``__init__`` stays lazy: :mod:`repro.core.settlement` imports
:mod:`repro.fuzz.bugs` (the planted-bug hooks), so importing the
package must not drag in the engine — which imports the core back.

See ``docs/fuzzing.md`` for the architecture and workflows.
"""

from __future__ import annotations

from typing import Any

_EXPORTS = {
    "FuzzConfig": "repro.fuzz.engine",
    "FuzzEngine": "repro.fuzz.engine",
    "coverage_signature": "repro.fuzz.signature",
    "Corpus": "repro.fuzz.corpus",
    "CorpusEntry": "repro.fuzz.corpus",
    "WorkloadSpec": "repro.fuzz.corpus",
    "shrink_entry": "repro.fuzz.shrink",
}

__all__ = sorted(_EXPORTS) + ["bugs"]


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
