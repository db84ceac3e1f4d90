"""The repository benchmark: out-of-process store load, seeded sim
workloads, and an outside-in layer table.  See ``perfbench/README.md``.

The package only *drives* ``src/repro`` through its public surfaces; it
adds ``<repo>/src`` to ``sys.path`` itself so the driver can start it
with a bare ``python3 perfbench/run.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def add_src_to_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``.

    A checkout holding only the benchmark's own files has no ``src/``;
    the caller's ``import repro`` then fails and the run exits non-zero
    without printing a result, as the benchmark contract asks.
    """
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
