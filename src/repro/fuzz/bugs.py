"""Test-only planted protocol bugs.

The fuzzer's end-to-end regression needs a *known* defect the checkers
must find: a hook in shared stack code that, when armed, makes the
protocol misbehave in a specific way.  The hooks live here, in one
registry, so production code pays a dict lookup only at the few guarded
call sites and tests can arm/disarm them without monkeypatching.

Bugs are armed per *process* (module state), which covers both the
simulator and the in-process ``realnet`` runtime — the same planted bug
reproduces on either side of the :class:`~repro.ports.ClusterPort`.
For child processes (``realnet-proc``) the ``REPRO_FUZZ_BUG``
environment variable arms bugs at import time, comma-separated.

This module must stay dependency-free (no :mod:`repro` imports): it is
imported from :mod:`repro.core.settlement`, far below the fuzz package.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

#: The bugs shared stack code knows how to express.
KNOWN_BUGS = frozenset(
    {
        # The settlement leader never starts (or retries) a session:
        # every member that entered S-mode stays there forever.
        "lost_settlement",
        # The settlement leader adopts its *own* possibly-stale state
        # instead of the donors' offers on transfer/merge sessions.
        "stale_transfer",
        # The versioned store appends each write in arrival order instead
        # of inserting it by provenance: replicas that saw two writers'
        # puts in different orders end with different chains and heads.
        "append_order",
    }
)

_armed: set[str] = set()


def plant(name: str) -> None:
    """Arm a planted bug for this process."""
    if name not in KNOWN_BUGS:
        raise ValueError(
            f"unknown planted bug {name!r}; known: {sorted(KNOWN_BUGS)}"
        )
    _armed.add(name)


def clear(name: str | None = None) -> None:
    """Disarm one bug, or all of them."""
    if name is None:
        _armed.clear()
    else:
        _armed.discard(name)


def active(name: str) -> bool:
    """Is this bug armed?  The guard production call sites use."""
    return name in _armed


def armed() -> frozenset[str]:
    return frozenset(_armed)


@contextmanager
def planted(name: str | None) -> Iterator[None]:
    """Arm ``name`` (no-op when None) for the duration of a block."""
    if name is None:
        yield
        return
    plant(name)
    try:
        yield
    finally:
        clear(name)


for _name in filter(None, os.environ.get("REPRO_FUZZ_BUG", "").split(",")):
    plant(_name.strip())
