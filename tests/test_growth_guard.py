"""Nothing a running node holds grows with the length of its history.

Aim 3 asks for bounded memory everywhere, and a long soak measures
whatever grows with history, not the protocol.  This guard runs one
simulated store scenario with faults (open-loop puts and gets through
crash/recover and partition/heal cycles) at one and at four times its
length, walks every object reachable from each stack, the network and
the scheduler, and adds up the sizes of the containers each attribute
holds, under the attribute's ``Owner.attr`` name (a container inside a
container counts toward the attribute that holds the outer one).  A
name whose total at 4x is at least twice its total at 1x plus
:data:`SLACK` grows with the run, and fails the guard unless
:data:`ALLOWED` lists it with the reason it grows and the ROADMAP item
that removes it.  The second test fails when an allowed name stops
growing, so the table only shrinks.

One thing is bounded by construction and is not counted: an object
that carries an int ``capacity`` (the trace recorder built with
``trace_capacity``, the span maps) bounds the containers it holds
directly; what their elements hold is still counted.  Crashed processes
are walked like live ones, so what a dead incarnation leaves behind
counts as growth per crash.

The same walk holds the trace checks to bounded state: run over the
whole trace of each scenario in one pass, a monitor (and the view
lifetimes and store replay they share) may keep per-delivery and
per-message state only for the views still open, and whatever of theirs
grows with the run is named in :data:`MONITORS_ALLOWED`.
"""

from __future__ import annotations

import collections
import copy
import functools
import types

from repro.net.faults import Crash, FaultSchedule, Heal, Partition, Recover
from repro.ports import make_cluster
from repro.trace.checks import CHECKS, CheckPass, make_checkers
from repro.workload.openloop import LoadSpec, OpenLoopLoad

#: Scenario units of one fault cycle: a crash and its recovery, then a
#: partition and its heal, under load throughout.
CYCLE = 400.0

#: Growth the guard forgives between 1x and 4x, in elements: what a
#: run's end state varies by (timers pending, a structure mid-merge).
SLACK = 32

#: Names that grow with the run, with why and the item that bounds them.
ALLOWED = {
    "VersionedStore.chains": (
        "every version ever written stays in its key's chain",
        "ROADMAP 10(a), a per-key stable cut",
    ),
    "VersionedStore._client_index": (
        "one exactly-once entry (the put's provenance) per put ever made",
        "ROADMAP 10(b), a per-client high-water mark",
    ),
    "VersionedStore._applied_prefixes": (
        "one high-water seqno per writer per view, kept for every view",
        "ROADMAP 3(a), a stable cut below which no buffered op can replay",
    ),
    "SiteStorage._data": (
        "the persisted op log and base hold the chains and both indexes",
        "ROADMAP 10(a)-(d), with the structures they persist",
    ),
    "AppEvent.data": (
        "a store_state audit event lists every provenance its replica "
        "holds, so a bounded trace still holds the store's history; it "
        "references the chain entries' own provenances, not copies",
        "ROADMAP 10, once chains are bounded",
    ),
}

#: Monitor state that grows with the run (``Monitor/Owner.attr``), with why.
MONITORS_ALLOWED = {
    "Uniqueness/Seqnos.high": (
        "one high-water seqno per (sender, view): the messages delivered"
    ),
    "Integrity/Seqnos.high": (
        "one high-water seqno per (sender, view): the messages multicast"
    ),
    "AckedWriteLoss.acked": "one entry per acked write, as the store keeps",
    "AckedWriteLoss.holdings": (
        "each replica's versions: its last inventory (the trace's own "
        "tuple) and what it applied since; bounded with the store's chains "
        "(ROADMAP 10)"
    ),
    "StoreReplay.chains": (
        "a replica of each store's chains, the one replay the store checks "
        "share; bounded with them (ROADMAP 10)"
    ),
}

_CONTAINERS = (list, dict, set, frozenset, collections.deque, tuple)
_ATOMS = (int, float, complex, str, bytes, type(None), type, types.ModuleType)


def _run(cycles: int, trace_capacity: int | None = 2000):
    """The store scenario, ``cycles`` fault cycles long, settled."""
    n = 5
    cluster = make_cluster(
        "sim", n, app="store", seed=7, trace_capacity=trace_capacity
    )
    assert cluster.settle()
    schedule = FaultSchedule()
    for cycle in range(cycles):
        t = cycle * CYCLE
        schedule.add(Crash(t + 40.0, n - 1))
        schedule.add(Recover(t + 120.0, n - 1))
        schedule.add(Partition(t + 200.0, ((0, 1, 2), (3, 4))))
        schedule.add(Heal(t + 300.0))
    cluster.arm(schedule)
    spec = LoadSpec(
        rate=0.4, duration=cycles * CYCLE, clients=4, n_keys=32,
        read_fraction=0.5, seed=7,
    )
    assert OpenLoopLoad(cluster, spec).run().completed
    cluster.run_for(100.0)
    assert cluster.settle()
    return cluster


def _attributes(obj) -> dict:
    attrs = dict(getattr(obj, "__dict__", {}))
    for slot in getattr(type(obj), "__slots__", ()):
        if hasattr(obj, slot):
            attrs[slot] = getattr(obj, slot)
    return attrs


def container_sizes(roots, seen: set[int] | None = None) -> collections.Counter:
    """``Owner.attr`` -> elements held, over everything ``roots`` reach
    (breadth first, each object once, and none of the ids in ``seen``,
    which the walk adds to)."""
    sizes: collections.Counter = collections.Counter()
    seen = set() if seen is None else seen
    frontier = [("", root) for root in roots]
    while frontier:
        reached = []
        for name, obj in frontier:
            if isinstance(obj, _ATOMS) or id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, _CONTAINERS):
                if name and not hasattr(obj, "_fields"):  # a record is no container
                    sizes[name] += len(obj)
                elements = obj.items() if isinstance(obj, dict) else obj
                reached += [(name, element) for element in elements]
                continue
            capacity = getattr(obj, "capacity", getattr(obj, "_capacity", None))
            bounded = isinstance(capacity, int)
            owner = type(obj).__name__
            for attr, value in _attributes(obj).items():
                named = not (bounded and isinstance(value, _CONTAINERS))
                reached.append((f"{owner}.{attr}" if named else "", value))
            if hasattr(obj, "__self__"):  # a bound method's receiver
                reached.append(("", obj.__self__))
        frontier = reached
    return sizes


@functools.lru_cache(maxsize=None)
def _cluster(cycles: int):
    return _run(cycles)


@functools.lru_cache(maxsize=None)
def _sizes(cycles: int) -> collections.Counter:
    cluster = _cluster(cycles)
    return container_sizes(
        [*cluster.stacks.values(), cluster.network, cluster.scheduler]
    )


def growing(sizes=_sizes) -> dict[str, tuple[int, int]]:
    """Names whose size at 4x is at least twice that at 1x plus SLACK."""
    short, long = sizes(1), sizes(4)
    return {
        name: (short[name], long[name])
        for name in sorted(set(short) | set(long))
        if long[name] >= 2 * short[name] + SLACK
    }


def test_nothing_grows_with_the_run_unless_allowed():
    grown = {name: sizes for name, sizes in growing().items() if name not in ALLOWED}
    assert not grown, (
        f"containers that grow with run length (elements at 1x, 4x): {grown}; "
        f"bound each, or give it an ALLOWED entry with its reason and the "
        f"ROADMAP item that bounds it"
    )


def test_every_allowed_entry_still_grows():
    grown = growing()
    stale = sorted(name for name in ALLOWED if name not in grown)
    assert not stale, f"bounded now, drop them from ALLOWED: {stale}"


def test_applied_prefixes_grow_with_views_not_operations():
    """One entry per writer per view it was in, so a replica holds no
    more entries than the installs summed over every site's
    incarnations (at most sites x views installed), and that is fewer
    than the operations it applied."""
    cluster = _cluster(4)
    installs = cluster.metrics_snapshot().total("view_changes_total")
    for site, app in cluster.apps.items():
        held = len(app._applied_prefixes)
        assert held <= installs < app.version, (site, held, installs, app.version)


def _series(cluster) -> int:
    return sum(len(family._children) for family in cluster.metrics._families.values())


def test_metric_series_do_not_grow_with_crashes():
    """Per-process metrics are labelled by site, so a recovery continues
    its site's series instead of adding one per incarnation."""
    assert _series(_cluster(1)) == _series(_cluster(4))


@functools.lru_cache(maxsize=None)
def _checked(cycles: int) -> CheckPass:
    """Every check, fed the whole trace of the scenario in one pass and
    not yet asked for its report (which would let the open views go)."""
    checking = CheckPass(make_checkers(CHECKS))
    checking.feed_all(_run(cycles, trace_capacity=None).gather_trace().events)
    assert not checking.crashes
    return checking


@functools.lru_cache(maxsize=None)
def _monitor_sizes(cycles: int) -> collections.Counter:
    """``Monitor/Owner.attr`` -> elements held, per monitor, and what
    the pass shares between them (the view lifetimes and the store
    replay) once, under their own names.  A monitor's ``held`` is left
    out: it is the open views' state, which
    :func:`test_monitors_hold_state_only_for_open_views` bounds, and
    its size is a matter of where the run ended."""
    checking = _checked(cycles)
    shared: set[int] = set()
    sizes = container_sizes([checking.views, checking.stores], shared)
    for monitor in checking.monitors:
        kept = copy.copy(monitor)
        kept.held = {}
        for name, size in container_sizes([kept], set(shared)).items():
            owner = type(monitor).__name__
            sizes[name if name.startswith(owner + ".") else f"{owner}/{name}"] += size
    return sizes


def test_monitors_hold_state_only_for_open_views():
    for cycles in (1, 4):
        checking = _checked(cycles)
        still_open = set(checking.views.open)
        assert len(still_open) <= 2, still_open
        for monitor in checking.monitors:
            assert set(monitor.held) <= still_open, (monitor.name, cycles)


def test_no_monitor_state_grows_with_the_run_unless_allowed():
    grown = {
        name: sizes
        for name, sizes in growing(_monitor_sizes).items()
        if name not in MONITORS_ALLOWED
    }
    assert not grown, (
        f"monitor state that grows with run length (elements at 1x, 4x): "
        f"{grown}; let it go when its view closes, or name it in "
        f"MONITORS_ALLOWED with the reason"
    )


def test_every_allowed_monitor_entry_still_grows():
    grown = growing(_monitor_sizes)
    stale = sorted(name for name in MONITORS_ALLOWED if name not in grown)
    assert not stale, f"bounded now, drop them from MONITORS_ALLOWED: {stale}"
