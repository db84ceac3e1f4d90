"""Per-site stable storage.

The application model (Section 3) lets part of a process's local state be
*permanent* and survive crashes.  Crashing destroys a process's volatile
state and its identifier; the stable store belongs to the *site* and is
handed to the next incarnation.  The state-creation machinery
(:mod:`repro.core.state_creation`) keeps its view log here, which is what
makes "determining the last process to fail" possible after a total
failure, exactly as in Skeen's algorithm cited by the paper.

Snapshot semantics with a copy-on-write fast path: a write must behave
like a force-write to disk — the writer keeping a reference to the value
must not be able to mutate what was "persisted".  For a *recursively
immutable* value (numbers, strings, tuples/frozensets of immutables —
the identifier named tuples of :mod:`repro.types` among them — and
frozen dataclasses of immutables) sharing the object IS a snapshot, so
the blanket ``copy.deepcopy`` the
first implementation used is skipped entirely; only values that can
actually be mutated are deep-copied.  Protocol-critical writes (epoch
counters, view logs of frozen records) hit the zero-copy path.
"""

from __future__ import annotations

import copy
from dataclasses import fields, is_dataclass
from typing import Any, Iterator

from repro.types import SiteId

_ATOMIC = (int, float, complex, bool, str, bytes, type(None))
_CONTAINERS = (tuple, frozenset)

# How instances of a class are judged: shared outright, never shared, by
# their items, or (a tuple of names) by the values of those fields.
_SHARE, _COPY, _ITEMS = "share", "copy", "items"

#: The judgement of every class seen so far.  Only facts about the
#: *class* are kept — its frozen flag and field list cannot change; the
#: values its instances hold can, so those are walked on every call.
_SHAPES: dict[type, "str | tuple[str, ...]"] = {
    **{kind: _SHARE for kind in _ATOMIC},
    **{kind: _ITEMS for kind in _CONTAINERS},
}


def _shape_of(kind: type) -> "str | tuple[str, ...]":
    """Classify a class on first sight (subclasses included: an
    ``IntEnum`` is atomic, a namedtuple is a tuple)."""
    shape: "str | tuple[str, ...]" = _COPY
    if issubclass(kind, _ATOMIC):
        shape = _SHARE
    elif issubclass(kind, _CONTAINERS):
        shape = _ITEMS
    elif is_dataclass(kind):
        params = getattr(kind, "__dataclass_params__", None)
        if params is not None and params.frozen:
            shape = tuple(f.name for f in fields(kind)) or _SHARE
    _SHAPES[kind] = shape
    return shape


def _is_immutable(value: Any) -> bool:
    """True iff ``value`` is recursively immutable (safe to share).

    The check must stay structural: a frozen dataclass may still carry a
    mutable object in an ``Any`` field (e.g. a ``Message`` payload), so
    verdicts about *values* cannot be cached per type — only the shape
    of the type is (``_SHAPES``).
    """
    kind = type(value)
    shape = _SHAPES.get(kind) or _shape_of(kind)
    if shape is _SHARE:
        return True
    if shape is _COPY:
        return False
    if shape is _ITEMS:
        return all(map(_is_immutable, value))
    for name in shape:
        if not _is_immutable(getattr(value, name)):
            return False
    return True


def snapshot(value: Any) -> Any:
    """An isolated snapshot of ``value``: the value itself when it is
    recursively immutable, a deep copy otherwise."""
    if _is_immutable(value):
        return value
    return copy.deepcopy(value)


class SiteStorage:
    """Stable key/value storage of a single site.

    Writes and reads exchange snapshots (see module docstring) so a
    crashed process cannot keep mutating what it "persisted" — writes
    are atomic, like a force-write to disk.
    """

    def __init__(self, site: SiteId) -> None:
        self.site = site
        self._data: dict[str, Any] = {}
        # Cumulative force-writes, for the exact cost of a run
        # (repro.trace.stats.cost_vector).
        self.writes = 0
        self.appends = 0

    def write(self, key: str, value: Any) -> None:
        """Atomically persist ``value`` under ``key``."""
        self.writes += 1
        self._data[key] = snapshot(value)

    def read(self, key: str, default: Any = None) -> Any:
        """Return a private snapshot of the persisted value (or ``default``)."""
        if key not in self._data:
            return default
        return snapshot(self._data[key])

    def append(self, key: str, item: Any) -> None:
        """Append ``item`` to the list persisted under ``key``."""
        self.appends += 1
        log = self._data.setdefault(key, [])
        log.append(snapshot(item))

    def keys(self) -> Iterator[str]:
        return iter(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def wipe(self) -> None:
        """Destroy the site's storage (models disk loss, used in tests)."""
        self._data.clear()


class StableStore:
    """The collection of every site's stable storage in a run."""

    def __init__(self) -> None:
        self._sites: dict[SiteId, SiteStorage] = {}

    def site(self, site: SiteId) -> SiteStorage:
        """Return (creating on first use) the storage of ``site``."""
        if site not in self._sites:
            self._sites[site] = SiteStorage(site)
        return self._sites[site]
