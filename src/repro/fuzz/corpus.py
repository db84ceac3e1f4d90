"""Fuzz corpus: serialized runs that reached novel protocol coverage.

A corpus entry is everything needed to replay one fuzz run
byte-identically on either runtime: the fault schedule, the workload
shape (application plus client mix), the cluster seed, and — for
bookkeeping — the coverage signature and checker verdicts of the run
that produced it.  Entries serialize to plain JSON via
:meth:`FaultSchedule.to_json_obj`, so a shrunk reproducer checked into
the repository replays the same way on the simulator, on in-process
realnet, or on a multi-process cluster.

The :class:`Corpus` itself is optionally directory-backed: pass a
directory and every added entry lands there as ``<entry-id>.json``; the
seen-feature set is rebuilt from the entries on load, so a fuzz
campaign resumes where the previous one stopped.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ReproError
from repro.net.faults import FaultSchedule
from repro.fuzz.signature import (
    Feature,
    signature_from_json,
    signature_to_json,
)

#: Workload client kinds -> driver constructors (resolved lazily so the
#: corpus module stays importable without a cluster).
CLIENT_KINDS = ("mcast", "file", "lock", "query", "store")


def _client_factory(kind: str, interval: float) -> Callable:
    from repro.workload import clients as _clients

    ctor = {
        "mcast": _clients.MulticastClient,
        "file": _clients.FileClient,
        "lock": _clients.LockClient,
        "query": _clients.QueryClient,
        "store": _clients.StoreClient,
    }.get(kind)
    if ctor is None:
        raise ReproError(
            f"unknown workload client kind {kind!r}; known: {CLIENT_KINDS}"
        )
    return lambda cluster: ctor(cluster, interval=interval)


#: Each application's own workload client (``none`` has none).
APP_CLIENTS = {"file": "file", "db": "query", "store": "store", "lock": "lock"}


def default_clients(app: str) -> tuple[tuple[str, float], ...]:
    """Multicast traffic plus ``app``'s own client, every 15 units."""
    own = APP_CLIENTS.get(app)
    return (("mcast", 10.0),) + (((own, 15.0),) if own else ())


@dataclass
class WorkloadSpec:
    """The reproducible workload shape of one fuzz run.  ``clients``
    defaults to :func:`default_clients` of ``app``."""

    app: str = "file"
    n_sites: int = 5
    clients: tuple[tuple[str, float], ...] | None = None
    tail: float = 250.0  # scenario units of quiet after the last fault

    def __post_init__(self) -> None:
        if self.clients is None:
            self.clients = default_clients(self.app)
        self.clients = tuple((str(k), float(i)) for k, i in self.clients)
        for kind, _interval in self.clients:
            if kind not in CLIENT_KINDS:
                raise ReproError(
                    f"unknown workload client kind {kind!r}; "
                    f"known: {CLIENT_KINDS}"
                )

    def client_factories(self) -> list[Callable]:
        return [_client_factory(kind, ivl) for kind, ivl in self.clients]

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "app": self.app,
            "n_sites": self.n_sites,
            "clients": [[kind, ivl] for kind, ivl in self.clients],
            "tail": self.tail,
        }

    @classmethod
    def from_json_obj(cls, payload: dict[str, Any]) -> "WorkloadSpec":
        return cls(
            app=payload.get("app", "file"),
            n_sites=int(payload.get("n_sites", 5)),
            clients=payload.get("clients"),
            tail=float(payload.get("tail", 250.0)),
        )


@dataclass
class CorpusEntry:
    """One replayable fuzz run plus the verdicts it earned."""

    schedule: FaultSchedule
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    seed: int = 0
    loss_prob: float = 0.0
    kind: str = "seed"  # seed | mutant | shrunk
    parent: str | None = None  # entry id this one was mutated from
    #: Bug deliberately planted for the run (test-only hook); replay
    #: re-plants it so the reproducer actually reproduces.
    planted_bug: str | None = None
    signature: frozenset[Feature] = frozenset()
    failing_checkers: tuple[str, ...] = ()
    violations: tuple[str, ...] = ()

    @property
    def entry_id(self) -> str:
        """Content hash over the replay-relevant fields — stable across
        sessions, so a corpus directory never collects duplicates."""
        payload = json.dumps(
            {
                "schedule": self.schedule.to_json_obj(),
                "workload": self.workload.to_json_obj(),
                "seed": self.seed,
                "loss_prob": self.loss_prob,
                "planted_bug": self.planted_bug,
            },
            sort_keys=True,
        )
        digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
        return f"{self.kind}-{digest}"

    @property
    def failed(self) -> bool:
        return bool(self.failing_checkers)

    def with_schedule(self, schedule: FaultSchedule) -> "CorpusEntry":
        """A shrink/mutation candidate: same run, different schedule,
        verdicts reset (they belong to the old schedule)."""
        return replace(
            self,
            schedule=schedule,
            signature=frozenset(),
            failing_checkers=(),
            violations=(),
        )

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "schedule": self.schedule.to_json_obj(),
            "workload": self.workload.to_json_obj(),
            "seed": self.seed,
            "loss_prob": self.loss_prob,
            "kind": self.kind,
            "parent": self.parent,
            "planted_bug": self.planted_bug,
            "signature": signature_to_json(self.signature),
            "failing_checkers": list(self.failing_checkers),
            "violations": list(self.violations),
        }

    @classmethod
    def from_json_obj(cls, payload: dict[str, Any]) -> "CorpusEntry":
        if "schedule" not in payload:
            raise ReproError("corpus entry JSON lacks a 'schedule'")
        return cls(
            schedule=FaultSchedule.from_json_obj(payload["schedule"]),
            workload=WorkloadSpec.from_json_obj(payload.get("workload", {})),
            seed=int(payload.get("seed", 0)),
            loss_prob=float(payload.get("loss_prob", 0.0)),
            kind=payload.get("kind", "seed"),
            parent=payload.get("parent"),
            planted_bug=payload.get("planted_bug"),
            signature=signature_from_json(payload.get("signature", [])),
            failing_checkers=tuple(payload.get("failing_checkers", [])),
            violations=tuple(payload.get("violations", [])),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_obj(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CorpusEntry":
        return cls.from_json_obj(json.loads(text))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CorpusEntry":
        return cls.from_json(Path(path).read_text())


class Corpus:
    """The evolving population of coverage-novel entries."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.entries: dict[str, CorpusEntry] = {}
        self.seen: set[Feature] = set()
        #: How many corpus entries exhibit each feature — the basis of
        #: rarity-weighted parent selection; rebuilt on load so a
        #: resumed campaign weighs exactly like an uninterrupted one.
        self.feature_counts: dict[Feature, int] = {}
        if self.directory is not None and self.directory.is_dir():
            for path in sorted(self.directory.glob("*.json")):
                try:
                    entry = CorpusEntry.load(path)
                except (ReproError, json.JSONDecodeError):
                    continue  # foreign JSON in the corpus dir; skip
                self.entries[entry.entry_id] = entry
                self.seen |= entry.signature
                self._count(entry)

    def _count(self, entry: CorpusEntry) -> None:
        for feature in entry.signature:
            self.feature_counts[feature] = self.feature_counts.get(feature, 0) + 1

    def novel_features(self, signature: frozenset[Feature]) -> set[Feature]:
        return set(signature) - self.seen

    def add(self, entry: CorpusEntry) -> set[Feature]:
        """Record the entry; returns the features it contributed."""
        fresh = self.novel_features(entry.signature)
        self.seen |= entry.signature
        self.entries[entry.entry_id] = entry
        self._count(entry)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            entry.save(self.directory / f"{entry.entry_id}.json")
        return fresh

    def rarity_weight(self, entry: CorpusEntry) -> float:
        """Mutation-parent weight: ``1 + sum(1/count(f))`` over the
        entry's features, so an entry holding features few others have
        is proportionally more likely to be picked, while the constant
        keeps every entry — and empty signatures — in play."""
        return 1.0 + sum(
            1.0 / self.feature_counts[f]
            for f in entry.signature
            if self.feature_counts.get(f)
        )

    @property
    def failing(self) -> list[CorpusEntry]:
        return [e for e in self.entries.values() if e.failed]

    def stats(self) -> dict[str, Any]:
        kinds: dict[str, int] = {}
        for entry in self.entries.values():
            kinds[entry.kind] = kinds.get(entry.kind, 0) + 1
        return {
            "entries": len(self.entries),
            "features": len(self.seen),
            "failing": len(self.failing),
            "kinds": kinds,
        }
