"""Seeded random generation of adversarial fault schedules.

Produces well-formed fault schedules (no double crashes, recoveries
only of crashed sites, partitions over the full universe) whose mix of
crashes, recoveries, partitions and repairs is controlled by weights.
The same seed always yields the same schedule, so any failing
adversarial run is replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.net.faults import (
    Crash,
    FaultSchedule,
    Heal,
    OneWayCut,
    OneWayHeal,
    Partition,
    Recover,
)


#: The action kinds ``weights`` may mention; anything else is a typo
#: that would otherwise silently skew the mix.
KNOWN_WEIGHT_KEYS = frozenset({"crash", "recover", "partition", "heal", "oneway"})

#: Weight given to one-way cuts when ``asymmetric=True`` and the caller
#: did not set an explicit ``oneway`` weight.
DEFAULT_ONEWAY_WEIGHT = 0.75


@dataclass
class RandomFaultGenerator:
    """Generator of random, valid fault schedules."""

    n_sites: int
    seed: int = 0
    start: float = 120.0
    duration: float = 600.0
    mean_gap: float = 60.0
    weights: dict[str, float] = field(
        default_factory=lambda: {
            "crash": 1.0,
            "recover": 1.5,
            "partition": 1.0,
            "heal": 1.5,
            "oneway": 0.0,  # opt-in: asymmetric link cuts
        }
    )
    max_down_fraction: float = 0.5
    settle_tail: float = 250.0
    #: Include asymmetric (one-way) link cuts by default: gives the
    #: ``oneway`` kind :data:`DEFAULT_ONEWAY_WEIGHT` unless the weights
    #: dict already names it explicitly (non-zero).
    asymmetric: bool = False

    def __post_init__(self) -> None:
        unknown = set(self.weights) - KNOWN_WEIGHT_KEYS
        if unknown:
            raise ValueError(
                f"unknown fault weights {sorted(unknown)}; "
                f"known kinds: {sorted(KNOWN_WEIGHT_KEYS)}"
            )
        if self.asymmetric and not self.weights.get("oneway", 0.0):
            self.weights = {**self.weights, "oneway": DEFAULT_ONEWAY_WEIGHT}

    def generate(self) -> FaultSchedule:
        rng = random.Random(self.seed)
        schedule = FaultSchedule()
        down: set[int] = set()
        partitioned = False
        oneway_cuts: set[tuple[int, int]] = set()
        time = self.start
        end = self.start + self.duration
        while time < end:
            action = self._pick_action(rng, down, partitioned)
            if action == "crash":
                site = rng.choice(sorted(set(range(self.n_sites)) - down))
                down.add(site)
                schedule.add(Crash(time, site))
            elif action == "recover":
                site = rng.choice(sorted(down))
                down.discard(site)
                schedule.add(Recover(time, site))
            elif action == "partition":
                groups = self._random_split(rng)
                partitioned = True
                oneway_cuts.clear()  # Partition() resets components only;
                # but any cuts will be cleared by the final heal below.
                schedule.add(Partition(time, groups))
            elif action == "heal":
                partitioned = False
                oneway_cuts.clear()  # Heal() clears one-way cuts too
                schedule.add(Heal(time))
            elif action == "oneway":
                src = rng.randrange(self.n_sites)
                dst = rng.randrange(self.n_sites)
                if src != dst and (src, dst) not in oneway_cuts:
                    oneway_cuts.add((src, dst))
                    schedule.add(OneWayCut(time, src, dst))
            time += rng.expovariate(1.0 / self.mean_gap)
        # Leave the system repairable: recover everyone, heal the net.
        for site in sorted(down):
            time += rng.uniform(5.0, 20.0)
            schedule.add(Recover(time, site))
        for src, dst in sorted(oneway_cuts):
            time += rng.uniform(2.0, 8.0)
            schedule.add(OneWayHeal(time, src, dst))
        if partitioned or oneway_cuts:
            time += rng.uniform(5.0, 20.0)
            schedule.add(Heal(time))
        return schedule

    def horizon(self, schedule: FaultSchedule) -> float:
        """When to stop running a cluster driven by ``schedule``."""
        return schedule.horizon + self.settle_tail

    def _pick_action(
        self, rng: random.Random, down: set[int], partitioned: bool
    ) -> str:
        candidates: list[str] = []
        weights: list[float] = []
        max_down = int(self.max_down_fraction * self.n_sites)
        if len(down) < max_down:
            candidates.append("crash")
            weights.append(self.weights.get("crash", 1.0))
        if down:
            candidates.append("recover")
            weights.append(self.weights.get("recover", 1.0))
        candidates.append("partition")
        weights.append(self.weights.get("partition", 1.0))
        if partitioned:
            candidates.append("heal")
            weights.append(self.weights.get("heal", 1.0))
        if self.weights.get("oneway", 0.0) > 0 and self.n_sites >= 2:
            candidates.append("oneway")
            weights.append(self.weights["oneway"])
        return rng.choices(candidates, weights=weights, k=1)[0]

    def _random_split(self, rng: random.Random) -> tuple[tuple[int, ...], ...]:
        sites = list(range(self.n_sites))
        rng.shuffle(sites)
        n_groups = rng.randint(2, min(3, self.n_sites))
        groups: list[list[int]] = [[] for _ in range(n_groups)]
        for index, site in enumerate(sites):
            groups[index % n_groups].append(site)
        return tuple(tuple(sorted(g)) for g in groups)
