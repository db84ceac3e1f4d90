"""Seeded workload inputs: the due-time grid and the operation stream.

Everything the system under test receives is generated here from the
``--seed`` argument before the measured window opens, so the same seed
gives byte-identical inputs and the program sees only generated ones.
The generators are the benchmark's own (not ``repro.workload.openloop``)
so a later change under ``src/`` cannot silently change the inputs.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Any

#: Knuth's multiplicative hash constant: scatters zipfian ranks over the
#: keyspace so the hot keys are not the lexicographically first ones.
_SCRAMBLE = 2654435761


def due_times(rate: float, seconds: float, burst: int = 1) -> list[float]:
    """Due offsets (seconds from the window start) of an open-loop grid.

    ``burst=1`` is an even grid, op ``k`` due at ``k / rate``.  With
    ``burst=b`` the same mean rate arrives in back-to-back groups of
    ``b``: every op of group ``g`` is due at ``g * b / rate``.
    """
    if rate <= 0 or seconds <= 0 or burst < 1:
        raise ValueError("rate, seconds and burst must be positive")
    total = max(1, int(rate * seconds))
    return [(k // burst) * burst / rate for k in range(total)]


@functools.lru_cache(maxsize=8)
def _zeta(n: int, theta: float) -> float:
    """``sum(1 / i**theta)`` over the keyspace: O(n), so computed once."""
    return sum(1.0 / i**theta for i in range(1, n + 1))


class UniformKeys:
    """Keys drawn uniformly from ``k0 .. k{n_keys-1}``."""

    def __init__(self, n_keys: int, rng: random.Random) -> None:
        if n_keys < 1:
            raise ValueError("need at least one key")
        self.n_keys = n_keys
        self._rng = rng

    def sample(self) -> str:
        return f"k{self._rng.randrange(self.n_keys)}"


class ZipfianKeys:
    """YCSB-style zipfian keys (Gray et al.'s constant-time sampler)."""

    def __init__(self, n_keys: int, rng: random.Random, theta: float = 0.99) -> None:
        if n_keys < 2:
            raise ValueError("need at least two keys")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.n_keys = n_keys
        self.theta = theta
        self._rng = rng
        self._zetan = _zeta(n_keys, theta)
        self._alpha = 1.0 / (1.0 - theta)
        zeta2 = 1.0 + 0.5**theta
        self._eta = (1.0 - (2.0 / n_keys) ** (1.0 - theta)) / (
            1.0 - zeta2 / self._zetan
        )

    def rank(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        rank = int(self.n_keys * (self._eta * u - self._eta + 1.0) ** self._alpha)
        return min(rank, self.n_keys - 1)

    def sample(self) -> str:
        return f"k{(self.rank() * _SCRAMBLE) % self.n_keys}"


@dataclass(frozen=True)
class Op:
    """One generated client operation."""

    kind: str  # "put" | "get"
    key: str
    value: Any = None


def make_ops(
    count: int,
    seed: int,
    *,
    read_fraction: float,
    key_dist: str,
    n_keys: int,
) -> list[Op]:
    """``count`` operations drawn from ``seed``; put values are the op index.

    The mix is exact — ``round(count * read_fraction)`` gets, the rest
    puts, in seeded order — so every seed offers the same amount of work
    and only its arrangement and keys differ.
    """
    rng = random.Random(seed)
    gets = round(count * read_fraction)
    kinds = ["get"] * gets + ["put"] * (count - gets)
    rng.shuffle(kinds)
    if key_dist == "uniform":
        keys: Any = UniformKeys(n_keys, rng)
    elif key_dist == "zipfian":
        keys = ZipfianKeys(n_keys, rng)
    else:
        raise ValueError(f"unknown key distribution {key_dist!r}")
    return [
        Op(kind, keys.sample(), k if kind == "put" else None)
        for k, kind in enumerate(kinds)
    ]
