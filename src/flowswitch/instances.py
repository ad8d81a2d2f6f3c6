"""Generators for adversarial constructions and random slotted workloads."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import ArrivalInstance, parse_spec


class GeneratorKind(str, Enum):
    BATCH = "batch"
    PERIODIC = "periodic"
    SIGMA1 = "sigma1"
    SIGMA2 = "sigma2"
    RANDOM_SLOTTED = "random"


def batch(n_jobs: int, size: int = 1) -> ArrivalInstance:
    """All jobs arrive together at slot 1."""
    if n_jobs < 0:
        raise ValueError("n_jobs must be nonnegative")
    name = f"batch(N={n_jobs},w={size})"
    if size == 1:
        return ArrivalInstance.from_counts((n_jobs,), name=name)
    return ArrivalInstance(tuple((1, size) for _ in range(n_jobs)), name=name)


def periodic(x: int, k: int) -> ArrivalInstance:
    """x unit jobs (x even) at each of slots 2, 4, ..., 2k."""
    if x % 2 != 0 or x <= 0:
        raise ValueError(f"x must be a positive even integer, got {x}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return ArrivalInstance.from_counts((0, x) * k, name=f"periodic(x={x},k={k})")


def sigma1(n_jobs: int) -> ArrivalInstance:
    """Single burst: N unit jobs at slot 1."""
    return ArrivalInstance.from_counts(batch(n_jobs).slot_counts,
                                       name=f"sigma1(N={n_jobs})")


def sigma2(n_jobs: int, horizon: int) -> ArrivalInstance:
    """Sustained load: N unit jobs at every slot 1..T."""
    if n_jobs < 0:
        raise ValueError("n_jobs must be nonnegative")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    counts = (n_jobs,) * horizon if n_jobs > 0 else ()  # N = 0: no jobs
    return ArrivalInstance.from_counts(counts, name=f"sigma2(N={n_jobs},T={horizon})")


def random_slotted(rate: float, horizon: int, seed: int) -> ArrivalInstance:
    """Unit jobs with per-slot Poisson(rate) counts, deterministic per seed.

    Pinned to Poisson so experiment outputs are reproducible; the published
    experiments spread the same average load in an unspecified way.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rate, horizon)
    return ArrivalInstance.from_counts(
        counts.tolist(), name=f"random(rate={rate:g},T={horizon},seed={seed})")


@dataclass(frozen=True)
class GeneratorSpec:
    """A parsed generator request: which family, with which parameters.

    Random generation needs a seed parameter, so builds are reproducible.
    """

    kind: GeneratorKind
    params: dict[str, float] = field(default_factory=dict)

    def _int(self, key: str, default: int | None = None) -> int:
        if key not in self.params:
            if default is None:
                raise ValueError(
                    f"instance kind {self.kind.value!r} needs parameter {key!r}")
            return default
        value = self.params[key]
        if not float(value).is_integer():
            raise ValueError(f"parameter {key!r} must be an integer")
        return int(value)

    def build(self) -> ArrivalInstance:
        if self.kind is GeneratorKind.BATCH:
            return batch(self._int("n"), self._int("w", 1))
        if self.kind is GeneratorKind.PERIODIC:
            return periodic(self._int("x"), self._int("k"))
        if self.kind is GeneratorKind.SIGMA1:
            return sigma1(self._int("n"))
        if self.kind is GeneratorKind.SIGMA2:
            return sigma2(self._int("n"), self._int("t"))
        return random_slotted(self.params.get("rate", 0.0),
                              self._int("t"), self._int("seed"))

    @classmethod
    def parse(cls, spec: str) -> "GeneratorSpec":
        """Parse specs such as 'batch:N=4', 'random(rate=5,T=100,seed=1)'."""
        kind, params = parse_spec(spec, "instance")
        try:
            return cls(GeneratorKind(kind), params)
        except ValueError:
            raise ValueError(f"unknown instance kind {kind!r}") from None


def parse_instance_spec(spec: str) -> ArrivalInstance:
    """Build an instance from a generator spec (see GeneratorSpec.parse)."""
    return GeneratorSpec.parse(spec).build()
