"""Generators for adversarial constructions and random slotted workloads."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (MAX_SLOT, ArrivalInstance, check_positive, format_number,
                   parse_spec)


def _check_jobs(what: str, jobs: int):
    """Refuse a job count above ``MAX_SLOT`` (see there), before any record
    is built; ``what`` names the parameters that give it."""
    if jobs > MAX_SLOT:
        raise ValueError(f"job count {what} must be at most {MAX_SLOT}, got {jobs}")


def batch(n_jobs: int, size: int = 1) -> ArrivalInstance:
    """All jobs arrive together at slot 1."""
    if n_jobs < 0:
        raise ValueError("n_jobs must be nonnegative")
    if size > MAX_SLOT:  # refused before n_jobs records are built
        raise ValueError(f"job size w must be at most {MAX_SLOT}, got {size}")
    _check_jobs("N", n_jobs)
    if n_jobs * size > MAX_SLOT:
        raise ValueError(f"total work N*w must be at most {MAX_SLOT}, got {n_jobs * size}")
    return ArrivalInstance.from_counts((n_jobs,), name=f"batch(N={n_jobs},w={size})",
                                       size=size)


def periodic(x: int, k: int) -> ArrivalInstance:
    """x unit jobs (x even) at each of slots 2, 4, ..., 2k."""
    if x % 2 != 0 or x <= 0:
        raise ValueError(f"x must be a positive even integer, got {x}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if 2 * k > MAX_SLOT:
        raise ValueError(f"k must be at most {MAX_SLOT // 2}, got {k}")
    _check_jobs("x*k", x * k)
    return ArrivalInstance.from_counts((0, x) * k, name=f"periodic(x={x},k={k})")


def sigma1(n_jobs: int) -> ArrivalInstance:
    """Single burst: N unit jobs at slot 1."""
    return ArrivalInstance.from_counts(batch(n_jobs).slot_counts,
                                       name=f"sigma1(N={n_jobs})")


def _check_horizon(horizon: int):
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if horizon > MAX_SLOT:
        raise ValueError(f"horizon must be at most {MAX_SLOT}, got {horizon}")


def sigma2(n_jobs: int, horizon: int) -> ArrivalInstance:
    """Sustained load: N unit jobs at every slot 1..T."""
    if n_jobs < 0:
        raise ValueError("n_jobs must be nonnegative")
    _check_horizon(horizon)
    _check_jobs("N*T", n_jobs * horizon)
    counts = (n_jobs,) * horizon if n_jobs > 0 else ()  # N = 0: no jobs
    return ArrivalInstance.from_counts(counts, name=f"sigma2(N={n_jobs},T={horizon})")


def random_slotted(rate: float, horizon: int, seed: int) -> ArrivalInstance:
    """Unit jobs with per-slot Poisson(rate) counts, deterministic per seed.

    Pinned to Poisson so experiment outputs are reproducible; the published
    experiments spread the same average load in an unspecified way.
    """
    check_positive("rate", rate)
    _check_horizon(horizon)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    rng = np.random.default_rng(seed)
    try:
        counts = rng.poisson(rate, horizon)
    except ValueError:  # numpy's own bound on the Poisson mean
        raise ValueError(f"rate={rate:g} is too large for numpy's Poisson "
                         "sampler") from None
    counts = counts.tolist()
    _check_jobs("rate*T (as drawn)", sum(counts))
    return ArrivalInstance.from_counts(
        counts, name=f"random(rate={format_number(rate)},T={horizon},seed={seed})")


# the instance kinds, each with the parameter keys its build reads
_PARAMETERS = {
    "batch": ("n", "w"),
    "periodic": ("x", "k"),
    "sigma1": ("n",),
    "sigma2": ("n", "t"),
    "random": ("rate", "t", "seed"),
}


@dataclass(frozen=True)
class GeneratorSpec:
    """A parsed generator request: which kind (a key of ``_PARAMETERS``),
    with which parameters.

    Random generation needs a seed parameter, so builds are reproducible.
    """

    kind: str
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _PARAMETERS:
            raise ValueError(f"unknown instance kind {self.kind!r}")
        for key in self.params:
            if key not in _PARAMETERS[self.kind]:
                raise ValueError(f"unknown instance parameter {key!r}")

    def _value(self, key: str, default: float | None = None) -> float:
        value = self.params.get(key, default)
        if value is None:
            raise ValueError(f"instance kind {self.kind!r} needs parameter {key!r}")
        return value

    def _int(self, key: str, default: int | None = None) -> int:
        """An integer parameter. A float of magnitude 2**53 or more is
        refused: it cannot tell the integer the spec wrote from its
        neighbour."""
        value = self._value(key, default)
        if not float(value).is_integer():
            raise ValueError(f"parameter {key!r} must be an integer")
        if isinstance(value, float) and abs(value) >= 2.0 ** 53:
            raise ValueError(f"parameter {key!r} must be below 2**53 in magnitude, "
                             f"got {value:g}")
        return int(value)

    def build(self) -> ArrivalInstance:
        if self.kind == "batch":
            return batch(self._int("n"), self._int("w", 1))
        if self.kind == "periodic":
            return periodic(self._int("x"), self._int("k"))
        if self.kind == "sigma1":
            return sigma1(self._int("n"))
        if self.kind == "sigma2":
            return sigma2(self._int("n"), self._int("t"))
        return random_slotted(self._value("rate"), self._int("t"), self._int("seed"))

    @classmethod
    def parse(cls, spec: str) -> "GeneratorSpec":
        """Parse specs such as 'batch:N=4', 'random(rate=5,T=100,seed=1)'."""
        return cls(*parse_spec(spec, "instance"))


def parse_instance_spec(spec: str) -> ArrivalInstance:
    """Build an instance from a generator spec (see GeneratorSpec.parse)."""
    return GeneratorSpec.parse(spec).build()
