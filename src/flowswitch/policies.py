"""Online server-count policies and closed-form batch profiles.

Every online rule is a ``ShapedRule``: an integer target(n) combined with
s(t-1) by one of three shapes (cap, add or lazy; see the engine). Targets
are ceiled (with a tiny epsilon guard against float noise), and every
shape gives 0 on an empty system, so work neutrality holds by
construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import ClassVar

from .core import check_positive, format_number, parse_spec
from .engine import ShapedRule, _ceil


def effective_alpha(alpha: float) -> float:
    """The quadratic rule replaces alpha by 1 whenever alpha < 1."""
    return max(alpha, 1.0)


# Every rule with an alpha divides the job count n by its constant. From
# this divisor up, n / divisor stays finite for every n up to 2**53; up to
# this factor, factor * sqrt(n) does.
_MIN_DIVISOR = 2.0 ** 54 / sys.float_info.max
_MAX_FACTOR = sys.float_info.max / 2.0 ** 27


class _Rule(ShapedRule):
    """The built-in rules: alpha checked at construction, a printed name.

    The name is the registry key followed by the dataclass fields, for
    example ``quad_alg(alpha=2,beta=1.732)``; a rule without fields prints
    its bare key. It is built once per rule, on first use.

    A rule with an alpha reads it through one constant, ``_divisor``:
    alpha itself unless the rule's ``_constant`` says otherwise
    (``sqrt(alpha)``, ``alpha**0.25``, ``alpha**gamma`` or quad_alg's
    effective alpha). It is computed once, at construction, where it must
    lie in [``_MIN_DIVISOR``, inf), and stored as a plain instance
    attribute, the fastest read on a memo miss; a rule made by
    ``dataclasses.replace`` computes its own. The default target is
    ceil(n / _divisor).
    """

    key: ClassVar[str]

    def __post_init__(self):
        if hasattr(self, "alpha"):
            check_positive("alpha", self.alpha)
            try:
                divisor = self._constant()
            except OverflowError:
                divisor = math.inf
            if not _MIN_DIVISOR <= divisor < math.inf:
                raise ValueError(f"{self.name} is out of range: its constant "
                                 f"{divisor:g} must be finite and at least "
                                 f"{_MIN_DIVISOR:.3g}")
            object.__setattr__(self, "_divisor", divisor)

    def _constant(self) -> float:
        return self.alpha

    def target(self, n: int) -> int:
        return _ceil(n / self._divisor)

    @cached_property
    def name(self) -> str:
        params = ",".join(f"{f.name}={format_number(getattr(self, f.name))}"
                          for f in fields(self))
        return f"{self.key}({params})" if params else self.key


@dataclass(frozen=True)
class FullParallel(_Rule):
    """s(t) = n(t): one server per outstanding job."""

    key, shape = "full_parallel", "cap"

    def target(self, n: int) -> int:
        return n


@dataclass(frozen=True)
class BalanceValue(_Rule):
    """s(t) = ceil(n(t) / alpha), the value-balancing baseline."""

    alpha: float
    key, shape = "balance_value", "cap"


@dataclass(frozen=True)
class BalanceDelta(_Rule):
    """|s(t) - s(t-1)| = n(t)/alpha, moving upward while work remains.

    The increment direction is not pinned by the rule itself; downward
    balancing stalls service, so this implementation always adds
    ceil(n/alpha) servers (clamped at n) and drops to 0 when idle.
    """

    alpha: float
    key, shape = "balance_delta", "add"


@dataclass(frozen=True)
class SqrtOnline(_Rule):
    """s(t) = max(1, ceil(n(t)/sqrt(alpha))) while work remains."""

    alpha: float
    key, shape = "sqrt_online", "cap"

    def _constant(self) -> float:
        return math.sqrt(self.alpha)

    def target(self, n: int) -> int:
        return _ceil(n / self._divisor) or 1


@dataclass(frozen=True)
class Lg(_Rule):
    """Lazy-growth rule: raise s(t) to n(t)/alpha^(1/4), never proactively cut.

    If the carried-over count already exceeds the target, keep it (clamped
    at n); otherwise jump up to the target.
    """

    alpha: float
    key, shape = "lg", "lazy"

    def _constant(self) -> float:
        return self.alpha ** 0.25


@dataclass(frozen=True)
class GammaPolicy(_Rule):
    """s(t) = ceil(n(t) / alpha^gamma), the one-parameter rate family."""

    alpha: float
    gamma: float
    key, shape = "a_gamma", "cap"

    def _constant(self) -> float:  # called at construction, so gamma is checked there
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be nonnegative and finite, got {self.gamma}")
        return self.alpha ** self.gamma


@dataclass(frozen=True)
class QuadAlg(_Rule):
    """s(t) = min(ceil(beta * sqrt(n(t)/alpha)), n(t)) with alpha floored at 1."""

    alpha: float
    beta: float = 1.0
    key, shape = "quad_alg", "cap"

    def __post_init__(self):
        super().__post_init__()
        if not 1 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 1, got {self.beta}")
        if self.beta > _MAX_FACTOR:
            raise ValueError(f"beta={self.beta:g} is too large for {self.key}: "
                             f"beta*sqrt(n/alpha) overflows")

    def _constant(self) -> float:
        return effective_alpha(self.alpha)

    def target(self, n: int) -> int:
        return _ceil(self.beta * math.sqrt(n / self._divisor))


@dataclass(frozen=True)
class QuadBalance(_Rule):
    """alpha * (s(t)-s(t-1))^2 = n(t): add ceil(sqrt(n/alpha)) servers."""

    alpha: float
    key, shape = "quad_balance", "add"

    def target(self, n: int) -> int:
        return _ceil(math.sqrt(n / self._divisor))


# ---------------------------------------------------------------------------
# registry

POLICY_REGISTRY: dict[str, type[_Rule]] = {
    cls.key: cls for cls in (FullParallel, BalanceValue, BalanceDelta, SqrtOnline,
                             Lg, GammaPolicy, QuadAlg, QuadBalance)}


def make_policy(spec: str, default_alpha: float | None = None):
    """Build a policy from 'name:key=val,...' or 'name(key=val,...)'.

    Policies that take alpha inherit ``default_alpha`` (normally the cost
    model's) when the spec does not pin one.
    """
    name, kwargs = parse_spec(spec, "policy")
    if name not in POLICY_REGISTRY:
        raise ValueError(f"unknown policy {name!r}; known: {sorted(POLICY_REGISTRY)}")
    cls = POLICY_REGISTRY[name]
    params = {f.name: f.default for f in fields(cls)}
    for key in kwargs:
        if key not in params:
            raise ValueError(f"unknown policy parameter {key!r}")
    if "alpha" in params and default_alpha is not None:
        kwargs.setdefault("alpha", default_alpha)
    for key, default in params.items():
        if key not in kwargs and default is MISSING:
            raise ValueError(f"policy {name!r} needs parameter {key!r}")
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# offline batch profiles

def burst_objective(profile, n: float, horizon: int, alpha: float = 1.0) -> float:
    """H*n - sum_i s_i (H+1-i) + alpha * sum (s_i - s_{i-1})^2 with zero ends."""
    flow = horizon * n
    switching = 0.0
    prev = 0.0
    for i, s in enumerate(profile, start=1):
        flow -= s * (horizon + 1 - i)
        switching += (s - prev) ** 2
        prev = s
    switching += prev ** 2
    return flow + alpha * switching


def closed_form_burst_profile(n: float, horizon: int) -> tuple[float, ...]:
    """The published closed form for the batch burst problem, as printed.

    Known to produce infeasible profiles (s(1) can exceed n); callers must
    check feasibility against the numeric solver rather than trust it.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    h = horizon
    lam = 24.0 * n / (h * (h + 1) * (h + 2)) + (3.0 * h - 2.0) * (h + 1) / (h + 2)
    s = [0.25 * (n * lam - h * (h - 1) / 2.0)]
    for i in range(2, h + 1):
        incr = s[0] - lam * (i - 1) / 2.0 - (i - 1) * (h + 1 - i / 2.0) / 2.0
        s.append(s[-1] + incr)
    return tuple(s)


@dataclass(frozen=True)
class BurstBatchResult:
    """Numeric optimum of the batch burst problem plus closed-form audit."""

    profile: tuple[float, ...]
    objective: float
    closed_form: tuple[float, ...]
    closed_form_feasible: bool
    closed_form_matches: bool
    closed_form_objective: float | None


def batch_quad_continuous(n: float, horizon: int) -> BurstBatchResult:
    """Solve the batch burst problem numerically and audit the closed form.

    The convex solver is authoritative. The closed form is evaluated,
    feasibility-checked (nonnegative, sums to n), and compared; a mismatch
    is reported via the flags, never silently patched over.
    """
    from .oracle import convex_batch_solve

    sol = convex_batch_solve(n, horizon, alpha=1.0)
    profile = tuple(float(x) for x in sol.profile)
    closed = closed_form_burst_profile(n, horizon)
    match_tol = 1e-6
    feasible = all(x >= -match_tol for x in closed) and \
        abs(sum(closed) - n) <= match_tol
    matches = feasible and max(
        (abs(a - b) for a, b in zip(profile, closed)), default=0.0) <= match_tol
    closed_obj = burst_objective(closed, n, horizon) if feasible else None
    return BurstBatchResult(profile, sol.objective, closed, feasible,
                            matches, closed_obj)


@dataclass(frozen=True)
class HorizonSearchResult:
    horizon: int
    cost: float
    profile: tuple[float, ...]


def batch_quad_horizon_search(n: float, alpha: float) -> HorizonSearchResult:
    """Minimize the relaxed batch cost over the completion horizon H.

    Per-H cost is the burst objective (switching scaled by alpha) plus n,
    which restores the departure-slot term and makes the value comparable
    to the slotted objective. The objective is non-increasing in H, so ties
    resolve to the smallest H reaching the plateau.

    The scan stops after the first H whose solved profile ends in an exact
    0.0. Up to a constant, cost(H) = sum_i i s_i + alpha sum (s_i - s_{i-1})^2
    over sum s = n, so H enters only through the support. If s_H = 0, the
    KKT conditions at H give a multiplier lambda <= H - 2 alpha s_{H-1} < H + 1,
    so the zero-padded profile is KKT-optimal for every H' > H; the problem
    is strictly convex, hence that optimum is unique and no longer horizon
    can lower the cost by more than the 1e-9 tie tolerance.
    """
    from .oracle import convex_batch_solve

    check_positive("alpha", alpha)
    if n == 0:
        return HorizonSearchResult(0, 0.0, ())
    h, sol = 1, convex_batch_solve(n, 1, alpha=alpha)  # rejects a bad n
    best = HorizonSearchResult(1, sol.objective + n, sol.profile)
    h_max = math.ceil(3.0 * math.sqrt(effective_alpha(alpha) * n)) + int(math.ceil(n))
    while sol.profile[-1] != 0.0 and h < h_max:  # 0.0: zero padding stays optimal
        h += 1
        sol = convex_batch_solve(n, h, alpha=alpha)
        if sol.objective + n < best.cost - 1e-9:
            best = HorizonSearchResult(h, sol.objective + n, sol.profile)
    return best
