"""Continuous-time stochastic model: Poisson arrivals, exponential unit-mean
sizes, birth-death analysis for Markovian rate policies, discrete-time-
converted simulation, and the gated single-speed policy with its scaling law.

Switching cost in continuous time is the squared total variation of the
piecewise-constant rate process: it accrues only at jump instants, as the
squared jump magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .core import check_positive, format_number

TAIL_TOL = 1e-12
MIN_BATCHES = 32  # the i.i.d. cycle groups behind every simulated estimate
# t_{0.975} at MIN_BATCHES - 1 degrees of freedom, the one quantile the
# interval needs; the tests check it bit for bit against a reference
# Student-t quantile, whose import took 19 MB and 0.18 s a process on a
# 2-vCPU VM
T_975 = 2.039513446396408
# a busy-period level costs two numpy calls and ~780 bytes: 2**16 take ~1.3 s, 51 MB
BUSY_LEVEL_CAP = 1 << 16


class RateModel(str, Enum):
    MULTISERVER = "multiserver"
    SINGLE_SERVER_SPEED_SCALING = "single_server_speed_scaling"


class NonErgodicError(ValueError):
    """Service rates cannot keep the occupancy chain positive recurrent."""


class TruncationError(ValueError):
    """Stationary tail mass stayed above tolerance at the size cap."""


class CycleOverflowError(ValueError):
    """A cycle group expects more than 2**62 events (the counts are int64),
    or a busy period climbs past ``BUSY_LEVEL_CAP``."""


@dataclass(frozen=True)
class MarkovPolicy:
    """State-dependent service rate mu_i for i jobs in system (mu_0 = 0).

    Under the multiserver model the aggregate rate cannot exceed the job
    count (unit-speed servers, one job per server), so mu_i <= i is
    enforced; the speed-scaling model allows any nonnegative rate. Each
    rate is checked (``check_rate``) where a computation first reads it.
    """

    rates: Callable[[int], float]
    name: str
    model: RateModel = RateModel.MULTISERVER

    def __post_init__(self):
        if self.rates(0) != 0.0:
            raise ValueError("mu_0 must be 0")

    def check_rate(self, i: int) -> float:
        mu = self.rates(i)
        if not math.isfinite(mu) or mu < 0:
            raise ValueError(f"mu_{i} = {mu!r} is not a finite nonnegative rate")
        if self.model is RateModel.MULTISERVER and mu > i + 1e-9:
            raise ValueError(f"multiserver model violated: mu_{i} = {mu:g} > {i}")
        return mu


def alg1() -> MarkovPolicy:
    """One server per job: mu_i = i."""
    return MarkovPolicy(lambda i: float(i), "alg1", RateModel.MULTISERVER)


def alg2(alpha: float) -> MarkovPolicy:
    """Proportional speed scaling: mu_i = i / cbrt(4 alpha)."""
    check_positive("alpha", alpha)
    c = (4.0 * alpha) ** (1.0 / 3.0)
    return MarkovPolicy(lambda i: i / c, f"alg2(alpha={format_number(alpha)})",
                        RateModel.SINGLE_SERVER_SPEED_SCALING)


@dataclass(frozen=True)
class StochasticCostEstimate:
    """Long-run average cost: occupancy plus alpha times switch-cost rate.

    switch_cost_rate is unweighted (sum over both jump directions);
    total = mean_occupancy + alpha * switch_cost_rate. ci_halfwidth is 0
    for analytic results.
    """

    mean_occupancy: float
    switch_cost_rate: float
    total: float
    ci_halfwidth: float
    alpha: float
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _stationary(lam: float, policy: MarkovPolicy) -> tuple[np.ndarray, np.ndarray]:
    """The birth-death stationary law pi over 0..n_max, by detailed balance
    pi_{i+1} = pi_i lam/mu_{i+1}, and the rates mu_0..mu_{n_max+1}.

    The truncation point n_max starts at 64 and doubles, up to 2**22, until
    the certified tail mass (geometric bound past the cut) drops below
    1e-12. Each rate is evaluated once: every doubling extends one rate
    table, then checks it, takes its logs and sums them as array operations.
    """
    check_positive("lam", lam)
    mu = np.zeros(1)  # mu[i] = mu_i
    n_max = 64
    while True:
        mu = np.concatenate((mu, np.fromiter(
            map(policy.rates, range(mu.size, n_max + 2)), np.float64)))
        _check_rates(policy, mu)
        tail = math.inf  # no geometric bound unless lam < mu_{n_max+1}
        if lam < mu[-1]:
            with np.errstate(divide="ignore"):  # lam / mu_i may underflow to 0
                log_r = np.concatenate(([0.0], np.cumsum(np.log(lam / mu[1:-1]))))
            weights = np.exp(log_r - log_r.max())
            pi = weights / weights.sum()
            ratio = lam / float(mu[-1])
            tail = pi[-1] * ratio / (1.0 - ratio)
            if tail < TAIL_TOL:
                return pi, mu
        if n_max >= 1 << 22:
            reason = ("tail mass above tolerance" if math.isfinite(tail)
                      else "chain not geometrically stable")
            raise TruncationError(f"{reason} at n_max={n_max}")
        n_max *= 2


def _check_rates(policy: MarkovPolicy, mu: np.ndarray):
    """Raise what checking mu_1, mu_2, ... in turn raises first: the error
    of ``check_rate``, or NonErgodicError for a zero rate before the last."""
    stop = ~(mu > 0) | ~np.isfinite(mu)  # zero, negative, NaN or infinite
    if policy.model is RateModel.MULTISERVER:
        stop |= mu > np.arange(mu.size) + 1e-9
    stops = np.flatnonzero(stop[1:]) + 1  # mu_0 = 0 is no stop
    if stops.size:
        first = int(stops[0])
        policy.check_rate(first)  # raises for a rate that is not valid
        if first < mu.size - 1:  # a zero; the last rate only bounds the tail
            raise NonErgodicError(f"mu_{first} = 0 with arrivals pending")


def analytic_cost(lam: float, alpha: float,
                  policy: MarkovPolicy) -> StochasticCostEstimate:
    """Exact stationary cost: E[N] + 2 alpha sum_i lam pi_i (mu_i - mu_{i+1})^2."""
    check_positive("alpha", alpha)
    pi, mu = _stationary(lam, policy)
    idx = np.arange(pi.size)
    mean_occ = float((idx * pi).sum())
    jump = (mu[:-1] - mu[1:]) ** 2
    switch_rate = 2.0 * float((lam * pi * jump).sum())
    total = mean_occ + alpha * switch_rate
    return StochasticCostEstimate(mean_occ, switch_rate, total, 0.0, alpha,
                                  {"kind": "analytic", "policy": policy.name,
                                   "lam": lam, "truncation": int(pi.size - 1)})


def _batch_ci(rewards: Sequence[float], durations: Sequence[float]) -> float:
    """95% halfwidth of sum(rewards) / sum(durations) over ``MIN_BATCHES``
    i.i.d. pairs; any other count raises ValueError.

    The regenerative ratio interval (Crane & Iglehart 1974): t_{0.975,k-1},
    the constant ``T_975`` checked in the tests, times the standard
    deviation of R_i - r D_i, with r the ratio estimate, over mean(D) sqrt(k).
    """
    k = len(rewards)
    if k != MIN_BATCHES:
        raise ValueError(f"the interval takes {MIN_BATCHES} groups, got k={k}")
    # rewards near the float limit give an inf or NaN halfwidth (exit 2 in the CLI)
    with np.errstate(over="ignore", invalid="ignore"):
        r, d = np.asarray(rewards), np.asarray(durations)
        spread = float((r - r.sum() / d.sum() * d).std(ddof=1)) / float(d.mean())
    return T_975 * spread / math.sqrt(k)


def _branch(c: np.ndarray, n: int, step: int, odds: Callable[[int], float],
            rng: np.random.Generator, immigrants=0, top: int = 0) -> list[np.ndarray]:
    """Each group's onward steps from level n, n + step, ... while any are left.

    A walk that steps back from n c times steps onward before the last of
    those NegBin(c, 1 / (1 + odds(n))) times (Harris 1952), odds(n) being
    the rate of an onward step over that of a step back; each comes back,
    and levels up to ``top`` get ``immigrants`` steps back more, from
    walks that start there (Knight 1963). The negative binomial is drawn
    as a Poisson with a Gamma(c) mean times the odds (Devroye 1986,
    X.4.7): one Gamma and one Poisson call per level serve every group,
    and a finished group, c = 0, draws 0.
    """
    counts = []
    # poisson rejects an odds past its range, inf, and NaN (0 * inf) with a ValueError
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            onward = rng.poisson(rng.standard_gamma(c) * odds(n))
            n += step
            c = onward + immigrants if n <= top else onward
            if not c.any():
                return counts
            counts.append(onward)


def _crossing_counts(lam: float, policy: MarkovPolicy, mu: np.ndarray,
                     state: int, cycles: np.ndarray, rng: np.random.Generator
                     ) -> tuple[int, np.ndarray, np.ndarray]:
    """Edge crossing counts of groups of regenerative cycles at ``state``.

    A cycle starts as the walk steps down from state+1 to ``state`` and
    ends at the next such step, so it steps up from ``state`` once, and
    ``_branch`` draws the crossings on either side: below, a step down
    from n against one up has odds mu_n / lam; above, lam / mu_n.
    ``cycles`` holds each group's cycle count.

    Returns (lo, counts, rates): ``counts[j, g]`` is how often group g
    stepped from lo+j up to lo+j+1, and ``rates`` holds mu_lo through
    mu_{lo+len(counts)}. Rates past the table ``mu`` are checked as the
    walk first reaches them; a zero there raises NonErgodicError.
    """
    beyond: list[float] = []

    def odds_up(n: int) -> float:
        if n == mu.size + len(beyond):  # past the stationary table
            beyond.append(policy.check_rate(n))
            if beyond[-1] == 0.0:
                raise NonErgodicError(f"mu_{n} = 0 with arrivals pending")
        return lam / (mu[n] if n < mu.size else beyond[n - mu.size])

    below = _branch(cycles, state, -1, lambda n: mu[n] / lam, rng)
    above = [cycles] + _branch(cycles, state + 1, 1, odds_up, rng)
    lo = state - len(below)
    rates = np.concatenate((mu[lo:state + len(above) + 1], beyond))
    return lo, np.array(below[::-1] + above), rates


def _cycle_totals(lam: float, lo: int, counts: np.ndarray, rates: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per group: clock, occupancy area, switching cost and event count.

    Each visit to n ends in a step down or up, so n has v(n) = counts(n-1)
    + counts(n) visits, each held 1 / (lam + mu_n), its conditional mean
    (Fox & Glynn 1986). Every edge is crossed as often down as up, each
    time paying the squared rate jump.
    """
    edge = np.zeros_like(counts[:1])
    visits = np.concatenate((edge, counts)) + np.concatenate((counts, edge))
    # a subnormal lam overflows 1 / lam: the CLI rejects what is not finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        hold = 1.0 / (lam + rates)
        clock = hold @ visits
        area = (np.arange(lo, lo + hold.size) * hold) @ visits
    switching = 2.0 * np.diff(rates) ** 2 @ counts
    return clock, area, switching, visits.sum(axis=0)


def _group_size(event_budget: int, cycles_per_event: float) -> int:
    """Cycles in each of ``MIN_BATCHES`` equal groups, at least one, that
    together expect about ``event_budget`` events. CycleOverflowError: a
    group expects more than 2**62 events (the counts are int64)."""
    if event_budget < MIN_BATCHES:
        raise ValueError(f"event budget {event_budget} is below the "
                         f"{MIN_BATCHES} batches requested")
    if event_budget > 1 << 62:
        raise ValueError(f"event budget {event_budget} is above 2**62")
    size = max(1, round(event_budget * cycles_per_event / MIN_BATCHES))
    if not size <= (1 << 62) * cycles_per_event:
        raise CycleOverflowError(f"a group of {size} cycles expects more than 2**62 "
                                 f"events, at {cycles_per_event:.3g} cycles an event")
    return size


def _regenerative_estimate(alpha: float, seed: int, size: int, totals: tuple,
                           labels: dict, **extra) -> StochasticCostEstimate:
    """The ratio estimate over ``MIN_BATCHES`` groups of ``size`` i.i.d.
    cycles, from each group's clock, area, unweighted switching cost and
    events (``totals``), with the regenerative ratio interval
    (``_batch_ci``); ``meta`` holds ``labels``, what ran, then ``extra``."""
    clock, area, switching, events = totals
    with np.errstate(over="ignore", invalid="ignore"):  # a subnormal lam, a huge alpha
        rewards = area + alpha * switching
        sim_time = float(clock.sum())
        mean_occ = float(area.sum()) / sim_time
    switch_rate = float(switching.sum()) / sim_time
    return StochasticCostEstimate(
        mean_occ, switch_rate, mean_occ + alpha * switch_rate,
        _batch_ci(rewards, clock), alpha,
        {**labels, "events": sum(events.tolist()), "cycles": MIN_BATCHES * size,
         "seed": seed, "batches": MIN_BATCHES, "sim_time": sim_time, **extra})


def simulate_ctmc(lam: float, alpha: float, policy: MarkovPolicy,
                  event_budget: int = 1_000_000,
                  seed: int = 0) -> StochasticCostEstimate:
    """Regenerative estimate of the long-run cost from sampled crossing counts.

    The cost needs only how often the jump chain visits each state and
    crosses each edge, so no path is walked: ``_crossing_counts`` draws
    those counts for ``MIN_BATCHES`` groups of i.i.d. cycles at the most
    likely state m, one Gamma and one Poisson call per state, from
    ``np.random.default_rng(seed)``. Holding times are their conditional
    means 1 / (lam + mu_n) (Fox & Glynn 1986), so occupancy time, area and
    the squared rate jumps are exact given the counts.

    A cycle takes 2 / pi_m events on average; ``_group_size`` sizes the
    groups from ``event_budget``. A rate law with no stationary
    distribution raises ``_stationary``'s error.
    """
    check_positive("alpha", alpha)
    pi, mu = _stationary(lam, policy)
    state = int(pi.argmax())
    size = _group_size(event_budget, float(pi[state]) / 2)
    crossings = _crossing_counts(lam, policy, mu, state, np.full(MIN_BATCHES, size),
                                 np.random.default_rng(seed))
    return _regenerative_estimate(
        alpha, seed, size, _cycle_totals(lam, *crossings),
        {"kind": "simulation", "policy": policy.name, "lam": lam})


# ---------------------------------------------------------------------------
# gated single-speed policy

@dataclass(frozen=True)
class Alg3Params:
    """Gate threshold U and constant busy-period speed mu (mu > lam)."""

    threshold: int
    mu: float

    def __post_init__(self):
        if not (self.threshold >= 1 and self.threshold % 1 == 0):  # NaN and inf fail
            raise ValueError(f"threshold must be an integer >= 1, got {self.threshold!r}")
        object.__setattr__(self, "threshold", int(self.threshold))
        check_positive("mu", self.mu)

    @classmethod
    def from_rates(cls, lam: float, c1: float = 1.0, c2: float = 1.0,
                   theta1: float = 2.0 / 3.0,
                   theta2: float = 1.0 / 3.0) -> "Alg3Params":
        """U = ceil(c1 lam^theta1), mu = lam + c2 lam^theta2, both finite."""
        check_positive("lam", lam)
        for name, value in (("c1", c1), ("c2", c2),
                            ("theta1", theta1), ("theta2", theta2)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        check_positive("c1", c1)
        check_positive("c2", c2)
        if theta1 > 1 or theta2 >= 1:
            raise ValueError("need theta1 <= 1 and theta2 < 1")
        u = _scaled_power(c1, lam, theta1)
        if not math.isfinite(u):
            raise ValueError(f"threshold c1*lam**theta1 is not finite "
                             f"(lam={lam:g}, c1={c1:g}, theta1={theta1:g})")
        mu = lam + _scaled_power(c2, lam, theta2)
        if not math.isfinite(mu):
            raise ValueError(f"mu = lam + c2*lam**theta2 is not finite "
                             f"(lam={lam:g}, c2={c2:g}, theta2={theta2:g})")
        return cls(math.ceil(u), mu)

    def validate_stability(self, lam: float):
        if not self.mu > lam:
            raise ValueError(f"mu={self.mu:g} must exceed lam={lam:g}")


def _scaled_power(c: float, lam: float, theta: float) -> float:
    """c lam^theta, or inf where lam^theta overflows."""
    try:
        return c * lam ** theta
    except OverflowError:
        return math.inf


def alg3_analytic_cost(lam: float, alpha: float,
                       params: Alg3Params) -> StochasticCostEstimate:
    """Renewal-reward evaluation with the published cycle accounting.

    Uses E[I] = U/lam, E[B] = U mu / (mu - lam), switch cost 2 mu^2 per
    cycle, and the occupancy bound U + lam/(mu - lam). This is the
    accounting behind the lam^(2/3) scaling claim; a faithful simulated
    run of the same policy yields shorter busy periods, U/(mu - lam).
    """
    check_positive("alpha", alpha)
    params.validate_stability(lam)
    u, mu = params.threshold, params.mu
    mean_idle = u / lam
    mean_busy = u * mu / (mu - lam)
    cycle = mean_idle + mean_busy
    switch_rate = 2.0 * mu * mu / cycle
    mean_occ = u + lam / (mu - lam)
    total = mean_occ + alpha * switch_rate
    return StochasticCostEstimate(
        mean_occ, switch_rate, total, 0.0, alpha,
        {"kind": "analytic-renewal", "policy": "alg3", "lam": lam,
         "threshold": u, "mu": mu, "mean_idle": mean_idle,
         "mean_busy": mean_busy})


def _busy_periods(lam: float, mu: float, u: int, sizes: np.ndarray,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Events and occupancy area of ``sizes`` M/M/1 busy periods from U per group.

    A busy period steps down from level j d_j times, d_1 = 1 and d_{j+1} =
    u_j + [j+1 <= U], and up u_j ~ NegBin(d_j, mu/(lam + mu)) times, which
    ``_branch`` draws at odds lam/mu. Its v_j = d_j + u_j visits, each held
    1/(lam + mu), give the events sum v_j and the area sum j v_j/(lam + mu).
    """
    def odds_up(level: int) -> float:
        if level > BUSY_LEVEL_CAP:
            raise CycleOverflowError(f"a busy period climbed past level {BUSY_LEVEL_CAP}")
        return lam / mu

    ups = np.array(_branch(sizes, 1, 1, odds_up, rng, sizes, u) + [0 * sizes])
    level = np.arange(1, len(ups) + 1)
    visits = ups + np.vstack((0 * sizes, ups[:-1])) + np.outer(level <= u, sizes)
    return visits.sum(axis=0), level.astype(float) @ visits / (lam + mu)


def simulate_alg3(lam: float, alpha: float, params: Alg3Params,
                  event_budget: int = 1_000_000, seed: int = 0) -> StochasticCostEstimate:
    """Regenerative estimate of the gated policy's cost from sampled counts.

    A cycle idles until U jobs arrive, then serves at rate mu down to empty;
    its two rate jumps cost 2 mu^2. Holding times are their conditional
    means (Fox & Glynn 1986), so the idle phase is exact: U/lam long, area
    U(U-1)/(2 lam). ``_busy_periods`` samples the busy periods, U (lam + mu)
    / (mu - lam) events each on average, of the groups ``_group_size`` sizes
    from ``event_budget``; ``meta`` adds ``threshold``, ``mu``, ``mean_idle``
    and ``mean_busy``. CycleOverflowError: U or a busy period passes level
    ``BUSY_LEVEL_CAP``, or a group expects more than 2**62 events.
    """
    check_positive("alpha", alpha)
    params.validate_stability(lam)
    u, mu = params.threshold, params.mu
    if u > BUSY_LEVEL_CAP:
        raise CycleOverflowError(f"threshold U > {BUSY_LEVEL_CAP}: no busy period is counted")
    size = _group_size(event_budget, (mu - lam) / (u * (lam + mu)))
    events, busy_area = _busy_periods(lam, mu, u, np.full(MIN_BATCHES, size),
                                      np.random.default_rng(seed))
    busy = events / (lam + mu)
    with np.errstate(over="ignore", invalid="ignore"):  # a subnormal lam
        clock = size * (u / lam) + busy
        area = size * (u * (u - 1) / (2.0 * lam)) + busy_area
    return _regenerative_estimate(
        alpha, seed, size, (clock, area, np.full(MIN_BATCHES, 2.0 * mu * mu * size), events),
        {"kind": "simulation-regenerative", "policy": "alg3", "lam": lam},
        threshold=u, mu=mu, mean_idle=u / lam,
        mean_busy=float(busy.sum()) / (MIN_BATCHES * size))


def scaling_exponent(cost_samples: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log cost against log lam.

    Needs at least four samples spanning two decades of lam.
    """
    if len(cost_samples) < 4:
        raise ValueError("need at least 4 (lam, cost) samples")
    lams = [lam for lam, _ in cost_samples]
    if max(lams) / min(lams) < 100.0:
        raise ValueError("lam range must span at least two decades")
    x = np.log([lam for lam, _ in cost_samples])
    y = np.log([cost for _, cost in cost_samples])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
