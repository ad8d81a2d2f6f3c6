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

from .core import check_positive

TAIL_TOL = 1e-12
MIN_BATCHES = 30
CTMC_BATCHES = 32


class RateModel(str, Enum):
    MULTISERVER = "multiserver"
    SINGLE_SERVER_SPEED_SCALING = "single_server_speed_scaling"


class NonErgodicError(ValueError):
    """Service rates cannot keep the occupancy chain positive recurrent."""


class TruncationError(ValueError):
    """Stationary tail mass stayed above tolerance at the size cap."""


class CycleOverflowError(ValueError):
    """A regenerative busy period did not terminate within the event guard."""


@dataclass(frozen=True)
class MarkovPolicy:
    """State-dependent service rate mu_i for i jobs in system (mu_0 = 0).

    Under the multiserver model the aggregate rate cannot exceed the job
    count (unit-speed servers, one job per server), so mu_i <= i is
    enforced; the speed-scaling model allows any nonnegative rate.
    """

    rates: Callable[[int], float]
    name: str
    model: RateModel = RateModel.MULTISERVER

    def __post_init__(self):
        if self.rates(0) != 0.0:
            raise ValueError("mu_0 must be 0")
        for i in range(1, 257):
            self.check_rate(i)

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
    return MarkovPolicy(lambda i: i / c, f"alg2(alpha={alpha:g})",
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


def stationary_distribution(lam: float, policy: MarkovPolicy) -> np.ndarray:
    """Birth-death stationary law by detailed balance, pi_{i+1} = pi_i lam/mu_{i+1}.

    The truncation point starts at 64 and doubles, up to 2**22, until the
    certified tail mass (geometric bound past the cut) drops below 1e-12.
    """
    return _stationary(lam, policy)[0]


def _stationary(lam: float, policy: MarkovPolicy) -> tuple[np.ndarray, np.ndarray]:
    """The stationary pi over 0..n_max and the rates mu_0..mu_{n_max+1}.

    Each rate is evaluated once: every doubling extends one rate table,
    then checks it, takes its logs and sums them as array operations.
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
    """95% halfwidth of sum(rewards) / sum(durations) over k i.i.d. pairs.

    The regenerative ratio interval (Crane & Iglehart 1974): t_{0.975,k-1}
    times the standard deviation of R_i - r D_i, with r the ratio
    estimate, over mean(D) sqrt(k).
    """
    k = len(rewards)
    if k < 2:
        return math.inf
    # rewards near the float limit give an inf or NaN halfwidth (exit 2 in the CLI)
    with np.errstate(over="ignore", invalid="ignore"):
        r, d = np.asarray(rewards), np.asarray(durations)
        spread = float((r - r.sum() / d.sum() * d).std(ddof=1)) / float(d.mean())
    # imported on first use: loading scipy would add ~0.35 s to every command
    from scipy.special import stdtrit
    crit = float(stdtrit(k - 1, 0.975))
    return crit * spread / math.sqrt(k)


def _crossing_counts(lam: float, policy: MarkovPolicy, mu: np.ndarray,
                     state: int, cycles: np.ndarray, rng: np.random.Generator
                     ) -> tuple[int, np.ndarray, np.ndarray]:
    """Edge crossing counts of groups of regenerative cycles at ``state``.

    A cycle starts as the walk steps down from state+1 to ``state`` and
    ends at the next such step, so it steps up from ``state`` once. When
    the walk crosses into a state c times from the side of ``state``, it
    leaves that state c times back and, before the last of those,
    NegBin(c, p_back) times onward, p_back the chance of a step back
    (Harris 1952). One draw per state serves every group; finished groups
    are masked, as numpy rejects NegBin(0, p). ``cycles`` holds each
    group's cycle count.

    Returns (lo, counts, rates): ``counts[j, g]`` is how often group g
    stepped from lo+j up to lo+j+1, and ``rates`` holds mu_lo through
    mu_{lo+len(counts)}. Rates past the table ``mu`` are checked as the
    walk first reaches them; a zero there raises NonErgodicError.
    """
    beyond: list[float] = []

    def p_down(n: int) -> float:
        if n == mu.size + len(beyond):  # past the stationary table
            beyond.append(policy.check_rate(n))
            if beyond[-1] == 0.0:
                raise NonErgodicError(f"mu_{n} = 0 with arrivals pending")
        rate = mu[n] if n < mu.size else beyond[n - mu.size]
        return rate / (lam + rate)

    def branch(n: int, step: int, p_back) -> list[np.ndarray]:
        counts, c = [], cycles
        while True:
            draw = rng.negative_binomial(np.maximum(c, 1), p_back(n))
            c = np.where(c > 0, draw, 0)
            if not c.any():
                return counts
            counts.append(c)
            n += step

    below = branch(state, -1, lambda n: lam / (lam + mu[n]))
    above = [cycles] + branch(state + 1, 1, p_down)
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


def simulate_ctmc(lam: float, alpha: float, policy: MarkovPolicy,
                  event_budget: int = 1_000_000,
                  seed: int = 0) -> StochasticCostEstimate:
    """Regenerative estimate of the long-run cost from sampled crossing counts.

    The cost needs only how often the jump chain visits each state and
    crosses each edge, so no path is walked: ``_crossing_counts`` draws
    those counts for ``CTMC_BATCHES`` groups of i.i.d. cycles at the most
    likely state m, one numpy call per state, from
    ``np.random.default_rng(seed)``. Holding times are their conditional
    means 1 / (lam + mu_n) (Fox & Glynn 1986), so occupancy time, area and
    the squared rate jumps are exact given the counts. Deterministic given
    the seed; per-seed values differ from releases that walked the chain.

    ``event_budget`` sets the cycle count: a cycle takes 2 / pi_m events
    on average, so ``CTMC_BATCHES`` groups of max(1, round(event_budget
    pi_m / (2 CTMC_BATCHES))) cycles run, at least ``CTMC_BATCHES`` in
    all, and the budget may not be smaller. ``meta`` reports the
    ``cycles`` and the ``events`` that ran. The 95% halfwidth is the
    regenerative ratio interval over the groups (``_batch_ci``). A rate
    law with no stationary distribution raises ``_stationary``'s error.
    """
    check_positive("alpha", alpha)
    if event_budget < CTMC_BATCHES:
        raise ValueError(f"event budget {event_budget} is below the "
                         f"{CTMC_BATCHES} batches requested")
    if event_budget > 1 << 62:  # the counts are int64
        raise ValueError(f"event budget {event_budget} is above 2**62")
    pi, mu = _stationary(lam, policy)
    state = int(pi.argmax())
    per_group = max(1, round(event_budget * float(pi[state]) / (2 * CTMC_BATCHES)))
    rng = np.random.default_rng(seed)
    lo, counts, rates = _crossing_counts(
        lam, policy, mu, state, np.full(CTMC_BATCHES, per_group), rng)
    clock, area, switching, events = _cycle_totals(lam, lo, counts, rates)

    with np.errstate(over="ignore", invalid="ignore"):  # under a huge alpha
        rewards = area + alpha * switching
    sim_time = float(clock.sum())
    mean_occ = float(area.sum()) / sim_time
    switch_rate = float(switching.sum()) / sim_time
    total = mean_occ + alpha * switch_rate
    ci = _batch_ci(rewards, clock)
    return StochasticCostEstimate(
        mean_occ, switch_rate, total, ci, alpha,
        {"kind": "simulation", "policy": policy.name, "lam": lam,
         "events": int(events.sum()), "cycles": CTMC_BATCHES * per_group,
         "seed": seed, "batches": CTMC_BATCHES, "sim_time": sim_time})


# ---------------------------------------------------------------------------
# gated single-speed policy

@dataclass(frozen=True)
class Alg3Params:
    """Gate threshold U and constant busy-period speed mu (mu > lam)."""

    threshold: int
    mu: float

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")

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


def simulate_alg3(lam: float, alpha: float, params: Alg3Params,
                  cycle_budget: int = 200, seed: int = 0,
                  busy_event_guard: int = 50_000_000) -> StochasticCostEstimate:
    """Discrete-time-converted regenerative simulation of the gated policy.

    Each cycle: idle until U jobs accumulate, then an M/M/1 busy period at
    constant rate mu from occupancy U down to empty. Exactly two rate jumps
    per cycle (0 -> mu -> 0) cost 2 mu^2. Holding times are replaced by
    their conditional means (Fox & Glynn 1986), so the idle phase is exact
    and deterministic: length U/lam and area U(U-1)/(2 lam). The only
    sampled quantity is the busy period's jump chain, a +-1 walk from U to
    0 that steps up with probability lam/(lam + mu), drawn in numpy chunks
    from ``np.random.default_rng(seed)``; its length and area are the event
    count and the summed pre-event occupancy over lam + mu. Deterministic
    given the seed; per-seed values differ from releases that sampled
    holding times. Renewal-reward estimate with a batch-means CI over
    cycle groups.
    """
    check_positive("alpha", alpha)
    params.validate_stability(lam)
    if cycle_budget < MIN_BATCHES:
        raise ValueError(f"need at least {MIN_BATCHES} cycles")
    u, mu = params.threshold, params.mu
    if u >= busy_event_guard:  # the walk from U to 0 takes at least U events
        raise CycleOverflowError(
            f"threshold U >= {busy_event_guard}: no busy period ends within "
            f"{busy_event_guard} events")
    rng = np.random.default_rng(seed)
    total_rate = lam + mu
    p_arrival = lam / total_rate
    idle = u / lam
    idle_area = u * (u - 1) / (2.0 * lam)
    # about one mean busy period of events per draw, capped to bound memory
    chunk = min(max(256, int(u * total_rate / (mu - lam))), 1 << 16)

    events = np.empty(cycle_budget)
    occupancy = np.empty(cycle_budget)
    for cycle in range(cycle_budget):
        n = u
        count = occ = 0
        while n > 0:
            size = min(chunk, busy_event_guard - 1 - count)
            if size <= 0:
                raise CycleOverflowError(
                    f"busy period exceeded {busy_event_guard} events")
            walk = n + np.cumsum(np.where(rng.random(size) < p_arrival, 1, -1))
            hit = int(np.argmax(walk == 0))
            if walk[hit] == 0:
                size = hit + 1
            occ += n + int(walk[:size - 1].sum())
            count += size
            n = int(walk[size - 1])
        events[cycle] = count
        occupancy[cycle] = occ
    busies = events / total_rate
    areas = idle_area + occupancy / total_rate
    lengths = idle + busies

    sc_per_cycle = 2.0 * mu * mu
    total_len = float(lengths.sum())
    mean_occ = float(areas.sum()) / total_len
    switch_rate = sc_per_cycle * cycle_budget / total_len
    total = mean_occ + alpha * switch_rate

    per = cycle_budget // MIN_BATCHES
    starts = np.arange(MIN_BATCHES) * per
    sizes = np.diff(starts, append=cycle_budget)
    rewards = np.add.reduceat(areas, starts) + alpha * sc_per_cycle * sizes
    durations = np.add.reduceat(lengths, starts)
    ci = _batch_ci(rewards, durations)
    return StochasticCostEstimate(
        mean_occ, switch_rate, total, ci, alpha,
        {"kind": "simulation-regenerative", "policy": "alg3", "lam": lam,
         "threshold": u, "mu": mu, "cycles": cycle_budget, "seed": seed,
         "mean_idle": idle, "mean_busy": float(busies.mean())})


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
