import math

import numpy as np
import pytest
from scipy.stats import poisson

from flowswitch import (Alg3Params, CycleOverflowError, MarkovPolicy,
                        NonErgodicError, RateModel, alg1, alg2,
                        alg3_analytic_cost, analytic_cost, scaling_exponent,
                        simulate_alg3, simulate_ctmc, stationary_distribution)
from flowswitch.stochastic import TAIL_TOL, TruncationError, _batch_ci


def closed_form(policy: str, lam: float, alpha: float) -> float:
    if policy == "alg1":
        return lam * (1.0 + 2.0 * alpha)
    return 1.5 * (4.0 * alpha) ** (1.0 / 3.0) * lam


def alg3_renewal_cost(lam: float, alpha: float, params: Alg3Params) -> float:
    """Exact renewal-reward cost of the gated policy as simulated.

    Idle phase: U/lam long with area U(U-1)/(2 lam). Busy phase: an M/M/1
    drain from U, U/d long with area U(U-1)/(2d) + U mu/d^2, d = mu - lam.
    """
    u, mu = params.threshold, params.mu
    d = mu - lam
    cycle = u / lam + u / d
    area = u * (u - 1) / (2 * lam) + u * (u - 1) / (2 * d) + u * mu / d ** 2
    return area / cycle + alpha * 2 * mu ** 2 / cycle


def ctmc_reference(lam, alpha, policy, event_budget, seed, batches=32):
    """Per-event loop over the same jump chain: (total, ci halfwidth, clock)."""
    uniforms = np.random.default_rng(seed).random(event_budget)
    batch_size = event_budget // batches
    n, mu = 0, 0.0
    area = sc = clock = 0.0
    marks = (0.0, 0.0, 0.0)
    rewards, durations = [], []
    for event, u in enumerate(uniforms, 1):
        hold = 1.0 / (lam + mu)
        area += n * hold
        clock += hold
        n += 1 if u < lam / (lam + mu) else -1
        new_mu = policy.rates(n)
        sc += (new_mu - mu) ** 2
        mu = new_mu
        if event % batch_size == 0:
            rewards.append(area - marks[0] + alpha * (sc - marks[1]))
            durations.append(clock - marks[2])
            marks = (area, sc, clock)
    total = area / clock + alpha * sc / clock
    return total, _batch_ci(rewards, durations), clock


class TestMarkovPolicy:
    def test_mu0_must_be_zero(self):
        with pytest.raises(ValueError):
            MarkovPolicy(lambda i: i + 1.0, "bad", RateModel.MULTISERVER)

    def test_multiserver_rate_cap(self):
        with pytest.raises(ValueError):
            MarkovPolicy(lambda i: 2.0 * i, "fast", RateModel.MULTISERVER)
        MarkovPolicy(lambda i: 2.0 * i, "fast",
                     RateModel.SINGLE_SERVER_SPEED_SCALING)

    @pytest.mark.parametrize("alpha", [0.0, math.inf, math.nan])
    def test_alg2_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            alg2(alpha)

    def test_alg2_is_speed_scaling(self):
        policy = alg2(0.03125)  # cbrt(4 alpha) = 0.5 < 1 breaks mu_i <= i
        assert policy.model is RateModel.SINGLE_SERVER_SPEED_SCALING
        assert policy.rates(1) == pytest.approx(2.0)


def stationary_reference(lam, policy, cap=1 << 22):
    """The per-rate loop that stationary_distribution replaced: every
    doubling checks and logs mu_1..mu_{n_max} again, one call at a time."""
    n_max = 64
    while True:
        log_r = np.empty(n_max + 1)
        log_r[0] = 0.0
        for i in range(1, n_max + 1):
            mu = policy.check_rate(i)
            if mu == 0.0:
                raise NonErgodicError(f"mu_{i} = 0 with arrivals pending")
            log_r[i] = log_r[i - 1] + math.log(lam / mu)
        weights = np.exp(log_r - log_r.max())
        pi = weights / weights.sum()
        ratio = lam / policy.check_rate(n_max + 1)
        tail = pi[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
        if tail < TAIL_TOL:
            return pi
        if n_max >= cap:
            raise TruncationError(f"n_max={n_max}")
        n_max *= 2


def rates_breaking_at(bad_at, value, model=RateModel.MULTISERVER):
    """alg1's rates, but mu_i = value from i = bad_at on."""
    return MarkovPolicy(lambda i: float(i) if i < bad_at else value,
                        f"bad-{bad_at}-{value}", model)


class TestStationaryDistribution:
    @pytest.mark.parametrize("lam, policy", [
        (0.5, alg1()), (40.0, alg1()), (600.0, alg1()), (3.0, alg2(2.0)),
        (0.7, MarkovPolicy(lambda i: 2.5 if i else 0.0, "mm1",
                           RateModel.SINGLE_SERVER_SPEED_SCALING))])
    def test_matches_the_per_rate_loop(self, lam, policy):
        pi = stationary_distribution(lam, policy)
        ref = stationary_reference(lam, policy)
        assert pi.size == ref.size
        np.testing.assert_allclose(pi, ref, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("policy, error", [
        (rates_breaking_at(1000, math.nan), ValueError),
        (rates_breaking_at(1000, -1.0), ValueError),
        (rates_breaking_at(1000, 2000.0), ValueError),
        (rates_breaking_at(1000, 0.0), NonErgodicError),
        (rates_breaking_at(700, 0.0, RateModel.SINGLE_SERVER_SPEED_SCALING),
         NonErgodicError)])
    def test_first_bad_rate_raises_as_in_the_loop(self, policy, error):
        # Poisson(600) needs a cut past 1000, so the table reaches the bad rates
        with pytest.raises(error) as ref:
            stationary_reference(600.0, policy)
        with pytest.raises(error) as err:
            stationary_distribution(600.0, policy)
        assert str(err.value) == str(ref.value)

    def test_slow_rates_fail_at_the_cap(self):
        with pytest.raises(TruncationError, match="n_max=4194304"):
            stationary_distribution(1e300, alg1())

    def test_alg1_is_poisson(self):
        for lam in (0.5, 1.0, 4.0):
            pi = stationary_distribution(lam, alg1())
            ref = poisson.pmf(np.arange(pi.size), lam)
            assert 0.5 * np.abs(pi - ref / ref.sum()).sum() < 1e-10

    def test_constant_rate_is_geometric(self):
        lam, mu = 1.0, 2.5
        policy = MarkovPolicy(lambda i: mu if i else 0.0, "mm1",
                              RateModel.SINGLE_SERVER_SPEED_SCALING)
        pi = stationary_distribution(lam, policy)
        rho = lam / mu
        ref = (1 - rho) * rho ** np.arange(pi.size)
        assert np.abs(pi - ref).max() < 1e-12

    def test_normalized(self):
        pi = stationary_distribution(3.0, alg1())
        assert abs(pi.sum() - 1.0) < 1e-12

    def test_non_ergodic(self):
        dead = MarkovPolicy(lambda i: 0.0, "off",
                            RateModel.SINGLE_SERVER_SPEED_SCALING)
        with pytest.raises(NonErgodicError):
            stationary_distribution(1.0, dead)


class TestAnalyticCost:
    def test_alg1_closed_form(self):
        for lam in (0.5, 2.0, 8.0):
            for alpha in (0.5, 1.0, 2.0):
                est = analytic_cost(lam, alpha, alg1())
                want = lam * (1 + 2 * alpha)
                assert abs(est.total - want) / want < 1e-10

    def test_alg2_closed_form(self):
        for lam in (0.5, 2.0, 8.0):
            for alpha in (0.5, 1.0, 2.0):
                est = analytic_cost(lam, alpha, alg2(alpha))
                want = 1.5 * (4 * alpha) ** (1 / 3) * lam
                assert abs(est.total - want) / want < 1e-10

    def test_example_value(self):
        assert analytic_cost(2.0, 1.0, alg1()).total == pytest.approx(6.0)

    def test_breakdown_identity(self):
        est = analytic_cost(1.5, 2.0, alg1())
        assert est.total == pytest.approx(
            est.mean_occupancy + est.alpha * est.switch_cost_rate)


class TestSimulateCtmc:
    def test_matches_analytic_alg1(self):
        est = simulate_ctmc(1.0, 1.0, alg1(), event_budget=400_000, seed=11)
        assert abs(est.total - 3.0) <= 3 * est.ci_halfwidth

    def test_matches_analytic_alg2(self):
        # alpha=2: analytic cost is 1.5 * cbrt(8) * lam = 3 lam = 6
        est = simulate_ctmc(2.0, 2.0, alg2(2.0), event_budget=400_000, seed=11)
        assert abs(est.total - 6.0) <= 3 * est.ci_halfwidth

    def test_deterministic_per_seed(self):
        a = simulate_ctmc(2.0, 0.5, alg2(0.5), event_budget=50_000, seed=4)
        b = simulate_ctmc(2.0, 0.5, alg2(0.5), event_budget=50_000, seed=4)
        assert a == b
        c = simulate_ctmc(2.0, 0.5, alg2(0.5), event_budget=50_000, seed=5)
        assert c.total != a.total

    def test_non_ergodic_rejected(self):
        dead = MarkovPolicy(lambda i: 0.0, "off",
                            RateModel.SINGLE_SERVER_SPEED_SCALING)
        with pytest.raises(NonErgodicError):
            simulate_ctmc(1.0, 1.0, dead, event_budget=1000, seed=0)

    def test_non_ergodic_reached_mid_run(self):
        # mu_i = 0.5 < lam drifts upward into the zero rate at i = 70, past
        # the states checked before the run starts
        stall = MarkovPolicy(lambda i: 0.5 if 0 < i < 70 else 0.0, "stall",
                             RateModel.SINGLE_SERVER_SPEED_SCALING)
        with pytest.raises(NonErgodicError, match="mu_70"):
            simulate_ctmc(1.0, 1.0, stall, event_budget=100_000, seed=0)
        # a zero rate the run never reaches is never evaluated
        far = MarkovPolicy(lambda i: float(i) if i < 1000 else 0.0, "far",
                           RateModel.MULTISERVER)
        est = simulate_ctmc(1.0, 1.0, far, event_budget=10_000, seed=0)
        assert est.meta["batches"] == 32

    def test_ci_reported(self):
        est = simulate_ctmc(1.0, 1.0, alg1(), event_budget=60_000, seed=2)
        assert est.ci_halfwidth > 0
        assert est.meta["batches"] >= 30

    def test_batch_floor(self):
        with pytest.raises(ValueError, match="below"):
            simulate_ctmc(1.0, 1.0, alg1(), event_budget=10, seed=0)
        est = simulate_ctmc(1.0, 1.0, alg1(), event_budget=32, seed=0)
        assert est.meta["batches"] == 32

    @pytest.mark.parametrize("policy", ["alg1", "alg2"])
    @pytest.mark.parametrize("lam", [1.0, 4.0])
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_grid_matches_closed_form(self, policy, lam, alpha):
        rates = alg1() if policy == "alg1" else alg2(alpha)
        exact = closed_form(policy, lam, alpha)
        for seed in (1, 2, 3):
            est = simulate_ctmc(lam, alpha, rates, event_budget=100_000,
                                seed=seed)
            assert est.meta["batches"] == 32
            assert abs(est.total - exact) <= 5 * est.ci_halfwidth

    @pytest.mark.parametrize("policy", [alg1(), alg2(0.5)])
    def test_matches_per_event_reference(self, policy):
        # 10_007 events in batches of 312 leaves 23 trailing events
        est = simulate_ctmc(2.0, 0.5, policy, event_budget=10_007, seed=7)
        total, ci, clock = ctmc_reference(2.0, 0.5, policy, 10_007, 7)
        assert est.total == pytest.approx(total, rel=1e-9)
        assert est.ci_halfwidth == pytest.approx(ci, rel=1e-9)
        assert est.meta["sim_time"] == pytest.approx(clock, rel=1e-9)
        assert est.meta["batches"] == 32


class TestAlg3:
    def test_parameter_scaling(self):
        lam = 1000.0
        params = Alg3Params.from_rates(lam, c1=1.0, c2=1.0)
        assert params.threshold == math.ceil(lam ** (2 / 3))
        assert params.mu == pytest.approx(lam + lam ** (1 / 3))

    def test_stability_required(self):
        with pytest.raises(ValueError):
            Alg3Params(10, 1.0).validate_stability(2.0)
        with pytest.raises(ValueError):
            Alg3Params.from_rates(-1.0)
        with pytest.raises(ValueError):
            Alg3Params.from_rates(10.0, theta2=1.0)

    def test_idle_period_mean(self):
        # E[idle] = U / lam (time to collect U arrivals)
        lam = 200.0
        params = Alg3Params.from_rates(lam)
        est = simulate_alg3(lam, 1.0, params, cycle_budget=400, seed=9)
        assert est.meta["mean_idle"] == pytest.approx(params.threshold / lam,
                                                      rel=0.05)

    def test_busy_period_matches_queueing_not_published_accounting(self):
        # faithful M/M/1 drain: E[busy] = U/(mu-lam); the published renewal
        # accounting uses U mu/(mu-lam), larger by a factor of mu
        lam = 200.0
        params = Alg3Params.from_rates(lam)
        honest = params.threshold / (params.mu - lam)
        est = simulate_alg3(lam, 1.0, params, cycle_budget=600, seed=10)
        assert est.meta["mean_busy"] == pytest.approx(honest, rel=0.30)
        assert est.meta["mean_busy"] < honest * params.mu / 2

    def test_switch_cost_is_two_jumps_per_cycle(self):
        lam = 50.0
        params = Alg3Params.from_rates(lam)
        est = simulate_alg3(lam, 2.0, params, cycle_budget=64, seed=1)
        cycles = est.meta["cycles"]
        total_time = cycles * (est.meta["mean_idle"] + est.meta["mean_busy"])
        expect_rate = 2.0 * params.mu ** 2 * cycles / total_time
        assert est.switch_cost_rate == pytest.approx(expect_rate, rel=1e-9)

    def test_analytic_envelope(self):
        # published renewal accounting with c1 = c2 = 1 at lam = 1e3 sits inside
        # (c1 + 1/c2 + 2 alpha c2/c1) lam^(2/3) (1 +- 0.5)
        lam = 1000.0
        est = alg3_analytic_cost(lam, 1.0, Alg3Params.from_rates(lam))
        envelope = 4.0 * lam ** (2 / 3)
        assert 0.5 * envelope <= est.total <= 1.5 * envelope

    def test_fixed_walk_accounting(self, monkeypatch):
        # lam = 1, mu = 3, U = 2: a draw below lam/(lam+mu) = 1/4 is an
        # arrival, and every pre-event occupancy is held 1/(lam+mu) = 1/4.
        # Each cycle idles U/lam = 2 with area U(U-1)/(2 lam) = 1.
        up, down = 0.1, 0.9
        walks = {  # cycle -> draws per chunk, busy length, busy area
            "a": ([[up, down, down, down]], 1.0, 2.0),  # 2,3,2,1: 4 events, sum 8
            "b": ([[down, down]], 0.5, 0.75),  # 2,1: 2 events, sum 3
            # a full 256-event chunk at 2,3,2,3,... (sum 640), then 2,1:
            # 258 events, sum 643
            "c": ([[up, down] * 128, [down, down]], 64.5, 160.75),
        }
        cycles = "abc" * 10

        class ScriptedUniforms:
            def __init__(self, seed):
                self.draws = iter([d for c in cycles for d in walks[c][0]])

            def random(self, size):
                head = next(self.draws)
                return np.array(head + [down] * (size - len(head)))

        monkeypatch.setattr(np.random, "default_rng", ScriptedUniforms)
        est = simulate_alg3(1.0, 2.0, Alg3Params(2, 3.0), cycle_budget=len(cycles))
        # ten of each cycle: area 10 (3 + 1.75 + 161.75) = 1665 over
        # length 10 (3 + 2.5 + 66.5) = 720; busy 10 (1 + 0.5 + 64.5) = 660
        assert sum(1.0 + walks[c][2] for c in cycles) == 1665.0
        assert sum(2.0 + walks[c][1] for c in cycles) == 720.0
        assert (est.meta["mean_idle"], est.meta["mean_busy"]) == (2.0, 660 / 30)
        assert est.mean_occupancy == 1665 / 720
        assert est.switch_cost_rate == 2 * 3.0 ** 2 * 30 / 720
        assert est.total == 1665 / 720 + 2.0 * (2 * 3.0 ** 2 * 30 / 720)

    def test_deterministic_per_seed(self):
        params = Alg3Params.from_rates(100.0)
        a = simulate_alg3(100.0, 1.0, params, cycle_budget=50, seed=3)
        b = simulate_alg3(100.0, 1.0, params, cycle_budget=50, seed=3)
        assert a == b

    @pytest.mark.parametrize("lam", [50.0, 100.0, 200.0])
    def test_matches_exact_renewal_cost(self, lam):
        params = Alg3Params.from_rates(lam)
        exact = alg3_renewal_cost(lam, 1.0, params)
        for seed in (1, 2, 3, 4):
            est = simulate_alg3(lam, 1.0, params, seed=seed)
            assert abs(est.total - exact) <= 3 * est.ci_halfwidth

    def test_busy_event_guard(self):
        params = Alg3Params.from_rates(50.0)  # U = 14 needs >= 14 events
        with pytest.raises(CycleOverflowError):
            simulate_alg3(50.0, 1.0, params, busy_event_guard=10)


class TestScalingExponent:
    def test_exact_power_law(self):
        samples = [(lam, 3.0 * lam ** (2 / 3))
                   for lam in (1e1, 1e2, 1e3, 1e4)]
        assert scaling_exponent(samples) == pytest.approx(2 / 3, abs=1e-12)

    def test_alg1_scales_linearly(self):
        samples = [(lam, analytic_cost(lam, 1.0, alg1()).total)
                   for lam in (0.5, 5.0, 50.0, 500.0)]
        assert scaling_exponent(samples) == pytest.approx(1.0, abs=1e-6)

    def test_alg3_renewal_scaling(self):
        samples = [(lam, alg3_analytic_cost(lam, 1.0,
                                            Alg3Params.from_rates(lam)).total)
                   for lam in (1e2, 1e3, 1e4, 1e5)]
        slope = scaling_exponent(samples)
        assert 0.57 <= slope <= 0.77

    def test_degenerate_range(self):
        with pytest.raises(ValueError):
            scaling_exponent([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)])
        with pytest.raises(ValueError):
            scaling_exponent([(1.0, 1.0), (1000.0, 10.0)])
