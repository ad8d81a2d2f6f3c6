import math

import numpy as np
import pytest
from scipy.special import stdtrit
from scipy.stats import ks_2samp, poisson

from flowswitch import (Alg3Params, CycleOverflowError, MarkovPolicy,
                        NonErgodicError, RateModel, alg1, alg2,
                        alg3_analytic_cost, analytic_cost, scaling_exponent,
                        simulate_alg3, simulate_ctmc)
from flowswitch import stochastic
from flowswitch.stochastic import (BUSY_LEVEL_CAP, MIN_BATCHES, T_975,
                                   TAIL_TOL, TruncationError, _batch_ci,
                                   _branch, _busy_periods, _crossing_counts,
                                   _cycle_totals, _stationary)

from conftest import stationary_distribution


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


def ctmc_reference(lam, policy, state, cycles, seed):
    """The per-event walk of the jump chain, one uniform per event: each
    regenerative cycle's event count and occupancy area, every visit held
    its conditional mean 1 / (lam + mu_n). A cycle starts at ``state`` and
    ends when the walk steps down to it from state + 1."""
    rng = np.random.default_rng(seed)
    events, areas = np.zeros(cycles, dtype=np.int64), np.zeros(cycles)
    for cycle in range(cycles):
        n = state
        while True:
            mu = policy.rates(n)
            areas[cycle] += n / (lam + mu)
            events[cycle] += 1
            if rng.random() < lam / (lam + mu):
                n += 1
            else:
                n -= 1
                if n == state:
                    break
    return events, areas


def alg3_walk_reference(lam, params, cycles, seed):
    """The gated policy's busy periods walked in numpy chunks: a +-1 walk
    from U to 0 that steps up with probability lam / (lam + mu). Returns
    each busy period's event count and area, its summed pre-event
    occupancy over lam + mu."""
    u, mu = params.threshold, params.mu
    rng = np.random.default_rng(seed)
    # about one mean busy period of events per draw, capped to bound memory
    chunk = min(max(256, int(u * (lam + mu) / (mu - lam))), 1 << 16)
    events, areas = np.zeros(cycles, dtype=np.int64), np.zeros(cycles)
    for cycle in range(cycles):
        n = u
        count = occ = 0
        while n > 0:
            walk = n + np.cumsum(np.where(rng.random(chunk) < lam / (lam + mu), 1, -1))
            hit = int(np.argmax(walk == 0))
            size = hit + 1 if walk[hit] == 0 else chunk
            occ += n + int(walk[:size - 1].sum())
            count += size
            n = int(walk[size - 1])
        events[cycle], areas[cycle] = count, occ / (lam + mu)
    return events, areas


def most_likely_state(lam, policy):
    """The state simulate_ctmc regenerates at."""
    return int(stationary_distribution(lam, policy).argmax())


class TestMarkovPolicy:
    def test_mu0_must_be_zero(self):
        with pytest.raises(ValueError):
            MarkovPolicy(lambda i: i + 1.0, "bad", RateModel.MULTISERVER)

    def test_multiserver_rate_cap(self):
        # a rate is checked where a computation first reads it
        fast = MarkovPolicy(lambda i: 2.0 * i, "fast", RateModel.MULTISERVER)
        with pytest.raises(ValueError,
                           match=r"^multiserver model violated: mu_1 = 2 > 1$"):
            stationary_distribution(1.0, fast)
        stationary_distribution(1.0, MarkovPolicy(
            lambda i: 2.0 * i, "fast", RateModel.SINGLE_SERVER_SPEED_SCALING))

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

    def test_json_key_order(self):
        # the order stochastic prints them in
        est = analytic_cost(1.5, 2.0, alg1())
        assert list(est.to_json_dict()) == ["mean_occupancy", "switch_cost_rate",
                                            "total", "ci_halfwidth", "alpha", "meta"]


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
        # mu_i = 0.5 < lam drifts upward into the zero rate at i = 70; the
        # stationary law's table reaches it before any cycle is drawn
        stall = MarkovPolicy(lambda i: 0.5 if 0 < i < 70 else 0.0, "stall",
                             RateModel.SINGLE_SERVER_SPEED_SCALING)
        with pytest.raises(NonErgodicError, match="mu_70"):
            simulate_ctmc(1.0, 1.0, stall, event_budget=100_000, seed=0)
        # a zero rate the run never reaches is never evaluated
        far = MarkovPolicy(lambda i: float(i) if i < 1000 else 0.0, "far",
                           RateModel.MULTISERVER)
        est = simulate_ctmc(1.0, 1.0, far, event_budget=10_000, seed=0)
        assert est.meta["batches"] == 32

    def test_rates_past_the_table_are_evaluated_as_reached(self):
        lam, cycles = 2.0, np.full(MIN_BATCHES, 200)
        _, mu = _stationary(lam, alg1())
        full = _crossing_counts(lam, alg1(), mu, 0, cycles, np.random.default_rng(5))
        short = _crossing_counts(lam, alg1(), mu[:3], 0, cycles,
                                 np.random.default_rng(5))
        assert full[0] == short[0]
        np.testing.assert_array_equal(full[1], short[1])
        np.testing.assert_array_equal(full[2], short[2])
        # past a table of mu_0..mu_2, the zero rate at 3 is met as the walk gets there
        with pytest.raises(NonErgodicError, match="^mu_3 = 0"):
            _crossing_counts(lam, rates_breaking_at(3, 0.0), mu[:3], 0, cycles,
                             np.random.default_rng(5))

    def test_transient_chain_raises(self):
        # mu_i = 0.5 < lam = 1 drifts off: there is no stationary law and no
        # finite long-run cost, so there is nothing to estimate
        transient = MarkovPolicy(lambda i: 0.5 if i else 0.0, "transient",
                                 RateModel.SINGLE_SERVER_SPEED_SCALING)
        with pytest.raises(TruncationError,
                           match="chain not geometrically stable at n_max=4194304"):
            simulate_ctmc(1.0, 1.0, transient, event_budget=10_000, seed=0)

    def test_ci_reported(self):
        est = simulate_ctmc(1.0, 1.0, alg1(), event_budget=60_000, seed=2)
        assert est.ci_halfwidth > 0
        assert est.meta["batches"] >= 30

    def test_batch_floor(self):
        with pytest.raises(ValueError, match="below"):
            simulate_ctmc(1.0, 1.0, alg1(), event_budget=10, seed=0)
        est = simulate_ctmc(1.0, 1.0, alg1(), event_budget=32, seed=0)
        assert est.meta["batches"] == 32

    def test_meta_reports_what_ran(self):
        lam, policy, budget = 2.0, alg2(0.5), 50_000
        est = simulate_ctmc(lam, 0.5, policy, event_budget=budget, seed=3)
        pi, mu = _stationary(lam, policy)
        state = int(pi.argmax())
        per_group = round(budget * pi[state] / 64)  # 2 / pi_m events a cycle
        lo, counts, rates = _crossing_counts(
            lam, policy, mu, state, np.full(MIN_BATCHES, per_group),
            np.random.default_rng(3))
        clock, _, _, events = _cycle_totals(lam, lo, counts, rates)
        assert est.meta["cycles"] == MIN_BATCHES * per_group
        assert est.meta["events"] == events.sum() == 2 * counts.sum()
        assert est.meta["sim_time"] == clock.sum()
        assert est.meta["batches"] == MIN_BATCHES
        assert abs(est.meta["events"] - budget) < 0.05 * budget
        # a budget below one cycle per group still runs 32 cycles
        tiny = simulate_ctmc(4.0, 2.0, alg2(2.0), event_budget=32, seed=3)
        assert tiny.meta["cycles"] == 32
        assert tiny.meta["events"] >= 64  # out and back at least once a cycle
        # simulate_alg3 reports the same keys. A busy period from U = 5
        # takes U (lam + mu) / (mu - lam) = 51.4 events on average, so
        # 5,000 events make 32 groups of 3, and each busy period from U
        # steps down U times more than up
        params = Alg3Params.from_rates(10.0)
        u, mu = params.threshold, params.mu
        gated = simulate_alg3(10.0, 0.5, params, event_budget=5_000, seed=3)
        events, _ = _busy_periods(10.0, mu, u, np.full(MIN_BATCHES, 3),
                                  np.random.default_rng(3))
        assert set(est.meta) - {"kind", "policy"} < set(gated.meta)
        assert gated.meta["cycles"] == 96
        assert gated.meta["batches"] == MIN_BATCHES
        assert gated.meta["events"] == events.sum()
        assert (gated.meta["events"] - 96 * u) % 2 == 0
        assert gated.meta["mean_busy"] == pytest.approx(
            events.sum() / (10.0 + mu) / 96, rel=1e-12)
        assert gated.meta["sim_time"] == pytest.approx(
            96 * u / 10.0 + events.sum() / (10.0 + mu), rel=1e-12)

    @pytest.mark.parametrize("policy, lam, alpha, budget, seed, expected", [
        (alg1(), 1.0, 1.0, 1000, 7,
         (0.9990805095059091, 1.9990805095059092, 0.15489278429801734, 1056, 192,
          528.2428571428571)),
        (alg2(0.5), 4.0, 0.5, 12345, 123,
         (5.08707521402779, 5.063379706803642, 0.22242866943859782, 12862, 1088,
          1600.226082390496)),
        (alg2(2.0), 100.0, 2.0, 100_000, 0,
         (200.11122481951028, 50.01390310243878, 2.7897652108913933, 97120, 1408,
          485.4650106045424)),
        (alg1(), 1.0, 1.0, 10 ** 17, 0,
         (0.999999999191785, 1.9999999991917847, 2.2615177195171596e-08,
          100000000111419760, 18393972058572096, 5.0000000075915256e+16))],
        ids=["alg1", "alg2-half", "alg2-two", "alg1-huge"])
    def test_pinned_estimates(self, policy, lam, alpha, budget, seed, expected):
        # recorded estimates: sizing the groups from the budget and forming
        # the ratio must not move a draw or a bit. At 1e17 events a group
        # holds about 2**49 cycles, where dividing the budget by 2 / pi_m
        # instead of multiplying it by pi_m / 2 rounds to one cycle more
        est = simulate_ctmc(lam, alpha, policy, event_budget=budget, seed=seed)
        assert (est.mean_occupancy, est.switch_cost_rate, est.ci_halfwidth,
                est.meta["events"], est.meta["cycles"], est.meta["sim_time"]) == expected
        assert est.total == est.mean_occupancy + alpha * est.switch_cost_rate

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

    def test_coverage_on_the_bench_configs(self):
        # the 95% interval's coverage over 250 seeds on each (policy, lam,
        # alpha) that the benchmark runs, at its 1e5-event budget: 0.948 to
        # 0.953 per config over 3,000 seeds, so the pooled 2,000 runs sit
        # three standard errors or more inside [0.93, 0.97] and each
        # config's 250 more than four above 0.88
        covered = {}
        for policy in ("alg1", "alg2"):
            for lam, alpha in ((1.0, 0.5), (1.0, 2.0), (4.0, 0.5), (4.0, 2.0)):
                rates = alg1() if policy == "alg1" else alg2(alpha)
                exact = closed_form(policy, lam, alpha)
                hits = 0
                for seed in range(250):
                    est = simulate_ctmc(lam, alpha, rates, event_budget=100_000,
                                        seed=seed)
                    hits += abs(est.total - exact) <= est.ci_halfwidth
                covered[policy, lam, alpha] = hits / 250
        assert 0.93 <= sum(covered.values()) / len(covered) <= 0.97, covered
        assert min(covered.values()) >= 0.88, covered

    @pytest.mark.parametrize("policy", [alg1(), alg2(0.5)])
    def test_matches_per_event_reference(self, policy):
        # single cycles drawn from crossing counts and walked event by event
        # agree in law: a two-sample Kolmogorov-Smirnov test on each cycle's
        # event count and area, from state 0 and from where the run regenerates.
        # Areas take few distinct values, which the two sum in different
        # orders: rounding makes equal areas tie again
        lam, cycles = 2.0, 3000
        _, mu = _stationary(lam, policy)
        for state in (0, most_likely_state(lam, policy)):
            lo, counts, rates = _crossing_counts(
                lam, policy, mu, state, np.ones(cycles, dtype=np.int64),
                np.random.default_rng(7))
            _, area, _, events = _cycle_totals(lam, lo, counts, rates)
            walk_events, walk_area = ctmc_reference(lam, policy, state, cycles, 8)
            assert ks_2samp(events, walk_events).pvalue > 0.01, state
            assert ks_2samp(area.round(9), walk_area.round(9)).pvalue > 0.01, state

    @pytest.mark.parametrize("policy", [alg1(), alg2(0.5), MarkovPolicy(
        lambda i: 2.5 if i else 0.0, "mm1", RateModel.SINGLE_SERVER_SPEED_SCALING)],
        ids=["alg1", "alg2", "mm1"])
    def test_mean_crossings_are_the_stationary_ratios(self, policy):
        # a cycle at m crosses n -> n+1 pi_n / pi_m times on average (from
        # m = 0, pi_n / pi_0). Over 32 groups of 20,000 cycles, every
        # per-cycle mean with an expectation of at least 1e-3 lies within
        # 4 standard errors (from the groups' spread) of it, and within 2%
        # of it where the expectation is 0.1 or more
        lam = 2.0
        pi, mu = _stationary(lam, policy)
        for state in (0, most_likely_state(lam, policy)):
            lo, counts, _ = _crossing_counts(
                lam, policy, mu, state, np.full(MIN_BATCHES, 20_000),
                np.random.default_rng(11))
            per_cycle = counts / 20_000
            expected = pi[lo:lo + len(counts)] / pi[state]
            mean = per_cycle.mean(axis=1)
            stderr = per_cycle.std(axis=1, ddof=1) / math.sqrt(MIN_BATCHES)
            shown = expected >= 1e-3
            assert shown.sum() >= 8
            assert (np.abs(mean - expected) <= 4 * stderr)[shown].all(), state
            common = expected >= 0.1
            assert (np.abs(mean / expected - 1) <= 0.02)[common].all(), state

    @pytest.mark.parametrize("k", [2, 30, 32, 200])
    def test_batch_ci_is_the_t_interval(self, k):
        # the regenerative ratio interval over k i.i.d. (reward, duration)
        # pairs: t_{0.975,k-1} sd(R_i - r D_i) / (mean(D) sqrt(k)), r = sum R / sum D;
        # its one quantile is pinned at k = MIN_BATCHES, so any other k is refused
        rng = np.random.default_rng(k)
        rewards = rng.exponential(3.0, k)
        durations = rng.uniform(0.5, 2.0, k)
        if k != MIN_BATCHES:
            with pytest.raises(ValueError, match=f"takes {MIN_BATCHES} groups, got k={k}$"):
                _batch_ci(rewards.tolist(), durations.tolist())
            return
        residuals = rewards - rewards.sum() / durations.sum() * durations
        expected = (float(stdtrit(k - 1, 0.975)) * float(residuals.std(ddof=1))
                    / (float(durations.mean()) * math.sqrt(k)))
        assert _batch_ci(rewards.tolist(), durations.tolist()) == \
            pytest.approx(expected, rel=1e-12)

    def test_t_quantile_is_scipys(self):
        # the interval's one quantile, pinned bit for bit to scipy's
        assert T_975 == float(stdtrit(MIN_BATCHES - 1, 0.975))

    def test_batch_ci_takes_only_min_batches_groups(self):
        for k in (0, 1, MIN_BATCHES - 1, MIN_BATCHES + 1):
            with pytest.raises(ValueError, match=f"takes {MIN_BATCHES} groups, got k={k}$"):
                _batch_ci([1.0] * k, [1.0] * k)


def one_level(c, odds, seed):
    """The onward steps ``_branch`` draws at its first level, n = 0."""
    counts = _branch(np.asarray(c), 0, 1, lambda n: odds if n == 0 else 0.0,
                     np.random.default_rng(seed))
    return counts[0] if counts else np.zeros(len(c), dtype=np.int64)


class TestBranch:
    @pytest.mark.parametrize("odds", [0.05, 1.0, 22.0])
    @pytest.mark.parametrize("c", [1, 7, 577])
    def test_level_matches_negative_binomial(self, c, odds):
        # a level's Gamma-Poisson draw is NegBin(c, 1 / (1 + odds)), numpy's
        # own draw kept here as the reference: a two-sample Kolmogorov-Smirnov
        # test, and the mean c odds and variance c odds (1 + odds) each
        # within 4 standard errors of the sample's
        size = 20_000
        drawn = one_level(np.full(size, c), odds, seed=c)
        reference = np.random.default_rng(c + 1).negative_binomial(c, 1 / (1 + odds), size)
        assert ks_2samp(drawn, reference).pvalue > 0.01
        mean, var = c * odds, c * odds * (1 + odds)
        centred = drawn - drawn.mean()
        var_stderr = math.sqrt(((centred ** 4).mean() - drawn.var() ** 2) / size)
        assert abs(drawn.mean() - mean) <= 4 * math.sqrt(var / size)
        assert abs(drawn.var(ddof=1) - var) <= 4 * var_stderr

    def test_finished_groups_and_zero_odds_draw_nothing(self):
        # no mask: a group with c = 0 draws Gamma(0) = 0 steps, and at odds 0
        # (the walk's floor below m, where mu_0 = 0) no group steps on
        drawn = one_level(np.array([0, 577, 0, 7, 0, 1] * 50), 22.0, seed=3)
        assert (drawn[0::2] == 0).all() and drawn[1::2].any()
        assert _branch(np.full(MIN_BATCHES, 577), 0, -1, lambda n: 0.0,
                       np.random.default_rng(3)) == []

    @pytest.mark.parametrize("c", [[5, 5], [0, 5]], ids=["live", "one-finished"])
    @pytest.mark.parametrize("odds", [math.inf, 1e300], ids=["inf", "overflowing"])
    def test_odds_past_the_poisson_range_raise_value_error(self, c, odds):
        # numpy's ValueError, which the CLI maps to exit 2, never a NaN count
        with pytest.raises(ValueError, match="lam value too large"):
            one_level(np.array(c), odds, seed=0)

    def test_subnormal_rate_past_the_table_raises_value_error(self):
        # lam / 5e-324 is inf: past a table of mu_0..mu_2 the walk meets it
        # at 3, and poisson rejects it where (1 - p) / p would divide by 0
        lam, cycles = 2.0, np.full(MIN_BATCHES, 200)
        _, mu = _stationary(lam, alg1())
        with pytest.raises(ValueError, match="lam value too large"):
            _crossing_counts(lam, rates_breaking_at(3, 5e-324), mu[:3], 0, cycles,
                             np.random.default_rng(5))


class TestAlg3:
    def test_parameter_scaling(self):
        lam = 1000.0
        params = Alg3Params.from_rates(lam, c1=1.0, c2=1.0)
        assert params.threshold == math.ceil(lam ** (2 / 3))
        assert params.mu == pytest.approx(lam + lam ** (1 / 3))

    def test_stability_required(self):
        with pytest.raises(ValueError):
            Alg3Params(10, 1.0).validate_stability(2.0)
        with pytest.raises(ValueError, match="threshold"):
            Alg3Params(0, 2.0)
        with pytest.raises(ValueError):
            Alg3Params.from_rates(-1.0)
        with pytest.raises(ValueError):
            Alg3Params.from_rates(10.0, theta2=1.0)

    @pytest.mark.parametrize("threshold, mu, name", [
        (math.inf, 3.0, "threshold"), (math.nan, 3.0, "threshold"),
        (2.5, 3.0, "threshold"), (0, 3.0, "threshold"), (2, math.inf, "mu"),
        (2, math.nan, "mu"), (2, 0.0, "mu"), (2, -1.0, "mu")])
    def test_params_reject_what_cannot_be_simulated(self, threshold, mu, name):
        # the threshold is a whole number of jobs and mu a finite rate
        value = threshold if name == "threshold" else mu
        with pytest.raises(ValueError, match=rf"^{name} must be .*, got {value}$"):
            Alg3Params(threshold, mu)

    def test_integral_threshold_is_stored_as_an_int(self):
        params = Alg3Params(2.0, 3.0)
        assert params.threshold == 2 and type(params.threshold) is int

    @pytest.mark.parametrize("name", ["c1", "c2"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nonpositive_constant_is_named(self, name, value):
        with pytest.raises(ValueError,
                           match=rf"^{name} must be positive and finite, got {value}$"):
            Alg3Params.from_rates(10.0, **{name: value})

    def test_idle_period_mean(self):
        # E[idle] = U / lam (time to collect U arrivals)
        lam = 200.0
        params = Alg3Params.from_rates(lam)
        est = simulate_alg3(lam, 1.0, params, event_budget=1_000_000, seed=9)
        assert est.meta["mean_idle"] == pytest.approx(params.threshold / lam,
                                                      rel=0.05)

    def test_busy_period_matches_queueing_not_published_accounting(self):
        # faithful M/M/1 drain: E[busy] = U/(mu-lam); the published renewal
        # accounting uses U mu/(mu-lam), larger by a factor of mu
        lam = 200.0
        params = Alg3Params.from_rates(lam)
        honest = params.threshold / (params.mu - lam)
        est = simulate_alg3(lam, 1.0, params, event_budget=1_500_000, seed=10)
        assert est.meta["mean_busy"] == pytest.approx(honest, rel=0.30)
        assert est.meta["mean_busy"] < honest * params.mu / 2

    def test_switch_cost_is_two_jumps_per_cycle(self):
        lam = 50.0
        params = Alg3Params.from_rates(lam)
        est = simulate_alg3(lam, 2.0, params, event_budget=25_000, seed=1)
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
        # lam = 1, mu = 3, U = 2: a busy period steps down from level j d_j
        # times, d_1 = 1 and d_{j+1} = u_j + [j+1 <= 2], and up u_j ~
        # NegBin(d_j, 3/4) times, drawn as a Poisson with mean Gamma(d_j)
        # lam/mu. Its v_j = d_j + u_j visits are each held 1/(lam+mu) =
        # 1/4, and each cycle idles U/lam = 2 with area U(U-1)/(2 lam) = 1.
        # A busy period takes 4 events on average, so 32 events make 32
        # groups of one.
        busy = {  # u_j and d_j by level, then busy length and area
            "a": ((0, 1, 0), (1, 1, 1), 1.0, 2.0),  # 2,3,2,1: v = 1,2,1
            "b": ((0, 0), (1, 1), 0.5, 0.75),  # 2,1: v = 1,1
            "c": ((2, 3, 1, 0), (1, 3, 3, 1), 3.5, 7.75),  # v = 3,6,4,1
        }
        cycles = "abc" * 10 + "ab"

        def script(k, j):  # a cycle's entry k at level j; 0 once it is done
            return [busy[c][k][j] if j < len(busy[c][k]) else 0 for c in cycles]

        class ScriptedDraws:
            def __init__(self, seed):
                self.level = 0

            def standard_gamma(self, shape):
                # a finished group gets shape 0; the draw is the shape, its mean
                assert shape.tolist() == script(1, self.level)
                return shape.astype(float)

            def poisson(self, mean):
                j, self.level = self.level, self.level + 1
                assert mean.tolist() == pytest.approx(
                    [d / 3 for d in script(1, j)], rel=1e-15, abs=0)
                return np.array(script(0, j))

        monkeypatch.setattr(np.random, "default_rng", ScriptedDraws)
        est = simulate_alg3(1.0, 2.0, Alg3Params(2, 3.0), event_budget=32)
        # ten of each cycle and one more a and b: area 10 (3 + 1.75 + 8.75)
        # + 3 + 1.75 = 139.75 over length 10 (3 + 2.5 + 5.5) + 3 + 2.5 =
        # 115.5; busy 10 (1 + 0.5 + 3.5) + 1.5 = 51.5 over 10 (4 + 2 + 14)
        # + 6 = 206 events
        assert sum(1.0 + busy[c][3] for c in cycles) == 139.75
        assert sum(2.0 + busy[c][2] for c in cycles) == 115.5
        assert (est.meta["mean_idle"], est.meta["mean_busy"]) == (2.0, 51.5 / 32)
        assert (est.meta["events"], est.meta["cycles"], est.meta["sim_time"]) == \
            (206, 32, 115.5)
        assert est.mean_occupancy == 139.75 / 115.5
        assert est.switch_cost_rate == 2 * 3.0 ** 2 * 32 / 115.5
        assert est.total == 139.75 / 115.5 + 2.0 * (2 * 3.0 ** 2 * 32 / 115.5)

    def test_deterministic_per_seed(self):
        params = Alg3Params.from_rates(100.0)
        a = simulate_alg3(100.0, 1.0, params, event_budget=50_000, seed=3)
        b = simulate_alg3(100.0, 1.0, params, event_budget=50_000, seed=3)
        assert a == b

    @pytest.mark.parametrize("lam", [50.0, 100.0, 200.0])
    def test_matches_exact_renewal_cost(self, lam):
        params = Alg3Params.from_rates(lam)
        exact = alg3_renewal_cost(lam, 1.0, params)
        for seed in (1, 2, 3, 4):
            est = simulate_alg3(lam, 1.0, params, seed=seed)
            assert abs(est.total - exact) <= 3 * est.ci_halfwidth

    @pytest.mark.parametrize("lam, params", [
        (1.0, Alg3Params(2, 3.0)), (10.0, Alg3Params(5, 12.0)),
        (100.0, Alg3Params.from_rates(100.0))], ids=["lam1", "lam10", "lam100"])
    def test_matches_walk_reference(self, lam, params):
        # single busy periods drawn from crossing counts and walked event by
        # event agree in law: a two-sample Kolmogorov-Smirnov test on each
        # one's event count and area
        cycles = 3000
        events, area = _busy_periods(lam, params.mu, params.threshold,
                                     np.ones(cycles, dtype=np.int64),
                                     np.random.default_rng(7))
        walk_events, walk_area = alg3_walk_reference(lam, params, cycles, 8)
        assert ks_2samp(events, walk_events).pvalue > 0.01
        assert ks_2samp(area, walk_area).pvalue > 0.01

    def test_alg3_coverage_on_the_bench_config(self):
        # the 95% interval covers the exact renewal cost at the benchmark's
        # lam = 100, here over 2e5 events: 32 groups of 6 cycles
        lam = 100.0
        params = Alg3Params.from_rates(lam)
        exact = alg3_renewal_cost(lam, 1.0, params)
        hits = sum(abs(est.total - exact) <= est.ci_halfwidth for est in (
            simulate_alg3(lam, 1.0, params, event_budget=200_000, seed=seed)
            for seed in range(200)))
        assert 0.90 <= hits / 200 <= 0.98, hits

    def test_busy_level_cap(self, monkeypatch):
        # a threshold above the cap fails before any draw
        with pytest.raises(CycleOverflowError, match="no busy period"):
            simulate_alg3(1.0, 1.0, Alg3Params(BUSY_LEVEL_CAP + 1, 2.0))
        # U = 5 and lam/mu = 0.82: some of 300 busy periods climbs past 8
        monkeypatch.setattr(stochastic, "BUSY_LEVEL_CAP", 8)
        params = Alg3Params.from_rates(10.0)
        with pytest.raises(CycleOverflowError, match="climbed past level 8"):
            simulate_alg3(10.0, 1.0, params, event_budget=15_000, seed=0)
        with pytest.raises(CycleOverflowError, match="no busy period"):
            simulate_alg3(10.0, 1.0, Alg3Params(9, params.mu), event_budget=15_000)

    def test_event_budget_edges(self):
        # the budget covers one event per group at least and 2**62 at most
        lam, params = 100.0, Alg3Params.from_rates(100.0)
        with pytest.raises(ValueError,
                           match=r"^event budget 31 is below the 32 batches requested$"):
            simulate_alg3(lam, 1.0, params, event_budget=31)
        assert simulate_alg3(lam, 1.0, params, event_budget=32).meta["cycles"] == 32
        with pytest.raises(ValueError, match=rf"^event budget {2 ** 62 + 1} is above 2\*\*62$"):
            simulate_alg3(lam, 1.0, params, event_budget=2 ** 62 + 1)

    def test_groups_expecting_more_than_2_62_events(self):
        # a busy period from U = 22 at lam = 100 takes U (lam+mu)/(mu-lam)
        # = 970 events on average, so a 2**62 budget makes 32 groups of
        # about 2**57 events, and the estimate is the exact renewal cost
        lam, params = 100.0, Alg3Params.from_rates(100.0)
        est = simulate_alg3(lam, 1.0, params, event_budget=2 ** 62, seed=0)
        assert abs(est.meta["events"] - 2 ** 62) < 1e-3 * 2 ** 62
        assert est.ci_halfwidth < 1e-6 * est.total
        assert abs(est.total - alg3_renewal_cost(lam, 1.0, params)) <= 3 * est.ci_halfwidth
        # from U = 1000 at mu = nextafter(1, 2) and lam = 1 one busy period
        # expects 9e18 events, so even a group of one cycle is too many
        with pytest.raises(CycleOverflowError,
                           match=r"^a group of 1 cycles expects more than 2\*\*62 events"):
            simulate_alg3(1.0, 1.0, Alg3Params(1000, math.nextafter(1.0, 2.0)))


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
