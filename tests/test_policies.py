import math
import random
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowswitch import (ArrivalInstance, CostModel, cost_of_trace,
                        dual_lower_bound, simulate)
from flowswitch.instances import batch, sigma2
from flowswitch.policies import (POLICY_REGISTRY, BalanceDelta, BalanceValue,
                                 FullParallel, GammaPolicy, Lg, QuadAlg,
                                 QuadBalance, SqrtOnline, batch_quad_continuous,
                                 batch_quad_horizon_search, burst_objective,
                                 closed_form_burst_profile, make_policy)

from conftest import (EMPTY_SPEC_FORMS, MALFORMED_SPECS, SPEC_FORMS,
                      shaped_request, spec_text)


class TestDecisionRules:
    def test_full_parallel(self):
        assert shaped_request(FullParallel(), 5, 0) == 5
        assert shaped_request(FullParallel(), 0, 0) == 0
        assert shaped_request(FullParallel(), 17, 0) == 17

    def test_balance_value(self):
        assert shaped_request(BalanceValue(alpha=4), 10, 0) == 3
        assert shaped_request(BalanceValue(alpha=4), 0, 0) == 0
        assert shaped_request(BalanceValue(alpha=1), 10, 0) == 10

    def test_balance_delta(self):
        assert shaped_request(BalanceDelta(alpha=5), 10, 2) == 4
        assert shaped_request(BalanceDelta(alpha=5), 0, 3) == 0
        assert shaped_request(BalanceDelta(alpha=2), 4, 8) == 4

    def test_sqrt_online(self):
        assert shaped_request(SqrtOnline(alpha=9), 9, 0) == 3
        assert shaped_request(SqrtOnline(alpha=100), 1, 0) == 1
        assert shaped_request(SqrtOnline(alpha=4), 0, 0) == 0

    def test_lg(self):
        assert shaped_request(Lg(alpha=16), 16, 1) == 8
        assert shaped_request(Lg(alpha=16), 16, 10) == 10
        assert shaped_request(Lg(alpha=16), 0, 10) == 0

    def test_a_gamma(self):
        assert shaped_request(GammaPolicy(alpha=16, gamma=0.25), 8, 0) == 4
        assert shaped_request(GammaPolicy(alpha=16, gamma=0.0), 8, 0) == 8
        assert shaped_request(GammaPolicy(alpha=16, gamma=0.5), 0, 0) == 0

    def test_quad_alg(self):
        assert shaped_request(QuadAlg(alpha=3, beta=math.sqrt(3)), 12, 0) == 4
        assert shaped_request(QuadAlg(alpha=0.5, beta=1), 4, 0) == 2
        assert shaped_request(QuadAlg(alpha=1, beta=1), 0, 0) == 0

    def test_quad_balance(self):
        assert shaped_request(QuadBalance(alpha=1), 9, 0) == 3
        assert shaped_request(QuadBalance(alpha=1), 4, 5) == 4
        assert shaped_request(QuadBalance(alpha=1), 0, 5) == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            QuadAlg(alpha=1, beta=0.5)
        with pytest.raises(ValueError):
            GammaPolicy(alpha=1, gamma=-0.1)
        with pytest.raises(ValueError):
            BalanceValue(alpha=0)
        for alpha in (math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                QuadAlg(alpha=alpha)


class TestCausality:
    def test_future_mutation_is_invisible(self):
        rng = random.Random(11)
        policies = [FullParallel(), SqrtOnline(alpha=4.0), Lg(alpha=4.0),
                    QuadAlg(alpha=2.0, beta=2.0), BalanceDelta(alpha=2.0),
                    QuadBalance(alpha=2.0)]
        for _ in range(40):
            n_jobs = rng.randint(1, 8)
            cut = rng.randint(1, 6)
            early = tuple((rng.randint(1, cut), 1) for _ in range(n_jobs))
            late_a = tuple((rng.randint(cut + 1, cut + 4), 1) for _ in range(3))
            late_b = tuple((rng.randint(cut + 1, cut + 4), 1) for _ in range(5))
            one = ArrivalInstance(early + late_a)
            two = ArrivalInstance(early + late_b)
            for policy in policies:
                counts_one = simulate(one, policy).s[:cut]
                counts_two = simulate(two, policy).s[:cut]
                assert counts_one == counts_two, policy.name


class TestRegistry:
    def test_colon_and_paren_forms(self):
        a = make_policy("quad_alg:beta=1.732,alpha=2")
        b = make_policy("quad_alg(beta=1.732,alpha=2)")
        assert a == b == QuadAlg(alpha=2.0, beta=1.732)

    def test_alpha_defaulting(self):
        policy = make_policy("lg", default_alpha=4.0)
        assert policy == Lg(alpha=4.0)
        with pytest.raises(ValueError):
            make_policy("lg")

    def test_bare_name(self):
        assert make_policy("full_parallel") == FullParallel()

    def test_errors(self):
        with pytest.raises(ValueError):
            make_policy("nope:alpha=1")
        with pytest.raises(ValueError):
            make_policy("quad_alg:beta")
        with pytest.raises(ValueError):
            make_policy("quad_alg:wat=1", default_alpha=1.0)

    @pytest.mark.parametrize("spec, name", [
        ("full_parallel", "full_parallel"),
        ("balance_value:alpha=2", "balance_value(alpha=2)"),
        ("balance_delta:alpha=0.5", "balance_delta(alpha=0.5)"),
        ("sqrt_online:alpha=4", "sqrt_online(alpha=4)"),
        ("lg:alpha=3", "lg(alpha=3)"),
        ("a_gamma:alpha=2,gamma=0.25", "a_gamma(alpha=2,gamma=0.25)"),
        ("quad_alg:alpha=2,beta=1.732", "quad_alg(alpha=2,beta=1.732)"),
        ("quad_alg:alpha=2,beta=1.7320508", "quad_alg(alpha=2,beta=1.7320508)"),
        ("quad_balance:alpha=1.5", "quad_balance(alpha=1.5)"),
    ])
    def test_cached_name_leaves_identity_unchanged(self, spec, name):
        rule, twin = make_policy(spec), make_policy(spec)
        before = (repr(rule), hash(rule))
        assert rule.name == name
        assert rule.name is rule.name  # built once, then reused
        assert (repr(rule), hash(rule)) == before
        assert "name=" not in repr(rule)
        # a read name does not enter ==, hash or repr
        assert rule == twin and hash(rule) == hash(twin) and repr(rule) == repr(twin)
        assert twin.name == name

    @given(st.data())
    def test_name_rebuilds_the_rule(self, data):
        bounds = {"alpha": (1e-6, 1e6), "gamma": (0.0, 2.0), "beta": (1.0, 1e3)}
        for cls in POLICY_REGISTRY.values():
            rule = cls(**{f.name: data.draw(st.floats(*bounds[f.name]), label=f.name)
                          for f in fields(cls)})
            assert make_policy(rule.name) == rule

    @pytest.mark.parametrize("form", SPEC_FORMS)
    def test_spec_forms(self, form):
        spec = spec_text(form, "quad_alg", "beta", "2.5")
        assert make_policy(spec, default_alpha=2.0) == QuadAlg(alpha=2.0, beta=2.5)

    @pytest.mark.parametrize("form", EMPTY_SPEC_FORMS)
    def test_empty_parameter_list(self, form):
        spec = spec_text(form, "quad_alg", "beta")
        assert make_policy(spec, default_alpha=2.0) == QuadAlg(alpha=2.0)

    @pytest.mark.parametrize("form, needle", MALFORMED_SPECS)
    def test_malformed_spec(self, form, needle):
        with pytest.raises(ValueError, match="policy") as err:
            make_policy(spec_text(form, "quad_alg", "beta", "2"), default_alpha=1.0)
        assert spec_text(needle, "quad_alg", "beta") in str(err.value)


class TestBatchQuadContinuous:
    def test_zero_work(self):
        res = batch_quad_continuous(0.0, 5)
        assert res.profile == (0.0,) * 5
        assert res.objective == 0.0

    def test_mass_conservation(self):
        res = batch_quad_continuous(4.0, 6)
        assert sum(res.profile) == pytest.approx(4.0, abs=1e-8)

    def test_published_closed_form_is_flagged(self):
        # the printed formula yields s(1) > n and negative tail speeds
        res = batch_quad_continuous(4.0, 6)
        assert not res.closed_form_feasible
        assert not res.closed_form_matches
        assert res.closed_form[0] > 4.0

    def test_solver_profile_frozen(self):
        res = batch_quad_continuous(4.0, 6)
        expected = (1.3, 1.45, 0.95, 0.3, 0.0, 0.0)
        assert res.profile == pytest.approx(expected, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            batch_quad_continuous(-1.0, 3)
        with pytest.raises(ValueError):
            batch_quad_continuous(1.0, 0)
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            closed_form_burst_profile(1.0, 0)


class TestHorizonSearch:
    def test_zero_jobs(self):
        res = batch_quad_horizon_search(0, 1.0)
        assert res.cost == 0.0

    def test_single_job_plateau(self):
        # relaxed cost flattens once the natural support fits the horizon
        res = batch_quad_horizon_search(1, 1.0)
        assert res.horizon == 3
        assert res.cost == pytest.approx(1.95, abs=1e-9)
        # integral one-slot schedule costs 1 + 2 alpha = 3; relaxation is below
        assert res.cost <= 3.0

    def test_plateau_stop_equals_full_scan(self):
        from flowswitch import convex_batch_solve
        from flowswitch.policies import HorizonSearchResult

        def full_scan(n, alpha):
            h_max = math.ceil(3.0 * math.sqrt(max(alpha, 1.0) * n)) + n
            best = None
            for h in range(1, h_max + 1):
                sol = convex_batch_solve(n, h, alpha=alpha)
                cost = sol.objective + n
                if best is None or cost < best.cost - 1e-9:
                    best = HorizonSearchResult(h, cost, sol.profile)
            return best

        for n_jobs in (1, 2, 3, 4, 5, 7, 10, 15, 20, 30, 40, 50, 60):
            for alpha in (0.25, 0.5, 1.0, 2.0, 4.0, 9.0):
                assert batch_quad_horizon_search(n_jobs, alpha) == \
                    full_scan(n_jobs, alpha), (n_jobs, alpha)

    def test_objective_nonincreasing_in_horizon(self):
        from flowswitch import convex_batch_solve
        values = [convex_batch_solve(9.0, h, alpha=2.0).objective
                  for h in range(1, 12)]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_bracketed_by_dual_bound_and_online_cost(self):
        n_jobs, alpha = 16, 1.0
        res = batch_quad_horizon_search(n_jobs, alpha)
        model = CostModel.quadratic(alpha)
        online = cost_of_trace(
            simulate(batch(n_jobs), QuadAlg(alpha=alpha, beta=math.sqrt(3.0))),
            model).total
        cert = dual_lower_bound(batch(n_jobs), alpha, math.sqrt(3.0))
        assert cert.bound <= res.cost <= online


class TestSigma2FixedPoint:
    def test_occupancy_converges_within_one_batch(self):
        # recursion n <- n + N - (n+N)/alpha^gamma has fixed point (alpha^gamma-1)N
        n_batch, alpha, gamma = 10, 16.0, 0.5
        inst = sigma2(n_batch, 40)
        occ = simulate(inst, GammaPolicy(alpha=alpha, gamma=gamma)).n
        fixed_point = (alpha ** gamma - 1.0) * n_batch
        for value in occ[25:40]:
            assert abs(value - fixed_point) <= n_batch


class TestCostBoundCaveat:
    def test_unrounded_rule_meets_the_advertised_constant(self):
        # the (1+2 beta^2) sum n(t) bound is exact for the real-valued rule;
        # integer ceilings can break it on tiny instances (see acceptance 3)
        inst = batch(2)
        model = CostModel.quadratic(1.0)
        trace = simulate(inst, QuadAlg(alpha=1.0, beta=1.0))
        b = cost_of_trace(trace, model)
        assert b.total == 10.0
        assert b.total > 3 * b.flow_time  # the documented integrality artifact
