import itertools
import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowswitch import (ArrivalInstance, CostModel, DpBudgetError, DpConfig,
                        OracleSizeError, PolicyStallError, ScheduleTrace,
                        UnsupportedInstanceError, certified_horizon,
                        convex_batch_solve, cost_of_trace, delta_flow, dp_opt,
                        dual_bound_from_flow, dual_lower_bound, exhaustive_opt,
                        simulate, validate_trace)
from flowswitch import oracle
from flowswitch.instances import batch, periodic, random_slotted, sigma1, sigma2
from flowswitch.policies import (BalanceDelta, FullParallel, QuadAlg,
                                 SqrtOnline, burst_objective)

from conftest import CORPUS_ALPHAS, departures, replay_reference


def tiny_instances(max_jobs=4, max_slot=3, budget_slots=6):
    """Every sorted multiset of arrival slots fitting the exhaustive guard."""
    out = [ArrivalInstance(())]
    for n_jobs in range(1, max_jobs + 1):
        for slots in itertools.combinations_with_replacement(
                range(1, max_slot + 1), n_jobs):
            if slots[-1] + n_jobs <= budget_slots:
                out.append(ArrivalInstance(tuple((s, 1) for s in slots)))
    return out


class TestDpOpt:
    def test_single_job_quadratic(self):
        cost, trace = dp_opt(batch(1), CostModel.quadratic(1))
        assert cost == 3
        assert trace.s == (1,)

    def test_two_jobs_quadratic(self):
        cost, trace = dp_opt(batch(2), CostModel.quadratic(1))
        assert cost == 5
        assert trace.s == (1, 1)

    def test_two_jobs_linear(self):
        cost, _ = dp_opt(batch(2), CostModel.linear(1))
        assert cost == 5

    def test_trace_is_valid_and_consistent(self, small_corpus):
        for inst in small_corpus[:15]:
            for model in (CostModel.linear(1), CostModel.quadratic(0.5)):
                cost, trace = dp_opt(inst, model, DpConfig(s_cap=inst.job_count))
                assert validate_trace(inst, trace).ok
                assert cost_of_trace(trace, model).total == pytest.approx(cost)

    def test_non_unit_rejected(self):
        for fn in (dp_opt, exhaustive_opt):
            with pytest.raises(UnsupportedInstanceError):
                fn(ArrivalInstance(((1, 2),)), CostModel.linear(1))

    def test_budget_error_carries_requirement(self, monkeypatch):
        monkeypatch.setenv("FLOWSWITCH_ORACLE_BUDGET", "10")
        with pytest.raises(DpBudgetError) as err:
            dp_opt(batch(10), CostModel.linear(1))
        assert err.value.required > 10

    def test_beats_every_policy(self, small_corpus):
        policies = [FullParallel(), QuadAlg(alpha=2.0, beta=1.0),
                    SqrtOnline(alpha=2.0), BalanceDelta(alpha=2.0)]
        for inst in small_corpus[:20]:
            for model in (CostModel.linear(2), CostModel.quadratic(2)):
                opt, _ = dp_opt(inst, model, DpConfig(s_cap=inst.job_count))
                for policy in policies:
                    total = cost_of_trace(simulate(inst, policy), model).total
                    assert opt <= total + 1e-9

    def test_dp_idles_when_waiting_is_cheaper(self):
        # high quadratic alpha: merging two spread singletons beats serving eagerly
        inst = ArrivalInstance(((1, 1), (10, 1)))
        model = CostModel.quadratic(8)
        cost, trace = dp_opt(inst, model)
        eager = cost_of_trace(simulate(inst, FullParallel()), model).total
        assert cost < eager
        assert trace.s[0] == 0


def _dp_reference(instance, model, cfg=None):
    """The per-s' DP loop that dp_opt vectorises: (value, server counts).

    One numpy pass per candidate s' over the full (n, s_prev) grid, with a
    strict ``<`` in ascending s' for the smallest-s' tie rule.
    """
    cfg = cfg or DpConfig()
    if instance.job_count == 0:
        return 0.0, ()
    s_cap, t_cap, _ = cfg.resolve(instance)
    n_jobs = instance.job_count
    t_end = t_cap + 1
    arr = np.zeros(t_end + 2, dtype=np.int64)
    arr[1:instance.last_slot + 1] = instance.slot_counts
    alpha = model.alpha
    sp = np.arange(s_cap + 1, dtype=np.float64)
    cgrid = np.empty((s_cap + 1, s_cap + 1))
    for s_new in range(s_cap + 1):
        delta = np.abs(s_new - sp)
        cgrid[s_new] = alpha * (delta if model.switching.value == "linear"
                                else delta * delta)
    n_vals = np.arange(n_jobs + 1, dtype=np.float64)
    v_next = np.full((n_jobs + 1, s_cap + 1), np.inf)
    v_next[0, 0] = 0.0
    choice = np.zeros((t_end + 1, n_jobs + 1, s_cap + 1), dtype=np.int16)
    for t in range(t_end, 0, -1):
        a_next = int(arr[t + 1])
        v_t = np.full((n_jobs + 1, s_cap + 1), np.inf)
        pick = np.zeros((n_jobs + 1, s_cap + 1), dtype=np.int16)
        for s_new in range(s_cap + 1):
            nxt = np.full(n_jobs + 1, np.inf)
            n_idx = np.arange(s_new, n_jobs + 1)
            tgt = n_idx - s_new + a_next
            ok = tgt <= n_jobs
            nxt[n_idx[ok]] = v_next[tgt[ok], s_new]
            cand = n_vals[:, None] + cgrid[s_new][None, :] + nxt[:, None]
            better = cand < v_t
            v_t[better] = cand[better]
            pick[better] = s_new
        v_next = v_t
        choice[t] = pick
    n0 = int(arr[1])
    best = float(v_next[n0, 0])
    if not math.isfinite(best):
        raise ValueError("no feasible schedule within t_cap")
    counts = []
    n_cur, s_prev = n0, 0
    for t in range(1, t_end + 1):
        s_t = int(choice[t][n_cur, s_prev])
        n_cur = n_cur - s_t + int(arr[t + 1])
        counts.append(s_t)
        s_prev = s_t
        if n_cur == 0 and t >= instance.last_slot:
            break
    while counts and counts[-1] == 0:
        counts.pop()
    return best, tuple(counts)


def assert_dp_matches_reference(instance, model, cfg=None):
    try:
        want = _dp_reference(instance, model, cfg)
    except ValueError:
        with pytest.raises(ValueError):
            dp_opt(instance, model, cfg)
        return
    value, trace = dp_opt(instance, model, cfg)
    assert (value, trace.s) == want, (instance.name, model, cfg)
    assert_trace_matches_replay(instance, trace)


def assert_trace_matches_replay(instance, trace):
    """dp_opt's own n and s columns against its s replayed through the engine."""
    want = replay_reference(instance, trace.s)
    assert trace == want, instance.name
    assert trace.to_csv() == want.to_csv(), instance.name
    assert (trace.complete_records, trace.served is None) == \
        (want.complete_records, want.served is None), instance.name


class TestDpDifferential:
    """dp_opt against the per-s' reference loop, by == on value and s, and
    its trace against the engine's replay of s, by == and by CSV."""

    def test_corpus(self, corpus):
        alphas = (0.3, 0.5, 1.0, 1.7, 2.0, 3.3)
        for i, inst in enumerate(corpus):
            alpha = alphas[i % len(alphas)]
            for model in (CostModel.linear(alpha), CostModel.quadratic(alpha)):
                for s_cap in (None, inst.job_count, 1):
                    assert_dp_matches_reference(inst, model, DpConfig(s_cap=s_cap))

    @settings(max_examples=120, deadline=None)
    @given(counts=st.lists(st.integers(0, 5), min_size=1, max_size=8),
           alpha=st.sampled_from([0.3, 0.5, 1.0, 1.7, 3.3, 8.0]),
           quadratic=st.booleans(), cap=st.sampled_from(["default", "jobs", 1]),
           extra=st.one_of(st.none(), st.integers(0, 12)))
    def test_generated(self, counts, alpha, quadratic, cap, extra):
        inst = ArrivalInstance.from_counts(counts)
        model = CostModel.quadratic(alpha) if quadratic else CostModel.linear(alpha)
        s_cap = {"default": None, "jobs": inst.job_count}.get(cap, cap)
        t_cap = None if extra is None else inst.last_slot + extra
        assert_dp_matches_reference(inst, model, DpConfig(s_cap=s_cap, t_cap=t_cap))

    def test_chunked_rows(self):
        # 121 x 121 (s_prev, s') cells per row: the rows take two blocks
        assert_dp_matches_reference(batch(120), CostModel.quadratic(1.7),
                                    DpConfig(s_cap=120))

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_small_blocks(self, small_corpus, monkeypatch, block):
        monkeypatch.setattr(oracle, "_DP_BLOCK", block)
        for i, inst in enumerate(small_corpus):
            model = CostModel.quadratic(CORPUS_ALPHAS[i % len(CORPUS_ALPHAS)])
            assert_dp_matches_reference(inst, model, DpConfig(s_cap=inst.job_count))

    @pytest.mark.parametrize("inst", [sigma2(8, 7), sigma2(20, 10), batch(40)],
                             ids=lambda inst: inst.name)
    def test_full_cap_boxes(self, inst):
        # the reference solves the certified horizon, which
        # TestCertifiedHorizon pins to the ceiling's value and trace
        cfg = DpConfig(s_cap=inst.job_count)
        for alpha in (0.3, 1.0, 2.0):
            for model in (CostModel.linear(alpha), CostModel.quadratic(alpha)):
                t_cap = certified_horizon(inst, model, cfg).t_cap
                want = _dp_reference(inst, model,
                                     DpConfig(s_cap=inst.job_count, t_cap=t_cap))
                # one row per block at any of these on sigma2(20,10)
                blocks = (1, 7, 64) if inst.job_count < 100 else ()
                for block in (oracle._DP_BLOCK, *blocks):
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(oracle, "_DP_BLOCK", block)
                        value, trace = dp_opt(inst, model, cfg)
                    assert (value, trace.s) == want, (alpha, model, block)
                assert_trace_matches_replay(inst, trace)

    def test_boxes_prune_the_band(self):
        inst, model = batch(40), CostModel.quadratic(2)
        s_cap, ceiling, grids = oracle._dp_setup(inst, model, DpConfig())
        horizon, boxes = oracle._certify(inst, model.alpha, s_cap, ceiling, *grids)
        # the reachable band: n from a_t to the jobs arrived by slot t,
        # s_prev at most the jobs arrived by slot t - 1 and s_cap
        arr, arrived = grids[0].tolist(), grids[1].tolist()
        band = [None] + [(arr[t], arrived[t] + 1, min(arrived[t - 1], s_cap) + 1)
                         for t in range(1, horizon.t_cap + 2)] + [(0, 1, 1)]
        assert len(boxes) == len(band) == horizon.t_cap + 3

        def cells(slot_boxes):
            return sum((hi - lo) * width for lo, hi, width in slot_boxes[1:])

        assert cells(boxes) < 0.25 * cells(band)

    @pytest.mark.parametrize("inst", [
        batch(9), periodic(4, 3), sigma2(5, 4), sigma2(8, 7),
        random_slotted(2.0, 8, seed=3), random_slotted(4.0, 6, seed=11),
    ], ids=lambda inst: inst.name)
    def test_families_trace_replay(self, inst):
        # the explicit pair is feasible: 3 a slot clears any backlog
        tight = DpConfig(s_cap=3, t_cap=inst.last_slot + math.ceil(inst.job_count / 3))
        cfgs = (DpConfig(), DpConfig(s_cap=inst.job_count), tight)
        for alpha in (0.3, 1.0, 2.0, 4.0):
            for model in (CostModel.linear(alpha), CostModel.quadratic(alpha)):
                for cfg in cfgs:
                    assert_trace_matches_replay(inst, dp_opt(inst, model, cfg)[1])


def default_ceiling(instance):
    return instance.last_slot + instance.total_work


def assert_certified_matches_ceiling(instance, model, s_cap=None):
    """dp_opt under the certified horizon equals the reference DP over the
    whole band up to the ceiling, by == on the value and s; its n column
    is the replay of s."""
    value, trace = dp_opt(instance, model, DpConfig(s_cap=s_cap))
    want = _dp_reference(instance, model,
                         DpConfig(s_cap=s_cap, t_cap=default_ceiling(instance)))
    assert (value, trace.s) == want, (instance.name, model, s_cap)
    assert_trace_matches_replay(instance, trace)


def assert_pruning_keeps_the_optimum(instance, model, s_cap=None):
    """With every slot's forward step pruned, the certified horizon comes
    no later than with none pruned, and dp_opt's value and s equal the
    reference DP's under the unpruned horizon; its n column is the replay
    of s."""
    cfg = DpConfig(s_cap=s_cap)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_PRUNE_CELLS", math.inf)
        whole = certified_horizon(instance, model, cfg)
        patch.setattr(oracle, "_PRUNE_CELLS", 0)
        pruned = certified_horizon(instance, model, cfg)
        value, trace = dp_opt(instance, model, cfg)
    assert pruned.t_cap <= whole.t_cap, (instance.name, model, s_cap)
    want = _dp_reference(instance, model, DpConfig(s_cap=s_cap, t_cap=whole.t_cap))
    assert (value, trace.s) == want, (instance.name, model, s_cap)
    assert_trace_matches_replay(instance, trace)


def constant_rate_cost(instance, model, k, ceiling):
    """The cost of serving s_t = min(n_t, k) every slot, slot by slot, or
    inf if that leaves work after slot ``ceiling``."""
    ns, ss, n = [], [], 0
    for t in range(1, ceiling + 1):
        n += instance.slot_counts[t - 1] if t <= instance.last_slot else 0
        if n == 0 and t > instance.last_slot:
            break
        ns.append(n)
        ss.append(min(n, k))
        n -= ss[-1]
    if n:
        return math.inf
    return cost_of_trace(ScheduleTrace(ns, ss), model).total


class TestCertifiedHorizon:
    @pytest.mark.parametrize("model", [CostModel.linear(2), CostModel.quadratic(2)],
                             ids=["linear", "quadratic"])
    def test_sigma2_horizon(self, model):
        inst = sigma2(20, 10)
        horizon = certified_horizon(inst, model)
        _, trace = dp_opt(inst, model)
        assert horizon.ceiling == default_ceiling(inst) == 210
        assert trace.last_slot <= horizon.t_cap <= 20
        assert horizon.margin > 0

    def test_corpus_equals_ceiling(self, corpus):
        alphas = (0.3, 0.5, 1.0, 1.7, 2.0, 3.3)
        for i, inst in enumerate(corpus):
            alpha = alphas[i % len(alphas)]
            for model in (CostModel.linear(alpha), CostModel.quadratic(alpha)):
                for s_cap in (None, inst.job_count):
                    assert_certified_matches_ceiling(inst, model, s_cap)

    @settings(max_examples=120, deadline=None)
    @given(counts=st.lists(st.integers(0, 6), min_size=1, max_size=10),
           alpha=st.sampled_from([0.3, 1.7, 0.5, 4.0]),
           quadratic=st.booleans(), cap=st.sampled_from(["default", "jobs", 1]))
    def test_generated_equals_ceiling(self, counts, alpha, quadratic, cap):
        inst = ArrivalInstance.from_counts(counts)
        model = CostModel.quadratic(alpha) if quadratic else CostModel.linear(alpha)
        s_cap = {"default": None, "jobs": inst.job_count}.get(cap, cap)
        assert_certified_matches_ceiling(inst, model, s_cap)

    def test_pruning_never_certifies_later(self, corpus):
        alphas = (0.3, 1.0, 2.0, 4.0)
        for i, inst in enumerate(corpus):
            alpha = alphas[i % len(alphas)]
            for model in (CostModel.linear(alpha), CostModel.quadratic(alpha)):
                for s_cap in (None, inst.job_count):
                    assert_pruning_keeps_the_optimum(inst, model, s_cap)

    @settings(max_examples=120, deadline=None)
    @given(counts=st.lists(st.integers(0, 8), min_size=1, max_size=10),
           alpha=st.sampled_from([0.3, 1.0, 2.0, 4.0]),
           quadratic=st.booleans(), cap=st.sampled_from(["default", "jobs", 1]))
    def test_generated_pruning_never_certifies_later(self, counts, alpha,
                                                     quadratic, cap):
        inst = ArrivalInstance.from_counts(counts)
        model = CostModel.quadratic(alpha) if quadratic else CostModel.linear(alpha)
        s_cap = {"default": None, "jobs": inst.job_count}.get(cap, cap)
        assert_pruning_keeps_the_optimum(inst, model, s_cap)

    @pytest.mark.parametrize("s_cap", [None, 40])
    def test_pruning_certifies_sooner(self, monkeypatch, s_cap):
        # on batch(40) at linear alpha=4 the states of every schedule dearer
        # than the best constant rate are pruned, and the certificate holds
        # two slots before the unpruned pass's
        inst, model, cfg = batch(40), CostModel.linear(4), DpConfig(s_cap=s_cap)
        value, trace = dp_opt(inst, model, cfg)
        assert certified_horizon(inst, model, cfg).t_cap == 5
        monkeypatch.setattr(oracle, "_PRUNE_CELLS", math.inf)
        assert certified_horizon(inst, model, cfg).t_cap == 7
        assert dp_opt(inst, model, cfg) == (value, trace)

    @settings(max_examples=150, deadline=None)
    @given(counts=st.lists(st.integers(0, 6), min_size=1, max_size=8).filter(any),
           alpha=st.sampled_from([0.3, 1.0, 2.5]), quadratic=st.booleans(),
           cap=st.integers(1, 48), extra=st.integers(0, 48))
    def test_incumbent_is_the_cheapest_constant_rate(self, counts, alpha,
                                                     quadratic, cap, extra):
        inst = ArrivalInstance.from_counts(counts)
        model = CostModel.quadratic(alpha) if quadratic else CostModel.linear(alpha)
        s_cap, ceiling = min(cap, inst.job_count), inst.last_slot + extra
        step = [alpha * model.transition_cost(0, d) for d in range(s_cap + 1)]
        want = min(constant_rate_cost(inst, model, k, ceiling)
                   for k in range(1, s_cap + 1))
        got = oracle._incumbent(inst.slot_counts, step, s_cap, ceiling)
        assert got == pytest.approx(want, rel=1e-12)

    def test_explicit_t_cap_is_the_ceiling(self):
        # every t_cap from the last arrival to the default ceiling: dp_opt
        # equals the reference over the band up to t_cap, and from the
        # default certified horizon on it equals the default dp_opt
        for inst in (sigma2(3, 4), batch(9), sigma2(8, 7)):
            for model in (CostModel.linear(2), CostModel.quadratic(1)):
                certified = certified_horizon(inst, model).t_cap
                default = dp_opt(inst, model)
                for t_cap in range(inst.last_slot, default_ceiling(inst) + 1):
                    cfg = DpConfig(t_cap=t_cap)
                    assert_dp_matches_reference(inst, model, cfg)
                    if t_cap >= certified:
                        assert dp_opt(inst, model, cfg) == default, \
                            (inst.name, model, t_cap)

    def test_ceiling_when_the_bound_never_holds(self):
        # one server cannot clear three jobs by slot 2: V is inf at every T
        horizon = certified_horizon(batch(3), CostModel.linear(1),
                                    DpConfig(s_cap=1, t_cap=2))
        assert horizon == (2, 2, -math.inf)

    def test_empty_and_non_unit(self, monkeypatch):
        empty, model = ArrivalInstance(()), CostModel.linear(1)
        assert certified_horizon(empty, model) == (0, 0, math.inf)
        # no jobs need no DP: the budget never fires, the s_cap check does,
        # and s_cap = 0, the job count, is a valid cap there
        monkeypatch.setenv("FLOWSWITCH_ORACLE_BUDGET", "0")
        for cfg in (DpConfig(), DpConfig(s_cap=0)):
            assert certified_horizon(empty, model, cfg) == (0, 0, math.inf)
            assert dp_opt(empty, model, cfg)[0] == 0.0
        for fn in (certified_horizon, dp_opt):
            with pytest.raises(ValueError, match="s_cap"):
                fn(empty, model, DpConfig(s_cap=-1))
        with pytest.raises(UnsupportedInstanceError):
            certified_horizon(ArrivalInstance(((1, 2),)), CostModel.linear(1))

    def test_budget_is_checked_on_the_ceiling(self, monkeypatch):
        inst, model = sigma2(20, 10), CostModel.linear(2)
        required = (210 + 2) * (200 + 1) * (20 + 1)
        monkeypatch.setenv("FLOWSWITCH_ORACLE_BUDGET", str(required - 1))
        for fn in (certified_horizon, dp_opt):
            with pytest.raises(DpBudgetError) as err:
                fn(inst, model)
            assert err.value.required == required
        monkeypatch.setenv("FLOWSWITCH_ORACLE_BUDGET", str(required))
        dp_opt(inst, model)

    @pytest.mark.parametrize("s_cap", [0, -3])
    def test_s_cap_below_one_rejected(self, s_cap):
        with pytest.raises(ValueError, match="s_cap"):
            DpConfig(s_cap=s_cap).resolve(batch(3))
        with pytest.raises(ValueError, match="s_cap"):
            dp_opt(batch(3), CostModel.linear(1), DpConfig(s_cap=s_cap))


class TestExhaustive:
    def test_matches_dp_on_slice(self):
        insts = tiny_instances()[::5]
        for inst in insts:
            for model in (CostModel.linear(0.5), CostModel.quadratic(2)):
                exh = exhaustive_opt(inst, model)
                dp, _ = dp_opt(inst, model, DpConfig(s_cap=max(inst.job_count, 1)))
                assert exh == dp

    def test_single_job_half_alpha(self):
        assert exhaustive_opt(batch(1), CostModel.linear(0.5)) == 2.0

    def test_empty(self):
        assert exhaustive_opt(ArrivalInstance(()), CostModel.linear(1)) == 0.0

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            exhaustive_opt(batch(7), CostModel.linear(1))
        with pytest.raises(OracleSizeError):
            exhaustive_opt(batch(2), CostModel.linear(1), t_cap=9)
        with pytest.raises(OracleSizeError, match="arrival beyond t_cap"):
            exhaustive_opt(ArrivalInstance(((5, 1),)), CostModel.linear(1), t_cap=3)


class TestDeltaFlow:
    def test_single_job(self):
        assert delta_flow(batch(1), 0, 1.0, 1.0) == 1

    def test_last_job_of_batch_matches_its_flow(self):
        inst = batch(6)
        policy = QuadAlg(alpha=1.0, beta=1.0)
        trace = simulate(inst, policy)
        flow_last = departures(trace)[5] - 1 + 1
        assert delta_flow(inst, 5, 1.0, 1.0) == flow_last

    def test_never_exceeds_own_flow(self):
        # increase is at most the job's flow in the truncated run; an arrival
        # can speed earlier jobs up, so equality is not guaranteed
        rng = random.Random(3)
        for _ in range(80):
            n_jobs = rng.randint(1, 9)
            slots = sorted(rng.randint(1, 9) for _ in range(n_jobs))
            inst = ArrivalInstance(tuple((s, 1) for s in slots))
            alpha = rng.choice([0.5, 1.0, 4.0])
            beta = rng.choice([1.0, 2.177])
            j = rng.randrange(n_jobs)
            prefix = ArrivalInstance(inst.arrivals[: j + 1])
            trace = simulate(prefix, QuadAlg(alpha=alpha, beta=beta))
            own_flow = departures(trace)[j] - inst.arrivals[j][0] + 1
            assert delta_flow(inst, j, alpha, beta) <= own_flow

    def test_strictly_below_own_flow_when_peers_speed_up(self):
        # 5th job lifts the server count 2 -> 3, finishing job 3 a slot
        # earlier, so the net flow increase is below the job's own flow
        inst = batch(5)
        trace = simulate(inst, QuadAlg(alpha=1.0, beta=1.0))
        own_flow = departures(trace)[4] - 1 + 1
        assert delta_flow(inst, 4, 1.0, 1.0) == 1
        assert own_flow == 2

    def test_increments_telescope_to_total_flow(self):
        inst = ArrivalInstance(((1, 1), (1, 1), (2, 1), (4, 1), (4, 1)))
        total = sum(delta_flow(inst, j, 1.0, 1.0) for j in range(5))
        flow = sum(rec.n for rec in simulate(inst, QuadAlg(alpha=1.0)).slots)
        assert total == flow

    def test_count_prefixes_match_record_prefixes(self, corpus):
        # prefixes built from slot counts against re-validated record slices
        def by_records(inst, j, alpha, beta):
            policy = QuadAlg(alpha=alpha, beta=beta)
            flows = [sum(rec.n for rec in simulate(
                ArrivalInstance(inst.arrivals[:k]), policy).slots)
                for k in (j + 1, j)]
            return flows[0] - flows[1]

        for i, inst in enumerate(corpus):
            alpha, beta = (0.5, 1.0, 2.0, 4.0)[i % 4], (1.6, 2.177)[i % 2]
            cert = dual_lower_bound(inst, alpha, beta)
            assert cert.lambdas == tuple(
                float(by_records(inst, j, alpha, beta))
                for j in range(inst.job_count)), inst.name
        sized = ArrivalInstance(((1, 2), (1, 2), (3, 2)))
        assert [delta_flow(sized, j, 1.0, 1.0) for j in range(3)] == \
            [by_records(sized, j, 1.0, 1.0) for j in range(3)]

    def test_certificate_lambdas_equal_delta_flow(self, corpus):
        for i, inst in enumerate(corpus):
            alpha, beta = (0.5, 1.0, 2.0, 4.0)[i % 4], (1.6, 2.177)[i % 2]
            cert = dual_lower_bound(inst, alpha, beta)
            assert cert.lambdas == tuple(delta_flow(inst, j, alpha, beta)
                                         for j in range(inst.job_count)), inst.name
        sized = ArrivalInstance(((1, 2), (1, 2), (3, 2), (3, 2)))
        assert dual_lower_bound(sized, 1.0, 2.177).lambdas == tuple(
            delta_flow(sized, j, 1.0, 2.177) / 2 for j in range(4))
        assert dual_lower_bound(ArrivalInstance(()), 1.0, 2.177).lambdas == ()

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            delta_flow(batch(2), 5, 1.0, 1.0)
        with pytest.raises(UnsupportedInstanceError):
            delta_flow(ArrivalInstance(((1, 1), (1, 2))), 0, 1.0, 1.0)


def flows_by_replays(instance, policy, occ=None):
    """Every prefix flow F(0..J), each from its own replay; takes and
    ignores ``occ`` so that it can stand in for ``_unit_prefix_flows``."""
    return [oracle._prefix_flow(instance, k, policy)
            for k in range(instance.job_count + 1)]


def dual_by_replays(instance, alpha, beta):
    """dual_lower_bound with its prefix flows taken from one replay each."""
    with mock.patch.object(oracle, "_unit_prefix_flows", flows_by_replays):
        return dual_lower_bound(instance, alpha, beta)


def audit_shapes():
    """Instances shaped like the benchmark's audit workload."""
    shapes = [sigma2(n, t) for n in (7, 8) for t in (6, 7)]
    shapes += [batch(n) for n in (28, 32)]
    shapes += [periodic(4, k) for k in (7, 8)]
    shapes += [random_slotted(3, t, seed) for t, seed in ((27, 11), (30, 523))]
    return shapes


class TestUnitPrefixFlows:
    """The drain-table prefix flows against one replay per prefix, by ==."""

    def test_corpus_and_audit_shapes(self, corpus):
        cases = [(inst, CORPUS_ALPHAS[i % 4], (1.2, 1.6, 2.0, 2.177)[i % 4])
                 for i, inst in enumerate(corpus)]
        cases += [(inst, alpha, 2.0) for inst in audit_shapes()
                  for alpha in (1.0, 2.0, 4.0)]
        for inst, alpha, beta in cases:
            policy = QuadAlg(alpha=alpha, beta=beta)
            occ = simulate(inst, policy).n
            assert oracle._unit_prefix_flows(inst, policy, occ) == \
                flows_by_replays(inst, policy), inst.name
            assert dual_lower_bound(inst, alpha, beta) == \
                dual_by_replays(inst, alpha, beta), inst.name

    @settings(max_examples=150, deadline=None)
    @given(counts=st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 7]), max_size=14),
           alpha=st.sampled_from([0.3, 1.0, 2.0, 4.0, 1e6, 1e20]),
           beta=st.floats(1.0, 10.0))
    def test_generated(self, counts, alpha, beta):
        inst = ArrivalInstance.from_counts(counts)
        policy = QuadAlg(alpha=alpha, beta=beta)
        try:
            cert = dual_lower_bound(inst, alpha, beta)
        except PolicyStallError as exc:
            with pytest.raises(PolicyStallError) as info:
                dual_by_replays(inst, alpha, beta)
            assert str(info.value) == str(exc)
            return
        occ = simulate(inst, policy).n
        assert oracle._unit_prefix_flows(inst, policy, occ) == \
            flows_by_replays(inst, policy)
        assert cert == dual_by_replays(inst, alpha, beta)

    def test_stall_comes_from_the_whole_run(self):
        # target(1) = 0: every run that holds a job idles until it stalls
        inst = ArrivalInstance.from_counts((2, 0, 1))
        messages = []
        for certify in (dual_lower_bound, dual_by_replays):
            with pytest.raises(PolicyStallError) as info:
                certify(inst, 1e20, 1.0)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == \
            "quad_alg(alpha=1e+20,beta=1) idled 6 slots with work outstanding"
        with pytest.raises(PolicyStallError, match="idled 6 slots"):
            delta_flow(inst, 0, 1e20, 1.0)

    def test_equal_sizes_above_one_replay_each_prefix(self, monkeypatch):
        sized = ArrivalInstance(((1, 2), (1, 2), (3, 2), (4, 2)))
        replayed = []
        replay = oracle._prefix_flow

        def counted(instance, k, policy):
            replayed.append(k)
            return replay(instance, k, policy)

        def unreachable(*args):
            raise AssertionError("sized jobs must not use the drain table")

        monkeypatch.setattr(oracle, "_prefix_flow", counted)
        monkeypatch.setattr(oracle, "_unit_prefix_flows", unreachable)
        dual_lower_bound(sized, 1.0, 2.177)
        assert replayed == [0, 1, 2, 3]
        replayed.clear()
        delta_flow(sized, 2, 1.0, 2.177)
        assert replayed == [3, 2]

    def test_unit_instance_runs_the_engine_once(self, monkeypatch):
        inst = random_slotted(3, 12, 5)
        assert inst.job_count >= 10
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].job_count)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(oracle, "simulate", counting)
        cert = dual_lower_bound(inst, 2.0, 2.0)
        assert calls == [inst.job_count]
        assert len(cert.lambdas) == inst.job_count
        calls.clear()
        delta_flow(inst, 4, 2.0, 2.0)
        assert calls == [inst.job_count]


def slack_by_loop(instance, cert):
    """per_pair_slack as the scalar loop over (job, slot) pairs computes it."""
    occ = simulate(instance, QuadAlg(alpha=cert.alpha, beta=cert.beta)).n
    size = instance.arrivals[0][1] if instance.arrivals else 1
    a_eff = max(cert.alpha, 1.0)
    rhs = [(3.0 / cert.beta) * math.sqrt(a_eff * n) for n in occ]
    slack = -math.inf
    for j, lam in enumerate(cert.lambdas):
        a_j = instance.arrivals[j][0]
        for idx in range(a_j - 1, len(occ)):
            value = lam - (idx + 1 - a_j) / size - rhs[idx]
            if value > slack:
                slack = value
    return slack


class TestDualCertificate:
    def test_bound_formula(self):
        assert dual_bound_from_flow(40, math.sqrt(3.0)) == pytest.approx(10.0)

    def test_degenerate_beta_flagged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = dual_lower_bound(batch(3), 1.0, 1.4)
        assert cert.degenerate
        assert cert.bound <= 0

    def test_weak_duality_small_batch(self):
        cert = dual_lower_bound(batch(4), 1.0, math.sqrt(3.0))
        opt, _ = dp_opt(batch(4), CostModel.quadratic(1.0))
        assert not cert.degenerate
        assert cert.bound <= opt

    def test_slack_never_positive(self, small_corpus):
        for inst in small_corpus[:25]:
            for beta in (math.sqrt(3.0), 2.177):
                cert = dual_lower_bound(inst, 2.0, beta)
                assert cert.per_pair_slack <= 1e-12

    def test_slack_equals_scalar_loop(self, corpus, monkeypatch):
        sized = ArrivalInstance(((1, 2), (1, 2), (3, 2), (4, 2)))
        # several jobs per slot: only the largest lambda of a slot is scanned
        crowded = ArrivalInstance(tuple((t, 3) for t in (1, 1, 1, 2, 5, 5, 5, 5, 6, 6)))
        cases = [(inst, (0.5, 1.0, 2.0, 4.0)[i % 4], (1.6, 2.177, 3.0)[i % 3])
                 for i, inst in enumerate(corpus)]
        cases += [(sized, 2.0, 2.177), (crowded, 1.0, 2.177), (crowded, 4.0, 3.0),
                  (random_slotted(8.0, 30, 5), 2.0, 2.0),
                  (ArrivalInstance(()), 1.0, 2.177)]
        for block in (None, 7):  # 7 values per block: one job row per block
            if block:
                monkeypatch.setattr(oracle, "_DP_BLOCK", block)
            for inst, alpha, beta in cases:
                cert = dual_lower_bound(inst, alpha, beta)
                assert cert.per_pair_slack == slack_by_loop(inst, cert), inst.name

    def test_lambda_remark_in_slot_convention(self):
        # PAPER.md's remark: lambda_j <= (d_j - a_j)/w_j, where d_j is job
        # j's completion when nothing arrives after a_j. In the lab's slots
        # the slot that serves j counts in its flow, hence the + 1.
        insts = [sigma2(5, 4), sigma2(8, 7), batch(9), periodic(4, 3),
                 random_slotted(2.0, 8, seed=3), random_slotted(4.0, 6, seed=11),
                 random_slotted(3.0, 10, seed=5)]
        reached = exceeded = False
        for inst in insts:
            for alpha in (0.3, 1.0, 4.0):
                for beta in (1.6, math.sqrt(3.0), 2.177, 3.0):
                    policy = QuadAlg(alpha=alpha, beta=beta)
                    lambdas = dual_lower_bound(inst, alpha, beta).lambdas
                    for j, ((a_j, w_j), lam) in enumerate(zip(inst.arrivals, lambdas)):
                        # unit jobs first-in first-out: j, the last job of
                        # its prefix, completes in the last serving slot
                        s = simulate(inst.prefix(j + 1), policy).s
                        d_j = max(t for t, s_t in enumerate(s, 1) if s_t)
                        assert lam <= (d_j - a_j + 1) / w_j, (inst.name, alpha, beta, j)
                        reached |= lam == (d_j - a_j + 1) / w_j
                        exceeded |= lam > (d_j - a_j) / w_j
        assert reached and exceeded

    def test_lambda_remark_fails_with_actual_completions(self):
        # The remark itself, with d_j job j's completion in the whole run,
        # fails: later arrivals raise the server count, so d_j can come
        # before d^_j, its completion when nothing arrives after a_j.
        inst, alpha, beta, j = sigma2(20, 10), 4.0, 1.6, 83
        policy = QuadAlg(alpha=alpha, beta=beta)
        lam = dual_lower_bound(inst, alpha, beta).lambdas[j]
        a_j, w_j = inst.arrivals[j]
        d_j = departures(simulate(inst, policy))[j]
        d_hat = departures(simulate(inst.prefix(j + 1), policy))[j]
        assert (lam, a_j, w_j, d_j, d_hat) == (15, 5, 1, 11, 19)
        assert lam > (d_j - a_j + 1) / w_j  # 15 > 7: the d_j form is violated
        assert lam == (d_hat - a_j + 1) / w_j  # the d^_j form holds, with equality

    def test_json_round_trip_fields(self):
        cert = dual_lower_bound(batch(2), 1.0, 2.177)
        payload = cert.to_json_dict()
        # the order dual prints them in
        assert list(payload) == ["lambdas", "flow_alg", "alpha", "beta",
                                 "bound", "per_pair_slack", "degenerate"]
        assert payload["lambdas"] == list(cert.lambdas)
        assert dual_lower_bound(ArrivalInstance(()), 1.0, 2.177) \
            .to_json_dict()["per_pair_slack"] is None


class TestConvexBatchSolve:
    def test_zero_profile(self):
        sol = convex_batch_solve(0.0, 4)
        assert sol.profile == (0.0,) * 4

    def test_kkt_residual_contract(self):
        for n, h, alpha in ((4.0, 6, 1.0), (16.0, 12, 2.0), (1.0, 1, 1.0),
                            (7.5, 20, 0.5)):
            sol = convex_batch_solve(n, h, alpha)
            assert sol.kkt_residual <= 1e-8
            assert sum(sol.profile) == pytest.approx(n, abs=1e-8)
            assert min(sol.profile) >= -1e-12

    def test_single_slot_case(self):
        sol = convex_batch_solve(1.0, 1, 1.0)
        assert sol.profile == pytest.approx((1.0,))
        assert sol.objective == pytest.approx(2.0)  # flow term 0, two unit jumps

    def test_optimal_against_perturbations(self):
        rng = random.Random(5)
        sol = convex_batch_solve(4.0, 6, 1.0)
        base = list(sol.profile)
        for _ in range(300):
            delta = [rng.uniform(-1, 1) for _ in range(6)]
            mean = sum(delta) / 6
            cand = [max(0.0, v + 0.02 * (d - mean)) for v, d in zip(base, delta)]
            scale = 4.0 / sum(cand)
            cand = [v * scale for v in cand]
            assert burst_objective(cand, 4.0, 6) >= sol.objective - 1e-9

    def test_alpha_scales_smoothing(self):
        rough = convex_batch_solve(9.0, 8, 0.1).profile
        smooth = convex_batch_solve(9.0, 8, 50.0).profile
        assert max(rough) > max(smooth)  # heavy switching weight flattens

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            convex_batch_solve(-1.0, 3)
        with pytest.raises(ValueError):
            convex_batch_solve(1.0, 0)


class TestRatioEnvelope:
    def test_theoretical_ratio_constant(self):
        beta = 2.177
        ratio = (1 + 2 * beta ** 2) * 4 * beta ** 2 / (4 * beta ** 2 - 9)
        assert ratio == pytest.approx(19.95, abs=0.01)

    def test_sigma1_ratio_grows_without_sqrt_scaling(self):
        # gamma < 1/4 deteriorates as alpha grows (single-burst input)
        ratios = []
        for alpha in (16.0, 81.0, 256.0):
            model = CostModel.linear(alpha)
            inst = sigma1(12)
            total = cost_of_trace(simulate(inst, FullParallel()), model).total
            opt, _ = dp_opt(inst, model, DpConfig(s_cap=12))
            ratios.append(total / opt)
        assert ratios[0] < ratios[1] < ratios[2]

    def test_sigma2_ratio_grows_for_large_gamma(self):
        # gamma >= 1/4 deteriorates as alpha grows (sustained input): the
        # occupancy parks near (alpha^gamma - 1) N while the offline cost
        # stays near N per slot
        from flowswitch.instances import sigma2
        from flowswitch.policies import GammaPolicy

        # horizon must dominate alpha for the sustained-load effect to show
        inst = sigma2(4, 60)
        ratios = []
        for alpha in (4.0, 16.0, 64.0):
            model = CostModel.linear(alpha)
            policy = GammaPolicy(alpha=alpha, gamma=0.5)
            total = cost_of_trace(simulate(inst, policy), model).total
            opt, _ = dp_opt(inst, model)
            ratios.append(total / opt)
        assert ratios[0] < ratios[1] < ratios[2]
