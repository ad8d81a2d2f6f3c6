import math
import random

import pytest

from flowswitch import (ArrivalInstance, CostModel, ObservableState,
                        PolicyFaultError, PolicyStallError, cost_of_trace,
                        simulate, validate_trace)
from flowswitch import engine
from flowswitch.instances import batch
from flowswitch.policies import FullParallel, QuadAlg

from conftest import departures, srpt_select


class _Fixed:
    """Request a constant count (test helper)."""

    name = "fixed"

    def __init__(self, value):
        self.value = value

    def decide(self, state):
        return self.value


class _Choose:
    """Request n, a count in between or, after a busy slot, 0 (test helper)."""

    name = "choose"

    def __init__(self, rng):
        self.rng = rng

    def decide(self, state):
        low = 0 if state.s_prev or not state.n else 1  # never two idle slots
        return self.rng.choice((low, state.n, self.rng.randint(low, state.n)))


class TestSrptSelect:
    def test_shortest_remaining_first(self):
        jobs = ((0, 1, 3), (1, 1, 1), (2, 1, 2))
        assert srpt_select(jobs, 2) == {1, 2}

    def test_arrival_breaks_ties(self):
        jobs = ((0, 1, 1), (1, 2, 1))
        assert srpt_select(jobs, 1) == {0}

    def test_zero_servers(self):
        assert srpt_select(((0, 1, 1),), 0) == frozenset()

    def test_k_beyond_population(self):
        jobs = ((0, 1, 2), (1, 1, 2))
        assert srpt_select(jobs, 5) == {0, 1}

    def test_negative_k(self):
        with pytest.raises(ValueError):
            srpt_select((), -1)

    def test_ordered_list_serves_the_sorted_choice(self):
        # the SRPT engine serves a prefix of one list sorted by (remaining, id)
        rng = random.Random(3)
        seen = {"k = 0": 0, "k = n": 0, "tie at the cut": 0, "several depart": 0}
        for _ in range(400):
            jobs = sorted((rng.randint(1, 4), rng.randint(1, 3))
                          for _ in range(rng.randint(1, 14)))
            inst = ArrivalInstance(tuple(jobs))
            trace = engine._simulate(inst, _Choose(rng), True,
                                     inst.sizes or (1,) * inst.job_count)
            outstanding = []  # [id, arrival, remaining]
            for rec in trace.slots:
                outstanding += [[j, a, size] for j, (a, size) in enumerate(jobs)
                                if a == rec.t]
                assert rec.served == srpt_select(outstanding, rec.s)
                ranked = sorted(r for _, _, r in outstanding)
                seen["k = 0"] += rec.s == 0 < rec.n
                seen["k = n"] += rec.s == rec.n > 1
                seen["tie at the cut"] += 0 < rec.s < rec.n and \
                    ranked[rec.s - 1] == ranked[rec.s]
                for job in outstanding:
                    job[2] -= job[0] in rec.served
                seen["several depart"] += sum(not job[2] for job in outstanding) > 1
                outstanding = [job for job in outstanding if job[2]]
            assert not outstanding
        assert min(seen.values()) > 0, seen


class TestSimulate:
    def test_full_parallel_batch(self):
        trace = simulate(batch(2), FullParallel())
        b = cost_of_trace(trace, CostModel.quadratic(1))
        assert trace.s == (2,)
        assert (b.flow_time, b.switching_cost, b.total) == (2, 8, 10)

    def test_empty_instance(self):
        trace = simulate(ArrivalInstance(()), FullParallel())
        assert trace.slots == ()
        assert cost_of_trace(trace, CostModel.linear(1)).total == 0

    def test_quad_alg_first_slot(self):
        trace = simulate(batch(12), QuadAlg(alpha=3.0, beta=math.sqrt(3.0)))
        assert trace.s[0] == 4

    def test_clamps_request_to_occupancy(self):
        trace = simulate(batch(2), _Fixed(99))
        assert trace.s == (2,)
        assert validate_trace(batch(2), trace).ok

    def test_work_conservation_under_clamp(self):
        # min(request, n) jobs receive exactly one unit every slot
        inst = ArrivalInstance(((1, 1), (1, 1), (1, 1), (3, 1)))
        trace = simulate(inst, _Fixed(2))
        assert [len(rec.served) for rec in trace.slots] == \
            [min(2, rec.n) for rec in trace.slots]

    def test_idle_gap_recorded(self):
        inst = ArrivalInstance(((1, 1), (4, 1)))
        trace = simulate(inst, FullParallel())
        assert trace.n == (1, 0, 0, 1)
        assert trace.s == (1, 0, 0, 1)

    def test_policy_fault(self):
        with pytest.raises(PolicyFaultError):
            simulate(batch(1), _Fixed(math.nan))
        with pytest.raises(PolicyFaultError):
            simulate(batch(1), _Fixed("three"))

    def test_stall_guard(self):
        with pytest.raises(PolicyStallError):
            simulate(batch(3), _Fixed(0))

    def test_determinism(self):
        inst = ArrivalInstance(((1, 1), (1, 1), (2, 1), (5, 1)))
        a = simulate(inst, QuadAlg(alpha=1.0))
        b = simulate(inst, QuadAlg(alpha=1.0))
        assert a == b

    def test_preemption_and_resume(self):
        # size-3 job yields to a later short job, then resumes
        inst = ArrivalInstance(((1, 3), (2, 1)))
        trace = simulate(inst, _Fixed(1))
        long_slots = sorted(t for t, rec in enumerate(trace.slots, start=1)
                            if 0 in rec.served)
        assert long_slots == [1, 3, 4]
        assert departures(trace) == {1: 2, 0: 4}

    def test_light_mode_matches_full(self):
        inst = ArrivalInstance(tuple((t, 1) for t in (1, 1, 2, 4, 4, 4)))
        full = simulate(inst, QuadAlg(alpha=2.0))
        light = simulate(inst, QuadAlg(alpha=2.0), record_served=False)
        assert light.n == full.n
        assert light.s == full.s
        assert not light.complete_records
        assert not validate_trace(inst, light).ok

    def test_light_mode_needs_unit_jobs(self):
        with pytest.raises(ValueError):
            simulate(ArrivalInstance(((1, 2),)), FullParallel(), record_served=False)

    def test_validates_on_corpus(self, small_corpus):
        for inst in small_corpus:
            for policy in (FullParallel(), QuadAlg(alpha=2.0, beta=2.177)):
                assert validate_trace(inst, simulate(inst, policy)).ok


class TestObservableState:
    @pytest.mark.parametrize("arrivals, expected", [
        (((1, 2), (2, 1)), [(1, 1, 0), (2, 2, 1), (3, 1, 1)]),
        (((1, 1), (2, 1)), [(1, 1, 0), (2, 1, 1)]),
    ], ids=["general", "unit"])
    def test_policy_sees_t_n_s_prev(self, arrivals, expected):
        seen = []

        class Probe:
            name = "probe"

            def decide(self, state):
                seen.append((state.t, state.n, state.s_prev))
                return 1

        simulate(ArrivalInstance(arrivals), Probe())
        assert seen == expected

    def test_repr(self):
        assert repr(ObservableState(1, 2, 0)) == "ObservableState(t=1, n=2, s_prev=0)"


class TestMonotonicity:
    def test_one_extra_final_job_never_lowers_occupancy(self):
        rng = random.Random(7)
        for _ in range(120):
            n_jobs = rng.randint(1, 8)
            horizon = rng.randint(1, 8)
            slots = sorted(rng.randint(1, horizon) for _ in range(n_jobs))
            base = ArrivalInstance(tuple((s, 1) for s in slots))
            bigger = ArrivalInstance(
                base.arrivals + ((rng.randint(slots[-1], slots[-1] + 3), 1),))
            policy = QuadAlg(alpha=rng.choice([0.5, 1, 2, 4]),
                             beta=rng.choice([1.0, math.sqrt(3.0), 2.177]))
            occ_base = simulate(base, policy).n
            occ_big = simulate(bigger, policy).n
            for i in range(max(len(occ_base), len(occ_big))):
                lo = occ_base[i] if i < len(occ_base) else 0
                hi = occ_big[i] if i < len(occ_big) else 0
                assert lo <= hi, (base.arrivals, bigger.arrivals[-1], policy.name)


class TestMakespanBound:
    @pytest.mark.parametrize("beta", [1.0, math.sqrt(3.0)])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
    def test_batch_drain_time(self, alpha, beta):
        # spot slice of the full acceptance grid
        a_eff = max(alpha, 1.0)
        for n in (1, 2, 7, 30, 121):
            trace = simulate(batch(n), QuadAlg(alpha=alpha, beta=beta))
            bound = math.ceil(3.0 * math.sqrt(a_eff * n) / beta)
            assert trace.last_slot <= bound

    def test_saturated_batch_finishes_in_one_slot(self):
        # beta sqrt(n/alpha) >= n: everything runs in parallel
        trace = simulate(batch(3), QuadAlg(alpha=0.5, beta=2.177))
        assert trace.last_slot == 1

