import heapq
import math
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowswitch import (ArrivalInstance, CostModel, ObservableState,
                        PolicyFaultError, PolicyStallError, cost_of_trace,
                        simulate, srpt_select, trace_from_server_counts,
                        validate_trace)
from flowswitch import engine
from flowswitch.instances import batch
from flowswitch.policies import FullParallel, QuadAlg


class _Fixed:
    """Request a constant count (test helper)."""

    name = "fixed"

    def __init__(self, value):
        self.value = value

    def decide(self, state):
        return self.value


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

    def test_heap_pops_the_sorted_choice(self):
        # the SRPT engine pops from a (remaining, arrival, id) heap
        rng = random.Random(3)
        for _ in range(500):
            outstanding = [(j, rng.randint(1, 4), rng.randint(1, 3))
                           for j in range(rng.randint(0, 12))]
            k = rng.randint(0, len(outstanding) + 1)
            heap = [(r, a, j) for j, a, r in outstanding]
            heapq.heapify(heap)
            popped = engine._srpt_pop(heap, min(k, len(outstanding)))
            assert frozenset(j for _, _, j in popped) == srpt_select(outstanding, k)


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

    def test_alpha_consistency_check(self):
        policy = QuadAlg(alpha=2.0)
        with pytest.raises(ValueError):
            simulate(batch(1), policy, CostModel.quadratic(1.0))
        simulate(batch(1), policy, CostModel.quadratic(2.0))

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
        assert trace.departures == {1: 2, 0: 4}

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


def replay_reference(instance, counts, policy_name="fixed"):
    """The counts replayed through ``simulate`` by a frozen dataclass policy
    built per call, as trace_from_server_counts did before its module-level
    replay policy; it stays here as that policy's reference.
    """

    @dataclass(frozen=True)
    class _Replay:
        schedule: tuple[int, ...]
        name: str = policy_name

        def decide(self, state: ObservableState) -> int:
            idx = state.t - 1
            want = self.schedule[idx] if idx < len(self.schedule) else 0
            if want > state.n:
                raise ValueError(
                    f"replay count {want} exceeds n={state.n} at slot {state.t}")
            return want

    return simulate(instance, _Replay(tuple(int(c) for c in counts)))


def _outcome(build, instance, counts):
    """Everything a trace exposes, or the error type and message."""
    try:
        trace = build(instance, counts, "replay")
    except (ValueError, PolicyStallError) as exc:
        return type(exc), str(exc)
    return (trace.n, trace.s, tuple(trace.slots), dict(trace.departures),
            trace.policy_name, trace.instance_id, trace.complete_records,
            trace.served is None)


def assert_replay_matches(instance, counts):
    want = _outcome(replay_reference, instance, counts)
    assert _outcome(trace_from_server_counts, instance, counts) == want, \
        (instance.name, counts)


class TestTraceFromServerCounts:
    def test_matches_replay_on_corpus(self, corpus):
        rng = random.Random(11)
        for inst in corpus[:80]:
            served = simulate(inst, FullParallel()).s
            cases = [served, served + (0, 0), served[:-1], (), [0] * 3,
                     [c + 1 for c in served], [-1] + list(served)]
            cases += [[rng.randint(-1, 4) for _ in range(rng.randint(0, 12))]
                      for _ in range(4)]
            for counts in cases:
                assert_replay_matches(inst, counts)

    @settings(max_examples=150, deadline=None)
    @given(arrivals=st.lists(st.integers(0, 4), min_size=1, max_size=6),
           counts=st.lists(st.integers(-1, 5), max_size=12))
    def test_matches_replay_generated(self, arrivals, counts):
        assert_replay_matches(ArrivalInstance.from_counts(arrivals), counts)

    def test_general_sizes_replay_through_srpt(self):
        inst = ArrivalInstance(((1, 2), (1, 1), (2, 3)))
        for counts in ([2, 2, 1, 1], [1, 1, 1, 1, 1, 1], [3], [2, 2]):
            assert_replay_matches(inst, counts)

    def test_replays_exact_counts(self):
        inst = ArrivalInstance(((1, 1), (1, 1), (1, 1)))
        trace = trace_from_server_counts(inst, [1, 2])
        assert trace.s == (1, 2)
        assert validate_trace(inst, trace).ok

    def test_rejects_infeasible_counts(self):
        with pytest.raises(ValueError):
            trace_from_server_counts(batch(1), [2])
