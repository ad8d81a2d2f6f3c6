"""The engine's fast paths against their slow references.

``simulate`` runs every instance through one slot loop: unit instances as
counts served first-in first-out, general sizes through a per-job list
sorted by (remaining, id); in both, a rule runs through its kernel:
target(n) memoised per distinct n, the shape applied inline. The
references are ``conftest.shaped_request``, which evaluates the target
afresh and applies the shape for one slot, checked against every slot of
a trace, and, for unit jobs, the per-job list forced by passing unit
sizes. The count and per-job branches must agree on occupancy, server
counts, served sets and departures, for every online rule and both
recording modes. The per-job list is in turn checked against the
sort-based ``conftest.srpt_select``.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowswitch import (ArrivalInstance, CostModel, ShapedRule, cost_of_trace,
                        validate_trace)
from flowswitch import cli, engine
from flowswitch.instances import random_slotted
from flowswitch.policies import (BalanceDelta, BalanceValue, FullParallel,
                                 GammaPolicy, Lg, QuadAlg, QuadBalance,
                                 SqrtOnline)

from conftest import departures, shaped_request, srpt_select


def all_policies(alpha: float) -> list:
    """One instance of each of the eight online rules."""
    return [FullParallel(), BalanceValue(alpha=alpha), BalanceDelta(alpha=alpha),
            SqrtOnline(alpha=alpha), Lg(alpha=alpha),
            GammaPolicy(alpha=alpha, gamma=0.25),
            QuadAlg(alpha=alpha, beta=2.177), QuadBalance(alpha=alpha)]


def assert_follows_reference(trace, policy, where=None):
    """Every slot's s against ``shaped_request`` at that slot's n and s_prev."""
    s_prev = 0
    for t, (n, s) in enumerate(zip(trace.n, trace.s), start=1):
        assert s == shaped_request(policy, n, s_prev), (where, t)
        s_prev = s


def per_job(instance, policy, record_served=True):
    """The slot loop's per-job list, forced on unit instances too."""
    return engine._simulate(instance, policy, record_served,
                            instance.sizes or (1,) * instance.job_count)


def assert_paths_agree(instance, policy, record_served):
    fast = engine.simulate(instance, policy, record_served=record_served)
    ref = per_job(instance, policy, record_served)
    where = (instance.instance_id, policy.name, record_served)
    assert_follows_reference(fast, policy, where)
    assert fast.n == ref.n, where
    assert fast.s == ref.s, where
    assert [rec.served for rec in fast.slots] == \
        [rec.served for rec in ref.slots], where
    assert departures(fast) == departures(ref), where
    if record_served:
        assert fast.complete_records and validate_trace(instance, fast).ok, where
    return fast, ref


def cost_by_slots(trace, model: CostModel) -> tuple:
    """Per-slot float accumulation of flow, switching and energy."""
    flow, switching, servers, prev = 0, 0.0, 0, 0
    for rec in trace.slots:
        flow += rec.n
        switching += model.transition_cost(prev, rec.s)
        servers += rec.s
        prev = rec.s
    switching += model.transition_cost(prev, 0)
    energy = model.theta * servers
    return flow, switching, energy, flow + model.alpha * switching + energy


@pytest.mark.parametrize("record_served", [True, False])
def test_corpus(corpus, record_served):
    for i, inst in enumerate(corpus):
        alpha = (0.5, 1.0, 2.0, 4.0)[i % 4]
        for policy in all_policies(alpha):
            assert_paths_agree(inst, policy, record_served)


@settings(max_examples=150, deadline=None)
@given(counts=st.lists(st.integers(0, 7), max_size=14),
       alpha=st.sampled_from([0.5, 1.0, 2.0, 3.0, 16.0]),
       which=st.integers(0, 7), record_served=st.booleans())
def test_generated(counts, alpha, which, record_served):
    inst = ArrivalInstance.from_counts(counts)
    assert_paths_agree(inst, all_policies(alpha)[which], record_served)


@pytest.mark.parametrize("figure", cli.FIGURE_IDS)
def test_figure_cell(figure):
    model, rates, horizon = cli.figure_setup(figure)
    inst = random_slotted(rates[0], horizon, 1)
    for _, policy in cli.figure_policies(figure, model.alpha):
        fast, ref = assert_paths_agree(inst, policy, True)
        cost = cost_of_trace(fast, model)
        assert cost == cost_of_trace(ref, model)
        assert (cost.flow_time, cost.switching_cost, cost.energy_cost,
                cost.total) == cost_by_slots(ref, model)


class _Shaped(ShapedRule):
    """A user rule with a settable shape and target; counts target calls."""

    name = "shaped"

    def __init__(self, shape, target):
        self.shape = shape
        self._target = target
        self.calls = []

    def target(self, n):
        self.calls.append(n)
        return self._target(n)


def _fixed(value):
    """A cap rule whose target is ``value`` at every n."""
    return _Shaped("cap", lambda n: value)


@pytest.mark.parametrize("run", [
    lambda inst, policy: engine.simulate(inst, policy),
    per_job,
], ids=["counts", "jobs"])
class TestFractionalRequests:
    def test_half_serves_one(self, run):
        assert run(ArrivalInstance.from_counts((2,)), _fixed(0.5)).s == (1, 1)

    def test_rounds_up_then_clamps_at_n(self, run):
        assert run(ArrivalInstance.from_counts((2,)), _fixed(2.5)).s == (2,)
        assert run(ArrivalInstance.from_counts((4,)), _fixed(2.5)).s == (3, 1)

    def test_float_noise_is_not_rounded_up(self, run):
        trace = run(ArrivalInstance.from_counts((4,)), _fixed(2 + 1e-12))
        assert trace.s == (2, 2)

    def test_numpy_scalars_and_faults(self, run):
        assert run(ArrivalInstance.from_counts((3,)), _fixed(np.float64(1.5))).s == (2, 1)
        for bad in (True, math.inf, "two"):
            with pytest.raises(engine.PolicyFaultError):
                run(ArrivalInstance.from_counts((1,)), _fixed(bad))


def _sized(instance, seed=0):
    """The same arrival slots with sizes 1..5, so simulate takes the SRPT loop."""
    rng = random.Random(seed)
    sized = ArrivalInstance(tuple((slot, rng.randint(1, 5))
                                  for slot, _ in instance.arrivals))
    assert not sized.all_unit
    return sized


def assert_kernel_agrees(instance, kernel_rule, reference_rule):
    kernel = engine.simulate(instance, kernel_rule)
    assert_follows_reference(kernel, reference_rule)
    assert validate_trace(instance, kernel).ok
    return kernel


# Each kernel test runs on a unit instance (the count loop) and on the same
# slots with sizes (the SRPT loop).

@pytest.mark.parametrize("shape", ["cap", "add", "lazy"])
def test_kernel_evaluates_target_once_per_distinct_n(shape):
    unit = random_slotted(5.0, 200, 3)
    for inst in (unit, _sized(unit)):
        rule = _Shaped(shape, lambda n: (n + 2) // 3)
        trace = assert_kernel_agrees(inst, rule, _Shaped(shape, lambda n: (n + 2) // 3))
        assert sorted(rule.calls) == sorted(set(trace.n) - {0})  # n = 0 never asks


@pytest.mark.parametrize("shape", ["cap", "add", "lazy"])
@pytest.mark.parametrize("value", [0.5, 2.5, 2 + 1e-12])
def test_kernel_ceils_fractional_targets(shape, value):
    unit = ArrivalInstance.from_counts((4, 0, 3))
    for inst in (unit, _sized(unit, 1)):
        assert_kernel_agrees(inst, _Shaped(shape, lambda n: value),
                             _Shaped(shape, lambda n: value))


@pytest.mark.parametrize("bad", [math.nan, math.inf, "two", True])
def test_kernel_faults_like_decide(bad):
    # the kernel faults where the per-slot reference does, naming the slot
    rule = _Shaped("cap", lambda n: bad)
    with pytest.raises(engine.PolicyFaultError) as info:
        shaped_request(rule, 2, 0)
    assert str(info.value) == f"shaped returned {bad!r}"
    for inst in (ArrivalInstance.from_counts((2,)), ArrivalInstance(((1, 2), (1, 3)))):
        with pytest.raises(engine.PolicyFaultError) as info:
            engine.simulate(inst, rule)
        assert str(info.value) == f"shaped returned {bad!r} at slot 1"


@pytest.mark.parametrize("policy", [GammaPolicy(alpha=1e30, gamma=1),
                                    Lg(alpha=1e40), QuadBalance(alpha=1e30)],
                         ids=lambda p: p.name)
def test_stalling_rule_stalls_on_both_paths(policy):
    assert [shaped_request(policy, n, 0) for n in (1, 2, 3, 5)] == [0] * 4
    unit = ArrivalInstance.from_counts((3, 0, 2))
    for inst in (unit, _sized(unit, 2)):
        errors = []
        for run in (engine.simulate, per_job):
            with pytest.raises(engine.PolicyStallError) as info:
                run(inst, policy)
            errors.append(str(info.value))
        k_stall = inst.total_work + inst.last_slot  # 8 for the unit instance
        assert errors[0] == errors[1] == \
            f"{policy.name} idled {k_stall} slots with work outstanding"


def srpt_by_sorting(instance, s_column):
    """Served sets and departures of the SRPT loop, ranked by srpt_select."""
    outstanding, served_sets, departed = [], [], {}
    for t, s in enumerate(s_column, start=1):
        outstanding += [[j, t, size] for j, (slot, size) in enumerate(instance.arrivals)
                        if slot == t]
        served = srpt_select(outstanding, s)
        for rec in outstanding:
            if rec[0] in served:
                rec[2] -= 1
                if not rec[2]:
                    departed[rec[0]] = t
        outstanding = [rec for rec in outstanding if rec[2]]
        served_sets.append(served)
    return served_sets, departed


@settings(max_examples=150, deadline=None)
@given(jobs=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                     min_size=1, max_size=40),
       alpha=st.sampled_from([0.5, 1.0, 2.0, 16.0]), which=st.integers(0, 7))
def test_srpt_loop_matches_sorting(jobs, alpha, which):
    inst = ArrivalInstance(tuple(sorted(jobs)))
    policy = all_policies(alpha)[which]
    trace = per_job(inst, policy)
    served_sets, departed = srpt_by_sorting(inst, trace.s)
    assert [rec.served for rec in trace.slots] == served_sets
    assert departures(trace) == departed
    assert validate_trace(inst, trace).ok
    assert_follows_reference(trace, policy)
