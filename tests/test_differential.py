"""The engine's fast paths against their slow references.

``simulate`` runs every instance through one slot loop: unit instances as
counts served first-in first-out, general sizes through a per-job list
sorted by (remaining, id); in both, a built-in rule runs through its
kernel: target(n) memoised per distinct n, the shape applied inline. The
references are the same loop calling ``decide`` every slot (forced by a
wrapper that exposes only ``name`` and ``decide``) and, for unit jobs, the
per-job list forced by passing unit sizes. All must agree on occupancy and
server counts, and the count and per-job branches also on served sets and
departures, for every online rule and both recording modes. The per-job
list is in turn checked against the sort-based ``conftest.srpt_select``.
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

from conftest import departures, srpt_select


def all_policies(alpha: float) -> list:
    """One instance of each of the eight online rules."""
    return [FullParallel(), BalanceValue(alpha=alpha), BalanceDelta(alpha=alpha),
            SqrtOnline(alpha=alpha), Lg(alpha=alpha),
            GammaPolicy(alpha=alpha, gamma=0.25),
            QuadAlg(alpha=alpha, beta=2.177), QuadBalance(alpha=alpha)]


class _Generic:
    """Only ``name`` and ``decide``: the count loop must call decide per slot."""

    def __init__(self, policy):
        self.name = policy.name
        self.decide = policy.decide


def per_job(instance, policy, record_served=True):
    """The slot loop's per-job list, forced on unit instances too."""
    return engine._simulate(instance, policy, record_served,
                            instance.sizes or (1,) * instance.job_count)


def assert_paths_agree(instance, policy, record_served):
    fast = engine.simulate(instance, policy, record_served=record_served)
    generic = engine.simulate(instance, _Generic(policy), record_served=record_served)
    ref = per_job(instance, policy, record_served)
    where = (instance.instance_id, policy.name, record_served)
    assert (fast.n, fast.s) == (generic.n, generic.s), where
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


class _Fixed:
    name = "fixed"

    def __init__(self, value):
        self.value = value

    def decide(self, state):
        return self.value


@pytest.mark.parametrize("run", [
    lambda inst, policy: engine.simulate(inst, policy),
    per_job,
], ids=["counts", "jobs"])
class TestFractionalRequests:
    def test_half_serves_one(self, run):
        assert run(ArrivalInstance.from_counts((2,)), _Fixed(0.5)).s == (1, 1)

    def test_rounds_up_then_clamps_at_n(self, run):
        assert run(ArrivalInstance.from_counts((2,)), _Fixed(2.5)).s == (2,)
        assert run(ArrivalInstance.from_counts((4,)), _Fixed(2.5)).s == (3, 1)

    def test_float_noise_is_not_rounded_up(self, run):
        trace = run(ArrivalInstance.from_counts((4,)), _Fixed(2 + 1e-12))
        assert trace.s == (2, 2)

    def test_numpy_scalars_and_faults(self, run):
        assert run(ArrivalInstance.from_counts((3,)), _Fixed(np.float64(1.5))).s == (2, 1)
        for bad in (True, math.inf, "two"):
            with pytest.raises(engine.PolicyFaultError):
                run(ArrivalInstance.from_counts((1,)), _Fixed(bad))


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


def _sized(instance, seed=0):
    """The same arrival slots with sizes 1..5, so simulate takes the SRPT loop."""
    rng = random.Random(seed)
    sized = ArrivalInstance(tuple((slot, rng.randint(1, 5))
                                  for slot, _ in instance.arrivals))
    assert not sized.all_unit
    return sized


def assert_kernel_agrees(instance, kernel_rule, generic_rule):
    kernel = engine.simulate(instance, kernel_rule)
    generic = engine.simulate(instance, _Generic(generic_rule))
    assert (kernel.n, kernel.s) == (generic.n, generic.s)
    assert [rec.served for rec in kernel.slots] == \
        [rec.served for rec in generic.slots]
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
    rule = _Shaped("cap", lambda n: bad)
    for inst in (ArrivalInstance.from_counts((2,)), ArrivalInstance(((1, 2), (1, 3)))):
        errors = []
        for policy in (rule, _Generic(rule)):
            with pytest.raises(engine.PolicyFaultError) as info:
                engine.simulate(inst, policy)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == f"shaped returned {bad!r} at slot 1"


@pytest.mark.parametrize("policy", [GammaPolicy(alpha=1e30, gamma=1),
                                    Lg(alpha=1e40), QuadBalance(alpha=1e30)],
                         ids=lambda p: p.name)
def test_stalling_rule_stalls_on_both_paths(policy):
    unit = ArrivalInstance.from_counts((3, 0, 2))
    for inst in (unit, _sized(unit, 2)):
        errors = []
        for run in (policy, _Generic(policy)):
            with pytest.raises(engine.PolicyStallError) as info:
                engine.simulate(inst, run)
            errors.append(str(info.value))
        k_stall = inst.total_work + inst.last_slot  # 8 for the unit instance
        assert errors[0] == errors[1] == \
            f"{policy.name} idled {k_stall} slots with work outstanding"


def test_decide_override_takes_the_generic_path():
    class EveryJob(QuadAlg):
        def decide(self, state):
            return state.n

    inst = random_slotted(5.0, 100, 2)
    trace = engine.simulate(inst, EveryJob(alpha=2.0))
    assert trace.s == engine.simulate(inst, FullParallel()).s
    assert trace.s != engine.simulate(inst, QuadAlg(alpha=2.0)).s


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
    generic = per_job(inst, _Generic(policy))
    assert (generic.n, generic.s) == (trace.n, trace.s)
    assert generic.served.ids == trace.served.ids
