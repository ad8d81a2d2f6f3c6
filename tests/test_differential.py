"""The unit-job count path against the per-job SRPT engine.

``simulate`` runs unit instances through the count recurrence; the per-job
SRPT loop is the reference. Both must agree on occupancy, server counts,
served sets and departures, for every online rule and both recording modes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowswitch import ArrivalInstance, CostModel, cost_of_trace, validate_trace
from flowswitch import cli, engine
from flowswitch.instances import random_slotted
from flowswitch.policies import (BalanceDelta, BalanceValue, FullParallel,
                                 GammaPolicy, Lg, QuadAlg, QuadBalance,
                                 SqrtOnline)


def all_policies(alpha: float) -> list:
    """One instance of each of the eight online rules."""
    return [FullParallel(), BalanceValue(alpha=alpha), BalanceDelta(alpha=alpha),
            SqrtOnline(alpha=alpha), Lg(alpha=alpha),
            GammaPolicy(alpha=alpha, gamma=0.25),
            QuadAlg(alpha=alpha, beta=2.177), QuadBalance(alpha=alpha)]


def assert_paths_agree(instance, policy, record_served):
    fast = engine.simulate(instance, policy, record_served=record_served)
    ref = engine._simulate_jobs(instance, policy, record_served)
    where = (instance.instance_id, policy.name, record_served)
    assert fast.n == ref.n, where
    assert fast.s == ref.s, where
    assert [rec.served for rec in fast.slots] == \
        [rec.served for rec in ref.slots], where
    assert dict(fast.departures) == dict(ref.departures), where
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
    lambda inst, policy: engine._simulate_jobs(inst, policy, True),
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
