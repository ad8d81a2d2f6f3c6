"""What the primal-dual certificate bounds.

``dual_lower_bound`` subtracts 9F/(4 beta^2), which with its slack check's
gamma_t = (3/beta) sqrt(alpha_eff n(t)) is sum_t gamma_t^2 / (4 alpha_eff):
the conjugate of a per-slot energy term alpha_eff s_t^2. So the bound holds
for the energy objective E below, not for the lab's switching objective,
whose optimum it can exceed. An exact DP over (t, n) computes E here.
"""

import math

import numpy as np
import pytest

from flowswitch import CostModel, dp_opt, dual_lower_bound
from flowswitch.instances import (batch, parse_instance_spec, periodic,
                                  random_slotted, sigma2)
from flowswitch.policies import effective_alpha

REPRODUCER = "random:rate=10,T=20,seed=0"
INSTANCES = [sigma2(8, 7), batch(12), periodic(4, 6), random_slotted(3.0, 15, seed=11),
             random_slotted(2.0, 12, seed=5), parse_instance_spec(REPRODUCER)]
ALPHAS = (0.3, 1.0, 4.0)
BETAS = (1.6, math.sqrt(3.0), 2.177, 3.0)


def energy_opt(instance, a: float) -> float:
    """E(instance, a) = min sum_t n(t) + a sum_t s_t^2 over integer
    0 <= s_t <= n(t), run until every job is done.

    Backward over (t, n), n(t) counting slot t's arrivals. Moving a unit of
    service from a later slot serving s >= 1 into an idle slot with work
    waiting changes the cost by -(slots moved) + a (2 - 2s) <= 0, so an
    optimum never idles with work waiting and ends by last arrival + jobs.
    """
    jobs = instance.job_count
    horizon = instance.last_slot + jobs
    arrivals = list(instance.slot_counts) + [0] * (jobs + 1)  # a_{t+1} = [t]
    n = np.arange(jobs + 1)[:, None]
    s = np.arange(jobs + 1)[None, :]
    value = np.where(np.arange(jobs + 1) == 0, 0.0, np.inf)  # past the horizon
    for t in range(horizon, 0, -1):
        left = n - s + arrivals[t]  # n(t+1)
        feasible = (s <= n) & (left <= jobs)
        cand = n + a * s * s + value[np.clip(left, 0, jobs)]
        value = np.where(feasible, cand, np.inf).min(axis=1)
    return float(value[arrivals[0]])


def test_energy_opt_by_hand():
    # one job: serve it at once, 1 + a; two at once: serve both (2 + 4a)
    # or one a slot (2 + a + 1 + a)
    assert energy_opt(batch(1), 1.0) == 2.0
    assert energy_opt(batch(2), 1.0) == 5.0
    assert energy_opt(batch(2), 0.25) == 3.0


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.name)
def test_bound_is_below_the_energy_optimum(inst):
    energy = {}  # one DP per effective alpha
    checked = 0
    for alpha in ALPHAS:
        a_eff = effective_alpha(alpha)
        if a_eff not in energy:
            energy[a_eff] = energy_opt(inst, a_eff)
        for beta in BETAS:
            cert = dual_lower_bound(inst, alpha, beta)
            if cert.degenerate:
                continue
            assert cert.bound <= energy[a_eff] * (1 + 1e-9), (alpha, beta)
            checked += 1
    assert checked == len(ALPHAS) * len(BETAS)


def test_reproducer_bounds_energy_not_switching():
    # the certificate sits above the switching optimum (even the capped
    # DP's, which is at least the optimum) and below the energy one
    inst = parse_instance_spec(REPRODUCER)
    cert = dual_lower_bound(inst, 4.0, 2.177)
    assert not cert.degenerate and cert.per_pair_slack <= 0
    opt, _ = dp_opt(inst, CostModel.quadratic(4.0))
    assert opt == 525.0
    assert opt < cert.bound <= energy_opt(inst, 4.0)
