"""Discrete-time capacity-provisioning lab: flow time plus switching cost.

Online server-count policies, an exact offline DP oracle, a primal-dual
lower bound, adversarial instance generators, and the continuous-time
stochastic variants, all behind one simulation engine.
"""

from .core import (ArrivalInstance, CostBreakdown, CostModel, ScheduleTrace,
                   SlotRecord, SwitchingKind, TraceValidationError,
                   ValidationResult, cost_of_trace, validate_trace)
from .engine import PolicyFaultError, PolicyStallError, ShapedRule, simulate
from .oracle import (ConvexSolverError, DpBudgetError, DpConfig,
                     DualCertificate, Horizon, OracleSizeError,
                     UnsupportedInstanceError, certified_horizon,
                     convex_batch_solve, delta_flow, dp_opt,
                     dual_lower_bound, exhaustive_opt)
from .policies import (BalanceDelta, BalanceValue, FullParallel, GammaPolicy,
                       Lg, QuadAlg, QuadBalance, SqrtOnline,
                       batch_quad_continuous, batch_quad_horizon_search,
                       burst_objective, make_policy)
from .stochastic import (Alg3Params, CycleOverflowError, MarkovPolicy,
                         NonErgodicError, RateModel, StochasticCostEstimate,
                         TruncationError, alg1, alg2, alg3_analytic_cost,
                         analytic_cost, scaling_exponent, simulate_alg3,
                         simulate_ctmc)
from . import instances

__version__ = "0.1.0"
