"""Ground-truth machinery: exact offline DP, brute-force cross-check,
the primal-dual lower bound, and the convex solver for batch bursts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .core import ArrivalInstance, CostModel, ScheduleTrace
from .engine import simulate
from .policies import QuadAlg, burst_objective, effective_alpha

DEFAULT_STATE_BUDGET = 50_000_000
BUDGET_ENV_VAR = "FLOWSWITCH_ORACLE_BUDGET"
_DP_BLOCK = 1 << 20  # float64 elements per dp_opt or dual-slack block


class UnsupportedInstanceError(Exception):
    """dp_opt handles unit-size jobs only."""


class DpBudgetError(Exception):
    """DP state space exceeds the configured budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(f"DP needs {required} states, budget is {budget}")


class OracleSizeError(Exception):
    """exhaustive_opt is guarded to tiny inputs."""


class ConvexSolverError(Exception):
    """Burst solver failed to reach the KKT tolerance."""


def state_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return DEFAULT_STATE_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class DpConfig:
    """Search-space bounds for the offline DP.

    s_cap defaults to the largest per-slot arrival count; tests that need a
    provably unrestricted optimum pass the total job count instead (s <= n
    <= total jobs always). An explicit s_cap must be at least 1, or at
    least 0 for an instance with no jobs. t_cap defaults to last arrival +
    total work, which no optimal schedule exceeds; ``resolve`` returns that
    ceiling, and ``dp_opt`` solves only up to the first slot
    ``certified_horizon`` proves final. An explicit t_cap is taken as
    given, with no certificate. The state budget is ``state_budget()``.
    """

    s_cap: int | None = None
    t_cap: int | None = None

    def resolve(self, instance: ArrivalInstance) -> tuple[int, int, int]:
        low = min(1, instance.job_count)  # the job count is always a valid cap
        if self.s_cap is not None and self.s_cap < low:
            raise ValueError(f"s_cap must be at least {low}, got {self.s_cap}")
        s_cap = self.s_cap if self.s_cap is not None else instance.max_slot_arrivals
        s_cap = max(1, min(s_cap, instance.job_count))
        t_cap = self.t_cap if self.t_cap is not None \
            else instance.last_slot + instance.total_work
        if t_cap < instance.last_slot:
            raise ValueError("t_cap ends before the last arrival")
        return s_cap, t_cap, state_budget()


class Horizon(NamedTuple):
    """A DP horizon: the slot t_cap, the ceiling it was sought under, and
    the certificate's margin LB - V at t_cap. t_cap is certified when the
    margin exceeds ``1e-9 * max(1, V)``; otherwise it is the ceiling.
    """

    t_cap: int
    ceiling: int
    margin: float


def _dp_setup(instance: ArrivalInstance, model: CostModel, cfg: DpConfig):
    """(s_cap, t_cap, grids) for the DP under cfg, after checking unit job
    sizes, ``cfg.resolve``'s bounds, the state budget and alpha, in that
    order. An instance with no jobs is never over budget and gets no grids
    (None); otherwise they are the arrivals per slot 0..t_cap+2, their
    running sum and ``cgrid[s_prev, s'] = alpha c(s', s_prev)``."""
    if not instance.all_unit:
        raise UnsupportedInstanceError("dp_opt requires unit job sizes")
    s_cap, t_cap, budget = cfg.resolve(instance)
    if instance.job_count == 0:
        return s_cap, t_cap, None
    n_states = (t_cap + 2) * (instance.job_count + 1) * (s_cap + 1)
    if n_states > budget:
        raise DpBudgetError(n_states, budget)
    if not math.isfinite(model.alpha * model.transition_cost(0, s_cap)):
        raise ValueError(f"alpha={model.alpha:g} makes the largest switching "
                         f"cost alpha*c(s_cap, 0) overflow at s_cap={s_cap}")
    arr = np.zeros(t_cap + 3, dtype=np.int64)
    arr[1:instance.last_slot + 1] = instance.slot_counts
    sp = np.arange(s_cap + 1, dtype=np.float64)
    cgrid = model.alpha * model.transition_cost(sp[:, None], sp[None, :])
    return s_cap, t_cap, (arr, np.cumsum(arr), cgrid)


def certified_horizon(instance: ArrivalInstance, model: CostModel,
                      cfg: DpConfig | None = None) -> Horizon:
    """The first slot T that a forward lower bound proves final for dp_opt.

    A forward DP ``F_t(n, s_prev)``, the least cost of slots 1..t-1 that
    reaches slot t with n jobs outstanding and s_prev servers, runs from
    slot 1 under the same s_cap, reachable band and row blocks as dp_opt.
    At each T >= last arrival it compares
        V_T  = min_s F_{T+1}(0, s) + alpha c(0, s)       (done by slot T)
        LB_T = min_{m>=1, s} F_{T+1}(m, s) + m           (work left after T)
    Any schedule still holding work after T costs at least LB_T, so once
    LB_T exceeds V_T by more than ``1e-9 * max(1, V_T)`` (a float-safety
    margin that can only delay the stop) no longer horizon reaches or ties
    the optimum: the DP solved with t_cap = T returns the same value and
    trace as under any larger t_cap. T is the ceiling
    (``cfg.resolve``'s t_cap) if the bound never holds before it.
    """
    s_cap, ceiling, grids = _dp_setup(instance, model, cfg or DpConfig())
    if grids is None:
        return Horizon(0, ceiling, math.inf)
    return _certify(instance, s_cap, ceiling, *grids)


@np.errstate(over="ignore")  # an overflowed sum costs more than any finite one
def _certify(instance: ArrivalInstance, s_cap: int, ceiling: int,
             arr: np.ndarray, arrived: np.ndarray, cgrid: np.ndarray) -> Horizon:
    """certified_horizon on ``_dp_setup``'s grids for a non-empty unit
    instance, whose ceiling is the t_cap they were built for."""
    n_jobs = instance.job_count
    n_vals = np.arange(n_jobs + 1, dtype=np.float64)
    inf = np.inf
    # gather[j, s'] indexes h_pad.flat at row j + s', column s': the
    # sheared read F_{t+1}[a + j, s'] = H[j + s', s'] (n = n' - a + s')
    cols = s_cap + 1
    s_idx = np.arange(cols)
    gather = (np.arange(n_jobs + 1)[:, None] + s_idx) * cols + s_idx
    h_pad = np.full((n_jobs + cols + 1, cols), inf)
    slot_cost = np.where(s_idx <= n_vals[:, None], n_vals[:, None], inf)  # s' <= n
    f = np.full((n_jobs + 1, cols), inf)
    f[int(arr[1]), 0] = 0.0
    margin = -inf
    for t in range(1, ceiling + 1):
        top = int(arrived[t])
        s_w = min(top, s_cap) + 1
        prev_w = min(int(arrived[t - 1]), s_cap) + 1
        cg = cgrid[:prev_w, :s_w]
        rows = max(1, _DP_BLOCK // cg.size)
        # H[n, s'] = n + min_{s_prev} F_t(n, s_prev) + alpha c(s', s_prev)
        for lo in range(0, top + 1, rows):
            hi = min(lo + rows, top + 1)
            h = h_pad[lo:hi, :s_w]
            np.add(f[lo:hi, :prev_w, None], cg).min(axis=1, out=h)
            h += slot_cost[lo:hi, :s_w]
        a_next = int(arr[t + 1])
        f[:a_next] = inf  # n' >= a_{t+1}
        f[a_next:] = h_pad.ravel()[gather[:n_jobs + 1 - a_next]]
        if t >= instance.last_slot:
            done = float((f[0] + cgrid[:, 0]).min())
            left = float((f[1:] + n_vals[1:, None]).min())
            margin = left - done
            if margin > 1e-9 * max(1.0, done):
                return Horizon(t, ceiling, margin)
    return Horizon(ceiling, ceiling, margin)


@np.errstate(over="ignore")  # an overflowed sum costs more than any finite one
def dp_opt(instance: ArrivalInstance, model: CostModel,
           cfg: DpConfig | None = None) -> tuple[float, ScheduleTrace]:
    """Exact offline minimum of the slotted objective for unit jobs.

    State is (slot, outstanding, previous server count); transitions pick
    s' in [0, min(n, s_cap)]. The final ramp-down to 0 is charged through
    one virtual slot past the horizon. The horizon is ``cfg.t_cap`` when
    given; by default it is ``certified_horizon``'s slot, which gives the
    same value and trace as the default ceiling of ``DpConfig.resolve``
    (the state budget is checked against that ceiling).

    Each slot t is one numpy step over the block
    ``cand[n, s_prev, s'] = (n + alpha c(s', s_prev)) + V_{t+1}(n - s' + a_{t+1}, s')``
    minimised over s'; ``argmin`` keeps the first minimum, so ties break
    toward smaller s' and the returned trace is deterministic. Only the
    reachable band is filled: n at most the jobs arrived by slot t, s_prev
    at most the jobs arrived by slot t - 1 (the backtrack never leaves it;
    other states stay at inf). Rows of n are taken in chunks so one block
    holds at most about ``_DP_BLOCK`` floats.
    """
    cfg = cfg or DpConfig()
    s_cap, t_cap, grids = _dp_setup(instance, model, cfg)
    if grids is None:
        return 0.0, ScheduleTrace((), ())
    arr, arrived, cgrid = grids
    if cfg.t_cap is None:
        t_cap = _certify(instance, s_cap, t_cap, *grids).t_cap
    n_jobs = instance.job_count
    t_end = t_cap + 1  # virtual slot charging the final down-switch
    n_vals = np.arange(n_jobs + 1, dtype=np.float64)

    inf = np.inf
    v_next = np.full((n_jobs + 1, s_cap + 1), inf)
    v_next[0, 0] = 0.0
    choice = np.zeros((t_end + 1, n_jobs + 1, s_cap + 1), dtype=np.int16)
    for t in range(t_end, 0, -1):
        a_next = int(arr[t + 1])
        top = int(arrived[t])  # n <= top, hence s' <= min(top, s_cap)
        s_new = np.arange(min(top, s_cap) + 1)
        prev_w = min(int(arrived[t - 1]), s_cap) + 1
        cg = cgrid[:prev_w, :s_new.size]
        rows = max(1, _DP_BLOCK // cg.size)
        v_t = np.full((n_jobs + 1, s_cap + 1), inf)
        for lo in range(0, top + 1, rows):
            n_idx = np.arange(lo, min(lo + rows, top + 1))
            tgt = n_idx[:, None] - s_new + a_next  # <= arrived[t + 1] <= n_jobs
            ok = s_new <= n_idx[:, None]
            g = np.where(ok, v_next[np.where(ok, tgt, 0), s_new], inf)
            cand = np.add(n_vals[n_idx, None, None], cg)
            cand += g[:, None, :]
            pick = cand.argmin(axis=2)
            v_t[n_idx, :prev_w] = np.take_along_axis(
                cand, pick[..., None], axis=2)[..., 0]
            choice[t, n_idx, :prev_w] = pick
        v_next = v_t

    n0 = int(arr[1])
    best = float(v_next[n0, 0])
    if not math.isfinite(best):
        left = 0  # jobs left after t_cap when every slot serves min(n, s_cap)
        for a in arr[1:t_cap + 1].tolist():
            left = max(left + a - s_cap, 0)
        raise ValueError("no feasible schedule within t_cap" if left else
                         f"alpha={model.alpha:g} makes every schedule's cost overflow")

    ns: list[int] = []
    ss: list[int] = []
    n_cur, s_prev = n0, 0
    for t in range(1, t_end + 1):
        s_t = int(choice[t][n_cur, s_prev])
        ns.append(n_cur)
        ss.append(s_t)
        n_cur = n_cur - s_t + int(arr[t + 1])
        s_prev = s_t
        if n_cur == 0 and t >= instance.last_slot:
            break
    return best, ScheduleTrace(ns, ss)


def exhaustive_opt(instance: ArrivalInstance, model: CostModel,
                   t_cap: int | None = None) -> float:
    """Brute-force minimum over every server-count sequence.

    Independent oracle for dp_opt: plain depth-first enumeration with no
    memoization and no server cap beyond s <= n. Guarded to at most 6 jobs
    and t_cap <= 8.
    """
    if not instance.all_unit:
        raise UnsupportedInstanceError("exhaustive_opt requires unit job sizes")
    if t_cap is None:
        t_cap = instance.last_slot + instance.total_work
    if instance.job_count > 6 or t_cap > 8:
        raise OracleSizeError(
            f"exhaustive_opt guard: {instance.job_count} jobs, t_cap={t_cap}")
    if instance.job_count == 0:
        return 0.0
    if instance.last_slot > t_cap:
        raise OracleSizeError("arrival beyond t_cap")
    arrivals = [0, *instance.slot_counts] + [0] * (t_cap + 1 - instance.last_slot)
    alpha = model.alpha
    cost_fn = model.transition_cost
    best = math.inf

    def walk(t: int, n: int, s_prev: int, acc: float):
        nonlocal best
        if t > t_cap:
            if n == 0:
                total = acc + alpha * cost_fn(s_prev, 0)
                if total < best:
                    best = total
            return
        n += arrivals[t]
        if n == 0 and sum(arrivals[t:]) == 0:
            total = acc + alpha * cost_fn(s_prev, 0)
            if total < best:
                best = total
            return
        for s in range(n + 1):
            walk(t + 1, n - s, s, acc + n + alpha * cost_fn(s_prev, s))

    walk(1, 0, 0, 0.0)
    return best


# ---------------------------------------------------------------------------
# primal-dual lower bound

def delta_flow(instance: ArrivalInstance, job: int,
               alpha: float, beta: float) -> int:
    """Flow-time increase caused by one job, later arrivals disregarded.

    The quadratic rule's flow time on the stable-order prefix ending at
    ``job`` minus its flow time on that prefix without the job. Prefix
    truncation keeps the per-job increments telescoping to the full flow
    time even when several jobs share a slot. Unit jobs take both flows
    from one full run (``_unit_prefix_flows``); other sizes replay the two
    prefixes.
    """
    if not instance.sizes_equal:
        raise UnsupportedInstanceError("delta_flow requires equal job sizes")
    if not 0 <= job < instance.job_count:
        raise ValueError(f"job index {job} out of range")
    policy = QuadAlg(alpha=alpha, beta=beta)
    if instance.all_unit:
        flows = _unit_prefix_flows(instance, policy, simulate(instance, policy).n)
        return flows[job + 1] - flows[job]
    return _prefix_flow(instance, job + 1, policy) - _prefix_flow(instance, job, policy)


def _prefix_flow(instance: ArrivalInstance, k: int, policy: QuadAlg) -> int:
    """Flow time of the policy on the first k jobs of the instance: one
    replay, the reference for ``_unit_prefix_flows``."""
    return sum(simulate(instance.prefix(k), policy).n)


def _unit_prefix_flows(instance: ArrivalInstance, policy: QuadAlg,
                       occ: tuple[int, ...]) -> list[int]:
    """Flow times F(0..J) of the policy on every job prefix of a unit
    instance, from ``occ``, the n column of its run on the whole instance;
    F(k) equals ``_prefix_flow(instance, k, policy)``.

    The rule serves s = min(target(n), n), which reads n alone. Prefix k
    sees the whole instance's arrivals before slot a, the arrival slot of
    job k - 1, so it follows occ up to slot a, and from slot a on it only
    drains. So, in integers,
        F(k) = head(a) + D[carry(a) + k - arrived_before(a)],
    where head(a) sums occ over the slots before a, carry(a) is occ(a)
    minus the arrivals in slot a, and D[m], the flow of m jobs draining
    with no arrivals, is
        D[0] = 0,  D[m] = m + D[m - min(target(m), m)].
    target is monotone in n, so either target(1) >= 1 and every step of D
    serves at least one job, or the run on the whole instance has already
    raised PolicyStallError (it drains to an n >= 1 it never serves), as
    every non-empty prefix replay would.
    """
    target = policy.target
    drain = [0]
    for m in range(1, max(occ, default=0) + 1):
        drain.append(m + drain[m - min(target(m), m)])
    flows = [0]
    head = 0
    for n, arrivals in zip(occ, instance.slot_counts):
        carry = n - arrivals
        flows.extend(head + d for d in drain[carry + 1:carry + arrivals + 1])
        head += n
    return flows


def dual_bound_from_flow(flow_time: float, beta: float) -> float:
    """Weak-duality lower bound F * (4 beta^2 - 9) / (4 beta^2); ValueError
    if 4 beta^2 is not finite."""
    square = 4.0 * beta * beta
    if not math.isfinite(square):
        raise ValueError(f"beta must keep 4*beta**2 finite, got {beta:g}")
    return flow_time * (square - 9.0) / square


@dataclass(frozen=True)
class DualCertificate:
    """Per-job duals and the resulting lower bound on the offline optimum.

    per_pair_slack is the worst value of
        lambda_j - (t - a_j)/w_j - (3/beta) sqrt(alpha_eff n(t))
    over jobs j and slots t >= a_j of the online run; the certificate is
    sound when it is <= 0 and 4 beta^2 > 9.
    """

    lambdas: tuple[float, ...]
    flow_alg: int
    alpha: float
    beta: float
    bound: float
    per_pair_slack: float
    degenerate: bool

    def to_json_dict(self) -> dict:
        # -inf means "no (job, slot) pairs", e.g. an empty instance
        slack = self.per_pair_slack if math.isfinite(self.per_pair_slack) else None
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return values | {"lambdas": list(self.lambdas), "per_pair_slack": slack}


def dual_lower_bound(instance: ArrivalInstance, alpha: float,
                     beta: float) -> DualCertificate:
    """Build the dual certificate for the quadratic rule on this instance."""
    if not instance.sizes_equal:
        raise UnsupportedInstanceError("dual_lower_bound requires equal job sizes")
    policy = QuadAlg(alpha=alpha, beta=beta)
    trace = simulate(instance, policy)
    flow_alg = sum(trace.n)
    bound = dual_bound_from_flow(flow_alg, beta)  # checks beta before the prefix flows
    degenerate = 4.0 * beta * beta <= 9.0
    size = instance.sizes[0] if instance.sizes else 1
    # prefix flows F(0..J); lambda_j = (F(j+1) - F(j)) / size is
    # delta_flow(j) / size exactly, since the flows are integers
    if instance.all_unit:
        flows = _unit_prefix_flows(instance, policy, trace.n)
    else:  # one replay per prefix; the whole instance is the last one
        flows = [_prefix_flow(instance, k, policy) for k in range(instance.job_count)]
        flows.append(flow_alg)
    lambdas = tuple((after - before) / size
                    for before, after in zip(flows, flows[1:]))

    slack = _max_pair_slack(instance, lambdas, trace.n, size,
                            effective_alpha(alpha), beta)
    return DualCertificate(lambdas, flow_alg, alpha, beta, bound,
                           slack, degenerate)


def _max_pair_slack(instance: ArrivalInstance, lambdas, occ, size: int,
                    a_eff: float, beta: float) -> float:
    """max of (lam_j - (t - a_j)/size) - rhs(t) over jobs j and slots t >= a_j.

    rhs(t) = (3/beta) sqrt(a_eff n(t)). Each value takes the same IEEE
    operations in the same order as a scalar loop over (j, t), so the
    maximum is bit-identical to that loop's. Rounded subtraction is monotone
    in its first operand, so only a slot's largest (finite) lambda can give
    the maximum: one row per arrival slot, as many rows per block as fit in
    ``_DP_BLOCK`` values, and at least one.
    """
    horizon = len(occ)
    if not lambdas or not horizon:
        return -math.inf
    with np.errstate(over="ignore"):
        load = a_eff * np.asarray(occ, dtype=np.float64)
    if not np.isfinite(load).all():
        raise ValueError(f"alpha={a_eff:g} is too large for the dual slack: "
                         f"alpha*n(t) overflows")
    rhs = (3.0 / beta) * np.sqrt(load)
    slots = np.arange(1, horizon + 1)
    counts = np.asarray(instance.slot_counts)
    arrival = np.flatnonzero(counts) + 1
    first_job = (np.cumsum(counts) - counts)[arrival - 1]
    lam = np.maximum.reduceat(np.asarray(lambdas, dtype=np.float64), first_job)
    rows = max(1, _DP_BLOCK // horizon)
    slack = -math.inf
    for lo in range(0, lam.size, rows):
        a = arrival[lo:lo + rows, None]
        value = (lam[lo:lo + rows, None] - (slots - a) / size) - rhs
        slack = max(slack, float(np.where(slots >= a, value, -np.inf).max()))
    return slack


# ---------------------------------------------------------------------------
# convex batch solver

@dataclass(frozen=True)
class BurstSolution:
    profile: tuple[float, ...]
    objective: float
    kkt_residual: float


def convex_batch_solve(n: float, horizon: int, alpha: float = 1.0) -> BurstSolution:
    """Minimize the batch burst objective over {s >= 0, sum s = n}.

    Strictly convex QP with zero boundary conditions; solved by active-set
    elimination on the KKT system, which lands well inside the 1e-8 KKT
    residual contract for these sizes. The minimizer is unique.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    h = horizon
    if n == 0:
        return BurstSolution((0.0,) * h, 0.0, 0.0)

    # objective = c.s + s^T Q s / 2 + const, Q = 2 alpha T (path Laplacian)
    diag = np.full(h, 4.0 * alpha)
    lin = -np.arange(h, 0, -1, dtype=np.float64)  # -(H+1-i)

    def grad(s: np.ndarray) -> np.ndarray:
        g = lin + 4.0 * alpha * s
        g[:-1] -= 2.0 * alpha * s[1:]
        g[1:] -= 2.0 * alpha * s[:-1]
        return g

    active = np.zeros(h, dtype=bool)
    for _ in range(4 * h + 16):
        free = ~active
        k = int(free.sum())
        if k == 0:
            raise ConvexSolverError("all variables pinned at zero with n > 0")
        idx = np.flatnonzero(free)
        kkt = np.zeros((k + 1, k + 1))
        sub = np.diag(diag[idx])
        adjacent = np.flatnonzero(np.diff(idx) == 1)
        sub[adjacent, adjacent + 1] = -2.0 * alpha
        sub[adjacent + 1, adjacent] = -2.0 * alpha
        kkt[:k, :k] = sub
        kkt[:k, k] = -1.0
        kkt[k, :k] = 1.0
        rhs = np.concatenate([-lin[idx], [n]])
        sol = np.linalg.solve(kkt, rhs)
        s = np.zeros(h)
        s[idx] = sol[:k]
        lam = sol[k]
        if s.min() < -1e-11:
            active[int(np.argmin(s))] = True
            continue
        mults = grad(s) - lam
        blocked = np.flatnonzero(active)
        if blocked.size and mults[blocked].min() < -1e-9:
            active[blocked[int(np.argmin(mults[blocked]))]] = False
            continue
        break
    else:
        raise ConvexSolverError("active-set iteration limit reached")

    s = np.maximum(s, 0.0)
    g = grad(s)
    support = s > 1e-12
    residual = abs(float(s.sum()) - n)
    if support.any():
        residual = max(residual, float(np.abs(g[support] - lam).max()))
    if (~support).any():
        residual = max(residual, float(np.maximum(lam - g[~support], 0.0).max()))
    tol = 1e-8
    if residual > tol:
        raise ConvexSolverError(f"KKT residual {residual:.3e} exceeds {tol:g}")
    objective = burst_objective(s.tolist(), n, h, alpha)
    return BurstSolution(tuple(float(x) for x in s), float(objective),
                         float(residual))
