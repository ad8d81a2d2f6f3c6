"""The benchmark's three workloads, built from a workload seed.

Each workload is a list of ops that run one after another. An op's ``run``
is the timed part: one ``flowswitch`` command through ``cli.main`` in this
process (stdout and stderr go to buffers), or one library call the CLI does
not expose. Traces an op writes are read back and validated inside the op.
An op's ``check`` runs untimed afterwards: it reduces the outputs to the
text behind the op's digest and returns the invariant violations it found.

Every flowswitch function is looked up on its module at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from flowswitch import cli, core, engine, instances, oracle, policies, stochastic

# Workloads whose digests are compared with reference_digests.json. The
# stochastic one is checked against closed forms only, so a correct change
# of its random stream stays admissible.
REFERENCE_WORKLOADS = ("figures", "audit")

REL_TOL = 1e-9
# A simulated cost must land within this many 95% CI halfwidths of the
# closed form; five keeps a false alarm below about one in a million ops.
CI_HALFWIDTHS = 5.0


@dataclass
class Op:
    name: str
    run: Callable[[], dict]
    # (outputs, deep) -> (digest text, problems); deep adds the costly checks
    check: Callable[[dict, bool], tuple[str, list[str]]]
    config: str = ""  # groups the seeds of one stochastic configuration
    exact: float = 0.0  # the configuration's closed-form cost


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _canon(value) -> str:
    """JSON text with floats cut to 12 significant digits."""

    def fix(v):
        if isinstance(v, float):
            return float(f"{v:.12g}")
        if isinstance(v, dict):
            return {k: fix(x) for k, x in v.items()}
        if isinstance(v, list):
            return [fix(x) for x in v]
        return v

    return json.dumps(fix(value), sort_keys=True)


def _columns(trace) -> str:
    return "n=" + ",".join(str(r.n) for r in trace.slots) + \
        ";s=" + ",".join(str(r.s) for r in trace.slots)


def _read_back(path: str, instance) -> tuple[object, object]:
    """Read a written trace back and validate it against its instance."""
    with open(path) as fh:
        trace = core.ScheduleTrace.from_csv(fh.read())
    return trace, core.validate_trace(instance, trace)


# ---------------------------------------------------------------------------
# figures: the numerical-study sweep, one reproduce-figure cell per op

FIGURE_SEEDS = 5  # instance seeds per pass: 5 x 21 cells = 105 ops


def figures_ops(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"figures:{seed}")
    instance_seeds = rng.sample(range(1, 1_000_000), FIGURE_SEEDS)
    ops = []
    for k, inst_seed in enumerate(instance_seeds):
        for figure in cli.FIGURE_IDS:
            _, rates, _ = cli.figure_setup(figure)
            for r, rate in enumerate(rates):
                # one cell per figure is re-run with full recording
                sampled = k == 0 and r == inst_seed % len(rates)
                ops.append(_figure_op(figure, rate, inst_seed, sampled))
    return ops


def _figure_op(figure: str, rate: float, inst_seed: int, sampled: bool) -> Op:
    argv = ["reproduce-figure", "--figure", figure, "--rates", f"{rate:g}",
            "--seeds", str(inst_seed)]

    def run():
        return _cli(argv)

    def check(out, deep):
        problems = []
        if out["code"] != 0:
            return "", [f"exit code {out['code']}: {out['stderr'].strip()}"]
        violated = [ln for ln in out["stderr"].splitlines() if "VIOLATED" in ln]
        text = out["stdout"] + "\n".join(violated)
        rows = out["stdout"].strip().splitlines()[1:]
        model, _, horizon = cli.figure_setup(figure)
        labels = [label for label, _ in cli.figure_policies(figure, model.alpha)]
        if [row.split(",")[2] for row in rows] != labels:
            problems.append("figure CSV rows do not match the figure's policies")
        elif sampled and deep:
            problems += _bulk_matches_recorded(figure, rate, inst_seed, rows)
        return text, problems

    return Op(" ".join(argv), run, check)


def _bulk_matches_recorded(figure, rate, inst_seed, rows) -> list[str]:
    """Recorded-mode runs of a cell validate and reproduce its bulk costs."""
    model, _, horizon = cli.figure_setup(figure)
    instance = instances.random_slotted(rate, horizon, inst_seed)
    problems = []
    for (label, policy), row in zip(cli.figure_policies(figure, model.alpha), rows):
        bulk = core.cost_of_trace(
            engine.simulate(instance, policy, record_served=False), model)
        trace = engine.simulate(instance, policy)
        recorded = core.cost_of_trace(trace, model)
        if (bulk.flow_time, bulk.switching_cost) != \
                (recorded.flow_time, recorded.switching_cost):
            problems.append(f"{label}: bulk cost differs from recorded cost")
        if not core.validate_trace(instance, trace):
            problems.append(f"{label}: recorded trace fails validate_trace")
        normalized = (recorded.flow_time
                      + model.alpha * recorded.switching_cost) / horizon
        if not _close(normalized, float(row.split(",")[3])):
            problems.append(f"{label}: CSV cost differs from recorded cost")
    return problems


# ---------------------------------------------------------------------------
# audit: per-instance certification through run, opt and the horizon search

def audit_ops(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"audit:{seed}")
    ops: list[Op] = []
    specs = []
    # sizes vary only a little with the seed: the latency percentiles of a
    # mixed op list move when the ops near them change size
    for _ in range(5):
        specs.append(f"sigma2:N={rng.randint(7, 8)},T={rng.randint(6, 7)}")
        specs.append(f"batch:N={rng.randint(28, 32)}")
        specs.append(f"periodic:x=4,k={rng.randint(7, 8)}")
        specs.append(f"random:rate=3,T={rng.randint(27, 30)},"
                     f"seed={rng.randrange(1, 1_000_000)}")
    for spec in specs:
        for kind in ("linear", "quad"):
            alpha = rng.choice((1, 2, 4))
            ops.append(_run_op(workdir, len(ops), spec, f"{kind}:alpha={alpha}",
                               ["quad_alg:beta=2", "balance_value"], oracles=True))
    for _ in range(6):
        ops.append(_opt_op(workdir, len(ops), f"batch:N={rng.randint(38, 42)}",
                           f"quad:alpha={rng.choice((1, 2, 4))}"))
    for _ in range(40):
        ops.append(_tiny_opt_op(workdir, len(ops), rng))
    for _ in range(6):
        spec = f"random:rate=20,T=1000,seed={rng.randrange(1, 1_000_000)}"
        ops.append(_run_op(workdir, len(ops), spec, "quad:alpha=2",
                           ["quad_alg:beta=2", "balance_delta"], oracles=False))
    for _ in range(6):
        path = os.path.join(workdir, f"mixed-{len(ops)}.txt")
        _write_mixed_instance(path, rng, jobs=3000)
        ops.append(_run_op(workdir, len(ops), path, "quad:alpha=2",
                           ["quad_alg:beta=2", "balance_value"], oracles=False))
    # fixed sizes: the search has no random input, and its cost grows
    # steeply with n, so seeded sizes would only add spread to op_p90_ms
    for n in (40, 50, 60):
        for alpha in (1.0, 4.0):
            ops.append(_horizon_op(n, alpha))
    return ops


def _write_mixed_instance(path, rng, jobs: int):
    """General sizes 1..5 so the engine takes its SRPT path."""
    slots = sorted(rng.randint(1, jobs // 3) for _ in range(jobs))
    with open(path, "w") as fh:
        fh.writelines(f"{t} {rng.randint(1, 5)}\n" for t in slots)


def _load(spec: str):
    if os.path.exists(spec):
        return core.ArrivalInstance.from_file(spec)
    return instances.parse_instance_spec(spec)


def _run_op(workdir, index, spec, model_spec, policy_specs, oracles) -> Op:
    out_dir = os.path.join(workdir, f"op{index}")
    os.makedirs(out_dir, exist_ok=True)
    argv = ["run", "--instance", spec, "--model", model_spec, "--out-dir", out_dir]
    for p in policy_specs:
        argv += ["--policy", p]
    if oracles:
        argv += ["--oracle", "dp", "--oracle", "dual"]
    instance = _load(spec)

    def run():
        out = _cli(argv)
        out["traces"] = {}
        if out["code"] == 0:
            for name in sorted(os.listdir(out_dir)):
                out["traces"][name] = _read_back(os.path.join(out_dir, name),
                                                 instance)
        return out

    def check(out, deep):
        if out["code"] != 0:
            return "", [f"exit code {out['code']}: {out['stderr'].strip()}"]
        report = json.loads(out["stdout"])
        model = core.CostModel.parse(model_spec)
        problems = []
        expected = len(policy_specs) + (1 if oracles else 0)
        if len(out["traces"]) != expected:
            problems.append(f"{len(out['traces'])} traces written, {expected} expected")
        parts = [_canon(report).replace(workdir, "WORKDIR")]
        for name, (trace, verdict) in out["traces"].items():
            parts.append(f"{name}:{_columns(trace)}")
            if not verdict:
                problems.append(f"{name}: validate_trace: {verdict.violation}")
        for entry in report["policies"]:
            trace, _ = out["traces"][_trace_file(entry["policy"])]
            if not _close(core.cost_of_trace(trace, model).total, entry["total"]):
                problems.append(f"{entry['policy']}: reported cost differs from its trace")
        if oracles:
            problems += _oracle_invariants(report, out["traces"], model)
        return "\n".join(parts), problems

    return Op(" ".join(argv), run, check)


def _trace_file(policy_name: str) -> str:
    safe = policy_name.replace("(", "_").replace(")", "").replace(",", "_")
    return f"trace_{safe}.csv"


def _oracle_invariants(report, traces, model) -> list[str]:
    problems = []
    dp_value = report["dp_opt"]
    dp_trace, _ = traces["dp_opt_trace.csv"]
    if not _close(core.cost_of_trace(dp_trace, model).total, dp_value):
        problems.append("dp_opt value differs from the cost of its trace")
    for entry in report["policies"]:
        if entry["total"] < dp_value - REL_TOL * max(1.0, dp_value):
            problems.append(f"{entry['policy']} costs {entry['total']} "
                            f"below dp_opt {dp_value}")
        # the certificate bounds the quadratic-cost optimum from below
        if model.switching is core.SwitchingKind.QUADRATIC and \
                entry["dual"]["bound"] > dp_value + REL_TOL * max(1.0, dp_value):
            problems.append(f"{entry['policy']}: dual bound "
                            f"{entry['dual']['bound']} exceeds dp_opt {dp_value}")
    return problems


def _opt_op(workdir, index, spec, model_spec, s_cap=None) -> Op:
    path = os.path.join(workdir, f"opt{index}.csv")
    argv = ["opt", "--instance", spec, "--model", model_spec, "-o", path]
    if s_cap is not None:
        argv += ["--s-cap", str(s_cap)]
    instance = _load(spec)

    def run():
        out = _cli(argv)
        if out["code"] == 0:
            out["trace"] = _read_back(path, instance)
        return out

    def check(out, deep):
        if out["code"] != 0:
            return "", [f"exit code {out['code']}: {out['stderr'].strip()}"]
        model = core.CostModel.parse(model_spec)
        report = json.loads(out["stdout"])
        trace, verdict = out["trace"]
        problems = []
        if not verdict:
            problems.append(f"dp_opt trace: validate_trace: {verdict.violation}")
        if not _close(core.cost_of_trace(trace, model).total, report["cost"]):
            problems.append("opt cost differs from the cost of its trace")
        if s_cap is not None and deep:
            brute = oracle.exhaustive_opt(instance, model)
            if not _close(brute, report["cost"]):
                problems.append(f"exhaustive_opt {brute} != dp_opt {report['cost']}")
        text = _canon(report).replace(workdir, "WORKDIR")
        return text + "\n" + _columns(trace), problems

    return Op(" ".join(argv), run, check)


def _tiny_opt_op(workdir, index, rng) -> Op:
    """An instance small enough for exhaustive_opt (<= 4 jobs, t_cap <= 8)."""
    jobs = rng.randint(1, 4)
    while True:
        slots = sorted(rng.randint(1, 5) for _ in range(jobs))
        if slots[-1] + jobs <= 8:
            break
    path = os.path.join(workdir, f"tiny-{index}.txt")
    with open(path, "w") as fh:
        fh.writelines(f"{t} 1\n" for t in slots)
    model = f"{rng.choice(('linear', 'quad'))}:alpha={rng.choice((0.5, 1, 2))}"
    return _opt_op(workdir, index, path, model, s_cap=jobs)


def _horizon_op(n: int, alpha: float) -> Op:
    def run():
        return {"result": policies.batch_quad_horizon_search(n, alpha)}

    def check(out, deep):
        res = out["result"]
        problems = []
        if not _close(sum(res.profile), n, 1e-7) or min(res.profile) < -1e-9:
            problems.append("horizon-search profile is not a feasible split of n")
        objective = policies.burst_objective(res.profile, n, res.horizon, alpha) + n
        if not _close(objective, res.cost, 1e-7):
            problems.append("horizon-search cost differs from its profile's objective")
        text = f"H={res.horizon} cost={res.cost:.9g} profile=" + \
            ",".join(f"{x:.8g}" for x in res.profile)
        return text, problems

    return Op(f"batch_quad_horizon_search(n={n}, alpha={alpha:g})", run, check)


# ---------------------------------------------------------------------------
# stochastic: CTMC simulations checked against the closed forms

STOCHASTIC_EVENTS = 100_000
STOCHASTIC_GRID = ((1.0, 0.5), (1.0, 2.0), (4.0, 0.5), (4.0, 2.0))
STOCHASTIC_SEEDS = 12  # per (policy, lambda, alpha): 2 x 4 x 12 = 96 ops


def exact_cost(policy: str, lam: float, alpha: float) -> float:
    if policy == "alg1":
        return lam * (1.0 + 2.0 * alpha)
    return 1.5 * (4.0 * alpha) ** (1.0 / 3.0) * lam


def stochastic_ops(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"stochastic:{seed}")
    ops = []
    for policy in ("alg1", "alg2"):
        for lam, alpha in STOCHASTIC_GRID:
            for _ in range(STOCHASTIC_SEEDS):
                ops.append(_ctmc_op(policy, lam, alpha, rng.randrange(1, 1 << 30)))
    for _ in range(4):
        ops.append(_alg3_op(100.0, rng.choice((0.5, 1.0, 2.0)),
                            rng.randrange(1, 1 << 30)))
    for policy in ("alg1", "alg2"):
        for lam in (1e3, 1e4):
            ops.append(_analytic_op(policy, lam, rng.choice((0.5, 1.0, 2.0))))
    return ops


def _estimate(out) -> tuple[dict | None, list[str]]:
    if out["code"] != 0:
        return None, [f"exit code {out['code']}: {out['stderr'].strip()}"]
    return json.loads(out["stdout"]), []


def _ctmc_op(policy, lam, alpha, sim_seed) -> Op:
    argv = ["stochastic", "--policy", policy, "--lambda", f"{lam:g}",
            "--alpha", f"{alpha:g}", "--mode", "simulate",
            "--events", str(STOCHASTIC_EVENTS), "--seed", str(sim_seed)]
    exact = exact_cost(policy, lam, alpha)

    def check(out, deep):
        est, problems = _estimate(out)
        if est is None:
            return "", problems
        if est["meta"]["batches"] < stochastic.MIN_BATCHES:
            problems.append(f"{est['meta']['batches']} batches realized, "
                            f"{stochastic.MIN_BATCHES} required")
        if not abs(est["total"] - exact) <= CI_HALFWIDTHS * est["ci_halfwidth"]:
            problems.append(f"estimate {est['total']:.6g} +- {est['ci_halfwidth']:.3g} "
                            f"misses the closed form {exact:.6g}")
        out["halfwidth"] = est["ci_halfwidth"]
        return _canon(est), problems

    return Op(" ".join(argv), lambda: _cli(argv), check,
              config=f"{policy}:lambda={lam:g}:alpha={alpha:g}", exact=exact)


def _alg3_op(lam, alpha, sim_seed) -> Op:
    argv = ["stochastic", "--policy", "alg3", "--lambda", f"{lam:g}",
            "--alpha", f"{alpha:g}", "--mode", "simulate", "--seed", str(sim_seed)]

    def check(out, deep):
        est, problems = _estimate(out)
        if est is None:
            return "", problems
        meta = est["meta"]
        if meta["cycles"] < stochastic.MIN_BATCHES:
            problems.append(f"{meta['cycles']} cycles, {stochastic.MIN_BATCHES} required")
        published = stochastic.alg3_analytic_cost(
            lam, alpha, stochastic.Alg3Params.from_rates(lam))
        # the published accounting uses longer busy periods, so it bounds
        # the simulated occupancy from above
        if not 0 < est["mean_occupancy"] <= published.mean_occupancy:
            problems.append(f"mean occupancy {est['mean_occupancy']:.6g} outside "
                            f"(0, {published.mean_occupancy:.6g}]")
        return _canon(est), problems

    return Op(" ".join(argv), lambda: _cli(argv), check)


def _analytic_op(policy, lam, alpha) -> Op:
    argv = ["stochastic", "--policy", policy, "--lambda", f"{lam:g}",
            "--alpha", f"{alpha:g}", "--mode", "analytic"]
    exact = exact_cost(policy, lam, alpha)

    def check(out, deep):
        est, problems = _estimate(out)
        if est is None:
            return "", problems
        if not _close(est["total"], exact, 1e-6):
            problems.append(f"analytic cost {est['total']:.9g} != closed form {exact:.9g}")
        return _canon(est), problems

    return Op(" ".join(argv), lambda: _cli(argv), check)


OP_LISTS = {"figures": figures_ops, "audit": audit_ops,
            "stochastic": stochastic_ops}


def time_to_1pct(ops: list[Op], latencies: list[list[float]],
                 halfwidths: list[list[float]]) -> float:
    """Projected seconds until every configuration's 95% CI reaches 1%.

    Per (policy, lambda, alpha): median op seconds times
    (halfwidth / (0.01 * exact))^2, with the halfwidth's mean square over
    the configuration's seeds; summed over configurations.
    """
    groups: dict[str, tuple[list[float], list[float], float]] = {}
    for op, lat, hws in zip(ops, latencies, halfwidths):
        if not op.config:
            continue
        times, squares, _ = groups.setdefault(op.config, ([], [], op.exact))
        times.extend(lat)
        squares.extend(h * h for h in hws)
    total = 0.0
    for times, squares, exact in groups.values():
        mean_sq = sum(squares) / len(squares)
        total += statistics.median(times) * mean_sq / (0.01 * exact) ** 2
    return total
