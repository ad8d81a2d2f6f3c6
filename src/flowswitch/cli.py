"""Experiment harness: run policies on instances, compare against oracles,
and reproduce the numerical-study tables as CSV.

Exit codes: 0 success, 1 usage, 2 validation/input error, 3 oracle budget.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import stat
import sys

from .core import (ArrivalInstance, CostModel, check_positive, cost_of_trace,
                   format_number)
from .engine import simulate
from .instances import GeneratorSpec, parse_instance_spec, random_slotted
from .oracle import (BUDGET_ENV_VAR, DpBudgetError, DpConfig, DualCertificate,
                     dp_opt, dual_lower_bound, state_budget)
from .policies import (BalanceDelta, BalanceValue, FullParallel, GammaPolicy,
                       QuadAlg, QuadBalance, make_policy)
from .stochastic import (Alg3Params, alg1, alg2, alg3_analytic_cost,
                         analytic_cost, scaling_exponent, simulate_alg3,
                         simulate_ctmc)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _GridLimitError(Exception):
    """A sweep grid has more cells than its limit (exit 3); ``source`` names
    where the limit came from."""

    def __init__(self, cells: int, max_cells: int, source: str):
        super().__init__(f"the sweep grid has {cells} cells, {source} is {max_cells}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _load_instance(spec: str) -> ArrivalInstance:
    if os.path.exists(spec):
        return ArrivalInstance.from_file(spec)
    return parse_instance_spec(spec)


def _instance_requests(spec: str, seed: int | None,
                       reps: int) -> list[str | GeneratorSpec]:
    """What each repetition loads: an existing file, or a generator spec
    whose random seed is ``seed`` (if given) plus the repetition index."""
    request = spec if os.path.exists(spec) else GeneratorSpec.parse(spec)
    if getattr(request, "kind", None) == "random":
        base = request._int("seed") if seed is None else seed
        return [GeneratorSpec(request.kind, {**request.params, "seed": base + i})
                for i in range(reps)]
    if reps > 1:
        raise ValueError("reps > 1 needs a random:...,seed=... instance spec")
    return [request]


_ORACLES = ("dp", "dual")
_CONFIG_KEYS = ("instance", "model", "policy", "oracle", "seed", "reps")


def _read_config(path: str) -> dict[str, list]:
    """Declarative key = value lines, each value listed under its key; only
    policy and oracle may repeat. Each value is checked as its flag would
    be; seed and reps are read as integers."""
    out: dict[str, list] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            where = f"{path}:{lineno}"
            if not eq:
                raise ValueError(f"{where}: expected 'key = value'")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{where}: unknown key {key!r}, "
                                 f"expected one of {', '.join(_CONFIG_KEYS)}")
            if key in out and key not in ("policy", "oracle"):
                raise ValueError(f"{where}: {key} is already set")
            if key == "oracle" and value not in _ORACLES:
                raise ValueError(f"{where}: oracle must be dp or dual, got {value!r}")
            if key in ("seed", "reps"):
                value = _number(value, f"{where}: {key}", int)
            if key == "reps" and value < 1:
                raise ValueError(f"{where}: reps must be at least 1, got {value}")
            out.setdefault(key, []).append(value)
    return out


def _number(item: str, what: str, kind=float):
    """``item`` read as ``kind``, or ValueError naming ``what`` and the item."""
    try:
        return kind(item)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{what} must be {noun}, got {item!r}") from None


def _parse_grid(text: str, flag: str) -> list[float]:
    """The comma-separated numbers of ``flag``; blank items are skipped."""
    return [_number(item, flag) for item in text.split(",") if item.strip()]


def _write(path: str | None, text: str):
    """Write ``text`` to the file ``path``, or to standard output without one.

    Every file a command writes goes through here. An existing file is
    overwritten in place and then cut to the length written, rather than
    truncated to zero bytes on open. On ext4 (mounted ``discard``, a 2-vCPU
    Xeon VM) rewriting 200 B to 120 KB of text, the median ``O_TRUNC`` open
    of the existing file took 57-102 us and the close after it 10-17 us
    (ext4's ``auto_da_alloc`` flushes a file that was truncated and
    rewritten), while the whole in-place rewrite took 10-22 us. The bytes
    left on disk are the same; a write that fails part-way leaves an
    incomplete file either way. Only a regular file is cut: a device or a
    FIFO (``/dev/null``, a pipe behind ``/dev/stdout``) cannot be truncated.
    """
    if not path:
        sys.stdout.write(text)
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)  # the mode open(path, "w") gives
    with open(fd, "w") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _cmd_gen(args) -> int:
    instance = parse_instance_spec(args.spec)
    _write(args.output, instance.to_text())
    return EXIT_OK


def _merge_config(args):
    """Fill the run flags left unset from the --config file (flags win),
    then check that an instance and a policy are given."""
    if args.config:
        cfg = _read_config(args.config)
        args.instance = args.instance or cfg.get("instance", [None])[0]
        args.model = args.model or cfg.get("model", [None])[0]
        args.policy = args.policy or cfg.get("policy")
        args.oracle = (args.oracle or []) + cfg.get("oracle", [])
        if args.seed is None and "seed" in cfg:
            args.seed = cfg["seed"][0]
        if args.reps is None and "reps" in cfg:
            args.reps = cfg["reps"][0]
    if not args.instance:
        raise _UsageError("an instance is required (flag or config)")
    if not args.policy:
        raise _UsageError("at least one policy is required")
    if args.reps is not None and args.reps < 1:
        raise _UsageError(f"--reps must be at least 1, got {args.reps}")


def _finite(value: float, what: str) -> float:
    """``value``, or ValueError naming ``what`` if it is not finite."""
    if not math.isfinite(value):
        raise ValueError(f"{what} is not finite")
    return value


def _dp_config(args) -> DpConfig:
    return DpConfig(s_cap=args.s_cap, t_cap=args.t_cap)


def _distinct_policies(specs: list[str], alpha: float) -> list:
    """The policy of each spec; two specs naming one policy are an error,
    since their runs would merge as replicates and share a trace file, and
    so is a policy alpha other than the cost model's ``alpha``."""
    seen: dict[str, str] = {}
    policies = []
    for spec in specs:
        policy = make_policy(spec, default_alpha=alpha)
        if policy.name in seen:
            raise ValueError(f"policies {seen[policy.name]!r} and {spec!r} "
                             f"are both {policy.name}")
        seen[policy.name] = spec
        policies.append(policy)
    for policy in policies:
        if getattr(policy, "alpha", alpha) != alpha:
            raise ValueError(
                f"policy alpha {policy.alpha} disagrees with cost model alpha {alpha}")
    return policies


def _cmd_run(args) -> int:
    _merge_config(args)
    model = CostModel.parse(args.model or "quad:alpha=1")
    oracles = args.oracle or []
    requests = _instance_requests(args.instance, args.seed, args.reps or 1)
    policies = _distinct_policies(args.policy, model.alpha)

    report: dict = {"instance": args.instance, "model": model.label,
                    "reps": len(requests), "policies": []}
    if args.seed is not None:
        report["seed"] = args.seed
    per_policy: dict[str, list[dict]] = {}
    dp_costs = []
    warned: set[str] = set()
    for request in requests:
        instance = request.build() if isinstance(request, GeneratorSpec) \
            else ArrivalInstance.from_file(request)
        out_dir = args.out_dir
        if out_dir and len(requests) > 1:  # one directory per replicate
            out_dir = os.path.join(out_dir, f"seed{request.params['seed']}")
            if not os.path.isdir(out_dir):  # mkdir: a missing --out-dir stays an error
                os.mkdir(out_dir)
        opt_cost = None
        certs: dict[float, DualCertificate] = {}  # one per distinct beta
        if "dp" in oracles:
            opt_cost, opt_trace = dp_opt(instance, model, _dp_config(args))
            dp_costs.append(opt_cost)
            if out_dir:
                _write(os.path.join(out_dir, "dp_opt_trace.csv"), opt_trace.to_csv())
        for policy in policies:
            trace = simulate(instance, policy)
            breakdown = cost_of_trace(trace, model)
            _finite(breakdown.total, f"{policy.name} cost under model {model.label}")
            entry = {**breakdown.to_json_dict(), "jobs": instance.job_count}
            if opt_cost is not None:  # dp_opt leaves energy out, so the ratio does too
                online = breakdown.flow_time + model.alpha * breakdown.switching_cost
                entry["ratio"] = 1.0 if opt_cost == 0 else online / opt_cost
            if "dual" in oracles:
                beta = getattr(policy, "beta", args.beta)
                if beta not in certs:
                    certs[beta] = _dual_certificate(instance, model.alpha, beta, warned)
                entry["dual"] = certs[beta].to_json_dict()
            per_policy.setdefault(policy.name, []).append(entry)
            if args.verbose:
                label = {"policy": policy.name}
                if len(requests) > 1:
                    label["seed"] = request.params["seed"]
                for rec in trace.slots:
                    print(json.dumps({**label, "t": rec.t, "n": rec.n, "s": rec.s,
                                      "served": sorted(rec.served)}),
                          file=sys.stderr)
            if out_dir:
                safe = policy.name.replace("(", "_").replace(")", "") \
                    .replace(",", "_")
                _write(os.path.join(out_dir, f"trace_{safe}.csv"), trace.to_csv())
    if dp_costs:
        report["dp_opt"] = dp_costs[0] if len(dp_costs) == 1 else {
            "mean": sum(dp_costs) / len(dp_costs), "values": dp_costs}
    for name, entries in per_policy.items():
        merged = dict(entries[0]) if len(entries) == 1 else {
            "mean_total": sum(e["total"] for e in entries) / len(entries),
            "runs": entries,
        }
        if len(entries) > 1 and all("ratio" in e for e in entries):
            merged["max_ratio"] = max(e["ratio"] for e in entries)
        report["policies"].append({"policy": name, **merged})
    print(json.dumps(report, indent=2, allow_nan=False))
    return EXIT_OK


def _cmd_opt(args) -> int:
    instance = _load_instance(args.instance)
    model = CostModel.parse(args.model)
    cost, trace = dp_opt(instance, model, _dp_config(args))
    csv = trace.to_csv()
    if args.output:  # the file first, so a failed write prints no report
        _write(args.output, csv)
    print(json.dumps({"instance": instance.instance_id, "model": model.label,
                      "cost": cost}, indent=2, allow_nan=False))
    if not args.output:
        _write(None, csv)
    return EXIT_OK


def _dual_certificate(instance: ArrivalInstance, alpha: float, beta: float,
                      warned: set[str]) -> DualCertificate:
    """dual_lower_bound; a degenerate beta is printed as one ``warning:``
    line on stderr, once per message in ``warned``."""
    cert = dual_lower_bound(instance, alpha, beta)
    message = f"beta={beta:g} gives a nonpositive dual bound"
    if cert.degenerate and message not in warned:
        warned.add(message)
        print(f"warning: {message}", file=sys.stderr)
    return cert


def _cmd_dual(args) -> int:
    instance = _load_instance(args.instance)
    cert = _dual_certificate(instance, args.alpha, args.beta, set())
    print(json.dumps(cert.to_json_dict(), indent=2, allow_nan=False))
    return EXIT_OK


def _cmd_stochastic(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, got {args.seed}")
    if args.policy == "alg3":
        params = _alg3_params(args, args.lam)
        if args.mode == "analytic":
            estimate = alg3_analytic_cost(args.lam, args.alpha, params)
        else:
            estimate = simulate_alg3(args.lam, args.alpha, params,
                                     event_budget=args.events, seed=args.seed)
    else:
        policy = alg1() if args.policy == "alg1" else alg2(args.alpha)
        if args.mode == "analytic":
            estimate = analytic_cost(args.lam, args.alpha, policy)
        else:
            estimate = simulate_ctmc(args.lam, args.alpha, policy,
                                     event_budget=args.events, seed=args.seed)
    payload = estimate.to_json_dict()
    for key, value in [*payload.items(), *payload["meta"].items()]:
        if isinstance(value, float):
            _finite(value, f"{args.policy} {key} at lambda={args.lam!r}, "
                           f"alpha={args.alpha!r}")
    print(json.dumps(payload, indent=2, allow_nan=False))
    return EXIT_OK


_ALG3_CONSTANTS = ("c1", "c2", "theta1", "theta2")


def _alg3_params(args, lam: float) -> Alg3Params:
    """The gated policy's parameters at lam from the alg3 flags given;
    ``Alg3Params.from_rates`` supplies the defaults."""
    constants = {key: getattr(args, key) for key in _ALG3_CONSTANTS
                 if getattr(args, key) is not None}
    return Alg3Params.from_rates(lam, **constants)


def _cmd_sweep(args) -> int:
    if args.max_cells is not None:
        if args.max_cells < 0:
            raise _UsageError(f"--max-cells must be at least 0, got {args.max_cells}")
        max_cells, source = args.max_cells, "--max-cells"
    else:
        budget = state_budget()
        max_cells, source = (budget, BUDGET_ENV_VAR) if budget < 10_000 \
            else (10_000, "the default grid limit")
    buf = io.StringIO()
    writer = csv.writer(buf)
    if args.kind == "gamma":
        if not args.instance:
            raise _UsageError("--kind gamma needs --instance")
        gammas = _parse_grid(args.gammas or "", "--gammas")
        alphas = _parse_grid(args.alphas or "", "--alphas")
        cells = len(gammas) * len(alphas)
        if cells > max_cells:
            raise _GridLimitError(cells, max_cells, source)
        writer.writerow(["gamma", "alpha", "policy_cost", "dp_cost", "ratio"])
        instance = _load_instance(args.instance) if cells else None
        opt_costs: dict[float, float] = {}  # the optimum depends on alpha only
        for gamma in gammas:
            for alpha in alphas:
                model = CostModel.linear(alpha)
                policy = GammaPolicy(alpha=alpha, gamma=gamma)
                total = _finite(cost_of_trace(simulate(instance, policy), model).total,
                                f"{policy.name} cost")
                if alpha not in opt_costs:
                    opt_costs[alpha] = dp_opt(instance, model, _dp_config(args))[0]
                opt_cost = opt_costs[alpha]
                ratio = 1.0 if opt_cost == 0 else total / opt_cost
                writer.writerow([format_number(gamma), format_number(alpha),
                                 f"{total:.6g}", f"{opt_cost:.6g}", f"{ratio:.6g}"])
    else:  # alg3
        # an empty --lambdas grid reaches no library check of alpha
        check_positive("alpha", args.alpha)
        lams = _parse_grid(args.lambdas or "", "--lambdas")
        if len(lams) > max_cells:
            raise _GridLimitError(len(lams), max_cells, source)
        writer.writerow(["lambda", "cost", "slope"])
        samples = []
        for lam in lams:
            params = _alg3_params(args, lam)
            cost = alg3_analytic_cost(lam, args.alpha, params).total
            samples.append((lam, _finite(cost, f"alg3 cost at lambda={lam:g}, "
                                               f"alpha={args.alpha:g}")))
        slope = scaling_exponent(samples) if len(samples) >= 4 else ""
        for lam, cost in samples:
            writer.writerow([format_number(lam), f"{cost:.6g}",
                             f"{slope:.6g}" if slope != "" else ""])
    _write(args.output, buf.getvalue())
    return EXIT_OK


FIGURE_IDS = ("linear_a1", "linear_a2", "linear_a4",
              "quad_a1", "quad_a2", "quad_extreme")


def figure_policies(figure_id: str, alpha: float):
    if figure_id == "linear_a1":
        return [("s=n", FullParallel()),
                ("balance_delta", BalanceDelta(alpha=1.0)),
                ("s=n/2", BalanceValue(alpha=2.0))]
    if figure_id in ("linear_a2", "linear_a4"):
        return [("balance_value", BalanceValue(alpha=alpha)),
                ("balance_delta", BalanceDelta(alpha=1.0)),
                ("proposed", GammaPolicy(alpha=alpha, gamma=0.25))]
    if figure_id in ("quad_a1", "quad_a2"):
        return [("beta=1", QuadAlg(alpha=alpha, beta=1.0)),
                ("beta=sqrt3", QuadAlg(alpha=alpha, beta=math.sqrt(3.0))),
                ("beta=2", QuadAlg(alpha=alpha, beta=2.0)),
                ("beta=4", QuadAlg(alpha=alpha, beta=4.0)),
                ("quad_balance", QuadBalance(alpha=alpha))]
    if figure_id == "quad_extreme":
        return [("beta=sqrt3", QuadAlg(alpha=alpha, beta=math.sqrt(3.0))),
                ("beta=2", QuadAlg(alpha=alpha, beta=2.0)),
                ("beta=4", QuadAlg(alpha=alpha, beta=4.0)),
                ("quad_balance", QuadBalance(alpha=alpha))]
    raise ValueError(f"unknown figure id {figure_id!r}")


def figure_setup(figure_id: str) -> tuple[CostModel, tuple[float, ...], int]:
    """(cost model, default rates, default horizon) for a figure."""
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}")
    alpha = {"linear_a1": 1.0, "linear_a2": 2.0, "linear_a4": 4.0,
             "quad_a1": 1.0, "quad_a2": 2.0, "quad_extreme": 2.0}[figure_id]
    linear = figure_id.startswith("linear")
    model = CostModel.linear(alpha) if linear else CostModel.quadratic(alpha)
    if figure_id == "quad_extreme":
        # horizon 100 best matches the published bar values
        return model, (1000.0,), 100
    return model, (5.0, 10.0, 15.0, 20.0), 400


def reproduce_figure(figure_id: str, seeds=(1, 2, 3), horizon: int | None = None,
                     rates=None):
    """Per-(rate, policy) normalized cost rows plus the figure's ordering checks.

    Costs are (flow + alpha * switching) / horizon, averaged over seeds, with
    every policy run on the same seeded instances.
    """
    model, default_rates, default_t = figure_setup(figure_id)
    horizon = default_t if horizon is None else horizon
    if horizon < 1 or not seeds:  # the costs divide by both
        raise ValueError(f"reproduce_figure needs horizon >= 1 and a seed, "
                         f"got horizon={horizon}, seeds={tuple(seeds)}")
    rates = tuple(rates) if rates else default_rates
    policies = figure_policies(figure_id, model.alpha)
    rows = []
    means: dict[tuple[float, str], float] = {}
    for rate in rates:
        sums = {label: 0.0 for label, _ in policies}
        for seed in seeds:
            instance = random_slotted(rate, horizon, seed)
            for label, policy in policies:
                trace = simulate(instance, policy, record_served=False)
                breakdown = cost_of_trace(trace, model)
                cost = (breakdown.flow_time
                        + model.alpha * breakdown.switching_cost) / horizon
                sums[label] += cost
        for label, _ in policies:
            mean = sums[label] / len(seeds)
            means[(rate, label)] = mean
            rows.append({"figure": figure_id, "rate": rate, "policy": label,
                         "normalized_cost": mean, "seeds": len(seeds),
                         "horizon": horizon})

    checks = []
    if figure_id in ("linear_a2", "linear_a4"):
        for rate in rates:
            p = means[(rate, "proposed")]
            ok = p <= means[(rate, "balance_value")] and \
                p <= means[(rate, "balance_delta")]
            checks.append((f"proposed<=balances@rate={format_number(rate)}", ok,
                           f"proposed={p:.4g} bal_value={means[(rate, 'balance_value')]:.4g} "
                           f"bal_delta={means[(rate, 'balance_delta')]:.4g}"))
    if figure_id == "linear_a1":
        for rate in rates:
            a, b = means[(rate, "s=n")], means[(rate, "balance_delta")]
            half = means[(rate, "s=n/2")]
            ok = abs(a - b) <= 0.05 * max(a, b) and a < half and b < half
            checks.append((f"full~balance<half@rate={format_number(rate)}", ok,
                           f"s=n={a:.4g} balance_delta={b:.4g} s=n/2={half:.4g}"))
    if figure_id == "quad_extreme":
        for rate in rates:
            balance = means[(rate, "quad_balance")]  # 0 only with no jobs
            ratio = 1.0 if balance == 0 else means[(rate, "beta=2")] / balance
            checks.append((f"beta2/balance<2@rate={format_number(rate)}", ratio < 2.0,
                           f"ratio={ratio:.4g}"))
    return rows, checks


def _cmd_reproduce_figure(args) -> int:
    rates = None if args.rates is None else _parse_grid(args.rates, "--rates")
    if rates == []:
        raise _UsageError("--rates needs at least one rate")
    if args.horizon is not None and args.horizon < 1:
        raise _UsageError(f"--horizon must be at least 1, got {args.horizon}")
    seeds = {} if args.seeds is None else \
        {"seeds": tuple(_number(s, "--seeds", int) for s in args.seeds.split(","))}
    rows, checks = reproduce_figure(args.figure, horizon=args.horizon,
                                    rates=rates, **seeds)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    _write(args.output, buf.getvalue())
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'VIOLATED'} ({detail})",
              file=sys.stderr)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="flowswitch",
                     description="Flow-time plus switching-cost scheduling lab")
    sub = parser.add_subparsers(dest="command", required=True)
    dp_caps = _Parser(add_help=False)
    dp_caps.add_argument("--s-cap", type=int)
    dp_caps.add_argument("--t-cap", type=int)
    alg3 = _Parser(add_help=False)
    alg3.add_argument("--alpha", type=float, default=1.0)
    for key in _ALG3_CONSTANTS:  # unset: Alg3Params.from_rates's default
        alg3.add_argument(f"--{key}", type=float)

    p = sub.add_parser("gen", help="emit an instance file")
    p.add_argument("spec", help="e.g. batch:N=4 periodic:x=4,k=50 random:rate=5,T=100,seed=1")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run policies on an instance", parents=[dp_caps])
    p.add_argument("--instance")
    p.add_argument("--policy", action="append")
    p.add_argument("--model")
    p.add_argument("--oracle", action="append", choices=_ORACLES)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--beta", type=float, default=math.sqrt(3.0),
                   help="beta for the dual oracle when the policy has none")
    p.add_argument("--out-dir")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="stream per-slot JSON events to stderr, each naming "
                        "its policy (and seed when --reps > 1)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("opt", help="offline optimal cost and trace", parents=[dp_caps])
    p.add_argument("--instance", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_opt)

    p = sub.add_parser("dual", help="primal-dual lower-bound certificate")
    p.add_argument("--instance", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("stochastic", help="continuous-time model costs",
                       parents=[alg3])
    p.add_argument("--policy", required=True, choices=["alg1", "alg2", "alg3"])
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mode", choices=["analytic", "simulate"], default="analytic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_stochastic)

    p = sub.add_parser("sweep", help="grid experiments as CSV",
                       parents=[alg3, dp_caps])
    p.add_argument("--kind", required=True, choices=["gamma", "alg3"])
    p.add_argument("--instance", help="instance spec for gamma sweeps")
    p.add_argument("--gammas")
    p.add_argument("--alphas")
    p.add_argument("--lambdas")
    p.add_argument("--max-cells", type=int,
                   help="grid size limit (default: the DP state budget, at most 10000)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("reproduce-figure", help="numerical-study tables as CSV")
    p.add_argument("--figure", required=True, choices=list(FIGURE_IDS))
    p.add_argument("--seeds")  # unset: reproduce_figure's default
    p.add_argument("--rates")
    p.add_argument("--horizon", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_reproduce_figure)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process: building it costs milliseconds."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DpBudgetError as exc:
        print(f"oracle budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except _GridLimitError as exc:
        print(f"grid limit error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:  # library input errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
