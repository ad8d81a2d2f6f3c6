"""Per-layer tracing for the benchmark, from outside the package.

The tracer replaces public flowswitch functions at the names their callers
look them up under (``flowswitch.cli.simulate``, ``flowswitch.oracle.delta_flow``
and so on) with wrappers that record one span per call. Spans stay in
memory and are written out as JSON lines when the run ends. A span's self
time is its duration minus the durations of its direct child spans, so an
engine call made inside ``delta_flow`` is charged to the engine, not to the
oracle. Per-slot ``decide()`` calls are never wrapped.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LAYERS = ("cli", "instances", "core", "engine", "policies", "oracle",
          "stochastic")

# Which end-to-end metric each layer metric should move, and on which
# workload. The report prints it next to the values, so later changes can
# cite a layer metric, an end-to-end metric and a workload by name.
LAYER_MAP = (
    (("instances.random_slotted.calls", "instances.random_slotted.self_s",
      "instances.jobs_built", "instances.jobs_per_s"),
     "wall_s, op_p50_ms, peak_rss_mb", "figures"),
    (("engine.bulk.calls", "engine.bulk.self_s", "engine.bulk.slots",
      "engine.slots_per_s"), "wall_s, op_p90_ms", "figures"),
    (("engine.unit.calls", "engine.unit.self_s", "engine.unit.slots",
      "engine.general.calls", "engine.general.self_s",
      "engine.general.slots"), "wall_s", "audit"),
    (("core.cost_of_trace.calls", "core.cost_of_trace.self_s"),
     "wall_s", "figures"),
    (("core.validate_trace.calls", "core.validate_trace.self_s",
      "core.validate_trace.slots", "core.csv.self_s", "core.csv.bytes"),
     "wall_s, peak_rss_mb", "audit"),
    (("oracle.dp_opt.calls", "oracle.dp_opt.self_s", "oracle.dp_opt.states",
      "oracle.dp_opt.states_per_s", "oracle.dp_opt.reachable_ratio"),
     "op_p90_ms, wall_s", "audit"),
    (("oracle.dual_lower_bound.calls", "oracle.dual_lower_bound.self_s",
      "oracle.delta_flow.calls", "oracle.delta_flow.self_s",
      "oracle.delta_flow.replay_slots"), "wall_s", "audit"),
    (("oracle.convex_batch_solve.calls", "oracle.convex_batch_solve.self_s",
      "policies.horizon_search.calls", "policies.horizon_search.self_s",
      "policies.horizon_search.solves", "policies.horizon_search.useful_ratio"),
     "op_p90_ms", "audit"),
    (("stochastic.simulate_ctmc.calls", "stochastic.simulate_ctmc.self_s",
      "stochastic.simulate_ctmc.events", "stochastic.simulate_ctmc.events_per_s"),
     "wall_s, op_p50_ms, time_to_1pct_s", "stochastic"),
    (("stochastic.simulate_alg3.calls", "stochastic.simulate_alg3.self_s",
      "stochastic.simulate_alg3.cycles", "stochastic.analytic_cost.calls",
      "stochastic.analytic_cost.self_s"), "wall_s", "stochastic"),
    (("cli.main.calls", "cli.main.self_s"), "op_p50_ms", "figures"),
    (("setup.import_s", "setup.inputs_s"), "setup_s", "all"),
    (tuple(f"{layer}.errors" for layer in LAYERS), "ops_failed", "all"),
    (("trace.overhead_s",), "none (cost of tracing itself)", "all"),
)

# Ratios derived by the benchmark from outside the code under test.
COMPUTED = {"oracle.dp_opt.reachable_ratio", "policies.horizon_search.useful_ratio",
            "oracle.delta_flow.replay_slots"}

# Per-pass work counts: two runs of one workload and seed must agree on them.
COUNT_SUFFIXES = (".calls", ".slots", ".states", ".events", ".solves",
                  ".cycles", ".replay_slots", ".jobs_built", ".bytes")


def metric_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def metric_names() -> list[str]:
    return [name for names, _, _ in LAYER_MAP for name in names]


class Span:
    __slots__ = ("sid", "name", "parent", "op", "start", "end", "child_s",
                 "error", "counts")

    def __init__(self, sid, name, parent, op, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.error = False
        self.counts = None

    def add(self, key: str, value: float):
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    """Records spans around wrapped functions while ``active`` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.active = False
        self.op = None
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name_of, on_exit=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span = Span(len(tracer.spans), name_of(args, kwargs),
                        parent.sid if parent else None, tracer.op,
                        time.perf_counter())
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span.end = time.perf_counter()
                if on_exit is not None:
                    on_exit(span, args, kwargs, result)
            except BaseException:
                span.end = time.perf_counter()
                span.error = True
                raise
            finally:
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                    if span.counts and "slots" in span.counts:
                        parent.add("child_slots", span.counts["slots"])
                    if span.name == "oracle.convex_batch_solve":
                        parent.add("solves", 1)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap the package's public functions at their lookup sites."""
        from flowswitch import cli, core, engine, instances, oracle, policies
        from flowswitch.oracle import DpConfig

        def fixed(name):
            return lambda args, kwargs: name

        def engine_name(args, kwargs):
            if not kwargs.get("record_served", True):
                return "engine.bulk"
            return "engine.unit" if args[0].all_unit else "engine.general"

        def count_slots(span, args, kwargs, trace):
            span.add("slots", len(trace.slots))

        simulate = self._wrap(engine.simulate, engine_name, count_slots)
        for module in (engine, cli, oracle):
            self._patch(module, "simulate", simulate)

        def count_jobs(span, args, kwargs, instance):
            span.add("jobs_built", instance.job_count)

        for fn_name in ("random_slotted", "batch", "periodic", "sigma1", "sigma2"):
            wrapped = self._wrap(getattr(instances, fn_name),
                                 fixed(f"instances.{fn_name}"), count_jobs)
            self._patch(instances, fn_name, wrapped)
            if hasattr(cli, fn_name):
                self._patch(cli, fn_name, wrapped)
        self._patch(cli, "parse_instance_spec",
                    self._wrap(instances.parse_instance_spec,
                               fixed("instances.parse_instance_spec")))

        self._patch(cli, "cost_of_trace",
                    self._wrap(core.cost_of_trace, fixed("core.cost_of_trace")))

        def count_validated(span, args, kwargs, result):
            span.add("slots", len(args[1].slots))

        self._patch(core, "validate_trace",
                    self._wrap(core.validate_trace, fixed("core.validate_trace"),
                               count_validated))

        def count_written(span, args, kwargs, text):
            span.add("bytes", len(text))

        def count_read(span, args, kwargs, trace):
            span.add("bytes", len(args[1] if len(args) > 1 else kwargs["text"]))

        trace_cls = core.ScheduleTrace
        self._patch(trace_cls, "to_csv",
                    self._wrap(trace_cls.to_csv, fixed("core.csv"), count_written))
        from_csv = trace_cls.__dict__["from_csv"].__func__
        self._patch(trace_cls, "from_csv",
                    classmethod(self._wrap(from_csv, fixed("core.csv"), count_read)))

        def count_states(span, args, kwargs, result):
            instance = args[0]
            cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
            if not instance.job_count:
                return
            s_cap, t_cap, _ = (cfg or DpConfig()).resolve(instance)
            t_end = t_cap + 1
            jobs = instance.job_count
            per_n = s_cap + 1
            span.add("states", (t_end + 1) * (jobs + 1) * per_n)
            arrived_by = [0] * (t_end + 2)
            for slot, _ in instance.arrivals:
                arrived_by[slot] += 1
            reachable = 0
            arrived = 0
            for t in range(t_end + 1):
                arrived += arrived_by[t]
                reachable += (min(arrived, jobs) + 1) * per_n
            span.add("reachable_states", reachable)

        self._patch(cli, "dp_opt",
                    self._wrap(oracle.dp_opt, fixed("oracle.dp_opt"), count_states))
        self._patch(cli, "dual_lower_bound",
                    self._wrap(oracle.dual_lower_bound,
                               fixed("oracle.dual_lower_bound")))
        self._patch(oracle, "delta_flow",
                    self._wrap(oracle.delta_flow, fixed("oracle.delta_flow")))
        self._patch(oracle, "convex_batch_solve",
                    self._wrap(oracle.convex_batch_solve,
                               fixed("oracle.convex_batch_solve")))

        def count_horizon(span, args, kwargs, result):
            span.add("useful", result.horizon + 1)

        self._patch(policies, "batch_quad_horizon_search",
                    self._wrap(policies.batch_quad_horizon_search,
                               fixed("policies.horizon_search"), count_horizon))

        def count_events(span, args, kwargs, estimate):
            span.add("events", estimate.meta["events"])

        def count_cycles(span, args, kwargs, estimate):
            span.add("cycles", estimate.meta["cycles"])

        self._patch(cli, "simulate_ctmc",
                    self._wrap(cli.simulate_ctmc, fixed("stochastic.simulate_ctmc"),
                               count_events))
        self._patch(cli, "simulate_alg3",
                    self._wrap(cli.simulate_alg3, fixed("stochastic.simulate_alg3"),
                               count_cycles))
        self._patch(cli, "analytic_cost",
                    self._wrap(cli.analytic_cost, fixed("stochastic.analytic_cost")))

        self._patch(cli, "main", self._wrap(cli.main, fixed("cli.main")))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time, errors and summed counts."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for span in self.spans:
            row = out[span.name]
            row["calls"] += 1
            row["self_s"] += (span.end - span.start) - span.child_s
            row["errors"] += span.error
            for key, value in (span.counts or {}).items():
                row[key] += value
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "id": span.sid, "parent": span.parent, "op": span.op,
                    "name": span.name, "start": span.start, "end": span.end,
                    "self_s": (span.end - span.start) - span.child_s,
                    "error": span.error, **(span.counts or {})}) + "\n")


def layer_metrics(totals: dict, passes: int) -> dict[str, float]:
    """The per-layer metrics of ``LAYER_MAP``, per pass over the op list."""

    def get(name, key):
        return totals.get(name, {}).get(key, 0.0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for key in ("calls", "self_s"):
        m[f"instances.random_slotted.{key}"] = get("instances.random_slotted", key)
    inst_names = [n for n in totals if n.startswith("instances.")]
    jobs = sum(get(n, "jobs_built") for n in inst_names)
    inst_self = sum(get(n, "self_s") for n in inst_names)
    m["instances.jobs_built"] = jobs
    m["instances.jobs_per_s"] = ratio(jobs, inst_self)

    for mode in ("bulk", "unit", "general"):
        for key in ("calls", "self_s", "slots"):
            m[f"engine.{mode}.{key}"] = get(f"engine.{mode}", key)
    engine_slots = sum(m[f"engine.{mode}.slots"] for mode in ("bulk", "unit", "general"))
    engine_self = sum(m[f"engine.{mode}.self_s"] for mode in ("bulk", "unit", "general"))
    m["engine.slots_per_s"] = ratio(engine_slots, engine_self)

    for key in ("calls", "self_s"):
        m[f"core.cost_of_trace.{key}"] = get("core.cost_of_trace", key)
    for key in ("calls", "self_s", "slots"):
        m[f"core.validate_trace.{key}"] = get("core.validate_trace", key)
    m["core.csv.self_s"] = get("core.csv", "self_s")
    m["core.csv.bytes"] = get("core.csv", "bytes")

    for key in ("calls", "self_s", "states"):
        m[f"oracle.dp_opt.{key}"] = get("oracle.dp_opt", key)
    m["oracle.dp_opt.states_per_s"] = ratio(m["oracle.dp_opt.states"],
                                            m["oracle.dp_opt.self_s"])
    m["oracle.dp_opt.reachable_ratio"] = ratio(
        get("oracle.dp_opt", "reachable_states"), m["oracle.dp_opt.states"])
    for key in ("calls", "self_s"):
        m[f"oracle.dual_lower_bound.{key}"] = get("oracle.dual_lower_bound", key)
        m[f"oracle.delta_flow.{key}"] = get("oracle.delta_flow", key)
    m["oracle.delta_flow.replay_slots"] = get("oracle.delta_flow", "child_slots")

    for key in ("calls", "self_s"):
        m[f"oracle.convex_batch_solve.{key}"] = get("oracle.convex_batch_solve", key)
        m[f"policies.horizon_search.{key}"] = get("policies.horizon_search", key)
    m["policies.horizon_search.solves"] = get("policies.horizon_search", "solves")
    m["policies.horizon_search.useful_ratio"] = ratio(
        get("policies.horizon_search", "useful"), m["policies.horizon_search.solves"])

    for key in ("calls", "self_s", "events"):
        m[f"stochastic.simulate_ctmc.{key}"] = get("stochastic.simulate_ctmc", key)
    m["stochastic.simulate_ctmc.events_per_s"] = ratio(
        m["stochastic.simulate_ctmc.events"], m["stochastic.simulate_ctmc.self_s"])
    for key in ("calls", "self_s", "cycles"):
        m[f"stochastic.simulate_alg3.{key}"] = get("stochastic.simulate_alg3", key)
    for key in ("calls", "self_s"):
        m[f"stochastic.analytic_cost.{key}"] = get("stochastic.analytic_cost", key)
    for key in ("calls", "self_s"):
        m[f"cli.main.{key}"] = get("cli.main", key)

    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(get(n, "errors") for n in totals
                                   if n.split(".", 1)[0] == layer)
    return m


def format_report(values: dict[str, float]) -> str:
    """The per-layer table: value, unit, and what it should move where."""
    lines = [f"{'metric':44} {'value':>14} {'unit':6}  should move -> on"]
    for names, moves, workload in LAYER_MAP:
        for name in names:
            tag = " (computed)" if name in COMPUTED else ""
            lines.append(f"{name:44} {values[name]:14.6g} {metric_unit(name):6}"
                         f"  {moves} -> {workload}{tag}")
    return "\n".join(lines)
