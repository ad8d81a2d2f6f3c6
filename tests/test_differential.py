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

The accounting, instance-building and rule-target fast forms are checked
the same way, against the code they replaced: ``cost_reference`` (a
min(n) pass and a list of steps), ``from_counts_reference`` (one check per
count), ``PRE_HOIST_TARGETS`` (each rule's constant recomputed per call,
ceiled by ``max``) and ``id_reference`` (the hash of the counts and sizes
taken from the built records).

Two facts fixed when an object is built are checked against a fresh
working-out: the bounds fact 0 <= s <= n that the engine and ``dp_opt``
record on their traces, against a scan of the same columns (every other
trace scans and costs as ``cost_reference`` does), and each rule's
constant, set at construction, against ``DIVISOR_REFERENCE``.
"""

import copy
import dataclasses
import hashlib
import math
import operator
import pickle
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowswitch import (ArrivalInstance, CostModel, ScheduleTrace, ShapedRule,
                        SwitchingKind, TraceValidationError, cost_of_trace,
                        validate_trace)
from flowswitch import cli, core, engine, oracle, policies
from flowswitch.core import CostBreakdown
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


# ---------------------------------------------------------------------------
# accounting, instance building and rule targets


def cost_reference(trace, model: CostModel) -> CostBreakdown:
    """cost_of_trace with a min(n) pass beside the 0 <= s <= n check and the
    steps s(t) - s(t-1) built as a list."""
    n, s = trace.n, trace.s
    if n and (min(n) < 0 or min(s) < 0 or any(map(operator.gt, s, n))):
        for rec in trace.slots:  # report the first broken slot
            if rec.n < 0:
                raise TraceValidationError("negative_occupancy", slot=rec.t)
            if rec.s < 0 or rec.s > rec.n:
                raise TraceValidationError(
                    "s_le_n", slot=rec.t,
                    message=f"s={rec.s} exceeds n={rec.n}")
    flow = sum(n)
    servers = sum(s)
    steps = list(map(operator.sub, s + (0,), (0,) + s))
    if model.switching is SwitchingKind.LINEAR:
        switching = float(sum(map(abs, steps)))
    else:
        switching = float(sum(map(operator.mul, steps, steps)))
    energy = model.theta * servers
    total = flow + model.alpha * switching + energy
    return CostBreakdown(flow, switching, energy, total, model.alpha, model.switching)


def from_counts_reference(counts) -> tuple[int, ...]:
    """The slot counts from_counts keeps, checking one count at a time."""
    if len(counts) > core.MAX_SLOT:
        raise ValueError(f"counts must hold at most {core.MAX_SLOT} slots, "
                         f"got {len(counts)}")
    values = []
    for count in counts:
        if int(count) != count or count < 0:
            raise ValueError(
                f"arrival count must be a nonnegative integer, got {count!r}")
        values.append(int(count))
    jobs = sum(values)
    if jobs > core.MAX_SLOT:
        raise ValueError(f"job count must be at most {core.MAX_SLOT}, got {jobs}")
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


def outcome(call, *args):
    """call(*args), or the type, message, violation and slot of what it raised."""
    try:
        return call(*args)
    except (ValueError, TypeError, OverflowError) as exc:
        return (type(exc), str(exc), getattr(exc, "violation", None),
                getattr(exc, "slot", None))


COST_MODELS = (CostModel.linear(2.0), CostModel.parse("quad:alpha=0.5,theta=0.25"),
               CostModel.quadratic(3.0))


def assert_cost_matches_reference(trace, where=None):
    for model in COST_MODELS:
        assert outcome(cost_of_trace, trace, model) == \
            outcome(cost_reference, trace, model), (where, model)


def test_cost_matches_reference_on_rule_traces(corpus):
    sized = _sized(random_slotted(3.0, 60, 5))
    instances = corpus[::20] + [random_slotted(5.0, 400, 2), sized]
    for inst in instances:
        for policy in all_policies(2.0):
            for record_served in (True, False) if inst.all_unit else (True,):
                trace = engine.simulate(inst, policy, record_served=record_served)
                assert_cost_matches_reference(trace, (inst.name, policy.name))
                read = ScheduleTrace.from_csv(trace.to_csv())  # bulk or row reader
                assert_cost_matches_reference(read, (inst.name, policy.name, "csv"))


def test_cost_matches_reference_beyond_int64():
    big = 2 ** 70
    for n, s in (((big + 5, big + 2, 7), (big, big - 3, 7)),
                 ((2 ** 64, 2 ** 63), (2 ** 63, 1)),
                 ((2 ** 600, 2 ** 600), (2 ** 599, 2 ** 600))):  # squares pass float
        assert_cost_matches_reference(ScheduleTrace(n, s), n)


BROKEN_SLOTS = (  # (n, s) of the broken slot
    (-1, 0), (-1, -1), (-2, 1), (3, -1), (3, 4), (0, 1))


@pytest.mark.parametrize("where", [0, 3, 6])
@pytest.mark.parametrize("slot", BROKEN_SLOTS)
def test_cost_matches_reference_on_broken_traces(where, slot):
    n, s = [3, 4, 5, 2, 6, 1, 1], [1, 2, 3, 1, 2, 1, 1]
    n[where], s[where] = slot
    assert_cost_matches_reference(ScheduleTrace(n, s), (where, slot))
    if where < 6:  # a second break after it: the first one is named
        n[6], s[6] = -1, 2
        assert_cost_matches_reference(ScheduleTrace(n, s), (where, slot, "twice"))


BAD_COUNTS = (True, False, 2.0, 1.5, -1, -0.0, math.nan, math.inf, -math.inf,
              "3", "x", None, np.int64(4), np.uint8(7), np.float64(2.0),
              np.float64(0.5), np.float64(math.nan), 2 ** 70)


@pytest.mark.parametrize("where", [0, 2, 4])
@pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
def test_from_counts_matches_reference(where, value):
    counts = [3, 0, 2, 5, 0]
    counts[where] = value
    for form in (list, tuple):
        got = outcome(lambda c: ArrivalInstance.from_counts(c, name="c").slot_counts,
                      form(counts))
        assert got == outcome(from_counts_reference, form(counts)), (form, counts)


@pytest.mark.parametrize("counts", [
    [], range(0), range(6), range(5, -1, -1), [-1, 2, math.nan], [math.nan, 2, -1],
    ["3", 1.5], [1, 2 ** 64], np.arange(5), np.array([2.0, 0.0, 1.0]),
    np.array([2.0, 1.5]), np.array([1.0, math.nan]), np.array([3, -2]),
    np.zeros(4, np.int64), [np.int32(3), 2.0, True]], ids=repr)
def test_from_counts_matches_reference_on_sequences(counts):
    got = outcome(lambda c: ArrivalInstance.from_counts(c).slot_counts, counts)
    assert got == outcome(from_counts_reference, counts)


def id_reference(instance) -> str:
    """The id of an unnamed instance, from its built (slot, size) records:
    the hash of its counts and its sizes (None for unit jobs, the one size
    when every job shares it)."""
    slots = [slot for slot, _ in instance.arrivals]
    sizes = tuple(size for _, size in instance.arrivals)
    counts = tuple(map(slots.count, range(1, max(slots, default=0) + 1)))
    shown = None if set(sizes) <= {1} else sizes[0] if len(set(sizes)) == 1 else sizes
    return "custom-" + hashlib.sha256(repr((counts, shown)).encode()).hexdigest()[:8]


def test_instance_id_matches_reference(corpus):
    run = 4096  # shapes around a 4096-record boundary
    mixed = tuple((1, 1 + i % 3) for i in range(2 * run + 5))
    instances = [ArrivalInstance(()), ArrivalInstance.from_counts(()),
                 ArrivalInstance(((1, 1),)), ArrivalInstance(((4, 7),)),
                 ArrivalInstance.from_counts((0, 3, 0, 0, 2)), ArrivalInstance(mixed),
                 ArrivalInstance(mixed + ((1, 3),) * run + ((2, 5),)),
                 ArrivalInstance(((3, 2),) * run + ((3, 1),))]
    for jobs in (1, 2, run - 1, run, run + 1, 2 * run + 1):
        for size in (1, 2):
            instances.append(ArrivalInstance.from_counts((jobs,), size=size))
            instances.append(ArrivalInstance.from_counts((0, jobs, 0, 1), size=size))
    rng = random.Random(5)
    for inst in corpus:
        unnamed = ArrivalInstance.from_counts(inst.slot_counts)
        sized = ArrivalInstance(tuple((slot, rng.randint(1, 3))
                                      for slot, _ in inst.arrivals))
        instances += [unnamed, sized, unnamed.prefix(1), sized.prefix(1)]
    ids = {}
    for inst in instances:
        assert not inst.name
        got = inst.instance_id
        shown = repr(inst)
        text = inst.to_text()
        assert "arrivals" not in vars(inst)
        assert shown == (f"ArrivalInstance(slot_counts={inst.slot_counts!r}, "
                         f"sizes={inst.sizes!r}, name='')")
        assert text.startswith(f"# instance {got}: ")
        assert got == id_reference(inst), inst.slot_counts[:4]
        ids.setdefault(got, set()).add(inst)
    assert len(instances) == 832
    assert all(len(same) == 1 for same in ids.values())  # distinct ids


def _ceil_reference(x: float) -> int:
    return max(0, math.ceil(x - 1e-9))


PRE_HOIST_TARGETS = {
    FullParallel: lambda rule, n: n,
    BalanceValue: lambda rule, n: _ceil_reference(n / rule.alpha),
    BalanceDelta: lambda rule, n: _ceil_reference(n / rule.alpha),
    SqrtOnline: lambda rule, n: max(1, _ceil_reference(n / math.sqrt(rule.alpha))),
    Lg: lambda rule, n: _ceil_reference(n / rule.alpha ** 0.25),
    GammaPolicy: lambda rule, n: _ceil_reference(n / rule.alpha ** rule.gamma),
    QuadAlg: lambda rule, n: _ceil_reference(
        rule.beta * math.sqrt(n / max(rule.alpha, 1.0))),
    QuadBalance: lambda rule, n: _ceil_reference(math.sqrt(n / rule.alpha)),
}
TARGET_NS = list(range(1, 5001)) + [2 ** k for k in range(13, 54)]
_FLOOR = policies._MIN_DIVISOR
ALPHAS = (math.ulp(0.0), math.nextafter(_FLOOR, 0.0), _FLOOR, 1e-300, 1e-3, 0.5,
          1.0, 2.0, math.pi, 1e3, 1e300, sys.float_info.max)
BAD = (0.0, -1.0, math.inf, math.nan)
# gamma 2.5 takes alpha**gamma past the largest float from alpha ~ 1e123 on
GAMMAS = (0.0, 0.25, 0.5, 1.0, 2.5)
BETAS = (1.0, math.sqrt(3.0), 2.177, 1e6, policies._MAX_FACTOR)


def _former_checks_reject(cls, alpha, gamma=None, beta=1.0) -> bool:
    """The construction checks from before each rule had one checked
    constant: alpha positive and finite, then n/alpha finite for the rules
    that divided by alpha itself and alpha**gamma in [_MIN_DIVISOR, inf)
    for a_gamma, two checks of their own, and quad_alg's beta."""
    if not (alpha > 0 and math.isfinite(alpha)):
        return True
    if cls in (BalanceValue, BalanceDelta, QuadBalance) and alpha < _FLOOR:
        return True
    if cls is GammaPolicy:
        if not 0 <= gamma < math.inf:
            return True
        try:
            divisor = alpha ** gamma
        except OverflowError:
            divisor = math.inf
        return not _FLOOR <= divisor < math.inf
    return cls is QuadAlg and not 1 <= beta <= policies._MAX_FACTOR


def _grid(cls):
    """Constructor arguments for ``cls``: ALPHAS and BAD alphas, with the
    gammas and betas above and some bad ones; for a_gamma also the alphas
    on either side of each gamma's smallest accepted alpha."""
    if cls is FullParallel:
        return [{}]
    extras = {GammaPolicy: [{"gamma": g} for g in GAMMAS + (-0.1,) + BAD[2:]],
              QuadAlg: [{"beta": b} for b in BETAS + (
                  0.5, math.nextafter(policies._MAX_FACTOR, math.inf)) + BAD[2:]]}
    grid = []
    for extra in extras.get(cls, [{}]):
        alphas = list(ALPHAS + BAD)
        if extra.get("gamma", 0) > 0:  # a finite positive gamma
            edge = _FLOOR ** (1 / extra["gamma"])
            alphas += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
        grid += [{"alpha": alpha, **extra} for alpha in alphas]
    return grid


def _rules(cls):
    """Every rule of ``_grid(cls)`` that construction accepts."""
    rules = []
    for kwargs in _grid(cls):
        try:
            rules.append(cls(**kwargs))
        except ValueError:
            pass  # rejected at construction, before any target
    return rules


@pytest.mark.parametrize("cls", list(policies.POLICY_REGISTRY.values()),
                         ids=lambda c: c.key)
def test_construction_rejects_what_the_former_checks_rejected(cls):
    for kwargs in _grid(cls):
        try:
            cls(**kwargs)
            raised = False
        except ValueError:
            raised = True
        want = cls is not FullParallel and _former_checks_reject(cls, **kwargs)
        assert raised == want, kwargs


def test_one_check_raises_for_a_constant_out_of_range():
    with pytest.raises(OverflowError):
        1e300 ** 2.5
    for rule, kwargs in ((GammaPolicy, {"alpha": 1e300, "gamma": 2.5}),
                         (GammaPolicy, {"alpha": 1e-300, "gamma": 1.0}),
                         (BalanceValue, {"alpha": math.nextafter(_FLOOR, 0.0)}),
                         (QuadBalance, {"alpha": 1e-300})):
        with pytest.raises(ValueError, match=r"^\w+\(.*\) is out of range: its "
                                             r"constant \S+ must be finite"):
            rule(**kwargs)


@pytest.mark.parametrize("cls", list(PRE_HOIST_TARGETS), ids=lambda c: c.key)
def test_targets_match_pre_hoist_expressions(cls):
    assert set(PRE_HOIST_TARGETS) == set(policies.POLICY_REGISTRY.values())
    reference = PRE_HOIST_TARGETS[cls]
    rules = _rules(cls)
    if cls in (BalanceValue, BalanceDelta, QuadBalance):  # the smallest accepted alpha
        assert min(rule.alpha for rule in rules) == _FLOOR
    elif cls in (SqrtOnline, Lg, QuadAlg):
        assert min(rule.alpha for rule in rules) == math.ulp(0.0)
    if cls is not FullParallel:
        assert max(rule.alpha for rule in rules) == sys.float_info.max
    for rule in rules:
        assert [rule.target(n) for n in TARGET_NS] == \
            [reference(rule, n) for n in TARGET_NS], rule


@pytest.mark.parametrize("x", [
    -1e300, -1.0, -0.0, 0.0, 1e-10, 1e-9, 2e-9, 0.5, 2.0 ** 53, 1e308,
    *(k + d for k in (1, 2, 7, 1000, 2 ** 40) for d in (-1e-9, 0.0, 1e-9)),
    *(math.nextafter(k + 1e-9, math.inf) for k in (1, 7))])
def test_ceil_is_the_max_form(x):
    assert engine._ceil(x) == _ceil_reference(x)
    assert type(engine._ceil(x)) is int


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_ceil_refuses_what_the_max_form_refuses(x):
    assert outcome(engine._ceil, x) == outcome(_ceil_reference, x)
    assert outcome(engine._ceil, x)[0] is (ValueError if math.isnan(x) else OverflowError)


@pytest.mark.parametrize("rule", [BalanceValue(alpha=4.0), QuadBalance(alpha=4.0),
                                  SqrtOnline(alpha=4.0), Lg(alpha=16.0),
                                  GammaPolicy(alpha=16.0, gamma=0.5),
                                  QuadAlg(alpha=9.0, beta=2.0)], ids=lambda r: r.key)
def test_hoisted_constant_follows_copies(rule):
    reference = PRE_HOIST_TARGETS[type(rule)]
    ns = range(1, 400)

    def assert_targets(r):
        assert [r.target(n) for n in ns] == [reference(r, n) for n in ns], r

    early = pickle.loads(pickle.dumps(rule))  # before any target is read
    assert_targets(rule)
    other = dataclasses.replace(rule, alpha=rule.alpha * 25)
    assert_targets(other)
    assert other._divisor != rule._divisor  # a new alpha, a new divisor
    for twin in (copy.copy(rule), copy.deepcopy(rule), pickle.loads(pickle.dumps(rule)),
                 early, pickle.loads(pickle.dumps(other))):
        assert_targets(twin)
        assert twin == (other if twin.alpha != rule.alpha else rule)
        assert repr(twin) == repr(other if twin.alpha != rule.alpha else rule)


# The bounds fact a trace records, 0 <= s(t) <= n(t) in every slot. The
# engine and dp_opt record it as they build; the constructor, from_csv and
# dataclasses.replace leave it to a scan on first use.

FACT = "_s_within_n"


def bounds_scan(n, s) -> bool:
    """0 <= s(t) <= n(t), slot by slot."""
    return all(0 <= st <= nt for nt, st in zip(n, s))


def assert_records_the_fact(trace, where=None):
    assert FACT in vars(trace), where
    fresh = ScheduleTrace(trace.n, trace.s)
    assert FACT not in vars(fresh), where
    assert trace._s_within_n == fresh._s_within_n == bounds_scan(trace.n, trace.s), where


def assert_builders_record_the_fact(instance, alpha, dp=True):
    """Every trace simulate (unit, bulk and SRPT) and dp_opt return."""
    sized = _sized(instance)
    for policy in all_policies(alpha):
        for record_served in (True, False):
            trace = engine.simulate(instance, policy, record_served=record_served)
            assert_records_the_fact(trace, (instance.name, policy.name, record_served))
        for trace in (per_job(instance, policy), engine.simulate(sized, policy)):
            assert trace.served is not None
            assert_records_the_fact(trace, (instance.name, policy.name, "srpt"))
    if dp:
        for model in (CostModel.linear(alpha), CostModel.quadratic(alpha)):
            _, trace = oracle.dp_opt(instance, model)
            assert_records_the_fact(trace, (instance.name, model.label))


def test_builders_record_the_fact_on_the_corpus(corpus):
    for i, inst in enumerate(corpus):
        assert_builders_record_the_fact(inst, (0.5, 1.0, 2.0, 4.0)[i % 4])


@pytest.mark.parametrize("figure", cli.FIGURE_IDS)
def test_builders_record_the_fact_on_figure_cells(figure):
    model, rates, _ = cli.figure_setup(figure)
    for rate in rates:
        inst = random_slotted(rate, 60, 1)
        for _, policy in cli.figure_policies(figure, model.alpha):
            for record_served in (True, False):
                trace = engine.simulate(inst, policy, record_served=record_served)
                assert_records_the_fact(trace, (figure, rate, policy.name))
        assert_builders_record_the_fact(inst, model.alpha, dp=rate <= 5)


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.integers(0, 7), min_size=1, max_size=12).filter(any),
       alpha=st.sampled_from([0.5, 1.0, 2.0, 3.0, 16.0]))
def test_builders_record_the_fact_on_generated(counts, alpha):
    assert_builders_record_the_fact(ArrivalInstance.from_counts(counts), alpha)


def test_a_run_without_jobs_scans():
    trace = engine.simulate(ArrivalInstance(()), FullParallel())
    assert FACT not in vars(trace)
    assert trace._s_within_n


def _unvouched_traces():
    """Traces no builder vouched for, each with s > n or s < 0 somewhere,
    and in-range twins of them."""
    ran = engine.simulate(random_slotted(5.0, 60, 1), BalanceDelta(alpha=2.0))
    assert ran._s_within_n and ran.served is None
    last = len(ran.s) - 1
    over = ran.s[:last] + (ran.n[last] + 1,)
    out = [dataclasses.replace(ran, s=over),
           dataclasses.replace(ran, s=ran.s[:3] + (-1,) + ran.s[4:]),
           dataclasses.replace(ran, complete_records=False),
           ScheduleTrace((3, 4, 2), (1, 5, 2)), ScheduleTrace((3, 4, 2), (1, 2, 2)),
           ScheduleTrace.from_csv(ran.to_csv()),
           ScheduleTrace.from_csv("t,n,s,served_ids\n1,2,1,0\n2,1,3,1;2;3\n"),
           ScheduleTrace.from_csv("t,n,s,served_ids\n1,2,2,0;1\n2,1,-1,\n")]
    sized = engine.simulate(_sized(random_slotted(3.0, 60, 5)), QuadAlg(alpha=2.0))
    out += [ScheduleTrace.from_csv(sized.to_csv()),
            dataclasses.replace(sized, s=sized.s[:-1] + (sized.n[-1] + 2,))]
    return out


def test_other_traces_scan_for_the_fact():
    traces = _unvouched_traces()
    assert sorted(bounds_scan(t.n, t.s) for t in traces) == [False] * 6 + [True] * 4
    for i, trace in enumerate(traces):
        assert FACT not in vars(trace), i
        assert_cost_matches_reference(trace, i)
        assert trace._s_within_n == bounds_scan(trace.n, trace.s), i


@pytest.mark.parametrize("twin", [copy.copy, copy.deepcopy,
                                  lambda t: pickle.loads(pickle.dumps(t))],
                         ids=["copy", "deepcopy", "pickle"])
def test_fact_follows_copies(twin):
    inst = random_slotted(5.0, 60, 1)
    ran = [engine.simulate(inst, BalanceDelta(alpha=2.0), record_served=False),
           engine.simulate(_sized(inst), QuadAlg(alpha=2.0)),
           oracle.dp_opt(inst, CostModel.quadratic(2.0))[1]]
    scanned = _unvouched_traces()
    for trace in scanned[::2]:
        trace._s_within_n  # worked out before the copy; the rest after it
    for i, trace in enumerate(ran + scanned):
        copied = twin(trace)
        assert (FACT in vars(copied)) == (FACT in vars(trace)), i
        assert copied == trace and repr(copied) == repr(trace), i
        assert copied._s_within_n == bounds_scan(copied.n, copied.s), i
        assert_cost_matches_reference(copied, i)


def test_fact_leaves_equality_and_repr_alone():
    for trace in _unvouched_traces()[:3] + [
            engine.simulate(random_slotted(5.0, 60, 2), QuadAlg(alpha=2.0))]:
        plain = ScheduleTrace(trace.n, trace.s, trace.complete_records, trace.served)
        before = repr(trace)
        trace._s_within_n
        assert trace == plain and repr(trace) == repr(plain) == before
        assert [f.name for f in dataclasses.fields(trace)] == \
            ["n", "s", "complete_records", "served"]


# Each rule's constant is a plain attribute set at construction, from
# the rule's own fields, also for a rule made by dataclasses.replace.

DIVISOR_REFERENCE = {
    BalanceValue: lambda rule: rule.alpha,
    BalanceDelta: lambda rule: rule.alpha,
    QuadBalance: lambda rule: rule.alpha,
    SqrtOnline: lambda rule: math.sqrt(rule.alpha),
    Lg: lambda rule: rule.alpha ** 0.25,
    GammaPolicy: lambda rule: rule.alpha ** rule.gamma,
    QuadAlg: lambda rule: max(rule.alpha, 1.0),
}


@pytest.mark.parametrize("cls", list(DIVISOR_REFERENCE), ids=lambda c: c.key)
def test_constant_is_an_attribute_set_from_the_fields(cls):
    assert set(DIVISOR_REFERENCE) | {FullParallel} == set(policies.POLICY_REGISTRY.values())
    for rule in _rules(cls):
        assert vars(rule)["_divisor"] == DIVISOR_REFERENCE[cls](rule), rule
    changes = [{"alpha": 16.0}, {"alpha": 0.25}]
    changes += {GammaPolicy: [{"gamma": 0.5}, {"gamma": 2.0}],
                QuadAlg: [{"beta": 3.0}]}.get(cls, [])
    start = cls(alpha=4.0, **({"gamma": 0.25} if cls is GammaPolicy else {}))
    for change in changes:
        other = dataclasses.replace(start, **change)
        assert vars(other)["_divisor"] == DIVISOR_REFERENCE[cls](other), change
        assert [other.target(n) for n in range(1, 300)] == \
            [PRE_HOIST_TARGETS[cls](other, n) for n in range(1, 300)], change
    assert "_divisor" not in vars(FullParallel())
