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
ceiled by ``max``) and ``id_reference`` (the hash of the built records'
repr).
"""

import copy
import dataclasses
import hashlib
import math
import operator
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowswitch import (ArrivalInstance, CostModel, ScheduleTrace, ShapedRule,
                        SwitchingKind, TraceValidationError, cost_of_trace,
                        validate_trace)
from flowswitch import cli, core, engine, policies
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


COST_MODELS = (CostModel.linear(2.0), CostModel.quadratic(0.5, theta=0.25),
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
    """The id of an unnamed instance, from the repr of its built records."""
    return "custom-" + hashlib.sha256(repr(instance.arrivals).encode()).hexdigest()[:8]


def test_instance_id_matches_reference(corpus):
    run = core._REPR_RUN
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
    for inst in instances:
        assert not inst.name
        got = inst.instance_id
        assert "arrivals" not in vars(inst)
        assert got == id_reference(inst), inst.slot_counts[:4]


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
ALPHAS = (math.ulp(0.0), policies._MIN_DIVISOR, 1e-300, 1e-3, 0.5, 1.0, 2.0,
          math.pi, 1e3, 1e300)


def _rules(cls):
    """Every accepted rule of ``cls`` over ALPHAS and a few gammas and betas;
    for a_gamma also the smallest alpha each gamma accepts."""
    if cls is FullParallel:
        return [FullParallel()]
    grids = {GammaPolicy: [{"gamma": g} for g in (0.0, 0.25, 0.5, 1.0, 2.5)],
             QuadAlg: [{"beta": b} for b in (1.0, math.sqrt(3.0), 2.177, 1e6,
                                             policies._MAX_FACTOR)]}
    rules = []
    for extra in grids.get(cls, [{}]):
        alphas = list(ALPHAS)
        if extra.get("gamma"):
            edge = policies._MIN_DIVISOR ** (1 / extra["gamma"])
            alphas += [edge, math.nextafter(edge, math.inf)]
        for alpha in alphas:
            try:
                rules.append(cls(alpha=alpha, **extra))
            except ValueError:
                pass  # rejected at construction, before any target
    return rules


@pytest.mark.parametrize("cls", list(PRE_HOIST_TARGETS), ids=lambda c: c.key)
def test_targets_match_pre_hoist_expressions(cls):
    reference = PRE_HOIST_TARGETS[cls]
    rules = _rules(cls)
    if cls in (BalanceValue, BalanceDelta, QuadBalance):  # the smallest accepted alpha
        assert min(rule.alpha for rule in rules) == policies._MIN_DIVISOR
    elif cls in (SqrtOnline, Lg, QuadAlg):
        assert min(rule.alpha for rule in rules) == math.ulp(0.0)
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


@pytest.mark.parametrize("rule", [SqrtOnline(alpha=4.0), Lg(alpha=16.0),
                                  GammaPolicy(alpha=16.0, gamma=0.5),
                                  QuadAlg(alpha=9.0, beta=2.0)], ids=lambda r: r.key)
def test_hoisted_constant_follows_copies(rule):
    reference = PRE_HOIST_TARGETS[type(rule)]
    ns = range(1, 400)

    def assert_targets(r):
        assert [r.target(n) for n in ns] == [reference(r, n) for n in ns], r

    unread = pickle.loads(pickle.dumps(rule))  # before the constant is computed
    assert_targets(rule)
    other = dataclasses.replace(rule, alpha=rule.alpha * 25)
    assert_targets(other)
    assert other._divisor != rule._divisor  # a new alpha, a new divisor
    for twin in (copy.copy(rule), copy.deepcopy(rule), pickle.loads(pickle.dumps(rule)),
                 unread, pickle.loads(pickle.dumps(other))):
        assert_targets(twin)
        assert twin == (other if twin.alpha != rule.alpha else rule)
        assert repr(twin) == repr(other if twin.alpha != rule.alpha else rule)
