"""Shared fixtures: the seeded random-instance corpus used across suites."""

from __future__ import annotations

import math
import random
from operator import itemgetter

import pytest

from flowswitch import ArrivalInstance, PolicyFaultError, ScheduleTrace, ShapedRule
from flowswitch.stochastic import _stationary

CORPUS_SEED = 20260808
CORPUS_ALPHAS = (0.5, 1.0, 2.0, 4.0)


def build_corpus(count: int = 200, seed: int = CORPUS_SEED) -> list[ArrivalInstance]:
    """Seeded unit-job instances with at most 10 jobs over at most 10 slots."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n_jobs = rng.randint(1, 10)
        horizon = rng.randint(1, 10)
        slots = sorted(rng.randint(1, horizon) for _ in range(n_jobs))
        out.append(ArrivalInstance(tuple((s, 1) for s in slots),
                                   name=f"corpus-{seed}-{i}"))
    return out


def shaped_request(rule: ShapedRule, n: int, s_prev: int) -> int:
    """The per-slot reference for the engine's memoised kernel: the server
    count ``rule`` asks for with n jobs outstanding after s_prev servers.

    target(n) is evaluated fresh on every call. A non-int target is ceiled
    (float noise of up to 1e-9 is forgiven), or raises PolicyFaultError
    when it is a bool or not a finite number; then the shape applies, and
    the request is clamped to [0, n]. n = 0 gives 0 without asking.
    """
    if n == 0:
        return 0
    f = rule.target(n)
    if type(f) is not int:
        try:
            value = float(f)
        except (TypeError, ValueError):
            value = math.nan
        if isinstance(f, bool) or not math.isfinite(value):
            raise PolicyFaultError(f"{rule.name} returned {f!r}")
        f = math.ceil(value - 1e-9)
    if rule.shape == "add":
        f += s_prev
    elif rule.shape == "lazy":
        f = max(f, s_prev)
    return max(0, min(f, n))


def srpt_select(outstanding, k: int) -> frozenset[int]:
    """The sort-based SRPT reference: of the (id, arrival, remaining)
    records, the min(k, len) to serve, by (remaining, arrival, id).

    Equal remaining work is broken by arrival slot, then by job id, so
    same-size jobs run in arrival order.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0 or not outstanding:
        return frozenset()
    ranked = sorted(outstanding, key=itemgetter(2, 1, 0))
    return frozenset(rec[0] for rec in ranked[: min(k, len(ranked))])


def replay_reference(instance: ArrivalInstance, counts) -> ScheduleTrace:
    """Per-slot server counts replayed first-in first-out on unit jobs.

    Slot t serves counts[t-1] (0 past the end) of the n jobs outstanding
    after its arrivals; a count above n, or jobs left when the counts and
    arrivals run out, raise ValueError. The replay works out n and where
    the trace ends, so a trace built from its own columns (``dp_opt``'s)
    can be checked against it.
    """
    assert instance.all_unit
    arrivals, ns, ss, n = instance.slot_counts, [], [], 0
    for t in range(1, max(len(counts), len(arrivals)) + 1):
        if t <= len(arrivals):
            n += arrivals[t - 1]
        elif not n:
            break
        want = int(counts[t - 1]) if t <= len(counts) else 0
        if want > n:
            raise ValueError(f"replay count {want} exceeds n={n} at slot {t}")
        ns.append(n)
        ss.append(want)
        n -= want
    if n:
        raise ValueError(f"replay leaves {n} jobs outstanding")
    return ScheduleTrace(ns, ss)


def departures(trace: ScheduleTrace) -> dict[int, int]:
    """Each served id's departure: the last slot of the trace that serves it."""
    last = {}
    for rec in trace.slots:
        for j in rec.served:
            last[j] = rec.t
    return last


def stationary_distribution(lam: float, policy):
    """The birth-death stationary law of a Markov policy at arrival rate
    lam, the pi that ``stochastic._stationary`` returns with its rates."""
    return _stationary(lam, policy)[0]


@pytest.fixture(scope="session")
def corpus() -> list[ArrivalInstance]:
    return build_corpus()


@pytest.fixture(scope="session")
def small_corpus() -> list[ArrivalInstance]:
    return build_corpus(count=40, seed=CORPUS_SEED + 1)


# The spec grammar that cost models, policies and instances share
# (core.parse_spec). Each family's parse tests fill these templates with
# one of its kinds, one parameter key and a value: {kind} and {key} are
# lower case, {KIND} and {KEY} upper case.
SPEC_FORMS = ("{kind}:{key}={value}", "{kind}({key}={value})",
              "{KIND}:{KEY}={value}", "{KIND}({Key}={value})",
              "  {Kind} : {key} = {value}  ", " {kind} ( {KEY} = {value} ) ")
EMPTY_SPEC_FORMS = ("{kind}", "{kind}:", "{kind}()", " {KIND} ( ) ")
# (malformed spec, text its error must contain besides the family name)
MALFORMED_SPECS = (
    ("{kind}:{key}={value},", "parameter ''"),  # trailing comma
    ("{kind}:{key}", "parameter '{key}'"),  # no '='
    ("{kind}:{key}=", "parameter '{key}'"),  # empty value
    ("{kind}:{key}=two", "parameter '{key}'"),  # not a number
    ("{kind}({key}={value}", "parentheses"),
    ("{kind}:{key}={value})", "parentheses"),
    ("{kind}(({key}={value}))", "parentheses"),
    ("{kind}({key}={value})x", "parentheses"),
)


def spec_text(template: str, kind: str, key: str, value: str = "") -> str:
    return template.format(kind=kind, KIND=kind.upper(), Kind=kind.title(),
                           key=key, KEY=key.upper(), Key=key.title(), value=value)
