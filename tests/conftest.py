"""Shared fixtures: the seeded random-instance corpus used across suites."""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter

import pytest

from flowswitch import ArrivalInstance, ObservableState, ScheduleTrace, simulate
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


@dataclass(frozen=True)
class _Replay:
    """A per-slot server-count column played back as a policy."""

    name: str
    schedule: tuple[int, ...]

    def decide(self, state: ObservableState) -> int:
        idx = state.t - 1
        want = self.schedule[idx] if idx < len(self.schedule) else 0
        if want > state.n:
            raise ValueError(
                f"replay count {want} exceeds n={state.n} at slot {state.t}")
        return want


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
    """The per-slot server counts replayed through ``simulate`` as a policy.

    Slot t requests counts[t-1] (0 past the end); a count above the
    outstanding n raises ValueError. The engine works out n, the served
    sets and where the trace ends, so a trace built from its own columns
    (``dp_opt``'s) can be checked against it.
    """
    return simulate(instance, _Replay("fixed", tuple(int(c) for c in counts)))


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
