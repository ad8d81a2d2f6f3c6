"""Deterministic slot simulator: the policy picks s(t), the engine serves.

Each slot: arrivals join, the policy's shape turns its target(n(t)) and
s(t-1) into a request, and the engine clamps it to [0, n(t)] (one
unit-speed server per job). The s(t) jobs with the shortest remaining
work run for one unit, and jobs hitting zero depart at slot end.
Preemption and migration are free.

One loop runs every instance. Unit jobs need no per-job state:
shortest-remaining-work order is first-in first-out by job id, so n(t) =
n(t-1) - s(t-1) + a(t) and the trace's served sets and departures follow
from the cumulative s. General sizes keep one list of outstanding jobs
sorted by (remaining, id), and only arrivals and departures differ; the
same list run on unit sizes is the reference the tests compare the count
path against. Its trace has the columnar form that CSV input uses: the n
and s columns plus one flat list of served ids, s(t) of them per slot,
with no SlotRecord or frozenset built per slot. Every policy is a
``ShapedRule``: its target(n) is evaluated once per distinct n, rounded up
if fractional, and its shape applied inline.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from typing import ClassVar

from .core import ArrivalInstance, ScheduleTrace, ServedColumns

_CEIL_EPS = 1e-9


def _ceil(x: float) -> int:
    """Round up, forgiving float noise of up to 1e-9; never below 0."""
    c = math.ceil(x - _CEIL_EPS)
    return c if c > 0 else 0


class PolicyFaultError(ValueError):
    """Policy returned something that is not a finite number."""


class PolicyStallError(ValueError):
    """Policy requested zero servers with work outstanding for K_stall slots."""


class ShapedRule:
    """The engine's one policy interface: a printed ``name`` and one of
    three shapes applied to an integer target(n).

    - ``"cap"``:  s = min(target(n), n)
    - ``"add"``:  s = min(s_prev + target(n), n)
    - ``"lazy"``: s = min(max(s_prev, target(n)), n)

    Any other shape value is read as ``"cap"``. Every shape gives 0 when
    n = 0. ``target`` must be a pure function of n: the engine evaluates
    it once per distinct n in a run, ceils a non-int target or raises
    PolicyFaultError, and applies the shape itself.
    """

    shape: ClassVar[str] = "cap"

    def target(self, n: int) -> int:
        raise NotImplementedError


def _server_request(policy: ShapedRule, request, t: int) -> int:
    """A non-int target as a server count; fractional values round up."""
    if isinstance(request, bool):
        raise PolicyFaultError(f"{policy.name} returned {request!r} at slot {t}")
    try:
        value = float(request)  # accepts numpy scalars too
    except (TypeError, ValueError):
        raise PolicyFaultError(
            f"{policy.name} returned {request!r} at slot {t}") from None
    if not math.isfinite(value):
        raise PolicyFaultError(f"{policy.name} returned {request!r} at slot {t}")
    return _ceil(value)


def simulate(instance: ArrivalInstance, policy: ShapedRule, *,
             record_served: bool = True) -> ScheduleTrace:
    """Run the policy over the whole instance and return its trace.

    ``record_served=False`` (unit jobs only) marks the trace as a bulk run:
    it costs normally but cannot be validated.

    Unit instances run as counts served first-in first-out; general sizes
    keep a list of outstanding jobs sorted by (remaining, id). A policy
    that is not a ``ShapedRule`` raises ValueError. Targets that are not
    finite numbers raise PolicyFaultError; fractional ones round up.
    PolicyStallError is raised if the policy requests 0 with work
    outstanding for K_stall = total work + last arrival slot consecutive
    slots.
    """
    if not isinstance(policy, ShapedRule):
        raise ValueError(f"policy must be a ShapedRule, got {type(policy).__name__}")
    if not instance.job_count:
        return ScheduleTrace((), ())
    if not (record_served or instance.all_unit):
        raise ValueError("record_served=False supports unit-size jobs only")
    return _simulate(instance, policy, record_served, instance.sizes)


def _simulate(instance: ArrivalInstance, policy: ShapedRule,
              record_served: bool, sizes: Sequence[int] | None) -> ScheduleTrace:
    """The slot loop: n(t) = n(t-1) - departures(t-1) + a(t).

    Each pass crosses one slot boundary: the jobs slot t served leave or
    rank again, slot t+1's jobs arrive, and the policy picks s(t+1):
    target(n), memoised per distinct n (n = 0 serves 0 without asking),
    then the shape. ``sizes=None`` serves unit jobs first-in first-out, so
    n and s are the whole state. Otherwise the outstanding jobs sit in
    ``rem`` (remaining work) and ``ids`` sorted by (remaining, id), which
    is shortest remaining first with ties in arrival order, since ids run
    in arrival order. A slot serves the first s; a served job,
    decremented, still ranks ahead of every unserved one.
    Served ids go to one flat list, s(t) of them per slot.
    """
    counts = instance.slot_counts
    last_arrival = len(counts)
    k_stall = instance.total_work + last_arrival
    target, memo = policy.target, {0: 0}
    add, lazy = policy.shape == "add", policy.shape == "lazy"
    rem: list[int] = []
    ids: list[int] = []
    ns: list[int] = []
    ss: list[int] = []
    served_ids: list[int] = []
    n = s = zero_streak = t = arrived = 0
    while True:
        if sizes is None:
            n -= s
        else:
            if s:
                served_ids += ids[:s]
                done = bisect_right(rem, 1, 0, s)  # these depart
                if done:
                    del rem[:done], ids[:done]
                    n -= done
                for i in range(s - done):
                    rem[i] -= 1
            if t < last_arrival:  # a new job ranks after every equal one: its id is larger
                for j in range(arrived, arrived + counts[t]):
                    i = bisect_right(rem, sizes[j])
                    rem.insert(i, sizes[j])
                    ids.insert(i, j)
                arrived += counts[t]
        if t < last_arrival:
            n += counts[t]
        t += 1
        if not n and t > last_arrival:
            break
        request = memo.get(n)
        if request is None:
            request = target(n)
            if type(request) is not int:
                request = _server_request(policy, request, t)
            memo[n] = request
        if add:  # s is still s(t-1)
            request += s
        elif lazy and s > request:
            request = s
        if request > 0:
            zero_streak = 0
            s = request if request < n else n
        else:
            s = 0
            if n:
                zero_streak += 1
                if zero_streak >= k_stall:
                    raise PolicyStallError(f"{policy.name} idled {zero_streak} "
                                           "slots with work outstanding")
            else:
                zero_streak = 0
        ns.append(n)
        ss.append(s)
    served = None if sizes is None else ServedColumns(served_ids, ss)
    return ScheduleTrace(ns, ss, record_served, served)
