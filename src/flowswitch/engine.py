"""Deterministic slot simulator: the policy picks s(t), the engine serves.

Each slot: arrivals join, the policy sees the causal state (t, n(t),
s(t-1)) and requests a server count, and the engine rounds a fractional
request up and clamps it to [0, n(t)] (one unit-speed server per job). The
s(t) jobs with the shortest remaining work run for one unit, and jobs
hitting zero depart at slot end. Preemption and migration are free.

Unit jobs never need per-job state: shortest-remaining-work order is
first-in first-out by job id, so the engine runs the count recurrence
n(t) = n(t-1) - s(t-1) + a(t) and returns a columnar trace whose served
sets and departures follow from the cumulative s. A ``ShapedRule`` that
keeps the shared ``decide`` is not called per slot there: its target(n) is
evaluated once per distinct n and its shape applied inline. General sizes
run a per-job multi-server SRPT loop over a heap keyed by (remaining,
arrival, id), which is also the reference the tests compare the count path
against. It records its trace in the same columnar form that CSV input
uses: the n and s columns plus one flat list of served ids, s(t) of them
per slot, with no SlotRecord or frozenset built per slot.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from heapq import heappop, heappush
from operator import itemgetter
from typing import ClassVar, Protocol, runtime_checkable

from .core import ArrivalInstance, CostModel, ScheduleTrace, ServedColumns

_CEIL_EPS = 1e-9


def _ceil(x: float) -> int:
    """Round up, forgiving float noise of up to 1e-9; never below 0."""
    return max(0, math.ceil(x - _CEIL_EPS))


class PolicyFaultError(Exception):
    """Policy returned something that is not a finite number."""


class PolicyStallError(Exception):
    """Policy requested zero servers with work outstanding for K_stall slots."""


class ObservableState:
    """What an online policy may look at when choosing s(t).

    ``t`` is the slot (from 1), ``n`` the jobs outstanding after this
    slot's arrivals, and ``s_prev`` the server count of slot t-1 (0 at
    t = 1).
    """

    __slots__ = ("t", "n", "s_prev")

    def __init__(self, t: int, n: int, s_prev: int):
        self.t = t
        self.n = n
        self.s_prev = s_prev

    def __repr__(self) -> str:
        return f"ObservableState(t={self.t}, n={self.n}, s_prev={self.s_prev})"


@runtime_checkable
class PolicyDecision(Protocol):
    """An online policy: a printed ``name`` and ``decide(state)``.

    ``decide`` maps the state (t, n, s_prev) to a server count. The engine
    ceils a fractional count, clamps it to [0, n], and raises
    PolicyFaultError on anything that is not a finite number.
    """

    name: str

    def decide(self, state: ObservableState) -> int: ...


class ShapedRule:
    """A rule that is one of three shapes applied to an integer target(n).

    - ``"cap"``:  s = min(target(n), n)
    - ``"add"``:  s = min(s_prev + target(n), n)
    - ``"lazy"``: s = min(max(s_prev, target(n)), n)

    Any other shape value is read as ``"cap"``. Every shape gives 0 when
    n = 0. ``target`` must be a pure function of n; a non-int target is
    ceiled, or raises PolicyFaultError, before the shape applies. Unless a
    subclass overrides ``decide``, the count engine evaluates target once
    per distinct n in a run and applies the shape itself.
    """

    shape: ClassVar[str] = "cap"

    def target(self, n: int) -> int:
        raise NotImplementedError

    def decide(self, state: ObservableState) -> int:
        n = state.n
        if n == 0:
            return 0
        f = self.target(n)
        if type(f) is not int:
            f = _server_request(self, f, state.t)
        if self.shape == "add":
            f += state.s_prev
        elif self.shape == "lazy" and state.s_prev > f:
            f = state.s_prev
        return min(f, n)


def srpt_select(outstanding: Sequence[tuple[int, int, int]], k: int) -> frozenset[int]:
    """Pick the min(k, len) jobs to serve, by (remaining, arrival, id).

    Equal remaining work is broken by arrival slot, then by job id, so
    same-size jobs run in arrival order.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0 or not outstanding:
        return frozenset()
    ranked = sorted(outstanding, key=itemgetter(2, 1, 0))
    return frozenset(rec[0] for rec in ranked[: min(k, len(ranked))])


def _check_policy_alpha(policy: PolicyDecision, model: CostModel | None):
    alpha = getattr(policy, "alpha", None)
    if model is not None and alpha is not None and alpha != model.alpha:
        raise ValueError(
            f"policy alpha {alpha} disagrees with cost model alpha {model.alpha}")


def _server_request(policy: PolicyDecision, request, t: int) -> int:
    """A non-int request as a server count; fractional values round up."""
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


def _stalled(policy: PolicyDecision, zero_streak: int) -> PolicyStallError:
    return PolicyStallError(
        f"{policy.name} idled {zero_streak} slots with work outstanding")


def simulate(instance: ArrivalInstance, policy: PolicyDecision,
             model: CostModel | None = None, *,
             record_served: bool = True) -> ScheduleTrace:
    """Run the policy over the whole instance and return its trace.

    ``model`` only cross-checks that a policy's alpha parameter matches the
    cost model it will be scored under; the dynamics never depend on it.
    ``record_served=False`` (unit jobs only) marks the trace as a bulk run:
    it costs normally but cannot be validated.

    Unit instances run the count recurrence; general sizes run the per-job
    SRPT loop. Requests that are not finite numbers raise PolicyFaultError;
    fractional ones round up. PolicyStallError is raised if the policy
    requests 0 with work outstanding for K_stall = total work + last
    arrival slot consecutive slots.
    """
    _check_policy_alpha(policy, model)
    if not instance.job_count:
        return ScheduleTrace((), (), policy.name, instance.instance_id)
    if instance.all_unit:
        return _simulate_counts(instance, policy, record_served)
    if not record_served:
        raise ValueError("record_served=False supports unit-size jobs only")
    return _simulate_jobs(instance, policy, record_served)


def _simulate_counts(instance: ArrivalInstance, policy: PolicyDecision,
                     record_served: bool) -> ScheduleTrace:
    """Unit jobs: n(t) = n(t-1) - s(t-1) + a(t), served first-in first-out."""
    counts = instance.slot_counts
    last_arrival = len(counts)
    k_stall = instance.total_work + last_arrival
    kernel = isinstance(policy, ShapedRule) and \
        type(policy).decide is ShapedRule.decide
    if kernel:
        target = policy.target
        add, lazy = policy.shape == "add", policy.shape == "lazy"
        memo = {0: 0}  # target(n) per distinct n; n = 0 always serves 0
    else:
        decide = policy.decide
    ns: list[int] = []
    ss: list[int] = []
    n = s_prev = zero_streak = t = 0
    while True:
        if t < last_arrival:
            n += counts[t]
        t += 1
        if not n and t > last_arrival:
            break
        if kernel:
            request = memo.get(n)
            if request is None:
                request = target(n)
                if type(request) is not int:
                    request = _server_request(policy, request, t)
                memo[n] = request
            if add:
                request += s_prev
            elif lazy and s_prev > request:
                request = s_prev
        else:
            request = decide(ObservableState(t, n, s_prev))
            if type(request) is not int:
                request = _server_request(policy, request, t)
        if request > 0:
            zero_streak = 0
            s = request if request < n else n
        else:
            s = 0
            if n:
                zero_streak += 1
                if zero_streak >= k_stall:
                    raise _stalled(policy, zero_streak)
            else:
                zero_streak = 0
        ns.append(n)
        ss.append(s)
        n -= s
        s_prev = s
    return ScheduleTrace(ns, ss, policy.name, instance.instance_id,
                         complete_records=record_served)


def _srpt_pop(heap: list[tuple[int, int, int]], k: int) -> list[tuple[int, int, int]]:
    """Pop the k jobs srpt_select would serve, from a (remaining, arrival, id) heap."""
    return [heappop(heap) for _ in range(k)]


def _simulate_jobs(instance: ArrivalInstance, policy: PolicyDecision,
                   record_served: bool) -> ScheduleTrace:
    """Per-job multi-server SRPT: the engine for general sizes.

    Served ids go to one flat list, s(t) of them per slot; each job
    departs at the last slot that serves it.
    """
    counts = instance.slot_counts
    sizes = instance.sizes or (1,) * instance.job_count
    last_arrival = instance.last_slot
    k_stall = instance.total_work + last_arrival
    heap: list[tuple[int, int, int]] = []  # (remaining, arrival, job_id)
    ns: list[int] = []
    ss: list[int] = []
    served_ids: list[int] = []
    s_prev = zero_streak = t = arrived = 0
    while True:
        t += 1
        if t <= last_arrival:  # ids run in arrival order
            for j in range(arrived, arrived + counts[t - 1]):
                heappush(heap, (sizes[j], t, j))
            arrived += counts[t - 1]
        n = len(heap)  # occupancy during slot t, after arrivals, before departures
        if n == 0 and t > last_arrival:
            break

        request = policy.decide(ObservableState(t, n, s_prev))
        if type(request) is not int:
            request = _server_request(policy, request, t)
        if request <= 0 and n > 0:
            zero_streak += 1
            if zero_streak >= k_stall:
                raise _stalled(policy, zero_streak)
        else:
            zero_streak = 0

        s = min(max(request, 0), n)
        for remaining, arrival, j in _srpt_pop(heap, s):
            served_ids.append(j)
            if remaining > 1:
                heappush(heap, (remaining - 1, arrival, j))
        ns.append(n)
        ss.append(s)
        s_prev = s

    return ScheduleTrace(ns, ss, policy.name, instance.instance_id,
                         record_served, ServedColumns(served_ids, ss))


class _CountReplay:
    """A per-slot server-count column replayed as a policy."""

    __slots__ = ("name", "counts")

    def __init__(self, name: str, counts: tuple[int, ...]):
        self.name = name
        self.counts = counts

    def decide(self, state: ObservableState) -> int:
        t = state.t
        want = self.counts[t - 1] if t <= len(self.counts) else 0
        if want > state.n:
            raise ValueError(f"replay count {want} exceeds n={state.n} at slot {t}")
        return want


def trace_from_server_counts(instance: ArrivalInstance,
                             counts: Sequence[int],
                             policy_name: str = "fixed") -> ScheduleTrace:
    """Materialize a trace from a per-slot server-count sequence.

    Service order is SRPT, matching the engine. counts[i] is the requested
    s at slot i+1 and must never exceed the outstanding count there.
    """
    return simulate(instance, _CountReplay(policy_name, tuple(int(c) for c in counts)))
