"""Deterministic slot simulator: the policy picks s(t), the engine serves.

Each slot: arrivals join, the policy sees the causal state and requests a
server count, and the engine rounds a fractional request up and clamps it
to [0, n(t)] (one unit-speed server per job). The s(t) jobs with the
shortest remaining work run for one unit, and jobs hitting zero depart at
slot end. Preemption and migration are free.

Unit jobs never need per-job state: shortest-remaining-work order is
first-in first-out by job id, so the engine runs the count recurrence
n(t) = n(t-1) - s(t-1) + a(t) and returns a columnar trace whose served
sets and departures follow from the cumulative s. General sizes run a
per-job multi-server SRPT loop, which is also the reference the tests
compare the count path against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Protocol, runtime_checkable

from .core import ArrivalInstance, CostModel, ScheduleTrace, SlotRecord

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

    ``outstanding`` holds (job_id, arrival_slot, remaining) for every job in
    the system, in (arrival, id) order. It is materialized lazily and only
    valid while decide() runs; None in bulk-simulation mode. ``history`` is
    a read-only live view of past (t, n, s) triples. Policies must treat
    both as immutable and must not retain them.
    """

    __slots__ = ("t", "n", "s_prev", "history", "_provider", "_outstanding")

    def __init__(self, t: int, n: int, s_prev: int,
                 provider: Callable[[], tuple] | None = None,
                 history: Sequence[tuple[int, int, int]] | None = None):
        self.t = t
        self.n = n
        self.s_prev = s_prev
        self.history = history
        self._provider = provider
        self._outstanding: tuple | None = None

    @property
    def outstanding(self) -> tuple[tuple[int, int, int], ...] | None:
        if self._outstanding is None and self._provider is not None:
            self._outstanding = self._provider()
        return self._outstanding

    def __repr__(self) -> str:
        return f"ObservableState(t={self.t}, n={self.n}, s_prev={self.s_prev})"


@runtime_checkable
class PolicyDecision(Protocol):
    name: str

    def decide(self, state: ObservableState) -> int: ...


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
    it costs normally but cannot be validated, and policies see no
    ``outstanding`` snapshot.

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


def _fifo_outstanding(instance: ArrivalInstance, served: int,
                      n: int) -> tuple[tuple[int, int, int], ...]:
    arrivals = instance.arrivals
    return tuple((j, arrivals[j][0], 1) for j in range(served, served + n))


def _simulate_counts(instance: ArrivalInstance, policy: PolicyDecision,
                     record_served: bool) -> ScheduleTrace:
    """Unit jobs: n(t) = n(t-1) - s(t-1) + a(t), served first-in first-out."""
    counts = instance.slot_counts
    last_arrival = len(counts)
    k_stall = instance.total_work + last_arrival
    decide = policy.decide
    ns: list[int] = []
    ss: list[int] = []
    history: list[tuple[int, int, int]] = []
    provider = None
    n = s_prev = served = zero_streak = t = 0
    while True:
        if t < last_arrival:
            n += counts[t]
        t += 1
        if not n and t > last_arrival:
            break
        if record_served:
            provider = partial(_fifo_outstanding, instance, served, n)
        request = decide(ObservableState(t, n, s_prev, provider, history))
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
        history.append((t, n, s))
        n -= s
        served += s
        s_prev = s
    return ScheduleTrace(ns, ss, policy.name, instance.instance_id,
                         complete_records=record_served)


def _simulate_jobs(instance: ArrivalInstance, policy: PolicyDecision,
                   record_served: bool) -> ScheduleTrace:
    """Per-job multi-server SRPT: the engine for general sizes."""
    jobs = instance.arrivals
    jobs_by_slot = instance.jobs_by_slot()
    last_arrival = instance.last_slot
    k_stall = instance.total_work + last_arrival
    general: list[list[int]] = []  # [job_id, arrival, remaining]

    def _snapshot() -> tuple[tuple[int, int, int], ...]:
        return tuple(sorted(((j, a, r) for j, a, r in general),
                            key=lambda rec: (rec[1], rec[0])))

    provider = _snapshot if record_served else None
    slots: list[SlotRecord] = []
    history: list[tuple[int, int, int]] = []
    departures: dict[int, int] = {}
    s_prev = 0
    zero_streak = 0
    t = 0
    n = 0
    while True:
        t += 1
        for j in jobs_by_slot.get(t, ()):
            general.append([j, jobs[j][0], jobs[j][1]])
            n += 1
        if n == 0 and t > last_arrival:
            break
        n_slot = n  # occupancy during slot t, after arrivals, before departures

        request = policy.decide(ObservableState(t, n_slot, s_prev, provider, history))
        if type(request) is not int:
            request = _server_request(policy, request, t)
        if request <= 0 and n_slot > 0:
            zero_streak += 1
            if zero_streak >= k_stall:
                raise _stalled(policy, zero_streak)
        else:
            zero_streak = 0

        s = min(max(request, 0), n_slot)
        served = srpt_select(general, s)
        for rec in general:
            if rec[0] in served:
                rec[2] -= 1
                if rec[2] == 0:
                    departures[rec[0]] = t
                    n -= 1
        general = [rec for rec in general if rec[2]]

        slots.append(SlotRecord(t, n_slot, s, served))
        history.append((t, n_slot, s))
        s_prev = s

    return ScheduleTrace.from_slots(slots, departures, policy.name,
                                    instance.instance_id,
                                    complete_records=record_served)


def trace_from_server_counts(instance: ArrivalInstance,
                             counts: Sequence[int],
                             policy_name: str = "fixed") -> ScheduleTrace:
    """Materialize a trace from a per-slot server-count sequence.

    Service order is SRPT, matching the engine. counts[i] is the requested
    s at slot i+1 and must never exceed the outstanding count there.
    """

    @dataclass(frozen=True)
    class _Replay:
        schedule: tuple[int, ...]
        name: str = policy_name

        def decide(self, state: ObservableState) -> int:
            idx = state.t - 1
            want = self.schedule[idx] if idx < len(self.schedule) else 0
            if want > state.n:
                raise ValueError(
                    f"replay count {want} exceeds n={state.n} at slot {state.t}")
            return want

    return simulate(instance, _Replay(tuple(int(c) for c in counts)))
