"""Domain types for arrival instances, schedule traces, and cost accounting.

Time is slotted, starting at slot 1, with s(0) = 0. Arrivals happen at the
start of a slot and departures at its end, so a job arriving and served in
slot t still contributes one slot of flow time. The final ramp-down to zero
servers after the last busy slot is always charged.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from bisect import bisect_left, bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, repeat


class SwitchingKind(str, Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"


class TraceValidationError(Exception):
    """A cost/oracle operation received a trace that breaks an invariant."""

    def __init__(self, violation: str, slot: int | None = None,
                 job_id: int | None = None, message: str = ""):
        self.violation = violation
        self.slot = slot
        self.job_id = job_id
        detail = message or violation
        where = f" at slot {slot}" if slot is not None else ""
        who = f" (job {job_id})" if job_id is not None else ""
        super().__init__(f"{detail}{where}{who}")


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validate_trace; failures are values, not exceptions."""

    ok: bool
    violation: str | None = None
    slot: int | None = None
    job_id: int | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


_VALID = ValidationResult(True)


class ArrivalInstance:
    """A job arrival schedule: (slot, size) records kept sorted by slot.

    Invariants:
        - every slot >= 1 and every size >= 1
        - records are sorted by slot; ties keep construction order
        - job id j is the index of the j-th record in that order

    Unit-job instances can also be built from per-slot arrival counts
    (``from_counts``). Such an instance keeps only the counts and builds
    the ``arrivals`` tuple on first read. The aggregates are computed once
    and cached. However it was built, an instance equals any other with
    the same records, horizon hint and name. Instances are immutable.
    """

    def __init__(self, arrivals: tuple[tuple[int, int], ...],
                 horizon_hint: int | None = None, name: str = ""):
        records = []
        for slot, size in arrivals:
            if int(slot) != slot or slot < 1:
                raise ValueError(f"arrival slot must be a positive integer, got {slot!r}")
            if int(size) != size or size < 1:
                raise ValueError(f"job size must be a positive integer, got {size!r}")
            records.append((int(slot), int(size)))
        records.sort(key=lambda r: r[0])  # stable: same-slot order preserved
        self._set(horizon_hint, name, False, arrivals=tuple(records))

    @classmethod
    def from_counts(cls, counts, horizon_hint: int | None = None,
                    name: str = "") -> "ArrivalInstance":
        """Unit jobs, ``counts[i]`` of them arriving at slot i+1."""
        values = []
        for count in counts:
            if int(count) != count or count < 0:
                raise ValueError(
                    f"arrival count must be a nonnegative integer, got {count!r}")
            values.append(int(count))
        while values and values[-1] == 0:
            values.pop()
        return cls._of_counts(tuple(values), horizon_hint, name)

    @classmethod
    def _of_counts(cls, counts: tuple[int, ...], horizon_hint: int | None,
                   name: str) -> "ArrivalInstance":
        """Checked counts with no trailing zero slot."""
        inst = cls.__new__(cls)
        inst._set(horizon_hint, name, True, slot_counts=counts)
        return inst

    def _set(self, horizon_hint, name, from_counts: bool, **data):
        fields = self.__dict__
        fields.update(data, horizon_hint=horizon_hint, name=name,
                      _from_counts=from_counts)
        if horizon_hint is not None and horizon_hint < self.last_slot:
            raise ValueError("horizon_hint smaller than the last arrival slot")

    def __setattr__(self, key, value):
        raise AttributeError(f"ArrivalInstance is immutable: cannot set {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"ArrivalInstance is immutable: cannot delete {key!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.horizon_hint, self.name) != (other.horizon_hint, other.name):
            return False
        if self._from_counts and other._from_counts:
            return self.slot_counts == other.slot_counts
        return self.arrivals == other.arrivals

    def __hash__(self):
        return hash((self.arrivals, self.horizon_hint, self.name))

    def __repr__(self):
        return (f"ArrivalInstance(arrivals={self.arrivals!r}, "
                f"horizon_hint={self.horizon_hint!r}, name={self.name!r})")

    @cached_property
    def arrivals(self) -> tuple[tuple[int, int], ...]:
        # built from counts: jobs of one slot share one record tuple
        return tuple(chain.from_iterable(
            repeat((t, 1), c) for t, c in enumerate(self.slot_counts, start=1)))

    @cached_property
    def slot_counts(self) -> tuple[int, ...]:
        """Jobs (not work) arriving at each slot 1..last_slot."""
        counts = [0] * self.last_slot
        for s, _ in self.arrivals:
            counts[s - 1] += 1
        return tuple(counts)

    @cached_property
    def job_count(self) -> int:
        return sum(self.slot_counts) if self._from_counts else len(self.arrivals)

    @cached_property
    def total_work(self) -> int:
        if self._from_counts:
            return self.job_count
        return sum(w for _, w in self.arrivals)

    @cached_property
    def last_slot(self) -> int:
        if self._from_counts:
            return len(self.slot_counts)
        return self.arrivals[-1][0] if self.arrivals else 0

    @cached_property
    def all_unit(self) -> bool:
        return self._from_counts or all(w == 1 for _, w in self.arrivals)

    @cached_property
    def sizes_equal(self) -> bool:
        return self._from_counts or len({w for _, w in self.arrivals}) <= 1

    @cached_property
    def max_slot_arrivals(self) -> int:
        """Largest per-slot arrival count (jobs, not work)."""
        if self._from_counts:
            return max(self.slot_counts, default=0)
        counts: dict[int, int] = {}
        for s, _ in self.arrivals:
            counts[s] = counts.get(s, 0) + 1
        return max(counts.values(), default=0)

    @cached_property
    def instance_id(self) -> str:
        if self.name:
            return self.name
        digest = hashlib.sha256(repr(self.arrivals).encode()).hexdigest()[:8]
        return f"custom-{digest}"

    def prefix(self, k: int, name: str = "") -> "ArrivalInstance":
        """The jobs with ids below k, as a new instance without a horizon hint."""
        if not 0 <= k <= self.job_count:
            raise ValueError(f"prefix length {k} out of range")
        if not self.all_unit:
            return ArrivalInstance(self.arrivals[:k], name=name)
        if not k:
            return self._of_counts((), None, name)
        through = self._arrived_through
        last = bisect_left(through, k)  # slot index of job k-1
        before = through[last - 1] if last else 0
        return self._of_counts(self.slot_counts[:last] + (k - before,), None, name)

    @cached_property
    def _arrived_through(self) -> tuple[int, ...]:
        return tuple(accumulate(self.slot_counts))

    def work_at(self, slot: int) -> int:
        return sum(w for s, w in self.arrivals if s == slot)

    def work_by_slot(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for s, w in self.arrivals:
            out[s] = out.get(s, 0) + w
        return out

    def jobs_by_slot(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for j, (s, _) in enumerate(self.arrivals):
            out.setdefault(s, []).append(j)
        return out

    def to_text(self) -> str:
        lines = [f"# instance {self.instance_id}: {self.job_count} jobs"]
        lines += [f"{s} {w}" for s, w in self.arrivals]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, name: str = "") -> "ArrivalInstance":
        records = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 't w', got {raw!r}")
            records.append((int(parts[0]), int(parts[1])))
        return cls(tuple(records), name=name)

    @classmethod
    def from_file(cls, path, name: str = "") -> "ArrivalInstance":
        with open(path) as fh:
            return cls.from_text(fh.read(), name=name or str(path))


def parse_spec(text: str, what: str) -> tuple[str, dict[str, float]]:
    """Split a 'kind', 'kind:key=val,...' or 'kind(key=val,...)' spec.

    The one grammar of cost models, policies and instances: kind and keys
    are stripped and lower-cased, values are floats and a repeated key keeps
    its last value. A malformed item raises ValueError naming ``what``.
    """
    kind, paren, rest = text.partition("(")
    if paren:
        rest, close, tail = rest.partition(")")
        balanced = close and not tail.strip() and "(" not in rest
    else:
        kind, _, rest = text.partition(":")
        balanced = ")" not in text
    if not balanced:
        raise ValueError(f"unbalanced parentheses in {what} spec {text!r}")
    params: dict[str, float] = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip().lower()
            if not (eq and key):
                raise ValueError(f"malformed {what} parameter {item!r}")
            try:
                params[key] = float(value)
            except ValueError:
                raise ValueError(f"{what} parameter {key!r} must be a number, "
                                 f"got {value.strip()!r}") from None
    return kind.strip().lower(), params


@dataclass(frozen=True)
class CostModel:
    """Switching-cost family plus the tradeoff weight alpha.

    theta is an optional energy weight charged as theta * sum(s(t)); it is
    pure accounting and never enters competitive-ratio comparisons.
    """

    switching: SwitchingKind
    alpha: float
    theta: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.theta >= 0):
            raise ValueError(f"theta must be nonnegative, got {self.theta}")
        object.__setattr__(self, "switching", SwitchingKind(self.switching))

    def transition_cost(self, s_prev: float, s_new: float) -> float:
        """Unweighted switching cost c(s_new, s_prev)."""
        delta = s_new - s_prev
        if self.switching is SwitchingKind.LINEAR:
            return abs(delta)
        return delta * delta

    @classmethod
    def linear(cls, alpha: float, theta: float = 0.0) -> "CostModel":
        return cls(SwitchingKind.LINEAR, alpha, theta)

    @classmethod
    def quadratic(cls, alpha: float, theta: float = 0.0) -> "CostModel":
        return cls(SwitchingKind.QUADRATIC, alpha, theta)

    @classmethod
    def parse(cls, spec: str) -> "CostModel":
        """Parse 'linear:alpha=1' / 'quad(alpha=2,theta=0.5)' (see parse_spec)."""
        kind, params = parse_spec(spec, "cost-model")
        kinds = {"linear": SwitchingKind.LINEAR, "quad": SwitchingKind.QUADRATIC,
                 "quadratic": SwitchingKind.QUADRATIC}
        if kind not in kinds:
            raise ValueError(f"unknown switching kind {kind!r}")
        for key in params:
            if key not in ("alpha", "theta"):
                raise ValueError(f"unknown cost-model parameter {key!r}")
        return cls(kinds[kind], **{"alpha": 1.0, **params})

    @property
    def label(self) -> str:
        base = f"{self.switching.value}:alpha={self.alpha:g}"
        return base if self.theta == 0 else base + f",theta={self.theta:g}"


@dataclass(frozen=True)
class SlotRecord:
    """One slot of a schedule: occupancy n, active servers s, served job ids."""

    t: int
    n: int
    s: int
    served: frozenset[int] = frozenset()


class _FifoSlots(Sequence):
    """The slots of a FIFO trace as SlotRecords, built on access.

    Slot t serves job ids [S(t-1), S(t)), where S is the running sum of s.
    """

    __slots__ = ("_n", "_s", "_first")

    def __init__(self, n, s, first):
        self._n, self._s, self._first = n, s, first

    def __len__(self):
        return len(self._s)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(len(self._s))[index])
        i = range(len(self._s))[index]
        first, s = self._first[i], self._s[i]
        return SlotRecord(i + 1, self._n[i], s, frozenset(range(first, first + s)))

    def __iter__(self):
        first = self._first
        for t, (n, s) in enumerate(zip(self._n, self._s), start=1):
            yield SlotRecord(t, n, s, frozenset(range(first[t - 1], first[t])))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


class _FifoDepartures(Mapping):
    """Departure slot per job id of a FIFO trace, found by bisection."""

    __slots__ = ("_served_through", "_total")

    def __init__(self, served_through):
        self._served_through = served_through
        self._total = served_through[-1] if served_through else 0

    def __len__(self):
        return self._total

    def __iter__(self):
        return iter(range(self._total))

    def __getitem__(self, job):
        if isinstance(job, int) and 0 <= job < self._total:
            return bisect_right(self._served_through, job) + 1
        raise KeyError(job)


@dataclass(frozen=True, eq=False)
class ScheduleTrace:
    """A complete schedule as per-slot columns: occupancy n and servers s.

    ``n[i]`` and ``s[i]`` belong to slot i+1. Slots run contiguously from
    t=1, and idle slots (n=0, s=0) are recorded. Unit-job traces keep only
    these columns: jobs run first-in first-out by id, so slot t serves ids
    [S(t-1), S(t)) with S the running sum of s, and ``slots`` and
    ``departures`` are derived from that replay on access. Traces built
    with ``from_slots`` (general sizes, CSV input, hand-made records) keep
    their records and departures as given instead.

    ``complete_records`` is False for bulk simulation runs; such traces
    cost fine but cannot be validated.
    """

    n: tuple[int, ...]
    s: tuple[int, ...]
    policy_name: str = ""
    instance_id: str = ""
    complete_records: bool = True
    recorded_slots: tuple[SlotRecord, ...] | None = field(default=None, repr=False)
    recorded_departures: Mapping[int, int] | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(self.n))
        object.__setattr__(self, "s", tuple(self.s))
        if len(self.n) != len(self.s):
            raise ValueError("n and s columns differ in length")

    @classmethod
    def from_slots(cls, slots, departures: Mapping[int, int], policy_name: str = "",
                   instance_id: str = "",
                   complete_records: bool = True) -> "ScheduleTrace":
        """A trace whose per-slot served sets and departures are given."""
        slots = tuple(slots)
        return cls(tuple(rec.n for rec in slots), tuple(rec.s for rec in slots),
                   policy_name, instance_id, complete_records, slots, departures)

    @cached_property
    def _served_before(self) -> tuple[int, ...]:
        """S(t-1) per slot, then S(T): jobs served before each slot."""
        return tuple(accumulate(self.s, initial=0))

    @cached_property
    def slots(self) -> Sequence[SlotRecord]:
        if self.recorded_slots is not None:
            return self.recorded_slots
        return _FifoSlots(self.n, self.s, self._served_before)

    @cached_property
    def departures(self) -> Mapping[int, int]:
        if self.recorded_slots is not None:
            return self.recorded_departures
        return _FifoDepartures(self._served_before[1:])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.n, self.s, self.policy_name, self.instance_id,
                self.complete_records) != (other.n, other.s, other.policy_name,
                                           other.instance_id, other.complete_records):
            return False
        if self.recorded_slots is None and other.recorded_slots is None:
            return True
        return self.slots == other.slots and \
            dict(self.departures) == dict(other.departures)

    __hash__ = None

    @property
    def last_slot(self) -> int:
        if self.recorded_slots is not None:
            return self.recorded_slots[-1].t if self.recorded_slots else 0
        return len(self.s)

    def server_counts(self) -> tuple[int, ...]:
        return self.s

    def occupancies(self) -> tuple[int, ...]:
        return self.n

    def to_csv(self) -> str:
        lines = ["t,n,s,served_ids"]
        if self.recorded_slots is None:  # ids straight from the cumulative s
            first = self._served_before
            for t, (n, s) in enumerate(zip(self.n, self.s), start=1):
                ids = ";".join(map(str, range(first[t - 1], first[t])))
                lines.append(f"{t},{n},{s},{ids}")
        else:
            for rec in self.recorded_slots:
                ids = ";".join(str(j) for j in sorted(rec.served))
                lines.append(f"{rec.t},{rec.n},{rec.s},{ids}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, policy_name: str = "",
                 instance_id: str = "") -> "ScheduleTrace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].split(",")[:3] != ["t", "n", "s"]:
            raise ValueError("trace CSV must start with header 't,n,s,served_ids'")
        slots = []
        last_served: dict[int, int] = {}
        for ln in lines[1:]:
            t_s, n_s, s_s, ids = (ln.split(",", 3) + [""])[:4]
            served = frozenset(int(x) for x in ids.split(";") if x != "")
            rec = SlotRecord(int(t_s), int(n_s), int(s_s), served)
            for j in served:
                last_served[j] = rec.t
            slots.append(rec)
        return cls.from_slots(slots, last_served, policy_name, instance_id)


@dataclass(frozen=True)
class CostBreakdown:
    """Flow time, switching, and energy parts of the slotted objective.

    switching_cost is the unweighted sum of c(s(t), s(t-1)); total applies
    alpha. energy_cost already includes theta.
    """

    flow_time: int
    switching_cost: float
    energy_cost: float
    total: float
    alpha: float
    switching_kind: SwitchingKind

    @classmethod
    def zero(cls, model: CostModel) -> "CostBreakdown":
        return cls(0, 0.0, 0.0, 0.0, model.alpha, model.switching)

    def to_json_dict(self) -> dict:
        return {
            "flow_time": self.flow_time,
            "switching_cost": self.switching_cost,
            "energy_cost": self.energy_cost,
            "total": self.total,
            "alpha": self.alpha,
            "switching_kind": self.switching_kind.value,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def cost_of_trace(trace: ScheduleTrace, model: CostModel) -> CostBreakdown:
    """Evaluate flow + alpha * switching + energy over a trace.

    All transitions are charged, including 0 -> s(1) and the final drop back
    to zero. Raises TraceValidationError on internally inconsistent slots;
    full validation against an instance is validate_trace's job.
    """
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
    # every step from s(0) = 0 through the final drop back to 0
    steps = list(map(operator.sub, s + (0,), (0,) + s))
    if model.switching is SwitchingKind.LINEAR:
        switching = float(sum(map(abs, steps)))
    else:
        switching = float(sum(map(operator.mul, steps, steps)))
    energy = model.theta * servers
    total = flow + model.alpha * switching + energy
    return CostBreakdown(flow, switching, energy, total, model.alpha, model.switching)


def validate_trace(instance: ArrivalInstance, trace: ScheduleTrace) -> ValidationResult:
    """Check every trace invariant against the instance.

    Returns the first violation found, scanning slots in order. Per slot the
    checks run in this order: work neutrality (realized service never ahead
    of arrived work, no service before arrival), s <= n, served-count = s,
    no service beyond a job's size. Global checks follow: every job finishes
    exactly, recorded departures match, and the n(t) column is consistent.
    """
    if not trace.complete_records:
        return ValidationResult(False, "incomplete_records",
                                message="trace was recorded without per-job service sets")
    jobs = instance.arrivals
    job_ids = range(len(jobs))
    work_by_slot = instance.work_by_slot()

    served_units = {j: 0 for j in job_ids}
    last_service: dict[int, int] = {}
    cum_work = 0
    cum_served = 0
    arrived = 0
    completed_before = 0  # jobs fully served by slot t-1
    next_job = 0

    expected_t = 1
    for rec in trace.slots:
        if rec.t != expected_t:
            return ValidationResult(False, "slot_indexing", slot=rec.t,
                                    message=f"expected slot {expected_t}, got {rec.t}")
        expected_t += 1
        t = rec.t
        while next_job < len(jobs) and jobs[next_job][0] <= t:
            arrived += 1
            next_job += 1
        cum_work += work_by_slot.get(t, 0)

        for j in rec.served:
            if j not in served_units:
                return ValidationResult(False, "unknown_job", slot=t, job_id=j,
                                        message=f"served id {j} is not an instance job")
        cum_served += len(rec.served)
        if cum_served > cum_work or any(jobs[j][0] > t for j in rec.served):
            return ValidationResult(False, "work_neutrality", slot=t,
                                    message="cumulative service exceeds arrived work")

        n_true = arrived - completed_before
        if rec.n != n_true:
            return ValidationResult(False, "occupancy_mismatch", slot=t,
                                    message=f"recorded n={rec.n}, actual {n_true}")
        if rec.s > rec.n or rec.s < 0:
            return ValidationResult(False, "s_le_n", slot=t,
                                    message=f"s={rec.s} with n={rec.n}")
        if len(rec.served) != rec.s:
            return ValidationResult(False, "served_count", slot=t,
                                    message=f"{len(rec.served)} jobs served with s={rec.s}")

        for j in rec.served:
            served_units[j] += 1
            if served_units[j] > jobs[j][1]:
                return ValidationResult(False, "overservice", slot=t, job_id=j,
                                        message="service beyond job size")
            last_service[j] = t
            if served_units[j] == jobs[j][1]:
                completed_before += 1

    for j in job_ids:
        if served_units[j] != jobs[j][1]:
            return ValidationResult(False, "incomplete_job", job_id=j,
                                    message=f"job {j} received {served_units[j]}/{jobs[j][1]} units")
        d = trace.departures.get(j)
        if d is None or d != last_service[j]:
            return ValidationResult(False, "departure_mismatch", job_id=j,
                                    message=f"recorded departure {d}, actual {last_service.get(j)}")
        if d < jobs[j][0]:
            return ValidationResult(False, "departure_before_arrival", job_id=j)
    if next_job < len(jobs):
        return ValidationResult(False, "truncated_trace",
                                message="trace ends before all arrivals")
    return _VALID
