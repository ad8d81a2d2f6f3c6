"""Domain types for arrival instances, schedule traces, and cost accounting.

Time is slotted, starting at slot 1, with s(0) = 0. Arrivals happen at the
start of a slot and departures at its end, so a job arriving and served in
slot t still contributes one slot of flow time. The final ramp-down to zero
servers after the last busy slot is always charged.
"""

from __future__ import annotations

import hashlib
import math
import operator
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, count, repeat

import numpy as np


class SwitchingKind(str, Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"


class TraceValidationError(ValueError):
    """A cost/oracle operation received a trace that breaks an invariant."""

    def __init__(self, violation: str, slot: int | None = None, message: str = ""):
        self.violation = violation
        self.slot = slot
        where = f" at slot {slot}" if slot is not None else ""
        super().__init__(f"{message or violation}{where}")


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

# Texts of fewer values than this (t, n and s of each trace CSV row plus its
# served ids; the slots and sizes of an instance file) are written and read
# through ``str`` and ``int``: there numpy's fixed cost, some 50 us a call,
# outweighs what it saves per value. On a 2-vCPU Xeon VM writing traces broke
# even near 400 values and reading them near 800.
_BULK_MIN_VALUES = 600


def check_positive(name: str, value: float):
    """Raise ValueError unless ``value`` is positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True, init=False, repr=False)
class ArrivalInstance:
    """A job arrival schedule: per-slot arrival counts plus the job sizes.

    Invariants:
        - ``slot_counts[i]`` jobs arrive at slot i+1, for slots
          1..last_slot, and the last count is nonzero
        - job ids run in arrival order; jobs of one slot keep the order
          they were given in
        - ``sizes[j]`` is job j's size, at least 1; ``sizes`` is None
          exactly when every job is a unit job

    ``arrivals``, the (slot, size) records in id order, is built on first
    read, and the aggregates are computed once and cached. Instances with
    the same counts, sizes and name are equal, however they were built.
    Instances are immutable.
    """

    slot_counts: tuple[int, ...]
    sizes: tuple[int, ...] | None
    name: str

    def __init__(self, arrivals: tuple[tuple[int, int], ...], name: str = ""):
        records = []
        for slot, size in arrivals:
            if int(slot) != slot or slot < 1:
                raise ValueError(f"arrival slot must be a positive integer, got {slot!r}")
            if int(size) != size or size < 1:
                raise ValueError(f"job size must be a positive integer, got {size!r}")
            records.append((int(slot), int(size)))
        records.sort(key=operator.itemgetter(0))  # stable: same-slot order preserved
        counts = [0] * (records[-1][0] if records else 0)
        for slot, _ in records:
            counts[slot - 1] += 1
        self._assign(tuple(counts), tuple(size for _, size in records), name)

    @classmethod
    def from_counts(cls, counts, name: str = "") -> "ArrivalInstance":
        """Unit jobs, ``counts[i]`` of them arriving at slot i+1."""
        values = []
        for count in counts:
            if int(count) != count or count < 0:
                raise ValueError(
                    f"arrival count must be a nonnegative integer, got {count!r}")
            values.append(int(count))
        while values and values[-1] == 0:
            values.pop()
        inst = cls.__new__(cls)
        inst._assign(tuple(values), None, name)
        return inst

    def _assign(self, counts: tuple[int, ...], sizes: tuple[int, ...] | None,
                name: str):
        """Set the one form from checked counts with no trailing zero slot;
        sizes that are all 1 are stored as None."""
        if sizes is not None and all(size == 1 for size in sizes):
            sizes = None
        self.__dict__.update(slot_counts=counts, sizes=sizes, name=name)

    def __repr__(self):
        return f"ArrivalInstance(arrivals={self.arrivals!r}, name={self.name!r})"

    @cached_property
    def arrivals(self) -> tuple[tuple[int, int], ...]:
        slots = chain.from_iterable(map(repeat, range(1, self.last_slot + 1),
                                        self.slot_counts))
        return tuple(zip(slots, self.sizes or repeat(1)))

    @cached_property
    def job_count(self) -> int:
        return sum(self.slot_counts)

    @cached_property
    def total_work(self) -> int:
        return self.job_count if self.sizes is None else sum(self.sizes)

    @property
    def last_slot(self) -> int:
        return len(self.slot_counts)

    @property
    def all_unit(self) -> bool:
        return self.sizes is None

    @cached_property
    def sizes_equal(self) -> bool:
        return self.sizes is None or len(set(self.sizes)) == 1

    @cached_property
    def max_slot_arrivals(self) -> int:
        """Largest per-slot arrival count (jobs, not work)."""
        return max(self.slot_counts, default=0)

    @cached_property
    def instance_id(self) -> str:
        if self.name:
            return self.name
        digest = hashlib.sha256(repr(self.arrivals).encode()).hexdigest()[:8]
        return f"custom-{digest}"

    def prefix(self, k: int, name: str = "") -> "ArrivalInstance":
        """The jobs with ids below k, as a new instance."""
        if not 0 <= k <= self.job_count:
            raise ValueError(f"prefix length {k} out of range")
        through = self._arrived_through
        last = bisect_left(through, k)  # slot index of job k-1
        before = through[last - 1] if last else 0
        inst = ArrivalInstance.__new__(ArrivalInstance)
        inst._assign(self.slot_counts[:last] + (k - before,) if k else (),
                     self.sizes and self.sizes[:k], name)
        return inst

    @cached_property
    def _arrived_through(self) -> tuple[int, ...]:
        return tuple(accumulate(self.slot_counts))

    def to_text(self) -> str:
        lines = [f"# instance {self.instance_id}: {self.job_count} jobs"]
        lines += [f"{s} {w}" for s, w in self.arrivals]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, name: str = "") -> "ArrivalInstance":
        """Read ``to_text`` output: one job per line as 'slot size', in any
        slot order, with '#' starting a comment.

        ``_instance_text_columns`` parses a text of plain digits and at
        least ``_BULK_MIN_VALUES`` values in one numpy pass. Every other
        text (a smaller one, comments past the first line, signs, tabs, a
        value below 1, ...) goes through the line loop, which names the line
        of the first bad value.
        """
        columns = _instance_text_columns(text)
        if columns is not None:
            inst = cls.__new__(cls)
            inst._assign(*columns, name)
            return inst
        records = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 't w', got {raw!r}")
            try:
                slot, size = int(parts[0]), int(parts[1])
                if slot < 1 or size < 1:
                    cls(((slot, size),))  # raises, naming the field
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            records.append((slot, size))
        return cls(tuple(records), name=name)

    @classmethod
    def from_file(cls, path, name: str = "") -> "ArrivalInstance":
        with open(path) as fh:
            return cls.from_text(fh.read(), name=name or str(path))


def _instance_text_columns(text: str):
    """The arrival counts and id-ordered sizes of an instance text, parsed
    in one numpy pass; None unless the text, past a first comment line,
    holds only ASCII digits, spaces and newlines, each line two values or
    none, every value 1 or more and at most 18 digits, and at least
    ``_BULK_MIN_VALUES`` values in all."""
    if len(text) < _BULK_MIN_VALUES:  # every value takes at least a byte
        return None
    if text.startswith("#"):
        comment, _, text = text.partition("\n")
        if not comment.isprintable():  # no line break that splitlines cuts at
            return None
    if not text.isascii():
        return None
    data = text.encode()
    if data.translate(None, b"0123456789 \n"):  # another byte is left
        return None
    raw = np.frombuffer(data, np.uint8)
    digit = np.zeros(raw.size + 2, bool)
    digit[1:-1] = raw - ord("0") < 10  # uint8 wraps: only digits are below 10
    edges = np.flatnonzero(digit[1:] != digit[:-1])  # each value's start, end
    starts = edges[0::2]
    if not starts.size or starts.size < _BULK_MIN_VALUES or \
            (edges[1::2] - starts).max() > 18:
        return None
    per_line = np.bincount(np.cumsum(raw == ord("\n"))[starts])
    if not ((per_line == 0) | (per_line == 2)).all():
        return None
    values = np.fromstring(data, np.int64, sep=" ")
    if values.min() < 1:
        return None
    slots = values[0::2]
    sizes = values[1::2][np.argsort(slots, kind="stable")]
    return tuple(np.bincount(slots)[1:].tolist()), tuple(sizes.tolist())


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
        check_positive("alpha", self.alpha)
        if not 0 <= self.theta < math.inf:
            raise ValueError(f"theta must be nonnegative and finite, got {self.theta}")
        object.__setattr__(self, "switching", SwitchingKind(self.switching))

    def transition_cost(self, s_prev: float, s_new: float) -> float:
        """Unweighted switching cost c(s_new, s_prev), elementwise on arrays."""
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


class _SlotView(Sequence):
    """The slots of a trace as SlotRecords, built on access.

    Slot i+1 serves ``ids[offsets[i]:offsets[i+1]]``. A FIFO trace passes
    ``range(S(T))`` as its ids, so its served sets are ranges of ids.
    """

    __slots__ = ("_n", "_s", "_ids", "_offsets")

    def __init__(self, n, s, ids, offsets):
        self._n, self._s, self._ids, self._offsets = n, s, ids, offsets

    def __len__(self):
        return len(self._s)

    def __getitem__(self, index):
        i = range(len(self._s))[index]
        first, end = self._offsets[i], self._offsets[i + 1]
        return SlotRecord(i + 1, self._n[i], self._s[i],
                          frozenset(self._ids[first:end]))

    def __iter__(self):
        ids, offsets = self._ids, self._offsets
        for t, n, s, first, end in zip(count(1), self._n, self._s,
                                       offsets, offsets[1:]):
            yield SlotRecord(t, n, s, frozenset(ids[first:end]))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


@dataclass(frozen=True, eq=False)
class ServedColumns:
    """The served sets of a trace, as flat columns.

    ``ids`` holds the served ids of every slot, slot after slot, and
    ``counts`` how many of them belong to each slot.
    """

    ids: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "counts", tuple(self.counts))
        if sum(self.counts) != len(self.ids):
            raise ValueError("counts do not partition the served ids by slot")


@dataclass(frozen=True, eq=False)
class ScheduleTrace:
    """A complete schedule as per-slot columns: occupancy n and servers s.

    ``n[i]`` and ``s[i]`` belong to slot i+1. Idle slots (n=0, s=0) are
    recorded. A FIFO trace (unit jobs from the count engine or ``dp_opt``,
    or a FIFO-shaped CSV read back by ``from_csv``) keeps only these
    columns: slot t serves ids [S(t-1), S(t)), with S the running sum of s.
    Every other trace (general-size SRPT, any other CSV input) keeps its
    served sets in ``served``, one flat id column with per-slot counts (see
    ``ServedColumns``).

    ``slots`` is a view built on access: no SlotRecord or frozenset exists
    until a caller reads it. A slot's number is its position, and a job
    departs at the last slot that serves it (``departures``).

    ``complete_records`` is False for bulk simulation runs; such traces
    cost fine but cannot be validated.
    """

    n: tuple[int, ...]
    s: tuple[int, ...]
    complete_records: bool = True
    served: ServedColumns | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(self.n))
        object.__setattr__(self, "s", tuple(self.s))
        if len(self.n) != len(self.s):
            raise ValueError("n and s columns differ in length")
        if self.served is not None and len(self.served.counts) != len(self.s):
            raise ValueError("served columns and s differ in length")

    @property
    def _counts(self) -> tuple[int, ...]:
        """How many ids each slot serves."""
        return self.s if self.served is None else self.served.counts

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        """Where each slot's ids start in the flat id sequence, then the end."""
        return tuple(accumulate(self._counts, initial=0))

    @property
    def _ids(self) -> Sequence[int]:
        """The served ids, slot after slot: ``range(S(T))`` for a FIFO trace."""
        return range(self._offsets[-1]) if self.served is None else self.served.ids

    @cached_property
    def slots(self) -> Sequence[SlotRecord]:
        return _SlotView(self.n, self.s, self._ids, self._offsets)

    @cached_property
    def departures(self) -> Mapping[int, int]:
        # later slots overwrite earlier ones: the last slot serving each id
        return dict(zip(self._ids, chain.from_iterable(
            map(repeat, count(1), self._counts))))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.n, self.s, self.complete_records) != \
                (other.n, other.s, other.complete_records):
            return False
        if self.served is None and other.served is None:
            return True
        return self.slots == other.slots

    __hash__ = None

    @property
    def last_slot(self) -> int:
        return len(self.s)

    def to_csv(self) -> str:
        """One row per slot: t, n, s and the served ids in ascending order.

        A trace of at least ``_BULK_MIN_VALUES`` values (t, n and s of each
        row plus its served ids) whose values all fit int64 is formatted in
        numpy by ``_csv_bulk_text``; any other goes through the row loop
        ``_csv_row_text``. Both write the same bytes.
        """
        text = None
        if 3 * len(self.s) + self._offsets[-1] >= _BULK_MIN_VALUES:
            text = _csv_bulk_text(self)
        return _csv_row_text(self) if text is None else text

    @classmethod
    def from_csv(cls, text: str) -> "ScheduleTrace":
        """Read ``to_csv`` output (rows 't,n,s,id;id;...') into columns.

        Ids are kept as written; the ``slots`` view reads each slot's ids
        as a set, and a job departs at the last row that serves it. The t
        column must count 1..T: ValueError names the first row that does not.
        A FIFO-shaped text, whose every row serves s ids and whose ids count
        0..S(T)-1 in order, comes back in the FIFO form (``served`` None):
        the same slots and departures, equal to the served form, and the
        same bytes written.

        ``_csv_text_columns`` parses a text of at least ``_BULK_MIN_VALUES``
        values (t, n and s of each row plus the ids) in one numpy pass when
        it has exactly ``to_csv``'s header and row shape and every value is
        1 to 18 ASCII digits. Every other text is split into rows and read
        through ``int`` column by column (``_csv_columns``), or by the row
        loop ``_csv_rows`` when a row is short, an id field holds an empty
        item or a value fails ``int``. The row loop sets the accepted inputs
        and the error raised.
        """
        columns = _csv_text_columns(text)
        if columns is None:
            lines = [ln for ln in text.splitlines() if ln.strip()]
            if not lines or lines[0].split(",")[:3] != ["t", "n", "s"]:
                raise ValueError("trace CSV must start with header 't,n,s,served_ids'")
            rows = [ln.split(",", 3) for ln in lines[1:]]
            columns = _csv_columns(rows) or _csv_rows(rows)
        t, n, s, ids, counts = columns
        if t != list(range(1, len(t) + 1)):
            row = next(row for row, value in enumerate(t, start=1) if value != row)
            raise ValueError(f"trace CSV row {row} has t={t[row - 1]}, expected {row}")
        if counts == s and (isinstance(ids, range) or ids == [*range(len(ids))]):
            return cls(n, s)  # FIFO-shaped
        return cls(n, s, served=ServedColumns(ids, counts))


_CSV_HEADER = "t,n,s,served_ids\n"
_SEPARATORS_TO_SPACES = bytes.maketrans(b",;\n", b"   ")


def _csv_text_columns(text: str):
    """Parse a whole trace CSV in one numpy pass, as ``_csv_columns`` does,
    but with the ids as ``range(S)`` when they count 0..S-1 in order.

    Every non-digit byte is found once. Each row must be t, n and s, each
    ended by a comma, then ids separated by ';' and a newline; no item may
    be empty but an idle row's id field, nor longer than 18 digits, which
    ``int`` reads the same and int64 holds. One ``np.fromstring`` then
    parses every value. Returns None, and leaves the text to the line
    readers, for another header, any other byte or shape, or fewer than
    ``_BULK_MIN_VALUES`` values.
    """
    # every value takes at least a digit and a separator
    if not (text.startswith(_CSV_HEADER) and text.isascii() and
            len(text) - len(_CSV_HEADER) >= 2 * _BULK_MIN_VALUES):
        return None
    body = text[len(_CSV_HEADER):].encode()
    if body[-1:] != b"\n":
        return None
    raw = np.frombuffer(body, np.uint8)
    cuts = np.flatnonzero(raw - ord("0") > 9)  # uint8 wraps: every non-digit
    kinds = raw[cuts]
    comma = kinds == ord(",")
    newline = np.flatnonzero(kinds == ord("\n"))
    nrows = newline.size
    per_row = np.diff(newline, prepend=-1)  # separators, the newline included
    if per_row.min() < 4 or np.count_nonzero(comma) != 3 * nrows or \
            np.count_nonzero(kinds == ord(";")) != kinds.size - 4 * nrows:
        return None
    heads = newline - per_row + 1
    if not (comma[heads] & comma[heads + 1] & comma[heads + 2]).all():
        return None  # the three commas do not lead the row
    length = np.diff(cuts, prepend=-1) - 1  # the digits before each separator
    idle = (per_row == 4) & (length[newline] == 0)  # an empty id field
    if np.count_nonzero(length == 0) != np.count_nonzero(idle) or \
            length.max() > 18 or cuts.size - np.count_nonzero(idle) < _BULK_MIN_VALUES:
        return None
    values = np.fromstring(body.translate(_SEPARATORS_TO_SPACES), np.int64, sep=" ")
    is_tns = np.delete(comma, newline[idle])  # t, n and s end in a comma
    t, n, s = values[is_tns].reshape(-1, 3).T.tolist()
    ids = values[~is_tns]
    ids = range(ids.size) if np.array_equal(ids, np.arange(ids.size)) else ids.tolist()
    return t, n, s, ids, (per_row - 3 - idle).tolist()


def _csv_columns(rows: list[list[str]]):
    """Parse trace CSV rows column by column through ``int``.

    Returns None, and leaves the input to ``_csv_rows``, when a row lacks
    a field, an id field holds an empty item or a value fails ``int``; so
    the accepted inputs and the error raised are the row reader's.
    """
    if not rows or min(map(len, rows)) != 4:
        return None
    t_col, n_col, s_col, id_col = zip(*rows)
    joined = ";".join(filter(None, id_col))
    try:
        ids = list(map(int, joined.split(";"))) if joined else []
        t, n, s = (list(map(int, col)) for col in (t_col, n_col, s_col))
    except ValueError:
        return None
    return t, n, s, ids, [field.count(";") + 1 if field else 0 for field in id_col]


def _csv_rows(rows: list[list[str]]):
    """Parse trace CSV rows one by one, raising at the first bad value."""
    t, n, s, ids, counts = [], [], [], [], []
    for row in rows:
        t_s, n_s, s_s, field = (row + [""])[:4]
        served = [int(x) for x in field.split(";") if x != ""]
        t.append(int(t_s))
        n.append(int(n_s))
        s.append(int(s_s))
        ids += served
        counts.append(len(served))
    return t, n, s, ids, counts


def _csv_row_text(trace: ScheduleTrace) -> str:
    """The trace CSV written row by row."""
    offsets = trace._offsets
    rows = zip(count(1), trace.n, trace.s, offsets, offsets[1:])
    lines = ["t,n,s,served_ids"]
    if trace.served is None:  # ids straight from the cumulative s
        lines += [f"{t},{n},{s},{';'.join(map(str, range(first, end)))}"
                  for t, n, s, first, end in rows]
    else:
        ids = trace.served.ids
        lines += [f"{t},{n},{s},"
                  f"{';'.join(map(str, sorted(set(ids[first:end]))))}"
                  for t, n, s, first, end in rows]
    return "\n".join(lines) + "\n"


def _csv_bulk_text(trace: ScheduleTrace) -> str | None:
    """The trace CSV built in numpy, or None when a value or the packed
    (slot, id) sort key does not fit int64.

    Every t, n, s and id becomes one int64 value with the byte that follows
    it (',' after t, n and s, ';' between ids, a newline ending the row; an
    idle row ends in a digitless value). Digits fill a (values x width)
    byte matrix right to left, with NUL bytes for leading zeros and absent
    signs, and one ``bytes.translate`` drops those.
    """
    served = trace.served
    n, s = _int_column(trace.n), _int_column(trace.s)
    if served is None:
        counts, ids = s, np.arange(trace._offsets[-1])
    else:
        counts, ids = _int_column(served.counts), _int_column(served.ids)
    if any(column is None for column in (n, s, counts, ids)) or \
            counts.min(initial=0) < 0:
        return None
    slots = len(counts)
    if served is not None and ids.size:
        # sorted(set(...)) per slot: one sort of (slot, id) packed in a key
        low, span = int(ids.min()), int(ids.max()) - int(ids.min()) + 1
        if slots * span > np.iinfo(np.int64).max:
            return None
        key = np.sort(np.repeat(np.arange(slots) * span, counts) + (ids - low))
        key = key[np.append(True, key[1:] != key[:-1])]
        slot = key // span
        ids = key - slot * span + low
        counts = np.bincount(slot, minlength=slots)
    per_row = 3 + np.maximum(counts, 1)
    ends = np.cumsum(per_row)
    heads = ends - per_row
    values = np.zeros(ends[-1] if slots else 0, np.int64)
    after = np.full(values.size, ord(";"), np.uint8)
    is_id = np.ones(values.size, bool)
    for k, column in enumerate((np.arange(1, slots + 1), n, s)):
        at = heads + k
        values[at], after[at], is_id[at] = column, ord(","), False
    idle = heads[counts == 0] + 3
    is_id[idle] = False
    values[is_id] = ids
    after[ends - 1] = ord("\n")
    negative = values < 0
    magnitude = np.abs(values, out=values)
    if magnitude.min(initial=0) < 0:  # -2**63 has no int64 magnitude
        return None
    width = len(str(magnitude.max(initial=0)))
    if width < 10:  # a narrower type halves the work of every pass
        magnitude = magnitude.astype(np.uint32)
    chars = np.empty((values.size, width + 2), np.uint8)
    chars[:, 0] = negative * ord("-")
    for j in range(width, 0, -1):  # scalar // runs far faster than %
        quotient = magnitude // 10
        digits = magnitude - quotient * 10 + ord("0")
        if j < width:
            digits *= magnitude > 0  # a leading zero becomes a NUL pad
        chars[:, j] = digits
        magnitude = quotient
    chars[idle, width] = 0
    chars[:, -1] = after
    body = chars.tobytes().translate(None, b"\0")  # drop the NUL pads
    return "t,n,s,served_ids\n" + body.decode()


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

    def to_json_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return values | {"switching_kind": self.switching_kind.value}


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
    checks run in this order: unknown_job, work_neutrality (service ahead of
    arrived work, or before arrival), occupancy_mismatch, s_le_n (s <= n),
    served_count (s ids served), overservice; then incomplete_job.
    Slot numbers and departures come from the rows, so nothing checks them.

    One array pass over the columns (``_columns_valid``) accepts a valid
    trace without an id repeated within a slot. Any other trace goes to the
    per-slot loop ``_validate_reference``, the one place that picks and
    words the first violation.
    """
    if _columns_valid(instance, trace):
        return _VALID
    return _validate_reference(instance, trace)


def _int_column(values) -> np.ndarray | None:
    """``values`` as a signed integer array, or None if one does not fit."""
    try:
        column = np.asarray(values)
    except OverflowError:
        return None
    if column.size == 0:
        return np.zeros(column.shape, dtype=np.int64)
    return column if column.dtype.kind == "i" else None


def _columns_valid(instance: ArrivalInstance, trace: ScheduleTrace) -> bool:
    """True when the trace passes every check of ``_validate_reference``.

    The checks hold as array operations over the flat served ids (FIFO
    traces: ``range(S(T))``) when no slot repeats an id: then each job's
    service count, its completion slot and the per-slot arrived work are
    plain reductions. False means "not shown valid", never "invalid".
    """
    served = trace.served
    if not trace.complete_records or (served is not None and
                                      served.counts != trace.s):
        return False
    n, s = _int_column(trace.n), _int_column(trace.s)
    if n is None or s is None or not ((s >= 0) & (s <= n)).all():
        return False
    ids = np.arange(int(s.sum())) if served is None else _int_column(served.ids)
    unit = instance.all_unit
    size = 1 if unit else _int_column(instance.sizes)
    arrival = np.repeat(np.arange(1, instance.last_slot + 1), instance.slot_counts)
    jobs, horizon = arrival.size, len(s)
    if ids is None or size is None or instance.last_slot > horizon or \
            (ids.size and not 0 <= ids.min() <= ids.max() < jobs):
        return False
    if not (np.bincount(ids, minlength=jobs) == size).all():
        return False  # some job served other than exactly its size
    slot = np.repeat(np.arange(1, horizon + 1), s)  # the slot of each served id
    if (arrival[ids] > slot).any():  # with the sizes, implies S(t) <= work(t)
        return False  # some job served before it arrived
    arrived = np.searchsorted(arrival, np.arange(1, horizon + 1), side="right")
    if unit:  # every id served once
        done = np.empty(jobs, dtype=np.int64)
        done[ids] = slot
    else:
        order = np.argsort(ids, kind="stable")  # by job, then by slot
        job, at = ids[order], slot[order]
        again = job[1:] == job[:-1]
        if (again & (at[1:] == at[:-1])).any():
            return False  # an id repeated within a slot
        done = at[np.append(~again, True)]  # each job's last service
    finished_by = np.cumsum(np.bincount(done, minlength=horizon + 1))
    return bool((n == arrived - finished_by[:horizon]).all())


def _validate_reference(instance: ArrivalInstance,
                        trace: ScheduleTrace) -> ValidationResult:
    """The per-slot validation loop; see ``validate_trace``."""
    if not trace.complete_records:
        return ValidationResult(False, "incomplete_records",
                                message="trace was recorded without per-job service sets")
    jobs = instance.arrivals
    job_ids = range(len(jobs))

    served_units = {j: 0 for j in job_ids}
    cum_work = 0
    cum_served = 0
    arrived = 0
    completed_before = 0  # jobs fully served by slot t-1
    next_job = 0

    for rec in trace.slots:
        t = rec.t
        while next_job < len(jobs) and jobs[next_job][0] <= t:
            arrived += 1
            cum_work += jobs[next_job][1]
            next_job += 1

        for j in rec.served:
            if j not in served_units or not isinstance(j, (int, np.integer)):  # 1.0 finds job 1
                return ValidationResult(False, "unknown_job", slot=t, job_id=j,
                                        message=f"served id {j!r} is not an instance job")
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
            if served_units[j] == jobs[j][1]:
                completed_before += 1

    for j in job_ids:
        if served_units[j] != jobs[j][1]:
            return ValidationResult(False, "incomplete_job", job_id=j,
                                    message=f"job {j} received {served_units[j]}/{jobs[j][1]} units")
    return _VALID
