import importlib
import inspect
import math
import os
import pkgutil
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowswitch
from flowswitch import (Alg3Params, ArrivalInstance, CostModel, ScheduleTrace,
                        SlotRecord, SwitchingKind, TraceValidationError,
                        ValidationResult, alg1, alg3_analytic_cost,
                        analytic_cost, batch_quad_continuous,
                        batch_quad_horizon_search, cli, convex_batch_solve,
                        core, cost_of_trace, dp_opt, simulate, simulate_alg3,
                        simulate_ctmc, validate_trace)
from flowswitch.instances import batch, random_slotted
from flowswitch.policies import (BalanceDelta, BalanceValue, FullParallel,
                                 GammaPolicy, Lg, QuadAlg, QuadBalance,
                                 SqrtOnline)

from conftest import (EMPTY_SPEC_FORMS, MALFORMED_SPECS, SPEC_FORMS, departures,
                      spec_text)


def served_trace(rows):
    """A trace with its served sets given, one (n, s, ids) row per slot:
    slot numbers and departures follow from the rows."""
    rows = tuple(rows)
    served = core.ServedColumns([j for _, _, ids in rows for j in ids],
                                [len(ids) for _, _, ids in rows])
    return ScheduleTrace(tuple(n for n, _, _ in rows), tuple(s for _, s, _ in rows),
                         served=served)


def rows_of(slots):
    return [(rec.n, rec.s, rec.served) for rec in slots]


AGGREGATES = ("job_count", "total_work", "last_slot", "all_unit", "sizes_equal",
              "max_slot_arrivals")


def record_aggregates(records):
    """The instance aggregates, computed from sorted (slot, size) records."""
    sizes = [w for _, w in records]
    slots = [t for t, _ in records]
    return {"job_count": len(records), "total_work": sum(sizes),
            "last_slot": max(slots, default=0), "all_unit": set(sizes) <= {1},
            "sizes_equal": len(set(sizes)) <= 1,
            "max_slot_arrivals": max(map(slots.count, slots), default=0)}


def described(inst):
    """What an instance shows: repr, id, records, sizes, then its aggregates."""
    return (repr(inst), inst.instance_id, inst.arrivals, inst.sizes,
            {attr: getattr(inst, attr) for attr in AGGREGATES})


# Tokens the one-pass instance reader must leave to the line loop, or read
# as ``int`` does (leading zeros): the loop's errors name the line.
INSTANCE_TOKENS = ("0", "-1", "+5", "1_0", "\u0663", "01", "9" * 19, "1.5", "x", "",
                   "9" * 18)
INSTANCE_EDITS = ("token", "extra_token", "drop_token", "blank_line", "comment_line",
                  "trailing_comment", "tab", "crlf")


def edit_instance_lines(lines, kind, where, k):
    """One edit of an instance text's lines; the first is the header comment."""
    lines = list(lines)
    i = 1 + where % (len(lines) - 1) if len(lines) > 1 else 0
    if kind == "blank_line":
        lines.insert(i, " " * k)
    elif kind == "comment_line":
        lines.insert(i, "# note")
    elif kind == "crlf":
        lines[i] += "\r"
    elif i:  # the other edits change a job line
        tokens = lines[i].split(" ")
        if kind == "token":
            tokens[k % len(tokens)] = INSTANCE_TOKENS[where % len(INSTANCE_TOKENS)]
        elif kind == "extra_token":
            tokens.append(str(1 + k))
        elif kind == "drop_token":
            tokens.pop(k % len(tokens))
        elif kind == "trailing_comment":
            tokens.append("# c")
        lines[i] = ("\t" if kind == "tab" else " ").join(tokens)
    return lines


class TestArrivalInstance:
    def test_sorted_with_stable_ties(self):
        inst = ArrivalInstance(((3, 2), (1, 1), (3, 5)))
        assert inst.arrivals == ((1, 1), (3, 2), (3, 5))

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ArrivalInstance(((0, 1),))
        with pytest.raises(ValueError):
            ArrivalInstance(((1, 0),))

    def test_aggregates(self):
        inst = ArrivalInstance(((1, 2), (1, 1), (4, 3)))
        assert inst.total_work == 6
        assert inst.last_slot == 4
        assert inst.max_slot_arrivals == 2
        assert not inst.all_unit
        assert inst.slot_counts == (2, 0, 0, 1)
        assert inst.sizes == (2, 1, 3)

    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(0, 3), max_size=8),
           sizes=st.lists(st.integers(1, 3), max_size=24),
           name=st.sampled_from(["", "x"]))
    @example(counts=[2, 0, 1, 0, 0], sizes=[], name="x")
    @example(counts=[], sizes=[], name="")
    def test_counts_built_equals_tuple_built(self, counts, sizes, name):
        slots = [t for t, c in enumerate(counts, start=1) for _ in range(c)]
        sizes = (sizes + [1] * len(slots))[:len(slots)]  # unit jobs past the list
        records = tuple(zip(slots, sizes))
        # given latest slot first: the constructor sorts, keeping same-slot order
        inst = ArrivalInstance(sorted(records, key=lambda r: -r[0]), name=name)
        assert inst.arrivals == records
        assert inst.slot_counts == tuple(counts[:len(slots) and slots[-1]])
        assert inst.sizes == (None if set(sizes) <= {1} else tuple(sizes))
        assert described(inst)[-1] == record_aggregates(records)
        # built from sorted records, from counts and sizes, and from counts
        twins = [ArrivalInstance(records, name=name),
                 inst.prefix(inst.job_count, name=name)]
        if inst.all_unit:
            twins.append(ArrivalInstance.from_counts(counts, name=name))
        for twin in twins:
            assert inst == twin and twin == inst and hash(inst) == hash(twin)
            assert described(twin) == described(inst)
            assert twin != ArrivalInstance(records, name=name + "y")
            for k in range(inst.job_count + 1):
                head = twin.prefix(k, name="p")
                expected = ArrivalInstance(records[:k], name="p")
                assert head == expected and hash(head) == hash(expected)
                assert described(head) == described(expected)
                assert head.arrivals == records[:k]
                assert described(head)[-1] == record_aggregates(records[:k])
        if records:
            assert inst != ArrivalInstance(records[:-1] + ((slots[-1], sizes[-1] + 1),),
                                           name=name)

    def test_from_counts_rejects_bad_counts(self):
        for bad in ((1, -1), (1.5,), (2, 0.5)):
            with pytest.raises(ValueError, match="arrival count"):
                ArrivalInstance.from_counts(bad)
        with pytest.raises(ValueError, match="counts must hold at most 10000000 "
                                             "slots, got 10000001"):
            ArrivalInstance.from_counts(range(core.MAX_SLOT + 1))
        with pytest.raises(AttributeError):
            ArrivalInstance.from_counts((1,)).name = "renamed"

    def test_from_counts_with_a_size(self):
        top = core.MAX_SLOT
        inst = ArrivalInstance.from_counts((2, 0, 1, 0), name="w", size=3)
        assert inst == ArrivalInstance(((1, 3), (1, 3), (3, 3)), name="w")
        assert ArrivalInstance.from_counts((2, 1), size=1).all_unit
        assert ArrivalInstance.from_counts((0, 0), size=0).slot_counts == ()  # no job
        assert ArrivalInstance.from_counts((1,), size=top).total_work == top
        for size in (0, -1, 2.5, top + 1):
            with pytest.raises(ValueError) as want:
                ArrivalInstance(((1, size),))
            with pytest.raises(ValueError) as got:
                ArrivalInstance.from_counts((0, 2), size=size)
            assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match=f"^total work must be at most {top}, "
                                             f"got {top + 2}$"):
            ArrivalInstance.from_counts((top // 2 + 1,), size=2)

    def test_immutable(self):
        inst = ArrivalInstance(((1, 1), (2, 3)), name="x")
        assert inst.job_count == 2  # cached from here on
        with pytest.raises(AttributeError):
            del inst.name
        for attr in ("job_count", "total_work", "slot_counts"):  # read, unread, field
            with pytest.raises(AttributeError):
                setattr(inst, attr, 0)
        assert (inst.name, inst.job_count, inst.total_work) == ("x", 2, 4)

    def test_prefix_keeps_the_first_jobs(self):
        for inst in (ArrivalInstance.from_counts((0, 2, 0, 3)),
                     ArrivalInstance(((2, 1), (2, 1), (4, 1), (4, 1), (4, 1))),
                     ArrivalInstance(((2, 2), (2, 2), (4, 2)))):
            for k in range(inst.job_count + 1):
                head = inst.prefix(k, name="p")
                assert head.arrivals == inst.arrivals[:k]
                assert head.name == "p"
        with pytest.raises(ValueError):
            inst.prefix(inst.job_count + 1)

    def test_text_round_trip(self, tmp_path):
        inst = ArrivalInstance(((1, 1), (2, 3)), name="rt")
        path = tmp_path / "inst.txt"
        path.write_text(inst.to_text() + "# trailing comment\n")
        again = ArrivalInstance.from_file(path)
        assert again.arrivals == inst.arrivals

    def test_to_text_writes_each_record_without_building_them(self):
        rng = random.Random(8)
        for inst in (ArrivalInstance(((1, 2), (1, 2), (3, 1), (3, 4), (6, 7), (6, 7)),
                                     name="mixed"),
                     ArrivalInstance(tuple((rng.randint(1, 40), rng.randint(1, 3))
                                           for _ in range(200)), name="random"),
                     batch(5, 3), batch(0, 2), random_slotted(4.0, 30, 1)):
            text = inst.to_text()
            assert "arrivals" not in vars(inst)
            assert text == f"# instance {inst.name}: {inst.job_count} jobs\n" + \
                "".join(f"{s} {w}\n" for s, w in inst.arrivals)

    def test_one_pass_reader_counts_values_per_line(self, monkeypatch):
        # declined exactly when a line holds other than 0 or 2 values
        monkeypatch.setattr(core, "_BULK_MIN_VALUES", 0)
        rng = random.Random(4)
        for _ in range(300):
            widths = [rng.choice((0, 2, 2, 2, 1, 3)) for _ in range(rng.randint(1, 8))]
            lines = [" ".join(str(rng.randint(1, 9)) for _ in range(k)) for k in widths]
            lines = [rng.choice(("", " ", "  ")) + line + rng.choice(("", " "))
                     for line in lines]
            text = "\n".join(lines) + rng.choice(("", "\n"))
            columns = core._instance_text_columns(text)
            if not any(widths) or set(widths) - {0, 2}:
                assert columns is None, text
            else:
                records = [tuple(map(int, line.split())) for line in lines if line.strip()]
                inst = ArrivalInstance(tuple(records))
                assert columns == (inst.slot_counts, inst.sizes or (1,) * inst.job_count)

    def test_one_pass_reader_memory(self):
        # its peak, numpy arrays included, is at most 24 bytes a text byte
        # (about 23 on unit-job text): no array holds one int64 per byte
        text = batch(10_000).to_text()
        tracemalloc.start()
        try:
            columns = core._instance_text_columns(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert columns == ((10_000,), (1,) * 10_000)
        assert peak <= 24 * len(text)

    def test_large_instance_file_reads_in_one_pass(self):
        rng = random.Random(3)
        inst = ArrivalInstance(tuple((rng.randint(1, 1000), rng.randint(1, 5))
                                     for _ in range(3000)), name="mixed")
        text = inst.to_text()  # its header comment too
        assert core._instance_text_columns(text) is not None
        assert ArrivalInstance.from_text(text, name="mixed") == inst
        unit = random_slotted(20.0, 100, 4)
        assert ArrivalInstance.from_text(unit.to_text(), name=unit.name) == unit

    def test_size_past_the_maximum_names_its_line(self):
        assert ArrivalInstance(((1, core.MAX_SLOT),)).total_work == core.MAX_SLOT
        with pytest.raises(ValueError,
                           match=f"^job size must be at most {core.MAX_SLOT}, got"):
            ArrivalInstance(((1, 1), (2, core.MAX_SLOT + 1)))
        lines = [f"{1 + i % 300} {1 + i % 5}" for i in range(400)]
        lines[250] = f"7 {core.MAX_SLOT + 1}"
        text = "\n".join(lines) + "\n"
        assert core._instance_text_columns(text) is None  # declined to the line loop
        for body, line in ((text, 251), (f"1 1\n3 {core.MAX_SLOT + 1}\n", 2)):
            with pytest.raises(ValueError, match=f"^line {line}: job size must be at most "
                                                 f"{core.MAX_SLOT}, got {core.MAX_SLOT + 1}$"):
                ArrivalInstance.from_text(body)

    def test_total_work_and_job_count_at_the_bound(self):
        top = core.MAX_SLOT
        assert ArrivalInstance(((1, top // 2), (3, top // 2))).total_work == top
        with pytest.raises(ValueError, match=f"^total work must be at most {top}, "
                                             f"got {top + 1} by job 2$"):
            ArrivalInstance(((3, top // 2), (1, top // 2 + 1)))
        assert ArrivalInstance.from_counts((top - 1, 0, 1)).job_count == top
        with pytest.raises(ValueError, match=f"^job count must be at most {top}, "
                                             f"got {top + 1}$"):
            ArrivalInstance.from_counts((top, 0, 1))
        # the line loop names the line where the total passes the bound
        assert ArrivalInstance.from_text(f"1 {top}\n").total_work == top
        for lineno, body in ((2, f"1 {top}\n2 1\n"), (4, f"1 {top}\n# note\n\n2 1\n")):
            with pytest.raises(ValueError, match=f"^line {lineno}: total work must be at "
                                                 f"most {top}, got {top + 1} by this line$"):
                ArrivalInstance.from_text(body)
        # the one-pass reader refuses the whole text's total
        lines = [f"{1 + i % 300} {top // 400}" for i in range(400)]
        text = "\n".join(lines) + "\n"
        assert core._instance_text_columns(text) is not None
        assert ArrivalInstance.from_text(text).total_work == top
        lines[250] = f"7 {top // 400 + 1}"
        text = "\n".join(lines) + "\n"
        assert core._instance_text_columns(text) is not None
        with pytest.raises(ValueError, match=f"^total work must be at most {top}, "
                                             f"got {top + 1}$"):
            ArrivalInstance.from_text(text)

    def test_slot_past_the_maximum_names_its_line(self):
        with pytest.raises(ValueError, match=f"at most {core.MAX_SLOT}, got"):
            ArrivalInstance(((1, 1), (core.MAX_SLOT + 1, 1)))
        lines = [f"{1 + i % 300} {1 + i % 5}" for i in range(400)]
        lines[250] = "999999999999999999 1"  # 18 digits: the one-pass reader's width
        with pytest.raises(ValueError, match="^line 251: arrival slot must be at most"):
            ArrivalInstance.from_text("\n".join(lines) + "\n")

    @settings(max_examples=300, deadline=None)
    @given(records=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3)), max_size=8),
           name=st.sampled_from(["", "a\u20282 2", "b\x85c"]),
           edits=st.lists(st.tuples(st.sampled_from(INSTANCE_EDITS), st.integers(0, 10**6),
                                    st.integers(0, 3)), max_size=3),
           final_newline=st.booleans())
    # a slot of 0, a 19-digit size, a line break in the header comment
    @example(records=[(1, 1), (2, 1)], name="", edits=[("token", 0, 0)],
             final_newline=True)
    @example(records=[(1, 1), (2, 1)], name="", edits=[("token", 6, 1)],
             final_newline=True)
    @example(records=[(1, 1)], name="a\u20282 2", edits=[], final_newline=True)
    @example(records=[(1, 1)], name="", edits=[("token", 6, 0)], final_newline=False)
    def test_mutated_instance_text_reads_as_the_line_loop(self, records, name, edits,
                                                          final_newline):
        text = ArrivalInstance(tuple(records), name=name).to_text()
        lines = text[:-1].split("\n")  # the header comment stays one line
        for kind, where, k in edits:
            lines = edit_instance_lines(lines, kind, where, k)
        text = "\n".join(lines) + ("\n" if final_newline else "")
        if not (name or edits):  # to_text output, header comment and all
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "_BULK_MIN_VALUES", 0)
                assert (core._instance_text_columns(text) is None) == (not records)
        read = []
        for fast in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "_BULK_MIN_VALUES", 0)  # however small the text
                if not fast:
                    patch.setattr(core, "_instance_text_columns", lambda text: None)
                try:
                    read.append(ArrivalInstance.from_text(text, name="x"))
                except ValueError as exc:
                    read.append(f"{type(exc).__name__}: {exc}")
        assert read[0] == read[1]


class TestCostModel:
    def test_parse(self):
        model = CostModel.parse("quad:alpha=2,theta=0.5")
        assert model.switching is SwitchingKind.QUADRATIC
        assert model.alpha == 2 and model.theta == 0.5
        assert CostModel.parse("linear:alpha=1").transition_cost(1, 4) == 3

    @pytest.mark.parametrize("form", SPEC_FORMS)
    def test_parse_forms(self, form):
        assert CostModel.parse(spec_text(form, "quad", "alpha", "2.5")) == \
            CostModel.quadratic(2.5)

    @pytest.mark.parametrize("form", EMPTY_SPEC_FORMS)
    def test_parse_empty_parameter_list(self, form):
        assert CostModel.parse(spec_text(form, "linear", "alpha")) == \
            CostModel.linear(1.0)

    @pytest.mark.parametrize("form, needle", MALFORMED_SPECS)
    def test_parse_malformed(self, form, needle):
        with pytest.raises(ValueError, match="cost-model") as err:
            CostModel.parse(spec_text(form, "quad", "alpha", "2"))
        assert spec_text(needle, "quad", "alpha") in str(err.value)

    def test_invalid(self):
        with pytest.raises(ValueError):
            CostModel.quadratic(0)
        with pytest.raises(ValueError):
            CostModel.linear(1, theta=-1)
        with pytest.raises(ValueError):
            CostModel.parse("cubic:alpha=1")
        for alpha in (math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                CostModel.quadratic(alpha)


class TestCostOfTrace:
    def test_two_jobs_two_slots_quadratic(self):
        # n=(2,1), transitions 0->1, 1->1, 1->0
        trace = ScheduleTrace((2, 1), (1, 1))
        b = cost_of_trace(trace, CostModel.quadratic(2))
        assert (b.flow_time, b.switching_cost, b.total) == (3, 2, 7)

    def test_empty(self):
        b = cost_of_trace(ScheduleTrace((), ()), CostModel.linear(1))
        assert b.flow_time == 0 and b.total == 0

    def test_two_jobs_one_slot_linear(self):
        trace = ScheduleTrace((2,), (2,))
        b = cost_of_trace(trace, CostModel.linear(1))
        assert (b.flow_time, b.switching_cost, b.total) == (2, 4, 6)

    def test_energy_term(self):
        trace = ScheduleTrace((2, 1), (1, 1))
        b = cost_of_trace(trace, CostModel.quadratic(2, theta=0.25))
        assert b.energy_cost == 0.5
        assert b.total == b.flow_time + b.alpha * b.switching_cost + b.energy_cost

    def test_rejects_broken_slot(self):
        for trace, violation in ((served_trace([(1, 2, (0,))]), "s_le_n"),
                                 (ScheduleTrace((-1,), (0,)), "negative_occupancy")):
            with pytest.raises(TraceValidationError) as err:
                cost_of_trace(trace, CostModel.linear(1))
            assert err.value.violation == violation
            assert err.value.slot == 1

    def test_json_keys(self):
        b = cost_of_trace(ScheduleTrace((1,), (1,)), CostModel.linear(2))
        payload = b.to_json_dict()
        # the order run prints them in
        assert list(payload) == ["flow_time", "switching_cost", "energy_cost",
                                 "total", "alpha", "switching_kind"]
        assert payload["switching_kind"] == "linear"

    def test_identity_permutation_invariance(self):
        # same-size jobs swapped: identical cost
        inst = ArrivalInstance(((1, 1), (1, 1), (2, 1)))
        model = CostModel.quadratic(1)
        a = served_trace([(2, 1, (0,)), (2, 2, (1, 2))])
        b = served_trace([(2, 1, (1,)), (2, 2, (0, 2))])
        assert validate_trace(inst, a).ok and validate_trace(inst, b).ok
        assert cost_of_trace(a, model) == cost_of_trace(b, model)


class TestValidateTrace:
    def test_valid_single_job(self):
        inst = batch(1)
        trace = served_trace([(1, 1, (0,))])
        assert validate_trace(inst, trace).ok

    def test_service_before_arrival_is_work_neutrality(self):
        inst = ArrivalInstance(((2, 1),))
        trace = served_trace([(0, 1, (0,)), (1, 0, ())])
        result = validate_trace(inst, trace)
        assert (result.violation, result.slot) == ("work_neutrality", 1)

    def test_more_servers_than_jobs(self):
        trace = served_trace([(2, 3, (0, 1))])
        result = validate_trace(batch(2), trace)
        assert (result.violation, result.slot) == ("s_le_n", 1)

    def test_incomplete_job(self):
        inst = ArrivalInstance(((1, 2),))
        trace = served_trace([(1, 1, (0,))])
        result = validate_trace(inst, trace)
        assert result.violation == "incomplete_job"
        assert result.job_id == 0

    def test_occupancy_mismatch(self):
        trace = served_trace([(3, 1, (0,)), (1, 1, (1,))])
        result = validate_trace(batch(2), trace)
        assert (result.violation, result.slot) == ("occupancy_mismatch", 1)

    def test_empty_instance_in_both_forms(self):
        # the served form's array pass meets no id at all
        empty = ArrivalInstance.from_counts(())
        for trace in (served_trace([]), served_trace([(0, 0, ())]),
                      ScheduleTrace((), ()), ScheduleTrace((0,), (0,))):
            assert validate_trace(empty, trace) == \
                core._validate_reference(empty, trace) == ValidationResult(True)
        assert core._columns_valid(empty, served_trace([(0, 0, ())]))

    def test_flow_at_least_total_work(self, small_corpus):
        # each unit of work holds its job for at least one slot
        model = CostModel.linear(1)
        for inst in small_corpus:
            trace = simulate(inst, QuadAlg(alpha=1.0))
            assert validate_trace(inst, trace).ok
            assert cost_of_trace(trace, model).flow_time >= inst.total_work

    def test_quadratic_vs_linear_switching(self, small_corpus):
        for inst in small_corpus[:12]:
            trace = simulate(inst, FullParallel())
            lin = cost_of_trace(trace, CostModel.linear(1)).switching_cost
            quad = cost_of_trace(trace, CostModel.quadratic(1)).switching_cost
            assert quad >= lin
        # unit steps only: both kinds agree
        inst = ArrivalInstance(((1, 1), (2, 1), (3, 1)))
        trace = simulate(inst, FullParallel())
        assert all(abs(b - a) <= 1 for a, b in
                   zip((0,) + trace.s, trace.s + (0,)))
        assert cost_of_trace(trace, CostModel.linear(1)).switching_cost == \
            cost_of_trace(trace, CostModel.quadratic(1)).switching_cost


def corrupted_traces(instances, seed=99):
    """(instance, kind, trace): one seeded corruption of each QuadAlg trace."""
    import random as _random

    rng = _random.Random(seed)
    for inst in instances:
        trace = simulate(inst, QuadAlg(alpha=1.0))
        if not trace.slots:
            continue
        idx = rng.randrange(len(trace.slots))
        rec = trace.slots[idx]
        kind = rng.choice(["bump_s", "bump_n", "drop_served"])
        rows = rows_of(trace.slots)
        if kind == "bump_s":
            rows[idx] = (rec.n, rec.s + 1, rec.served)
        elif kind == "bump_n":
            rows[idx] = (rec.n + 1, rec.s, rec.served)
        else:
            if not rec.served:
                continue
            rows[idx] = (rec.n, rec.s, list(rec.served)[1:])
        yield inst, kind, served_trace(rows)


class TestValidatorFuzz:
    def test_random_corruptions_are_caught(self, small_corpus):
        for inst in small_corpus[:20]:
            assert validate_trace(inst, simulate(inst, QuadAlg(alpha=1.0))).ok
        caught = 0
        for inst, kind, broken in corrupted_traces(small_corpus[:20]):
            assert not validate_trace(inst, broken).ok, kind
            caught += 1
        assert caught >= 15


class TestTraceCsv:
    def test_round_trip(self):
        unit = random_slotted(3.0, 8, 2)
        for trace in (simulate(ArrivalInstance(((1, 2), (2, 1))), QuadAlg(alpha=1.0)),
                      simulate(unit, Lg(alpha=2.0)),
                      dp_opt(unit, CostModel.linear(2.0))[1]):
            again = ScheduleTrace.from_csv(trace.to_csv())
            assert again == trace
            assert again.slots == trace.slots
            assert departures(again) == departures(trace)
            # other n, other s; the slot view against a non-sequence
            assert again != ScheduleTrace(trace.n[:-1] + (1,), trace.s)
            assert again != ScheduleTrace(trace.n, trace.s[:-1] + (1,))
            assert again.slots.__eq__(len(trace.s)) is NotImplemented
            assert again.slots != len(trace.s)

    def test_bad_header(self):
        with pytest.raises(ValueError):
            ScheduleTrace.from_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("t_column, row", [
        ((1, 3), 2), ((2, 3), 1), ((1, 1), 2), ((1, 2, 2, 5), 3)])
    def test_t_must_count_from_one(self, t_column, row):
        body = "".join(f"{t},0,0,\n" for t in t_column)
        with pytest.raises(ValueError, match=f"row {row} has t={t_column[row - 1]}"):
            ScheduleTrace.from_csv("t,n,s,served_ids\n" + body)


# The trace CSV reader and writer as they were when every trace kept one
# SlotRecord and frozenset per slot: the references for the columnar ones.
# The reader returns what such a trace held: its records and departures.
def reader_by_records(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split(",")[:3] != ["t", "n", "s"]:
        raise ValueError("trace CSV must start with header 't,n,s,served_ids'")
    slots = []
    last_served = {}
    for ln in lines[1:]:
        t_s, n_s, s_s, ids = (ln.split(",", 3) + [""])[:4]
        served = frozenset(int(x) for x in ids.split(";") if x != "")
        rec = SlotRecord(int(t_s), int(n_s), int(s_s), served)
        for j in served:
            last_served[j] = rec.t
        slots.append(rec)
    return SimpleNamespace(slots=slots, departures=last_served,
                           complete_records=True)


def writer_by_records(trace):
    lines = ["t,n,s,served_ids"]
    for rec in trace.slots:
        ids = ";".join(str(j) for j in sorted(rec.served))
        lines.append(f"{rec.t},{rec.n},{rec.s},{ids}")
    return "\n".join(lines) + "\n"


def mixed_instances(count=40, seed=7):
    """Seeded general-size instances: at most 8 jobs of size 1..4 over 6 slots."""
    rng = random.Random(seed)
    return [ArrivalInstance(tuple(sorted(
        (rng.randint(1, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 8)))),
        name=f"mixed-{seed}-{i}") for i in range(count)]


COLUMNAR_POLICIES = (FullParallel(), QuadAlg(alpha=2.0, beta=2.0),
                     BalanceDelta(alpha=2.0), Lg(alpha=2.0))


def recorded_traces(unit_instances):
    """(instance, trace) for every trace kind the lab writes and validates:
    unit-engine, SRPT-engine and dp_opt traces, each also read back from
    its CSV and rebuilt from its slots as served columns."""
    instances = list(unit_instances) + mixed_instances() + \
        [random_slotted(20.0, 60, 3), ArrivalInstance(((1, 3),) * 30 + ((9, 2),) * 20)]
    for inst in instances:
        traces = [simulate(inst, policy) for policy in COLUMNAR_POLICIES]
        if inst.all_unit and inst.job_count <= 60:
            traces.append(dp_opt(inst, CostModel.quadratic(2.0))[1])
        for trace in traces:
            yield inst, trace
            yield inst, ScheduleTrace.from_csv(trace.to_csv())
            yield inst, served_trace(rows_of(trace.slots))


CSV_INSTANCES = (batch(3), ArrivalInstance.from_counts((2, 0, 3, 1)),
                 random_slotted(3.0, 6, 11),
                 ArrivalInstance(((1, 2), (1, 1), (2, 3), (4, 1), (4, 2))))
# applied in this order, so that rows are cut short and dropped last
CSV_EDITS = ("duplicate_id", "reverse_ids", "shift_t", "repeat_t", "negative_id",
             "unknown_id", "move_last_id", "empty_item", "bump_n", "bump_s",
             "non_integer", "odd_token", "misplaced_comma", "short_row", "truncate")
# Tokens ``int`` reads that the whole-text reader must leave to the line
# readers, or (leading zeros) read as ``int`` does: a sign, a space, an
# underscore, a non-ASCII digit, and ids of 19 and 20 digits.
ODD_TOKENS = ("+5", " 5", "1_0", "\u0663", "007", str(10**18), str(2**64))


def edit_rows(rows, kind, where, k, jobs):
    """One edit of the split CSV body rows [t, n, s, ids]."""
    if not rows:
        return rows
    i = where % len(rows)
    if kind == "truncate":
        return rows[:i]
    row = rows[i] = list(rows[i])
    if len(row) < 4:  # already cut short
        return rows
    ids = row[3].split(";") if row[3] else []
    if kind == "short_row":
        rows[i] = row[:1 + where % 3]
    elif kind == "shift_t":
        row[0] = str(int(row[0]) + k)
    elif kind == "repeat_t" and i:
        row[0] = rows[i - 1][0]
    elif kind == "bump_n":
        row[1] = str(int(row[1]) + k)
    elif kind == "bump_s":
        row[2] = str(int(row[2]) + k)
    elif kind == "non_integer":  # one t, n, s or id token
        bad = "x" if where % 2 else "1.5"
        if k % 4 < 3:
            row[k % 4] = bad
        elif ids:
            ids[where // 2 % len(ids)] = bad
        else:
            ids = [bad]
    elif kind == "odd_token":  # one t, n, s or id token
        token = ODD_TOKENS[where // 3 % len(ODD_TOKENS)]
        if k % 2 == 0:
            row[where % 3] = token
        elif ids:
            ids[where // 2 % len(ids)] = token
        else:
            ids = [token]
    elif kind == "misplaced_comma" and ids:  # 't,n;s,id,id;id': three commas
        row[1:3] = [f"{row[1]};{row[2]}", ids.pop(0)]
    elif kind == "move_last_id" and ids and i + 1 < len(rows):
        later = rows[i + 1 + abs(k) % (len(rows) - i - 1)]
        later[3] = ";".join(([later[3]] if later[3] else []) + [ids.pop()])
    else:
        extra = {"duplicate_id": ids[:1], "negative_id": [str(-1 - abs(k))],
                 "unknown_id": [str(jobs + abs(k))], "empty_item": [""]}
        ids = ids[::-1] if kind == "reverse_ids" else ids + extra.get(kind, [])
    if kind != "short_row":
        row[3] = ";".join(ids)
    return rows


FIFO_CSV = "t,n,s,served_ids\n1,2,2,0;1\n2,0,0,\n3,3,3,2;3;4\n4,1,1,5\n"
# (old, new) edits of FIFO_CSV: each breaks one condition of the FIFO form,
# that every row serve s ids and that the ids count 0..S(T)-1 in order
NEAR_FIFO = {
    "id_moved_to_the_next_row": ("2;3;4\n4,1,1,5", "2;3\n4,1,1,4;5"),
    "id_duplicated": ("4,1,1,5", "4,1,1,4"),
    "ids_shifted_by_one": ("0;1\n2,0,0,\n3,3,3,2;3;4\n4,1,1,5",
                           "1;2\n2,0,0,\n3,3,3,3;4;5\n4,1,1,6"),
    "idle_row_with_s_1": ("2,0,0,", "2,0,1,"),
}


class TestColumnarTraces:
    def test_writer_and_reader_match_the_record_forms(self, corpus):
        for inst, trace in recorded_traces(corpus[:80]):
            assert_round_trip_as_the_record_forms(inst, trace)

    def test_bulk_writer_and_reader_match_the_record_forms(self, corpus, monkeypatch):
        monkeypatch.setattr(core, "_BULK_MIN_VALUES", 0)  # however small the trace
        for inst, trace in recorded_traces(corpus[:80]):
            assert_round_trip_as_the_record_forms(inst, trace)

    def test_array_pass_alone_accepts_every_recorded_trace(self, corpus, monkeypatch):
        def refuse(instance, trace):
            raise AssertionError("validate_trace fell back to the per-slot loop")

        monkeypatch.setattr(core, "_validate_reference", refuse)
        for inst, trace in recorded_traces(corpus):
            assert validate_trace(inst, trace) == ValidationResult(True), inst.name

    def test_audit_path_builds_no_slot_records(self, monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("a per-slot record was built")

        monkeypatch.setattr(core, "SlotRecord", refuse)
        monkeypatch.setattr(core, "frozenset", refuse, raising=False)
        path = tmp_path / "mixed.txt"
        path.write_text("".join(f"{t} {w}\n" for t, w in sorted(
            (1 + i % 7, 1 + i % 3) for i in range(40))))
        for k, spec in enumerate((str(path), "random:rate=4,T=30,seed=2")):
            out = tmp_path / f"out{k}"
            out.mkdir()
            assert cli.main(["run", "--instance", spec, "--model", "quad:alpha=2",
                             "--policy", "quad_alg:beta=2", "--out-dir",
                             str(out)]) == 0
            inst = cli._load_instance(spec)
            for name in os.listdir(out):
                trace = ScheduleTrace.from_csv((out / name).read_text())
                assert validate_trace(inst, trace).ok
                cost_of_trace(trace, CostModel.quadratic(2.0))

    @pytest.mark.parametrize("ids", [(0, 1.0), (0, 1.5), (1.0, 0), (False, True),
                                     (True, False)],
                             ids=["float-one", "float-fraction", "float-first",
                                  "bools", "bools-reversed"])
    def test_float_or_bool_ids_are_not_shown_valid(self, ids):
        # numpy's dtype discovery makes these columns float64 or bool, which
        # the array pass declines; an int64 dtype would silently turn each
        # into the valid (0, 1) or (1, 0)
        inst = ArrivalInstance(((1, 1), (1, 1)))
        trace = served_trace([(2, 1, ids[:1]), (1, 1, ids[1:])])
        assert core._columns_valid(inst, trace) is False
        as_ints = tuple(map(int, ids))
        assert core._columns_valid(inst, served_trace([(2, 1, as_ints[:1]),
                                                       (1, 1, as_ints[1:])]))

    @pytest.mark.parametrize("bad", [1.0, 1.5, "1"], ids=["float-one", "fraction", "str"])
    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    def test_non_int_ids_are_unknown_jobs(self, bad, first):
        # the reference loop names the slot and the id of a served id that is
        # not an int, where 1.0 used to index the job list and raise TypeError
        ids = (bad, 0) if first else (0, bad)
        trace = served_trace([(2, 1, ids[:1]), (1, 1, ids[1:])])
        result = validate_trace(ArrivalInstance(((1, 1), (1, 1))), trace)
        assert (result.ok, result.violation) == (False, "unknown_job")
        assert (result.slot, result.job_id) == (1 if first else 2, bad)
        assert repr(bad) in result.message

    @pytest.mark.parametrize("index", [
        slice(None, 1), slice(1, None), slice(-2, None), slice(None, -1),
        slice(None, None, 2), slice(None, None, -1), slice(-1, 0, -2),
        slice(5, 9), slice(3, 1)], ids=str)
    def test_slot_view_slices_as_a_tuple(self, index):
        unit = ArrivalInstance.from_counts((2, 0, 3, 1))
        traces = (simulate(batch(3), FullParallel()), simulate(unit, Lg(alpha=2.0)),
                  simulate(ArrivalInstance(((1, 2), (1, 1), (2, 3))), QuadAlg(alpha=1.0)),
                  served_trace(rows_of(simulate(unit, FullParallel()).slots)),
                  ScheduleTrace((), ()), served_trace([]))
        for trace in traces:
            got = trace.slots[index]
            assert type(got) is tuple
            assert got == tuple(trace.slots)[index]

    def test_mismatched_columns_are_rejected(self):
        with pytest.raises(ValueError, match="n and s columns differ"):
            ScheduleTrace((1, 2), (1,))
        with pytest.raises(ValueError, match="served columns and s differ"):
            ScheduleTrace((1, 1), (1, 1), served=core.ServedColumns((0,), (1,)))
        with pytest.raises(ValueError, match="counts do not partition"):
            core.ServedColumns((0,), (2,))

    def test_corruptions_match_the_reference(self, corpus, small_corpus):
        cases = list(corrupted_traces(corpus)) + list(corrupted_traces(small_corpus))
        bulk = simulate(batch(2), FullParallel(), record_served=False)
        cases += [
            (batch(2), "bulk", bulk),
            (ArrivalInstance(((1, 2),)), "repeated_id",
             served_trace([(1, 1, (0,)), (1, 1, (0,))])),
            (ArrivalInstance.from_counts((1, 1)), "served_before_arrival",
             served_trace([(1, 1, (1,)), (1, 1, (0,))])),
            (ArrivalInstance(((1, 2), (1, 1))), "repeated_within_a_slot",
             served_trace([(2, 2, (0, 0)), (1, 1, (1,))])),
        ]
        # slot 2 serves unit job 0 a second time
        two = ArrivalInstance.from_counts((2,))
        overserved = served_trace([(2, 1, (0,)), (1, 1, (0,))])
        cases.append((two, "overservice", overserved))
        for inst, kind, trace in cases:
            expected = core._validate_reference(inst, trace)
            assert validate_trace(inst, trace) == expected, (inst.name, kind)
        assert validate_trace(two, overserved) == ValidationResult(
            False, "overservice", slot=2, job_id=0, message="service beyond job size")

    @settings(max_examples=300, deadline=None)
    @given(case=st.integers(0, 10**6),
           edits=st.lists(st.tuples(st.sampled_from(CSV_EDITS), st.integers(0, 10**6),
                                    st.integers(-2, 3)), min_size=1, max_size=3))
    # a t token of row 1 and an id token of row 4: the row reader meets '1.5' first
    @example(case=2, edits=[("non_integer", 0, 0), ("non_integer", 3, 3)])
    # a 20-digit id, then a non-ASCII digit in an n field
    @example(case=1, edits=[("odd_token", 19, 1), ("odd_token", 10, 0)])
    # 't,n;s,id,id;id' has its three commas, not leading the row
    @example(case=0, edits=[("misplaced_comma", 0, 0)])
    def test_mutated_csv_matches_the_reference(self, case, edits):
        inst = CSV_INSTANCES[case % len(CSV_INSTANCES)]
        policy = COLUMNAR_POLICIES[case // len(CSV_INSTANCES) % len(COLUMNAR_POLICIES)]
        header, *rows = simulate(inst, policy).to_csv().splitlines()
        rows = [row.split(",", 3) for row in rows]
        for kind, where, k in sorted(edits, key=lambda e: CSV_EDITS.index(e[0])):
            rows = edit_rows(rows, kind, where, k, inst.job_count)
        text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
        # these texts are too small for the whole-text reader and the bulk
        # writer: force them
        for bulk_min in (core._BULK_MIN_VALUES, 0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "_BULK_MIN_VALUES", bulk_min)
                assert_read_as_the_reference(inst, text)

    @pytest.mark.parametrize("token", ODD_TOKENS)
    @pytest.mark.parametrize("field", ["t", "n", "s", "id"])
    def test_odd_token_reads_as_the_reference(self, monkeypatch, token, field):
        rows = [["1", "2", "1", "0"], ["2", "1", "1", "1"], ["3", "0", "0", ""]]
        column = "tnsi".index(field[0])
        rows[1][column] = token if field != "id" else f"3;{token}"
        text = "t,n,s,served_ids\n" + "".join(",".join(row) + "\n" for row in rows)
        monkeypatch.setattr(core, "_BULK_MIN_VALUES", 0)
        # declined to the line readers
        assert (core._csv_text_columns(text) is None) == (token != "007")
        assert_read_as_the_reference(ArrivalInstance.from_counts((2,)), text)

    def test_bulk_writer_matches_the_record_form(self, monkeypatch):
        monkeypatch.setattr(core, "_BULK_MIN_VALUES", 0)
        unit = random_slotted(3.0, 8, 2)
        in_bulk = [
            ScheduleTrace((), ()), ScheduleTrace((0, 0, 0), (0, 0, 0)),
            served_trace([]), served_trace([(0, 0, ()), (0, 0, ())]),
            served_trace([(2, 2, (1, 1, 0)), (1, 1, (3, 1))]),  # a repeated id
            served_trace([(1, 1, (-5, 2)), (0, 0, ()), (1, 1, (7,))]),
            served_trace([(2, 2, (10**9 - 1, 10**10 - 1))]),  # 9 and 10 digits
            served_trace([(1, 1, (2**63 - 1,))]),
            ScheduleTrace.from_csv("t,n,s,served_ids\n1,-2,3,0\n2,4,-1,\n3,0,0,1\n"),
            simulate(unit, Lg(alpha=2.0)),
        ] + [dp_opt(inst, CostModel.quadratic(2.0))[1]
             for inst in (unit, batch(5), ArrivalInstance.from_counts((2, 0, 3, 1)))]
        by_rows = [
            served_trace([(1, 1, (2**63,)), (2, 2, (2**64 + 5, 0))]),  # ids past int64
            served_trace([(1, 1, (0,)), (1, 1, (2**62,)), (0, 0, ())]),  # key past int64
            ScheduleTrace.from_csv(f"t,n,s,served_ids\n1,{-2**63},0,\n"),  # no magnitude
            ScheduleTrace((1,), (-1,)),  # a FIFO trace with s < 0 serves no ids
        ]
        for trace in in_bulk:
            assert core._csv_bulk_text(trace) == writer_by_records(trace)
            assert trace.to_csv() == writer_by_records(trace)
        for trace in by_rows:
            assert core._csv_bulk_text(trace) is None
            assert trace.to_csv() == writer_by_records(trace)

    def test_large_traces_round_trip_in_bulk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a large trace went through the row loop")

        rng = random.Random(5)
        mixed = ArrivalInstance(tuple(sorted(
            (rng.randint(1, 1000), rng.randint(1, 5)) for _ in range(3000))))
        traces = [simulate(random_slotted(20.0, 1000, 1), FullParallel()),
                  simulate(mixed, QuadAlg(alpha=2.0, beta=2.0))]
        texts = [writer_by_records(trace) for trace in traces]
        monkeypatch.setattr(core, "_csv_row_text", refuse)
        monkeypatch.setattr(core, "_csv_rows", refuse)
        for trace, text in zip(traces, texts):
            assert trace.to_csv() == text
            again = ScheduleTrace.from_csv(text)
            assert again == trace
            assert again.to_csv() == text
        assert ScheduleTrace.from_csv(texts[0]).served is None  # 20k jobs, FIFO

    @pytest.mark.parametrize("bulk_min", [core._BULK_MIN_VALUES, 0],
                             ids=["by-lines", "whole-text"])
    def test_fifo_traces_read_back_as_fifo(self, monkeypatch, bulk_min):
        monkeypatch.setattr(core, "_BULK_MIN_VALUES", bulk_min)
        units = (random_slotted(3.0, 8, 2), batch(5),
                 ArrivalInstance.from_counts((2, 0, 3, 1)))
        traces = [simulate(inst, policy) for inst in units for policy in COLUMNAR_POLICIES]
        traces += [dp_opt(inst, CostModel.quadratic(2.0))[1] for inst in units]
        for trace in traces:
            text = trace.to_csv()
            again = ScheduleTrace.from_csv(text)
            assert trace.served is None and again.served is None
            assert again == trace
            assert again.to_csv() == text

    @pytest.mark.parametrize("bulk_min", [core._BULK_MIN_VALUES, 0],
                             ids=["by-lines", "whole-text"])
    @pytest.mark.parametrize("kind", sorted(NEAR_FIFO))
    def test_near_fifo_traces_keep_their_served_ids(self, monkeypatch, bulk_min, kind):
        inst = ArrivalInstance.from_counts((2, 0, 3, 1))
        assert simulate(inst, FullParallel()).to_csv() == FIFO_CSV
        monkeypatch.setattr(core, "_BULK_MIN_VALUES", bulk_min)
        text = FIFO_CSV.replace(*NEAR_FIFO[kind])
        assert text != FIFO_CSV
        assert ScheduleTrace.from_csv(text).served is not None
        assert_read_as_the_reference(inst, text)


FIFO_RULES = (FullParallel(), BalanceValue(alpha=2.0), BalanceDelta(alpha=2.0),
              SqrtOnline(alpha=2.0), Lg(alpha=2.0), GammaPolicy(alpha=2.0, gamma=0.25),
              QuadAlg(alpha=2.0, beta=2.177), QuadBalance(alpha=2.0))
FIFO_INSTANCES = (batch(3), ArrivalInstance.from_counts((2, 0, 3, 1)),
                  ArrivalInstance.from_counts((0, 1, 0, 0, 2)),
                  random_slotted(3.0, 6, 11))
# the FIFO traces of the eight rules and dp_opt
FIFO_TRACES = [(inst, trace) for inst in FIFO_INSTANCES for trace in
               [simulate(inst, rule) for rule in FIFO_RULES]
               + [dp_opt(inst, CostModel.quadratic(2.0))[1]]]
# applied in this order, so that the horizon is cut last; "defer" and
# "advance" move one job's service a slot later or earlier and keep n
# consistent, so each breaks at most s >= 0 or s <= n
FIFO_EDITS = ("defer", "advance", "n_up", "n_down", "s_above_n", "s_negative",
              "missing_job", "non_int", "truncate")


def edit_fifo(trace, kind, where):
    """The trace with one column edit at slot ``where`` (mod T)."""
    n, s = list(trace.n), list(trace.s)
    if not s:
        return trace
    i = where % len(s)
    if kind in ("defer", "advance") and i + 1 < len(s):
        step = 1 if kind == "defer" else -1
        s[i] -= step
        s[i + 1] += step
        n[i + 1] += step
    elif kind == "n_up":
        n[i] += 1
    elif kind == "n_down":
        n[i] -= 1
    elif kind == "s_above_n":
        s[i] = n[i] + 1
    elif kind == "s_negative":
        s[i] = -1
    elif kind == "missing_job":  # the last serving slot serves one job less
        s[max((t for t, s_t in enumerate(s) if s_t), default=i)] -= 1
    elif kind == "non_int":
        column = n if where % 2 else s
        column[i] = (float, bool, np.int64)[where % 3](column[i])
    elif kind == "truncate":
        del n[i:], s[i:]
    return ScheduleTrace(n, s)


def verdict(check, inst, trace):
    """What ``check`` returns, or the class of what it raises: the per-slot
    loop raises TypeError on a served count that is not an int."""
    try:
        return check(inst, trace)
    except TypeError as exc:
        return type(exc)


class TestFifoValidation:
    """``_fifo_unit_valid``'s running sums against the per-slot loop."""

    def test_fifo_traces_pass_the_running_sums(self, monkeypatch):
        def refuse(instance, trace):
            raise AssertionError("validate_trace fell back to the per-slot loop")

        for inst, trace in FIFO_TRACES:
            assert trace.served is None
            assert core._validate_reference(inst, trace).ok, inst.name
        monkeypatch.setattr(core, "_validate_reference", refuse)
        for inst, trace in FIFO_TRACES:
            assert validate_trace(inst, trace).ok, inst.name

    @settings(max_examples=300, deadline=None)
    @given(case=st.integers(0, 10**6),
           edits=st.lists(st.tuples(st.sampled_from(FIFO_EDITS), st.integers(0, 10**6)),
                          min_size=1, max_size=3))
    # a float s, which the per-slot loop cannot take; a bool s, which it can
    @example(case=0, edits=[("non_int", 0)])
    @example(case=0, edits=[("non_int", 4)])
    # FullParallel on counts (2, 0, 3, 1) gives n = s = (2, 0, 3, 1); then
    # s = (2, -1, 4, 1) and s = (2, 0, 4, 0) with n kept consistent
    @example(case=9, edits=[("defer", 1)])
    @example(case=9, edits=[("advance", 2)])
    def test_mutated_columns_match_the_reference(self, case, edits):
        inst, trace = FIFO_TRACES[case % len(FIFO_TRACES)]
        for kind, where in sorted(edits, key=lambda e: FIFO_EDITS.index(e[0])):
            trace = edit_fifo(trace, kind, where)
        expected = verdict(core._validate_reference, inst, trace)
        assert verdict(validate_trace, inst, trace) == expected
        if core._columns_valid(inst, trace):
            assert expected == ValidationResult(True)

    def test_sized_instances_get_the_reference_verdict(self):
        """A FIFO trace serves each id once, so no instance with a job of
        size 2 or more accepts it, though its running sums may match."""
        inst = ArrivalInstance(((1, 2), (1, 1), (2, 1)))
        assert validate_trace(inst, ScheduleTrace((2, 1), (2, 1))) == \
            ValidationResult(False, "occupancy_mismatch", slot=2,
                             message="recorded n=1, actual 2")
        for unit, trace in FIFO_TRACES:
            jobs = unit.job_count
            columns = [trace] + [edit_fifo(trace, kind, where) for kind in FIFO_EDITS
                                 for where in (0, jobs // 2)]
            for big in (0, jobs // 2, jobs - 1):
                sized = ArrivalInstance(tuple(
                    (slot, 2 if j == big else 1)
                    for j, (slot, _) in enumerate(unit.arrivals)))
                assert sized.slot_counts == unit.slot_counts
                for fifo in columns:
                    expected = verdict(core._validate_reference, sized, fifo)
                    assert verdict(validate_trace, sized, fifo) == expected
                    assert expected != ValidationResult(True)


def assert_round_trip_as_the_record_forms(inst, trace):
    text = trace.to_csv()
    assert text == writer_by_records(trace), inst.name
    again, old = ScheduleTrace.from_csv(text), reader_by_records(text)
    assert again == served_trace(rows_of(old.slots))
    assert list(again.slots) == old.slots == list(trace.slots), inst.name
    assert departures(again) == old.departures == departures(trace)
    assert again.last_slot == len(old.slots) == len(trace.s)
    assert again.to_csv() == text


def assert_read_as_the_reference(inst, text):
    """``from_csv`` gives the trace, or the ValueError text, that the
    record reader gives; its writer and validation agree too."""
    try:
        old = reader_by_records(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            ScheduleTrace.from_csv(text)
        assert str(err.value) == str(exc)
        return
    misnumbered = [row for row, rec in enumerate(old.slots, start=1)
                   if rec.t != row]
    if misnumbered:  # the t column must count 1..T
        row = misnumbered[0]
        with pytest.raises(ValueError, match=f"row {row} has t="):
            ScheduleTrace.from_csv(text)
        return
    new = ScheduleTrace.from_csv(text)
    assert new == served_trace(rows_of(old.slots))
    assert (list(new.slots), departures(new), new.last_slot) == \
        (old.slots, old.departures, len(old.slots))
    assert new.to_csv() == writer_by_records(old)
    # the per-slot loop over the records the old reader built
    expected = core._validate_reference(inst, old)
    assert core._validate_reference(inst, new) == expected
    assert validate_trace(inst, new) == expected


# (entry point, parameter, call with that parameter set to the value)
INPUT_CHECKS = [
    ("analytic_cost", "alpha", lambda v: analytic_cost(1.0, v, alg1())),
    ("simulate_ctmc", "alpha",
     lambda v: simulate_ctmc(1.0, v, alg1(), event_budget=1000)),
    ("alg3_analytic_cost", "alpha",
     lambda v: alg3_analytic_cost(10.0, v, Alg3Params.from_rates(10.0))),
    ("simulate_alg3", "alpha",
     lambda v: simulate_alg3(10.0, v, Alg3Params.from_rates(10.0), event_budget=1000)),
    ("convex_batch_solve", "n", lambda v: convex_batch_solve(v, 3)),
    ("convex_batch_solve", "alpha", lambda v: convex_batch_solve(3.0, 3, alpha=v)),
    ("batch_quad_horizon_search", "n", lambda v: batch_quad_horizon_search(v, 1.0)),
    ("batch_quad_horizon_search", "alpha",
     lambda v: batch_quad_horizon_search(3.0, v)),
    ("batch_quad_continuous", "n", lambda v: batch_quad_continuous(v, 3)),
]

# the exceptions that are not input errors, so not ValueErrors
NOT_INPUT_ERRORS = {"oracle.DpBudgetError", "oracle.ConvexSolverError",
                    "cli._UsageError", "cli._GridLimitError"}


class TestInputChecks:
    @pytest.mark.parametrize("entry, param, call, value", [
        pytest.param(entry, param, call, value, id=f"{entry}-{param}-{value:g}")
        for entry, param, call in INPUT_CHECKS
        for value in (math.nan, math.inf, 0.0, -1.0)
        if not (param == "n" and value == 0.0)  # n = 0 is the empty batch
    ])
    def test_entry_point_rejects_bad_value(self, entry, param, call, value):
        with pytest.raises(ValueError,
                           match=rf"^{param} must be \w+ and finite, got {value}$"):
            call(value)

    def test_every_input_error_is_a_value_error(self):
        """cli.main turns every ValueError into exit 2, so an exception
        class outside that family must be named here on purpose."""
        found = {}
        for info in pkgutil.iter_modules(flowswitch.__path__):
            module = importlib.import_module(f"flowswitch.{info.name}")
            for name, cls in inspect.getmembers(module, inspect.isclass):
                if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                    found[f"{info.name}.{name}"] = cls
        assert NOT_INPUT_ERRORS <= found.keys()
        assert [name for name, cls in found.items() if name not in NOT_INPUT_ERRORS
                and not issubclass(cls, ValueError)] == []
