import math
import os
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowswitch import (ArrivalInstance, CostModel, ScheduleTrace, SlotRecord,
                        SwitchingKind, TraceValidationError, ValidationResult,
                        cli, core, cost_of_trace, dp_opt, simulate,
                        validate_trace)
from flowswitch.instances import batch, random_slotted
from flowswitch.policies import BalanceDelta, FullParallel, Lg, QuadAlg

from conftest import EMPTY_SPEC_FORMS, MALFORMED_SPECS, SPEC_FORMS, spec_text


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
        with pytest.raises(AttributeError):
            ArrivalInstance.from_counts((1,)).name = "renamed"

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
        trace = served_trace([(1, 2, (0,))])
        with pytest.raises(TraceValidationError) as err:
            cost_of_trace(trace, CostModel.linear(1))
        assert err.value.violation == "s_le_n"
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
            assert dict(again.departures) == dict(trace.departures)

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
             "non_integer", "short_row", "truncate")


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


class TestColumnarTraces:
    def test_writer_and_reader_match_the_record_forms(self, corpus):
        for inst, trace in recorded_traces(corpus[:80]):
            text = trace.to_csv()
            assert text == writer_by_records(trace), inst.name
            again, old = ScheduleTrace.from_csv(text), reader_by_records(text)
            assert again == served_trace(rows_of(old.slots))
            assert list(again.slots) == old.slots == list(trace.slots), inst.name
            assert dict(again.departures) == old.departures == \
                dict(trace.departures)
            assert again.last_slot == len(old.slots) == len(trace.s)
            assert again.to_csv() == text

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
    def test_mutated_csv_matches_the_reference(self, case, edits):
        inst = CSV_INSTANCES[case % len(CSV_INSTANCES)]
        policy = COLUMNAR_POLICIES[case // len(CSV_INSTANCES) % len(COLUMNAR_POLICIES)]
        header, *rows = simulate(inst, policy).to_csv().splitlines()
        rows = [row.split(",", 3) for row in rows]
        for kind, where, k in sorted(edits, key=lambda e: CSV_EDITS.index(e[0])):
            rows = edit_rows(rows, kind, where, k, inst.job_count)
        text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
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
        assert (list(new.slots), dict(new.departures), new.last_slot) == \
            (old.slots, old.departures, len(old.slots))
        assert new.to_csv() == writer_by_records(old)
        # the per-slot loop over the records the old reader built
        expected = core._validate_reference(inst, old)
        assert core._validate_reference(inst, new) == expected
        assert validate_trace(inst, new) == expected
