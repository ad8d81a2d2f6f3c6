import json
import math

import pytest

from flowswitch import (ArrivalInstance, CostModel, ScheduleTrace, SlotRecord,
                        SwitchingKind, TraceValidationError, cost_of_trace,
                        simulate, trace_from_server_counts, validate_trace)
from flowswitch.instances import batch
from flowswitch.policies import FullParallel, QuadAlg

from conftest import EMPTY_SPEC_FORMS, MALFORMED_SPECS, SPEC_FORMS, spec_text


def make_trace(records, departures):
    slots = tuple(SlotRecord(t, n, s, frozenset(ids)) for t, n, s, ids in records)
    return ScheduleTrace.from_slots(slots, dict(departures))


class TestArrivalInstance:
    def test_sorted_with_stable_ties(self):
        inst = ArrivalInstance(((3, 2), (1, 1), (3, 5)))
        assert inst.arrivals == ((1, 1), (3, 2), (3, 5))

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ArrivalInstance(((0, 1),))
        with pytest.raises(ValueError):
            ArrivalInstance(((1, 0),))
        with pytest.raises(ValueError):
            ArrivalInstance(((5, 1),), horizon_hint=3)

    def test_aggregates(self):
        inst = ArrivalInstance(((1, 2), (1, 1), (4, 3)))
        assert inst.total_work == 6
        assert inst.last_slot == 4
        assert inst.max_slot_arrivals == 2
        assert not inst.all_unit
        assert inst.work_at(1) == 3

    def test_counts_built_equals_tuple_built(self):
        twin = ArrivalInstance(((3, 1), (1, 1), (1, 1)), name="x")
        inst = ArrivalInstance.from_counts((2, 0, 1, 0, 0), name="x")
        assert inst == twin and twin == inst and hash(inst) == hash(twin)
        assert inst.arrivals == twin.arrivals == ((1, 1), (1, 1), (3, 1))
        assert inst.slot_counts == twin.slot_counts == (2, 0, 1)
        for attr in ("job_count", "total_work", "last_slot", "all_unit",
                     "sizes_equal", "max_slot_arrivals", "instance_id"):
            assert getattr(inst, attr) == getattr(twin, attr), attr
        assert ArrivalInstance.from_counts((2, 0, 1)) == ArrivalInstance(twin.arrivals)
        assert inst != ArrivalInstance.from_counts((2, 0, 1), name="y")
        assert inst != ArrivalInstance.from_counts((2, 1), name="x")
        assert ArrivalInstance.from_counts(()) == ArrivalInstance(())

    def test_from_counts_rejects_bad_counts(self):
        for bad in ((1, -1), (1.5,), (2, 0.5)):
            with pytest.raises(ValueError, match="arrival count"):
                ArrivalInstance.from_counts(bad)
        with pytest.raises(ValueError, match="horizon_hint"):
            ArrivalInstance.from_counts((1, 0, 1), horizon_hint=2)
        with pytest.raises(AttributeError):
            ArrivalInstance.from_counts((1,)).name = "renamed"

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
        trace = trace_from_server_counts(batch(2), [1, 1])
        b = cost_of_trace(trace, CostModel.quadratic(2))
        assert (b.flow_time, b.switching_cost, b.total) == (3, 2, 7)

    def test_empty(self):
        b = cost_of_trace(ScheduleTrace((), ()), CostModel.linear(1))
        assert b.flow_time == 0 and b.total == 0

    def test_two_jobs_one_slot_linear(self):
        trace = trace_from_server_counts(batch(2), [2])
        b = cost_of_trace(trace, CostModel.linear(1))
        assert (b.flow_time, b.switching_cost, b.total) == (2, 4, 6)

    def test_energy_term(self):
        trace = trace_from_server_counts(batch(2), [1, 1])
        b = cost_of_trace(trace, CostModel.quadratic(2, theta=0.25))
        assert b.energy_cost == 0.5
        assert b.total == b.flow_time + b.alpha * b.switching_cost + b.energy_cost

    def test_rejects_broken_slot(self):
        trace = make_trace([(1, 1, 2, (0,))], {0: 1})
        with pytest.raises(TraceValidationError) as err:
            cost_of_trace(trace, CostModel.linear(1))
        assert err.value.violation == "s_le_n"
        assert err.value.slot == 1

    def test_json_keys(self):
        b = cost_of_trace(trace_from_server_counts(batch(1), [1]), CostModel.linear(2))
        payload = json.loads(b.to_json())
        assert set(payload) == {"flow_time", "switching_cost", "energy_cost",
                                "total", "alpha", "switching_kind"}

    def test_identity_permutation_invariance(self):
        # same-size jobs swapped: identical cost
        inst = ArrivalInstance(((1, 1), (1, 1), (2, 1)))
        model = CostModel.quadratic(1)
        a = make_trace([(1, 2, 1, (0,)), (2, 2, 2, (1, 2))], {0: 1, 1: 2, 2: 2})
        b = make_trace([(1, 2, 1, (1,)), (2, 2, 2, (0, 2))], {1: 1, 0: 2, 2: 2})
        assert validate_trace(inst, a).ok and validate_trace(inst, b).ok
        assert cost_of_trace(a, model) == cost_of_trace(b, model)


class TestValidateTrace:
    def test_valid_single_job(self):
        inst = batch(1)
        trace = make_trace([(1, 1, 1, (0,))], {0: 1})
        assert validate_trace(inst, trace).ok

    def test_service_before_arrival_is_work_neutrality(self):
        inst = ArrivalInstance(((2, 1),))
        trace = make_trace([(1, 0, 1, (0,)), (2, 1, 0, ())], {0: 1})
        result = validate_trace(inst, trace)
        assert (result.violation, result.slot) == ("work_neutrality", 1)

    def test_more_servers_than_jobs(self):
        trace = make_trace([(1, 2, 3, (0, 1))], {0: 1, 1: 1})
        result = validate_trace(batch(2), trace)
        assert (result.violation, result.slot) == ("s_le_n", 1)

    def test_incomplete_job(self):
        inst = ArrivalInstance(((1, 2),))
        trace = make_trace([(1, 1, 1, (0,))], {0: 1})
        result = validate_trace(inst, trace)
        assert result.violation == "incomplete_job"
        assert result.job_id == 0

    def test_occupancy_mismatch(self):
        trace = make_trace([(1, 3, 1, (0,)), (2, 1, 1, (1,))], {0: 1, 1: 2})
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
                   zip((0,) + trace.server_counts(), trace.server_counts() + (0,)))
        assert cost_of_trace(trace, CostModel.linear(1)).switching_cost == \
            cost_of_trace(trace, CostModel.quadratic(1)).switching_cost


class TestValidatorFuzz:
    def test_random_corruptions_are_caught(self, small_corpus):
        import random as _random

        rng = _random.Random(99)
        caught = 0
        for inst in small_corpus[:20]:
            trace = simulate(inst, QuadAlg(alpha=1.0))
            assert validate_trace(inst, trace).ok
            if not trace.slots:
                continue
            idx = rng.randrange(len(trace.slots))
            rec = trace.slots[idx]
            kind = rng.choice(["bump_s", "bump_n", "drop_served", "shift_departure"])
            slots = list(trace.slots)
            departures = dict(trace.departures)
            if kind == "bump_s":
                slots[idx] = SlotRecord(rec.t, rec.n, rec.s + 1, rec.served)
            elif kind == "bump_n":
                slots[idx] = SlotRecord(rec.t, rec.n + 1, rec.s, rec.served)
            elif kind == "drop_served":
                if not rec.served:
                    continue
                kept = frozenset(list(rec.served)[1:])
                slots[idx] = SlotRecord(rec.t, rec.n, rec.s, kept)
            else:
                if not departures:
                    continue
                job = rng.choice(sorted(departures))
                departures[job] += 1
            broken = ScheduleTrace.from_slots(slots, departures,
                                              trace.policy_name, trace.instance_id)
            assert not validate_trace(inst, broken).ok, kind
            caught += 1
        assert caught >= 15


class TestTraceCsv:
    def test_round_trip(self):
        trace = simulate(ArrivalInstance(((1, 2), (2, 1))), QuadAlg(alpha=1.0))
        again = ScheduleTrace.from_csv(trace.to_csv())
        assert again.slots == trace.slots
        assert dict(again.departures) == dict(trace.departures)

    def test_bad_header(self):
        with pytest.raises(ValueError):
            ScheduleTrace.from_csv("a,b,c\n1,2,3\n")
