import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowswitch import ArrivalInstance, validate_trace, simulate
from flowswitch.instances import (GeneratorKind, GeneratorSpec, batch,
                                  parse_instance_spec, periodic,
                                  random_slotted, sigma1, sigma2)
from flowswitch.policies import FullParallel

from conftest import EMPTY_SPEC_FORMS, MALFORMED_SPECS, SPEC_FORMS, spec_text


class TestGenerators:
    def test_batch(self):
        assert batch(1).arrivals == ((1, 1),)
        assert batch(100).job_count == 100
        assert batch(0).arrivals == ()
        assert batch(3, size=2).total_work == 6

    def test_periodic(self):
        inst = periodic(2, 1)
        assert inst.arrivals == ((2, 1), (2, 1))
        assert periodic(4, 3).job_count == 12
        assert periodic(4, 0).arrivals == ()
        with pytest.raises(ValueError):
            periodic(3, 2)

    def test_sigma_families(self):
        assert sigma1(5).arrivals == tuple((1, 1) for _ in range(5))
        assert sigma2(3, 4).job_count == 12
        assert sigma2(6, 1).arrivals == sigma1(6).arrivals
        assert sigma2(0, 3).arrivals == ()
        with pytest.raises(ValueError, match="n_jobs must be nonnegative"):
            sigma2(-2, 3)

    def test_random_slotted_determinism(self):
        one = random_slotted(5.0, 50, seed=9)
        two = random_slotted(5.0, 50, seed=9)
        other = random_slotted(5.0, 50, seed=10)
        assert one.arrivals == two.arrivals
        assert one.arrivals != other.arrivals
        with pytest.raises(ValueError,
                           match="seed must be a nonnegative integer, got -1"):
            random_slotted(5.0, 50, seed=-1)

    def test_random_slotted_mean_load(self):
        rate, horizon = 5.0, 1000
        means = [random_slotted(rate, horizon, seed).job_count / horizon
                 for seed in range(20)]
        assert abs(statistics.mean(means) - rate) < 0.5
        assert random_slotted(rate, 0, seed=1).arrivals == ()

    def test_generated_instances_simulate_cleanly(self):
        for inst in (batch(4), periodic(2, 3), sigma2(2, 3),
                     random_slotted(2.0, 10, seed=0)):
            trace = simulate(inst, FullParallel())
            assert validate_trace(inst, trace).ok


    def test_count_built_generators_equal_record_built(self):
        # each generator against the per-job record construction it replaces
        rate, horizon, seed = 3.0, 40, 5
        counts = np.random.default_rng(seed).poisson(rate, horizon)
        records = tuple((t, 1) for t, c in enumerate(counts, start=1)
                        for _ in range(int(c)))
        cases = [
            (random_slotted(rate, horizon, seed), records,
             "random(rate=3,T=40,seed=5)"),
            (batch(4), ((1, 1),) * 4, "batch(N=4,w=1)"),
            (sigma1(3), ((1, 1),) * 3, "sigma1(N=3)"),
            (sigma2(2, 3), tuple((t, 1) for t in (1, 1, 2, 2, 3, 3)),
             "sigma2(N=2,T=3)"),
            (periodic(2, 2), ((2, 1), (2, 1), (4, 1), (4, 1)),
             "periodic(x=2,k=2)"),
        ]
        for inst, arrivals, name in cases:
            assert inst == ArrivalInstance(arrivals, name=name)
            assert inst.instance_id == name


class TestParseSpec:
    def test_known_kinds(self):
        assert parse_instance_spec("batch:N=4").arrivals == batch(4).arrivals
        assert parse_instance_spec("periodic:x=4,k=2").job_count == 8
        assert parse_instance_spec("sigma2:N=3,T=2").job_count == 6
        assert parse_instance_spec("random:rate=2,T=5,seed=3").arrivals == \
            random_slotted(2.0, 5, 3).arrivals

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_instance_spec("nope:N=1")
        with pytest.raises(ValueError):
            parse_instance_spec("batch")
        with pytest.raises(ValueError):
            parse_instance_spec("batch:N=1.5")

    def test_random_requires_seed(self):
        with pytest.raises(ValueError):
            parse_instance_spec("random:rate=2,T=5")

    @pytest.mark.parametrize("form", SPEC_FORMS)
    def test_spec_forms(self, form):
        assert parse_instance_spec(spec_text(form, "sigma1", "n", "3")) == sigma1(3)

    @pytest.mark.parametrize("form", EMPTY_SPEC_FORMS)
    def test_empty_parameter_list(self, form):
        assert GeneratorSpec.parse(spec_text(form, "sigma1", "n")) == \
            GeneratorSpec(GeneratorKind.SIGMA1, {})

    @pytest.mark.parametrize("form, needle", MALFORMED_SPECS)
    def test_malformed_spec(self, form, needle):
        with pytest.raises(ValueError, match="instance") as err:
            parse_instance_spec(spec_text(form, "sigma1", "n", "3"))
        assert spec_text(needle, "sigma1", "n") in str(err.value)

    def test_non_finite_integer_parameter(self):
        for value in ("nan", "inf"):
            with pytest.raises(ValueError, match="parameter 'n' must be an integer"):
                parse_instance_spec(f"batch:N={value}")

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.builds(batch, st.integers(0, 30), st.integers(1, 4)),
        st.builds(periodic, st.integers(1, 5).map(lambda h: 2 * h),
                  st.integers(0, 8)),
        st.builds(sigma1, st.integers(0, 30)),
        st.builds(sigma2, st.integers(0, 6), st.integers(0, 8)),
        st.builds(random_slotted,
                  st.floats(1e-3, 1e3).map(lambda r: float(f"{r:.6g}")),
                  st.integers(0, 30), st.integers(0, 2**40))))
    def test_name_rebuilds_the_instance(self, inst):
        assert parse_instance_spec(inst.name) == inst

    def test_generator_spec_round_trip(self):
        from flowswitch.instances import GeneratorKind, GeneratorSpec
        spec = GeneratorSpec.parse("sigma2:N=3,T=2")
        assert spec.kind is GeneratorKind.SIGMA2
        assert spec.build().job_count == 6
        direct = GeneratorSpec(GeneratorKind.BATCH, {"n": 2})
        assert direct.build().arrivals == batch(2).arrivals
