import contextlib
import csv
import io
import json
import math
import os
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowswitch import (NonErgodicError, PolicyFaultError, PolicyStallError,
                        TruncationError, cli)
from flowswitch import CostModel, ScheduleTrace, cost_of_trace, dp_opt
from flowswitch.cli import FIGURE_IDS, main, reproduce_figure
from flowswitch.instances import sigma2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_emits_instance_format(self, capsys, tmp_path):
        path = tmp_path / "inst.txt"
        code, out, _ = run_cli(capsys, "gen", "batch:N=3", "-o", str(path))
        assert code == 0
        lines = [ln for ln in path.read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert lines == ["1 1", "1 1", "1 1"]

    def test_negative_sigma2_jobs(self, capsys):
        code, out, err = run_cli(capsys, "gen", "sigma2:N=-2,T=3")
        assert code == 2
        assert "n_jobs must be nonnegative" in err
        assert not out

    def test_bad_spec(self, capsys):
        code, _, err = run_cli(capsys, "gen", "wat:N=3")
        assert code == 2
        assert "unknown instance kind" in err


class TestRun:
    def test_batch_quad_with_dp_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--instance", "batch:N=4",
            "--policy", "quad_alg:beta=1", "--model", "quad:alpha=1",
            "--oracle", "dp")
        assert code == 0
        report = json.loads(out)
        entry = report["policies"][0]
        assert entry["ratio"] <= 3.0
        assert report["dp_opt"] <= entry["total"]

    def test_empty_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--instance", "batch:N=0",
            "--policy", "full_parallel", "--model", "linear:alpha=1")
        assert code == 0
        report = json.loads(out)
        assert report["policies"][0]["total"] == 0

    def test_periodic_ratio_at_least_1_9(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--instance", "periodic:x=4,k=50",
            "--policy", "full_parallel", "--model", "linear:alpha=1",
            "--oracle", "dp")
        assert code == 0
        assert json.loads(out)["policies"][0]["ratio"] >= 1.9

    def test_instance_file_and_traces(self, capsys, tmp_path):
        inst = tmp_path / "inst.txt"
        inst.write_text("1 1\n2 1\n")
        out_dir = tmp_path / "artifacts"
        out_dir.mkdir()
        code, out, _ = run_cli(
            capsys, "run", "--instance", str(inst),
            "--policy", "full_parallel", "--model", "quad:alpha=1",
            "--out-dir", str(out_dir))
        assert code == 0
        assert (out_dir / "trace_full_parallel.csv").exists()

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# demo experiment\n"
            "instance = batch:N=4\n"
            "model = quad:alpha=1\n"
            "policy = quad_alg:beta=1\n"
            "policy = full_parallel\n"
            "oracle = dp\n"
            "seed = 7\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        report = json.loads(out)
        assert len(report["policies"]) == 2
        assert report["seed"] == 7

    def test_config_reps_match_the_flag(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("instance = random:rate=2,T=6,seed=3\n"
                       "policy = full_parallel\n"
                       "reps = 2\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["reps"] == 2
        assert run_cli(capsys, "run", "--instance", "random:rate=2,T=6,seed=3",
                       "--policy", "full_parallel", "--reps", "2") == (0, out, "")

    def test_reps_bump_random_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--instance", "random:rate=2,T=6,seed=3",
            "--policy", "full_parallel", "--model", "linear:alpha=1",
            "--oracle", "dp", "--reps", "3")
        assert code == 0
        report = json.loads(out)
        assert report["reps"] == 3
        entry = report["policies"][0]
        assert len(entry["runs"]) == 3
        assert entry["max_ratio"] <= 2.0
        totals = [r["total"] for r in entry["runs"]]
        assert len(set(totals)) > 1  # different seeds, different workloads

    def test_reps_need_seeded_random(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--instance", "batch:N=2",
            "--policy", "full_parallel", "--reps", "2")
        assert code == 2

    def test_verbose_event_stream(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--instance", "batch:N=2",
            "--policy", "full_parallel", "--model", "quad:alpha=1", "-v")
        assert code == 0
        events = [json.loads(line) for line in err.strip().splitlines()]
        assert events == [{"t": 1, "n": 2, "s": 2, "served": [0, 1]}]

    def test_verbose_event_stream_general_sizes(self, capsys, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("1 2\n1 1\n2 1\n")  # job 0 needs two slots
        code, _, err = run_cli(
            capsys, "run", "--instance", str(path),
            "--policy", "full_parallel", "--model", "quad:alpha=1", "-v")
        assert code == 0
        events = [json.loads(line) for line in err.strip().splitlines()]
        assert events == [{"t": 1, "n": 2, "s": 2, "served": [0, 1]},
                          {"t": 2, "n": 2, "s": 2, "served": [0, 2]}]

    DUPLICATE = ("error: policies 'quad_alg' and 'QUAD_ALG(beta=1)' are both "
                 "quad_alg(alpha=1,beta=1)\n")

    def test_policies_resolving_alike_are_rejected(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert run_cli(capsys, "run", "--instance", "batch:N=3",
                       "--policy", "quad_alg", "--policy", "QUAD_ALG(beta=1)",
                       "--model", "quad:alpha=1", "--oracle", "dp",
                       "--out-dir", str(out_dir)) == (2, "", self.DUPLICATE)
        assert not list(out_dir.iterdir())
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("instance = batch:N=3\npolicy = quad_alg\n"
                       "policy = QUAD_ALG(beta=1)\n")
        assert run_cli(capsys, "run", "--config", str(cfg)) == \
            (2, "", self.DUPLICATE)
        # a policy alpha other than the model's is refused before any file is written
        assert run_cli(capsys, "run", "--instance", "batch:N=3",
                       "--policy", "full_parallel", "--policy", "quad_alg:alpha=2",
                       "--model", "quad:alpha=1", "--oracle", "dp",
                       "--out-dir", str(out_dir)) == \
            (2, "", "error: policy alpha 2.0 disagrees with cost model alpha 1.0\n")
        assert not list(out_dir.iterdir())

    def test_replicates_write_one_directory_each(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "run", "--instance", "random:rate=3,T=8,seed=2", "--policy", "lg",
            "--model", "linear:alpha=2", "--oracle", "dp", "--reps", "3",
            "--out-dir", str(tmp_path))
        assert code == 0
        assert sorted(os.listdir(tmp_path)) == ["seed2", "seed3", "seed4"]
        model = CostModel.linear(2.0)
        costs = [cost_of_trace(ScheduleTrace.from_csv(
            (tmp_path / f"seed{seed}" / "dp_opt_trace.csv").read_text()), model).total
            for seed in (2, 3, 4)]
        assert costs == json.loads(out)["dp_opt"]["values"] == [53, 38, 58]
        for seed in (2, 3, 4):
            assert sorted(os.listdir(tmp_path / f"seed{seed}")) == \
                ["dp_opt_trace.csv", "trace_lg_alpha=2.csv"]

    def test_ratio_leaves_energy_out(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--instance", "batch:N=4", "--policy", "full_parallel",
            "--model", "quad:alpha=1,theta=0.5", "--oracle", "dp")
        assert code == 0
        report = json.loads(out)
        entry = report["policies"][0]
        assert (entry["total"], report["dp_opt"], entry["ratio"]) == (38, 12, 3.0)

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--policy", "full_parallel")
        assert code == 1
        assert "instance" in err

    def test_alpha_mismatch_is_validation_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--instance", "batch:N=2",
            "--policy", "quad_alg:alpha=2,beta=1", "--model", "quad:alpha=1")
        assert code == 2
        assert "alpha" in err

    def test_budget_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("FLOWSWITCH_ORACLE_BUDGET", "10")
        code, _, err = run_cli(
            capsys, "run", "--instance", "batch:N=6",
            "--policy", "full_parallel", "--model", "linear:alpha=1",
            "--oracle", "dp")
        assert code == 3
        assert "budget" in err


class TestBudgetEnv:
    def test_non_integer_budget_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("FLOWSWITCH_ORACLE_BUDGET", "lots")
        for argv in (("opt", "--instance", "batch:N=2", "--model", "quad:alpha=1"),
                     ("sweep", "--kind", "gamma", "--instance", "sigma1:N=2",
                      "--gammas", "0", "--alphas", "1")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2
            assert "FLOWSWITCH_ORACLE_BUDGET" in err
        # commands that never read the budget are unaffected
        code, _, _ = run_cli(capsys, "reproduce-figure", "--figure", "quad_a1",
                             "--seeds", "1", "--rates", "5", "--horizon", "20",
                             "-o", os.devnull)
        assert code == 0

    def test_sweep_reads_the_budget_when_it_runs(self, capsys, monkeypatch):
        argv = ("sweep", "--kind", "gamma", "--instance", "sigma1:N=2",
                "--gammas", "0,1", "--alphas", "1,2", "-o", os.devnull)
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setenv("FLOWSWITCH_ORACLE_BUDGET", "3")
        assert run_cli(capsys, *argv)[0] == 3


class TestOptDual:
    def test_opt_subcommand(self, capsys, tmp_path):
        trace_path = tmp_path / "opt.csv"
        code, out, _ = run_cli(
            capsys, "opt", "--instance", "batch:N=2",
            "--model", "quad:alpha=1", "-o", str(trace_path))
        assert code == 0
        assert json.loads(out)["cost"] == 5
        assert trace_path.read_text().startswith("t,n,s,served_ids")

    def test_dual_subcommand(self, capsys):
        code, out, _ = run_cli(
            capsys, "dual", "--instance", "batch:N=4",
            "--alpha", "1", "--beta", str(math.sqrt(3.0)))
        assert code == 0
        cert = json.loads(out)
        assert cert["per_pair_slack"] <= 0
        assert len(cert["lambdas"]) == 4

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ("dual", "--instance", "batch:N=6", "--alpha", "2", "--beta", "1.2"),
        ("run", "--instance", "batch:N=6", "--model", "quad:alpha=2",
         "--policy", "quad_alg:beta=1.2", "--oracle", "dual"),
        ("run", "--instance", "random:rate=2,T=6,seed=1", "--reps", "3",
         "--model", "quad:alpha=2", "--policy", "quad_alg:beta=1.2",
         "--oracle", "dual"),
    ], ids=["dual", "run", "run-reps"])
    def test_degenerate_beta_warns_in_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == "warning: beta=1.2 gives a nonpositive dual bound\n"
        assert '"degenerate": true' in out

    @pytest.mark.parametrize("argv", [
        ("opt", "--model", "quad:alpha=1"),
        ("run", "--policy", "full_parallel", "--model", "quad:alpha=1",
         "--oracle", "dp"),
        ("dual", "--alpha", "1", "--beta", "2"),
    ], ids=["opt", "run-dp", "dual"])
    def test_non_unit_instance_is_validation_error(self, capsys, tmp_path, argv):
        inst = tmp_path / "mixed.txt"
        inst.write_text("1 1\n1 2\n")
        code, _, err = run_cli(capsys, *argv, "--instance", str(inst))
        assert code == 2
        expected = "equal job sizes" if argv[0] == "dual" else "unit job sizes"
        assert expected in err
        assert "Traceback" not in err


class TestStochasticCli:
    def test_analytic_alg1(self, capsys):
        code, out, _ = run_cli(
            capsys, "stochastic", "--policy", "alg1", "--lambda", "2",
            "--alpha", "1", "--mode", "analytic")
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(6.0)

    def test_simulate_alg3(self, capsys):
        code, out, _ = run_cli(
            capsys, "stochastic", "--policy", "alg3", "--lambda", "50",
            "--mode", "simulate", "--cycles", "40", "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["cycles"] == 40

    def test_simulate_below_batch_floor(self, capsys):
        code, out, err = run_cli(
            capsys, "stochastic", "--policy", "alg1", "--lambda", "1",
            "--mode", "simulate", "--events", "10")
        assert code == 2
        assert out == ""
        assert "below the 32 batches" in err


class TestSweep:
    def test_gamma_sweep_monotone_for_small_gamma(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--kind", "gamma", "--instance", "sigma1:N=12",
            "--gammas", "0", "--alphas", "16,81,256", "-o", str(out_path))
        assert code == 0
        rows = out_path.read_text().strip().splitlines()[1:]
        ratios = [float(r.split(",")[-1]) for r in rows]
        assert ratios == sorted(ratios)
        assert ratios[0] < ratios[-1]

    def test_empty_grid(self, capsys, tmp_path):
        out_path = tmp_path / "empty.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--kind", "gamma", "--instance", "sigma1:N=2",
            "--gammas", "", "--alphas", "", "-o", str(out_path))
        assert code == 0
        assert out_path.read_text().strip() == "gamma,alpha,policy_cost,dp_cost,ratio"

    def test_alg3_sweep_slope(self, capsys, tmp_path):
        out_path = tmp_path / "alg3.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--kind", "alg3",
            "--lambdas", "1e2,1e3,1e4,1e5", "-o", str(out_path))
        assert code == 0
        rows = out_path.read_text().strip().splitlines()[1:]
        slope = float(rows[0].split(",")[-1])
        assert 0.57 <= slope <= 0.77

    GRID_LIMIT = "grid limit error: the sweep grid has 4 cells, --max-cells is 3\n"

    def test_grid_budget(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--kind", "gamma", "--instance", "sigma1:N=2",
            "--gammas", "0,1", "--alphas", "1,2", "--max-cells", "3")
        assert (code, out, err) == (3, "", self.GRID_LIMIT)

    def test_alg3_grid_budget(self, capsys):
        # an alg3 sweep runs no DP: its limit is on cells, not DP states
        code, out, err = run_cli(capsys, "sweep", "--kind", "alg3",
                                 "--lambdas", "1e2,1e3,1e4,1e5", "--max-cells", "3")
        assert (code, out, err) == (3, "", self.GRID_LIMIT)


class TestReproduceFigure:
    def test_unknown_figure(self, capsys):
        code, _, err = run_cli(capsys, "reproduce-figure", "--figure", "nope")
        assert code == 1  # argparse choices reject it

    def test_small_quad_figure(self, capsys, tmp_path):
        out_path = tmp_path / "fig.csv"
        code, _, _ = run_cli(
            capsys, "reproduce-figure", "--figure", "quad_a1",
            "--seeds", "1", "--rates", "5", "--horizon", "60",
            "-o", str(out_path))
        assert code == 0
        header = out_path.read_text().splitlines()[0]
        assert header == "figure,rate,policy,normalized_cost,seeds,horizon"

    def test_quad_extreme_without_jobs(self, capsys):
        code, out, err = run_cli(capsys, "reproduce-figure", "--figure", "quad_extreme",
                                 "--rates", "0.5", "--horizon", "1")
        assert code == 0, err
        assert "check beta2/balance<2@rate=0.5: ok (ratio=1)" in err

    def test_linear_a1_columns_agree(self):
        rows, checks = reproduce_figure("linear_a1", seeds=(1,), horizon=120)
        assert all(ok for _, ok, _ in checks)


class TestInputErrors:
    @pytest.mark.parametrize("argv, expected_code, needle", [
        (("run", "--instance", "batch:N=3", "--policy", "quad_alg",
          "--model", "quad:alpha=inf"), 2, "alpha"),
        (("stochastic", "--policy", "alg2", "--lambda", "1", "--alpha", "inf"),
         2, "alpha"),
        (("stochastic", "--policy", "alg1", "--lambda", "nan"), 2, "lam"),
        (("stochastic", "--policy", "alg1", "--lambda", "1", "--mode", "simulate",
          "--seed", "-1"), 2, "--seed"),
        (("run", "--instance", "batch:N=3", "--policy", "a_gamma:gamma=1",
          "--model", "linear:alpha=1e30"), 2, "idled"),
        (("sweep", "--kind", "gamma", "--gammas", "0", "--alphas", "1"),
         1, "--instance"),
        (("reproduce-figure", "--figure", "quad_a1", "--rates", ","), 1, "--rates"),
        (("sweep", "--kind", "gamma", "--instance", "batch:N=3", "--gammas", "nan",
          "--alphas", "2"), 2, "gamma"),
        (("dual", "--instance", "batch:N=3", "--alpha", "1", "--beta", "nan"),
         2, "beta"),
        (("reproduce-figure", "--figure", "quad_a1", "--horizon", "0"),
         1, "--horizon"),
        (("sweep", "--kind", "gamma", "--instance", "batch:N=3", "--gammas", "0",
          "--alphas", "1", "--max-cells", "-1"), 1, "--max-cells must be at least 0"),
        (("sweep", "--kind", "alg3", "--lambdas", "1", "--max-cells", "-1"),
         1, "--max-cells must be at least 0"),
        (("run", "--instance", "random:rate=5,T=10,seed=-1",
          "--policy", "full_parallel"), 2, "seed must be a nonnegative integer"),
        (("run", "--instance", "random:rate=5,T=10,seed=1", "--seed", "-1",
          "--policy", "full_parallel"), 2, "seed must be a nonnegative integer"),
        (("run", "--instance", "batch:N=3", "--model", "linear:alpha=0.5",
          "--policy", "a_gamma:gamma=2000"), 2, "gamma=2000"),
        (("run", "--instance", "batch:N=3", "--model", "linear:alpha=2",
          "--policy", "a_gamma:gamma=2000"), 2, "gamma=2000"),
        (("sweep", "--kind", "gamma", "--instance", "batch:N=3", "--gammas", "2000",
          "--alphas", "2"), 2, "gamma=2000"),
        (("run", "--instance", "batch:N=3", "--model", "linear:alpha=1e-320",
          "--policy", "balance_value"), 2, "alpha="),
        (("run", "--instance", "batch:N=3", "--model", "linear:alpha=1e-320",
          "--policy", "balance_delta"), 2, "alpha="),
        (("run", "--instance", "batch:N=3", "--model", "linear:alpha=1e-320",
          "--policy", "quad_balance"), 2, "alpha="),
        (("run", "--instance", "batch:N=3,wat=1", "--policy", "full_parallel"),
         2, "unknown instance parameter 'wat'"),
        (("run", "--instance", "batch:N=3,size=2", "--policy", "full_parallel"),
         2, "unknown instance parameter 'size'"),
        (("opt", "--instance", "sigma2:N=3,T=4", "--model", "linear:alpha=2",
          "--s-cap", "0"), 2, "s_cap"),
        (("opt", "--instance", "sigma2:N=3,T=4", "--model", "linear:alpha=2",
          "--s-cap", "-3"), 2, "s_cap"),
        (("run", "--instance", "sigma2:N=3,T=4", "--model", "linear:alpha=2",
          "--policy", "full_parallel", "--oracle", "dp", "--s-cap", "0"), 2, "s_cap"),
        (("run", "--instance", "sigma2:N=3,T=4", "--model", "linear:alpha=2",
          "--policy", "full_parallel", "--oracle", "dp", "--s-cap", "-3"),
         2, "s_cap"),
        (("opt", "--instance", "sigma2:N=0,T=3", "--model", "linear:alpha=2",
          "--s-cap", "-3"), 2, "s_cap"),
        (("stochastic", "--policy", "alg3", "--lambda", "0.5", "--theta2", "-2000"),
         2, "theta2"),
        (("sweep", "--kind", "alg3", "--lambdas", "0.5,1,10,100",
          "--theta2", "-2000"), 2, "theta2"),
        (("stochastic", "--policy", "alg3", "--lambda", "10", "--c1", "1e308"),
         2, "c1"),
        (("stochastic", "--policy", "alg3", "--lambda", "1", "--c1", "nan"),
         2, "c1 must be finite"),
        (("stochastic", "--policy", "alg3", "--lambda", "1", "--theta1", "nan"),
         2, "theta1 must be finite"),
        (("stochastic", "--policy", "alg3", "--lambda", "1", "--c2", "inf"),
         2, "c2 must be finite"),
        (("stochastic", "--policy", "alg3", "--lambda", "0.5", "--c1", "1e300",
          "--mode", "simulate", "--cycles", "30"), 2, "no busy period"),
        (("stochastic", "--policy", "alg1", "--lambda", "1", "--alpha", "1e308"),
         2, "alg1 total at lambda=1.0, alpha=1e+308 is not finite"),
        (("stochastic", "--policy", "alg1", "--lambda", "1", "--alpha", "1e308",
          "--mode", "simulate", "--events", "1000"),
         2, "alg1 total at lambda=1.0, alpha=1e+308"),
        (("stochastic", "--policy", "alg3", "--lambda", "1", "--alpha", "1e308"),
         2, "alg3 total at lambda=1.0, alpha=1e+308"),
        (("stochastic", "--policy", "alg3", "--lambda", "1", "--alpha", "1e308",
          "--mode", "simulate", "--cycles", "30"),
         2, "alg3 total at lambda=1.0, alpha=1e+308"),
        (("stochastic", "--policy", "alg3", "--lambda", "5e-324", "--mode", "analytic"),
         2, "alg3 mean_idle at lambda=5e-324"),
        (("stochastic", "--policy", "alg3", "--lambda", "1e-310", "--mode", "simulate",
          "--cycles", "30"),
         2, "alg3 mean_idle at lambda=1e-310"),
        (("stochastic", "--policy", "alg1", "--lambda", "1e-320", "--mode", "simulate",
          "--events", "1000"),
         2, "alg1 mean_occupancy at lambda=1e-320"),
        (("reproduce-figure", "--figure", "quad_a1", "--rates", "nan",
          "--seeds", "1", "--horizon", "2"), 2, "rate must be positive and finite"),
        (("run", "--instance", "random:rate=inf,T=5,seed=1",
          "--policy", "full_parallel"), 2, "rate must be positive and finite"),
        (("run", "--instance", "batch:N=3", "--policy", "full_parallel",
          "--model", "linear:alpha=1e308"), 2, "model linear:alpha=1e+308"),
        (("run", "--instance", "batch:N=3", "--policy", "full_parallel",
          "--model", "quad:alpha=1,theta=1e308"), 2, "theta=1e+308"),
        (("run", "--instance", "batch:N=3", "--policy", "full_parallel",
          "--model", "quad:theta=inf"), 2, "theta must be nonnegative and finite"),
        (("sweep", "--kind", "alg3", "--lambdas", "1,10,100,1000",
          "--alpha", "1e308"), 2, "alpha=1e+308"),
        (("sweep", "--kind", "gamma", "--instance", "batch:N=3", "--gammas", "0",
          "--alphas", "1e308"), 2, "alpha=1e+308"),
        (("opt", "--instance", "batch:N=3", "--model", "linear:alpha=1e308"),
         2, "alpha=1e+308"),
        (("opt", "--instance", "batch:N=1", "--model", "linear:alpha=1e308"),
         2, "alpha=1e+308"),
        (("opt", "--instance", "batch:N=4", "--model", "linear:alpha=1",
          "--s-cap", "1", "--t-cap", "2"), 2, "no feasible schedule within t_cap"),
        (("dual", "--instance", "batch:N=3", "--alpha", "1", "--beta", "1e200"),
         2, "beta"),
        (("run", "--instance", "batch:N=3", "--policy", "quad_alg:beta=1e200",
          "--oracle", "dual"), 2, "beta"),
        (("dual", "--instance", "batch:N=3", "--alpha", "1e308", "--beta", "5e153"),
         2, "alpha=1e+308"),
        (("run", "--instance", "batch:N=3", "--policy", "quad_alg:beta=1e308"),
         2, "beta=1e+308"),
        (("stochastic", "--policy", "alg2", "--lambda", "1", "--alpha", "1e300"),
         2, "n_max=4194304"),
        (("stochastic", "--policy", "alg1", "--lambda", "1e300"), 2, "n_max=4194304"),
        (("reproduce-figure", "--figure", "quad_a1", "--rates", "1,x"),
         2, "--rates must be a number, got 'x'"),
        (("sweep", "--kind", "gamma", "--instance", "batch:N=3", "--gammas", "0,x",
          "--alphas", "1"), 2, "--gammas must be a number, got 'x'"),
        (("sweep", "--kind", "gamma", "--instance", "batch:N=3", "--gammas", "0",
          "--alphas", "1,y"), 2, "--alphas must be a number, got 'y'"),
        (("sweep", "--kind", "alg3", "--lambdas", "1,z"),
         2, "--lambdas must be a number, got 'z'"),
        (("reproduce-figure", "--figure", "quad_a1", "--seeds", "1,,2"),
         2, "--seeds must be an integer, got ''"),
        (("reproduce-figure", "--figure", "quad_a1", "--seeds", "1,2.5"),
         2, "--seeds must be an integer, got '2.5'"),
        (("run", "--instance", "batch:N=3"), 1, "at least one policy is required"),
        (("gen", "periodic:x=4,k=-1"), 2, "k must be nonnegative"),
        (("gen", "sigma2:N=1,T=-1"), 2, "horizon must be nonnegative"),
        (("gen", "random:rate=1,T=-1,seed=1"), 2, "horizon must be nonnegative"),
        (("stochastic", "--policy", "alg3", "--lambda", "10", "--c1", "-1"),
         2, "c1 and c2 must be positive"),
        (("run", "--instance", "batch:N=3", "--policy", "lg:beta=2"),
         2, "error: unknown policy parameter 'beta'\n"),
        (("run", "--instance", "batch:N=3", "--policy", "a_gamma"),
         2, "error: policy 'a_gamma' needs parameter 'gamma'\n"),
    ], ids=["model-alpha-inf", "alg2-alpha-inf", "lambda-nan", "negative-seed",
            "policy-stall", "gamma-sweep-no-instance", "empty-rates", "gamma-nan",
            "beta-nan", "horizon-zero", "gamma-max-cells-negative",
            "alg3-max-cells-negative", "spec-seed-negative", "flag-seed-negative",
            "gamma-underflow", "gamma-overflow", "gamma-sweep-overflow",
            "balance-value-tiny-alpha", "balance-delta-tiny-alpha",
            "quad-balance-tiny-alpha", "unknown-instance-key",
            "misspelled-instance-key", "opt-s-cap-zero", "opt-s-cap-negative",
            "run-dp-s-cap-zero", "run-dp-s-cap-negative", "opt-empty-s-cap-negative",
            "alg3-theta2-overflow", "alg3-sweep-theta2-overflow",
            "alg3-threshold-overflow", "alg3-c1-nan", "alg3-theta1-nan",
            "alg3-c2-inf", "alg3-threshold-beyond-guard", "cost-overflow", "alg1-simulated-cost-overflow", "alg3-cost-overflow", "alg3-simulated-cost-overflow", "alg3-subnormal-lambda", "alg3-simulated-subnormal-lambda", "alg1-simulated-subnormal-lambda",
            "figure-rate-nan", "spec-rate-inf", "run-cost-overflow",
            "run-energy-overflow", "model-theta-inf", "alg3-sweep-cost-overflow",
            "gamma-sweep-cost-overflow", "opt-switching-grid-overflow",
            "opt-every-cost-overflows", "opt-infeasible-t-cap", "dual-beta-overflow",
            "run-dual-beta-overflow", "dual-slack-overflow", "quad-alg-beta-overflow",
            "alg2-huge-alpha-truncation", "alg1-huge-lambda-truncation",
            "rates-not-a-number", "gammas-not-a-number", "alphas-not-a-number",
            "lambdas-not-a-number", "seeds-empty-item", "seeds-not-an-integer",
            "run-no-policy", "periodic-negative-k", "sigma2-negative-horizon",
            "random-negative-horizon", "alg3-c1-negative", "unknown-policy-key",
            "missing-policy-key"])
    def test_exit_code_without_traceback(self, capsys, argv, expected_code, needle):
        code, out, err = run_cli(capsys, *argv)
        assert code == expected_code
        assert needle in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, expected_code", [
        (("--policy", "alg1", "--lambda", "5e-324"), 0),
        (("--policy", "alg2", "--lambda", "5e-324"), 0),
        (("--policy", "alg1", "--lambda", "1e-320", "--mode", "simulate",
          "--events", "1000"), 2),
    ])
    def test_subnormal_lambda_warns_nothing(self, capsys, argv, expected_code):
        code, out, err = run_cli(capsys, "stochastic", *argv)
        assert code == expected_code
        if code == 0:
            assert json.loads(out)["meta"]["lam"] == 5e-324

    @pytest.mark.parametrize("body, needle", [
        ("1 1\n2 x\n", "line 2: invalid literal for int()"),
        ("# two jobs\n1 1\n2 1.5\n", "line 3: invalid literal for int()"),
        ("0 1\n", "line 1: arrival slot must be a positive integer, got 0"),
        ("1 1\n\n3 0\n", "line 3: job size must be a positive integer, got 0"),
        ("1 1\n2\n", "line 2: expected 't w'"),
    ], ids=["letter", "fraction", "slot-zero", "size-zero", "one-field"])
    def test_instance_file_errors_name_the_line(self, capsys, tmp_path, body, needle):
        path = tmp_path / "inst.txt"
        path.write_text(body)
        code, out, err = run_cli(capsys, "run", "--instance", str(path),
                                 "--policy", "full_parallel")
        assert code == 2
        assert needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line, needle", [
        ("polcy = quad_alg", ":2: unknown key 'polcy'"),
        ("modle = linear:alpha=3", ":2: unknown key 'modle'"),
        ("oracle = dpp", ":2: oracle must be dp or dual, got 'dpp'"),
        ("seed = abc", ":2: seed must be an integer, got 'abc'"),
        ("reps = 2.5", ":2: reps must be an integer, got '2.5'"),
        ("reps = 0", ":2: reps must be at least 1, got 0"),
        ("instance = batch:N=5", ":2: instance is already set"),
        ("model = quad:alpha=1\nmodel = linear:alpha=2", ":3: model is already set"),
        ("seed = 1\nseed = 2", ":3: seed is already set"),
        ("reps = 1\nreps = 1", ":3: reps is already set"),
        ("policy full_parallel", ":2: expected 'key = value'"),
    ], ids=["misspelled-policy", "misspelled-model", "unknown-oracle",
            "seed-not-an-integer", "reps-not-an-integer", "reps-below-one",
            "repeated-instance", "repeated-model", "repeated-seed",
            "repeated-reps", "no-equals-sign"])
    def test_config_errors_name_the_line(self, capsys, tmp_path, line, needle):
        path = tmp_path / "exp.cfg"
        path.write_text(f"instance = batch:N=3\n{line}\npolicy = full_parallel\n")
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert f"{path}{needle}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("exc", [PolicyFaultError, PolicyStallError,
                                     NonErgodicError, TruncationError])
    def test_simulation_errors_are_validation_errors(self, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc("no stationary law")

        monkeypatch.setattr(cli, "analytic_cost", fail)
        code, out, err = run_cli(capsys, "stochastic", "--policy", "alg1",
                                 "--lambda", "1")
        assert code == 2
        assert "no stationary law" in err
        assert not out

    def test_gamma_sweep_solves_once_per_alpha(self, capsys, monkeypatch):
        alphas = []

        def counting_dp_opt(instance, model, cfg):
            alphas.append(model.alpha)
            return dp_opt(instance, model, cfg)

        monkeypatch.setattr(cli, "dp_opt", counting_dp_opt)
        code, out, err = run_cli(capsys, "sweep", "--kind", "gamma",
                                 "--instance", "sigma2:N=3,T=4",
                                 "--gammas", "0,0.5,1", "--alphas", "1,2")
        assert code == 0, err
        assert alphas == [1.0, 2.0]
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert len(rows) == 6
        for _, alpha, _, dp_cost, _ in rows:
            model = CostModel.linear(float(alpha))
            assert dp_cost == f"{dp_opt(sigma2(3, 4), model)[0]:.6g}"

    def test_gamma_sweep_on_empty_instance(self, capsys, tmp_path):
        out_path = tmp_path / "empty.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--kind", "gamma", "--instance", "batch:N=0",
            "--gammas", "0,1", "--alphas", "2", "-o", str(out_path))
        assert code == 0
        assert "Traceback" not in err
        assert out_path.read_text().splitlines()[1:] == ["0,2,0,0,1", "1,2,0,0,1"]


def _run_totals(capsys, instance, *extra):
    """The report and the per-repetition totals of one full_parallel run."""
    code, out, err = run_cli(capsys, "run", "--instance", instance,
                             "--policy", "full_parallel", *extra)
    assert code == 0, err
    report = json.loads(out)
    entry = report["policies"][0]
    return report, [r["total"] for r in entry.get("runs", [entry])]


class TestSpecGrammar:
    """One grammar for model, policy and instance specs; seeds edit the dict."""

    def test_seed_flag_overrides_an_upper_case_kind(self, capsys):
        report, totals = _run_totals(capsys, "RANDOM:rate=5,T=10,seed=1",
                                     "--seed", "7")
        assert totals == _run_totals(capsys, "random:rate=5,T=10,seed=7")[1]
        assert totals != _run_totals(capsys, "random:rate=5,T=10,seed=1")[1]
        # the report keeps the user's text; the seed field carries the override
        assert report["instance"] == "RANDOM:rate=5,T=10,seed=1"
        assert report["seed"] == 7

    def test_seed_flag_overrides_a_repeated_seed(self, capsys):
        _, totals = _run_totals(capsys, "random:rate=2,T=5,seed=1,seed=2",
                                "--seed", "9")
        assert totals == _run_totals(capsys, "random:rate=2,T=5,seed=9")[1]

    def test_reps_read_a_mixed_case_seed_key(self, capsys):
        report, totals = _run_totals(capsys, "random:rate=5,T=10,Seed=1",
                                     "--reps", "2")
        assert report["reps"] == 2
        assert totals == [_run_totals(capsys, f"random:rate=5,T=10,seed={k}")[1][0]
                          for k in (1, 2)]

    def test_seed_flag_ignores_an_instance_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "random_inst.txt").write_text("1 1\n2 1\n")
        report, totals = _run_totals(capsys, "random_inst.txt", "--seed", "3")
        assert report["policies"][0]["jobs"] == 2
        assert totals == [4]

    @pytest.mark.parametrize("argv, expected_code, needle", [
        (("--instance", "random:rate=5,T=10,seed=1.5", "--reps", "2"),
         2, "parameter 'seed' must be an integer"),
        (("--instance", "batch:N=3", "--reps", "0"), 1, "--reps"),
        (("--instance", "batch:N=3", "--reps", "-2"), 1, "--reps"),
        (("--instance", "batch:N=3", "--model", "linear:alpha"),
         2, "cost-model parameter 'alpha'"),
    ], ids=["fractional-seed-reps", "reps-zero", "reps-negative",
            "model-item-without-value"])
    def test_rejected(self, capsys, argv, expected_code, needle):
        code, out, err = run_cli(capsys, "run", "--policy", "full_parallel", *argv)
        assert (code, out) == (expected_code, "")
        assert needle in err

    def test_paren_form_and_case_in_every_family(self, capsys):
        def report(*argv):
            code, out, err = run_cli(capsys, "run", *argv)
            assert code == 0, err
            return {k: v for k, v in json.loads(out).items() if k != "instance"}

        assert report("--instance", "batch(N=3)", "--model", "linear(alpha=2)",
                      "--policy", "quad_alg:Beta=2") == \
            report("--instance", "batch:N=3", "--model", "linear:alpha=2",
                   "--policy", "quad_alg:beta=2")
        assert report("--instance", "batch:N=3", "--model", "LINEAR:alpha=2",
                      "--policy", "full_parallel")["model"] == "linear:alpha=2"


# Spec tokens for the exit-code property: valid values of at most 3, which
# keep every instance to about 9 jobs over at most 6 slots, and malformed ones.
# Cost weights and policy constants also take huge values; instance sizes
# never do (periodic:k=1e300 would allocate without bound).
_VALUES = st.one_of(st.sampled_from(["1", "2", "3"]),
                    st.sampled_from(["0", "0.5", "1.5", "-1", "nan", "inf", ""]))
_HUGE = ["1e300", "1e308"]
_WEIGHTS = st.one_of(_VALUES, st.sampled_from(_HUGE))
_HUGE_KEYS = ("alpha", "theta", "beta")
_INSTANCE_KEYS = {"batch": ("n", "w"), "periodic": ("x", "k"), "sigma1": ("n",),
                  "sigma2": ("n", "t"), "random": ("rate", "t", "seed")}
_MODEL_KEYS = {"linear": ("alpha", "theta"), "quad": ("alpha", "theta")}
_POLICY_KEYS = {"full_parallel": (), "balance_value": ("alpha",),
                "balance_delta": ("alpha",), "sqrt_online": ("alpha",),
                "lg": ("alpha",), "a_gamma": ("alpha", "gamma"),
                "quad_alg": ("alpha", "beta"), "quad_balance": ("alpha",)}


@st.composite
def _spec(draw, families):
    kind = draw(st.sampled_from(sorted(families)))
    keys = [k for k in families[kind] if draw(st.integers(0, 7))]
    if not draw(st.integers(0, 7)):
        keys.append("wat")
    items = ",".join(f"{draw(st.sampled_from([k, k.upper()]))}="
                     f"{draw(_WEIGHTS if k in _HUGE_KEYS else _VALUES)}" for k in keys)
    if draw(st.booleans()):
        kind = kind.upper()
    return f"{kind}({items})" if draw(st.booleans()) else f"{kind}:{items}"


# Rates, exponents and constants for the stochastic, sweep and figure
# commands, half in range and half negative, huge, NaN or infinite.
# Simulated runs keep lambda <= 100, --events <= 1000 and --cycles <= 40.
_BAD_NUMBERS = ["0", "-1", "nan", "inf", "-inf", ""]


def _token(valid, bad=(), huge=False):
    bad = list(bad) + _BAD_NUMBERS + (_HUGE if huge else [])
    return st.one_of(st.sampled_from(valid), st.sampled_from(bad))


def _count(valid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(["0", "-1", "1.5"]))


def _rate(huge=False):
    return _token(["0.5", "1", "10", "100"], ["5e-324", "1e-310"], huge=huge)


def _constant():
    return _token(["0.5", "1", "2"], ["1e-320"], huge=True)


def _grid(tokens):
    return st.lists(tokens, max_size=4).map(",".join)


def _optional_flags(draw, flags):
    argv = []
    for flag, tokens in flags:
        if draw(st.booleans()):
            argv += [flag, draw(tokens)]
    return argv


def _alg3_flags(draw):
    exponent = _token(["0.25", "0.5", "1"], ["-2000", "2000"])
    return _optional_flags(draw, [("--c1", _constant()), ("--c2", _constant()),
                                  ("--theta1", exponent), ("--theta2", exponent)])


@st.composite
def _stochastic_argv(draw):
    policy = draw(st.sampled_from(["alg1", "alg2", "alg3"]))
    mode = draw(st.sampled_from(["analytic", "simulate"]))
    lam = _rate(huge=mode == "analytic")
    argv = ["stochastic", "--policy", policy, "--mode", mode, "--lambda", draw(lam)]
    argv += _optional_flags(draw, [("--alpha", _constant())])
    if mode == "simulate":
        argv += ["--events", draw(_count(["32", "1000", "31"])),
                 "--cycles", draw(_count(["30", "40"])),
                 "--seed", draw(_count(["0", "1"]))]
    if policy == "alg3":
        argv += _alg3_flags(draw)
    return argv


@st.composite
def _sweep_argv(draw):
    if draw(st.booleans()):
        return ["sweep", "--kind", "alg3", "--lambdas", draw(_grid(_rate(huge=True))),
                *_optional_flags(draw, [("--alpha", _constant())]), *_alg3_flags(draw)]
    cap = _count(["1", "3"])
    return ["sweep", "--kind", "gamma", "--instance", draw(_spec(_INSTANCE_KEYS)),
            "--gammas", draw(_grid(_token(["0", "0.5", "1"], ["2000"]))),
            "--alphas", draw(_grid(_constant())),
            *_optional_flags(draw, [("--s-cap", cap), ("--t-cap", cap),
                                    ("--max-cells", cap)])]


@st.composite
def _figure_argv(draw):
    return ["reproduce-figure", "--figure", draw(st.sampled_from(FIGURE_IDS)),
            "--horizon", draw(_count(["1", "3"])),
            *_optional_flags(draw, [("--rates", _grid(_token(["0.5", "3"], huge=True))),
                                    ("--seeds", _token(["1", "0,2"], ["x"]))])]


@st.composite
def _instance_argv(draw):
    command = draw(st.sampled_from(["gen", "run", "opt", "dual"]))
    instance = draw(_spec(_INSTANCE_KEYS))
    if command == "gen":
        return ["gen", instance]
    argv = [command, "--instance", instance]
    if command == "dual":
        return argv + ["--alpha", draw(_WEIGHTS), "--beta", draw(_WEIGHTS)]
    argv += ["--model", draw(_spec(_MODEL_KEYS))]
    if command == "run":
        argv += ["--policy", draw(_spec(_POLICY_KEYS))]
        for flag in ("--seed", "--reps"):
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(["-1", "0", "1", "2", "1.5"]))]
        for oracle in draw(st.lists(st.sampled_from(["dp", "dual"]), unique=True)):
            argv += ["--oracle", oracle]
    return argv


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from([_instance_argv(), _stochastic_argv(), _sweep_argv(),
                        _figure_argv()]).flatmap(lambda family: family))
@example(["stochastic", "--policy", "alg3", "--lambda", "0.5", "--theta2", "-2000"])
@example(["sweep", "--kind", "alg3", "--lambdas", "0.5,1,10,100", "--theta2", "-2000"])
@example(["stochastic", "--policy", "alg3", "--lambda", "10", "--c1", "1e308"])
@example(["stochastic", "--policy", "alg3", "--lambda", "1", "--c2", "inf"])
@example(["run", "--instance", "batch:N=3", "--policy", "full_parallel",
          "--model", "linear:alpha=1e308"])
@example(["run", "--instance", "batch:N=3", "--policy", "full_parallel",
          "--model", "quad:alpha=1,theta=1e308"])
@example(["run", "--instance", "batch:N=3", "--policy", "quad_alg:beta=1e200",
          "--oracle", "dual"])
@example(["sweep", "--kind", "alg3", "--lambdas", "1,10,100,1000", "--alpha", "1e308"])
@example(["opt", "--instance", "batch:N=3", "--model", "linear:alpha=1e308"])
@example(["opt", "--instance", "batch:N=2", "--model", "linear:alpha=1e308"])
@example(["opt", "--instance", "batch:N=1", "--model", "linear:alpha=1e308"])
@example(["dual", "--instance", "batch:N=3", "--alpha", "1", "--beta", "1e200"])
@example(["stochastic", "--policy", "alg2", "--lambda", "1", "--alpha", "1e300"])
@example(["stochastic", "--policy", "alg1", "--lambda", "1e300"])
@example(["stochastic", "--policy", "alg1", "--mode", "simulate", "--lambda", "0.5",
          "--alpha", "1e308", "--events", "32", "--cycles", "30", "--seed", "0"])
@example(["stochastic", "--policy", "alg1", "--lambda", "1", "--alpha", "1e308",
          "--mode", "simulate", "--events", "1000"])
@example(["stochastic", "--policy", "alg3", "--lambda", "1", "--alpha", "1e308"])
@example(["stochastic", "--policy", "alg3", "--lambda", "1", "--alpha", "1e308",
          "--mode", "simulate", "--cycles", "30"])
@example(["stochastic", "--policy", "alg3", "--lambda", "5e-324", "--mode", "analytic"])
@example(["stochastic", "--policy", "alg3", "--lambda", "1e-310", "--mode", "simulate",
          "--cycles", "30"])
@example(["stochastic", "--policy", "alg1", "--lambda", "1e-320", "--mode", "simulate",
          "--events", "1000"])
@example(["stochastic", "--policy", "alg1", "--lambda", "5e-324"])
def test_exit_code_contract(argv):
    """Any argv built from these tokens exits 0-3 with a message, never a
    traceback. On exit 0 the JSON that run, opt, dual and stochastic print
    holds no NaN or Infinity, and every sweep cell is a finite number."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"FLOWSWITCH_ORACLE_BUDGET": "60"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().strip()
    elif argv[0] in ("run", "opt", "dual", "stochastic"):
        # opt prints its trace CSV after the JSON
        json.JSONDecoder(parse_constant=_no_constant).raw_decode(out.getvalue())
    elif argv[0] == "sweep":
        header, *rows = csv.reader(io.StringIO(out.getvalue()))
        assert all(math.isfinite(float(cell)) for row in rows for cell in row if cell)
