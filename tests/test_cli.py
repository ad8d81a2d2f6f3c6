import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowswitch import (MarkovPolicy, NonErgodicError, PolicyFaultError,
                        PolicyStallError, RateModel, TruncationError, cli)
from flowswitch import CostModel, ScheduleTrace, cost_of_trace, dp_opt, simulate
from flowswitch.cli import (FIGURE_IDS, figure_policies, figure_setup, main,
                            reproduce_figure)
from flowswitch.instances import random_slotted, sigma2
from flowswitch.policies import FullParallel


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
        assert events == [{"policy": "full_parallel",
                           "t": 1, "n": 2, "s": 2, "served": [0, 1]}]

    def test_verbose_events_name_policy_and_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--instance", "random:rate=1,T=2,seed=0", "--reps", "2",
            "--policy", "full_parallel", "--policy", "lg", "--model", "linear:alpha=1",
            "-v")
        assert code == 0
        assert [json.loads(line) for line in err.strip().splitlines()] == [
            {"policy": "full_parallel", "seed": 0, "t": 1, "n": 1, "s": 1, "served": [0]},
            {"policy": "lg(alpha=1)", "seed": 0, "t": 1, "n": 1, "s": 1, "served": [0]},
            {"policy": "full_parallel", "seed": 1, "t": 1, "n": 2, "s": 2, "served": [0, 1]},
            {"policy": "full_parallel", "seed": 1, "t": 2, "n": 1, "s": 1, "served": [2]},
            {"policy": "lg(alpha=1)", "seed": 1, "t": 1, "n": 2, "s": 2, "served": [0, 1]},
            {"policy": "lg(alpha=1)", "seed": 1, "t": 2, "n": 1, "s": 1, "served": [2]}]

    def test_verbose_event_stream_general_sizes(self, capsys, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("1 2\n1 1\n2 1\n")  # job 0 needs two slots
        code, _, err = run_cli(
            capsys, "run", "--instance", str(path),
            "--policy", "full_parallel", "--model", "quad:alpha=1", "-v")
        assert code == 0
        events = [json.loads(line) for line in err.strip().splitlines()]
        assert events == [
            {"policy": "full_parallel", "t": 1, "n": 2, "s": 2, "served": [0, 1]},
            {"policy": "full_parallel", "t": 2, "n": 2, "s": 2, "served": [0, 2]}]

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

    def test_policies_differing_past_six_digits_both_run(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "run", "--instance", "batch:N=5", "--policy", "quad_alg:beta=1.7320508",
            "--policy", "quad_alg:beta=1.73205", "--out-dir", str(tmp_path))
        assert (code, err) == (0, "")
        assert [entry["policy"] for entry in json.loads(out)["policies"]] == \
            ["quad_alg(alpha=1,beta=1.7320508)", "quad_alg(alpha=1,beta=1.73205)"]
        assert sorted(os.listdir(tmp_path)) == ["trace_quad_alg_alpha=1_beta=1.73205.csv",
                                                "trace_quad_alg_alpha=1_beta=1.7320508.csv"]

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


def test_commands_show_the_instance_they_were_given(capsys, tmp_path):
    """gen, opt and run show an instance by its spec's name or its file
    path, so no command prints the ``custom-`` id of an unnamed instance."""
    spec, name = "random:rate=2.5,T=4,seed=3", "random(rate=2.5,T=4,seed=3)"
    path = tmp_path / "inst.txt"
    assert run_cli(capsys, "gen", spec, "-o", str(path))[:2] == (0, "")
    printed = [path.read_text()]
    assert printed[0].startswith(f"# instance {name}: ")
    for given, shown in ((spec, name), (str(path), str(path))):
        code, out, _ = run_cli(capsys, "opt", "--instance", given, "--model",
                               "quad:alpha=1", "-o", str(tmp_path / "opt.csv"))
        assert (code, json.loads(out)["instance"]) == (0, shown)
        printed.append(out)
        code, out, _ = run_cli(capsys, "run", "--instance", given, "--policy", "lg",
                               "--model", "quad:alpha=1")
        assert (code, json.loads(out)["instance"]) == (0, given)
        printed.append(out)
    assert not any("custom-" in text for text in printed)


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

    @pytest.mark.parametrize("extra, calls", [((), 1), (("quad_alg:beta=2",), 2)])
    def test_run_certifies_each_beta_once(self, capsys, extra, calls):
        policies = ("full_parallel", "balance_value", "lg") + extra
        argv = ["run", "--instance", "batch:N=5", "--oracle", "dual"]
        for policy in policies:
            argv += ["--policy", policy]
        with mock.patch.object(cli, "dual_lower_bound",
                               wraps=cli.dual_lower_bound) as counted:
            code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert counted.call_count == calls
        entries = json.loads(out)["policies"]
        assert [e["dual"]["beta"] for e in entries] == \
            [math.sqrt(3.0)] * 3 + [2.0] * len(extra)

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
            "--mode", "simulate", "--events", "25000", "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        # a busy period from U = 14 takes 394 events on average: 32 groups of 2
        assert (payload["meta"]["cycles"], payload["meta"]["batches"]) == (64, 32)

    def test_simulate_transient_chain_is_a_validation_error(self, capsys, monkeypatch):
        # mu_i = 0.5 < lambda = 1 has no stationary law: no estimate, exit 2
        monkeypatch.setattr(cli, "alg1", lambda: MarkovPolicy(
            lambda i: 0.5 if i else 0.0, "transient",
            RateModel.SINGLE_SERVER_SPEED_SCALING))
        code, out, err = run_cli(
            capsys, "stochastic", "--policy", "alg1", "--lambda", "1",
            "--mode", "simulate", "--events", "1000")
        assert code == 2
        assert out == ""
        assert "chain not geometrically stable at n_max=4194304" in err
        assert "Traceback" not in err

    def test_simulate_below_batch_floor(self, capsys):
        code, out, err = run_cli(
            capsys, "stochastic", "--policy", "alg1", "--lambda", "1",
            "--mode", "simulate", "--events", "10")
        assert code == 2
        assert out == ""
        assert "below the 32 batches" in err


# Runs the argv lists given as JSON through cli.main in one fresh interpreter
# and prints, per step, the argv, its exit code and whether scipy is loaded.
SCIPY_PROBE = """
import contextlib, io, json, sys
import flowswitch
from flowswitch import cli
steps = [[[], 0, "scipy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    steps.append([argv, code, "scipy" in sys.modules])
print(json.dumps(steps))
"""


def test_no_command_loads_scipy(tmp_path):
    # the pytest process has imported scipy already, so ask a fresh one
    (tmp_path / "out").mkdir()
    argvs = [
        ["gen", "batch:N=3", "-o", str(tmp_path / "inst.txt")],
        ["run", "--instance", "batch:N=3", "--policy", "quad_alg",
         "--model", "quad:alpha=1", "--oracle", "dp", "--oracle", "dual",
         "--out-dir", str(tmp_path / "out")],
        ["opt", "--instance", "batch:N=3", "--model", "quad:alpha=1"],
        ["dual", "--instance", "batch:N=3", "--alpha", "1", "--beta", "2"],
        ["sweep", "--kind", "gamma", "--instance", "sigma1:N=2",
         "--gammas", "0,1", "--alphas", "1", "-o", os.devnull],
        ["sweep", "--kind", "alg3", "--lambdas", "1,10", "-o", os.devnull],
        ["reproduce-figure", "--figure", "quad_a1", "--seeds", "1",
         "--rates", "5", "--horizon", "20", "-o", os.devnull],
        ["stochastic", "--policy", "alg1", "--lambda", "2", "--mode", "analytic"],
    ] + [["stochastic", "--policy", policy, "--lambda", "2",
          "--mode", "simulate", "--events", "3200"]
         for policy in ("alg1", "alg2", "alg3")]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert [argv for argv, _, _ in steps] == [[]] + argvs
    assert [code for _, code, _ in steps] == [0] * len(steps)
    assert [argv for argv, _, loaded in steps if loaded] == []


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

    @pytest.mark.parametrize("argv, values", [
        (("--kind", "gamma", "--instance", "sigma1:N=3", "--gammas", "0.5",
          "--alphas", "1.0000001,1.0000002"), [(0.5, 1.0000001), (0.5, 1.0000002)]),
        (("--kind", "alg3", "--lambdas", "100.00001,100.00002"),
         [(100.00001,), (100.00002,)])], ids=["gamma", "alg3"])
    def test_grid_keys_read_back_as_given(self, capsys, argv, values):
        code, out, _ = run_cli(capsys, "sweep", *argv)
        assert code == 0
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert [tuple(float(key) for key in row[:len(values[0])]) for row in rows] \
            == values

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

    @pytest.mark.parametrize("figure", ["linear_a1", "linear_a2", "quad_extreme"])
    def test_check_names_keep_the_rate(self, figure):
        rates = (5.0, 1.0000001, 1.0000002)
        _, checks = reproduce_figure(figure, seeds=(1,), horizon=20, rates=rates)
        assert [float(name.rpartition("@rate=")[2]) for name, _, _ in checks] == \
            list(rates)
        assert checks[0][0].endswith("@rate=5")

    def test_linear_a1_columns_agree(self):
        rows, checks = reproduce_figure("linear_a1", seeds=(1,), horizon=120)
        assert all(ok for _, ok, _ in checks)

    @pytest.mark.parametrize("kwargs", [{"horizon": 0}, {"seeds": ()}],
                             ids=["horizon-zero", "no-seeds"])
    def test_nothing_to_average_is_a_value_error(self, kwargs):
        # each normalized cost divides by the horizon and the seed count
        with pytest.raises(ValueError, match=r"got horizon=\d+, seeds=\("):
            reproduce_figure("quad_a1", rates=(5.0,), **kwargs)

    def test_unknown_figure_id_is_a_value_error(self):
        for call in (lambda: figure_setup("quad_a3"),
                     lambda: figure_policies("quad_a3", 1.0),
                     lambda: reproduce_figure("quad_a3")):
            with pytest.raises(ValueError, match="unknown figure id 'quad_a3'"):
                call()


# Each command that takes -o, with small arguments.
OUTPUT_COMMANDS = {
    "gen": ["gen", "batch:N=3"],
    "opt": ["opt", "--instance", "batch:N=3", "--model", "quad:alpha=1"],
    "sweep-gamma": ["sweep", "--kind", "gamma", "--instance", "sigma1:N=2",
                    "--gammas", "0,1", "--alphas", "1"],
    "sweep-alg3": ["sweep", "--kind", "alg3", "--lambdas", "1,10"],
    "reproduce-figure": ["reproduce-figure", "--figure", "quad_a1", "--seeds", "1",
                         "--rates", "5", "--horizon", "20"],
}
RUN_OUT_DIR = ["run", "--instance", "sigma2:N=4,T=3", "--model", "quad:alpha=2",
               "--policy", "quad_alg:beta=2", "--policy", "balance_value",
               "--oracle", "dp", "--oracle", "dual", "--out-dir"]


PRIORS = ("longer", "other-longer", "shorter")


def _prior_contents(fresh: bytes, kind: str) -> bytes:
    """What a path holds before a command writes to it: one of ``PRIORS``."""
    return {"longer": fresh + b"#" * 5000,  # the fresh bytes, then a tail
            "other-longer": b"x" * (3 * len(fresh) + 100),
            "shorter": fresh[:len(fresh) // 2]}[kind]


class TestOutputFiles:
    """``cli._write`` overwrites a file in place and cuts it to the new
    length: what it leaves must be the bytes of a write to a new path."""

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("command", OUTPUT_COMMANDS)
    def test_overwrite_leaves_a_fresh_write(self, capsys, tmp_path, command, prior):
        argv = OUTPUT_COMMANDS[command]
        fresh_path, old_path = tmp_path / "fresh", tmp_path / "old"
        assert run_cli(capsys, *argv, "-o", str(fresh_path))[0] == 0
        fresh = fresh_path.read_bytes()
        assert fresh
        old_path.write_bytes(_prior_contents(fresh, prior))
        assert run_cli(capsys, *argv, "-o", str(old_path))[0] == 0
        assert old_path.read_bytes() == fresh
        code, out, _ = run_cli(capsys, *argv)  # opt prints its report first
        assert code == 0 and out.encode().endswith(fresh)

    @pytest.mark.parametrize("prior", PRIORS)
    def test_run_out_dir_overwrites_every_trace(self, capsys, tmp_path, prior):
        fresh_dir, old_dir = tmp_path / "fresh", tmp_path / "old"
        fresh_dir.mkdir()
        old_dir.mkdir()
        assert run_cli(capsys, *RUN_OUT_DIR, str(fresh_dir))[0] == 0
        fresh = {p.name: p.read_bytes() for p in fresh_dir.iterdir()}
        assert len(fresh) == 3 and "dp_opt_trace.csv" in fresh
        for name, data in fresh.items():
            (old_dir / name).write_bytes(_prior_contents(data, prior))
        assert run_cli(capsys, *RUN_OUT_DIR, str(old_dir))[0] == 0
        assert {p.name: p.read_bytes() for p in old_dir.iterdir()} == fresh
        assert run_cli(capsys, *RUN_OUT_DIR, str(fresh_dir))[0] == 0  # a second run
        assert {p.name: p.read_bytes() for p in fresh_dir.iterdir()} == fresh

    @pytest.mark.parametrize("mask", [0o022, 0o077, 0o002])
    def test_new_file_mode_follows_umask(self, capsys, tmp_path, mask):
        path = tmp_path / "inst.txt"
        old = os.umask(mask)
        try:
            code, _, _ = run_cli(capsys, "gen", "batch:N=3", "-o", str(path))
        finally:
            os.umask(old)
        assert code == 0
        assert path.stat().st_mode & 0o777 == 0o666 & ~mask

    @pytest.mark.parametrize("command", OUTPUT_COMMANDS)
    def test_output_to_a_directory_is_a_validation_error(self, capsys, tmp_path,
                                                         command):
        code, out, err = run_cli(capsys, *OUTPUT_COMMANDS[command], "-o", str(tmp_path))
        assert (code, out) == (2, "")  # no report of a write that failed
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("command", OUTPUT_COMMANDS)
    def test_output_to_devnull(self, capsys, command):
        # a character device cannot be cut to a length
        code, _, err = run_cli(capsys, *OUTPUT_COMMANDS[command], "-o", os.devnull)
        assert code == 0
        assert "error" not in err

    def test_output_to_a_fifo(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE)
        try:
            code, _, err = run_cli(capsys, "gen", "batch:N=3", "-o", str(fifo))
            data, _ = reader.communicate(timeout=30)
        finally:
            reader.kill()
        assert (code, err) == (0, "")
        assert data == run_cli(capsys, "gen", "batch:N=3")[1].encode()


WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether ``call`` may open a file for writing: ``open``, ``io.open``
    or a path's ``open`` with a mode that is not a literal read mode,
    ``os.open`` with flags that are not only read flags, or a path's
    ``write_text`` or ``write_bytes``."""
    func = call.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    owner = getattr(getattr(func, "value", None), "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    keywords = {kw.arg: kw.value for kw in call.keywords}
    if owner == "os":
        flags = call.args[1] if len(call.args) > 1 else keywords.get("flags")
        names = {getattr(node, "attr", None) or node.id for node in ast.walk(flags)
                 if isinstance(node, (ast.Name, ast.Attribute))} - {"os"}
        return not names or any(not n.startswith("O_") or n in WRITE_FLAGS
                                for n in names)
    index = 1 if isinstance(func, ast.Name) or owner in ("io", "builtins") else 0
    mode = call.args[index] if len(call.args) > index else keywords.get("mode")
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _file_writes(source: str, module: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call in ``source`` that may open a
    file for writing."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and _opens_for_writing(child):
                found.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(source), module)
    return found


@pytest.mark.parametrize("source, writes", [
    ("open(p)", False), ("open(p, 'rb')", False), ("open(p, mode='r')", False),
    ("os.open(p, os.O_RDONLY)", False), ("Path(p).open()", False),
    ("io.open(p, encoding='ascii')", False), ("p.read_text()", False),
    ("open(p, 'w')", True), ("open(p, mode='a')", True), ("open(p, 'r+')", True),
    ("open(p, 'xb')", True), ("open(p, m)", True), ("io.open(p, 'wb')", True),
    ("builtins.open(p, 'w')", True), ("Path(p).open('w')", True),
    ("Path(p).open(mode='wb')", True), ("os.open(p, os.O_WRONLY | os.O_TRUNC)", True),
    ("os.open(p, flags=os.O_RDWR)", True), ("os.open(p, flags)", True),
    ("os.open(p, 1)", True), ("p.write_text(s)", True), ("p.write_bytes(b)", True),
], ids=lambda value: value if isinstance(value, str) else None)
def test_write_scanner(source, writes):
    assert bool(_file_writes(source, "m")) == writes


def test_one_function_writes_files():
    # cli._write overwrites in place; a second writer could truncate to zero
    src = Path(cli.__file__).parent
    writers = {where for path in sorted(src.glob("*.py"))
               for where, _ in _file_writes(path.read_text(), path.stem)}
    assert writers == {"cli._write"}


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
          "--mode", "simulate"), 2, "no busy period"),
        (("stochastic", "--policy", "alg1", "--lambda", "1", "--alpha", "1e308"),
         2, "alg1 total at lambda=1.0, alpha=1e+308 is not finite"),
        (("stochastic", "--policy", "alg1", "--lambda", "1", "--alpha", "1e308",
          "--mode", "simulate", "--events", "1000"),
         2, "alg1 total at lambda=1.0, alpha=1e+308"),
        (("stochastic", "--policy", "alg3", "--lambda", "1", "--alpha", "1e308"),
         2, "alg3 total at lambda=1.0, alpha=1e+308"),
        (("stochastic", "--policy", "alg3", "--lambda", "1", "--alpha", "1e308",
          "--mode", "simulate", "--events", "1000"),
         2, "alg3 total at lambda=1.0, alpha=1e+308"),
        (("stochastic", "--policy", "alg3", "--lambda", "5e-324", "--mode", "analytic"),
         2, "alg3 mean_idle at lambda=5e-324"),
        (("stochastic", "--policy", "alg3", "--lambda", "1e-310", "--mode", "simulate",
          "--events", "1000"),
         2, "alg3 ci_halfwidth at lambda=1e-310"),
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
        (("stochastic", "--policy", "alg1", "--lambda", "1e300", "--mode", "simulate",
          "--events", "1000"), 2, "n_max=4194304"),
        (("stochastic", "--policy", "alg1", "--lambda", "1", "--mode", "simulate",
          "--events", str(2 ** 62 + 1)), 2, f"event budget {2 ** 62 + 1} is above 2**62"),
        (("stochastic", "--policy", "alg3", "--lambda", "100", "--mode", "simulate",
          "--events", str(2 ** 62)), 0, ""),
        (("stochastic", "--policy", "alg3", "--lambda", "100", "--mode", "simulate",
          "--events", str(2 ** 62 + 1)), 2, f"event budget {2 ** 62 + 1} is above 2**62"),
        (("stochastic", "--policy", "alg3", "--lambda", "1", "--c1", "1000",
          "--c2", "2.220446049250313e-16", "--mode", "simulate"),
         2, "expects more than 2**62 events"),
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
        (("gen", "random:rate=1,T=1e13,seed=1"), 2,
         "horizon must be at most 10000000, got 10000000000000"),
        (("gen", "sigma2:N=1,T=1e13"), 2,
         "horizon must be at most 10000000, got 10000000000000"),
        (("gen", "periodic:x=2,k=1e13"), 2,
         "k must be at most 5000000, got 10000000000000"),
        (("reproduce-figure", "--figure", "quad_a1", "--horizon", "10000000000000"),
         2, "horizon must be at most 10000000, got 10000000000000"),
        (("gen", "random:T=10,seed=1"), 2,
         "error: instance kind 'random' needs parameter 'rate'\n"),
        (("stochastic", "--policy", "alg3", "--lambda", "10", "--c1", "-1"),
         2, "c1 must be positive and finite, got -1.0"),
        (("run", "--instance", "batch:N=3", "--policy", "lg:beta=2"),
         2, "error: unknown policy parameter 'beta'\n"),
        (("run", "--instance", "batch:N=3", "--policy", "a_gamma"),
         2, "error: policy 'a_gamma' needs parameter 'gamma'\n"),
        (("sweep", "--kind", "alg3", "--lambdas", ",", "--alpha", "nan"),
         2, "error: alpha must be positive and finite, got nan\n"),
        (("run", "--instance", "batch:N=1,w=1e11", "--policy", "full_parallel"),
         2, "error: job size w must be at most 10000000, got 100000000000\n"),
        (("run", "--instance", "random:rate=1e300,T=2,seed=1",
          "--policy", "full_parallel"), 2, "error: rate=1e+300 is too large"),
        (("reproduce-figure", "--figure", "quad_a1", "--rates", "1e300",
          "--seeds", "1", "--horizon", "3"), 2, "error: rate=1e+300 is too large"),
        (("opt", "--instance", "sigma2:N=1,T=3", "--model", "quad:alpha=1",
          "--t-cap", "1"), 2, "error: t_cap ends before the last arrival\n"),
        (("gen", "batch:N=1e13"), 2, "job count N must be at most 10000000"),
        (("gen", "sigma2:N=1e12,T=2"), 2, "job count N*T must be at most 10000000"),
        (("run", "--instance", "batch:N=1000,w=10000000", "--policy", "full_parallel"),
         2, "total work N*w must be at most 10000000, got 10000000000"),
        (("gen", "random:rate=2,T=3,seed=9007199254740992"),
         2, "error: parameter 'seed' must be below 2**53 in magnitude, got 9.0072e+15\n"),
        (("gen", "random:rate=2,T=3,seed=9007199254740993"),
         2, "error: parameter 'seed' must be below 2**53 in magnitude, got 9.0072e+15\n"),
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
            "alg1-huge-lambda-simulated-truncation", "simulated-budget-too-large",
            "alg3-huge-budget", "alg3-budget-too-large", "alg3-group-past-event-cap",
            "rates-not-a-number", "gammas-not-a-number", "alphas-not-a-number",
            "lambdas-not-a-number", "seeds-empty-item", "seeds-not-an-integer",
            "run-no-policy", "periodic-negative-k", "sigma2-negative-horizon",
            "random-negative-horizon", "random-horizon-past-max-slot",
            "sigma2-horizon-past-max-slot", "periodic-k-past-max-slot",
            "figure-horizon-past-max-slot", "random-missing-rate", "alg3-c1-negative",
            "unknown-policy-key", "missing-policy-key", "alg3-empty-sweep-alpha-nan",
            "batch-size-past-max-slot", "random-rate-past-poisson",
            "figure-rate-past-poisson", "opt-t-cap-before-last-arrival",
            "batch-jobs-past-max-slot", "sigma2-jobs-past-max-slot",
            "batch-work-past-max-slot", "spec-seed-at-2-53", "spec-seed-past-2-53"])
    def test_exit_code_without_traceback(self, capsys, argv, expected_code, needle):
        code, out, err = run_cli(capsys, *argv)
        assert code == expected_code
        assert needle in err
        assert "Traceback" not in err

    ALG3_SWEEP = ("sweep", "--kind", "alg3", "--lambdas", "1,10")

    @pytest.mark.parametrize("budget, argv, expected_code, expected_err", [
        ("-5", ALG3_SWEEP, 2,
         "error: FLOWSWITCH_ORACLE_BUDGET must be at least 0, got -5\n"),
        ("-5", ("opt", "--instance", "batch:N=2", "--model", "quad:alpha=1"), 2,
         "error: FLOWSWITCH_ORACLE_BUDGET must be at least 0, got -5\n"),
        ("0", ALG3_SWEEP, 3, "grid limit error: the sweep grid has 2 cells, "
                             "FLOWSWITCH_ORACLE_BUDGET is 0\n"),
        ("", ("sweep", "--kind", "gamma", "--instance", "batch:N=3",
              "--gammas", ",".join(map(str, range(101))),
              "--alphas", ",".join(map(str, range(1, 101)))), 3,
         "grid limit error: the sweep grid has 10100 cells, "
         "the default grid limit is 10000\n"),
    ], ids=["sweep-negative-budget", "opt-negative-budget", "sweep-zero-budget",
            "sweep-default-limit"])
    def test_budget_errors_name_their_source(self, capsys, monkeypatch, budget, argv,
                                             expected_code, expected_err):
        monkeypatch.setenv("FLOWSWITCH_ORACLE_BUDGET", budget)
        assert run_cli(capsys, *argv) == (expected_code, "", expected_err)

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
        ("9999999999999999999 1\n", "line 1: arrival slot must be at most 10000000"),
        ("1 1\n999999999999999999 1\n", "line 2: arrival slot must be at most"),
        ("1 100000000000\n", "line 1: job size must be at most 10000000, got 1000"),
        ("1 99999999999999999999999\n", "line 1: job size must be at most 10000000"),
    ], ids=["letter", "fraction", "slot-zero", "size-zero", "one-field",
            "slot-past-int64", "slot-below-int64", "size-past-max-slot",
            "size-past-int64"])
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

    def test_seed_flag_keeps_an_exact_seed_past_2_53(self, capsys, tmp_path):
        seed = 2 ** 53 + 1
        report, totals = _run_totals(capsys, "random:rate=2,T=3,seed=1", "--seed",
                                     str(seed), "--reps", "2", "--out-dir", str(tmp_path))
        assert report["seed"] == seed
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            [f"seed{seed}", f"seed{seed + 1}"]
        assert totals == [cost_of_trace(simulate(random_slotted(2.0, 3, s), FullParallel()),
                                        CostModel.quadratic(1.0)).total
                          for s in (seed, seed + 1)]

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
# Instance files past core.MAX_SLOT: a last slot past int64, one below 2**63
# that would still ask for 2**62 slot counts, a job whose size would need
# 10**11 slots, and a total work one unit past it.
_SLOT_FILES = [str(Path(__file__).parent / "data" / name)
               for name in ("slot_past_int64.txt", "slot_2_62.txt",
                            "size_past_max_slot.txt", "work_past_max_slot.txt")]
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
# Simulated runs keep lambda <= 100 and --events <= 1000.
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
    instance = draw(st.one_of(_spec(_INSTANCE_KEYS), st.sampled_from(_SLOT_FILES)))
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
          "--alpha", "1e308", "--events", "32", "--seed", "0"])
@example(["stochastic", "--policy", "alg1", "--lambda", "1", "--alpha", "1e308",
          "--mode", "simulate", "--events", "1000"])
@example(["stochastic", "--policy", "alg3", "--lambda", "1", "--alpha", "1e308"])
@example(["stochastic", "--policy", "alg3", "--lambda", "1", "--alpha", "1e308",
          "--mode", "simulate", "--events", "32"])
@example(["stochastic", "--policy", "alg3", "--lambda", "5e-324", "--mode", "analytic"])
@example(["stochastic", "--policy", "alg3", "--lambda", "1e-310", "--mode", "simulate",
          "--events", "32"])
@example(["stochastic", "--policy", "alg1", "--lambda", "1e-320", "--mode", "simulate",
          "--events", "1000"])
@example(["stochastic", "--policy", "alg1", "--lambda", "5e-324"])
@example(["run", "--instance", _SLOT_FILES[0], "--policy", "full_parallel"])
@example(["opt", "--instance", _SLOT_FILES[1], "--model", "linear:alpha=1"])
@example(["run", "--instance", _SLOT_FILES[2], "--policy", "full_parallel"])
@example(["run", "--instance", _SLOT_FILES[3], "--policy", "full_parallel"])
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
