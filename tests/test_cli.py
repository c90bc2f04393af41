"""Command-line interface: subcommands, prior literals, exit codes."""

import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import amplasso
from amplasso.cli import main, parse_prior


def test_import_leaves_out_scipy_stats_and_integrate():
    # start-up cost: scipy.stats is imported by the one call that uses it, and
    # nothing in the package uses scipy.integrate
    src = str(Path(amplasso.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, amplasso, amplasso.cli; "
             "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


MODEL = {"--delta", "--sigma2", "--prior", "--alpha"}
FLAGS = {
    "solve": MODEL | {"--n", "--ensemble", "--seeds", "--lambda", "--max-iter", "--tol",
                      "--engine", "--out"},
    "se": MODEL | {"--lambda", "--out"},
    "calibrate": MODEL | {"--lambda"},
    "phase": {"--delta", "--rho", "--sweep", "--out"},
    "experiment": MODEL | {"--n", "--ensemble", "--seeds", "--max-iter", "--tol", "--out",
                           "--spec", "--kind", "--lambdas", "--nnz-levels", "--t-target"},
}


class TestFlags:
    """Each subcommand takes only the flags it reads."""

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_each_subcommand_takes_its_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert set(re.findall(r"--[a-z0-9-]+", usage)) - {"--help"} == FLAGS[command]

    def test_forty_two_in_all(self):
        assert sum(len(flags) for flags in FLAGS.values()) == 42

    @pytest.mark.parametrize("argv", [
        ["se", "--n", "7"], ["se", "--engine", "mp"], ["se", "--seeds", "9"],
        ["se", "--max-iter", "3"], ["se", "--tol", "5"],
        ["calibrate", "--out", "x"], ["calibrate", "--n", "7"],
        ["calibrate", "--ensemble", "rademacher"],
        ["experiment", "--engine", "ist"],
        ["solve", "--seeds", "1", "2"],
    ])
    def test_unread_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestParsePrior:
    def test_parses_literal(self):
        prior = parse_prior('{"atoms": [-1, 0, 1], "weights": [0.064, 0.872, 0.064]}')
        assert prior.atoms == (-1.0, 0.0, 1.0)
        assert prior.weights == (0.064, 0.872, 0.064)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            parse_prior("[1, 2, 3]")


class TestSolve:
    def test_runs_and_writes_trajectory(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", "--n", "200", "--delta", "0.64", "--sigma2", "0.2",
                     "--alpha", "2.0", "--seeds", "3", "--max-iter", "400",
                     "--tol", "1e-8", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "kkt_gap=" in text and "effective_lambda=" in text
        with (tmp_path / "run.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["t"] == "0"
        assert set(rows[0]) == {"t", "tau_hat", "theta", "b", "mse"}

    def test_lambda_flag_maps_through_calibration(self, capsys):
        code = main(["solve", "--n", "200", "--lambda", "1.0", "--seeds", "1",
                     "--max-iter", "400"])
        assert code == 0
        assert "alpha=1.94" in capsys.readouterr().out

    def test_ist_engine_uses_alpha_and_reports_its_lasso_level(self, capsys):
        # IST's fixed point on the co-scaled system (c A, c y) at threshold
        # theta is the LASSO optimum at lambda = theta / c^2
        def solve(alpha):
            code = main(["solve", "--n", "500", "--seeds", "3", "--engine", "ist",
                         "--alpha", alpha])
            assert code == 0
            return dict(tok.split("=") for tok in capsys.readouterr().out.split())
        big = solve("1.8")
        # ||A'y||_inf = 2.467 < lambda, so x = 0 is optimal and the stop at t=1 is right
        assert big["nnz"] == "0" and big["iterations"] == "1"
        assert big["effective_lambda"] == "2.67103"
        assert float(big["kkt_gap"]) == 0.0
        small = solve("0.5")
        assert float(small["theta"]) == pytest.approx(0.5 * float(small["tau_hat"]),
                                                      rel=1e-5)
        assert int(small["nnz"]) > 0 and small["converged"] == "True"
        assert float(small["kkt_gap"]) <= 1e-6 * float(small["effective_lambda"])

    def test_ist_engine_lambda_solves_the_lasso_at_that_level(self, capsys):
        # --lambda without --alpha runs IST at the fixed threshold lambda * c^2,
        # not at AMP's calibrated alpha, whose level would be unrelated
        def solve(*extra):
            code = main(["solve", "--n", "500", "--seeds", "3", "--engine", "ist",
                         "--lambda", "1.0", *extra])
            assert code == 0
            return dict(tok.split("=") for tok in capsys.readouterr().out.split())
        out = solve()
        assert out["alpha"] == "none" and out["effective_lambda"] == "1"
        assert int(out["nnz"]) > 0 and out["converged"] == "True"
        assert float(out["kkt_gap"]) <= 1e-6
        assert (out["stop"], out["period"]) == ("tol", "0")
        short = solve("--max-iter", "5")
        assert short["iterations"] == "5" and short["converged"] == "False"
        assert (short["stop"], short["period"]) == ("max_iter", "0")
        assert int(solve("--tol", "1e-3")["iterations"]) < int(out["iterations"])

    def test_reports_a_cycle_stop(self, capsys):
        code = main(["solve", "--n", "200", "--seeds", "3", "--engine", "ist",
                     "--lambda", "1.0", "--tol", "0", "--max-iter", "3000"])
        assert code == 0
        out = dict(tok.split("=") for tok in capsys.readouterr().out.split())
        assert (out["iterations"], out["converged"]) == ("3000", "False")
        assert (out["stop"], out["period"]) == ("cycle", "2")

    def test_ist_lambda_lane_writes_its_trajectory(self, tmp_path, capsys):
        code = main(["solve", "--n", "500", "--seeds", "3", "--engine", "ist",
                     "--lambda", "1.0", "--out", str(tmp_path / "run")])
        assert code == 0
        out = dict(tok.split("=") for tok in capsys.readouterr().out.split()
                   if "=" in tok)
        with (tmp_path / "run.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == int(out["iterations"]) + 1
        assert rows[-1]["t"] == out["iterations"]
        assert f"{float(rows[-1]['tau_hat']):.6g}" == out["tau_hat"]
        assert f"{float(rows[-1]['theta']):.6g}" == out["theta"]

    def test_mp_engine_replays_the_solver_thresholds(self, capsys):
        code = main(["solve", "--n", "150", "--lambda", "1.0", "--seeds", "1",
                     "--engine", "mp", "--max-iter", "7"])
        assert code == 0
        text = capsys.readouterr().out
        assert "mp_estimate: steps=7 " in text

    def test_bad_prior_is_spec_error(self, capsys):
        code = main(["solve", "--n", "100", "--prior", "not json"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_overflowing_residual_scale_is_numerical_failure(self, capsys):
        # it used to print mse=inf tau_hat=inf and exit 0, and then to print
        # numpy's overflow warning before the typed error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--n", "50",
                         "--prior", '{"atoms": [0, 1e300], "weights": [0.9, 0.1]}'])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: residual scale tau_hat = inf\n"

    @pytest.mark.parametrize("argv, err", [
        (["solve", "--n", "100", "--alpha", "nan"], "alpha must be > 0"),
        (["experiment", "--kind", "SE_TRACKING", "--n", "100", "--alpha", "nan"],
         "alpha must be > 0"),
        (["solve", "--n", "100", "--engine", "ist", "--lambda", "nan"], "lam must be > 0"),
    ], ids=["solve_alpha", "se_tracking_alpha", "ist_lambda"])
    def test_nan_level_is_spec_error(self, argv, err, capsys):
        # each used to exit 3 with "numerical failure: |x| reached nan"
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_invalid_weights_is_spec_error(self):
        code = main(["solve", "--n", "100", "--prior",
                     '{"atoms": [0, 1], "weights": [0.9, 0.3]}'])
        assert code == 2


class TestSe:
    def test_reports_fixed_point(self, capsys):
        code = main(["se", "--delta", "0.64", "--sigma2", "0.2", "--alpha", "2.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tau_star=0.604786274" in out

    def test_alpha_at_or_below_alpha_min_is_spec_error(self, capsys):
        # it used to run 6112 steps until tau^2 overflowed and exit 0
        for alpha in ("0.2", "0.267", "nan"):
            assert main(["se", "--alpha", alpha]) == 2
            err = capsys.readouterr().err
            assert err == "error: alpha must exceed alpha_min = 0.267156\n"
        assert main(["calibrate", "--alpha", "0.2"]) == 2
        assert capsys.readouterr().err == "error: alpha must exceed alpha_min = 0.267156\n"

    def test_delta_above_one_has_no_alpha_floor(self, capsys):
        assert main(["se", "--delta", "1.5", "--alpha", "0.2"]) == 0
        assert "converged=True" in capsys.readouterr().out


class TestCalibrate:
    def test_alpha_to_lambda(self, capsys):
        code = main(["calibrate", "--delta", "0.64", "--sigma2", "0.2",
                     "--alpha", "2.0"])
        assert code == 0
        assert "lambda=1.04638" in capsys.readouterr().out

    def test_lambda_to_alpha(self, capsys):
        code = main(["calibrate", "--delta", "0.64", "--sigma2", "0.2",
                     "--lambda", "1.0"])
        assert code == 0
        assert "alpha=1.94584" in capsys.readouterr().out

    def test_needs_one_flag(self):
        assert main(["calibrate", "--delta", "0.64", "--sigma2", "0.2"]) == 2

    @pytest.mark.parametrize("command", ["calibrate", "solve"])
    def test_unreachable_lambda_is_spec_error(self, command, capsys):
        # it used to end in a RuntimeError traceback with exit 1
        size = ["--n", "100"] if command == "solve" else []
        assert main([command, *size, "--lambda", "1e9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no alpha below") and err.count("\n") == 1


class TestPhase:
    def test_point_query(self, capsys):
        code = main(["phase", "--delta", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rho_c=0.2433" in out and "boundary_alpha=1.408" in out

    def test_sweep_writes_files(self, tmp_path):
        code = main(["phase", "--sweep", "7", "--out", str(tmp_path / "pt")])
        assert code == 0
        assert (tmp_path / "pt_boundary.csv").exists()


class TestExperiment:
    def test_from_flags(self, tmp_path):
        out = tmp_path / "exp"
        code = main(["experiment", "--kind", "MSE_VS_LAMBDA", "--n", "120",
                     "--delta", "0.64", "--sigma2", "0.2", "--lambdas", "1.0",
                     "--seeds", "0", "--max-iter", "200", "--tol", "1e-6",
                     "--out", str(out)])
        assert code == 0
        assert (tmp_path / "exp.csv").exists()
        assert (tmp_path / "exp.manifest.json").exists()

    def test_from_json_spec(self, tmp_path):
        spec = {"kind": "PHASE_CURVE", "grid_points": 5}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        code = main(["experiment", "--spec", str(spec_file),
                     "--out", str(tmp_path / "pc")])
        assert code == 0
        assert (tmp_path / "pc_boundary.csv").exists()

    def test_phase_curve_runs_from_phase_sweep(self, capsys):
        assert main(["experiment", "--kind", "PHASE_CURVE"]) == 2
        assert "phase --sweep" in capsys.readouterr().err

    def test_spec_file_takes_no_other_flag_but_out(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"kind": "PHASE_CURVE", "grid_points": 3}))
        assert main(["experiment", "--spec", str(spec_file), "--n", "50",
                     "--t-target", "4"]) == 2
        assert "got --n, --t-target" in capsys.readouterr().err
        assert main(["experiment", "--spec", str(spec_file),
                     "--out", str(tmp_path / "pc")]) == 0

    def test_unread_spec_field_is_spec_error(self, capsys):
        # SE_TRACKING used to ignore --tol and --max-iter but hash them
        assert main(["experiment", "--kind", "SE_TRACKING", "--n", "50", "--tol", "5",
                     "--max-iter", "7"]) == 2
        assert capsys.readouterr().err == "error: SE_TRACKING does not read max_iter, tol\n"

    def test_missing_kind_is_spec_error(self):
        assert main(["experiment", "--n", "100"]) == 2

    def test_spec_without_params_is_spec_error(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"kind": "CONVERGENCE", "n": 100}))
        assert main(["experiment", "--spec", str(spec_file)]) == 2
        assert "needs params" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["RESAMPLED_ORACLE", "SE_TRACKING"])
    def test_negative_t_target_is_spec_error(self, kind, capsys):
        assert main(["experiment", "--kind", kind, "--n", "100", "--delta", "0.64",
                     "--sigma2", "0.2", "--t-target", "-1"]) == 2
        assert "t_target must be >= 0" in capsys.readouterr().err

    def test_noise_histogram_with_two_nnz_levels_is_spec_error(self, capsys):
        assert main(["experiment", "--kind", "NOISE_HISTOGRAM", "--n", "100",
                     "--delta", "0.5", "--sigma2", "0", "--nnz-levels", "10", "20"]) == 2
        assert "one nnz level" in capsys.readouterr().err

    def test_convergence_without_nnz_levels_is_spec_error(self, capsys):
        # it used to print rows=0 and exit 0
        assert main(["experiment", "--kind", "CONVERGENCE", "--n", "100",
                     "--delta", "0.5", "--sigma2", "0"]) == 2
        assert "at least one nnz level" in capsys.readouterr().err

    def test_jobs_flag_is_gone(self):
        with pytest.raises(SystemExit):
            main(["se", "--delta", "0.64", "--jobs", "2"])
