"""Command-line interface: subcommands, prior literals, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amplasso
from amplasso import harness
from amplasso.cli import main, parse_prior
from amplasso.harness import KINDS
from amplasso.instances import ENSEMBLES


def test_import_and_theory_commands_load_no_scipy():
    # start-up cost: the scalar theory is stdlib floats and amp loads its
    # LAPACK pair on use, so neither the import nor `se`, `calibrate` and
    # `phase` touch scipy; only operator_norm and NOISE_HISTOGRAM load it
    src = str(Path(amplasso.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, amplasso, amplasso.cli; "
             "from amplasso.cli import main; "
             "codes = [main(['se']), main(['calibrate', '--lambda', '1']), "
             "main(['phase', '--delta', '0.2', '--rho', '0.1'])]; "
             "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[0, 0, 0] []"


MODEL = {"--delta", "--sigma2", "--prior", "--alpha"}
HUGE_ALPHA = "alpha = {} is too large for tau_0^2 = 0.4: (alpha * tau_0)^2 overflows"
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
        assert out["stop"] == "tol"
        short = solve("--max-iter", "5")
        assert short["iterations"] == "5" and short["converged"] == "False"
        assert short["stop"] == "max_iter"
        # a loose tol still lands on the minimizer: the sign pattern holds long
        # before the run's change of x drops below 1e-3 (plain IST to 1e-3 took
        # 39 steps and stopped at kkt_gap=7.271e-03)
        assert solve("--tol", "1e-3") == out

    def test_reports_a_cycle_stop(self, capsys):
        def solve(lam, max_iter):
            code = main(["solve", "--n", "200", "--seeds", "3", "--engine", "ist",
                         "--lambda", lam, "--tol", "0", "--max-iter", max_iter])
            assert code == 0
            return dict(tok.split("=") for tok in capsys.readouterr().out.split())
        # lambda above ||A'y||_inf keeps x = 0: step 2 returns step 1's state,
        # signed zeros included, and the loop replays that fixed point
        out = solve("100", "50")
        assert (out["iterations"], out["converged"], out["nnz"]) == ("50", "False", "0")
        assert out["stop"] == "cycle" and "period" not in out
        # at lambda = 1 IST ends in a cycle of period 2, which is stepped out
        out = solve("1.0", "3000")
        assert (out["iterations"], out["converged"]) == ("3000", "False")
        assert out["stop"] == "max_iter"

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

    # sha256 prefixes of stdout plus the --out CSV of
    # `solve --n 200 --seeds 3 --ensemble E <flags> --out run`; the CSVs are
    # those of the commit before the solvers stopped keeping a trajectory of
    # their own, the two ist_lambda runs those of the LASSO reference that
    # solves on a sign pattern once it holds (34 and 30 steps; 149 and 105
    # when it first stepped to a relative change of 1e-6, and 214 and 148 for
    # plain IST): their rows are those of the 149- and 105-step runs up to
    # the trial, then that run's solved state and confirming step, and stdout
    # differs from theirs only in iterations=; since the reference takes its
    # step size from a Lanczos bound to 10%, its co-scaled tau_hat, theta and
    # rows moved again (same steps and estimate); stdout is the same less the
    # " period=0" token it printed.  The two mp runs are the only ones that
    # calibrate: their CSVs are those of alpha = alpha_of_lambda(1.0) with Phi
    # from math.erfc, whose thetas differ from scipy.special.ndtr's in the
    # last bits.  Since AMP and the reference finish on their sign pattern
    # (amp._finish_on_signs), the two amp runs take 22 and 8 steps (60 and 19
    # stepping AMP to tol): rows equal up to the solved state, the last
    # rows' values move in their last digits, and stdout differs only in
    # iterations= and kkt_gap, which drops to rounding.  The two ist_lambda runs take 26 and 12 steps (34 and
    # 30): rows equal up to the solved state, and the last row less t and
    # stdout less iterations= are the same
    @pytest.mark.parametrize("ensemble, flags, digest", [
        ("gaussian", [], "c7132c695a520a4a"),
        ("gaussian", ["--engine", "ist", "--alpha", "1.0"], "55335fee5b77ac77"),
        ("gaussian", ["--engine", "ist", "--lambda", "1.0"], "fd37bc8a4b05edf0"),
        ("gaussian", ["--engine", "mp", "--lambda", "1.0", "--max-iter", "7"],
         "62d4590d655da2c3"),
        ("rademacher", [], "e5aa2b13f75f2671"),
        ("rademacher", ["--engine", "ist", "--alpha", "1.0"], "12cf5d778c3cd073"),
        ("rademacher", ["--engine", "ist", "--lambda", "1.0"], "b17009f6f3c292ed"),
        ("rademacher", ["--engine", "mp", "--lambda", "1.0", "--max-iter", "7"],
         "6ad4c627e6464743"),
    ], ids=["gaussian-amp", "gaussian-ist", "gaussian-ist_lambda", "gaussian-mp",
            "rademacher-amp", "rademacher-ist", "rademacher-ist_lambda", "rademacher-mp"])
    def test_output_keeps_its_bytes(self, tmp_path, monkeypatch, capsys, ensemble, flags,
                                    digest):
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--n", "200", "--seeds", "3", "--ensemble", ensemble,
                     *flags, "--out", "run"]) == 0
        blob = capsys.readouterr().out.encode() + (tmp_path / "run.csv").read_bytes()
        assert hashlib.sha256(blob).hexdigest()[:16] == digest

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

    @pytest.mark.parametrize("argv", [
        ["se"],
        ["calibrate", "--lambda", "1"],
        ["experiment", "--kind", "MSE_VS_LAMBDA", "--n", "60", "--lambdas", "1"],
        ["solve", "--n", "50", "--lambda", "1"],
    ], ids=["se", "calibrate", "mse_vs_lambda", "solve_lambda"])
    def test_overflowing_prior_is_spec_error(self, argv, capsys):
        # each printed numpy's overflow warning and then blamed alpha:
        # "alpha = 2 is too large for tau_0^2 = inf"; solve without --lambda
        # asks no theory and stays the numerical failure above
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--prior", '{"atoms": [0, 1e300], "weights": [0.9, 0.1]}'])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: prior has E{X0^2} = inf: "
                                "the squares of its atoms overflow\n")

    def test_undefined_effective_lambda_prints_nan(self, capsys):
        # the run ends with ||x||_0 = 47 >= m = 38; solve used to exit 2 with
        # "effective lambda undefined" after the solve had finished.  The alpha
        # is that of --lambda 0.02 as scipy's ndtr calibrated it: this run never
        # settles, so the last bits of the calibration move its final nnz
        assert main(["solve", "--n", "60", "--alpha", "0.5473063331369379",
                     "--seeds", "5"]) == 0
        out = dict(tok.split("=") for tok in capsys.readouterr().out.split())
        assert (out["m"], out["nnz"], out["stop"]) == ("38", "47", "max_iter")
        assert out["effective_lambda"] == "nan" and out["kkt_gap"] == "nan"

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

    @pytest.mark.parametrize("argv, err", [
        (["solve", "--n", "100", "--sigma2", "nan"], "sigma2 must be >= 0"),
        (["se", "--sigma2", "nan"], "sigma2 must be >= 0"),
        (["se", "--delta", "nan"], "delta must be > 0"),
        (["se", "--prior", '{"atoms": [0, NaN], "weights": [0.9, 0.1]}'],
         "atoms and weights must be finite"),
        (["se", "--prior", '{"atoms": [0, 1], "weights": [0.9, NaN]}'],
         "atoms and weights must be finite"),
        (["calibrate", "--lambda", "1.0", "--delta", "nan"], "delta must be > 0"),
        (["experiment", "--kind", "MSE_VS_LAMBDA", "--n", "100", "--lambdas", "nan",
          "--seeds", "0"], "lambda grid values must be > 0"),
        (["experiment", "--kind", "SE_TRACKING", "--n", "100", "--sigma2", "nan"],
         "sigma2 must be >= 0"),
    ], ids=["solve_sigma2", "se_sigma2", "se_delta", "se_atom", "se_weight",
            "calibrate_delta", "experiment_lambda", "experiment_sigma2"])
    def test_nan_model_parameter_is_spec_error(self, argv, err, capsys):
        # solve, se and SE_TRACKING used to exit 0 (solve --sigma2 nan solved a
        # noiseless instance, se printed tau0^2=nan); calibrate and the lambda
        # grid failed only inside brentq, on "function value ... is NaN"
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("argv, err", [
        (["se", "--delta", "inf"], "delta must be finite"),
        (["solve", "--n", "100", "--delta", "inf"], "delta must be finite"),
        (["se", "--sigma2", "inf"], "sigma2 must be finite"),
    ], ids=["se_delta", "solve_delta", "se_sigma2"])
    def test_infinite_model_parameter_is_spec_error(self, argv, err, capsys):
        # se printed predicted_mse=-inf or tau0^2=inf and exited 0; solve ended
        # in an OverflowError traceback
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("argv, err", [
        (["solve", "--n", "100", "--alpha", "inf"], "alpha must be finite"),
        (["solve", "--n", "100", "--engine", "ist", "--alpha", "inf"], "alpha must be finite"),
        (["solve", "--n", "100", "--engine", "ist", "--lambda", "inf"], "lam must be finite"),
        (["experiment", "--kind", "SE_TRACKING", "--n", "100", "--alpha", "inf"],
         "alpha must be finite"),
        (["experiment", "--kind", "MSE_VS_LAMBDA", "--n", "100", "--lambdas", "inf",
          "--seeds", "0"], "lambda grid values must be finite"),
        (["se", "--alpha", "inf"], "alpha must be finite"),
        (["calibrate", "--alpha", "inf"], "alpha must be finite"),
        (["se", "--alpha", "1e200"], HUGE_ALPHA.format("1e+200")),
        (["calibrate", "--alpha", "1e200"], HUGE_ALPHA.format("1e+200")),
        (["experiment", "--kind", "SE_TRACKING", "--n", "100", "--alpha", "1e308"],
         HUGE_ALPHA.format("1e+308")),
        (["experiment", "--kind", "RESAMPLED_ORACLE", "--n", "100", "--alpha", "1e200"],
         HUGE_ALPHA.format("1e+200")),
    ], ids=["solve_alpha", "ist_alpha", "ist_lambda", "se_tracking_alpha",
            "experiment_lambda", "se_alpha", "calibrate_alpha", "se_huge_alpha",
            "calibrate_huge_alpha", "se_tracking_huge_alpha", "oracle_huge_alpha"])
    def test_infinite_level_is_spec_error(self, argv, err, capsys):
        # the three solves printed theta=inf effective_lambda=inf kkt_gap=0.000e+00
        # and SE_TRACKING its rows, each exiting 0, as se did with tau0^2=0.4
        # steps=1; the lambda grid failed only in alpha_of_lambda, on a bracket
        # with no root, and calibrate only in brentq, on a NaN; a huge finite
        # alpha ended in an OverflowError traceback from the channel's theta**2,
        # exiting 1
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("argv", [
        ["se", "--delta", "1e-300"],
        ["calibrate", "--lambda", "1", "--delta", "1e-300"],
    ], ids=["se", "calibrate"])
    def test_delta_below_the_alpha_min_bracket_is_spec_error(self, argv, capsys):
        # both exited 2 with scipy's "f(a) and f(b) must have different signs",
        # which named neither delta nor alpha_min
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: delta = 1e-300 is too small: alpha_min(delta) lies beyond 20, "
            "the end of its bracket\n")

    def test_huge_finite_alpha_solves_to_zero(self, capsys):
        # the solver has no squared threshold: x = 0 is the answer
        assert main(["solve", "--n", "100", "--alpha", "1e200"]) == 0
        out = dict(tok.split("=") for tok in capsys.readouterr().out.split())
        assert out["nnz"] == "0" and out["stop"] == "tol"

    def test_mp_bound_is_checked_before_solving(self, capsys):
        # it used to run AMP and print its four result lines before exiting 2
        assert main(["solve", "--n", "3000", "--engine", "mp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: mp cross-check is desk-scale only (m*n too large)\n"

    def test_mp_bound_draws_no_instance(self, capsys, monkeypatch):
        # the bound was checked after the (m, n) matrix was drawn
        import amplasso.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("drew an instance")

        monkeypatch.setattr(cli, "gen_instance", refuse)
        assert main(["solve", "--n", "3000", "--engine", "mp"]) == 2
        assert "mp cross-check is desk-scale only" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "100", "--tol", "nan"],
        ["solve", "--n", "100", "--engine", "ist", "--lambda", "1.0", "--tol", "nan"],
        ["experiment", "--kind", "MSE_VS_LAMBDA", "--n", "100", "--lambdas", "1.0",
         "--seeds", "0", "--tol", "nan"],
    ], ids=["solve_amp", "solve_ist_lambda", "experiment"])
    def test_nan_tol_is_spec_error(self, argv, capsys):
        # solve ran all 2000 steps and exited 0 (tol > 0 is false for NaN), and
        # MSE_VS_LAMBDA wrote NaN, which is not strict JSON, into its manifest
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: tol must not be NaN\n"

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

    def test_noiseless_fixed_point_below_the_boundary_is_zero(self, capsys):
        # it used to print tau_star=6.05165968532e-157 predicted_mse=1.83112925e-313
        # after 3064 steps
        assert main(["se", "--delta", "0.5", "--sigma2", "0", "--alpha", "1.2"]) == 0
        out = dict(tok.split("=") for tok in capsys.readouterr().out.split())
        assert (out["converged"], out["tau_star"], out["predicted_mse"]) == ("True", "0", "0")
        assert int(out["steps"]) < 400

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

    @pytest.mark.parametrize("delta, rho_c", [("1e-120", "0.00182197281"),
                                              ("1e-200", "0.0010908")])
    def test_point_query_at_a_tiny_delta(self, delta, rho_c, capsys):
        # the root solve divided by zero where scipy's brentq.c bisects: exit 1
        # with a ZeroDivisionError traceback
        assert main(["phase", "--delta", delta]) == 0
        assert f"rho_c={rho_c} " in capsys.readouterr().out

    def test_m_star_at_a_subnormal_rho(self, capsys):
        # eps = rho*delta = 2e-321: the minimax search's bracket end
        # sqrt(2 log(1/eps)) overflowed, and it printed m_star=nan, exit 0
        assert main(["phase", "--delta", "0.2", "--rho", "1e-320"]) == 0
        m_star = float(capsys.readouterr().out.split("m_star=")[1])
        assert 0.0 < m_star < 1e-316

    def test_underflowing_rho_delta_names_both(self, capsys):
        # rho*delta = 0 reached the minimax search, which said "eps must lie
        # in (0, 1)"
        assert main(["phase", "--delta", "1e-300", "--rho", "1e-30"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: rho = 1e-30, delta = 1e-300: "
                                "rho*delta underflows to 0\n")

    @pytest.mark.parametrize("rho", ["0", "-1", "nan"])
    def test_bad_rho_prints_nothing(self, rho, capsys):
        # the rho_c line was printed before --rho was rejected
        assert main(["phase", "--rho", rho]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rho must be > 0\n"

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sweep_takes_a_positive_count(self, count, capsys):
        # --sweep 0 ran the single-point query; -3 failed inside numpy.linspace
        assert main(["phase", "--sweep", count]) == 2
        assert capsys.readouterr().err == "error: grid_points must be >= 1\n"

    def test_sweep_writes_files(self, tmp_path):
        code = main(["phase", "--sweep", "7", "--out", str(tmp_path / "pt")])
        assert code == 0
        assert (tmp_path / "pt_boundary.csv").exists()

    @pytest.mark.parametrize("argv, err", [
        (["--sweep", "3", "--rho", "0.1", "--delta", "0.5"],
         "phase --sweep takes no --delta, --rho"),
        (["--sweep", "3", "--delta", "0.2"], "phase --sweep takes no --delta"),
        (["--delta", "0.2", "--out", "pt"], "phase --out needs --sweep"),
        (["--rho", "0.1", "--out", "pt"], "phase --out needs --sweep"),
    ], ids=["sweep_delta_rho", "sweep_delta", "point_out", "point_rho_out"])
    def test_flag_of_the_other_mode_is_spec_error(self, argv, err, tmp_path, monkeypatch,
                                                   capsys):
        # the sweep ignored --delta and --rho and exited 0; the point query
        # ignored --out and wrote nothing
        monkeypatch.chdir(tmp_path)
        assert main(["phase", *argv]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("change, err", [
        ({"seeds": 3}, "seeds must be a list of integers"),
        ({"n": "100"}, "n must be an integer"),
        ({"n": 100.5}, "n must be an integer"),
        ({"t_target": 2.5}, "t_target must be an integer"),
        (None, "spec must be an object"),
        ({"params": {"delta": 0.64, "sigma2": 0.2}},
         "params.prior must be an object"),
        ({"alpha": True}, "alpha must be a number or null"),
        ({"params": {"delta": 0.64, "sigma2": 0.2, "prior": {"atoms": [0, 1],
                                                             "weights": "0.5"}}},
         "params.prior.weights must be a list of numbers"),
    ], ids=["seeds_int", "n_str", "n_float", "t_target_float", "top_level_list",
            "params_without_prior", "alpha_bool", "weights_str"])
    def test_malformed_spec_json_names_the_field(self, tmp_path, capsys, change, err):
        # the first five used to end in a TypeError traceback with exit 1; a
        # params without prior exited 2 with only "error: 'prior'", alpha true
        # ran as alpha 1, and a weights string was split into characters
        spec = [1, 2] if change is None else {
            "kind": "SE_TRACKING", "n": 100, "seeds": [0], "t_target": 2,
            "params": {"delta": 0.64, "sigma2": 0.2,
                       "prior": {"atoms": [-1, 0, 1], "weights": [0.064, 0.872, 0.064]}},
            **change}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert main(["experiment", "--spec", str(spec_file)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("kind", ["RESAMPLED_ORACLE", "SE_TRACKING"])
    def test_negative_t_target_is_spec_error(self, kind, capsys):
        assert main(["experiment", "--kind", kind, "--n", "100", "--delta", "0.64",
                     "--sigma2", "0.2", "--t-target", "-1"]) == 2
        assert "t_target must be >= 0" in capsys.readouterr().err

    def test_noise_histogram_with_two_nnz_levels_is_spec_error(self, capsys):
        assert main(["experiment", "--kind", "NOISE_HISTOGRAM", "--n", "100",
                     "--delta", "0.5", "--sigma2", "0", "--nnz-levels", "10", "20"]) == 2
        assert "one nnz level" in capsys.readouterr().err

    def test_cell_with_undefined_effective_lambda_is_recorded(self, tmp_path):
        # four cells end with ||x||_0 >= m = 38; the first of them used to
        # abort the sweep, exiting 2 with "effective lambda undefined"
        out = tmp_path / "mvl"
        assert main(["experiment", "--kind", "MSE_VS_LAMBDA", "--n", "60",
                     "--seeds", *map(str, range(8)), "--lambdas", "0.02",
                     "--max-iter", "300", "--out", str(out)]) == 0
        outcomes = json.loads((tmp_path / "mvl.manifest.json").read_text())["outcomes"]
        undefined = [c for c in outcomes if c["effective_lambda"] is None]
        assert [c["seed_index"] for c in undefined] == [0, 3, 5, 6]
        for cell in undefined:
            assert cell["mse"] > 0 and cell["error"] is None
            assert (cell["iterations"], cell["stop"]) == (300, "max_iter")

    @pytest.mark.parametrize("nnz, seeds, count", [("0", ["0", "1"], 0),
                                                   ("1", ["0", "1", "2", "3"], 1)])
    def test_noise_histogram_needs_two_plus_one_coordinates(self, nnz, seeds, count,
                                                            capsys):
        # it printed numpy's and scipy's warnings and exited 0 with NaN summaries
        # (one coordinate has no sample sd)
        assert main(["experiment", "--kind", "NOISE_HISTOGRAM", "--n", "60",
                     "--nnz-levels", nnz, "--delta", "0.5", "--sigma2", "0",
                     "--seeds", *seeds]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: NOISE_HISTOGRAM needs 2 pooled coordinates with x0 = +1, got {count} "
            f"(nnz level {nnz}, {len(seeds)} seeds); raise nnz_levels or add seeds\n")

    def test_convergence_without_nnz_levels_is_spec_error(self, capsys):
        # it used to print rows=0 and exit 0
        assert main(["experiment", "--kind", "CONVERGENCE", "--n", "100",
                     "--delta", "0.5", "--sigma2", "0"]) == 2
        assert "at least one nnz level" in capsys.readouterr().err

    def test_jobs_flag_is_gone(self):
        with pytest.raises(SystemExit):
            main(["se", "--delta", "0.64", "--jobs", "2"])


DEGENERATE = [
    # OverflowError from the channel's theta**2, alpha being below alpha_min = 2.048
    ["experiment", "--kind", "SE_TRACKING", "--n", "200", "--delta", "0.01", "--alpha", "2",
     "--seeds", "0", "--t-target", "3"],
    # predicted_mse=-inf, exit 0: tau_*^2 rounded below sigma^2
    ["se", "--delta", "1e300", "--sigma2", "1e300"],
    # numpy's overflow RuntimeWarning, then empirical_se=inf
    ["experiment", "--kind", "SE_TRACKING", "--n", "200", "--sigma2", "1e300",
     "--seeds", "0", "1", "--t-target", "0"],
    # TypeError from np.sqrt(m) with m = 5e20 in draw_matrix
    ["solve", "--delta", "1e20", "--n", "5"],
    # the cases below came from the fuzz test that follows
    # numpy's overflow RuntimeWarning from ||x||^2 before the blowup check could fire
    ["solve", "--n=39", "--delta=0.05", "--sigma2=1e300", "--alpha=1e-300",
     "--ensemble=rademacher"],
    # kkt_gap=nan at effective_lambda=0: x0 = 0 and no noise make y = 0, so theta = 0
    ["solve", "--n=27", "--sigma2=0", "--engine=ist"],
    # scipy's divide RuntimeWarning: a repeated seed pools one +1 coordinate twice
    ["experiment", "--kind=NOISE_HISTOGRAM", "--n=12", "--t-target=2", "--seeds", "3", "3",
     "2"],
]


@pytest.mark.parametrize("argv", DEGENERATE, ids=[
    "se_tracking_below_alpha_min", "se_negative_mse", "se_tracking_overflowing_se",
    "solve_huge_m", "solve_overflowing_norm", "solve_zero_data",
    "noise_histogram_repeated_seed"])
def test_degenerate_input_gets_an_exit_code(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2, 3)
    assert "Traceback" not in captured.err
    assert not re.search(r"\b(nan|inf)\b", captured.out, re.IGNORECASE)


# Edge values for every float flag, and values a run takes without complaint
EDGE = ["0", "1", "-1", "1e-300", "1e300", "-1e300", "nan", "inf", "-inf",
        "0.64", "0.2", "2", "0.05"]
FUZZ_PRIORS = [
    '{"atoms": [-1, 0, 1], "weights": [0.064, 0.872, 0.064]}',
    '{"atoms": [0], "weights": [1]}',  # no signal: y is pure noise
    '{"atoms": [1], "weights": [1]}',  # no mass at zero
    '{"atoms": [0, 1e300], "weights": [0.9, 0.1]}',  # E{X0^2} overflows
    '{"atoms": [0, 1e-300], "weights": [0.5, 0.5]}',
]
_float = st.sampled_from(EDGE)
_count = st.integers(-1, 40).map(str)
_small = st.integers(-1, 3).map(str)
_model = {"--delta": _float, "--sigma2": _float, "--alpha": _float,
          "--prior": st.sampled_from(FUZZ_PRIORS)}
FUZZ_FLAGS = {
    "solve": {**_model, "--lambda": _float, "--tol": _float, "--seeds": _small,
              "--max-iter": _count, "--ensemble": st.sampled_from(ENSEMBLES),
              "--engine": st.sampled_from(["amp", "ist", "mp"])},
    "se": {**_model, "--lambda": _float},
    "calibrate": {**_model, "--lambda": _float},
    "phase": {"--delta": _float, "--rho": _float, "--sweep": _small},
    "experiment": {**_model, "--tol": _float, "--max-iter": _count, "--t-target": _small,
                   "--ensemble": st.sampled_from(ENSEMBLES),
                   "--seeds": st.lists(_small, min_size=1, max_size=3),
                   "--lambdas": st.lists(_float, min_size=1, max_size=2),
                   "--nnz-levels": st.lists(_count, min_size=1, max_size=2)},
}


@st.composite
def cli_argv(draw):
    """A subcommand, --n <= 40 where it takes one, and a subset of its other flags
    with drawn values; --out and --spec, which only name files, are left out.
    An experiment flag its kind does not read is drawn one time in eight, so
    that most runs get past the spec."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [command]
    unread = set()
    if command == "experiment":
        kind = draw(st.sampled_from(KINDS))
        argv.append(f"--kind={kind}")
        unread = {"--" + field.replace("_", "-") for field in
                  ("lambdas", "max_iter", "tol", "t_target", "nnz_levels")
                  if field not in harness._READS[kind]}
    if command in ("solve", "experiment"):
        argv.append(f"--n={draw(st.integers(1, 40))}")
    for flag, values in FUZZ_FLAGS[command].items():
        if draw(st.integers(0, 7)) == 0 if flag in unread else draw(st.booleans()):
            value = draw(values)
            # flag=value keeps argparse from reading a value such as -inf as a flag
            argv += [flag, *value] if isinstance(value, list) else [f"{flag}={value}"]
    return argv


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(cli_argv())
@example(DEGENERATE[0])
@example(DEGENERATE[1])
@example(DEGENERATE[2])
@example(DEGENERATE[3])
@example(DEGENERATE[4])
@example(DEGENERATE[5])
@example(DEGENERATE[6])
def test_fuzzed_argv_gets_an_exit_code_and_finite_output(argv):
    # an exception escapes main, a RuntimeWarning among them, or an exit code
    # other than 0, 2 (a usage error from argparse too) or 3 fails the test
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3)
    text = out.getvalue()
    # the two documented non-finite fields: m_star above the boundary, and the
    # effective lambda and its KKT gap of a solve that ends at ||x||_0 >= m
    if "effective_lambda=nan kkt_gap=nan" in text:
        fields = dict(tok.split("=") for tok in text.split() if "=" in tok)
        assert int(fields["nnz"]) >= int(fields["m"])
    text = text.replace("effective_lambda=nan kkt_gap=nan", "").replace("m_star=inf", "")
    assert not re.search(r"\b(nan|inf)\b", text, re.IGNORECASE)
