"""Experiment driver: protocols shrunk to smoke scale, seeds, CSV, manifests."""

import csv
import hashlib
import json
import os
import threading
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy import stats

from amplasso import (DiscretePrior, ExperimentSpec, ModelParams, NumericalBlowupError,
                      ThresholdPolicy, amp_step, gen_instance, gen_planted_instance,
                      initial_state, ist_run, run_experiment, se_run, three_point)
from amplasso import harness
from amplasso.harness import (KINDS, cell_seed, run_convergence,
                              run_mse_vs_lambda, run_noise_histogram,
                              run_phase_curve, run_resampled_oracle,
                              run_se_tracking)
from amplasso.instances import ConditionedGaussian, draw_matrix, gen_lazy_instance
from amplasso.scalar_risk import soft_threshold

ZERO_PRIOR = DiscretePrior((0.0,), (1.0,))  # all mass on zero


def first_hit(rows: list[dict], engine: str, nnz: int, target: float) -> int | None:
    """First t at which a CONVERGENCE lane's recorded MSE drops to ``target``."""
    hits = [r["t"] for r in rows
            if r["engine"] == engine and r["nnz"] == nnz and r["mse"] <= target]
    return min(hits) if hits else None


BLOWUP = "residual scale tau_hat = inf"


def blowing_up_in(run, failing: set[int]):
    """``run`` whose calls numbered in ``failing`` (from 0) blow up at their third state."""
    calls = []

    def wrapped(*args, observe=None, **kwargs):
        index = len(calls)
        calls.append(index)

        def observe_then_fail(state):
            if observe is not None:
                observe(state)
            if index in failing and state.t == 2:
                raise NumericalBlowupError(BLOWUP)
        return run(*args, observe=observe_then_fail, **kwargs)
    return wrapped


@pytest.fixture(scope="module")
def small_params():
    return ModelParams(delta=0.64, sigma2=0.2, prior=three_point(0.128))


COMMON = {"n", "params", "ensemble", "seeds", "alpha", "base_seed"}
# The spec fields each kind reads; every other field but kind, out and jobs
# must stay at its default.
READS = {
    "MSE_VS_LAMBDA": COMMON | {"lambdas", "max_iter", "tol"},
    "CONVERGENCE": COMMON | {"max_iter", "nnz_levels", "alpha_ist", "ist_rescale"},
    "NOISE_HISTOGRAM": COMMON | {"t_target", "nnz_levels", "alpha_ist", "ist_rescale"},
    "SE_TRACKING": COMMON | {"t_target"},
    "RESAMPLED_ORACLE": COMMON | {"t_target"},
    "PHASE_CURVE": {"grid_points"},
}


NOISELESS = ModelParams(delta=0.5, sigma2=0.0, prior=three_point(0.125))


def minimal(kind, params):
    """The fields a spec of ``kind`` cannot do without: ``params`` (but for
    PHASE_CURVE), which for CONVERGENCE are noiseless and come with an nnz level."""
    if kind == "PHASE_CURVE":
        return {}
    if kind == "CONVERGENCE":
        return {"params": NOISELESS, "nnz_levels": (9,)}
    return {"params": params}


def read_spec(kind, **kwargs):
    """A spec of ``kind`` from those of ``kwargs`` that the kind reads."""
    return ExperimentSpec(kind=kind, **{k: v for k, v in kwargs.items() if k in READS[kind]})


class TestExperimentSpec:
    def test_rejects_unknown_kind(self, small_params):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="NOPE", params=small_params)

    def test_rejects_empty_seeds(self, small_params):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="SE_TRACKING", params=small_params, seeds=())

    def test_rejects_nonpositive_lambda(self, small_params):
        for bad in (0.0, float("nan")):  # NaN used to fail only inside brentq
            with pytest.raises(ValueError, match="lambda grid values must be > 0"):
                ExperimentSpec(kind="MSE_VS_LAMBDA", params=small_params,
                               lambdas=(0.5, bad))

    def test_rejects_an_infinite_lambda(self, small_params):
        # it used to fail only in alpha_of_lambda, on a bracket with no root
        with pytest.raises(ValueError, match="lambda grid values must be finite"):
            ExperimentSpec(kind="MSE_VS_LAMBDA", params=small_params, lambdas=(0.5, float("inf")))

    @pytest.mark.parametrize("kind", ["MSE_VS_LAMBDA", "CONVERGENCE", "NOISE_HISTOGRAM",
                                      "SE_TRACKING", "RESAMPLED_ORACLE"])
    def test_requires_params_except_phase_curve(self, kind):
        with pytest.raises(ValueError, match="needs params"):
            ExperimentSpec(kind=kind)
        with pytest.raises(ValueError, match="needs params"):
            ExperimentSpec.from_dict({"kind": kind})
        assert ExperimentSpec(kind="PHASE_CURVE").params is None

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_negative_t_target(self, small_params, kind):
        # RESAMPLED_ORACLE used to fail with IndexError, SE_TRACKING to
        # return no rows
        base = minimal(kind, small_params)
        with pytest.raises(ValueError, match="t_target"):
            ExperimentSpec(kind=kind, **base, t_target=-1)
        spec = ExperimentSpec(kind=kind, **base).to_dict()
        with pytest.raises(ValueError, match="t_target"):
            ExperimentSpec.from_dict({**spec, "t_target": -1})

    def test_noise_histogram_rejects_t_target_zero_when_built(self, small_params):
        # it used to be rejected only once the runner started
        with pytest.raises(ValueError, match="t_target must be >= 1"):
            ExperimentSpec(kind="NOISE_HISTOGRAM", params=small_params, t_target=0)

    def test_noise_histogram_takes_one_nnz_level(self, small_params):
        # the protocol reads one level; a second one used to be ignored silently
        with pytest.raises(ValueError, match="one nnz level"):
            ExperimentSpec(kind="NOISE_HISTOGRAM", params=small_params,
                           nnz_levels=(50, 100))
        spec = ExperimentSpec(kind="NOISE_HISTOGRAM", params=small_params,
                              nnz_levels=(50,)).to_dict()
        with pytest.raises(ValueError, match="one nnz level"):
            ExperimentSpec.from_dict({**spec, "nnz_levels": [50, 100]})
        assert ExperimentSpec.from_dict(spec).nnz_levels == (50,)
        assert ExperimentSpec(kind="CONVERGENCE", params=NOISELESS,
                              nnz_levels=(50, 100)).nnz_levels == (50, 100)

    def test_round_trip_via_dict(self, small_params):
        # one spec of each kind, and its manifest's spec_sha256 (out and jobs unhashed)
        for kwargs, sha256 in SPEC_HASHES:
            params = {"CONVERGENCE": NOISELESS, "PHASE_CURVE": None}.get(kwargs["kind"],
                                                                         small_params)
            spec = ExperimentSpec(params=params, **kwargs)
            d = spec.to_dict()
            assert ("params" in d) == (params is not None)
            back = ExperimentSpec.from_dict(json.loads(json.dumps({**d, "unknown": 1})))
            assert back == spec
            assert harness._manifest(spec, [])["spec_sha256"] == sha256


class TestSpecFields:
    """Each kind takes only the fields it reads; out and jobs are not hashed."""

    @staticmethod
    def other_values(params):
        return dict(n=321, params=params, ensemble="rademacher", seeds=(4,), alpha=1.5,
                    lambdas=(0.5,), max_iter=77, tol=1e-5, t_target=4, nnz_levels=(9,),
                    alpha_ist=1.7, ist_rescale=0.9, grid_points=7, base_seed=3)

    def test_table_matches_the_runners(self):
        assert {kind: set(names) for kind, names in harness._READS.items()} == READS

    @pytest.mark.parametrize("kind", KINDS)
    def test_unread_fields_are_rejected_by_name(self, small_params, kind):
        base = minimal(kind, small_params)
        values = self.other_values(base.get("params", small_params))
        for name, value in values.items():
            if name in READS[kind]:
                continue
            with pytest.raises(ValueError, match=f"{kind} does not read {name}"):
                ExperimentSpec(kind=kind, **{**base, name: value})
            spec = ExperimentSpec(kind=kind, **base).to_dict()
            spec[name] = asdict(value) if name == "params" else value
            with pytest.raises(ValueError, match=f"does not read {name}"):
                ExperimentSpec.from_dict(json.loads(json.dumps(spec)))
        read = {k: v for k, v in values.items() if k in READS[kind]}
        assert ExperimentSpec(kind=kind, **read).to_dict()["kind"] == kind

    @pytest.mark.parametrize("kind", KINDS)
    def test_out_and_jobs_leave_the_hash(self, small_params, kind):
        base = minimal(kind, small_params)
        hashes = {harness._manifest(ExperimentSpec(kind=kind, **base, **extra),
                                    [])["spec_sha256"]
                  for extra in ({}, {"out": "a/run"}, {"out": "b/other"}, {"jobs": 4})}
        assert len(hashes) == 1
        other = ExperimentSpec(kind=kind, **base, grid_points=9) if kind == "PHASE_CURVE" \
            else ExperimentSpec(kind=kind, **base, seeds=(1,))
        assert harness._manifest(other, [])["spec_sha256"] not in hashes


SPEC_HASHES = [
    (dict(kind="MSE_VS_LAMBDA", n=321, lambdas=(0.5, 1.0), seeds=(1, 2, 3), jobs=2),
     "d531a452e14ed565ec522b41bd755aa8460f113acf4bc67b4fc96fc1628ddcdc"),
    (dict(kind="CONVERGENCE", n=200, nnz_levels=(20, 40), max_iter=100, alpha=1.5),
     "76a05113758012fde30001f6e515a3a8de4ffd30efd28bbfd17bb9b3e9b8eb3b"),
    (dict(kind="NOISE_HISTOGRAM", ensemble="rademacher", nnz_levels=(50,), t_target=5,
          alpha_ist=1.7),
     "15ac34717437078b0a28cdce9b03acee25273d494938d29ed32b4b953405fac8"),
    (dict(kind="SE_TRACKING", alpha=2.0, t_target=12, base_seed=3),
     "1abe4e2ff99c5124e252f8a65ac934b3239e89cf1daa6d631588bd54393816a2"),
    (dict(kind="RESAMPLED_ORACLE", out="runs/oracle"),
     "34b9b2dae1ec393feb5b5750437b2cfc05645ae893d9a59e2a7c27a228e77095"),
    (dict(kind="PHASE_CURVE", grid_points=7),
     "07fddb28d522fa165a57d365a9f49b34d33d9bbdb1bd97802343639961bb8b5b"),
]


class TestCellSeeds:
    def test_stable_and_distinct(self):
        s1 = cell_seed(0, "mse_vs_lambda", 1.0, 3, "gaussian")
        s2 = cell_seed(0, "mse_vs_lambda", 1.0, 3, "gaussian")
        s3 = cell_seed(0, "mse_vs_lambda", 1.0, 4, "gaussian")
        s4 = cell_seed(1, "mse_vs_lambda", 1.0, 3, "gaussian")
        assert s1 == s2
        assert len({s1, s3, s4}) == 3


# Each protocol's cell keys for the given seeds, in the order it draws them.
CELL_KEYS = {
    "MSE_VS_LAMBDA": lambda seeds: [("mse_vs_lambda", 1.0, v, "gaussian") for v in seeds],
    "CONVERGENCE": lambda seeds: [("convergence", 20, v, "gaussian") for v in seeds],
    "NOISE_HISTOGRAM": lambda seeds: [("noise_histogram", v, "gaussian") for v in seeds],
    "SE_TRACKING": lambda seeds: [("se_tracking", v, "gaussian") for v in seeds],
    "RESAMPLED_ORACLE": lambda seeds: [("resampled_oracle", v, resample, "gaussian")
                                       for resample in (True, False) for v in seeds],
}


class TestSeedValues:
    @pytest.mark.parametrize("kind", sorted(CELL_KEYS))
    def test_cells_are_keyed_by_seed_value(self, small_params, monkeypatch, kind):
        # seeds (5, 6, 7) draw their own cells; for seeds = range(k) each value
        # equals its index, so the keys, and every row, are the ones that
        # keying by the index into `seeds` gave
        params = (ModelParams(delta=0.5, sigma2=0.0, prior=three_point(0.1))
                  if kind == "CONVERGENCE" else small_params)
        keys = []

        def spy(base, *parts):
            keys.append(parts)
            return cell_seed(base, *parts)

        monkeypatch.setattr(harness, "cell_seed", spy)

        def rows(seeds):
            keys.clear()
            spec = read_spec(kind, n=160, params=params, seeds=seeds,
                             alpha=2.0, lambdas=(1.0,), max_iter=60, t_target=3,
                             nnz_levels=(20,))
            out = run_experiment(spec).rows
            assert keys == CELL_KEYS[kind](seeds)
            return out

        assert rows((5, 6, 7)) != rows((0, 1, 2))


class TestMseVsLambda:
    def test_rows_and_grid_stability(self, small_params):
        base = dict(kind="MSE_VS_LAMBDA", n=200, params=small_params,
                    seeds=tuple(range(4)), max_iter=500, tol=1e-7)
        wide = run_mse_vs_lambda(ExperimentSpec(lambdas=(0.5, 1.0), **base))
        narrow = run_mse_vs_lambda(ExperimentSpec(lambdas=(1.0,), **base))
        row_wide = next(r for r in wide.rows if r["lambda"] == 1.0)
        row_narrow = narrow.rows[0]
        # enlarging the grid must not perturb the existing cell
        assert row_wide["empirical_mse_mean"] == row_narrow["empirical_mse_mean"]
        assert set(row_wide) == {"lambda", "n", "ensemble", "empirical_mse_mean",
                                 "empirical_mse_se", "predicted_mse", "converged_cells"}

    def test_prediction_close_at_moderate_size(self, small_params):
        spec = ExperimentSpec(kind="MSE_VS_LAMBDA", n=500, params=small_params,
                              lambdas=(1.0,), seeds=tuple(range(8)),
                              max_iter=800, tol=1e-8)
        row = run_mse_vs_lambda(spec).rows[0]
        assert abs(row["empirical_mse_mean"] - row["predicted_mse"]) \
            / row["predicted_mse"] < 0.15

    def test_outcomes_record_the_stop_reason(self, small_params):
        spec = ExperimentSpec(kind="MSE_VS_LAMBDA", n=200, params=small_params,
                              lambdas=(1.0,), seeds=(0, 1), max_iter=500, tol=1e-7)
        result = run_mse_vs_lambda(spec)
        outcomes = result.manifest["outcomes"]
        assert [o["stop"] for o in outcomes] == ["tol", "tol"]
        assert result.rows[0]["converged_cells"] == 2
        # the row counts no converged cell, yet its mean is over both cells
        short = run_mse_vs_lambda(replace(spec, max_iter=3))
        assert [o["stop"] for o in short.manifest["outcomes"]] == ["max_iter", "max_iter"]
        assert short.rows[0]["converged_cells"] == 0
        assert short.rows[0]["empirical_mse_mean"] == float(
            np.mean([o["mse"] for o in short.manifest["outcomes"]]))

    def test_zero_signal_lane_uses_fixed_alpha(self):
        # a cell's MSE has a spread of about 1.1x the prediction here, so the
        # 50% check needs 80 seeds to sit at 4 SE (with 3 it failed on 45% of
        # seed sets, whether the matrix was drawn or conditioned)
        params = ModelParams(delta=0.64, sigma2=0.2, prior=ZERO_PRIOR)
        spec = ExperimentSpec(kind="MSE_VS_LAMBDA", n=300, params=params,
                              lambdas=(1.0,), seeds=tuple(range(80)), alpha=2.5,
                              max_iter=400, tol=1e-8)
        row = run_mse_vs_lambda(spec).rows[0]
        assert row["predicted_mse"] > 0
        assert abs(row["empirical_mse_mean"] - row["predicted_mse"]) \
            / row["predicted_mse"] < 0.5

    def test_jobs_do_not_change_results(self, small_params):
        base = dict(kind="MSE_VS_LAMBDA", n=200, params=small_params,
                    lambdas=(0.75,), seeds=tuple(range(4)), max_iter=400,
                    tol=1e-7)
        serial = run_mse_vs_lambda(ExperimentSpec(jobs=1, **base))
        parallel = run_mse_vs_lambda(ExperimentSpec(jobs=3, **base))
        assert serial.rows == parallel.rows

    def test_csv_and_manifest_written(self, small_params, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "sweep"
        spec = ExperimentSpec(kind="MSE_VS_LAMBDA", n=120, params=small_params,
                              lambdas=(1.0,), seeds=(0,), max_iter=200,
                              tol=1e-6, out=str(out))
        run_mse_vs_lambda(spec)
        with (tmp_path / "sweep.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1 and rows[0]["lambda"] == "1.0"
        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert manifest["spec"]["kind"] == "MSE_VS_LAMBDA"
        assert len(manifest["spec_sha256"]) == 64
        # result bits depend on the BLAS threading, so the manifest records it
        env = manifest["environment"]
        assert env["nproc"] == len(os.sched_getaffinity(0))
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert "OMP_NUM_THREADS" not in env["thread_env"]

    def test_manifest_hash_reproducible(self, small_params):
        spec = ExperimentSpec(kind="MSE_VS_LAMBDA", n=120, params=small_params,
                              lambdas=(1.0,), seeds=(0,), max_iter=200, tol=1e-6)
        h1 = run_mse_vs_lambda(spec).manifest["spec_sha256"]
        h2 = run_mse_vs_lambda(spec).manifest["spec_sha256"]
        assert h1 == h2


class TestOutcomes:
    """Every Monte Carlo kind records one outcome per cell, all with one key set."""

    COMMON = {"seed_index", "seed", "stop", "iterations", "error", "sampler"}

    @pytest.mark.parametrize("ensemble", ["gaussian", "rademacher"])
    @pytest.mark.parametrize("kind, extra, cells, own", [
        ("MSE_VS_LAMBDA", dict(lambdas=(0.5, 1.0), max_iter=40), 6,
         {"lambda", "mse", "effective_lambda", "converged"}),
        ("CONVERGENCE", dict(nnz_levels=(2, 5), max_iter=10), 6, {"nnz"}),
        ("NOISE_HISTOGRAM", dict(nnz_levels=(8,), t_target=3), 3, set()),
        ("SE_TRACKING", dict(t_target=3), 3, set()),
        ("RESAMPLED_ORACLE", dict(t_target=3), 6, {"lane"}),
    ])
    def test_one_per_cell_with_the_common_keys(self, small_params, ensemble, kind, extra,
                                               cells, own):
        noiseless = ModelParams(delta=0.64, sigma2=0.0, prior=three_point(0.128))
        params = noiseless if kind in ("CONVERGENCE", "NOISE_HISTOGRAM") else small_params
        spec = ExperimentSpec(kind=kind, n=60, params=params, ensemble=ensemble, alpha=2.0,
                              seeds=(4, 0, 7), **extra)
        outcomes = run_experiment(spec).manifest["outcomes"]
        assert len(outcomes) == cells
        assert all(set(o) == self.COMMON | own for o in outcomes)
        assert [o["seed_index"] for o in outcomes] == [0, 1, 2] * (cells // 3)
        assert all(o["error"] is None and o["stop"] in ("tol", "max_iter", "cycle")
                   and o["iterations"] >= 1 for o in outcomes)
        if kind == "SE_TRACKING":
            assert [o["seed"] for o in outcomes] == [
                cell_seed(0, "se_tracking", v, ensemble) for v in spec.seeds]


class TestOneSeed:
    @pytest.mark.parametrize("kind, se_key", [
        ("MSE_VS_LAMBDA", "empirical_mse_se"), ("SE_TRACKING", "empirical_se"),
        ("RESAMPLED_ORACLE", "tau2_empirical_se")])
    def test_a_single_sample_has_no_standard_error(self, small_params, kind, se_key):
        spec = read_spec(kind, n=50, params=small_params, alpha=2.0,
                         lambdas=(1.0,), seeds=(0,), t_target=3, max_iter=50)
        rows = run_experiment(spec).rows
        assert rows and all(r[se_key] is None for r in rows)


class TestSampler:
    """Gaussian cells of MSE_VS_LAMBDA and SE_TRACKING draw only the products they make."""

    @pytest.mark.parametrize("kind", ["MSE_VS_LAMBDA", "SE_TRACKING"])
    @pytest.mark.parametrize("ensemble, sampler", [
        ("gaussian", "gaussian_conditioning"), ("rademacher", "matrix_draw")])
    def test_outcomes_name_it_and_short_gaussian_runs_draw_no_matrix(
            self, small_params, monkeypatch, kind, ensemble, sampler):
        import amplasso.instances as instances
        drawn = []

        def spy(rng, m, n, ensemble, out=None):
            drawn.append(ensemble)
            return draw_matrix(rng, m, n, ensemble, out=out)

        monkeypatch.setattr(instances, "draw_matrix", spy)
        # n = 400 holds 39 directions per side: more than 6 steps make
        spec = read_spec(kind, n=400, params=small_params, alpha=2.0,
                         ensemble=ensemble, lambdas=(1.0,), seeds=(0, 1, 2),
                         t_target=5, max_iter=6)
        outcomes = run_experiment(spec).manifest["outcomes"]
        assert outcomes and {o["sampler"] for o in outcomes} == {sampler}
        assert drawn == ([] if ensemble == "gaussian" else [ensemble] * 3)


class TestConvergence:
    def test_traces_and_ordering(self):
        params = ModelParams(delta=0.2, sigma2=0.0, prior=three_point(0.1))
        spec = ExperimentSpec(kind="CONVERGENCE", n=1000, params=params,
                              alpha=1.41, seeds=(0,), nnz_levels=(20, 60),
                              max_iter=40)
        rows = run_convergence(spec).rows
        for nnz in (20, 60):
            start = [r for r in rows if r["engine"] == "amp" and r["nnz"] == nnz
                     and r["t"] == 0]
            assert start[0]["mse"] == pytest.approx(nnz / 1000)
        # less sparse level sits above the sparser one at a common iteration
        t_probe = 20
        mse = {nnz: next(r["mse"] for r in rows
                         if r["engine"] == "amp" and r["nnz"] == nnz
                         and r["t"] == t_probe)
               for nnz in (20, 60)}
        assert mse[60] > mse[20]

    def test_speedup_below_boundary(self):
        # corrected engine hits the target ~an order of magnitude sooner
        params = ModelParams(delta=0.2, sigma2=0.0, prior=three_point(0.02))
        spec = ExperimentSpec(kind="CONVERGENCE", n=2000, params=params,
                              alpha=1.41, seeds=(0,), nnz_levels=(40,),
                              max_iter=300)
        rows = run_convergence(spec).rows
        t_amp = first_hit(rows, "amp", 40, 1e-4)
        t_ist = first_hit(rows, "ist", 40, 1e-4)
        assert t_amp is not None
        assert t_ist is None or t_ist >= 10 * t_amp

    # sha256 prefixes of json.dumps(rows), from the commit before the solvers
    # stopped keeping a trajectory of their own
    @pytest.mark.parametrize("ensemble, digest", [("gaussian", "c940ad0771cb9456"),
                                                  ("rademacher", "35e56735d73b12fc")])
    def test_rows_keep_their_bytes(self, ensemble, digest):
        params = ModelParams(delta=0.3, sigma2=0.0, prior=three_point(0.02))
        spec = ExperimentSpec(kind="CONVERGENCE", n=600, params=params, ensemble=ensemble,
                              alpha=1.4, seeds=(0, 1), nnz_levels=(12, 40), max_iter=80)
        rows = run_convergence(spec).rows
        assert len(rows) == 2 * 2 * 81 * 2
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == digest

    def test_blown_up_ist_lane_leaves_no_rows(self, monkeypatch):
        # the plain run's rows are buffered: one that observes a few states
        # and then blows up records its error and adds no "ist" row
        real = harness.ist_run

        def blowing_up(instance, policy, observe=None, **kwargs):
            def observe_then_fail(state):
                observe(state)
                if state.t == 3:
                    raise NumericalBlowupError("|x| reached 1e+99 (limit 1e+06)")
            return real(instance, policy, observe=observe_then_fail, **kwargs)

        monkeypatch.setattr(harness, "ist_run", blowing_up)
        params = ModelParams(delta=0.3, sigma2=0.0, prior=three_point(0.02))
        spec = ExperimentSpec(kind="CONVERGENCE", n=200, params=params, alpha=1.4,
                              seeds=(0, 1), nnz_levels=(4,), max_iter=10)
        result = run_convergence(spec)
        assert {r["engine"] for r in result.rows} == {"amp"}
        assert len(result.rows) == 2 * 11
        assert result.manifest["outcomes"] == [
            {"nnz": 4, "seed_index": i, "seed": cell_seed(0, "convergence", 4, i, "gaussian"),
             "stop": None, "iterations": None, "error": "|x| reached 1e+99 (limit 1e+06)",
             "sampler": "matrix_draw"}
            for i in (0, 1)]

    def test_rejects_noisy_spec(self, small_params):
        # rejected when built; the runner used to reject it
        with pytest.raises(ValueError, match="noiseless"):
            ExperimentSpec(kind="CONVERGENCE", n=100, params=small_params, nnz_levels=(5,))

    def test_rejects_spec_without_nnz_levels(self):
        # it used to return zero rows, then to be rejected once the runner started
        params = ModelParams(delta=0.5, sigma2=0.0, prior=three_point(0.1))
        with pytest.raises(ValueError, match="at least one nnz level"):
            ExperimentSpec(kind="CONVERGENCE", n=100, params=params)


class TestNoiseHistogram:
    def test_smoke_summaries(self):
        params = ModelParams(delta=0.5, sigma2=0.0, prior=three_point(0.125))
        spec = ExperimentSpec(kind="NOISE_HISTOGRAM", n=600, params=params,
                              ensemble="rademacher", seeds=tuple(range(6)),
                              t_target=6, nnz_levels=(75,))
        res = run_noise_histogram(spec)
        s = res.extra["summaries"]
        assert set(s) == {"amp", "ist"}
        assert s["amp"]["count"] == s["ist"]["count"] > 0
        assert abs(s["amp"]["mean"] - 1.0) < 0.1
        assert abs(s["ist"]["mean"] - 1.0) > abs(s["amp"]["mean"] - 1.0)
        engines = {r["engine"] for r in res.rows}
        assert engines == {"amp", "ist"}

    def test_blown_up_cell_leaves_the_pool(self, monkeypatch):
        # a cell whose plain run blows up used to abort the run; now neither
        # of its engines adds to the pool
        params = ModelParams(delta=0.5, sigma2=0.0, prior=three_point(0.125))
        spec = ExperimentSpec(kind="NOISE_HISTOGRAM", n=120, params=params, seeds=(0, 1, 2),
                              t_target=4, nnz_levels=(15,))
        monkeypatch.setattr(harness, "ist_run", blowing_up_in(harness.ist_run, {1}))
        result = run_noise_histogram(spec)
        assert [o["error"] for o in result.manifest["outcomes"]] == [None, BLOWUP, None]
        monkeypatch.undo()
        kept = run_noise_histogram(replace(spec, seeds=(0, 2)))
        assert result.rows == kept.rows
        assert result.extra["summaries"] == kept.extra["summaries"]
        monkeypatch.setattr(harness, "ist_run", blowing_up_in(harness.ist_run, {0, 1, 2}))
        with pytest.raises(ValueError, match="needs 2 pooled coordinates .* got 0"):
            run_noise_histogram(spec)


class TestSeTracking:
    def test_smoke_within_loose_band(self, small_params):
        spec = ExperimentSpec(kind="SE_TRACKING", n=500, params=small_params,
                              alpha=2.0, seeds=tuple(range(6)), t_target=6)
        rows = run_se_tracking(spec).rows
        assert [r["t"] for r in rows] == list(range(7))
        for row in rows:
            assert abs(row["empirical_mean"] - row["tau2_prediction"]) \
                <= max(6 * row["empirical_se"], 0.05)

    @pytest.mark.parametrize("failing, error", [({1}, [None, BLOWUP, None]),
                                                ({0, 1, 2}, [BLOWUP] * 3)])
    def test_blown_up_cell_is_recorded_and_dropped(self, small_params, monkeypatch,
                                                   failing, error):
        # a cell that blows up after a few states used to abort the run; now
        # it records its error and adds nothing to the rows
        spec = ExperimentSpec(kind="SE_TRACKING", n=60, params=small_params,
                              alpha=2.0, seeds=(0, 1, 2), t_target=5)
        monkeypatch.setattr(harness, "iterate", blowing_up_in(harness.iterate, failing))
        result = run_se_tracking(spec)
        outcomes = result.manifest["outcomes"]
        assert [o["error"] for o in outcomes] == error
        assert all(o["stop"] is None and o["iterations"] is None
                   for o in outcomes if o["error"] is not None)
        monkeypatch.undo()
        kept = tuple(v for v in spec.seeds if v not in failing)
        if kept:  # a cell's bits depend on its seed value, not its position
            assert result.rows == run_se_tracking(replace(spec, seeds=kept)).rows
        else:
            assert [(r["empirical_mean"], r["empirical_se"]) for r in result.rows] \
                == [(None, None)] * 6


def hand_pseudo_data(instance, policy, steps):
    """``x_t + A'r_t`` for t = 0..steps, stepping ``amp_step`` by hand."""
    state = initial_state(instance, policy)
    out = [state.x + instance.a.T @ state.r]
    for _ in range(steps):
        state = amp_step(state, instance, policy)
        out.append(state.x + instance.a.T @ state.r)
    return out


def stepped_pseudo_data(instance, policy, steps):
    """``x_t + A'r_t`` for t = 0..steps as ``amp_step`` computes it, stepping by hand.

    Each step makes only its own two products, so a lazy instance draws
    what the protocol's run draws.
    """
    state = initial_state(instance, policy)
    out = []
    for _ in range(steps + 1):
        state = amp_step(state, instance, policy)
        out.append(state.u)
    return out


class TestHandSteppedReference:
    """Both AMP protocols equal, value for value, a hand-stepped ``amp_step`` run."""

    # n = 60 (Gaussian) and n = 100 (Rademacher) reach exact cycles within 300
    # steps, so replayed states are covered
    @pytest.mark.parametrize("ensemble, n, t_target", [
        ("gaussian", 60, 300), ("gaussian", 300, 8),
        ("rademacher", 100, 300), ("rademacher", 300, 8),
    ])
    def test_se_tracking(self, small_params, ensemble, n, t_target):
        spec = ExperimentSpec(kind="SE_TRACKING", n=n, params=small_params, alpha=2.0,
                              ensemble=ensemble, seeds=(0, 1, 2, 3), t_target=t_target)
        policy = ThresholdPolicy.rms(2.0)
        samples = []
        for value in spec.seeds:
            seed = cell_seed(0, "se_tracking", value, ensemble)
            if ensemble == "gaussian":  # the protocol's lazy instance, stepped afresh
                inst = gen_lazy_instance(n, small_params, seed)
                pseudo = stepped_pseudo_data(inst, policy, t_target)
            else:
                inst = gen_instance(n, small_params, seed, ensemble)
                pseudo = hand_pseudo_data(inst, policy, t_target)
            samples.append([np.mean((u - inst.x0) ** 2) for u in pseudo])
        samples = np.array(samples)
        tau2 = list(se_run(small_params, 2.0).tau2_sequence)
        tau2 += [tau2[-1]] * (t_target + 1 - len(tau2))
        expected = [{"t": t, "empirical_mean": float(col.mean()),
                     "empirical_se": float(col.std(ddof=1) / np.sqrt(col.size)),
                     "tau2_prediction": tau2[t]} for t, col in enumerate(samples.T)]
        assert repr(run_se_tracking(spec).rows) == repr(expected)

    @pytest.mark.parametrize("ensemble", ["gaussian", "rademacher"])
    def test_noise_histogram(self, ensemble):
        params = ModelParams(delta=0.5, sigma2=0.1, prior=three_point(0.125))
        spec = ExperimentSpec(kind="NOISE_HISTOGRAM", n=240, params=params, alpha=1.6,
                              ensemble=ensemble, seeds=(0, 1, 2), t_target=6,
                              nnz_levels=(30,))
        policy_ist = ThresholdPolicy.rms(spec.alpha_ist)
        pooled = {"amp": [], "ist": []}
        for value in spec.seeds:
            inst = gen_planted_instance(240, 0.5, 30, cell_seed(0, "noise_histogram", value,
                                                                ensemble),
                                        ensemble=ensemble, sigma2=0.1)
            plus = inst.x0 == 1.0
            pooled["amp"].append(hand_pseudo_data(inst, ThresholdPolicy.rms(1.6), 6)[-1][plus])
            ist = ist_run(inst, policy_ist, rescale_opnorm=spec.ist_rescale, max_iter=6,
                          tol=0.0)
            pooled["ist"].append((ist.x_hat + ist.scale * (inst.a.T @ ist.r_hat))[plus])
        rows, summaries = [], {}
        for engine, values in pooled.items():
            values = np.concatenate(values)
            mean, sd = float(values.mean()), float(values.std(ddof=1))
            ks_stat, ks_p = stats.kstest(values, "norm", args=(mean, sd))
            summaries[engine] = {"mean": mean, "sd": sd, "count": int(values.size),
                                 "se_mean": sd / np.sqrt(values.size),
                                 "ks_stat": float(ks_stat), "ks_p": float(ks_p)}
            counts, edges = np.histogram(values, bins=81)
            rows.extend({"engine": engine, "bin_center": float(c), "count": int(k)}
                        for c, k in zip(0.5 * (edges[:-1] + edges[1:]), counts))
        res = run_noise_histogram(spec)
        assert repr(res.rows) == repr(rows)
        assert repr(res.extra["summaries"]) == repr(summaries)


class TestResampledOracle:
    def test_lanes_and_prediction(self, small_params):
        spec = ExperimentSpec(kind="RESAMPLED_ORACLE", n=400, params=small_params,
                              alpha=2.0, seeds=tuple(range(8)), t_target=5)
        rows = run_resampled_oracle(spec).rows
        lanes = {r["lane"] for r in rows}
        assert lanes == {"resampled", "fixed_ist"}
        start = [r for r in rows if r["t"] == 0]
        for row in start:
            assert row["tau2_se_prediction"] == pytest.approx(0.128, abs=1e-12)
        res_rows = [r for r in rows if r["lane"] == "resampled"]
        for row in res_rows:
            assert abs(row["tau2_empirical"] - row["tau2_se_prediction"]) \
                <= max(6 * row["tau2_empirical_se"], 0.02)

    def test_rademacher_spec_draws_rademacher_matrices(self, small_params, monkeypatch):
        import amplasso.harness as harness
        from amplasso.instances import draw_matrix, measurement_count
        drawn = []

        def spy(rng, m, n, ensemble, out=None):
            a = draw_matrix(rng, m, n, ensemble, out=out)
            drawn.append(a.copy())  # a redraw reuses its buffer
            return a

        monkeypatch.setattr(harness, "draw_matrix", spy)
        spec = ExperimentSpec(kind="RESAMPLED_ORACLE", n=101, params=small_params,
                              ensemble="rademacher", alpha=2.0, seeds=(0, 1),
                              t_target=3)
        run_resampled_oracle(spec)
        m = measurement_count(small_params.delta, 101)
        # per seed: one matrix in the fixed lane, one per step when resampled
        assert len(drawn) == 2 * 1 + 2 * 3
        for a in drawn:
            assert a.shape == (m, 101)
            assert np.array_equal(np.abs(a), np.full(a.shape, 1.0 / np.sqrt(m)))

    def test_gaussian_resampled_lane_draws_no_matrix(self, small_params,
                                                     monkeypatch):
        import amplasso.harness as harness
        calls = []

        def spy(rng, m, n, ensemble, out=None):
            calls.append(ensemble)
            return draw_matrix(rng, m, n, ensemble, out=out)

        monkeypatch.setattr(harness, "draw_matrix", spy)
        spec = ExperimentSpec(kind="RESAMPLED_ORACLE", n=101, params=small_params,
                              alpha=2.0, seeds=(0, 1, 2), t_target=3)
        run_resampled_oracle(spec)
        # both Gaussian lanes condition; neither forms a matrix
        assert calls == []

    @pytest.mark.parametrize("ensemble, resampled_sampler", [
        ("gaussian", "gaussian_conditioning"), ("rademacher", "matrix_draw")])
    def test_manifest_names_the_sampler(self, small_params, ensemble,
                                        resampled_sampler):
        spec = ExperimentSpec(kind="RESAMPLED_ORACLE", n=101, params=small_params,
                              ensemble=ensemble, alpha=2.0, seeds=(0, 1),
                              t_target=2)
        outcomes = run_resampled_oracle(spec).manifest["outcomes"]
        assert {o["lane"]: o["sampler"] for o in outcomes} == {
            "resampled": resampled_sampler, "fixed_ist": resampled_sampler}

    def test_zero_direction_then_a_nonzero_one(self):
        # a zero prior gives v_0 = 0 (nothing to condition on), and the
        # first threshold leaves some x_1 != 0, so v_1 is a first direction
        params = ModelParams(delta=0.64, sigma2=0.2, prior=ZERO_PRIOR)
        spec = ExperimentSpec(kind="RESAMPLED_ORACLE", n=400, params=params,
                              alpha=1.0, seeds=(0, 1), t_target=4)
        rows = run_resampled_oracle(spec).rows
        assert len(rows) == 2 * 5
        for row in rows:
            assert np.isfinite(row["tau2_empirical"])
            assert np.isfinite(row["tau2_empirical_se"])
        assert all(r["tau2_empirical"] == 0.0 for r in rows if r["t"] == 0)
        assert all(r["tau2_empirical"] > 0.0 for r in rows if r["t"] == 1)

    def test_jobs_do_not_change_results(self, small_params):
        base = dict(kind="RESAMPLED_ORACLE", n=400, params=small_params,
                    alpha=2.0, seeds=tuple(range(4)), t_target=4)
        serial = run_resampled_oracle(ExperimentSpec(jobs=1, **base))
        parallel = run_resampled_oracle(ExperimentSpec(jobs=2, **base))
        assert serial.rows == parallel.rows

    @pytest.mark.parametrize("ensemble", ["gaussian", "rademacher"])
    def test_cell_holds_one_matrix(self, small_params, ensemble):
        from amplasso.instances import measurement_count
        spec = ExperimentSpec(kind="RESAMPLED_ORACLE", n=400, params=small_params,
                              ensemble=ensemble, alpha=2.0, seeds=(0, 1),
                              t_target=5, jobs=1)
        tracemalloc.start()
        try:
            run_resampled_oracle(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix_bytes = measurement_count(small_params.delta, 400) * 400 * 8
        if ensemble == "gaussian":
            # conditioning holds no matrix: the fixed lane's history (four
            # vectors per step, 2 * 5 * (m + n) * 8 B = 0.064 matrix here)
            # plus the cell's working vectors
            assert peak <= 0.125 * matrix_bytes
        else:
            # each redraw fills the cell's one matrix; a fresh array per draw
            # would hold two at once (three with an (m, n) int64 temporary)
            assert peak <= 1.5 * matrix_bytes


def _trajectory(matvec, rmatvec, x_true, w, thetas):
    """The fixed-matrix oracle recursion: (g_t, h_t, tau2_{t+1}) per step.

    Vectors may carry leading batch axes; the result stacks along the last.
    """
    x = np.zeros_like(x_true)
    out = []
    for theta in thetas:
        g = matvec(x - x_true)
        h = rmatvec(w - g)
        x = soft_threshold(x + h, theta)
        out.extend([g, h, np.mean((x - x_true) ** 2, axis=-1)[..., None]])
    return np.concatenate(out, axis=-1)


class TestConditionedProducts:
    """Products with a Gaussian A sampled by conditioning, without forming A."""

    M, N, DRAWS = 6, 9, 8_000
    THETAS = (0.3, 0.3, 0.2, 0.2)

    def test_law_matches_explicit_draws(self):
        # a fixed-matrix trajectory: every step conditions on all before it
        m, n, k = self.M, self.N, self.DRAWS
        fixed = np.random.default_rng(11)
        x_true = fixed.standard_normal(n) * (fixed.random(n) < 0.5)
        w = 0.5 * fixed.standard_normal(m)
        # k explicit (m, n) matrices, as slices of one wide draw, stepped at once
        a = draw_matrix(np.random.default_rng(12), m, n * k,
                        "gaussian").reshape(m, k, n)
        explicit = _trajectory(lambda v: np.einsum("mkn,kn->km", a, v),
                               lambda z: np.einsum("mkn,km->kn", a, z),
                               np.broadcast_to(x_true, (k, n)),
                               np.broadcast_to(w, (k, m)), self.THETAS)
        rng = np.random.default_rng(13)
        conditioned = np.empty_like(explicit)
        for i in range(k):
            s = ConditionedGaussian(m, n, rng, len(self.THETAS))
            conditioned[i] = _trajectory(lambda v: s @ v, lambda z: s.T @ z,
                                         x_true, w, self.THETAS)

        def moments(sample):
            # sample means and upper-triangle covariances, with their SEs
            centered = sample - sample.mean(axis=0)
            rows, cols = np.triu_indices(sample.shape[1])
            prods = centered[:, rows] * centered[:, cols]
            return [(s.mean(axis=0), s.std(axis=0, ddof=1) / np.sqrt(k))
                    for s in (sample, prods)]

        for (mean_e, se_e), (mean_c, se_c) in zip(moments(explicit),
                                                  moments(conditioned)):
            gap = np.abs(mean_e - mean_c) / np.sqrt(se_e**2 + se_c**2)
            assert gap.max() <= 5.0

    def test_zero_direction_gives_isotropic_h(self):
        m, n, k = self.M, self.N, 10_000
        w = 0.5 * np.random.default_rng(11).standard_normal(m)
        rng = np.random.default_rng(14)
        h = np.empty((k, n))
        for i in range(k):
            s = ConditionedGaussian(m, n, rng, 1)
            state = rng.bit_generator.state
            g = s @ np.zeros(n)
            assert not g.any()
            assert rng.bit_generator.state == state  # nothing drawn
            h[i] = s.T @ (w - g)
        assert np.isfinite(h).all()
        # coordinates are i.i.d. N(0, |z|^2/m) with z = w
        sq = (h**2).ravel()
        assert abs(sq.mean() - w @ w / m) <= 5.0 * sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(h.mean()) <= 5.0 * np.sqrt(w @ w / m / h.size)

    def test_direction_in_the_span_is_known(self):
        rng = np.random.default_rng(15)
        s = ConditionedGaussian(self.M, self.N, rng, 2)
        v = rng.standard_normal(self.N)
        g = s @ v
        # the same direction again, up to scale and rounding: A is known there
        again = s @ (3.0 * v)
        assert np.linalg.norm(again - 3.0 * g) <= 1e-14 * np.linalg.norm(3.0 * g)

    def test_clear_gives_a_fresh_matrix(self):
        # the resampled lane clears by building a new operator on the same generator
        rng = np.random.default_rng(16)
        v = rng.standard_normal(self.N)
        g = ConditionedGaussian(self.M, self.N, rng, 1) @ v
        assert not np.allclose(ConditionedGaussian(self.M, self.N, rng, 1) @ v, g)


class TestPhaseCurve:
    def test_boundary_and_levels(self, small_params, tmp_path):
        spec = ExperimentSpec(kind="PHASE_CURVE", grid_points=11,
                              out=str(tmp_path / "phase"))
        res = run_phase_curve(spec)
        assert res.rows[0]["alpha"] == 0.0
        assert res.rows[0]["delta"] == pytest.approx(1.0)
        assert res.rows[0]["rho"] == pytest.approx(1.0)
        deltas = [r["delta"] for r in res.rows]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))
        mstar = res.extra["mstar_rows"]
        assert all(row["m_star"] > 0 for row in mstar)
        assert (tmp_path / "phase_boundary.csv").exists()
        assert (tmp_path / "phase_mstar.csv").exists()

    def test_levels_increase_toward_boundary(self, small_params):
        res = run_phase_curve(ExperimentSpec(kind="PHASE_CURVE", grid_points=5))
        by_delta = {}
        for row in res.extra["mstar_rows"]:
            by_delta.setdefault(row["delta"], []).append(row)
        for rows in by_delta.values():
            rows.sort(key=lambda r: r["rho"])
            vals = [r["m_star"] for r in rows]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestDispatch:
    def test_run_experiment_routes(self, small_params):
        spec = ExperimentSpec(kind="PHASE_CURVE", grid_points=3)
        assert len(run_experiment(spec).rows) == 3

    @pytest.mark.parametrize("kind, extra", [
        ("MSE_VS_LAMBDA", dict(lambdas=(1.0,), max_iter=200, tol=1e-6)),
        ("NOISE_HISTOGRAM", dict(t_target=3, nnz_levels=(20,))),
        ("SE_TRACKING", dict(alpha=2.0, t_target=3)),
        ("RESAMPLED_ORACLE", dict(alpha=2.0, t_target=3)),
    ])
    def test_protocols_start_no_thread(self, small_params, monkeypatch, kind, extra):
        # cells run on the calling thread whatever `jobs` says
        def refuse(self):
            raise AssertionError("a protocol started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        spec = ExperimentSpec(kind=kind, n=160, params=small_params,
                              seeds=(0, 1, 2), jobs=2, **extra)
        assert run_experiment(spec).rows
