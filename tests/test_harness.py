"""Experiment driver: protocols shrunk to smoke scale, seeds, CSV, manifests."""

import csv
import json
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from amplasso import ExperimentSpec, ModelParams, delta_prior, run_experiment, three_point
from amplasso import harness
from amplasso.harness import (KINDS, _GaussianConditioning, cell_seed,
                              iterations_to_mse, run_convergence,
                              run_mse_vs_lambda, run_noise_histogram,
                              run_phase_curve, run_resampled_oracle,
                              run_se_tracking)
from amplasso.instances import draw_matrix
from amplasso.scalar_risk import soft_threshold


@pytest.fixture(scope="module")
def small_params():
    return ModelParams(delta=0.64, sigma2=0.2, prior=three_point(0.128))


class TestExperimentSpec:
    def test_rejects_unknown_kind(self, small_params):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="NOPE", params=small_params)

    def test_rejects_empty_seeds(self, small_params):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="SE_TRACKING", params=small_params, seeds=())

    def test_rejects_nonpositive_lambda(self, small_params):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="MSE_VS_LAMBDA", params=small_params,
                           lambdas=(0.5, 0.0))

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
        with pytest.raises(ValueError, match="t_target"):
            ExperimentSpec(kind=kind, params=small_params, t_target=-1)
        spec = ExperimentSpec(kind=kind, params=small_params).to_dict()
        with pytest.raises(ValueError, match="t_target"):
            ExperimentSpec.from_dict({**spec, "t_target": -1})

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
        assert ExperimentSpec(kind="CONVERGENCE", params=small_params,
                              nnz_levels=(50, 100)).nnz_levels == (50, 100)

    def test_round_trip_via_dict(self, small_params):
        spec = ExperimentSpec(kind="MSE_VS_LAMBDA", n=321, params=small_params,
                              lambdas=(0.5, 1.0), seeds=(1, 2, 3), jobs=2)
        back = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec


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
            spec = ExperimentSpec(kind=kind, n=160, params=params, seeds=seeds,
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
                                 "empirical_mse_se", "predicted_mse"}

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
        outcomes = run_mse_vs_lambda(spec).manifest["outcomes"]
        assert [o["stop"] for o in outcomes] == ["tol", "tol"]
        short = run_mse_vs_lambda(replace(spec, max_iter=3)).manifest["outcomes"]
        assert [o["stop"] for o in short] == ["max_iter", "max_iter"]

    def test_zero_signal_lane_uses_fixed_alpha(self):
        params = ModelParams(delta=0.64, sigma2=0.2, prior=delta_prior())
        spec = ExperimentSpec(kind="MSE_VS_LAMBDA", n=300, params=params,
                              lambdas=(1.0,), seeds=(0, 1, 2), alpha=2.5,
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
        t_amp = iterations_to_mse(rows, "amp", 40, 1e-4)
        t_ist = iterations_to_mse(rows, "ist", 40, 1e-4)
        assert t_amp is not None
        assert t_ist is None or t_ist >= 10 * t_amp

    def test_rejects_noisy_spec(self, small_params):
        spec = ExperimentSpec(kind="CONVERGENCE", n=100, params=small_params,
                              nnz_levels=(5,))
        with pytest.raises(ValueError):
            run_convergence(spec)

    def test_rejects_spec_without_nnz_levels(self):
        # it used to return zero rows
        params = ModelParams(delta=0.5, sigma2=0.0, prior=three_point(0.1))
        spec = ExperimentSpec(kind="CONVERGENCE", n=100, params=params)
        with pytest.raises(ValueError, match="at least one nnz level"):
            run_convergence(spec)


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


class TestSeTracking:
    def test_smoke_within_loose_band(self, small_params):
        spec = ExperimentSpec(kind="SE_TRACKING", n=500, params=small_params,
                              alpha=2.0, seeds=tuple(range(6)), t_target=6)
        rows = run_se_tracking(spec).rows
        assert [r["t"] for r in rows] == list(range(7))
        for row in rows:
            assert abs(row["empirical_mean"] - row["tau2_prediction"]) \
                <= max(6 * row["empirical_se"], 0.05)


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
        params = ModelParams(delta=0.64, sigma2=0.2, prior=delta_prior())
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
            s = _GaussianConditioning(m, n, len(self.THETAS))
            conditioned[i] = _trajectory(lambda v: s.matvec(v, rng),
                                         lambda z: s.rmatvec(z, rng),
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
            s = _GaussianConditioning(m, n, 1)
            state = rng.bit_generator.state
            g = s.matvec(np.zeros(n), rng)
            assert not g.any()
            assert rng.bit_generator.state == state  # nothing drawn
            h[i] = s.rmatvec(w - g, rng)
        assert np.isfinite(h).all()
        # coordinates are i.i.d. N(0, |z|^2/m) with z = w
        sq = (h**2).ravel()
        assert abs(sq.mean() - w @ w / m) <= 5.0 * sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(h.mean()) <= 5.0 * np.sqrt(w @ w / m / h.size)

    def test_direction_in_the_span_is_known(self):
        rng = np.random.default_rng(15)
        s = _GaussianConditioning(self.M, self.N, 2)
        v = rng.standard_normal(self.N)
        g = s.matvec(v, rng)
        # the same direction again, up to scale and rounding: A is known there
        again = s.matvec(3.0 * v, rng)
        assert np.linalg.norm(again - 3.0 * g) <= 1e-14 * np.linalg.norm(3.0 * g)

    def test_clear_gives_a_fresh_matrix(self):
        rng = np.random.default_rng(16)
        s = _GaussianConditioning(self.M, self.N, 1)
        v = rng.standard_normal(self.N)
        g = s.matvec(v, rng)
        s.clear()
        assert not np.allclose(s.matvec(v, rng), g)


class TestPhaseCurve:
    def test_boundary_and_levels(self, small_params, tmp_path):
        spec = ExperimentSpec(kind="PHASE_CURVE", params=small_params,
                              grid_points=11, out=str(tmp_path / "phase"))
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
        res = run_phase_curve(ExperimentSpec(kind="PHASE_CURVE",
                                             params=small_params, grid_points=5))
        by_delta = {}
        for row in res.extra["mstar_rows"]:
            by_delta.setdefault(row["delta"], []).append(row)
        for rows in by_delta.values():
            rows.sort(key=lambda r: r["rho"])
            vals = [r["m_star"] for r in rows]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestDispatch:
    def test_run_experiment_routes(self, small_params):
        spec = ExperimentSpec(kind="PHASE_CURVE", params=small_params,
                              grid_points=3)
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
