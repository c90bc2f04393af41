"""The first-order solver: thresholds, memory term, fixed points, baselines."""

import math
import time
import tracemalloc
import warnings
from collections import namedtuple
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amplasso import amp as amp_module
from amplasso import (AmpState, DiscretePrior, ModelParams, NumericalBlowupError,
                      ThresholdPolicy, alpha_min, alpha_of_lambda, amp_run, amp_step,
                      effective_lambda, estimate_tau, gen_gaussian_instance,
                      gen_instance, gen_planted_instance, initial_state, ist_run, ist_solve_lasso,
                      iterate, lasso_kkt_gap, lasso_objective, operator_norm,
                      se_fixed_point, soft_threshold, three_point)
from amplasso.amp import _rescaled, onsager_coefficient
from amplasso.instances import GAUSSIAN, RADEMACHER, Instance, gen_lazy_instance
from amplasso.state_evolution import calibrate_lambda

ZERO_PRIOR = DiscretePrior((0.0,), (1.0,))  # all mass on zero


def soft_threshold_derivative(y, theta):
    """d/dy of soft thresholding: 1 outside the dead zone, else 0.

    The kink |y| = theta is assigned derivative 0 so that the derivative
    sum equals the nonzero count of the thresholded vector exactly.
    """
    return (np.abs(np.asarray(y, dtype=float)) > theta).astype(float)


class TestSoftThresholdDerivative:
    def test_values(self):
        assert soft_threshold_derivative(2.0, 1.0) == 1.0
        assert soft_threshold_derivative(0.5, 1.0) == 0.0
        assert soft_threshold_derivative(1.0, 1.0) == 0.0  # kink convention

    def test_matches_finite_differences_off_kink(self):
        step = 1e-6
        ys = np.linspace(-3, 3, 101)
        theta = 0.8
        for y in ys:
            if abs(abs(y) - theta) <= 10 * step:
                continue
            fd = (soft_threshold(y + step, theta)
                  - soft_threshold(y - step, theta)) / (2 * step)
            assert soft_threshold_derivative(y, theta) == pytest.approx(fd, abs=1e-9)


def onsager_from_derivative(u, theta, m):
    """Oracle for b: the mean threshold derivative at the pseudo-data.

    Equals the nonzero count of ``soft_threshold(u, theta)`` over m because
    the derivative at the kink is 0.
    """
    return float(np.sum(soft_threshold_derivative(u, theta))) / m


Point = namedtuple("Point", "t tau_hat theta b mse")


def recorder(x0):
    """An observer and the list it fills: one :class:`Point` per state, MSE against ``x0``."""
    points = []

    def observe(state):
        points.append(Point(state.t, state.tau_hat, state.theta, state.b,
                            float(np.mean((state.x - x0) ** 2))))
    return points, observe


def recorded(run, instance, *args, **kwargs):
    """``run(instance, ...)`` with a :func:`recorder` observer: the result and its points."""
    points, observe = recorder(instance.x0)
    return run(instance, *args, observe=observe, **kwargs), points


def manual_instance(a, x0, w=None):
    a = np.asarray(a, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    w = np.zeros(a.shape[0]) if w is None else np.asarray(w, dtype=float)
    return Instance(a=a, x0=x0, y=a @ x0 + w)


class TestEstimateTau:
    def test_rms_constant_vector(self):
        assert estimate_tau(np.ones(4)) == 1.0

    def test_zero_vector(self):
        assert estimate_tau(np.zeros(4)) == 0.0

    def test_consistency_on_gaussian_noise(self):
        rng = np.random.default_rng(42)
        r = 2.0 * rng.standard_normal(10**5)
        assert estimate_tau(r) == pytest.approx(2.0, abs=0.05)

    def test_single_entry(self):
        assert estimate_tau(np.array([3.0])) == 3.0


class TestThresholdPolicy:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            ThresholdPolicy.rms(0.0)

    @pytest.mark.parametrize("make, bad", [
        (ThresholdPolicy.rms, np.nan),
        (ThresholdPolicy.fixed, np.nan),
        (ThresholdPolicy.fixed, -0.5),
    ], ids=["alpha_nan", "theta_nan", "theta_negative"])
    def test_rejects_nan_and_negative_levels(self, make, bad):
        # NaN used to pass both checks and end a run in "|x| reached nan"
        with pytest.raises(ValueError, match="must be"):
            make(bad)

    @pytest.mark.parametrize("make, err", [(ThresholdPolicy.rms, "alpha must be finite"),
                                           (ThresholdPolicy.fixed, "theta must be finite")])
    def test_rejects_infinite_levels(self, make, err):
        # each used to construct, and a run then reported theta = inf
        with pytest.raises(ValueError, match=err):
            make(math.inf)

    def test_reference_rejects_an_infinite_lambda(self, bench_params):
        inst = gen_gaussian_instance(50, bench_params, seed=0)
        with pytest.raises(ValueError, match="lam must be finite"):
            ist_solve_lasso(inst, math.inf)


class TestAmpStep:
    def test_first_iteration_thresholds_matched_filter(self, bench_params):
        inst = gen_gaussian_instance(80, bench_params, seed=0)
        policy = ThresholdPolicy.rms(2.0)
        state = initial_state(inst, policy)
        assert state.b == 0.0 and state.t == 0
        assert np.array_equal(state.r, inst.y)
        new = amp_step(state, inst, policy)
        expected = soft_threshold(inst.a.T @ inst.y, state.theta)
        np.testing.assert_allclose(new.x, expected)
        assert new.b == np.count_nonzero(new.x) / inst.m

    def test_zero_data_fixed_point(self):
        params = ModelParams(delta=0.5, sigma2=0.0, prior=ZERO_PRIOR)
        inst = gen_gaussian_instance(60, params, seed=1)
        policy = ThresholdPolicy.rms(2.0)
        state = initial_state(inst, policy)
        for _ in range(3):
            state = amp_step(state, inst, policy)
            assert np.array_equal(state.x, np.zeros(inst.n))
            assert np.array_equal(state.r, np.zeros(inst.m))

    def test_blowup_guard_trips(self, bench_params):
        inst = gen_gaussian_instance(40, bench_params, seed=2)
        policy = ThresholdPolicy.fixed(0.0)
        state = initial_state(inst, policy)
        huge = np.full(inst.n, 1e9)
        bad = type(state)(x=huge, r=state.r * 1e9, t=1,
                          tau_hat=state.tau_hat, theta=0.0, b=1.0)
        with pytest.raises(NumericalBlowupError):
            amp_step(bad, inst, policy)


    def test_non_finite_tau_hat_is_a_blowup(self):
        # y @ y overflows in estimate_tau; it used to give tau_hat = inf, and
        # then numpy's overflow warning before the typed error
        params = ModelParams(delta=0.64, sigma2=0.2,
                             prior=DiscretePrior((0.0, 1e300), (0.9, 0.1)))
        inst = gen_instance(50, params, seed=0)
        with warnings.catch_warnings(), pytest.raises(NumericalBlowupError,
                                                      match="tau_hat = inf"):
            warnings.simplefilter("error")
            amp_run(inst, ThresholdPolicy.rms(2.0))
        # a step whose x stays small but whose memory term overflows the residual
        zero = Instance(a=np.zeros((2, 2)), x0=np.zeros(2), y=np.full(2, 0.5))
        state = AmpState(x=np.ones(2), r=np.full(2, 1e300), t=1, tau_hat=1.0,
                         theta=0.0, b=1.0)
        with np.errstate(over="ignore"), pytest.raises(NumericalBlowupError,
                                                       match="tau_hat = inf"):
            amp_step(state, zero, ThresholdPolicy.fixed(0.0))


class TestOnsagerCoefficient:
    def test_count_form(self):
        assert onsager_coefficient(np.array([0.0, 1.0, -2.0, 0.0]), 8) == 0.25

    def test_count_and_derivative_forms_agree(self, bench_params):
        inst = gen_gaussian_instance(150, bench_params, seed=3)
        policy = ThresholdPolicy.rms(2.0)
        state = initial_state(inst, policy)
        for _ in range(5):
            u = state.x + inst.a.T @ state.r
            from_deriv = onsager_from_derivative(u, state.theta, inst.m)
            new = amp_step(state, inst, policy)
            assert new.b == pytest.approx(from_deriv, abs=0)
            state = new

    def test_bounded_by_dimension_ratio(self, bench_params):
        inst = gen_gaussian_instance(100, bench_params, seed=4)
        _, points = recorded(amp_run, inst, ThresholdPolicy.rms(2.0), max_iter=30, tol=0.0)
        for point in points:
            assert 0.0 <= point.b <= inst.n / inst.m


class TestAmpRun:
    def test_zero_problem_converges_immediately(self):
        params = ModelParams(delta=0.5, sigma2=0.0, prior=ZERO_PRIOR)
        inst = gen_gaussian_instance(50, params, seed=5)
        res = amp_run(inst, ThresholdPolicy.rms(2.0), max_iter=50, tol=1e-10)
        assert res.converged and res.iterations == 1
        assert np.array_equal(res.x_hat, np.zeros(inst.n))

    def test_noiseless_recovery_below_boundary(self):
        # delta=0.2 with nnz/m = 0.1, i.e. well inside the recovery region
        inst = gen_planted_instance(4000, 0.2, 80, seed=6, ensemble="rademacher")
        res = amp_run(inst, ThresholdPolicy.rms(1.41), max_iter=60, tol=0.0)
        rel = np.linalg.norm(res.x_hat - inst.x0) / np.linalg.norm(inst.x0)
        assert rel < 1e-3

    def test_final_tau_matches_fixed_point(self, bench_params):
        inst = gen_gaussian_instance(2000, bench_params, seed=7)
        res = amp_run(inst, ThresholdPolicy.rms(2.0), max_iter=400, tol=1e-10)
        tau_star = se_fixed_point(bench_params, 2.0)
        assert res.converged
        assert abs(res.tau_hat - tau_star) / tau_star < 0.05

    def test_effective_lambda_matches_calibration(self, bench_params):
        inst = gen_gaussian_instance(2000, bench_params, seed=7)
        res = amp_run(inst, ThresholdPolicy.rms(2.0), max_iter=400, tol=1e-10)
        lam_emp = effective_lambda(res.x_hat, res.theta, inst.m)
        lam_th = calibrate_lambda(2.0, bench_params)
        assert abs(lam_emp - lam_th) / lam_th < 0.05

    def test_fixed_sequence_fixed_point_satisfies_stationarity(self, bench_params):
        inst = gen_gaussian_instance(400, bench_params, seed=9)
        warm = amp_run(inst, ThresholdPolicy.rms(2.0), max_iter=300, tol=1e-9)
        res = amp_run(inst, ThresholdPolicy.fixed(warm.theta),
                      max_iter=2000, tol=1e-12)
        assert res.converged
        lam = warm.theta * (1.0 - res.b)
        assert lasso_kkt_gap(inst, res.x_hat, lam) <= 1e-4 * lam

    def test_trajectory_schema(self, bench_params):
        inst = gen_gaussian_instance(100, bench_params, seed=10)
        res, points = recorded(amp_run, inst, ThresholdPolicy.rms(2.0), max_iter=5, tol=0.0)
        assert [p.t for p in points] == list(range(6))
        first = points[0]
        assert first.mse == pytest.approx(np.mean(inst.x0**2))
        last = points[-1]
        assert (last.tau_hat, last.theta, last.b) == (res.tau_hat, res.theta, res.b)
        assert last.mse == np.mean((res.x_hat - inst.x0) ** 2)

    def test_per_iteration_cost_scales(self, bench_params):
        # each sample times a batch of steps, and the best of several
        # samples is kept, so one descheduled step cannot decide the ratio
        def best_time(n):
            inst = gen_gaussian_instance(n, bench_params, seed=11)
            policy = ThresholdPolicy.rms(2.0)
            state = amp_step(initial_state(inst, policy), inst, policy)
            best = np.inf
            for _ in range(7):
                t0 = time.perf_counter()
                for _ in range(20):
                    amp_step(state, inst, policy)
                best = min(best, (time.perf_counter() - t0) / 20)
            return best
        assert best_time(1024) <= 16 * max(best_time(512), 1e-5)


class TestDegenerateDimensions:
    def test_n_equals_one(self):
        inst = manual_instance(np.array([[0.6], [0.8]]), [1.5])
        res = amp_run(inst, ThresholdPolicy.rms(1.0), max_iter=200, tol=1e-12)
        assert np.all(np.isfinite(res.x_hat))
        # scalar stationarity at the certified level when nondegenerate
        if res.b < 1.0 and res.theta > 0:
            lam = effective_lambda(res.x_hat, res.theta, inst.m)
            if lam > 0:
                assert lasso_kkt_gap(inst, res.x_hat, lam) <= 1e-6

    def test_m_equals_one(self):
        inst = manual_instance(np.array([[0.3, -0.4]]), [1.0, 0.0])
        res, points = recorded(amp_run, inst, ThresholdPolicy.rms(1.5), max_iter=100,
                               tol=1e-10)
        assert np.all(np.isfinite(res.x_hat))
        assert points[0].t == 0

    @pytest.mark.parametrize("memory", [True, False])
    @pytest.mark.parametrize("n, prior, sigma2", [
        (60, ZERO_PRIOR, 0.0),        # y = 0: no signal and no noise
        (2, three_point(0.5), 0.2),      # m = 1 at delta = 0.5
    ], ids=["y_zero", "m_one"])
    def test_loop_matches_full_stepping(self, memory, n, prior, sigma2):
        inst = gen_gaussian_instance(n, ModelParams(delta=0.5, sigma2=sigma2, prior=prior),
                                     seed=0)
        assert inst.m == 1 or not inst.y.any()
        policy = ThresholdPolicy.rms(2.0)
        if memory:
            res, points = recorded(amp_run, inst, policy, max_iter=100, tol=0.0)
            assert_same_run(res, points, hand_stepped(inst, policy, 100, 0.0, True), inst)
        else:
            res, points = recorded(ist_run, inst, policy, max_iter=100, tol=0.0)
            scaled, c = _rescaled(inst, 0.95)
            assert_same_run(res, points, hand_stepped(scaled, policy, 100, 0.0, False),
                            scaled, c)
        assert res.stop == "cycle"

    @settings(max_examples=120, deadline=None)
    @given(case=st.sampled_from(["m_one", "y_zero", "noiseless", "alpha_near_min"]),
           n=st.integers(5, 60), delta=st.floats(0.2, 1.0), eps=st.floats(0.01, 0.5),
           sigma2=st.floats(0.0, 1.0), alpha=st.floats(0.5, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_solvers_give_a_finite_answer_or_a_typed_error(self, case, n, delta, eps,
                                                           sigma2, alpha, seed):
        prior = ZERO_PRIOR if case == "y_zero" else three_point(eps)
        if case == "m_one":
            delta = 1.0 / n
        if case in ("y_zero", "noiseless"):
            sigma2 = 0.0
        if case == "alpha_near_min":
            alpha = alpha_min(delta) * (1.0 + 1e-9) + 1e-12
        inst = gen_gaussian_instance(n, ModelParams(delta=delta, sigma2=sigma2, prior=prior),
                                     seed=seed)
        assert inst.m == 1 or case != "m_one"
        policy = ThresholdPolicy.rms(alpha)
        runs = [lambda: amp_run(inst, policy, max_iter=300, tol=1e-8),
                lambda: ist_run(inst, policy, max_iter=300, tol=1e-8),
                lambda: ist_solve_lasso(inst, alpha * estimate_tau(inst.y) + 1e-3,
                                        max_iter=300)]
        for run in runs:
            try:
                res = run()
            except NumericalBlowupError:
                continue
            assert res.iterations <= 300 and res.stop in ("tol", "max_iter", "cycle")
            assert np.all(np.isfinite(res.x_hat)) and np.all(np.isfinite(res.r_hat))
            assert all(math.isfinite(v) for v in (res.tau_hat, res.theta, res.b))


class TestIst:
    def test_zero_problem_fixed_point(self):
        params = ModelParams(delta=0.5, sigma2=0.0, prior=ZERO_PRIOR)
        inst = gen_gaussian_instance(50, params, seed=12)
        res = ist_run(inst, ThresholdPolicy.rms(1.8), max_iter=20, tol=1e-12)
        assert np.array_equal(res.x_hat, np.zeros(inst.n))

    def test_unrescaled_run_diverges_loudly(self, bench_params):
        # IST on the raw matrix: the memoryless loop without ist_run's co-scaling
        inst = gen_gaussian_instance(300, bench_params, seed=13)
        with pytest.raises(NumericalBlowupError):
            iterate(inst, ThresholdPolicy.fixed(0.05), 500, 0.0, False)

    def test_rejects_out_of_range_rescale(self, bench_params):
        inst = gen_gaussian_instance(50, bench_params, seed=14)
        with pytest.raises(ValueError):
            ist_run(inst, ThresholdPolicy.rms(1.8), rescale_opnorm=1.5)

    def test_operator_norm_matches_svd(self, bench_params):
        inst = gen_gaussian_instance(300, bench_params, seed=15)
        top = np.linalg.svd(inst.a, compute_uv=False)[0]
        assert operator_norm(inst.a) == pytest.approx(top, rel=1e-5)

    def test_zero_matrix_is_a_typed_error(self):
        inst = manual_instance(np.zeros((3, 5)), np.zeros(5))
        with pytest.raises(ValueError, match="zero operator norm"):
            ist_run(inst, ThresholdPolicy.rms(1.8))
        with pytest.raises(ValueError, match="zero operator norm"):
            ist_solve_lasso(inst, 1.0)

    @pytest.mark.parametrize("solve", ["ist_run", "ist_solve_lasso"])
    def test_run_holds_no_copy_of_the_matrix(self, bench_params, solve):
        # the step scales the vectors A multiplies by c; a scaled copy of A
        # would be one more (m, n) matrix
        inst = gen_gaussian_instance(400, bench_params, seed=0)
        operator_norm(np.eye(2))  # scipy's LAPACK, imported on first use, is not the run's
        tracemalloc.start()
        try:
            if solve == "ist_run":
                ist_run(inst, ThresholdPolicy.rms(1.8), max_iter=50)
            else:
                ist_solve_lasso(inst, 1.0, max_iter=500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * inst.m * inst.n * 8

    def test_solve_lasso_matches_kkt(self, bench_params):
        inst = gen_gaussian_instance(200, bench_params, seed=16)
        lam = 1.0
        res = ist_solve_lasso(inst, lam, max_iter=4000)
        assert lasso_kkt_gap(inst, res.x_hat, lam) <= 1e-8

    def test_solvers_run_on_an_operator(self, bench_params):
        # a lazy instance's A is an operator: it has no columns to solve on,
        # so the reference resumes IST from its sign-finding state
        inst = gen_lazy_instance(200, bench_params, 0)
        res = ist_run(inst, ThresholdPolicy.rms(1.8), max_iter=200)
        assert res.stop == "tol" and np.all(np.isfinite(res.x_hat))
        lam = 1.0
        res = ist_solve_lasso(inst, lam)
        assert res.stop == "tol" and np.count_nonzero(res.x_hat) > 0
        assert lasso_kkt_gap(inst, res.x_hat, lam) <= 1e-12 * lam

    def test_is_plain_thresholded_descent_on_scaled_system(self, bench_params):
        # IST is the shared step with the memory term off, on (cA, cy) with c
        # applied to the vectors A multiplies: bit-identical to
        # x <- eta(x + A'(c r); theta), r = cy - A(c x), with b recorded as 0
        inst = gen_gaussian_instance(150, bench_params, seed=20)
        c = 0.95 / operator_norm(inst.a)
        a, y_s, theta = inst.a, c * inst.y, 1.0 * c * c
        x = np.zeros(inst.n)
        for _ in range(25):
            x = soft_threshold(x + a.T @ (c * (y_s - a @ (c * x))), theta)
        res = ist_solve_lasso(inst, 1.0, max_iter=25, tol=0.0)
        assert np.array_equal(res.x_hat, x)
        assert np.array_equal(res.r_hat, y_s - a @ (c * x))
        assert res.scale == c and res.b == 0.0
        run, points = recorded(ist_run, inst, ThresholdPolicy.fixed(theta), max_iter=25,
                               tol=0.0)
        assert np.array_equal(run.x_hat, x)
        assert [p.b for p in points] == [0.0] * 26


def _matrix(kind):
    rng = np.random.default_rng(21)
    if kind == "wide":
        return rng.standard_normal((30, 70))
    if kind == "tall":
        return rng.standard_normal((70, 30))
    if kind == "square":
        return rng.standard_normal((50, 50))
    if kind == "one_row":
        return rng.standard_normal((1, 40))
    if kind == "one_column":
        return rng.standard_normal((40, 1))
    if kind == "rank_one":  # Lanczos breaks down (beta = 0 up to rounding) at step 2
        return np.outer(rng.standard_normal(25), rng.standard_normal(35))
    if kind == "zero":
        return np.zeros((20, 30))
    # C8's ensemble at n = 1000: sigma_1 = 2.38394, sigma_2 = 2.38377
    return gen_planted_instance(1000, 0.5, 125, seed=2, ensemble="rademacher",
                                sigma2=0.0).a


@st.composite
def small_matrices(draw):
    """Dense Gaussian, rank-one and rank-two matrices, and ``[Q, Q]`` (or its
    transpose) with Q orthogonal, whose top singular value sqrt(2) repeats."""
    kind = draw(st.sampled_from(["gaussian", "rank_one", "rank_two", "repeated_top"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "repeated_top":
        q, _ = np.linalg.qr(rng.standard_normal((draw(st.integers(1, 20)),) * 2))
        a = np.hstack([q, q])
        return a.T if draw(st.booleans()) else a
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    if kind == "gaussian":
        return rng.standard_normal((m, n))
    rank = 1 if kind == "rank_one" else 2
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


MATRICES = ("wide", "tall", "square", "one_row", "one_column", "rank_one", "zero",
            "rademacher_small_gap")


class TestOperatorNorm:
    @pytest.mark.parametrize("kind", MATRICES)
    def test_brackets_top_singular_value_from_above(self, kind):
        a = _matrix(kind)
        top = np.linalg.svd(a, compute_uv=False)[0]
        norm = operator_norm(a)
        assert top <= norm <= top * (1 + 1e-6)
        assert operator_norm(a) == norm

    @pytest.mark.parametrize("kind", [k for k in MATRICES if k != "zero"])
    def test_rescaled_step_is_at_most_the_requested_norm(self, kind):
        a = _matrix(kind)
        inst = manual_instance(a, np.zeros(a.shape[1]))
        scaled, c = _rescaled(inst, 0.95)
        assert c * np.linalg.svd(a, compute_uv=False)[0] <= 0.95
        # the step's products are those of the unscaled matrix with c times the vector
        rng = np.random.default_rng(0)
        v, z = rng.standard_normal(a.shape[1]), rng.standard_normal(a.shape[0])
        assert (scaled.a @ v).tobytes() == (a @ (c * v)).tobytes()
        assert (scaled.a.T @ z).tobytes() == (a.T @ (c * z)).tobytes()
        assert scaled.y.tobytes() == (c * inst.y).tobytes()
        assert (scaled.m, scaled.n) == a.shape and scaled.x0 is inst.x0
        # an Instance whose operator wraps the matrix itself, not a copy
        assert isinstance(scaled, Instance) and scaled.a._a is inst.a
        assert scaled.a.T._a.base is inst.a

    def test_stop_on_max_iter_is_a_typed_error(self, monkeypatch):
        # two steps leave the Ritz value below sigma_1 on this matrix, so the
        # old result sqrt(theta + rho) was not an upper bound
        a = np.random.default_rng(0).standard_normal((30, 60))
        top = np.linalg.svd(a, compute_uv=False)[0]
        monkeypatch.setattr(amp_module, "_LANCZOS_MAX_STEPS", 2)
        with pytest.raises(np.linalg.LinAlgError, match="2 steps"):
            operator_norm(a)
        # 30 steps exhaust the Krylov space of the 30 x 30 Gram operator
        monkeypatch.setattr(amp_module, "_LANCZOS_MAX_STEPS", 30)
        assert top <= operator_norm(a) <= top * (1 + 1e-6)

    @settings(max_examples=150, deadline=None)
    @given(a=small_matrices())
    def test_certified_bound_holds_on_small_matrices(self, a):
        top = np.linalg.svd(a, compute_uv=False)[0]
        norm = operator_norm(a)
        assert top <= norm <= top * (1 + 1e-6)
        assert operator_norm(a) == norm

    @pytest.mark.parametrize("routine", ["dstebz", "dstein"])
    def test_lapack_failure_is_a_typed_error(self, monkeypatch, routine):
        # operator_norm imports the pair from scipy on use, so patch it there
        from scipy.linalg import lapack
        real = getattr(lapack, routine)

        def failing(*args):
            *out, _ = real(*args)
            return (*out, 1)

        monkeypatch.setattr(lapack, routine, failing)
        with pytest.raises(np.linalg.LinAlgError, match=routine):
            operator_norm(_matrix("wide"))

    @pytest.mark.parametrize("solver", ["operator_norm", "ist_run", "ist_solve_lasso",
                                        "ist_solve_lasso_tol0"])
    def test_overflowing_gram_product_is_a_typed_error(self, solver):
        # from sigma_1 near 1e77 the Lanczos vector's w @ w leaves the float range
        a = 1e100 * np.random.default_rng(0).standard_normal((5, 8))
        inst = manual_instance(a, np.ones(8))
        run = {"operator_norm": lambda: operator_norm(a),
               "ist_run": lambda: ist_run(inst, ThresholdPolicy.rms(2.0)),
               "ist_solve_lasso": lambda: ist_solve_lasso(inst, 1.0),
               "ist_solve_lasso_tol0": lambda: ist_solve_lasso(inst, 1.0, tol=0.0)}[solver]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Gram product overflows"):
                run()

    @pytest.mark.parametrize("scale", [2e-78, 1e-100, 1e-200])
    @pytest.mark.parametrize("solver", ["operator_norm", "ist_run", "ist_solve_lasso",
                                        "ist_solve_lasso_tol0"])
    def test_underflowing_gram_product_is_a_typed_error(self, solver, scale):
        # from sigma_1 near 1e-77 the Lanczos vector's w @ w underflows; the
        # norm came out 2.8% low at 2e-78 (w @ w subnormal), 39% low at 1e-100
        # (w @ w rounded to 0) and 0.0 at 1e-200 (every Gram product rounded to 0)
        a = scale * np.random.default_rng(1).standard_normal((30, 60))
        inst = manual_instance(a, np.ones(60))
        run = {"operator_norm": lambda: operator_norm(a),
               "ist_run": lambda: ist_run(inst, ThresholdPolicy.rms(2.0)),
               "ist_solve_lasso": lambda: ist_solve_lasso(inst, 1.0),
               "ist_solve_lasso_tol0": lambda: ist_solve_lasso(inst, 1.0, tol=0.0)}[solver]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Gram product underflows"):
                run()

    @pytest.mark.parametrize("scale", [1e-70, 1e70, 1e76])
    def test_large_top_singular_value_is_still_bracketed(self, scale):
        # far from 1 either way: at 1e76 LAPACK's inverse iteration needs the
        # tridiagonal scaled down, and at 1e-70 the last step's w @ w (its
        # Krylov space exhausted) rounds to 0 after the certificate holds
        a = scale * np.random.default_rng(0).standard_normal((5, 8))
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert top <= operator_norm(a) <= top * (1 + 1e-6)


def _spike_plus_bulk(m, n, seed):
    """A Gaussian bulk with top singular value about 2.25 plus a rank-one spike of 3."""
    rng = np.random.default_rng(seed)
    bulk = rng.standard_normal((m, n)) / math.sqrt(m)
    u, v = rng.standard_normal(m), rng.standard_normal(n)
    return bulk + 3.0 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))


class TestReferenceStepSize:
    """The LASSO reference at ``tol > 0`` steps at c from a Lanczos bound to 10%."""

    @pytest.fixture(scope="class")
    def matrices(self, bench_params):
        # C4's matrices, then other shapes and spectra
        rng = np.random.default_rng(7)
        return ([gen_instance(500, bench_params, seed, GAUSSIAN).a for seed in range(10)]
                + [gen_instance(500, bench_params, seed, RADEMACHER).a for seed in range(4)]
                + [rng.standard_normal((600, 300)), rng.standard_normal((1000, 2000)),
                   _spike_plus_bulk(320, 500, 0)])

    def test_step_lies_inside_ists_convergence_region(self, matrices):
        # theta <= sigma_1^2 bounds c * sigma_1 below by 0.95 / sqrt(1.1); a
        # Ritz value short of the top of the spectrum lifts it above 0.95 (to
        # 0.979 on Gaussian seed 4), and it stays below Daubechies, Defrise
        # and De Mol's 1, inside the sqrt(2) that IST needs
        for a in matrices:
            res = ist_solve_lasso(manual_instance(a, np.zeros(a.shape[1])), 1.0, max_iter=1)
            top = np.linalg.svd(a, compute_uv=False)[0]
            assert 0.95 / math.sqrt(1.1) <= res.scale * top < 1.0

    def test_reference_takes_few_lanczos_steps_at_c4_size(self, matrices, monkeypatch):
        # a step count, not a time: 4-7 steps at 320 x 500, where the
        # certificate takes 28-44
        for a in matrices[:14]:  # C4's
            inst = manual_instance(a, np.zeros(a.shape[1]))
            steps = counting(monkeypatch, "_top_ritz_pair")
            ist_solve_lasso(inst, 1.0, max_iter=1)
            assert len(steps) <= 10
            steps.clear()
            ist_solve_lasso(inst, 1.0, max_iter=1, tol=0.0)
            assert len(steps) > 20
            monkeypatch.undo()


class TestLassoKktGap:
    def test_zero_vector_optimal_for_large_lambda(self, bench_params):
        inst = gen_gaussian_instance(100, bench_params, seed=17)
        lam = float(np.max(np.abs(inst.a.T @ inst.y)))
        assert lasso_kkt_gap(inst, np.zeros(inst.n), lam) == 0.0
        assert lasso_kkt_gap(inst, np.zeros(inst.n), lam * 1.01) == 0.0

    def test_scalar_closed_form_is_stationary(self):
        inst = manual_instance(np.array([[0.6], [0.8]]), [2.0],
                               w=np.array([0.05, -0.02]))
        lam = 0.3
        col = inst.a[:, 0]
        xhat = np.array([soft_threshold(col @ inst.y, lam) / (col @ col)])
        assert lasso_kkt_gap(inst, xhat, lam) <= 1e-12

    def test_detects_suboptimal_point(self, bench_params):
        inst = gen_gaussian_instance(100, bench_params, seed=18)
        assert lasso_kkt_gap(inst, np.zeros(inst.n), lam=1e-3) > 0.1


class TestEffectiveLambda:
    def test_zero_estimate(self):
        assert effective_lambda(np.zeros(10), 1.3, 5) == 1.3

    def test_half_filled(self):
        x = np.array([1.0, -1.0, 0.0, 0.0])
        assert effective_lambda(x, 1.0, 4) == 0.5

    def test_rejects_saturated_support(self):
        with pytest.raises(ValueError):
            effective_lambda(np.ones(6), 1.0, 4)

    def test_rejects_negative_theta(self):
        with pytest.raises(ValueError):
            effective_lambda(np.zeros(4), -1.0, 4)


class TestObjective:
    def test_matches_direct_formula(self, bench_params):
        inst = gen_gaussian_instance(50, bench_params, seed=19)
        x = np.random.default_rng(0).standard_normal(inst.n)
        direct = 0.5 * np.sum((inst.y - inst.a @ x) ** 2) + 2.0 * np.abs(x).sum()
        assert lasso_objective(inst, x, 2.0) == pytest.approx(direct, rel=1e-14)


def hand_stepped(instance, policy, max_iter, tol, memory, start=None):
    """Every state of the loop stepped out with ``amp_step``, and whether tol stopped it.

    ``start``, if given, is stepped from instead of the initial state, up to
    ``t = max_iter``.
    """
    state = initial_state(instance, policy) if start is None else start
    state = replace(state, memory=memory)
    states = [state]
    for _ in range(max_iter - state.t):
        new = amp_step(state, instance, policy)
        states.append(new)
        dx = np.linalg.norm(new.x - state.x) / max(1.0, np.linalg.norm(state.x))
        state = new
        if dx < tol:
            return states, True
    return states, False


def assert_same_run(res, points, stepped, instance, scale=1.0):
    """Every result field and recorded point equals full stepping, bit for bit.

    ``points`` is what a :func:`recorder` saw, or ``None`` for a run without one.
    """
    states, converged = stepped
    last = states[-1]
    assert res.x_hat.tobytes() == last.x.tobytes()
    assert res.r_hat.tobytes() == last.r.tobytes()
    assert (res.tau_hat, res.theta, res.b) == (last.tau_hat, last.theta, last.b)
    assert res.iterations == last.t and res.converged is converged
    assert res.scale == scale
    if points is not None:
        assert [(p.t, p.tau_hat, p.theta, p.b, p.mse) for p in points] == [
            (s.t, s.tau_hat, s.theta, s.b, float(np.mean((s.x - instance.x0) ** 2)))
            for s in states]


def reference_states(matvec, rmatvec, y, n, policy, steps, memory):
    """States ``(x, r, tau_hat, u)`` of the step as first written, a fresh array per
    term: x <- sign(u) * max(|u| - theta, 0) with u = x + A'r, and r <- y - A x (+ b r).
    ``u`` is the pseudo-data that gave ``x``; None at t = 0."""
    m = y.size
    x, r = np.zeros(n), y.copy()
    tau = np.sqrt(np.dot(r, r) / m)
    states = [(x, r, tau, None)]
    for _ in range(steps):
        u = x + rmatvec(r)
        x_new = np.sign(u) * np.maximum(np.abs(u) - policy.theta(tau), 0.0)
        r_new = y - matvec(x_new)
        if memory:
            r_new += float(np.count_nonzero(x_new)) / m * r
        x, r = x_new, r_new
        tau = np.sqrt(np.dot(r, r) / m)
        states.append((x, r, tau, u))
    return states


def period_at_end(states):
    """The period of the cycle that stepped states end in, up to 8; 0 for none."""
    last = states[-1]
    for p in range(1, min(8, len(states) - 1) + 1):
        s = states[-1 - p]
        if s.x.tobytes() == last.x.tobytes() and s.r.tobytes() == last.r.tobytes():
            return p
    return 0


def assert_reference_bits(seen, points, reference):
    """Every observed state and recorded point equals the reference bit for bit."""
    assert len(seen) == len(points) == len(reference)
    for state, point, (x, r, tau, u) in zip(seen, points, reference):
        assert state.x.tobytes() == x.tobytes() and state.r.tobytes() == r.tobytes()
        assert state.tau_hat == point.tau_hat == tau
        assert (state.u is None) if u is None else state.u.tobytes() == u.tobytes()


class TestReferenceStep:
    """The step's in-place kernels against the reference formulas, signed zeros included."""

    @pytest.mark.parametrize("seed", [0, 4])
    def test_amp(self, bench_params, seed):
        inst = gen_gaussian_instance(200, bench_params, seed=seed)
        policy = ThresholdPolicy.rms(alpha_of_lambda(1.0, bench_params))
        seen = []
        iterate(inst, policy, 150, 0.0, True, observe=seen.append)
        res, points = recorded(amp_run, inst, policy, max_iter=150, tol=0.0)
        ref = reference_states(lambda v: inst.a @ v, lambda v: inst.a.T @ v, inst.y,
                               inst.n, policy, 150, True)
        assert_reference_bits(seen, points, ref)
        assert res.x_hat.tobytes() == ref[-1][0].tobytes()
        assert any(np.signbit(x[x == 0]).any() for x, _, _, _ in ref)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_ist_solve_lasso(self, bench_params, seed):
        # the co-scaled system: x + A'(c r) and c y - A (c x)
        inst = gen_gaussian_instance(300, bench_params, seed=seed)
        scaled, c = _rescaled(inst, 0.95)
        policy = ThresholdPolicy.fixed(c * c)
        seen = []
        iterate(scaled, policy, 400, 0.0, False, observe=seen.append)
        res, points = recorded(ist_solve_lasso, inst, 1.0, max_iter=400, tol=0.0)
        ref = reference_states(lambda v: inst.a @ (c * v), lambda v: inst.a.T @ (c * v),
                               c * inst.y, inst.n, policy, 400, False)
        assert_reference_bits(seen, points, ref)
        assert res.r_hat.tobytes() == ref[-1][1].tobytes()
        assert any(np.signbit(x[x == 0]).any() for x, _, _, _ in ref)


def state_bits(s):
    return (s.t, s.x.tobytes(), s.r.tobytes(), s.tau_hat, s.theta, s.b, s.memory,
            None if s.u is None else s.u.tobytes())


def counting(monkeypatch, name):
    """Wrap ``amp.<name>`` so that each call appends its return value to the list returned."""
    returned, func = [], getattr(amp_module, name)

    def counted(*args):
        returned.append(func(*args))
        return returned[-1]
    monkeypatch.setattr(amp_module, name, counted)
    return returned


def solve_on_signs(instance, lam, x):
    """The LASSO's stationary point x_LS - lam w on the sign pattern of ``x``
    (``amp._pattern_solve``), 0 off the support; ``None`` if the solve is unusable."""
    pattern = amp_module._pattern_solve(instance, x)
    if pattern is None:
        return None
    support, _, x_ls, w = pattern
    z = np.zeros(instance.n)
    z[support] = x_ls - lam * w
    return z


# alpha_of_lambda(1.0) at the benchmark configuration, as scipy's ndtr gave it.
# A literal: the cycles below are those of these exact levels, and the last
# bits of the theory's Phi move the calibrated alpha (1.945845809354772 with erfc).
C4_ALPHA = 1.9458458093547715


def c4_lambda(instance):
    """The level C4 certifies: the effective lambda of AMP's fixed point at lambda = 1.

    Plain AMP stepped to tol = 1e-10, not ``amp_run``'s finish on the sign
    pattern, whose level differs in the last bits: the cycles below are
    those of these exact levels.
    """
    res = iterate(instance, ThresholdPolicy.rms(C4_ALPHA), 20000, 1e-10, True)
    return effective_lambda(res.x_hat, res.theta, instance.m)


class TestCycleReplay:
    """Once a step returns its own state bitwise the loop replays it instead of stepping.

    A cycle of a longer period is stepped to ``max_iter``, with the same outputs.
    """

    @pytest.fixture(scope="class")
    def c4_runs(self, bench_params):
        runs = {}
        for seed in (2, 3):
            inst = gen_gaussian_instance(500, bench_params, seed=seed)
            lam = c4_lambda(inst)
            scaled, c = _rescaled(inst, 0.95)
            policy = ThresholdPolicy.fixed(lam * c * c)
            runs[seed] = inst, lam, scaled, c, hand_stepped(scaled, policy, 3000, 0.0, False)
        return runs

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("seed", [2, 3])
    def test_lasso_reference_at_c4_size(self, c4_runs, seed, observed):
        inst, lam, scaled, c, stepped = c4_runs[seed]
        points, observe = recorder(inst.x0)
        res = ist_solve_lasso(inst, lam, max_iter=3000, tol=0.0,
                              observe=observe if observed else None)
        assert (res.stop, period_at_end(stepped[0])) == ("max_iter", {2: 2, 3: 4}[seed])
        assert_same_run(res, points if observed else None, stepped, scaled, c)
        assert len(points) == (3001 if observed else 0)

    def test_ist_with_rms_policy(self, bench_params):
        inst = gen_gaussian_instance(500, bench_params, seed=3)
        policy = ThresholdPolicy.rms(1.0)
        res, points = recorded(ist_run, inst, policy, max_iter=1000, tol=0.0)
        scaled, c = _rescaled(inst, 0.95)
        stepped = hand_stepped(scaled, policy, 1000, 0.0, False)
        assert (res.stop, period_at_end(stepped[0])) == ("max_iter", 4)
        assert_same_run(res, points, stepped, scaled, c)

    def test_amp_at_zero_tolerance(self, bench_params):
        inst = gen_gaussian_instance(100, bench_params, seed=0)
        policy = ThresholdPolicy.rms(2.0)
        res, points = recorded(amp_run, inst, policy, max_iter=300, tol=0.0)
        stepped = hand_stepped(inst, policy, 300, 0.0, True)
        assert (res.stop, period_at_end(stepped[0])) == ("max_iter", 3)
        assert_same_run(res, points, stepped, inst)

    @pytest.mark.parametrize("memory, seed", [(False, 3), (True, 0)])
    def test_observer_sees_every_state(self, bench_params, memory, seed):
        inst = gen_gaussian_instance(100 if memory else 500, bench_params, seed=seed)
        if not memory:
            inst, _ = _rescaled(inst, 0.95)
        policy = ThresholdPolicy.rms(2.0 if memory else 1.0)
        seen = []
        res = iterate(inst, policy, 600, 0.0, memory, observe=seen.append)
        states, _ = hand_stepped(inst, policy, 600, 0.0, memory)
        assert (res.stop, period_at_end(states)) == ("max_iter", 3 if memory else 4)
        assert [state_bits(s) for s in seen] == [state_bits(s) for s in states]

    def test_loop_holds_two_states(self, bench_params):
        # a run that never repeats keeps the state and its successor, each
        # with x, r and u: about 5.3 n-vectors at delta = 0.64, plus a step's
        # temporaries
        inst = gen_gaussian_instance(2000, bench_params, seed=0)
        tracemalloc.start()
        try:
            res = iterate(inst, ThresholdPolicy.rms(2.0), 300, 0.0, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.stop == "max_iter"
        assert peak < 10 * inst.n * 8

    def test_signed_zeros_are_not_a_repeat(self, bench_params):
        # step 1 turns x = 0 into zeros signed like A'y: equal values, other bits
        inst = gen_gaussian_instance(200, bench_params, seed=0)
        scaled, c = _rescaled(inst, 0.95)
        policy = ThresholdPolicy.fixed(2.0 * float(np.max(np.abs(scaled.a.T @ scaled.y))))
        res, points = recorded(ist_run, inst, policy, max_iter=10, tol=0.0)
        assert np.signbit(res.x_hat).any() and res.stop == "cycle"
        assert_same_run(res, points, hand_stepped(scaled, policy, 10, 0.0, False), scaled, c)

    @pytest.mark.parametrize("tol, ends_in", [(1e-15, "tol"), (1e-17, "cycle")])
    def test_positive_tolerance(self, bench_params, tol, ends_in):
        # the plain IST loop of the LASSO reference, which itself finishes
        # on its sign pattern for tol > 0; at 1e-17 it ends in a
        # cycle whose period exceeds 1, which the loop steps to max_iter
        inst = gen_gaussian_instance(200, bench_params, seed=3)
        scaled, c = _rescaled(inst, 0.95)
        policy = ThresholdPolicy.fixed(c * c)
        res, points = recorded(iterate, scaled, policy, 2000, tol, False)
        stepped = hand_stepped(scaled, policy, 2000, tol, False)
        if ends_in == "tol":
            assert res.stop == "tol"
        else:
            assert res.stop == "max_iter" and period_at_end(stepped[0]) > 1
        assert_same_run(res, points, stepped, scaled)

    @pytest.mark.parametrize("seed", [2, 7])
    def test_default_reference_stops_at_rounding_level(self, bench_params, c4_runs, seed):
        # C4's reference stops on tol = 1e-15 long before tol = 0 reaches an
        # exact cycle, with the objective of the tol = 0 reference to 1e-15:
        # Gaussian seed 2 from the fixture, Rademacher seed 7 (cycles by step 641)
        if seed in c4_runs:
            inst, lam, _, _, (states, _) = c4_runs[seed]
            x_exact = states[-1].x
        else:
            inst = gen_instance(500, bench_params, seed, RADEMACHER)
            lam = c4_lambda(inst)
            x_exact = ist_solve_lasso(inst, lam, tol=0.0).x_hat
        res = ist_solve_lasso(inst, lam)
        assert res.stop == "tol" and res.converged and res.iterations <= 500
        c_exact = lasso_objective(inst, x_exact, lam)
        assert abs(lasso_objective(inst, res.x_hat, lam) - c_exact) <= 1e-15 * c_exact

    def test_stop_reports_max_iter_without_a_repeat(self, bench_params):
        inst = gen_gaussian_instance(500, bench_params, seed=2)
        res = ist_solve_lasso(inst, 1.0, max_iter=5)
        assert (res.stop, res.iterations) == ("max_iter", 5)

    @pytest.fixture(scope="class")
    def c4_references(self, bench_params):
        # C4's ten Gaussian references, each with its observed states, the
        # amp_step calls it made and the trials it checked
        runs = {}
        with pytest.MonkeyPatch.context() as mp:
            for seed in range(10):
                inst = gen_gaussian_instance(500, bench_params, seed=seed)
                lam = c4_lambda(inst)
                steps, solves = counting(mp, "amp_step"), counting(mp, "_reference_point")
                seen = []
                res = ist_solve_lasso(inst, lam, rescale_opnorm=0.95, max_iter=10000,
                                      observe=seen.append)
                runs[seed] = (inst, lam, res, seen, len(steps),
                              sum(z is not None for z in solves))
                mp.undo()
        return runs

    @pytest.mark.parametrize("seed", range(10))
    def test_c4_reference_finishes_on_its_sign_pattern(self, c4_references, seed):
        # C4's ten references: IST until a sign pattern holds, solves on the
        # patterns that hold, each checked by one IST step from its point,
        # then that step, which confirms the point that passed
        inst, lam, res, seen, steps, checked = c4_references[seed]
        assert res.stop == "tol" and res.converged and steps <= 200
        # every state once, in order; one of them is the solve's, not a step's
        assert [s.t for s in seen] == list(range(res.iterations + 1))
        solved = [s.t for s in seen[1:] if s.u is None]
        # the passing trial's checking step is a state; a rejected one's is not
        assert len(solved) == 1 and steps == res.iterations - 1 + (checked - 1)
        assert res.iterations - solved[0] <= 2
        assert res.x_hat.tobytes() == seen[-1].x.tobytes()
        assert res.r_hat.tobytes() == seen[-1].r.tobytes()
        # IST's unit step is below 1 / sigma_1^2 and the solved point is the
        # minimizer: the objective never rises along the states
        objectives = [lasso_objective(inst, s.x, lam) for s in seen]
        assert all(b <= a * (1 + 1e-15) for a, b in zip(objectives, objectives[1:]))

    def test_c4_references_take_few_steps(self, c4_references):
        # a step count, not a time: 13-74 steps (median 19), where trials
        # after 4 held steps without the face search took 26-90 (median 56),
        # and the reference that stepped IST to a relative change of 1e-6
        # before its solve about 120
        steps = sorted(run[4] for run in c4_references.values())
        assert (steps[4] + steps[5]) / 2 <= 70

    @pytest.mark.parametrize("ensemble, seeds", [(GAUSSIAN, range(10)),
                                                 (RADEMACHER, range(4))])
    def test_reference_equals_the_sign_tol_composition(self, bench_params, c4_references,
                                                       ensemble, seeds):
        # the reference as first composed: IST to a relative change of
        # 1e-6, one solve on that sign pattern, then IST from its point; at
        # the reference's step size bit for bit, and at operator_norm's
        # certified one to the same objective
        def composed(inst, lam, norm_tol):
            scaled, c = _rescaled(inst, 0.95, norm_tol)
            policy = ThresholdPolicy.fixed(lam * c * c)
            head = iterate(scaled, policy, 10000, 1e-6, False)
            x = solve_on_signs(inst, lam, head.x_hat)
            start = amp_module._state_at(scaled, policy, x, head.iterations + 1)
            states, converged = hand_stepped(scaled, policy, 10000, 1e-15, False, start)
            return amp_module._result(states[-1], "tol" if converged else "max_iter"), c

        for seed in seeds:
            if ensemble == GAUSSIAN:
                inst, lam, res = c4_references[seed][:3]
            else:
                inst = gen_instance(500, bench_params, seed, RADEMACHER)
                lam = c4_lambda(inst)
                res = ist_solve_lasso(inst, lam, rescale_opnorm=0.95, max_iter=10000)
            old, c = composed(inst, lam, amp_module._REFERENCE_NORM_TOL)
            assert res.x_hat.tobytes() == old.x_hat.tobytes()
            assert res.r_hat.tobytes() == old.r_hat.tobytes()
            assert ((res.tau_hat, res.theta, res.b, res.stop, res.scale)
                    == (old.tau_hat, old.theta, old.b, old.stop, c))
            assert res.iterations <= old.iterations
            certified, c_certified = composed(inst, lam, 1e-6)
            assert c != c_certified
            objective = lasso_objective(inst, certified.x_hat, lam)
            assert (abs(lasso_objective(inst, res.x_hat, lam) - objective)
                    <= 1e-15 * objective)

    @pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-5, 1e-6])
    def test_loose_tol_finishes_no_worse_than_plain_ist(self, c4_references, tol):
        # the sign pattern does not depend on tol, so the finish also serves a
        # loose one: never a larger KKT gap than plain IST to tol, and at most
        # one step more, the confirming step of a trial that passes on the
        # chunk before plain IST's stop (seed 5 at 1e-4: 62 steps against 61)
        for inst, lam, *_ in c4_references.values():
            scaled, c = _rescaled(inst, 0.95, amp_module._REFERENCE_NORM_TOL)
            plain = iterate(scaled, ThresholdPolicy.fixed(lam * c * c), 10000, tol, False)
            res = ist_solve_lasso(inst, lam, tol=tol)
            assert res.stop == plain.stop == "tol"
            assert res.iterations <= plain.iterations + 1
            assert (lasso_kkt_gap(inst, res.x_hat, lam)
                    <= lasso_kkt_gap(inst, plain.x_hat, lam))

    @pytest.mark.parametrize("seed", range(3))
    def test_face_search_lowers_the_objective(self, bench_params, seed):
        # IST's early states, whose pattern solve has other signs: the face
        # search ends on a point stationary on a face of the pattern, with an
        # objective no larger than the state's
        inst = gen_gaussian_instance(500, bench_params, seed=seed)
        lam = c4_lambda(inst)
        scaled, c = _rescaled(inst, 0.95, amp_module._REFERENCE_NORM_TOL)
        policy = ThresholdPolicy.fixed(lam * c * c)
        states = []
        iterate(scaled, policy, 12, 0.0, False, observe=states.append)
        searched = 0
        for state in states[2:]:
            z = solve_on_signs(inst, lam, state.x)
            if np.array_equal(np.sign(z), np.sign(state.x)):
                continue
            searched += 1
            point = amp_module._reference_point(inst, lam, scaled, policy, state)
            face = np.flatnonzero(point.x)
            assert point.t == state.t + 1 and point.u is None
            # a smaller face of the state's pattern, with the state's signs
            assert np.count_nonzero(state.x) > face.size
            assert np.array_equal(np.sign(point.x[face]), np.sign(state.x[face]))
            grad = inst.a[:, face].T @ (inst.y - inst.a @ point.x)
            assert np.allclose(grad, lam * np.sign(point.x[face]), rtol=0, atol=1e-9 * lam)
            assert (lasso_objective(inst, point.x, lam)
                    <= lasso_objective(inst, state.x, lam) * (1 + 1e-15))
        assert searched > 0

    @pytest.mark.parametrize("forced, n, seed", [("dropped", 500, 2), ("hold1", 200, 1)])
    def test_wrong_sign_pattern_still_reaches_the_minimizer(
            self, bench_params, c4_runs, monkeypatch, forced, n, seed):
        # trials on wrong patterns: "dropped" solves every held pattern less
        # its largest entry, which no move puts back, so no trial passes and
        # the reference is plain IST; "hold1" tries each pattern that holds
        # for one step, and the step from the solve's point rejects five
        inst = gen_gaussian_instance(n, bench_params, seed=seed)
        if n == 500:  # the fixture's tol = 0 reference
            _, lam, _, _, (states, _) = c4_runs[seed]
            x_exact = states[-1].x
        else:
            lam = c4_lambda(inst)
            x_exact = ist_solve_lasso(inst, lam, max_iter=3000, tol=0.0).x_hat
        scaled, c = _rescaled(inst, 0.95, amp_module._REFERENCE_NORM_TOL)
        if forced == "dropped":
            solve = amp_module._reference_point

            def dropped(instance, lam, scaled, policy, state):
                x = state.x.copy()
                support = np.flatnonzero(x)
                x[support[np.argmax(np.abs(x[support]))]] = 0.0
                return solve(instance, lam, scaled, policy, replace(state, x=x))
            monkeypatch.setattr(amp_module, "_reference_point", dropped)
        else:
            monkeypatch.setattr(amp_module, "_SIGN_HOLD", 1)
        solves = counting(monkeypatch, "_reference_point")
        seen = []
        res = ist_solve_lasso(inst, lam, observe=seen.append)
        solved = [s.t for s in seen[1:] if s.u is None]
        rejected = sum(z is not None for z in solves) - len(solved)
        assert rejected == {"dropped": 7, "hold1": 5}[forced] and res.stop == "tol"
        # a rejected trial leaves no state: up to the solve's point, or to the
        # end if no trial passed, the observer sees plain IST
        plain = []
        iterate(scaled, ThresholdPolicy.fixed(lam * c * c), 10000, 1e-15, False,
                observe=plain.append)
        k = solved[0] if solved else len(plain)
        assert len(solved) == (forced == "hold1") and len(seen) >= k
        assert [state_bits(s) for s in seen[:k]] == [state_bits(s) for s in plain[:k]]
        c_exact = lasso_objective(inst, x_exact, lam)
        assert abs(lasso_objective(inst, res.x_hat, lam) - c_exact) <= 1e-15 * c_exact


class TestAmpFinish:
    """AMP at ``tol > 0`` on a matrix finishes on its sign pattern in closed form;
    every other AMP run is plain stepping."""

    @pytest.fixture(scope="class")
    def c4_amp(self, bench_params):
        # C4's compositions, each AMP run with its observed states, the
        # amp_step calls it made, the trials it solved and plain AMP to tol
        policy = ThresholdPolicy.rms(alpha_of_lambda(1.0, bench_params))
        runs = {}
        with pytest.MonkeyPatch.context() as mp:
            for ensemble, seeds in ((GAUSSIAN, range(10)), (RADEMACHER, range(4))):
                for seed in seeds:
                    inst = gen_instance(500, bench_params, seed, ensemble)
                    steps, trials = counting(mp, "amp_step"), counting(mp, "_amp_point")
                    seen = []
                    res = amp_run(inst, policy, max_iter=20000, tol=1e-10,
                                  observe=seen.append)
                    runs[ensemble, seed] = (inst, res, seen, len(steps),
                                            sum(z is not None for z in trials))
                    mp.undo()
                    runs[ensemble, seed] += (iterate(inst, policy, 20000, 1e-10, True),)
        return runs

    @pytest.mark.parametrize("key", [(GAUSSIAN, s) for s in range(10)]
                             + [(RADEMACHER, s) for s in range(4)])
    def test_c4_amp_ends_on_its_fixed_point(self, c4_amp, key):
        inst, res, seen, steps, trials, plain = c4_amp[key]
        assert res.stop == "tol" and res.converged
        assert [s.t for s in seen] == list(range(res.iterations + 1))
        # one solved state, then its checking step; every other state a step's,
        # and a rejected trial's step is the only step that is no state
        points = [s.t for s in seen[1:] if s.u is None]
        assert len(points) == 1 and res.iterations - points[0] <= 2
        assert steps == res.iterations - 1 + (trials - 1)
        assert res.x_hat.tobytes() == seen[-1].x.tobytes()
        lam = effective_lambda(res.x_hat, res.theta, inst.m)
        assert lasso_kkt_gap(inst, res.x_hat, lam) <= 1e-12 * lam
        assert (np.linalg.norm(res.x_hat - plain.x_hat)
                <= 1e-9 * np.linalg.norm(plain.x_hat))

    def test_c4_amp_takes_few_steps(self, c4_amp):
        # a step count, not a time: 8-12 steps each, where plain AMP to
        # tol = 1e-10 takes 22-64 (median 26)
        steps = sorted(c4_amp[GAUSSIAN, seed][1].iterations for seed in range(10))
        assert (steps[4] + steps[5]) / 2 <= 12

    @pytest.mark.parametrize("seed", range(3))
    def test_flipped_sign_is_rejected_and_leaves_no_state(self, bench_params, monkeypatch,
                                                          seed):
        # every trial's point with the sign of its largest entry flipped: the
        # checking step turns that entry back, so no trial passes and the
        # observer sees plain AMP to tol
        inst = gen_gaussian_instance(500, bench_params, seed=seed)
        policy = ThresholdPolicy.rms(C4_ALPHA)
        solve = amp_module._amp_point

        def flipped(*args):
            point = solve(*args)
            if point is not None:
                x = point.x.copy()
                j = np.argmax(np.abs(x))
                x[j] = -x[j]
                point = replace(point, x=x)
            return point
        monkeypatch.setattr(amp_module, "_amp_point", flipped)
        trials = counting(monkeypatch, "_amp_point")
        steps = counting(monkeypatch, "amp_step")
        seen = []
        res = amp_run(inst, policy, max_iter=20000, tol=1e-10, observe=seen.append)
        rejected = sum(z is not None for z in trials)
        assert rejected >= 1 and len(steps) == res.iterations + rejected
        plain = []
        iterate(inst, policy, 20000, 1e-10, True, observe=plain.append)
        assert [state_bits(s) for s in seen] == [state_bits(s) for s in plain]

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_nonpositive_tol_steps_plain_amp(self, bench_params, tol):
        inst = gen_gaussian_instance(200, bench_params, seed=1)
        policy = ThresholdPolicy.rms(C4_ALPHA)
        res, points = recorded(amp_run, inst, policy, max_iter=60, tol=tol)
        assert_same_run(res, points, hand_stepped(inst, policy, 60, tol, True), inst)

    def test_lazy_instance_steps_plain_amp(self, bench_params):
        # an operator gives no columns: plain AMP to tol, against a fresh
        # copy of the same lazy instance stepped by hand
        policy = ThresholdPolicy.rms(C4_ALPHA)
        res, points = recorded(amp_run, gen_lazy_instance(200, bench_params, 4), policy,
                               max_iter=300, tol=1e-10)
        inst = gen_lazy_instance(200, bench_params, 4)
        stepped = hand_stepped(inst, policy, 300, 1e-10, True)
        assert stepped[1] and res.iterations > 20
        assert_same_run(res, points, stepped, inst)

    @pytest.mark.parametrize("kind, kwargs", [
        ("SE_TRACKING", dict(ensemble="rademacher", alpha=2.0, t_target=8)),
        ("NOISE_HISTOGRAM", dict(nnz_levels=(25,), t_target=8)),
    ])
    def test_harness_cells_equal_hand_stepping(self, bench_params, monkeypatch, kind,
                                               kwargs):
        # each cell's AMP run, as the harness makes it, state by state
        from amplasso import harness
        real, cells = harness.iterate, []

        def checked(instance, policy, max_iter, tol, memory, observe=None):
            seen = []

            def both(state):
                seen.append(state)
                if observe is not None:
                    observe(state)
            res = real(instance, policy, max_iter, tol, memory, both)
            states, _ = hand_stepped(instance, policy, max_iter, tol, memory)
            assert [state_bits(s) for s in seen] == [state_bits(s) for s in states]
            cells.append(res)
            return res
        monkeypatch.setattr(harness, "iterate", checked)
        harness.run_experiment(harness.ExperimentSpec(kind=kind, n=200, params=bench_params,
                                                      seeds=(0, 1), **kwargs))
        assert len(cells) == 2


class TestTrialAtMaxIter:
    """A trial needs ``t + 1 < max_iter``: room for its point and its checking step."""

    @pytest.fixture(scope="class", params=["amp", "reference"])
    def engine(self, request, bench_params):
        # C4's seed 0 on each engine: its solver, the system and policy that it
        # steps, and k, the step whose pattern the passing trial solves
        inst = gen_gaussian_instance(500, bench_params, seed=0)
        if request.param == "amp":
            system, scale = inst, 1.0
            policy, tol, memory = ThresholdPolicy.rms(C4_ALPHA), 1e-10, True

            def solve(max_iter, observe):
                return amp_run(inst, policy, max_iter=max_iter, tol=tol, observe=observe)
        else:
            lam = c4_lambda(inst)
            system, scale = _rescaled(inst, 0.95, amp_module._REFERENCE_NORM_TOL)
            policy, tol, memory = ThresholdPolicy.fixed(lam * scale * scale), 1e-15, False

            def solve(max_iter, observe):
                return ist_solve_lasso(inst, lam, max_iter=max_iter, observe=observe)
        full = []
        solve(20000, full.append)
        k = [s.t for s in full[1:] if s.u is None][0] - 1
        return SimpleNamespace(solve=solve, system=system, policy=policy, tol=tol,
                               memory=memory, scale=scale, full=full, k=k)

    def assert_hand_stepped(self, run, max_iter):
        points, observe = recorder(run.system.x0)
        res = run.solve(max_iter, observe)
        stepped = hand_stepped(run.system, run.policy, max_iter, run.tol, run.memory)
        assert_same_run(res, points, stepped, run.system, run.scale)

    def test_no_room_steps_plain(self, engine):
        # at max_iter = k + 1 the point would be the last state, with no step to check it
        assert engine.k >= 4
        self.assert_hand_stepped(engine, engine.k + 1)

    def test_room_for_both_ends_on_the_checking_step(self, engine):
        seen = []
        res = engine.solve(engine.k + 2, seen.append)
        assert (res.iterations, res.stop) == (engine.k + 2, "tol")
        assert seen[engine.k + 1].u is None
        assert [state_bits(s) for s in seen] == [state_bits(s) for s in
                                                 engine.full[:engine.k + 3]]
        assert res.x_hat.tobytes() == seen[-1].x.tobytes()
        assert res.r_hat.tobytes() == seen[-1].r.tobytes()

    @pytest.mark.parametrize("max_iter", range(1, 6))
    def test_short_runs_equal_hand_stepping(self, engine, max_iter):
        self.assert_hand_stepped(engine, max_iter)
