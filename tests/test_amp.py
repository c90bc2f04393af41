"""The first-order solver: thresholds, memory term, fixed points, baselines."""

import time
import tracemalloc
import warnings
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amplasso import amp as amp_module
from amplasso import (AmpState, DiscretePrior, ModelParams, NumericalBlowupError,
                      ThresholdPolicy, alpha_of_lambda, amp_run, amp_step, delta_prior,
                      effective_lambda, estimate_tau, gen_gaussian_instance, gen_instance,
                      gen_planted_instance, initial_state, ist_run, ist_solve_lasso,
                      iterate, lasso_kkt_gap, lasso_objective, operator_norm,
                      se_fixed_point, soft_threshold, three_point)
from amplasso.amp import _rescaled, onsager_coefficient
from amplasso.instances import RADEMACHER, Instance
from amplasso.state_evolution import calibrate_lambda


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
    def test_fixed_sequence_replays_and_repeats(self):
        pol = ThresholdPolicy.fixed([1.0, 0.5])
        assert pol.theta(0, 99.0) == 1.0
        assert pol.theta(1, 99.0) == 0.5
        assert pol.theta(7, 99.0) == 0.5

    def test_rejects_empty_fixed(self):
        with pytest.raises(ValueError):
            ThresholdPolicy.fixed([])

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            ThresholdPolicy.rms(0.0)

    @pytest.mark.parametrize("make, bad", [
        (ThresholdPolicy.rms, np.nan),
        (lambda t: ThresholdPolicy.fixed([1.0, t]), np.nan),
        (lambda t: ThresholdPolicy.fixed([1.0, t]), -0.5),
    ], ids=["alpha_nan", "theta_nan", "theta_negative"])
    def test_rejects_nan_and_negative_levels(self, make, bad):
        # NaN used to pass both checks and end a run in "|x| reached nan"
        with pytest.raises(ValueError, match="must be"):
            make(bad)


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
        params = ModelParams(delta=0.5, sigma2=0.0, prior=delta_prior())
        inst = gen_gaussian_instance(60, params, seed=1)
        policy = ThresholdPolicy.rms(2.0)
        state = initial_state(inst, policy)
        for _ in range(3):
            state = amp_step(state, inst, policy)
            assert np.array_equal(state.x, np.zeros(inst.n))
            assert np.array_equal(state.r, np.zeros(inst.m))

    def test_blowup_guard_trips(self, bench_params):
        inst = gen_gaussian_instance(40, bench_params, seed=2)
        policy = ThresholdPolicy.fixed([0.0])
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
            amp_step(state, zero, ThresholdPolicy.fixed([0.0]))


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
        res = amp_run(inst, ThresholdPolicy.rms(2.0), max_iter=30, tol=0.0)
        for point in res.trajectory:
            assert 0.0 <= point.b <= inst.n / inst.m


class TestAmpRun:
    def test_zero_problem_converges_immediately(self):
        params = ModelParams(delta=0.5, sigma2=0.0, prior=delta_prior())
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
        res = amp_run(inst, ThresholdPolicy.fixed([warm.theta]),
                      max_iter=2000, tol=1e-12)
        assert res.converged
        lam = warm.theta * (1.0 - res.b)
        assert lasso_kkt_gap(inst, res.x_hat, lam) <= 1e-4 * lam

    def test_trajectory_schema(self, bench_params):
        inst = gen_gaussian_instance(100, bench_params, seed=10)
        res = amp_run(inst, ThresholdPolicy.rms(2.0), max_iter=5, tol=0.0)
        assert [p.t for p in res.trajectory] == list(range(6))
        first = res.trajectory[0]
        assert first.mse == pytest.approx(np.mean(inst.x0**2))
        last = res.trajectory[-1]
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
        res = amp_run(inst, ThresholdPolicy.rms(1.5), max_iter=100, tol=1e-10)
        assert np.all(np.isfinite(res.x_hat))
        assert res.trajectory[0].t == 0

    @pytest.mark.parametrize("memory", [True, False])
    @pytest.mark.parametrize("n, prior, sigma2", [
        (60, delta_prior(), 0.0),        # y = 0: no signal and no noise
        (2, three_point(0.5), 0.2),      # m = 1 at delta = 0.5
    ], ids=["y_zero", "m_one"])
    def test_loop_matches_full_stepping(self, memory, n, prior, sigma2):
        inst = gen_gaussian_instance(n, ModelParams(delta=0.5, sigma2=sigma2, prior=prior),
                                     seed=0)
        assert inst.m == 1 or not inst.y.any()
        policy = ThresholdPolicy.rms(2.0)
        if memory:
            res = amp_run(inst, policy, max_iter=100, tol=0.0)
            assert_same_run(res, hand_stepped(inst, policy, 100, 0.0, True), inst)
        else:
            res = ist_run(inst, policy, max_iter=100, tol=0.0)
            scaled, c = _rescaled(inst, 0.95)
            assert_same_run(res, hand_stepped(scaled, policy, 100, 0.0, False), scaled, c)
        assert (res.stop, res.period) == ("cycle", 1)


class TestIst:
    def test_zero_problem_fixed_point(self):
        params = ModelParams(delta=0.5, sigma2=0.0, prior=delta_prior())
        inst = gen_gaussian_instance(50, params, seed=12)
        res = ist_run(inst, ThresholdPolicy.rms(1.8), max_iter=20, tol=1e-12)
        assert np.array_equal(res.x_hat, np.zeros(inst.n))

    def test_unrescaled_run_diverges_loudly(self, bench_params):
        inst = gen_gaussian_instance(300, bench_params, seed=13)
        with pytest.raises(NumericalBlowupError):
            ist_run(inst, ThresholdPolicy.fixed([0.05]), rescale_opnorm=None,
                    max_iter=500, tol=0.0)

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
        res = ist_solve_lasso(inst, 1.0, max_iter=25)
        assert np.array_equal(res.x_hat, x)
        assert np.array_equal(res.r_hat, y_s - a @ (c * x))
        assert res.scale == c and res.b == 0.0 and res.engine == "ist"
        run = ist_run(inst, ThresholdPolicy.fixed([theta]), max_iter=25, tol=0.0)
        assert np.array_equal(run.x_hat, x)
        assert [p.b for p in run.trajectory] == [0.0] * 26


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
        for seed in (0, 3):
            norm = operator_norm(a, seed=seed)
            assert top <= norm <= top * (1 + 1e-6)
            assert operator_norm(a, seed=seed) == norm

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

    def test_rejects_nonpositive_max_iter(self):
        with pytest.raises(ValueError):
            operator_norm(np.ones((2, 3)), max_iter=0)

    def test_stop_on_max_iter_is_a_typed_error(self):
        # two steps leave the Ritz value below sigma_1 on this matrix, so the
        # old result sqrt(theta + rho) was not an upper bound
        a = np.random.default_rng(0).standard_normal((30, 60))
        top = np.linalg.svd(a, compute_uv=False)[0]
        with pytest.raises(np.linalg.LinAlgError, match="2 steps"):
            operator_norm(a, max_iter=2)
        # 30 steps exhaust the Krylov space of the 30 x 30 Gram operator
        assert top <= operator_norm(a, max_iter=30) <= top * (1 + 1e-6)

    @settings(max_examples=150, deadline=None)
    @given(a=small_matrices())
    def test_certified_bound_holds_on_small_matrices(self, a):
        top = np.linalg.svd(a, compute_uv=False)[0]
        norm = operator_norm(a)
        assert top <= norm <= top * (1 + 1e-6)
        assert operator_norm(a) == norm

    @pytest.mark.parametrize("routine", ["dstebz", "dstein"])
    def test_lapack_failure_is_a_typed_error(self, monkeypatch, routine):
        real = getattr(amp_module, routine)

        def failing(*args):
            *out, _ = real(*args)
            return (*out, 1)

        monkeypatch.setattr(amp_module, routine, failing)
        with pytest.raises(np.linalg.LinAlgError, match=routine):
            operator_norm(_matrix("wide"))


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


def hand_stepped(instance, policy, max_iter, tol, memory):
    """Every state of the loop stepped out with ``amp_step``, and whether tol stopped it."""
    state = replace(initial_state(instance, policy), memory=memory)
    states = [state]
    for _ in range(max_iter):
        new = amp_step(state, instance, policy)
        states.append(new)
        dx = np.linalg.norm(new.x - state.x) / max(1.0, np.linalg.norm(state.x))
        state = new
        if dx < tol:
            return states, True
    return states, False


def assert_same_run(res, stepped, instance, scale=1.0, trajectory=True):
    """Every result field and trajectory point equals full stepping, bit for bit."""
    states, converged = stepped
    last = states[-1]
    assert res.x_hat.tobytes() == last.x.tobytes()
    assert res.r_hat.tobytes() == last.r.tobytes()
    assert (res.tau_hat, res.theta, res.b) == (last.tau_hat, last.theta, last.b)
    assert res.iterations == last.t and res.converged is converged
    assert res.engine == ("amp" if last.memory else "ist") and res.scale == scale
    if trajectory:
        assert [(p.t, p.tau_hat, p.theta, p.b, p.mse) for p in res.trajectory] == [
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
    for t in range(steps):
        u = x + rmatvec(r)
        x_new = np.sign(u) * np.maximum(np.abs(u) - policy.theta(t, tau), 0.0)
        r_new = y - matvec(x_new)
        if memory:
            r_new += float(np.count_nonzero(x_new)) / m * r
        x, r = x_new, r_new
        tau = np.sqrt(np.dot(r, r) / m)
        states.append((x, r, tau, u))
    return states


def assert_reference_bits(seen, trajectory, reference):
    """Every observed state and trajectory point equals the reference bit for bit."""
    assert len(seen) == len(trajectory) == len(reference)
    for state, point, (x, r, tau, u) in zip(seen, trajectory, reference):
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
        res = amp_run(inst, policy, max_iter=150, tol=0.0)
        ref = reference_states(lambda v: inst.a @ v, lambda v: inst.a.T @ v, inst.y,
                               inst.n, policy, 150, True)
        assert_reference_bits(seen, res.trajectory, ref)
        assert res.x_hat.tobytes() == ref[-1][0].tobytes()
        assert any(np.signbit(x[x == 0]).any() for x, _, _, _ in ref)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_ist_solve_lasso(self, bench_params, seed):
        # the co-scaled system: x + A'(c r) and c y - A (c x)
        inst = gen_gaussian_instance(300, bench_params, seed=seed)
        scaled, c = _rescaled(inst, 0.95)
        policy = ThresholdPolicy.fixed([c * c])
        seen = []
        iterate(scaled, policy, 400, 0.0, False, observe=seen.append)
        res = ist_solve_lasso(inst, 1.0, max_iter=400, tol=0.0, trajectory=True)
        ref = reference_states(lambda v: inst.a @ (c * v), lambda v: inst.a.T @ (c * v),
                               c * inst.y, inst.n, policy, 400, False)
        assert_reference_bits(seen, res.trajectory, ref)
        assert res.r_hat.tobytes() == ref[-1][1].tobytes()
        assert any(np.signbit(x[x == 0]).any() for x, _, _, _ in ref)


def c4_lambda(instance, params):
    """The level C4 certifies: the effective lambda of AMP's fixed point at lambda = 1."""
    res = amp_run(instance, ThresholdPolicy.rms(alpha_of_lambda(1.0, params)),
                  max_iter=20000, tol=1e-10)
    return effective_lambda(res.x_hat, res.theta, instance.m)


class TestCycleReplay:
    """Once the state repeats bitwise the loop replays the cycle instead of stepping."""

    @pytest.fixture(scope="class")
    def c4_runs(self, bench_params):
        runs = {}
        for seed in (2, 3):
            inst = gen_gaussian_instance(500, bench_params, seed=seed)
            lam = c4_lambda(inst, bench_params)
            scaled, c = _rescaled(inst, 0.95)
            policy = ThresholdPolicy.fixed([lam * c * c])
            runs[seed] = inst, lam, scaled, c, hand_stepped(scaled, policy, 3000, 0.0, False)
        return runs

    @pytest.mark.parametrize("trajectory", [False, True])
    @pytest.mark.parametrize("seed", [2, 3])
    def test_lasso_reference_at_c4_size(self, c4_runs, seed, trajectory):
        inst, lam, scaled, c, stepped = c4_runs[seed]
        res = ist_solve_lasso(inst, lam, max_iter=3000, tol=0.0, trajectory=trajectory)
        assert res.stop == "cycle" and res.period > 0
        assert_same_run(res, stepped, scaled, c, trajectory)
        assert len(res.trajectory) == (3001 if trajectory else 0)

    def test_ist_with_rms_policy(self, bench_params):
        inst = gen_gaussian_instance(500, bench_params, seed=3)
        policy = ThresholdPolicy.rms(1.0)
        res = ist_run(inst, policy, max_iter=1000, tol=0.0)
        assert res.stop == "cycle" and res.period == 4
        scaled, c = _rescaled(inst, 0.95)
        assert_same_run(res, hand_stepped(scaled, policy, 1000, 0.0, False), scaled, c)

    def test_amp_at_zero_tolerance(self, bench_params):
        inst = gen_gaussian_instance(100, bench_params, seed=0)
        policy = ThresholdPolicy.rms(2.0)
        res = amp_run(inst, policy, max_iter=300, tol=0.0)
        assert res.stop == "cycle" and res.period == 3
        assert_same_run(res, hand_stepped(inst, policy, 300, 0.0, True), inst)

    def test_fixed_sequence_waits_for_its_stationary_tail(self, bench_params):
        # thresholds above ||c^2 A'y||_inf keep x = 0 and r = y, so the state
        # repeats from step 2 (step 1 signs the zeros) while the sequence is
        # still changing; replaying then would keep x = 0 for good
        inst = gen_gaussian_instance(200, bench_params, seed=0)
        scaled, c = _rescaled(inst, 0.95)
        big = 2.0 * float(np.max(np.abs(scaled.a.T @ scaled.y)))
        policy = ThresholdPolicy.fixed([big] * 5 + [c * c])
        stepped = hand_stepped(scaled, policy, 2000, 0.0, False)
        states = stepped[0]
        assert states[2].x.tobytes() == states[1].x.tobytes()
        assert states[2].r.tobytes() == states[1].r.tobytes()
        res = ist_run(inst, policy, max_iter=2000, tol=0.0)
        assert res.stop == "cycle" and np.count_nonzero(res.x_hat) > 0
        assert_same_run(res, stepped, scaled, c)

    @pytest.mark.parametrize("memory, seed", [(False, 3), (True, 0)])
    def test_observer_sees_every_state(self, bench_params, memory, seed):
        inst = gen_gaussian_instance(100 if memory else 500, bench_params, seed=seed)
        if not memory:
            inst, _ = _rescaled(inst, 0.95)
        policy = ThresholdPolicy.rms(2.0 if memory else 1.0)
        seen = []
        res = iterate(inst, policy, 600, 0.0, memory, observe=seen.append)
        assert res.stop == "cycle" and res.period == (3 if memory else 4)

        def bits(s):
            return (s.t, s.x.tobytes(), s.r.tobytes(), s.tau_hat, s.theta, s.b, s.memory,
                    None if s.u is None else s.u.tobytes())
        states, _ = hand_stepped(inst, policy, 600, 0.0, memory)
        assert [bits(s) for s in seen] == [bits(s) for s in states]

    def test_signed_zeros_are_not_a_repeat(self, bench_params):
        # step 1 turns x = 0 into zeros signed like A'y: equal values, other bits
        inst = gen_gaussian_instance(200, bench_params, seed=0)
        scaled, c = _rescaled(inst, 0.95)
        policy = ThresholdPolicy.fixed([2.0 * float(np.max(np.abs(scaled.a.T @ scaled.y)))])
        res = ist_run(inst, policy, max_iter=10, tol=0.0)
        assert np.signbit(res.x_hat).any() and (res.stop, res.period) == ("cycle", 1)
        assert_same_run(res, hand_stepped(scaled, policy, 10, 0.0, False), scaled, c)

    @pytest.mark.parametrize("tol, stop", [(1e-15, "tol"), (1e-17, "cycle")])
    def test_positive_tolerance(self, bench_params, tol, stop):
        inst = gen_gaussian_instance(200, bench_params, seed=3)
        res = ist_solve_lasso(inst, 1.0, max_iter=2000, tol=tol, trajectory=True)
        assert res.stop == stop and (res.period > 0) == (stop == "cycle")
        scaled, c = _rescaled(inst, 0.95)
        policy = ThresholdPolicy.fixed([c * c])
        assert_same_run(res, hand_stepped(scaled, policy, 2000, tol, False), scaled, c)

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
            lam = c4_lambda(inst, bench_params)
            x_exact = ist_solve_lasso(inst, lam, tol=0.0).x_hat
        res = ist_solve_lasso(inst, lam)
        assert res.stop == "tol" and res.converged and res.iterations <= 500
        c_exact = lasso_objective(inst, x_exact, lam)
        assert abs(lasso_objective(inst, res.x_hat, lam) - c_exact) <= 1e-15 * c_exact

    def test_stop_reports_max_iter_without_a_repeat(self, bench_params):
        inst = gen_gaussian_instance(500, bench_params, seed=2)
        res = ist_solve_lasso(inst, 1.0, max_iter=5)
        assert (res.stop, res.period, res.iterations) == ("max_iter", 0, 5)

    @pytest.mark.parametrize("seed", range(4))
    def test_c4_reference_computes_fewer_steps(self, bench_params, monkeypatch, seed):
        inst = gen_gaussian_instance(500, bench_params, seed=seed)
        lam = c4_lambda(inst, bench_params)
        steps = 0
        step = amp_module.amp_step

        def counted(*args):
            nonlocal steps
            steps += 1
            return step(*args)

        monkeypatch.setattr(amp_module, "amp_step", counted)
        res = ist_solve_lasso(inst, lam, rescale_opnorm=0.95, max_iter=10000, tol=0.0)
        assert res.iterations == 10000 and res.converged is False
        assert res.stop == "cycle" and steps < 10000

    def test_cycle_is_spotted_within_one_lap(self, c4_runs, monkeypatch):
        # the checkpoint moves every _CYCLE_WINDOW steps, so the loop spots
        # a cycle at most _CYCLE_WINDOW - 1 steps after the first repeat
        inst, lam, _, _, (states, _) = c4_runs[3]
        window = amp_module._CYCLE_WINDOW
        recent = deque(maxlen=window)  # the bits of the last `window` states
        for first_repeat, state in enumerate(states):
            bits = (state.x.tobytes(), state.r.tobytes())
            if bits in recent:
                break
            recent.append(bits)
        else:
            pytest.fail("no repeat within the stepped states")
        steps = comparisons = 0
        step, same_bits = amp_module.amp_step, amp_module._same_bits

        def counted_step(*args):
            nonlocal steps
            steps += 1
            return step(*args)

        def counted_bits(a, b):
            nonlocal comparisons
            comparisons += 1
            return same_bits(a, b)

        monkeypatch.setattr(amp_module, "amp_step", counted_step)
        monkeypatch.setattr(amp_module, "_same_bits", counted_bits)
        res = ist_solve_lasso(inst, lam, rescale_opnorm=0.95, max_iter=3000, tol=0.0)
        assert res.stop == "cycle"
        assert first_repeat <= steps <= first_repeat + window - 1
        assert comparisons <= 2 * steps

