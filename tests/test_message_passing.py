"""Per-edge message passing against straight-line and closed-form oracles."""

import time

import numpy as np
import pytest
from scipy import optimize

from amplasso import (ModelParams, ThresholdPolicy, amp_step, gen_gaussian_instance,
                      gen_instance, initial_state, soft_threshold, three_point)
from amplasso.instances import RADEMACHER, Instance
from amplasso.message_passing import reduced_mp_estimate, reduced_mp_step


def naive_reduced_step(x_msgs, instance, theta):
    """Loop-based reimplementation of the reduced message update.

    Every cavity sum is accumulated term by term, skipping the edge's own
    term, instead of as the full sum minus that term.
    """
    a = instance.a
    m, n = a.shape
    r = np.empty((m, n))
    for i_fac in range(m):
        for j_var in range(n):
            acc = instance.y[i_fac]
            for k in range(n):
                if k != j_var:
                    acc -= a[i_fac, k] * x_msgs[i_fac, k]
            r[i_fac, j_var] = acc
    x = np.empty((m, n))
    for i_fac in range(m):
        for j_var in range(n):
            acc = 0.0
            for b in range(m):
                if b != i_fac:
                    acc += a[b, j_var] * r[b, j_var]
            x[i_fac, j_var] = soft_threshold(acc, theta)
    return r, x


class TestReducedMp:
    def test_zero_messages_give_plain_y(self, bench_params):
        inst = gen_gaussian_instance(20, bench_params, seed=3)
        r_msgs, _ = reduced_mp_step(np.zeros((inst.m, inst.n)), inst, theta=0.7)
        np.testing.assert_allclose(r_msgs, np.broadcast_to(inst.y[:, None],
                                                           r_msgs.shape))

    def test_zero_data_zero_fixed_point(self):
        from amplasso import delta_prior
        params = ModelParams(delta=0.5, sigma2=0.0, prior=delta_prior())
        inst = gen_gaussian_instance(30, params, seed=4)
        x_msgs = np.zeros((inst.m, inst.n))
        for _ in range(5):
            r_msgs, x_msgs = reduced_mp_step(x_msgs, inst, theta=0.2)
            assert np.array_equal(r_msgs, np.zeros_like(r_msgs))
            assert np.array_equal(x_msgs, np.zeros_like(x_msgs))

    def test_matches_cavity_sum_reference(self):
        params = ModelParams(delta=0.5, sigma2=0.1, prior=three_point(0.2))
        inst = gen_gaussian_instance(40, params, seed=5)  # 20 x 40
        fast = np.random.default_rng(0).standard_normal((inst.m, inst.n)) * 0.1
        slow = fast.copy()
        for _ in range(3):
            r_fast, fast = reduced_mp_step(fast, inst, theta=0.3)
            r_slow, slow = naive_reduced_step(slow, inst, theta=0.3)
            np.testing.assert_allclose(r_fast, r_slow, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)
        assert np.count_nonzero(fast) > 0

    def test_single_variable_estimate_is_scalar_lasso(self):
        # one unit-norm column: every cavity residual is y itself, so the
        # estimate is the closed-form scalar LASSO solution at lambda = theta
        rng = np.random.default_rng(0)
        col = rng.standard_normal(8)
        col /= np.linalg.norm(col)
        x0 = np.array([1.0])
        w = 0.1 * rng.standard_normal(8)
        inst = Instance(a=col[:, None], x0=x0, y=col * x0[0] + w)
        lam = 0.3
        x_msgs = np.zeros((8, 1))
        for _ in range(3):
            r_msgs, x_msgs = reduced_mp_step(x_msgs, inst, lam)
        xhat = reduced_mp_estimate(r_msgs, inst, lam)
        closed = soft_threshold(col @ inst.y, lam)
        assert xhat[0] == pytest.approx(closed, rel=1e-12)
        brute = optimize.minimize_scalar(
            lambda z: 0.5 * np.sum((inst.y - col * z) ** 2) + lam * abs(z),
            bounds=(-5, 5), method="bounded", options={"xatol": 1e-12})
        assert xhat[0] == pytest.approx(brute.x, abs=1e-8)

    def test_rejects_negative_theta(self, bench_params):
        inst = gen_gaussian_instance(10, bench_params, seed=2)
        msgs = np.zeros((inst.m, inst.n))
        with pytest.raises(ValueError):
            reduced_mp_step(msgs, inst, theta=-0.1)
        with pytest.raises(ValueError):
            reduced_mp_estimate(msgs, inst, theta=-0.1)

    def test_step_cost_scales_with_edges(self, bench_params):
        # not O((mn)^2): doubling both dimensions must not blow up per-step time
        def best_time(n):
            inst = gen_gaussian_instance(n, bench_params, seed=3)
            _, msgs = reduced_mp_step(np.zeros((inst.m, inst.n)), inst, 1.0)
            best = np.inf
            for _ in range(3):
                t0 = time.perf_counter()
                reduced_mp_step(msgs, inst, 1.0)
                best = min(best, time.perf_counter() - t0)
            return best
        t_small, t_big = best_time(100), best_time(200)
        assert t_big <= 16 * max(t_small, 1e-5)

    def test_tracks_first_order_solver_on_unit_column_ensemble(self, bench_params):
        # ten iterations at n=200 with a shared threshold sequence; the
        # per-variable estimates agree within the stated max-norm budget
        inst = gen_instance(200, bench_params, 3, RADEMACHER)
        policy = ThresholdPolicy.rms(2.0)
        state = initial_state(inst, policy)
        thetas = [state.theta]
        for _ in range(10):
            state = amp_step(state, inst, policy)
            thetas.append(state.theta)
        x_msgs = np.zeros((inst.m, inst.n))
        for t in range(10):
            r_msgs, x_msgs = reduced_mp_step(x_msgs, inst, thetas[t])
        est = reduced_mp_estimate(r_msgs, inst, thetas[9])
        assert np.max(np.abs(est - state.x)) <= 0.05
