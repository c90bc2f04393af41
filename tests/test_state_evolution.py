"""Scalar recursion, calibration, risk prediction, and phase geometry."""

import math
import warnings

import numpy as np
import pytest
from scipy import optimize

from amplasso import (DiscretePrior, ModelParams, TheoryError, alpha_min, alpha_of_lambda,
                      boundary_alpha, calibrate_lambda, lasso_risk,
                      minimax_risk_star, minimax_soft_threshold,
                      parametric_boundary, rho_c, risk_M, se_fixed_point,
                      se_map, se_run, st_mse, three_point)
from amplasso.gaussians import Phi, phi
from amplasso.state_evolution import tau0_squared

ZERO_PRIOR = DiscretePrior((0.0,), (1.0,))  # all mass on zero


class TestSeMap:
    def test_identity_threshold_zero_prior(self):
        params = ModelParams(delta=0.5, sigma2=0.3, prior=ZERO_PRIOR)
        for tau2 in (0.2, 1.0, 4.0):
            assert se_map(tau2, 0.0, params) == pytest.approx(
                0.3 + tau2 / 0.5, rel=1e-13)

    def test_huge_threshold_returns_tau0(self, bench_params):
        # eta == 0 leaves the full signal energy: F -> sigma^2 + E{X0^2}/delta
        assert se_map(1.7, 1e8, bench_params) == pytest.approx(
            tau0_squared(bench_params), rel=1e-12)

    def test_rejects_nonpositive_tau2(self, bench_params):
        with pytest.raises(ValueError):
            se_map(0.0, 1.0, bench_params)

    def test_nondecreasing_and_concave_on_grid(self, bench_params):
        # the one-dimensional map tau^2 -> F(tau^2, 2*tau) on [0.21, 3]
        grid = np.linspace(0.21, 3.0, 60)
        vals = np.array([se_map(t2, 2.0 * math.sqrt(t2), bench_params)
                         for t2 in grid])
        d1 = np.diff(vals)
        assert np.all(d1 >= -1e-12)
        d2 = np.diff(d1)
        assert np.all(d2 <= 1e-10)

    def test_concavity_other_priors(self):
        for prior, alpha in ((three_point(0.4), 1.0), (ZERO_PRIOR, 1.5),
                             (three_point(0.05), 3.0)):
            params = ModelParams(delta=0.4, sigma2=0.05, prior=prior)
            grid = np.linspace(0.05, 4.0, 50)
            vals = np.array([se_map(t2, alpha * math.sqrt(t2), params)
                             for t2 in grid])
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.all(np.diff(np.diff(vals)) <= 1e-9)


class TestSeRun:
    def test_starts_at_sigma2_plus_snr(self, bench_params):
        traj = se_run(bench_params, alpha=2.0)
        assert traj.tau2_sequence[0] == 0.2 + 0.128 / 0.64

    def test_monotone_sequence(self, bench_params):
        traj = se_run(bench_params, alpha=2.0)
        diffs = np.diff(traj.tau2_sequence)
        assert np.all(diffs <= 1e-15) or np.all(diffs >= -1e-15)

    def test_fixed_point_residual(self, bench_params):
        traj = se_run(bench_params, alpha=2.0)
        assert traj.converged
        t2 = traj.tau_star**2
        resid = abs(se_map(t2, 2.0 * traj.tau_star, bench_params) - t2)
        assert resid <= 1e-12 * t2

    def test_zero_prior_large_alpha_approaches_noise_floor(self):
        params = ModelParams(delta=0.5, sigma2=0.3, prior=ZERO_PRIOR)
        traj = se_run(params, alpha=6.0)
        assert traj.tau_star**2 == pytest.approx(0.3, rel=1e-6)

    def test_theta_sequence_tracks_tau(self, bench_params):
        traj = se_run(bench_params, alpha=2.0)
        for t2, th in zip(traj.tau2_sequence, traj.theta_sequence):
            assert th == pytest.approx(2.0 * math.sqrt(t2), rel=1e-14)

    def test_stops_at_first_nonfinite_tau2(self, bench_params):
        # far below alpha_min the iterates grow until tau^2 overflows; the
        # run ends there instead of mapping inf to nan (a numpy warning)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = se_run(bench_params, alpha=1e-3)
        assert not traj.converged and traj.tau_star is None
        assert len(traj.tau2_sequence) < 10001
        assert traj.tau2_sequence[-1] == math.inf
        assert all(math.isfinite(t2) for t2 in traj.tau2_sequence[:-1])

    @pytest.mark.parametrize("solve", [se_run, se_fixed_point])
    def test_prior_whose_second_moment_overflows_is_rejected(self, solve):
        # both warned of the overflow in the atoms' squares and then blamed
        # alpha: "alpha = 2 is too large for tau_0^2 = inf"
        prior = DiscretePrior((0.0, 1e300), (0.9, 0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"prior has E\{X0\^2\} = inf"):
                solve(ModelParams(delta=0.64, sigma2=0.2, prior=prior), 2.0)

    @pytest.mark.parametrize("delta, alpha", [(0.5, 1.2), (0.64, 1.2)])
    def test_noiseless_run_below_the_boundary_reaches_zero(self, delta, alpha):
        # it used to decay for 3064 (1494) steps to tau_star ~ 1e-157, whose
        # square is subnormal; the floor is eps^2 * tau_0^2
        params = ModelParams(delta=delta, sigma2=0.0, prior=three_point(0.128))
        traj = se_run(params, alpha)
        assert traj.converged and traj.tau_star == 0.0
        tau2 = traj.tau2_sequence
        assert len(tau2) < 400 and tau2[-1] < 2.0**-104 * tau2[0] <= min(tau2[:-1])
        assert all(np.diff(tau2) < 0)

    @pytest.mark.parametrize("sigma2, alpha", [(0.0, 3.0), (1e-40, 1.2), (0.2, 2.0)],
                             ids=["noiseless_above_boundary", "tiny_noise", "bench"])
    def test_floor_leaves_other_runs_alone(self, sigma2, alpha):
        # a positive limit, or sigma^2 > 0, is reached by the relative tol as before
        params = ModelParams(delta=0.64, sigma2=sigma2, prior=three_point(0.128))
        traj = se_run(params, alpha)
        assert traj.converged and traj.tau_star**2 >= sigma2 and traj.tau_star > 0
        t2 = traj.tau_star**2
        assert abs(se_map(t2, alpha * traj.tau_star, params) - t2) <= 1e-12 * t2


class TestAlphaMin:
    def test_delta_one_gives_zero(self):
        assert alpha_min(1.0) == pytest.approx(0.0, abs=1e-10)

    def test_residual_at_root(self):
        a = alpha_min(0.64)
        assert (1 + a * a) * Phi(-a) - a * phi(a) == pytest.approx(0.32, abs=1e-10)

    def test_monotone_in_delta(self):
        assert alpha_min(0.01) > alpha_min(0.1) > alpha_min(0.5) > 0

    def test_matches_half_risk_identity(self):
        # same equation as M(0, alpha) = delta, rearranged
        a = alpha_min(0.4)
        assert risk_M(0.0, a) == pytest.approx(0.4, abs=1e-9)

    def test_rejects_out_of_domain(self):
        for d in (0.0, 1.5, -1.0):
            with pytest.raises(ValueError):
                alpha_min(d)

    def test_delta_below_the_bracket_is_named(self):
        # [0, 20] holds alpha_min for delta above about 2.7e-91; below it the
        # root solve's bare "f(a) and f(b) must have different signs" escaped
        assert 19.0 < alpha_min(1e-90) < 20.0
        with pytest.raises(ValueError, match=r"^delta = 1e-100 is too small: alpha_min"):
            alpha_min(1e-100)


class TestBrentPort:
    """The private root solver is scipy's brentq.c, ported: the same roots, bit for bit."""

    def test_roots_equal_scipys_on_the_theory(self, monkeypatch):
        import amplasso.scalar_risk as sr
        import amplasso.state_evolution as se
        port, pairs = sr._brentq, []

        def both(f, a, b, xtol):
            root = port(f, a, b, xtol)
            pairs.append((root, optimize.brentq(f, a, b, xtol=xtol, rtol=8.9e-16)))
            return root

        # both bindings, so minimax_soft_threshold's alpha# roots are compared too
        monkeypatch.setattr(sr, "_brentq", both)
        monkeypatch.setattr(se, "_brentq", both)
        # at these deltas brentq.c divides by zero and bisects; the port raised
        # ZeroDivisionError
        for delta in (1e-120, 1e-200):
            rho_c(delta)
        for delta in (0.05, 0.2, 0.5, 0.64, 0.9):
            alpha_min(delta)
            rho_c(delta)
            boundary_alpha(delta)
            for eps in (0.05, 0.128, 0.3):
                params = ModelParams(delta=delta, sigma2=0.2, prior=three_point(eps))
                se_fixed_point(params, alpha_min(delta) + 0.5)
                for lam in (0.1, 1.0, 3.0):
                    alpha_of_lambda(lam, params)
        assert len(pairs) > 800  # the nested fixed-point solves of each inversion too
        assert [port.hex() for port, _ in pairs] == [ref.hex() for _, ref in pairs]

    def test_failures_are_typed(self):
        from amplasso.scalar_risk import _brentq
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0, 1e-12)
        # a jump at 0 that no bracket wider than xtol = 1e-300 resolves: scipy's
        # cap of 100 iterations after the two end points
        calls = []

        def jump(x):
            calls.append(x)
            return -1.0 if x < 0 else 1.0

        with pytest.raises(RuntimeError, match="100 iterations"):
            _brentq(jump, -1.0, 1.0, 1e-300)
        assert len(calls) == 102
        with pytest.raises(RuntimeError):
            optimize.brentq(jump, -1.0, 1.0, xtol=1e-300, rtol=8.9e-16)


class TestSeFixedPoint:
    def test_zero_prior_closed_form(self):
        params = ModelParams(delta=0.64, sigma2=0.2, prior=ZERO_PRIOR)
        for alpha in (1.0, 2.0, 3.0):
            tau_star = se_fixed_point(params, alpha)
            expected = 0.2 / (1.0 - risk_M(0.0, alpha) / 0.64)
            assert tau_star**2 == pytest.approx(expected, rel=1e-10)

    def test_zero_prior_half_budget_doubles_noise(self):
        # alpha chosen so M(0, alpha) = delta/2 makes tau*^2 = 2 sigma^2
        delta, sigma2 = 0.64, 0.2
        alpha = optimize.brentq(lambda a: risk_M(0.0, a) - delta / 2, 0.0, 10.0,
                                xtol=1e-13)
        params = ModelParams(delta=delta, sigma2=sigma2, prior=ZERO_PRIOR)
        assert se_fixed_point(params, alpha)**2 == pytest.approx(2 * sigma2,
                                                                 rel=1e-9)

    def test_agrees_with_bisection_oracle(self, bench_params):
        tau_star = se_fixed_point(bench_params, 2.0)
        root = optimize.brentq(
            lambda t2: se_map(t2, 2.0 * math.sqrt(t2), bench_params) - t2,
            bench_params.sigma2, 10.0, xtol=1e-15)
        assert tau_star**2 == pytest.approx(root, abs=1e-10)
        assert se_run(bench_params, 2.0).tau_star == pytest.approx(tau_star,
                                                                   abs=1e-10)

    def test_bounded_work_near_alpha_min(self, bench_params, monkeypatch):
        # plain fixed-point steps would crawl here (12 184 at alpha_min + 1e-3);
        # the bracketing solve takes a few dozen maps wherever alpha lies
        import amplasso.state_evolution as se
        calls = 0

        def counting_se_map(*args):
            nonlocal calls
            calls += 1
            return se_map(*args)

        monkeypatch.setattr(se, "se_map", counting_se_map)
        for offset in (1e-3, 1e-4, 1e-6):
            calls = 0
            alpha = alpha_min(0.64) + offset
            tau2 = se_fixed_point(bench_params, alpha) ** 2
            assert calls <= 100
            residual = se_map(tau2, alpha * math.sqrt(tau2), bench_params) - tau2
            assert abs(residual) <= 1e-12 * tau2

    def test_rejects_alpha_below_floor(self, bench_params):
        with pytest.raises(ValueError):
            se_fixed_point(bench_params, alpha_min(0.64) * 0.5)

    def test_rejects_noiseless(self):
        params = ModelParams(delta=0.64, sigma2=0.0, prior=three_point(0.1))
        with pytest.raises(ValueError):
            se_fixed_point(params, 2.0)


class TestCalibration:
    def test_zero_prior_plug_in(self):
        params = ModelParams(delta=1.0, sigma2=0.1, prior=ZERO_PRIOR)
        alpha = 3.0
        tau_star = se_fixed_point(params, alpha)
        expected = alpha * tau_star * (1 - 2 * Phi(-alpha))
        assert calibrate_lambda(alpha, params) == pytest.approx(expected, rel=1e-12)
        assert calibrate_lambda(alpha, params) > 0

    def test_monotone_segment_above_floor(self):
        params = ModelParams(delta=0.64, sigma2=0.2, prior=three_point(0.128))
        floor = alpha_min(0.64)
        assert calibrate_lambda(floor + 0.01, params) < calibrate_lambda(
            floor + 1.0, params)

    def test_round_trip(self, bench_params):
        for alpha in (1.2, 2.0, 4.0):
            lam = calibrate_lambda(alpha, bench_params)
            assert lam > 0
            assert alpha_of_lambda(lam, bench_params) == pytest.approx(alpha,
                                                                       abs=1e-6)

    def test_alpha_of_lambda_monotone_grid(self, bench_params):
        lams = [0.2, 0.5, 1.0, 2.0, 5.0]
        alphas = [alpha_of_lambda(l, bench_params) for l in lams]
        assert all(a2 > a1 for a1, a2 in zip(alphas, alphas[1:]))

    def test_small_lambda_brackets(self, bench_params):
        alpha = alpha_of_lambda(1e-3, bench_params)
        assert alpha > alpha_min(0.64)
        assert calibrate_lambda(alpha, bench_params) == pytest.approx(1e-3, abs=1e-8)

    def test_rejects_nonpositive_lambda(self, bench_params):
        with pytest.raises(ValueError):
            alpha_of_lambda(0.0, bench_params)

    def test_unreachable_lambda_is_a_theory_error(self, bench_params):
        # lambda(alpha) stays below 1e9 for every alpha up to the cap
        with pytest.raises(TheoryError, match="no alpha below"):
            alpha_of_lambda(1e9, bench_params)
        assert issubclass(TheoryError, ValueError)

    def test_one_alpha_min_per_inversion(self, bench_params, monkeypatch):
        import amplasso.state_evolution as se
        calls = []

        def counted(delta):
            calls.append(delta)
            return alpha_min(delta)

        monkeypatch.setattr(se, "alpha_min", counted)
        se._alpha_floor.cache_clear()
        for lam in (1e-3, 1.0, 5.0):
            alpha_of_lambda(lam, bench_params)
        lasso_risk(1.0, bench_params)
        assert calls == [0.64]  # one per delta, not one per inversion
        # the value a floor solved per calibration gave, to the bit (it was
        # 1.9458458093547715 with scipy's ndtr for Phi, 2 ulps below)
        assert alpha_of_lambda(1.0, bench_params) == 1.945845809354772


class TestLassoRisk:
    def test_internal_identity(self, bench_params):
        pred = lasso_risk(1.0, bench_params)
        channel = st_mse(bench_params.prior, pred.tau_star, pred.theta_star)
        assert pred.mse == pytest.approx(channel, abs=1e-10)

    def test_u_shape_in_lambda(self, bench_params):
        lams = np.linspace(0.1, 2.0, 13)
        mses = [lasso_risk(float(l), bench_params).mse for l in lams]
        k = int(np.argmin(mses))
        assert 0 < k < len(lams) - 1
        assert all(m1 >= m2 - 1e-12 for m1, m2 in zip(mses[:k], mses[1:k + 1]))
        assert all(m2 >= m1 - 1e-12 for m1, m2 in zip(mses[k:], mses[k + 1:]))

    def test_rejects_zero_prior(self):
        params = ModelParams(delta=0.64, sigma2=0.2, prior=ZERO_PRIOR)
        with pytest.raises(ValueError):
            lasso_risk(1.0, params)

    def test_rejects_noiseless(self):
        params = ModelParams(delta=0.64, sigma2=0.0, prior=three_point(0.1))
        with pytest.raises(ValueError):
            lasso_risk(1.0, params)


class TestPhaseGeometry:
    def test_rho_c_known_value(self):
        assert rho_c(0.2) == pytest.approx(0.2436, abs=5e-4)

    def test_rho_c_increasing_in_delta(self):
        vals = [rho_c(d) for d in np.linspace(0.1, 0.9, 9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_cross_characterization(self):
        # the boundary point of the optimally-tuned threshold at eps=rho*delta
        for delta in (0.2, 0.5, 0.8):
            rc = rho_c(delta)
            alpha_star = minimax_soft_threshold(rc * delta).alpha_sharp
            d2, r2 = parametric_boundary(alpha_star)
            assert d2 == pytest.approx(delta, abs=1e-6)
            assert r2 == pytest.approx(rc, abs=1e-6)

    @pytest.mark.parametrize("eps", [1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5,
                                     0.7, 0.9])
    def test_minimax_point_is_on_the_parametric_boundary(self, eps):
        # alpha# is the root of dM/dalpha = 0, where the boundary's parametric
        # form meets (M#, eps/M#); the golden-section search's alpha# missed
        # it by up to 2.5e-7 relative
        res = minimax_soft_threshold(eps)
        d, r = parametric_boundary(res.alpha_sharp)
        assert d == pytest.approx(res.m_sharp, rel=1e-12, abs=0.0)
        assert r == pytest.approx(eps / res.m_sharp, rel=1e-12, abs=0.0)

    def test_minimax_point_at_a_subnormal_eps(self):
        # sqrt(2 log(1/eps)) overflowed and alpha# and M# were NaN.  At
        # alpha# = 37.5 the last-bit rounding of Phi(-alpha) is scaled by
        # alpha^2 in the cancelling terms of M and dM/dalpha, so the identity
        # holds to about 3e-11 here, not to the 1e-12 of normal eps
        eps = 1e-310
        res = minimax_soft_threshold(eps)
        d, r = parametric_boundary(res.alpha_sharp)
        assert 37.0 < res.alpha_sharp < 38.0
        assert d == pytest.approx(res.m_sharp, rel=1e-10, abs=0.0)
        assert r == pytest.approx(eps / res.m_sharp, rel=1e-10, abs=0.0)

    def test_rho_c_names_an_underflowing_delta(self):
        # rho*delta at the bracket's start rho = 1e-9 underflowed to eps = 0,
        # and the error blamed eps
        assert 0.0 < rho_c(4e-315) < 1e-3
        with pytest.raises(ValueError, match=r"^delta = 1e-320 is too small"):
            rho_c(1e-320)

    def test_parametric_boundary_origin(self):
        d, r = parametric_boundary(0.0)
        assert d == pytest.approx(1.0, abs=1e-14)
        assert r == pytest.approx(1.0, abs=1e-14)

    def test_parametric_boundary_decays(self):
        d1, r1 = parametric_boundary(1.0)
        d3, r3 = parametric_boundary(3.0)
        d6, r6 = parametric_boundary(6.0)
        assert d6 < d3 < d1
        assert r6 < r3 < r1

    def test_boundary_alpha_prescription(self):
        assert boundary_alpha(0.2) == pytest.approx(1.40814, abs=2e-3)
        d, _ = parametric_boundary(boundary_alpha(0.37))
        assert d == pytest.approx(0.37, abs=1e-10)


class TestMinimaxRiskStar:
    def test_vanishes_with_sparsity(self):
        assert minimax_risk_star(0.64, 1e-4) < 1e-2

    def test_diverges_at_boundary(self):
        rc = rho_c(0.64)
        assert minimax_risk_star(0.64, 0.99 * rc) > 10 * minimax_risk_star(
            0.64, 0.5 * rc)

    def test_infinite_above_boundary(self):
        # finite exactly below rho_c
        for delta in (0.3, 0.64):
            rc = rho_c(delta)
            assert math.isfinite(minimax_risk_star(delta, 0.9 * rc))
            assert minimax_risk_star(delta, rc * 1.0001) == math.inf
            assert minimax_risk_star(delta, 1.1 * rc) == math.inf
        assert minimax_risk_star(0.64, 1.2) == math.inf

    def test_underflowing_product_is_named(self):
        with pytest.raises(ValueError, match=r"rho = 1e-30, delta = 1e-300: rho\*delta"):
            minimax_risk_star(1e-300, 1e-30)

    def test_formula_below_boundary(self):
        delta, rho = 0.5, 0.1
        m_sharp = minimax_soft_threshold(rho * delta).m_sharp
        assert minimax_risk_star(delta, rho) == pytest.approx(
            m_sharp / (1 - m_sharp / delta), rel=1e-12)
