"""Soft thresholding, worst-case risk, minimax constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amplasso import minimax_soft_threshold, risk_M, soft_threshold


class TestSoftThreshold:
    def test_branches(self):
        assert soft_threshold(2.0, 1.0) == 1.0
        assert soft_threshold(0.5, 1.0) == 0.0
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_rejects_negative_theta(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    def test_vectorized(self):
        y = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(soft_threshold(y, 1.0),
                                   [-1.0, 0.0, 0.0, 0.0, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(y=st.floats(-50, 50), theta=st.floats(0, 20))
    def test_odd_and_dominated(self, y, theta):
        assert soft_threshold(-y, theta) == -soft_threshold(y, theta)
        assert abs(soft_threshold(y, theta)) <= abs(y) + 1e-15

    @settings(max_examples=100, deadline=None)
    @given(y1=st.floats(-50, 50), y2=st.floats(-50, 50), theta=st.floats(0, 20))
    def test_lipschitz(self, y1, y2, theta):
        d = abs(soft_threshold(y1, theta) - soft_threshold(y2, theta))
        assert d <= abs(y1 - y2) + 1e-12


class TestRiskM:
    def test_zero_threshold_is_one(self):
        for eps in (0.0, 0.113, 0.5, 1.0):
            assert risk_M(eps, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_full_sparsity_worst_case(self):
        for a in (0.0, 0.7, 2.0):
            assert risk_M(1.0, a) == pytest.approx(1 + a**2, rel=1e-15)

    def test_known_optimum_at_eps_01(self):
        # the minimizer at eps=0.1 sits at alpha ~ 1.1402
        assert risk_M(0.1, 1.1402) == pytest.approx(
            minimax_soft_threshold(0.1).m_sharp, abs=1e-7)

    def test_unimodal_on_grid(self):
        # no interior local max: the sequence of grid values never goes
        # down-then-up-then-down around a bracketing triple
        for eps in (0.01, 0.1, 0.3, 0.6, 0.9):
            alphas = np.linspace(0.0, 6.0, 400)
            vals = np.array([risk_M(eps, a) for a in alphas])
            d = np.diff(vals)
            sign_changes = np.sum(np.diff(np.sign(d[np.abs(d) > 1e-14])) != 0)
            assert sign_changes <= 1


class TestMinimax:
    def test_alpha_sharp_at_01(self):
        res = minimax_soft_threshold(0.1)
        assert res.alpha_sharp == pytest.approx(1.1402, abs=1e-3)
        assert 0.0 < res.m_sharp < 1.0
        assert res.m_sharp == pytest.approx(risk_M(0.1, res.alpha_sharp), abs=1e-12)

    def test_very_sparse_asymptotics(self):
        eps = 1e-6
        res = minimax_soft_threshold(eps)
        assert res.m_sharp / (2 * eps * np.log(1 / eps)) == pytest.approx(1.0, abs=0.25)
        assert res.alpha_sharp / np.sqrt(2 * np.log(1 / eps)) == pytest.approx(
            1.0, abs=0.25)

    def test_m_sharp_in_unit_interval(self):
        for eps in (1e-4, 0.05, 0.5, 0.99):
            assert 0.0 < minimax_soft_threshold(eps).m_sharp < 1.0

    def test_rejects_out_of_range(self):
        for eps in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                minimax_soft_threshold(eps)
