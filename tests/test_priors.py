"""Discrete priors and their closed-form Gaussian-channel expectations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amplasso import (DiscretePrior, delta_prior, sample_with_rng, st_keep_prob,
                      st_mse, three_point)
from amplasso.gaussians import Phi, phi


class TestDiscretePrior:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            DiscretePrior((0.0, 1.0), (-0.1, 1.1))

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError):
            DiscretePrior((0.0, 1.0), (0.5, 0.6))

    def test_rejects_duplicate_atoms(self):
        with pytest.raises(ValueError):
            DiscretePrior((1.0, 1.0), (0.5, 0.5))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            DiscretePrior((0.0, 1.0), (1.0,))

    def test_second_moment_delta0(self):
        assert delta_prior().second_moment == 0.0

    def test_second_moment_three_point(self):
        assert three_point(0.128).second_moment == pytest.approx(0.128, abs=1e-15)

    def test_second_moment_two_atom(self):
        prior = DiscretePrior((0.0, 3.0), (0.9, 0.1))
        assert prior.second_moment == pytest.approx(0.9, abs=1e-15)

    def test_sparsity(self):
        assert three_point(0.128).sparsity == pytest.approx(0.128, abs=1e-15)
        assert delta_prior().sparsity == 0.0
        assert DiscretePrior((1.0,), (1.0,)).sparsity == 1.0

    def test_signal_mass_flag(self):
        assert three_point(0.1).has_signal_mass
        assert not delta_prior().has_signal_mass


class TestSample:
    def test_degenerate_prior(self):
        x = sample_with_rng(delta_prior(), 5, np.random.default_rng(1))
        assert np.array_equal(x, np.zeros(5))

    def test_deterministic_given_seed(self):
        prior = three_point(0.3)

        def draw(seed):
            return sample_with_rng(prior, 1000, np.random.default_rng(seed))
        assert np.array_equal(draw(7), draw(7))
        assert not np.array_equal(draw(7), draw(8))

    def test_law_of_large_numbers(self):
        # fraction of +-1 entries ~ Binomial(n, 0.128): keep within 4 SE
        prior = three_point(0.128)
        x = sample_with_rng(prior, 10**6, np.random.default_rng(3))
        frac = np.mean(x != 0)
        se = np.sqrt(0.128 * 0.872 / 10**6)
        assert abs(frac - 0.128) < 4 * se

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_with_rng(delta_prior(), 0, np.random.default_rng(0))


class TestStMseClosedForm:
    def test_identity_channel(self):
        # theta=0 makes the threshold the identity: error is pure noise
        assert st_mse(delta_prior(), 1.0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_zero_prior_matches_half_risk_formula(self):
        # E{eta(Z; a)^2} = 2(1+a^2)Phi(-a) - 2a phi(a)
        for a in (0.3, 1.0, 2.5):
            expected = 2 * (1 + a**2) * Phi(-a) - 2 * a * phi(a)
            assert st_mse(delta_prior(), 1.0, a) == pytest.approx(expected, rel=1e-13)

    def test_scale_identity_zero_prior(self):
        for tau in (0.3, 1.7):
            for a in (0.5, 2.0):
                lhs = st_mse(delta_prior(), tau, a * tau)
                rhs = tau**2 * st_mse(delta_prior(), 1.0, a)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_huge_threshold_kills_everything(self):
        prior = three_point(0.4)
        assert st_mse(prior, 0.8, 1e8) == pytest.approx(prior.second_moment, abs=1e-12)

    def test_monotone_in_tau_at_fixed_ratio(self):
        prior = three_point(0.2)
        taus = np.linspace(0.1, 3.0, 25)
        vals = [st_mse(prior, t, 1.5 * t) for t in taus]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_rejects_bad_channel(self):
        with pytest.raises(ValueError):
            st_mse(delta_prior(), 0.0, 1.0)
        with pytest.raises(ValueError):
            st_mse(delta_prior(), 1.0, -0.5)


def st_mse_reference(prior, tau, theta):
    """The channel MSE as first written: phi and Phi per branch, z*phi(z) clipped."""
    def zphi(z):
        zc = np.clip(z, -40.0, 40.0)
        return zc * phi(zc)
    x, w = prior.atom_array, prior.weight_array
    a, b = (theta - x) / tau, (-theta - x) / tau
    upper = tau**2 * (zphi(a) + Phi(-a)) - 2 * tau * theta * phi(a) + theta**2 * Phi(-a)
    lower = tau**2 * (Phi(b) - zphi(b)) - 2 * tau * theta * phi(b) + theta**2 * Phi(b)
    dead = x**2 * (Phi(a) - Phi(b))
    return float(np.dot(w, upper + lower + dead))


def st_keep_prob_reference(prior, tau, theta):
    x, w = prior.atom_array, prior.weight_array
    a, b = (theta - x) / tau, (-theta - x) / tau
    return float(np.dot(w, Phi(-a) + Phi(b)))


class TestReferenceFormulas:
    """The channel sums equal, bit for bit, the per-branch expressions above."""

    PRIORS = (three_point(0.128), delta_prior(), DiscretePrior((2.5,), (1.0,)),
              DiscretePrior((-2.0, 0.0, 0.5, 3.0), (0.1, 0.6, 0.2, 0.1)))

    @pytest.mark.parametrize("prior", PRIORS, ids=range(len(PRIORS)))
    def test_bitwise_on_a_log_grid(self, prior):
        # tiny tau puts the normalized thresholds far past the clip at |z| = 40,
        # and tau = 1e-310 makes them overflow to inf, where the clip matters
        taus = np.append(np.logspace(-8, 3, 45), 1e-310)
        thetas = np.concatenate(([0.0], np.logspace(-8, 3, 23)))
        grid = [(float(t), float(th)) for t in taus for th in thetas]
        assert any(abs(th - x) / t > 40 for t, th in grid for x in prior.atoms)
        with np.errstate(over="ignore"):  # the overflow to inf is the point
            for fn, ref in ((st_mse, st_mse_reference),
                            (st_keep_prob, st_keep_prob_reference)):
                assert [fn(prior, t, th).hex() for t, th in grid] == \
                    [ref(prior, t, th).hex() for t, th in grid]


class TestStKeepProb:
    def test_zero_threshold(self):
        assert st_keep_prob(three_point(0.2), 0.7, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_zero_prior_symmetry(self):
        for a in (0.4, 1.3, 2.2):
            assert st_keep_prob(delta_prior(), 1.0, a) == pytest.approx(
                2 * Phi(-a), rel=1e-13)

    @settings(max_examples=80, deadline=None)
    @given(theta1=st.floats(0.0, 5.0), theta2=st.floats(0.0, 5.0),
           tau=st.floats(0.05, 4.0), eps=st.floats(0.0, 1.0))
    def test_in_unit_interval_and_monotone(self, theta1, theta2, tau, eps):
        prior = three_point(eps)
        lo, hi = sorted((theta1, theta2))
        p_hi = st_keep_prob(prior, tau, hi)
        p_lo = st_keep_prob(prior, tau, lo)
        assert 0.0 <= p_hi <= 1.0 + 1e-12
        assert p_hi <= p_lo + 1e-12


class TestMonteCarloOracle:
    """Closed forms vs brute-force simulation of the channel."""

    def _mc(self, prior, tau, theta, n, seed):
        rng = np.random.default_rng(seed)
        x = sample_with_rng(prior, n, rng)
        u = x + tau * rng.standard_normal(n)
        err = (np.sign(u) * np.maximum(np.abs(u) - theta, 0.0) - x) ** 2
        kept = (np.abs(u) >= theta).astype(float)
        return ((err.mean(), err.std(ddof=1) / np.sqrt(n)),
                (kept.mean(), kept.std(ddof=1) / np.sqrt(n)))

    def test_st_mse_spot_check_10m(self):
        prior = three_point(0.1)
        (mean, se), _ = self._mc(prior, 0.5, 0.6, 10**7, seed=11)
        assert abs(st_mse(prior, 0.5, 0.6) - mean) < 3 * se

    def test_keep_prob_spot_check_10m(self):
        prior = three_point(0.128)
        _, (mean, se) = self._mc(prior, 0.4, 0.8, 10**7, seed=12)
        assert abs(st_keep_prob(prior, 0.4, 0.8) - mean) < 3 * se
