"""One-dimensional soft-thresholding theory.

Soft thresholding and its derivative, the worst-case risk ``M(eps, alpha)``
of the threshold estimator over priors with at most ``eps`` mass off zero,
the minimax constants ``M#(eps)`` / ``alpha#(eps)``, and the scalar MMSE
benchmark (posterior mean under a known discrete prior).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussians import Phi, phi
from .priors import DiscretePrior

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def soft_threshold(y, theta):
    """Shrink toward zero by ``theta`` with dead zone [-theta, theta].

    ``y`` may be a scalar or array; ``theta`` a nonnegative scalar or an
    array broadcastable against ``y``.  The product order
    ``sign(y) * max(|y| - theta, 0)`` makes a zero output negative exactly
    where ``y < 0``; the iteration's cycle check tells -0.0 from 0.0.
    """
    if isinstance(theta, float):  # the solvers' case: one Python comparison
        negative = theta < 0
    else:
        theta = np.asarray(theta, dtype=float)
        negative = np.any(theta < 0)
    if negative:
        raise ValueError("theta must be >= 0")
    y = np.asarray(y, dtype=float)
    out = np.sign(y) * np.maximum(np.abs(y) - theta, 0.0)
    return out if out.ndim else float(out)


def soft_threshold_derivative(y, theta):
    """d/dy of soft thresholding: 1 outside the dead zone, else 0.

    The kink |y| = theta is assigned derivative 0 so that the derivative
    sum equals the nonzero count of the thresholded vector exactly.
    """
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(theta_arr < 0):
        raise ValueError("theta must be >= 0")
    y_arr = np.asarray(y, dtype=float)
    out = (np.abs(y_arr) > theta_arr).astype(float)
    return float(out) if out.ndim == 0 else out


def risk_M(eps: float, alpha: float) -> float:
    """Worst-case soft-threshold MSE (noise variance 1) at sparsity eps.

    ``eps*(1+alpha^2) + (1-eps)*[2(1+alpha^2)*Phi(-alpha) - 2*alpha*phi(alpha)]``
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    bracket = 2.0 * (1.0 + alpha**2) * Phi(-alpha) - 2.0 * alpha * phi(alpha)
    return eps * (1.0 + alpha**2) + (1.0 - eps) * bracket


@dataclass(frozen=True)
class MinimaxResult:
    """Minimax risk and optimal threshold multiplier at a sparsity level."""

    m_sharp: float
    alpha_sharp: float
    epsilon: float


def minimax_soft_threshold(eps: float, alpha_tol: float = 1e-8) -> MinimaxResult:
    """Minimize ``risk_M(eps, .)`` over alpha >= 0 by golden-section search.

    The risk is unimodal in alpha; the search domain is capped at
    sqrt(2*log(1/eps)) + 10, comfortably past the very-sparse optimum.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    lo, hi = 0.0, math.sqrt(2.0 * math.log(1.0 / eps)) + 10.0
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = risk_M(eps, c), risk_M(eps, d)
    while hi - lo > alpha_tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = risk_M(eps, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = risk_M(eps, d)
    alpha = 0.5 * (lo + hi)
    return MinimaxResult(m_sharp=risk_M(eps, alpha), alpha_sharp=alpha, epsilon=eps)


def mmse_estimate(prior: DiscretePrior, sigma: float, y):
    """Posterior mean E[X0 | X0 + sigma*Z = y] under a discrete prior."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    atoms = prior.atom_array[:, None]
    weights = prior.weight_array[:, None]
    # Shift exponents so the largest is 0; immune to underflow far from atoms.
    expo = -0.5 * ((y_arr[None, :] - atoms) / sigma) ** 2
    expo -= expo.max(axis=0, keepdims=True)
    lik = weights * np.exp(expo)
    out = (atoms * lik).sum(axis=0) / lik.sum(axis=0)
    return float(out[0]) if np.ndim(y) == 0 else out


def mmse_risk(prior: DiscretePrior, sigma: float, abs_tol: float = 1e-10) -> float:
    """E{(E[X0|Y] - X0)^2} for Y = X0 + sigma*Z, by adaptive quadrature.

    Integrates over y separately around each atom; the +-12 sigma window
    leaves tail mass below 1e-12.
    """
    from scipy import integrate  # loaded on use, kept out of `import amplasso`

    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    total = 0.0
    for atom, weight in zip(prior.atoms, prior.weights):
        if weight == 0.0:
            continue

        def integrand(y, x0=atom):
            err = mmse_estimate(prior, sigma, y) - x0
            return err * err * phi((y - x0) / sigma) / sigma

        val, _ = integrate.quad(
            integrand, atom - 12.0 * sigma, atom + 12.0 * sigma,
            epsabs=abs_tol, epsrel=1e-10, limit=400,
        )
        total += weight * val
    return total
