"""One-dimensional soft-thresholding theory.

Soft thresholding, the worst-case risk ``M(eps, alpha)`` of the threshold
estimator over priors with at most ``eps`` mass off zero, and the minimax
constants ``M#(eps)`` / ``alpha#(eps)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussians import Phi, phi

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def soft_threshold(y, theta):
    """Shrink toward zero by ``theta`` with dead zone [-theta, theta].

    ``y`` may be a scalar or array; ``theta`` is a nonnegative scalar.  The
    product order ``sign(y) * max(|y| - theta, 0)`` makes a zero output
    negative exactly where ``y < 0``; the iteration's fixed-point check
    tells -0.0 from 0.0.
    """
    if theta < 0:
        raise ValueError("theta must be >= 0")
    y = np.asarray(y, dtype=float)
    out = np.sign(y) * np.maximum(np.abs(y) - theta, 0.0)
    return out if out.ndim else float(out)


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


def minimax_soft_threshold(eps: float) -> MinimaxResult:
    """Minimize ``risk_M(eps, .)`` over alpha >= 0 by golden-section search.

    The risk is unimodal in alpha; the search domain is capped at
    sqrt(2*log(1/eps)) + 10, comfortably past the very-sparse optimum, and
    the search stops once the bracket on alpha is 1e-8 wide.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    lo, hi = 0.0, math.sqrt(2.0 * math.log(1.0 / eps)) + 10.0
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = risk_M(eps, c), risk_M(eps, d)
    while hi - lo > 1e-8:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = risk_M(eps, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = risk_M(eps, d)
    alpha = 0.5 * (lo + hi)
    return MinimaxResult(m_sharp=risk_M(eps, alpha), alpha_sharp=alpha)
