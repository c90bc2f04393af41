"""One-dimensional soft-thresholding theory.

Soft thresholding, the worst-case risk ``M(eps, alpha)`` of the threshold
estimator over priors with at most ``eps`` mass off zero, the minimax
constants ``M#(eps)`` / ``alpha#(eps)``, and the Brent root finder that
every root solve of the theory uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussians import Phi, phi

# scipy.optimize.brentq's iteration cap and its smallest rtol (4 eps), which
# every root solve of the theory uses
_BRENT_MAX_ITER = 100
_BRENT_RTOL = 8.9e-16


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


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """A root of ``f`` in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A line-by-line port of scipy's ``brentq.c``, so its roots equal
    ``scipy.optimize.brentq``'s bit for bit: inverse quadratic or secant
    steps while they shrink the bracket fast enough, else bisection, until
    the bracket is below xtol + 8.9e-16*|x|.  A ``ValueError`` if f has the
    same sign at both ends or returns NaN, a ``RuntimeError`` after
    scipy's cap of 100 iterations.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError("the function is NaN at an end of the bracket")
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(f"no sign change on [{xa!r}, {xb!r}]: f(a) and f(b) "
                         "must have different signs")
    for _ in range(_BRENT_MAX_ITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; where brentq.c divides by zero, it bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"the function is NaN at x = {xcur!r}")
    raise RuntimeError(f"no root to tolerance after {_BRENT_MAX_ITER} iterations, "
                       f"last x = {xcur!r}")


@dataclass(frozen=True)
class MinimaxResult:
    """Minimax risk and optimal threshold multiplier at a sparsity level."""

    m_sharp: float
    alpha_sharp: float


def minimax_soft_threshold(eps: float) -> MinimaxResult:
    """alpha#(eps), the minimizer of ``risk_M(eps, .)`` over alpha >= 0, and M#(eps).

    alpha# is the root of ``S(a) = eps*a + 2(1-eps)(a*Phi(-a) - phi(a))``,
    half of dM/da: S(0) < 0 and S' = eps + 2(1-eps)*Phi(-a) > 0, so the
    root is unique.  It is sought in [0, sqrt(-2*log(eps)) + 10], past the
    very-sparse optimum, to 1e-15.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")

    def slope(a):
        return eps * a + 2.0 * (1.0 - eps) * (a * Phi(-a) - phi(a))

    alpha = _brentq(slope, 0.0, math.sqrt(-2.0 * math.log(eps)) + 10.0, 1e-15)
    return MinimaxResult(m_sharp=risk_M(eps, alpha), alpha_sharp=alpha)
