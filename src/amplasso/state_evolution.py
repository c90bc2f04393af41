"""Scalar state evolution, calibration, risk prediction, and phase geometry.

The deterministic recursion ``tau_{t+1}^2 = F(tau_t^2, alpha*tau_t)`` with
``F(tau^2, theta) = sigma^2 + st_mse(prior, tau, theta)/delta`` tracks the
effective noise of the memory-corrected solver exactly in the
high-dimensional limit.  Its fixed point feeds the threshold/regularization
calibration ``lambda(alpha)``, the predicted LASSO risk
``delta*(tau_*^2 - sigma^2)``, and the noise-sensitivity phase boundary.
All expectations are closed-form (no quadrature), so every quantity here
is deterministic to machine precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .gaussians import Phi, phi
from .instances import ModelParams
from .priors import st_keep_prob, st_mse
from .scalar_risk import _brentq, minimax_soft_threshold

# tau^2 below this fraction (eps^2) of tau_0^2 is zero to double precision
_ZERO_TAU2 = 2.0**-104


class TheoryError(ValueError):
    """A calibration or fixed point the model cannot reach (e.g. lambda too large).

    A ``ValueError``: the request is well formed but asks for a quantity
    that does not exist for these parameters, so the CLI reports it with
    exit code 2.
    """


@dataclass(frozen=True)
class SETrajectory:
    """State evolution trace: tau_t^2 values, thresholds, and the limit."""

    tau2_sequence: tuple[float, ...]
    theta_sequence: tuple[float, ...]
    converged: bool
    tau_star: float | None


@dataclass(frozen=True)
class LassoRiskPrediction:
    """Predicted per-coordinate LASSO MSE with its calibration data."""

    mse: float
    tau_star: float
    theta_star: float
    alpha: float
    lam: float


def tau0_squared(params: ModelParams) -> float:
    """Starting point sigma^2 + E{X0^2}/delta; a ``ValueError`` for a prior whose
    E{X0^2} overflows, which no alpha could make finite."""
    second_moment = params.prior.second_moment
    if not math.isfinite(second_moment):
        raise ValueError(f"prior has E{{X0^2}} = {second_moment:g}: "
                         "the squares of its atoms overflow")
    return params.sigma2 + second_moment / params.delta


def se_map(tau2: float, theta: float, params: ModelParams) -> float:
    """F(tau^2, theta) = sigma^2 + E{[eta(X0 + tau Z; theta) - X0]^2}/delta."""
    if tau2 <= 0:
        raise ValueError("tau2 must be > 0")
    return params.sigma2 + st_mse(params.prior, math.sqrt(tau2), theta) / params.delta


def se_run(params: ModelParams, alpha: float) -> SETrajectory:
    """Iterate the recursion from tau_0^2 until its relative change is <= 1e-13,
    for at most 10 000 steps.

    The map tau^2 -> F(tau^2, alpha*tau) is nondecreasing and concave, so
    the iterates are monotone; the returned limit satisfies the fixed
    point equation to ~1e-13 relative residual.  Below alpha_min the
    iterates can grow until tau^2 overflows; the run stops at the first
    non-finite tau^2, which ends the sequence, with ``converged=False``.
    With sigma^2 = 0 below the phase boundary tau^2 decays geometrically
    to 0, which no relative tol meets; once it drops below eps^2 * tau_0^2
    (a floor on tau^2 itself, in the units of the prior) the run stops
    with the limit ``tau_star = 0`` instead of stepping into subnormals.
    A run with sigma^2 > 0 never meets the floor.  An alpha whose threshold
    at tau_0 has an overflowing square is a ``ValueError``, as the
    channel could not square it, and so is a prior whose E{X0^2}
    overflows (:func:`tau0_squared`).
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    tau2 = tau0_squared(params)
    _check_threshold(alpha, tau2)
    floor = _ZERO_TAU2 * tau2 if params.sigma2 == 0 else 0.0
    tau2_seq = [tau2]
    theta_seq = [alpha * math.sqrt(tau2)]
    converged = False
    for _ in range(10000):
        tau2_next = se_map(tau2, alpha * math.sqrt(tau2), params)
        tau2_seq.append(tau2_next)
        theta_seq.append(alpha * math.sqrt(tau2_next) if tau2_next > 0 else 0.0)
        if not math.isfinite(tau2_next):
            break
        done = abs(tau2_next - tau2) <= 1e-13 * max(tau2, 1e-300)
        tau2 = tau2_next
        if tau2 < floor:
            tau2 = 0.0
            done = True
        if done:
            converged = True
            break
    return SETrajectory(tau2_sequence=tuple(tau2_seq), theta_sequence=tuple(theta_seq),
                        converged=converged,
                        tau_star=math.sqrt(tau2) if converged else None)


def alpha_min(delta: float) -> float:
    """Smallest threshold multiplier with a guaranteed unique fixed point.

    Root of (1 + a^2)*Phi(-a) - a*phi(a) = delta/2; the left side is
    strictly decreasing from 1/2, so the root exists for delta in (0, 1].
    It is sought in [0, 20], which holds it for delta above about 2.7e-91;
    a smaller delta is a ``ValueError`` naming it.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")

    def f(a):
        return (1.0 + a * a) * Phi(-a) - a * phi(a) - delta / 2.0

    if f(20.0) > 0:  # the left side is 1.4e-91 at a = 20
        raise ValueError(f"delta = {delta:g} is too small: alpha_min(delta) lies "
                         "beyond 20, the end of its bracket")
    return _brentq(f, 0.0, 20.0, 1e-12)


@functools.cache
def _alpha_floor(delta: float) -> float:
    """alpha_min(delta) for delta <= 1, else 0; solved once per delta."""
    return alpha_min(delta) if delta <= 1.0 else 0.0


def _check_threshold(alpha: float, tau0_2: float) -> None:
    """Reject an infinite alpha, or one whose threshold at tau_0 has an
    overflowing square: the channel's ``theta**2`` would raise."""
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if not math.isfinite(alpha * alpha * tau0_2):
        raise ValueError(f"alpha = {alpha:g} is too large for tau_0^2 = {tau0_2:g}: "
                         "(alpha * tau_0)^2 overflows")


def se_fixed_point(params: ModelParams, alpha: float) -> float:
    """Unique tau_* > 0 solving tau^2 = F(tau^2, alpha*tau).

    One bracketing root solve from [sigma^2, tau_0^2], the upper end
    doubled until it brackets the root; the result satisfies the equation
    to 1e-12 relative residual.  Requires sigma^2 > 0 and alpha above
    :func:`alpha_min`, where uniqueness holds, a prior with a finite
    E{X0^2} and a finite square of the threshold alpha * tau_0.
    """
    if params.sigma2 <= 0:
        raise ValueError("sigma2 must be > 0 for the fixed point")
    floor = _alpha_floor(params.delta)
    if alpha <= floor:
        raise ValueError(f"alpha must exceed alpha_min = {floor:.6f}")
    hi = tau0_squared(params)
    _check_threshold(alpha, hi)

    def g(tau2):
        return se_map(tau2, alpha * math.sqrt(tau2), params) - tau2

    lo = params.sigma2  # g(sigma^2) = st_mse/delta >= 0
    while g(hi) > 0:
        hi *= 2.0
        if hi > 1e12:
            raise TheoryError("no bracket for the fixed point")
    return math.sqrt(_brentq(g, lo, hi, 1e-15))


def calibrate_lambda(alpha: float, params: ModelParams) -> float:
    """Regularization level reached by threshold multiplier ``alpha``.

    lambda(alpha) = alpha*tau_* * [1 - P{|X0 + tau_* Z| >= alpha*tau_*}/delta];
    negative values occur just above alpha_min and are returned as-is (the
    usable branch is where the value is positive).
    """
    tau_star = se_fixed_point(params, alpha)
    theta_star = alpha * tau_star
    keep = st_keep_prob(params.prior, tau_star, theta_star)
    return theta_star * (1.0 - keep / params.delta)


def alpha_of_lambda(lam: float, params: ModelParams) -> float:
    """Invert the calibration: the alpha with calibrate_lambda(alpha) = lam.

    Brackets from just above alpha_min (where the calibration dives
    negative) and grows the upper end geometrically until it clears
    ``lam``; fails loudly if no bracket exists below alpha = 1000.  The
    root is found to 1e-8 in alpha.  alpha_min is solved once per delta
    and shared by every calibration at it.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    floor = _alpha_floor(params.delta)

    offset = 0.5
    lo = floor + offset
    while calibrate_lambda(lo, params) >= lam:
        offset *= 0.25
        if offset < 1e-9:
            raise TheoryError("could not bracket alpha from below; lam too small?")
        lo = floor + offset

    hi = max(2.0 * lo, lo + 1.0)
    while calibrate_lambda(hi, params) < lam:
        hi *= 2.0
        if hi > 1e3:
            raise TheoryError(f"no alpha below 1000.0 reaches lam={lam}")

    return _brentq(lambda a: calibrate_lambda(a, params) - lam, lo, hi, 1e-8)


def lasso_risk(lam: float, params: ModelParams) -> LassoRiskPrediction:
    """Exact high-dimensional LASSO risk at regularization ``lam``.

    Returns delta*(tau_*^2 - sigma^2), which equals the channel MSE
    E{[eta(X0 + tau_* Z; theta_*) - X0]^2} by the fixed point identity;
    both are evaluated and must agree to 1e-10.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    if params.sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    if not params.prior.has_signal_mass:
        raise ValueError("prior must put mass off zero")
    alpha = alpha_of_lambda(lam, params)
    tau_star = se_fixed_point(params, alpha)
    theta_star = alpha * tau_star
    mse = params.delta * (tau_star**2 - params.sigma2)
    channel_mse = st_mse(params.prior, tau_star, theta_star)
    if abs(mse - channel_mse) > 1e-10 * max(1.0, abs(mse)):
        raise TheoryError(
            f"fixed point identity violated: {mse!r} vs {channel_mse!r}")
    return LassoRiskPrediction(mse=mse, tau_star=tau_star, theta_star=theta_star,
                               alpha=alpha, lam=lam)


def rho_c(delta: float) -> float:
    """Noise-sensitivity phase boundary: sparsity-per-measurement limit.

    The unique rho where the minimax threshold risk exhausts the
    measurement budget, i.e. M#(rho*delta) = delta.  Below it the LASSO
    minimax risk is finite; above it, infinite.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if 1e-9 * delta == 0.0:
        raise ValueError(f"delta = {delta!r} is too small: rho*delta underflows to 0 "
                         "at rho = 1e-9, the start of rho_c's bracket")

    def f(rho):
        return minimax_soft_threshold(rho * delta).m_sharp - delta

    return _brentq(f, 1e-9, 1.0 - 1e-12, 1e-10)


def minimax_risk_star(delta: float, rho: float) -> float:
    """Worst-case LASSO noise sensitivity M*(delta, rho); +inf above the boundary."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not rho > 0:  # NaN too
        raise ValueError("rho must be > 0")
    eps = rho * delta
    if eps == 0.0:
        raise ValueError(f"rho = {rho!r}, delta = {delta!r}: rho*delta underflows to 0")
    if eps >= 1.0:
        return math.inf
    m_sharp = minimax_soft_threshold(eps).m_sharp
    if m_sharp >= delta:
        return math.inf
    return m_sharp / (1.0 - m_sharp / delta)


def parametric_boundary(alpha: float) -> tuple[float, float]:
    """The phase boundary point reached by threshold multiplier ``alpha``.

    delta = 2 phi(a) / (a + 2(phi(a) - a Phi(-a))),
    rho   = 1 - a Phi(-a) / phi(a); alpha = 0 maps to (1, 1).
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    density = phi(alpha)
    if density == 0.0:  # far tail: both coordinates vanish
        return 0.0, 0.0
    gap = density - alpha * Phi(-alpha)
    delta = 2.0 * density / (alpha + 2.0 * gap)
    rho = 1.0 - alpha * Phi(-alpha) / density
    return float(delta), float(rho)


def boundary_alpha(delta: float) -> float:
    """Threshold multiplier whose boundary point sits at undersampling ``delta``.

    This is the tuning that achieves exact noiseless recovery up to
    rho_c(delta); the boundary delta(alpha) is strictly decreasing, so
    bisection applies.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if delta == 1.0:
        return 0.0
    return _brentq(lambda a: parametric_boundary(a)[0] - delta, 0.0, 40.0, 1e-12)
