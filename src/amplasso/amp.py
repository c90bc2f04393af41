"""First-order iterative solvers for l1-regularized least squares.

The main iteration thresholds the pseudo-data ``x + A'r`` and corrects the
residual with the memory term ``b * r_prev`` where ``b = ||x||_0 / m``;
that correction is what keeps the effective noise Gaussian and makes the
scalar state evolution exact in the high-dimensional limit.  Iterative
soft thresholding (IST) is the same step with the memory term switched off,
run on a co-scaled system; it serves as a baseline and as a LASSO reference
solver.  One loop drives all three, and the harness protocols run through
it too: each is the loop plus an observer.  AMP and the reference at
``tol > 0`` also hand it a solve on a sign pattern, which it tries once the
pattern holds.  The observer is the one per-step record: a result holds
only the final state, and a caller that wants a trajectory passes
``observe`` to the solver.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import _checks
from .instances import Instance, _norm
from .scalar_risk import soft_threshold

_BLOWUP_FACTOR = 1e6
_EPS = float(np.finfo(float).eps)
_LANCZOS_BLOCK = 64  # Lanczos vectors per block of the basis; blocks are never copied
_LANCZOS_MAX_STEPS = 1000  # operator_norm raises if these end before its certificate
_NORM_TOL = 1e-6  # operator_norm's certificate: at most 1e-6 (relative) above sigma_1
# The LASSO reference at tol > 0 steps at c = rescale / sigma_hat, sigma_hat from
# the Lanczos loop stopped at this relative residual.  Its output is the
# minimizer, which does not depend on c; IST only needs c * sigma_1 < sqrt(2)
# (Combettes and Wajs, MMS 2005).  The top Ritz value never exceeds sigma_1^2, so
# sigma_hat <= sqrt(1.1) * sigma_1 and c * sigma_1 >= rescale / sqrt(1.1).  A
# residual this loose does not show that the Ritz value has reached the top of
# the spectrum, so sigma_hat can also fall short of sigma_1: on 400 C4-shaped
# 320 x 500 matrices (Gaussian and Rademacher) c * sigma_1 lay in [0.922, 0.983]
# at rescale 0.95, after 4-7 Lanczos steps where the certificate takes 28-44.
_REFERENCE_NORM_TOL = 0.1
# A loop given a sign-pattern solve compares x's signs every _SIGN_HOLD steps
# and tries a pattern once it has held over them (see _iterate).
_SIGN_HOLD = 2


class NumericalBlowupError(RuntimeError):
    """Raised when iterates leave the plausible range (diverging run)."""


@dataclass(frozen=True)
class ThresholdPolicy:
    """The threshold at residual scale ``tau_hat``: ``alpha * tau_hat`` (:meth:`rms`,
    the AMP rule) or one ``theta`` at every step (:meth:`fixed`, the LASSO
    reference's rule)."""

    alpha: float = 2.0
    fixed_theta: float | None = None

    def __post_init__(self):
        if self.fixed_theta is not None:
            _checks.nonnegative(self.fixed_theta, "theta")
        else:
            _checks.positive(self.alpha, "alpha")

    @classmethod
    def rms(cls, alpha: float) -> "ThresholdPolicy":
        return cls(alpha=alpha)

    @classmethod
    def fixed(cls, theta: float) -> "ThresholdPolicy":
        return cls(fixed_theta=float(theta))

    def theta(self, tau_hat: float) -> float:
        return self.alpha * tau_hat if self.fixed_theta is None else self.fixed_theta


def estimate_tau(r: np.ndarray) -> float:
    """Scatter estimate of the residual: its root mean square."""
    r = np.asarray(r, dtype=float)
    m = r.size
    if m < 1:
        raise ValueError("residual must be nonempty")
    return math.sqrt(np.dot(r, r) / m)


def onsager_coefficient(x: np.ndarray, m: int) -> float:
    """Memory coefficient b = ||x||_0 / m (exact nonzero count)."""
    return float(np.count_nonzero(x)) / m


@dataclass
class AmpState:
    """Iteration state: estimate, residual, and the step's threshold data.

    ``memory`` switches the Onsager term ``b * r`` on (AMP) or off (IST).
    ``u`` is the pseudo-data ``x_prev + A'r_prev`` that the step from the
    previous state thresholded into ``x``; it is ``None`` at t = 0.
    """

    x: np.ndarray
    r: np.ndarray
    t: int
    tau_hat: float
    theta: float
    b: float
    memory: bool = True
    u: np.ndarray | None = None


def initial_state(instance: Instance, policy: ThresholdPolicy) -> AmpState:
    """t=0 state: x = 0, r = y, b = 0, threshold from the raw data."""
    with np.errstate(over="ignore"):  # an overflow is the typed error below
        tau0 = estimate_tau(instance.y)
    if not math.isfinite(tau0):  # y @ y overflowed
        raise NumericalBlowupError(f"residual scale tau_hat = {tau0}")
    theta = policy.theta(tau0)
    if not math.isfinite(theta):  # alpha * tau_hat overflowed
        raise NumericalBlowupError(f"threshold theta = {theta} at tau_hat = {tau0:g}")
    return AmpState(x=np.zeros(instance.n), r=instance.y.copy(), t=0,
                    tau_hat=tau0, theta=theta, b=0.0)


def _check_blowup(x: np.ndarray, y: np.ndarray) -> None:
    norm2 = x @ x
    if norm2 <= _BLOWUP_FACTOR**2:
        return  # |x_i| <= ||x|| <= the smallest possible limit (NaN fails the test)
    peak = float(np.max(np.abs(x)))
    limit = _BLOWUP_FACTOR * max(1.0, float(np.max(np.abs(y))) if y.size else 1.0)
    if not math.isfinite(norm2) or not peak <= limit:  # the loop squares ||x||
        raise NumericalBlowupError(f"|x| reached {peak:.3e} (limit {limit:.3e})")


def amp_step(state: AmpState, instance: Instance, policy: ThresholdPolicy) -> AmpState:
    """Advance one iteration: threshold the pseudo-data, refresh the residual.

    Without memory the residual is plain ``y - A x`` and ``b`` stays 0.
    For IST, ``instance`` is the co-scaled system of :func:`ist_run`, whose
    ``a`` scales each vector it multiplies by c.  Each product is a fresh
    array that the step owns: ``A'r`` takes ``x`` in place to become the
    pseudo-data, kept in the new state as ``u``, and ``A x_new`` becomes
    the residual.
    """
    u = instance.a.T @ state.r
    u += state.x
    x_new = soft_threshold(u, state.theta)
    with np.errstate(over="ignore"):  # an overflow is one of the typed errors below
        _check_blowup(x_new, instance.y)
        r_new = instance.a @ x_new
        np.subtract(instance.y, r_new, out=r_new)
        b_new = 0.0
        if state.memory:
            b_new = onsager_coefficient(x_new, instance.m)
            r_new += b_new * state.r
        tau_new = estimate_tau(r_new)
    if not math.isfinite(tau_new):
        raise NumericalBlowupError(f"residual scale tau_hat = {tau_new}")
    t_new = state.t + 1
    return AmpState(
        x=x_new, r=r_new, t=t_new, tau_hat=tau_new,
        theta=policy.theta(tau_new), b=b_new, memory=state.memory, u=u,
    )


@dataclass
class SolverResult:
    """Output of a solver run: the final state and why the loop ended.

    Per-step data is not kept; a caller that wants it passes an ``observe``
    hook (see :func:`iterate`).  For IST, ``r_hat`` is the residual of the
    co-scaled system ``(c A, c y)`` with ``c = scale``.  ``stop`` says why
    the loop ended: ``"tol"``, ``"max_iter"``, or ``"cycle"`` when a step
    returned its own state exactly and the remaining steps were replayed.
    """

    x_hat: np.ndarray
    r_hat: np.ndarray
    converged: bool = False
    iterations: int = 0
    tau_hat: float = 0.0
    theta: float = 0.0
    b: float = 0.0
    scale: float = 1.0  # co-scaling factor applied to (A, y); 1 for AMP
    stop: str = "max_iter"


def iterate(instance: Instance, policy: ThresholdPolicy, max_iter: int, tol: float,
            memory: bool, observe: Callable[[AmpState], None] | None = None) -> SolverResult:
    """The iteration loop behind every solver and protocol: step until x settles.

    The loop reads ``a`` and ``y`` of the :class:`~amplasso.instances.Instance`,
    whose ``a`` may be an operator; only an observer that scores the risk
    reads ``x0``.

    ``memory`` selects AMP (on) or IST (off).  The loop stops once
    ||x_{t+1} - x_t|| / max(1, ||x_t||) drops below ``tol`` (never for
    ``tol <= 0``; NaN is an error) or after ``max_iter`` steps.
    ``observe``, if given, is called with the initial state and then with
    every new state in order of ``t``; it reads the states and must not
    write to their arrays, which the loop keeps using.

    A step reads only ``(x, r, theta)``, and every policy's ``theta``
    depends on ``r`` only.  So once a step returns the state it started
    from bit for bit (compared by ``tau_hat``, then by the bytes of x and
    r), every later step returns it too.  The loop then stops stepping:
    it calls ``observe`` with that state at each remaining ``t`` and
    returns it at ``t = max_iter`` with ``stop="cycle"``, a cycle of
    period 1.  Its ``u`` is the one every later step would form.  For
    ``tol > 0`` such a step moves x by 0 and stops on ``tol`` first.  Every output is the one
    full stepping gives, provided a step is a deterministic function of
    its state (fixed BLAS threading within a run; for a
    :class:`~amplasso.instances.ConditionedGaussian` ``a``, once it is
    drawn: before that, a repeated vector's product comes from the span
    and agrees to rounding).  Longer cycles are not looked for: a run that
    enters one steps to ``max_iter``.
    """
    return _iterate(instance, policy, max_iter, tol, memory, observe, None)


def _iterate(instance: Instance, policy: ThresholdPolicy, max_iter: int, tol: float,
             memory: bool, observe: Callable[[AmpState], None] | None,
             solve: Callable[[AmpState], AmpState | None] | None) -> SolverResult:
    """:func:`iterate`, finished on a sign pattern if ``solve`` is given.

    1. Every ``_SIGN_HOLD`` steps (at ``t % _SIGN_HOLD == 0``), while
       ``t + 1 < max_iter``, the loop compares x's signs with those it held.
       A pattern that held goes to ``solve`` unless it was the last one
       tried; ``solve`` returns the state of the next step at its solved
       point, or ``None`` if its solve is unusable.
    2. A trial passes only if one step from its point keeps the point's
       support and signs.  The point and that step are then the run's next
       two states, and the loop goes on from the step under ``tol`` with
       no ``solve`` (from a fixed point a step moves x by rounding only, so
       the run stops there).  A rejected trial leaves no state.

    Until a trial passes the states are plain stepping's, so a run that
    meets ``tol`` first ends where plain stepping does.  The observer sees
    every state once, in order of ``t``; the point's ``u`` is ``None``, as
    no step thresholded it.  A rejected trial's step does not count
    towards ``max_iter``.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    state = replace(initial_state(instance, policy), memory=memory)
    if observe is not None:
        observe(state)
    held = tried = None
    stop = "max_iter"
    while state.t < max_iter:
        new = amp_step(state, instance, policy)
        if observe is not None:
            observe(new)
        if _settled(new, state, tol):
            state, stop = new, "tol"
            break
        if (new.tau_hat == state.tau_hat and _same_bits(new.x, state.x)
                and _same_bits(new.r, state.r)):
            stop = "cycle"
            if observe is not None:
                for t in range(new.t + 1, max_iter + 1):
                    observe(replace(new, t=t))
            state = replace(new, t=max_iter)
            break
        state = new
        if solve is None or state.t % _SIGN_HOLD or state.t + 1 >= max_iter:
            continue
        signs = np.sign(state.x)
        if np.array_equal(signs, held) and not np.array_equal(signs, tried):
            tried, point = signs, solve(state)
            step = None if point is None else amp_step(point, instance, policy)
            if step is not None and np.array_equal(np.sign(step.x), np.sign(point.x)):
                if observe is not None:
                    observe(point)
                    observe(step)
                state, solve = step, None
                if _settled(step, point, tol):
                    stop = "tol"
                    break
        held = signs
    return _result(state, stop)


def _settled(new: AmpState, old: AmpState, tol: float) -> bool:
    """The loop's stop rule: the step from ``old`` to ``new`` moved x by less than
    ``tol`` relative to max(1, ||x||); never for ``tol <= 0``."""
    return tol > 0 and _norm(new.x - old.x) / max(1.0, _norm(old.x)) < tol


def _result(state: AmpState, stop: str) -> SolverResult:
    return SolverResult(x_hat=state.x, r_hat=state.r, converged=stop == "tol",
                        iterations=state.t, tau_hat=state.tau_hat,
                        theta=state.theta, b=state.b, stop=stop)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality: tells -0.0 from 0.0, which soft thresholding emits."""
    return a.tobytes() == b.tobytes()


def amp_run(instance: Instance, policy: ThresholdPolicy, max_iter: int = 200,
            tol: float = 1e-8,
            observe: Callable[[AmpState], None] | None = None) -> SolverResult:
    """Iterate until the relative change of x drops below ``tol``.

    The stopping metric is ||x_{t+1} - x_t|| / max(1, ||x_t||); adaptive
    thresholds chase a moving regularization level until tau_hat settles,
    so the optimality gap is checked separately via :func:`lasso_kkt_gap`.
    ``observe`` is handed to the loop, which calls it with every state
    from t = 0 on.

    For ``tol > 0`` on an explicit matrix (``a`` an ``np.ndarray``) the loop
    finishes the run on its sign pattern (see :func:`_iterate`).  A fixed point
    of AMP with support S and signs s is the LASSO minimizer at
    lambda = theta (1 - |S|/m) (Bayati and Montanari, IEEE TIT 2012), so it
    is the point x_LS - lambda w of the pattern's line (:func:`_pattern_solve`),
    with residual r = (y - A x) / (1 - |S|/m).  The rule
    theta = alpha ||r|| / sqrt(m) makes
    lambda = ||y - A_S x_LS|| / sqrt(m / alpha^2 - ||A_S w||^2), and a
    fixed theta gives lambda directly.  A run that passes a trial ends on
    that point to rounding, with a KKT gap at rounding level, however loose
    ``tol`` is, and ``iterations`` count the finish.  An operator ``a``
    and ``tol <= 0`` step plain AMP.
    """
    finish = tol > 0 and isinstance(instance.a, np.ndarray)  # NaN: the loop rejects it
    return _iterate(instance, policy, max_iter, tol, True, observe,
                    (lambda state: _amp_point(instance, policy, state)) if finish else None)


def operator_norm(a: np.ndarray) -> float:
    """Top singular value, rounded up, by Lanczos on the smaller Gram operator.

    Runs Lanczos with full reorthogonalization on ``A A'`` (m <= n) or
    ``A'A``, applied as two matrix-vector products.  After each of at most
    1000 steps, the top Ritz pair (theta, s) of the tridiagonal matrix
    (from LAPACK bisection and inverse iteration, O(j) work at step j)
    has residual norm rho = beta * |s_last| (plus the rounding error
    of the recurrence, (m + n) * eps * theta), and an eigenvalue of the
    Gram operator lies in [theta - rho, theta + rho].  The iteration
    stops once rho <= 1e-6 * theta and returns sqrt(theta + rho): with
    the top eigenvalue found, sqrt(theta) <= sigma_1 <= sqrt(theta + rho),
    so the result is at most 1e-6 (relative) above the top singular value and
    never below it, a safe bound for a unit step.  If the 1000 steps end
    before the stop rule holds (and before the Krylov space is
    exhausted), nothing is certified and :class:`numpy.linalg.LinAlgError`
    is raised, and :class:`ValueError` if the Gram products overflow
    (sigma_1 near 1e77 or above) or their squares underflow (sigma_1 near
    1e-77 or below, where the result could fall below sigma_1).  The start
    vector is a fixed draw (``default_rng(0)``), so the result is
    deterministic; 0.0 for a zero matrix.
    """
    return _lanczos_norm(a, _NORM_TOL)


def _lanczos_norm(a: np.ndarray, rel_tol: float) -> float:
    """:func:`operator_norm`'s Lanczos loop, stopped once rho <= ``rel_tol`` * theta.

    With the top eigenvalue found, the result lies in
    [sigma_1, sqrt(1 + rel_tol) * sigma_1].  The tridiagonal is kept in two
    preallocated arrays that LAPACK reads as slices.
    """
    from scipy.linalg.lapack import dstebz, dstein  # on use: keeps scipy out of import
    m, n = a.shape
    k = min(m, n)
    if m <= n:
        def gram(v):
            return a @ (a.T @ v)
    else:
        def gram(v):
            return a.T @ (a @ v)
    steps = min(_LANCZOS_MAX_STEPS, k)
    alphas, betas = np.empty(steps), np.empty(steps)
    q = np.random.default_rng(0).standard_normal(k)
    q /= _norm(q)
    blocks: list[np.ndarray] = []
    q_prev = None
    theta = rho = beta = 0.0
    underflow = False
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the ValueError below
        for j in range(steps):
            row = j % _LANCZOS_BLOCK
            if row == 0:
                blocks.append(np.empty((min(_LANCZOS_BLOCK, k - j), k)))
            blocks[-1][row] = q
            w = gram(q)
            alpha = float(q @ w)
            alphas[j] = alpha
            w -= alpha * q
            if q_prev is not None:
                w -= beta * q_prev
            done = blocks[:-1] + [blocks[-1][:row + 1]]
            for _ in range(2):  # twice is enough (Kahan-Parlett)
                for block in done:
                    w -= block.T @ (block @ w)
            beta = _norm(w)
            if not math.isfinite(beta):  # w @ w left the float range, at sigma_1 near 1e77
                raise ValueError("the Gram product overflows: sigma_1 is too large")
            betas[j] = beta
            theta, s_last = _top_ritz_pair(alphas[:j + 1], betas[:j], dstebz, dstein)
            theta = max(theta, 0.0)
            rho = beta * abs(s_last) + (m + n) * _EPS * theta
            # w @ w below the normal floats (beta = 0 included): w / beta is no unit vector
            underflow = beta * beta < sys.float_info.min
            if rho <= rel_tol * theta or underflow:
                break
            q_prev, q = q, w / beta
        else:
            if _LANCZOS_MAX_STEPS < k:  # stopped early: theta may not be the top eigenvalue yet
                raise np.linalg.LinAlgError("Lanczos did not certify the operator norm "
                                            f"in {_LANCZOS_MAX_STEPS} steps")
    # from sigma_1 near 1e-77 down: the loop stopped on an underflow before its
    # certificate held, or the Gram products are that small (a nonzero matrix's
    # can round to 0 whole, which no beta shows)
    if (((underflow and rho > rel_tol * theta) or theta * theta < sys.float_info.min)
            and a.any()):
        raise ValueError("the Gram product underflows: sigma_1 is too small")
    return math.sqrt(theta + rho)


def _top_ritz_pair(d: np.ndarray, e: np.ndarray, dstebz, dstein) -> tuple[float, float]:
    """Top eigenvalue of a symmetric tridiagonal and its eigenvector's last entry.

    ``d`` is the diagonal and ``e`` the off-diagonal.  LAPACK bisection
    (``dstebz``) finds that one eigenvalue and inverse iteration (``dstein``)
    its vector, in O(j) work for a j x j matrix; a nonzero ``info`` from
    either raises :class:`numpy.linalg.LinAlgError`.
    """
    j = d.size
    if j == 1:
        return float(d[0]), 1.0
    # dstein's vector goes wrong from entries near 1e145, so larger ones are
    # scaled below 2^400 by a power of two: exact, and no smaller call moves
    shift = max(0, math.frexp(max(d.max(), e.max()))[1] - 400)
    if shift:
        d, e = np.ldexp(d, -shift), np.ldexp(e, -shift)
    _, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 0.0, j, j, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz failed on the Lanczos tridiagonal (info={info})")
    z, info = dstein(d, e, w[:1], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein failed on the Lanczos tridiagonal (info={info})")
    return math.ldexp(float(w[0]), shift), float(z[-1, 0])


class _ScaledMatrix:
    """``c A`` as a step applies it, ``A (c v)``, without a scaled copy of ``A``.

    The form fixes the rounding of every IST value: scaling the product
    instead, ``c (A v)``, moves their last bits.  It is not chosen for
    exact fixed points: of 40 LASSO references at ``tol=0`` (C4's
    composition at n = 500, Gaussian and Rademacher, seeds 0-19), 7 reached
    one within 10 000 steps with ``A (c v)``, 14 with ``c (A v)`` and 9
    with a scaled copy.
    """

    __slots__ = ("_a", "_c", "T", "shape")

    def __init__(self, a: np.ndarray, c: float, transpose: "_ScaledMatrix | None" = None):
        # the transpose is built once, as every step reads it; it holds no
        # link back, since a reference cycle would keep A alive until a full GC
        self._a, self._c, self.T, self.shape = a, c, transpose, a.shape

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self._a @ (self._c * v)


def _rescaled(instance: Instance, rescale_opnorm: float,
              norm_tol: float = _NORM_TOL) -> tuple[Instance, float]:
    """The system (c A, c y) whose top singular value is ``rescale_opnorm``, and c.

    c is ``rescale_opnorm`` over the Lanczos bound on sigma_1 at relative
    residual ``norm_tol``: :func:`operator_norm`'s certificate by default, and
    a looser bound for the LASSO reference (see ``_REFERENCE_NORM_TOL``).
    ``A`` is shared, not copied, and ``x0`` is the instance's own.
    """
    _checks.within(rescale_opnorm, "rescale_opnorm", "(0, 1]")
    # the certificate goes through operator_norm by name, which perfbench traces
    norm = (operator_norm(instance.a) if norm_tol == _NORM_TOL
            else _lanczos_norm(instance.a, norm_tol))
    if norm == 0.0:
        raise ValueError("matrix has zero operator norm")
    c = rescale_opnorm / norm
    a = _ScaledMatrix(instance.a, c, _ScaledMatrix(instance.a.T, c))
    return Instance(a=a, x0=instance.x0, y=c * instance.y), c


def ist_run(instance: Instance, policy: ThresholdPolicy, rescale_opnorm: float = 0.95,
            max_iter: int = 200, tol: float = 1e-8,
            observe: Callable[[AmpState], None] | None = None) -> SolverResult:
    """Same iteration without the memory term: r = y - A x.

    The matrix (and data) are co-scaled so the top singular value equals
    ``rescale_opnorm`` -- without that the unit-step iteration diverges
    (``iterate(instance, policy, max_iter, tol, False)`` is IST on the raw
    matrix).  The step scales the vectors it multiplies by c,
    ``x + A'(c r)`` and ``c y - A (c x)``, so ``A`` is never copied.
    ``observe`` is handed to :func:`iterate` and sees the states of the
    co-scaled system, whose ``x`` estimates the unscaled ground truth
    ``instance.x0``.
    """
    scaled, c = _rescaled(instance, rescale_opnorm)
    result = iterate(scaled, policy, max_iter, tol, False, observe)
    result.scale = c
    return result


def ist_solve_lasso(instance: Instance, lam: float, rescale_opnorm: float = 0.95,
                    max_iter: int = 10000, tol: float = 1e-15,
                    observe: Callable[[AmpState], None] | None = None) -> SolverResult:
    """Solve the LASSO at regularization ``lam`` by plain thresholded descent.

    Runs IST at the fixed threshold ``lam * c**2`` on the co-scaled problem,
    whose fixed point is exactly the stationary point of
    ``0.5*||y - A x||^2 + lam*||x||_1`` on the original data; its fixed
    point does not involve the memory term, so it serves as the reference.
    ``observe``, if given, is handed to the loop and sees the states of the
    co-scaled system; without it the reference records nothing.
    The result is an IST state of the co-scaled system.

    ``tol`` has two regimes.  For ``tol <= 0`` the reference steps IST
    exactly: ``max_iter`` steps are reported, and the loop stops stepping
    only once IST reaches an exact fixed point, which a run that ends in a
    cycle of a longer period never does.  For ``tol > 0`` (the default
    ``tol=1e-15`` stops once the loop's relative change of x is
    rounding-level jitter) the loop finishes the reference on an explicit
    matrix on a sign pattern (see :func:`_iterate`); on an operator ``A``, whose
    columns cannot be taken, it steps plain IST to ``tol``.  IST converges
    linearly (Daubechies, Defrise and De Mol, CPAM 2004) and finds the
    solution's support and signs in finitely many steps (Hale, Yin and
    Zhang, SIAM J. Optim. 2008), whatever ``tol``; the steps after that
    only solve a linear system on the support, slowly.  The minimizer does
    not depend on c either, so for ``tol > 0`` c comes from a Lanczos bound
    on sigma_1 to 10% (``_REFERENCE_NORM_TOL``), not from
    :func:`operator_norm`'s 1e-6 certificate, which ``tol <= 0`` keeps.

    The trial's point is x_LS - lam w on the pattern (support S, signs s)
    of :func:`_pattern_solve`, where the gradient ``A'(y - A x)`` is lam s
    on S, so an IST step keeps x there; off S a step keeps a coordinate at
    0 iff its gradient is at most lam.  So the checking step keeps the
    point's support and signs iff the point meets the LASSO's optimality
    conditions, up to rounding.  A point whose signs are not s is searched
    for on the pattern's faces first (:func:`_reference_point`).  Until a
    trial passes the states are plain IST's, so a run whose relative
    change of x drops below ``tol`` first ends where plain IST to ``tol``
    does; one that passes a trial ends on the minimizer to rounding,
    however loose ``tol`` is.
    """
    _checks.positive(lam, "lam")
    scaled, c = _rescaled(instance, rescale_opnorm,
                          _REFERENCE_NORM_TOL if tol > 0 else _NORM_TOL)
    policy = ThresholdPolicy.fixed(lam * c * c)
    finish = tol > 0 and isinstance(instance.a, np.ndarray)  # NaN: the loop rejects it
    result = _iterate(scaled, policy, max_iter, tol, False, observe,
                      (lambda state: _reference_point(instance, lam, scaled, policy, state))
                      if finish else None)
    result.scale = c
    return result


def _pattern_solve(instance: Instance, x: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """The LASSO's line of stationary points on the sign pattern of ``x``.

    With S the support of ``x``, s its signs and G = A_S'A_S, one solve
    G [x_LS, w] = [A_S'y, s] gives ``(S, s, x_LS, w)``: for each lambda,
    x_S = x_LS - lambda w with x = 0 off S makes the gradient
    ``A'(y - A x)`` equal lambda s on S (the homotopy of Osborne, Presnell
    and Turlach, IMA J. Numer. Anal. 2000).  If x_S has signs s, it
    minimizes the LASSO at lambda over vectors supported on S.  ``None``
    for |S| >= m, a singular G or a solve that is not finite.
    """
    support = np.flatnonzero(x)
    if support.size >= instance.m:
        return None
    cols = instance.a[:, support]
    signs = np.sign(x[support])
    try:
        solved = np.linalg.solve(cols.T @ cols, np.column_stack((cols.T @ instance.y, signs)))
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(solved).all():
        return None
    return support, signs, *solved.T  # x_LS and w


def _reference_point(instance: Instance, lam: float, scaled: Instance,
                     policy: ThresholdPolicy, state: AmpState) -> AmpState | None:
    """The LASSO's stationary point on a face of IST's sign pattern, as the
    co-scaled state of the next step, or ``None`` if a solve is unusable.

    The point x_LS - lam w of :func:`_pattern_solve` on the pattern of
    ``state.x``; while its signs are not its pattern's, x moves to the
    first sign change on the segment from x to it (that coordinate set to
    exactly 0) and the solve is made again on the smaller pattern, the
    subspace step of FPC_AS (Wen, Yin, Goldfarb and Zhang, SIAM J. Sci.
    Comput. 2010).  Each move stays on the closed orthant of x's signs,
    where the LASSO objective is the convex quadratic the solve minimizes,
    so it never raises the objective.  The moves are not states of the
    run; each drops a coordinate, so at most |S| solves are made.
    """
    x = state.x
    while (pattern := _pattern_solve(instance, x)) is not None:
        support, signs, x_ls, w = pattern
        z, xs = x_ls - lam * w, x[support]
        flipped = np.flatnonzero(np.sign(z) != signs)
        if flipped.size:
            # xs_i + tau (z_i - xs_i) reaches 0 at tau_i = xs_i / (xs_i - z_i), in (0, 1]
            taus = xs[flipped] / (xs[flipped] - z[flipped])
            first = np.argmin(taus)
            z = xs + taus[first] * (z - xs)
            z[flipped[first]] = 0.0
            z[np.sign(z) != signs] = 0.0  # entries that rounding took past 0
        x = np.zeros(instance.n)
        x[support] = z
        if not flipped.size:
            return _state_at(scaled, policy, x, state.t + 1)
    return None


def _amp_point(instance: Instance, policy: ThresholdPolicy, state: AmpState) -> AmpState | None:
    """AMP's fixed point on the pattern of ``state.x`` in closed form (see
    :func:`amp_run`), as the state of the next step.

    ``None`` when the solve is unusable, when m / alpha^2 <= ||A_S w||^2
    (no lambda reaches the rule) or when x_S's signs are not the pattern's.
    """
    pattern = _pattern_solve(instance, state.x)
    if pattern is None:
        return None
    support, signs, x_ls, w = pattern
    if policy.fixed_theta is None:
        cols = instance.a[:, support]
        aw = cols @ w
        room = instance.m / (policy.alpha * policy.alpha) - aw @ aw
        lam = _norm(instance.y - cols @ x_ls) / math.sqrt(room) if room > 0 else math.nan
    else:
        lam = policy.fixed_theta * (1.0 - support.size / instance.m)
    z = x_ls - lam * w
    if not np.array_equal(np.sign(z), signs):  # a NaN's sign is NaN: unequal
        return None
    x = np.zeros(instance.n)
    x[support] = z
    return _state_at(instance, policy, x, state.t + 1, memory=True)


def _state_at(instance: Instance, policy: ThresholdPolicy, x: np.ndarray, t: int,
              memory: bool = False) -> AmpState:
    """The state of step ``t`` at ``x``: residual ``y - A x`` as a step forms it,
    over 1 - b with AMP's memory (b = ||x||_0 / m), as at AMP's fixed point."""
    b = onsager_coefficient(x, instance.m) if memory else 0.0
    r = instance.a @ x
    np.subtract(instance.y, r, out=r)
    r /= 1.0 - b
    tau = estimate_tau(r)
    return AmpState(x=x, r=r, t=t, tau_hat=tau, theta=policy.theta(tau), b=b,
                    memory=memory)


def lasso_objective(instance: Instance, x: np.ndarray, lam: float) -> float:
    """0.5*||y - A x||^2 + lam*||x||_1 on the original data."""
    resid = instance.y - instance.a @ x
    return 0.5 * float(np.dot(resid, resid)) + lam * float(np.sum(np.abs(x)))


def lasso_kkt_gap(instance: Instance, x_hat: np.ndarray, lam: float) -> float:
    """Stationarity residual of the LASSO at ``x_hat``; zero iff optimal.

    With g = A'(y - A x): on the zero set the gap is (|g| - lam)_+, on the
    support |g - lam*sign(x)|; the maximum over all coordinates is
    returned.  At lam = 0 that is max |g|, the least-squares residual.
    """
    _checks.nonnegative(lam, "lam")
    g = instance.a.T @ (instance.y - instance.a @ x_hat)
    zero = x_hat == 0
    gap = 0.0
    if np.any(zero):
        gap = max(gap, float(np.max(np.abs(g[zero])) - lam), 0.0)
    if np.any(~zero):
        gap = max(gap, float(np.max(np.abs(g[~zero] - lam * np.sign(x_hat[~zero])))))
    return gap


def effective_lambda(x_hat: np.ndarray, theta_star: float, m: int) -> float:
    """Regularization level certified by a fixed point: theta*(1 - ||x||_0/m).

    Rejects ||x||_0 >= m, where the map degenerates (lam <= 0 is
    meaningless).
    """
    _checks.nonnegative(theta_star, "theta_star")
    nnz = int(np.count_nonzero(x_hat))
    if nnz >= m:
        raise ValueError(f"||x||_0 = {nnz} >= m = {m}: effective lambda undefined")
    return theta_star * (1.0 - nnz / m)
