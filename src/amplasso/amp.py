"""First-order iterative solvers for l1-regularized least squares.

The main iteration thresholds the pseudo-data ``x + A'r`` and corrects the
residual with the memory term ``b * r_prev`` where ``b = ||x||_0 / m``;
that correction is what keeps the effective noise Gaussian and makes the
scalar state evolution exact in the high-dimensional limit.  Iterative
soft thresholding (IST) is the same step with the memory term switched off,
run on a co-scaled system; it serves as a baseline and as a LASSO reference
solver.  One loop, :func:`iterate`, drives all three, and the harness
protocols run through it too: each is the loop plus an observer.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dstebz, dstein

from .instances import Instance, _norm
from .scalar_risk import soft_threshold

RMS = "rms"
FIXED_SEQUENCE = "fixed"

_BLOWUP_FACTOR = 1e6
_EPS = float(np.finfo(float).eps)
_CYCLE_WINDOW = 8  # steps per checkpoint lap: the longest period the loop spots
_LANCZOS_BLOCK = 64  # Lanczos vectors per block of the basis; blocks are never copied


class NumericalBlowupError(RuntimeError):
    """Raised when iterates leave the plausible range (diverging run)."""


@dataclass(frozen=True)
class ThresholdPolicy:
    """How the per-iteration threshold is chosen.

    The RMS mode scales the residual's root mean square by ``alpha``; the
    fixed mode replays an explicit threshold sequence (its last value
    repeats once the sequence is exhausted).  NaN is rejected as out of
    range.
    """

    alpha: float = 2.0
    estimator: str = RMS
    theta_sequence: tuple[float, ...] = ()

    def __post_init__(self):
        if self.estimator not in (RMS, FIXED_SEQUENCE):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.estimator == FIXED_SEQUENCE:
            if len(self.theta_sequence) == 0:
                raise ValueError("fixed policy needs a nonempty theta sequence")
            if any(not t >= 0 for t in self.theta_sequence):
                raise ValueError("thresholds must be >= 0")
        elif not self.alpha > 0:
            raise ValueError("alpha must be > 0")

    @classmethod
    def rms(cls, alpha: float) -> "ThresholdPolicy":
        return cls(alpha=alpha, estimator=RMS)

    @classmethod
    def fixed(cls, thetas) -> "ThresholdPolicy":
        return cls(alpha=1.0, estimator=FIXED_SEQUENCE,
                   theta_sequence=tuple(float(t) for t in thetas))

    def theta(self, t: int, tau_hat: float) -> float:
        if self.estimator == FIXED_SEQUENCE:
            return self.theta_sequence[min(t, len(self.theta_sequence) - 1)]
        return self.alpha * tau_hat

    def stationary(self, t: int) -> bool:
        """Whether the threshold from step ``t`` on depends on the residual only."""
        return self.estimator != FIXED_SEQUENCE or t >= len(self.theta_sequence) - 1


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
    return AmpState(x=np.zeros(instance.n), r=instance.y.copy(), t=0,
                    tau_hat=tau0, theta=policy.theta(0, tau0), b=0.0)


def _check_blowup(x: np.ndarray, y: np.ndarray) -> None:
    if x @ x <= _BLOWUP_FACTOR**2:
        return  # |x_i| <= ||x|| <= the smallest possible limit (NaN fails the test)
    peak = float(np.max(np.abs(x)))
    limit = _BLOWUP_FACTOR * max(1.0, float(np.max(np.abs(y))) if y.size else 1.0)
    if not math.isfinite(peak) or peak > limit:
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
        theta=policy.theta(t_new, tau_new), b=b_new, memory=state.memory, u=u,
    )


@dataclass(frozen=True)
class TrajectoryPoint:
    """Per-iteration record emitted by the run drivers."""

    t: int
    tau_hat: float
    theta: float
    b: float
    mse: float


@dataclass
class SolverResult:
    """Output of a solver run: final vectors plus the full trajectory.

    For IST, ``r_hat`` is the residual of the co-scaled system ``(c A, c y)``
    with ``c = scale``.  ``stop`` says why the loop ended: ``"tol"``,
    ``"max_iter"``, or ``"cycle"`` when the state repeated exactly with
    period ``period`` (0 otherwise) and the remaining steps were replayed.
    """

    x_hat: np.ndarray
    r_hat: np.ndarray
    trajectory: list[TrajectoryPoint] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    tau_hat: float = 0.0
    theta: float = 0.0
    b: float = 0.0
    engine: str = "amp"
    scale: float = 1.0  # co-scaling factor applied to (A, y); 1 for AMP
    stop: str = "max_iter"
    period: int = 0


def iterate(instance: Instance, policy: ThresholdPolicy, max_iter: int, tol: float,
            memory: bool, observe: Callable[[AmpState], None] | None = None) -> SolverResult:
    """The iteration loop behind every solver and protocol: step until x settles.

    The loop reads ``a`` and ``y`` of the :class:`~amplasso.instances.Instance`
    (only recorded runs read ``x0``), whose ``a`` may be an operator.

    ``memory`` selects AMP (on) or IST (off).  The loop stops once
    ||x_{t+1} - x_t|| / max(1, ||x_t||) drops below ``tol`` (never for
    ``tol <= 0``) or after ``max_iter`` steps.  ``observe``, if given, is
    called with the initial state and then with every new state in order
    of ``t``; it reads the states and must not write to their arrays,
    which the loop keeps using.

    A step reads only ``(x, r, theta)``, and in the policy's stationary
    tail ``theta`` depends only on ``r``.  The loop keeps one checkpoint
    state, ``mark``, and the ``lap`` of states since it (a fixed-lap form
    of Brent's cycle finding, BIT 20, 1980).  Once a new state equals
    ``mark`` bit for bit and ``mark`` lies in the tail, the run repeats
    with period ``len(lap)`` to the end, and every transition of the cycle
    has already passed the ``tol`` check.  The loop then stops stepping
    and replays ``lap`` up to ``max_iter``, observer calls included; the
    predecessors of its states, and so their ``u``, lie in the cycle too.
    Every output is the one full stepping gives, provided a step is a
    deterministic function of its state (fixed BLAS threading within a
    run; for a :class:`~amplasso.instances.ConditionedGaussian` ``a``, once
    it is drawn: before that, a repeated vector's product comes from the
    span and agrees to rounding).
    After ``_CYCLE_WINDOW`` steps without a match the newest state
    becomes ``mark``, so marks sit at t = 0, 8, 16, ...: every period up
    to 8 is found, at most 7 steps after the state first repeats.  A run
    whose first repeat falls within those last steps before ``max_iter``
    reports ``stop="max_iter"`` and ``period=0``, with the same vectors.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    state = replace(initial_state(instance, policy), memory=memory)
    if observe is not None:
        observe(state)
    mark, lap = state, []
    stop, period = "max_iter", 0
    for _ in range(max_iter):
        new = amp_step(state, instance, policy)
        if observe is not None:
            observe(new)
        settled = tol > 0 and _norm(new.x - state.x) / max(1.0, _norm(state.x)) < tol
        state = new
        if settled:
            stop = "tol"
            break
        lap.append(state)
        if (state.tau_hat == mark.tau_hat and policy.stationary(mark.t)
                and _same_bits(state.x, mark.x) and _same_bits(state.r, mark.r)):
            stop, period = "cycle", len(lap)
            start = state.t
            if observe is not None:
                for t in range(start + 1, max_iter + 1):
                    observe(replace(lap[(t - start - 1) % period], t=t))
            state = replace(lap[(max_iter - start - 1) % period], t=max_iter)
            break
        if len(lap) == _CYCLE_WINDOW:
            mark, lap = state, []
    return SolverResult(x_hat=state.x, r_hat=state.r, converged=stop == "tol",
                        iterations=state.t, tau_hat=state.tau_hat,
                        theta=state.theta, b=state.b,
                        engine="amp" if memory else "ist", stop=stop, period=period)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality: tells -0.0 from 0.0, which soft thresholding emits."""
    return a.tobytes() == b.tobytes()


def _run_recorded(instance: Instance, policy: ThresholdPolicy, max_iter: int,
                  tol: float, memory: bool) -> SolverResult:
    """Run the loop with an observer that records a trajectory point per state."""
    trajectory: list[TrajectoryPoint] = []
    x0, n = instance.x0, instance.n

    def observe(state: AmpState) -> None:
        err = state.x - x0
        mse = float(np.add.reduce(err * err) / n)  # the bits of np.mean(err ** 2)
        trajectory.append(TrajectoryPoint(t=state.t, tau_hat=state.tau_hat,
                                          theta=state.theta, b=state.b, mse=mse))

    result = iterate(instance, policy, max_iter, tol, memory, observe)
    result.trajectory = trajectory
    return result


def amp_run(instance: Instance, policy: ThresholdPolicy, max_iter: int = 200,
            tol: float = 1e-8) -> SolverResult:
    """Iterate until the relative change of x drops below ``tol``.

    The stopping metric is ||x_{t+1} - x_t|| / max(1, ||x_t||); adaptive
    thresholds chase a moving regularization level until tau_hat settles,
    so the optimality gap is checked separately via :func:`lasso_kkt_gap`.
    """
    return _run_recorded(instance, policy, max_iter, tol, memory=True)


def operator_norm(a: np.ndarray, rel_tol: float = 1e-6, max_iter: int = 1000,
                  seed: int = 0) -> float:
    """Top singular value, rounded up, by Lanczos on the smaller Gram operator.

    Runs Lanczos with full reorthogonalization on ``A A'`` (m <= n) or
    ``A'A``, applied as two matrix-vector products.  After each of at most
    ``max_iter`` steps, the top Ritz pair (theta, s) of the tridiagonal
    matrix (from LAPACK bisection and inverse iteration, O(j) work at step
    j) has residual norm rho = beta * |s_last| (plus the rounding error
    of the recurrence, (m + n) * eps * theta), and an eigenvalue of the
    Gram operator lies in [theta - rho, theta + rho].  The iteration
    stops once rho <= rel_tol * theta and returns sqrt(theta + rho): with
    the top eigenvalue found, sqrt(theta) <= sigma_1 <= sqrt(theta + rho),
    so the result is at most ``rel_tol`` above the top singular value and
    never below it, a safe bound for a unit step.  If ``max_iter`` steps
    end before the stop rule holds (and before the Krylov space is
    exhausted), nothing is certified and :class:`numpy.linalg.LinAlgError`
    is raised.  Deterministic for a fixed seed; 0.0 for a zero matrix.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    m, n = a.shape
    k = min(m, n)
    if m <= n:
        def gram(v):
            return a @ (a.T @ v)
    else:
        def gram(v):
            return a.T @ (a @ v)
    q = np.random.default_rng(seed).standard_normal(k)
    q /= np.linalg.norm(q)
    blocks: list[np.ndarray] = []
    q_prev = None
    alphas: list[float] = []
    betas: list[float] = []
    theta = rho = 0.0
    for j in range(min(max_iter, k)):
        row = j % _LANCZOS_BLOCK
        if row == 0:
            blocks.append(np.empty((min(_LANCZOS_BLOCK, k - j), k)))
        blocks[-1][row] = q
        w = gram(q)
        alphas.append(float(q @ w))
        w -= alphas[-1] * q
        if q_prev is not None:
            w -= betas[-1] * q_prev
        done = blocks[:-1] + [blocks[-1][:row + 1]]
        for _ in range(2):  # twice is enough (Kahan-Parlett)
            for block in done:
                w -= block.T @ (block @ w)
        betas.append(float(np.linalg.norm(w)))
        theta, s_last = _top_ritz_pair(alphas, betas[:-1])
        theta = max(theta, 0.0)
        rho = betas[-1] * abs(s_last) + (m + n) * _EPS * theta
        if rho <= rel_tol * theta or betas[-1] == 0.0:
            break
        q_prev, q = q, w / betas[-1]
    else:
        if max_iter < k:  # stopped early: theta may not be the top eigenvalue yet
            raise np.linalg.LinAlgError(
                f"Lanczos did not certify the operator norm in {max_iter} steps")
    return math.sqrt(theta + rho)


def _top_ritz_pair(d: list[float], e: list[float]) -> tuple[float, float]:
    """Top eigenvalue of a symmetric tridiagonal and its eigenvector's last entry.

    ``d`` is the diagonal and ``e`` the off-diagonal.  LAPACK bisection
    (``dstebz``) finds that one eigenvalue and inverse iteration (``dstein``)
    its vector, in O(j) work for a j x j matrix; a nonzero ``info`` from
    either raises :class:`numpy.linalg.LinAlgError`.
    """
    j = len(d)
    if j == 1:
        return d[0], 1.0
    d, e = np.array(d), np.array(e)
    _, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 0.0, j, j, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz failed on the Lanczos tridiagonal (info={info})")
    z, info = dstein(d, e, w[:1], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein failed on the Lanczos tridiagonal (info={info})")
    return float(w[0]), float(z[-1, 0])


class _ScaledMatrix:
    """``c A`` as a step applies it, ``A (c v)``, without a scaled copy of ``A``.

    Scaling the vector rather than the product keeps the rounding of the
    scaled iteration close to that of a scaled copy, which matters to cycle
    replay: of 300 of C4's 10 000-step LASSO references, ``c (A v)`` left
    55 without an exact cycle, ``A (c v)`` 18 and a scaled copy 28.
    """

    __slots__ = ("_a", "_c", "T", "shape")

    def __init__(self, a: np.ndarray, c: float, transpose: "_ScaledMatrix | None" = None):
        # the transpose is built once, as every step reads it; it holds no
        # link back, since a reference cycle would keep A alive until a full GC
        self._a, self._c, self.T, self.shape = a, c, transpose, a.shape

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self._a @ (self._c * v)


def _rescaled(instance: Instance, rescale_opnorm: float | None) -> tuple[Instance, float]:
    """The system (c A, c y) whose top singular value is ``rescale_opnorm``, and c.

    ``A`` is shared, not copied, and ``x0`` is the instance's own.
    """
    if rescale_opnorm is None:
        return instance, 1.0
    if not 0.0 < rescale_opnorm <= 1.0:
        raise ValueError("rescale_opnorm must lie in (0, 1]")
    norm = operator_norm(instance.a)
    if norm == 0.0:
        raise ValueError("matrix has zero operator norm")
    c = rescale_opnorm / norm
    a = _ScaledMatrix(instance.a, c, _ScaledMatrix(instance.a.T, c))
    return Instance(a=a, x0=instance.x0, y=c * instance.y), c


def ist_run(instance: Instance, policy: ThresholdPolicy, rescale_opnorm: float | None = 0.95,
            max_iter: int = 200, tol: float = 1e-8) -> SolverResult:
    """Same iteration without the memory term: r = y - A x.

    The matrix (and data) are co-scaled so the top singular value equals
    ``rescale_opnorm`` -- without that the unit-step iteration diverges.
    The step scales the vectors it multiplies by c, ``x + A'(c r)`` and
    ``c y - A (c x)``, so ``A`` is never copied.
    Pass ``None`` to run on the raw matrix (divergence then raises
    :class:`NumericalBlowupError`).  MSE in the trajectory is measured
    against the unscaled ground truth, which co-scaling preserves.
    """
    scaled, c = _rescaled(instance, rescale_opnorm)
    result = _run_recorded(scaled, policy, max_iter, tol, memory=False)
    result.scale = c
    return result


def ist_solve_lasso(instance: Instance, lam: float, rescale_opnorm: float = 0.95,
                    max_iter: int = 10000, tol: float = 1e-15,
                    trajectory: bool = False) -> SolverResult:
    """Solve the LASSO at regularization ``lam`` by plain thresholded descent.

    Runs IST at the fixed threshold ``lam * c**2`` on the co-scaled problem,
    whose fixed point is exactly the stationary point of
    ``0.5*||y - A x||^2 + lam*||x||_1`` on the original data; its fixed
    point does not involve the memory term, so it serves as the reference.
    The trajectory, an MSE per step, is recorded only when asked for.

    IST converges linearly (Daubechies, Defrise and De Mol, CPAM 2004), and
    the default ``tol=1e-15`` on the loop's relative change of x stops it
    once the steps are rounding-level jitter.  Measured at C4's composition
    (BENCH model, lambda_eff of AMP's fixed point at lambda = 1): on 60
    Gaussian n = 500 instances (seeds 0-59), 20 Rademacher n = 500 (seeds
    0-19), 5 Gaussian and 4 Rademacher n = 2000, every run stops on ``tol``
    by step 479 (median about 380), where ``tol=0`` ran to an exact cycle
    or to all 10 000 steps.  The objective moved by at most 4.1e-16
    relative and x by at most 2.4e-14, and each set of references took
    3-23x less time on a 2-core host (the five Gaussian n = 2000: 2.4 s
    against 55.7 s).  A stop that came too early could only make a
    certificate's objective gap larger, never hide one.

    ``tol=0`` keeps the older meaning: ``max_iter`` steps are reported, but
    the loop stops stepping once the iterate settles into an exact cycle
    (typically of period 1, 2 or 4) and replays it.  Cycle replay and
    ``max_iter`` remain the fallback for a run whose jitter stays above a
    positive ``tol``.
    """
    if not lam > 0:  # NaN too
        raise ValueError("lam must be > 0")
    scaled, c = _rescaled(instance, rescale_opnorm)
    run = _run_recorded if trajectory else iterate
    result = run(scaled, ThresholdPolicy.fixed([lam * c * c]), max_iter, tol, memory=False)
    result.scale = c
    return result


def lasso_objective(instance: Instance, x: np.ndarray, lam: float) -> float:
    """0.5*||y - A x||^2 + lam*||x||_1 on the original data."""
    resid = instance.y - instance.a @ x
    return 0.5 * float(np.dot(resid, resid)) + lam * float(np.sum(np.abs(x)))


def lasso_kkt_gap(instance: Instance, x_hat: np.ndarray, lam: float) -> float:
    """Stationarity residual of the LASSO at ``x_hat``; zero iff optimal.

    With g = A'(y - A x): on the zero set the gap is (|g| - lam)_+, on the
    support |g - lam*sign(x)|; the maximum over all coordinates is
    returned.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
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
    if theta_star < 0:
        raise ValueError("theta_star must be >= 0")
    nnz = int(np.count_nonzero(x_hat))
    if nnz >= m:
        raise ValueError(f"||x||_0 = {nnz} >= m = {m}: effective lambda undefined")
    return theta_star * (1.0 - nnz / m)
