"""First-order iterative solvers for l1-regularized least squares.

The main iteration thresholds the pseudo-data ``x + A'r`` and corrects the
residual with the memory term ``b * r_prev`` where ``b = ||x||_0 / m``;
that correction is what keeps the effective noise Gaussian and makes the
scalar state evolution exact in the high-dimensional limit.  Iterative
soft thresholding (IST) is the same step with the memory term switched off,
run on a co-scaled system; it serves as a baseline and as a LASSO reference
solver.  One loop drives all three.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dstebz, dstein

from .gaussians import MEDIAN_ABS_GAUSS
from .instances import Instance
from .scalar_risk import soft_threshold

RMS = "rms"
MEDIAN = "median"
FIXED_SEQUENCE = "fixed"

_BLOWUP_FACTOR = 1e6
_EPS = float(np.finfo(float).eps)
_CYCLE_WINDOW = 8  # past states the loop holds to spot an exact repeat
_LANCZOS_BLOCK = 64  # Lanczos vectors per block of the basis; blocks are never copied


class NumericalBlowupError(RuntimeError):
    """Raised when iterates leave the plausible range (diverging run)."""


@dataclass(frozen=True)
class ThresholdPolicy:
    """How the per-iteration threshold is chosen.

    Adaptive modes scale a scatter estimate of the residual by ``alpha``;
    the fixed mode replays an explicit threshold sequence (its last value
    repeats once the sequence is exhausted).
    """

    alpha: float = 2.0
    estimator: str = RMS
    theta_sequence: tuple[float, ...] = ()

    def __post_init__(self):
        if self.estimator not in (RMS, MEDIAN, FIXED_SEQUENCE):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.estimator == FIXED_SEQUENCE:
            if len(self.theta_sequence) == 0:
                raise ValueError("fixed policy needs a nonempty theta sequence")
            if any(t < 0 for t in self.theta_sequence):
                raise ValueError("thresholds must be >= 0")
        elif self.alpha <= 0:
            raise ValueError("alpha must be > 0")

    @classmethod
    def rms(cls, alpha: float) -> "ThresholdPolicy":
        return cls(alpha=alpha, estimator=RMS)

    @classmethod
    def median(cls, alpha: float) -> "ThresholdPolicy":
        return cls(alpha=alpha, estimator=MEDIAN)

    @classmethod
    def fixed(cls, thetas) -> "ThresholdPolicy":
        return cls(alpha=1.0, estimator=FIXED_SEQUENCE,
                   theta_sequence=tuple(float(t) for t in thetas))

    def tau_mode(self) -> str:
        return MEDIAN if self.estimator == MEDIAN else RMS

    def theta(self, t: int, tau_hat: float) -> float:
        if self.estimator == FIXED_SEQUENCE:
            return self.theta_sequence[min(t, len(self.theta_sequence) - 1)]
        return self.alpha * tau_hat

    def stationary(self, t: int) -> bool:
        """Whether the threshold from step ``t`` on depends on the residual only."""
        return self.estimator != FIXED_SEQUENCE or t >= len(self.theta_sequence) - 1


def estimate_tau(r: np.ndarray, mode: str = RMS) -> float:
    """Scatter estimate of the residual: root mean square or scaled median.

    The median mode uses median(|r|)/Phi^{-1}(3/4); for even lengths the
    lower middle order statistic is taken (deterministic, no interpolation).
    """
    r = np.asarray(r, dtype=float)
    m = r.size
    if m < 1:
        raise ValueError("residual must be nonempty")
    if mode == RMS:
        return math.sqrt(np.dot(r, r) / m)
    if mode == MEDIAN:
        k = (m - 1) // 2
        return float(np.partition(np.abs(r), k)[k] / MEDIAN_ABS_GAUSS)
    raise ValueError(f"unknown estimator mode {mode!r}")


def onsager_coefficient(x: np.ndarray, m: int) -> float:
    """Memory coefficient b = ||x||_0 / m (exact nonzero count)."""
    return float(np.count_nonzero(x)) / m


@dataclass
class AmpState:
    """Iteration state: estimate, residual, and the step's threshold data.

    ``memory`` switches the Onsager term ``b * r`` on (AMP) or off (IST).
    """

    x: np.ndarray
    r: np.ndarray
    t: int
    tau_hat: float
    theta: float
    b: float
    memory: bool = True


def initial_state(instance: Instance, policy: ThresholdPolicy) -> AmpState:
    """t=0 state: x = 0, r = y, b = 0, threshold from the raw data."""
    tau0 = estimate_tau(instance.y, policy.tau_mode())
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
    pseudo-data, and ``A x_new`` becomes the residual.
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
    tau_new = estimate_tau(r_new, policy.tau_mode())
    t_new = state.t + 1
    return AmpState(
        x=x_new, r=r_new, t=t_new, tau_hat=tau_new,
        theta=policy.theta(t_new, tau_new), b=b_new, memory=state.memory,
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


def _iterate(instance: Instance, policy: ThresholdPolicy, max_iter: int, tol: float,
             memory: bool, observe: Callable[[AmpState], None] | None = None,
             scale: float = 1.0) -> SolverResult:
    """The iteration loop behind every solver: step until x settles.

    ``memory`` selects AMP (on) or IST (off); ``observe`` is called with
    the initial state and with every new state.

    A step reads only ``(x, r, theta)``, and in the policy's stationary
    tail ``theta`` depends only on ``r``.  So once a new state equals, bit
    for bit, one of the last ``_CYCLE_WINDOW`` states and that older state
    lies in the tail, the run repeats with that period to the end; every
    transition of the cycle has already passed the ``tol`` check.  The
    loop then stops stepping and replays the cycle (observer calls
    included) up to ``max_iter``: every output is the one full stepping
    gives, provided a step is a deterministic function of its state
    (fixed BLAS threading within a run).
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    state = replace(initial_state(instance, policy), memory=memory)
    if observe is not None:
        observe(state)
    held: deque[_Held] = deque(maxlen=_CYCLE_WINDOW)  # newest first
    entry = _Held(state)
    stop, period = "max_iter", 0
    norm_x = _norm(state.x)
    for _ in range(max_iter):
        new = amp_step(state, instance, policy)
        if observe is not None:
            observe(new)
        dx = _norm(new.x - state.x) / max(1.0, norm_x)
        held.appendleft(entry)
        state = new
        entry = _Held(state)
        if dx < tol:
            stop = "tol"
            break
        period = _cycle_period(entry, held, policy)
        if period:
            stop = "cycle"
            cycle = [held[i].state for i in range(period - 1, -1, -1)]  # cycle[0] == state
            start = state.t
            if observe is not None:
                for t in range(start + 1, max_iter + 1):
                    observe(replace(cycle[(t - start) % period], t=t))
            state = replace(cycle[(max_iter - start) % period], t=max_iter)
            break
        norm_x = _norm(state.x)
    return SolverResult(x_hat=state.x, r_hat=state.r, converged=stop == "tol",
                        iterations=state.t, tau_hat=state.tau_hat,
                        theta=state.theta, b=state.b,
                        engine="amp" if memory else "ist", scale=scale,
                        stop=stop, period=period)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm by the formula ``np.linalg.norm`` uses for a real vector."""
    return math.sqrt(v @ v)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality: tells -0.0 from 0.0, which soft thresholding emits."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


class _Held:
    """A state of the loop and the hash of its ``(x, r)`` bits, made on first use."""

    __slots__ = ("state", "_key")

    def __init__(self, state: AmpState):
        self.state = state
        self._key = None

    def key(self) -> int:
        if self._key is None:
            self._key = hash((self.state.x.tobytes(), self.state.r.tobytes()))
        return self._key


def _cycle_period(entry: _Held, held: deque, policy: ThresholdPolicy) -> int:
    """Steps back to a held state in the stationary tail that ``entry`` repeats, or 0.

    ``tau_hat`` and then the cached hashes screen the candidates, so the
    bits are compared in full only for a likely repeat.
    """
    state = entry.state
    for period, old in enumerate(held, start=1):
        if (old.state.tau_hat == state.tau_hat and old.key() == entry.key()
                and policy.stationary(old.state.t)
                and _same_bits(old.state.x, state.x)
                and _same_bits(old.state.r, state.r)):
            return period
    return 0


def _run_recorded(instance: Instance, policy: ThresholdPolicy, max_iter: int,
                  tol: float, memory: bool, scale: float = 1.0) -> SolverResult:
    """Run the loop with an observer that records a trajectory point per state."""
    trajectory: list[TrajectoryPoint] = []
    x0, n = instance.x0, instance.n

    def observe(state: AmpState) -> None:
        err = state.x - x0
        mse = float(np.add.reduce(err * err) / n)  # the bits of np.mean(err ** 2)
        trajectory.append(TrajectoryPoint(t=state.t, tau_hat=state.tau_hat,
                                          theta=state.theta, b=state.b, mse=mse))

    result = _iterate(instance, policy, max_iter, tol, memory, observe, scale)
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

    __slots__ = ("_a", "_c", "T")

    def __init__(self, a: np.ndarray, c: float, transpose: "_ScaledMatrix | None" = None):
        # the transpose is built once, as every step reads it; it holds no
        # link back, since a reference cycle would keep A alive until a full GC
        self._a, self._c, self.T = a, c, transpose

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self._a @ (self._c * v)


@dataclass(frozen=True)
class _CoScaled:
    """What the loop reads of the co-scaled system (c A, c y): A is shared, not copied."""

    a: _ScaledMatrix
    y: np.ndarray
    x0: np.ndarray
    m: int
    n: int


def _rescaled(instance: Instance,
              rescale_opnorm: float | None) -> tuple[Instance | _CoScaled, float]:
    """The system (c A, c y) whose top singular value is ``rescale_opnorm``, and c."""
    if rescale_opnorm is None:
        return instance, 1.0
    if not 0.0 < rescale_opnorm <= 1.0:
        raise ValueError("rescale_opnorm must lie in (0, 1]")
    norm = operator_norm(instance.a)
    if norm == 0.0:
        raise ValueError("matrix has zero operator norm")
    c = rescale_opnorm / norm
    a = _ScaledMatrix(instance.a, c, _ScaledMatrix(instance.a.T, c))
    scaled = _CoScaled(a=a, y=c * instance.y,
                       x0=instance.x0, m=instance.m, n=instance.n)
    return scaled, c


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
    return _run_recorded(scaled, policy, max_iter, tol, memory=False, scale=c)


def ist_solve_lasso(instance: Instance, lam: float, rescale_opnorm: float = 0.95,
                    max_iter: int = 10000, tol: float = 0.0,
                    trajectory: bool = False) -> SolverResult:
    """Solve the LASSO at regularization ``lam`` by plain thresholded descent.

    Runs IST at the fixed threshold ``lam * c**2`` on the co-scaled problem,
    whose fixed point is exactly the stationary point of
    ``0.5*||y - A x||^2 + lam*||x||_1`` on the original data; its fixed
    point does not involve the memory term, so it serves as the reference.
    With ``tol=0`` it reports ``max_iter`` steps, but the loop stops
    stepping once the iterate settles into an exact cycle (typically of
    period 1, 2 or 4) and replays it.  The trajectory, an MSE per step,
    is recorded only when asked for.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    scaled, c = _rescaled(instance, rescale_opnorm)
    run = _run_recorded if trajectory else _iterate
    return run(scaled, ThresholdPolicy.fixed([lam * c * c]), max_iter, tol,
               memory=False, scale=c)


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
