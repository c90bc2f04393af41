"""Problem-instance generation.

An :class:`Instance` is one realization of ``y = A x0 + w``: the matrix
and data a solver reads, and the signal ``x0`` that scores its risk.
Generators produce Gaussian or Rademacher sensing matrices with i.i.d.
entries of variance ``1/m``; a planted variant places an exact number of
+-1 spikes for the benchmark protocols.  Arrays are frozen read-only, so
no solver run can change the instance it reads.  A lazy instance holds a
Gaussian ``A`` as a :class:`ConditionedGaussian`, which draws only the
products a run makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .priors import DiscretePrior, sample_with_rng

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
ENSEMBLES = (GAUSSIAN, RADEMACHER)

# Rows per block of a Rademacher draw: its int64 temporary is this many rows.
_RADEMACHER_BLOCK_ROWS = 16
# Rows (columns) per block when a conditioned Gaussian matrix is written
# out: each block's temporaries are this many rows (columns), not a second
# (m, n) matrix or a copy of a span.
_CONDITIONED_BLOCK_ROWS = 16
_CONDITIONED_BLOCK_COLUMNS = 256


@dataclass(frozen=True)
class ModelParams:
    """Asymptotic model: undersampling ratio, noise variance, signal prior."""

    delta: float
    sigma2: float
    prior: DiscretePrior

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be > 0")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")


@dataclass(frozen=True)
class Instance:
    """One problem realization ``y = A x0 + w``, with ``m = y.size`` and ``n = x0.size``.

    ``a`` is an (m, n) array or an operator with ``shape``, ``a @ v`` and
    ``a.T @ z`` (a :class:`ConditionedGaussian`, or IST's co-scaled matrix).
    """

    a: np.ndarray | ConditionedGaussian
    x0: np.ndarray
    y: np.ndarray

    @property
    def m(self) -> int:
        return self.y.size

    @property
    def n(self) -> int:
        return self.x0.size

    def __post_init__(self):
        if self.x0.ndim != 1 or self.y.ndim != 1:
            raise ValueError("x0 and y must be vectors")
        if self.a.shape != (self.m, self.n):
            raise ValueError("matrix shape does not match (y.size, x0.size)")
        for name in ("a", "x0", "y"):
            arr = getattr(self, name)
            if not isinstance(arr, np.ndarray):
                continue
            # min and max propagate NaN and see +-inf, without an (m, n) temporary
            if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                raise ValueError(f"instance {name} has non-finite entries")
            arr.setflags(write=False)


def measurement_count(delta: float, n: int) -> int:
    """m = round(delta * n), ties resolved to even (banker's rounding)."""
    m = round(delta * n)
    if m < 1:
        raise ValueError(f"delta={delta} with n={n} gives m={m} < 1")
    return m


def draw_matrix(rng: np.random.Generator, m: int, n: int, ensemble: str,
                out: np.ndarray | None = None) -> np.ndarray:
    """An (m, n) matrix of the ensemble with i.i.d. entries of variance 1/m.

    With ``out`` (a C-contiguous float64 (m, n) array) the draw is written
    into it and ``out`` is returned.  Either way the values, and the state
    the generator is left in, are those of one fresh draw.
    """
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    if out is not None and (out.shape != (m, n) or out.dtype != np.float64
                            or not out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous float64 array of shape (m, n)")
    scale = np.sqrt(m)
    a = np.empty((m, n)) if out is None else out
    if ensemble == GAUSSIAN:
        rng.standard_normal(out=a)
        a /= scale
        return a
    # Row blocks consume the generator exactly as one (m, n) draw does, and
    # the int64 temporary stays a block, not a second matrix.
    for start in range(0, m, _RADEMACHER_BLOCK_ROWS):
        block = a[start:start + _RADEMACHER_BLOCK_ROWS]
        block[...] = rng.integers(0, 2, size=block.shape)
        block *= 2.0
        block -= 1.0
        block /= scale
    return a


def _draw(n: int, delta: float, sigma2: float, seed: int, first) -> Instance:
    """The instance every generator makes: the n check, m and the seeded
    generator, then ``first(rng, m) -> (a, x0)``, the noise ``w``, and
    ``y = a @ x0 + w``, drawn in that order."""
    if n < 2:
        raise ValueError("n must be >= 2")
    m = measurement_count(delta, n)
    rng = np.random.default_rng(seed)
    a, x0 = first(rng, m)
    w = np.sqrt(sigma2) * rng.standard_normal(m) if sigma2 > 0 else np.zeros(m)
    return Instance(a=a, x0=x0, y=a @ x0 + w)


def gen_instance(n: int, params: ModelParams, seed: int,
                 ensemble: str = GAUSSIAN) -> Instance:
    """Draw matrix, signal, and noise from one seeded generator.

    Draw order is fixed (matrix, then signal, then noise) so instances are
    bit-reproducible given (n, params, seed, ensemble).
    """
    return _draw(n, params.delta, params.sigma2, seed, lambda rng, m: (
        draw_matrix(rng, m, n, ensemble), sample_with_rng(params.prior, n, rng)))


def conditioning_capacity(m: int, n: int) -> int:
    """Directions per side a :class:`ConditionedGaussian` keeps before it draws ``A``.

    A product pair (``A v`` and ``A'z``) after k others costs about
    16 (m + n) k flops: two projection passes and the new image on each
    side.  With ``A`` drawn, the pair costs 4 m n.  The two meet at
    k = m n / (4 (m + n)).
    """
    return max(1, m * n // (4 * (m + n)))


class _Span:
    """Orthonormal directions (rows of ``basis``) and their known images under a map."""

    def __init__(self, dim: int, image_dim: int, capacity: int):
        self.basis = np.empty((capacity, dim))
        self.image = np.empty((capacity, image_dim))
        self.count = 0


class ConditionedGaussian:
    """An i.i.d. N(0, 1/m) matrix ``A`` drawn product by product: ``A @ v``, ``A.T @ z``.

    It holds orthonormal bases ``Q_V`` (of the vectors ``A`` has been
    applied to) and ``Q_Z`` (of those ``A'`` has been applied to) together
    with the known products ``G = A Q_V`` and ``H = A'Q_Z``.  Given these,
    ``A = G Q_V' + Q_Z H' P_V + P_Z B P_V`` with ``P_V``, ``P_Z`` the
    projections orthogonal to the bases and ``B`` a fresh Gaussian (the
    conditioning lemma behind the proof of state evolution: Bolthausen,
    Commun. Math. Phys. 2014; Bayati and Montanari, IEEE Trans. Inf. Theory
    2011, Lemma 10).  So a sequence of products has exactly the joint law
    it has under one drawn ``A``; a product after k others costs
    O((m + n) k) work and m or n normals, taken from ``rng``.

    Each product adds at most one direction to its side, which holds
    ``capacity`` of them (at most its dimension).  A product on a full
    side first draws ``A`` by the formula above, conditioned on every
    product made so far, and from then on every product multiplies by
    that matrix.  :meth:`clear` forgets everything: the next products see
    a fresh matrix.
    """

    __slots__ = ("rng", "shape", "_capacity", "_v", "_z", "_dense")

    def __init__(self, m: int, n: int, rng: np.random.Generator, capacity: int):
        self.rng = rng
        self.shape, self._capacity = (m, n), capacity
        self.clear()

    @property
    def T(self) -> "_Adjoint":
        # a fresh view per use: the operator holds no link to it, since a
        # reference cycle would keep a drawn A alive until a full GC
        return _Adjoint(self)

    def clear(self) -> None:
        m, n = self.shape
        self._v = _Span(n, m, min(self._capacity, n))  # v and A v
        self._z = _Span(m, n, min(self._capacity, m))  # z and A'z
        self._dense = None

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """``A v``; draws m normals unless ``v`` lies in the span seen so far."""
        if self._dense is None and self._v.count == len(self._v.basis):
            self._draw()
        if self._dense is not None:
            return self._dense @ v
        return self._product(v, self._v, self._z)

    def _rmatvec(self, z: np.ndarray) -> np.ndarray:
        """``A'z``; draws n normals unless ``z`` lies in the span seen so far."""
        if self._dense is None and self._z.count == len(self._z.basis):
            self._draw()
        if self._dense is not None:
            return self._dense.T @ z
        return self._product(z, self._z, self._v)

    def _product(self, x: np.ndarray, src: _Span, dst: _Span) -> np.ndarray:
        """``x`` times the map whose known images ``src`` holds.

        ``dst`` holds the transposed map's known images.  Split
        ``x = Q c + nu q`` by projecting twice (classical Gram-Schmidt);
        a remainder that the second pass halves is rounding, so ``nu = 0``
        and nothing is drawn.  Otherwise the image of the new direction
        ``q`` is ``Q_dst (H_dst' q) + P_dst xi / sqrt(m)``, computed from
        that formula (never backed out of the product, so a small ``nu``
        amplifies no rounding), and ``q`` joins ``src``.
        """
        if src.count:
            basis, image = src.basis[:src.count], src.image[:src.count]
            c = basis @ x
            p = x - c @ basis
            nu_first = _norm(p)
            c2 = basis @ p
            p -= c2 @ basis
            c += c2
            nu = _norm(p)
            out = c @ image
        else:  # nothing to project on: x is its own remainder
            p = x
            nu = nu_first = _norm(x)
            out = np.zeros(src.image.shape[1])
        if nu == 0.0 or nu < 0.5 * nu_first:
            return out
        q = np.divide(p, nu, out=src.basis[src.count])
        new_image = self.rng.standard_normal(out=src.image[src.count])
        new_image /= np.sqrt(self.shape[0])
        if dst.count:
            back, known = dst.basis[:dst.count], dst.image[:dst.count]
            new_image += (known @ q - back @ new_image) @ back
        src.count += 1
        out += nu * new_image
        return out

    def _draw(self) -> None:
        """Write out ``A = G Q_V' + Q_Z H' P_V + P_Z B P_V`` and drop the spans.

        ``B`` fills the matrix first, and ``H`` becomes ``D = H - B'Q_Z`` in
        place.  ``B + Q_Z D'`` is then ``P_Z B + Q_Z H'``, and a row block
        ``R`` of that becomes ``R P_V + G_block Q_V'``.  Blocks of rows (and
        of columns for ``D``) keep every temporary small: the matrix and
        the spans are all a draw holds.
        """
        v, z = self._v, self._z
        qv, g = v.basis[:v.count], v.image[:v.count]
        qz, d = z.basis[:z.count], z.image[:z.count]
        m, n = self.shape
        a = draw_matrix(self.rng, m, n, GAUSSIAN)
        for start in range(0, n, _CONDITIONED_BLOCK_COLUMNS):
            cols = slice(start, start + _CONDITIONED_BLOCK_COLUMNS)
            d[:, cols] -= qz @ a[:, cols]
        for start in range(0, m, _CONDITIONED_BLOCK_ROWS):
            rows = slice(start, start + _CONDITIONED_BLOCK_ROWS)
            block = a[rows]
            block += qz[:, rows].T @ d
            block += (g[:, rows].T - block @ qv.T) @ qv
        self._dense = a
        self._v = self._z = None


def _norm(v: np.ndarray) -> float:
    """Euclidean norm by the formula ``np.linalg.norm`` uses for a real vector."""
    return math.sqrt(v @ v)


class _Adjoint:
    """``A'`` of a :class:`ConditionedGaussian`, for ``A.T @ z``."""

    __slots__ = ("_a",)

    def __init__(self, a: ConditionedGaussian):
        self._a = a

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        return self._a._rmatvec(z)


def gen_lazy_instance(n: int, params: ModelParams, seed: int) -> Instance:
    """A Gaussian instance whose matrix draws only the products a run makes.

    Signal and noise come first from the seeded generator, then
    ``y = A x0 + w`` is the matrix's first product; later products draw
    from the same generator.  The law is that of :func:`gen_instance` with
    the Gaussian ensemble, the values are not.  Its ``A`` is a
    :class:`ConditionedGaussian` that takes :func:`conditioning_capacity`
    directions per side before it is drawn.
    """
    def lazy(rng, m):  # the operator draws nothing until y's product
        x0 = sample_with_rng(params.prior, n, rng)
        return ConditionedGaussian(m, n, rng, conditioning_capacity(m, n)), x0

    return _draw(n, params.delta, params.sigma2, seed, lazy)


def gen_gaussian_instance(n: int, params: ModelParams, seed: int) -> Instance:
    """Instance with i.i.d. N(0, 1/m) matrix entries."""
    return gen_instance(n, params, seed, GAUSSIAN)


def gen_planted_instance(n: int, delta: float, nnz: int, seed: int,
                         ensemble: str = GAUSSIAN, sigma2: float = 0.0) -> Instance:
    """Instance whose signal has exactly ``nnz`` +-1 entries on a random support.

    Used by the benchmark protocols that fix ||x0||_0 instead of sampling it.
    """
    if not 0 <= nnz <= n:
        raise ValueError("nnz must lie in [0, n]")

    def planted(rng, m):
        a = draw_matrix(rng, m, n, ensemble)
        x0 = np.zeros(n)
        support = rng.choice(n, size=nnz, replace=False)
        x0[support] = 2.0 * rng.integers(0, 2, size=nnz) - 1.0
        return a, x0

    return _draw(n, delta, sigma2, seed, planted)
