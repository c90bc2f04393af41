"""Problem-instance generation and serialization.

An :class:`Instance` bundles one realization of ``y = A x0 + w`` together
with its dimensions and seed.  Generators produce Gaussian or Rademacher
sensing matrices with i.i.d. entries of variance ``1/m``; a planted
variant places an exact number of +-1 spikes for the benchmark protocols.
Arrays are frozen read-only so instances can be shared across concurrent
solver runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .priors import DiscretePrior, sample_with_rng

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
ENSEMBLES = (GAUSSIAN, RADEMACHER)

# Rows per block of a Rademacher draw: its int64 temporary is this many rows.
_RADEMACHER_BLOCK_ROWS = 16


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
    """One problem realization (A, x0, w, y) with y = A x0 + w exactly."""

    a: np.ndarray
    x0: np.ndarray
    w: np.ndarray
    y: np.ndarray
    m: int
    n: int
    delta: float
    sigma2: float
    seed: int

    def __post_init__(self):
        if self.a.shape != (self.m, self.n):
            raise ValueError("matrix shape does not match (m, n)")
        for arr, size in ((self.x0, self.n), (self.w, self.m), (self.y, self.m)):
            if arr.shape != (size,):
                raise ValueError("vector shapes do not match instance dimensions")
        for name in ("a", "x0", "w", "y"):
            arr = getattr(self, name)
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


def _assemble(a, x0, w, m, n, delta, sigma2, seed) -> Instance:
    y = a @ x0 + w
    return Instance(a=a, x0=x0, w=w, y=y, m=m, n=n, delta=float(delta),
                    sigma2=float(sigma2), seed=seed)


def gen_instance(n: int, params: ModelParams, seed: int,
                 ensemble: str = GAUSSIAN) -> Instance:
    """Draw matrix, signal, and noise from one seeded generator.

    Draw order is fixed (matrix, then signal, then noise) so instances are
    bit-reproducible given (n, params, seed, ensemble).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    m = measurement_count(params.delta, n)
    rng = np.random.default_rng(seed)
    a = draw_matrix(rng, m, n, ensemble)
    x0 = sample_with_rng(params.prior, n, rng)
    w = np.sqrt(params.sigma2) * rng.standard_normal(m) if params.sigma2 > 0 else np.zeros(m)
    return _assemble(a, x0, w, m, n, params.delta, params.sigma2, seed)


def gen_gaussian_instance(n: int, params: ModelParams, seed: int) -> Instance:
    """Instance with i.i.d. N(0, 1/m) matrix entries."""
    return gen_instance(n, params, seed, GAUSSIAN)


def gen_planted_instance(n: int, delta: float, nnz: int, seed: int,
                         ensemble: str = GAUSSIAN, sigma2: float = 0.0) -> Instance:
    """Instance whose signal has exactly ``nnz`` +-1 entries on a random support.

    Used by the benchmark protocols that fix ||x0||_0 instead of sampling it.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 <= nnz <= n:
        raise ValueError("nnz must lie in [0, n]")
    m = measurement_count(delta, n)
    rng = np.random.default_rng(seed)
    a = draw_matrix(rng, m, n, ensemble)
    x0 = np.zeros(n)
    support = rng.choice(n, size=nnz, replace=False)
    x0[support] = 2.0 * rng.integers(0, 2, size=nnz) - 1.0
    w = np.sqrt(sigma2) * rng.standard_normal(m) if sigma2 > 0 else np.zeros(m)
    return _assemble(a, x0, w, m, n, delta, sigma2, seed)


_LAYOUT = ("a", "x0", "w", "y")


def _bundle_paths(stem: str | Path) -> tuple[Path, Path]:
    """``<stem>.json`` and ``<stem>.bin``; a dot in the stem is kept, not replaced."""
    stem = Path(stem)
    return stem.with_name(stem.name + ".json"), stem.with_name(stem.name + ".bin")


def save_instance(instance: Instance, stem: str | Path) -> tuple[Path, Path]:
    """Write ``<stem>.json`` (header) and ``<stem>.bin`` (flat float64 payload).

    The payload is little-endian float64: A in row-major order, then x0, w,
    and y, so any implementation can replay the exact instance.
    """
    header = {
        "m": instance.m, "n": instance.n, "delta": instance.delta,
        "sigma2": instance.sigma2, "seed": instance.seed,
        "layout": list(_LAYOUT), "dtype": "<f8", "order": "C",
    }
    json_path, bin_path = _bundle_paths(stem)
    json_path.write_text(json.dumps(header, indent=2) + "\n")
    payload = np.concatenate([
        np.ascontiguousarray(instance.a, dtype="<f8").ravel(),
        instance.x0.astype("<f8"), instance.w.astype("<f8"),
        instance.y.astype("<f8"),
    ])
    payload.tofile(bin_path)
    return json_path, bin_path


def load_instance(stem: str | Path) -> Instance:
    """Read an instance bundle written by :func:`save_instance`."""
    json_path, bin_path = _bundle_paths(stem)
    header = json.loads(json_path.read_text())
    m, n = int(header["m"]), int(header["n"])
    flat = np.fromfile(bin_path, dtype="<f8")
    expected = m * n + n + 2 * m
    if flat.size != expected:
        raise ValueError(f"payload has {flat.size} values, expected {expected}")
    a = flat[: m * n].reshape(m, n).astype(float)
    x0 = flat[m * n: m * n + n].astype(float)
    w = flat[m * n + n: m * n + n + m].astype(float)
    y = flat[m * n + n + m:].astype(float)
    return Instance(a=a, x0=x0, w=w, y=y, m=m, n=n,
                    delta=float(header["delta"]), sigma2=float(header["sigma2"]),
                    seed=int(header["seed"]))
