"""Point-mass signal priors and their Gaussian-channel expectations.

A :class:`DiscretePrior` is a finite signed mixture of point masses.  All
expectations needed by state evolution and calibration -- the soft
thresholding mean square error and the keep probability under the channel
``Y = X0 + tau*Z`` -- are evaluated in closed form per atom using only the
Gaussian density and distribution function.  No Monte Carlo enters the
theory path; sampling exists solely to build finite problem instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussians import Phi, phi

_WEIGHT_SUM_TOL = 1e-12
_Z_CLIP = 40.0  # |z| beyond which z*phi(z) is taken as exact 0


@dataclass(frozen=True)
class DiscretePrior:
    """Finite point-mass distribution on the real line.

    Attributes:
        atoms: distinct signal values carrying mass.
        weights: probabilities, same length as ``atoms``, summing to one.
    """

    atoms: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        atoms = tuple(float(a) for a in self.atoms)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if len(atoms) == 0:
            raise ValueError("prior needs at least one atom")
        if len(atoms) != len(weights):
            raise ValueError("atoms and weights must have the same length")
        if not all(math.isfinite(v) for v in atoms + weights):
            raise ValueError("atoms and weights must be finite")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(weights) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {sum(weights)!r}")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atoms must be pairwise distinct")

    @property
    def second_moment(self) -> float:
        """E{X0^2}; inf, without a warning, when an atom's square overflows."""
        total = 0.0
        for a, w in zip(self.atoms, self.weights):
            total += w * (a * a)
        return total

    @property
    def has_signal_mass(self) -> bool:
        """True when P{X0 != 0} > 0."""
        return any(w > 0 and a != 0.0 for a, w in zip(self.atoms, self.weights))


def three_point(eps: float) -> DiscretePrior:
    """Symmetric +-1 prior with total nonzero mass ``eps``."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    return DiscretePrior((-1.0, 0.0, 1.0), (eps / 2.0, 1.0 - eps, eps / 2.0))


def sample_with_rng(prior: DiscretePrior, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. values from the prior off the given generator."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.choice(prior.atoms, size=n, p=prior.weights)


def _check_channel(tau: float, theta: float) -> None:
    if tau <= 0:
        raise ValueError("tau must be > 0")
    if theta < 0:
        raise ValueError("theta must be >= 0")


def st_mse(prior: DiscretePrior, tau: float, theta: float) -> float:
    """Exact E{[eta(X0 + tau*Z; theta) - X0]^2} for Z ~ N(0,1).

    For each atom x0 the error splits over the three soft-threshold
    branches; with a = (theta - x0)/tau and b = (-theta - x0)/tau every
    piece reduces to phi/Phi evaluated at a and b: the upper branch
    (x0 + tau*Z > theta), the lower one and the dead zone between.
    """
    _check_channel(tau, theta)
    tau2, cross, theta2 = tau**2, 2 * tau * theta, theta**2
    total = 0.0
    for x, w in zip(prior.atoms, prior.weights):
        a, b = (theta - x) / tau, (-theta - x) / tau
        upper, lower = Phi(-a), Phi(b)  # the mass beyond each threshold
        dens_a, dens_b = phi(a), phi(b)
        # z*phi(z) with the far tail forced to exact 0 (avoids inf*0 -> nan when
        # tau is tiny and the normalized thresholds overflow); phi vanishes
        # wherever the clip bites, so the density at the unclipped z serves.
        zphi_a = min(max(a, -_Z_CLIP), _Z_CLIP) * dens_a
        zphi_b = min(max(b, -_Z_CLIP), _Z_CLIP) * dens_b
        total += w * (tau2 * (upper + zphi_a) - cross * dens_a + theta2 * upper
                      + (tau2 * (lower - zphi_b) - cross * dens_b + theta2 * lower)
                      + x * x * (Phi(a) - lower))
    return total


def st_keep_prob(prior: DiscretePrior, tau: float, theta: float) -> float:
    """Exact P{|X0 + tau*Z| >= theta}, the fraction surviving the threshold."""
    _check_channel(tau, theta)
    total = 0.0
    for x, w in zip(prior.atoms, prior.weights):
        total += w * (Phi((x - theta) / tau) + Phi((-theta - x) / tau))
    return total
