"""Point-mass signal priors and their Gaussian-channel expectations.

A :class:`DiscretePrior` is a finite signed mixture of point masses.  All
expectations needed by state evolution and calibration -- the soft
thresholding mean square error and the keep probability under the channel
``Y = X0 + tau*Z`` -- are evaluated in closed form per atom using only the
Gaussian density and distribution function.  No Monte Carlo enters the
theory path; sampling exists solely to build finite problem instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussians import Phi, phi

_WEIGHT_SUM_TOL = 1e-12
_SIGNS = np.array([[1.0], [-1.0]])  # the thresholds theta and -theta, as rows


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
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(weights) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {sum(weights)!r}")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atoms must be pairwise distinct")

    @property
    def atom_array(self) -> np.ndarray:
        return np.asarray(self.atoms, dtype=float)

    @property
    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    @property
    def second_moment(self) -> float:
        """E{X0^2}."""
        return float(np.dot(self.weight_array, self.atom_array**2))

    @property
    def fourth_moment(self) -> float:
        return float(np.dot(self.weight_array, self.atom_array**4))

    @property
    def sparsity(self) -> float:
        """Mass off zero: 1 - P{X0 = 0} (1.0 when 0 is not an atom)."""
        for a, w in zip(self.atoms, self.weights):
            if a == 0.0:
                return 1.0 - w
        return 1.0

    @property
    def has_signal_mass(self) -> bool:
        """True when P{X0 != 0} > 0."""
        return any(w > 0 and a != 0.0 for a, w in zip(self.atoms, self.weights))


def delta_prior(c: float = 0.0) -> DiscretePrior:
    """Degenerate prior putting all mass on ``c``."""
    return DiscretePrior((float(c),), (1.0,))


def three_point(eps: float) -> DiscretePrior:
    """Symmetric +-1 prior with total nonzero mass ``eps``."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    return DiscretePrior((-1.0, 0.0, 1.0), (eps / 2.0, 1.0 - eps, eps / 2.0))


def sample_with_rng(prior: DiscretePrior, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. values from the prior off the given generator."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.choice(prior.atom_array, size=n, p=prior.weight_array)


def _check_channel(tau: float, theta: float) -> None:
    if tau <= 0:
        raise ValueError("tau must be > 0")
    if theta < 0:
        raise ValueError("theta must be >= 0")


def _channel(prior: DiscretePrior, tau: float, theta: float):
    """The atoms, the normalized thresholds and their Gaussian tails.

    Returns ``x``, ``ab`` with rows a = (theta - x)/tau and
    b = (-theta - x)/tau, and ``cdf`` with rows Phi(-a), Phi(a), Phi(b),
    from a single call of Phi.
    """
    _check_channel(tau, theta)
    x = prior.atom_array
    ab = (_SIGNS * theta - x) / tau
    return x, ab, Phi(np.concatenate((-ab[:1], ab)))


def st_mse(prior: DiscretePrior, tau: float, theta: float) -> float:
    """Exact E{[eta(X0 + tau*Z; theta) - X0]^2} for Z ~ N(0,1).

    For each atom x0 the error splits over the three soft-threshold
    branches; with a = (theta - x0)/tau and b = (-theta - x0)/tau every
    piece reduces to phi/Phi evaluated at a and b.  The rows of
    ``branches`` are the upper (x0 + tau*Z > theta) and the lower branch.
    """
    x, ab, cdf = _channel(prior, tau, theta)
    tails = cdf[::2]  # Phi(-a), Phi(b): the mass beyond each threshold
    dens = phi(ab)
    # z*phi(z) with the far tail forced to exact 0 (avoids inf*0 -> nan when
    # tau is tiny and the normalized thresholds overflow); phi vanishes
    # wherever the clip bites, so the density at the unclipped z serves.
    zphi = np.clip(ab, -40.0, 40.0) * dens
    branches = (tau**2 * (tails + _SIGNS * zphi) - 2 * tau * theta * dens
                + theta**2 * tails)
    dead = x**2 * (cdf[1] - cdf[2])
    return float(np.dot(prior.weight_array, branches[0] + branches[1] + dead))


def st_keep_prob(prior: DiscretePrior, tau: float, theta: float) -> float:
    """Exact P{|X0 + tau*Z| >= theta}, the fraction surviving the threshold."""
    _, _, cdf = _channel(prior, tau, theta)
    return float(np.dot(prior.weight_array, cdf[0] + cdf[2]))
