"""Standard-normal density and distribution functions.

Every module in the package evaluates phi / Phi through these wrappers
(backed by the complementary error function, |error| <= 1e-15) so that
numerical constants agree bit for bit across solvers, theory code, and
tests.
"""

from __future__ import annotations

import numpy as np
from scipy import special

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def phi(z):
    """Standard normal density. Accepts scalars or arrays."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        out = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    return out if out.ndim else float(out)


def Phi(z):
    """Standard normal distribution function (via erfc)."""
    out = special.ndtr(np.asarray(z, dtype=float))
    return out if isinstance(out, np.ndarray) else float(out)
