"""Standard-normal density and distribution functions: scalars, stdlib math.

Every module in the package evaluates phi / Phi through these two
functions (``math.exp``, and the complementary error function
``math.erfc``) so that numerical constants agree bit for bit across
solvers, theory code, and tests.  Both take and return one float; the
theory they serve is a handful of scalar calls, where numpy's dispatch
would cost more than the arithmetic.
"""

from __future__ import annotations

import math

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)


def phi(z: float) -> float:
    """Standard normal density; 0.0 in the far tails, without a warning."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def Phi(z: float) -> float:
    """Standard normal distribution function, 0.5 * erfc(-z / sqrt(2))."""
    return 0.5 * math.erfc(-z / _SQRT_2)
