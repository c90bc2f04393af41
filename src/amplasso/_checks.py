"""The input rules, one helper each: a ``ValueError`` such as "alpha must be > 0".

NaN fails every rule, and +-inf all but an interval with an infinite end.
"""

import math


def finite(value: float, name: str) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")


def positive(value: float, name: str) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be > 0")
    finite(value, name)


def nonnegative(value: float, name: str) -> None:
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0")
    finite(value, name)


def within(value: float, name: str, interval: str) -> None:
    """``value`` in ``interval``, written as its message shows it: "(0, 1]", "[0, 8]"."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if not ((lo < value if interval[0] == "(" else lo <= value)
            and (value < hi if interval[-1] == ")" else value <= hi)):
        raise ValueError(f"{name} must lie in {interval}")
