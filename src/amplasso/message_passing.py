"""Per-edge message passing on the dense factor graph.

Desk-scale reference implementation kept as an oracle for the first-order
solver: the reduced form of the message updates, one real per edge.
Memory is Theta(m*n) and each synchronous step costs Theta(m*n) by
computing every cavity sum as the full sum minus the edge's own term.
"""

from __future__ import annotations

import numpy as np

from .instances import Instance
from .scalar_risk import soft_threshold


def reduced_mp_step(x_msgs: np.ndarray, instance: Instance,
                    theta: float) -> tuple[np.ndarray, np.ndarray]:
    """One step of the reduced iteration (one real message per edge).

    Returns the residual messages ``r[a, i]`` and the next variable
    messages; both are cavity quantities.
    """
    a_mat = instance.a
    x_row = (a_mat * x_msgs).sum(axis=1, keepdims=True)
    r_msgs = instance.y[:, None] - (x_row - a_mat * x_msgs)
    num_col = (a_mat * r_msgs).sum(axis=0, keepdims=True)
    x_next = soft_threshold(num_col - a_mat * r_msgs, theta)
    return r_msgs, x_next


def reduced_mp_estimate(r_msgs: np.ndarray, instance: Instance,
                        theta: float) -> np.ndarray:
    """Per-variable estimate from the full sum of residual messages."""
    return soft_threshold((instance.a * r_msgs).sum(axis=0), theta)
