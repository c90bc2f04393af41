"""The standard normal density and distribution function on stdlib floats."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from amplasso.gaussians import Phi, phi


@pytest.mark.parametrize("lo, hi, rel", [
    (-8.0, 8.0, 1e-13),
    (-37.5, -8.0, 1e-12),
    (8.0, 40.0, 0.0),
], ids=["body", "left_tail", "right_tail"])
def test_Phi_tracks_scipys_ndtr(lo, hi, rel):
    # 0.5*erfc(-z/sqrt(2)) against special.ndtr, which Phi was until it left
    # scipy: last bits in the body; in the left tail, down to where Phi
    # leaves the normal doubles (about 2.2e-308), within 5e-13; equal above 8
    z = np.linspace(lo, hi, 20001)
    ours = np.array([Phi(float(v)) for v in z])
    ref = special.ndtr(z)
    assert np.all(np.abs(ours - ref) <= rel * ref)


def test_phi_is_the_density_and_vanishes_quietly():
    assert phi(0.0) == 1.0 / math.sqrt(2.0 * math.pi)
    z = np.linspace(-38.0, 38.0, 2001)
    ref = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    assert np.all(np.abs([phi(float(v)) for v in z] - ref) <= 1e-15 * ref)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert phi(1e200) == phi(-math.inf) == 0.0
        assert Phi(-math.inf) == 0.0 and Phi(math.inf) == 1.0
