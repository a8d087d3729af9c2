"""The normal-CDF helpers meet the accuracy `_norm` states, against a
50-digit `mpmath` oracle."""

import mpmath
import numpy as np
import pytest

from dpsemantics._norm import log_phi, phi, phi_inv


def _quantile(p: float) -> mpmath.mpf:
    """Phi^-1(p) to the working precision: Newton on log Phi from the
    float answer, which is already good to a few ulps."""
    x, log_p = mpmath.mpf(phi_inv(p)), mpmath.log(mpmath.mpf(p))
    for _ in range(4):
        c = mpmath.ncdf(x)
        x -= (mpmath.log(c) - log_p) * c / mpmath.npdf(x)
    return x


@pytest.mark.parametrize(
    "f, points, oracle, bound",
    [
        (phi, np.linspace(-37.5, 8.0, 301), mpmath.ncdf, 3e-13),
        (phi, np.linspace(-8.0, 8.0, 101), mpmath.ncdf, 2e-14),
        (phi_inv, np.geomspace(1e-300, 0.99, 301), _quantile, 1e-15),
        (log_phi, np.linspace(-60.0, 8.0, 301), lambda x: mpmath.log(mpmath.ncdf(x)), 2e-14),
    ],
    ids=["phi", "phi-central", "phi_inv", "log_phi"],
)
def test_relative_error_within_stated_bound(f, points, oracle, bound):
    with mpmath.workdps(50):
        worst = max(abs((mpmath.mpf(f(float(x))) - oracle(x)) / oracle(x)) for x in points)
    assert worst < bound
