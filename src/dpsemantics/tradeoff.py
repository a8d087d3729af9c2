"""Significance-level vs. power trade-off curves.

Each curve maps a significance level in [0, 1] to the maximal power any
test distinguishing two neighbors can achieve under the stated privacy
guarantee.  Closed forms cover pure and approximate DP and the Gaussian
mechanism; RDP and zCDP admit only numeric bounds, found by bisecting
the power against moment constraints; finite mechanisms get their exact
Neyman-Pearson curve.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from ._norm import phi, phi_inv
from .plrv import FiniteMechanismPair

#: Orders alpha of the zCDP moment constraints: log-spaced and wide enough
#: that the optimal alpha for rho in [0.05, 5] and levels >= 0.001 falls
#: strictly inside.
ALPHA_GRID = np.exp(np.linspace(math.log(1.0 + 1e-4), math.log(200.0), 2000))
ALPHA_GRID.flags.writeable = False

#: Absolute bracket width at which the moment-constraint power bound stops.
POWER_BISECTION_TOL = 1e-6

#: Largest x for which math.exp(x) is finite.
LOG_FLOAT_MAX = math.log(sys.float_info.max)


def pure_dp_power_bound(eps: float, level: float) -> float:
    """Maximal power at a given level under pure eps-DP."""
    return approx_dp_power_bound(eps, 0.0, level)


def approx_dp_power_bound(eps: float, delta: float, level: float) -> float:
    """Maximal power at a given level under (eps, delta)-DP."""
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    _check_level(level)
    if eps > LOG_FLOAT_MAX:
        # e^eps overflows, and 1 - e^-eps (1 - level - delta) rounds to 1
        head = 0.0 if level == 0.0 else math.exp(min(0.0, eps + math.log(level)))
        return min(1.0, head + delta)
    raw = min(
        math.exp(eps) * level + delta,
        1.0 - math.exp(-eps) * (1.0 - level - delta),
    )
    return min(1.0, max(0.0, raw))


def gaussian_exact_power(mu: float, level: float) -> float:
    """Exact maximal power of any test against a Gaussian mechanism."""
    if not mu >= 0:
        raise ValueError("mu must be nonnegative")
    _check_level(level)
    if level == 0.0:
        return 0.0
    if level == 1.0:
        return 1.0
    # Phi^{-1}(level) itself, not -Phi^{-1}(1 - level): 1 - level rounds to 1 below 2^-53
    return phi(mu + phi_inv(level))


def rdp_power_bound(points: Iterable[tuple[float, float]], level: float) -> float:
    """Maximal power consistent with a set of (alpha, gamma) RDP bounds."""
    return RdpNumericBoundCurve(tuple(points)).power(level)


def zcdp_power_bound(rho: float, level: float) -> float:
    """Maximal power consistent with rho-zCDP, i.e. gamma = rho * alpha."""
    return ZcdpNumericBoundCurve(rho).power(level)


class TradeoffCurve:
    """Trade-off curve: significance level -> maximal power.

    `inverse_type2` is the generalized inverse of the type II error
    1 - power, which the pointwise (eps, delta) conversions need.  Every
    curve class restates `inverse_type2` in its own body, even where it is
    this bisection, because the benchmark's traced run (bench/spans.py)
    wraps that method class by class.
    """

    def power(self, level: float) -> float:
        raise NotImplementedError

    def type2(self, level: float) -> float:
        return 1.0 - self.power(level)

    def inverse_type2(self, z: float) -> float:
        """Generalized inverse inf{y in [0,1] : type2(y) <= z}, by bisection."""
        if self.type2(0.0) <= z:
            return 0.0
        if self.type2(1.0) > z:
            return 1.0
        return _bisect(lambda y: self.type2(y) <= z, 0.0, 1.0)[1]


@dataclass(frozen=True)
class PiecewiseLinearCurve(TradeoffCurve):
    """Concave trade-off curve through sorted (level, power) vertices.

    Chords between vertices are achievable by randomizing between the
    adjacent deterministic tests.
    """

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.vertices or self.vertices[-1] != (1.0, 1.0):
            raise ValueError("curve must end at (1, 1)")
        xs, ys = self._xy
        # NaN fails both comparisons
        if not ((xs >= 0.0) & (xs <= 1.0) & (ys >= 0.0) & (ys <= 1.0)).all():
            raise ValueError("vertices must be finite and lie in [0, 1]^2")
        if (np.diff(xs) < 0.0).any():
            raise ValueError("vertices must be sorted by level")

    @cached_property
    def _xy(self) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = zip(*self.vertices)
        return np.array(xs, dtype=float), np.array(ys, dtype=float)

    def power(self, level: float) -> float:
        _check_level(level)
        return float(np.interp(level, *self._xy))

    inverse_type2 = TradeoffCurve.inverse_type2


def np_tradeoff_finite(pair: FiniteMechanismPair) -> PiecewiseLinearCurve:
    """Exact Neyman-Pearson trade-off for a finite mechanism pair.

    Outputs are rejected in order of decreasing likelihood ratio p2/p1;
    outputs with equal ratio merge into one segment, which is exactly the
    randomized-test chord.
    """
    levels, powers = _np_vertices(pair)
    return PiecewiseLinearCurve(tuple(zip(levels.tolist(), powers.tolist())))


def _np_vertices(pair: FiniteMechanismPair) -> tuple[np.ndarray, np.ndarray]:
    """Vertex levels and powers of `np_tradeoff_finite`, from (0, 0) to (1, 1).

    The reversed pair's vertices are (1 - power, 1 - level), in reverse order.
    """
    seen = (pair.p1 > 0.0) | (pair.p2 > 0.0)
    p1, p2 = pair.p1[seen], pair.p2[seen]
    ratio = np.divide(p2, p1, out=np.full_like(p1, np.inf), where=p1 > 0.0)
    _, group = np.unique(-ratio, return_inverse=True)
    # both vectors sum to 1 within PROB_SUM_TOL, so the last vertex is (1, 1)
    # and a partial sum above 1 is rounding
    levels = np.minimum(np.cumsum(np.bincount(group, weights=p1)), 1.0)
    powers = np.minimum(np.cumsum(np.bincount(group, weights=p2)), 1.0)
    levels[-1] = powers[-1] = 1.0
    return np.append(0.0, levels), np.append(0.0, powers)


@dataclass(frozen=True)
class PureDpBoundCurve(TradeoffCurve):
    eps: float

    def power(self, level: float) -> float:
        return pure_dp_power_bound(self.eps, level)

    inverse_type2 = TradeoffCurve.inverse_type2


@dataclass(frozen=True)
class ApproxDpBoundCurve(TradeoffCurve):
    eps: float
    delta: float

    def power(self, level: float) -> float:
        return approx_dp_power_bound(self.eps, self.delta, level)

    inverse_type2 = TradeoffCurve.inverse_type2


@dataclass(frozen=True)
class GaussianExactCurve(TradeoffCurve):
    mu: float

    def __post_init__(self) -> None:
        if not self.mu >= 0:
            raise ValueError("mu must be nonnegative")

    def power(self, level: float) -> float:
        return gaussian_exact_power(self.mu, level)

    def inverse_type2(self, z: float) -> float:
        """Closed-form generalized inverse of x -> Phi(Phi^{-1}(1-x) - mu)."""
        if z <= 0.0:
            return 1.0
        if z >= 1.0:
            return 0.0
        return phi(-phi_inv(z) - self.mu)


class _MomentBoundCurve(TradeoffCurve):
    """Numeric bound from Renyi moment constraints at a set of orders.

    A test at (level, power) is consistent with a divergence bound gamma at
    order alpha iff level^a power^(1-a) + (1-level)^a (1-power)^(1-a) and
    its mirror image stay below e^{(a-1) gamma}.  Subclasses supply the
    orders and the log bounds (a-1) gamma as the pair `_constraints`.

    Each order's check, logaddexp(x, y) <= lim, is screened exactly, since the
    computed logaddexp is max(x, y) plus a rounded log1p(e^-|x-y|) in [0, ln 2]:
    it is >= max, so an order with max > lim fails; it is <= fl(max + ln 2) <=
    fl(max + 1), so an order with max + 1 <= lim holds.  Only the rest reach logaddexp.
    """

    def _feasible_with(self, u: float) -> Callable[[float], bool]:
        """Predicate v -> (u, v) meets both constraints, for u and v in (0, 1).

        The constraints are mirror images, so `power` fixes the level and
        `inverse_type2` the power.  In log space, as (1-p)^(1-alpha) overflows
        long before the constraint means anything.  Callers ignore overflow and
        invalid-value warnings: huge orders overflow, and inf and NaN screen as
        they compare."""
        alphas, log_bounds = self._constraints
        lu, l1u = math.log(u), math.log1p(-u)
        oma = 1.0 - alphas
        # rows: the constraint with u as the level, then its mirror image
        coef = np.stack([oma, alphas])
        fixed_x = np.stack([alphas * lu, oma * lu])
        fixed_y = np.stack([alphas * l1u, oma * l1u])
        lim = np.stack([log_bounds + 1e-12] * 2)

        def feasible(v: float) -> bool:
            x = fixed_x + coef * math.log(v)
            y = fixed_y + coef * math.log1p(-v)
            top = np.maximum(x, y)
            if (top > lim).any():
                return False
            open_ = ~(top + 1.0 <= lim)
            return bool((np.logaddexp(x[open_], y[open_]) <= lim[open_]).all())

        return feasible

    def power(self, level: float) -> float:
        """Largest feasible power, bisected to POWER_BISECTION_TOL.

        At level 0 the second constraint carries power^alpha * 0^(1-alpha),
        infinite for any positive power; level 1 is trivially unconstrained.
        """
        _check_level(level)
        if level <= 0.0:
            return 0.0
        if level >= 1.0:
            return 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            feasible = self._feasible_with(level)
            if not feasible(level):
                return level
            return _bisect(lambda p: not feasible(p), level, 1.0, POWER_BISECTION_TOL)[0]

    def inverse_type2(self, z: float) -> float:
        """Generalized inverse inf{y : type2(y) <= z}, by one bisection.

        That is the smallest level at which power 1 - z is feasible, found
        without calling `power`: feasibility only grows with the level, and
        level 1 - z itself is always feasible.
        """
        if z >= 1.0:
            return 0.0
        if 1.0 - z >= 1.0:  # power 1 (or more) is feasible only at level 1
            return 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            return _bisect(self._feasible_with(1.0 - z), 0.0, 1.0 - z)[1]


@dataclass(frozen=True)
class ZcdpNumericBoundCurve(_MomentBoundCurve):
    """rho-zCDP bound: gamma = rho * alpha at the orders of ALPHA_GRID."""

    rho: float

    def __post_init__(self) -> None:
        if not self.rho > 0:
            raise ValueError("rho must be positive")

    @cached_property
    def _constraints(self) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore"):  # an infinite bound (huge rho) always holds
            return ALPHA_GRID, self.rho * ALPHA_GRID * (ALPHA_GRID - 1.0)

    inverse_type2 = _MomentBoundCurve.inverse_type2


@dataclass(frozen=True)
class RdpNumericBoundCurve(_MomentBoundCurve):
    """Bound from a set of (alpha, gamma) RDP points."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("at least one (alpha, gamma) point required")
        if not all(a > 1.0 and g >= 0.0 for a, g in self.points):
            raise ValueError("RDP points need alpha > 1 and gamma >= 0")

    @cached_property
    def _constraints(self) -> tuple[np.ndarray, np.ndarray]:
        alphas, gammas = np.array(self.points, dtype=float).T
        return alphas, gammas * (alphas - 1.0)

    inverse_type2 = _MomentBoundCurve.inverse_type2


def _bisect(
    pred: Callable[[float], bool], lo: float, hi: float, tol: float = 0.0
) -> tuple[float, float]:
    """Bracket the point where a monotone predicate turns true.

    Expects pred(lo) false and pred(hi) true, and keeps it so while halving
    [lo, hi]; stops once its midpoint rounds onto an end, so that lo and hi
    are adjacent floats, or once the bracket is no wider than `tol`.
    Returns the final (lo, hi).
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _check_level(level: float) -> None:
    if not 0.0 <= level <= 1.0:
        raise ValueError("significance level must lie in [0, 1]")
