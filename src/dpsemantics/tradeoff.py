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
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from ._norm import phi, phi_inv
from .plrv import FiniteMechanismPair

if TYPE_CHECKING:
    from .accountants import EpsDeltaCurve

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
    if eps < 0:
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


def curve_min_power_bound(
    curve: "EpsDeltaCurve", level: float, eps_grid: np.ndarray | None = None
) -> float:
    """Best power bound along an entire (eps, delta) curve.

    A mechanism satisfies approximate DP for every point of its curve, so
    the binding bound is the minimum over the curve, not any single point.
    """
    _check_level(level)
    if eps_grid is None:
        eps_grid = np.linspace(curve.eps_lo, curve.eps_hi, 4000)
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size == 0:
        raise ValueError("eps grid must be non-empty")
    return min(
        approx_dp_power_bound(float(e), curve.delta(float(e)), level) for e in eps_grid
    )


def gaussian_exact_power(mu: float, level: float) -> float:
    """Exact maximal power of any test against a Gaussian mechanism."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    _check_level(level)
    if level == 0.0:
        return 0.0
    if level == 1.0:
        return 1.0
    return 1.0 - phi(phi_inv(1.0 - level) - mu)


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
        levels = [v[0] for v in self.vertices]
        if levels != sorted(levels):
            raise ValueError("vertices must be sorted by level")
        if not self.vertices or self.vertices[-1] != (1.0, 1.0):
            raise ValueError("curve must end at (1, 1)")

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
    p1, p2 = np.array(pair.p1, dtype=float), np.array(pair.p2, dtype=float)
    seen = (p1 > 0.0) | (p2 > 0.0)
    p1, p2 = p1[seen], p2[seen]
    ratio = np.divide(p2, p1, out=np.full_like(p1, np.inf), where=p1 > 0.0)
    _, group = np.unique(-ratio, return_inverse=True)
    levels = np.cumsum(np.bincount(group, weights=p1))
    powers = np.cumsum(np.bincount(group, weights=p2))
    # both vectors sum to 1 within PROB_SUM_TOL, so the last vertex is (1, 1)
    levels[-1] = powers[-1] = 1.0
    return PiecewiseLinearCurve(((0.0, 0.0),) + tuple(zip(levels.tolist(), powers.tolist())))


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
    """

    def _feasible(self, level: float, power: float) -> bool:
        """Check both moment constraints for every order at once.

        Evaluated in log space: (1-p)^(1-alpha) overflows long before the
        constraint itself becomes meaningless.
        """
        if power >= 1.0:
            return level >= 1.0
        alphas, log_bounds = self._constraints
        with np.errstate(divide="ignore"):
            ll = math.log(level) if level > 0.0 else -math.inf
            l1l = math.log1p(-level) if level < 1.0 else -math.inf
            lp = math.log(power) if power > 0.0 else -math.inf
            l1p = math.log1p(-power)
        c1 = np.logaddexp(alphas * ll + (1.0 - alphas) * lp, alphas * l1l + (1.0 - alphas) * l1p)
        c2 = np.logaddexp(alphas * lp + (1.0 - alphas) * ll, alphas * l1p + (1.0 - alphas) * l1l)
        slack = 1e-12
        return bool(np.all(c1 <= log_bounds + slack) and np.all(c2 <= log_bounds + slack))

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
        if not self._feasible(level, level):
            return level
        return _bisect(
            lambda p: not self._feasible(level, p), level, 1.0, POWER_BISECTION_TOL
        )[0]

    def inverse_type2(self, z: float) -> float:
        """Generalized inverse inf{y : type2(y) <= z}, by one bisection.

        That is the smallest level at which power 1 - z is feasible, found
        without calling `power`: feasibility only grows with the level, and
        level 1 - z itself is always feasible.
        """
        if z >= 1.0:
            return 0.0
        if z < 0.0:
            return 1.0
        return _bisect(lambda y: self._feasible(y, 1.0 - z), 0.0, 1.0 - z)[1]


@dataclass(frozen=True)
class ZcdpNumericBoundCurve(_MomentBoundCurve):
    """rho-zCDP bound: gamma = rho * alpha at the orders of ALPHA_GRID."""

    rho: float

    def __post_init__(self) -> None:
        if not self.rho > 0:
            raise ValueError("rho must be positive")

    @cached_property
    def _constraints(self) -> tuple[np.ndarray, np.ndarray]:
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
