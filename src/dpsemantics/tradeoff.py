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
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from ._norm import phi, phi_inv
from .plrv import FiniteMechanismPair

if TYPE_CHECKING:
    from .accountants import EpsDeltaCurve

#: Default alpha grid for the moment-constraint bounds: log-spaced and
#: wide enough that the optimal alpha for rho in [0.05, 5] and levels
#: >= 0.001 falls strictly inside.
DEFAULT_ALPHA_GRID: tuple[float, ...] = tuple(
    np.exp(np.linspace(math.log(1.0 + 1e-4), math.log(200.0), 2000))
)

POWER_BISECTION_TOL = 1e-6

#: Largest x for which math.exp(x) is finite.
LOG_FLOAT_MAX = math.log(sys.float_info.max)

#: Bracket width at which the generalized inverse of a trade-off curve stops.
INVERSE_BISECTION_TOL = 2.0**-80


def pure_dp_power_bound(eps: float, level: float) -> float:
    """Maximal power at a given level under pure eps-DP."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    _check_level(level)
    if eps > LOG_FLOAT_MAX:
        # e^eps overflows, and 1 - e^-eps (1 - level) rounds to 1
        return 0.0 if level == 0.0 else math.exp(min(0.0, eps + math.log(level)))
    return min(1.0, math.exp(eps) * level, 1.0 - math.exp(-eps) * (1.0 - level))


def approx_dp_power_bound(eps: float, delta: float, level: float) -> float:
    """Maximal power at a given level under (eps, delta)-DP."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    _check_level(level)
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


def _moment_constraints_ok(
    level: float, power: float, alphas: np.ndarray, log_bounds: np.ndarray
) -> bool:
    """Check both Renyi moment constraints for every alpha at once.

    Evaluated in log space: (1-p)^(1-alpha) overflows long before the
    constraint itself becomes meaningless.
    """
    if power >= 1.0:
        return level >= 1.0
    with np.errstate(divide="ignore"):
        ll = math.log(level) if level > 0.0 else -math.inf
        l1l = math.log1p(-level) if level < 1.0 else -math.inf
        lp = math.log(power) if power > 0.0 else -math.inf
        l1p = math.log1p(-power)
    c1 = np.logaddexp(alphas * ll + (1.0 - alphas) * lp, alphas * l1l + (1.0 - alphas) * l1p)
    c2 = np.logaddexp(alphas * lp + (1.0 - alphas) * ll, alphas * l1p + (1.0 - alphas) * l1l)
    slack = 1e-12
    return bool(np.all(c1 <= log_bounds + slack) and np.all(c2 <= log_bounds + slack))


def _moment_power_bound(
    level: float, alphas: np.ndarray, log_bounds: np.ndarray
) -> float:
    """Largest power consistent with the moment constraints, by bisection.

    At level 0 the second constraint carries power^alpha * 0^(1-alpha),
    infinite for any positive power, so only the non-informative test
    survives; level 1 is trivially unconstrained.
    """
    if level <= 0.0:
        return 0.0
    if level >= 1.0:
        return 1.0
    if not _moment_constraints_ok(level, level, alphas, log_bounds):
        return level
    return _bisect(
        lambda p: not _moment_constraints_ok(level, p, alphas, log_bounds),
        level, 1.0, POWER_BISECTION_TOL,
    )[0]


def rdp_power_bound(
    points: list[tuple[float, float]] | tuple[tuple[float, float], ...],
    level: float,
) -> float:
    """Maximal power consistent with a set of (alpha, gamma) RDP bounds."""
    _check_level(level)
    if not points:
        raise ValueError("at least one (alpha, gamma) point required")
    alphas = np.array([a for a, _ in points], dtype=float)
    gammas = np.array([g for _, g in points], dtype=float)
    if np.any(alphas <= 1.0) or np.any(gammas < 0.0):
        raise ValueError("RDP points need alpha > 1 and gamma >= 0")
    return _moment_power_bound(level, alphas, gammas * (alphas - 1.0))


def zcdp_power_bound(
    rho: float,
    level: float,
    alpha_grid: tuple[float, ...] | np.ndarray = DEFAULT_ALPHA_GRID,
) -> float:
    """Maximal power consistent with rho-zCDP, i.e. gamma = rho * alpha."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    _check_level(level)
    alphas = np.asarray(alpha_grid, dtype=float)
    if alphas.size == 0:
        raise ValueError("alpha grid must be non-empty")
    return _moment_power_bound(level, alphas, rho * alphas * (alphas - 1.0))


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
        return _bisect(lambda y: self.type2(y) <= z, 0.0, 1.0, INVERSE_BISECTION_TOL)[1]


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

    def inverse_type2(self, z: float) -> float:
        """Generalized inverse inf{y : type2(y) <= z} by vertex search."""
        if z >= self.type2(0.0):
            return 0.0
        for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:]):
            f0, f1 = 1.0 - y0, 1.0 - y1
            if f1 <= z <= f0:
                if f0 == f1:
                    return x0
                return x0 + (x1 - x0) * (f0 - z) / (f0 - f1)
        return 1.0


def np_tradeoff_finite(pair: FiniteMechanismPair) -> PiecewiseLinearCurve:
    """Exact Neyman-Pearson trade-off for a finite mechanism pair.

    Outputs are rejected in order of decreasing likelihood ratio p2/p1;
    outputs with equal ratio merge into one segment, which is exactly the
    randomized-test chord.
    """
    groups: dict[float, list[float]] = {}
    for q1, q2 in zip(pair.p1, pair.p2):
        if q1 == 0.0 and q2 == 0.0:
            continue
        ratio = math.inf if q1 == 0.0 else q2 / q1
        acc = groups.setdefault(ratio, [0.0, 0.0])
        acc[0] += q1
        acc[1] += q2
    vertices = [(0.0, 0.0)]
    level = power = 0.0
    for ratio in sorted(groups, reverse=True):
        d1, d2 = groups[ratio]
        level += d1
        power += d2
        vertices.append((level, power))
    last = vertices[-1]
    if abs(last[0] - 1.0) < 1e-9 and abs(last[1] - 1.0) < 1e-9:
        vertices[-1] = (1.0, 1.0)
    else:
        vertices.append((1.0, 1.0))
    return PiecewiseLinearCurve(tuple(vertices))


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


@dataclass(frozen=True)
class ZcdpNumericBoundCurve(TradeoffCurve):
    rho: float
    alpha_grid: tuple[float, ...] = field(default=DEFAULT_ALPHA_GRID, repr=False)

    def power(self, level: float) -> float:
        return zcdp_power_bound(self.rho, level, self.alpha_grid)

    inverse_type2 = TradeoffCurve.inverse_type2


@dataclass(frozen=True)
class RdpNumericBoundCurve(TradeoffCurve):
    points: tuple[tuple[float, float], ...]

    def power(self, level: float) -> float:
        return rdp_power_bound(self.points, level)

    inverse_type2 = TradeoffCurve.inverse_type2


def _bisect(
    pred: Callable[[float], bool], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Bracket the point where a monotone predicate turns true.

    Expects pred(lo) false and pred(hi) true, and keeps it so while halving
    [lo, hi]; stops once the bracket is no wider than `tol` or its midpoint
    rounds onto an end.  Returns the final (lo, hi).
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
