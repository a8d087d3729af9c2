"""Significance-level vs. power trade-off curves.

Each curve maps a significance level in [0, 1] to the maximal power any
test distinguishing two neighbors can achieve under the stated privacy
guarantee.  Closed forms cover pure and approximate DP and the Gaussian
mechanism; RDP and zCDP admit only numeric bounds from moment
constraints, found by Newton on the binding order and certified by the
constraint check; finite mechanisms get their exact Neyman-Pearson curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable

import numpy as np

from ._norm import phi, phi_inv
from .plrv import FiniteMechanismPair

#: Orders alpha of the zCDP moment constraints: log-spaced and wide enough
#: that the optimal alpha for rho in [0.05, 5] and levels >= 0.001 falls
#: strictly inside.
ALPHA_GRID = np.exp(np.linspace(math.log(1.0 + 1e-4), math.log(200.0), 2000))
ALPHA_GRID.flags.writeable = False

#: Relative width of the certificate of the moment-constraint power bound:
#: the check fails at the returned power p and passes at p (1 - width).
POWER_CERTIFICATE_WIDTH = 2.0**-40

#: Relative width of the bracket the moment-constraint inverse certifies
#: before it bisects to adjacent floats: a few dozen ulps.
_INVERSE_BRACKET_WIDTH = 2.0**-47


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
    try:
        raw = min(
            # e^eps at level 0 gains nothing, even where e^eps = inf and inf * 0 is NaN
            (math.exp(eps) * level if level else 0.0) + delta,
            1.0 - math.exp(-eps) * (1.0 - level - delta),
        )
    except OverflowError:
        # e^eps overflows, and 1 - e^-eps (1 - level - delta) rounds to 1
        head = 0.0 if level == 0.0 else math.exp(min(0.0, eps + math.log(level)))
        return min(1.0, head + delta)
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
    return _zcdp_curve(rho).power(level)


@lru_cache(maxsize=1)
def _zcdp_curve(rho: float) -> ZcdpNumericBoundCurve:
    """The last rho's curve, so the levels of one curve (callers ask for
    them in a run) share its constraint rows and Gaussian seed."""
    return ZcdpNumericBoundCurve(rho)


class TradeoffCurve:
    """Trade-off curve: significance level -> maximal power.

    `inverse_type2(z)` is the smallest level at which the power reaches
    1 - z, which the pointwise (eps, delta) conversions need.  Every curve
    class restates `inverse_type2` in its own body, even where it is this
    bisection, because the benchmark's traced run (bench/spans.py) wraps
    that method class by class.
    """

    def power(self, level: float) -> float:
        raise NotImplementedError

    def inverse_type2(self, z: float) -> float:
        """Generalized inverse inf{y in [0,1] : 1 - power(y) <= z}, by bisection."""
        if 1.0 - self.power(0.0) <= z:
            return 0.0
        if 1.0 - self.power(1.0) > z:
            return 1.0
        return _bisect(lambda y: 1.0 - self.power(y) <= z, 0.0, 1.0)[1]


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
    levels, powers = pair._np_vertices[0]
    return PiecewiseLinearCurve(tuple(zip(levels.tolist(), powers.tolist())))


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

    `power` fixes the level and `inverse_type2` the power; a `_Flip` owns the
    rows and the check with that coordinate fixed, finds where the check flips
    by safeguarded Newton on the binding order, in the log-odds of the free
    coordinate, and certifies the answer with the check itself.
    """

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(coef, swapped, lim) over 2 x orders rows, the constraint then its mirror
        image; `swapped`, coef with its halves swapped, holds the fixed exponents."""
        alphas, log_bounds = self._constraints
        coef = np.concatenate((1.0 - alphas, alphas))
        swapped = np.concatenate((alphas, 1.0 - alphas))
        return coef, swapped, np.concatenate((log_bounds, log_bounds)) + 1e-12

    @cached_property
    def _gaussian_mu(self) -> float:
        """Largest mu whose Gaussian mechanism meets every constraint: its
        divergence at order alpha is alpha mu^2 / 2."""
        alphas, log_bounds = self._constraints
        with np.errstate(over="ignore", invalid="ignore"):
            return math.sqrt(max(0.0, float(np.min(2.0 * log_bounds / ((alphas - 1.0) * alphas)))))

    def power(self, level: float) -> float:
        """Smallest power at which the check fails, to a relative 2^-40.

        Certified: the check fails at the returned power p and passes at
        p (1 - POWER_CERTIFICATE_WIDTH) (at the float below p where that
        rounds to p, at the level where either lies below it), so p lies
        above the supremum of the feasible powers, by at most that much.  The
        search starts from the power of the Gaussian mechanism that meets
        every constraint, or from the level if the check rejects that.  At
        level 0 the second constraint carries power^alpha * 0^(1-alpha),
        infinite for any positive power; level 1 is trivially unconstrained.
        """
        _check_level(level)
        if level <= 0.0:
            return 0.0
        if level >= 1.0:
            return 1.0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            flip = _Flip(self, level, rising=True)
            start = phi(self._gaussian_mu + phi_inv(level))
            if level < start < 1.0 and flip.feasible(start):
                flip.lo = start
            elif not flip.feasible(level):
                return level
            flip.pick_from(flip.lo)
            return flip.bracket(POWER_CERTIFICATE_WIDTH)[1]

    def inverse_type2(self, z: float) -> float:
        """Generalized inverse inf{y : 1 - power(y) <= z}, exact to the last float.

        That is the smallest level at which power 1 - z is feasible, found
        without calling `power`: feasibility only grows with the level, and
        level 1 - z itself is always feasible.  Newton starts from the level
        at which the Gaussian mechanism that meets every constraint reaches
        power 1 - z and certifies a bracket a few dozen ulps wide; bisection
        inside it ends at adjacent floats.
        """
        if z >= 1.0:
            return 0.0
        w = 1.0 - z
        if w >= 1.0:  # power 1 (or more) is feasible only at level 1
            return 1.0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            flip = _Flip(self, w, rising=False)
            start = phi(phi_inv(w) - self._gaussian_mu)
            flip.pick_from(start if 0.0 < start < w else w)
            lo, hi = flip.bracket(_INVERSE_BRACKET_WIDTH)
            return _bisect(flip.feasible, lo, hi)[1]


class _Flip:
    """Where the moment check with one coordinate u fixed flips, along v.

    With `rising`, v is the power at level u: the check passes from v = u
    up to the flip and fails above it, up to v = 1.  Otherwise v is the level
    at power u: the check fails from v = 0 up to the flip and passes above.
    Each order and mirror row k has its own flip, a root of
    f_k(t) = logaddexp(x_k, y_k) - lim_k in t = log(v / (1 - v)), and the
    check flips at the first root met going out from the feasible side.
    The bracket (lo, hi) has the check's answer `rising` at lo and the other
    answer at hi.  The ends of the whole range, `whole`, are taken as given,
    never evaluated: 0 fails, 1 fails, and the level u and the power u pass
    while the 1e-12 slack covers the rounding of a log u + (1 - a) log u: at
    orders up to about 1e4, every zCDP order, but not at a single order 3e4,
    which fails at (0.5, 0.5); so `power` checks the level itself.

    The check at v is logaddexp(x, y) <= lim at every row, with x = fixed_x +
    coef log v and y = fixed_y + coef log(1 - v).  It is screened exactly: the
    computed logaddexp lies in [max(x, y), fl(max + ln 2)], so a row with
    max > lim fails and one with fl(max + 1) <= lim holds; only the rest reach logaddexp.
    """

    def __init__(self, curve: _MomentBoundCurve, u: float, rising: bool) -> None:
        self.coef, swapped, self.lim = curve._stacked
        self.fixed_x, self.fixed_y = swapped * math.log(u), swapped * math.log1p(-u)
        self.orders = self.coef.size // 2
        self.rising = rising
        self.lo, self.hi = self.whole = (u, 1.0) if rising else (0.0, u)
        #: (row k, Newton guess for its root in t) to solve next, or None
        self.pick: tuple[int, float] | None = None

    def feasible(self, v: float) -> bool:
        """Whether (u, v) meets every row, for v in (0, 1).  Callers ignore
        overflow and invalid-value warnings: huge orders overflow, and inf
        and NaN screen as they compare."""
        x = self.fixed_x + self.coef * math.log(v)
        y = self.fixed_y + self.coef * math.log1p(-v)
        top = np.maximum(x, y)
        if (top > self.lim).any():
            return False
        open_ = ~(top + 1.0 <= self.lim)
        return bool((np.logaddexp(x[open_], y[open_]) <= self.lim[open_]).all())

    def pick_from(self, v: float) -> None:
        """Pick the row to solve first, by a Newton step from a feasible v
        inside the bracket, among every _STRIDE-th order."""
        self.pick = self._pick(v, slice(None, None, _STRIDE if self.orders > _NEIGHBORS else 1))

    def _pick(self, v: float, rows: slice, only_failing: bool = False) -> tuple[int, float] | None:
        """The row among `rows` whose one Newton step from v lands inside the
        bracket nearest its feasible end, with that landing point in t; None
        if there is none.  With `only_failing`, v is an end of the bracket,
        and the pick is among the rows that fail there.

        The step is approximate, as only the choice rests on it: e^-|x-y| is
        floored at e^-40, which can only raise f, by at most 5e-18."""
        lv, l1v = math.log(v), math.log1p(-v)
        coef = self.coef[rows]
        x = self.fixed_x[rows] + coef * lv
        y = self.fixed_y[rows] + coef * l1v
        d = x - y
        e = np.exp(-np.minimum(np.abs(d), 40.0))
        f = np.maximum(x, y) + np.log1p(e) - self.lim[rows]
        # df/dt = coef ((1 - v) wx - v wy), with wy = 1 - wx the weight of y
        wy = np.where(d >= 0.0, e, 1.0) / (1.0 + e)
        t = (lv - l1v) - f / (coef * ((1.0 - v) - wy))
        if only_failing:
            # a row that fails at v has its root inside the bracket
            t = np.clip(t, _logit(self.lo), _logit(self.hi))
            ok = (f > 0.0) & ~np.isnan(t)
        else:
            ok = (t > _logit(self.lo)) & (t < _logit(self.hi))
        if not ok.any():
            return None
        # nearest the feasible end: lowest for a power, highest for a level
        k = int(np.argmin(np.where(ok, t, np.inf)) if self.rising else np.argmax(np.where(ok, t, -np.inf)))
        return range(self.coef.size)[rows][k], float(t[k])

    def _root(self, k: int, t: float) -> float:
        """Root of f_k inside the bracket, by Newton in t from the guess t,
        falling back to bisection (or, toward an open end, doubling) when a
        step leaves what is known of the root."""
        c, fx, fy, lim = (float(a[k]) for a in (self.coef, self.fixed_x, self.fixed_y, self.lim))
        t_pass, t_fail = _logit(self.lo), _logit(self.hi)
        if not self.rising:
            t_pass, t_fail = t_fail, t_pass
        for _ in range(_NEWTON_STEPS):
            lv = -math.log1p(math.exp(-t)) if t >= 0.0 else t - math.log1p(math.exp(t))
            l1v = lv - t
            x, y = fx + c * lv, fy + c * l1v
            cv = max(x, y) + math.log1p(math.exp(-abs(x - y)))
            f = cv - lim
            if f > 0.0:
                t_fail = t
            else:
                t_pass = t
            slope = c * (math.exp(x - cv + l1v) - math.exp(y - cv + lv))
            nxt = t - f / slope if slope != 0.0 else math.nan
            if abs(nxt - t) <= 1e-15 * max(1.0, abs(t)):
                return nxt
            if not min(t_pass, t_fail) < nxt < max(t_pass, t_fail):
                if math.isinf(t_fail):
                    nxt = t + (t - t_pass) + math.copysign(1.0, t_fail)
                else:
                    nxt = 0.5 * (t_pass + t_fail)
            t = nxt
        return t

    def _solve(self) -> float:
        """Root in v of the binding row, starting from the pick.  Roots are
        flat in the order near the binding one, so a pick made far from the
        flip is often only near it: the rows of the same mirror side within
        _NEIGHBORS orders predict their roots from the first root, and the
        nearest of them is solved instead if it comes first."""
        k, t = self.pick
        t = self._root(k, t)
        v = _expit(t)
        if 0.0 < v < 1.0:
            side = k - k % self.orders
            near = slice(max(side, k - _NEIGHBORS), min(side + self.orders, k + _NEIGHBORS + 1))
            pick = self._pick(v, near)
            if pick is not None and (pick[1] < t if self.rising else pick[1] > t):
                v = _expit(self._root(*pick))
        return v

    def bracket(self, width: float) -> tuple[float, float]:
        """(a, b) with a = b (1 - width), or the float below b, or the lower
        end of the whole range: the check gives the answer it gives at lo at
        a, and the one it gives at hi at b, so the flip lies between them.

        Each round solves for the binding row's root r and checks the window
        around it, lower end first.  The end that answers as the opposite
        end of the bracket does replaces that end, and the next pick is made
        from it: among the rows that fail there, if it fails.  Every round
        lowers hi or raises lo.  Without a pick the flip is within rounding
        of the end that moved last, and the next window lies just inside it;
        if that fails too, or after _NEWTON_ROUNDS rounds, at the midpoint.
        Orders close to 1 make the check ragged, by about 1e-12 in v: where a
        point below lo answers as hi does, lo falls back to the range's end.
        """
        # without a row to solve, the window lies just inside the end that
        # moved last (for a power without any, the flip lies at 1), once;
        # then at the bracket's midpoint
        nudge = self.hi if self.rising else math.nan
        end = self.whole[0]
        for rounds in range(_CERTIFY_STEPS):
            lo, hi = self.lo, self.hi
            nudged = self.pick is None or rounds >= _NEWTON_ROUNDS
            r = nudge if nudged else self._solve()
            # a root a rounding error outside the bracket: the window just inside
            if lo > 0.0 and lo * (1.0 - width) < r <= lo:
                r = lo * (1.0 + width)
            elif hi < r <= hi * (1.0 + width):
                r = hi
            if not lo < r <= hi:
                r = max(0.5 * (lo + hi), math.nextafter(lo, 1.0))
            b = min(r * (1.0 + 0.5 * width), hi)
            a = max(b * (1.0 - width), end)
            if a == b:  # b (1 - width) rounds to b among subnormals
                a = max(math.nextafter(b, 0.0), end)
            if a not in (lo, end) and self.feasible(a) != self.rising:
                if a < lo:
                    self.lo = end
                self.hi = a
                nudge = math.nan if nudged else a
                self.pick = self._pick(a, slice(None), only_failing=self.rising)
            elif b < hi and self.feasible(b) == self.rising:
                self.lo = b
                nudge = math.nan if nudged else b * (1.0 + width)
                self.pick = self._pick(b, slice(None), only_failing=not self.rising)
            else:
                return a, b
        return self.lo, self.hi


#: Iteration caps: Newton steps of one root; certificate rounds that may
#: solve roots before they fall back to the bracket's midpoint; all rounds,
#: enough for the midpoints to reach adjacent floats anywhere in (0, 1).
_NEWTON_STEPS = 60
_NEWTON_ROUNDS = 16
_CERTIFY_STEPS = 1200

#: The first pick looks at every _STRIDE-th order; a solved row's neighbors
#: within _NEIGHBORS orders then predict their roots from it.
_STRIDE = 8
_NEIGHBORS = 64


def _logit(v: float) -> float:
    if v <= 0.0:
        return -math.inf
    if v >= 1.0:
        return math.inf
    return math.log(v) - math.log1p(-v)


def _expit(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


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


def _bisect(pred: Callable[[float], bool], lo: float, hi: float) -> tuple[float, float]:
    """Bracket the point where a monotone predicate turns true.

    Expects pred(lo) false and pred(hi) true, and keeps it so while halving
    [lo, hi]; stops once its midpoint rounds onto an end, so that lo and hi
    are adjacent floats.  Returns the final (lo, hi).
    """
    while True:
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
