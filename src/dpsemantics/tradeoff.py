"""Significance-level vs. power trade-off curves.

Each curve maps a significance level in [0, 1] to the maximal power any
test distinguishing two neighbors can achieve under the stated privacy
guarantee.  Closed forms cover pure and approximate DP and the Gaussian
mechanism; RDP and zCDP admit only numeric bounds from moment
constraints, located for every level of a curve at once and settled
level by level, by Newton on the binding order, to the last float of the
constraint check; finite mechanisms get their exact Neyman-Pearson curve.
"""

from __future__ import annotations

import math
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


def _orders_of(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """What the moment rows take from their orders alone: (coef, swapped,
    alpha_max) of `_MomentBoundCurve._stacked`, and (alphas - 1) alphas."""
    coef, swapped = np.concatenate((1.0 - alphas, alphas)), np.concatenate((alphas, 1.0 - alphas))
    return coef, swapped, float(alphas.max()), (alphas - 1.0) * alphas


#: `_orders_of(ALPHA_GRID)`, which every zCDP curve shares
_ZCDP_ORDERS = _orders_of(ALPHA_GRID)


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


def rdp_power_bound(points: Iterable[tuple[float, float]], level: float | np.ndarray) -> float | np.ndarray:
    """Maximal power consistent with a set of (alpha, gamma) RDP bounds, at a
    level or at each of a 1-D array of levels."""
    return RdpNumericBoundCurve(tuple(points)).power(level)


def zcdp_power_bound(rho: float, level: float | np.ndarray) -> float | np.ndarray:
    """Maximal power consistent with rho-zCDP, i.e. gamma = rho * alpha, at a
    level or at each of a 1-D array of levels."""
    return ZcdpNumericBoundCurve(rho).power(level)


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
    its mirror image stay below e^L, L = (a-1) gamma.  Subclasses supply the
    orders and the log bounds L as the pair `_constraints`.

    `power` fixes the level and `inverse_type2` the power, each for a float
    or a 1-D array of them; a `_Flip` owns the rows and the check with that
    coordinate fixed, locates every flip at once in log form, and settles
    each one level at a time on the check itself (`_Flip.locate`).  The
    check decides each constraint in ratio form, to within its own error
    bound (see `_Flip`), so it is exact where level = power.
    """

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(coef, swapped, lim, alpha_max) over 2 x orders rows, the constraint then
        its mirror image; `swapped`, coef with its halves swapped, holds the fixed
        exponents; lim is L and alpha_max the largest order."""
        coef, swapped, alpha_max, _ = self._orders
        log_bounds = self._constraints[1]
        return coef, swapped, np.concatenate((log_bounds, log_bounds)), alpha_max

    @cached_property
    def _orders(self) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        """`_orders_of` the curve's orders, shared by every zCDP curve."""
        alphas = self._constraints[0]
        return _ZCDP_ORDERS if alphas is ALPHA_GRID else _orders_of(alphas)

    @cached_property
    def _gaussian_mu(self) -> float:
        """Largest mu whose Gaussian mechanism meets every constraint: its
        divergence at order alpha is alpha mu^2 / 2."""
        with np.errstate(over="ignore", invalid="ignore"):
            return math.sqrt(max(0.0, float(np.min(2.0 * self._constraints[1] / self._orders[3]))))

    def power(self, level: float | np.ndarray) -> float | np.ndarray:
        """Power bound at a level, or at each of a 1-D array of levels.

        The check fails at the returned power p and passes at the float below
        it (or that float is the level), so p lies at most one float above a
        power the check passes.  The check can flip more than once within a
        few floats, so p need not be the smallest power at which it fails.
        At level 0 the second constraint carries power^alpha * 0^(1-alpha),
        infinite for any positive power; level 1 is trivially unconstrained.
        Each level gets the answer its own call gives: levels share only the
        log-form locating.
        """
        levels, scalar = _vector(level)
        if not ((levels >= 0.0) & (levels <= 1.0)).all():  # NaN fails both
            raise ValueError("significance level must lie in [0, 1]")
        # levels 0 and 1 are their own powers (+ 0.0 turns -0.0 into 0.0)
        out = self._located(levels, (levels > 0.0) & (levels < 1.0), True, lambda: levels + 0.0)
        return float(out[0]) if scalar else out

    def inverse_type2(self, z: float | np.ndarray) -> float | np.ndarray:
        """Generalized inverse inf{y : 1 - power(y) <= z}, at a z or at each of
        a 1-D array of them, exact to the last float.

        That is the smallest level at which power 1 - z is feasible, found
        without calling `power`: feasibility only grows with the level, and
        level 1 - z itself is always feasible.  The check passes at the
        returned level y and fails at the float below it (or y is 0).  A NaN
        z gives NaN.
        """
        zs, scalar = _vector(z)
        w = 1.0 - zs
        # power 1 (or more) is feasible only at level 1
        out = self._located(w, (zs < 1.0) & (w < 1.0), False, lambda: np.where(zs >= 1.0, 0.0, np.minimum(w, 1.0)))
        return float(out[0]) if scalar else out

    def _located(
        self, us: np.ndarray, inner: np.ndarray, rising: bool, edges: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """`_Flip.locate` at the us where `inner`, and `edges()` elsewhere."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if inner.size and inner.all():
                return _Flip(self, us, rising).locate()
            out = edges()
            if inner.any():
                out[inner] = _Flip(self, us[inner], rising).locate()
            return out


class _Flip:
    """Where the moment check with one coordinate u fixed flips, along v, for
    each u of a 1-D array of them.

    With `rising`, v is the power at level u: the check passes from v = u
    up to the flip and fails above it, up to v = 1.  Otherwise v is the level
    at power u: the check fails from v = 0 up to the flip and passes above.
    Row k of the first half is the constraint at (a, b) = (u, v), of the
    mirror half the one at (a, b) = (v, u).  Its value is
    f_k = ln(P1 + P2) - L with P1 = a e^E1, P2 = (1 - a) e^E2,
    E1 = (alpha - 1) ln(a / b) and E2 = (alpha - 1) ln((1 - a) / (1 - b)),
    and the check passes iff every f_k is at most its error bound (`_row`).
    Each row has its own flip, a root of f_k in t = log(v / (1 - v)), and the
    check flips at the first root met going out from the feasible side.
    The bracket (lo, hi) has the check's answer `rising` at lo and the other
    answer at hi.  The ends of the whole range, 0 and 1, are taken as
    failing and never evaluated; the level u and the power u pass, as every
    E is exactly 0 there and L >= 0.

    `locate` makes the picks for every u at once, on (levels x rows)
    arrays of the rows' log form (`_steps`); the exact code (`feasible`,
    `_row`, `_root`, `_row_flip`, `_settle`) then runs one u at a time, on
    the u that `_at` selected last.  A new `_Flip` selects its first u.

    The check at v screens every row in log space first: logaddexp(x, y)
    with x = fixed_x + coef log v and y = fixed_y + coef log(1 - v), which
    lies in [max(x, y), max + ln 2], against L.  Only the rows whose log
    form lies within `band` of L, which bounds the log form's error plus
    twice the rows' own error bounds, are decided by `_row`; the others
    answer as `_row` would.
    """

    def __init__(self, curve: _MomentBoundCurve, u: float | np.ndarray, rising: bool) -> None:
        self.coef, self.swapped, self.lim, self.alpha_max = curve._stacked
        self.orders, self.rising, self.mu = self.coef.size // 2, rising, curve._gaussian_mu
        self.us = np.asarray(u, dtype=float).reshape(-1)
        self.lus, self.l1us, self.i = np.log(self.us), np.log1p(-self.us), -1
        self._at(0)

    def _at(self, i: int) -> None:
        """Select u = us[i] for the exact code, with the whole bracket."""
        if i != self.i:
            self.i, self.u = i, float(self.us[i])
            lu, l1u = math.log(self.u), math.log1p(-self.u)
            self.fixed_x, self.fixed_y, self.log_u = self.swapped * lu, self.swapped * l1u, lu + l1u
        self.lo, self.hi = (self.u, 1.0) if self.rising else (0.0, self.u)

    def locate(self) -> np.ndarray:
        """The check's flip at every u: the float at which the check fails
        (for a power) or passes (for a level) while the float below gives
        the other answer, with 0 and 1 taken as failing.

        The picks run for every u at once, on (levels x rows) arrays of the
        rows' log form (`_steps`): every _STRIDE-th order takes one Newton
        step from the power or level of the Gaussian mechanism that meets
        every constraint, or from the middle of the bracket where that start
        rounds onto an end of it, and the order landing nearest the feasible
        end is picked (`_pick`), then picked again among its neighbours from
        where it lands (`_repick`).  Each u then settles alone, on the exact
        check (`_settle`)."""
        starts = []
        for u in self.us.tolist():
            lo, hi = (u, 1.0) if self.rising else (0.0, u)
            v = phi(phi_inv(u) + self.mu) if self.rising else phi(phi_inv(u) - self.mu)
            starts.append([_logit(v if lo < v < hi else 0.5 * (lo + hi))])
        # per-level values are (n, 1) columns, broadcast against the rows
        every, t_u = slice(None), (self.lus - self.l1us)[:, None]
        t_lo, t_hi = (t_u, math.inf) if self.rising else (-math.inf, t_u)
        rows = np.arange(0, self.coef.size, _STRIDE if self.orders > _NEIGHBORS else 1)
        ks, ts = self._repick(every, *self._pick(every, np.array(starts), rows, t_lo, t_hi), t_lo, t_hi)
        picks = zip(ks[:, 0].tolist(), ts[:, 0].tolist())
        return np.array([self._settle(i, k, t) for i, (k, t) in enumerate(picks)])

    def _settle(self, i: int, k: int, t: float) -> float:
        """`locate`'s answer at us[i], from row k (k < 0 for none) and a
        guess t for its root.

        Each round solves the row (`_root`) and steps from its root to the
        row's own adjacent floats (`_row_flip`).  The check fails at the
        row's failing float, as it fails wherever a row fails, and one full
        check at its passing float ends the search where it passes.  Where
        it fails, that float becomes the bracket's failing end, and the rows
        whose roots lie nearest are decided there (`_failing_neighbour`):
        after the first round, whose full check mostly passes, before the
        full check, which then mostly fails.  A failing neighbour is solved
        next, but not twice in a row: roots can drift by one order per round
        for dozens of orders.  Otherwise the next pick is made among the rows
        that fail at the new end, from there, and the neighbour stands in
        where that pick finds no row or one that passes there, as the log
        form can pick the row just solved.  Without a pick, without a row
        that flips inside the bracket, or after _NEWTON_ROUNDS rounds,
        bisecting the full check finishes the search."""
        self._at(i)
        stepped = False
        for n in range(_NEWTON_ROUNDS):
            if k < 0:
                break
            if (ends := self._row_flip(k, self._root(k, t))) is None:
                break
            fail, ok = ends
            near = self._failing_neighbour(k, ok) if n else None
            if near is None and self.feasible(ok):
                return fail if self.rising else ok
            if not n:
                near = self._failing_neighbour(k, ok)
            if self.rising:
                self.hi = ok
            else:
                self.lo = ok
            if near is not None and not stepped:
                k, t, stepped = near, _logit(ok), True
                continue
            one, t_lo, t_hi = slice(i, i + 1), np.array([[_logit(self.lo)]]), np.array([[_logit(self.hi)]])
            pick = self._pick(one, np.array([[_logit(ok)]]), np.arange(self.coef.size), t_lo, t_hi, True)
            pick = self._repick(one, *pick, t_lo, t_hi)
            k, t, stepped = int(pick[0][0, 0]), float(pick[1][0, 0]), False
            if near is not None and (k < 0 or self._passes(k, ok)):
                k, t = near, _logit(ok)
        return _bisect(lambda v: self.feasible(v) != self.rising, self.lo, self.hi)[1]

    def feasible(self, v: float) -> bool:
        """Whether (u, v) meets every row, for v in (0, 1).  Callers ignore
        overflow and invalid-value warnings: huge orders overflow, and inf
        and NaN screen as they compare (NaN fails)."""
        lv, l1v = math.log(v), math.log1p(-v)
        x = self.fixed_x + self.coef * lv
        y = self.fixed_y + self.coef * l1v
        band = _BAND * (1.0 - self.alpha_max * (self.log_u + lv + l1v))
        top = np.maximum(x, y) - self.lim
        if not top.max() <= band:
            return False
        open_ = (top > -_LN2 - band).nonzero()[0]
        over = np.logaddexp(x.take(open_), y.take(open_)) - self.lim.take(open_)
        worst = over.max(initial=-math.inf)
        if worst < -band or worst > band:
            return worst < -band
        return all(self._passes(k, v) for k in open_[over >= -band])

    def _failing_neighbour(self, k: int, v: float) -> int | None:
        """The first row to fail at v among the orders next to row k on its
        side and its mirror twin at the same order, or None.  Their roots
        lie nearest row k's, closer than the log form can separate."""
        side, (d1, d2) = k - k % self.orders, self._ratios(v)
        near = [j for j in (k - 1, k + 1) if side <= j < side + self.orders]
        near.append((k + self.orders) % self.coef.size)
        return next((j for j in near if self._row(j, v, d1, d2)[0] > 0.0), None)

    def _row_flip(self, k: int, r: float) -> tuple[float, float] | None:
        """(fail, ok): adjacent floats at which row k fails and passes,
        found from its root r: a step of one float toward the row's
        other answer, then steps doubling in length until the answer changes,
        and a bisection of the last step; None where the row keeps its answer
        up to the end of the bracket.  The ends of the whole range are taken
        as failing, as the check fails there."""

        def high(v: float) -> bool:  # the row's answer on the side of hi
            return v >= 1.0 or (v > 0.0 and self._passes(k, v) != self.rising)

        v = min(max(r, self.lo), self.hi)
        side, gap = high(v), math.ulp(v)
        while v != (end := self.lo if side else self.hi):
            w = max(v - gap, end) if side else min(v + gap, end)
            if high(w) != side:
                lo, hi = _bisect(high, *((w, v) if side else (v, w)))
                return (hi, lo) if self.rising else (lo, hi)
            v, gap = w, 2.0 * gap
        return None

    def _passes(self, k: int, v: float) -> bool:
        """Whether row k holds at v, by `_row`."""
        return self._row(k, v, *self._ratios(v))[0] <= 0.0

    def _ratios(self, v: float) -> tuple[float, float]:
        """ln(u / v) and ln((1 - u) / (1 - v)), each to a few ulps."""
        return _log_ratio(self.u, v, self.u - v), _log_ratio(1.0 - self.u, 1.0 - v, v - self.u)

    def _row(self, k: int, v: float, d1: float, d2: float) -> tuple[float, float]:
        """(f_k - tol, P1 / (P1 + P2)) at v, tol a bound on the error of f_k.

        d1 and d2 are `_ratios(v)`.  While E1, E2 <= 700, ln(P1 + P2) is
        log1p(S) with S = a expm1(E1) + (1 - a) expm1(E2), which is exact at
        a = b and does not cancel as alpha nears 1; to first order its error
        is at most 11 eps (T1 (1 + |E1|) + T2 (1 + |E2|)) / (1 + S)
        + 3 eps |ln(1 + S)|, T1 and T2 the two terms' magnitudes and
        eps = 2^-53, if each libm call errs by at most 1 ulp, plus a few
        2^-1075 where a result underflows.  Above, it is the logaddexp of
        p = ln a + E1 and q = ln(1 - a) + E2, with error at most
        16 eps (1 + |E1| + |E2| + |p| + |q| + |ln(P1 + P2)|).  tol is _ETA
        times the bracketed sums, twice these bounds; the first sum counts
        underflow as 2^-1022, which adds 2^-1070 = 32 x 2^-1075 to tol."""
        am1 = -float(self.coef[k % self.orders])
        a, e1, e2 = (self.u, am1 * d1, am1 * d2) if k < self.orders else (v, -am1 * d1, -am1 * d2)
        if max(e1, e2) <= 700.0:  # expm1 cannot overflow
            t1, t2 = a * math.expm1(e1), (1.0 - a) * math.expm1(e2)
            g, terms = math.log1p(t1 + t2), abs(t1) * (1.0 + abs(e1)) + abs(t2) * (1.0 + abs(e2))
            err = terms / (1.0 + t1 + t2) + abs(g) + 2.0**-1022
        else:
            p, q = math.log(a) + e1, math.log1p(-a) + e2
            g = max(p, q) + math.log1p(math.exp(-abs(p - q)))
            err = 1.0 + abs(e1) + abs(e2) + abs(p) + abs(q) + abs(g)
        return g - float(self.lim[k]) - _ETA * err, math.exp(math.log(a) + e1 - g)

    def _steps(self, i: slice, t: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f, landing) for the levels us[i] at t = log(v / (1 - v)), t a
        column, over `rows` (one array for every level, or one row of them
        per level): each row's value f in log form, and where one Newton step
        from t lands.

        Only choices and guesses rest on these, so f is taken in log form,
        logaddexp(x, y) - L.  Its slope is coef (wx - v), with wx the weight
        of x, formed directly, so it keeps its sign where wx and v are both
        far below 1's rounding, as at tiny levels.  Temporaries are reused in
        place, as a curve's re-pick spans (levels x 129) rows."""
        lv, l1v = -np.logaddexp(0.0, -t), -np.logaddexp(0.0, t)
        coef, swapped = self.coef.take(rows), self.swapped.take(rows)
        x, y = swapped * self.lus[i, None], swapped * self.l1us[i, None]
        del swapped
        x += coef * lv
        y += coef * l1v
        g = np.logaddexp(x, y, out=y)
        x -= g
        f = np.subtract(g, self.lim.take(rows), out=g)
        slope = np.exp(x, out=x)  # the weight wx
        slope -= np.exp(lv)
        slope *= coef
        return f, np.subtract(t, np.divide(f, slope, out=slope), out=slope)

    def _pick(
        self, i: slice, t: np.ndarray, rows: np.ndarray, t_lo: np.ndarray | float,
        t_hi: np.ndarray | float, only_failing: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """For the levels us[i]: the row among `rows` (as for `_steps`) whose
        one Newton step from t lands inside the bracket, (t_lo, t_hi) in t,
        nearest its feasible end, and that landing point, as columns; row -1
        (landing +-inf) where there is none.  With `only_failing`, t is a
        finite end of the bracket, and the pick is among the rows that fail
        there."""
        f, land = self._steps(i, t, rows)
        if only_failing:
            # a row that fails at t has its root inside the bracket
            land = np.minimum(np.maximum(land, t_lo), t_hi)
            ok = (f > 0.0) & (land == land)
        else:
            ok = (land > t_lo) & (land < t_hi)
        # nearest the feasible end: lowest for a power, highest for a level
        if self.rising:
            j = (land := np.where(ok, land, np.inf)).argmin(axis=1)
        else:
            j = (land := np.where(ok, land, -np.inf)).argmax(axis=1)
        at = j + np.arange(0, land.size, land.shape[1])  # flat indices
        k = np.where(ok.take(at), rows.take(j if rows.ndim == 1 else at), -1)
        return k[:, None], land.take(at)[:, None]

    def _repick(
        self, i: slice, k: np.ndarray, t: np.ndarray, t_lo: np.ndarray | float, t_hi: np.ndarray | float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Picks (k, t) at the levels us[i], all columns, made again from the
        landing point t among the rows of the same mirror side within
        _NEIGHBORS orders of row k; row k's own step from t is its second.
        Roots are flat in the order near the binding one, so a pick made far
        from the flip is often only near it.  Levels without a re-pick keep
        what they have; a row -1 (no pick) indexes from the end, harmlessly,
        and its neighbours, all negative, stay unpicked."""
        side = k - k % self.orders
        near = np.minimum(np.maximum(k + _NEAR, side), side + (self.orders - 1))
        k2, t2 = self._pick(i, t, near, t_lo, t_hi)
        found = k2 >= 0
        return np.where(found, k2, k), np.where(found, t2, t)

    def _root(self, k: int, t: float) -> float:
        """Root in v of f_k - tol inside the bracket, by Newton in t from the
        guess t, falling back to bisection (or, toward an open end, doubling)
        when a step leaves what is known of the root.  Once t cannot resolve
        a step (below 1e-15 |t|: at tiny levels one ulp of t is thousands of
        ulps of v), Newton goes on in v itself, until a step moves v by a few
        ulps or stops shrinking, where v's rounding makes f jump by more than
        the step would fix."""
        c, ends = float(self.coef[k]), (_logit(self.lo), _logit(self.hi))
        t_pass, t_fail = ends if self.rising else ends[::-1]
        (t, v), last = _inside(t), math.inf
        for _ in range(_NEWTON_STEPS):
            f, w = self._row(k, v, *self._ratios(v))
            t_pass, t_fail = (t_pass, t) if f > 0.0 else (t, t_fail)
            slope = c * ((1.0 - v) * w - v * (1.0 - w))
            step = -f / slope if slope != 0.0 else math.nan
            if abs(step) <= max(1e-15 * abs(t), 2.0**-50 / (1.0 - v)):  # t cannot resolve it
                dv = v * (1.0 - v) * step
                done = abs(step) <= 2.0**-50 / (1.0 - v) or abs(dv) >= 0.5 * last
                v, last = min(max(v + dv, 5e-324), 1.0 - 2.0**-53), abs(dv)
                if done:
                    return v
                t = _logit(v)
                continue
            nxt = t + step
            if not min(t_pass, t_fail) < nxt < max(t_pass, t_fail):
                if math.isinf(t_fail):
                    nxt = t + (t - t_pass) + math.copysign(1.0, t_fail)
                else:
                    nxt = 0.5 * (t_pass + t_fail)
            t, v = _inside(nxt)
        return v


#: Iteration caps: Newton steps of one root; rounds of `_Flip._settle` that
#: solve a row before the full check is bisected.
_NEWTON_STEPS = 60
_NEWTON_ROUNDS = 16

#: The first pick looks at every _STRIDE-th order; the picked row's neighbors
#: within _NEIGHBORS orders are then looked at from where it lands.
_STRIDE = 64
_NEIGHBORS = 64
_NEAR = np.arange(-_NEIGHBORS, _NEIGHBORS + 1)

#: A row's error bound is _ETA = 32 eps times the sums in `_Flip._row`, twice
#: what rounding can reach.  The screen's band is
#: _BAND (1 + alpha_max |ln u + ln(1 - u) + ln v + ln(1 - v)|): near L the
#: log form errs by at most 5 eps times the second factor, and twice a row's
#: bound is at most 10 _ETA = 320 eps times it, so 512 eps covers both.
_ETA = 2.0**-48
_BAND = 2.0**-44
_LN2 = math.log(2.0)


def _log_ratio(p: float, q: float, diff: float) -> float:
    """ln(p / q) from p, q > 0 and diff = p - q, to a few ulps: log1p of the
    relative difference, which does not cancel where p is near q."""
    r = math.log1p(diff / q) if diff >= 0.0 else -math.log1p(-diff / p)
    return math.log(p) - math.log(q) if math.isinf(r) else r


def _logit(v: float) -> float:
    return -math.inf if v <= 0.0 else math.inf if v >= 1.0 else math.log(v) - math.log1p(-v)


def _expit(t: float) -> float:
    e = math.exp(-abs(t))
    return 1.0 / (1.0 + e) if t >= 0.0 else e / (1.0 + e)


def _inside(t: float) -> tuple[float, float]:
    """(t, v) with v = expit(t), where the floats of (0, 1) nearest the ends
    stand for the ends, and t moves with v onto them: a t far outside their
    logits would stall Newton's steps and bisections."""
    v = _expit(t)
    if 5e-324 <= v <= 1.0 - 2.0**-53:
        return t, v
    v = min(max(v, 5e-324), 1.0 - 2.0**-53)
    return _logit(v), v


def _vector(x: float | np.ndarray) -> tuple[np.ndarray, bool]:
    """x as a 1-D float array, and whether it was a scalar."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError("expected a float or a 1-D array")
    return xs.reshape(-1), xs.ndim == 0


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
        # an infinite order is pure DP, which the order-alpha rows cannot state
        if not all(1.0 < a < math.inf and g >= 0.0 for a, g in self.points):
            raise ValueError("RDP points need a finite alpha > 1 and gamma >= 0")

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
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _check_level(level: float) -> None:
    if not 0.0 <= level <= 1.0:
        raise ValueError("significance level must lie in [0, 1]")
