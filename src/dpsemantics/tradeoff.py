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
    its mirror image stay below e^L, L = (a-1) gamma.  Subclasses supply the
    orders and the log bounds L as the pair `_constraints`.

    `power` fixes the level and `inverse_type2` the power; a `_Flip` owns the
    rows and the check with that coordinate fixed, finds where the check flips
    by safeguarded Newton on the binding order, in the log-odds of the free
    coordinate, and certifies the answer with the check itself.  The check
    decides each constraint in ratio form, to within its own error bound (see
    `_Flip`), so it is exact where level = power and monotone in the free
    coordinate far below the certificate's width.
    """

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(coef, swapped, lim, alpha_max) over 2 x orders rows, the constraint then
        its mirror image; `swapped`, coef with its halves swapped, holds the fixed
        exponents; lim is L and alpha_max the largest order."""
        alphas, log_bounds = self._constraints
        coef, swapped = np.concatenate((1.0 - alphas, alphas)), np.concatenate((alphas, 1.0 - alphas))
        return coef, swapped, np.concatenate((log_bounds, log_bounds)), float(alphas.max())

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
        every constraint, or from the level, which always passes, if the check
        rejects that.  At level 0 the second constraint carries
        power^alpha * 0^(1-alpha), infinite for any positive power; level 1 is
        trivially unconstrained.
        """
        _check_level(level)
        if level in (0.0, 1.0):
            return 0.0 if level == 0.0 else 1.0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            flip = _Flip(self, level, rising=True)
            start = phi(self._gaussian_mu + phi_inv(level))
            if level < start < 1.0 and flip.feasible(start):
                flip.lo = start
            flip.pick_from(flip.lo)
            return flip.bracket(POWER_CERTIFICATE_WIDTH)[1]

    def inverse_type2(self, z: float) -> float:
        """Generalized inverse inf{y : 1 - power(y) <= z}, exact to the last float.

        That is the smallest level at which power 1 - z is feasible, found
        without calling `power`: feasibility only grows with the level, and
        level 1 - z itself is always feasible.  Newton starts from the level
        at which the Gaussian mechanism that meets every constraint reaches
        power 1 - z and certifies a bracket a few dozen ulps wide; bisection
        inside it ends at adjacent floats, on the binding row's scalar check
        and certified by one full check at its end (`_Flip.bisect`).
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
            return flip.bisect(*flip.bracket(_INVERSE_BRACKET_WIDTH))


class _Flip:
    """Where the moment check with one coordinate u fixed flips, along v.

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
    answer at hi.  The ends of the whole range are taken as given, never
    evaluated: 0 fails, 1 fails, and the level u and the power u pass,
    as every E is exactly 0 there and L >= 0.

    The check at v screens every row in log space first: logaddexp(x, y)
    with x = fixed_x + coef log v and y = fixed_y + coef log(1 - v), which
    lies in [max(x, y), max + ln 2], against L.  Only the rows whose log
    form lies within `band` of L, which bounds the log form's error plus
    twice the rows' own error bounds, are decided by `_row`; the others
    answer as `_row` would.
    """

    def __init__(self, curve: _MomentBoundCurve, u: float, rising: bool) -> None:
        self.coef, swapped, self.lim, self.alpha_max = curve._stacked
        self.u, lu, l1u = u, math.log(u), math.log1p(-u)
        self.fixed_x, self.fixed_y, self.log_u = swapped * lu, swapped * l1u, lu + l1u
        self.orders, self.rising = self.coef.size // 2, rising
        self.lo, self.hi = (u, 1.0) if rising else (0.0, u)
        #: (row k, Newton guess for its root in t) to solve next, or None
        self.pick: tuple[int, float] | None = None
        #: the row `_solve` last solved, or None before the first solve
        self.binding: int | None = None

    def feasible(self, v: float) -> bool:
        """Whether (u, v) meets every row, for v in (0, 1).  Callers ignore
        overflow and invalid-value warnings: huge orders overflow, and inf
        and NaN screen as they compare (NaN fails).

        Once `_solve` has set `binding`, that row is decided by `_row` first:
        where it fails, the check fails without the screen, which is the
        answer the screen gives, as it equals deciding every row by `_row`."""
        if self.binding is not None and not self._passes(self.binding, v):
            return False
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

    def bisect(self, lo: float, hi: float) -> float:
        """`_bisect(self.feasible, lo, hi)[1]` for a level (not `rising`),
        with the binding row's scalar check in place of the full one.

        The row's flip b has the row, and so the check, failing at the float
        below it (or that is lo), so b is the check's flip if the check passes
        there; if another row fails at b, the check's flip lies above b, and
        the full bisection goes on from there."""
        if self.binding is None:
            return _bisect(self.feasible, lo, hi)[1]
        k = self.binding
        b = _bisect(lambda v: self._passes(k, v), lo, hi)[1]
        return b if self.feasible(b) else _bisect(self.feasible, b, hi)[1]

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

    def pick_from(self, v: float) -> None:
        """Pick the row to solve first, by a Newton step from a feasible v
        inside the bracket, among every _STRIDE-th order."""
        self.pick = self._pick(v, slice(None, None, _STRIDE if self.orders > _NEIGHBORS else 1))

    def _pick(self, v: float, rows: slice, only_failing: bool = False) -> tuple[int, float] | None:
        """The row among `rows` whose one Newton step from v lands inside the
        bracket nearest its feasible end, with that landing point in t; None
        if there is none.  With `only_failing`, v is an end of the bracket,
        and the pick is among the rows that fail there.

        The step is approximate, as only the choice rests on it: f is taken in
        log form, and e^-|x-y| is floored at e^-40, which can only raise f, by
        at most 5e-18."""
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
        """Root of f_k - tol inside the bracket, by Newton in t from the guess
        t, falling back to bisection (or, toward an open end, doubling) when
        a step leaves what is known of the root."""
        c, ends = float(self.coef[k]), (_logit(self.lo), _logit(self.hi))
        t_pass, t_fail = ends if self.rising else ends[::-1]
        for _ in range(_NEWTON_STEPS):
            # the floats of (0, 1) nearest the ends stand for the ends
            v = min(max(_expit(t), 5e-324), 1.0 - 2.0**-53)
            f, w = self._row(k, v, *self._ratios(v))
            t_pass, t_fail = (t_pass, t) if f > 0.0 else (t, t_fail)
            slope = c * ((1.0 - v) * w - v * (1.0 - w))
            nxt = t - f / slope if slope != 0.0 else math.nan
            # a step below 1e-15 of t, or one that moves v by a few ulps, where
            # v's rounding makes f jump by more than the step would fix
            if abs(nxt - t) <= max(1e-15 * max(1.0, abs(t)), 2.0**-50 / (1.0 - v)):
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
        k, t = self.pick[0], self._root(*self.pick)
        v, self.binding = _expit(t), k
        if 0.0 < v < 1.0:
            side = k - k % self.orders
            near = slice(max(side, k - _NEIGHBORS), min(side + self.orders, k + _NEIGHBORS + 1))
            pick = self._pick(v, near)
            if pick is not None and (pick[1] < t if self.rising else pick[1] > t):
                v, self.binding = _expit(self._root(*pick)), pick[0]
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
        """
        # without a row to solve, the window lies just inside the end that
        # moved last (for a power without any, the flip lies at 1), once;
        # then at the bracket's midpoint
        nudge, end = (self.hi, self.u) if self.rising else (math.nan, 0.0)
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
