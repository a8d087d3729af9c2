"""Significance-level vs. power trade-off curves.

Each curve maps a significance level in [0, 1] to the maximal power any
test distinguishing two neighbors can achieve under the stated privacy
guarantee.  Closed forms cover pure and approximate DP and the Gaussian
mechanism; RDP and zCDP admit only numeric bounds, each the flip of one
Renyi moment constraint to the last float (for zCDP at the order that a
search over alpha >= 1 finds binding); finite mechanisms get their exact
Neyman-Pearson curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from ._norm import phi, phi_inv
from .plrv import FiniteMechanismPair


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
    """Numeric bound from Renyi moment constraints.

    A test at (level, power) meets order alpha's row iff level^a power^(1-a)
    + (1-level)^a (1-power)^(1-a), and its mirror image, stay below e^L,
    L = (a-1) gamma.  At a fixed level each row holds from the level up to
    its own flip, so any row's flip is a sound bound; a subclass picks the
    row (`_flip`).  Each value of a float or 1-D array is solved alone, so
    an array call answers each as its float call does.  Exact is the row's
    flip, to the last float; approximate is how near the row is to the
    tightest one."""

    def power(self, level: float | np.ndarray) -> float | np.ndarray:
        """Power bound at a level, or at each of a 1-D array of levels: the
        chosen row fails there and holds at the float below (or that float
        is the level).  Level 0 admits only power 0, level 1 any power."""
        levels, scalar = _vector(level)
        if not ((levels >= 0.0) & (levels <= 1.0)).all():  # NaN fails both
            raise ValueError("significance level must lie in [0, 1]")
        out = levels + 0.0  # levels 0 and 1 are their own powers, and -0.0 becomes 0.0
        inner = (levels > 0.0) & (levels < 1.0)
        out[inner] = [self._flip(_Flip(u, True)) for u in levels[inner].tolist()]
        return float(out[0]) if scalar else out

    def inverse_type2(self, z: float | np.ndarray) -> float | np.ndarray:
        """Generalized inverse inf{y : 1 - power(y) <= z}, at a z or at each of
        a 1-D array of them: the smallest level at which power 1 - z is
        feasible, without calling `power` (feasibility grows with the level,
        and level 1 - z is feasible).  The chosen row holds at the returned
        level and fails at the float below it (or that is 0).  NaN gives NaN."""
        zs, scalar = _vector(z)
        w = 1.0 - zs
        # power 1 (or more) is feasible only at level 1
        out = np.where(zs >= 1.0, 0.0, np.minimum(w, 1.0))
        inner = (zs < 1.0) & (w < 1.0)
        out[inner] = [self._flip(_Flip(u, False)) for u in w[inner].tolist()]
        return float(out[0]) if scalar else out


class _Flip:
    """Where a moment row flips along v, with the other coordinate u fixed:
    with `rising` v is the power at level u, and a row holds from v = u up
    to its flip; else v is the level at power u, and a row holds from its
    flip up to u.  A row (lam, mirror, L), lam = alpha - 1, is the
    constraint at (a, b) = (u, v), or at (v, u) with `mirror`:
    f = ln(a e^E1 + (1 - a) e^E2) - L, E1 = lam ln(a / b) and
    E2 = lam ln((1 - a) / (1 - b)); lam = 0 is its limit over lam, the
    Kullback-Leibler (KL) row a ln(a / b) + (1 - a) ln((1 - a) / (1 - b)) - L.
    The ends 0 and 1 are taken as failing and never evaluated; v = u holds,
    as every term is exactly 0 there and L >= 0."""

    def __init__(self, u: float, rising: bool) -> None:
        self.u, self.rising = u, rising
        self.lo, self.hi = (u, 1.0) if rising else (0.0, u)

    def start(self, mu: float) -> float:
        """A first t = log(v / (1 - v)): v of the Gaussian mechanism mu, or
        the float next to u (the bracket's middle) where v rounds onto u (hi)."""
        u, rising = self.u, self.rising
        v = phi(phi_inv(u) + mu) if rising else phi(phi_inv(u) - mu)
        if (v <= u) if rising else (v >= u):
            v = math.nextafter(u, 1.0 if rising else 0.0)
        return _logit(v if self.lo < v < self.hi else 0.5 * (self.lo + self.hi))

    def _row_flip(self, row: tuple[float, bool, float], r: float) -> float:
        """The row's flip from its root r, the float where it fails (a power)
        or holds (a level) and the float below does not: a step of one float
        toward its other answer, steps doubling until that answer, and a
        bisection of the last; lo and hi keep their known answers."""

        def high(v: float) -> bool:  # the row's answer on the side of hi
            return v >= self.hi or (v > self.lo and (self._row(row, v, *self._ratios(v))[0] <= 0.0) != self.rising)

        v = min(max(r, self.lo), self.hi)
        side, gap = high(v), math.ulp(v)
        while True:
            w = max(v - gap, self.lo) if side else min(v + gap, self.hi)
            if high(w) != side:
                return _bisect(high, *((w, v) if side else (v, w)))[1]
            v, gap = w, 2.0 * gap

    def _ratios(self, v: float) -> tuple[float, float]:
        """ln(u / v) and ln((1 - u) / (1 - v)), each to a few ulps."""
        return _log_ratio(self.u, v, self.u - v), _log_ratio(1.0 - self.u, 1.0 - v, v - self.u)

    def _row(self, row: tuple[float, bool, float], v: float, d1: float, d2: float) -> tuple[float, float]:
        """(f - tol, df/dt) of the row at v, d1 and d2 `_ratios(v)`, tol a
        bound on the error of f and t = log(v / (1 - v)); it holds iff <= 0.

        While E1, E2 <= 700, ln(P1 + P2) is log1p(S), S = a expm1(E1) +
        (1 - a) expm1(E2), exact at a = b and not cancelling as alpha nears
        1; to first order its error is at most 11 eps (T1 (1 + |E1|) +
        T2 (1 + |E2|)) / (1 + S) + 3 eps |ln(1 + S)|, T1 and T2 the terms'
        magnitudes and eps = 2^-53, if each libm call errs by at most 1 ulp,
        plus a few 2^-1075 where a result underflows.  Above, it is the
        logaddexp of p = ln a + E1 and q = ln(1 - a) + E2, with error at most
        16 eps (1 + |E1| + |E2| + |p| + |q| + |ln(P1 + P2)|).  The KL row's
        T1 + T2 errs by at most 8 eps (|T1| + |T2|).  tol is _ETA times the
        bracketed sums, at least twice these bounds; underflow counts as
        2^-1022, adding 2^-1070 = 32 x 2^-1075.  L's rounding, a few eps L,
        is covered by the |ln(P1 + P2)| (or |T1 + T2|) term where f is near 0."""
        lam, mirror, lim = row
        a, d1, d2 = (v, -d1, -d2) if mirror else (self.u, d1, d2)
        if lam == 0.0:
            t1, t2 = a * d1, (1.0 - a) * d2
            slope = v * (1.0 - v) * (d1 - d2) if mirror else v - self.u
            return t1 + t2 - lim - _ETA * (abs(t1) + abs(t2) + 2.0**-1022), slope
        e1, e2 = lam * d1, lam * d2
        if max(e1, e2) <= 700.0:  # expm1 cannot overflow
            t1, t2 = a * math.expm1(e1), (1.0 - a) * math.expm1(e2)
            g, terms = math.log1p(t1 + t2), abs(t1) * (1.0 + abs(e1)) + abs(t2) * (1.0 + abs(e2))
            err = terms / (1.0 + t1 + t2) + abs(g) + 2.0**-1022
        else:
            p, q = math.log(a) + e1, math.log1p(-a) + e2
            g = max(p, q) + math.log1p(math.exp(-abs(p - q)))
            err = 1.0 + abs(e1) + abs(e2) + abs(p) + abs(q) + abs(g)
        w = math.exp(math.log(a) + e1 - g)  # P1 / (P1 + P2)
        slope = (1.0 + lam if mirror else -lam) * ((1.0 - v) * w - v * (1.0 - w))
        return g - lim - _ETA * err, slope

    def _root(self, value: Callable[[float, float, float], tuple[float, float]], t: float) -> float:
        """Root in v of `value(v, *_ratios(v))`, an (f - tol, df/dt) as from
        `_row`, by Newton in t from the guess t, bisecting (or doubling toward
        an open end) where a step leaves what is known of the root.  Once t
        cannot resolve a step (at tiny levels one ulp of t is thousands of
        ulps of v), Newton goes on in v, until a step moves v by a few ulps
        or stops shrinking, where v's rounding makes f jump by more."""
        ends = (_logit(self.lo), _logit(self.hi))
        t_pass, t_fail = ends if self.rising else ends[::-1]
        (t, v), last = _inside(t), math.inf
        for _ in range(_NEWTON_STEPS):
            f, slope = value(v, *self._ratios(v))
            t_pass, t_fail = (t_pass, t) if f > 0.0 else (t, t_fail)
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
                nxt = 0.5 * (t_pass + t_fail) if math.isfinite(t_fail) else t + (t - t_pass) + math.copysign(1.0, t_fail)
            prev, (t, v) = v, _inside(nxt)
            if v == prev:  # held at an end of (0, 1), where f keeps its sign
                return v
        return v


#: Iteration cap of a root and of `_most_violated`, which stops once a step
#: in ln |x| is below _ORDER_TOL (the next would be near its square) and
#: looks no further out than |x| = e^_LN_X_MAX.  A row's error bound is
#: _ETA = 32 eps times the sums in `_Flip._row`, twice what rounding reaches.
_NEWTON_STEPS = 60
_ORDER_TOL = 1e-5
_LN_X_MAX = 40.0
_ETA = 2.0**-48


def _log_ratio(p: float, q: float, diff: float) -> float:
    """ln(p / q) from p, q > 0 and diff = p - q, to a few ulps: log1p of the
    relative difference, which does not cancel where p is near q."""
    r = math.log1p(diff / q) if diff >= 0.0 else -math.log1p(-diff / p)
    return math.log(p) - math.log(q) if math.isinf(r) else r


def _tilt(a: float, x: float) -> tuple[float, float, float]:
    """(phi(x) - a, phi'(x), phi''(x)) for phi(x) = h(x) / x, h(x) =
    ln(1 - a + a e^x) a Bernoulli(a) cumulant function: a row's divergence
    ln(P1 + P2) / lam is E2 / lam + delta phi(lam delta), delta = ln(a / b)
    - ln((1 - a) / (1 - b)).  For a > 1/2 it uses phi_a(x) = 1 - phi_(1-a)(-x),
    and near x = 0, where the closed forms cancel, the cumulants' series."""
    sign = 1.0
    if a > 0.5:
        a, x, sign = 1.0 - a, -x, -1.0
    q = a * (1.0 - a)
    if abs(x) < 1e-3:
        k3, k4 = q * (1.0 - 2.0 * a), q * (1.0 - 6.0 * q)
        p0 = x * (q / 2.0 + x * (k3 / 6.0 + x * k4 / 24.0))
        return sign * p0, q / 2.0 + x * (k3 / 3.0 + x * k4 / 8.0), sign * (k3 / 3.0 + x * k4 / 4.0)
    if x > 0.0:  # h = x + ln(a + e), and x w - h = -x w_bar - ln(a + e) keeps its digits
        e = (1.0 - a) * math.exp(-x)
        w, w_bar, ln_ae = a / (a + e), e / (a + e), math.log(a + e)
        p0, p1 = 1.0 - a + ln_ae / x, (-x * w_bar - ln_ae) / (x * x)
    else:
        e = a * math.expm1(x)
        h, w, w_bar = math.log1p(e), (a + e) / (1.0 + e), (1.0 - a) / (1.0 + e)
        p0, p1 = h / x - a, (x * w - h) / (x * x)
    return sign * p0, p1, sign * (w * w_bar - 2.0 * p1) / x


def _most_violated(a: float, dd: float, rho: float, x: float) -> float:
    """x = lam delta at the order where a zCDP row at (a, delta) over lam,
    F(lam) = R(lam) - rho (1 + lam), is largest, from a guess x (0.0 for
    none); 0.0 for lam -> 0, the KL row.  F' = delta^2 phi'(x) - rho
    (`_tilt`), and phi' rises to one peak and falls to 0 as 1 / x^2 on
    either side, so away from lam = 0 F peaks where phi' falls through
    c = rho / delta^2 along delta's sign: Newton in s = ln |x| on
    ln(phi' / c), nearly linear there, inside the bracket its sign gives.
    Where phi'(0) <= c, F falls from lam = 0 first: a point where phi'
    still rises and is below c ends the search, and F(x) is set against
    F(0)."""
    ln_c = math.log(rho) - 2.0 * math.log(abs(dd))
    rises = math.log(a) + math.log1p(-a) - math.log(2.0) > ln_c  # phi'(0) = a (1 - a) / 2 > c
    if not rises and (a < 0.5) != (dd > 0.0):
        return 0.0  # phi' only falls from phi'(0) along delta's sign
    if not x:  # where phi' falls as -ln(a) / x^2 (x > 0) or as -ln(1 - a) / x^2
        x = dd * math.exp(0.5 * (math.log(-(math.log(a) if dd > 0.0 else math.log1p(-a))) - math.log(rho)))
    s, lo, hi = min(math.log(abs(x)), _LN_X_MAX), -math.inf, math.inf  # phi' > c left of lo
    for _ in range(_NEWTON_STEPS):
        x = math.copysign(math.exp(s), dd)
        p0, p1, p2 = _tilt(a, x)
        g, slope = (math.log(p1) - ln_c, x * p2 / p1) if p1 > 0.0 else (-math.inf, -1.0)
        if g > 0.0 and s >= _LN_X_MAX:
            break  # F still rises at the largest order looked at
        if not (g > 0.0 or slope < 0.0):
            return 0.0
        lo, hi = (s, hi) if g > 0.0 else (lo, s)
        step = min(max(-g / slope, -2.0), 2.0) if slope < 0.0 else 1.0
        if abs(step) <= _ORDER_TOL:
            x = math.copysign(math.exp(s + step), dd)
            break
        nxt = min(s + step, _LN_X_MAX)  # else bisect, or step out toward an open end
        s = nxt if lo < nxt < hi else 0.5 * (lo + hi) if math.isfinite(lo + hi) else s + math.copysign(1.0, step)
    # F(x) - F(0) = delta (phi(x) - a) - rho x / delta
    return x if rises or dd * p0 > rho * x / dd else 0.0


def _logit(v: float) -> float:
    return -math.inf if v <= 0.0 else math.inf if v >= 1.0 else math.log(v) - math.log1p(-v)


def _inside(t: float) -> tuple[float, float]:
    """(t, v) with v = expit(t), the floats of (0, 1) nearest the ends
    standing for them, t moved with v: a t far outside their logits would
    stall Newton's steps and bisections."""
    e = math.exp(-abs(t))
    v = 1.0 / (1.0 + e) if t >= 0.0 else e / (1.0 + e)
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
    """rho-zCDP bound: gamma = rho * alpha at every order alpha > 1, and the
    KL row, the limit alpha -> 1, with bound rho."""

    rho: float

    def __post_init__(self) -> None:
        if not self.rho > 0:
            raise ValueError("rho must be positive")

    def _flip(self, flip: _Flip) -> float:
        """The tighter side's flip, each at the order its search picks."""
        sides = (self._search(flip, mirror) for mirror in (False, True))
        return (min if flip.rising else max)(flip._row_flip(row, v) for v, row in sides)

    def _search(self, flip: _Flip, mirror: bool) -> tuple[float, tuple[float, bool, float]]:
        """(v, row): one side's (`mirror` or not) row at the order whose flip
        is tightest, and the root v of its flip.  The side's rows over
        lam = alpha - 1 are F(lam) = R(lam) - rho (1 + lam), R the two-point
        divergence of order alpha, F(0) the KL row; v is feasible iff the
        largest F is <= 0.  From the KL row's root, `_root` finds where that
        largest F (`_most_violated`) is 0, with its own row's slope in t
        (the envelope theorem).  Any order is sound; the search decides tightness."""
        rho, u = float(self.rho), flip.u
        kl = (0.0, mirror, rho)
        chosen = [0.0, kl]

        def largest(v: float, d1: float, d2: float) -> tuple[float, float]:
            a, dd = (v, d2 - d1) if mirror else (u, d1 - d2)
            x = _most_violated(a, dd, rho, chosen[0]) if dd else 0.0  # dd = 0: v is u to rounding
            lam = x / dd if x else 0.0
            chosen[0], chosen[1] = x or chosen[0], (lam, mirror, rho * lam * (1.0 + lam)) if x else kl
            return flip._row(chosen[1], v, d1, d2)

        v = flip._root(lambda v, d1, d2: flip._row(kl, v, d1, d2), flip.start(math.sqrt(2.0 * rho)))
        return flip._root(largest, _logit(v)), chosen[1]

    inverse_type2 = _MomentBoundCurve.inverse_type2


@dataclass(frozen=True)
class RdpNumericBoundCurve(_MomentBoundCurve):
    """Bound from a set of (alpha, gamma) RDP points: the tightest of their
    rows' flips, each from the Gaussian mechanism that meets its point (of
    divergence alpha mu^2 / 2)."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("at least one (alpha, gamma) point required")
        # an infinite order is pure DP, which the order-alpha rows cannot state
        if not all(1.0 < a < math.inf and g >= 0.0 for a, g in self.points):
            raise ValueError("RDP points need a finite alpha > 1 and gamma >= 0")

    def _flip(self, flip: _Flip) -> float:
        return (min if flip.rising else max)(
            flip._row_flip(row, flip._root(lambda v, d1, d2: flip._row(row, v, d1, d2), flip.start(math.sqrt(2.0 * g / a))))
            for a, g in self.points
            for row in ((a - 1.0, mirror, g * (a - 1.0)) for mirror in (False, True))
        )

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
