"""Privacy profiles, composition, and conversions between frameworks.

zCDP budgets add linearly; RDP budgets add pointwise in gamma at shared
orders.  Both convert into tail bounds delta(eps), and trade-off curves
convert into the pointwise-bounded (eps, delta) parametrization via the
generalized inverse of the trade-off function.  The tight pointwise
delta of any finite mechanism pair is solved in closed form on its exact
Neyman-Pearson trade-off, which is piecewise linear.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from ._norm import log_phi, phi, phi_inv
from .plrv import FiniteMechanismPair, _gaussian_adp_delta
from .tradeoff import TradeoffCurve


@dataclass(frozen=True)
class EpsDeltaCurve:
    """A map eps -> delta, clamped to [0, 1]."""

    _fn: Callable[[float], float]

    def delta(self, eps: float) -> float:
        if math.isnan(eps):  # the clamp would read it as delta 0
            raise ValueError("eps must not be NaN")
        return min(1.0, max(0.0, self._fn(eps)))


@dataclass(frozen=True)
class ZcdpProfile:
    """Accounting state under zero-concentrated DP."""

    rho: float

    def __post_init__(self) -> None:
        if not self.rho >= 0:
            raise ValueError("rho must be nonnegative")

    def on_alpha_grid(self, alphas: Iterable[float]) -> "RdpProfile":
        """Expand to the equivalent (alpha, rho * alpha) RDP points."""
        return RdpProfile(tuple((a, self.rho * a) for a in alphas))


@dataclass(frozen=True)
class RdpProfile:
    """Accounting state as a set of (alpha, gamma) Renyi bounds."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        alphas = [a for a, _ in self.points]
        if not alphas:
            raise ValueError("at least one (alpha, gamma) point required")
        if not all(a > 1.0 for a in alphas):
            raise ValueError("orders alpha must be > 1")
        if not all(g >= 0.0 for _, g in self.points):
            raise ValueError("gamma values must be nonnegative")
        if alphas != sorted(alphas) or len(set(alphas)) != len(alphas):
            raise ValueError("alphas must be strictly increasing")


def rdp_compose(a: RdpProfile, b: RdpProfile) -> RdpProfile:
    """Pointwise gamma sums at shared orders; interpolation is not sound."""
    gb = dict(b.points)
    shared = [(alpha, g + gb[alpha]) for alpha, g in a.points if alpha in gb]
    if not shared:
        raise ValueError("profiles share no alpha orders")
    return RdpProfile(tuple(shared))


def renyi_divergence(pair: FiniteMechanismPair, alpha: float) -> float:
    """alpha-Renyi divergence of the first output distribution from the second.

    The log of the moment sum of q1 (q1 / q2)^(alpha - 1) is a log-sum-exp
    about the largest log-ratio m: the divergence is
    m + ln(sum of q1 e^((alpha - 1)(ln(q1 / q2) - m))) / (alpha - 1), whose
    exponents are at most 0.  The sum itself overflows at large orders (from
    about 700 for randomized response at ln 3)."""
    if not alpha > 1.0:
        raise ValueError("alpha must be > 1")
    seen = pair.p1 > 0.0
    q1, q2 = pair.p1[seen], pair.p2[seen]
    if not q2.all():
        return math.inf
    ratios = np.log(q1) - np.log(q2)
    top = float(ratios.max())
    if alpha == math.inf:  # the largest log-ratio; inf times its zero exponent is NaN
        return top
    with np.errstate(over="ignore"):  # an exponent below the float range is e^-inf = 0
        moment = float((q1 * np.exp((alpha - 1.0) * (ratios - top))).sum())
    return top + math.log(moment) / (alpha - 1.0)


def zcdp_to_delta(rho: float, eps: float) -> float:
    """Tail bound e^{-(eps-rho)^2/(4 rho)} on the pointwise delta; 1 below rho."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    if math.isnan(eps):
        raise ValueError("eps must not be NaN")
    if eps <= rho:
        return 1.0
    try:
        return math.exp(-((eps - rho) ** 2) / (4.0 * rho))
    except OverflowError:  # the square overflows only where the bound underflows
        return 0.0


def rdp_to_delta(
    points: Sequence[tuple[float, float]] | RdpProfile, eps: float
) -> float:
    """Best tail bound e^{(alpha-1)(gamma-eps)} over points with eps > gamma."""
    pts = (points if isinstance(points, RdpProfile) else RdpProfile(tuple(points))).points
    if math.isnan(eps):
        raise ValueError("eps must not be NaN")
    best = 1.0
    for alpha, gamma in pts:
        if eps > gamma:
            best = min(best, math.exp((alpha - 1.0) * (gamma - eps)))
    return min(1.0, max(0.0, best))


def fdp_to_epsdelta(curve: TradeoffCurve, delta: float) -> float:
    """eps on the pointwise (eps, delta) curve of a trade-off function.

    eps = log(delta / f^{-1}(1 - delta)) with the generalized inverse
    f^{-1}(z) = inf{y : f(y) <= z}; +inf when the inverse hits zero.  z is
    1 - delta rounded up: 1 - z, exact by Sterbenz, is at most delta.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]; the curve is undefined at 0")
    z = 1.0 - delta
    y = curve.inverse_type2(z if 1.0 - z <= delta else math.nextafter(z, 2.0))
    if y <= 0.0:
        return math.inf
    return math.log(delta / y)


def gaussian_pbdp_epsilon(mu: float, delta: float) -> float:
    """Closed-form pointwise eps for the Gaussian mechanism.

    eps = log(delta / Phi(-Phi^{-1}(1 - delta) - mu)); note that
    -Phi^{-1}(1 - delta) is evaluated as Phi^{-1}(delta) to stay accurate
    for small delta.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    x = phi_inv(delta) - mu
    denom = phi(x)
    if denom == 0.0:
        # the tail underflows; its logarithm does not
        return math.log(delta) - log_phi(x)
    return math.log(delta / denom)


def pbdp_delta_finite(pair: FiniteMechanismPair, eps: float) -> float:
    """Tight pointwise delta of a finite pair at a given eps, in closed form.

    With T the exact trade-off of the pair and s = e^-eps: the smallest
    delta with T(s d) <= d + 1e-15 for every d >= delta, that is
    sup{d in [0, 1] : h(d) > 0} (0 if empty) for h(d) = T(s d) - d - 1e-15,
    the max over both neighbor directions.  h is linear between T's
    breakpoints d = level / s, so delta is the root of h after its last
    positive breakpoint.  Each direction's vertices come from its own rows
    (`FiniteMechanismPair._np_vertices`), cut to the prefix of levels at most
    s; the next breakpoint is the following vertex of that prefix, or d = 1,
    where h(1) = T(s) - 1 - 1e-15 < 0 is interpolated only if it is needed.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    s = math.exp(-eps)

    def delta(levels: np.ndarray, powers: np.ndarray) -> float:
        n = levels.searchsorted(s, side="right")
        if s == 0.0:  # h(d) = T(0) - d - 1e-15, T(0) the top vertex at level 0
            return max(0.0, float(powers[n - 1]) - 1e-15)
        d = levels[:n] / s
        h = powers[:n] - d - 1e-15
        above = np.flatnonzero(h > 0.0)
        if not above.size:
            return 0.0
        k = above[-1]
        if k + 1 < n:
            d1, h1 = d[k + 1], h[k + 1]
        else:
            d1, h1 = 1.0, float(np.interp(s, levels, powers)) - 1.0 - 1e-15
        return float(d[k] + h[k] * (d1 - d[k]) / (h[k] - h1))

    forward, backward = pair._np_vertices
    return max(delta(*forward), delta(*backward))


def adp_gaussian_curve(mu: float) -> EpsDeltaCurve:
    """Exact approximate-DP curve of a Gaussian mechanism."""
    if not mu > 0:
        raise ValueError("mu must be positive")
    return EpsDeltaCurve(partial(_gaussian_adp_delta, mu))


class BudgetExceededError(RuntimeError):
    """Registering this entry would push the odometer past its cap."""

    def __init__(self, label: str, requested: Fraction, remaining: Fraction):
        self.label = label
        self.requested = requested
        self.remaining = remaining
        super().__init__(
            f"entry {label!r} needs rho={float(requested):g} but only "
            f"{float(remaining):g} of the budget remains"
        )


def _as_fraction(x: float | int | str | Fraction) -> Fraction:
    """Exact rational from a number; floats go through their shortest repr
    so that decimal-looking budgets like 0.07 stay exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(repr(x))
    return Fraction(x)


class Odometer:
    """Append-only rho ledger enforcing a hard cap under adaptive use.

    Registration is atomic: an entry either fits the remaining budget and
    is appended, or the odometer refuses and stays unchanged.  Arithmetic
    is exact rational so that budgets like 2.56 + 0.07 land on the cap
    without float drift.  Mutation is serialized; readers may snapshot.
    """

    def __init__(self, cap: float | int | str | Fraction):
        cap = _as_fraction(cap)
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        self._cap = cap
        self._entries: list[tuple[str, Fraction]] = []
        self._spent = Fraction(0)  # running sum of the entries
        self._lock = threading.Lock()

    @property
    def cap(self) -> Fraction:
        return self._cap

    @property
    def spent(self) -> Fraction:
        with self._lock:
            return self._spent

    @property
    def remaining(self) -> Fraction:
        return self._cap - self.spent

    @property
    def entries(self) -> tuple[tuple[str, Fraction], ...]:
        with self._lock:
            return tuple(self._entries)

    def register(self, label: str, rho: float | int | str | Fraction) -> Fraction:
        """Append an entry; returns the remaining budget afterwards.  The
        label is one field of a ledger line, so it holds no tab or line break."""
        if "\t" in label or "".join(label.splitlines()) != label:
            raise ValueError(f"label {label!r} holds a tab or a line break")
        rho = _as_fraction(rho)
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        with self._lock:
            if self._spent + rho > self._cap:
                raise BudgetExceededError(label, rho, self._cap - self._spent)
            self._entries.append((label, rho))
            self._spent += rho
            return self._cap - self._spent

    def to_ledger_text(self) -> str:
        """Audit serialization: one tab-separated line per entry."""
        lines = [f"# cap\t{self._cap}"]
        running = Fraction(0)
        for label, rho in self.entries:
            running += rho
            lines.append(f"{label}\t{rho}\t{running}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_ledger_text(cls, text: str) -> "Odometer":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# cap\t"):
            raise ValueError("ledger must start with a '# cap' line")
        try:
            odo = cls(Fraction(lines[0].split("\t", 1)[1]))
            for ln in lines[1:]:
                parts = ln.split("\t")
                if len(parts) != 3:
                    raise ValueError(f"malformed ledger line: {ln!r}")
                label, rho, running = parts
                odo.register(label, Fraction(rho))
                if odo.spent != Fraction(running):
                    raise ValueError(f"ledger running total mismatch at {label!r}")
        except (ZeroDivisionError, BudgetExceededError) as exc:
            raise ValueError(f"malformed ledger: {exc}") from exc
        return odo
