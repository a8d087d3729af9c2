"""Privacy-loss random variables for canonical mechanisms.

A privacy-loss random variable (PLRV) is the distribution of the
log-likelihood-ratio statistic log P(M(D1)=w)/P(M(D2)=w) when w is drawn
from M(D1).  Two representations cover everything this package needs:

* :class:`DiscretePlrv` -- a finite list of (value, probability) atoms
  plus an optional probability mass at +infinity (outputs that are
  impossible under D2).
* :class:`GaussianPlrv` -- the N(mu^2/2, mu^2) family produced by
  Gaussian noise addition.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._norm import phi

#: Atoms closer than this merge into one; log-ratio arithmetic produces
#: float duplicates that would otherwise accumulate.
ATOM_MERGE_TOL = 1e-12

#: Probability vectors must sum to one within this.
PROB_SUM_TOL = 1e-12


class RepresentationMismatchError(TypeError):
    """Raised when an operation would mix discrete and Gaussian PLRVs."""


def _merged(atoms: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Sort atoms by value, merge near-duplicates, drop zero mass."""
    out: list[tuple[float, float]] = []
    for value, prob in sorted(atoms):
        if prob <= 0.0:
            continue
        if out and abs(value - out[-1][0]) < ATOM_MERGE_TOL:
            old_v, old_p = out[-1]
            total = old_p + prob
            out[-1] = ((old_v * old_p + value * prob) / total, total)
        else:
            out.append((value, prob))
    return tuple(out)


@dataclass(frozen=True)
class DiscretePlrv:
    """Finite-support PLRV: atoms plus optional mass at +infinity."""

    atoms: tuple[tuple[float, float], ...]
    infinity_mass: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", _merged(list(self.atoms)))
        total = sum(p for _, p in self.atoms) + self.infinity_mass
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1")
        if not 0.0 <= self.infinity_mass <= 1.0:
            raise ValueError("infinity_mass must lie in [0, 1]")
        for value, _ in self.atoms:
            if not math.isfinite(value):
                raise ValueError("atom values must be finite; use infinity_mass")

    def tail(self, t: float) -> float:
        """P(L > t).  Infinite loss counts as exceeding every threshold."""
        return sum(p for v, p in self.atoms if v > t) + self.infinity_mass

    def upper_mass(self, t: float) -> float:
        """P(L >= t), counting infinity_mass."""
        return sum(p for v, p in self.atoms if v >= t - ATOM_MERGE_TOL) + self.infinity_mass

    def lower_mass(self, t: float) -> float:
        """P(L <= t) over the finite atoms."""
        return sum(p for v, p in self.atoms if v <= t + ATOM_MERGE_TOL)


@dataclass(frozen=True)
class GaussianPlrv:
    """PLRV of a Gaussian mechanism: N(mu^2/2, mu^2) with mu = 1/sigma."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.variance < 0:
            raise ValueError("variance must be nonnegative")

    @property
    def mu(self) -> float:
        return math.sqrt(self.variance)

    def tail(self, t: float) -> float:
        """P(L > t)."""
        if self.variance == 0.0:
            return 1.0 if self.mean > t else 0.0
        return 1.0 - phi((t - self.mean) / math.sqrt(self.variance))


Plrv = DiscretePlrv | GaussianPlrv


@dataclass(frozen=True)
class FiniteMechanismPair:
    """Output distributions of one mechanism on two neighboring datasets."""

    outputs: tuple[str, ...]
    p1: tuple[float, ...]
    p2: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.outputs) == len(self.p1) == len(self.p2)):
            raise ValueError("outputs, p1, p2 must have equal length")
        for vec, name in ((self.p1, "p1"), (self.p2, "p2")):
            if any(p < 0 for p in vec):
                raise ValueError(f"{name} has negative entries")
            if abs(sum(vec) - 1.0) > PROB_SUM_TOL:
                raise ValueError(f"{name} does not sum to 1")

    def reversed(self) -> "FiniteMechanismPair":
        """Swap the roles of the two neighbors."""
        return FiniteMechanismPair(self.outputs, self.p2, self.p1)


def point_mass_zero() -> DiscretePlrv:
    """The PLRV of a mechanism whose output distribution does not change."""
    return DiscretePlrv(((0.0, 1.0),))


def rr_plrv(eps0: float, differing_on_sensitive_bit: bool) -> DiscretePlrv:
    """PLRV of randomized response with flip probability 1/(1+e^eps0).

    When the neighbors agree on the protected bit the output distribution
    is identical under both, so the loss is zero with probability one.
    A two-sided-geometric noisy count on a change-one query has this same
    loss law: two very different mechanisms, one privacy-loss law.
    """
    if eps0 < 0 or not math.isfinite(eps0):
        raise ValueError("eps0 must be a finite nonnegative real")
    if not differing_on_sensitive_bit or eps0 == 0.0:
        return point_mass_zero()
    p_keep = math.exp(eps0) / (1.0 + math.exp(eps0))
    return DiscretePlrv(((eps0, p_keep), (-eps0, 1.0 - p_keep)))


def gaussian_plrv(mu: float) -> GaussianPlrv:
    """PLRV of a Gaussian mechanism with unit answer change and mu = 1/sigma."""
    if mu < 0 or not math.isfinite(mu):
        raise ValueError("mu must be a finite nonnegative real")
    return GaussianPlrv(mean=mu * mu / 2.0, variance=mu * mu)


def sampling_plrv(n: int, m: int) -> DiscretePlrv:
    """PLRV of releasing m of n records sampled uniformly without replacement.

    Seeing the target's record identifies the input perfectly, hence the
    m/n mass at infinity; any other sample reveals nothing.
    """
    if n <= 0:
        raise ValueError("n must be a positive integer")
    if not 0 <= m <= n:
        raise ValueError("m must lie in [0, n]")
    inf_mass = m / n
    atoms = ((0.0, (n - m) / n),) if m < n else ()
    return DiscretePlrv(atoms, infinity_mass=inf_mass)


def compose(a: Plrv, b: Plrv) -> Plrv:
    """PLRV of releasing both outputs of two independent mechanisms.

    Discrete atoms convolve (infinite loss absorbs everything it meets);
    Gaussian parameters add.  Mixing the two representations is rejected:
    silently discretizing the Gaussian would corrupt its closed forms.
    """
    if isinstance(a, GaussianPlrv) and isinstance(b, GaussianPlrv):
        return GaussianPlrv(a.mean + b.mean, a.variance + b.variance)
    if isinstance(a, DiscretePlrv) and isinstance(b, DiscretePlrv):
        inf_mass = 1.0 - (1.0 - a.infinity_mass) * (1.0 - b.infinity_mass)
        atoms = [
            (va + vb, pa * pb)
            for va, pa in a.atoms
            for vb, pb in b.atoms
        ]
        return DiscretePlrv(atoms, infinity_mass=inf_mass)
    raise RepresentationMismatchError(
        "cannot compose discrete and Gaussian PLRVs; representation mismatch"
    )


def plrv_of_finite_pair(pair: FiniteMechanismPair) -> DiscretePlrv:
    """PLRV of a finite mechanism pair, outputs drawn from the first neighbor.

    Outputs with p1 = 0 carry no mass under the null and are dropped;
    outputs with p1 > 0 and p2 = 0 are catastrophic and feed the
    infinity mass.
    """
    atoms: list[tuple[float, float]] = []
    inf_mass = 0.0
    for q1, q2 in zip(pair.p1, pair.p2):
        if q1 == 0.0:
            continue
        if q2 == 0.0:
            inf_mass += q1
        else:
            atoms.append((math.log(q1 / q2), q1))
    return DiscretePlrv(atoms, infinity_mass=inf_mass)


def pure_dp_epsilon(x: Plrv) -> float:
    """Smallest eps such that |L| <= eps with probability one.

    Callers supply the forward PLRV; neighbor symmetry makes the reverse
    loss the mirror image, so the bound is the largest absolute atom.
    Returns +inf for any positive infinity mass or a nondegenerate
    Gaussian (unbounded support).
    """
    if isinstance(x, GaussianPlrv):
        return abs(x.mean) if x.variance == 0.0 else math.inf
    if x.infinity_mass > 0.0:
        return math.inf
    if not x.atoms:
        return 0.0
    return max(abs(v) for v, _ in x.atoms)


def approx_dp_delta(forward: Plrv, reverse: Plrv, eps: float) -> float:
    """Tight delta at a given eps from the two-PLRV characterization.

    delta = P(L_fwd >= eps) - e^eps P(L_rev <= -eps), clamped to [0, 1].
    `forward` and `reverse` must describe the same mechanism pair seen
    from the two neighbor directions; for Gaussian PLRVs the two coincide
    and the closed form  Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2)
    is used.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if isinstance(forward, GaussianPlrv) or isinstance(reverse, GaussianPlrv):
        if not (isinstance(forward, GaussianPlrv) and isinstance(reverse, GaussianPlrv)):
            raise RepresentationMismatchError(
                "forward and reverse PLRVs must share a representation"
            )
        if forward != reverse:
            raise ValueError("a Gaussian PLRV is its own reverse; got distinct parameters")
        if forward.variance == 0.0:
            return 0.0
        raw = _gaussian_adp_delta(forward.mu, eps)
    else:
        raw = forward.upper_mass(eps) - math.exp(eps) * reverse.lower_mass(-eps)
    return min(1.0, max(0.0, raw))


def _gaussian_adp_delta(mu: float, eps: float) -> float:
    """Unclamped tight delta of a Gaussian mechanism at eps."""
    return phi(-eps / mu + mu / 2.0) - math.exp(eps) * phi(-eps / mu - mu / 2.0)
