"""Privacy-loss random variables for canonical mechanisms.

A privacy-loss random variable (PLRV) is the distribution of the
log-likelihood-ratio statistic log P(M(D1)=w)/P(M(D2)=w) when w is drawn
from M(D1).  Two representations cover everything this package needs:

* :class:`DiscretePlrv` -- an (n, 2) array of (value, probability) atoms
  plus an optional probability mass at +infinity (outputs that are
  impossible under D2).
* :class:`GaussianPlrv` -- the N(mu^2/2, mu^2) family produced by
  Gaussian noise addition.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._norm import log_phi, phi

#: Atoms closer than this merge into one; log-ratio arithmetic produces
#: float duplicates that would otherwise accumulate.
ATOM_MERGE_TOL = 1e-12

#: Probability vectors must sum to one within this.
PROB_SUM_TOL = 1e-12


class RepresentationMismatchError(TypeError):
    """Raised when an operation would mix discrete and Gaussian PLRVs."""


def _probabilities(x, name: str) -> np.ndarray:
    """`x` as a read-only float64 vector: finite, nonnegative, fsum within PROB_SUM_TOL of 1."""
    p = np.array(x, dtype=float)
    # NaN fails the comparison and +inf the sum
    if p.ndim != 1 or not (p >= 0.0).all() or abs(math.fsum(p.tolist()) - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{name} must be finite, nonnegative and sum to 1")
    p.flags.writeable = False
    return p


def _threshold(t: float) -> float:
    """`t`, refused if NaN: it compares false with every value, so it would
    read as zero mass (or as NaN through phi)."""
    if math.isnan(t):
        raise ValueError("threshold t must not be NaN")
    return t


def _merged(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Read-only (n, 2) atoms from 1-D value and mass columns: sorted by value
    (stably, so equal values keep their input order) with zero mass dropped;
    each run of values whose gaps are below ATOM_MERGE_TOL becomes one atom
    at its mass-weighted mean.  A non-finite value raises ValueError.

    The stable sort is a timsort, which merges sorted stretches of the input
    in place of re-sorting them: `compose` hands it one sorted row per atom of
    its smaller operand."""
    if not np.isfinite(values).all():
        raise ValueError("atom values must be finite; use infinity_mass")
    kept = probs > 0.0
    if not kept.all():
        values, probs = values[kept], probs[kept]
    order = np.argsort(values, kind="stable")
    values, probs = values[order], probs[order]
    new_run = np.empty(len(values), dtype=bool)
    new_run[:1] = True
    np.greater_equal(np.diff(values), ATOM_MERGE_TOL, out=new_run[1:])
    run = np.cumsum(new_run) - 1
    first = values[np.flatnonzero(new_run)]
    out = np.empty((len(first), 2))
    out[:, 1] = np.bincount(run, weights=probs)
    # offsets from the run's first value keep a lone atom's value exact
    offset = np.bincount(run, weights=(values - first[run]) * probs)
    out[:, 0] = first + offset / out[:, 1]
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class DiscretePlrv:
    """Finite-support PLRV: read-only (n, 2) array of atoms plus optional mass at +infinity."""

    atoms: np.ndarray
    infinity_mass: float = 0.0

    def __post_init__(self) -> None:
        atoms = np.array(self.atoms, dtype=float).reshape(-1, 2)
        _probabilities(np.append(atoms[:, 1], self.infinity_mass), "atom and infinity masses")
        object.__setattr__(self, "atoms", _merged(atoms[:, 0], atoms[:, 1]))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DiscretePlrv) and self.infinity_mass == other.infinity_mass
                and np.array_equal(self.atoms, other.atoms))

    # the atoms are sorted by value, so each threshold cuts them into two slices

    def tail(self, t: float) -> float:
        """P(L > t).  Infinite loss counts as exceeding every threshold."""
        above = np.searchsorted(self.atoms[:, 0], _threshold(t), side="right")
        return float(self.atoms[above:, 1].sum()) + self.infinity_mass

    def upper_mass(self, t: float) -> float:
        """P(L >= t), counting infinity_mass."""
        at_least = np.searchsorted(self.atoms[:, 0], _threshold(t) - ATOM_MERGE_TOL)
        return float(self.atoms[at_least:, 1].sum()) + self.infinity_mass

    def lower_mass(self, t: float) -> float:
        """P(L <= t) over the finite atoms."""
        at_most = np.searchsorted(self.atoms[:, 0], _threshold(t) + ATOM_MERGE_TOL, side="right")
        return float(self.atoms[:at_most, 1].sum())


@dataclass(frozen=True)
class GaussianPlrv:
    """PLRV of a Gaussian mechanism: N(mu^2/2, mu^2) with mu = 1/sigma."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not self.variance >= 0:
            raise ValueError("variance must be nonnegative")
        if math.isnan(self.mean):
            raise ValueError("mean must not be NaN")

    @property
    def mu(self) -> float:
        return math.sqrt(self.variance)

    def tail(self, t: float) -> float:
        """P(L > t)."""
        _threshold(t)
        if self.variance == 0.0:
            return 1.0 if self.mean > t else 0.0
        return phi((self.mean - t) / math.sqrt(self.variance))


Plrv = DiscretePlrv | GaussianPlrv


@dataclass(frozen=True, eq=False)
class FiniteMechanismPair:
    """Output distributions of one mechanism on two neighboring datasets."""

    outputs: tuple[str, ...]
    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p1", _probabilities(self.p1, "p1"))
        object.__setattr__(self, "p2", _probabilities(self.p2, "p2"))
        if not (len(self.outputs) == len(self.p1) == len(self.p2)):
            raise ValueError("outputs, p1, p2 must have equal length")

    def reversed(self) -> "FiniteMechanismPair":
        """Swap the roles of the two neighbors."""
        return FiniteMechanismPair(self.outputs, self.p2, self.p1)

    @cached_property
    def _np_vertices(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """`_np_vertices` of this pair, then of the reversed pair; built once."""
        return _np_vertices(self.p1, self.p2), _np_vertices(self.p2, self.p1)


def _np_vertices(p1: np.ndarray, p2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex levels and powers of the exact Neyman-Pearson trade-off of p1
    against p2, from (0, 0) to (1, 1), as read-only arrays.

    Outputs are rejected in order of decreasing likelihood ratio p2/p1, and
    outputs with equal ratio merge into one vertex.  Each direction of a pair
    is built from its own rows: mirroring the other direction's vertices as
    (1 - power, 1 - level) loses relative precision at small levels.
    """
    seen = (p1 > 0.0) | (p2 > 0.0)
    p1, p2 = p1[seen], p2[seen]
    ratio = np.divide(p2, p1, out=np.full_like(p1, np.inf), where=p1 > 0.0)
    _, group = np.unique(-ratio, return_inverse=True)
    # both vectors sum to 1 within PROB_SUM_TOL, so the last vertex is (1, 1)
    # and a partial sum above 1 is rounding
    levels = np.minimum(np.cumsum(np.bincount(group, weights=p1)), 1.0)
    powers = np.minimum(np.cumsum(np.bincount(group, weights=p2)), 1.0)
    levels[-1] = powers[-1] = 1.0
    levels, powers = np.append(0.0, levels), np.append(0.0, powers)
    levels.flags.writeable = powers.flags.writeable = False
    return levels, powers


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
    # both masses from e^-eps0, which neither overflows nor rounds the flip
    # mass away as 1 - p_keep would: the atom at -eps0 keeps its own digits
    flip = math.exp(-eps0)
    return DiscretePlrv(((eps0, 1.0 / (1.0 + flip)), (-eps0, flip / (1.0 + flip))))


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
    if not isinstance(n, int) or n <= 0:
        raise ValueError("n must be a positive integer")
    if not isinstance(m, int) or not 0 <= m <= n:
        raise ValueError("m must be an integer in [0, n]")
    return DiscretePlrv(((0.0, (n - m) / n),), infinity_mass=m / n)


def compose(a: Plrv, b: Plrv) -> Plrv:
    """PLRV of releasing both outputs of two independent mechanisms.

    Discrete atoms convolve (infinite loss absorbs everything it meets);
    Gaussian parameters add.  Mixing the two representations is rejected:
    silently discretizing the Gaussian would corrupt its closed forms.

    The outer sum has one row per atom of the operand with fewer atoms (`a`
    on a tie), each row that atom plus every atom of the other operand.  The
    atoms are sorted, so every row is a sorted run, which `_merged`'s stable
    sort merges; equal values are summed in that row-major order.
    """
    if isinstance(a, GaussianPlrv) and isinstance(b, GaussianPlrv):
        return GaussianPlrv(a.mean + b.mean, a.variance + b.variance)
    if isinstance(a, DiscretePlrv) and isinstance(b, DiscretePlrv):
        inf_mass = 1.0 - (1.0 - a.infinity_mass) * (1.0 - b.infinity_mass)
        small, large = (a.atoms, b.atoms) if len(a.atoms) <= len(b.atoms) else (b.atoms, a.atoms)
        with np.errstate(over="ignore"):  # an overflowed value fails _merged's finite check
            values = np.add.outer(small[:, 0], large[:, 0])
        probs = np.multiply.outer(small[:, 1], large[:, 1])
        # no probability check: products of checked masses sum to 1 only up to rounding
        out = object.__new__(DiscretePlrv)
        object.__setattr__(out, "atoms", _merged(values.ravel(), probs.ravel()))
        object.__setattr__(out, "infinity_mass", inf_mass)
        return out
    raise RepresentationMismatchError("cannot compose discrete and Gaussian PLRVs")


def plrv_of_finite_pair(pair: FiniteMechanismPair) -> DiscretePlrv:
    """PLRV of a finite mechanism pair, outputs drawn from the first neighbor.

    Outputs with p1 = 0 carry no mass under the null and are dropped;
    outputs with p1 > 0 and p2 = 0 are catastrophic and feed the
    infinity mass.
    """
    p1, p2 = pair.p1, pair.p2
    both = (p1 > 0.0) & (p2 > 0.0)
    q1, q2 = p1[both], p2[both]
    with np.errstate(over="ignore"):  # p2 <= 1: the quotient may overflow, not underflow
        values = np.log(q1 / q2)
    over = np.isinf(values)
    values[over] = np.log(q1[over]) - np.log(q2[over])
    atoms = np.column_stack([values, q1])
    # p1 sums to 1 only within PROB_SUM_TOL, so its mass here can reach 1 + ulp
    inf_mass = min(1.0, float(p1[p2 == 0.0].sum()))
    return DiscretePlrv(atoms, infinity_mass=inf_mass)


def pure_dp_epsilon(x: Plrv) -> float:
    """Smallest eps such that |L| <= eps with probability one.

    Callers supply the forward PLRV; neighbor symmetry makes the reverse
    loss the mirror image, so the bound is the largest absolute atom.
    Returns +inf for any positive infinity mass or a nondegenerate
    Gaussian (unbounded support).  Atoms closer than ATOM_MERGE_TOL are
    merged into their mass-weighted mean, so for a PLRV built from a finite
    pair this can lie below the pair's largest |ln(p1 / p2)|, on the unsound
    side; `bayes.FiniteMechanismFamily.pure_dp_epsilon` reads the rows
    instead.
    """
    if isinstance(x, GaussianPlrv):
        return abs(x.mean) if x.variance == 0.0 else math.inf
    if x.infinity_mass > 0.0:
        return math.inf
    return float(np.max(np.abs(x.atoms[:, 0]), initial=0.0))


def approx_dp_delta(forward: Plrv, reverse: Plrv, eps: float) -> float:
    """Tight delta at a given eps from the two-PLRV characterization.

    delta = P(L_fwd >= eps) - e^eps P(L_rev <= -eps), clamped to [0, 1].
    `forward` and `reverse` must describe the same mechanism pair seen
    from the two neighbor directions; for Gaussian PLRVs the two coincide
    and the closed form  Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2)
    is used.
    """
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    if isinstance(forward, GaussianPlrv) or isinstance(reverse, GaussianPlrv):
        if not (isinstance(forward, GaussianPlrv) and isinstance(reverse, GaussianPlrv)):
            raise RepresentationMismatchError("forward and reverse must share a representation")
        if forward != reverse:
            raise ValueError("a Gaussian PLRV is its own reverse; got distinct parameters")
        if forward.variance == 0.0:
            return 0.0
        raw = _gaussian_adp_delta(forward.mu, eps)
    else:
        mass = reverse.lower_mass(-eps)
        try:
            # no mass, no tail, even at eps = inf, where e^eps * 0 would be NaN
            tail = math.exp(eps) * mass if mass > 0.0 else 0.0
        except OverflowError:  # in log space; from e^1 on, the tail exceeds every mass
            tail = math.exp(min(eps + math.log(mass), 1.0))
        raw = forward.upper_mass(eps) - tail
    return min(1.0, max(0.0, raw))


def _gaussian_adp_delta(mu: float, eps: float) -> float:
    """Unclamped tight delta of a Gaussian mechanism at eps."""
    x = -eps / mu - mu / 2.0
    try:
        scale = math.exp(eps)
    except OverflowError:  # e^eps overflows; e^eps Phi(x) need not
        tail = math.exp(eps + log_phi(x))
    else:  # no Phi, no tail, even at eps = inf, where e^eps * 0 would be NaN
        below = phi(x)
        tail = scale * below if below > 0.0 else 0.0
    return phi(-eps / mu + mu / 2.0) - tail
