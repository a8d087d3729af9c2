"""Posterior-to-posterior semantics.

The attacker compares their posterior about a target's record in the
actual world against the counterfactual world where the record was
replaced by a draw from the attacker's own conditional prior.  For pure
DP the ratio of those posteriors is bounded outright; for RDP and zCDP
the probability of a large ratio is bounded.  Two of the paper's
theorems make Bayesian statements equal to frequentist ones, computed in
`accountants` and not repeated here:

* arbitrary prior: P(ratio >= e^eps) is at most the RDP/zCDP tail bound
  on the pointwise delta (`rdp_to_delta`, `zcdp_to_delta`);
* known rest: the (eps, delta) curve is the pointwise curve of the
  mechanism's trade-off function (`fdp_to_epsdelta`).

An exact small-universe oracle, which the tests of the theorem-level
bounds run against, reads every posterior, marginal and ratio off one
joint table: P(record, output) in both worlds, summed over the rests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Mapping

import numpy as np

from ._norm import phi
from .accountants import RdpProfile, ZcdpProfile
from .plrv import FiniteMechanismPair, _probabilities, plrv_of_finite_pair, pure_dp_epsilon


@dataclass(frozen=True)
class SmallUniversePrior:
    """Attacker prior over a finite universe.

    `rest_datasets` carries the marginal over everyone-but-the-target;
    `conditional[rest]` is the attacker's distribution over the target's
    record given that rest, aligned with `record_values`.
    """

    rest_datasets: tuple[tuple[str, float], ...]
    record_values: tuple[str, ...]
    conditional: Mapping[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        _probabilities([p for _, p in self.rest_datasets], "rest-dataset probabilities")
        for rest, _ in self.rest_datasets:
            row = self.conditional[rest]
            if len(row) != len(self.record_values):
                raise ValueError(f"conditional row for {rest!r} has wrong length")
            _probabilities(row, f"conditional row for {rest!r}")

    @classmethod
    def known_rest(
        cls,
        record_values: tuple[str, ...],
        conditional: tuple[float, ...],
    ) -> "SmallUniversePrior":
        """Point mass on the one rest-dataset "rest": full attacker certainty."""
        return cls((("rest", 1.0),), record_values, {"rest": conditional})


@dataclass(frozen=True)
class FiniteMechanismFamily:
    """Output distributions of one mechanism on every dataset in a universe."""

    outputs: tuple[str, ...]
    table: Mapping[tuple[str, str], tuple[float, ...]]

    def __post_init__(self) -> None:
        for key, row in self.table.items():
            if len(row) != len(self.outputs):
                raise ValueError(f"row for {key!r} has wrong length")
            _probabilities(row, f"row for {key!r}")

    def pair(self, rest: str, r1: str, r2: str) -> FiniteMechanismPair:
        return FiniteMechanismPair(
            self.outputs, self.table[(rest, r1)], self.table[(rest, r2)]
        )

    def pure_dp_epsilon(self, prior: SmallUniversePrior) -> float:
        """Worst-case pure-DP parameter over all neighbor pairs in the universe,
        in both orders: a forward loss drops the outputs its first row never
        produces, so only the reverse loss sees them."""
        pairs = (
            self.pair(rest, r1, r2)
            for rest, _ in prior.rest_datasets
            for r1, r2 in permutations(prior.record_values, 2)
        )
        return max((pure_dp_epsilon(plrv_of_finite_pair(p)) for p in pairs), default=0.0)


@dataclass(frozen=True)
class BayesVerdict:
    """Actual and counterfactual posteriors for one observed output."""

    actual_posterior: tuple[float, ...]
    counterfactual_posterior: tuple[float, ...]
    ratio: tuple[float, ...]

    def report(self, record_values: tuple[str, ...]) -> str:
        lines = ["record: actual / counterfactual -> ratio"]
        for r, a, c, q in zip(
            record_values, self.actual_posterior, self.counterfactual_posterior, self.ratio
        ):
            lines.append(f"{r}: {a:.6g} / {c:.6g} -> {q:.6g}")
        return "\n".join(lines)


def _joint(
    prior: SmallUniversePrior, mech: FiniteMechanismFamily
) -> tuple[np.ndarray, np.ndarray]:
    """P(record, omega) in the actual and counterfactual worlds, summed over
    the rests: two (records x outputs) arrays.  The counterfactual redraws the
    target's record r'' from the attacker's conditional, hence its inner sum
    over r'' weighted by the conditional itself."""
    rests = prior.rest_datasets
    cond = np.array([prior.conditional[rest] for rest, _ in rests])
    weight = np.array([p for _, p in rests])[:, None] * cond
    rows = np.array([[mech.table[(rest, r)] for r in prior.record_values] for rest, _ in rests])
    return np.einsum("kr,krw->rw", weight, rows), np.einsum("kr,ks,ksw->rw", weight, cond, rows)


def _posteriors(
    prior: SmallUniversePrior, mech: FiniteMechanismFamily
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Actual and counterfactual posteriors and their ratio as (records x
    outputs) arrays, NaN in the column of an output of zero probability.  IEEE
    division gives the ratio a / c, inf where only c is 0, and NaN for 0/0."""
    actual, counter = _joint(prior, mech)
    with np.errstate(divide="ignore", invalid="ignore"):
        actual, counter = actual / actual.sum(axis=0), counter / counter.sum(axis=0)
        return actual, counter, actual / counter


def exact_posteriors(
    prior: SmallUniversePrior, mech: FiniteMechanismFamily, omega: str
) -> BayesVerdict:
    """Both posteriors for output `omega`: column omega of the joint table."""
    w = mech.outputs.index(omega)
    actual, counter, ratio = (a[:, w].tolist() for a in _posteriors(prior, mech))
    if all(map(math.isnan, actual + counter)):
        raise ValueError(f"output {omega!r} has zero probability in both worlds")
    return BayesVerdict(tuple(actual), tuple(counter), tuple(ratio))


def marginal_output_probabilities(
    prior: SmallUniversePrior, mech: FiniteMechanismFamily
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal P(omega) in the actual and counterfactual worlds.

    The two must agree: resampling the target's record from the
    attacker's own conditional does not move the output marginal.  The
    counterfactual column sums keep the sum over the resampled record, so
    the identity Sum(cond) = 1 is what the consistency check verifies.
    """
    actual, counter = _joint(prior, mech)
    return actual.sum(axis=0), counter.sum(axis=0)


@dataclass(frozen=True)
class RatioBoundReport:
    ok: bool
    eps: float
    max_ratio: float
    min_ratio: float


def pure_dp_ratio_bound_check(
    prior: SmallUniversePrior, mech: FiniteMechanismFamily
) -> RatioBoundReport:
    """Exhaustively verify the pure-DP posterior-ratio bound.

    Derives eps from the mechanism family itself and checks the ratio
    of every record at every output against [e^-eps, e^eps].  Undefined
    ratios (0/0, or an output of zero probability) carry no inference and
    are skipped.
    """
    eps = mech.pure_dp_epsilon(prior)
    if not math.isfinite(eps):
        raise ValueError("mechanism is not pure-DP on this universe")
    _, _, ratio = _posteriors(prior, mech)
    q = ratio[~np.isnan(ratio)]
    slack = 1e-9
    ok = bool(np.all((math.exp(-eps) - slack <= q) & (q <= math.exp(eps) + slack)))
    return RatioBoundReport(
        ok, eps, float(np.max(q, initial=-math.inf)), float(np.min(q, initial=math.inf))
    )


def bayes_known_rest_delta(profile: ZcdpProfile | RdpProfile, eps: float) -> float:
    """Bound on P(posterior ratio >= e^eps) for a known-rest attacker.

    RDP point (alpha, gamma) gives e^{-(eps-gamma) alpha - gamma}; zCDP
    optimizes alpha = (eps+rho)/(2 rho), valid above rho, giving
    e^{-(eps+rho)^2/(4 rho)}.
    """
    if isinstance(profile, RdpProfile):
        best = 1.0
        for alpha, gamma in profile.points:
            exponent = -(eps - gamma) * alpha - gamma
            # gamma = +inf (or any nonnegative exponent) leaves the bound vacuous
            if math.isnan(exponent) or exponent >= 0.0:
                continue
            best = min(best, math.exp(exponent))
        return min(1.0, max(0.0, best))
    rho = profile.rho
    if rho == 0.0:
        return 0.0 if eps > 0 else 1.0
    if eps <= rho:
        return 1.0
    try:
        return min(1.0, math.exp(-((eps + rho) ** 2) / (4.0 * rho)))
    except OverflowError:  # the square overflows only where the bound underflows
        return 0.0


def wrong_prior_ratio_closed_form(
    omega: float = 101.3, prior_target: float = 0.01
) -> tuple[float, float, float]:
    """Perceived-breach ratio for the unit-variance noisy count, exactly.

    The attacker believes the count is 1 with probability `prior_target`
    and 0 otherwise, then observes `omega`.  Returns (actual posterior,
    counterfactual posterior, ratio); the log-space form survives
    observations hundreds of sigmas out.
    """
    if not 0.0 < prior_target < 1.0:
        raise ValueError("prior_target must lie strictly between 0 and 1")
    # posterior odds against: (1-p)/p * exp(-omega + 1/2)
    log_odds = math.log((1.0 - prior_target) / prior_target) - omega + 0.5
    actual = 1.0 / (1.0 + math.exp(log_odds)) if log_odds < 700 else math.exp(-log_odds)
    counterfactual = prior_target
    return actual, counterfactual, actual / counterfactual


def _normal_bin_mass(lo: float, hi: float, mean: float) -> float:
    """Mass of N(mean, 1) on [lo, hi], stable in either tail."""
    if 0.5 * (lo + hi) >= mean:
        return phi(mean - lo) - phi(mean - hi)
    return phi(hi - mean) - phi(lo - mean)


def wrong_prior_discretized() -> tuple[SmallUniversePrior, FiniteMechanismFamily, str]:
    """Finite-output version of the perceived-breach example.

    Unit-variance noise on a 0/1 count, outputs in bins of width 0.1 centered
    on -10, -9.9, ..., 110, and a prior of 0.01 on count 1.  The observation
    returned, 12.0, is far enough out to make the ratio large while both worlds
    still assign it representable float mass (the continuous observation 101.3
    underflows float64 entirely and is covered by the closed form instead).
    """
    centers = np.round(np.arange(-10.0, 110.05, 0.1), 10)
    records = ("target-positive", "target-negative")
    rows = {}
    for record, mean in zip(records, (1.0, 0.0)):
        mass = np.array(
            [_normal_bin_mass(c - 0.05, c + 0.05, mean) for c in centers]
        )
        mass /= mass.sum()
        rows[("rest", record)] = tuple(mass)
    outputs = tuple(f"{c:.1f}" for c in centers)
    mech = FiniteMechanismFamily(outputs, rows)
    prior = SmallUniversePrior.known_rest(records, (0.01, 0.99))
    return prior, mech, "12.0"


def simulate_ratio_exceedance(
    prior: SmallUniversePrior,
    mech: FiniteMechanismFamily,
    eps: float,
    n_draws: int,
    seed: int,
) -> dict[str, float]:
    """Empirical frequency of posterior ratio >= e^eps per candidate record.

    Draws follow the prior-correct generative process for a known-rest
    prior: sample the record from the conditional, then the output from
    the mechanism; equivalently, sample outputs from the marginal.
    """
    if len(prior.rest_datasets) != 1:
        raise ValueError("simulation requires a known-rest prior")
    marginal, _ = marginal_output_probabilities(prior, mech)
    _, _, ratio = _posteriors(prior, mech)
    exceed = ratio >= math.exp(eps)  # NaN ratios never exceed
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_draws, marginal / marginal.sum())
    return dict(zip(prior.record_values, (exceed @ counts / n_draws).tolist()))
