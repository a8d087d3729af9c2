"""Posterior-to-posterior semantics.

The attacker compares their posterior about a target's record in the
actual world against the counterfactual world where the record was
replaced by a draw from the attacker's own conditional prior.  For pure
DP the ratio of those posteriors is bounded outright; for RDP and zCDP
the probability of a large ratio is bounded; and for known-rest priors
the resulting (eps, delta) curve coincides with the pointwise curve of
the mechanism's trade-off function.

An exact small-universe oracle evaluates both posteriors by direct
summation, which is what the tests of the theorem-level bounds run
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._norm import phi
from .accountants import (
    RdpProfile,
    ZcdpProfile,
    fdp_to_epsdelta,
    rdp_to_delta,
    zcdp_to_delta,
)
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
        rest_label: str = "rest",
    ) -> "SmallUniversePrior":
        """Point mass on a single rest-dataset: full attacker certainty."""
        return cls(((rest_label, 1.0),), record_values, {rest_label: conditional})


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
        """Worst-case pure-DP parameter over all neighbor pairs in the universe."""
        eps = 0.0
        for rest, _ in prior.rest_datasets:
            for i, r1 in enumerate(prior.record_values):
                for r2 in prior.record_values[i + 1:]:
                    eps = max(
                        eps, pure_dp_epsilon(plrv_of_finite_pair(self.pair(rest, r1, r2)))
                    )
        return eps


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


def exact_posteriors(
    prior: SmallUniversePrior, mech: FiniteMechanismFamily, omega: str
) -> BayesVerdict:
    """Evaluate both posteriors for output `omega` by direct summation.

    The counterfactual replaces the target's record by a fresh draw from
    the attacker's conditional, hence the inner sum over r'' weighted by
    the conditional itself.
    """
    w = mech.outputs.index(omega)
    n = len(prior.record_values)
    actual = [0.0] * n
    counter = [0.0] * n
    for rest, p_rest in prior.rest_datasets:
        cond = prior.conditional[rest]
        # marginal probability of omega given this rest, over a resampled record
        mix = sum(
            cond[j] * mech.table[(rest, rj)][w]
            for j, rj in enumerate(prior.record_values)
        )
        for i, r in enumerate(prior.record_values):
            weight = p_rest * cond[i]
            actual[i] += weight * mech.table[(rest, r)][w]
            counter[i] += weight * mix
    z_actual = math.fsum(actual)
    z_counter = math.fsum(counter)
    if z_actual == 0.0 and z_counter == 0.0:
        raise ValueError(f"output {omega!r} has zero probability in both worlds")
    actual_post = tuple(a / z_actual if z_actual > 0.0 else math.nan for a in actual)
    counter_post = tuple(c / z_counter if z_counter > 0.0 else math.nan for c in counter)
    ratio = tuple(_safe_ratio(a, c) for a, c in zip(actual_post, counter_post))
    return BayesVerdict(actual_post, counter_post, ratio)


def _safe_ratio(a: float, c: float) -> float:
    if math.isnan(a) or math.isnan(c):
        return math.nan
    if c > 0.0:
        return a / c
    return math.inf if a > 0.0 else math.nan


def marginal_output_probabilities(
    prior: SmallUniversePrior, mech: FiniteMechanismFamily
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal P(omega) in the actual and counterfactual worlds.

    The two must agree: resampling the target's record from the
    attacker's own conditional does not move the output marginal.
    """
    n_out = len(mech.outputs)
    actual = np.zeros(n_out)
    counter = np.zeros(n_out)
    for rest, p_rest in prior.rest_datasets:
        cond = np.asarray(prior.conditional[rest], dtype=float)
        rows = np.array(
            [mech.table[(rest, r)] for r in prior.record_values], dtype=float
        )
        mix = cond @ rows
        actual += p_rest * mix
        # counterfactual keeps its double sum over the sampled record: the
        # identity Sum(cond) = 1 is what the consistency check verifies
        counter += p_rest * np.sum(cond[:, None] * mix[None, :], axis=0)
    return actual, counter


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

    Derives eps from the mechanism family itself, sweeps every output
    with positive marginal, and checks each defined ratio against
    [e^-eps, e^eps].  Undefined 0/0 ratios carry no inference and are
    skipped.
    """
    eps = mech.pure_dp_epsilon(prior)
    if not math.isfinite(eps):
        raise ValueError("mechanism is not pure-DP on this universe")
    lo_bound, hi_bound = math.exp(-eps), math.exp(eps)
    marginal, _ = marginal_output_probabilities(prior, mech)
    max_ratio, min_ratio = -math.inf, math.inf
    ok = True
    slack = 1e-9
    for w, omega in enumerate(mech.outputs):
        if marginal[w] == 0.0:
            continue
        verdict = exact_posteriors(prior, mech, omega)
        for q in verdict.ratio:
            if math.isnan(q):
                continue
            max_ratio = max(max_ratio, q)
            min_ratio = min(min_ratio, q)
            if not (lo_bound - slack <= q <= hi_bound + slack):
                ok = False
    return RatioBoundReport(ok, eps, max_ratio, min_ratio)


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


def bayes_arbitrary_prior_delta(profile: ZcdpProfile | RdpProfile, eps: float) -> float:
    """Bound on P(posterior ratio >= e^eps) for the true record, any prior.

    Weaker than the known-rest bound: both branches are exactly the tail
    bounds on the pointwise delta, e^{(alpha-1)(gamma-eps)} for RDP and the
    zCDP one for zCDP.
    """
    if isinstance(profile, RdpProfile):
        return rdp_to_delta(profile, eps)
    rho = profile.rho
    if rho == 0.0:
        return 0.0 if eps > 0 else 1.0
    return zcdp_to_delta(rho, eps)


#: Known-rest Bayesian eps at a given delta (curve, delta) -> eps: the same
#: function as the pointwise (eps, delta) reparametrization of the curve.
bayes_pbdp_epsilon = fdp_to_epsdelta


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


def wrong_prior_discretized(
    omega: float = 12.0,
    prior_target: float = 0.01,
    grid_lo: float = -10.0,
    grid_hi: float = 110.0,
    step: float = 0.1,
) -> tuple[SmallUniversePrior, FiniteMechanismFamily, str]:
    """Finite-output version of the perceived-breach example.

    Unit-variance noise on a 0/1 count, outputs discretized to a grid.
    The default observation sits far enough out to make the ratio large
    while both worlds still assign it representable float mass (the
    continuous observation 101.3 underflows float64 entirely and is
    covered by the closed form instead).
    """
    centers = np.round(np.arange(grid_lo, grid_hi + step / 2, step), 10)
    records = ("target-positive", "target-negative")
    rows = {}
    for record, mean in zip(records, (1.0, 0.0)):
        mass = np.array(
            [_normal_bin_mass(c - step / 2, c + step / 2, mean) for c in centers]
        )
        mass /= mass.sum()
        rows[("rest", record)] = tuple(mass)
    outputs = tuple(f"{c:.1f}" for c in centers)
    mech = FiniteMechanismFamily(outputs, rows)
    prior = SmallUniversePrior.known_rest(records, (prior_target, 1.0 - prior_target))
    return prior, mech, f"{omega:.1f}"


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
    threshold = math.exp(eps)
    exceed = np.zeros((len(prior.record_values), len(mech.outputs)), dtype=bool)
    for w, omega in enumerate(mech.outputs):
        if marginal[w] == 0.0:
            continue
        verdict = exact_posteriors(prior, mech, omega)
        for i, q in enumerate(verdict.ratio):
            exceed[i, w] = (not math.isnan(q)) and q >= threshold
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_draws, marginal / marginal.sum())
    return {
        r: float(counts[exceed[i]].sum()) / n_draws
        for i, r in enumerate(prior.record_values)
    }
