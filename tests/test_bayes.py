import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsemantics import (
    RdpProfile,
    ZcdpProfile,
    bayes_known_rest_delta,
    exact_posteriors,
    fdp_to_epsdelta,
    gaussian_pbdp_epsilon,
    pure_dp_ratio_bound_check,
    zcdp_to_delta,
)
from dpsemantics.accountants import renyi_divergence
from dpsemantics.bayes import (
    FiniteMechanismFamily,
    SmallUniversePrior,
    marginal_output_probabilities,
    simulate_ratio_exceedance,
    wrong_prior_discretized,
    wrong_prior_ratio_closed_form,
)
from dpsemantics.tradeoff import GaussianExactCurve


def rr_family(eps: float, rests=("rest",), records=("pos", "neg")) -> FiniteMechanismFamily:
    """Randomized response on the predicate record == 'pos*'."""
    keep = math.exp(eps) / (1 + math.exp(eps))
    table = {}
    for rest in rests:
        for r in records:
            bit = r.startswith("pos")
            table[(rest, r)] = (keep, 1 - keep) if bit else (1 - keep, keep)
    return FiniteMechanismFamily(("1", "0"), table)


def noisy_grid_family(
    sigma2: float, rests=("rest",), records=("pos", "neg"), span=8
) -> FiniteMechanismFamily:
    """Integer-grid noisy count of the record bit, truncated and renormalized."""
    ks = np.arange(-span, span + 1)
    table = {}
    for rest in rests:
        for r in records:
            count = 1.0 if r.startswith("pos") else 0.0
            w = np.exp(-((ks - count) ** 2) / (2 * sigma2))
            w /= w.sum()
            table[(rest, r)] = tuple(w)
    return FiniteMechanismFamily(tuple(str(k) for k in ks), table)


# --- exact oracle -----------------------------------------------------------------

def test_mechanism_ignoring_record_gives_unit_ratios():
    table = {
        ("rest", "a"): (0.3, 0.7),
        ("rest", "b"): (0.3, 0.7),
        ("other", "a"): (0.6, 0.4),
        ("other", "b"): (0.6, 0.4),
    }
    mech = FiniteMechanismFamily(("x", "y"), table)
    prior = SmallUniversePrior(
        (("rest", 0.5), ("other", 0.5)),
        ("a", "b"),
        {"rest": (0.5, 0.5), "other": (0.2, 0.8)},
    )
    for omega in ("x", "y"):
        verdict = exact_posteriors(prior, mech, omega)
        for q in verdict.ratio:
            assert math.isclose(q, 1.0, abs_tol=1e-12)


def test_known_rest_counterfactual_equals_prior_conditional():
    mech = rr_family(1.0)
    prior = SmallUniversePrior.known_rest(("pos", "neg"), (0.3, 0.7))
    verdict = exact_posteriors(prior, mech, "1")
    assert math.isclose(verdict.counterfactual_posterior[0], 0.3, abs_tol=1e-12)
    assert math.isclose(verdict.counterfactual_posterior[1], 0.7, abs_tol=1e-12)


def test_zero_marginal_output_rejected():
    table = {("rest", "a"): (1.0, 0.0), ("rest", "b"): (1.0, 0.0)}
    mech = FiniteMechanismFamily(("x", "y"), table)
    prior = SmallUniversePrior.known_rest(("a", "b"), (0.5, 0.5))
    with pytest.raises(ValueError):
        exact_posteriors(prior, mech, "y")


def test_marginal_consistency_to_1e12():
    mech = noisy_grid_family(1.3, rests=("r0", "r1"), records=("pos", "neg", "neg2"))
    prior = SmallUniversePrior(
        (("r0", 0.4), ("r1", 0.6)),
        ("pos", "neg", "neg2"),
        {"r0": (0.05, 0.55, 0.4), "r1": (0.8, 0.1, 0.1)},
    )
    actual, counter = marginal_output_probabilities(prior, mech)
    assert np.all(np.abs(actual - counter) <= 1e-12)
    # and the per-output normalizers inside the oracle agree the same way
    for omega in mech.outputs:
        verdict = exact_posteriors(prior, mech, omega)
        assert math.isclose(sum(verdict.actual_posterior), 1.0, abs_tol=1e-9)
        assert math.isclose(sum(verdict.counterfactual_posterior), 1.0, abs_tol=1e-9)


def _exact_joint(prior, mech):
    """P(record, omega) in the actual and counterfactual worlds from their
    definition, in rationals: the record is kept, or redrawn from the
    attacker's conditional."""
    recs = prior.record_values
    actual = [[Fraction(0)] * len(mech.outputs) for _ in recs]
    counter = [[Fraction(0)] * len(mech.outputs) for _ in recs]
    for rest, p_rest in prior.rest_datasets:
        cond = [Fraction(c) for c in prior.conditional[rest]]
        for i, r in enumerate(recs):
            weight = Fraction(p_rest) * cond[i]
            for w in range(len(mech.outputs)):
                actual[i][w] += weight * Fraction(mech.table[(rest, r)][w])
                counter[i][w] += weight * sum(
                    cond[j] * Fraction(mech.table[(rest, s)][w]) for j, s in enumerate(recs)
                )
    return actual, counter


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_oracle_matches_rational_posteriors(seed):
    rng = np.random.default_rng(seed)
    rests, recs, outputs = ("r0", "r1"), ("a", "b", "c"), ("w0", "w1", "w2", "w3")

    def dist(n):  # rational weights, zeros included, never all zero
        weights = [int(x) for x in rng.integers(0, 4, n)]
        weights[int(rng.integers(n))] += 1
        return tuple(float(Fraction(x, sum(weights))) for x in weights)

    mech = FiniteMechanismFamily(outputs, {(k, r): dist(4) for k in rests for r in recs})
    prior = SmallUniversePrior(
        tuple(zip(rests, dist(2))), recs, {k: dist(3) for k in rests}
    )
    actual, counter = _exact_joint(prior, mech)
    marginals = marginal_output_probabilities(prior, mech)
    for joint, got in zip((actual, counter), marginals):
        want = [sum(col) for col in zip(*joint)]
        assert np.allclose(got, [float(x) for x in want], rtol=0, atol=1e-12)
    for w, omega in enumerate(outputs):
        z_actual = sum(row[w] for row in actual)
        z_counter = sum(row[w] for row in counter)
        if z_actual == z_counter == 0:
            with pytest.raises(ValueError):
                exact_posteriors(prior, mech, omega)
            continue
        verdict = exact_posteriors(prior, mech, omega)
        for i in range(len(recs)):
            a, c = actual[i][w] / z_actual, counter[i][w] / z_counter
            assert math.isclose(verdict.actual_posterior[i], a, abs_tol=1e-12)
            assert math.isclose(verdict.counterfactual_posterior[i], c, abs_tol=1e-12)
            q = verdict.ratio[i]
            if c:
                assert math.isclose(q, a / c, rel_tol=1e-12)
            else:
                assert q == math.inf if a else math.isnan(q)


# --- pure dp ratio bound ----------------------------------------------------------

def test_rr_ratio_bound_holds():
    mech = rr_family(1.0)
    prior = SmallUniversePrior.known_rest(("pos", "neg"), (0.2, 0.8))
    report = pure_dp_ratio_bound_check(prior, mech)
    assert report.ok
    assert math.isclose(report.eps, 1.0, rel_tol=1e-12)
    assert report.max_ratio <= math.exp(1.0) + 1e-9


def test_constant_mechanism_ratios_exactly_one():
    table = {("rest", "a"): (1.0,), ("rest", "b"): (1.0,)}
    mech = FiniteMechanismFamily(("only",), table)
    prior = SmallUniversePrior.known_rest(("a", "b"), (0.4, 0.6))
    report = pure_dp_ratio_bound_check(prior, mech)
    assert report.ok
    assert report.eps == 0.0
    assert report.max_ratio == 1.0 == report.min_ratio


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_priors_never_violate_pure_bound(seed):
    rng = np.random.default_rng(seed)
    mech = rr_family(1.0, rests=("r0", "r1"))
    conds = {
        "r0": tuple(rng.dirichlet((0.4, 0.4))),
        "r1": tuple(rng.dirichlet((0.4, 0.4))),
    }
    w = float(rng.uniform(0.05, 0.95))
    prior = SmallUniversePrior((("r0", w), ("r1", 1 - w)), ("pos", "neg"), conds)
    report = pure_dp_ratio_bound_check(prior, mech)
    assert report.ok


@pytest.mark.parametrize("records", [("a", "b"), ("b", "a")])
def test_pure_dp_epsilon_does_not_depend_on_the_record_order(records):
    # the loss a -> b drops output "1", which a never produces; only b -> a sees it
    rows = {"a": (1.0, 0.0), "b": (0.5, 0.5)}
    mech = FiniteMechanismFamily(("0", "1"), {("rest", r): rows[r] for r in records})
    prior = SmallUniversePrior.known_rest(records, (0.5, 0.5))
    assert mech.pure_dp_epsilon(prior) == math.inf
    with pytest.raises(ValueError, match="not pure-DP"):
        pure_dp_ratio_bound_check(prior, mech)


# --- theorem-level delta curves --------------------------------------------------------

def test_known_rest_delta_rdp_point():
    got = bayes_known_rest_delta(RdpProfile(((2.0, 1.0),)), 3.0)
    assert math.isclose(got, math.exp(-5.0), rel_tol=1e-12)


def test_known_rest_delta_zcdp():
    rho = 2.63
    assert bayes_known_rest_delta(ZcdpProfile(rho), rho / 2) == 1.0
    eps = 5.0
    want = math.exp(-((eps + rho) ** 2) / (4 * rho))
    assert math.isclose(bayes_known_rest_delta(ZcdpProfile(rho), eps), want, rel_tol=1e-12)
    # rho = 0 releases nothing: no ratio exceeds e^eps for eps > 0
    assert bayes_known_rest_delta(ZcdpProfile(0.0), 0.5) == 0.0
    assert bayes_known_rest_delta(ZcdpProfile(0.0), 0.0) == 1.0


def test_known_rest_strictly_below_arbitrary_above_rho():
    rho = 2.63
    for eps in np.linspace(rho + 0.01, 25, 30):
        eps = float(eps)
        a = bayes_known_rest_delta(ZcdpProfile(rho), eps)
        b = zcdp_to_delta(rho, eps)
        assert a < b


def test_bayes_pbdp_delegates_to_tradeoff_conversion():
    mu = math.sqrt(5.26)
    for delta in (1e-4, 0.1, 0.4):
        assert math.isclose(
            fdp_to_epsdelta(GaussianExactCurve(mu), delta),
            gaussian_pbdp_epsilon(mu, delta),
            abs_tol=1e-9,
        )


def test_bayes_pbdp_perfect_privacy():
    from dpsemantics.tradeoff import PiecewiseLinearCurve

    diagonal = PiecewiseLinearCurve(((0.0, 0.0), (1.0, 1.0)))
    for delta in (0.05, 0.5, 1.0):
        assert math.isclose(fdp_to_epsdelta(diagonal, delta), 0.0, abs_tol=1e-12)


# --- the wrong-prior example ----------------------------------------------------------

def test_wrong_prior_closed_form_ratio_near_100():
    actual, counterfactual, ratio = wrong_prior_ratio_closed_form()
    assert counterfactual == 0.01
    assert math.isclose(actual, 1.0 / (1.0 + 99.0 * math.exp(-100.8)), rel_tol=1e-15)
    assert 99.0 < ratio <= 100.0
    assert math.isclose(ratio, 100.0, abs_tol=1e-6)


def test_wrong_prior_ratio_grows_with_smaller_prior():
    _, _, r1 = wrong_prior_ratio_closed_form(prior_target=0.01)
    _, _, r2 = wrong_prior_ratio_closed_form(prior_target=0.001)
    assert r2 > r1 * 9


def test_wrong_prior_discretized_ratio_exceeds_50():
    prior, mech, omega = wrong_prior_discretized()
    verdict = exact_posteriors(prior, mech, omega)
    ratio_target = verdict.ratio[0]
    assert ratio_target > 50.0
    assert math.isclose(verdict.counterfactual_posterior[0], 0.01, abs_tol=1e-12)


# --- monte carlo validation of the known-rest bound -------------------------------------

def _family_rdp_points(mech, prior, alphas=(1.5, 2.0, 3.0, 4.0, 6.0, 8.0)):
    points = []
    for alpha in alphas:
        worst = 0.0
        for rest, _ in prior.rest_datasets:
            for i, r1 in enumerate(prior.record_values):
                for r2 in prior.record_values[i + 1:]:
                    worst = max(
                        worst,
                        renyi_divergence(mech.pair(rest, r1, r2), alpha),
                        renyi_divergence(mech.pair(rest, r2, r1), alpha),
                    )
        points.append((alpha, worst))
    return RdpProfile(tuple(points))


@pytest.mark.parametrize(
    "mech_builder",
    [lambda: rr_family(1.0), lambda: noisy_grid_family(1.0)],
    ids=["randomized-response", "noisy-grid"],
)
def test_known_rest_bound_holds_empirically(mech_builder):
    n = 100_000
    mech = mech_builder()
    prior = SmallUniversePrior.known_rest(("pos", "neg"), (0.25, 0.75))
    profile = _family_rdp_points(mech, prior)
    for i, eps in enumerate((0.5, 1.0, 2.0, 3.0)):
        bound = bayes_known_rest_delta(profile, eps)
        freqs = simulate_ratio_exceedance(prior, mech, eps, n, seed=1000 + i)
        se = math.sqrt(max(bound * (1 - bound), 1e-12) / n)
        for freq in freqs.values():
            assert freq <= bound + 3 * se + 1e-12
