import math

import numpy as np
import pytest
from scipy import stats

from dpsemantics import (
    AffectedQuerySet,
    DiscreteGaussParams,
    affected_queries_from_table,
    builtin_scenario,
    dgauss_pmf,
    gaussian_exact_power,
    llr_statistic,
    mc_roc,
    zcdp_power_bound,
)
from dpsemantics.dgauss import DiscreteGaussianSampler
GRID_LEVELS = np.arange(0.01, 1.00, 0.01)


def series_oracle(sigma2: float, moment: int = 0, span: int = 400) -> float:
    """Independent pmf oracle: plain fsum over a wide fixed window."""
    ks = range(-span, span + 1)
    z = math.fsum(math.exp(-k * k / (2 * sigma2)) for k in ks)
    if moment == 0:
        return 1.0 / z
    return math.fsum(k**moment * math.exp(-k * k / (2 * sigma2)) for k in ks) / z


# --- pmf ------------------------------------------------------------------------

def test_pmf_symmetry():
    params = DiscreteGaussParams(2.7)
    for k in range(0, 12):
        assert dgauss_pmf(k, params) == dgauss_pmf(-k, params)


def test_pmf_normalization():
    for sigma2 in (0.5, 1.0, 4.0, 25.0):
        params = DiscreteGaussParams(sigma2)
        span = int(math.ceil(14 * math.sqrt(sigma2)))
        total = math.fsum(dgauss_pmf(k, params) for k in range(-span, span + 1))
        assert abs(total - 1.0) < 1e-12


def test_pmf_against_series_oracle():
    params = DiscreteGaussParams(1.0)
    assert math.isclose(dgauss_pmf(0, params), series_oracle(1.0), rel_tol=1e-12)
    for k in (1, 2, 5):
        want = math.exp(-k * k / 2.0) * series_oracle(1.0)
        assert math.isclose(dgauss_pmf(k, params), want, rel_tol=1e-12)


def test_pmf_rejects_bad_scale():
    with pytest.raises(ValueError):
        DiscreteGaussParams(0.0)
    with pytest.raises(ValueError):
        DiscreteGaussParams(-1.0)


# --- sampler ---------------------------------------------------------------------

def test_sampler_moments(rng):
    params = DiscreteGaussParams(4.0)
    draws = DiscreteGaussianSampler(params).sample(rng, 1_000_000)
    assert abs(draws.mean()) < 0.01
    analytic_var = series_oracle(4.0, moment=2)
    assert abs(draws.var() - analytic_var) / analytic_var < 0.02


def test_sampler_chi_square_goodness_of_fit(rng):
    sigma2 = 2.0
    params = DiscreteGaussParams(sigma2)
    n = 1_000_000
    draws = DiscreteGaussianSampler(params).sample(rng, n)
    edge = 10
    clipped = np.clip(draws, -edge, edge)
    observed = np.bincount(clipped + edge, minlength=2 * edge + 1)
    expected = np.array(
        [dgauss_pmf(k, params) for k in range(-edge, edge + 1)], dtype=float
    )
    # fold everything past the edges into the edge bins
    tail = (1.0 - expected.sum()) / 2.0
    expected[0] += tail
    expected[-1] += tail
    keep = expected * n >= 5
    result = stats.chisquare(observed[keep], expected[keep] / expected[keep].sum() * observed[keep].sum())
    assert result.pvalue > 0.001


def test_sampler_deterministic_given_seed():
    params = DiscreteGaussParams(3.0)
    a = DiscreteGaussianSampler(params).sample(np.random.default_rng(5), 1000)
    b = DiscreteGaussianSampler(params).sample(np.random.default_rng(5), 1000)
    assert np.array_equal(a, b)


# --- llr -------------------------------------------------------------------------

def test_llr_single_cell_at_zero():
    queries = AffectedQuerySet(((1.0, 1),))
    assert math.isclose(llr_statistic([0], queries), 0.5)


def test_llr_empty_set_is_zero():
    assert llr_statistic([], AffectedQuerySet(())) == 0.0


def test_llr_additive_over_cells():
    single = AffectedQuerySet(((0.7, 1),))
    double = AffectedQuerySet(((0.7, 2),))
    # cells alternate +1/-1 shifts; additivity over independent cells
    got = llr_statistic([3, -2], double)
    want = llr_statistic([3], single) + (0.7 * (0.5 - (-2) * -1))
    assert math.isclose(got, want)
    pair = AffectedQuerySet(((0.7, 1), (0.3, 1)))
    assert math.isclose(
        llr_statistic([1, 4], pair),
        llr_statistic([1], AffectedQuerySet(((0.7, 1),)))
        + llr_statistic([4], AffectedQuerySet(((0.3, 1),))),
    )


def test_llr_length_mismatch_rejected():
    with pytest.raises(ValueError):
        llr_statistic([0, 1], AffectedQuerySet(((1.0, 1),)))


def test_llr_pmf_ratio_agreement():
    # the closed form inside llr_statistic must match literal pmf ratios
    params = DiscreteGaussParams(1.0)
    queries = AffectedQuerySet(((1.0, 1),))
    for obs in (-3, -1, 0, 2, 4):
        want = math.log(dgauss_pmf(obs, params) / dgauss_pmf(obs - 1, params))
        assert math.isclose(llr_statistic([obs], queries), want, rel_tol=1e-12)


# --- affected query sets ------------------------------------------------------------

def test_production_affected_queries(production_table):
    queries = affected_queries_from_table(production_table)
    # 11 person queries x 6 levels minus the zero national total, plus
    # occupancy at 6 levels
    assert len(queries.entries) == 71
    assert all(cells == 2 for _, cells in queries.entries)
    assert math.isclose(queries.total_rho(), 2.63, rel_tol=1e-12)


def test_scenario_a_affected_queries(production_table):
    queries = affected_queries_from_table(production_table, builtin_scenario("A"))
    assert len(queries.entries) == 12
    assert math.isclose(queries.total_rho(), 0.11150074378640834, rel_tol=1e-12)


# --- mc roc ---------------------------------------------------------------------------

def test_mc_roc_rejects_tiny_runs():
    queries = AffectedQuerySet(((1.0, 2),))
    with pytest.raises(ValueError):
        mc_roc(queries, 999, seed=1)


def test_mc_roc_deterministic_given_seed():
    queries = AffectedQuerySet(((0.5, 2), (0.1, 2)))
    a = mc_roc(queries, 5000, seed=42)
    b = mc_roc(queries, 5000, seed=42)
    assert np.array_equal(a.null_llr, b.null_llr)
    assert np.array_equal(a.alt_llr, b.alt_llr)
    c = mc_roc(queries, 5000, seed=43)
    assert not np.array_equal(a.null_llr, c.null_llr)


def test_mc_roc_sharded_equals_sequential():
    queries = AffectedQuerySet(((0.5, 2), (0.1, 2)))
    seq = mc_roc(queries, 5000, seed=42, workers=1)
    par = mc_roc(queries, 5000, seed=42, workers=4)
    assert np.array_equal(seq.null_llr, par.null_llr)
    assert np.array_equal(seq.alt_llr, par.alt_llr)


def test_mc_roc_near_diagonal_for_tiny_budget():
    queries = AffectedQuerySet(((1e-6, 2),))
    roc = mc_roc(queries, 50_000, seed=7)
    for level in (0.1, 0.5, 0.9):
        assert abs(roc.power_at(level) - level) < 0.02


def test_mc_roc_symmetry_of_arms(mc_scenario_a):
    # negating the null-arm statistics reproduces the alternative arm
    result = stats.ks_2samp(-mc_scenario_a.null_llr, mc_scenario_a.alt_llr)
    assert result.pvalue > 0.001


def test_mc_roc_dominated_by_zcdp_bound(mc_production):
    rho = 2.63
    for level in GRID_LEVELS:
        level = float(level)
        bound = zcdp_power_bound(rho, level)
        emp = mc_production.power_at(level)
        se = mc_production.standard_error(level)
        assert emp <= bound + 3 * se


def test_mc_roc_close_to_gaussian_production(mc_production):
    mu = math.sqrt(2 * 2.63)
    for level in GRID_LEVELS:
        level = float(level)
        emp = mc_production.power_at(level)
        want = gaussian_exact_power(mu, level)
        tol = max(0.01, 3 * mc_production.standard_error(level))
        assert abs(emp - want) <= tol


def test_mc_roc_close_to_gaussian_scenario_a(mc_scenario_a, production_table):
    from dpsemantics import scenario_rho

    rho = float(scenario_rho(production_table, builtin_scenario("A")))
    mu = math.sqrt(2 * rho)
    for level in GRID_LEVELS:
        level = float(level)
        emp = mc_scenario_a.power_at(level)
        want = gaussian_exact_power(mu, level)
        tol = max(0.01, 3 * mc_scenario_a.standard_error(level))
        assert abs(emp - want) <= tol


def test_mc_roc_curve_monotone(mc_scenario_a):
    curve = mc_scenario_a.curve()
    powers = [p for _, p in curve.vertices]
    assert all(a <= b + 1e-12 for a, b in zip(powers, powers[1:]))


def test_mc_manifest_contents(mc_scenario_a):
    manifest = mc_scenario_a.manifest()
    assert manifest["n_samples"] == 1_000_000
    assert "allocation_digest" in manifest
