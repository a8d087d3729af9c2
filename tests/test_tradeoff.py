import itertools
import math
import time

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpsemantics import (
    ApproxDpBoundCurve,
    FiniteMechanismPair,
    GaussianExactCurve,
    PureDpBoundCurve,
    RdpNumericBoundCurve,
    ZcdpNumericBoundCurve,
    approx_dp_delta,
    approx_dp_power_bound,
    gaussian_exact_power,
    np_tradeoff_finite,
    plrv_of_finite_pair,
    pure_dp_epsilon,
    pure_dp_power_bound,
    rdp_power_bound,
    zcdp_power_bound,
)
from dpsemantics import census
from dpsemantics.bayes import wrong_prior_discretized
from dpsemantics.cli import main
from dpsemantics._norm import phi, phi_inv
from dpsemantics.accountants import (
    ZcdpProfile,
    adp_gaussian_curve,
    fdp_to_epsdelta,
    zcdp_to_delta,
)
from published import (
    BLOCK_ZCDP_BOUND,
    BLOCK_ZCDP_BOUND_TOL,
    LEVELS,
    PRODUCTION_GAUSSIAN,
    PRODUCTION_GAUSSIAN_TOL,
    PRODUCTION_ZCDP_BOUND,
    PRODUCTION_ZCDP_BOUND_TOL,
    SCENARIO_POWER_TOL,
    SCENARIO_POWERS,
    SCENARIO_RHO,
)

# pure-DP reference grid: third-decimal values of min(e^eps * l, 1 - e^-eps (1-l));
# two cells are commonly printed as 0.820 and 0.550 but evaluate to 0.082 and
# 0.546, so the formula values are pinned here
REFERENCE_POWER_GRID = {
    (0.1, 0.01): 0.011,
    (0.5, 0.01): 0.016,
    (1.0, 0.01): 0.027,
    (2.0, 0.01): 0.074,
    (4.0, 0.01): 0.546,  # printed as 0.550 in circulated copies
    (0.1, 0.05): 0.055,
    (0.5, 0.05): 0.082,  # printed as 0.820 in circulated copies
    (1.0, 0.05): 0.136,
    (2.0, 0.05): 0.369,  # 0.369453; circulated copies round up to 0.370
    (4.0, 0.05): 0.983,
    (0.1, 0.10): 0.111,
    (0.5, 0.10): 0.165,
    (1.0, 0.10): 0.272,
    (2.0, 0.10): 0.739,
    (4.0, 0.10): 0.984,
}


def test_pure_dp_reference_grid():
    for (eps, level), want in REFERENCE_POWER_GRID.items():
        assert round(pure_dp_power_bound(eps, level), 3) == want


def test_pure_dp_zero_eps_is_noninformative():
    for level in (0.0, 0.2, 0.77, 1.0):
        assert math.isclose(pure_dp_power_bound(0.0, level), level)


def test_approx_reduces_to_pure_at_zero_delta():
    for eps, level in itertools.product((0.1, 1.0, 3.0), (0.01, 0.3, 0.9)):
        assert approx_dp_power_bound(eps, 0.0, level) == pure_dp_power_bound(eps, level)


def test_approx_at_zero_eps_adds_delta():
    for delta, level in ((0.01, 0.05), (0.2, 0.3)):
        assert math.isclose(approx_dp_power_bound(0.0, delta, level), level + delta)


@pytest.mark.parametrize("concentration", [1.0, 0.1])
def test_np_power_stays_under_the_pure_dp_bound_within_its_stated_slack(concentration):
    # at the pair's own pure eps the bound is attained on the exact trade-off's
    # first or last segment, so rounding puts either one above the other;
    # README states the bound's error as (2 + eps) 2^-52, which is 2^-51 at
    # eps = 0; Dirichlet(0.1) pairs reach eps = 62 and exceed the bound by 14 x 2^-52
    rng = np.random.default_rng(20210812)
    for _ in range(150):
        k = int(rng.integers(2, 7))
        p1, p2 = (rng.dirichlet(np.full(k, concentration)) for _ in range(2))
        pair = FiniteMechanismPair(tuple(map(str, range(k))), p1, p2)
        eps = pure_dp_epsilon(plrv_of_finite_pair(pair))
        slack = (2.0 + eps) * 2.0**-52
        for direction in (pair, pair.reversed()):
            curve = np_tradeoff_finite(direction)
            vertices = [level for level, _ in curve.vertices]
            for level in [0.0, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.9, *vertices]:
                assert curve.power(level) <= pure_dp_power_bound(eps, level) + slack


def test_approx_bound_huge_eps_does_not_overflow():
    assert approx_dp_power_bound(1000.0, 0.1, 0.5) == 1.0
    assert approx_dp_power_bound(1000.0, 0.1, 0.0) == 0.1
    # e^inf times level 0 would be NaN; level 0 still reaches only delta
    assert approx_dp_power_bound(math.inf, 0.1, 0.0) == 0.1
    assert math.isfinite(ApproxDpBoundCurve(1000.0, 0.1).inverse_type2(0.5))


def test_approx_bound_lies_at_most_two_to_the_minus_51_below_its_exact_value():
    # README states the (eps, delta) bound's rounding slack: the float bound
    # is at most 2^-51 below min(e^eps x + delta, 1 - e^-eps (1 - x - delta)),
    # clamped to [0, 1], taken at 50 digits of the same float inputs;
    # 200,000 such draws came within 0.64 x 2^-52
    rng = np.random.default_rng(20261022)
    with mpmath.workdps(50):
        for _ in range(2000):
            eps = float(rng.choice([rng.uniform(0.0, 40.0), 10.0 ** rng.uniform(-10.0, 2.9), 0.0]))
            delta = float(rng.choice([rng.uniform(), 10.0 ** rng.uniform(-15.0, 0.0), 0.0]))
            level = float(rng.choice([rng.uniform(), 10.0 ** rng.uniform(-300.0, 0.0), 0.0, 1.0]))
            e, d, x = mpmath.mpf(eps), mpmath.mpf(delta), mpmath.mpf(level)
            exact = min(1, max(0, min(mpmath.exp(e) * x + d, 1 - mpmath.exp(-e) * (1 - x - d))))
            assert approx_dp_power_bound(eps, delta, level) >= exact - 2.0**-51, (eps, delta, level)


def test_approx_direct_evaluation():
    want = min(math.e * 0.05 + 0.01, 1 - math.exp(-1) * (1 - 0.05 - 0.01))
    assert math.isclose(approx_dp_power_bound(1.0, 0.01, 0.05), want)
    assert math.isclose(want, 0.1459, abs_tol=5e-5)


# --- the envelope of an (eps, delta) curve ----------------------------------------

@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, math.sqrt(5.26), 5.0])
def test_gaussian_adp_curve_touches_the_exact_tradeoff(mu):
    # each (eps, delta(eps)) bounds the power; at level Phi(-eps/mu - mu/2) the
    # bound e^eps level + delta(eps) is the Gaussian power itself, so the
    # envelope over the curve is the exact trade-off
    delta = adp_gaussian_curve(mu).delta
    levels = np.linspace(0.0, 1.0, 51).tolist()
    exact = [gaussian_exact_power(mu, level) for level in levels]
    for eps in np.linspace(0.0, 12.0, 121)[1:].tolist():
        touch, d = phi(-eps / mu - mu / 2.0), delta(eps)
        if touch > 0.0 and d > 0.0:
            want = gaussian_exact_power(mu, touch)
            assert math.isclose(math.exp(eps) * touch + d, want, rel_tol=1e-12)
        for level, power in zip(levels, exact):
            assert approx_dp_power_bound(eps, d, level) >= power


@pytest.mark.parametrize("rho", [0.1115, 0.926, 2.63, 5.0])
def test_zcdp_moment_bound_below_every_point_of_its_delta_curve(rho):
    # the moment-constraint bound is at most the power bound of any single
    # point of the zCDP tail-bound curve
    eps_grid = np.linspace(0.0, 30.0, 3001).tolist()
    for level in (0.01, 0.05, 0.1, 0.5):
        bound = zcdp_power_bound(rho, level)
        for eps in eps_grid:
            assert bound <= approx_dp_power_bound(eps, zcdp_to_delta(rho, eps), level)
    assert zcdp_power_bound(2.63, LEVELS[1]) <= PRODUCTION_ZCDP_BOUND[1]


# --- gaussian exact -------------------------------------------------------------

def test_gaussian_exact_production_values():
    mu = math.sqrt(5.26)
    for level, want in zip(LEVELS, PRODUCTION_GAUSSIAN):
        assert abs(gaussian_exact_power(mu, level) - want) <= PRODUCTION_GAUSSIAN_TOL


def test_gaussian_exact_zero_mu_diagonal():
    for level in (0.0, 0.3, 1.0):
        assert math.isclose(gaussian_exact_power(0.0, level), level)


def test_gaussian_exact_block_scenario_value():
    power = gaussian_exact_power(math.sqrt(2 * SCENARIO_RHO["A"]), LEVELS[1])
    assert abs(power - SCENARIO_POWERS["A"][1]) <= SCENARIO_POWER_TOL


@pytest.mark.parametrize("mu, level", [(10.0, 1e-20), (1.0, 2.0**-60), (3.0, 5e-324), (0.5, 0.3)])
def test_gaussian_exact_power_keeps_its_digits_below_two_to_the_minus_53(mu, level):
    # 1 - level rounds to 1 below 2^-53; Phi^{-1}(level) itself does not
    mpmath.mp.dps = 50
    quantile = mpmath.findroot(lambda x: mpmath.ncdf(x) - level, phi_inv(level))
    want = float(mpmath.ncdf(mu + quantile))
    assert math.isclose(gaussian_exact_power(mu, level), want, rel_tol=1e-13)


# --- zcdp / rdp numeric bounds ----------------------------------------------------

def test_zcdp_bound_production_values():
    for level, want in zip(LEVELS, PRODUCTION_ZCDP_BOUND):
        assert abs(zcdp_power_bound(2.63, level) - want) <= PRODUCTION_ZCDP_BOUND_TOL


def test_zcdp_bound_block_scenario_values():
    bound = zcdp_power_bound(SCENARIO_RHO["A"], LEVELS[1])
    assert abs(bound - BLOCK_ZCDP_BOUND[1]) <= BLOCK_ZCDP_BOUND_TOL


def test_zcdp_bound_vanishing_rho_noninformative():
    assert abs(zcdp_power_bound(1e-9, 0.05) - 0.05) <= 1e-4


def test_zcdp_bound_boundary_levels():
    assert zcdp_power_bound(2.63, 0.0) == 0.0
    assert zcdp_power_bound(2.63, 1.0) == 1.0


def test_zcdp_is_never_looser_than_rdp_at_its_own_orders():
    # every RDP row of rho-zCDP at a grid of orders is one of the zCDP bound's
    # rows, so the continuous search lies at or below their least flip (at
    # or above, for a level), to a float
    orders = np.exp(np.linspace(math.log(1.0001), math.log(200.0), 40)).tolist()
    for rho in (0.1115, 2.63):
        rdp = RdpNumericBoundCurve(ZcdpProfile(rho).on_alpha_grid(orders).points)
        zcdp = ZcdpNumericBoundCurve(rho)
        for level in (0.0, 1e-6, 0.01, 0.05, 0.1, 0.5, 1.0):
            assert zcdp.power(level) <= math.nextafter(rdp.power(level), 2.0)
            assert zcdp.power(level) == zcdp_power_bound(rho, level)
        for z in (0.0, 1e-3, 0.5, 1.0 - 1e-6, 1.0):
            assert zcdp.inverse_type2(z) >= math.nextafter(rdp.inverse_type2(z), -1.0)


def test_rdp_zero_gamma_forces_noninformative():
    for level in (0.05, 0.3):
        assert abs(rdp_power_bound([(2.0, 0.0)], level) - level) < 1e-5
    # even at so large an order the level itself passes the check exactly (every
    # term is 0 there), so the bound is the float above the level
    assert RdpNumericBoundCurve(((1e5, 0.0),)).power(0.5) == math.nextafter(0.5, 1.0)


def test_rdp_bound_membership_and_monotone_in_gamma():
    level = 0.05
    values = [rdp_power_bound([(2.0, g)], level) for g in (0.25, 0.5, 1.0, 2.0)]
    for v in values:
        assert level <= v <= 1.0
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


# --- the moment bounds against a 50-digit oracle ---------------------------------


def mp_gap(level, power, alpha, gamma, mirror, slope=False):
    """D_alpha(level || power) - gamma for the two-point pair at 50 digits,
    or D_alpha(power || level) - gamma with `mirror`; alpha = 1 is the
    Kullback-Leibler divergence.  The sum is log1p of expm1 terms, so that
    it does not round to 0 near the diagonal at tiny levels.  With `slope`,
    the derivative in s = ln(alpha - 1) of D_alpha - rho alpha instead,
    gamma = rho alpha."""
    a, b = (power, level) if mirror else (level, power)
    d1, d2 = mpmath.log(a) - mpmath.log(b), mpmath.log1p(-a) - mpmath.log1p(-b)
    if alpha == 1:
        return a * d1 + (1 - a) * d2 - gamma
    lam = alpha - 1
    t1, t2 = a * mpmath.expm1(lam * d1), (1 - a) * mpmath.expm1(lam * d2)
    k = mpmath.log1p(t1 + t2)
    if not slope:
        return k / lam - gamma
    dk = (d1 * (a + t1) + d2 * (1 - a + t2)) / (1 + t1 + t2)
    return (lam * dk - k) / lam - gamma / alpha * lam


def largest_gap(curve, level, power):
    """(G, gamma): the largest D_alpha - gamma(alpha) over the curve's orders
    and both sides at (level, power), and gamma at that order.  The point is
    feasible iff G <= 0, and each order's feasible powers at a level (levels
    at a power) form an interval about the diagonal, so a power bound p is
    sound iff G >= 0 at (level, p), and within TAU of the exact bound iff
    G <= 0 at (level, p / (1 + TAU)); for a level y, at the float below y
    and at y / (1 - TAU).  An RDP curve's orders are its points; zCDP's are
    alpha in [1, inf): the Kullback-Leibler row, and every local maximum in
    s = ln(alpha - 1) in [-12, 16], where the slope in s falls through 0
    between two points of a grid of step 1/4 (at level 5e-324 and power
    2.2e-291 the slope turns up and back down within one unit of s), solved
    by regula falsi."""
    with mpmath.workdps(50):
        level, power = mpmath.mpf(level), mpmath.mpf(power)
        if isinstance(curve, RdpNumericBoundCurve):
            rows = [(mpmath.mpf(a), mpmath.mpf(g)) for a, g in curve.points]
        else:
            rho = mpmath.mpf(curve.rho)
            rows = [(mpmath.mpf(1), rho)]
            for mirror in (False, True):

                def slope(s):
                    alpha = 1 + mpmath.exp(s)
                    return mp_gap(level, power, alpha, rho * alpha, mirror, slope=True)

                with mpmath.workdps(30):
                    grid = [mpmath.mpf(s) / 4 for s in range(-48, 65)]
                    at = [slope(s) for s in grid]
                    peaks = [
                        regula_falsi(slope, lo, hi, f_lo, f_hi)
                        for lo, hi, f_lo, f_hi in zip(grid, grid[1:], at, at[1:])
                        if f_lo > 0 >= f_hi
                    ]
                rows += [(1 + mpmath.exp(s), rho * (1 + mpmath.exp(s))) for s in peaks]
        return max((mp_gap(level, power, a, g, m), g) for a, g in rows for m in (False, True))


def regula_falsi(f, a, b, fa, fb):
    """A root of f between a and b, where f changes sign, by the Illinois
    variant of regula falsi, to the working precision less 5 digits."""
    while abs(b - a) > mpmath.mpf(10) ** (5 - mpmath.mp.dps) * (1 + abs(b)):
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c)
        if fc == 0:
            return c
        if (fc > 0) != (fb > 0):
            a, fa = b, fb
        else:
            fa /= 2
        b, fb = c, fc
    return b


#: Soundness: a bound may lie on the unsound side of the exact one by the
#: rows' error bound, here 2^-44 (1 + gamma) in D_alpha - gamma.
#: Tightness: it lies within TAU, relative, of the exact bound; 2^-36
#: covers the rows' error bounds where gamma is large (rho = 500 at level
#: 2.4e-234: 4e-12).  Below TINY the rows' underflow term, 2^-1070 in each
#: row's error bound, can dominate (gamma = 0 at level 2.2e-309: 3e-7
#: relative), so only soundness is asserted there.  The 2,000-order grid
#: this search replaced lay up to 3.05e-5 (power) and 4.68e-5 (level) from
#: the exact bound over 6 budgets x 99 levels.
TAU = 2.0**-36
TINY = 2.0**-900


def assert_power_sound_and_tight(curve, u):
    """power(u), at a level u in (0, 1), against `largest_gap`."""
    p = curve.power(u)
    if p < 1.0:
        g, gamma = largest_gap(curve, u, p)
        assert g >= -(2.0**-44) * (1 + gamma), p
    if u >= TINY and p / (1 + TAU) > u:
        assert largest_gap(curve, u, p / (1 + TAU))[0] <= 0, p


def assert_level_sound_and_tight(curve, w):
    """inverse_type2(1 - w), the level at a power w in (0, 1), against
    `largest_gap`."""
    y = curve.inverse_type2(1.0 - w)
    if math.nextafter(y, 0.0) > 0.0:
        g, gamma = largest_gap(curve, math.nextafter(y, 0.0), w)
        assert g >= -(2.0**-44) * (1 + gamma), y
    if y >= TINY and y / (1 - TAU) < w:
        assert largest_gap(curve, y / (1 - TAU), w)[0] <= 0, y


def assert_sound_and_tight(curve, u):
    """The power at level u and the level at power u."""
    assert_power_sound_and_tight(curve, u)
    w = 1.0 - (1.0 - u)
    if 0.0 < w < 1.0:
        assert_level_sound_and_tight(curve, w)


@pytest.mark.parametrize(
    "curve, u",
    [
        (ZcdpNumericBoundCurve(2.63), 0.05),  # the Kullback-Leibler row binds
        (ZcdpNumericBoundCurve(0.1115), 0.34),
        (ZcdpNumericBoundCurve(0.926), 0.5),
        (ZcdpNumericBoundCurve(5.0), 0.99),
        (ZcdpNumericBoundCurve(0.1115), 1e-3),
        (ZcdpNumericBoundCurve(2.63), 1e-300),  # one ulp of the log-odds is thousands of v
        (ZcdpNumericBoundCurve(1e-6), 0.5),  # the roots of all orders lie close together
        (ZcdpNumericBoundCurve(500.0), 0.5),  # every power below 1 is feasible
        (RdpNumericBoundCurve(((2.0, 0.0),)), 0.3),  # gamma 0: the flip sits at the level
        (RdpNumericBoundCurve(((1.5, 0.3), (30.0, 2.0))), 0.1),
        (RdpNumericBoundCurve(((1.5, 0.0),)), 2.225073858507203e-309),  # soundness alone
    ],
)
def test_moment_bounds_are_sound_and_tight(curve, u):
    assert_sound_and_tight(curve, u)


def census_budgets():
    """Production plus scenarios A-H: rho from 0.1115 to 2.63."""
    table = census.production_table()
    return [float(census.total_rho(table))] + [
        float(census.scenario_rho(table, s)) for s in census.builtin_scenarios()
    ]


def test_zcdp_bound_is_certified_by_the_unscreened_check():
    # every row is decided on its own in ratio form: at each census budget
    # the bound at one level, and the levels two (eps, delta) conversions
    # take at the production budget, meet the exact constraints
    for rho, u in zip(census_budgets(), (0.27, 0.01, 0.5, 0.9, 0.05, 0.33, 0.75, 0.1, 0.6)):
        assert_power_sound_and_tight(ZcdpNumericBoundCurve(rho), u)
    curve = ZcdpNumericBoundCurve(census_budgets()[0])
    for delta in (0.1, 1e-6):
        # fdp_to_epsdelta takes 1 - delta rounded up, so that 1 - z <= delta
        z = 1.0 - delta
        z = math.nextafter(z, 2.0) if 1.0 - z > delta else z
        assert_level_sound_and_tight(curve, 1.0 - z)
        assert fdp_to_epsdelta(curve, delta) == math.log(delta / curve.inverse_type2(z))


open_unit = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-12, 0.05, 0.5, 1.0 - 2.0**-53]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
moment_curves = st.one_of(
    st.one_of(st.sampled_from([1e-6, 0.1115, 2.63, 5.0, 1e308]), st.floats(1e-6, 1e308)).map(
        ZcdpNumericBoundCurve
    ),
    st.lists(
        st.tuples(st.floats(1.0, 1e3, exclude_min=True), st.floats(0.0, 1e3)), min_size=1, max_size=6
    ).map(lambda points: RdpNumericBoundCurve(tuple(points))),
)


@settings(max_examples=15, deadline=None)
@given(moment_curves, open_unit)
@example(ZcdpNumericBoundCurve(1e308), 0.5)  # every power below 1 is feasible
@example(RdpNumericBoundCurve(((2.0, 0.0),)), 0.3)  # gamma 0: the flip sits at the level
def test_moment_bounds_are_certified_by_the_unscreened_check(curve, u):
    # each row is decided on its own, with no screen, and the answer is one
    # row's flip: sound and tight against the exact constraints
    assert_sound_and_tight(curve, u)


@pytest.mark.parametrize("order, z", [(3e4, 0.5), (1e6, 0.7)])
def test_inverse_at_a_huge_order_is_the_whole_range_bisection(order, z):
    # gamma 0 admits only level = power, and the ratio form is exact there:
    # the log form's a log u + (1 - a) log u did not cancel at such orders,
    # so the inverse stopped short of 1 - z (0.49999999999070094)
    curve = RdpNumericBoundCurve(((order, 0.0),))
    assert curve.inverse_type2(z) == 1.0 - z
    assert_sound_and_tight(curve, 1.0 - z)


def bits(xs):
    return np.asarray(xs, dtype=float).view(np.int64)


unit_with_ends = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 2.225073858507203e-309, 1e-300, 0.27, 1.0 - 2.0**-53]),
    st.floats(0.0, 1.0),
)


@settings(max_examples=60, deadline=None)
@given(moment_curves, st.lists(unit_with_ends, min_size=1, max_size=6))
@example(ZcdpNumericBoundCurve(0.11150074378640834), [0.27, 0.0, 1.0, 5e-324, 1e-300])
@example(RdpNumericBoundCurve(((2.0, 0.0),)), [0.3, 0.5, 2.225073858507203e-309])
@example(ZcdpNumericBoundCurve(500.0), [0.5, 1e-300])
def test_an_array_call_answers_each_level_as_its_float_call_does(curve, us):
    # each value is solved on its own, so no answer depends on the others
    us = np.array(us)
    powers, inverses = curve.power(us), curve.inverse_type2(us)
    assert powers.shape == inverses.shape == us.shape
    assert (bits(powers) == bits([curve.power(u) for u in us.tolist()])).all()
    assert (bits(inverses) == bits([curve.inverse_type2(z) for z in us.tolist()])).all()
    for u, p, z, y in zip(us.tolist(), powers.tolist(), us.tolist(), inverses.tolist()):
        assert p == u if u in (0.0, 1.0) else u < p <= 1.0
        w = 1.0 - z
        assert 0.0 < y <= w if 0.0 < w < 1.0 else y == (0.0 if z >= 1.0 else 1.0)


def test_moment_curve_cost_is_flat_across_rho():
    # a 101-level power curve and a 99-level inverse cost a small multiple of
    # the rho = 2.63 curve's at every budget; with the 2,000-order grid and
    # its screen they took 70 to 300 times as long below rho = 1e-10
    levels, zs = np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, 101)[1:-1]

    def seconds(rho):
        curve, times = ZcdpNumericBoundCurve(rho), []
        for _ in range(3):
            start = time.perf_counter()
            curve.power(levels)
            curve.inverse_type2(zs)
            times.append(time.perf_counter() - start)
        return min(times)

    base = seconds(2.63)
    for rho in (1e-300, 1e-100, 1e-20, 1e-10, 1e3):
        assert seconds(rho) <= 8.0 * base, rho


@pytest.mark.parametrize("levels", [[0.5, math.nan], [0.2, 1.5], [-1e-300, 0.5], [[0.5]]])
def test_array_levels_are_checked_like_a_float(levels):
    with pytest.raises(ValueError):
        ZcdpNumericBoundCurve(2.63).power(np.array(levels))
    with pytest.raises(ValueError):
        zcdp_power_bound(2.63, levels)


@pytest.mark.parametrize("grid", ["0:2:5", "-0.5:0.5:3"])
def test_cli_zcdp_curve_off_the_level_range_exits_2(grid):
    result = CliRunner().invoke(main, ["curve", "tradeoff-zcdp", "--rho", "2.63", "--grid", grid])
    assert result.exit_code == 2
    assert "significance level must lie in [0, 1]" in result.output


# --- neyman-pearson curves ----------------------------------------------------------


def brute_force_np_power(p1, p2, level, steps=400):
    """Independent oracle: best randomized test by grid search over
    acceptance probabilities, one fractional coordinate at a time."""
    k = len(p1)
    best = 0.0
    grid = [i / steps for i in range(steps + 1)]
    for pattern in itertools.product((0.0, 1.0), repeat=k):
        for frac_at in range(k):
            for g in grid:
                a = list(pattern)
                a[frac_at] = g
                s1 = sum(ai * pi for ai, pi in zip(a, p1))
                if s1 <= level + 1e-12:
                    best = max(best, sum(ai * pi for ai, pi in zip(a, p2)))
    return best


def test_np_rr_vertices_and_power():
    pair = FiniteMechanismPair(("1", "0"), (0.75, 0.25), (0.25, 0.75))
    curve = np_tradeoff_finite(pair)
    assert curve.vertices == ((0.0, 0.0), (0.25, 0.75), (1.0, 1.0))
    assert math.isclose(curve.power(0.05), 0.15)
    assert math.isclose(
        curve.power(0.05), brute_force_np_power((0.75, 0.25), (0.25, 0.75), 0.05),
        abs_tol=1e-2,
    )


def test_np_identical_distributions_diagonal():
    pair = FiniteMechanismPair(("a", "b"), (0.6, 0.4), (0.6, 0.4))
    curve = np_tradeoff_finite(pair)
    for level in (0.0, 0.25, 1.0):
        assert math.isclose(curve.power(level), level)


def test_np_exclusive_output_power_at_level_zero():
    pair = FiniteMechanismPair(
        ("has-target", "has-replacement", "neither"),
        (0.1, 0.0, 0.9),
        (0.0, 0.1, 0.9),
    )
    curve = np_tradeoff_finite(pair.reversed())
    assert (0.0, 0.1) in curve.vertices
    assert math.isclose(curve.power(0.0), 0.1)
    assert math.isclose(curve.power(0.05), 0.15)


def test_mirrored_vertices_are_the_reversed_pair_curve():
    rng = np.random.default_rng(20261018)
    _prior, mech, _omega = wrong_prior_discretized()
    pairs = [mech.pair("rest", "target-positive", "target-negative")]
    for _ in range(200):
        k = int(rng.integers(1, 10))
        p1, p2 = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
        # zero masses on either side, never on all outputs of one side
        p1[rng.random(k) < 0.3] = 0.0
        p2[rng.random(k) < 0.3] = 0.0
        if p1.sum() and p2.sum():
            pairs.append(FiniteMechanismPair(tuple(map(str, range(k))), p1 / p1.sum(), p2 / p2.sum()))
    for pair in pairs:
        (levels, powers), backward = pair._np_vertices
        assert np.array_equal(np.column_stack([levels, powers]), np_tradeoff_finite(pair).vertices)
        reversed_ = np.array(np_tradeoff_finite(pair.reversed()).vertices)
        assert np.array_equal(np.column_stack(backward), reversed_)
        # the mirror image of the forward vertices is the same curve, up to rounding
        mirrored = np.column_stack([1.0 - powers[::-1], 1.0 - levels[::-1]])
        assert mirrored.shape == reversed_.shape
        assert np.abs(mirrored - reversed_).max() <= 1e-15
        assert pair._np_vertices is pair._np_vertices  # built once


def _normalize_weights(v):
    """Weights below 1e-9 snap to zero: keeps zero-probability outputs in
    play without float-absorption artifacts from subnormal weights."""
    snapped = [x if x > 1e-9 else 0.0 for x in v]
    total = sum(snapped)
    if total == 0.0:
        return None
    return tuple(x / total for x in snapped)


prob_vectors = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6).map(
    _normalize_weights
)


@settings(max_examples=60, deadline=None)
@given(prob_vectors, prob_vectors)
@example(  # two chords of about 51/43, the second over a segment 3.7e-8 wide
    _normalize_weights([0.0, 0.5, 0.75, 0.34375, 5.960464477539063e-08]),
    _normalize_weights([0.0, 0.0, 1.0, 0.34375, 5.960464477539063e-08]),
)
def test_np_curves_concave_and_monotone(p1, p2):
    if p1 is None or p2 is None or len(p1) != len(p2) or sum(p1) == 0 or sum(p2) == 0:
        return
    outputs = tuple(str(i) for i in range(len(p1)))
    curve = np_tradeoff_finite(FiniteMechanismPair(outputs, p1, p2))
    # non-increasing chord slopes, up to each slope's rounding error: the
    # vertices are running sums of at most 2k rounded terms in [0, 1], so a
    # coordinate is off by at most 2k ulps of 1, and a slope over a segment
    # of width dx by twice that times (1 + |slope|) / dx
    ulps = 2 * len(p1) * 2.0**-52
    chords = []
    for (x0, y0), (x1, y1) in zip(curve.vertices, curve.vertices[1:]):
        if x1 - x0 > 1e-12:
            slope = (y1 - y0) / (x1 - x0)
            chords.append((slope, 2 * ulps * (1.0 + abs(slope)) / (x1 - x0)))
    assert all(a >= b - ea - eb for (a, ea), (b, eb) in zip(chords, chords[1:]))
    grid = np.linspace(0, 1, 21)
    powers = [curve.power(float(x)) for x in grid]
    assert all(a <= b + 1e-12 for a, b in zip(powers, powers[1:]))


@settings(max_examples=40, deadline=None)
@given(prob_vectors, prob_vectors, st.floats(0.0, 2.0))
def test_dp_bound_dominates_exact_test(p1, p2, eps):
    if p1 is None or p2 is None or len(p1) != len(p2) or sum(p1) == 0 or sum(p2) == 0:
        return
    outputs = tuple(str(i) for i in range(len(p1)))
    pair = FiniteMechanismPair(outputs, p1, p2)
    fwd = plrv_of_finite_pair(pair)
    rev = plrv_of_finite_pair(pair.reversed())
    # the mechanism-level delta takes both neighbor orderings
    delta = max(approx_dp_delta(fwd, rev, eps), approx_dp_delta(rev, fwd, eps))
    curve = np_tradeoff_finite(pair)
    for level in np.linspace(0, 1, 11):
        assert curve.power(float(level)) <= approx_dp_power_bound(
            eps, delta, float(level)
        ) + 1e-9


def _finite_pair_curves(k):
    weights = st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k).map(_normalize_weights)
    outputs = tuple(str(i) for i in range(k))
    return st.tuples(weights, weights).filter(lambda pq: None not in pq).map(
        lambda pq: np_tradeoff_finite(FiniteMechanismPair(outputs, *pq))
    )


bisected_curves = st.one_of(
    st.floats(0.0, 300.0).map(PureDpBoundCurve),
    st.builds(ApproxDpBoundCurve, st.floats(0.0, 300.0), st.floats(0.0, 1.0)),
    st.integers(2, 6).flatmap(_finite_pair_curves),
)


@settings(max_examples=200, deadline=None)
@given(bisected_curves, st.floats(0.0, 1.0))
def test_bisected_inverse_is_exact_to_the_last_float(curve, z):
    y = curve.inverse_type2(z)
    assert 1.0 - curve.power(y) <= z
    if y > 0.0:
        assert 1.0 - curve.power(math.nextafter(y, 0.0)) > z


def test_inverses_at_the_ends_of_the_range():
    # a type II error of 0 or less needs level 1 (or no level: inf of {} is 1),
    # and one of 1 holds from level 0 on
    assert PureDpBoundCurve(1.0).inverse_type2(-0.1) == 1.0
    assert GaussianExactCurve(1.0).inverse_type2(0.0) == 1.0
    assert GaussianExactCurve(1.0).inverse_type2(1.0) == 0.0


@pytest.mark.parametrize("rho", [0.1115, 0.926, 2.63])
def test_gaussian_below_zcdp_bound(rho):
    mu = math.sqrt(2 * rho)
    for level in np.linspace(0.01, 0.99, 25):
        assert gaussian_exact_power(mu, float(level)) <= zcdp_power_bound(
            rho, float(level)
        ) + 1e-6


def test_gaussian_curve_self_inverse():
    curve = GaussianExactCurve(math.sqrt(5.26))
    for level in np.linspace(0.01, 0.99, 30):
        level = float(level)
        power = curve.power(level)
        # f equals its own generalized inverse ...
        assert math.isclose(curve.inverse_type2(level), 1.0 - power, abs_tol=1e-9)
        # ... so the curve is symmetric: f(type II error) recovers the level
        assert math.isclose(1.0 - curve.power(1.0 - power), level, abs_tol=1e-9)
        # and the generic trade-off inequality holds in both directions
        assert level <= curve.power(power) + 1e-12


def test_all_curves_monotone_on_grid():
    curves = [
        GaussianExactCurve(1.3),
        np_tradeoff_finite(
            FiniteMechanismPair(("a", "b"), (0.75, 0.25), (0.25, 0.75))
        ),
    ]
    grid = np.linspace(0, 1, 41)
    for curve in curves:
        powers = [curve.power(float(x)) for x in grid]
        assert all(a <= b + 1e-12 for a, b in zip(powers, powers[1:]))
