import itertools
import math

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
from dpsemantics.tradeoff import ALPHA_GRID, _bisect, _Flip
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


def test_rdp_matches_zcdp_on_grid_expansion():
    # the same constraints in the same arithmetic: equal bits, not just close
    for rho in (0.1115, 2.63):
        rdp = RdpNumericBoundCurve(ZcdpProfile(rho).on_alpha_grid(ALPHA_GRID).points)
        zcdp = ZcdpNumericBoundCurve(rho)
        for level in (0.0, 1e-6, 0.01, 0.05, 0.1, 0.5, 1.0):
            assert rdp.power(level) == zcdp.power(level) == zcdp_power_bound(rho, level)
        for z in (0.0, 1e-3, 0.5, 1.0 - 1e-6, 1.0):
            assert rdp.inverse_type2(z) == zcdp.inverse_type2(z)


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


# --- the moment check against the exact constraints --------------------------------

#: The check's error-bound factor (`tradeoff._ETA`, 2^-48), restated: where the
#: check passes, each constraint holds exactly within twice its row's bound.
ETA = 2.0**-48


def exact_row(level, power, alpha, log_bound):
    """(g - L, tol) of one constraint at (a, b) = (level, power), at 50 digits:
    g = ln(a^alpha b^(1-alpha) + (1-a)^alpha (1-b)^(1-alpha)), and tol the
    error bound the check states for it (see `tradeoff._Flip._row`).  g is
    log1p of a (a/b)^(alpha-1) - a + (1-a) ((1-a)/(1-b))^(alpha-1) - (1-a),
    each term by expm1, and 1 - a enters the exponents only through log1p(-a):
    1 plus much less than 1e-50 (the level 5e-324 at the power 1e-300) rounds
    to 1 at 50 digits."""
    with mpmath.workdps(50):
        a, b, am1 = mpmath.mpf(level), mpmath.mpf(power), mpmath.mpf(alpha) - 1
        e1, e2 = am1 * mpmath.log(a / b), am1 * (mpmath.log1p(-a) - mpmath.log1p(-b))
        t1, t2 = a * mpmath.expm1(e1), (1 - a) * mpmath.expm1(e2)
        g = mpmath.log1p(t1 + t2)
        if max(e1, e2) <= 700:
            err = (abs(t1) * (1 + abs(e1)) + abs(t2) * (1 + abs(e2))) / (1 + t1 + t2) + abs(g) + 2.0**-1022
        else:
            err = 1 + abs(e1) + abs(e2) + abs(mpmath.log(a) + e1) + abs(mpmath.log1p(-a) + e2) + abs(g)
        return g - mpmath.mpf(log_bound), ETA * err


def exact_feasible(curve, level, power, slack=0.0):
    """Whether (level, power) meets both moment constraints at every order
    exactly (slack 0), or each within `slack` times its row's stated bound.

    A float pre-screen in log form decides the rows farther than
    1e-11 (1 + alpha |ln l + ln(1-l) + ln p + ln(1-p)|) from their bound, a
    margin many thousand times its rounding error; 50-digit mpmath decides
    the rest, and every row the floats cannot place (inf or NaN)."""
    if power >= 1.0:
        return level >= 1.0
    alphas, log_bounds = curve._constraints
    logs = np.array([math.log(level), math.log1p(-level), math.log(power), math.log1p(-power)])
    margin = 1e-11 * (1.0 + alphas * -logs.sum())
    rows = []
    for a, b, (la, l1a, lb, l1b) in ((level, power, logs), (power, level, logs[[2, 3, 0, 1]])):
        with np.errstate(over="ignore", invalid="ignore"):
            over = np.logaddexp(alphas * la + (1 - alphas) * lb, alphas * l1a + (1 - alphas) * l1b) - log_bounds
        if (over > margin).any():
            return False
        rows += [(a, b, k) for k in np.flatnonzero(~(over < -margin))]
    return all(
        f <= slack * tol
        for f, tol in (exact_row(a, b, float(alphas[k]), float(log_bounds[k])) for a, b, k in rows)
    )


def moment_check(curve, u, rising):
    """The production check with u fixed: along the power if rising, else
    along the level."""
    flip = _Flip(curve, u, rising)

    def feasible(v):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return flip.failing(v) < 0

    return feasible


def unscreened_check(curve, u, v, rising=True):
    """Every row of the check decided by `_Flip._row`, with no screen."""
    flip = _Flip(curve, u, rising)
    d1, d2 = flip._ratios(v)
    return all(flip._row(k, v, d1, d2)[0] <= 0.0 for k in range(flip.coef.size))


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


@settings(max_examples=300, deadline=None)
@given(moment_curves, open_unit, open_unit, st.booleans())
def test_screened_check_equals_its_rows_and_brackets_the_exact_constraints(curve, u, v, on_the_bound):
    if on_the_bound:
        # the smallest failing power, the float below and a power 2^-40 below:
        # where the orders near the bound decide and the screen leaves them to
        # the rows' ratio form
        v = curve.power(u)
        vs = [w for w in (v, math.nextafter(v, 0.0), v * (1.0 - 2.0**-40)) if 0.0 < w < 1.0]
    else:
        vs = [v]
    for v in vs:
        flip = _Flip(curve, u, True)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            k = flip.failing(v)
        got = k < 0
        assert moment_check(curve, v, True)(u) == got
        assert unscreened_check(curve, u, v) == got
        # the row the check names fails on its own, in ratio form
        assert got or flip._row(k, v, *flip._ratios(v))[0] > 0.0
        # the sound side: the check passes every exactly feasible point, and
        # where it passes the constraints hold within twice its stated bound
        assert exact_feasible(curve, u, v, slack=2.0) if got else not exact_feasible(curve, u, v)


def census_budgets():
    """Production plus scenarios A-H: rho from 0.1115 to 2.63."""
    table = census.production_table()
    return [float(census.total_rho(table))] + [
        float(census.scenario_rho(table, s)) for s in census.builtin_scenarios()
    ]


def assert_power_certified(curve, level):
    """The power bound p fails the exact constraints at p and meets them
    within the check's stated slack at the float below p (which may be the
    level): p lies above the supremum of the feasible powers, by at most one
    float.  Levels 0 and 1 keep their fixed answers."""
    p = curve.power(level)
    if level in (0.0, 1.0):
        assert p == level
    else:
        assert level < p <= 1.0
        assert not exact_feasible(curve, level, p)
        assert exact_feasible(curve, level, math.nextafter(p, 0.0), slack=2.0)


def assert_inverse_exact(curve, z):
    """inverse_type2(z) is the level y at which the check with power 1 - z
    flips, to adjacent floats: it passes at y and fails just below, where the
    exact constraints fail too."""
    y = curve.inverse_type2(z)
    if z >= 1.0:
        assert y == 0.0
    elif 1.0 - z >= 1.0:
        assert y == 1.0
    else:
        w = 1.0 - z
        assert 0.0 < y <= w
        check = moment_check(curve, w, False)
        assert check(y)
        assert exact_feasible(curve, y, w, slack=2.0)
        below = math.nextafter(y, 0.0)
        if below > 0.0:
            assert not check(below)
            assert not exact_feasible(curve, below, w)


def whole_range_inverse(curve, z):
    """The inverse by bisection of the check over the whole range of levels."""
    w = 1.0 - z
    return _bisect(moment_check(curve, w, False), 0.0, w)[1]


def test_zcdp_bound_is_certified_by_the_unscreened_check():
    levels = [i * 0.01 for i in range(101)]
    for rho in census_budgets():
        curve = ZcdpNumericBoundCurve(rho)
        for level in levels:
            assert_power_certified(curve, level)
        for delta in (0.1, 0.01, 1e-6, 1e-12):
            # fdp_to_epsdelta takes 1 - delta rounded up, so that 1 - z <= delta
            z = 1.0 - delta
            z = math.nextafter(z, 2.0) if 1.0 - z > delta else z
            assert_inverse_exact(curve, z)
            # the same adjacent floats as a bisection of the whole range
            y = whole_range_inverse(curve, z)
            assert fdp_to_epsdelta(curve, delta) == math.log(delta / y)


@settings(max_examples=200, deadline=None)
@given(moment_curves, open_unit)
@example(ZcdpNumericBoundCurve(0.1115), 0.34)  # orders near 1 made the log form ragged at 1e-12
@example(ZcdpNumericBoundCurve(1e308), 0.5)  # every power below 1 is feasible
@example(RdpNumericBoundCurve(((2.0, 0.0),)), 0.3)  # gamma 0: the flip sits at the level
def test_moment_bounds_are_certified_by_the_unscreened_check(curve, u):
    assert_power_certified(curve, u)
    assert_inverse_exact(curve, u)


def test_check_flips_once_where_orders_near_1_made_it_ragged():
    # rho 0.1115 at level 0.34: the log form's rows at alpha - 1 = 1e-4 sum to
    # about 1e-5 from logs of size 1, and its answer changed 29 times across
    # these 121 powers and formed 76 (passes at v, fails at v (1 - 2^-41))
    # pairs across the 601; the ratio form flips once, at the power bound
    curve = ZcdpNumericBoundCurve(0.1115)
    check = moment_check(curve, 0.34, True)
    for center in (0.5712891911300998, curve.power(0.34)):
        answers = [check(center + k * 2e-14) for k in range(-60, 61)]
        assert sum(a != b for a, b in zip(answers, answers[1:])) <= 1
        vs = [center + k * 1e-15 for k in range(-300, 301)]
        assert not any(check(v) and not check(v * (1.0 - 2.0**-41)) for v in vs)


@pytest.mark.parametrize("order, z", [(3e4, 0.5), (1e6, 0.7)])
def test_inverse_at_a_huge_order_is_the_whole_range_bisection(order, z):
    # gamma 0 admits only level = power, and the ratio form is exact there:
    # the log form's a log u + (1 - a) log u did not cancel at such orders,
    # so the inverse stopped short of the bisection (0.49999999999070094)
    curve = RdpNumericBoundCurve(((order, 0.0),))
    y = curve.inverse_type2(z)
    assert y == whole_range_inverse(curve, z) == 1.0 - z
    assert_inverse_exact(curve, z)


def assert_adjacent_flip(check, answer, rising, u):
    """`answer` is the check's flip to adjacent floats: for a power (rising)
    the check fails at it (1 is taken as failing) and passes at the float
    below, unless that is the level u; for a level it passes at it and fails
    at the float below, unless that is 0."""
    below = math.nextafter(answer, 0.0)
    if rising:
        assert u < answer <= 1.0
        assert answer == 1.0 or not check(answer)
        assert below == u or check(below)
    else:
        assert 0.0 < answer <= u
        assert check(answer)
        assert below == 0.0 or not check(below)


@settings(max_examples=150, deadline=None)
@given(moment_curves, open_unit)
@example(ZcdpNumericBoundCurve(0.1115), 0.34)  # the log form was ragged here
# a subnormal level: the check fails at 2.225074543378507e-309 and passes at
# 2.22507454337952e-309, so it is not monotone at a relative 2^-41 there
@example(RdpNumericBoundCurve(((1.5, 0.0),)), 2.225073858507203e-309)
def test_each_answer_is_the_checks_flip_at_adjacent_floats(curve, u):
    w = 1.0 - (1.0 - u)
    assert_adjacent_flip(moment_check(curve, u, True), curve.power(u), True, u)
    if w > 0.0:
        assert_adjacent_flip(moment_check(curve, w, False), curve.inverse_type2(1.0 - u), False, w)


def located_flip(curve, u, rising):
    """The `_Flip` that `power` at level u (rising) or `inverse_type2` at
    power u searches, after `locate`, with the answer it settles on."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        flip = _Flip(curve, u, rising)
        return flip, float(flip.locate()[0])


@settings(max_examples=40, deadline=None)
@given(moment_curves, open_unit)
@example(ZcdpNumericBoundCurve(2.63), 0.05)
@example(ZcdpNumericBoundCurve(0.1115), 0.34)
@example(RdpNumericBoundCurve(((2.0, 0.0),)), 0.3)  # the flip sits at u
@example(RdpNumericBoundCurve(((3e4, 0.0),)), 0.5)
# the rows near the binding one flip within rounding of each other: the
# inverse ends at 0.49929289360182827
@example(ZcdpNumericBoundCurve(1e-6), 0.5)
def test_screened_check_matches_every_row_near_each_located_flip(curve, u):
    # `_settle` steps on one row alone and ends on one full check; near the
    # answer, the screened check answers as deciding every row does
    w = 1.0 - (1.0 - u)
    for rising, fixed in [(True, u)] + ([(False, w)] if 0.0 < w < 1.0 else []):
        flip, answer = located_flip(curve, fixed, rising)
        assert answer == (curve.power(u) if rising else curve.inverse_type2(1.0 - u))
        # the failing side of the flip, near and far, and the answer's two floats
        sign = 1.0 if rising else -1.0
        vs = {answer, math.nextafter(answer, 0.0)}
        vs |= {answer * (1.0 + sign * step) for step in (2.0**-46, 2.0**-20, 1e-2)}
        for v in sorted(vs):
            if 0.0 < v < 1.0 and (fixed <= v if rising else v <= fixed):
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    assert (flip.failing(v) < 0) == unscreened_check(curve, fixed, v, rising)

        def check(v):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return flip.failing(v) < 0

        assert_adjacent_flip(check, answer, rising, fixed)


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
    # the levels share only the log-form locate, so no answer depends on the
    # others; each answer is the check's flip at adjacent floats
    us = np.array(us)
    powers, inverses = curve.power(us), curve.inverse_type2(us)
    assert powers.shape == inverses.shape == us.shape
    assert (bits(powers) == bits([curve.power(u) for u in us.tolist()])).all()
    assert (bits(inverses) == bits([curve.inverse_type2(z) for z in us.tolist()])).all()
    for u, p, z, y in zip(us.tolist(), powers.tolist(), us.tolist(), inverses.tolist()):
        if u in (0.0, 1.0):
            assert p == u
        else:
            assert_adjacent_flip(moment_check(curve, u, True), p, True, u)
        w = 1.0 - z
        if 0.0 < w < 1.0:
            assert_adjacent_flip(moment_check(curve, w, False), y, False, w)
        else:
            assert y == (0.0 if z >= 1.0 else 1.0)


@pytest.fixture
def check_counts(monkeypatch):
    """Counts of full checks (`_Flip.failing`) and scalar row checks
    (`_Flip._row`, inside the full check and out), reset by the test."""
    counts = {"full": 0, "row": 0}
    failing, row = _Flip.failing, _Flip._row

    def counted_failing(self, v):
        counts["full"] += 1
        return failing(self, v)

    def counted_row(self, *args):
        counts["row"] += 1
        return row(self, *args)

    monkeypatch.setattr(_Flip, "failing", counted_failing)
    monkeypatch.setattr(_Flip, "_row", counted_row)
    return counts


def test_census_curves_take_one_full_check_per_level(check_counts):
    # the `tradeoff-zcdp` grid at the nine census budgets, one array call
    # each: 1.034 full checks and 6.16 scalar row checks per answer (1.055
    # and 6.28 per located level: levels 0 and 1 need no search).  The first
    # full check fails at 49 of the 891 located levels, mostly where an order
    # next to the picked one binds
    levels = [i * 0.01 for i in range(101)]
    curves = {rho: ZcdpNumericBoundCurve(rho).power(levels) for rho in census_budgets()}
    # at scenario A, level 0.27 the check flips twice within three floats;
    # the row the first full check names, the order next to the picked one,
    # lands on the lower flip
    assert curves[0.11150074378640834][27] == 0.49107194163199036
    answers = 101 * len(census_budgets())
    assert check_counts["full"] <= 1.05 * answers
    assert check_counts["row"] <= 7.0 * answers


@pytest.mark.parametrize(
    "curve, level, power, full, rows",
    [
        # the Gaussian start rounds onto the level (mu = 0) or onto 1 (rho
        # 500): the search starts from the middle of the bracket instead
        (RdpNumericBoundCurve(((2.0, 0.0),)), 0.3, 0.3000000000000015, 3, 100),
        (ZcdpNumericBoundCurve(500.0), 0.5, 1.0, 3, 100),
        # at tiny levels one ulp of log(v / (1 - v)) is thousands of ulps of
        # v: the root is finished in v, and the row's flip found from it
        (ZcdpNumericBoundCurve(2.63), 1e-300, 7.583562378838822e-265, 1, 30),
        # the first pick lands 31 orders from the binding one, whose row the
        # failing full check names: of the rows failing there, its step
        # lands first
        (ZcdpNumericBoundCurve(0.0016999998752142283), 3.6974903107176327e-159, 3.213581524003725e-158, 2, 60),
        # the log form cannot separate the rows near the binding one, which
        # lie within the screen's band: the failing full check decides each
        # of them in ratio form and names the binding order, 153 orders on
        (ZcdpNumericBoundCurve(1e-6), 0.5, 0.5007071063981718, 2, 2_000),
    ],
)
def test_searches_that_once_bisected_the_whole_bracket(check_counts, curve, level, power, full, rows):
    assert curve.power(level) == power
    assert check_counts["full"] <= full
    assert check_counts["row"] <= rows


def test_small_budgets_settle_on_the_row_each_failing_check_names(check_counts):
    # below rho of about 1e-8 hundreds of rows lie within the screen's band,
    # so the picks cannot separate them; a failing full check decides them
    # in ratio form and names the next row to solve
    rng, full = np.random.default_rng(20), []
    for _ in range(40):
        curve = ZcdpNumericBoundCurve(math.exp(rng.uniform(math.log(1e-14), math.log(1e-7))))
        level = float(rng.uniform())
        before = check_counts["full"]
        power = curve.power(level)
        full.append(check_counts["full"] - before)
        assert_adjacent_flip(moment_check(curve, level, True), power, True, level)
    assert max(full) <= 4
    assert sum(full) <= 2 * len(full)


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
