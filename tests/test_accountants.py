import itertools
import math
import time
import warnings
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpsemantics import (
    ApproxDpBoundCurve,
    BudgetExceededError,
    FiniteMechanismPair,
    GaussianExactCurve,
    Odometer,
    PureDpBoundCurve,
    RdpProfile,
    ZcdpNumericBoundCurve,
    ZcdpProfile,
    fdp_to_epsdelta,
    gaussian_pbdp_epsilon,
    np_tradeoff_finite,
    pbdp_delta_finite,
    rdp_compose,
    rdp_to_delta,
    renyi_divergence,
    zcdp_to_delta,
)
from dpsemantics.accountants import adp_gaussian_curve
from dpsemantics.tradeoff import PiecewiseLinearCurve, _bisect
from scipy.special import ndtri

PRODUCTION_MU = math.sqrt(5.26)


# --- composition -----------------------------------------------------------------

def test_rdp_compose_pointwise():
    a = RdpProfile(((2.0, 1.0),))
    b = RdpProfile(((2.0, 0.5),))
    assert rdp_compose(a, b).points == ((2.0, 1.5),)


def test_rdp_compose_matches_zcdp_expansion():
    alphas = (1.5, 2.0, 4.0, 8.0)
    a = ZcdpProfile(0.3).on_alpha_grid(alphas)
    b = ZcdpProfile(0.5).on_alpha_grid(alphas)
    combined = rdp_compose(a, b)
    expected = ZcdpProfile(0.8).on_alpha_grid(alphas)
    for (alpha, g), (_, ge) in zip(combined.points, expected.points):
        assert math.isclose(g, ge, rel_tol=1e-12)


def test_rdp_compose_intersection_only():
    a = RdpProfile(((2.0, 1.0), (3.0, 2.0)))
    b = RdpProfile(((3.0, 1.0),))
    assert rdp_compose(a, b).points == ((3.0, 3.0),)
    with pytest.raises(ValueError):
        rdp_compose(RdpProfile(((2.0, 1.0),)), RdpProfile(((4.0, 1.0),)))


# --- tail-bound conversions ----------------------------------------------------------

def test_zcdp_to_delta_closed_form():
    assert math.isclose(zcdp_to_delta(1.0, 3.0), math.exp(-1.0))
    assert zcdp_to_delta(2.0, 2.0) == 1.0
    assert zcdp_to_delta(2.0, 0.5) == 1.0
    with pytest.raises(ValueError):
        zcdp_to_delta(0.0, 1.0)


def test_rdp_to_delta_closed_form():
    assert math.isclose(rdp_to_delta([(2.0, 1.0)], 3.0), math.exp(-2.0))
    assert rdp_to_delta([(2.0, 1.0), (3.0, 2.5)], 0.5) == 1.0
    with pytest.raises(ValueError):
        rdp_to_delta([], 1.0)


def _zcdp_grid_points(rho, n):
    alphas = np.exp(np.linspace(math.log(1.0 + 1e-4), math.log(64.0), n))
    return tuple((float(a), rho * float(a)) for a in alphas)


def test_rdp_grid_recovers_zcdp_bound():
    # optimal alpha = (eps + rho) / (2 rho) = 2 sits inside the grid
    got = rdp_to_delta(_zcdp_grid_points(1.0, 600), 3.0)
    assert math.exp(-1.0) <= got <= math.exp(-1.0) + 1e-3


def test_rdp_grid_slack_halves_as_grid_doubles():
    rho, eps = 1.0, 3.0
    exact = zcdp_to_delta(rho, eps)
    slack_coarse = rdp_to_delta(_zcdp_grid_points(rho, 40), eps) - exact
    slack_fine = rdp_to_delta(_zcdp_grid_points(rho, 80), eps) - exact
    assert slack_coarse >= slack_fine >= 0.0
    assert slack_fine <= 0.5 * slack_coarse + 1e-12


# --- trade-off function to (eps, delta) -----------------------------------------------

def test_fdp_perfect_privacy_gives_zero_eps():
    diagonal = PiecewiseLinearCurve(((0.0, 0.0), (1.0, 1.0)))
    for delta in (0.01, 0.3, 1.0):
        assert math.isclose(fdp_to_epsdelta(diagonal, delta), 0.0, abs_tol=1e-12)


def test_fdp_gaussian_production_value():
    got = fdp_to_epsdelta(GaussianExactCurve(PRODUCTION_MU), 0.1)
    assert math.isclose(got, 6.35, abs_tol=5e-3)


def test_fdp_rejects_zero_delta():
    with pytest.raises(ValueError):
        fdp_to_epsdelta(GaussianExactCurve(1.0), 0.0)


def test_fdp_is_infinite_below_the_curves_own_delta():
    # power 0.05 is reached at level 0, so no eps meets delta = 0.05
    assert fdp_to_epsdelta(ApproxDpBoundCurve(1.0, 0.1), 0.05) == math.inf


def test_fdp_rr_curve_approaches_pure_eps():
    eps0 = math.log(3)
    pair = FiniteMechanismPair(("1", "0"), (0.75, 0.25), (0.25, 0.75))
    curve = np_tradeoff_finite(pair)
    # below the kink the slope is e^eps0, so eps is exactly eps0
    assert math.isclose(fdp_to_epsdelta(curve, 1e-4), eps0, rel_tol=1e-9)
    assert math.isclose(fdp_to_epsdelta(curve, 1e-2), eps0, rel_tol=1e-9)
    # above the kink the conversion can only get easier
    assert fdp_to_epsdelta(curve, 0.9) <= eps0 + 1e-12


@pytest.mark.parametrize("eps0", [0.1, 1.0, 4.0, 50.0, 300.0])
def test_fdp_pure_dp_bound_recovers_eps(eps0):
    for delta in (1e-9, 1e-6):
        got = fdp_to_epsdelta(PureDpBoundCurve(eps0), delta)
        assert math.isclose(got, eps0, abs_tol=1e-6)


@pytest.mark.parametrize("rho", [0.05, 0.1115, 0.926, 2.63, 5.0])
@pytest.mark.parametrize("delta", [1e-6, 1e-4, 1e-2, 0.1, 0.5])
def test_fdp_zcdp_bound_between_gaussian_and_chernoff(rho, delta):
    # the Gaussian mechanism at mu = sqrt(2 rho) satisfies rho-zCDP, so no
    # sound bound falls below its eps; the Chernoff tail bound is what the
    # moment constraints give over all orders, up to the order grid's spacing
    eps = fdp_to_epsdelta(ZcdpNumericBoundCurve(rho), delta)
    chernoff = rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))
    assert gaussian_pbdp_epsilon(math.sqrt(2.0 * rho), delta) <= eps <= chernoff + 1e-4


@pytest.mark.parametrize("rho", [0.05, 0.1115, 0.926, 2.63, 5.0])
@pytest.mark.parametrize("delta", [1e-9, 1e-12, 1e-15])
def test_fdp_zcdp_bound_at_small_delta_not_below_gaussian(rho, delta):
    # only the lower bound: the inverse is taken at the rounded 1 - delta,
    # which at delta = 1e-15 moves eps past the Chernoff bound at delta
    eps = fdp_to_epsdelta(ZcdpNumericBoundCurve(rho), delta)
    assert eps >= gaussian_pbdp_epsilon(math.sqrt(2.0 * rho), delta)


def test_fdp_zcdp_bound_production_value():
    got = fdp_to_epsdelta(ZcdpNumericBoundCurve(2.63), 1e-6)
    assert math.isclose(got, 14.6857, abs_tol=1e-4)


def test_gaussian_pbdp_epsilon_values():
    got = gaussian_pbdp_epsilon(PRODUCTION_MU, 0.1)
    assert math.isclose(got, 6.35, abs_tol=5e-3)
    # vanishing separation: Phi(Phi^{-1}(delta)) == delta, so eps -> 0
    assert abs(gaussian_pbdp_epsilon(1e-9, 0.3)) < 1e-6
    with pytest.raises(ValueError):
        gaussian_pbdp_epsilon(1.0, 0.0)


def test_two_pbdp_paths_agree_to_1e9():
    for mu in (0.5, PRODUCTION_MU, 3.0):
        curve = GaussianExactCurve(mu)
        for delta in np.geomspace(1e-6, 0.5, 25):
            a = fdp_to_epsdelta(curve, float(delta))
            b = gaussian_pbdp_epsilon(mu, float(delta))
            assert abs(a - b) < 1e-9


# --- tight pointwise delta for finite pairs ----------------------------------------------

# 50-digit mpmath oracles for the Gaussian closed forms

def mp_gaussian_adp_delta(mu: float, eps: float) -> mpmath.mpf:
    """Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2)."""
    with mpmath.workdps(50):
        mu, eps = mpmath.mpf(mu), mpmath.mpf(eps)
        return mpmath.ncdf(-eps / mu + mu / 2) - mpmath.exp(eps) * mpmath.ncdf(-eps / mu - mu / 2)


def mp_gaussian_pbdp_epsilon(mu: float, delta: float) -> mpmath.mpf:
    """log(delta / Phi(Phi^-1(delta) - mu)), with the quantile solved on
    the log scale so that a tiny delta keeps all its digits."""
    with mpmath.workdps(50):
        log_delta = mpmath.log(mpmath.mpf(delta))
        quantile = mpmath.findroot(
            lambda x: mpmath.log(mpmath.ncdf(x)) - log_delta, mpmath.mpf(float(ndtri(delta)))
        )
        return log_delta - mpmath.log(mpmath.ncdf(quantile - mpmath.mpf(mu)))


def test_gaussian_pbdp_epsilon_finite_where_the_tail_underflows():
    # Phi(Phi^-1(delta) - mu) is below the smallest double at these points
    for mu, delta in ((38.0, 0.5), (37.0, 0.1), (60.0, 1e-300)):
        got = gaussian_pbdp_epsilon(mu, delta)
        assert math.isclose(got, float(mp_gaussian_pbdp_epsilon(mu, delta)), rel_tol=1e-13)
    assert math.isclose(gaussian_pbdp_epsilon(38.0, 0.5), 725.864, abs_tol=1e-3)


def test_gaussian_closed_forms_match_mpmath_at_tiny_delta():
    worst_adp = 0.0
    for mu in (0.5, 1.0, PRODUCTION_MU, 5.0):
        curve = adp_gaussian_curve(mu)
        for eps in (1.0, 5.0, 10.0, 20.0, 40.0, 60.0):
            want = mp_gaussian_adp_delta(mu, eps)
            if want < 1e-300:
                continue
            worst_adp = max(worst_adp, float(abs(curve.delta(eps) - want) / want))
    # the two terms cancel to about mu^2/eps of their size (worst seen 1.2e-12)
    assert worst_adp < 2e-12
    for mu in (0.5, PRODUCTION_MU, 5.0, 20.0):
        for delta in (1e-12, 1e-50, 1e-100, 1e-200, 1e-300):
            want = mp_gaussian_pbdp_epsilon(mu, delta)
            assert math.isclose(gaussian_pbdp_epsilon(mu, delta), float(want), rel_tol=1e-13)


RR3 = FiniteMechanismPair(("1", "0"), (0.75, 0.25), (0.25, 0.75))
CATASTROPHIC = FiniteMechanismPair(
    ("target", "replacement", "rest"), (0.1, 0.0, 0.9), (0.0, 0.1, 0.9)
)


def test_pbdp_delta_pure_mechanism_is_zero():
    # at eps = ln 3, h = T(e^-eps d) - d - 1e-15 is -1e-15 up to rounding on the first segment
    assert pbdp_delta_finite(RR3, math.log(3)) == 0.0
    assert pbdp_delta_finite(RR3, 2.0) == 0.0
    # RR(ln 3) is pure ln(3)-DP: without the slack, its tight delta at eps = ln 3
    # is 0 in exact arithmetic, at s = 1/3 and at s = fl(e^-ln 3)
    for s in (Fraction(1, 3), Fraction(math.exp(-math.log(3)))):
        assert exact_pbdp_delta((3, 1), (1, 3), s, slack=Fraction(0)) == 0


def test_pbdp_delta_absorbs_catastrophic_mass():
    for eps in (0.1, 1.0, 5.0):
        assert pbdp_delta_finite(CATASTROPHIC, eps) >= 0.1 - 1e-12


def test_pbdp_delta_rr_below_pure_eps():
    # the feasibility boundary solved by hand for RR(ln 3) at eps = 0.1:
    # the binding segment gives delta = (2/3) / (1 - e^{-0.1} / 3)
    want = (2.0 / 3.0) / (1.0 - math.exp(-0.1) / 3.0)
    assert math.isclose(pbdp_delta_finite(RR3, 0.1), want, rel_tol=1e-9)


@pytest.mark.parametrize("eps", [800.0, math.inf])
def test_pbdp_delta_where_e_to_the_minus_eps_underflows(eps):
    # e^-eps is 0, so h(d) = T(0) - d - 1e-15: the catastrophic mass less the slack
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pbdp_delta_finite(CATASTROPHIC, eps) == 0.099999999999999
        assert pbdp_delta_finite(RR3, eps) == 0.0


def reference_pbdp_delta(pair: FiniteMechanismPair, eps: float) -> float:
    """The bisection the closed form replaced: the smallest d with
    T(e^-eps d) <= d + 1e-15, to the last float, in both directions."""
    scale = math.exp(-eps)

    def delta(curve) -> float:
        return _bisect(lambda d: curve.power(scale * d) <= d + 1e-15, 0.0, 1.0)[1]

    return max(delta(np_tradeoff_finite(pair)), delta(np_tradeoff_finite(pair.reversed())))


def _pair_of(weights) -> FiniteMechanismPair | None:
    w1, w2 = weights
    if not sum(w1) or not sum(w2):
        return None
    return FiniteMechanismPair(
        tuple(map(str, range(len(w1)))), [x / sum(w1) for x in w1], [x / sum(w2) for x in w2]
    )


# masses with zeros on either side, so catastrophic outputs appear in both directions
float_pairs = st.integers(1, 8).flatmap(
    lambda k: st.tuples(*[st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                                   min_size=k, max_size=k)] * 2)
).map(_pair_of).filter(lambda pair: pair is not None)


@settings(max_examples=300, deadline=None)
@given(float_pairs, st.floats(1e-3, 10.0))
@example(RR3, math.log(3))
@example(CATASTROPHIC, 10.0)
# a reversed level of 7e-5: mirrored from the forward vertices as 1 - power it
# keeps only absolute precision, and the delta drifts 1.03e-12
@example(_pair_of(((0.5, 1.0, 0.5, 1.0), (0.0, 0.625, 0.25, 6.103515625e-05))), 9.0)
def test_pbdp_delta_closed_form_matches_the_bisection(pair, eps):
    assert abs(pbdp_delta_finite(pair, eps) - reference_pbdp_delta(pair, eps)) <= 1e-12


#: the slack that pbdp_delta_finite subtracts from h
SLACK = Fraction(1e-15)


def exact_np_vertices(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Vertices of the exact Neyman-Pearson trade-off of integer weight
    vectors a (null) and b, in rationals, from (0, 0) to (1, 1)."""
    pa = [Fraction(x, sum(a)) for x in a]
    pb = [Fraction(x, sum(b)) for x in b]
    # reject by decreasing b/a; the chords of equal ratios are collinear
    order = sorted((i for i in range(len(a)) if pa[i] or pb[i]),
                   key=lambda i: (pa[i] == 0, pb[i] / pa[i] if pa[i] else 0), reverse=True)
    xs, ys = [Fraction(0)], [Fraction(0)]
    for i in order:
        xs.append(xs[-1] + pa[i])
        ys.append(ys[-1] + pb[i])
    return xs, ys


def exact_tradeoff(xs, ys, x: Fraction) -> tuple[Fraction, Fraction]:
    """T(x) and its right-hand slope, for x in [0, 1]."""
    j = max(i for i in range(len(xs)) if xs[i] <= x)
    if j == len(xs) - 1:
        return ys[j], Fraction(0)
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    return ys[j] + slope * (x - xs[j]), slope


def exact_direction_delta(a, b, s: Fraction, slack: Fraction = SLACK) -> Fraction:
    """sup{d in [0, 1] : T(s d) - d - slack > 0} in exact arithmetic, 0 if
    empty, with T the trade-off of integer weight vectors a (null) and b."""
    xs, ys = exact_np_vertices(a, b)

    def h(d: Fraction) -> Fraction:
        return exact_tradeoff(xs, ys, s * d)[0] - d - slack

    if s == 0:
        return max(Fraction(0), h(Fraction(0)))
    ds = sorted({x / s for x in xs if x <= s} | {Fraction(1)})
    hs = [h(d) for d in ds]
    above = [k for k, v in enumerate(hs) if v > 0]
    if not above:
        return Fraction(0)
    k = above[-1]
    if k == len(ds) - 1:
        return Fraction(1)
    return ds[k] + hs[k] * (ds[k + 1] - ds[k]) / (hs[k] - hs[k + 1])


def exact_pbdp_delta(w1, w2, s: Fraction, slack: Fraction = SLACK) -> Fraction:
    """The tight pointwise delta of pbdp_delta_finite in exact arithmetic:
    the max over both directions."""
    return max(exact_direction_delta(w1, w2, s, slack), exact_direction_delta(w2, w1, s, slack))


small_weights = st.integers(1, 4).flatmap(
    lambda k: st.tuples(*[st.lists(st.integers(0, 5), min_size=k, max_size=k)] * 2)
).filter(lambda w: sum(w[0]) and sum(w[1]))


@settings(max_examples=150, deadline=None)
@given(small_weights, st.floats(1e-3, 10.0))
@example(((3, 1), (1, 3)), math.log(3))
@example(((1, 0, 9), (0, 1, 9)), 800.0)
def test_pbdp_delta_matches_an_exact_rational_oracle(weights, eps):
    # s is the exact value of the float e^-eps that the library uses
    want = exact_pbdp_delta(*weights, Fraction(math.exp(-eps)))
    assert abs(pbdp_delta_finite(_pair_of(weights), eps) - float(want)) <= 1e-12


two_to_five_outcomes = st.integers(2, 5).flatmap(
    lambda k: st.tuples(*[st.lists(st.integers(0, 5), min_size=k, max_size=k)] * 2)
).filter(lambda w: sum(w[0]) and sum(w[1]))


@settings(max_examples=200, deadline=None)
@given(two_to_five_outcomes, st.floats(1e-3, 10.0))
@example(((3, 1), (1, 3)), math.log(3))
@example(((3, 1), (1, 3)), 0.1)
@example(((1, 0, 9), (0, 1, 9)), 2.0)
def test_pbdp_delta_slack_errs_low_by_a_bounded_amount(weights, eps):
    # The slack moves delta down, the unsound side, and by a bounded amount.
    # In exact arithmetic at s = fl(e^-eps), per direction: the slacked d1 and
    # the tight d0 satisfy d1 <= d0 <= d1 + slack / (1 - s m), with m the slope
    # of T at s d1.  The bound follows from the concavity of T(s d) - d.
    s = Fraction(math.exp(-eps))
    tight, slacked = [], []
    for a, b in (weights, weights[::-1]):
        d0 = exact_direction_delta(a, b, s, slack=Fraction(0))
        d1 = exact_direction_delta(a, b, s)
        assert d1 <= d0
        xs, ys = exact_np_vertices(a, b)
        k = 1 - s * exact_tradeoff(xs, ys, s * d1)[1]
        if k > 0:
            assert d0 - d1 <= SLACK / k
        else:  # T(s d) - d may rise above d1 = 0, but never past the slack
            assert d1 == 0
            assert all(exact_tradeoff(xs, ys, s * d)[0] - d <= SLACK
                       for d in [Fraction(0), Fraction(1)] + [x / s for x in xs if x <= s])
        tight.append(d0)
        slacked.append(d1)
    got = pbdp_delta_finite(_pair_of(weights), eps)
    # the library's delta: the slacked one up to rounding, and never above the tight one
    assert abs(got - float(max(slacked))) <= 1e-12
    assert Fraction(got) <= max(tight)


def seeded_dirichlet_pairs(concentration, count, seed):
    """Pairs of Dirichlet(concentration) draws over 2 to 8 outputs; about a
    third of the draws have one mass set to zero, on either side."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        k = int(rng.integers(2, 9))
        p1, p2 = rng.dirichlet([concentration] * k), rng.dirichlet([concentration] * k)
        for p in (p1, p2):
            if rng.random() < 1.0 / 3.0:
                p[rng.integers(k)] = 0.0
                p /= p.sum()
        pairs.append(FiniteMechanismPair(tuple(map(str, range(k))), p1.tolist(), p2.tolist()))
    return pairs


def pair_oracle_delta(pair, eps):
    """`exact_pbdp_delta` of the pair's float masses, taken exactly."""
    return exact_pbdp_delta([Fraction(x) for x in pair.p1.tolist()],
                            [Fraction(x) for x in pair.p2.tolist()], Fraction(math.exp(-eps)))


@pytest.mark.parametrize("concentration, seed", [(1.0, 11), (0.1, 12)])
def test_pbdp_delta_prefix_cut_matches_the_rational_oracle(concentration, seed):
    # each direction's vertices are cut at the last level <= s, and h(1) is
    # interpolated only where the last positive breakpoint ends that prefix
    for pair in seeded_dirichlet_pairs(concentration, 25, seed):
        levels = pair._np_vertices[0][0].tolist()
        inner = [x for x in levels if 0.0 < x < 1.0]
        eps_list = [0.01, 0.3, 1.0, 4.0, 12.0, 800.0, math.inf] + [-math.log(x) for x in inner[:2]]
        for eps in eps_list:
            got = pbdp_delta_finite(pair, eps)
            assert abs(got - float(pair_oracle_delta(pair, eps))) <= 1e-12, (pair, eps)


@pytest.mark.parametrize("eps", [0.1, 1.0, 2.0, 7.5])
def test_pbdp_delta_at_an_s_equal_to_a_vertex_level(eps):
    # after an output of null mass 0 (so that delta > 0), the first rejected
    # output, with ratio t / s > 1, has null mass exactly s = e^-eps, so s is
    # a vertex level: the prefix keeps it, and its breakpoint is d = 1
    s = math.exp(-eps)
    t, t2 = 0.5 * (1.0 + s), s + 0.1 * (1.0 - s)
    for m, r in itertools.product((0.0, 0.05, 0.5), (1.0, t, t2)):
        p1 = (0.0, s, 0.5 * (1.0 - s), 0.5 * (1.0 - s))
        p2 = (m, (1.0 - m) * r, 0.5 * (1.0 - m) * (1.0 - r), 0.5 * (1.0 - m) * (1.0 - r))
        pair = FiniteMechanismPair(("z", "a", "b", "c"), p1, p2)
        assert s in pair._np_vertices[0][0].tolist()
        got = pbdp_delta_finite(pair, eps)
        assert abs(got - float(pair_oracle_delta(pair, eps))) <= 1e-12


@pytest.mark.parametrize("eps", [800.0, math.inf])
def test_pbdp_delta_where_s_is_zero_matches_the_rational_oracle(eps):
    for pair in [CATASTROPHIC, RR3] + seeded_dirichlet_pairs(0.1, 10, 13):
        assert abs(pbdp_delta_finite(pair, eps) - float(pair_oracle_delta(pair, eps))) <= 1e-12


# --- figure-level orderings ------------------------------------------------------------

def test_gaussian_curve_orderings_at_fixed_delta():
    rho = 2.63
    mu = math.sqrt(2 * rho)
    adp = adp_gaussian_curve(mu)
    for delta in np.geomspace(1e-6, 0.5, 30):
        delta = float(delta)
        eps_pbdp = gaussian_pbdp_epsilon(mu, delta)
        eps_zcdp = rho + math.sqrt(4.0 * rho * math.log(1.0 / delta))
        assert eps_pbdp <= eps_zcdp + 1e-9
        # approximate-DP eps at the same delta sits left of the pbdp eps
        lo, hi = 0.0, 60.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if adp.delta(mid) > delta:
                lo = mid
            else:
                hi = mid
        assert hi <= eps_pbdp + 1e-6


# --- eps-delta curve objects -----------------------------------------------------------

def test_curves_clamped_and_monotone():
    from dpsemantics.bayes import bayes_known_rest_delta

    profile = ZcdpProfile(2.63)
    cases = [
        adp_gaussian_curve(math.sqrt(5.26)).delta,
        partial(zcdp_to_delta, 2.63),
        partial(bayes_known_rest_delta, profile),
    ]
    for fn in cases:
        values = [fn(float(e)) for e in np.linspace(0.0, 30.0, 60)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# --- renyi divergence ---------------------------------------------------------------------

def test_renyi_divergence_values():
    pair = FiniteMechanismPair(("1", "0"), (0.75, 0.25), (0.25, 0.75))
    alpha = 2.0
    want = math.log(0.75 * 3.0 + 0.25 / 3.0) / (alpha - 1.0)
    assert math.isclose(renyi_divergence(pair, alpha), want, rel_tol=1e-12)
    zero_pair = FiniteMechanismPair(("a", "b"), (0.5, 0.5), (1.0, 0.0))
    assert renyi_divergence(zero_pair, 2.0) == math.inf
    assert renyi_divergence(zero_pair, 1e4) == math.inf


@pytest.mark.parametrize(
    "alpha, want",
    # 50-digit mpmath values; the moment sum itself overflows from order 700 on
    [(2.0, 0.84729786038720361), (700.0, 1.0982007263326994), (1e4, 1.0985835175837561)],
)
def test_renyi_divergence_of_randomized_response_at_large_orders(alpha, want):
    pair = FiniteMechanismPair(("1", "0"), (0.75, 0.25), (0.25, 0.75))
    assert math.isclose(renyi_divergence(pair, alpha), want, rel_tol=1e-14)
    # and it rises to ln 3, the pure-DP epsilon, without overflowing on the way
    assert renyi_divergence(pair, 100.0) < renyi_divergence(pair, 1e3) < renyi_divergence(pair, 1e4) < math.log(3.0)
    assert renyi_divergence(pair, math.inf) == renyi_divergence(pair, 1e308)
    assert math.isclose(renyi_divergence(pair, 1e308), math.log(3.0), rel_tol=1e-15)
    with pytest.raises(ValueError):
        renyi_divergence(pair, math.nan)


# --- odometer --------------------------------------------------------------------------

def test_odometer_production_split_lands_exactly_on_cap():
    odo = Odometer(2.63)
    odo.register("person", 2.56)
    remaining = odo.register("housing", 0.07)
    assert remaining == 0
    assert odo.spent == Fraction("2.63")


def test_odometer_refuses_over_budget_atomically():
    odo = Odometer(1.0)
    with pytest.raises(BudgetExceededError):
        odo.register("too-big", 1.5)
    assert odo.spent == 0
    assert odo.entries == ()


def test_odometer_third_entry_refused():
    odo = Odometer(1.0)
    odo.register("a", 0.4)
    odo.register("b", 0.4)
    with pytest.raises(BudgetExceededError) as exc_info:
        odo.register("c", 0.4)
    assert exc_info.value.remaining == Fraction(1, 5)
    assert float(odo.remaining) == 0.2


def test_odometer_rejects_negative():
    odo = Odometer(1.0)
    with pytest.raises(ValueError):
        odo.register("neg", -0.1)


@pytest.mark.parametrize("label", ["a\tb", "a\nb", "a\u2028b", "a\r", "\x0c"])
def test_odometer_refuses_a_label_that_would_split_its_ledger_line(label):
    odo = Odometer(1.0)
    odo.register("kept", 0.25)
    before = odo.to_ledger_text()
    with pytest.raises(ValueError, match="tab or a line break"):
        odo.register(label, 0.25)
    assert odo.to_ledger_text() == before
    assert Odometer.from_ledger_text(before).entries == odo.entries


def test_odometer_ledger_round_trip():
    odo = Odometer("2.63")
    odo.register("person", "2.56")
    odo.register("housing", "0.07")
    text = odo.to_ledger_text()
    back = Odometer.from_ledger_text(text)
    assert back.cap == odo.cap
    assert back.entries == odo.entries
    assert back.to_ledger_text() == text


def test_odometer_reads_a_long_ledger_in_linear_time():
    # reading costs one addition per line; a sum over every entry on each
    # line would make it O(n^2), about 20 s for these 5,000
    rhos = [Fraction(i % 7 + 1, 10_000) for i in range(5_000)]
    odo = Odometer(2)
    for i, rho in enumerate(rhos):
        odo.register(f"op{i}", rho)
    text = odo.to_ledger_text()
    start = time.perf_counter()
    back = Odometer.from_ledger_text(text)
    assert time.perf_counter() - start < 5.0
    assert back.spent == sum(rhos) == Fraction("1.9995")
    assert back.remaining == Fraction("0.0005")
    assert back.to_ledger_text() == text


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=0, max_value=4),
    st.lists(st.fractions(min_value=0, max_value=2), max_size=12),
)
def test_odometer_never_exceeds_cap(cap, rhos):
    odo = Odometer(cap)
    for i, rho in enumerate(rhos):
        try:
            odo.register(f"op{i}", rho)
        except BudgetExceededError:
            pass
        assert odo.spent <= odo.cap
