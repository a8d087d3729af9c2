import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpsemantics import (
    DiscretePlrv,
    FiniteMechanismPair,
    GaussianPlrv,
    RepresentationMismatchError,
    approx_dp_delta,
    compose,
    gaussian_plrv,
    plrv_of_finite_pair,
    point_mass_zero,
    pure_dp_epsilon,
    rr_plrv,
    sampling_plrv,
)
from dpsemantics.accountants import renyi_divergence
from dpsemantics.plrv import ATOM_MERGE_TOL, _merged

LN3 = math.log(3)


def atoms_dict(plrv: DiscretePlrv) -> dict[float, float]:
    return {round(v, 10): p for v, p in plrv.atoms}


def assert_atoms_close(plrv, expected, tol=1e-12):
    got = plrv.atoms
    assert len(got) == len(expected)
    for (gv, gp), (ev, ep) in zip(got, sorted(expected)):
        assert math.isclose(gv, ev, rel_tol=0, abs_tol=tol)
        assert math.isclose(gp, ep, rel_tol=0, abs_tol=tol)


# --- randomized response ----------------------------------------------------

def test_rr_differing_bit_at_ln3():
    plrv = rr_plrv(LN3, True)
    assert_atoms_close(plrv, [(-LN3, 0.25), (LN3, 0.75)])
    assert plrv.infinity_mass == 0.0


def test_rr_masses_keep_their_digits_at_every_eps():
    # the flip mass is computed, not left over from 1 - p_keep (0.2499999999999999)
    assert dict(rr_plrv(LN3, True).atoms.tolist()) == {-LN3: 0.25, LN3: 0.75}
    # e^eps0 overflows from eps0 = 709.78 on; e^-eps0 does not
    keep, flip = rr_plrv(710.0, True).atoms[::-1].tolist()
    assert keep == [710.0, 1.0] and flip[0] == -710.0
    assert math.isclose(flip[1], float(mpmath.exp(-710)), rel_tol=1e-13)
    assert rr_plrv(1e3, True).atoms.tolist() == [[1e3, 1.0]]


def test_rr_same_bit_is_point_mass():
    assert rr_plrv(2.5, False) == point_mass_zero()


def test_rr_zero_eps_merges_to_point_mass():
    assert rr_plrv(0.0, True) == point_mass_zero()


def test_rr_rejects_negative_eps():
    with pytest.raises(ValueError):
        rr_plrv(-0.1, True)


# --- geometric ----------------------------------------------------------------
# the two-sided geometric mechanism's PLRV, built from its (truncated) pmf,
# has the randomized-response loss law


def assert_loss_law(plrv, expected, truncated):
    assert len(plrv.atoms) == len(expected)
    for (gv, gp), (ev, ep) in zip(plrv.atoms, sorted(map(tuple, expected))):
        assert math.isclose(gv, ev, rel_tol=0, abs_tol=1e-12)
        assert abs(gp - ep) <= truncated


def test_geometric_matches_rr(geometric_pair):
    pair, truncated = geometric_pair(LN3)
    assert 0.0 < truncated < 1e-13
    assert_loss_law(plrv_of_finite_pair(pair), rr_plrv(LN3, True).atoms, truncated)
    same_bit = FiniteMechanismPair(pair.outputs, pair.p1, pair.p1)
    assert_loss_law(plrv_of_finite_pair(same_bit), point_mass_zero().atoms, truncated)


def test_geometric_at_one(geometric_pair):
    e = math.e
    pair, truncated = geometric_pair(1.0)
    assert_loss_law(
        plrv_of_finite_pair(pair), [(-1.0, 1 / (1 + e)), (1.0, e / (1 + e))], truncated
    )


# --- gaussian -----------------------------------------------------------------

def test_gaussian_unit_sigma():
    plrv = gaussian_plrv(1.0)
    assert plrv == GaussianPlrv(mean=0.5, variance=1.0)


def test_gaussian_zero_mu_is_degenerate():
    plrv = gaussian_plrv(0.0)
    assert plrv.mean == 0.0 and plrv.variance == 0.0
    assert pure_dp_epsilon(plrv) == 0.0
    assert approx_dp_delta(plrv, plrv, 1.0) == 0.0
    # a point mass at the mean: P(L > t) steps from 1 to 0 at t = mean
    assert GaussianPlrv(1.0, 0.0).tail(0.5) == 1.0
    assert GaussianPlrv(1.0, 0.0).tail(1.0) == 0.0


def test_gaussian_production_shape():
    plrv = gaussian_plrv(math.sqrt(5.26))
    assert math.isclose(plrv.mean, 2.63, rel_tol=1e-12)
    assert math.isclose(plrv.variance, 5.26, rel_tol=1e-12)


# --- sampling -----------------------------------------------------------------

def test_sampling_ten_of_hundred():
    plrv = sampling_plrv(100, 10)
    assert_atoms_close(plrv, [(0.0, 0.9)])
    assert math.isclose(plrv.infinity_mass, 0.1)


def test_sampling_release_nothing():
    plrv = sampling_plrv(7, 0)
    assert plrv == point_mass_zero()


def test_sampling_release_everything():
    plrv = sampling_plrv(5, 5)
    assert plrv.atoms.shape == (0, 2)
    assert plrv.infinity_mass == 1.0


def test_sampling_rejects_m_above_n():
    with pytest.raises(ValueError):
        sampling_plrv(5, 6)


# --- composition ----------------------------------------------------------------

def test_compose_rr_closed_form():
    eps = 0.8
    z = (1 + math.exp(eps)) ** 2
    plrv = compose(rr_plrv(eps, True), rr_plrv(eps, True))
    assert_atoms_close(
        plrv,
        [
            (-2 * eps, 1 / z),
            (0.0, 2 * math.exp(eps) / z),
            (2 * eps, math.exp(2 * eps) / z),
        ],
    )


def test_compose_identity():
    x = rr_plrv(1.3, True)
    assert compose(x, point_mass_zero()) == x
    g = gaussian_plrv(0.7)
    assert compose(g, gaussian_plrv(0.0)) == g


def test_compose_gaussians_adds_parameters():
    a, b = 0.6, 1.1
    got = compose(gaussian_plrv(a), gaussian_plrv(b))
    assert math.isclose(got.mean, (a * a + b * b) / 2)
    assert math.isclose(got.variance, a * a + b * b)


def test_compose_mixed_rejected():
    with pytest.raises(RepresentationMismatchError):
        compose(rr_plrv(1.0, True), gaussian_plrv(1.0))


def test_compose_infinity_absorbs():
    got = compose(sampling_plrv(10, 1), rr_plrv(1.0, True))
    assert math.isclose(got.infinity_mass, 0.1)
    assert math.isclose(sum(p for _, p in got.atoms), 0.9)


THREE_P = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
THREE_Q = (Fraction(1, 5), Fraction(1, 2), Fraction(3, 10))


def _multinomial_atoms(k):
    """(value, P-mass, Q-mass) of every outcome count (a, b, c) of k draws of
    the 3-outcome pair, masses exact; the values are distinct."""
    logs = [math.log(p / q) for p, q in zip(THREE_P, THREE_Q)]
    atoms = []
    for a in range(k + 1):
        for b in range(k + 1 - a):
            c = k - a - b
            coef = math.factorial(k) // (math.factorial(a) * math.factorial(b) * math.factorial(c))
            atoms.append((
                a * logs[0] + b * logs[1] + c * logs[2],
                coef * THREE_P[0] ** a * THREE_P[1] ** b * THREE_P[2] ** c,
                coef * THREE_Q[0] ** a * THREE_Q[1] ** b * THREE_Q[2] ** c,
            ))
    return sorted(atoms)


def test_k_fold_composition_matches_the_multinomial_oracle():
    pair = FiniteMechanismPair(("a", "b", "c"), (0.5, 0.3, 0.2), (0.2, 0.5, 0.3))
    one_fwd, one_rev = plrv_of_finite_pair(pair), plrv_of_finite_pair(pair.reversed())
    fwd, rev = one_fwd, one_rev
    for k in range(1, 17):
        if k > 1:
            fwd, rev = compose(fwd, one_fwd), compose(rev, one_rev)
        want = _multinomial_atoms(k)
        assert len(fwd.atoms) == len(rev.atoms) == len(want) == math.comb(k + 2, 2)
        for (gv, gp), (wv, wp, _) in zip(fwd.atoms, want):
            assert math.isclose(gv, wv, rel_tol=0, abs_tol=1e-12)
            assert math.isclose(gp, float(wp), rel_tol=0, abs_tol=1e-12)
        for eps in (0.3, 1.0, 2.2, 4.1):
            assert min(abs(v - eps) for v, _, _ in want) > 1e-6
            hit = [(p, q) for v, p, q in want if v >= eps]
            raw = float(sum(p for p, _ in hit)) - math.exp(eps) * float(sum(q for _, q in hit))
            got = approx_dp_delta(fwd, rev, eps)
            assert math.isclose(got, min(1.0, max(0.0, raw)), rel_tol=0, abs_tol=1e-12)


def test_compose_drops_masses_that_underflow_to_zero():
    x = DiscretePlrv(((0.0, 1.0), (1.0, 1e-200), (5.0, 0.0)))
    assert x.atoms.tolist() == [[0.0, 1.0], [1.0, 1e-200]]
    # 1e-200 squared underflows to 0, so the atom at 2 is dropped
    assert compose(x, x).atoms.tolist() == [[0.0, 1.0], [1.0, 2e-200]]


def test_compose_with_an_all_infinite_plrv_has_no_atoms():
    pair = FiniteMechanismPair(("a", "b"), (1.0, 0.0), (0.0, 1.0))
    x = plrv_of_finite_pair(pair)
    assert x.atoms.shape == (0, 2) and x.infinity_mass == 1.0
    for got in (compose(x, x), compose(x, rr_plrv(1.0, True)), compose(rr_plrv(1.0, True), x)):
        assert got.atoms.shape == (0, 2) and not got.atoms.flags.writeable
        assert got.infinity_mass == 1.0
    twice_rev = compose(plrv_of_finite_pair(pair.reversed()), plrv_of_finite_pair(pair.reversed()))
    assert approx_dp_delta(compose(x, x), twice_rev, 3.0) == 1.0


# --- plrv of finite pair ----------------------------------------------------------

def test_finite_pair_rr():
    pair = FiniteMechanismPair(("1", "0"), (0.75, 0.25), (0.25, 0.75))
    assert_atoms_close(plrv_of_finite_pair(pair), [(-LN3, 0.25), (LN3, 0.75)])


def test_finite_pair_identical_distributions():
    pair = FiniteMechanismPair(("a", "b"), (0.4, 0.6), (0.4, 0.6))
    assert plrv_of_finite_pair(pair) == point_mass_zero()


def test_finite_pair_null_impossible_output_dropped():
    pair = FiniteMechanismPair(("a", "b", "c"), (0.5, 0.5, 0.0), (0.25, 0.25, 0.5))
    plrv = plrv_of_finite_pair(pair)
    assert_atoms_close(plrv, [(math.log(2), 1.0)])
    assert plrv.infinity_mass == 0.0


def test_finite_pair_exclusive_output_feeds_infinity():
    pair = FiniteMechanismPair(("a", "b", "c"), (0.1, 0.0, 0.9), (0.0, 0.1, 0.9))
    plrv = plrv_of_finite_pair(pair)
    assert math.isclose(plrv.infinity_mass, 0.1)
    assert_atoms_close(plrv, [(0.0, 0.9)])


def test_finite_pair_disjoint_supports_with_mass_one_ulp_over_one():
    # p1's float sum is 1 + 1 ulp, inside the probability check's tolerance;
    # all of it lands on outputs that p2 rules out, and the infinity mass stays 1
    p1 = (0.10406084450591119, 0.21794278513052656, 0.0, 0.21794278513052656, 0.0,
          0.4600535852330358)
    assert sum(p1) == math.nextafter(1.0, 2.0)
    pair = FiniteMechanismPair(tuple("abcdef"), p1, (0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    plrv = plrv_of_finite_pair(pair)
    assert plrv.infinity_mass == 1.0
    assert plrv.atoms.shape == (0, 2)
    assert pure_dp_epsilon(plrv) == math.inf


def test_compose_keeps_masses_that_square_out_of_the_sum_tolerance():
    # 1 - 0.9e-12 passes the probability check; its square is 1 - 1.8e-12, which would not
    a = DiscretePlrv(((0.0, 1 - 0.9e-12),))
    both = compose(a, a)
    assert both.atoms.tolist() == [[0.0, (1 - 0.9e-12) ** 2]]
    assert both.infinity_mass == 0.0


def test_compose_rejects_values_whose_sum_overflows():
    a = DiscretePlrv(((1e308, 0.5), (-1.0, 0.5)))
    with pytest.raises(ValueError, match="finite"):
        compose(a, a)


def test_atoms_are_a_read_only_array():
    plrv = compose(rr_plrv(LN3, True), rr_plrv(LN3, True))
    assert plrv.atoms.shape == (3, 2)
    with pytest.raises(ValueError):
        plrv.atoms[0, 1] = 0.5


# --- pure dp epsilon ------------------------------------------------------------

def test_pure_dp_epsilon_examples():
    assert math.isclose(pure_dp_epsilon(rr_plrv(1.7, True)), 1.7)
    assert pure_dp_epsilon(point_mass_zero()) == 0.0
    eps = 0.9
    assert math.isclose(
        pure_dp_epsilon(compose(rr_plrv(eps, True), rr_plrv(eps, True))), 2 * eps
    )
    assert pure_dp_epsilon(sampling_plrv(10, 1)) == math.inf
    assert pure_dp_epsilon(gaussian_plrv(0.5)) == math.inf


# --- approximate dp delta ---------------------------------------------------------

def test_approx_dp_delta_gaussian_closed_form():
    mu, eps = 1.3, 0.7
    fwd = gaussian_plrv(mu)
    got = approx_dp_delta(fwd, fwd, eps)
    from dpsemantics._norm import phi

    want = phi(-eps / mu + mu / 2) - math.exp(eps) * phi(-eps / mu - mu / 2)
    assert math.isclose(got, want, rel_tol=0, abs_tol=1e-15)


def test_approx_dp_delta_rr_total_variation_at_zero():
    fwd = rr_plrv(LN3, True)
    rev = plrv_of_finite_pair(
        FiniteMechanismPair(("1", "0"), (0.25, 0.75), (0.75, 0.25))
    )
    # brute-force total variation between Bernoulli(0.75) and Bernoulli(0.25)
    tv = 0.5 * (abs(0.75 - 0.25) + abs(0.25 - 0.75))
    assert math.isclose(approx_dp_delta(fwd, rev, 0.0), tv)


def test_approx_dp_delta_pure_mechanism_vanishes_at_eps0():
    fwd = rr_plrv(LN3, True)
    assert approx_dp_delta(fwd, fwd, LN3) <= 1e-12
    assert approx_dp_delta(fwd, fwd, LN3 + 0.5) == 0.0


def test_approx_dp_delta_past_exp_overflow():
    # e^eps overflows past eps = 709.78; with no reverse mass below -eps the term is 0
    fwd = rr_plrv(1.0, True)
    assert approx_dp_delta(fwd, fwd, 800.0) == 0.0
    # a reverse mass of e^-720 / 2 keeps e^715 times it near e^-5 / 2: taken in log space
    m = 0.5 * math.exp(-720.0)
    fwd = DiscretePlrv(((720.0, 0.5), (-math.log(2.0), 0.5)))
    rev = DiscretePlrv(((-720.0, m), (math.log(2.0), 1.0 - m)))
    mpmath.mp.dps = 50
    want = float(mpmath.mpf(0.5) - mpmath.exp(715) * mpmath.mpf(m))
    assert math.isclose(approx_dp_delta(fwd, rev, 715.0), want, rel_tol=1e-13)
    # once e^eps times the mass passes every upper mass, delta clamps to 0
    assert approx_dp_delta(rev, rev, 715.0) == 0.0
    assert approx_dp_delta(fwd, rev, 1000.0) == 0.0


def test_approx_dp_delta_at_infinite_eps():
    # e^inf * 0 is NaN, which the clamp once turned into 0
    pair = FiniteMechanismPair(("a", "b", "c"), (0.5, 0.3, 0.2), (0.6, 0.4, 0.0))
    fwd, rev = plrv_of_finite_pair(pair), plrv_of_finite_pair(pair.reversed())
    assert approx_dp_delta(fwd, rev, math.inf) == approx_dp_delta(fwd, rev, 800.0) == 0.2
    assert approx_dp_delta(rr_plrv(LN3, True), rr_plrv(LN3, True), math.inf) == 0.0
    g = gaussian_plrv(1.0)
    assert approx_dp_delta(g, g, math.inf) == 0.0


def test_finite_pair_log_ratio_past_quotient_overflow():
    # p1 / p2 = e^720 overflows; the atom is log p1 - log p2, with no warning
    m = 0.5 * math.exp(-720.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = plrv_of_finite_pair(FiniteMechanismPair(("a", "b"), (0.5, 0.5), (m, 1.0 - m)))
    assert x.infinity_mass == 0.0
    assert math.isclose(x.atoms[-1, 0], 720.0, abs_tol=1e-9)
    assert x.atoms[0, 0] == math.log(0.5 / (1.0 - m))


def test_approx_dp_delta_gaussian_reverse_must_match():
    with pytest.raises(ValueError):
        approx_dp_delta(gaussian_plrv(1.0), gaussian_plrv(2.0), 0.1)


# --- tail probabilities ------------------------------------------------------------

def test_tailpost_tail_values():
    eps = 0.8
    double = compose(rr_plrv(eps, True), rr_plrv(eps, True))
    want = math.exp(2 * eps) / (1 + math.exp(eps)) ** 2
    assert math.isclose(double.tail(eps / 2), want)
    single = rr_plrv(eps, True)
    assert math.isclose(single.tail(eps / 2), math.exp(eps) / (1 + math.exp(eps)))


def test_tail_at_infinity():
    assert rr_plrv(1.0, True).tail(math.inf) == 0.0
    assert math.isclose(sampling_plrv(100, 10).tail(math.inf), 0.1)


def test_gaussian_tail_keeps_its_digits_far_past_the_mean():
    # 1 - Phi(z) cancels to 0 from about 8 sigma on; Phi(-z) does not
    assert math.isclose(gaussian_plrv(1.0).tail(10.0), 1.0494515075362604e-21, rel_tol=1e-13)
    for mu in (0.5, 1.0, math.sqrt(5.26)):
        g = gaussian_plrv(mu)
        for sigmas in (-3.0, 0.0, 1.0, 8.0, 9.5, 20.0, 37.0, 40.0):
            t = g.mean + sigmas * mu
            with mpmath.workdps(50):
                want = mpmath.ncdf((mpmath.mpf(g.mean) - t) / mpmath.sqrt(g.variance))
            # the rounded argument z moves Phi(-z) by about z^2 ulp
            assert math.isclose(g.tail(t), float(want), rel_tol=1e-12)


def test_postprocessing_tail_ordering_regression():
    # the released pair (two copies), keep-first-coordinate, constant-output
    eps = 1.0
    released = compose(rr_plrv(eps, True), rr_plrv(eps, True))
    keep_first = rr_plrv(eps, True)
    constant = point_mass_zero()
    t = eps / 2
    tails = (constant.tail(t), released.tail(t), keep_first.tail(t))
    assert tails[0] == 0.0
    assert 0.0 < tails[1] < tails[2]
    assert math.isclose(tails[1], math.exp(2 * eps) / (1 + math.exp(eps)) ** 2)
    assert math.isclose(tails[2], math.exp(eps) / (1 + math.exp(eps)))
    # composition still satisfies pure DP at twice the parameter
    assert math.isclose(pure_dp_epsilon(released), 2 * eps)


# --- properties ----------------------------------------------------------------------

finite_plrvs = st.builds(
    lambda eps, kind, n, m: {
        "rr": rr_plrv(eps, True),
        "pm": point_mass_zero(),
        "samp": sampling_plrv(n, m),
    }[kind],
    st.floats(0.0, 4.0),
    st.sampled_from(["rr", "pm", "samp"]),
    st.integers(2, 30),
    st.integers(0, 2),
)


def _assert_same_distribution(a: DiscretePlrv, b: DiscretePlrv, tol=1e-10):
    assert math.isclose(a.infinity_mass, b.infinity_mass, abs_tol=tol)
    assert len(a.atoms) == len(b.atoms)
    for (va, pa), (vb, pb) in zip(a.atoms, b.atoms):
        assert math.isclose(va, vb, abs_tol=tol)
        assert math.isclose(pa, pb, abs_tol=tol)


@settings(max_examples=60, deadline=None)
@given(finite_plrvs, finite_plrvs, finite_plrvs)
def test_compose_associative_commutative(a, b, c):
    _assert_same_distribution(compose(a, compose(b, c)), compose(compose(a, b), c))
    _assert_same_distribution(compose(a, b), compose(b, a))


@settings(max_examples=60, deadline=None)
@given(finite_plrvs, finite_plrvs)
def test_pure_dp_epsilon_subadditive(a, b):
    assert pure_dp_epsilon(compose(a, b)) <= pure_dp_epsilon(a) + pure_dp_epsilon(b) + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 3.0), st.floats(0.05, 3.0))
def test_rr_composition_is_linear(e1, e2):
    got = pure_dp_epsilon(compose(rr_plrv(e1, True), rr_plrv(e2, True)))
    assert math.isclose(got, e1 + e2, rel_tol=1e-12)


prob_vectors = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5).map(
    lambda v: tuple(x / sum(v) for x in v)
)


@settings(max_examples=50, deadline=None)
@given(prob_vectors, prob_vectors)
def test_approx_dp_delta_monotone_and_tv(p1, p2):
    if len(p1) != len(p2):
        return
    outputs = tuple(str(i) for i in range(len(p1)))
    pair = FiniteMechanismPair(outputs, p1, p2)
    fwd = plrv_of_finite_pair(pair)
    rev = plrv_of_finite_pair(pair.reversed())
    deltas = [approx_dp_delta(fwd, rev, e) for e in np.linspace(0, 4, 40)]
    assert all(d1 >= d2 - 1e-12 for d1, d2 in zip(deltas, deltas[1:]))
    tv = 0.5 * sum(abs(a - b) for a, b in zip(p1, p2))
    assert math.isclose(deltas[0], tv, abs_tol=1e-12)


@settings(max_examples=50, deadline=None)
@given(prob_vectors, prob_vectors, st.floats(1.1, 8.0))
def test_renyi_moment_matches_divergence(p1, p2, alpha):
    if len(p1) != len(p2):
        return
    outputs = tuple(str(i) for i in range(len(p1)))
    pair = FiniteMechanismPair(outputs, p1, p2)
    plrv = plrv_of_finite_pair(pair)
    moment = sum(p * math.exp((alpha - 1) * v) for v, p in plrv.atoms)
    direct = sum(a * (a / b) ** (alpha - 1) for a, b in zip(p1, p2))
    assert math.isclose(moment, direct, rel_tol=1e-9)
    assert math.isclose(
        math.log(moment) / (alpha - 1),
        renyi_divergence(pair, alpha),
        rel_tol=1e-9,
        abs_tol=1e-12,
    )


# ties, gaps just below and just above ATOM_MERGE_TOL, and zero masses
tied_atoms = st.lists(
    st.tuples(
        st.sampled_from([-2.0, -1e-13, 0.0, 4e-13, 1.5e-12, 0.5, 0.5 + 6e-13, 0.5 + 1.2e-12, 3.0])
        | st.floats(-5.0, 5.0),
        st.sampled_from([0.0, 1e-300, 0.25]) | st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(tied_atoms, st.floats(0.0, 0.5), st.lists(st.floats(-6.0, 6.0), max_size=3))
def test_merged_atoms_keep_their_invariants(atoms, infinity, thresholds):
    values, weights = (np.array(column) for column in zip(*atoms))
    total = math.fsum(weights.tolist()) + infinity
    assume(total > 0.0)
    probs = weights / total
    out = _merged(values, probs)
    assert not out.flags.writeable
    assert (np.diff(out[:, 0]) >= ATOM_MERGE_TOL).all()
    kept = probs[probs > 0.0].tolist()
    assert math.isclose(math.fsum(out[:, 1].tolist()), math.fsum(kept), rel_tol=0, abs_tol=1e-13)
    # the tails cut the sorted atoms where the boolean masks select them, bit for bit
    x = DiscretePlrv(np.column_stack([values, probs]), infinity_mass=infinity / total)
    assert np.array_equal(x.atoms, out)
    v, p = x.atoms[:, 0], x.atoms[:, 1]
    at_atoms = [a + d for a in v.tolist() for d in (-ATOM_MERGE_TOL, 0.0, ATOM_MERGE_TOL)]
    for t in [*thresholds, *at_atoms, math.inf, -math.inf]:
        assert x.upper_mass(t) == float(p[v >= t - ATOM_MERGE_TOL].sum()) + x.infinity_mass
        assert x.lower_mass(t) == float(p[v <= t + ATOM_MERGE_TOL].sum())
        assert x.tail(t) == float(p[v > t].sum()) + x.infinity_mass


# --- array form against the list-and-loop reference ----------------------------------

def _reference_merged(atoms):
    """Sort-merge of (value, probability) tuples, one atom at a time."""
    out = []
    for value, prob in sorted(atoms):
        if prob <= 0.0:
            continue
        if out and abs(value - out[-1][0]) < ATOM_MERGE_TOL:
            old_v, old_p = out[-1]
            total = old_p + prob
            out[-1] = ((old_v * old_p + value * prob) / total, total)
        else:
            out.append((value, prob))
    return out


def _reference_plrv(p1, p2):
    atoms, inf_mass = [], 0.0
    for q1, q2 in zip(p1, p2):
        if q1 > 0.0 and q2 == 0.0:
            inf_mass += q1
        elif q1 > 0.0:
            atoms.append((math.log(q1 / q2), q1))
    return _reference_merged(atoms), min(1.0, inf_mass)


def _assert_same_atoms(got, want):
    # the array form sums each run in another order: agreement to 1e-12
    assert len(got) == len(want)
    for (gv, gp), (wv, wp) in zip(got, want):
        assert math.isclose(gv, wv, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(gp, wp, rel_tol=0, abs_tol=1e-12)


# small integer weights make ties in the likelihood ratio, so runs merge
weight_pairs = st.integers(2, 6).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(0, 4), min_size=n, max_size=n)] * 2)
)


@settings(max_examples=150, deadline=None)
@given(weight_pairs)
def test_array_atoms_match_the_loop_reference(weights):
    w1, w2 = weights
    assume(sum(w1) > 0 and sum(w2) > 0)
    p1, p2 = tuple(w / sum(w1) for w in w1), tuple(w / sum(w2) for w in w2)
    x = plrv_of_finite_pair(FiniteMechanismPair(tuple(map(str, range(len(p1)))), p1, p2))
    ref, inf_mass = _reference_plrv(p1, p2)
    _assert_same_atoms(x.atoms, ref)
    assert math.isclose(x.infinity_mass, inf_mass, rel_tol=0, abs_tol=1e-15)
    twice = _reference_merged([(va + vb, pa * pb) for va, pa in ref for vb, pb in ref])
    _assert_same_atoms(compose(x, x).atoms, twice)
    thrice = _reference_merged([(va + vb, pa * pb) for va, pa in twice for vb, pb in ref])
    _assert_same_atoms(compose(compose(x, x), x).atoms, thrice)
