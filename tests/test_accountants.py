import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsemantics import (
    BudgetExceededError,
    FiniteMechanismPair,
    GaussianExactCurve,
    Odometer,
    RdpProfile,
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
from dpsemantics.tradeoff import PiecewiseLinearCurve

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


def test_fdp_rr_curve_approaches_pure_eps():
    eps0 = math.log(3)
    pair = FiniteMechanismPair(("1", "0"), (0.75, 0.25), (0.25, 0.75))
    curve = np_tradeoff_finite(pair)
    # below the kink the slope is e^eps0, so eps is exactly eps0
    assert math.isclose(fdp_to_epsdelta(curve, 1e-4), eps0, rel_tol=1e-9)
    assert math.isclose(fdp_to_epsdelta(curve, 1e-2), eps0, rel_tol=1e-9)
    # above the kink the conversion can only get easier
    assert fdp_to_epsdelta(curve, 0.9) <= eps0 + 1e-12


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

def test_pbdp_delta_pure_mechanism_is_zero():
    pair = FiniteMechanismPair(("1", "0"), (0.75, 0.25), (0.25, 0.75))
    assert pbdp_delta_finite(pair, math.log(3)) < 1e-15
    assert pbdp_delta_finite(pair, 2.0) < 1e-15


def test_pbdp_delta_absorbs_catastrophic_mass():
    pair = FiniteMechanismPair(
        ("target", "replacement", "rest"), (0.1, 0.0, 0.9), (0.0, 0.1, 0.9)
    )
    for eps in (0.1, 1.0, 5.0):
        assert pbdp_delta_finite(pair, eps) >= 0.1 - 1e-12


def test_pbdp_delta_rr_below_pure_eps():
    # the feasibility boundary solved by hand for RR(ln 3) at eps = 0.1:
    # the binding segment gives delta = (2/3) / (1 - e^{-0.1} / 3)
    pair = FiniteMechanismPair(("1", "0"), (0.75, 0.25), (0.25, 0.75))
    want = (2.0 / 3.0) / (1.0 - math.exp(-0.1) / 3.0)
    assert math.isclose(pbdp_delta_finite(pair, 0.1), want, rel_tol=1e-9)


# --- figure-level orderings ------------------------------------------------------------

def test_gaussian_curve_orderings_at_fixed_delta():
    rho = 2.63
    mu = math.sqrt(2 * rho)
    adp = adp_gaussian_curve(mu, eps_hi=60.0)
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
    import numpy as np

    from dpsemantics.accountants import zcdp_bound_curve
    from dpsemantics.bayes import bayes_arbitrary_prior_delta, bayes_known_rest_delta

    adp, zcdp = adp_gaussian_curve(math.sqrt(5.26)), zcdp_bound_curve(2.63)
    profile = ZcdpProfile(2.63)
    cases = [
        (adp.delta, adp.eps_hi),
        (zcdp.delta, zcdp.eps_hi),
        (lambda eps: bayes_known_rest_delta(profile, eps), 30.0),
        (lambda eps: bayes_arbitrary_prior_delta(profile, eps), 30.0),
    ]
    for fn, eps_hi in cases:
        values = [fn(float(e)) for e in np.linspace(0.0, eps_hi, 60)]
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


def test_odometer_ledger_round_trip():
    odo = Odometer("2.63")
    odo.register("person", "2.56")
    odo.register("housing", "0.07")
    text = odo.to_ledger_text()
    back = Odometer.from_ledger_text(text)
    assert back.cap == odo.cap
    assert back.entries == odo.entries
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
