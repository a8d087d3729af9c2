"""Constructor and argument validation across the package."""

import math

import pytest

from dpsemantics import (
    DiscretePlrv,
    FiniteMechanismPair,
    GaussianPlrv,
    Odometer,
    RdpProfile,
    ZcdpProfile,
    adp_gaussian_curve,
    approx_dp_delta,
    approx_dp_power_bound,
    bayes_known_rest_delta,
    exact_posteriors,
    fdp_to_epsdelta,
    gaussian_exact_power,
    gaussian_pbdp_epsilon,
    gaussian_plrv,
    pbdp_delta_finite,
    pure_dp_power_bound,
    rdp_to_delta,
    rdp_power_bound,
    rr_plrv,
    sampling_plrv,
    zcdp_power_bound,
    zcdp_to_delta,
)
from dpsemantics import svg
from dpsemantics.bayes import (
    FiniteMechanismFamily,
    SmallUniversePrior,
    simulate_ratio_exceedance,
    wrong_prior_ratio_closed_form,
)
from dpsemantics.dgauss import AffectedQuerySet, DiscreteGaussParams, dgauss_pmf, mc_roc
from dpsemantics.plrv import RepresentationMismatchError
from dpsemantics.tradeoff import (
    GaussianExactCurve,
    PiecewiseLinearCurve,
    RdpNumericBoundCurve,
    ZcdpNumericBoundCurve,
)


def test_discrete_plrv_rejects_bad_mass():
    with pytest.raises(ValueError):
        DiscretePlrv(((0.0, 0.6),))
    with pytest.raises(ValueError):
        DiscretePlrv(((0.0, 0.5), (1.0, 0.6)))
    with pytest.raises(ValueError):
        DiscretePlrv(((math.inf, 1.0),))


def test_discrete_plrv_merges_near_duplicates():
    plrv = DiscretePlrv(((1.0, 0.5), (1.0 + 1e-14, 0.5)))
    assert len(plrv.atoms) == 1
    assert math.isclose(plrv.atoms[0][1], 1.0)


NAN = math.nan
NAN_INPUTS = {
    "pair p1": lambda: FiniteMechanismPair(("a", "b"), (NAN, 1.0), (0.5, 0.5)),
    "plrv probability": lambda: DiscretePlrv(((0.0, NAN),)),
    "plrv infinity mass": lambda: DiscretePlrv(((0.0, 1.0),), infinity_mass=NAN),
    "family row": lambda: FiniteMechanismFamily(("x", "y"), {("rest", "a"): (NAN, 1.0)}),
    "prior rest": lambda: SmallUniversePrior((("rest", NAN),), ("a",), {"rest": (1.0,)}),
    "prior conditional": lambda: SmallUniversePrior(
        (("rest", 1.0),), ("a", "b"), {"rest": (NAN, 1.0)}
    ),
    "zcdp rho": lambda: ZcdpProfile(NAN),
    "rdp order": lambda: RdpProfile(((NAN, 1.0),)),
    "rdp gamma": lambda: RdpProfile(((2.0, NAN),)),
    "gaussian plrv mean": lambda: GaussianPlrv(mean=NAN, variance=1.0),
    "gaussian plrv variance": lambda: GaussianPlrv(mean=0.0, variance=NAN),
    "zcdp_to_delta rho": lambda: zcdp_to_delta(NAN, 1.0),
    "wrong-prior omega": lambda: wrong_prior_ratio_closed_form(NAN),
}


@pytest.mark.parametrize("build", NAN_INPUTS.values(), ids=NAN_INPUTS.keys())
def test_nan_is_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_rdp_profile_allows_infinite_gamma():
    assert RdpProfile(((2.0, math.inf),)).points == ((2.0, math.inf),)


def test_gaussian_plrv_rejects_negative_variance():
    with pytest.raises(ValueError):
        GaussianPlrv(mean=0.0, variance=-1.0)


def test_pair_rejects_mismatched_lengths_and_sums():
    with pytest.raises(ValueError):
        FiniteMechanismPair(("a",), (0.5, 0.5), (1.0,))
    with pytest.raises(ValueError):
        FiniteMechanismPair(("a", "b"), (0.5, 0.6), (0.5, 0.5))
    with pytest.raises(ValueError):
        FiniteMechanismPair(("a", "b"), (-0.1, 1.1), (0.5, 0.5))


def test_profiles_reject_bad_parameters():
    with pytest.raises(ValueError):
        ZcdpProfile(-0.1)
    with pytest.raises(ValueError):
        RdpProfile(((1.0, 0.5),))
    with pytest.raises(ValueError):
        RdpProfile(((2.0, -0.5),))
    with pytest.raises(ValueError):
        RdpProfile(((3.0, 0.5), (2.0, 0.5)))
    with pytest.raises(ValueError):
        RdpProfile(())


BAD_RDP_POINTS = {
    # rdp_to_delta once turned this into a non-vacuous delta, 0.368 at eps 0
    "negative gamma": [(2.0, -1.0)],
    "order at 1": [(1.0, 0.5)],
    "unsorted orders": [(3.0, 0.5), (2.0, 0.5)],
}


@pytest.mark.parametrize("points", BAD_RDP_POINTS.values(), ids=BAD_RDP_POINTS.keys())
def test_rdp_to_delta_rejects_what_rdp_profile_rejects(points):
    with pytest.raises(ValueError):
        rdp_to_delta(points, 0.0)


def test_power_bounds_reject_bad_arguments():
    with pytest.raises(ValueError):
        zcdp_power_bound(0.0, 0.5)
    with pytest.raises(ValueError):
        zcdp_power_bound(1.0, 1.5)
    with pytest.raises(ValueError):
        rdp_power_bound([], 0.5)
    with pytest.raises(ValueError):
        gaussian_exact_power(-1.0, 0.5)
    with pytest.raises(ValueError):
        gaussian_exact_power(math.sqrt(2.0), -0.2)


def test_moment_bound_curves_reject_bad_parameters_at_construction():
    for rho in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            ZcdpNumericBoundCurve(rho)
    for points in ((), ((1.0, 0.5),), ((2.0, -0.5),), ((math.inf, 1.0),)):
        with pytest.raises(ValueError):
            RdpNumericBoundCurve(points)
    # an infinite order once gave power 0.5000000000004547 at level 0.5, below the
    # pure-DP(1) bound 0.816 that order 1e300 gives: the unsound side
    with pytest.raises(ValueError):
        rdp_power_bound([(2.0, 0.5), (math.inf, 1.0)], 0.5)


TWO_RESTS = SmallUniversePrior(
    (("r1", 0.5), ("r2", 0.5)), ("a",), {"r1": (1.0,), "r2": (1.0,)}
)
BAD_ARGUMENTS = {
    "prior target 0": (
        ValueError, "prior_target", lambda: wrong_prior_ratio_closed_form(prior_target=0.0)
    ),
    "prior target 1": (
        ValueError, "prior_target", lambda: wrong_prior_ratio_closed_form(prior_target=1.0)
    ),
    "simulation prior not known-rest": (
        ValueError,
        "known-rest",
        lambda: simulate_ratio_exceedance(
            TWO_RESTS,
            FiniteMechanismFamily(("x",), {("r1", "a"): (1.0,), ("r2", "a"): (1.0,)}),
            1.0, 10, 0,
        ),
    ),
    "affected rho_star 0": (
        ValueError, "rho_star", lambda: AffectedQuerySet(((0.5, 2), (0.0, 2)))
    ),
    "affected no cell": (ValueError, "cell", lambda: AffectedQuerySet(((0.5, 0),))),
    "affected rho_star nan": (
        ValueError, "rho_star", lambda: AffectedQuerySet(((NAN, 2),))
    ),
    "affected rho_star inf": (
        ValueError, "rho_star", lambda: AffectedQuerySet(((math.inf, 2),))
    ),
    "affected fractional cells": (
        ValueError, "cell", lambda: AffectedQuerySet(((0.5, 1.5),))
    ),
    "affected bool cells": (
        ValueError, "cell count must be an int", lambda: AffectedQuerySet(((0.5, True),))
    ),
    "dgauss_pmf fractional k": (
        ValueError, "k must", lambda: dgauss_pmf(0.5, DiscreteGaussParams(1.0))
    ),
    "dgauss_pmf nan k": (ValueError, "k must", lambda: dgauss_pmf(NAN, DiscreteGaussParams(1.0))),
    "dgauss_pmf bool k": (ValueError, "k must", lambda: dgauss_pmf(True, DiscreteGaussParams(1.0))),
    "mc_roc float n_samples": (
        ValueError, "n_samples", lambda: mc_roc(AffectedQuerySet(((0.5, 2),)), 1000.0, 1)
    ),
    "mc_roc bool n_samples": (
        ValueError, "n_samples", lambda: mc_roc(AffectedQuerySet(((0.5, 2),)), True, 1)
    ),
    "mc_roc fractional seed": (
        ValueError, "seed", lambda: mc_roc(AffectedQuerySet(((0.5, 2),)), 1000, 1.5)
    ),
    "mc_roc bool seed": (
        ValueError, "seed", lambda: mc_roc(AffectedQuerySet(((0.5, 2),)), 1000, False)
    ),
    "mc_roc negative seed": (
        ValueError, "seed", lambda: mc_roc(AffectedQuerySet(((0.5, 2),)), 1000, -1)
    ),
    "gaussian plrv negative mu": (ValueError, "mu", lambda: gaussian_plrv(-1.0)),
    "gaussian plrv infinite mu": (ValueError, "mu", lambda: gaussian_plrv(math.inf)),
    "sampling plrv n 0": (ValueError, "n must", lambda: sampling_plrv(0, 0)),
    "sampling plrv fractional n": (ValueError, "n must", lambda: sampling_plrv(2.5, 1)),
    "sampling plrv fractional m": (ValueError, "m must", lambda: sampling_plrv(3, 1.5)),
    "approx_dp_delta mixed": (
        RepresentationMismatchError,
        "representation",
        lambda: approx_dp_delta(rr_plrv(1.0, True), gaussian_plrv(1.0), 0.5),
    ),
    "line chart nothing finite": (
        ValueError,
        "finite",
        lambda: svg.line_chart([(NAN, 0.5), (0.5, math.inf)], "t", "x", "y"),
    ),
    # each of these once read a NaN threshold as zero mass, or returned NaN
    "discrete tail nan t": (ValueError, "threshold t", lambda: rr_plrv(1.0, True).tail(NAN)),
    "upper_mass nan t": (ValueError, "threshold t", lambda: rr_plrv(1.0, True).upper_mass(NAN)),
    "lower_mass nan t": (ValueError, "threshold t", lambda: rr_plrv(1.0, True).lower_mass(NAN)),
    "gaussian tail nan t": (ValueError, "threshold t", lambda: gaussian_plrv(1.0).tail(NAN)),
    "approx_dp_power_bound delta above 1": (
        ValueError, "delta", lambda: approx_dp_power_bound(1.0, 1.5, 0.5)
    ),
    "approx_dp_power_bound negative delta": (
        ValueError, "delta", lambda: approx_dp_power_bound(1.0, -0.1, 0.5)
    ),
}


@pytest.mark.parametrize(
    "error, message, call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys()
)
def test_bad_arguments_name_what_is_wrong(error, message, call):
    with pytest.raises(error, match=message):
        call()


def test_piecewise_linear_curve_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearCurve(((0.5, 0.5), (0.2, 0.3), (1.0, 1.0)))
    with pytest.raises(ValueError):
        PiecewiseLinearCurve(((0.0, 0.0), (0.5, 0.6)))


BAD_VERTICES = {
    "nan power": ((0.0, 0.0), (0.5, NAN), (1.0, 1.0)),
    "nan level": ((0.0, 0.0), (NAN, 0.5), (1.0, 1.0)),
    "infinite power": ((0.0, 0.0), (0.5, math.inf), (1.0, 1.0)),
    "power above 1": ((0.0, 0.0), (0.5, 1.5), (1.0, 1.0)),
    "negative power": ((0.0, -0.1), (0.5, 0.5), (1.0, 1.0)),
    "negative level": ((-0.5, 0.0), (0.5, 0.5), (1.0, 1.0)),
    "level above 1": ((0.0, 0.0), (1.5, 1.0), (1.0, 1.0)),
}


@pytest.mark.parametrize("vertices", BAD_VERTICES.values(), ids=BAD_VERTICES.keys())
def test_piecewise_linear_curve_rejects_vertices_outside_the_unit_square(vertices):
    # a NaN vertex once gave power nan and fdp_to_epsdelta a negative eps
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        curve = PiecewiseLinearCurve(vertices)
        fdp_to_epsdelta(curve, 0.1)


NAN_EPS = {
    "zcdp_to_delta": lambda: zcdp_to_delta(1.0, NAN),
    "rdp_to_delta": lambda: rdp_to_delta(((2.0, 1.0),), NAN),
    "pbdp_delta_finite": lambda: pbdp_delta_finite(
        FiniteMechanismPair(("1", "0"), (0.75, 0.25), (0.25, 0.75)), NAN
    ),
    # each of these once read NaN as perfect privacy: delta or power 0
    "approx_dp_delta discrete": lambda: approx_dp_delta(
        rr_plrv(1.0, True), rr_plrv(1.0, True), NAN
    ),
    "approx_dp_delta gaussian": lambda: approx_dp_delta(
        gaussian_plrv(1.0), gaussian_plrv(1.0), NAN
    ),
    "approx_dp_power_bound": lambda: approx_dp_power_bound(NAN, 0.1, 0.5),
    "pure_dp_power_bound": lambda: pure_dp_power_bound(NAN, 0.5),
    "adp_gaussian_curve": lambda: adp_gaussian_curve(1.0).delta(NAN),
    "bayes_known_rest_delta zcdp": lambda: bayes_known_rest_delta(ZcdpProfile(1.0), NAN),
    "bayes_known_rest_delta rdp": lambda: bayes_known_rest_delta(
        RdpProfile(((2.0, 1.0),)), NAN
    ),
}


@pytest.mark.parametrize("call", NAN_EPS.values(), ids=NAN_EPS.keys())
def test_nan_eps_is_rejected(call):
    with pytest.raises(ValueError, match="eps"):
        call()


NAN_MU = {
    "gaussian_pbdp_epsilon": lambda: gaussian_pbdp_epsilon(NAN, 0.1),
    "gaussian_exact_power": lambda: gaussian_exact_power(NAN, 0.5),
    "GaussianExactCurve": lambda: GaussianExactCurve(NAN).inverse_type2(0.5),
    "adp_gaussian_curve": lambda: adp_gaussian_curve(NAN),
}


@pytest.mark.parametrize("call", NAN_MU.values(), ids=NAN_MU.keys())
def test_nan_mu_is_rejected(call):
    with pytest.raises(ValueError, match="mu"):
        call()


def test_odometer_rejects_negative_cap_and_bad_ledger():
    with pytest.raises(ValueError):
        Odometer(-1)
    with pytest.raises(ValueError):
        Odometer.from_ledger_text("not a ledger\n")
    with pytest.raises(ValueError):
        Odometer.from_ledger_text("# cap\t1\nonly-two\tfields\n")
    # tampered running total
    with pytest.raises(ValueError):
        Odometer.from_ledger_text("# cap\t1\nstep\t1/2\t1/3\n")


def test_prior_rejects_bad_rows():
    with pytest.raises(ValueError):
        SmallUniversePrior((("rest", 0.9),), ("a",), {"rest": (1.0,)})
    with pytest.raises(ValueError):
        SmallUniversePrior((("rest", 1.0),), ("a", "b"), {"rest": (0.6, 0.6)})
    with pytest.raises(ValueError):
        SmallUniversePrior((("rest", 1.0),), ("a", "b"), {"rest": (1.0,)})


def test_family_rejects_bad_rows():
    with pytest.raises(ValueError):
        FiniteMechanismFamily(("x", "y"), {("rest", "a"): (0.5,)})
    with pytest.raises(ValueError):
        FiniteMechanismFamily(("x", "y"), {("rest", "a"): (0.7, 0.7)})


def test_exact_posteriors_unknown_output():
    mech = FiniteMechanismFamily(("x",), {("rest", "a"): (1.0,)})
    prior = SmallUniversePrior.known_rest(("a",), (1.0,))
    with pytest.raises(ValueError):
        exact_posteriors(prior, mech, "zzz")
