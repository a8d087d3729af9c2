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
    scenario_power,
    zcdp_power_bound,
    zcdp_to_delta,
)
from dpsemantics.bayes import BayesVerdict, FiniteMechanismFamily, SmallUniversePrior
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
        scenario_power(1.0, -0.2)


def test_moment_bound_curves_reject_bad_parameters_at_construction():
    for rho in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            ZcdpNumericBoundCurve(rho)
    for points in ((), ((1.0, 0.5),), ((2.0, -0.5),)):
        with pytest.raises(ValueError):
            RdpNumericBoundCurve(points)


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


def test_bayes_verdict_report_is_labelled():
    verdict = BayesVerdict((0.8, 0.2), (0.4, 0.6), (2.0, 1.0 / 3.0))
    text = verdict.report(("pos", "neg"))
    assert "pos: 0.8 / 0.4 -> 2" in text
    assert text.splitlines()[0].startswith("record:")


def test_exact_posteriors_unknown_output():
    mech = FiniteMechanismFamily(("x",), {("rest", "a"): (1.0,)})
    prior = SmallUniversePrior.known_rest(("a",), (1.0,))
    with pytest.raises(ValueError):
        exact_posteriors(prior, mech, "zzz")
