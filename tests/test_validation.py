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
    exact_posteriors,
    gaussian_exact_power,
    rdp_power_bound,
    scenario_power,
    zcdp_power_bound,
)
from dpsemantics.bayes import BayesVerdict, FiniteMechanismFamily, SmallUniversePrior
from dpsemantics.tradeoff import (
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
