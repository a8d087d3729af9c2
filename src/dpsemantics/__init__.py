"""Differential-privacy semantics toolkit.

Privacy-loss random variables for canonical mechanisms, conversions
between the major accounting frameworks, frequentist and Bayesian
guarantee curves, and the 2020 Census redistricting budget allocation
with its fine-grained inference scenarios.
"""

from .accountants import (
    BudgetExceededError,
    EpsDeltaCurve,
    Odometer,
    RdpProfile,
    ZcdpProfile,
    adp_gaussian_curve,
    fdp_to_epsdelta,
    gaussian_pbdp_epsilon,
    pbdp_delta_finite,
    rdp_compose,
    rdp_to_delta,
    renyi_divergence,
    zcdp_to_delta,
)
from .bayes import (
    BayesVerdict,
    FiniteMechanismFamily,
    SmallUniversePrior,
    bayes_known_rest_delta,
    exact_posteriors,
    pure_dp_ratio_bound_check,
)
from .census import (
    AllocationTable,
    GeoLevel,
    QueryKind,
    Scenario,
    builtin_scenario,
    builtin_scenarios,
    parse_allocation,
    production_table,
    scenario_rho,
    total_rho,
)
from .dgauss import (
    AffectedQuerySet,
    DiscreteGaussParams,
    affected_queries_from_table,
    dgauss_pmf,
    mc_roc,
)
from .plrv import (
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
from .tradeoff import (
    ApproxDpBoundCurve,
    GaussianExactCurve,
    PiecewiseLinearCurve,
    PureDpBoundCurve,
    RdpNumericBoundCurve,
    ZcdpNumericBoundCurve,
    approx_dp_power_bound,
    gaussian_exact_power,
    np_tradeoff_finite,
    pure_dp_power_bound,
    rdp_power_bound,
    zcdp_power_bound,
)

__version__ = "0.1.0"
