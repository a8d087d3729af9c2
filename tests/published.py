"""The source paper's published numbers, each stated once with the
tolerance its test allows.

A triple holds the values at the levels of LEVELS.  The printed values
are rounded, so each test checks a computed value against them within
the tolerance stated beside them.
"""

LEVELS = (0.01, 0.05, 0.10)

#: The eight scenario budgets rho, A to H.  The exact budgets that
#: `census.scenario_rho` computes from the production allocation lie
#: within SCENARIO_RHO_TOL of them.
SCENARIO_RHO = {
    "A": 0.1115, "B": 0.926, "C": 0.952, "D": 0.945,
    "E": 1.32, "F": 0.555, "G": 0.969, "H": 0.968,
}
SCENARIO_RHO_TOL = 5e-3

#: Gaussian powers of scenarios A to F; A's row is also the block-level
#: Monte Carlo column.
SCENARIO_POWERS = {
    "A": (0.03, 0.12, 0.21),
    "B": (0.17, 0.39, 0.53),
    "C": (0.17, 0.40, 0.54),
    "D": (0.17, 0.39, 0.54),
    "E": (0.24, 0.49, 0.63),
    "F": (0.10, 0.28, 0.41),
}
SCENARIO_POWER_TOL = 0.01

#: Power of the production release (rho = 2.63) under the Gaussian
#: approximation; the discrete Monte Carlo estimate lies within this
#: tolerance plus three of its standard errors.
PRODUCTION_GAUSSIAN = (0.49, 0.74, 0.84)
PRODUCTION_GAUSSIAN_TOL = 0.005

#: The zCDP power bound of the production release.
PRODUCTION_ZCDP_BOUND = (0.70, 0.95, 0.96)
PRODUCTION_ZCDP_BOUND_TOL = 0.01

#: The zCDP power bound at the block-level budget, scenario A.
BLOCK_ZCDP_BOUND = (0.04, 0.14, 0.24)
BLOCK_ZCDP_BOUND_TOL = 0.01
