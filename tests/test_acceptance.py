"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured values when it succeeds."""

import importlib.util
import itertools
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from dpsemantics import (
    FiniteMechanismPair,
    GaussianExactCurve,
    RdpProfile,
    SmallUniversePrior,
    bayes_known_rest_delta,
    builtin_scenario,
    builtin_scenarios,
    compose,
    exact_posteriors,
    fdp_to_epsdelta,
    gaussian_exact_power,
    gaussian_pbdp_epsilon,
    gaussian_plrv,
    pbdp_delta_finite,
    plrv_of_finite_pair,
    point_mass_zero,
    pure_dp_epsilon,
    pure_dp_power_bound,
    pure_dp_ratio_bound_check,
    rr_plrv,
    sampling_plrv,
    scenario_rho,
    total_rho,
    zcdp_power_bound,
    zcdp_to_delta,
)
from dpsemantics.bayes import (
    marginal_output_probabilities,
    simulate_ratio_exceedance,
    wrong_prior_discretized,
    wrong_prior_ratio_closed_form,
)
from dpsemantics.cli import main as cli_main
from dpsemantics.accountants import renyi_divergence
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
    SCENARIO_RHO_TOL,
)

GOLDENS = Path(__file__).parent / "goldens"
MC_GOLDEN = "mc-production-n2000-seed1.csv"


# --- criterion 1: pure-DP power table ------------------------------------------------

PRINTED_TABLE = {
    (0.1, 0.01): 0.011, (0.5, 0.01): 0.016, (1.0, 0.01): 0.027,
    (2.0, 0.01): 0.074, (4.0, 0.01): 0.550,
    (0.1, 0.05): 0.055, (0.5, 0.05): 0.820, (1.0, 0.05): 0.136,
    (2.0, 0.05): 0.370, (4.0, 0.05): 0.983,
    (0.1, 0.10): 0.111, (0.5, 0.10): 0.165, (1.0, 0.10): 0.272,
    (2.0, 0.10): 0.739, (4.0, 0.10): 0.984,
}

# cells where the circulated print differs from the formula beyond the
# rounding of the third decimal: a transposition (0.082 -> 0.820) and a
# round-off at the fourth decimal (0.5460 -> 0.550)
KNOWN_PRINT_DISCREPANCIES = {
    (0.5, 0.05): 0.082,
    (4.0, 0.01): 0.546,
}


def test_criterion_1_power_table_reproduction():
    start = time.perf_counter()
    flagged = {}
    for (eps, level), printed in PRINTED_TABLE.items():
        value = pure_dp_power_bound(eps, level)
        if (eps, level) in KNOWN_PRINT_DISCREPANCIES:
            assert round(value, 3) == KNOWN_PRINT_DISCREPANCIES[(eps, level)]
            flagged[(eps, level)] = (round(value, 3), printed)
        else:
            # printed to three decimals, allowing the visible round-up at
            # the fourth decimal in the reference copy
            assert abs(value - printed) <= 6e-4, (eps, level, value)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert set(flagged) == set(KNOWN_PRINT_DISCREPANCIES)
    print(
        f"ACCEPTANCE 1 PASS: 15-cell power table reproduced in {elapsed * 1e3:.1f} ms; "
        f"flagged print discrepancies: {flagged}"
    )


# --- criterion 2: production power values -------------------------------------------

def test_criterion_2_production_powers(mc_production_timed):
    mu = math.sqrt(5.26)
    gauss = [gaussian_exact_power(mu, lv) for lv in LEVELS]
    for got, want in zip(gauss, PRODUCTION_GAUSSIAN):
        assert abs(got - want) <= PRODUCTION_GAUSSIAN_TOL
    zcdp = [zcdp_power_bound(2.63, lv) for lv in LEVELS]
    for got, want in zip(zcdp, PRODUCTION_ZCDP_BOUND):
        assert abs(got - want) <= PRODUCTION_ZCDP_BOUND_TOL
    roc, seconds = mc_production_timed
    assert seconds < 300.0
    emp = []
    for lv, want in zip(LEVELS, PRODUCTION_GAUSSIAN):
        p = roc.power_at(lv)
        emp.append(p)
        assert abs(p - want) <= PRODUCTION_GAUSSIAN_TOL + 3 * roc.standard_error(lv)
    print(
        "ACCEPTANCE 2 PASS: gaussian "
        + "/".join(f"{v:.3f}" for v in gauss)
        + ", zcdp bound "
        + "/".join(f"{v:.3f}" for v in zcdp)
        + ", monte carlo "
        + "/".join(f"{v:.3f}" for v in emp)
        + f" ({seconds:.1f} s for 1e6 samples)"
    )


# --- criterion 3: scenario suite ------------------------------------------------------


def test_criterion_3_scenario_suite(production_table, mc_scenario_a):
    assert total_rho(production_table) == Fraction(263, 100)
    rhos = {}
    for scenario in builtin_scenarios():
        rho = float(scenario_rho(production_table, scenario))
        rhos[scenario.name] = rho
        assert abs(rho - SCENARIO_RHO[scenario.name]) < SCENARIO_RHO_TOL, scenario.name
    for name, powers in SCENARIO_POWERS.items():
        for lv, want in zip(LEVELS, powers):
            power = gaussian_exact_power(math.sqrt(2 * rhos[name]), lv)
            assert abs(power - want) <= SCENARIO_POWER_TOL, (name, lv)
    for lv, want in zip(LEVELS, BLOCK_ZCDP_BOUND):
        assert abs(zcdp_power_bound(rhos["A"], lv) - want) <= BLOCK_ZCDP_BOUND_TOL
    # the block-level monte carlo column
    for lv, want in zip(LEVELS, SCENARIO_POWERS["A"]):
        assert abs(mc_scenario_a.power_at(lv) - want) <= SCENARIO_POWER_TOL
    print(
        f"ACCEPTANCE 3 PASS: all eight scenario budgets within {SCENARIO_RHO_TOL} "
        f"({', '.join(f'{k}={v:.4f}' for k, v in rhos.items())}); "
        f"published powers within {SCENARIO_POWER_TOL}; total budget exactly 263/100"
    )


# --- criterion 4: golden curve files ---------------------------------------------------

GOLDEN_SPECS = {
    "adp-gaussian-rho2.63.csv": ["curve", "adp-gaussian", "--rho", "2.63", "--grid", "0:12:200"],
    "pbdp-gaussian-rho2.63.csv": ["curve", "pbdp-gaussian", "--rho", "2.63", "--grid", "1e-6:0.5:200"],
    "zcdp-bound-rho2.63.csv": ["curve", "zcdp-bound", "--rho", "2.63", "--grid", "0:30:200"],
    "bayes-known-rest-rho2.63.csv": ["curve", "bayes-known-rest", "--rho", "2.63", "--grid", "0:30:200"],
    "bayes-arbitrary-rho2.63.csv": ["curve", "bayes-arbitrary", "--rho", "2.63", "--grid", "0:30:200"],
    # the one golden on a numeric path: the moment-constraint power bound
    "tradeoff-zcdp-rho2.63.csv": ["curve", "tradeoff-zcdp", "--rho", "2.63"],
}

#: The version each file is checked against, where it is not v1; write a new
#: version with tests/goldens/write_golden.py.  v2 of the zCDP bound is the
#: failing end of a 2^-40 certificate, where v1 was the passing end of a
#: 1e-6 bisection bracket; v3 certifies it with the ratio-form check, whose
#: slack is its own error bound instead of a fixed 1e-12 in log space; v4 is
#: that check's flip to the last float over 2,000 orders in (1.0001, 200],
#: with no certificate above it; v5 is the flip of the one order that a
#: search over the continuous order alpha >= 1 finds binding, the
#: Kullback-Leibler limit alpha -> 1 included, up to 3.05e-5 below v4.  The
#: MC golden's v5 starts its curve at (0, 0): only its level-0 row moved.
GOLDEN_VERSIONS = {"tradeoff-zcdp-rho2.63.csv": "v5", MC_GOLDEN: "v5"}


def test_criterion_4_golden_curves_regenerate_bit_identically():
    runner = CliRunner()
    for name, args in GOLDEN_SPECS.items():
        result = runner.invoke(cli_main, args, catch_exceptions=False)
        assert result.exit_code == 0
        frozen = (GOLDENS / GOLDEN_VERSIONS.get(name, "v1") / name).read_text(encoding="utf-8")
        assert result.output == frozen, f"golden drift in {name}"
    print(f"ACCEPTANCE 4 PASS: {len(GOLDEN_SPECS)} golden curves bit-identical")


def test_write_golden_never_overwrites_a_frozen_file(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("write_golden", GOLDENS / "write_golden.py")
    write_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(write_golden)
    monkeypatch.setattr(write_golden, "GOLDENS", tmp_path)
    name = "adp-gaussian-rho2.63.csv"
    (tmp_path / "v1").mkdir()
    (tmp_path / "v1" / name).write_text("frozen\n", encoding="utf-8")
    with pytest.raises(SystemExit, match=re.escape(str(tmp_path / "v1" / name))):
        write_golden.write("v1", [name])
    with pytest.raises(SystemExit, match=re.escape(name)):
        write_golden.write("v1", [])
    assert (tmp_path / "v1" / name).read_text(encoding="utf-8") == "frozen\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(["v1", name])
    # a new version is written, byte for byte the frozen golden
    write_golden.write("v9", [name])
    assert (tmp_path / "v9" / name).read_bytes() == (GOLDENS / "v1" / name).read_bytes()


def test_zcdp_bound_v2_golden_lies_just_above_v1():
    # the sound side: every power moved up, by less than v1's 1e-6 tolerance
    name = "tradeoff-zcdp-rho2.63.csv"
    v1, v2 = (np.loadtxt(GOLDENS / v / name, delimiter=",", skiprows=1) for v in ("v1", "v2"))
    assert np.array_equal(v1[:, 0], v2[:, 0])
    assert np.all(v2[:, 1] >= v1[:, 1] - 1e-13)
    assert np.all(v2[:, 1] <= v1[:, 1] + 1e-6)


def test_zcdp_bound_v3_golden_lies_just_below_v2():
    # dropping the 1e-12 log-space slack lowers the bound where the orders near 1
    # bind, by less than 1e-7; where a large order binds the log form's own error
    # bound is the wider one, and the bound stays within v2's certificate (2^-40)
    name = "tradeoff-zcdp-rho2.63.csv"
    v2, v3 = (np.loadtxt(GOLDENS / v / name, delimiter=",", skiprows=1) for v in ("v2", "v3"))
    assert np.array_equal(v2[:, 0], v3[:, 0])
    assert np.all(v3[:, 1] <= v2[:, 1] * (1.0 + 2.0**-40))
    assert np.all(v3[:, 1] >= v2[:, 1] - 1e-7)
    # and above the power of the Gaussian mechanism that meets 2.63-zCDP
    mu = math.sqrt(2.0 * 2.63)
    assert all(power >= gaussian_exact_power(mu, level) for level, power in v3.tolist())


def test_zcdp_bound_v4_golden_lies_just_below_v3():
    # the check's flip itself, where v3 was the failing end of a 2^-40
    # certificate: every power stays or falls, by less than that certificate
    name = "tradeoff-zcdp-rho2.63.csv"
    v3, v4 = (np.loadtxt(GOLDENS / v / name, delimiter=",", skiprows=1) for v in ("v3", "v4"))
    assert np.array_equal(v3[:, 0], v4[:, 0])
    assert np.all(v4[:, 1] <= v3[:, 1])
    assert np.all(v4[:, 1] >= v3[:, 1] * (1.0 - 2.0**-40))
    # and at or above the power of the Gaussian mechanism that meets 2.63-zCDP
    mu = math.sqrt(2.0 * 2.63)
    assert all(power >= gaussian_exact_power(mu, level) for level, power in v4.tolist())


def test_zcdp_bound_v5_golden_lies_at_or_below_v4():
    # the continuous order: every power stays or falls, by at most the
    # 2,000-order grid's gap at the Kullback-Leibler end (3.05e-5 at 0.05)
    name = "tradeoff-zcdp-rho2.63.csv"
    v4, v5 = (np.loadtxt(GOLDENS / v / name, delimiter=",", skiprows=1) for v in ("v4", "v5"))
    assert np.array_equal(v4[:, 0], v5[:, 0])
    assert np.all(v5[:, 1] <= v4[:, 1])
    drop = v4[:, 1] - v5[:, 1]
    assert drop.max() <= 3.05e-5 and v5[drop.argmax(), 0] == 0.05
    # and at or above the power of the Gaussian mechanism that meets 2.63-zCDP
    mu = math.sqrt(2.0 * 2.63)
    assert all(power >= gaussian_exact_power(mu, level) for level, power in v5.tolist())


def test_mc_golden_regenerates_bit_identically(tmp_path):
    out = tmp_path / MC_GOLDEN
    argv = ["mc", "production", "--n", "2000", "--seed", "1", "--out", str(out)]
    result = CliRunner().invoke(cli_main, argv, catch_exceptions=False)
    assert result.exit_code == 0
    for suffix in ("", ".manifest.json"):
        frozen = (GOLDENS / GOLDEN_VERSIONS[MC_GOLDEN] / (MC_GOLDEN + suffix)).read_bytes()
        assert Path(f"{out}{suffix}").read_bytes() == frozen, f"golden drift in {MC_GOLDEN}{suffix}"


def test_mc_golden_v5_differs_from_v1_only_at_level_0():
    # the empirical curve now starts at (0, 0); every other row and the
    # manifest are the v1 bytes
    v1, v5 = ((GOLDENS / v / MC_GOLDEN).read_text(encoding="utf-8").splitlines() for v in ("v1", "v5"))
    assert len(v1) == len(v5)
    assert [i for i, (a, b) in enumerate(zip(v1, v5)) if a != b] == [1]
    assert (v1[1], v5[1]) == ("0.0,0.133,0.00759312188760328", "0.0,0.0,0.0005")
    manifest = MC_GOLDEN + ".manifest.json"
    assert (GOLDENS / "v1" / manifest).read_bytes() == (GOLDENS / "v5" / manifest).read_bytes()


# --- criterion 5: plrv closed forms ------------------------------------------------------

def test_criterion_5_plrv_suite(geometric_pair):
    ln3 = math.log(3)
    rr = rr_plrv(ln3, True)
    values = {round(v, 12): p for v, p in rr.atoms}
    assert math.isclose(values[round(ln3, 12)], 0.75)
    assert math.isclose(values[round(-ln3, 12)], 0.25)
    # the geometric mechanism, from its truncated pmf, has the same loss law
    pair, truncated = geometric_pair(ln3)
    geo = plrv_of_finite_pair(pair).atoms
    assert len(geo) == 2
    for (value, mass), (want_value, want_mass) in zip(geo, ((-ln3, 0.25), (ln3, 0.75))):
        assert math.isclose(value, want_value, rel_tol=0, abs_tol=1e-12)
        assert abs(mass - want_mass) <= truncated
    g = gaussian_plrv(1.0)
    assert (g.mean, g.variance) == (0.5, 1.0)
    samp = sampling_plrv(100, 10)
    assert math.isclose(samp.infinity_mass, 0.1)
    assert math.isclose(dict(samp.atoms)[0.0], 0.9)
    # composition additivity
    eps = 1.0
    double = compose(rr_plrv(eps, True), rr_plrv(eps, True))
    assert math.isclose(pure_dp_epsilon(double), 2 * eps)
    ga, gb = gaussian_plrv(0.9), gaussian_plrv(1.2)
    gc = compose(ga, gb)
    assert math.isclose(gc.variance, 0.9**2 + 1.2**2)
    assert math.isclose(gc.mean, gc.variance / 2)
    # tail ordering under post-processing
    t = eps / 2
    tails = (point_mass_zero().tail(t), double.tail(t), rr_plrv(eps, True).tail(t))
    assert tails[0] == 0.0 and tails[0] < tails[1] < tails[2]
    assert math.isclose(tails[1], math.exp(2 * eps) / (1 + math.exp(eps)) ** 2)
    assert math.isclose(tails[2], math.exp(eps) / (1 + math.exp(eps)))
    print(
        "ACCEPTANCE 5 PASS: canonical mechanism loss laws, composition "
        f"additivity, and tail ordering {tuple(round(x, 4) for x in tails)}"
    )


# --- criterion 6: pointwise-delta oracle equivalence --------------------------------------

def _pareto_frontier(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((-u, -v))
    us, vs = u[order], v[order]
    prev_max = np.concatenate(([-np.inf], np.maximum.accumulate(us)[:-1]))
    keep = us > prev_max
    return us[keep], vs[keep]


def _grid_axis_sums(weights: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """All grid combinations of sum_i a_i * w_i for a small index set."""
    total = np.zeros(1)
    for w in weights:
        total = (total[:, None] + grid[None, :] * w).ravel()
    return total


def _violating_mass_sup_dir(p1, p2, eps, steps=200) -> float:
    """sup of the null acceptance mass over all randomized binary tests on
    the 1/steps grid whose acceptance probabilities violate the e^eps
    odds cap, exactly (Pareto decomposition of the separable grid)."""
    p1 = np.asarray(p1)
    margin = p1 - math.exp(eps) * np.asarray(p2)
    grid = np.arange(steps + 1) / steps
    half = len(p1) // 2
    ua, va = _pareto_frontier(
        _grid_axis_sums(p1[:half], grid), _grid_axis_sums(margin[:half], grid)
    )
    ub, vb = _pareto_frontier(
        _grid_axis_sums(p1[half:], grid), _grid_axis_sums(margin[half:], grid)
    )
    # ascending v with, per position, the best u among all points of at
    # least that v
    vb_asc = vb[::-1]
    ub_asc = ub[::-1]
    suffix_max = np.maximum.accumulate(ub_asc[::-1])[::-1]
    best = 0.0
    idx = np.searchsorted(vb_asc, -va, side="right")
    for j, (u, v) in zip(idx, zip(ua, va)):
        if j < len(vb_asc) and v + vb_asc[j] > 0:
            best = max(best, u + suffix_max[j])
    return best


def _violating_mass_sup(p1, p2, eps, steps=200) -> float:
    return max(
        _violating_mass_sup_dir(p1, p2, eps, steps),
        _violating_mass_sup_dir(p2, p1, eps, steps),
    )


def _brute_force_violating_mass(p1, p2, eps, steps) -> float:
    grid = [i / steps for i in range(steps + 1)]
    best = 0.0
    e = math.exp(eps)
    for direction in ((p1, p2), (p2, p1)):
        a1, a2 = direction
        for a in itertools.product(grid, repeat=len(p1)):
            s1 = sum(x * p for x, p in zip(a, a1))
            s2 = sum(x * p for x, p in zip(a, a2))
            if s1 > e * s2:
                best = max(best, s1)
    return best


def test_criterion_6_pointwise_delta_oracle_equivalence():
    rng = np.random.default_rng(20211105)
    # the decomposed supremum must agree exactly with literal enumeration
    for _ in range(3):
        q1, q2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        assert math.isclose(
            _violating_mass_sup(q1, q2, 0.5, steps=8),
            _brute_force_violating_mass(q1, q2, 0.5, steps=8),
            abs_tol=1e-12,
        )
    worst = 0.0
    for _ in range(50):
        p1, p2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        pair = FiniteMechanismPair(("a", "b", "c", "d"), tuple(p1), tuple(p2))
        for eps in (0.1, 0.5, 1.0):
            tight = pbdp_delta_finite(pair, eps)
            oracle = _violating_mass_sup(p1, p2, eps)
            worst = max(worst, abs(tight - oracle))
    assert worst < 2e-2
    print(
        f"ACCEPTANCE 6 PASS: closed form vs randomized-test grid supremum, "
        f"worst gap {worst:.4f} over 50 pairs x 3 eps"
    )


# --- criterion 7: bayesian oracle suite -----------------------------------------------------

def _rr_family(eps: float):
    from dpsemantics.bayes import FiniteMechanismFamily

    keep = math.exp(eps) / (1 + math.exp(eps))
    return FiniteMechanismFamily(
        ("1", "0"),
        {
            ("rest", "pos"): (keep, 1 - keep),
            ("rest", "neg"): (1 - keep, keep),
        },
    )


def _noisy_grid_family(sigma2: float, span: int = 8):
    """Integer-grid noisy count of the record bit, fully supported so the
    Renyi divergences stay finite."""
    from dpsemantics.bayes import FiniteMechanismFamily

    ks = np.arange(-span, span + 1)
    table = {}
    for record, count in (("pos", 1.0), ("neg", 0.0)):
        w = np.exp(-((ks - count) ** 2) / (2 * sigma2))
        w /= w.sum()
        table[("rest", record)] = tuple(w)
    return FiniteMechanismFamily(tuple(str(k) for k in ks), table)


def test_criterion_7_bayesian_oracles():
    rng = np.random.default_rng(424242)
    mech = _rr_family(1.0)
    max_ratio_seen = 0.0
    for _ in range(500):
        cond = tuple(rng.dirichlet((0.3, 0.3)))
        prior = SmallUniversePrior.known_rest(("pos", "neg"), cond)
        report = pure_dp_ratio_bound_check(prior, mech)
        assert report.ok
        max_ratio_seen = max(max_ratio_seen, report.max_ratio)
    assert math.exp(0.9) <= max_ratio_seen <= math.exp(1.0) + 1e-9

    actual, counterfactual, ratio = wrong_prior_ratio_closed_form()
    assert math.isclose(ratio, 100.0, abs_tol=1e-3)
    prior, disc_mech, omega = wrong_prior_discretized()
    verdict = exact_posteriors(prior, disc_mech, omega)
    assert verdict.ratio[0] > 50.0

    am, cm = marginal_output_probabilities(prior, disc_mech)
    assert float(np.max(np.abs(am - cm))) <= 1e-12

    # known-rest tail bound validated against the generative process, for
    # randomized response and a fully-supported noisy-count grid
    n = 100_000
    for mech_idx, mc_mech in enumerate((_rr_family(1.0), _noisy_grid_family(1.0))):
        mc_prior = SmallUniversePrior.known_rest(("pos", "neg"), (0.25, 0.75))
        profile = RdpProfile(
            tuple(
                (
                    alpha,
                    max(
                        renyi_divergence(mc_mech.pair("rest", "pos", "neg"), alpha),
                        renyi_divergence(mc_mech.pair("rest", "neg", "pos"), alpha),
                    ),
                )
                for alpha in (1.5, 2.0, 3.0, 4.0, 6.0)
            )
        )
        for i, eps in enumerate((0.5, 1.0, 2.0, 3.0)):
            bound = bayes_known_rest_delta(profile, eps)
            freqs = simulate_ratio_exceedance(
                mc_prior, mc_mech, eps, n, seed=777 + 10 * mech_idx + i
            )
            se = math.sqrt(max(bound * (1 - bound), 1e-12) / n)
            for freq in freqs.values():
                assert freq <= bound + 3 * se
    print(
        "ACCEPTANCE 7 PASS: 500 priors within the pure-DP ratio bound "
        f"(max ratio {max_ratio_seen:.4f}), perceived-breach ratios "
        f"{ratio:.2f} (closed form) and {verdict.ratio[0]:.2f} (discretized), "
        "marginals equal to 1e-12, tail bound never exceeded"
    )


# --- criterion 8: cross-formula agreement ----------------------------------------------------

def test_criterion_8_cross_formula_agreement():
    rho = 2.63
    mu = math.sqrt(2 * rho)
    curve = GaussianExactCurve(mu)
    runner = CliRunner()

    def cli_rows(kind):
        argv = ["curve", kind, "--rho", str(rho)]
        out = runner.invoke(cli_main, argv, catch_exceptions=False).output
        return out, [tuple(map(float, row.split(","))) for row in out.splitlines()[1:]]

    worst = 0.0
    for delta in np.geomspace(1e-6, 0.5, 60):
        delta = float(delta)
        worst = max(worst, abs(fdp_to_epsdelta(curve, delta) - gaussian_pbdp_epsilon(mu, delta)))
    # the third path: the known-rest Bayesian eps as `dpsem` prints it
    _, bayes_rows = cli_rows("bayes-pbdp")
    for delta, c in bayes_rows:
        a = fdp_to_epsdelta(curve, delta)
        b = gaussian_pbdp_epsilon(mu, delta)
        worst = max(worst, abs(a - b), abs(b - c), abs(a - c))
    assert worst < 1e-9
    arbitrary, arbitrary_rows = cli_rows("bayes-arbitrary")
    assert arbitrary == cli_rows("zcdp-bound")[0]
    for eps, delta in arbitrary_rows:
        assert delta == zcdp_to_delta(rho, eps)
    print(
        f"ACCEPTANCE 8 PASS: three pointwise-eps paths agree to {worst:.2e}; "
        "arbitrary-prior delta identical to the zCDP tail bound"
    )


# --- criterion 9: discrete vs continuous ------------------------------------------------------

def test_criterion_9_discrete_close_to_continuous(
    mc_production, mc_scenario_a, production_table
):
    cases = (
        ("production", mc_production, 2.63),
        ("scenario A", mc_scenario_a, float(scenario_rho(production_table, builtin_scenario("A")))),
    )
    worst = {}
    for name, roc, rho in cases:
        mu = math.sqrt(2 * rho)
        gap = 0.0
        for level in np.arange(0.01, 1.00, 0.01):
            level = float(level)
            emp = roc.power_at(level)
            want = gaussian_exact_power(mu, level)
            tol = max(0.01, 3 * roc.standard_error(level))
            assert abs(emp - want) <= tol, (name, level)
            gap = max(gap, abs(emp - want))
        worst[name] = gap
    print(
        "ACCEPTANCE 9 PASS: monte carlo curve within tolerance of the "
        f"continuous Gaussian (max gaps {worst})"
    )
