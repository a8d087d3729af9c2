import math
import re
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsemantics import (
    GeoLevel,
    QueryKind,
    Scenario,
    builtin_scenario,
    builtin_scenarios,
    gaussian_exact_power,
    gaussian_pbdp_epsilon,
    parse_allocation,
    production_table,
    scenario_rho,
    total_rho,
)
from dpsemantics.census import (
    PERSON_QUERIES,
    AllocationParseError,
    emit_allocation,
    parse_scenario,
)

EXPECTED_SCENARIO_RHO = {
    "A": 0.1115,
    "B": 0.926,
    "C": 0.952,
    "D": 0.945,
    "E": 1.32,
    "F": 0.555,
    "G": 0.969,
    "H": 0.968,
}


@pytest.fixture(scope="module")
def table():
    return production_table()


# --- exact table invariants ---------------------------------------------------------

def test_table_invariants_exact(table):
    assert sum(table.geo_person.values()) == 1
    assert sum(table.geo_housing.values()) == 1
    for level in GeoLevel:
        assert sum(table.query_person[(q, level)] for q in PERSON_QUERIES) == 1


def test_total_rho_exact(table):
    assert total_rho(table) == Fraction(263, 100)


def test_rho_star_person_example(table):
    got = table.rho_star(QueryKind.VOTINGAGE_CENRACE, GeoLevel.STATE)
    assert got == Fraction(64, 25) * Fraction(1440, 4099) * Fraction(12, 4097)
    assert math.isclose(float(got), 0.0026, abs_tol=5e-5)


def test_rho_star_housing_example(table):
    got = table.rho_star(QueryKind.OCCUPANCY_STATUS, GeoLevel.COUNTY)
    assert got == Fraction(7, 100) * Fraction(7, 82)
    assert math.isclose(float(got), 0.0060, abs_tol=5e-5)


def test_rho_star_zero_cell(table):
    assert table.rho_star(QueryKind.TOTAL, GeoLevel.US) == 0


def test_total_rho_with_person_budget_zeroed(table):
    modified = replace(table, base_person=Fraction(0))
    assert total_rho(modified) == Fraction(7, 100)


def test_total_rho_halved_bases(table):
    modified = replace(
        table, base_person=table.base_person / 2, base_housing=table.base_housing / 2
    )
    assert total_rho(modified) == Fraction(263, 200)


# --- scenarios -----------------------------------------------------------------------

def test_builtin_scenario_rhos_match_published_values(table):
    for scenario in builtin_scenarios():
        got = float(scenario_rho(table, scenario))
        assert abs(got - EXPECTED_SCENARIO_RHO[scenario.name]) < 5e-3, scenario.name
        assert scenario.expected_rho == EXPECTED_SCENARIO_RHO[scenario.name]


def test_builtin_scenario_lookup():
    assert builtin_scenario("a").name == "A"
    with pytest.raises(KeyError):
        builtin_scenario("Z")


def test_scenario_names_and_count():
    assert [s.name for s in builtin_scenarios()] == list("ABCDEFGH")


@settings(max_examples=40, deadline=None)
@given(st.sets(st.tuples(st.sampled_from(list(QueryKind)), st.sampled_from(list(GeoLevel)))),
       st.tuples(st.sampled_from(list(QueryKind)), st.sampled_from(list(GeoLevel))))
def test_scenario_rho_monotone_in_selection(pairs, extra):
    table = production_table()
    base = Scenario("base", frozenset(pairs))
    grown = Scenario("grown", frozenset(pairs | {extra}))
    assert scenario_rho(table, grown) >= scenario_rho(table, base)


# --- closed forms ----------------------------------------------------------------------

def _power(rho, level):
    return gaussian_exact_power(math.sqrt(2 * rho), level)


def _bayes_eps(rho, delta):
    return gaussian_pbdp_epsilon(math.sqrt(2 * rho), delta)


def test_scenario_power_published_values():
    assert math.isclose(_power(0.1115, 0.01), 0.03, abs_tol=0.01)
    assert math.isclose(_power(0.926, 0.05), 0.39, abs_tol=0.01)
    assert math.isclose(_power(1.32, 0.10), 0.63, abs_tol=0.01)


def test_scenario_power_monotone():
    rhos = (0.05, 0.1, 0.5, 1.0, 2.0)
    levels = (0.01, 0.05, 0.2, 0.5)
    for level in levels:
        values = [_power(r, level) for r in rhos]
        assert all(a < b for a, b in zip(values, values[1:]))
    for rho in rhos:
        values = [_power(rho, lv) for lv in levels]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_scenario_bayes_epsilon_matches_accountants():
    # independent oracle: log(delta / Phi(Phi^-1(delta) - sqrt(2 rho))) at 50 digits
    for rho in (0.1115, 0.926, 2.63):
        for delta in (1e-12, 1e-6, 1e-3, 0.1, 0.5):
            with mpmath.workdps(50):
                d = mpmath.mpf(delta)
                quantile = mpmath.sqrt(2) * mpmath.erfinv(2 * d - 1)
                want = mpmath.log(d / mpmath.ncdf(quantile - mpmath.sqrt(2 * mpmath.mpf(rho))))
            got = _bayes_eps(rho, delta)
            assert math.isclose(got, float(want), rel_tol=1e-12), (rho, delta)


def test_scenario_bayes_epsilon_production_value():
    assert math.isclose(_bayes_eps(2.63, 0.1), 6.35, abs_tol=5e-3)


def test_scenario_bayes_epsilon_vanishing_rho():
    assert abs(_bayes_eps(1e-12, 0.2)) < 1e-5
    with pytest.raises(ValueError):
        _bayes_eps(1.0, 0.0)


# --- allocation file format ----------------------------------------------------------------

def test_emit_parse_round_trip(table):
    text = emit_allocation(table)
    again = parse_allocation(text)
    assert again == table


def test_parser_rejects_unknown_key(table):
    text = emit_allocation(table).replace("total =", "grand_total =", 1)
    with pytest.raises(AllocationParseError):
        parse_allocation(text)


def test_parser_rejects_unknown_section(table):
    text = emit_allocation(table) + "\n[query.galaxy]\ntotal = 1/2\n"
    with pytest.raises(AllocationParseError):
        parse_allocation(text)


def test_parser_rejects_missing_section(table):
    text = emit_allocation(table)
    head, _, _ = text.partition("[query.block]")
    with pytest.raises(AllocationParseError):
        parse_allocation(head)


def test_parser_rejects_bad_fraction(table):
    text = emit_allocation(table).replace("= 64/25", "= sixty-four", 1)
    with pytest.raises(AllocationParseError):
        parse_allocation(text)


def test_parser_rejects_duplicate_key(table):
    text = emit_allocation(table).replace(
        "[query.block]\ntotal", "[query.block]\ntotal = 5/4097\ntotal", 1
    )
    with pytest.raises(AllocationParseError):
        parse_allocation(text)


def test_parser_rejects_broken_invariants(table):
    text = emit_allocation(table).replace("block = 165/4099", "block = 164/4099", 1)
    with pytest.raises(ValueError):
        parse_allocation(text)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("block = 99/820", "block = 98/820", "housing geographic proportions"),
        ("[query.us]\ntotal = 0", "[query.us]\ntotal = 1/4097", "person query proportions at us"),
        ("[base]", "person = 1\n[base]", "key outside any section"),
        ("[base]", "[base]\noops", "expected key = value"),
        ("housing = 7/100", "housing_units = 7/100", "exactly person and housing"),
        ("\nus = 1/205\n", "\n", "six geographic levels"),
    ],
    ids=["housing-geo-sum", "query-column-sum", "key-outside-section", "no-equals",
         "base-keys", "geo-levels"],
)
def test_parser_names_what_is_wrong(table, old, new, message):
    text = emit_allocation(table)
    assert text.count(old) == 1
    with pytest.raises(ValueError, match=message):
        parse_allocation(text.replace(old, new))


# --- scenario files ---------------------------------------------------------------------------

def test_parse_scenario_file(table):
    text = """
[scenario]
name = block-only-total
narrative = just the block total and occupancy

[selected]
block = total, occupancy_status
"""
    sc = parse_scenario(text)
    assert sc.name == "block-only-total"
    want = Fraction(64, 25) * Fraction(165, 4099) * Fraction(5, 4097) + Fraction(
        7, 100
    ) * Fraction(99, 820)
    assert scenario_rho(table, sc) == want


def test_parse_scenario_rejects_unknown_query():
    with pytest.raises(AllocationParseError):
        parse_scenario("[scenario]\nname = x\n[selected]\nblock = age_pyramid\n")


BAD_SCENARIOS = {
    "unknown section [extra]": "[scenario]\nname = x\n[extra]\nblock = total\n",
    "unknown scenario key 'owner'": "[scenario]\nname = x\nowner = me\n",
    "unknown geographic level 'moon'": "[scenario]\nname = x\n[selected]\nmoon = total\n",
}


@pytest.mark.parametrize("message", BAD_SCENARIOS)
def test_parse_scenario_names_an_unknown_name(message):
    with pytest.raises(AllocationParseError, match=re.escape(message)):
        parse_scenario(BAD_SCENARIOS[message])


def test_parse_scenario_requires_name():
    with pytest.raises(AllocationParseError):
        parse_scenario("[selected]\nblock = total\n")


@pytest.mark.parametrize(
    "text",
    [
        "[scenario]\nname = x\n[selected]\nblock = total\nblock = cenrace\n",
        "[scenario]\nname = x\nname = y\n",
        "[scenario]\nname = x\n[selected]\nblock = total\n[selected]\ntract = total\n",
    ],
    ids=["key", "header-key", "section"],
)
def test_parse_scenario_rejects_duplicates(text):
    with pytest.raises(AllocationParseError):
        parse_scenario(text)
