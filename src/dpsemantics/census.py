"""2020 Census redistricting budget allocation, in exact rationals.

The production settings split a person budget of 2.56 and a housing-unit
budget of 0.07 first across six geographic levels and then, within each
level, across the released queries.  The published proportions use
heterogeneous denominators and only sum to one exactly in rational
arithmetic, so everything here is a `fractions.Fraction` until a caller
asks for a float.

Scenario selections model fine-grained attacker concerns: only the
queries whose answers a given neighbor change can touch contribute
their rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from importlib import resources
from typing import Iterable, Mapping

from ._norm import phi, phi_inv
from .accountants import gaussian_pbdp_epsilon


class GeoLevel(Enum):
    US = "us"
    STATE = "state"
    COUNTY = "county"
    TRACT = "tract"
    CUSTOM_BLOCK_GROUP = "custom_block_group"
    BLOCK = "block"


class QueryKind(Enum):
    TOTAL = "total"
    CENRACE = "cenrace"
    HISPANIC = "hispanic"
    VOTINGAGE = "votingage"
    HHINSTLEVELS = "hhinstlevels"
    HHGQ = "hhgq"
    HISPANIC_CENRACE = "hispanic_cenrace"
    VOTINGAGE_CENRACE = "votingage_cenrace"
    VOTINGAGE_HISPANIC = "votingage_hispanic"
    VOTINGAGE_HISPANIC_CENRACE = "votingage_hispanic_cenrace"
    HHGQ_VOTINGAGE_HISPANIC_CENRACE = "hhgq_votingage_hispanic_cenrace"
    OCCUPANCY_STATUS = "occupancy_status"

    @property
    def attributes(self) -> frozenset[str]:
        return _QUERY_ATTRIBUTES[self]

    @property
    def is_housing(self) -> bool:
        return self is QueryKind.OCCUPANCY_STATUS


PERSON_QUERIES: tuple[QueryKind, ...] = tuple(
    q for q in QueryKind if not q.is_housing
)

_QUERY_ATTRIBUTES: dict[QueryKind, frozenset[str]] = {
    QueryKind.TOTAL: frozenset(),
    QueryKind.CENRACE: frozenset({"CENRACE"}),
    QueryKind.HISPANIC: frozenset({"HISPANIC"}),
    QueryKind.VOTINGAGE: frozenset({"VOTINGAGE"}),
    QueryKind.HHINSTLEVELS: frozenset({"HHINSTLEVELS"}),
    QueryKind.HHGQ: frozenset({"HHGQ"}),
    QueryKind.HISPANIC_CENRACE: frozenset({"HISPANIC", "CENRACE"}),
    QueryKind.VOTINGAGE_CENRACE: frozenset({"VOTINGAGE", "CENRACE"}),
    QueryKind.VOTINGAGE_HISPANIC: frozenset({"VOTINGAGE", "HISPANIC"}),
    QueryKind.VOTINGAGE_HISPANIC_CENRACE: frozenset(
        {"VOTINGAGE", "HISPANIC", "CENRACE"}
    ),
    QueryKind.HHGQ_VOTINGAGE_HISPANIC_CENRACE: frozenset(
        {"HHGQ", "VOTINGAGE", "HISPANIC", "CENRACE"}
    ),
    QueryKind.OCCUPANCY_STATUS: frozenset(),
}

#: The two finest person queries are excluded from attribute-driven
#: selections at the national level; this calibration reproduces the
#: published per-scenario totals (see builtin_scenarios) and is the only
#: reading of the prose that does.
_NATIONAL_EXCLUDED: frozenset[QueryKind] = frozenset(
    {
        QueryKind.VOTINGAGE_HISPANIC_CENRACE,
        QueryKind.HHGQ_VOTINGAGE_HISPANIC_CENRACE,
    }
)


class AllocationParseError(ValueError):
    """Malformed, unknown, or missing content in an allocation file."""


@dataclass(frozen=True)
class AllocationTable:
    """Base budgets and allocation proportions, all exact rationals."""

    base_person: Fraction
    base_housing: Fraction
    geo_person: Mapping[GeoLevel, Fraction]
    geo_housing: Mapping[GeoLevel, Fraction]
    query_person: Mapping[tuple[QueryKind, GeoLevel], Fraction]

    def validate(self) -> None:
        """Exact invariant checks; no tolerances."""
        if sum(self.geo_person.values()) != 1:
            raise ValueError("person geographic proportions must sum to exactly 1")
        if sum(self.geo_housing.values()) != 1:
            raise ValueError("housing geographic proportions must sum to exactly 1")
        for level in GeoLevel:
            col = sum(self.query_person[(q, level)] for q in PERSON_QUERIES)
            if col != 1:
                raise ValueError(
                    f"person query proportions at {level.value} sum to {col}, not 1"
                )

    def rho_star(self, query: QueryKind, level: GeoLevel) -> Fraction:
        """Per-query budget share: base x geographic share x query share."""
        if query.is_housing:
            return self.base_housing * self.geo_housing[level]
        return (
            self.base_person
            * self.geo_person[level]
            * self.query_person[(query, level)]
        )


@dataclass(frozen=True)
class Scenario:
    """A named subset of (query, level) pairs an attacker could exploit."""

    name: str
    selected: frozenset[tuple[QueryKind, GeoLevel]]
    narrative: str = ""
    expected_rho: float | None = field(default=None, compare=False)


def total_rho(table: AllocationTable) -> Fraction:
    """Sum over every (query, level) pair; equals the two bases.

    A mismatch is an internal invariant violation (`dpsem` exits 4); it is
    raised explicitly so that it holds under `python -O` too.
    """
    total = sum(table.rho_star(q, level) for q in QueryKind for level in GeoLevel)
    if total != table.base_person + table.base_housing:
        raise AssertionError(f"total rho {total} differs from the sum of the bases")
    return total


def scenario_rho(table: AllocationTable, scenario: Scenario) -> Fraction:
    return sum(
        (table.rho_star(q, level) for q, level in scenario.selected), Fraction(0)
    )


def scenario_power(rho: float, level: float) -> float:
    """Maximal test power at a given level for a rho-sized Gaussian release.

    Evaluated through the variance-1/(2 rho) normal CDF; algebraically the
    same as the unit-normal form with mu = sqrt(2 rho), which the tests
    cross-assert.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not 0.0 <= level <= 1.0:
        raise ValueError("level must lie in [0, 1]")
    if level in (0.0, 1.0):
        return level
    sigma = math.sqrt(1.0 / (2.0 * rho))
    return 1.0 - phi((phi_inv(1.0 - level) * sigma - 1.0) / sigma)


def scenario_bayes_epsilon(rho: float, delta: float) -> float:
    """Known-rest Bayesian eps at a given delta for a rho-sized release:
    the Gaussian pointwise eps at mu = sqrt(2 rho)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return gaussian_pbdp_epsilon(math.sqrt(2.0 * rho), delta)


def _all_queries_at(levels: Iterable[GeoLevel]) -> set[tuple[QueryKind, GeoLevel]]:
    return {(q, level) for level in levels for q in QueryKind}


def _involving(
    attributes: set[str], levels: Iterable[GeoLevel]
) -> set[tuple[QueryKind, GeoLevel]]:
    """Person queries touching any of the attributes, at the given levels,
    minus the national-level exclusions (see _NATIONAL_EXCLUDED)."""
    out = set()
    for level in levels:
        for q in PERSON_QUERIES:
            if not (q.attributes & attributes):
                continue
            if level is GeoLevel.US and q in _NATIONAL_EXCLUDED:
                continue
            out.add((q, level))
    return out


_ABOVE_BLOCK = (
    GeoLevel.US,
    GeoLevel.STATE,
    GeoLevel.COUNTY,
    GeoLevel.TRACT,
    GeoLevel.CUSTOM_BLOCK_GROUP,
)
_ABOVE_CBG = (GeoLevel.US, GeoLevel.STATE, GeoLevel.COUNTY, GeoLevel.TRACT)


def builtin_scenarios() -> list[Scenario]:
    """The eight fine-grained inference scenarios, A through H."""
    race = {"CENRACE"}
    ethnicity = {"HISPANIC"}
    voting = {"VOTINGAGE"}
    return [
        Scenario(
            "A",
            frozenset(_all_queries_at([GeoLevel.BLOCK])),
            "block within custom block group: block-level queries only",
            expected_rho=0.1115,
        ),
        Scenario(
            "B",
            frozenset(_all_queries_at([GeoLevel.BLOCK, GeoLevel.CUSTOM_BLOCK_GROUP])),
            "block within tract: block and custom-block-group queries",
            expected_rho=0.926,
        ),
        Scenario(
            "C",
            frozenset(_involving(race, GeoLevel)),
            "race inference: race-involving queries at every level",
            expected_rho=0.952,
        ),
        Scenario(
            "D",
            frozenset(_involving(ethnicity, GeoLevel)),
            "ethnicity inference: ethnicity-involving queries at every level",
            expected_rho=0.945,
        ),
        Scenario(
            "E",
            frozenset(
                _all_queries_at([GeoLevel.BLOCK, GeoLevel.CUSTOM_BLOCK_GROUP])
                | _involving(race, _ABOVE_CBG)
            ),
            "race plus block within tract",
            expected_rho=1.32,
        ),
        Scenario(
            "F",
            frozenset(
                _all_queries_at([GeoLevel.BLOCK]) | _involving(voting, _ABOVE_BLOCK)
            ),
            "voting age plus block within block group",
            expected_rho=0.555,
        ),
        Scenario(
            "G",
            frozenset(
                _all_queries_at([GeoLevel.BLOCK])
                | _involving(voting | race, _ABOVE_BLOCK)
            ),
            "voting age and race plus block within block group",
            expected_rho=0.969,
        ),
        Scenario(
            "H",
            frozenset(
                _all_queries_at([GeoLevel.BLOCK])
                | _involving(voting | ethnicity, _ABOVE_BLOCK)
            ),
            "voting age and ethnicity plus block within block group",
            expected_rho=0.968,
        ),
    ]


def builtin_scenario(name: str) -> Scenario:
    for s in builtin_scenarios():
        if s.name == name.upper():
            return s
    raise KeyError(f"no builtin scenario named {name!r}")


# ---------------------------------------------------------------------------
# allocation file format

_GEO_KEYS = {level.value: level for level in GeoLevel}
_PERSON_QUERY_KEYS = {q.value: q for q in PERSON_QUERIES}


def _parse_fraction(text: str, where: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise AllocationParseError(f"bad fraction {text!r} in {where}") from exc


def parse_allocation(text: str) -> AllocationTable:
    """Strict parser: unknown sections or keys, duplicates, and missing
    entries are all rejected."""
    sections: dict[str, dict[str, Fraction]] = {}
    current: dict[str, Fraction] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current_name = line[1:-1].strip()
            if current_name in sections:
                raise AllocationParseError(f"duplicate section [{current_name}]")
            current = sections.setdefault(current_name, {})
            continue
        if current is None:
            raise AllocationParseError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise AllocationParseError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in current:
            raise AllocationParseError(f"duplicate key {key!r} in [{current_name}]")
        current[key] = _parse_fraction(value, f"[{current_name}] {key}")

    expected = {"base", "geo.person", "geo.housing"} | {
        f"query.{level.value}" for level in GeoLevel
    }
    unknown = set(sections) - expected
    if unknown:
        raise AllocationParseError(f"unknown sections: {sorted(unknown)}")
    missing = expected - set(sections)
    if missing:
        raise AllocationParseError(f"missing sections: {sorted(missing)}")

    base = sections["base"]
    if set(base) != {"person", "housing"}:
        raise AllocationParseError("[base] must define exactly person and housing")

    def read_geo(section: str) -> dict[GeoLevel, Fraction]:
        entries = sections[section]
        if set(entries) != set(_GEO_KEYS):
            raise AllocationParseError(
                f"[{section}] must define exactly the six geographic levels"
            )
        return {_GEO_KEYS[k]: v for k, v in entries.items()}

    query_person: dict[tuple[QueryKind, GeoLevel], Fraction] = {}
    for level in GeoLevel:
        section = f"query.{level.value}"
        entries = sections[section]
        if set(entries) != set(_PERSON_QUERY_KEYS):
            raise AllocationParseError(
                f"[{section}] must define exactly the eleven person queries"
            )
        for key, value in entries.items():
            query_person[(_PERSON_QUERY_KEYS[key], level)] = value

    table = AllocationTable(
        base_person=base["person"],
        base_housing=base["housing"],
        geo_person=read_geo("geo.person"),
        geo_housing=read_geo("geo.housing"),
        query_person=query_person,
    )
    table.validate()
    return table


def emit_allocation(table: AllocationTable) -> str:
    """Serialize a table in the same format parse_allocation reads."""
    lines = ["[base]", f"person = {table.base_person}", f"housing = {table.base_housing}"]
    for section, mapping in (
        ("geo.person", table.geo_person),
        ("geo.housing", table.geo_housing),
    ):
        lines.append("")
        lines.append(f"[{section}]")
        for level in GeoLevel:
            lines.append(f"{level.value} = {mapping[level]}")
    for level in GeoLevel:
        lines.append("")
        lines.append(f"[query.{level.value}]")
        for q in PERSON_QUERIES:
            lines.append(f"{q.value} = {table.query_person[(q, level)]}")
    return "\n".join(lines) + "\n"


def production_table() -> AllocationTable:
    """The embedded production allocation, parsed and validated."""
    text = (
        resources.files("dpsemantics").joinpath("data/production_allocation.txt")
    ).read_text(encoding="utf-8")
    return parse_allocation(text)


def parse_scenario(text: str) -> Scenario:
    """Scenario file: a [scenario] header plus per-level query lists.

    Example::

        [scenario]
        name = my-scenario
        narrative = optional free text

        [selected]
        block = total, cenrace, occupancy_status
        tract = cenrace
    """
    name = ""
    narrative = ""
    selected: set[tuple[QueryKind, GeoLevel]] = set()
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("scenario", "selected"):
                raise AllocationParseError(f"unknown section [{section}]")
            continue
        if "=" not in line:
            raise AllocationParseError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if section == "scenario":
            if key == "name":
                name = value
            elif key == "narrative":
                narrative = value
            else:
                raise AllocationParseError(f"unknown scenario key {key!r}")
        elif section == "selected":
            if key not in _GEO_KEYS:
                raise AllocationParseError(f"unknown geographic level {key!r}")
            level = _GEO_KEYS[key]
            for qname in value.split(","):
                qname = qname.strip()
                if not qname:
                    continue
                try:
                    query = QueryKind(qname)
                except ValueError as exc:
                    raise AllocationParseError(f"unknown query {qname!r}") from exc
                selected.add((query, level))
        else:
            raise AllocationParseError(f"line {lineno}: key outside any section")
    if not name:
        raise AllocationParseError("scenario needs a name")
    return Scenario(name, frozenset(selected), narrative)
