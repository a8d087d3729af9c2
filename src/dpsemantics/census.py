"""2020 Census redistricting budget allocation, in exact rationals.

The production settings split a person budget of 2.56 and a housing-unit
budget of 0.07 first across six geographic levels and then, within each
level, across the released queries.  The published proportions use
heterogeneous denominators and only sum to one exactly in rational
arithmetic, so everything here is a `fractions.Fraction` until a caller
asks for a float.

Scenario selections model fine-grained attacker concerns: only the
queries whose answers a given neighbor change can touch contribute
their rho.  Which attributes a query crosses is read from its name:
`votingage_hispanic_cenrace` crosses VOTINGAGE, HISPANIC and CENRACE.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from importlib import resources
from typing import Iterable, Mapping

# unused here; bench/test_bench.py checks that its tracer reaches census.phi
from ._norm import phi  # noqa: F401


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

    #: The attributes the query crosses, read from its name as its upper-cased
    #: words; the total and the housing query cross none.
    attributes: frozenset[str]

    def __init__(self, value: str) -> None:
        self.attributes = frozenset(
            () if value in ("total", "occupancy_status") else value.upper().split("_")
        )

    @property
    def is_housing(self) -> bool:
        return self is QueryKind.OCCUPANCY_STATUS


PERSON_QUERIES: tuple[QueryKind, ...] = tuple(
    q for q in QueryKind if not q.is_housing
)

#: The two finest person queries are excluded from attribute-driven
#: selections at the national level; this calibration reproduces the
#: published per-scenario totals (see tests/published.py) and is the only
#: reading of the prose that does.
_NATIONAL_EXCLUDED: frozenset[QueryKind] = frozenset(
    {QueryKind.VOTINGAGE_HISPANIC_CENRACE, QueryKind.HHGQ_VOTINGAGE_HISPANIC_CENRACE}
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


def _all_queries_at(*levels: GeoLevel) -> frozenset[tuple[QueryKind, GeoLevel]]:
    return frozenset((q, level) for level in levels for q in QueryKind)


def _involving(
    attributes: set[str], levels: Iterable[GeoLevel]
) -> frozenset[tuple[QueryKind, GeoLevel]]:
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
    return frozenset(out)


_ABOVE_BLOCK = tuple(GeoLevel)[:-1]
_ABOVE_CBG = tuple(GeoLevel)[:-2]


def builtin_scenarios() -> list[Scenario]:
    """The eight fine-grained inference scenarios, A through H."""
    race = {"CENRACE"}
    ethnicity = {"HISPANIC"}
    voting = {"VOTINGAGE"}
    block = _all_queries_at(GeoLevel.BLOCK)
    block_in_tract = _all_queries_at(GeoLevel.BLOCK, GeoLevel.CUSTOM_BLOCK_GROUP)
    return [
        Scenario(
            "A",
            block,
            "block within custom block group: block-level queries only",
        ),
        Scenario(
            "B",
            block_in_tract,
            "block within tract: block and custom-block-group queries",
        ),
        Scenario(
            "C",
            _involving(race, GeoLevel),
            "race inference: race-involving queries at every level",
        ),
        Scenario(
            "D",
            _involving(ethnicity, GeoLevel),
            "ethnicity inference: ethnicity-involving queries at every level",
        ),
        Scenario(
            "E",
            block_in_tract | _involving(race, _ABOVE_CBG),
            "race plus block within tract",
        ),
        Scenario(
            "F",
            block | _involving(voting, _ABOVE_BLOCK),
            "voting age plus block within block group",
        ),
        Scenario(
            "G",
            block | _involving(voting | race, _ABOVE_BLOCK),
            "voting age and race plus block within block group",
        ),
        Scenario(
            "H",
            block | _involving(voting | ethnicity, _ABOVE_BLOCK),
            "voting age and ethnicity plus block within block group",
        ),
    ]


def builtin_scenario(name: str) -> Scenario:
    for s in builtin_scenarios():
        if s.name == name.upper():
            return s
    raise KeyError(f"no builtin scenario named {name!r}")


# ---------------------------------------------------------------------------
# allocation file format

_LEVEL_KEYS = (
    tuple(level.value for level in GeoLevel),
    "exactly the six geographic levels",
)
_QUERY_KEYS = (
    tuple(q.value for q in PERSON_QUERIES),
    "exactly the eleven person queries",
)
#: The allocation file, section by section in file order: the section's
#: keys in file order, and the phrase its error message names them by.
_LAYOUT: dict[str, tuple[tuple[str, ...], str]] = {
    "base": (("person", "housing"), "exactly person and housing"),
    "geo.person": _LEVEL_KEYS,
    "geo.housing": _LEVEL_KEYS,
    **{f"query.{level.value}": _QUERY_KEYS for level in GeoLevel},
}


def _parse_fraction(text: str, where: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise AllocationParseError(f"bad fraction {text!r} in {where}") from exc


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    """`[section]` headers and `key = value` lines, `#` comments and blank
    lines skipped.  A duplicate section or key, a key outside any section
    and a line that is neither are rejected."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
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
        current[key] = value
    return sections


def parse_allocation(text: str) -> AllocationTable:
    """Strict parser: unknown sections or keys, duplicates, and missing
    entries are all rejected."""
    sections = {
        name: {k: _parse_fraction(v, f"[{name}] {k}") for k, v in entries.items()}
        for name, entries in _read_sections(text).items()
    }
    unknown = set(sections) - set(_LAYOUT)
    if unknown:
        raise AllocationParseError(f"unknown sections: {sorted(unknown)}")
    missing = set(_LAYOUT) - set(sections)
    if missing:
        raise AllocationParseError(f"missing sections: {sorted(missing)}")
    for name, (keys, phrase) in _LAYOUT.items():
        if set(sections[name]) != set(keys):
            raise AllocationParseError(f"[{name}] must define {phrase}")

    def geo(name: str) -> dict[GeoLevel, Fraction]:
        return {level: sections[name][level.value] for level in GeoLevel}

    query_person: dict[tuple[QueryKind, GeoLevel], Fraction] = {}
    for level in GeoLevel:
        entries = sections[f"query.{level.value}"]
        for q in PERSON_QUERIES:
            query_person[(q, level)] = entries[q.value]
    table = AllocationTable(
        base_person=sections["base"]["person"],
        base_housing=sections["base"]["housing"],
        geo_person=geo("geo.person"),
        geo_housing=geo("geo.housing"),
        query_person=query_person,
    )
    table.validate()
    return table


def _section_entries(table: AllocationTable) -> dict[str, dict[str, Fraction]]:
    """Each section's entries, keyed as the file keys them."""
    entries = {
        "base": {"person": table.base_person, "housing": table.base_housing},
        "geo.person": {level.value: v for level, v in table.geo_person.items()},
        "geo.housing": {level.value: v for level, v in table.geo_housing.items()},
    }
    for (q, level), v in table.query_person.items():
        entries.setdefault(f"query.{level.value}", {})[q.value] = v
    return entries


def emit_allocation(table: AllocationTable) -> str:
    """Serialize a table in the same format parse_allocation reads."""
    entries = _section_entries(table)
    return "\n\n".join(
        "\n".join([f"[{name}]", *(f"{k} = {entries[name][k]}" for k in keys)])
        for name, (keys, _) in _LAYOUT.items()
    ) + "\n"


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
    sections = _read_sections(text)
    unknown = set(sections) - {"scenario", "selected"}
    if unknown:
        raise AllocationParseError(f"unknown section [{min(unknown)}]")
    header = sections.get("scenario", {})
    unknown = set(header) - {"name", "narrative"}
    if unknown:
        raise AllocationParseError(f"unknown scenario key {min(unknown)!r}")
    name = header.get("name", "")
    selected: set[tuple[QueryKind, GeoLevel]] = set()
    for key, value in sections.get("selected", {}).items():
        try:
            level = GeoLevel(key)
        except ValueError as exc:
            raise AllocationParseError(f"unknown geographic level {key!r}") from exc
        for qname in value.split(","):
            qname = qname.strip()
            if not qname:
                continue
            try:
                query = QueryKind(qname)
            except ValueError as exc:
                raise AllocationParseError(f"unknown query {qname!r}") from exc
            selected.add((query, level))
    if not name:
        raise AllocationParseError("scenario needs a name")
    return Scenario(name, frozenset(selected), header.get("narrative", ""))
