"""Every third-party module the package or its tests import is declared."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def test_every_third_party_import_is_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    # the package itself and the test modules that import one another
    local = {"dpsemantics"} | {path.stem for path in sources if path.is_relative_to(ROOT / "tests")}
    third_party = imported_top_level_modules(sources) - set(sys.stdlib_module_names) - local
    assert "mpmath" in third_party
    assert third_party <= declared, f"imported but not declared: {sorted(third_party - declared)}"


def test_every_library_module_uses_what_it_imports():
    # the package's __init__ imports to re-export; a line marked
    # "# noqa: F401" keeps an import on purpose
    unused = []
    for path in sorted((ROOT / "src" / "dpsemantics").glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {bound}")
    assert not unused, f"imported but unused: {unused}"
