"""The README's library tour runs as written and prints the values it shows, and
its list of curve kinds is the CLI's."""

import math
import re
from pathlib import Path

from dpsemantics.cli import CURVES

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_tour_runs_and_matches_its_comments():
    code = _tour()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    # a one-line expression annotated with a number, e.g. "f(x)   # 0.742",
    # must round to that number at the precision shown
    checked = 0
    for line in code.splitlines():
        m = re.fullmatch(r"(\S.*?)\s+# (-?\d+\.\d+)\b.*", line)
        if m is None or "=" in m.group(1).split("(")[0]:
            continue
        expr, shown = m.groups()
        decimals = len(shown.split(".")[1])
        value = eval(expr, namespace)
        assert math.isclose(round(value, decimals), float(shown)), (expr, value, shown)
        checked += 1
    assert checked >= 4


def test_readme_lists_every_curve_kind():
    listed = README.read_text(encoding="utf-8").split("Curve kinds:", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`([a-z-]+)`", listed) == list(CURVES)
