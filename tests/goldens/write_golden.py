#!/usr/bin/env python3
"""Write a version of the frozen curve files of acceptance criterion 4.

    PYTHONPATH=src python3 tests/goldens/write_golden.py v2 tradeoff-zcdp-rho2.63.csv

Each named file (every file of GOLDEN_SPECS in tests/test_acceptance.py
when none is named) is the output of the ``dpsem`` command that
GOLDEN_SPECS pins for it, written to tests/goldens/<version>/<name>.
Earlier versions stay in place; the acceptance suite names the version
each file is checked against.  A file that exists is frozen: the script
exits with its name instead of rewriting it.
"""

from __future__ import annotations

import sys
from pathlib import Path

from click.testing import CliRunner

GOLDENS = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDENS.parent))

from test_acceptance import GOLDEN_SPECS  # noqa: E402

from dpsemantics.cli import main  # noqa: E402


def write(version: str, names: list[str]) -> None:
    unknown = sorted(set(names) - set(GOLDEN_SPECS))
    if unknown:
        raise SystemExit(f"not in GOLDEN_SPECS: {', '.join(unknown)}")
    out_dir = GOLDENS / version
    frozen = [str(out_dir / name) for name in names or GOLDEN_SPECS if (out_dir / name).exists()]
    if frozen:
        raise SystemExit(f"frozen golden exists, write a new version instead: {', '.join(frozen)}")
    out_dir.mkdir(exist_ok=True)
    for name in names or GOLDEN_SPECS:
        result = CliRunner().invoke(main, GOLDEN_SPECS[name], catch_exceptions=False)
        if result.exit_code != 0:
            raise SystemExit(f"{name}: dpsem exited with {result.exit_code}")
        (out_dir / name).write_text(result.output, encoding="utf-8")
        print(out_dir / name)


if __name__ == "__main__":
    if len(sys.argv) < 2 or not sys.argv[1].startswith("v"):
        raise SystemExit(__doc__)
    write(sys.argv[1], sys.argv[2:])
