import errno
import itertools
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from xml.etree import ElementTree

import mpmath
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpsemantics import Odometer, dgauss, gaussian_pbdp_epsilon, zcdp_to_delta
from dpsemantics.census import parse_allocation
from dpsemantics.cli import CURVES, _render_points, main
from published import SCENARIO_POWER_TOL, SCENARIO_POWERS, SCENARIO_RHO, SCENARIO_RHO_TOL


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


# --- curve ---------------------------------------------------------------------

def test_curve_pbdp_gaussian_csv(runner, tmp_path):
    out = tmp_path / "pbdp.csv"
    result = invoke(
        runner, "curve", "pbdp-gaussian", "--rho", "2.63",
        "--grid", "1e-6:0.5:200", "--out", str(out),
    )
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,eps"
    assert len(lines) == 201
    mu = math.sqrt(2 * 2.63)
    first_delta, first_eps = (float(v) for v in lines[1].split(","))
    assert first_delta == 1e-6
    assert first_eps == gaussian_pbdp_epsilon(mu, 1e-6)


@pytest.mark.parametrize("rho", ["0.1115", "2.63", "5"])
@pytest.mark.parametrize(
    "label, kind", [("bayes-arbitrary", "zcdp-bound"), ("bayes-pbdp", "pbdp-gaussian")]
)
def test_curve_bayes_pbdp_is_the_pointwise_eps(runner, label, kind, rho):
    # each Bayesian kind is a label on the frequentist curve its theorem names
    bayes = invoke(runner, "curve", label, "--rho", rho)
    frequentist = invoke(runner, "curve", kind, "--rho", rho)
    assert bayes.exit_code == frequentist.exit_code == 0
    assert bayes.output == frequentist.output


def test_curve_tradeoff_pure_zero_eps_is_diagonal(runner):
    result = invoke(runner, "curve", "tradeoff-pure", "--eps", "0", "--grid", "0:1:11")
    assert result.exit_code == 0
    for line in result.output.strip().splitlines()[1:]:
        level, power = (float(v) for v in line.split(","))
        assert math.isclose(level, power, abs_tol=1e-12)


def test_curve_zcdp_bound_matches_library(runner):
    result = invoke(
        runner, "curve", "zcdp-bound", "--rho", "2.63", "--grid", "0:30:61"
    )
    assert result.exit_code == 0
    for line in result.output.strip().splitlines()[1:]:
        eps, delta = (float(v) for v in line.split(","))
        assert delta == zcdp_to_delta(2.63, eps)


def test_curve_deterministic_output(runner, tmp_path):
    args = ("curve", "adp-gaussian", "--rho", "2.63", "--grid", "0:12:200")
    a = invoke(runner, *args)
    b = invoke(runner, *args)
    assert a.output == b.output


def test_curve_svg_embeds_same_points_as_csv(runner):
    args = ("curve", "tradeoff-gaussian", "--mu", "1.5", "--grid", "0:1:21")
    csv_result = invoke(runner, *args, "--format", "csv")
    svg_result = invoke(runner, *args, "--format", "svg")
    csv_points = csv_result.output.strip().splitlines()[1:]
    blob = re.search(r"<!-- data\n(.*?)\n-->", svg_result.output, re.S).group(1)
    assert blob.splitlines() == csv_points


def test_curve_tradeoff_zcdp(runner):
    from dpsemantics import zcdp_power_bound

    result = invoke(
        runner, "curve", "tradeoff-zcdp", "--rho", "0.1115", "--grid", "0:1:5"
    )
    assert result.exit_code == 0
    rows = [line.split(",") for line in result.output.strip().splitlines()[1:]]
    for level_s, power_s in rows:
        assert float(power_s) == zcdp_power_bound(0.1115, float(level_s))


def test_curve_json_format(runner):
    result = invoke(
        runner, "curve", "bayes-known-rest", "--rho", "2.63",
        "--grid", "0:30:10", "--format", "json",
    )
    payload = json.loads(result.output)
    assert payload["kind"] == "bayes-known-rest"
    assert payload["columns"] == ["eps", "delta"]
    assert len(payload["points"]) == 10


JSON_POINTS = {
    "empty": [],
    "one point": [(0.5, 0.25)],
    "finite": [(0.0, 1.0), (-0.0, 1e-300), (1e300, 5e-324), (0.1, 0.30000000000000004)],
    "non-finite": [(0.5, math.nan), (math.inf, -math.inf), (-math.inf, math.inf)],
}


@pytest.mark.parametrize("points", JSON_POINTS.values(), ids=JSON_POINTS.keys())
def test_json_rendering_is_the_text_of_json_dumps(points):
    want = json.dumps(
        {"kind": "k", "columns": ["eps", "delta"], "points": points}, sort_keys=True, indent=2
    )
    assert _render_points(points, ("eps", "delta"), "json", "k") == want + "\n"


CURVE_PARAMETER = {"mu": ("--mu", "1.5"), "rho": ("--rho", "2.63"), "eps": ("--eps", "1.0")}


@pytest.mark.parametrize("kind", CURVES)
def test_curve_json_is_the_text_of_json_dumps_of_its_csv(runner, kind):
    option = CURVE_PARAMETER[CURVES[kind][0]]
    csv = invoke(runner, "curve", kind, *option).output.splitlines()
    points = [tuple(float(v) for v in row.split(",")) for row in csv[1:]]
    want = json.dumps(
        {"kind": kind, "columns": csv[0].split(","), "points": points}, sort_keys=True, indent=2
    )
    assert invoke(runner, "curve", kind, *option, "--format", "json").output == want + "\n"


def test_curve_requires_parameter(runner):
    result = runner.invoke(main, ["curve", "tradeoff-pure"])
    assert result.exit_code == 2


def test_curve_rejects_mu_and_rho_together(runner):
    result = runner.invoke(
        main, ["curve", "adp-gaussian", "--mu", "1.0", "--rho", "2.0"]
    )
    assert result.exit_code == 2


def test_curve_names_an_option_its_kind_does_not_read(runner):
    result = runner.invoke(main, ["curve", "tradeoff-pure", "--eps", "1", "--rho", "5"])
    assert result.exit_code == 2
    assert "tradeoff-pure does not read --rho" in result.stderr


BAD_INPUT = [
    "curve pbdp-gaussian --rho -1",
    "curve tradeoff-zcdp --rho 0",
    "curve tradeoff-pure --eps -1",
    "curve zcdp-bound --rho 0",
    "curve bayes-arbitrary --rho 0",
    "curve adp-gaussian --mu 0",
    "curve bayes-known-rest --rho -1",
    "curve bayes-known-rest --rho 0",
    "curve tradeoff-zcdp --rho 1 --grid 0:2:3",
    "curve tradeoff-pure --eps 1 --grid 0:inf:3",
    "curve zcdp-bound --rho 1 --grid -1e308:1e308:3",
    "convert zcdp-delta --rho nan --eps 1",
    "convert pbdp-eps --rho -1 --delta 0.1",
    "curve tradeoff-pure --eps nan",
    "curve tradeoff-pure --eps 1 --rho 5",
    "curve zcdp-bound --rho 1 --mu 3 --eps 2",
    "curve tradeoff-gaussian --mu 1 --eps 9",
]


@pytest.mark.parametrize("argv", BAD_INPUT)
def test_bad_input_exits_2_without_traceback_or_nan(runner, argv):
    result = runner.invoke(main, argv.split(), catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert "nan" not in result.output


def test_pure_curve_at_huge_eps_is_the_step(runner):
    # e^eps overflows a float here; the bound is 0 at level 0 and 1 elsewhere
    result = invoke(runner, "curve", "tradeoff-pure", "--eps", "1e308", "--grid", "0:1:3")
    assert result.output == "level,power\n0.0,0.0\n0.5,1.0\n1.0,1.0\n"


HUGE_EPS_GRID = ["zcdp-bound", "bayes-known-rest", "bayes-arbitrary", "adp-gaussian"]


@pytest.mark.parametrize("kind", HUGE_EPS_GRID)
def test_curves_at_huge_eps_underflow_to_zero(runner, kind):
    # the bound squares eps - rho or takes e^eps; neither may overflow into a traceback
    result = invoke(runner, "curve", kind, "--rho", "2.63", "--grid", "0:1e308:3")
    assert result.exit_code == 0
    rows = [line.split(",") for line in result.output.splitlines()[1:]]
    assert [float(eps) for eps, _ in rows] == [0.0, 5e307, 1e308]
    assert [float(delta) for _, delta in rows[1:]] == [0.0, 0.0]


def test_convert_zcdp_delta_at_huge_eps_is_zero(runner):
    result = invoke(runner, "convert", "zcdp-delta", "--rho", "2.63", "--eps", "1e308")
    assert result.output == "0.0\n"


def test_adp_gaussian_past_exp_overflow_is_taken_in_log_space(runner):
    # e^eps overflows past eps = 709.78, but at mu^2 = 2 eps the delta is still about 0.49
    result = invoke(runner, "curve", "adp-gaussian", "--rho", "1000", "--grid", "500:1500:3")
    assert result.exit_code == 0
    mu = math.sqrt(2.0 * 1000.0)
    for line in result.output.splitlines()[1:]:
        eps, delta = (float(v) for v in line.split(","))
        with mpmath.workdps(50):
            m, e = mpmath.mpf(mu), mpmath.mpf(eps)
            want = mpmath.ncdf(-e / m + m / 2) - mpmath.exp(e) * mpmath.ncdf(-e / m - m / 2)
        assert math.isclose(delta, float(want), rel_tol=1e-9, abs_tol=1e-300)


@pytest.mark.parametrize(
    "argv",
    [
        "curve tradeoff-pure --eps 1 --grid 0:inf:3",
        "curve tradeoff-pure --eps 1 --grid 0:1",
        "scenario B --grid 0:1:1",
        "mc production --n 2000 --out x.csv --grid 0:nan:3",
    ],
)
def test_grid_errors_name_the_grid_option(runner, argv):
    result = runner.invoke(main, argv.split())
    assert result.exit_code == 2
    assert "'--grid'" in result.stderr


# --- tables ----------------------------------------------------------------------

def test_tables_reference_values_and_notes(runner):
    result = invoke(runner, "tables")
    assert result.exit_code == 0
    assert "0.136" in result.output  # pure-DP bound at eps=1, level 0.05
    assert "0.082" in result.output
    assert "0.546" in result.output
    assert "0.820" in result.output  # the provenance note mentions both prints
    assert "0.74" in result.output
    assert re.search(r"A: rho = 0\.1115", result.output)


# --- scenario ---------------------------------------------------------------------

def test_scenario_builtin_b(runner):
    result = invoke(runner, "scenario", "B")
    assert result.exit_code == 0
    rho = float(re.search(r"rho = ([0-9.]+)", result.output).group(1))
    assert abs(rho - SCENARIO_RHO["B"]) < SCENARIO_RHO_TOL
    powers = [float(m) for m in re.findall(r"power at level 0\.\d+: ([0-9.]+)", result.output)]
    assert len(powers) == 3
    for got, want in zip(powers, SCENARIO_POWERS["B"]):
        assert abs(got - want) <= SCENARIO_POWER_TOL


def test_scenario_builtin_f(runner):
    result = invoke(runner, "scenario", "F")
    powers = [float(m) for m in re.findall(r"power at level 0\.\d+: ([0-9.]+)", result.output)]
    for got, want in zip(powers, (0.10, 0.28, 0.41)):
        assert abs(got - want) <= 0.01


def test_scenario_writes_bayes_curve(runner, tmp_path):
    out = tmp_path / "a.csv"
    result = invoke(
        runner, "scenario", "A", "--grid", "1e-6:0.5:50", "--out", str(out)
    )
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,eps"
    assert len(lines) == 51


def test_scenario_empty_file_selection(runner, tmp_path):
    sc = tmp_path / "empty.scenario"
    sc.write_text("[scenario]\nname = nothing\n[selected]\n")
    result = invoke(runner, "scenario", str(sc))
    assert result.exit_code == 0
    assert "rho = 0" in result.output
    assert "non-informative" in result.output


def test_scenario_svg_escapes_its_title(runner, tmp_path):
    sc = tmp_path / "rd.scenario"
    sc.write_text("[scenario]\nname = R&D <block>\n[selected]\nblock = total\n")
    out = tmp_path / "rd.svg"
    result = invoke(runner, "scenario", str(sc), "--format", "svg", "--out", str(out))
    assert result.exit_code == 0
    root = ElementTree.parse(out).getroot()
    titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert titles[0] == "scenario-R&D <block>"


def test_scenario_unknown_name_exits_2(runner):
    result = runner.invoke(main, ["scenario", "Q"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("[scenario]\nname = x\n[extra]\nblock = total\n", "unknown section [extra]"),
        ("[scenario]\nname = x\nowner = me\n", "unknown scenario key 'owner'"),
        ("[scenario]\nname = x\n[selected]\nmoon = total\n", "unknown geographic level 'moon'"),
    ],
)
def test_scenario_file_the_parser_rejects_exits_2(runner, tmp_path, text, message):
    sc = tmp_path / "bad.scenario"
    sc.write_text(text)
    result = runner.invoke(main, ["scenario", str(sc)])
    assert result.exit_code == 2
    assert message in result.stderr


def test_scenario_file_that_is_a_directory_exits_3(runner, tmp_path):
    result = runner.invoke(main, ["scenario", str(tmp_path)])
    assert result.exit_code == 3
    assert "Traceback" not in result.output


# --- mc ---------------------------------------------------------------------------

def test_mc_scenario_deterministic_csv(runner, tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for out in (out1, out2):
        result = invoke(
            runner, "mc", "scenario:A", "--n", "2000", "--seed", "11",
            "--out", str(out),
        )
        assert result.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    manifest = json.loads((tmp_path / "r1.csv.manifest.json").read_text())
    assert manifest["n_samples"] == 2000
    assert manifest["seed"] == 11


def test_mc_rejects_bad_allocation(runner, tmp_path):
    result = runner.invoke(
        main, ["mc", "nonsense", "--n", "2000", "--out", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 2


def test_mc_rejects_tiny_n(runner, tmp_path):
    result = runner.invoke(
        main, ["mc", "scenario:A", "--n", "10", "--out", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 2


def test_mc_reports_running_out_of_memory_as_a_usage_error(runner, tmp_path, monkeypatch):
    # mc_roc raises a MemoryError from its helper thread on the calling
    # thread too; allocating for real would take the machine's memory
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(dgauss, "mc_roc", out_of_memory)
    result = runner.invoke(
        main, ["mc", "production", "--n", "10000000000000", "--out", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 2
    assert "--n 10000000000000" in result.stderr
    assert "Traceback" not in result.output
    assert list(tmp_path.iterdir()) == []


# --- allocation ----------------------------------------------------------------------

def test_allocation_emit_round_trips(runner):
    result = invoke(runner, "allocation")
    table = parse_allocation(result.output)
    assert float(table.base_person) == 2.56


# --- odometer --------------------------------------------------------------------------

def test_odometer_cli_flow(runner, tmp_path):
    ledger = str(tmp_path / "budget.ledger")
    assert invoke(runner, "odometer", "init", "--cap", "2.63", "--ledger", ledger).exit_code == 0
    r1 = invoke(runner, "odometer", "register", "person", "2.56", "--ledger", ledger)
    assert r1.exit_code == 0
    r2 = invoke(runner, "odometer", "register", "housing", "0.07", "--ledger", ledger)
    assert "remaining budget 0" in r2.output
    r3 = runner.invoke(
        main, ["odometer", "register", "extra", "0.01", "--ledger", ledger]
    )
    assert r3.exit_code == 2
    shown = invoke(runner, "odometer", "show", "--ledger", ledger)
    assert "person\t64/25\t64/25" in shown.output
    assert "remaining 0" in shown.output


def cli_env():
    """The environment of a `dpsem` subprocess that imports this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_concurrent_registrations_lose_no_spend(runner, tmp_path):
    """Eight processes race to register 1/10 each against a cap of 1/2:
    five fit, three are refused, and every reported success is in the
    ledger."""
    ledger = str(tmp_path / "budget.ledger")
    assert invoke(runner, "odometer", "init", "--cap", "1/2", "--ledger", ledger).exit_code == 0
    procs = {
        f"q{i}": subprocess.Popen(
            [sys.executable, "-m", "dpsemantics.cli", "odometer", "register", f"q{i}", "1/10",
             "--ledger", ledger],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
        )
        for i in range(8)
    }
    codes = {}
    for label, proc in procs.items():
        _, err = proc.communicate(timeout=120)
        codes[label] = proc.returncode
        assert proc.returncode in (0, 2), err
    registered = {label for label, code in codes.items() if code == 0}
    assert len(registered) == 5
    shown = invoke(runner, "odometer", "show", "--ledger", ledger).output
    recorded = {line.split("\t")[0] for line in shown.splitlines() if line.startswith("q")}
    assert recorded == registered
    assert "# spent 0.5, remaining 0" in shown


@pytest.mark.parametrize("label", ["a\tb", "a\nb", "a\u2028b"], ids=["tab", "newline", "U+2028"])
def test_odometer_label_that_would_split_a_ledger_line_exits_2(runner, tmp_path, label):
    ledger = tmp_path / "budget.ledger"
    assert invoke(runner, "odometer", "init", "--cap", "1", "--ledger", str(ledger)).exit_code == 0
    before = ledger.read_bytes()
    result = runner.invoke(main, ["odometer", "register", label, "0.5", "--ledger", str(ledger)])
    assert result.exit_code == 2, result.output
    assert "tab or a line break" in result.stderr
    assert ledger.read_bytes() == before
    assert invoke(runner, "odometer", "register", "after", "0.5", "--ledger", str(ledger)).exit_code == 0


@pytest.mark.parametrize(
    "body",
    ["bad line\n", "person\t1/0\t1\n", "person\t2\t2\n"],
    ids=["unparsed", "zero-denominator", "over-cap"],
)
def test_malformed_ledger_exits_2(runner, tmp_path, body):
    ledger = tmp_path / "budget.ledger"
    ledger.write_text("# cap\t1\n" + body)
    for argv in (["show"], ["register", "x", "0.1"]):
        result = runner.invoke(main, ["odometer", *argv, "--ledger", str(ledger)])
        assert result.exit_code == 2, result.output
        assert "malformed ledger" in result.stderr


@pytest.mark.parametrize(
    "register, body, message",
    [(True, None, "registered spends"), (False, "hello\n", "not a ledger")],
    ids=["ledger-with-a-spend", "not-a-ledger"],
)
def test_init_leaves_a_file_it_would_erase_and_exits_2(runner, tmp_path, register, body, message):
    ledger = tmp_path / "budget.ledger"
    if register:
        assert invoke(runner, "odometer", "init", "--cap", "1", "--ledger", str(ledger)).exit_code == 0
        assert invoke(runner, "odometer", "register", "a", "0.5", "--ledger", str(ledger)).exit_code == 0
    else:
        ledger.write_text(body)
    before = ledger.read_bytes()
    result = runner.invoke(main, ["odometer", "init", "--cap", "10", "--ledger", str(ledger)])
    assert result.exit_code == 2, result.output
    assert str(ledger) in result.stderr
    assert message in result.stderr
    assert ledger.read_bytes() == before
    if register:
        after = invoke(runner, "odometer", "register", "b", "0.5", "--ledger", str(ledger))
        assert "remaining budget 0" in after.output


def test_init_replaces_a_ledger_without_entries(runner, tmp_path):
    ledger = tmp_path / "budget.ledger"
    ledger.write_text("# cap\t1\n")
    assert invoke(runner, "odometer", "init", "--cap", "10", "--ledger", str(ledger)).exit_code == 0
    assert ledger.read_text() == "# cap\t10\n"


@pytest.mark.parametrize("value", ["abc", "1/0"])
def test_a_bad_cap_or_rho_exits_2_and_names_it(runner, tmp_path, value):
    ledger = tmp_path / "budget.ledger"
    result = runner.invoke(main, ["odometer", "init", "--cap", value, "--ledger", str(ledger)])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--cap'" in result.stderr
    assert not ledger.exists()
    assert invoke(runner, "odometer", "init", "--cap", "1", "--ledger", str(ledger)).exit_code == 0
    before = ledger.read_bytes()
    result = runner.invoke(main, ["odometer", "register", "x", value, "--ledger", str(ledger)])
    assert result.exit_code == 2, result.output
    assert "Invalid value for 'RHO'" in result.stderr
    assert ledger.read_bytes() == before


def test_a_ledger_in_a_missing_directory_exits_3(runner, tmp_path):
    ledger = tmp_path / "missing" / "budget.ledger"
    result = runner.invoke(main, ["odometer", "init", "--cap", "1", "--ledger", str(ledger)])
    assert result.exit_code == 3, result.output
    assert "cannot lock" in result.stderr


LEDGER_WRITES = {"init": ["init", "--cap", "1"], "register": ["register", "x", "0.5"]}


@pytest.mark.parametrize("argv", LEDGER_WRITES.values(), ids=LEDGER_WRITES.keys())
def test_ledger_write_syncs_its_directory(runner, tmp_path, monkeypatch, argv):
    # without the directory sync a crash can lose the rename, and with it an
    # acknowledged spend
    ledger = tmp_path / "budget.ledger"
    ledger.write_text("# cap\t1\n")
    synced_modes = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced_modes.append(os.fstat(fd).st_mode)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    assert invoke(runner, "odometer", *argv, "--ledger", str(ledger)).exit_code == 0
    assert any(stat.S_ISDIR(mode) for mode in synced_modes)
    assert any(stat.S_ISREG(mode) for mode in synced_modes)


def test_ledger_directory_sync_failure_exits_3(runner, tmp_path, monkeypatch):
    real_fsync = os.fsync

    def failing_on_directories(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(errno.EIO, "directory sync failed")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", failing_on_directories)
    ledger = tmp_path / "budget.ledger"
    result = runner.invoke(main, ["odometer", "init", "--cap", "1", "--ledger", str(ledger)])
    assert result.exit_code == 3
    assert "cannot write" in result.stderr


#: `python -c CRASHING_DPSEM STEP HOW ARGS...` runs `dpsem ARGS` with a fault
#: after one STEP of `_write_ledger`: `write` of the temp file (the fault takes
#: the place of its fsync), that `fsync`, `replace`, or `dirsync`, the
#: directory's fsync; `none` adds no fault.  HOW is `raise` (an OSError) or
#: `exit` (os._exit(70), which runs no cleanup).
CRASHING_DPSEM = textwrap.dedent("""
    import errno, os, sys

    step, how = sys.argv[1:3]
    real_fsync, real_replace = os.fsync, os.replace
    fsyncs = []

    def fault():
        if how == "exit":
            os._exit(70)
        raise OSError(errno.EIO, "injected fault")

    def fsync(fd):
        fsyncs.append(fd)
        if step == "write" and len(fsyncs) == 1:
            fault()
        real_fsync(fd)
        if (step, len(fsyncs)) in (("fsync", 1), ("dirsync", 2)):
            fault()

    def replace(src, dst):
        real_replace(src, dst)
        if step == "replace":
            fault()

    os.fsync, os.replace = fsync, replace
    sys.argv = ["dpsem", *sys.argv[3:]]
    from dpsemantics.cli import run
    run()
""")


def ledger_labels(ledger):
    """The labels of a ledger's entries; raises unless the ledger parses."""
    return [label for label, _ in Odometer.from_ledger_text(ledger.read_text(encoding="utf-8")).entries]


@pytest.mark.parametrize(
    "step, how",
    [("none", "none"), *itertools.product(["write", "fsync", "replace", "dirsync"], ["raise", "exit"])],
)
def test_a_fault_in_the_ledger_write_leaves_a_whole_ledger(runner, tmp_path, step, how):
    # The rename is the commit point.  A fault before it leaves the old ledger
    # whole; after it, the ledger holds the entry although "registered" was
    # never printed, which charges a spend that no caller was told of and never
    # loses one that was.  Power loss, that is what fsync promises of the disk,
    # is not tested here.
    ledger = tmp_path / "budget.ledger"
    assert invoke(runner, "odometer", "init", "--cap", "1", "--ledger", str(ledger)).exit_code == 0
    assert invoke(runner, "odometer", "register", "a", "1/4", "--ledger", str(ledger)).exit_code == 0
    before = ledger.read_bytes()
    proc = subprocess.run(
        [sys.executable, "-c", CRASHING_DPSEM, step, how,
         "odometer", "register", "b", "1/4", "--ledger", str(ledger)],
        capture_output=True, text=True, env=cli_env(), timeout=120,
    )
    acknowledged = "registered b" in proc.stdout
    if step == "none":
        assert proc.returncode == 0, proc.stderr
        assert acknowledged
    elif how == "raise":
        assert proc.returncode == 3, proc.stderr
        assert "cannot write" in proc.stderr
    else:
        assert proc.returncode == 70, proc.stderr
    labels = ledger_labels(ledger)
    assert labels == (["a", "b"] if step in ("none", "replace", "dirsync") else ["a"])
    assert acknowledged == (step == "none")
    if "b" not in labels:
        assert ledger.read_bytes() == before
    # the next registration goes through, over whatever temp file the fault left
    assert invoke(runner, "odometer", "register", "c", "1/4", "--ledger", str(ledger)).exit_code == 0
    assert ledger_labels(ledger) == labels + ["c"]


def test_sigkilled_registrants_lose_no_acknowledged_spend(runner, tmp_path):
    """One registrant runs to the end and times a process; then six race,
    each SIGKILLed at a random moment of the span they need together: while
    it imports, waits for the lock, writes or prints.  The ledger then
    parses, holds each label whose process printed "registered", and holds
    no label twice."""
    ledger = tmp_path / "budget.ledger"
    assert invoke(runner, "odometer", "init", "--cap", "100", "--ledger", str(ledger)).exit_code == 0

    def register(label):
        return subprocess.Popen(
            [sys.executable, "-m", "dpsemantics.cli", "odometer", "register", label, "1", "--ledger", str(ledger)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
        )

    t0 = time.monotonic()
    out, err = register("first").communicate(timeout=120)
    alone = time.monotonic() - t0
    assert "registered first" in out, err
    rng = random.Random(20261020)
    procs = {f"r{i}": register(f"r{i}") for i in range(6)}
    t0 = time.monotonic()
    for delay, label in sorted((rng.uniform(1.0, 3.0) * alone, label) for label in procs):
        time.sleep(max(0.0, t0 + delay - time.monotonic()))
        procs[label].kill()
    acknowledged = {"first"}
    for label, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode in (0, -9), err
        if f"registered {label}" in out:
            acknowledged.add(label)
    recorded = ledger_labels(ledger)
    assert len(recorded) == len(set(recorded))
    assert acknowledged <= set(recorded) <= {"first", *procs}
    # a killed holder releases its lock with its process
    assert invoke(runner, "odometer", "register", "after", "1", "--ledger", str(ledger)).exit_code == 0
    assert ledger_labels(ledger)[-1] == "after"


# --- convert ---------------------------------------------------------------------------

def test_convert_commands(runner):
    result = invoke(runner, "convert", "zcdp-delta", "--rho", "1", "--eps", "3")
    assert math.isclose(float(result.output), math.exp(-1.0))
    result = invoke(runner, "convert", "pbdp-eps", "--rho", "2.63", "--delta", "0.1")
    assert math.isclose(float(result.output), 6.3476, abs_tol=1e-3)


# --- output directory convention ----------------------------------------------------------

def test_out_dir_env_var(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("DPSEM_OUT_DIR", str(tmp_path))
    result = invoke(
        runner, "curve", "tradeoff-pure", "--eps", "1", "--grid", "0:1:5",
        "--out", "relative.csv",
    )
    assert result.exit_code == 0
    assert (tmp_path / "relative.csv").exists()


# --- internal invariants ---------------------------------------------------------------

def test_total_rho_invariant_exits_4_under_python_O():
    # a table built without validate() whose person proportions sum to 3/2;
    # -O strips assert statements, so the invariant must be an explicit raise
    code = textwrap.dedent("""
        import sys
        from dataclasses import replace
        from fractions import Fraction
        from dpsemantics import census, cli
        if not sys.flags.optimize:
            sys.exit(99)
        good = census.production_table()
        us = census.GeoLevel.US
        geo = {**good.geo_person, us: good.geo_person[us] + Fraction(1, 2)}
        census.production_table = lambda: replace(good, geo_person=geo)
        sys.argv = ["dpsem", "tables"]
        cli.run()
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    assert "internal invariant violated: total rho" in proc.stderr


# --- import footprint ------------------------------------------------------------------------

def test_svg_curve_imports_no_xml_parser_or_network_stack():
    # each of these costs resident memory on every command; the svg writer
    # escapes by hand, and nothing fetches
    code = textwrap.dedent("""
        import sys
        from dpsemantics import cli
        sys.argv = ["dpsem", "curve", "tradeoff-gaussian", "--mu", "1", "--format", "svg"]
        try:
            cli.run()
        except SystemExit as exc:
            assert not exc.code, exc.code
        heavy = ("xml.sax", "urllib.request", "http.client", "ssl")
        print(sorted(m for m in heavy if m in sys.modules), file=sys.stderr)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("<svg")
    assert proc.stderr == "[]\n"


# --- I/O failure -------------------------------------------------------------------------

def test_write_failure_exits_3(runner):
    result = runner.invoke(
        main,
        ["curve", "tradeoff-pure", "--eps", "1", "--out", "/nonexistent-dir/x.csv"],
    )
    assert result.exit_code == 3


# --- --out writer ----------------------------------------------------------------------------

PURE = ("curve", "tradeoff-pure", "--eps", "1", "--grid")


def _stdout(runner, *args) -> bytes:
    """What the command prints without --out: the bytes --out must hold."""
    return invoke(runner, *args).stdout_bytes


def test_rewrite_swaps_in_a_new_file(runner, tmp_path):
    """The old file is never truncated: a hard link to it keeps the old bytes,
    and the new file holds the new ones, with the old permission bits."""
    out, link = tmp_path / "c.csv", tmp_path / "old.csv"
    assert invoke(runner, *PURE, "0:1:5", "--out", str(out)).exit_code == 0
    old = out.read_bytes()
    os.link(out, link)
    out.chmod(0o640)
    assert invoke(runner, *PURE, "0:1:7", "--out", str(out)).exit_code == 0
    assert link.read_bytes() == old
    assert out.read_bytes() == _stdout(runner, *PURE, "0:1:7") != old
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["c.csv", "old.csv"]


@pytest.mark.parametrize("failing", [0, 1], ids=["roc", "manifest"])
def test_failed_write_keeps_the_old_outputs(runner, tmp_path, monkeypatch, failing):
    """A write that fails before the swap exits 3, leaves the previous ROC and
    manifest byte-identical and leaves no temp file, whichever file fails."""
    out = str(tmp_path / "roc.csv")
    assert invoke(runner, "mc", "scenario:A", "--n", "2000", "--seed", "1", "--out", out).exit_code == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    calls, real_write = [], os.write

    def write(fd, data):
        calls.append(fd)
        if len(calls) > failing:  # half of this file, then a full disk
            real_write(fd, data[: len(data) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", write)
    result = runner.invoke(main, ["mc", "scenario:A", "--n", "2000", "--seed", "2", "--out", out])
    assert result.exit_code == 3
    assert "No space left on device" in result.stderr
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_symlinked_out_keeps_the_link(runner, tmp_path):
    (tmp_path / "data").mkdir()
    target, link = tmp_path / "data" / "real.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to("data/real.csv")
    assert invoke(runner, *PURE, "0:1:5", "--out", str(link)).exit_code == 0
    assert os.readlink(link) == "data/real.csv"
    assert target.read_bytes() == _stdout(runner, *PURE, "0:1:5")
    assert sorted(os.listdir(tmp_path)) == ["data", "link.csv"]
    assert os.listdir(tmp_path / "data") == ["real.csv"]


def test_fifo_out_is_written_through(runner, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert invoke(runner, *PURE, "0:1:5", "--out", str(fifo)).exit_code == 0
    reader.join(timeout=60)
    assert received == [_stdout(runner, *PURE, "0:1:5")]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_concurrent_writers_leave_one_complete_output(runner, tmp_path):
    """Two processes rewrite one --out with different grids: the file ends
    as one of the two outputs, whole, and no temp file is left."""
    out = tmp_path / "same.csv"
    out.write_text("old\n")
    grids = ("0:1:4001", "0:1:6001")
    wanted = {_stdout(runner, *PURE, grid) for grid in grids}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for _ in range(3):
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "dpsemantics.cli", *PURE, grid, "--out", str(out)],
                stderr=subprocess.PIPE, text=True, env=env,
            )
            for grid in grids
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        assert out.read_bytes() in wanted
        assert os.listdir(tmp_path) == ["same.csv"]


# --- argv grammar ---------------------------------------------------------------------------

NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, 5e-324, -1.0, 0.1115, 1.0, 2.63, 1e3, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
).map(repr)
GRIDS = st.one_of(
    st.just("0:1e308:3"),
    st.builds("{}:{}:{}".format, NUMBERS, NUMBERS, st.integers(2, 5)),
)


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(["curve", "zcdp-delta", "pbdp-eps", "scenario", "mc"]))
    if command == "mc":
        # --n sizes the sample arrays, so it stays small; a relative --out
        # lands in $DPSEM_OUT_DIR, an absolute one in a missing directory
        argv = ["mc", draw(st.sampled_from(["production", "scenario:A", "scenario:Z", "bogus"])),
                "--n", draw(st.sampled_from(["-1", "0", "999", "1000", "2000"])),
                "--seed", draw(st.sampled_from(["-1", "0", "7"])),
                "--out", draw(st.sampled_from(["roc.csv", "/nonexistent-dir/roc.csv"]))]
        return argv + (["--grid", draw(GRIDS)] if draw(st.booleans()) else [])
    if command == "curve":
        argv = ["curve", draw(st.sampled_from(sorted(CURVES)))]
        options = ["--mu", "--rho", "--eps"]
    elif command == "scenario":
        return ["scenario", draw(st.sampled_from("ABCDEFGHZ")), "--grid", draw(GRIDS)]
    else:
        argv = ["convert", command]
        options = ["--rho", "--eps"] if command == "zcdp-delta" else ["--mu", "--rho", "--delta"]
    for option in draw(st.lists(st.sampled_from(options), unique=True)):
        argv += [option, draw(NUMBERS)]
    if command == "curve":
        if draw(st.booleans()):
            argv += ["--grid", draw(GRIDS)]
        argv += ["--format", draw(st.sampled_from(["csv", "json", "svg"]))]
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@settings(max_examples=150, deadline=None)
@given(argvs())
@example(["convert", "zcdp-delta", "--rho", "2.63", "--eps", "1e308"])
@example(["curve", "adp-gaussian", "--rho", "2.63", "--grid", "0:1e308:3", "--format", "csv"])
@example(["curve", "bayes-known-rest", "--rho", "2.63", "--grid", "0:1e308:3", "--format", "svg"])
@example(["curve", "bayes-pbdp", "--rho", "1e308", "--grid", "0.5:1:2", "--format", "csv"])
@example(["curve", "tradeoff-gaussian", "--rho", "1e308", "--grid", "5e-324:5e-324:3", "--format", "csv"])
@example(["curve", "tradeoff-zcdp", "--rho", "1e308", "--grid", "0:1:3", "--format", "csv"])
@example(["mc", "production", "--n", "1000", "--seed", "0", "--out", "roc.csv"])
def test_any_argv_exits_0_2_or_3_and_prints_no_nan(out_dir, argv):
    result = CliRunner().invoke(main, argv, env={"DPSEM_OUT_DIR": str(out_dir)})
    assert result.exit_code in (0, 2, 3), (result.output, result.exception)
    assert not re.search(r"\bnan\b", result.output, re.IGNORECASE), result.output
    # whatever the exit code, only whole outputs remain: no temp file
    assert set(os.listdir(out_dir)) <= {"roc.csv", "roc.csv.manifest.json"}
