"""Tests of the benchmark itself: tiny runs, self time, failure counting."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import TINY, CheckFailed, Op  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(name, tmp_path):
    report = run.run(name, seed=3, seconds=0.01, trace=False, sizes=TINY, out_dir=tmp_path)
    line = run.result_line(report)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, report["runner"].failures
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(v["value"] > 0 for v in line["metrics"].values())
    text = run.report_text(name, 3, False, report)
    for metric, unit in want.items():
        assert any(metric in ln and f" {unit} " in ln and "(n=" in ln for ln in text.splitlines())


def _traced(seed, tmp_path):
    report = run.run("closed-forms", seed=seed, seconds=0.01, trace=True, sizes=TINY,
                     out_dir=tmp_path)
    line = run.result_line(report)
    assert line["correct"] and line["failed"] == 0, report["runner"].failures
    return line["metrics"]


def test_traced_run_reports_every_layer_metric_and_counts_repeat(tmp_path):
    first = _traced(1, tmp_path / "a")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == want
    second = _traced(2, tmp_path / "b")
    counts = [k for k, unit in want.items() if unit == "count"]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert first["dgauss.sample.elements"]["value"] == 2 * TINY.mc_n * 142
    assert first["dgauss.sampler_init.calls"]["value"] == 38


def test_self_time_on_synthetic_span_tree():
    # root [0,100] holds a [10,40], b [45,60] and c [90,100];
    # a holds g [20,30] and h [30,35]; a second root [120,130] has no children
    starts = [0, 10, 20, 30, 45, 90, 120]
    ends = [100, 40, 30, 35, 60, 100, 130]
    parents = [-1, 0, 1, 1, 0, 0, -1]
    assert spans.self_times(starts, ends, parents).tolist() == [45, 15, 10, 5, 15, 10, 10]


def test_tracer_records_nested_spans_and_self_time():
    tracer = spans.Tracer()
    outer = tracer.open(tracer.name_id("outer"))
    inner = tracer.open(tracer.name_id("inner"))
    tracer.close(inner)
    tracer.close(outer)
    assert list(tracer.parents) == [-1, outer]
    own = tracer.self_times()
    assert own[outer] == (tracer.ends[outer] - tracer.starts[outer]) - (
        tracer.ends[inner] - tracer.starts[inner]
    )


def test_wrappers_reach_every_namespace_and_come_off():
    from dpsemantics import _norm, accountants, bayes, census, cli, plrv, tradeoff

    before = (_norm.phi, tradeoff.phi, cli.zcdp_power_bound, cli.gaussian_exact_power)
    with spans.Instrumentation(spans.Tracer()):
        for module in (_norm, tradeoff, accountants, census, bayes, plrv):
            assert module.phi is not before[0] and module.phi.__wrapped__ is before[0]
        assert cli.zcdp_power_bound.__wrapped__ is tradeoff.zcdp_power_bound.__wrapped__
        assert cli.gaussian_exact_power is not before[3]
    assert (_norm.phi, tradeoff.phi, cli.zcdp_power_bound, cli.gaussian_exact_power) == before


def test_failing_op_is_counted_and_the_run_goes_on():
    def fine(_result, _stdout):
        pass

    def reject(_result, _stdout):
        raise CheckFailed("wrong output")

    def boom():
        raise ValueError("boom")

    def exit_two():
        raise SystemExit(2)

    ops = [
        Op("ok", lambda: 1, 5, fine, is_cli=False),
        Op("raises", boom, 5, fine, is_cli=False),
        Op("exit", exit_two, 5, fine, is_cli=False),
        Op("bad-output", lambda: 1, 5, reject, is_cli=False),
        Op("ok", lambda: 1, 5, fine, is_cli=False),
    ]
    runner = run.Runner()
    runner.run_group(ops, "synthetic")
    assert runner.attempted == 5
    assert len(runner.failures) == 3
    assert runner.work == 10
    assert len(runner.latencies) == 5
    line = run.result_line({"runner": runner, "metrics": {}})
    assert line["correct"] is False and line["failed"] == 3


def test_references_agree_with_the_library_on_small_inputs():
    from dpsemantics import accountants, plrv

    pair = plrv.FiniteMechanismPair(("a", "b", "c", "d"), (0.1, 0.2, 0.3, 0.4), (0.4, 0.3, 0.2, 0.1))
    for eps in (0.1, 0.5, 1.0):
        assert abs(accountants.pbdp_delta_finite(pair, eps)
                   - workloads.tight_pbdp_delta(pair.p1, pair.p2, eps)) < 1e-12
    fwd = plrv.plrv_of_finite_pair(plrv.FiniteMechanismPair(("a", "b", "c"), workloads.COMPOSE_P, workloads.COMPOSE_Q))
    three = plrv.compose(plrv.compose(fwd, fwd), fwd)
    atoms, _ = workloads.composed_delta_reference(workloads.COMPOSE_P, workloads.COMPOSE_Q, 3, [1.0])
    assert atoms == len(three.atoms) == 10


def test_measuring_process_does_not_load_the_reference_formulas(tmp_path):
    # scipy.stats would count in the peak RSS of the run unless the library loads it
    script = (
        "import sys, run, workloads\n"
        "from pathlib import Path\n"
        "before = 'scipy.stats' in sys.modules\n"
        "report = run.run('closed-forms', 3, 0.01, False, workloads.TINY, Path(sys.argv[1]))\n"
        "assert not report['runner'].failures, report['runner'].failures\n"
        "print(before, 'scipy.stats' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], cwd=Path(run.__file__).parent,
                          capture_output=True, text=True, check=True, timeout=120)
    before, after = done.stdout.split()
    assert after == before
