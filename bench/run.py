#!/usr/bin/env python3
"""Benchmark of the dpsemantics library and its ``dpsem`` command.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py for what each op is and why the workload
exists): ``mc-production``, ``numeric-bounds``, ``closed-forms``.  Each
is a closed loop from one process, one thread and one client: the next
op starts when the previous one has finished.  The seed sets the ``mc``
seeds and the order of every group of ops; the library only sees the
generated arguments.

``--trace 0`` measures the end-to-end metrics with no instrumentation:

* ``setup_s``     median over several fresh processes of the time from
                  process start to the first timed op (imports, the
                  production table, a warm-up on small inputs);
* ``peak_rss_mb`` peak resident set of the measuring process;
* ``op_ms_p50``   median latency of one op;
* ``work_per_s``  work units (named per workload) per second, median
                  over the groups of ops.

The three timed metrics are reported at reference machine speed: each is
scaled by probe.REFERENCE_MS over the median time of a fixed probe kernel
run after every group (for ``setup_s``: just before and after the
set-ups; see probe.py).  The unscaled values, the probe
times, steal ticks and versions are printed as run metadata.

``--trace 1`` is the separate traced run: the named workload's groups run
alternately with and without wrappers around the library's public
functions (``trace.overhead_pct``), then one group of each other
workload runs traced, so that every per-layer metric is measured on the
workload it belongs to (its home, named in the metadata).  A value taken
from that single group is not a baseline; the traced run of its home
workload is.  Spans go to ``.bench_out/`` when the run ends.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The library is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "dpsemantics" / "__init__.py").is_file():
    raise SystemExit(f"bench: no library source at {SRC / 'dpsemantics'}")
sys.path.insert(0, str(SRC))

import dpsemantics  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

if not Path(dpsemantics.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"bench: dpsemantics imported from {dpsemantics.__file__}, not {SRC}")

import spans  # noqa: E402
import workloads  # noqa: E402
from probe import REFERENCE_MS, machine_probe  # noqa: E402
from workloads import FULL, WORKLOADS, CheckFailed, Sizes  # noqa: E402

MC, NB, CF = "mc-production", "numeric-bounds", "closed-forms"
#: Per-layer metrics: (name, unit, workload it is measured on, kind, key).
#: Values are per op of that workload; self times in ms.
PER_LAYER = [
    ("dgauss.sample.calls", "count", MC, "calls", "dgauss.sample"),
    ("dgauss.sample.elements", "count", MC, "counter", "dgauss.sample.elements"),
    ("dgauss.sample.self_ms", "ms", MC, "self", "dgauss.sample"),
    ("dgauss.sample.ns_per_element", "ns", MC, "ns_per_element", "dgauss.sample"),
    ("dgauss.sampler_init.calls", "count", MC, "calls", "dgauss.sampler_init"),
    ("dgauss.sampler_init.self_ms", "ms", MC, "self", "dgauss.sampler_init"),
    ("dgauss.mc_roc.self_ms", "ms", MC, "self", "dgauss.mc_roc"),
    ("dgauss.power_at.calls", "count", MC, "calls", "dgauss.power_at"),
    ("dgauss.power_at.self_ms", "ms", MC, "self", "dgauss.power_at"),
    ("tradeoff.zcdp_power_bound.calls", "count", NB, "calls", "tradeoff.zcdp_power_bound"),
    ("tradeoff.zcdp_power_bound.self_ms", "ms", NB, "self", "tradeoff.zcdp_power_bound"),
    ("tradeoff.inverse_type2.calls", "count", NB, "calls", "tradeoff.inverse_type2"),
    ("tradeoff.inverse_type2.self_ms", "ms", NB, "self", "tradeoff.inverse_type2"),
    ("tradeoff.np_tradeoff_finite.self_ms", "ms", NB, "self", "tradeoff.np_tradeoff_finite"),
    ("tradeoff.piecewise_power.calls", "count", NB, "calls", "tradeoff.piecewise_power"),
    ("tradeoff.piecewise_power.self_ms", "ms", NB, "self", "tradeoff.piecewise_power"),
    ("accountants.fdp_to_epsdelta.self_ms", "ms", NB, "self", "accountants.fdp_to_epsdelta"),
    ("accountants.pbdp_delta_finite.self_ms", "ms", NB, "self", "accountants.pbdp_delta_finite"),
    ("plrv.compose.calls", "count", NB, "calls", "plrv.compose"),
    ("plrv.compose.atoms_out", "count", NB, "counter", "plrv.compose.atoms_out"),
    ("plrv.compose.self_ms", "ms", NB, "self", "plrv.compose"),
    ("plrv.approx_dp_delta.self_ms", "ms", NB, "self", "plrv.approx_dp_delta"),
    ("norm.phi.calls", "count", CF, "calls", "norm.phi"),
    ("norm.phi_inv.calls", "count", CF, "calls", "norm.phi_inv"),
    ("norm.self_ms", "ms", CF, "layer_self", "norm"),
    ("tradeoff.gaussian_exact_power.self_ms", "ms", CF, "self", "tradeoff.gaussian_exact_power"),
    ("accountants.gaussian_pbdp_epsilon.self_ms", "ms", CF, "self", "accountants.gaussian_pbdp_epsilon"),
    ("bayes.self_ms", "ms", CF, "layer_self", "bayes"),
    ("census.scenario.self_ms", "ms", CF, "self", "census.scenario"),
    ("census.production_table.calls", "count", CF, "calls", "census.production_table"),
    ("census.production_table.self_ms", "ms", CF, "self", "census.production_table"),
    ("svg.line_chart.calls", "count", CF, "calls", "svg.line_chart"),
    ("svg.line_chart.self_ms", "ms", CF, "self", "svg.line_chart"),
    ("cli.self_ms", "ms", CF, "self", "cli"),
    ("cli.bytes_written", "B", CF, "counter", "cli.bytes_written"),
    ("trace.overhead_pct", "%", None, "overhead", None),
]


def steal_ticks() -> tuple[int, int] | None:
    """(steal, total) clock ticks of all CPUs since boot, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


class Runner:
    """Executes ops, checks them, and keeps latencies, work and failures."""

    def __init__(self, tracer: spans.Tracer | None = None) -> None:
        self.tracer = tracer
        self.tracing = False
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.work = 0
        self.measured = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.probes: list[float] = []
        self.group_rates: list[float] = []
        self.op_home: dict[int, str] = {}
        self._next_op = 0
        # one capture buffer pair for the whole run: click caches every
        # stream it has written to and keeps it alive, so a fresh buffer
        # per op would hold every op's output until the process ends
        self._stdout = io.StringIO()
        self._stderr = io.StringIO()

    def execute(self, op: workloads.Op, home: str) -> float:
        """Run one op; returns its latency in seconds.  Never raises for a
        failing op: the failure is recorded and the run goes on."""
        op_id = self._next_op
        self._next_op += 1
        tracer = self.tracer if self.tracing else None
        stdout = self._stdout
        for buffer in (stdout, self._stderr):
            buffer.seek(0)
            buffer.truncate()
        result, error = None, None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(self._stderr):
            if tracer is not None:
                self.op_home[op_id] = home
                tracer.op_id = op_id
                root = tracer.open(tracer.name_id("cli" if op.is_cli else "bench.op"))
            start = perf_counter()
            try:
                result = op.call()
            except SystemExit as exc:
                if exc.code not in (0, None):
                    error = f"exit code {exc.code}"
            except Exception as exc:  # an op failure must not end the run
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.close(root)
        self.attempted += 1
        if error is None:
            try:
                op.check(result, stdout.getvalue())
            except CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception as exc:  # a malformed output is a failed op
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None:
            self.work += op.work
        else:
            self.failures.append(f"{op.kind}: {error}")
        if tracer is not None and op.is_cli:
            written = len(stdout.getvalue().encode()) + sum(
                p.stat().st_size for p in op.outputs if p.exists()
            )
            tracer.count("cli.bytes_written", written)
        return elapsed

    def run_group(self, ops: list[workloads.Op], home: str, timed: bool = True) -> float:
        total = 0.0
        for op in ops:
            elapsed = self.execute(op, home)
            total += elapsed
            if timed:
                self.latencies.append(elapsed)
                self.kinds.append(op.kind)
        return total

    def measure(self, workload: workloads.Workload, seed: int, seconds: float) -> None:
        """Closed loop over whole cycles of groups until `seconds` of op
        time is spent."""
        k = 0
        while k == 0 or self.measured < seconds or k % workload.cycle:
            work = self.work
            elapsed = self.run_group(workload.group(seed, k), workload.name)
            self.measured += elapsed
            self.group_rates.append((self.work - work) / elapsed)
            k += 1
            self.probes.append(machine_probe())


def child_setup_seconds(name: str) -> float:
    """Seconds from spawning a fresh benchmark process until it is ready
    for its first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process failed (exit {code}, said {line.strip()!r})")
    return elapsed


def _quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def _meta(seed: int, runner: Runner, steal0) -> dict:
    steal1 = steal_ticks()
    meta = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "ops_attempted": runner.attempted,
        "ops_failed": len(runner.failures),
        "probe_ms_median": statistics.median(runner.probes) if runner.probes else None,
        "probe_samples": len(runner.probes),
    }
    if steal0 and steal1:
        meta["steal_ticks"] = steal1[0] - steal0[0]
        meta["steal_share"] = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
    return meta


def run_untraced(name: str, seed: int, seconds: float, sizes: Sizes, out_dir: Path) -> dict:
    steal0 = steal_ticks()
    runner = Runner()
    runner.probes += [machine_probe() for _ in range(5)]
    setups = [child_setup_seconds(name) for _ in range(sizes.setup_repeats)]
    runner.probes += [machine_probe() for _ in range(5)]
    setup_probes = runner.probes[:]
    workload = WORKLOADS[name](sizes, out_dir / name)
    workload.out_dir.mkdir(parents=True, exist_ok=True)
    workload.setup()
    workload.load_references()
    runner.measure(workload, seed, seconds)
    for op in workload.after(seed):
        runner.execute(op, name)
    lat_ms = [x * 1000.0 for x in runner.latencies]
    n = len(lat_ms)
    raw = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": statistics.median(lat_ms),
        # median over groups, so that a burst of stolen time in one group
        # does not move it
        "work_per_s": statistics.median(runner.group_rates),
    }
    scale = REFERENCE_MS / statistics.median(runner.probes)
    setup_scale = REFERENCE_MS / statistics.median(setup_probes)
    metrics = {
        "setup_s": (raw["setup_s"] * setup_scale, "s", len(setups),
                    "set-ups in fresh processes, at reference speed"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1, "process"),
        "op_ms_p50": (raw["op_ms_p50"] * scale, "ms", n, "ops, at reference speed"),
        "work_per_s": (raw["work_per_s"] / scale, "1/s", len(runner.group_rates),
                       f"groups, at reference speed; unit: {workload.work_unit}"),
    }
    meta = _meta(seed, runner, steal0)
    meta["speed_scale"] = scale
    meta["setup_speed_scale"] = setup_scale
    meta.update({f"raw_{k}": v for k, v in raw.items()})
    meta["work_unit"] = workload.work_unit
    meta["work_done"] = f"{runner.work} in {runner.measured:.3f} s of op time"
    if n >= 100:  # at least ten samples beyond the 90th percentile
        meta["op_ms_p90"] = _quantile(lat_ms, 0.90) * scale
        meta["raw_op_ms_p90"] = _quantile(lat_ms, 0.90)
    by_kind: dict[str, list[float]] = defaultdict(list)
    for kind, ms in zip(runner.kinds, lat_ms):
        by_kind[kind].append(ms)
    meta["raw_op_ms_p50_by_kind"] = {
        k: (round(statistics.median(v), 4), len(v)) for k, v in sorted(by_kind.items())
    }
    return {"runner": runner, "metrics": metrics, "meta": meta}


def mc_self_check(tracer: spans.Tracer, runner: Runner, mc: workloads.McProduction) -> list[str]:
    """Counts of every traced mc op must repeat exactly and match what the
    allocation implies: one sampler per distinct rho*, 2 n cells elements."""
    ops = {op: str(op) for op, home in runner.op_home.items() if home == MC}
    totals = tracer.totals(ops)
    seen = set()
    for op, key in ops.items():
        seen.add((
            totals.get((key, "dgauss.sampler_init"), (0, 0))[0],
            tracer.counters.get((op, "dgauss.sample.elements"), 0),
            totals.get((key, "dgauss.sample"), (0, 0))[0],
            totals.get((key, "dgauss.power_at"), (0, 0))[0],
        ))
    problems = []
    if len(seen) != 1:
        problems.append(f"mc counts differ between ops: {sorted(seen)}")
    for builds, elements, _calls, _power in seen:
        if builds != mc.distinct_rho:
            problems.append(f"{builds} sampler builds, expected {mc.distinct_rho}")
        if elements != 2 * mc.sizes.mc_n * mc.cells:
            problems.append(f"{elements} sampled elements, expected 2*n*{mc.cells}")
    return problems


def run_traced(name: str, seed: int, seconds: float, sizes: Sizes, out_dir: Path) -> dict:
    steal0 = steal_ticks()
    loads = {n: cls(sizes, out_dir / n) for n, cls in WORKLOADS.items()}
    for w in loads.values():
        w.out_dir.mkdir(parents=True, exist_ok=True)
        w.setup()
        w.load_references()
    tracer = spans.Tracer()
    inst = spans.Instrumentation(tracer)
    runner = Runner(tracer)
    own = loads[name]
    plain = traced = 0.0
    k = 0
    try:
        # the same group twice, alternating which half runs first
        while k == 0 or plain + traced < seconds or k % own.cycle:
            for on in ((False, True) if k % 2 == 0 else (True, False)):
                (inst.install if on else inst.uninstall)()
                runner.tracing = on
                elapsed = runner.run_group(own.group(seed, k), name, timed=False)
                if on:
                    traced += elapsed
                else:
                    plain += elapsed
            k += 1
            runner.probes.append(machine_probe())
        inst.install()
        runner.tracing = True
        for other, w in loads.items():
            if other != name:
                runner.run_group(w.group(seed, 0), other, timed=False)
    finally:
        runner.tracing = False
        inst.uninstall()
    overhead = 100.0 * (traced - plain) / plain
    problems = mc_self_check(tracer, runner, loads[MC])
    runner.failures += [f"tracer self-check: {p}" for p in problems]
    metrics, baseline = layer_metrics(tracer, runner, overhead, loads[MC], name)
    out_dir.mkdir(parents=True, exist_ok=True)
    span_file = out_dir / f"spans-{name}.npz"
    tracer.write(span_file)
    meta = _meta(seed, runner, steal0)
    meta["per_layer_home"] = {metric: home or name for metric, _u, home, _k, _key in PER_LAYER}
    meta.update(spans=len(tracer), span_file=span_file.name, traced_s=traced,
                untraced_s=plain, mc_structure=baseline,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return {"runner": runner, "metrics": metrics, "meta": meta}


def layer_metrics(tracer, runner, overhead: float, mc, name: str) -> tuple[dict, dict]:
    """Per-layer metrics, each per op of its home workload.  Only the
    traced run of the home workload measures many groups; in the traced
    run of another workload the value comes from one group, so that no
    metric reads zero, and is not a baseline."""
    calls: dict[tuple[str, str], int] = defaultdict(int)
    own_ns: dict[tuple[str, str], int] = defaultdict(int)
    layer_ns: dict[tuple[str, str], int] = defaultdict(int)
    for (home, span), (n_calls, ns) in tracer.totals(runner.op_home).items():
        calls[(home, span)] += n_calls
        own_ns[(home, span)] += ns
        layer_ns[(home, span.split(".", 1)[0])] += ns
    counters: dict[tuple[str, str], int] = defaultdict(int)
    for (op, cname), value in tracer.counters.items():
        counters[(runner.op_home.get(op), cname)] += value
    n_ops: dict[str, int] = defaultdict(int)
    for home in runner.op_home.values():
        n_ops[home] += 1
    out = {}
    for metric, unit, home, kind, key in PER_LAYER:
        n = n_ops[home] if home else 1
        if kind == "calls":
            value = calls[(home, key)] / n
        elif kind == "counter":
            value = counters[(home, key)] / n
        elif kind == "self":
            value = own_ns[(home, key)] / n / 1e6
        elif kind == "layer_self":
            value = layer_ns[(home, key)] / n / 1e6
        elif kind == "ns_per_element":
            value = own_ns[(home, key)] / max(1, counters[(home, "dgauss.sample.elements")])
        else:
            value = overhead
        if home is None:
            what = "traced vs untraced"
        elif home == name:
            what = f"per {home} op"
        else:
            what = f"per {home} op, one group only: not a baseline"
        out[metric] = (value, unit, n, what)
    baseline = {
        "sample_calls_per_op": out["dgauss.sample.calls"][0],
        "expected_at_baseline": mc.cells * 2 * workloads.MC_SHARDS,
        "power_at_calls_per_op": out["dgauss.power_at.calls"][0],
        "power_at_expected_at_baseline": 2 * workloads.MC_EXPORT_POINTS,
    }
    return out, baseline


def result_line(report: dict) -> dict:
    runner = report["runner"]
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in report["metrics"].items()},
    }


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL,
        out_dir: Path = OUT) -> dict:
    if trace:
        return run_traced(name, seed, seconds, sizes, out_dir / "work")
    return run_untraced(name, seed, seconds, sizes, out_dir / "work")


def report_text(name: str, seed: int, trace: bool, report: dict) -> str:
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  "
             "(closed loop: 1 process, 1 thread, 1 client)"]
    for metric, (value, unit, n, what) in report["metrics"].items():
        lines.append(f"  {metric:<42} {value:>14.6g} {unit:<6} (n={n} {what})")
    for key, value in report["meta"].items():
        lines.append(f"  meta {key}: {value}")
    for failure in report["runner"].failures[:20]:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up the workload, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.setup_only:
        workload = WORKLOADS[args.workload](FULL, OUT / "setup" / args.workload)
        workload.out_dir.mkdir(parents=True, exist_ok=True)
        workload.setup()
        print("ready", flush=True)
        return 0
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(report)
    OUT.mkdir(exist_ok=True)
    record = {**line, "meta": report["meta"], "failures": report["runner"].failures,
              "samples": {k: v[2] for k, v in report["metrics"].items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")
    print(report_text(args.workload, args.seed, bool(args.trace), report))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
