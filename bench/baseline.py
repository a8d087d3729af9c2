#!/usr/bin/env python3
"""Record the benchmark's baseline: ten untraced runs of every workload,
one seed per run, then one traced run of every workload.

    python3 bench/baseline.py --first-seed 400 --out bench/baseline.json
    python3 bench/baseline.py --first-seed 200 --out other.json --compare bench/baseline.json

For each workload and end-to-end metric it records the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, next to the bound in BENCHMARK.json, and each
run's metadata: unscaled values, probe times, speed scale and stolen
CPU share, so that a slow host can be told from a slow change.  Runs go
one after another, each in its own process, the workloads taking turns.

A per-layer metric is taken from the traced run of its home workload
only; the traced runs of the other workloads measure it on one group.
``--compare`` records the medians of another set made by this script
and how far each of this set's medians is worse than that set's.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 10
TRACED_NOTE = ("each per-layer value comes from the traced run of its home workload; "
               "the traced runs of the other workloads measure it on one group only, "
               "which is not a baseline")


def one_run(workload: str, seed: int, trace: int) -> dict:
    """The result line of one run, with the metadata run.py wrote beside it."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    record = ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    line["meta"] = json.loads(record.read_text(encoding="utf-8"))["meta"]
    return line


def summarise(values: list[float]) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for row in fh:
                if row.startswith("model name"):
                    return row.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path, help="a file written by this script")
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(RUNS):  # workloads interleaved, so a slow spell hits all
        for workload in names:
            runs[workload].append(one_run(workload, args.first_seed + i, 0))
    result = {"runs": RUNS, "seconds": spec["run_seconds"], "seeds_from": args.first_seed,
              "host": {"cpu": cpu_model(), "nproc": runs[names[0]][0]["meta"]["nproc"],
                       "python": platform.python_version(),
                       "numpy": runs[names[0]][0]["meta"]["numpy"],
                       "scipy": runs[names[0]][0]["meta"]["scipy"]},
              "workloads": {}}
    for workload, lines in runs.items():
        entry = {"all_correct": all(ln["correct"] for ln in lines),
                 "ops_attempted": sum(ln["attempted"] for ln in lines),
                 "ops_failed": sum(ln["failed"] for ln in lines), "metrics": {}}
        for name, m in metrics.items():
            stats = summarise([ln["metrics"][name]["value"] for ln in lines])
            stats["bound"] = m["bound"]
            stats["unit"] = m["unit"]
            entry["metrics"][name] = stats
            print(f"{workload:15} {name:12} median {stats['median']:12.6g} "
                  f"spread {stats['spread']:.3f} (bound {m['bound']})", flush=True)
        entry["runs"] = [ln["meta"] for ln in lines]
        result["workloads"][workload] = entry

    traced = {w: one_run(w, args.first_seed, 1) for w in names}
    per_layer = {}
    for m in spec["per_layer"]:
        home = traced[names[0]]["meta"]["per_layer_home"][m["name"]]
        per_layer[m["name"]] = {"value": traced[home]["metrics"][m["name"]]["value"],
                                "unit": m["unit"], "home": home}
    result["traced_run"] = {
        "seed": args.first_seed,
        "note": TRACED_NOTE,
        "per_layer": per_layer,
        "overhead_pct": {w: t["metrics"]["trace.overhead_pct"]["value"] for w, t in traced.items()},
        "runs": {w: {k: t[k] for k in ("correct", "attempted", "failed")} | {"meta": t["meta"]}
                 for w, t in traced.items()},
    }

    if args.compare:
        other = json.loads(args.compare.read_text(encoding="utf-8"))
        compared = {"seeds_from": other["seeds_from"], "workloads": {}}
        for workload in names:
            rows = {}
            for name, m in metrics.items():
                before = other["workloads"][workload]["metrics"][name]["median"]
                now = result["workloads"][workload]["metrics"][name]["median"]
                worse = (now - before) / before if m["better"] == "lower" else (before - now) / before
                rows[name] = {"median": before, "this_set_worse_by": worse, "bound": m["bound"]}
                print(f"{workload:15} {name:12} worse by {worse:+.3f} than the other set "
                      f"(bound {m['bound']})", flush=True)
            compared["workloads"][workload] = rows
        result["other_set"] = compared
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
