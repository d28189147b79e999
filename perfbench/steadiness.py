#!/usr/bin/env python3
"""Run the benchmark once per seed (seeds 1-10) on every workload of
BENCHMARK.json and report, for every end-to-end metric, its median,
quartiles and spread (interquartile range as a share of the median, as
statistics.quantiles(values, n=4) gives them) against the metric's bound.
A metric is steady when its spread is below a third of its bound; the
exit code is 1 if any metric is not.

Usage, from the root of the repository:

    python3 perfbench/steadiness.py

The workloads are interleaved seed by seed. Each run's result line is
appended to .bench_build/steadiness.jsonl.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)
OUT = os.path.join(ROOT, ".bench_build", "steadiness.jsonl")


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(spec, rows):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [r for r in rows if r["workload"] == workload]
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed ops")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = spread < bound / 3
            ok &= steady
            print(f"  {name:14s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.3f}  bound {bound:.2f}  {'ok' if steady else 'NOT STEADY'}")
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    rows = []
    for seed in SEEDS:
        for workload in [w["name"] for w in spec["workloads"]]:
            result = run_once(workload, seed, spec["run_seconds"])
            row = {"workload": workload, "seed": seed, "result": result}
            rows.append(row)
            with open(OUT, "a") as f:
                f.write(json.dumps(row) + "\n")
    return 0 if summarise(spec, rows) else 1


if __name__ == "__main__":
    sys.exit(main())
