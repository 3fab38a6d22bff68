#!/usr/bin/env python3
"""Run perfbench several times per workload and report each metric's spread.

With --runs 1 this is the one command that prints every metric, by name
and unit, for every workload.

Usage (from the repository root):

    python3 perfbench/spread.py [--runs 10] [--seconds <s>] [--trace 0]
                                [--first-seed 1] [workload ...]

--seconds defaults to run_seconds from BENCHMARK.json. For every metric it
prints the median and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to a third of the metric's bound
from BENCHMARK.json, the steadiness target. Exits non-zero if a run fails
or reports an incorrect result.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {}
        units = {}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect: "
                      + "\n".join(lines[:-1]), file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"== {workload}: {len(walls)} runs, wall per run "
              f"{min(walls):.1f}-{max(walls):.1f} s")
        for name, vals in values.items():
            med = statistics.median(vals)
            spread = float("nan")
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / abs(med)
            bound = bounds.get(name)
            target = f"{bound / 3:.4f}" if bound else "-"
            # NaN (a single run) never compares >=, so it is not flagged.
            above = bool(bound) and spread >= bound / 3
            flag = "  <-- above target" if above else ""
            print(f"  {name:36s} median {med:14.6g} {units[name]:6s}"
                  f" iqr/median {spread:8.4f}  target {target}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
