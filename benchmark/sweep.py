#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmark/sweep.py --seeds 1-10 [--trace 0|1] [--out summary.json]

Runs every workload of BENCHMARK.json for run_seconds each, sequentially,
one process at a time.  For every workload and metric
it prints the median, the quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median.  With
--trace 1 on diagram-routes it also reports, over the pro-w1 jobs, the
share of route time spent in check_structure's own code and the share of
BilinearOp.apply calls that return an empty vector.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def pro_w1_profile(seeds):
    """check_structure self share and apply empty ratio over traced pro-w1 jobs."""
    wall = cs = calls = empty = jobs = 0
    for seed in seeds:
        path = ROOT / ".bench_out" / f"diagram-routes-seed{seed}-trace1.jobs.jsonl"
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            if rec["label"] != "pro-w1":
                continue
            jobs += 1
            wall += rec["seconds"]
            cs += rec["layers"].get("structures.check_structure", 0.0)
            calls += rec["counts"].get("linalg.BilinearOp.apply.calls", 0)
            empty += rec["counts"].get("linalg.BilinearOp.apply.empty", 0)
    return {"check_structure_self_share": cs / wall,
            "apply_calls_per_route": calls / jobs,
            "apply_empty_ratio": empty / calls}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the summary as JSON")
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in workloads:
        per_metric, failed = {}, 0
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            failed += result["failed"]
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        summary[workload] = {"seeds": seeds, "failed": failed,
                             "metrics": {k: summarise(v) for k, v in per_metric.items()}}
        if args.trace and workload == "diagram-routes":
            summary[workload]["pro-w1"] = pro_w1_profile(seeds)
        print(f"{workload} (seeds {args.seeds}, {failed} failed jobs)")
        for name, s in summary[workload]["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}"
            print(f"  {name:44s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}{flag}")
        if "pro-w1" in summary[workload]:
            print("  pro-w1:", json.dumps(summary[workload]["pro-w1"]))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
