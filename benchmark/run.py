#!/usr/bin/env python3
"""jetalg benchmark: one workload, one closed loop, one JSON result line.

    python3 benchmark/run.py --workload axiom-check --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports jetalg from its `src/`.
One client in one process runs one verification job at a time.  Each job's
verdict is checked against its known answer (see workloads.py); a job whose
verdict or exit code differs, or that raises, counts as failed.

--trace 0 measures the end-to-end metrics with nothing wrapped.
--trace 1 runs the same passes twice, untraced then traced, and reports the
per-layer metrics of the traced half (per pass); `trace.overhead` is the
traced over the untraced jobs_per_s.  Both halves must give identical
verdicts and report digests.

setup_s is the median of SETUP_REPEATS cold set-ups, each in a fresh
process (`--setup-only`): from just before the process starts to its first
pass's inputs being ready, so interpreter start-up and every import count.

Per-job records (size, time, verdict) go to .bench_out/ in the checkout,
and with --trace 1 the spans as well.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from tracer import Tracer, report_tuples
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5

PER_LAYER_SPANS = (
    "structures.check_structure", "structures.check_module", "structures.semidirect",
    "deform.check_deformation", "deform.derive_deformation", "deform.qcl",
    "linalg.LinearMap.init",
    "yangbaxter.construct_solutions", "yangbaxter.deformation_transfer",
    "yangbaxter.ybe_residual", "yangbaxter.aw1_induce",
    "operators.check_o_operator", "operators.check_scalar_deformation",
    "operators.induce_splitting",
    "diagrams.verify_diagram", "serialize.load", "serialize.save", "cli.main",
)
PER_LAYER_COUNTS = (
    ("structures.check_structure.tuples", "count"),
    ("linalg.BilinearOp.apply.calls", "count"),
    ("scalars.Jet.mul.calls", "count"),
    ("serialize.bytes_read", "B"),
    ("serialize.bytes_written", "B"),
)


def import_jetalg():
    """Fresh import of jetalg from the checkout, dropping any earlier import."""
    if not (SRC / "jetalg" / "__init__.py").is_file():
        raise SystemExit(f"error: no jetalg sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "jetalg" or n.startswith("jetalg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    J = importlib.import_module("jetalg")
    importlib.import_module("jetalg.cli")
    if Path(J.__file__).resolve().parent != (SRC / "jetalg").resolve():
        raise SystemExit(f"error: imported jetalg from {J.__file__}, not {SRC}")
    return J


def set_up(workload_cls, seed):
    """Import plus the first pass's inputs (for cli-pipeline, its work files)."""
    J = import_jetalg()
    wl = workload_cls(J, seed, OUT / f"work-{workload_cls.name}")
    return J, wl, wl.jobs(0)


def monotonic():
    """The system-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cold_setup_seconds(workload, seed):
    """Seconds from just before a fresh `--setup-only` process starts until
    its set-up is done, as that process reports on the same clock."""
    t0 = monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up of {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def snapshot(path):
    if path is None or not path.exists():
        return {}
    return {p: (st.st_size, st.st_mtime_ns) for p in path.rglob("*")
            if p.is_file() and (st := p.stat())}


def run_job(job, tracer, index):
    """Time one job, then judge it; returns its record."""
    rec = {"job": index, "label": job.label}
    rec.update(job.size)
    if job.before is not None:
        rec.update(job.before())
    files_before = snapshot(job.files)
    if tracer is not None:
        counts_before = dict(tracer.counts)
        tracer.job = index
    # every job starts from a collected heap, and the collector does not
    # rescan what earlier jobs and the harness keep alive
    gc.collect()
    gc.freeze()
    t0 = perf_counter()
    try:
        result = job.call()
        error = None
    except Exception:  # a job that raises is a failed job, not a crashed run
        result, error = None, traceback.format_exc(limit=4)
    elapsed = perf_counter() - t0
    gc.unfreeze()
    rec["seconds"] = elapsed
    if tracer is not None:
        tracer.job = None
        rec["counts"] = {k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()
                         if v != counts_before.get(k, 0)}
    rec["expect"] = {k: list(v) if isinstance(v, tuple) else v
                     for k, v in job.expect.items()}
    if error is not None:
        rec.update(ok=False, error=error, digest=None)
        return rec
    ok, verdict, digest = job.judge(job, result)
    rec.update(ok=ok, verdict=verdict,
               digest=hashlib.sha256(digest.encode()).hexdigest()[:16])
    if "dim" in rec and hasattr(result, "checked"):
        rec["tuples"] = report_tuples(result.checked, rec["dim"])
    if job.files is not None:
        after = snapshot(job.files)
        rec["bytes_written"] = sum(size for p, (size, m) in after.items()
                                   if files_before.get(p) != (size, m))
    return rec


def run_passes(wl, first, seconds=None, passes=None, tracer=None):
    """Run whole passes until `seconds` is used up, or exactly `passes` of them.

    A new pass starts only while the projected end stays nearer the budget
    than stopping now.  Returns (records, passes run).
    """
    records = []
    t0 = perf_counter()
    p = 0
    jobs = first
    while True:
        tp = perf_counter()
        for job in jobs:
            records.append(run_job(job, tracer, len(records)))
        p += 1
        now = perf_counter()
        if passes is not None:
            if p >= passes:
                break
        elif now - t0 + (now - tp) / 2 >= seconds:
            break
        jobs = wl.jobs(p)
    return records, p


def quantiles(values):
    """Median and 90th percentile (statistics.quantiles, exclusive method)."""
    deciles = statistics.quantiles(values, n=10)
    return statistics.median(values), deciles[8]


def jobs_per_s(records):
    """Jobs per second of time spent inside jobs; harness work is excluded."""
    return len(records) / sum(r["seconds"] for r in records)


def end_to_end(records, setup_times):
    times = [r["seconds"] for r in records]
    p50, p90 = quantiles(times)
    failed = sum(not r["ok"] for r in records)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_s.p50": (p50, "s"),
        "job_s.p90": (p90, "s"),
        "jobs_per_s": (jobs_per_s(records), "1/s"),
        "job_ok_ratio": (1 - failed / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, records, passes, overhead):
    """Per-pass layer figures of the timed jobs only.

    Spans outside a job (input preparation between jobs) are left out, and
    the counters are the sums of the per-job deltas in `records`.
    """
    secs, calls = defaultdict(float), Counter()
    for _sid, _parent, name, job, _t0, _t1, self_s in tracer.spans:
        if isinstance(job, int):
            secs[name] += self_s
            calls[name] += 1
    counts = Counter()
    for rec in records:
        counts.update(rec.get("counts", {}))
    out = {}
    for name in PER_LAYER_SPANS:
        out[f"{name}.self_s"] = (secs.get(name, 0.0) / passes, "s")
    out["structures.check_structure.calls"] = (
        calls.get("structures.check_structure", 0) / passes, "count")
    out["linalg.LinearMap.init.calls"] = (calls.get("linalg.LinearMap.init", 0) / passes,
                                          "count")
    for name, unit in PER_LAYER_COUNTS:
        out[name] = (counts[name] / passes, unit)
    applies = counts["linalg.BilinearOp.apply.calls"]
    empty = counts["linalg.BilinearOp.apply.empty"]
    out["linalg.BilinearOp.apply.empty_ratio"] = (empty / applies if applies else 0.0,
                                                  "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    return out


def attach_layers(records, tracer):
    """Per-job self seconds and counts from the traced phase."""
    by_job = {}
    for _sid, _parent, name, job, _t0, _t1, self_s in tracer.spans:
        layers = by_job.setdefault(job, {})
        layers[name] = layers.get(name, 0.0) + self_s
    for rec in records:
        rec["layers"] = by_job.get(rec["job"], {})


def write_records(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, default=str) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the monotonic clock and exit (times setup_s)")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        set_up(workload, args.seed)
        print(monotonic())
        return 0
    if args.seconds is None:
        ap.error("--seconds is required")
    if args.trace == 0:     # before the set-up below: cli-pipeline shares its work files
        setup_times = [cold_setup_seconds(args.workload, args.seed)
                       for _ in range(SETUP_REPEATS)]
    J, wl, first = set_up(workload, args.seed)

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        records, passes = run_passes(wl, first, seconds=args.seconds)
        metrics = end_to_end(records, setup_times)
        failed = sum(not r["ok"] for r in records)
        attempted = len(records)
    else:
        plain, passes = run_passes(wl, first, seconds=args.seconds / 2)
        tracer = Tracer()
        first = wl.jobs(0)
        with tracer:
            records, _ = run_passes(wl, first, passes=passes, tracer=tracer)
        for a, b in zip(plain, records):
            if (a.get("digest"), a.get("verdict")) != (b.get("digest"), b.get("verdict")):
                b["ok"] = False
                b["error"] = "traced verdict or report digest differs from the untraced run"
        overhead = jobs_per_s(records) / jobs_per_s(plain)
        metrics = per_layer(tracer, records, passes, overhead)
        attach_layers(records, tracer)
        tracer.write_spans(stem.with_suffix(".spans.jsonl"))
        attempted = len(plain) + len(records)
        failed = sum(not r["ok"] for r in plain + records)
    write_records(stem.with_suffix(".jobs.jsonl"), records)

    n = len(records)
    print(f"{args.workload} seed {args.seed}: {n} jobs in {passes} passes, "
          f"{failed} of {attempted} failed (job_fail_ratio {failed / attempted:.4f})")
    if args.trace == 0:
        print(f"job_s.p90 over {n} samples ({n - int(0.9 * (n + 1))} beyond it)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
