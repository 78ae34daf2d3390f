"""Self-tests of the benchmark harness and tracer.

    python3 -m pytest -q benchmark/tests

One pass of each workload runs untraced and traced (about a minute).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer, jetalg_modules  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def bound_names(J):
    """Every (owner, attribute) -> object binding the tracer may touch."""
    out = {}
    for module in jetalg_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
    for cls in (J.LinearMap, J.BilinearOp, J.Jet):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced(name):
    J, wl, first = run.set_up(WORKLOADS[name], SEED)
    plain, _ = run.run_passes(wl, first, passes=1)
    with Tracer() as tracer:
        traced, _ = run.run_passes(wl, wl.jobs(0), passes=1, tracer=tracer)
    assert [r["label"] for r in plain] == [r["label"] for r in traced]
    for a, b in zip(plain, traced):
        assert a["ok"] and b["ok"], (a, b)
        assert (a["verdict"], a["digest"]) == (b["verdict"], b["digest"]), a["label"]
    assert tracer.spans and tracer.counts["linalg.BilinearOp.apply.calls"] > 0


def test_tracer_restores_every_name():
    J = run.import_jetalg()
    before = bound_names(J)
    original = J.check_structure
    with Tracer():
        holders = [m.__name__ for m in jetalg_modules()
                   if "check_structure" in vars(m)]
        assert {"jetalg", "jetalg.structures", "jetalg.deform", "jetalg.diagrams",
                "jetalg.cli"} <= set(holders)
        for m in jetalg_modules():
            assert all(v is not original for v in vars(m).values()), m.__name__
        assert J.Jet.__mul__ is J.Jet.__rmul__
    after = bound_names(J)
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed
    assert J.Jet.__rmul__ is J.Jet.__mul__


def test_wrong_expected_answer_raises_fail_ratio():
    J, wl, first = run.set_up(WORKLOADS["axiom-check"], SEED)
    jobs = [j for j in first if j.label.endswith("D=4") or "D=4 " in j.label]
    records, _ = run.run_passes(wl, jobs, passes=1)
    assert run.end_to_end(records, [0.1])["job_ok_ratio"][0] == 1

    bad = next(j for j in jobs if j.label == "post-poisson D=4 perturbed")
    i, j = bad.expect["at"]
    bad.expect["at"] = (j + 1, i)     # a wrong failing tuple
    jobs[0].expect["passed"] = False   # a wrong verdict
    records, _ = run.run_passes(wl, jobs, passes=1)
    failed = [r["label"] for r in records if not r["ok"]]
    assert failed == [jobs[0].label, bad.label]
    ratio = run.end_to_end(records, [0.1])["job_ok_ratio"][0]
    assert ratio == 1 - 2 / len(jobs)


def test_wrong_exit_code_fails_a_cli_job():
    J, wl, first = run.set_up(WORKLOADS["cli-pipeline"], SEED)
    jobs = first[:2]
    jobs[1].expect["code"] = 1
    records, _ = run.run_passes(wl, jobs, passes=1)
    assert [r["ok"] for r in records] == [True, False]


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    records = [{"seconds": 0.1 * k, "ok": True} for k in range(1, 12)]
    e2e = run.end_to_end(records, [0.1, 0.2])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(unit == m["unit"] for (_, unit), m in zip(e2e.values(), spec["end_to_end"]))
    layers = run.per_layer(Tracer(), [], 1, 1.0)
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(unit == units[name] for name, (_, unit) in layers.items())


def test_per_layer_counts_only_timed_jobs():
    J, wl, _ = run.set_up(WORKLOADS["axiom-check"], SEED)
    with Tracer() as tracer:
        jobs = wl.jobs(0)     # input preparation: spans outside any job
        records, _ = run.run_passes(wl, jobs[-3:], passes=1, tracer=tracer)
    assert any(job is None for *_, job, _t0, _t1, _s in tracer.spans)
    layers = run.per_layer(tracer, records, 1, 1.0)
    in_jobs = [s for s in tracer.spans if isinstance(s[3], int)]
    assert layers["structures.check_structure.calls"][0] == sum(
        s[2] == "structures.check_structure" for s in in_jobs) == 3
    assert layers["deform.qcl.self_s"][0] == 0.0
    applies = sum(r["counts"]["linalg.BilinearOp.apply.calls"] for r in records)
    assert 0 < layers["linalg.BilinearOp.apply.calls"][0] == applies
    assert applies < tracer.counts["linalg.BilinearOp.apply.calls"]


def test_cold_setup_is_timed_in_a_fresh_process():
    dt = run.cold_setup_seconds("diagram-routes", SEED)
    assert 0 < dt < 60


def test_run_without_sources_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "axiom-check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
