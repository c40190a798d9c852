"""Self-test of the benchmark: smoke runs on tiny inputs, and every check
shown to reject a wrong answer.  Run from the root of the repository:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from tracing import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [name for name, unit in UNITS.items() if unit == "count"]


def run_bench(workload, trace=0, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def smoke(request):
    """A tiny untraced run: its printed line and the worker's result."""
    line = last_json(run_bench(request.param))
    result = json.loads((HERE / "out" / f"{request.param}-t0" / "result.json").read_text())
    return request.param, line, result


def first_ok(result):
    record = next(r for r in result["records"] if r["ok"])
    return result["ops"][record["op"]], record


def test_smoke_run_is_correct(smoke):
    workload, line, result = smoke
    assert line["correct"] is True
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    # only the fixed k = 1.3 solve fails, in every round
    expected = [r["op"] == 3 for r in result["records"]] if workload == "solve" else []
    assert [not r["ok"] for r in result["records"]] == (
        expected or [False] * len(result["records"]))
    assert line["failed"] * len(result["ops"]) == line["attempted"] * (workload == "solve")


def test_checks_reject_wrong_answers(smoke, tmp_path):
    workload, _, result = smoke
    spec, record = first_ok(result)
    assert checks.check_record(workload, spec, record) == []
    if workload == "landscape":
        quad = json.loads(record["stdout"][0])
        rows = checks._read_landscape_csv(record["csv"][0])
        shifted = copy.deepcopy(quad)
        shifted["points"][0]["z2"] += 1e-6
        assert checks.check_landscape_quadratic(spec, shifted, rows)
        bad_rows = rows.copy()
        bad_rows[0, 2] += 1e-6
        assert checks.check_landscape_quadratic(spec, quad, bad_rows)
        trans = json.loads(record["stdout"][1])
        assert trans["points"]
        trans["points"][0]["z1"] += 1e-4
        assert checks.check_landscape_transcendental(spec, trans)
    elif workload == "solve":
        reports = [json.loads(text) for text in record["stdout"]]
        u, meta = checks.read_loop(record["loop"])
        noisy = tmp_path / "noisy.csv"
        shutil.copy(Path(record["loop"]).with_suffix(".json"), noisy.with_suffix(".json"))
        rng = np.random.default_rng(0)
        perturbed = u + 1e-7 * rng.standard_normal(u.shape)
        t = 2.0 * np.pi * np.arange(len(u)) / len(u)
        rows = ["j,x1,x2,u1,u2"] + [
            ",".join([str(j)] + [repr(float(v)) for v in
                                 (np.cos(t[j]), np.sin(t[j]), *perturbed[j])])
            for j in range(len(u))]
        noisy.write_text("\n".join(rows) + "\n")
        assert checks.check_solve(spec, reports, noisy, record["flat"])
        moved = copy.deepcopy(reports)
        moved[0]["z_critical"][0] += 1e-3
        assert checks.check_solve(spec, moved, record["loop"], record["flat"])
    else:
        with np.load(record["map"]) as data:
            data = dict(data)
        flipped = dict(data, offset=-data["offset"])
        assert checks.check_reduced_map(spec, flipped)
        noisy = dict(data, samples=data["samples"] + 1e-9)
        noisy["samples"][:, ::2, 1] += 1e-9
        assert checks.check_reduced_map(spec, noisy)


def test_quadratic_critical_point_closed_form():
    for k in (1.3, 2.0, 2.5, 3.0, 8.0):
        zstar, _ = checks.quadratic_critical_point(k)
        assert abs(zstar[1] - workloads.melnikov_point(k)[1]) < 1e-12


def test_residual_vanishes_on_the_circle():
    for k in (2.0, 3.0):
        u, du = checks.reference_circle(k, 256)
        assert np.abs(checks.residual(u, k, 0.0)).max() < 1e-10
        assert np.abs(checks.derivatives(u)[0] - du).max() < 1e-12
        assert np.abs(checks.geodesic_curvature(u, *checks.derivatives(u)) - k).max() < 1e-10


def test_traced_counts_repeat_and_bypassed_layers_read_zero():
    lines = {}
    for workload in workloads.WORKLOADS:
        first, second = (last_json(run_bench(workload, trace=1)) for _ in range(2))
        assert first["correct"] and second["correct"]
        assert set(first["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
        for name in COUNTS:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
        lines[workload] = {name: m["value"] for name, m in first["metrics"].items()}
    bypassed = {
        "reduced_map": ("melnikov.", "loops.is_embedded_s"),
        "landscape": ("reduction.", "linearized."),
    }
    for workload, prefixes in bypassed.items():
        for name, value in lines[workload].items():
            if name.startswith(prefixes):
                assert value == 0, (workload, name)
    assert lines["solve"]["reduction.gmres_iters"] > 0
    assert lines["landscape"]["fields.eval_points"] > lines["reduced_map"]["fields.eval_points"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("landscape", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
