"""tools/bench_record.py refuses checkouts holding bytecode and writes none itself.

The tool is loaded from its file, as ``test_perfbench_hooks.py`` loads the
tracer; ``run`` and ``subprocess.run`` are replaced, so no benchmark runs.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def checkout(root: Path) -> Path:
    for part in ("src/hyploop", "perfbench"):
        (root / part).mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1}))
    return root


def fake_run(checkout, workload, seed, seconds, trace):
    return {"correct": True, "attempted": 4, "failed": 1,
            "metrics": {m: {"value": 1.0} for m in bench_record.END_TO_END}}


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("where", ["src/hyploop/__pycache__", "perfbench/__pycache__"])
def test_refuses_a_checkout_with_bytecode(tmp_path, monkeypatch, side, where):
    sides = {name: checkout(tmp_path / name) for name in ("parent", "change")}
    (sides[side] / where).mkdir()
    ran = []
    monkeypatch.setattr(bench_record, "run", lambda *args: ran.append(args))
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as info:
        bench_record.main([str(sides["parent"]), str(sides["change"]), "--out", str(out),
                           "--seed", "1"])
    assert str(sides[side] / where) in str(info.value.code)
    assert ran == [] and not out.exists()


def test_clean_checkouts_are_recorded(tmp_path, monkeypatch):
    sides = [checkout(tmp_path / name) for name in ("parent", "change")]
    (sides[0] / "tools" / "__pycache__").mkdir(parents=True)  # outside src/ and perfbench/
    monkeypatch.setattr(bench_record, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_record.main([*map(str, sides), "--out", str(out), "--seed", "1"]) == 0
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == list(bench_record.WORKLOADS)


def test_children_write_no_bytecode(tmp_path, monkeypatch):
    seen = {}

    def fake_subprocess_run(cmd, **kwargs):
        seen.update(kwargs)
        result = fake_run(tmp_path, "solve", 1, 1.0, 0)
        return subprocess.CompletedProcess(cmd, 0, json.dumps(result) + "\n", "")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_subprocess_run)
    bench_record.run(tmp_path, "solve", 1, 1.0, 0)
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
