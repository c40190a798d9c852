"""The benchmark's worker (perfbench/worker.py) reads only names that hyploop has.

The worker reads module attributes such as ``melnikov.NR_DEFAULT``,
``linearized.frozen_solve`` and ``reduction.HyperbolicProblem``; a rename in
the program would otherwise show only when the benchmark itself runs.  The
file is parsed, never imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _hyploop_reads() -> list[tuple[str, str]]:
    """(module, attribute) for each ``m.attr`` in a function that ran ``from hyploop import m``."""
    reads = set()
    for func in ast.walk(ast.parse(WORKER.read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        modules = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(func)
            if isinstance(node, ast.ImportFrom) and node.module == "hyploop"
            for alias in node.names
        }
        reads |= {
            (modules[node.value.id], node.attr)
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
    return sorted(reads)


READS = _hyploop_reads()


def test_the_parse_finds_the_worker_reads():
    assert {("melnikov", "NR_DEFAULT"), ("linearized", "frozen_solve"),
            ("reduction", "HyperbolicProblem"), ("cli", "main")} <= set(READS)


@pytest.mark.parametrize("module,name", READS)
def test_worker_attribute_exists(module, name):
    assert hasattr(importlib.import_module(f"hyploop.{module}"), name)
