"""The benchmark's tracer (perfbench/tracing.py) finds everything it wraps.

The tracer looks up functions and methods by name; a rename in the program
would otherwise show only when the benchmark itself runs.  The file is
imported read-only: nothing is installed or patched.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module,name", [(m, f) for m, f, *_ in tracing.TARGETS])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"hyploop.{module}"), name, None))


@pytest.mark.parametrize("module,cls,method", [(m, c, f) for m, c, f, _ in tracing.METHODS])
def test_traced_method_is_in_its_own_class_body(module, cls, method):
    owner = getattr(importlib.import_module(f"hyploop.{module}"), cls)
    assert callable(vars(owner).get(method))
