"""tools/same_outputs.py finds no difference between a checkout and itself, and finds one.

The tool is loaded from its file, as ``test_bench_record.py`` loads its tool.
"""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("same_outputs", _ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)

CASE = ["--case", "kernel --k 2 --n-samples 8"]


def test_a_checkout_matches_itself(capsys):
    assert same_outputs.main([str(_ROOT), str(_ROOT), *CASE]) == 0
    assert capsys.readouterr().out == "no difference in 1 commands of 1 cases\n"


def test_a_different_output_is_reported(tmp_path, capsys):
    # a stand-in package whose command line prints an empty report and no summary
    package = tmp_path / "src" / "hyploop"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("import sys\nsys.stdout.write('{}')\n")
    assert same_outputs.main([str(_ROOT), str(tmp_path), *CASE]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("kernel --k 2 --n-samples 8: `kernel --k 2 --n-samples 8`: "
                               "stdout differs")
    assert any("stderr differs" in line for line in lines)
