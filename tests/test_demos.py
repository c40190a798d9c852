"""Every script in demos/ runs to completion against the library as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyploop

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(script, tmp_path):
    # a fresh working directory takes the files that some demos write
    env = dict(os.environ, PYTHONPATH=str(Path(hyploop.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
