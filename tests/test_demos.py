"""Smoke test: the quick demos run to completion as a user would run them.

``demos/observer_space.py`` trains the full default corpus (about half a
minute) and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["quickstart.py", "metrics_tour.py"])
def test_demo_exits_0(tmp_path, script):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
