"""The two fast demos run end to end as scripts.

Demos 03 and 04 train models for tens of seconds each and are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_window_diagnostics.py",
                                  "02_preprocess_and_features.py"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
