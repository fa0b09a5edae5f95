"""The two fast demos run end to end as scripts.

Demos 03 and 04 train models for tens of seconds each (CI runs them in
a step of their own) and 05 needs a real corpus, so they are left out; every demo's pcgkit imports are still
checked against the package, so a renamed or deleted name fails here.
"""

import ast
import importlib
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


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_imports_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "pcgkit"]
    assert imports  # the scan sees the demo's pcgkit imports
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"{node.module} has no {missing}"
