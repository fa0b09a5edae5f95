"""The package's metadata has one value per fact, and each name one
spelling: the module that defines it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcgkit

ROOT = Path(__file__).resolve().parent.parent


def test_version_is_pyprojects():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    pyproject = ROOT / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert pcgkit.__version__ == tomllib.load(fh)["project"]["version"]


def test_a_module_loads_only_what_it_uses():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    code = ("import sys, pcgkit.windows; print(' '.join(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'pcgkit')))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["pcgkit", "pcgkit.errors",
                                     "pcgkit.windows"]
