"""The package's metadata has one value per fact."""

from pathlib import Path

import pytest

import pcgkit


def test_version_is_pyprojects():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert pcgkit.__version__ == tomllib.load(fh)["project"]["version"]
