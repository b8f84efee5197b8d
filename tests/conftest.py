"""Shared test setup.

`tests/test_cli.py` and criterion 8 run `python -m taucat.cli` in a
subprocess; putting src/ on its PYTHONPATH lets a bare `python -m pytest`
(pyproject.toml puts src/ on the test process's own path) run them too.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _subprocesses_import_src(monkeypatch):
    paths = [SRC, os.environ.get("PYTHONPATH")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
