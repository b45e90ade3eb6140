"""The examples that live outside the tests: module doctests and the demos."""

import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fcpm

# importing fcpm.__main__ would run the command line (it holds no doctests)
MODULES = sorted(info.name for info in pkgutil.iter_modules(fcpm.__path__, "fcpm.")
                 if info.name != "fcpm.__main__")
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    src = str(Path(fcpm.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                       env=env, timeout=120)
    assert r.returncode == 0, r.stderr
