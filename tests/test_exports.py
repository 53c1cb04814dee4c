"""The package root resolves its public names on first use; each must be
the very object its home module defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewbench


@pytest.mark.parametrize("name", skewbench.__all__)
def test_export_is_the_home_module_attribute(name):
    home = importlib.import_module(f"skewbench.{skewbench._HOMES[name]}")
    expected = home if home.__name__ == f"skewbench.{name}" else getattr(home, name)
    assert getattr(skewbench, name) is expected


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from skewbench import *", namespace)
    assert set(skewbench.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(skewbench, name) for name in skewbench.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        skewbench.no_such_name
    assert not hasattr(skewbench, "no_such_name")


def test_dir_lists_the_exports_before_first_use():
    # in a fresh process, where no export has been resolved yet
    code = "import skewbench; print(set(skewbench.__all__) <= set(dir(skewbench)))"
    env = {**os.environ, "PYTHONPATH": str(Path(skewbench.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, b"True\n")
