"""The bench tracer binds ``skewbench`` functions by name, so a rename would
silently zero the per-layer metrics that read them.  Every name it binds must
resolve to a function of its module."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bound_names() -> list[str]:
    sys.path.insert(0, str(BENCH))
    try:
        layers = importlib.import_module("layers")
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))
    return sorted(set(layers.FUNCTIONS) | set(tracer.PRE) | set(tracer.POST))


@pytest.mark.parametrize("name", _bound_names())
def test_bound_name_is_a_function(name):
    module, attr = name.split(".")
    fn = getattr(importlib.import_module(f"skewbench.{module}"), attr, None)
    assert inspect.isfunction(fn), name
    assert fn.__module__ == f"skewbench.{module}", name
