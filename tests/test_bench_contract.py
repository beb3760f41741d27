"""The names the benchmark harness in `perfbench/` looks up on the package.

The harness wraps package functions through their module attributes and
records `altproj.BACKEND`; renaming or deleting any of them breaks every
benchmark run, so the suite checks them here.
"""

import importlib.util
from pathlib import Path

import pytest

import altproj
from altproj import cli, counterexample, finite_union  # noqa: F401  (wrap targets)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAP_POINTS


@pytest.mark.parametrize("module_name, path", [point[:2] for point in _wrap_points()])
def test_wrap_point_resolves(module_name, path):
    owner = getattr(altproj, module_name)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_backend_is_a_string():
    assert isinstance(altproj.BACKEND, str)
