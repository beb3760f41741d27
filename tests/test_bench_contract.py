"""The names the benchmark harness in `perfbench/` looks up on the package.

The harness wraps package functions through their module attributes and
records `altproj.BACKEND`; renaming or deleting any of them breaks every
benchmark run, so the suite checks them here.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import numpy as np

import altproj
from altproj import cli, counterexample, finite_union, sequence, spiral  # noqa: F401  (wrap targets)

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


def test_verify_nearest_takes_the_horizon_second():
    # the tracer reads the nearest-point horizon from the second positional argument
    params = list(inspect.signature(sequence.verify_nearest).parameters)
    assert params[:2] == ["report", "horizon"]


def test_write_csv_takes_the_stream_second():
    # the tracer counts bytes written through `args[1].tell()`
    params = list(inspect.signature(sequence.write_csv).parameters)
    assert params[:2] == ["report", "stream"]


def test_alpha_chain_returns_angles_and_flag():
    # the tracer counts steps as `result[0].size - 1`
    angles, stopped = spiral.alpha_chain(0.0, 3)
    assert isinstance(angles, np.ndarray) and angles.size == 3
    assert isinstance(stopped, bool)
