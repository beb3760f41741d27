"""The names the benchmark harness in `perfbench/` looks up on the package.

The harness wraps package functions through their module attributes,
reads fields of their results and records `altproj.BACKEND`; renaming or
deleting any of them breaks every benchmark run, so the suite checks them
here.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import numpy as np

import altproj
from altproj import cli, counterexample, euclid, finite_union, map_driver, sequence, spiral  # noqa: F401  (wrap targets)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("module_name, path", [point[:2] for point in _tracer().WRAP_POINTS])
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


def test_tracer_hooks_read_real_results():
    # the after-hooks of `ProjectorSpec.project` and `map_driver.run` read
    # fields of the results; run them on real ones
    tracer = _tracer()
    cloud = euclid.PointCloud([[0.0, 0.0], [0.6, 0.0]])
    for q, tie in (([0.3, 0.0], 1), ([0.9, 0.0], 0)):
        res = cloud.project(q)
        assert tracer._multivalued((cloud, q), res, None) == {"euclid.project.multivalued": tie}
    config = map_driver.MapConfig(cloud, euclid.PointCloud([[0.3, 0.0], [0.9, 0.0]]),
                                  np.array([0.9, 0.0]), max_iter=5)
    trace = map_driver.run(config)
    assert tracer._map_run((config,), trace, None) == {
        "map_driver.iterations": 5, "map_driver.multivalued_events": 5}
