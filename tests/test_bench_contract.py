"""The names the benchmark harness in `perfbench/` looks up on the package.

The harness wraps package functions through their module attributes,
reads fields of their results and records `altproj.BACKEND`; renaming or
deleting any of them breaks every benchmark run, and so does a wrap point
that still resolves but is no longer reached (the harness checks that each
workload reaches its spans), so the suite checks them here.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import numpy as np

import altproj
from altproj import cli, counterexample, euclid, finite_union, map_driver, sequence, spiral  # noqa: F401  (wrap targets)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, path", [point[:2] for point in _load(TRACER).WRAP_POINTS])
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
    tracer = _load(TRACER)
    cloud = euclid.PointCloud([[0.0, 0.0], [0.6, 0.0]])
    for q, tie in (([0.3, 0.0], 1), ([0.9, 0.0], 0)):
        res = cloud.project(q)
        assert tracer._multivalued((cloud, q), res, None) == {"euclid.project.multivalued": tie}
    config = map_driver.MapConfig(cloud, euclid.PointCloud([[0.3, 0.0], [0.9, 0.0]]),
                                  np.array([0.9, 0.0]), max_iter=5)
    trace = map_driver.run(config)
    assert tracer._map_run((config,), trace, None) == {
        "map_driver.iterations": 5, "map_driver.multivalued_events": 5}


def test_verify_reaches_its_wrap_points(monkeypatch):
    # `cli` calls `run_verification` and `sequence` calls its checks through
    # module globals, so the tracer's wrappers on those attributes are reached
    calls = {}
    for module, name in ((cli, "run_verification"), (sequence, "check_halfangle_identity"),
                         (sequence, "verify_nearest")):
        original = getattr(module, name)

        def spy(*args, _key=f"{module.__name__}.{name}", _original=original, **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    assert cli.main(["verify", "--horizon", "3"]) == 0
    assert calls == {"altproj.cli.run_verification": 1,
                     "altproj.sequence.check_halfangle_identity": 1,
                     "altproj.sequence.verify_nearest": 1}


def _spy(monkeypatch, spans) -> dict:
    """Count the calls of each span through the attribute the tracer wraps;
    the returned dict maps span name to calls so far."""
    points = {point[2]: point[:2] for point in _load(TRACER).WRAP_POINTS}
    calls = {}
    for span in spans:
        module_name, path = points[span]
        owner = getattr(altproj, module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = getattr(owner, attr)

        def spy(*args, _key=span, _original=original, **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, spy)
    return calls


def test_union_batch_reaches_its_wrap_points(monkeypatch, tmp_path):
    # `run_batch` reaches the scenario spans through `finite_union`'s globals,
    # `check_theorem` the driver through `map_driver.run`, and every MAP step
    # goes through `ProjectorSpec.project`, the tracer's one projection span
    calls = _spy(monkeypatch, ("finite_union.generate_scenario", "finite_union.check_theorem",
                               "map_driver.run", "euclid.project"))
    out = tmp_path / "batch.jsonl"
    assert cli.main(["union-batch", "--seeds", "3", "--dim", "3", "--members", "4",
                     "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3
    assert calls.pop("euclid.project") >= 2 * 3  # two per MAP iteration, one or more each
    assert calls == {"finite_union.generate_scenario": 3, "finite_union.check_theorem": 3,
                     "map_driver.run": 3}


def test_counterexample_run_reaches_its_wrap_points(monkeypatch, tmp_path):
    # the workload's set-up `export-sets` reaches the sequence, the sets and
    # `config_to_dict` through module globals, and its `run` the reader, the
    # driver, the projections and the trace writer
    spans = _load(WORKLOADS).CounterexampleRun.reached
    calls = _spy(monkeypatch, spans)
    config, trace = tmp_path / "config.json", tmp_path / "trace.json"
    assert cli.main(["export-sets", "--horizon", "200", "--stop-step", "1e-5",
                     "--out", str(config)]) == 0
    assert cli.main(["run", "--config", str(config), "--trace-out", str(trace)]) == 0
    assert set(calls) == set(spans)
    assert calls.pop("spiral.alpha_chain") >= 1 and calls.pop("euclid.project") >= 2
    assert calls == {"cli.main": 2, "sequence.generate": 1, "counterexample.build": 1,
                     "map_driver.config_to_dict": 1, "map_driver.config_from_dict": 1,
                     "map_driver.run": 1, "map_driver.trace_to_json": 1}


@pytest.mark.parametrize("module", [altproj, counterexample, euclid, finite_union, map_driver,
                                    sequence, spiral], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
