import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import altproj
from altproj import sequence
from altproj.cli import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from altproj.map_driver import config_from_dict
from altproj.sequence import SequenceReport, run_verification

TWO_BOX_CONFIG = {
    "A": {"type": "box", "min": [0.0, 0.0], "max": [1.0, 1.0]},
    "B": {"type": "box", "min": [1.0, 0.0], "max": [2.0, 1.0]},
    "start": [3.0, 0.5],
    "max_iter": 50,
}


def test_gen_csv(tmp_path):
    out = tmp_path / "seq.csv"
    assert main(["gen", "--n", "16", "--out", str(out), "--format", "csv"]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,alpha,delta,rho,eps,x,y"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert float(first[5]) == 2.0 and float(first[6]) == 0.0
    assert lines[-1].split(",")[2] == ""


def test_gen_single_row(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["gen", "--n", "1", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[1].split(",")[2] == ""


def test_gen_json(tmp_path):
    out = tmp_path / "seq.json"
    assert main(["gen", "--n", "16", "--format", "json", "--out", str(out)]) == EXIT_OK
    objs = json.loads(out.read_text())
    assert len(objs) == 16
    assert objs[0]["x"] == [2.0, 0.0]
    assert objs[-1]["delta"] is None


def test_gen_to_stdout(capsys):
    assert main(["gen", "--n", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,alpha,delta,rho,eps,x,y"
    assert len(lines) == 3


def test_gen_io_error(tmp_path):
    assert main(["gen", "--n", "2", "--out", str(tmp_path)]) == EXIT_IO


def test_gen_large_horizon_completes(tmp_path):
    out = tmp_path / "large.csv"
    assert main(["gen", "--n", "100000", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 100_001
    last = lines[-1].split(",")
    assert last[0] == "99999"
    assert last[2] == ""
    assert float(last[1]) > 10.0  # logarithmic growth regime


def test_verify_passes(capsys):
    assert main(["verify", "--horizon", "60"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS nearest-point" in out
    assert "FAIL" not in out


def test_verify_checks_every_iterate_by_default(capsys):
    assert main(["verify", "--horizon", "3000"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    nearest = [line for line in lines if line.startswith("PASS nearest-point: ")]
    assert len(nearest) == 1
    assert nearest[0].endswith(" at horizon 2999")


def test_verify_degenerate_horizon(capsys):
    assert main(["verify", "--horizon", "2"]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_verify_rejects_tiny_horizon():
    assert main(["verify", "--horizon", "1"]) == EXIT_USAGE


def _corrupted(report):
    pts = report.points().copy()
    pts[7] = [1.7, 0.4]
    return SequenceReport(report.alphas().copy(), report.rhos().copy(),
                          report.epss().copy(), pts, False)


def test_run_verification_names_corrupted_check(report_300):
    results = run_verification(_corrupted(report_300), nearest_horizon=50)
    failed = {r.name for r in results if not r.passed}
    assert "step-identity" in failed


def test_verify_cli_exits_nonzero_on_corruption(monkeypatch, capsys, report_300):
    corrupt = _corrupted(report_300)
    monkeypatch.setattr(sequence, "generate", lambda n: corrupt)
    assert main(["verify", "--horizon", "300"]) == EXIT_CHECK_FAILED
    assert "FAIL step-identity" in capsys.readouterr().out


def test_verify_reports_a_nearer_sphere_as_failed_checks(monkeypatch, capsys, report_300):
    assert main(["verify", "--horizon", "300"]) == EXIT_OK
    names = [line.split(":")[0].split()[1] for line in capsys.readouterr().out.splitlines()]
    epss = report_300.epss().copy()
    epss[100] = 1.0  # the unit sphere is nearer than this step size
    bad = SequenceReport(report_300.alphas().copy(), report_300.rhos().copy(), epss,
                         report_300.points().copy(), False)
    monkeypatch.setattr(sequence, "generate", lambda n: bad)
    assert main(["verify", "--horizon", "300"]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line.split(":")[0].split()[1] for line in lines] == names
    assert any(line.startswith("FAIL sphere-never-nearer: ") for line in lines)
    assert any(line.startswith("FAIL nearest-point: ") and line.endswith("iterate 100")
               for line in lines)
    # iterate 100 lies past a nearest horizon of 50, so only the sphere check fails there
    assert main(["verify", "--horizon", "300", "--nearest-horizon", "50"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL sphere-never-nearer: ") for line in lines)
    assert any(line.startswith("PASS nearest-point: ") for line in lines)


def test_verify_rejects_negative_nearest_horizon(capsys):
    assert main(["verify", "--horizon", "10", "--nearest-horizon", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --nearest-horizon must be >= 0\n"


def test_run_two_boxes(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TWO_BOX_CONFIG))
    trace_out = tmp_path / "trace.json"
    code = main(["run", "--config", str(config), "--trace-out", str(trace_out)])
    assert code == EXIT_OK
    assert "converged_to_point" in capsys.readouterr().out
    obj = json.loads(trace_out.read_text())
    assert obj["verdict"]["limit"] == [1.0, 0.5]
    assert obj["a"][0] == [1.0, 0.5]


def test_run_malformed_json(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text("{not json")
    assert main(["run", "--config", str(config), "--trace-out", "-"]) == EXIT_USAGE


def test_run_missing_config():
    assert main(["run", "--config", "/nonexistent/config.json"]) == EXIT_IO


def test_run_bad_schema(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"A": {"type": "ball", "center": [0, 0], "radius": 1.0},
                                  "B": {"type": "ball", "center": [0, 0], "radius": 1.0},
                                  "start": [0, 0], "bogus": True}))
    assert main(["run", "--config", str(config), "--trace-out", "-"]) == EXIT_USAGE


def test_run_one_dimensional_config(tmp_path, capsys):
    # a 1-D tail has no angles: the continuum verdict carries no angular spread
    config = tmp_path / "line.json"
    config.write_text(json.dumps({
        "A": {"type": "points", "coords": [[0.0], [0.6]]},
        "B": {"type": "points", "coords": [[0.3], [0.9]]},
        "start": [0.9],
        "stop_step": 1e-3,
        "max_iter": 20,
    }))
    trace_out = tmp_path / "trace.json"
    assert main(["run", "--config", str(config), "--trace-out", str(trace_out)]) == EXIT_OK
    assert "angular_spread" not in capsys.readouterr().out
    verdict = json.loads(trace_out.read_text())["verdict"]
    assert verdict["iterations_used"] == 20
    assert "angular_spread" not in verdict


_STRICT_CASES = {
    "nan-constant": '"stop_step": NaN',
    "infinity-constant": '"stop_step": Infinity',
    "overflowing-stop-step": '"stop_step": 1e999',
    "fractional-max-iter": '"max_iter": 2.9',
    "bool-max-iter": '"max_iter": true',
    "bool-stop-step": '"stop_step": false',
    "zero-tie-tol": '"tie_tol": 0.0',
    "overflowing-tie-tol": '"tie_tol": 1e999',
    "string-tie-tol": '"tie_tol": "1e-9"',
}


@pytest.mark.parametrize("field", list(_STRICT_CASES.values()), ids=list(_STRICT_CASES))
def test_run_rejects_non_strict_numbers(tmp_path, capsys, field):
    config = tmp_path / "strict.json"
    config.write_text('{"A": {"type": "box", "min": [0.0], "max": [1.0]}, '
                      '"B": {"type": "box", "min": [1.0], "max": [2.0]}, '
                      '"start": [3.0], ' + field + "}")
    assert main(["run", "--config", str(config), "--trace-out", "-"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


_MALFORMED_SETS = {
    "null-radius": ("A", {"type": "sphere", "center": [0.0, 0.0], "radius": None}),
    "list-offset": ("A", {"type": "halfspace", "normal": [1.0, 0.0], "offset": [1]}),
    "object-endpoint": ("A", {"type": "segment", "a": [0.0, 0.0], "b": {"x": 1}}),
    "object-start": ("start", {"x": 1}),
    "string-radius": ("A", {"type": "ball", "center": [0.0, 0.0], "radius": "1"}),
    "string-center": ("A", {"type": "ball", "center": ["0", "0"], "radius": 1.0}),
    "bool-coords": ("B", {"type": "points", "coords": [[True, False]]}),
    "ragged-coords": ("B", {"type": "points", "coords": [[1.0, 0.0], [1.0]]}),
    "list-type": ("B", {"type": ["box"], "min": [1.0, 0.0], "max": [2.0, 1.0]}),
}


@pytest.mark.parametrize("key, value", list(_MALFORMED_SETS.values()), ids=list(_MALFORMED_SETS))
def test_run_rejects_malformed_set_fields(tmp_path, capsys, key, value):
    config = tmp_path / "malformed.json"
    config.write_text(json.dumps({**TWO_BOX_CONFIG, key: value}))
    assert main(["run", "--config", str(config), "--trace-out", "-"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: config.{key}")


# A valid config with every set type; each fuzz case replaces one field of it.
_FUZZ_BASE = {
    "A": {"type": "union", "members": [
        {"type": "points", "coords": [[2.0, 0.0], [0.0, 2.0]]},
        {"type": "sphere", "center": [0.0, 0.0], "radius": 1.0},
        {"type": "segment", "a": [3.0, 0.0], "b": [3.0, 1.0]},
        {"type": "halfspace", "normal": [0.0, 1.0], "offset": -5.0},
    ]},
    "B": {"type": "union", "members": [
        {"type": "ball", "center": [0.0, 0.0], "radius": 0.5},
        {"type": "box", "min": [4.0, 4.0], "max": [5.0, 5.0]},
    ]},
    "start": [3.0, 0.5],
    "max_iter": 5,
    "stop_step": 1e-12,
    "tie_policy": "lowest_index",
    "tie_tol": 1e-9,
}


def _field_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _field_paths(value, path + (key,))
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        for i, value in enumerate(node):
            yield path + (i,)
            yield from _field_paths(value, path + (i,))


_FUZZ_PATHS = list(_field_paths(_FUZZ_BASE))
_FUZZ_VALUES = [None, "1", "", True, False, [], [1.0], [[1.0, 2.0]], {}, {"x": 1},
                [[1.0, 2.0], [1.0]], [1.0, [2.0]], [None, 1.0], ["0", "0"], 0, -1.0]


@given(path=st.sampled_from(_FUZZ_PATHS), value=st.sampled_from(_FUZZ_VALUES))
@settings(max_examples=300, deadline=None)
def test_fuzz_rejected_configs_exit_2_with_one_line(path, value):
    data = copy.deepcopy(_FUZZ_BASE)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        config_from_dict(data)
    except ValueError:
        pass
    else:
        return  # accepted: nothing to check
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(data))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(config), "--trace-out", "-"])
    assert code == EXIT_USAGE
    assert out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1


def test_run_degenerate_projection(tmp_path):
    config = tmp_path / "degenerate.json"
    config.write_text(json.dumps({
        "A": {"type": "sphere", "center": [0.0, 0.0], "radius": 1.0},
        "B": {"type": "box", "min": [-2.0, -2.0], "max": [2.0, 2.0]},
        "start": [0.0, 0.0],
        "max_iter": 3,
    }))
    assert main(["run", "--config", str(config), "--trace-out", "-"]) == EXIT_CHECK_FAILED


def test_run_tie_error_policy(tmp_path):
    config = tmp_path / "tie.json"
    config.write_text(json.dumps({
        "A": {"type": "points", "coords": [[0.0, 1.0], [0.0, -1.0]]},
        "B": {"type": "box", "min": [-1.0, -1.0], "max": [1.0, 1.0]},
        "start": [2.0, 0.0],
        "max_iter": 3,
        "tie_policy": "error",
    }))
    assert main(["run", "--config", str(config), "--trace-out", "-"]) == EXIT_CHECK_FAILED


def test_plot_svg(tmp_path):
    out = tmp_path / "figure.svg"
    assert main(["plot", "--n", "16", "--out", str(out)]) == EXIT_OK
    root = ET.fromstring(out.read_text())
    markers = [el for el in root.iter() if el.get("class") == "iterate"]
    assert len(markers) == 16
    report = sequence.generate(16)
    pts = report.points()
    for i, el in enumerate(markers):
        assert float(el.get("cx")) == pts[i, 0]
        assert float(el.get("cy")) == pts[i, 1]
    radii = [el for el in root.iter() if el.get("class") == "step-radius"]
    assert len(radii) == 16
    assert float(radii[0].get("r")) == report.epss()[0]


def test_plot_minimal(tmp_path):
    out = tmp_path / "two.svg"
    assert main(["plot", "--n", "2", "--out", str(out)]) == EXIT_OK
    ET.fromstring(out.read_text())


def test_plot_rejects_single_point():
    assert main(["plot", "--n", "1", "--out", "-"]) == EXIT_USAGE


def test_export_sets_then_run(tmp_path, capsys):
    config = tmp_path / "sets.json"
    assert main(["export-sets", "--horizon", "2000", "--out", str(config)]) == EXIT_OK
    obj = json.loads(config.read_text())
    assert obj["A"]["type"] == "union"
    assert obj["start"] == [2.0, 0.0]
    assert obj["max_iter"] == 999
    assert obj["tie_tol"] == 1e-9  # successive step gaps stay above 1e-8 here
    capsys.readouterr()
    trace_out = tmp_path / "trace.json"
    assert main(["run", "--config", str(config), "--trace-out", str(trace_out)]) == EXIT_OK
    assert "continuum_suspected" in capsys.readouterr().out


def test_export_sets_disk_variant(tmp_path):
    config = tmp_path / "disk.json"
    assert main(["export-sets", "--horizon", "100", "--variant", "disk",
                 "--pairs", "10", "--out", str(config)]) == EXIT_OK
    obj = json.loads(config.read_text())
    assert obj["A"]["members"][1]["type"] == "ball"
    assert obj["max_iter"] == 10


def test_export_sets_rejects_unsafe_pairs(tmp_path):
    assert main(["export-sets", "--horizon", "100", "--pairs", "50",
                 "--out", str(tmp_path / "x.json")]) == EXIT_USAGE


def test_union_batch(tmp_path, capsys):
    out = tmp_path / "batch.jsonl"
    code = main(["union-batch", "--seeds", "5", "--dim", "2", "--out", str(out)])
    assert code == EXIT_OK
    summary = capsys.readouterr().out
    assert "fail=0" in summary
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5
    first_run = [json.loads(line) for line in lines]

    out2 = tmp_path / "batch2.jsonl"
    assert main(["union-batch", "--seeds", "5", "--dim", "2", "--out", str(out2)]) == EXIT_OK
    assert out.read_text() == out2.read_text()
    assert [o["seed"] for o in first_run] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_union_batch_rejects_bad_tol(tmp_path, capsys, tol):
    out = tmp_path / "batch.jsonl"
    code = main(["union-batch", "--seeds", "2", "--tol", tol, "--out", str(out)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "--tol" in captured.err
    assert not out.exists()


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs about 1.6 MB of resident memory once imported (np.unique
    # imports it); a fresh interpreter is needed because the test session may
    # already hold it.
    src = str(Path(altproj.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from altproj.cli import main\n"
        "for argv in (['gen', '--n', '300', '--out', 'seq.csv'],\n"
        "             ['gen', '--n', '30', '--format', 'json', '--out', 'seq.json'],\n"
        "             ['verify', '--horizon', '300'],\n"
        "             ['export-sets', '--horizon', '300', '--out', 'sets.json'],\n"
        "             ['run', '--config', 'sets.json', '--trace-out', 'trace.json'],\n"
        "             ['union-batch', '--seeds', '20', '--out', 'batch.jsonl']):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'numpy.ma' not in sys.modules, f'numpy.ma was imported by {argv}'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
