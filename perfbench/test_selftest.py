"""Tiny-size self-test of the benchmark harness (gen 200, horizon 200, 20 seeds).

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_selftest.py
Timings are never asserted; only that every metric is emitted, outputs
pass their checks, and the traced-run guard holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import LAYER_UNITS, WORKLOADS  # noqa: E402

END_TO_END = {"setup_s", "command_norm_s", "peak_rss_mb"}
COMMANDS = {"spiral-walk": {"gen_s", "verify_s"}, "counterexample-run": {"run_s"},
            "union-batch": {"union_batch_s"}}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def _results(stdout: str):
    lines = stdout.splitlines()
    details = [json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: ")]
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(details) == len(results) == len(WORKLOADS)
    assert json.loads(lines[-1]) == results[-1]
    return details, results


@pytest.mark.parametrize("trace", ["0", "1"])
def test_all_workloads_emit_every_metric(trace):
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    details, results = _results(proc.stdout)
    for detail, result in zip(details, results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert detail["error_fraction"] == 0.0
        assert detail["env"]["backend"] and detail["env"]["numpy"] and detail["env"]["nproc"]
        metrics = result["metrics"]
        if trace == "0":
            assert set(metrics) == END_TO_END
            assert all(m["value"] > 0 for m in metrics.values())
            names = COMMANDS[detail["workload"]]
            expected = names | {n[:-2] + "_norm_s" for n in names}
            assert set(detail["figures"]) == expected | {"setup_wall_s", "command_wall_s",
                                                      "error_fraction"}
        else:
            assert set(metrics) == set(LAYER_UNITS)
            assert detail["guard_errors"] == []


def test_tracer_self_time_and_counts():
    sys.path.insert(0, str(ROOT / "src"))
    import altproj
    from altproj import cli, counterexample, finite_union  # noqa: F401
    from tracer import Tracer

    originals = (altproj.sequence.generate, altproj.euclid.ProjectorSpec.__dict__["project"])
    tracer = Tracer()
    tracer.install(altproj)
    try:
        altproj.sequence.generate(50)
    finally:
        tracer.uninstall()
    assert tracer.calls["sequence.generate"] == tracer.calls["spiral.alpha_chain"] == 1
    assert tracer.counts["spiral.steps"] == 49
    assert 0.0 < tracer.self_s["sequence.generate"] < tracer.total_s["sequence.generate"]
    restored = (altproj.sequence.generate, altproj.euclid.ProjectorSpec.__dict__["project"])
    assert restored == originals


def test_guard_reports_unreached_span_and_count_mismatch():
    from child import _guard
    from tracer import Tracer
    from workloads import WORKLOADS as DEFS

    first, second = Tracer(), Tracer()
    for t in (first, second):
        t.calls["cli.main"] = 1
    second.counts["spiral.steps"] = 7
    errors = _guard(DEFS["spiral-walk"], [first, second])
    assert any("spiral.alpha_chain" in e for e in errors)
    assert any("spiral.steps" in e for e in errors)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "union-batch", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
