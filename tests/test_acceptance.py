"""End-to-end acceptance checks at desk scale.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Horizon-10^4 and 10^5 sequence reports are shared
session-wide; everything below re-verifies the library's claims at their
stated tolerances.
"""

import contextlib
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from altproj import cli, counterexample, finite_union, map_driver, sequence
from altproj.counterexample import VARIANT_DISK, VARIANT_SPHERE, build, run_corollary
from altproj.finite_union import OUTCOME_FAIL, OUTCOME_PASS, check_theorem, generate_scenario
from altproj.map_driver import MapConfig, max_circular_gap

TWO_PI = 2.0 * math.pi


@contextlib.contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL: {title}")
        raise
    print(f"[criterion {num:2d}] PASS: {title}")


@pytest.fixture(scope="module")
def sphere_trace_2000(report_10k):
    sets = build(2000, VARIANT_SPHERE, report_10k)
    return run_corollary(sets, 500)


def test_c01_initialization_exactness(report_10k):
    with criterion(1, "initialization exactness"):
        x0 = report_10k.points[0]
        assert x0[0] == 2.0 and x0[1] == 0.0
        eps0 = report_10k.epss[0]
        assert abs(eps0 - (1.0 - math.exp(-TWO_PI)) / 2.0) <= 1e-15


def test_c02_step_identity(report_10k):
    with criterion(2, "step identity and half-angle identity at horizon 1e4"):
        assert len(report_10k) == 10_000
        assert sequence.check_step_identity(report_10k) <= 1e-10
        half = sequence.check_halfangle_identity(report_10k)
        assert half.raw <= 1e-10
        assert half.scaled <= 1e-10


def test_c03_bracket_conformance(report_100k):
    with criterion(3, "every step angle in (0, 40 degrees] at horizon 1e5"):
        assert len(report_100k) == 100_000
        deltas = report_100k.deltas
        bound = 40.0 * math.pi / 180.0
        assert np.all(deltas > 0.0)
        assert np.all(deltas <= bound)


def test_c04_nearest_point_property(report_10k):
    with criterion(4, "exact nearest-point property at horizons 2000 and 9999"):
        margin = sequence.verify_nearest(report_10k, 2000)
        assert margin > 0.0
        sphere_margin = np.exp(-report_10k.alphas) - report_10k.epss
        assert np.all(sphere_margin > 0.0)
        full = sequence.verify_nearest(report_10k, 9999)
        assert 0.0 < full <= margin


def test_c05_monotonicity_and_divergence(report_10k, report_100k):
    with criterion(5, "monotone steps, telescoping, unbounded partial sums"):
        assert np.all(np.diff(report_100k.epss) < 0.0)
        alphas = report_100k.alphas
        assert abs(math.fsum(report_100k.deltas.tolist()) - (alphas[-1] - alphas[0])) <= 1e-10
        growth = (math.fsum(report_100k.epss[:-1].tolist())
                  - math.fsum(report_10k.epss[:-1].tolist()))
        assert growth > 1.0
        assert report_100k.epss[-1] < 1e-3


def test_c06_corollary_reproduction(report_10k, sphere_trace_2000):
    with criterion(6, "alternating projections retrace the sequence, disk variant identical"):
        assert len(sphere_trace_2000.a) == 500  # run_corollary verified indices
        disk_trace = run_corollary(build(2000, VARIANT_DISK, report_10k), 500)
        for p, q in zip(sphere_trace_2000.a, disk_trace.a):
            assert np.array_equal(p, q)
        for p, q in zip(sphere_trace_2000.b, disk_trace.b):
            assert np.array_equal(p, q)
        assert np.array_equal(sphere_trace_2000.step_ab, disk_trace.step_ab)
        assert np.array_equal(sphere_trace_2000.step_ba, disk_trace.step_ba)


def _even_iterate_angles(report, horizon: int) -> np.ndarray:
    # a-iterates of a truncation-safe full run at `horizon`: indices 0, 2, ...
    pairs = counterexample.max_safe_pairs(horizon)
    pts = report.points[0:2 * (pairs - 1) + 1:2]
    return np.arctan2(pts[:, 1], pts[:, 0])


def _trace_angles(trace) -> np.ndarray:
    pts = trace.a
    return np.arctan2(pts[:, 1], pts[:, 0])


def test_c07_cluster_set_surrogate(report_10k, report_100k, sphere_trace_2000):
    with criterion(7, "iterate radii track exp(-alpha); angular gaps shrink with horizon"):
        alphas = report_10k.alphas
        for n, a in enumerate(sphere_trace_2000.a):
            gap = abs(float(np.linalg.norm(a)) - 1.0)
            assert abs(gap - math.exp(-alphas[2 * n])) <= 1e-12
        # actual full-horizon runs at 1e4 and 1e5 reproduce the predicted
        # a-iterates bitwise (run_corollary checks every index), so their gap
        # statistics equal the predictions exactly
        pairs_10k = counterexample.max_safe_pairs(10_000)
        trace_10k = run_corollary(build(10_000, VARIANT_SPHERE, report_10k), pairs_10k)
        actual_gap_10k = max_circular_gap(_trace_angles(trace_10k))
        predicted_gap_10k = max_circular_gap(_even_iterate_angles(report_10k, 10_000))
        assert actual_gap_10k == predicted_gap_10k
        gap_100k = max_circular_gap(_even_iterate_angles(report_100k, 100_000))
        assert gap_100k < predicted_gap_10k
        pairs_100k = counterexample.max_safe_pairs(100_000)
        trace_100k = run_corollary(build(100_000, VARIANT_SPHERE, report_100k), pairs_100k)
        assert len(trace_100k.a) == pairs_100k == 49_999
        assert trace_100k.multivalued_events == []
        actual_gap_100k = max_circular_gap(_trace_angles(trace_100k))
        assert actual_gap_100k == gap_100k


def test_c08_figure_reproduction(tmp_path):
    with criterion(8, "SVG marker coordinates equal the generated iterates"):
        out = tmp_path / "spiral.svg"
        assert cli.main(["plot", "--n", "16", "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text())  # well-formed XML
        markers = [el for el in root.iter() if el.get("class") == "iterate"]
        assert len(markers) == 16
        pts = sequence.generate(16).points
        for i, el in enumerate(markers):
            assert float(el.get("cx")) == pts[i, 0]
            assert float(el.get("cy")) == pts[i, 1]


def test_c09_finite_union_theorem():
    with criterion(9, "200 seeded finite-union scenarios: zero failures"):
        outcomes = []
        for seed in range(100):
            outcomes.append(finite_union.classify(
                check_theorem(generate_scenario(seed, dim=2, members_per_side=4), tol=1e-8)))
        for seed in range(100, 200):
            outcomes.append(finite_union.classify(
                check_theorem(generate_scenario(seed, dim=3, members_per_side=4), tol=1e-8)))
        assert len(outcomes) == 200
        assert outcomes.count(OUTCOME_FAIL) == 0
        passed = outcomes.count(OUTCOME_PASS)
        print(f"    finite-union outcomes: {passed} pass, "
              f"{200 - passed - outcomes.count(OUTCOME_FAIL)} hypotheses-not-met")
        assert passed >= 150  # the harness must exercise the conclusion, not skip it


def test_c10_outside_starts_join_even_tail(report_10k):
    with criterion(10, "outside starts join the even tail; circle starts are constant"):
        horizon = 10_000
        sets = build(horizon, VARIANT_SPHERE, report_10k)
        pts = report_10k.points
        evens = pts[0:horizon:2]
        # Any finite truncation leaves a thin annulus just outside the circle
        # where the deepest available turn at the start's angle still loses to
        # the sphere; at this horizon the layer ends near gap 0.07, so norms
        # are drawn from [1.1, 4].
        rng = np.random.default_rng(415926)
        pairs = 10
        for _ in range(100):
            theta = rng.uniform(0.0, TWO_PI)
            radius = rng.uniform(1.1, 4.0)
            start = radius * np.array([math.cos(theta), math.sin(theta)])
            trace = map_driver.run(MapConfig(sets.set_a, sets.set_b, start,
                                             max_iter=pairs, stop_step=0.0))
            matches = np.flatnonzero((evens == trace.a[0]).all(axis=1))
            assert matches.size == 1, "first projection must be an even iterate"
            m = int(matches[0])
            assert 2 * (m + pairs) + 1 < horizon - 2
            for k in range(len(trace.a)):
                assert np.array_equal(trace.a[k], pts[2 * (m + k)])
                assert np.array_equal(trace.b[k], pts[2 * (m + k) + 1])
        for start in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]):
            trace = map_driver.run(MapConfig(sets.set_a, sets.set_b, start,
                                             max_iter=5, stop_step=0.0))
            for a, b in zip(trace.a, trace.b):
                assert np.array_equal(a, start)
                assert np.array_equal(b, start)
        for theta in np.linspace(0.4, 6.0, 8).tolist():
            start = np.array([math.cos(theta), math.sin(theta)])
            trace = map_driver.run(MapConfig(sets.set_a, sets.set_b, start,
                                             max_iter=5, stop_step=0.0))
            for a, b in zip(trace.a, trace.b):
                assert np.linalg.norm(a - start) <= 1e-12
                assert np.linalg.norm(b - start) <= 1e-12
