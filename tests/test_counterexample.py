import math

import numpy as np
import pytest

from altproj import counterexample, map_driver
from altproj.counterexample import (
    VARIANT_DISK,
    VARIANT_SPHERE,
    CorollaryViolated,
    CounterexampleSets,
    build,
    make_config,
    max_safe_pairs,
    run_corollary,
    tie_tolerance,
)
from altproj.euclid import DEFAULT_TIE_TOL, Ball, PointCloud, Sphere, Union
from altproj.map_driver import MapConfig
from conftest import distance


def test_build_parity_split(report_300):
    sets = build(4, report=report_300)
    pts = report_300.points
    cloud_a, surface_a = sets.set_a.members
    cloud_b, surface_b = sets.set_b.members
    np.testing.assert_array_equal(cloud_a.points, pts[[0, 2]])
    np.testing.assert_array_equal(cloud_b.points, pts[[1, 3]])
    assert isinstance(surface_a, Sphere) and isinstance(surface_b, Sphere)
    assert sets.horizon == 4
    assert sets.variant == VARIANT_SPHERE


def test_build_disk_variant_uses_ball(report_300):
    sets = build(10, variant=VARIANT_DISK, report=report_300)
    assert isinstance(sets.set_a.members[1], Ball)


def test_build_validation(report_300):
    with pytest.raises(ValueError):
        build(1)
    with pytest.raises(ValueError):
        build(10, variant="torus")
    with pytest.raises(ValueError):
        build(301, report=report_300)
    for horizon in (10.5, True, "10"):
        with pytest.raises(ValueError, match="horizon"):
            build(horizon, report=report_300)
    for horizon in (10.0, np.int64(10)):
        assert build(horizon, report=report_300).horizon == 10


def test_max_safe_pairs():
    assert max_safe_pairs(2000) == 999
    assert 2 * max_safe_pairs(2000) + 1 <= 2000
    assert max_safe_pairs(5) == 2
    with pytest.raises(ValueError, match="horizon"):
        max_safe_pairs(10.5)
    assert max_safe_pairs(11.0) == max_safe_pairs(np.int32(11)) == 5


def test_run_corollary_reproduces_sequence(report_300):
    sets = build(300, report=report_300)
    trace = run_corollary(sets, 100)
    pts = report_300.points
    for n in range(100):
        np.testing.assert_array_equal(trace.a[n], pts[2 * n])
        np.testing.assert_array_equal(trace.b[n], pts[2 * n + 1])
    assert trace.multivalued_events == []


def test_tie_tolerance_separates_successor_from_predecessor(report_100k):
    # Past iterate ~31 600, successive step sizes differ by less than the
    # default tie tolerance.  At pair 15 818 the query a = x_31636 sees x_31635
    # and x_31637 in B within 1e-9 of each other, and the lowest index would
    # pick the predecessor.
    sets = build(40_000, report=report_100k)
    pts = report_100k.points
    q = pts[31636]
    tied = sets.set_b.project(q)
    assert tied.multivalued
    np.testing.assert_array_equal(tied.candidates[0], pts[31635])
    tol = tie_tolerance(sets)
    assert 0.0 < tol < DEFAULT_TIE_TOL
    res = sets.set_b.project(q, tol)
    assert not res.multivalued
    np.testing.assert_array_equal(res.candidates[0], pts[31637])
    assert tie_tolerance(build(300, report=report_100k)) == DEFAULT_TIE_TOL


def test_run_corollary_respects_truncation_margin(report_300):
    sets = build(300, report=report_300)
    with pytest.raises(ValueError, match="truncation edge"):
        run_corollary(sets, 150)
    run_corollary(sets, 149)


def test_make_config_respects_truncation_margin(report_300):
    sets = build(300, report=report_300)
    with pytest.raises(ValueError, match="truncation edge"):
        make_config(sets, 150, 0.0)
    with pytest.raises(ValueError, match="n_pairs must be >= 1"):
        make_config(sets, 0, 0.0)
    for n_pairs in (2.7, True, "2"):
        with pytest.raises(ValueError, match="n_pairs"):
            make_config(sets, n_pairs, 0.0)
    assert make_config(sets, 149, 0.0).max_iter == 149
    for n_pairs in (149.0, np.int64(149)):
        assert make_config(sets, n_pairs, 0.0).max_iter == 149


@pytest.mark.parametrize("which, dropped", [("A", 2), ("B", 3)])
def test_run_corollary_detects_missing_point(report_300, which, dropped):
    # drop iterate 2 from A or iterate 3 from B: the trace must leave the
    # prediction at pair 1, on that side
    pts = report_300.points
    sphere = Sphere(np.zeros(2), 1.0)
    cloud = np.delete(pts[dropped % 2:300:2], dropped // 2, axis=0)
    tampered = Union([PointCloud(cloud), sphere])
    intact = build(300, report=report_300)
    set_a, set_b = (tampered, intact.set_b) if which == "A" else (intact.set_a, tampered)
    sets = CounterexampleSets(set_a, set_b, 300, VARIANT_SPHERE, report_300)
    with pytest.raises(CorollaryViolated) as info:
        run_corollary(sets, 100)
    assert info.value.n == 1
    assert info.value.which == which


def test_disk_variant_trace_identical(report_300):
    trace_s = run_corollary(build(300, VARIANT_SPHERE, report_300), 140)
    trace_d = run_corollary(build(300, VARIANT_DISK, report_300), 140)
    assert all(np.array_equal(p, q) for p, q in zip(trace_s.a, trace_d.a))
    assert all(np.array_equal(p, q) for p, q in zip(trace_s.b, trace_d.b))
    assert np.array_equal(trace_s.step_ab, trace_d.step_ab)
    assert np.array_equal(trace_s.step_ba, trace_d.step_ba)


def test_start_on_circle_axis_points_are_exactly_constant(report_300):
    sets = build(300, report=report_300)
    for start in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]):
        trace = map_driver.run(MapConfig(sets.set_a, sets.set_b, start,
                                         max_iter=5, stop_step=0.0))
        for a, b in zip(trace.a, trace.b):
            np.testing.assert_array_equal(a, start)
            np.testing.assert_array_equal(b, start)


def test_start_on_circle_generic_points_are_constant(report_300):
    sets = build(300, report=report_300)
    for theta in np.linspace(0.3, 5.9, 10).tolist():
        start = np.array([math.cos(theta), math.sin(theta)])
        trace = map_driver.run(MapConfig(sets.set_a, sets.set_b, start,
                                         max_iter=5, stop_step=0.0))
        for a, b in zip(trace.a, trace.b):
            assert np.linalg.norm(a - start) <= 1e-12
            assert np.linalg.norm(b - start) <= 1e-12


def test_start_outside_disk_joins_even_tail(report_10k):
    # Truncation leaves a thin annulus just outside the circle where the
    # deepest available spiral turn at the start's angle is still farther than
    # the sphere; at horizon 2000 the spiral reaches angle ~6.9, so the layer
    # ends around gap ~0.35.  Norms >= 1.5 stay clear of it.
    horizon = 2000
    sets = build(horizon, report=report_10k)
    pts = report_10k.points
    evens = pts[0:horizon:2]
    rng = np.random.default_rng(77)
    for _ in range(20):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(1.5, 4.0)
        start = radius * np.array([math.cos(theta), math.sin(theta)])
        trace = map_driver.run(MapConfig(sets.set_a, sets.set_b, start,
                                         max_iter=5, stop_step=0.0))
        matches = np.flatnonzero((evens == trace.a[0]).all(axis=1))
        assert matches.size == 1, "first projection must land on an even iterate"
        m = int(matches[0])
        assert 2 * (m + len(trace.a)) + 1 < horizon - 2
        for k in range(len(trace.a)):
            np.testing.assert_array_equal(trace.a[k], pts[2 * (m + k)])
            np.testing.assert_array_equal(trace.b[k], pts[2 * (m + k) + 1])


def test_start_inside_disk_does_not_crash(report_300):
    # no claim is asserted for starts strictly inside the unit disk (other
    # than clean execution); observed behaviour is surface-dominated
    sets = build(300, report=report_300)
    for start in ([0.5, 0.2], [-0.3, 0.4], [0.0, 0.9]):
        trace = map_driver.run(MapConfig(sets.set_a, sets.set_b, start,
                                         max_iter=5, stop_step=0.0))
        assert trace.verdict is not None
        assert len(trace.a) == 5


def test_set_membership_fuzz(report_300):
    sets = build(300, report=report_300)
    pts = report_300.points
    rng = np.random.default_rng(5)
    for theta in rng.uniform(0.0, 2.0 * math.pi, 50).tolist():
        assert distance(sets.set_a, [math.cos(theta), math.sin(theta)]) <= 1e-9
        assert distance(sets.set_b, [math.cos(theta), math.sin(theta)]) <= 1e-9
    for i in rng.integers(0, 300, 50).tolist():
        target = sets.set_a if i % 2 == 0 else sets.set_b
        other = sets.set_b if i % 2 == 0 else sets.set_a
        assert distance(target, pts[i]) <= 1e-9
        assert distance(other, pts[i]) > 1e-9
    assert distance(sets.set_a, [5.0, 5.0]) > 1e-9
