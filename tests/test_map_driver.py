import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj import counterexample, map_driver
from altproj.euclid import (
    DEFAULT_TIE_TOL,
    Ball,
    Box,
    DegenerateProjection,
    Halfspace,
    PointCloud,
    Sphere,
    Union,
)
from altproj.map_driver import (
    TIE_ERROR,
    TIE_LOWEST_INDEX,
    VERDICT_BUDGET,
    VERDICT_CONTINUUM,
    VERDICT_CONVERGED,
    MapConfig,
    MapTrace,
    ProjectionTie,
    config_from_dict,
    config_to_dict,
    max_circular_gap,
    run,
    trace_to_json,
)


def test_identical_boxes_converge_immediately():
    box = Box([0.0, 0.0], [1.0, 1.0])
    trace = run(MapConfig(box, box, [3.0, 0.5]))
    np.testing.assert_array_equal(trace.a[0], [1.0, 0.5])
    np.testing.assert_array_equal(trace.b[0], [1.0, 0.5])
    assert trace.verdict.kind == VERDICT_CONVERGED
    np.testing.assert_array_equal(trace.verdict.limit, [1.0, 0.5])
    assert trace.verdict.iterations_used <= 2


def test_ball_and_halfspace_tangency():
    # A = unit ball, B = {x >= 1}; the intersection is the single point (1, 0).
    ball = Ball([0.0, 0.0], 1.0)
    halfspace = Halfspace([-1.0, 0.0], -1.0)
    # independent oracle: the ball boundary point minimizing the distance to B
    thetas = np.linspace(-math.pi, math.pi, 200_001)
    dists = np.maximum(0.0, 1.0 - np.cos(thetas))
    best = thetas[int(np.argmin(dists))]
    oracle = np.array([math.cos(best), math.sin(best)])
    np.testing.assert_allclose(oracle, [1.0, 0.0], atol=1e-4)

    trace = run(MapConfig(ball, halfspace, [5.0, 5.0], max_iter=20_000))
    target = np.array([1.0, 0.0])
    errs = [float(np.linalg.norm(a - target)) for a in trace.a]
    assert errs[-1] < 0.02
    # tangential intersection: slow but monotone approach
    assert errs[0] > errs[len(errs) // 2] > errs[-1]


def test_fejer_monotonicity_on_convex_pairs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rng.uniform(-1, 1, 2)
        set_a = Ball(c + rng.normal(size=2) * 0.3, float(rng.uniform(0.5, 1.5)))
        set_b = Box(c - rng.uniform(0.1, 1.0, 2), c + rng.uniform(0.1, 1.0, 2))
        if set_a.distance(c) > 0.0:
            continue
        start = c + rng.normal(size=2) * 4.0
        trace = run(MapConfig(set_a, set_b, start, max_iter=200))
        dists = [float(np.linalg.norm(a - c)) for a in trace.a]
        for d0, d1 in zip(dists, dists[1:]):
            assert d1 <= d0 + 1e-9


def test_counterexample_run_is_flagged_as_continuum(report_300):
    # stop_step 1e-4 puts the "steps became small" threshold (1000x) above the
    # tail step sizes at this short horizon without ever triggering a stop
    sets = counterexample.build(300, report=report_300)
    config = MapConfig(sets.set_a, sets.set_b, report_300.points()[0],
                       max_iter=149, stop_step=1e-4)
    trace = run(config)
    assert trace.verdict.kind == VERDICT_CONTINUUM
    assert trace.verdict.ring_radius_estimate == pytest.approx(1.0, abs=0.2)
    assert trace.verdict.angular_spread > 0.5
    assert trace.multivalued_events == []


def test_counterexample_steps_match_step_sizes(report_300):
    sets = counterexample.build(300, report=report_300)
    trace = counterexample.run_corollary(sets, 100)
    epss = report_300.epss()
    for n, step in enumerate(trace.step_ab):
        assert abs(step - epss[2 * n]) <= 1e-10
    for n, step in enumerate(trace.step_ba):
        assert abs(step - epss[2 * n + 1]) <= 1e-10
    steps = []
    for ab, ba in zip(trace.step_ab, trace.step_ba):
        steps.extend([ab, ba])
    assert all(s0 > s1 for s0, s1 in zip(steps, steps[1:]))


def test_determinism_bitwise(report_300):
    sets = counterexample.build(120, report=report_300)
    config = MapConfig(sets.set_a, sets.set_b, report_300.points()[0], max_iter=50)
    t1 = run(config)
    t2 = run(config)
    assert all(np.array_equal(p, q) for p, q in zip(t1.a, t2.a))
    assert all(np.array_equal(p, q) for p, q in zip(t1.b, t2.b))
    assert t1.step_ab == t2.step_ab
    assert t1.step_ba == t2.step_ba


def test_tie_policy_error_aborts():
    cloud = PointCloud([[0.0, 1.0], [0.0, -1.0]])
    box = Box([-1.0, -1.0], [1.0, 1.0])
    config = MapConfig(cloud, box, [2.0, 0.0], tie_policy=TIE_ERROR, max_iter=5)
    with pytest.raises(ProjectionTie) as info:
        run(config)
    assert info.value.which == "A"
    assert info.value.iteration == 0


def test_tie_policy_lowest_index_records_event():
    cloud = PointCloud([[0.0, 1.0], [0.0, -1.0]])
    box = Box([-1.0, -1.0], [1.0, 1.0])
    trace = run(MapConfig(cloud, box, [2.0, 0.0], max_iter=3))
    assert (0, "A") in trace.multivalued_events
    np.testing.assert_array_equal(trace.a[0], [0.0, 1.0])


def test_degenerate_projection_carries_iteration():
    sphere = Sphere([0.0, 0.0], 1.0)
    box = Box([-2.0, -2.0], [2.0, 2.0])
    with pytest.raises(DegenerateProjection, match="iteration 0"):
        run(MapConfig(sphere, box, [0.0, 0.0], max_iter=3))


def test_stop_step_zero_disables_stopping():
    box = Box([0.0, 0.0], [1.0, 1.0])
    trace = run(MapConfig(box, box, [3.0, 0.5], max_iter=7, stop_step=0.0))
    assert trace.verdict.kind == VERDICT_BUDGET
    assert trace.verdict.iterations_used == 7


def test_config_validation():
    box = Box([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        MapConfig(box, Box([0.0], [1.0]), [0.5, 0.5])
    with pytest.raises(ValueError):
        MapConfig(box, box, [0.5, 0.5], max_iter=0)
    with pytest.raises(ValueError):
        MapConfig(box, box, [0.5, 0.5], stop_step=-1.0)
    with pytest.raises(ValueError):
        MapConfig(box, box, [0.5, 0.5], tie_policy="random")


@pytest.mark.parametrize("field, value", [
    ("max_iter", 2.9), ("max_iter", True), ("max_iter", "3"),
    ("stop_step", math.nan), ("stop_step", math.inf), ("stop_step", True),
    ("tie_tol", 0.0), ("tie_tol", -1e-9), ("tie_tol", math.nan), ("tie_tol", math.inf),
    ("tie_tol", True), ("tie_tol", "1e-9"),
])
def test_config_rejects_non_strict_numbers(field, value):
    box = Box([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=field):
        MapConfig(box, box, [0.5, 0.5], **{field: value})


def test_config_accepts_integral_numbers():
    box = Box([0.0, 0.0], [1.0, 1.0])
    config = MapConfig(box, box, [0.5, 0.5], max_iter=3.0, stop_step=0, tie_tol=1e-6)
    assert config.max_iter == 3 and isinstance(config.max_iter, int)
    assert config.stop_step == 0.0
    assert config.tie_tol == 1e-6


def test_run_projects_with_config_tie_tol():
    # the two points' distances from the start differ by about 4.5e-8
    cloud = PointCloud([[0.0, 1.0], [0.0, -1.0000001]])
    box = Box([-1.0, -1.0], [1.0, 1.0])
    assert run(MapConfig(cloud, box, [2.0, 0.0], max_iter=1)).multivalued_events == []
    loose = run(MapConfig(cloud, box, [2.0, 0.0], max_iter=1, tie_tol=1e-6))
    assert loose.multivalued_events == [(0, "A")]


def test_config_round_trip():
    config = MapConfig(Ball([0.0, 0.0], 1.0), Box([0.0, 0.0], [1.0, 1.0]),
                       [3.0, 0.5], max_iter=17, stop_step=1e-9)
    back = config_from_dict(config_to_dict(config))
    assert config_to_dict(back) == config_to_dict(config)
    assert back.tie_tol == DEFAULT_TIE_TOL
    data = config_to_dict(config)
    del data["tie_tol"]
    assert config_from_dict(data).tie_tol == DEFAULT_TIE_TOL
    data["tie_tol"] = 1e-11
    assert config_from_dict(data).tie_tol == 1e-11


def test_config_from_dict_errors():
    with pytest.raises(ValueError, match=r"config\.B"):
        config_from_dict({"A": {"type": "ball", "center": [0, 0], "radius": 1.0},
                          "start": [0, 0]})
    with pytest.raises(ValueError, match="unknown fields"):
        config_from_dict({"A": {"type": "ball", "center": [0, 0], "radius": 1.0},
                          "B": {"type": "ball", "center": [0, 0], "radius": 1.0},
                          "start": [0, 0], "bogus": 1})
    with pytest.raises(ValueError, match=r"config\.A.*radius"):
        config_from_dict({"A": {"type": "ball", "center": [0, 0], "radius": -1.0},
                          "B": {"type": "ball", "center": [0, 0], "radius": 1.0},
                          "start": [0, 0]})


def test_trace_json_schema():
    box = Box([0.0, 0.0], [1.0, 1.0])
    trace = run(MapConfig(box, box, [3.0, 0.5]))
    obj = json.loads(trace_to_json(trace))
    assert obj["a"][0] == [1.0, 0.5]
    assert obj["b"][0] == [1.0, 0.5]
    assert set(obj["steps"]) == {"ab", "ba"}
    assert obj["verdict"]["kind"] == VERDICT_CONVERGED
    assert obj["verdict"]["limit"] == [1.0, 0.5]


def test_max_circular_gap():
    assert max_circular_gap([0.1]) == pytest.approx(2.0 * math.pi)
    gap = max_circular_gap([0.0, math.pi])
    assert gap == pytest.approx(math.pi)
    dense = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
    assert max_circular_gap(dense) == pytest.approx(2.0 * math.pi / 100)
    with pytest.raises(ValueError):
        max_circular_gap([])


def _tail_angles_and_radii(trace):
    pts = np.array(trace.a)
    return np.arctan2(pts[:, 1], pts[:, 0]), np.sqrt((pts ** 2).sum(axis=1))


def test_converged_run_tail_is_one_point():
    box = Box([0.0, 0.0], [1.0, 1.0])
    trace = run(MapConfig(box, box, [3.0, 0.5], max_iter=6, stop_step=0.0))
    angles, radii = _tail_angles_and_radii(trace)
    assert max_circular_gap(angles) == pytest.approx(2.0 * math.pi)
    assert radii.std() == pytest.approx(0.0, abs=1e-15)


def test_circular_gap_of_two_trace_points():
    trace = MapTrace(a=[np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    angles, radii = _tail_angles_and_radii(trace)
    assert max_circular_gap(angles) == pytest.approx(1.5 * math.pi)
    assert radii.mean() == pytest.approx(1.0)


@given(dim=st.integers(1, 4), n_a=st.integers(1, 70), n_b=st.integers(1, 70),
       seed=st.integers(0, 2**32 - 1), grid=st.booleans(),
       policy=st.sampled_from([TIE_LOWEST_INDEX, TIE_ERROR]),
       stop_step=st.sampled_from([0.0, 1e-12, 1e-3, 0.5]), max_iter=st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_fuzz_point_cloud_pairs_never_raise(dim, n_a, n_b, seed, grid, policy, stop_step,
                                            max_iter):
    # On a half-integer grid, duplicates and exact distance ties are common.
    rng = np.random.default_rng(seed)

    def cloud(n):
        return rng.integers(-2, 3, size=(n, dim)) * 0.5 if grid else rng.normal(size=(n, dim))

    config = MapConfig(PointCloud(cloud(n_a)), PointCloud(cloud(n_b)), cloud(1)[0],
                       max_iter=max_iter, stop_step=stop_step, tie_policy=policy)
    try:
        trace = run(config)
    except ProjectionTie:
        assert policy == TIE_ERROR
        return
    verdict = trace.verdict
    assert verdict.kind in (VERDICT_CONVERGED, VERDICT_CONTINUUM, VERDICT_BUDGET)
    assert verdict.iterations_used == len(trace.a) <= max_iter
    assert (verdict.angular_spread is not None) == (verdict.kind == VERDICT_CONTINUUM
                                                    and dim == 2)
    json.loads(trace_to_json(trace))
