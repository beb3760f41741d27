import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj import counterexample, euclid, map_driver, sequence
from altproj.euclid import (
    LEAF_SIZE,
    Ball,
    Box,
    DegenerateProjection,
    DimensionMismatch,
    Halfspace,
    PointCloud,
    Segment,
    Sphere,
    Union,
    as_point,
    spec_from_dict,
)
from altproj.serialize import render_json
from conftest import as_lists, clip_leaf_bound, distance, nearest_in_cloud

O2 = np.zeros(2)


def test_sphere_distance_radial():
    assert distance(Sphere(O2, 1.0), [2.0, 0.0]) == 1.0


def test_sphere_distance_at_spiral_start():
    # the spiral starts at (2, 0); its distance to the unit sphere is exp(-0) = 1
    assert distance(Sphere(O2, 1.0), [2.0, 0.0]) == math.exp(-0.0)


def test_union_of_point_cloud_distance():
    spec = Union([PointCloud([[0.0, 0.0], [3.0, 0.0]])])
    assert distance(spec, [1.0, 0.0]) == 1.0


def test_ball_projection_radial():
    res = Ball(O2, 1.0).project([2.0, 0.0])
    assert len(res.candidates) == 1
    np.testing.assert_array_equal(res.candidates[0], [1.0, 0.0])
    assert res.distance == 1.0
    assert not res.multivalued


def test_point_cloud_symmetric_tie_is_multivalued():
    res = PointCloud([[0.0, 0.0], [3.0, 0.0]]).project([1.5, 0.0])
    assert res.multivalued
    assert len(res.candidates) == 2
    np.testing.assert_array_equal(res.candidates[0], [0.0, 0.0])
    np.testing.assert_array_equal(res.candidates[1], [3.0, 0.0])


def test_union_sphere_and_tail_cloud_projects_to_successor():
    report = sequence.generate(80)
    pts = report.points
    spec = Union([Sphere(O2, 1.0), PointCloud(pts[1:])])
    res = spec.project(pts[0])
    assert len(res.candidates) == 1
    np.testing.assert_array_equal(res.candidates[0], pts[1])


def test_ball_inside_point_is_fixed():
    res = Ball(O2, 1.0).project([0.25, 0.25])
    np.testing.assert_array_equal(res.candidates[0], [0.25, 0.25])
    assert res.distance == 0.0


def test_box_projection_clamps():
    box = Box([0.0, 0.0], [1.0, 1.0])
    res = box.project([3.0, 0.5])
    np.testing.assert_array_equal(res.candidates[0], [1.0, 0.5])
    assert res.distance == 2.0


def test_halfspace_projection():
    # the set {x <= 1} from the right
    hs = Halfspace([1.0, 0.0], 1.0)
    res = hs.project([3.0, 0.7])
    np.testing.assert_array_equal(res.candidates[0], [1.0, 0.7])
    assert res.distance == 2.0
    assert distance(hs, [0.0, 0.0]) == 0.0


def test_segment_projection_endpoints_and_interior():
    seg = Segment([0.0, 0.0], [1.0, 0.0])
    np.testing.assert_array_equal(seg.project([2.0, 0.0]).candidates[0], [1.0, 0.0])
    np.testing.assert_array_equal(seg.project([-1.0, 0.0]).candidates[0], [0.0, 0.0])
    np.testing.assert_array_equal(seg.project([0.5, 1.0]).candidates[0], [0.5, 0.0])


def test_sphere_center_projection_is_degenerate():
    with pytest.raises(DegenerateProjection):
        Sphere(O2, 1.0).project([0.0, 0.0])
    with pytest.raises(DegenerateProjection):
        Sphere(O2, 1.0).project([1e-13, 0.0])


def test_overflowed_distance_raises():
    # the sum of squares from (1e200, 1e200) rounds to inf, which would tie
    # every point of the cloud; the true nearest point is (1, 0)
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0]])
    with np.errstate(over="ignore"):
        for spec in (cloud, Union([Sphere([0.0, 0.0], 1.0), cloud])):
            with pytest.raises(ValueError, match="overflows float64"):
                spec.project([1e200, 1e200])


def test_ball_center_projection_is_fine():
    res = Ball(O2, 1.0).project([0.0, 0.0])
    np.testing.assert_array_equal(res.candidates[0], [0.0, 0.0])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        distance(Sphere(O2, 1.0), [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        Box([0.0], [1.0]).project([0.5, 0.5])


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        Sphere(O2, 0.0)
    with pytest.raises(ValueError):
        Box([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        Halfspace([2.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        PointCloud([])
    with pytest.raises(ValueError):
        Union([])
    with pytest.raises(ValueError):
        Union([Sphere(O2, 1.0), Sphere(np.zeros(3), 1.0)])
    with pytest.raises(ValueError):
        as_point([1.0, math.nan])
    with pytest.raises(ValueError):
        Sphere(O2, 1.0).project([2.0, 0.0], tie_tol=0.0)
    with pytest.raises(ValueError):
        Sphere(O2, 1.0).project([2.0, 0.0], tie_tol=math.inf)


def test_nearest_in_cloud_basic():
    idx, dist, margin = nearest_in_cloud([[0.0, 0.0], [3.0, 0.0]], [1.0, 0.0])
    assert (idx, dist, margin) == (0, 1.0, 1.0)


def test_nearest_in_cloud_tie_breaks_to_lowest_index():
    idx, dist, margin = nearest_in_cloud([[0.0, 0.0], [3.0, 0.0]], [1.5, 0.0])
    assert idx == 0
    assert dist == 1.5
    assert margin == 0.0


def test_nearest_in_cloud_exclusion_gives_successor(report_300):
    pts = report_300.points[:101]
    idx, dist, margin = nearest_in_cloud(pts, pts[5], exclude=5)
    assert idx == 6
    assert margin > 0.0


def test_nearest_in_cloud_single_point():
    idx, dist, margin = nearest_in_cloud([[1.0, 1.0]], [4.0, 5.0])
    assert idx == 0
    assert dist == 5.0
    assert margin == math.inf


def test_nearest_in_cloud_empty_after_exclusion():
    with pytest.raises(ValueError):
        nearest_in_cloud([[1.0, 1.0]], [0.0, 0.0], exclude=0)


def _random_primitive(rng, dim):
    kind = rng.integers(0, 6)
    center = rng.normal(size=dim)
    if kind == 0:
        return Sphere(center, float(rng.uniform(0.2, 3.0)))
    if kind == 1:
        return Ball(center, float(rng.uniform(0.2, 3.0)))
    if kind == 2:
        lo = center - rng.uniform(0.1, 2.0, dim)
        return Box(lo, lo + rng.uniform(0.1, 3.0, dim))
    if kind == 3:
        v = rng.normal(size=dim)
        return Halfspace(v / np.linalg.norm(v), float(rng.uniform(-2.0, 2.0)))
    if kind == 4:
        return Segment(center, center + rng.normal(size=dim))
    return PointCloud(rng.normal(size=(int(rng.integers(1, 8)), dim)))


def test_fuzz_projection_invariants():
    # 1000 random (set, query) pairs across dims 1..4: reported distance is
    # the candidate distance, candidates are members of the set, and the
    # multivalued flag matches the candidate count.
    rng = np.random.default_rng(415926)
    for case in range(1000):
        dim = int(rng.integers(1, 5))
        if case % 5 == 0:
            spec = Union([_random_primitive(rng, dim) for _ in range(int(rng.integers(1, 4)))])
        else:
            spec = _random_primitive(rng, dim)
        q = rng.normal(size=dim) * 3.0
        if isinstance(spec, Sphere) and np.linalg.norm(q - spec.center) < 1e-6:
            continue
        d = distance(spec, q)
        res = spec.project(q)
        assert abs(res.distance - d) <= 1e-9
        assert res.multivalued == (len(res.candidates) > 1)
        for cand in res.candidates:
            assert abs(np.linalg.norm(q - cand) - d) <= 1e-9
            assert distance(spec, cand) <= 1e-9


_CONVEX = [
    Ball(O2, 1.5),
    Box([-1.0, 0.0], [1.0, 2.0]),
    Halfspace([0.0, 1.0], 0.5),
    Segment([-1.0, -1.0], [2.0, 0.5]),
]


@given(st.floats(-8, 8), st.floats(-8, 8))
@settings(max_examples=150)
def test_idempotence_on_convex_primitives(x, y):
    for spec in _CONVEX:
        cand = spec.project([x, y]).candidates[0]
        again = spec.project(cand)
        assert again.distance <= 1e-9
        assert np.linalg.norm(again.candidates[0] - cand) <= 1e-9


@given(st.floats(-8, 8), st.floats(-8, 8), st.floats(-8, 8), st.floats(-8, 8))
@settings(max_examples=150)
def test_nonexpansiveness_on_convex_primitives(px, py, qx, qy):
    p = np.array([px, py])
    q = np.array([qx, qy])
    for spec in _CONVEX:
        pp = spec.project(p).candidates[0]
        pq = spec.project(q).candidates[0]
        assert np.linalg.norm(pp - pq) <= np.linalg.norm(p - q) + 1e-9


@given(st.floats(0.1, 10), st.floats(0.1, 10), st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=300)
def test_law_of_cosines_and_radial_bound(r, s, alpha, beta):
    p = np.array([r * math.cos(alpha), r * math.sin(alpha)])
    q = np.array([s * math.cos(beta), s * math.sin(beta)])
    d2 = float(((p - q) ** 2).sum())
    expected = r * r + s * s - 2.0 * r * s * math.cos(alpha - beta)
    assert abs(d2 - expected) <= 1e-10
    d = math.sqrt(max(d2, 0.0))
    assert r - d <= s + 1e-9
    assert s <= r + d + 1e-9


def test_union_margin_across_members():
    spec = Union([PointCloud([[0.0, 0.0]]), PointCloud([[3.0, 0.0]])])
    res = spec.project([1.0, 0.0])
    np.testing.assert_array_equal(res.candidates[0], [0.0, 0.0])


def test_point_cloud_dedupes_coincident_points():
    res = PointCloud([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]).project([0.0, 0.0])
    assert len(res.candidates) == 1
    assert not res.multivalued


def test_json_round_trip_nested():
    spec = Union([
        Sphere([0.0, 0.0], 1.0),
        PointCloud([[2.0, 0.0], [0.1, -0.25]]),
        Box([-1.0, -1.0], [1.0, 1.0]),
        Halfspace([0.0, 1.0], 0.125),
        Segment([0.0, 0.0], [1.0, 1.0]),
        Ball([0.5, 0.5], 2.0),
    ])
    text = render_json(spec.to_dict())
    back = spec_from_dict(json.loads(text))
    assert as_lists(back.to_dict()) == as_lists(spec.to_dict())
    # 17 significant digits round-trip binary64 exactly
    assert json.loads(text)["members"][3]["offset"] == 0.125


def test_json_renders_17_significant_digits():
    assert "0.10000000000000001" in render_json(Sphere([0.1, 0.0], 1.0).to_dict())


@pytest.mark.parametrize("arr", [
    np.array([0.0, -0.0, 5e-324, 1e-310, 1.7976931348623157e308, 1 / 3, 1e16, -2.5]),
    np.array([[0.1, -1e-300], [1e300, 2 / 3], [-0.0, 7.0]]),
    np.array([[1.5]]), np.zeros(0), np.zeros((2, 0)), np.arange(3),
])
def test_json_renders_an_array_as_its_list(arr):
    assert render_json(arr) == render_json(arr.tolist())


@pytest.mark.parametrize("arr", [np.array([1.0, math.nan]), np.array([[1.0], [-math.inf]])])
def test_json_rejects_a_non_finite_array(arr):
    with pytest.raises(ValueError, match="cannot serialize non-finite value"):
        render_json(arr)


def test_spec_from_dict_errors_carry_paths():
    with pytest.raises(ValueError, match=r"spec\.type"):
        spec_from_dict({"type": "conic"})
    with pytest.raises(ValueError, match=r"spec\.radius"):
        spec_from_dict({"type": "sphere", "center": [0, 0]})
    with pytest.raises(ValueError, match=r"members\[1\]"):
        spec_from_dict({"type": "union", "members": [
            {"type": "sphere", "center": [0, 0], "radius": 1.0},
            {"type": "sphere", "center": [0, 0]},
        ]})
    with pytest.raises(ValueError, match="unknown fields"):
        spec_from_dict({"type": "ball", "center": [0, 0], "radius": 1.0, "extra": 1})


def test_to_dict_keys_follow_the_constructor():
    spec = Union([
        Sphere([0.0, 0.0], 1.0),
        Ball([0.5, 0.5], 2.0),
        Box([-1.0, -1.0], [1.0, 1.0]),
        Halfspace([0.0, 1.0], 0.125),
        Segment([0.0, 0.0], [1.0, 1.0]),
        PointCloud([[2.0, 0.0]]),
    ])
    data = spec.to_dict()
    assert list(data) == ["type", "members"]
    assert [list(m) for m in data["members"]] == [
        ["type", "center", "radius"], ["type", "center", "radius"], ["type", "min", "max"],
        ["type", "normal", "offset"], ["type", "a", "b"], ["type", "coords"]]
    assert as_lists(data["members"][1]) == {"type": "ball", "center": [0.5, 0.5], "radius": 2.0}
    # array fields are the set's own arrays, rendered by `render_json`'s block formatter
    assert data["members"][5]["coords"] is spec.members[5].points


_LOOSE_FIELDS = [
    ({"type": "sphere", "center": [0, 0], "radius": None}, "radius must be a number"),
    ({"type": "sphere", "center": [0, 0], "radius": "1"}, "radius must be a number"),
    ({"type": "ball", "center": [0, 0], "radius": True}, "radius must be a number"),
    ({"type": "ball", "center": [0, 0], "radius": 1e999}, "radius must be finite"),
    ({"type": "halfspace", "normal": [1, 0], "offset": [1]}, "offset must be a number"),
    ({"type": "ball", "center": ["0", "0"], "radius": 1.0}, "got string values"),
    ({"type": "box", "min": [None, 0], "max": [1, 1]}, "got non-numeric values"),
    ({"type": "segment", "a": [0, 0], "b": {"x": 1}}, "got non-numeric values"),
    ({"type": "points", "coords": [[True, False]]}, "got bool values"),
    ({"type": "points", "coords": [[1.0, 0.0], [1.0]]}, "got a ragged list"),
    ({"type": "points", "coords": [1.0, 0.0]}, "got shape"),
    ({"type": "points", "coords": [[1.0, math.nan]]}, "must be finite"),
]


@pytest.mark.parametrize("data, message", _LOOSE_FIELDS)
def test_spec_from_dict_reads_numbers_strictly(data, message):
    with pytest.raises(ValueError, match=message):
        spec_from_dict(data)


def test_spec_reader_accepts_integers_and_copies():
    coords = np.array([[1, 2], [3, 4]])
    cloud = spec_from_dict({"type": "points", "coords": coords})
    assert cloud.points.dtype == np.float64
    coords[0, 0] = 9
    assert cloud.points[0, 0] == 1.0
    assert spec_from_dict({"type": "sphere", "center": [0, 0], "radius": 2}).radius == 2.0


@pytest.mark.parametrize("arr, message", [
    (np.array([0.0, math.nan]), "point coordinates must be finite"),
    (np.array([math.inf, 0.0]), "point coordinates must be finite"),
    (np.array([0.0, -math.inf]), "point coordinates must be finite"),
    (np.zeros((1, 2)), r"point must be a nonempty 1-D list of numbers, got shape \(1, 2\)"),
    (np.array(1.0), r"point must be a nonempty 1-D list of numbers, got shape \(\)"),
    (np.zeros(0), r"point must be a nonempty 1-D list of numbers, got shape \(0,\)"),
], ids=["nan", "inf", "-inf", "2-d", "0-d", "empty"])
def test_as_point_rejects_a_malformed_float64_array(arr, message):
    assert arr.dtype == np.float64
    with pytest.raises(ValueError, match=f"^{message}$"):
        as_point(arr)


@pytest.mark.parametrize("arr, message", [
    (np.array([[0.0, math.nan]]), "point cloud coordinates must be finite"),
    (np.array([[math.inf, 0.0]]), "point cloud coordinates must be finite"),
    (np.zeros(2), r"point cloud must be a nonempty 2-D list of numbers, got shape \(2,\)"),
    (np.zeros((0, 2)), r"point cloud must be a nonempty 2-D list of numbers, got shape \(0, 2\)"),
    (np.zeros((2, 0)), r"point cloud must be a nonempty 2-D list of numbers, got shape \(2, 0\)"),
], ids=["nan", "inf", "1-d", "no-rows", "no-columns"])
def test_cloud_reader_rejects_a_malformed_float64_array(arr, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PointCloud(arr)


def test_as_point_copies_a_float64_array():
    arr = np.array([1.0, -0.0])
    p = as_point(arr)
    assert p is not arr and p.dtype == np.float64
    arr[0] = 9.0
    assert p.tolist() == [1.0, -0.0] and math.copysign(1.0, p[1]) == -1.0


@pytest.mark.parametrize("value, message", [
    (True, "radius must be a number, got True"),
    (np.bool_(True), "radius must be a number, got np.True_"),
    (math.nan, "radius must be finite, got nan"),
    (math.inf, "radius must be finite, got inf"),
    ("1.0", "radius must be a number, got '1.0'"),
], ids=["bool", "np.bool_", "nan", "inf", "str"])
def test_finite_rejects(value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        euclid._finite("radius", value)


@pytest.mark.parametrize("value", [2, 2.0, np.float64(2.0)], ids=["int", "float", "np.float64"])
def test_finite_accepts_real_numbers_as_float(value):
    out = euclid._finite("radius", value)
    assert out == 2.0 and type(out) is float


def test_box_clamp_equals_clip_on_signed_zeros_and_bounds():
    lo = np.array([-0.0, 0.0, -1.0, 0.0])
    hi = np.array([0.0, 0.0, 1.0, -0.0])
    box = Box(lo, hi)
    queries = [[0.0, -0.0, -1.0, 0.0], [-0.0, 0.0, 1.0, -0.0], [-0.0, -0.0, -0.0, -0.0],
               [0.0, 0.0, 0.0, 0.0], [-5.0, 5.0, 1.0 + 2e-16, 5e-324], [5.0, -5.0, -1.0, -5e-324]]
    for q in queries:
        q = np.array(q)
        got = box.project(q).candidates[0]
        want = np.clip(q, box.lo, box.hi)
        assert got.tobytes() == want.tobytes(), q
        assert distance(box, q) == _oracle_dist(q, want)


def _oracle_dist(p, q):
    """The distance between two points, their squared differences added in
    axis order in Python floats."""
    return math.sqrt(float(_in_order_sq(p, q)))


def _oracle_dedupe(points, tol):
    kept = []
    for p in points:
        if all(_oracle_dist(p, k) > tol for k in kept):
            kept.append(p)
    return kept


def _oracle(members, q, tol):
    """Brute-force projection onto a union of point clouds and spheres.

    Scans every point; a member is a minimizer when its distance is within
    `tol` of the union's.
    """
    hits = []
    for m in members:
        if isinstance(m, PointCloud):
            d = np.sqrt(((m.points - q) ** 2).sum(axis=1))
            dmin = float(d.min())
            cands = [m.points[i] for i in range(len(d)) if d[i] <= dmin + tol]
            hits.append((dmin, _oracle_dedupe(cands, tol)))
        else:
            diff = q - m.center
            r = _oracle_dist(q, m.center)
            dist = abs(r - m.radius)
            hits.append((dist, [m.center + (m.radius / r) * diff]))
    dmin = min(h[0] for h in hits)
    cands = _oracle_dedupe([c for h in hits if h[0] <= dmin + tol for c in h[1]], tol)
    return dmin, cands


def _assert_matches_oracle(res, expected):
    dmin, cands = expected
    assert res.distance == dmin
    assert len(res.candidates) == len(cands)
    for got, want in zip(res.candidates, cands):
        assert np.array_equal(got, want)
    assert res.multivalued == (len(cands) > 1)


def _cloud_layout(layout, rng, n, dim):
    if layout == "generic":
        return rng.normal(size=(n, dim))
    if layout == "curve":  # leaves are well separated along a winding curve
        t = np.cumsum(rng.uniform(0.0, 1.0, n)) / n
        return np.stack([(1.0 + t) * np.cos(3.0 * (k + 1) * t) for k in range(dim)], axis=1)
    if layout == "stacks":  # whole leaves of one repeated point
        base = rng.integers(-3, 4, size=(-(-n // LEAF_SIZE), dim)) * 0.5
        return np.repeat(base, LEAF_SIZE, axis=0)[:n]
    # Multiples of 0.5: duplicates and exact distance ties are common.
    return rng.integers(-3, 4, size=(n, dim)) * 0.5


@given(dim=st.integers(1, 4), n=st.integers(1, 5 * LEAF_SIZE),
       seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["generic", "curve", "stacks", "grid", "ring"]),
       tol=st.sampled_from([1e-12, 1e-9, 1e-3, 0.3]), parts=st.integers(1, 3),
       with_sphere=st.booleans())
@settings(max_examples=200, deadline=None)
def test_indexed_projection_matches_brute_force(dim, n, seed, layout, tol, parts, with_sphere):
    rng = np.random.default_rng(seed)
    pts = _cloud_layout("grid" if layout == "ring" else layout, rng, n, dim)
    on_grid = rng.integers(-3, 4, size=dim) * 0.5
    if layout == "ring":  # points at one distance from `on_grid` along every axis
        ring = on_grid + 0.5 * np.concatenate([np.eye(dim), -np.eye(dim)])
        pts[:min(n, len(ring))] = ring[:n]
        rng.shuffle(pts)
    queries = [on_grid, rng.normal(size=dim),
               pts[rng.integers(n)].copy(),  # a cloud point itself
               pts[rng.integers(n)] + 0.05 * rng.normal(size=dim)]
    cloud = PointCloud(pts)
    members = [PointCloud(chunk) for chunk in np.array_split(pts, min(parts, n))]
    if with_sphere:
        members.append(Sphere(rng.integers(-3, 4, size=dim) * 0.5,
                              float(rng.choice([0.5, 1.0, 2.0]))))
    # Asked again in reverse, each query meets the memory of a different,
    # possibly distant, previous nearest point.
    for q in queries + queries[::-1]:
        expected = _oracle([cloud], q, tol)
        _assert_matches_oracle(cloud.project(q, tol), expected)
        assert distance(cloud, q) == expected[0]
        if with_sphere and np.linalg.norm(q - members[-1].center) <= 1e-12:
            continue  # the sphere center: covered by the degenerate test below
        _assert_matches_oracle(Union(members).project(q, tol), _oracle(members, q, tol))


def test_union_sphere_center_degenerate_only_among_minimizers():
    cloud = PointCloud([[3.0, 0.0], [0.25, 0.0], [0.0, 2.0]])
    sphere = Sphere(O2, 1.0)
    res = Union([cloud, sphere]).project([0.0, 0.0])
    assert len(res.candidates) == 1
    np.testing.assert_array_equal(res.candidates[0], [0.25, 0.0])
    assert res.distance == 0.25
    assert distance(Union([sphere, PointCloud([[3.0, 0.0]])]), [0.0, 0.0]) == 1.0
    with pytest.raises(DegenerateProjection):
        Union([PointCloud([[3.0, 0.0]]), sphere]).project([0.0, 0.0])
    with pytest.raises(DegenerateProjection):
        Union([Union([sphere]), PointCloud([[3.0, 0.0]])]).project([0.0, 0.0])


def _two_leaf_cloud(left, right):
    """A 2-D cloud of two leaves split along x: `left` topped up with points
    at x = -10 and `right` with points at x = 20, spread along y."""
    fill = np.linspace(-5.0, 5.0, LEAF_SIZE - 1)
    pts = np.concatenate([[left], np.stack([np.full_like(fill, -10.0), fill], axis=1),
                          [right], np.stack([np.full_like(fill, 20.0), fill], axis=1)])
    return PointCloud(pts)


def _leaf_bounds(index, q):
    gap = np.maximum(np.maximum(index.lo - q[:, None], q[:, None] - index.hi), 0.0)
    return np.sqrt((gap ** 2).sum(axis=0))


def test_search_visits_beyond_the_leaf_with_the_smallest_bound():
    # The left leaf's box contains q, so its bound is 0, but its points are
    # all at least 5 away; the nearest point sits in the right leaf.
    cloud = _two_leaf_cloud([1.0, 5.0], [1.2, 0.0])
    q = np.array([0.5, 0.0])
    index = cloud._index
    first = int(_leaf_bounds(index, q).argmin())
    expected = _oracle([cloud], q, 1e-9)
    np.testing.assert_array_equal(expected[1][0], cloud.points[LEAF_SIZE])  # `right`
    assert LEAF_SIZE not in index.ids[first]
    _assert_matches_oracle(cloud.project(q, 1e-9), expected)


def test_search_gathers_a_tie_split_across_leaves():
    # The left leaf holds the minimum d = 1; the right leaf's bound, 1.1, is
    # past d but within d + tie_tol, and its point at 1.1 is a tie.
    cloud = _two_leaf_cloud([-1.0, 0.0], [1.1, 0.0])
    q = O2
    tol = 0.3
    index = cloud._index
    bounds = _leaf_bounds(index, q)
    first = int(bounds.argmin())
    d = float(_oracle([PointCloud(index.points[first])], q, tol)[0])
    assert d < bounds[1 - first] <= d + tol
    res = cloud.project(q, tol)
    _assert_matches_oracle(res, _oracle([cloud], q, tol))
    assert res.multivalued


def test_search_gathers_a_tie_split_across_leaves_from_a_warm_start():
    # The memory, moved to the right point and back to the left one, gives
    # reach = 1 at q; the right leaf's bound, 1.1, is past reach but within
    # reach + tie_tol, and its point at 1.1 is a tie.
    cloud = _two_leaf_cloud([-1.0, 0.0], [1.1, 0.0])
    cloud.project([1.1, 0.0], 0.3)
    assert cloud._index.ids.flat[cloud._index._slot] == LEAF_SIZE
    cloud.project([-1.0, 0.0], 0.3)
    assert cloud._index.ids.flat[cloud._index._slot] == 0
    res = cloud.project(O2, 0.3)
    _assert_matches_oracle(res, _oracle([cloud], O2, 0.3))
    assert res.multivalued


@given(dim=st.integers(1, 4), n=st.integers(1, 9 * LEAF_SIZE), seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["generic", "curve", "stacks", "grid"]))
@settings(max_examples=100, deadline=None)
def test_every_point_outside_a_leaf_is_on_or_beyond_its_cell(dim, n, seed, layout):
    pts = _cloud_layout(layout, np.random.default_rng(seed), n, dim)
    index = PointCloud(pts)._index
    for leaf, ids in enumerate(index.ids):
        lo, hi = index.cell_lo[leaf], index.cell_hi[leaf]
        assert ((lo <= pts[ids]) & (pts[ids] <= hi)).all()
        outside = np.ones(n, dtype=bool)
        outside[ids] = False
        assert ((pts[outside] <= lo) | (pts[outside] >= hi)).any(axis=1).all()


@given(dim=st.integers(1, 4), n=st.integers(1, 9 * LEAF_SIZE), seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["generic", "curve", "stacks", "grid"]),
       scale=st.sampled_from([1e-160, 1e-155, 1.0, 1e150, 1e153]))
@settings(max_examples=200, deadline=None)
def test_leaf_bound_of_a_query_equals_the_clip_form(dim, n, seed, layout, scale):
    # squares are subnormal at the small scales and close to overflow at the
    # large ones
    rng = np.random.default_rng(seed)
    index = PointCloud(_cloud_layout(layout, rng, n, dim) * scale)._index
    leaf = int(rng.integers(len(index.ids)))
    for q in (rng.normal(size=dim) * scale, index.points[leaf, 0].copy(),
              index.points[leaf, -1] + 0.05 * scale * rng.normal(size=dim)):
        bound = clip_leaf_bound(index, q)
        leaf_min = float(np.sqrt(((index.points[leaf] - q) ** 2).sum(axis=1)).min())
        for reach in (0.0, leaf_min, *bound[:8].tolist()):
            np.testing.assert_array_equal(np.flatnonzero(index.bounds(q, q) <= reach),
                                          np.flatnonzero(bound <= reach))


def test_coherent_walk_matches_the_scan():
    # Curve points on a dyadic grid, so each midpoint query is at exactly
    # the same distance from both of its points: every answer is a tie, and
    # each point that gives a cell its face is one of them.
    pts = np.round(_cloud_layout("curve", np.random.default_rng(7), 5 * LEAF_SIZE + 9, 2)
                   * 2.0**20) / 2.0**20
    cloud = PointCloud(pts)
    index = cloud._index
    assert len(index.ids) >= 4
    faces = np.concatenate([index.cell_lo, index.cell_hi])
    tie_on_face = False
    for q in (pts[:-1] + pts[1:]) / 2.0:
        res = cloud.project(q, 1e-9)
        _assert_matches_oracle(res, _oracle([cloud], q, 1e-9))
        tie_on_face |= res.multivalued and any((c == faces).any() for c in res.candidates)
    assert tie_on_face


def test_face_test_holds_where_squares_are_subnormal():
    # One leaf holds -b, the other b, both at the computed distance
    # sqrt(b * b) from the origin, which is below b once b * b is
    # subnormal.  A face test on the bare gap b would answer from the
    # first leaf alone and lose the tie, in `search` and in `search_many`.
    b = 1e-160
    assert math.sqrt(b * b) < b * (1.0 - 8.0 * np.finfo(np.float64).eps)
    far = np.linspace(1.0, 2.0, LEAF_SIZE - 1)
    cloud = PointCloud(np.concatenate([-far, [-b, b], far])[:, None])
    assert cloud._index.cell_hi[0, 0] == b
    q = np.zeros(1)
    res = cloud.project(q, 1e-300)
    _assert_matches_oracle(res, _oracle([cloud], q, 1e-300))
    assert res.multivalued
    # the batch cell test must not answer from the first leaf either
    hit = cloud._index.search_many(q[None], np.array([LEAF_SIZE - 1]), 1e-300)[0]
    assert not hit[0]


@given(kind=st.sampled_from([Sphere, Ball]), dim=st.integers(1, 4),
       scale=st.integers(-20, 30), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_distances_are_distance_row_by_row(kind, dim, scale, seed):
    # `_confirm` takes a round member's distances for a whole batch from
    # `_distances`; each row must be its `_nearest(...).distance`, bit for
    # bit, at the center, exactly on the radius, on the radius along an
    # axis, near the center, inside and outside, and a ball's gap is
    # max(d - radius, 0.0) with a positive zero
    rng = np.random.default_rng(seed)
    size = 2.0 ** scale
    center = rng.normal(size=dim) * size
    rim = center + rng.normal(size=dim) * size
    radius = euclid._norm(rim - center)  # so the query `rim` has d == radius
    spec = kind(center, radius)
    toward = (rim - center) * np.concatenate([rng.uniform(0.0, 1.0, 4),
                                              rng.uniform(1.0, 3.0, 4)])[:, None]
    queries = np.vstack([center, rim, center + toward,
                         center + rng.normal(size=(8, dim)) * size,
                         center + 0.1 * rng.normal(size=dim) * size,
                         center + np.eye(dim)[0] * radius])
    got = spec._distances(queries, 1e-9)
    want = [spec._nearest(q, 1e-9).distance for q in queries]
    assert got.tobytes() == np.array(want).tobytes()
    assert want[1] == 0.0 and want[0] == (radius if kind is Sphere else 0.0)
    for q, dist in zip(queries, want):
        d = euclid._norm(q - center)
        expected = abs(d - radius) if kind is Sphere else max(d - radius, 0.0)
        assert dist == expected and math.copysign(1.0, dist) == 1.0


@given(dim=st.integers(1, 4), n=st.integers(1, 5 * LEAF_SIZE),
       seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["generic", "curve", "stacks", "grid"]),
       tol=st.sampled_from([1e-12, 1e-9, 1e-3, 0.3]))
@settings(max_examples=150, deadline=None)
def test_search_many_hits_only_what_search_returns(dim, n, seed, layout, tol):
    # Rows are queries near cloud points, each expecting its own point or a
    # random one; a hit must be exactly `search`'s answer, and the batch is
    # not vacuous: a query on a lone point of a generic cloud hits.
    rng = np.random.default_rng(seed)
    pts = _cloud_layout(layout, rng, n, dim)
    index = PointCloud(pts)._index
    k = int(rng.integers(1, 40))
    own = rng.integers(0, n, size=k)
    queries = pts[own] + rng.normal(size=(k, dim)) * rng.choice([0.0, 1e-3, 0.3], size=(k, 1))
    expect = np.where(rng.random(k) < 0.7, own, rng.integers(0, n, size=k))
    hit, dmin, slot = index.search_many(queries, expect, tol)
    for j in range(k):
        if hit[j]:
            assert index.search(queries[j], tol) == (dmin[j], [expect[j]])
            assert index.ids.flat[slot[j]] == expect[j]
    if layout in ("generic", "curve") and tol < 1e-3:
        on_point = np.flatnonzero(expect == own)
        exact = index.search_many(pts[expect[on_point]], expect[on_point], tol)[0]
        assert exact.any() or on_point.size == 0
    # Rows on and one ulp inside a face of their leaf's cell fail the cell
    # test.  The batch measures the neighbouring leaves instead, so a row
    # hits exactly when `search` answers its expected point alone, at the
    # same slot; on a generic cloud of three or more leaves some do.
    queries, expect = _face_rows(index, pts)
    hit, dmin, slot = index.search_many(queries, expect, tol)
    for j in range(len(queries)):
        alone = index.search(queries[j], tol) == (dmin[j], [expect[j]])
        assert hit[j] == alone
        assert index._slot == slot[j] or not alone
    if layout == "generic" and dim >= 2 and n > 2 * LEAF_SIZE and tol < 1e-3:
        assert hit.any()


def _face_rows(index, pts):
    """For each finite face of each leaf's cell, the leaf's point nearest
    to it moved onto the face and one ulp inside, with that point's index."""
    rows, expect = [], []
    for leaf, block in enumerate(index.points):
        for axis in range(pts.shape[1]):
            for face, slot in ((index.cell_lo[leaf, axis], block[:, axis].argmin()),
                               (index.cell_hi[leaf, axis], block[:, axis].argmax())):
                if np.isfinite(face):
                    e = index.ids[leaf, slot]
                    on = pts[e].copy()
                    on[axis] = face
                    inside = on.copy()
                    inside[axis] = np.nextafter(face, pts[e, axis])
                    rows += [on, inside]
                    expect += [e, e]
    return np.array(rows).reshape(-1, pts.shape[1]), np.array(expect, dtype=np.intp)


def test_search_many_keeps_a_tie_at_exactly_the_limit():
    # Two leaves cut on x, every sum exact: the origin is 0.25 from the
    # point p = (-0.25, 0) and, across the face x = 0.1875, 0.3125 from
    # r = (0.1875, 0.25).  With tie_tol 0.0625 r lies exactly at the limit
    # 0.3125, where `search` keeps it as a tie, so the row must not hit;
    # with a smaller tie_tol p is alone, and the row, which fails the cell
    # test, hits without a scalar search.
    left = np.stack([-0.25 - np.arange(LEAF_SIZE)[::-1], np.zeros(LEAF_SIZE)], axis=1)
    right = np.stack([2.0 + np.arange(LEAF_SIZE - 1), np.zeros(LEAF_SIZE - 1)], axis=1)
    index = PointCloud(np.concatenate([left, [[0.1875, 0.25]], right]))._index
    p, r, q = LEAF_SIZE - 1, LEAF_SIZE, np.zeros((1, 2))
    assert index.cell_hi[index.leaf_of[p]].tolist() == [0.1875, math.inf]
    assert index.search(q[0], 0.0625) == (0.25, [p, r])
    assert not index.search_many(q, np.array([p]), 0.0625)[0][0]
    tol = 0.0625 - 2.0**-10
    assert index.search(q[0], tol) == (0.25, [p])
    hit, dmin, _ = index.search_many(q, np.array([p]), tol)
    assert hit[0] and dmin[0] == 0.25


@given(dim=st.integers(1, 4), n=st.integers(1, 9 * LEAF_SIZE), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_bounds_of_many_boxes_are_each_box_bounds(dim, n, seed, rows):
    # `bounds` takes leading query axes; each row's bounds are those of
    # its own call, bit for bit, so every search keeps one bound expression
    rng = np.random.default_rng(seed)
    index = PointCloud(rng.normal(size=(n, dim)))._index
    lo = rng.normal(size=(rows, dim))
    hi = lo + rng.uniform(0.0, 1.0, size=(rows, dim)) * rng.integers(0, 2, size=(rows, 1))
    got = index.bounds(lo, hi)
    assert got.shape == (rows, len(index.ids))
    for j in range(rows):
        assert got[j].tobytes() == index.bounds(lo[j], hi[j]).tobytes()


def test_incoherent_queries_visit_few_leaves(report_100k, monkeypatch):
    # A query far from the remembered leaf takes the smaller of its minimum
    # and the minimum of the leaf with the smallest bound as the threshold,
    # so shuffled queries visit a few leaves, not most of the cloud.
    cloud = PointCloud(report_100k.points[0::2])
    queries = report_100k.points[1::2][np.random.default_rng(0).permutation(50_000)[:1000]]
    rows = 0
    dists = euclid._dists

    def counting(points, q):
        nonlocal rows
        rows += len(points)
        return dists(points, q)

    monkeypatch.setattr(euclid, "_dists", counting)
    for q in queries:
        cloud.project(q, 1e-11)
    assert rows <= len(queries) * 4 * LEAF_SIZE


#: The broadcast shapes `_sq_dists` is called with: a leaf against one query
#: (`search`, `_dists`), a gathered batch block against its queries
#: (`search_many`), every pair of a tail (`map_driver._diameter`), and
#: candidates against a block of queries (`sequence.verify_nearest`).
_SQ_SHAPES = {
    "rows": lambda d: ((9, d), (d,)),
    "batch": lambda d: ((5, 7, d), (5, 1, d)),
    "pairs": lambda d: ((6, 1, d), (1, 6, d)),
    "blocks": lambda d: ((8, d), (3, 1, d)),
}


def _in_order_sq(p, q):
    """The squared coordinate differences added in axis order, in Python floats."""
    p, q = np.broadcast_arrays(p, q)
    out = []
    for x, y in zip(p.reshape(-1, p.shape[-1]).tolist(), q.reshape(-1, q.shape[-1]).tolist()):
        acc = (x[0] - y[0]) * (x[0] - y[0])
        for a, b in zip(x[1:], y[1:]):
            acc += (a - b) * (a - b)
        out.append(acc)
    return np.array(out).reshape(p.shape[:-1])


@given(d=st.integers(1, 12), shape=st.sampled_from(sorted(_SQ_SHAPES)),
       seed=st.integers(0, 2**32 - 1), exponent=st.integers(-160, 153))
@settings(max_examples=300, deadline=None)
def test_sq_dists_is_the_in_order_sum(d, shape, seed, exponent):
    # Below eight axes numpy's `.sum` adds in order too, so `_sq_dists` is
    # the scan oracles' expression, bit for bit; from eight on numpy sums
    # pairwise and `_sq_dists` keeps the axis order.
    rng = np.random.default_rng(seed)
    p, q = (rng.normal(size=size) * 10.0 ** exponent for size in _SQ_SHAPES[shape](d))
    got = euclid._sq_dists(p, q)
    want = _in_order_sq(p, q)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if d < 8:
        assert got.tobytes() == ((p - q) ** 2).sum(axis=-1).tobytes()
    assert euclid._dists(p, q).tobytes() == np.sqrt(want).tobytes()
    # the scalar forms add in the same order: `_norm` of a row's difference
    # is its batch distance, and `_dot` is `np.cumsum`'s strictly in-order sum
    u, v = (a.reshape(-1, d)[0] for a in np.broadcast_arrays(p, q))
    assert euclid._norm(u - v) == np.sqrt(want.flat[0])
    assert euclid._dot(u, v) == np.cumsum(u * v)[-1]


def test_every_cloud_distance_is_sq_dists(report_300, monkeypatch):
    # Each exact distance verdict reaches `_sq_dists`, so a squared sum
    # written inline again, a second distance path, fails here.
    calls = []
    sq_dists = euclid._sq_dists

    def counting(points, q):
        calls.append(points.shape)
        return sq_dists(points, q)

    monkeypatch.setattr(euclid, "_sq_dists", counting)

    def reaches(run):
        calls.clear()
        run()
        return bool(calls)

    cloud = PointCloud(report_300.points[0::2])
    queries = report_300.points[1:9:2]
    assert reaches(lambda: cloud.project(queries[0], 1e-11))
    expect = np.arange(1, 5)
    assert reaches(lambda: cloud._index.search_many(queries, expect, 1e-11))
    assert reaches(lambda: sequence.verify_nearest(report_300, 299))
    sets = counterexample.build(300, report=report_300)
    config = map_driver.MapConfig(sets.set_a, sets.set_b, report_300.points[0],
                                  max_iter=149, stop_step=1e-4)
    calls.clear()
    assert map_driver.run(config).verdict.kind == map_driver.VERDICT_CONTINUUM
    assert (map_driver.CONTINUUM_TAIL, 1, 2) in calls  # `_diameter` of the tail
