import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj import euclid, sequence
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
from conftest import nearest_in_cloud

O2 = np.zeros(2)


def test_sphere_distance_radial():
    assert Sphere(O2, 1.0).distance([2.0, 0.0]) == 1.0


def test_sphere_distance_at_spiral_start():
    # the spiral starts at (2, 0); its distance to the unit sphere is exp(-0) = 1
    assert Sphere(O2, 1.0).distance([2.0, 0.0]) == math.exp(-0.0)


def test_union_of_point_cloud_distance():
    spec = Union([PointCloud([[0.0, 0.0], [3.0, 0.0]])])
    assert spec.distance([1.0, 0.0]) == 1.0


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
    pts = report.points()
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
    assert hs.distance([0.0, 0.0]) == 0.0


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


def test_ball_center_projection_is_fine():
    res = Ball(O2, 1.0).project([0.0, 0.0])
    np.testing.assert_array_equal(res.candidates[0], [0.0, 0.0])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Sphere(O2, 1.0).distance([1.0, 2.0, 3.0])
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
    pts = report_300.points()[:101]
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
        d = spec.distance(q)
        res = spec.project(q)
        assert abs(res.distance - d) <= 1e-9
        assert res.multivalued == (len(res.candidates) > 1)
        for cand in res.candidates:
            assert abs(np.linalg.norm(q - cand) - d) <= 1e-9
            assert spec.distance(cand) <= 1e-9


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
    assert back.to_dict() == spec.to_dict()
    # 17 significant digits round-trip binary64 exactly
    assert json.loads(text)["members"][3]["offset"] == 0.125


def test_json_renders_17_significant_digits():
    assert "0.10000000000000001" in render_json(Sphere([0.1, 0.0], 1.0).to_dict())


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
    assert data["members"][1] == {"type": "ball", "center": [0.5, 0.5], "radius": 2.0}


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


def _oracle_dedupe(points, tol):
    kept = []
    for p in points:
        if all(float(np.linalg.norm(p - k)) > tol for k in kept):
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
            r = float(np.linalg.norm(diff))
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
    for q in queries:
        expected = _oracle([cloud], q, tol)
        _assert_matches_oracle(cloud.project(q, tol), expected)
        assert cloud.distance(q) == expected[0]
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
    assert Union([sphere, PointCloud([[3.0, 0.0]])]).distance([0.0, 0.0]) == 1.0
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
