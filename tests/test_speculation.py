"""`map_driver.run` predicts point-cloud answers in batches; it must be the
sequential driver, `run_sequential`, bit for bit, errors included."""

import logging
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj import counterexample, euclid, map_driver
from altproj.euclid import (
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
    VERDICT_CONVERGED,
    MapConfig,
    ProjectionTie,
    run,
    trace_to_json,
)
from conftest import run_sequential

_LOG = re.compile(r"(\d+) speculative batches gave (\d+) pairs, _step gave (\d+)")


def _outcome(runner, config):
    """Everything a run shows: the trace's bytes and events, or the error."""
    try:
        trace = runner(config)
    except (ProjectionTie, DegenerateProjection) as exc:
        return type(exc), str(exc), getattr(exc, "iteration", None)
    return trace_to_json(trace), trace.multivalued_events, trace.verdict.kind


def _same(config):
    """`run`'s outcome on `config`, asserted equal to the oracle's."""
    got = _outcome(run, config)
    assert got == _outcome(run_sequential, config)
    return got


def _check(config, caplog):
    """`_same`, and the logged batches, pairs from them and pairs from
    `_step` of a run that returns (None for one that raises)."""
    with caplog.at_level(logging.DEBUG, logger=map_driver.log.name):
        caplog.clear()
        got = _same(config)
    logged = _LOG.findall(caplog.text)
    return got, [int(c) for c in logged[0]] if logged else None


def _arrange(points, layout, rng):
    """The cloud's storage order, which sets the index stride of a walk."""
    cut = int(rng.integers(len(points) + 1))
    if layout == "reverse":
        return points[::-1]
    if layout in ("spread", "spread-reverse"):  # far decoys between: stride 2
        out = np.repeat(points, 2, axis=0)
        out[1::2] += 50.0
        return out[::-1] if layout == "spread-reverse" else out
    if layout == "blocks":  # the stride changes at the cut
        return np.concatenate([points[:cut], points[cut:][::-1]])
    if layout == "swaps":  # strides +1, +2 and -1: predictions often miss by one
        order = np.arange(len(points))
        swap = np.flatnonzero(rng.random(len(points) // 2) < 0.5) * 2
        order[swap], order[swap + 1] = swap + 1, swap
        return points[order]
    return points


def _partner(kind, rng, pts):
    dim = pts.shape[1]
    if kind == "sphere":
        return Sphere(np.zeros(dim), 1.0)
    if kind == "ball":
        return Ball(np.zeros(dim), 1.0)
    if kind == "box":
        return Box(np.full(dim, -0.5), np.full(dim, 0.5))
    # a small sphere about a cloud point: queries land on its center
    return Sphere(pts[int(rng.integers(len(pts)))].copy(), float(rng.choice([1e-3, 1e-2, 0.1])))


_LAYOUTS = ["forward", "reverse", "spread", "spread-reverse", "blocks", "swaps"]


@given(family=st.sampled_from(["walk", "grid", "convex"]), seed=st.integers(0, 2**32 - 1),
       dim=st.integers(1, 4), horizon=st.integers(3, 300),
       layout_a=st.sampled_from(_LAYOUTS), layout_b=st.sampled_from(_LAYOUTS),
       partner_a=st.sampled_from(["none", "sphere", "ball", "box", "near"]),
       partner_b=st.sampled_from(["none", "sphere", "ball", "box", "near"]),
       policy=st.sampled_from([TIE_LOWEST_INDEX, TIE_ERROR]),
       stop_step=st.sampled_from([0.0, 1e-12, 1e-3, 0.5]), max_iter=st.integers(1, 200))
@settings(max_examples=200, deadline=None)
def test_run_is_the_sequential_run(report_300, family, seed, dim, horizon, layout_a, layout_b,
                                   partner_a, partner_b, policy, stop_step, max_iter):
    rng = np.random.default_rng(seed)
    if family == "walk":
        # the spiral's iterates split by parity, lifted into `dim` axes: the
        # answers walk the clouds with strides +-1 or +-2
        walk = np.zeros((horizon, max(dim, 2)))
        walk[:, :2] = report_300.points[:horizon]
        pts_a, pts_b = walk[0::2], walk[1::2]
        start = walk[0]
        pts_a, pts_b = _arrange(pts_a, layout_a, rng), _arrange(pts_b, layout_b, rng)
    elif family == "grid":
        # tiny one-leaf clouds on a half-integer grid: duplicates and ties
        pts_a, pts_b, start = (rng.integers(-2, 3, size=(int(rng.integers(1, 70)), dim)) * 0.5
                               for _ in range(3))
        start = start[0]
    else:
        set_a = Box(np.full(dim, -1.0), np.full(dim, 1.0))
        normal = np.eye(dim)[0]
        set_b = Union([Ball(np.full(dim, 2.0), 1.5), Halfspace(normal, float(rng.uniform(-1, 3)))])
        config = MapConfig(set_a, set_b, rng.normal(size=dim) * 3.0, max_iter=max_iter,
                           stop_step=stop_step, tie_policy=policy)
        _same(config)
        return
    sets = []
    for pts, partner in ((pts_a, partner_a), (pts_b, partner_b)):
        cloud = PointCloud(pts)
        sets.append(cloud if partner == "none" else Union([cloud, _partner(partner, rng, pts)]))
    config = MapConfig(sets[0], sets[1], start, max_iter=max_iter,
                       stop_step=stop_step, tie_policy=policy)
    _same(config)


def _line(count):
    """Points x_j = 1 - 2^-j on the x-axis, j < count: from x_j the nearest
    other point is x_{j+1}, so MAP between the even and the odd ones walks
    both with stride 1, in exact arithmetic.  Batches start at pair 2 and
    double: pairs 2, 3-4, 5-8, 9-16 and 17-32."""
    x = 1.0 - 2.0 ** -np.arange(count, dtype=float)
    return np.stack([x, np.zeros(count)], axis=1)


def _line_config(a, b, **options):
    options.setdefault("tie_tol", 1e-12)  # steps down to 2^-39 keep their neighbours apart
    return MapConfig(a, b, [0.0, 0.0], **options)


def _line_sets(count=40):
    pts = _line(count)
    return pts[0::2], pts[1::2]


def test_stop_step_reached_inside_a_batch(caplog):
    a, b = _line_sets()
    # d_in = 2^-2n and d_ab = 2^-(2n+1), both below 2^-23 from pair 12 on
    config = _line_config(PointCloud(a), PointCloud(b), stop_step=2.0 ** -23)
    _, counts = _check(config, caplog)
    verdict = run(config).verdict
    assert verdict.kind == VERDICT_CONVERGED and verdict.iterations_used == 13
    assert counts == [4, 11, 2]  # the batch of pairs 9-16 stops after pair 12


def test_max_iter_reached_inside_a_batch(caplog):
    a, b = _line_sets()
    _, counts = _check(_line_config(PointCloud(a), PointCloud(b), max_iter=13, stop_step=0.0),
                       caplog)
    assert counts == [4, 11, 2]  # the batch from pair 9 is cut to 4 pairs


def test_stride_change_inside_a_batch(caplog):
    a, b = _line_sets()
    b = np.concatenate([b[:11], b[11:][::-1]])  # stride +1, then a jump, then -1
    _, counts = _check(_line_config(PointCloud(a), PointCloud(b), max_iter=19, stop_step=0.0),
                       caplog)
    assert counts[1] > 10 and counts[2] > 2


def test_prediction_past_the_end_of_the_cloud(caplog):
    # the walk reaches the last points, then repeats them with stride 0
    a, b = _line_sets(20)
    _, counts = _check(_line_config(PointCloud(a), PointCloud(b), max_iter=40, stop_step=0.0),
                       caplog)
    assert counts[1] > 20


def _tie_config(policy):
    # 1 - 3 * 2^-24 lies 2^-24 from b_11 = x_23, as a_12 = x_24 does: a tie
    # at pair 12, inside the batch of pairs 9-16
    a, b = _line_sets()
    a = np.concatenate([a, [[1.0 - 3.0 * 2.0 ** -24, 0.0]]])
    return _line_config(PointCloud(a), PointCloud(b), max_iter=19, stop_step=0.0,
                        tie_policy=policy)


def _center_config(radius):
    # b_11 = x_23 is the sphere's center at pair 12; the cloud's answer lies
    # 2^-24 away.  A smaller sphere is nearer there and the projection
    # degenerates; a larger one leaves the cloud's answer and later lies
    # nearer than the cloud, so the walk leaves the cloud.
    a, b = _line_sets()
    sphere = Sphere(_line(24)[23], radius * 2.0 ** -24)
    return _line_config(Union([PointCloud(a), sphere]), PointCloud(b), max_iter=19,
                        stop_step=0.0)


@pytest.mark.parametrize("policy", [TIE_ERROR, TIE_LOWEST_INDEX])
def test_tie_inside_a_batch(policy, caplog):
    got, _ = _check(_tie_config(policy), caplog)
    if policy == TIE_ERROR:
        assert got[0] is ProjectionTie and got[2] == 12
    else:
        assert got[1] == [(12, "A")]


@pytest.mark.parametrize("radius", [0.5, 1.5])
def test_sphere_center_query_inside_a_batch(radius, caplog):
    got, _ = _check(_center_config(radius), caplog)
    if radius < 1.0:
        assert got[0] is DegenerateProjection and "iteration 12" in got[1]
    else:
        assert isinstance(got[0], str)


@pytest.mark.parametrize("config", [_tie_config(TIE_ERROR), _tie_config(TIE_LOWEST_INDEX),
                                    _center_config(0.5), _center_config(1.5)],
                         ids=["tie-error", "tie-lowest-index", "center-small", "center-large"])
def test_confirm_projects_no_row_alone(config, monkeypatch, caplog):
    # `_confirm` stops its count at the first row its batch cannot settle
    # and leaves that row to `_step`, so each query is projected once: no
    # scalar projection runs inside `_confirm`.
    confirms = inside = scalar = 0
    confirm = euclid._confirm

    def spying_confirm(*args):
        nonlocal confirms, inside
        confirms += 1
        inside += 1
        try:
            return confirm(*args)
        finally:
            inside -= 1

    def spying(nearest):
        def spying_nearest(self, q, tie_tol):
            nonlocal scalar
            scalar += inside > 0
            return nearest(self, q, tie_tol)
        return spying_nearest

    monkeypatch.setattr(euclid, "_confirm", spying_confirm)
    for kind in (PointCloud, Union):
        monkeypatch.setattr(kind, "_nearest", spying(kind._nearest))
    _check(config, caplog)
    assert confirms > 0 and scalar == 0


@pytest.mark.parametrize("policy", [TIE_ERROR, TIE_LOWEST_INDEX])
def test_point_stored_twice_inside_a_batch(policy, caplog):
    # a_12 = x_24 is stored again at the end of A.  The batch of pairs 9-16
    # cannot settle pair 12, whose nearest points are the two copies, but
    # `project` deduplicates them to one answer: `_step` projects pair 12
    # with no event under either policy, and the walk goes on from the
    # first copy.
    a, b = _line_sets()
    a = np.concatenate([a, a[12:13]])
    config = _line_config(PointCloud(a), PointCloud(b), max_iter=19, stop_step=0.0,
                          tie_policy=policy)
    got, (batches, speculated, stepped) = _check(config, caplog)
    assert got[1] == [] and speculated + stepped == 19 and batches >= 1 and stepped > 2
    assert run(config).a[12].tobytes() == a[12].tobytes()


def test_mispredicted_walks_batch_rarely(report_10k, caplog):
    # Random neighbour swaps in storage order give strides +1, +2 and -1,
    # so most predictions miss.  After a miss a batch waits for steady
    # strides; a batch before every pair would double the projection work.
    rng = np.random.default_rng(5)
    pts = report_10k.points[:4001]
    a, b = (PointCloud(_arrange(p, "swaps", rng)) for p in (pts[0::2], pts[1::2]))
    config = MapConfig(a, b, pts[0], max_iter=1999, stop_step=0.0)
    _, (batches, speculated, stepped) = _check(config, caplog)
    assert speculated + stepped == 1999 and batches <= 100


def test_corollary_run_projects_in_batches(monkeypatch):
    # 5 000 pairs took 10 000 `project` calls one step at a time; the
    # batches leave at most 1 % of them.  Convex sets keep 2 per iteration.
    calls = 0
    project = euclid.ProjectorSpec.project

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return project(self, *args, **kwargs)

    monkeypatch.setattr(euclid.ProjectorSpec, "project", counting)
    sets = counterexample.build(10_001)
    trace = counterexample.run_corollary(sets, counterexample.max_safe_pairs(10_001))
    assert len(trace.a) == 5_000
    assert calls <= 100
    calls = 0
    box = Box([0.0, 0.0], [1.0, 1.0])
    run(MapConfig(box, box, [3.0, 0.5], max_iter=7, stop_step=0.0))
    assert calls == 14


def test_run_logs_its_batches(report_300, caplog):
    sets = counterexample.build(201, report=report_300)
    with caplog.at_level(logging.DEBUG, logger=map_driver.log.name):
        counterexample.run_corollary(sets, 100)
    batches, speculated, stepped = (int(c) for c in _LOG.findall(caplog.text)[-1])
    assert speculated + stepped == 100 and stepped == 2 and batches >= 1


def test_confirmed_batches_do_no_row_by_row_work(monkeypatch, caplog):
    # A confirmed batch takes its step norms from `_dists` and the circle's
    # distances from `_Round._distances`: `run` calls `_norm` only for its
    # `_step` pairs, two each, and the circle's `_nearest` runs only inside
    # those `_step` projections, once per set.  One row at a time, that was
    # two `_norm` calls per pair and a circle distance per row.
    norms = rounds = 0
    norm = euclid._norm

    def counting_norm(v):
        nonlocal norms
        norms += sys._getframe(1).f_code is map_driver.run.__code__
        return norm(v)

    def counting(nearest):
        def counting_nearest(self, q, tie_tol):
            nonlocal rounds
            rounds += 1
            return nearest(self, q, tie_tol)
        return counting_nearest

    monkeypatch.setattr(euclid, "_norm", counting_norm)
    for kind in euclid._Round.__subclasses__():
        monkeypatch.setattr(kind, "_nearest", counting(kind._nearest))
    sets = counterexample.build(2001)
    with caplog.at_level(logging.DEBUG, logger=map_driver.log.name):
        trace = counterexample.run_corollary(sets, counterexample.max_safe_pairs(2001))
    batches, speculated, stepped = (int(c) for c in _LOG.findall(caplog.text)[-1])
    assert len(trace.a) == 1000 and speculated + stepped == 1000 and batches >= 1
    assert norms <= 2 * stepped and rounds <= 2 * stepped


@pytest.mark.parametrize("horizon", [2001, 10_001])
def test_rows_near_a_cell_face_stay_in_the_batch(horizon, monkeypatch, caplog):
    # A batch row that fails only the cell test is settled by the batch's
    # own pass over the neighbouring leaves.  A scalar search is left only
    # for each `_step` projection, two per pair.  Sending those rows to a
    # scalar search took 88 searches at horizon 2 001 and 448 at 10 001.
    searches = 0
    search = euclid._CloudIndex.search

    def counting_search(self, q, tie_tol):
        nonlocal searches
        searches += 1
        return search(self, q, tie_tol)

    monkeypatch.setattr(euclid._CloudIndex, "search", counting_search)
    sets = counterexample.build(horizon)
    with caplog.at_level(logging.DEBUG, logger=map_driver.log.name):
        trace = counterexample.run_corollary(sets, counterexample.max_safe_pairs(horizon))
    batches, speculated, stepped = (int(c) for c in _LOG.findall(caplog.text)[-1])
    assert len(trace.a) == speculated + stepped == horizon // 2 and batches >= 1
    assert searches <= 2 * stepped
