"""Exact symmetries as oracles for runs too long to check by brute force.

A run of a config carried through one of `conftest.RELATIONS` (a sign
flip, a 2**k scale, an appended zero axis, the swap of the first two axes)
must be the original run carried through it, bit for bit: points, step
norms, events and verdict.  No scan is needed to check that, so it holds
the MAP driver, the cloud index and every projector to their last bit at
any size.  It holds because every norm and inner product adds in axis order.
"""

import numpy as np
import pytest

from altproj import counterexample, finite_union, map_driver, sequence
from altproj.euclid import Ball, Box, Halfspace, PointCloud, Segment, Sphere, Union
from altproj.sequence import NearestPropertyViolated, SequenceReport
from conftest import RELATIONS, assert_related, relate

_REL_IDS = [rel.name for rel in RELATIONS]


@pytest.fixture(scope="module")
def counterexample_run(request):
    # at horizon 10 001 the run's 5 000 pairs come mostly in full 256-row batches
    sets = counterexample.build(request.param)
    config = counterexample.make_config(sets, counterexample.max_safe_pairs(request.param), 1e-6)
    return config, map_driver.run(config)


@pytest.mark.parametrize(
    "counterexample_run, rel", [(h, rel) for h in (2001, 10_001) for rel in RELATIONS],
    ids=_REL_IDS + [f"10001-{name}" for name in _REL_IDS], indirect=["counterexample_run"])
def test_counterexample_run_maps_exactly(counterexample_run, rel):
    config, trace = counterexample_run
    assert len(trace.a) == config.max_iter
    assert_related(trace, map_driver.run(relate(config, rel)), rel)


@pytest.mark.parametrize("rel", RELATIONS, ids=_REL_IDS)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_union_scenarios_map_exactly(dim, rel):
    for seed in range(100):
        config = finite_union.scenario_config(finite_union.generate_scenario(seed, dim, 4))
        assert_related(map_driver.run(config), map_driver.run(relate(config, rel)), rel)


@pytest.mark.parametrize("rel", RELATIONS, ids=_REL_IDS)
def test_every_convex_kind_maps_exactly(rel):
    # disjoint sides: the runs creep toward a segment-ball, a segment-sphere
    # and a halfspace-box pair, so each kind answers, and every member's
    # distance is taken, at each step
    set_a = Union([Segment([-2.0, -1.0], [3.0, 2.0]), Halfspace([-0.6, 0.8], -6.0)])
    set_b = Union([Ball([0.5, 3.0], 1.2), Box([4.0, -6.0], [5.0, -3.5]),
                   Sphere([-2.0, -4.0], 0.5)])
    for start in ([0.2, 9.0], [-3.8, -1.5], [6.6, -1.8]):
        config = map_driver.MapConfig(set_a, set_b, start, max_iter=200, stop_step=1e-15)
        trace = map_driver.run(config)
        assert len(trace.a) > 30
        assert_related(trace, map_driver.run(relate(config, rel)), rel)


@pytest.mark.parametrize("rel", RELATIONS, ids=_REL_IDS)
def test_ties_map_exactly(rel):
    # two interleaved 12 x 12 lattices: a point off the rim is equally near
    # four points of the other lattice, a tie broken by index, which no
    # relation changes, though the median splits store the mapped clouds
    # in another order (a tie broken by storage order fails under the flip)
    grid = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0)), axis=-1).reshape(-1, 2)
    config = map_driver.MapConfig(PointCloud(grid), PointCloud(grid + 0.5), [7.3, 4.6],
                                  max_iter=50)
    trace = map_driver.run(config)
    assert len(trace.multivalued_events) > 50
    assert_related(trace, map_driver.run(relate(config, rel)), rel)


# A report's points and lengths carried through a relation leave the
# nearest-point check's verdict as it was and scale its margin, whose
# runner-up term is the scaled distance to the predecessor.  The 2**30
# scale is left out: the unit sphere's distance exp(-alpha) does not scale,
# so the scaled successor lies farther than the sphere and the sphere rule
# rejects the report.
_REPORT_RELATIONS = [rel for rel in RELATIONS if rel.name != "scale-2^30"]


def _relate_report(report: SequenceReport, rel) -> SequenceReport:
    return SequenceReport(report.alphas, report.rhos * rel.scale, report.epss * rel.scale,
                          rel.forward(report.points))


@pytest.fixture(scope="module")
def report_20k():
    return sequence.generate(20_001)


@pytest.mark.parametrize("rel", _REPORT_RELATIONS, ids=[rel.name for rel in _REPORT_RELATIONS])
def test_nearest_margin_maps_exactly(report_20k, rel):
    margin = sequence.verify_nearest(report_20k, 20_000)
    image = sequence.verify_nearest(_relate_report(report_20k, rel), 20_000)
    assert (image / rel.scale).hex() == margin.hex()


@pytest.mark.parametrize("rel", _REPORT_RELATIONS, ids=[rel.name for rel in _REPORT_RELATIONS])
def test_nearest_violation_maps_exactly(report_20k, rel):
    pts = report_20k.points.copy()
    pts[[700, 9000]] = pts[[9000, 700]]
    r = report_20k
    perturbed = SequenceReport(r.alphas, r.rhos, r.epss, pts)
    with pytest.raises(NearestPropertyViolated) as want:
        sequence.verify_nearest(perturbed, 20_000)
    with pytest.raises(NearestPropertyViolated) as got:
        sequence.verify_nearest(_relate_report(perturbed, rel), 20_000)
    assert (got.value.n, got.value.found) == (want.value.n, want.value.found)
    assert str(got.value) == str(want.value)
