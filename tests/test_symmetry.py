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

from altproj import counterexample, finite_union, map_driver
from altproj.euclid import Ball, Box, Halfspace, PointCloud, Segment, Sphere, Union
from conftest import RELATIONS, assert_related, relate

_REL_IDS = [rel.name for rel in RELATIONS]


@pytest.fixture(scope="module")
def counterexample_run():
    sets = counterexample.build(2001)
    config = counterexample.make_config(sets, counterexample.max_safe_pairs(2001), 1e-6)
    return config, map_driver.run(config)


@pytest.mark.parametrize("rel", RELATIONS, ids=_REL_IDS)
def test_counterexample_run_maps_exactly(counterexample_run, rel):
    config, trace = counterexample_run
    assert len(trace.a) == 1000
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
