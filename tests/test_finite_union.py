import io
import json

import numpy as np
import pytest

from altproj import finite_union, map_driver
from altproj.euclid import Ball, Box, PointCloud, Sphere
from altproj.finite_union import (
    OUTCOME_FAIL,
    OUTCOME_HYPOTHESES_NOT_MET,
    OUTCOME_PASS,
    UnionScenario,
    check_theorem,
    classify,
    generate_scenario,
    run_batch,
)
from conftest import as_lists, distance, verdict_line


def test_scenario_is_deterministic():
    s1 = generate_scenario(7, dim=3, members_per_side=4)
    s2 = generate_scenario(7, dim=3, members_per_side=4)
    assert np.array_equal(s1.start, s2.start)
    assert np.array_equal(s1.common_point, s2.common_point)
    assert len(s1.a_members) == len(s2.a_members)
    for m1, m2 in zip(s1.a_members + s1.b_members, s2.a_members + s2.b_members):
        assert as_lists(m1.to_dict()) == as_lists(m2.to_dict())


def test_scenario_members_contain_planted_point():
    for seed in range(30):
        s = generate_scenario(seed, dim=2, members_per_side=4)
        for member in s.a_members + s.b_members:
            assert distance(member, s.common_point) == 0.0
        assert np.linalg.norm(s.start - s.common_point) <= 10.0 + 1e-12


def test_scenario_validation():
    with pytest.raises(ValueError):
        generate_scenario(0, dim=5)
    with pytest.raises(ValueError):
        generate_scenario(0, dim=2, members_per_side=0)
    with pytest.raises(ValueError):
        UnionScenario([Sphere([0.0, 0.0], 1.0)], [Ball([0.0, 0.0], 1.0)],
                      np.zeros(2), 0, 100, np.zeros(2))
    with pytest.raises(ValueError):
        UnionScenario([PointCloud([[0.0, 0.0], [1.0, 0.0]])], [Ball([0.0, 0.0], 1.0)],
                      np.zeros(2), 0, 100, np.zeros(2))


def test_two_boxes_hand_checked_limit():
    scenario = UnionScenario(
        a_members=[Box([0.0, 0.0], [1.0, 1.0])],
        b_members=[Box([1.0, 0.0], [2.0, 1.0])],
        start=np.array([3.0, 0.5]),
        seed=0,
        max_iter=50,
        common_point=np.array([1.0, 0.5]),
    )
    verdict = check_theorem(scenario)
    assert verdict.converged
    assert verdict.bounded
    assert verdict.gaps_vanished
    np.testing.assert_array_equal(verdict.limit, [1.0, 0.5])
    assert verdict.limit_in_intersection
    assert classify(verdict) == OUTCOME_PASS


def test_oscillation_between_branches_is_hypotheses_not_met():
    # two symmetric singleton branches per side keep the gap at sqrt(2) forever
    scenario = UnionScenario(
        a_members=[PointCloud([[0.0, 1.0]]), PointCloud([[0.0, -1.0]])],
        b_members=[PointCloud([[1.0, 0.0]]), PointCloud([[-1.0, 0.0]])],
        start=np.array([1.0, 0.0]),
        seed=0,
        max_iter=60,
        common_point=np.array([0.0, 0.0]),  # not actually in the sets
    )
    verdict = check_theorem(scenario)
    assert not verdict.gaps_vanished
    assert verdict.bounded
    assert classify(verdict) == OUTCOME_HYPOTHESES_NOT_MET
    assert not verdict.converged


def test_convex_only_scenarios_converge():
    outcomes = [classify(check_theorem(generate_scenario(seed, dim=2, members_per_side=1)))
                for seed in range(20)]
    assert OUTCOME_FAIL not in outcomes
    assert outcomes.count(OUTCOME_PASS) >= 15


def test_distance_to_limit_monotone_after_capture():
    # once an iterate is closer to the limit than half the clearance to the
    # members not containing it, projections stay on the limit's members and
    # the distances are nonincreasing from there
    for seed in range(30):
        scenario = generate_scenario(seed, dim=2, members_per_side=3)
        verdict = check_theorem(scenario)
        if not (verdict.converged and verdict.limit_in_intersection):
            continue
        limit = verdict.limit
        config = finite_union.scenario_config(scenario, finite_union.DEFAULT_TOL)
        trace = map_driver.run(config)
        clearances = [distance(m, limit)
                      for m in scenario.a_members + scenario.b_members
                      if distance(m, limit) > finite_union.DEFAULT_TOL]
        delta = min([1.0] + clearances)
        dists = [float(np.linalg.norm(a - limit)) for a in trace.a]
        captured = next((i for i, d in enumerate(dists) if d < delta / 2.0), None)
        if captured is None:
            continue
        tail = dists[captured:]
        for d0, d1 in zip(tail, tail[1:]):
            assert d1 <= d0 + 1e-9


def test_no_separated_cluster_points_when_hypotheses_hold():
    # contrapositive at desk scale: a hypothesis-satisfying run must not keep
    # two cluster points apart, so its tail iterates collapse to one spot
    tol = finite_union.DEFAULT_TOL
    checked = 0
    for seed in range(25):
        scenario = generate_scenario(seed, dim=2, members_per_side=3)
        verdict = check_theorem(scenario, tol)
        if not (verdict.gaps_vanished and verdict.bounded):
            continue
        trace = map_driver.run(finite_union.scenario_config(scenario, tol))
        tail = [trace.a[-1], trace.b[-1], *trace.b[-2:-1]]
        worst = max(np.linalg.norm(p - q) for p in tail for q in tail)
        assert worst <= 10.0 * tol
        checked += 1
    assert checked >= 15


def test_batch_counts_and_replay():
    buf = io.StringIO()
    counts = run_batch(range(10), dim=2, members_per_side=3, stream=buf)
    assert sum(counts.values()) == 10
    assert counts[OUTCOME_FAIL] == 0
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 10
    objs = [json.loads(line) for line in lines]
    assert [o["seed"] for o in objs] == list(range(10))
    # replaying one seed reproduces its line exactly
    again = io.StringIO()
    run_batch([objs[3]["seed"]], dim=2, members_per_side=3, stream=again)
    assert again.getvalue().strip() == lines[3]


def test_verdict_json_obj_round_trip():
    verdict = check_theorem(generate_scenario(1, dim=2, members_per_side=2))
    buf = io.StringIO()
    run_batch([1], dim=2, members_per_side=2, stream=buf)
    obj = json.loads(buf.getvalue())
    assert obj["seed"] == 1
    assert obj["outcome"] == classify(verdict)
    assert obj["outcome"] in (OUTCOME_PASS, OUTCOME_FAIL, OUTCOME_HYPOTHESES_NOT_MET)
    assert obj["limit"] == verdict.limit.tolist()
    assert isinstance(obj["gaps_vanished"], bool)


@pytest.mark.parametrize("members", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_verdict_lines_equal_the_oracle(dim, members):
    seeds = range(100, 125)
    buf = io.StringIO()
    run_batch(seeds, dim=dim, members_per_side=members, stream=buf)
    want = "".join(verdict_line(seed, check_theorem(generate_scenario(seed, dim, members)))
                   for seed in seeds)
    assert buf.getvalue() == want


def test_verdict_line_without_a_limit_equals_the_oracle(monkeypatch):
    # one MAP iteration converges only from a start already in both sides
    monkeypatch.setattr(finite_union, "SCENARIO_MAX_ITER", 1)
    seeds = range(20)
    buf = io.StringIO()
    run_batch(seeds, dim=3, members_per_side=4, stream=buf)
    verdicts = [check_theorem(generate_scenario(seed, 3, 4)) for seed in seeds]
    assert any(v.limit is None for v in verdicts)
    assert buf.getvalue() == "".join(verdict_line(s, v) for s, v in zip(seeds, verdicts))
    assert '"limit": null,' in buf.getvalue()


def test_verdict_line_writes_a_negative_zero_limit(monkeypatch):
    verdict = finite_union.ConvergenceVerdict(
        converged=True, limit=np.array([-0.0, 0.1, 5e-324]), limit_in_intersection=True,
        gaps_vanished=True, bounded=True, iterations_used=7)
    monkeypatch.setattr(finite_union, "check_theorem", lambda scenario, tol: verdict)
    buf = io.StringIO()
    assert run_batch([5], dim=3, members_per_side=2, stream=buf)[OUTCOME_PASS] == 1
    assert buf.getvalue() == verdict_line(5, verdict)
    assert '"limit": [-0, 0.10000000000000001, 4.9406564584124654e-324]' in buf.getvalue()
