"""Empirical harness: alternating projections over finite unions of convex sets.

For finite unions, bounded iterates with vanishing gaps force convergence of
both sequences to a single common point of the intersection.  The harness
generates random scenarios whose members all contain a planted common point
(so the intersection is nonempty by construction), runs the driver, checks
the hypotheses empirically -- boundedness and gap decay -- and only then
asserts the conclusion.  Runs whose gaps fail to vanish within budget are
reported as hypotheses-not-met, never as failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from . import map_driver
from .euclid import (DEFAULT_TIE_TOL, Ball, Box, Halfspace, PointCloud, ProjectorSpec, Union,
                     _dot, _norm)
from .map_driver import VERDICT_CONVERGED, MapConfig

#: Default convergence / membership tolerance.
DEFAULT_TOL = 1e-8
#: MAP iteration budget of a generated scenario.
SCENARIO_MAX_ITER = 4000

OUTCOME_PASS = "pass"
OUTCOME_FAIL = "fail"
OUTCOME_HYPOTHESES_NOT_MET = "hypotheses_not_met"

__all__ = [
    "ConvergenceVerdict",
    "DEFAULT_TOL",
    "OUTCOME_FAIL",
    "OUTCOME_HYPOTHESES_NOT_MET",
    "OUTCOME_PASS",
    "UnionScenario",
    "check_theorem",
    "classify",
    "generate_scenario",
    "run_batch",
    "scenario_config",
]


@dataclass(eq=False)
class UnionScenario:
    a_members: list
    b_members: list
    start: np.ndarray
    seed: int
    max_iter: int
    common_point: np.ndarray

    def __post_init__(self):
        for members in (self.a_members, self.b_members):
            if not members:
                raise ValueError("each side needs at least one convex member")
            for m in members:
                _require_convex(m)


def _require_convex(member: ProjectorSpec) -> None:
    if isinstance(member, (Ball, Box, Halfspace)):
        return
    if isinstance(member, PointCloud) and member.points.shape[0] == 1:
        return
    raise ValueError(f"member {type(member).__name__} is not an allowed convex primitive")


def _random_member(rng: np.random.Generator, c: np.ndarray) -> ProjectorSpec:
    """A random convex set guaranteed to contain `c` strictly (except singletons)."""
    dim = c.size
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return Box(c - rng.uniform(0.1, 1.5, dim), c + rng.uniform(0.1, 1.5, dim))
    if kind == 1:
        radius = float(rng.uniform(0.4, 2.0))
        direction = rng.normal(size=dim)
        direction /= _norm(direction)
        shift = float(rng.uniform(0.0, 0.8)) * radius
        return Ball(c + shift * direction, radius)
    normal = rng.normal(size=dim)
    normal /= _norm(normal)
    slack = float(rng.uniform(0.05, 1.0))
    return Halfspace(normal, _dot(normal, c) + slack)


def generate_scenario(seed: int, dim: int = 2, members_per_side: int = 3) -> UnionScenario:
    """Deterministic random scenario with a planted common point.

    Member counts are drawn in 1..members_per_side; the start lies within a
    ball of radius 10 around the planted point.
    """
    if not (2 <= dim <= 4):
        raise ValueError(f"dim must be in 2..4, got {dim}")
    if not (1 <= members_per_side <= 4):
        raise ValueError(f"members_per_side must be in 1..4, got {members_per_side}")
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, dim)
    k_a = int(rng.integers(1, members_per_side + 1))
    k_b = int(rng.integers(1, members_per_side + 1))
    a_members = [_random_member(rng, c) for _ in range(k_a)]
    b_members = [_random_member(rng, c) for _ in range(k_b)]
    direction = rng.normal(size=dim)
    direction /= _norm(direction)
    start = c + float(rng.uniform(0.0, 10.0)) * direction
    return UnionScenario(a_members, b_members, start, int(seed), SCENARIO_MAX_ITER, c)


@dataclass(eq=False)
class ConvergenceVerdict:
    converged: bool
    limit: Optional[np.ndarray]
    limit_in_intersection: bool
    gaps_vanished: bool
    bounded: bool
    iterations_used: int


def scenario_config(scenario: UnionScenario, tol: float = DEFAULT_TOL) -> MapConfig:
    """The driver config a scenario runs under (stop rule at tol/100)."""
    return MapConfig(_as_set(scenario.a_members), _as_set(scenario.b_members),
                     scenario.start, max_iter=scenario.max_iter,
                     stop_step=tol * 1e-2)


def check_theorem(scenario: UnionScenario, tol: float = DEFAULT_TOL) -> ConvergenceVerdict:
    """Run the scenario and report hypothesis and conclusion checks.

    Hypotheses: all iterates bounded by 10x the starting scale, and the final
    gaps below `tol`.  Conclusion (only meaningful when the hypotheses hold):
    the last iterates of both sequences agree within `tol` on a common limit
    that lies within `tol` of at least one member on each side.
    """
    trace = map_driver.run(scenario_config(scenario, tol))

    scale = max(1.0, _norm(scenario.start))
    bounded = max(_norm(p) for p in chain(trace.a, trace.b)) <= 10.0 * scale

    gaps_vanished = bool(trace.step_ab[-1] < tol
                         and (trace.step_ba.size == 0 or trace.step_ba[-1] < tol))

    # A converged verdict bounds b[-2], a[-1] and b[-1] pairwise by
    # 10 * stop_step = tol / 10, so each lies within tol of the limit b[-1].
    converged = trace.verdict.kind == VERDICT_CONVERGED
    limit = trace.verdict.limit
    in_intersection = False
    if limit is not None:
        # the limit is a MAP iterate, a finite float64 point of the members'
        # dimension, so `_nearest` measures it without `project`'s query checks
        in_intersection = all(
            min(m._nearest(limit, DEFAULT_TIE_TOL).distance for m in members) <= tol
            for members in (scenario.a_members, scenario.b_members)
        )
    return ConvergenceVerdict(
        converged=converged,
        limit=limit,
        limit_in_intersection=in_intersection,
        gaps_vanished=gaps_vanished,
        bounded=bounded,
        iterations_used=trace.verdict.iterations_used,
    )


def _as_set(members: list) -> ProjectorSpec:
    return members[0] if len(members) == 1 else Union(list(members))


def classify(verdict: ConvergenceVerdict) -> str:
    """pass / fail / hypotheses_not_met, gating the conclusion on the hypotheses."""
    if not (verdict.gaps_vanished and verdict.bounded):
        return OUTCOME_HYPOTHESES_NOT_MET
    if verdict.converged and verdict.limit_in_intersection:
        return OUTCOME_PASS
    return OUTCOME_FAIL


def _line_template(limit: str) -> str:
    """One verdict's JSON line with `limit` in the limit's place: seed,
    outcome, converged, limit_in_intersection, gaps_vanished, bounded and
    iterations_used fill the other fields, in that order."""
    return ('{"seed": %d, "outcome": "%s", "converged": %s, "limit": ' + limit
            + ', "limit_in_intersection": %s, "gaps_vanished": %s, "bounded": %s,'
            ' "iterations_used": %d}\n')


_JSON_BOOL = ("false", "true")


def run_batch(seeds, stream, dim: int = 2, members_per_side: int = 3,
              tol: float = DEFAULT_TOL) -> dict:
    """Run scenarios for every seed (in order), writing JSON lines to `stream`.

    Each line is one object: seed, outcome, converged, limit (null without
    one), limit_in_intersection, gaps_vanished, bounded and iterations_used,
    floats with 17 significant digits as `serialize.fmt17` writes them.  A
    limit is only set on a converged run, whose last steps are finite, so
    its coordinates are finite.

    Returns outcome counts: {"pass": _, "fail": _, "hypotheses_not_met": _}.
    """
    counts = {OUTCOME_PASS: 0, OUTCOME_FAIL: 0, OUTCOME_HYPOTHESES_NOT_MET: 0}
    no_limit = _line_template("null")
    with_limit = _line_template("[" + ", ".join(["%.17g"] * dim) + "]")
    for seed in seeds:
        verdict = check_theorem(generate_scenario(seed, dim, members_per_side), tol)
        outcome = classify(verdict)
        counts[outcome] += 1
        limit = verdict.limit
        template, coords = (no_limit, ()) if limit is None else (with_limit, limit.tolist())
        stream.write(template % (seed, outcome, _JSON_BOOL[verdict.converged], *coords,
                                 _JSON_BOOL[verdict.limit_in_intersection],
                                 _JSON_BOOL[verdict.gaps_vanished],
                                 _JSON_BOOL[verdict.bounded], verdict.iterations_used))
    return counts
