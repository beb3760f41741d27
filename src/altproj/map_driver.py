"""The method of alternating projections over arbitrary projector specs.

Given closed sets A and B and a starting point, `run` iterates
a_n = P_A(b_{n-1}), b_n = P_B(a_n), capturing every iterate, the step norms,
and any multivalued projection events.  The verdict classifies the run:

* converged_to_point -- both latest step norms fell below `stop_step` and
  the last few iterates coincide to 10x that tolerance;
* continuum_suspected -- steps became small (below 1000x `stop_step`) yet
  the tail iterates stay spread out (beyond 100x `stop_step`).  Planar tails
  also report their angular spread.  This is a diagnostic heuristic, not a
  theorem: no finite run can prove a continuum;
* budget_exhausted -- anything else at the iteration cap.

Both projections gather candidates within the config's `tie_tol`.  Runs are
deterministic: identical configs produce bitwise-identical traces.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import euclid
from .euclid import DEFAULT_TIE_TOL, DegenerateProjection, ProjectorSpec, _finite, _integer
from .serialize import render_json

log = logging.getLogger(__name__)

TIE_LOWEST_INDEX = "lowest_index"
TIE_ERROR = "error"
_TIE_POLICIES = (TIE_LOWEST_INDEX, TIE_ERROR)

VERDICT_CONVERGED = "converged_to_point"
VERDICT_CONTINUUM = "continuum_suspected"
VERDICT_BUDGET = "budget_exhausted"

#: Tail window (in a-iterates) inspected by the continuum heuristic.
CONTINUUM_TAIL = 100
#: Steps below stop_step times this factor count as "small" for the heuristic.
CONTINUUM_STEP_FACTOR = 1e3
#: Tail spread above stop_step times this factor counts as "not clustering".
CONTINUUM_SPREAD_FACTOR = 1e2

__all__ = [
    "MapConfig",
    "MapTrace",
    "ProjectionTie",
    "TIE_ERROR",
    "TIE_LOWEST_INDEX",
    "VERDICT_BUDGET",
    "VERDICT_CONTINUUM",
    "VERDICT_CONVERGED",
    "Verdict",
    "config_from_dict",
    "config_to_dict",
    "max_circular_gap",
    "run",
    "trace_to_json",
]


class ProjectionTie(RuntimeError):
    """A projection was multivalued and the tie policy forbids picking."""

    def __init__(self, iteration: int, which: str, count: int):
        super().__init__(
            f"projection onto {which} at iteration {iteration} returned {count} candidates"
        )
        self.iteration = iteration
        self.which = which
        self.count = count


@dataclass(eq=False)
class MapConfig:
    set_a: ProjectorSpec
    set_b: ProjectorSpec
    start: np.ndarray
    max_iter: int = 1000
    stop_step: float = 1e-12
    tie_policy: str = TIE_LOWEST_INDEX
    tie_tol: float = DEFAULT_TIE_TOL

    def __post_init__(self):
        self.start = euclid.as_point(self.start)
        if self.set_a.dim != self.set_b.dim or self.set_a.dim != self.start.size:
            raise ValueError(
                f"dimension mismatch: A is {self.set_a.dim}-d, B is {self.set_b.dim}-d, "
                f"start is {self.start.size}-d"
            )
        self.max_iter = _integer("max_iter", self.max_iter)
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        self.stop_step = _finite("stop_step", self.stop_step)
        if self.stop_step < 0.0:
            raise ValueError(f"stop_step must be >= 0, got {self.stop_step}")
        if self.tie_policy not in _TIE_POLICIES:
            raise ValueError(f"tie_policy must be one of {_TIE_POLICIES}, got {self.tie_policy!r}")
        self.tie_tol = _finite("tie_tol", self.tie_tol)
        if not (self.tie_tol > 0.0):
            raise ValueError(f"tie_tol must be > 0, got {self.tie_tol}")


@dataclass(eq=False)
class Verdict:
    kind: str
    iterations_used: int
    limit: Optional[np.ndarray] = None
    ring_radius_estimate: Optional[float] = None
    angular_spread: Optional[float] = None


@dataclass(eq=False)
class MapTrace:
    a: list = field(default_factory=list)
    b: list = field(default_factory=list)
    step_ab: list = field(default_factory=list)
    step_ba: list = field(default_factory=list)
    multivalued_events: list = field(default_factory=list)
    verdict: Optional[Verdict] = None


def _select(result, which: str, iteration: int, policy: str, events: list) -> np.ndarray:
    if result.multivalued:
        events.append((iteration, which))
        if policy == TIE_ERROR:
            raise ProjectionTie(iteration, which, len(result.candidates))
        log.debug("multivalued projection onto %s at iteration %d: %d candidates, "
                  "picking the first", which, iteration, len(result.candidates))
    return result.candidates[0]


def _project(spec: ProjectorSpec, point: np.ndarray, tie_tol: float, which: str,
             iteration: int):
    # The config checked dimensions, finiteness and tie_tol once, and every
    # later query point is a projection, so the per-query checks are skipped.
    try:
        return spec.project(point, tie_tol, validate=False)
    except DegenerateProjection as exc:
        raise DegenerateProjection(f"set {which}, iteration {iteration}: {exc}") from exc


def _max_pairwise(points: list[np.ndarray]) -> float:
    worst = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            worst = max(worst, euclid._norm(points[i] - points[j]))
    return worst


def run(config: MapConfig) -> MapTrace:
    """Alternate projections from config.start until the stop rule or the budget."""
    trace = MapTrace()
    b_prev = config.start
    stop = config.stop_step
    stopped = False
    for n in range(config.max_iter):
        a = _select(_project(config.set_a, b_prev, config.tie_tol, "A", n), "A", n,
                    config.tie_policy, trace.multivalued_events)
        d_in = euclid._norm(a - b_prev)
        if n >= 1:
            trace.step_ba.append(d_in)
        b = _select(_project(config.set_b, a, config.tie_tol, "B", n), "B", n,
                    config.tie_policy, trace.multivalued_events)
        d_ab = euclid._norm(b - a)
        trace.step_ab.append(d_ab)
        trace.a.append(a)
        trace.b.append(b)
        b_prev = b
        if stop > 0.0 and d_in < stop and d_ab < stop:
            stopped = True
            break
    trace.verdict = _classify(trace, stop, stopped)
    return trace


def _classify(trace: MapTrace, stop: float, stopped: bool) -> Verdict:
    iters = len(trace.a)
    if stopped:
        tail = [trace.a[-1], trace.b[-1]]
        if len(trace.b) >= 2:
            tail.append(trace.b[-2])
        if _max_pairwise(tail) <= 10.0 * stop:
            return Verdict(VERDICT_CONVERGED, iters, limit=trace.b[-1].copy())
    if stop > 0.0 and trace.step_ab and trace.step_ba:
        small = (trace.step_ab[-1] < stop * CONTINUUM_STEP_FACTOR
                 and trace.step_ba[-1] < stop * CONTINUUM_STEP_FACTOR)
        tail_pts = trace.a[-min(CONTINUUM_TAIL, iters):]
        if small and _max_pairwise(tail_pts) > stop * CONTINUUM_SPREAD_FACTOR:
            radii = np.array([euclid._norm(p) for p in tail_pts])
            spread = None
            if tail_pts[0].size == 2:  # angles describe planar tails only
                angles = np.array([math.atan2(p[1], p[0]) for p in tail_pts])
                spread = 2.0 * math.pi - max_circular_gap(angles)
            return Verdict(
                VERDICT_CONTINUUM, iters,
                ring_radius_estimate=float(radii.mean()),
                angular_spread=spread,
            )
    return Verdict(VERDICT_BUDGET, iters)


def max_circular_gap(angles) -> float:
    """Largest gap between consecutive sorted angles mod 2*pi (incl. wraparound).

    A single angle yields 2*pi by convention.
    """
    arr = np.sort(np.asarray(angles, dtype=np.float64) % (2.0 * math.pi))
    if arr.size == 0:
        raise ValueError("need at least one angle")
    if arr.size == 1:
        return 2.0 * math.pi
    gaps = np.diff(arr)
    wrap = arr[0] + 2.0 * math.pi - arr[-1]
    return float(max(gaps.max(), wrap))


def config_to_dict(config: MapConfig) -> dict:
    return {
        "A": config.set_a.to_dict(),
        "B": config.set_b.to_dict(),
        "start": config.start.tolist(),
        "max_iter": config.max_iter,
        "stop_step": config.stop_step,
        "tie_policy": config.tie_policy,
        "tie_tol": config.tie_tol,
    }


#: The optional config fields; an absent one takes the MapConfig default.
_OPTIONS = ("max_iter", "stop_step", "tie_policy", "tie_tol")


def config_from_dict(data) -> MapConfig:
    """Build a MapConfig from its JSON-object form; errors carry field paths."""
    if not isinstance(data, dict):
        raise ValueError(f"config: expected an object, got {type(data).__name__}")
    for name in ("A", "B", "start"):
        if name not in data:
            raise ValueError(f"config.{name}: missing field")
    extra = set(data) - {"A", "B", "start", *_OPTIONS}
    if extra:
        raise ValueError(f"config: unknown fields {sorted(extra)}")
    set_a = euclid.spec_from_dict(data["A"], "config.A")
    set_b = euclid.spec_from_dict(data["B"], "config.B")
    try:
        start = euclid.as_point(data["start"])
    except ValueError as exc:
        raise ValueError(f"config.start: {exc}") from exc
    options = {name: data[name] for name in _OPTIONS if name in data}
    try:
        return MapConfig(set_a, set_b, start, **options)
    except ValueError as exc:
        raise ValueError(f"config: {exc}") from exc


def trace_to_json(trace: MapTrace) -> str:
    verdict = trace.verdict
    vd: dict = {"kind": verdict.kind, "iterations_used": verdict.iterations_used}
    if verdict.limit is not None:
        vd["limit"] = verdict.limit.tolist()
    if verdict.ring_radius_estimate is not None:
        vd["ring_radius_estimate"] = verdict.ring_radius_estimate
    if verdict.angular_spread is not None:
        vd["angular_spread"] = verdict.angular_spread
    return render_json({
        "a": [p.tolist() for p in trace.a],
        "b": [p.tolist() for p in trace.b],
        "steps": {"ab": trace.step_ab, "ba": trace.step_ba},
        "multivalued_events": [[i, w] for i, w in trace.multivalued_events],
        "verdict": vd,
    })
