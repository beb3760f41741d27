"""The method of alternating projections over arbitrary projector specs.

Given closed sets A and B and a starting point, `run` iterates
a_n = P_A(b_{n-1}), b_n = P_B(a_n), capturing every iterate, the step norms,
and any multivalued projection events.  The verdict classifies the run:

* converged_to_point -- both latest step norms fell below `stop_step`, so
  the last three iterates lie within 2x that tolerance of each other;
* continuum_suspected -- steps became small (below 1000x `stop_step`) yet
  the tail iterates stay spread out (beyond 100x `stop_step`).  Planar tails
  also report their angular spread.  This is a diagnostic heuristic, not a
  theorem: no finite run can prove a continuum;
* budget_exhausted -- anything else at the iteration cap.

Both projections gather candidates within the config's `tie_tol`.  Runs are
deterministic: identical configs produce bitwise-identical traces.

On point clouds the run speculates, and is still the sequential run.  Every
answer of a cloud is a stored point, so when both sets are a cloud, or a
union with one cloud member, the next answers can be predicted: each
set's last cloud index plus its last index stride (value prediction,
Lipasti, Wilkerson and Shen, ASPLOS 1996, in the predict-and-correct shape
of parareal).  `run` is one loop, and each pass of it either confirms a
batch of predicted pairs or takes one pair from `_step`.  A confirmed
batch stays one block of rows: `_dists` gives both of its step-norm
columns, the stop rule finds its first small pair in one pass, and the
trace takes the block whole.  `_dists` of a row is `_norm` of its
difference bit for bit, and `_step` pairs keep `_norm`, so the two paths
agree.  A multivalued, degenerate or mispredicted answer is never
accepted: that pair goes through `_step`, the one place where tie policy,
events and projection errors are handled.  Sets without a cloud are
projected one `_step` at a time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import MISSING, dataclass, fields
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
    """One run: the iterates a_n and b_n as `(n, d)` rows, the step norms
    |b_n - a_n| (`step_ab`, n entries) and |a_n - b_{n-1}| for n >= 1
    (`step_ba`, n - 1 entries), the multivalued projection events as
    (iteration, set) pairs, and the verdict."""

    a: np.ndarray
    b: np.ndarray
    step_ab: np.ndarray
    step_ba: np.ndarray
    multivalued_events: list
    verdict: Verdict


def _step(spec: ProjectorSpec, point: np.ndarray, which: str, iteration: int,
          config: MapConfig, events: list) -> np.ndarray:
    # The config checked dimensions, finiteness and tie_tol once, and every
    # later query point is a projection, so the per-query checks are skipped.
    try:
        result = spec.project(point, config.tie_tol, validate=False)
    except (DegenerateProjection, ValueError) as exc:
        raise type(exc)(f"set {which}, iteration {iteration}: {exc}") from exc
    if result.multivalued:
        events.append((iteration, which))
        if config.tie_policy == TIE_ERROR:
            raise ProjectionTie(iteration, which, len(result.candidates))
        log.debug("multivalued projection onto %s at iteration %d: %d candidates, "
                  "picking the first", which, iteration, len(result.candidates))
    return result.candidates[0]


def _diameter(points: np.ndarray) -> float:
    """Largest distance between two rows of `points`, an `(n, d)` array."""
    return math.sqrt(euclid._sq_dists(points[:, None], points[None]).max())


#: The most MAP pairs one speculative batch predicts.
_BATCH_MAX = 256

#: How many `_step` answers in a row must repeat a walk's stride before a
#: batch is tried again after a miss.
_HOLD = 4


class _Walk:
    """What a batch predicts of one set's answers: the set's one point
    cloud, the cloud index of its last answer, and the index stride from
    the answer before it (None until both are cloud points).  `held`
    counts the answers in a row that repeated that stride."""

    def __init__(self, cloud: euclid.PointCloud):
        self.cloud = cloud
        self.last: Optional[int] = None
        self.stride: Optional[int] = None
        self.held = 0

    def learn(self, p: np.ndarray) -> None:
        """Take `p`, just returned by `_step`, as the last answer."""
        i = self.cloud._last_index(p)
        if i < 0:
            self.last = self.stride = None
            self.held = 0
        else:
            stride = None if self.last is None else i - self.last
            self.held = self.held + 1 if stride is not None and stride == self.stride else 0
            self.last, self.stride = i, stride

    def room(self, k: int) -> int:
        """How many of the next `k` predictions lie inside the cloud."""
        s = self.stride
        if s is None:
            return 0
        if s > 0:
            return min(k, (len(self.cloud.points) - 1 - self.last) // s)
        if s < 0:
            return min(k, self.last // -s)
        return k


def _walk(spec: ProjectorSpec) -> Optional[_Walk]:
    """A walk for a point cloud, or for a union with exactly one cloud member."""
    if isinstance(spec, euclid.PointCloud):
        return _Walk(spec)
    if isinstance(spec, euclid.Union):
        clouds = [m for m in spec.members if isinstance(m, euclid.PointCloud)]
        if len(clouds) == 1:
            return _Walk(clouds[0])
    return None


def run(config: MapConfig) -> MapTrace:
    """Alternate projections from config.start until the stop rule or the budget.

    One loop owns the run: the last answer `b`, the pair count `n`, the
    batch size and the stop rule.  Each pass either confirms a batch of
    predicted pairs or takes one pair from `_step`.  When both sets have a
    walk with a stride, the next k answers of each are predicted as the
    last index plus 1..k strides, and `_confirm` projects all k A-queries
    (b_{n-1}, then the predicted b's) and the B-queries (the predicted a's)
    in one batch per set.  A confirmed answer is single-valued and bitwise
    the prediction, so the pairs up to the first unconfirmed one are the
    sequential pairs; that one goes through `_step`.  k doubles after a
    full batch, up to `_BATCH_MAX` = 256: a batch with a query near a cell
    face pays one `bounds` pass over every leaf, so larger batches pay
    fewer passes, while at 1024 the batch's own arrays cost more time than
    the passes they save.  A miss restarts the wait: batches wait until
    `_HOLD` `_step` answers of each set, counted again from 0, repeat its
    last stride, then start again at k = 1.  A walk whose stride keeps
    changing, or whose next answer `_confirm` cannot settle, would
    otherwise pay a failed batch for every pair.
    """
    set_a, set_b, tol, stop = config.set_a, config.set_b, config.tie_tol, config.stop_step
    walk_a = _walk(set_a)
    walk_b = walk_a and _walk(set_b)
    speculate = walk_b is not None
    a_rows, b_rows, step_ab, step_ba, events = [], [], [], [], []
    columns = (a_rows, b_rows, step_ab, step_ba)
    blocks = []  # the trace in parts: each run of `_step` rows as arrays, each block
    b = config.start
    n = kept = batches = 0
    size = 1 if speculate else 0
    stopped = False
    while n < config.max_iter:
        if size == 0 and speculate and min(walk_a.held, walk_b.held) >= _HOLD:
            size = 1
        k = min(walk_a.room(size), walk_b.room(size), config.max_iter - n) if size else 0
        if k > 0:
            steps = np.arange(1, k + 1)
            ia = walk_a.last + walk_a.stride * steps
            ib = walk_b.last + walk_b.stride * steps
            pa, pb = walk_a.cloud.points[ia], walk_b.cloud.points[ib]
            queries = np.vstack((b, pb[:-1]))
            m = euclid._confirm(set_a, walk_a.cloud, queries, ia, tol)
            if m:
                m = euclid._confirm(set_b, walk_b.cloud, pa[:m], ib[:m], tol)
            batches += 1
            if m:
                # A walk learns its stride from two `_step` pairs, so a batch
                # starts at pair 2 or later and each d_in enters `step_ba`.
                d_in = euclid._dists(pa[:m], queries[:m])
                d_ab = euclid._dists(pb[:m], pa[:m])
                if stop > 0.0:
                    small = np.flatnonzero((d_in < stop) & (d_ab < stop))
                    if small.size:
                        m, stopped = int(small[0]) + 1, True
                if a_rows:
                    blocks.append(tuple(map(np.array, columns)))
                    for rows in columns:
                        rows.clear()
                blocks.append((pa[:m], pb[:m], d_ab[:m], d_in[:m]))
                b = pb[m - 1]
                n += m
                kept += m
                if stopped:
                    break
                walk_a.last, walk_b.last = int(ia[m - 1]), int(ib[m - 1])
            if m == k:
                size = min(2 * size, _BATCH_MAX)
                continue
            size = walk_a.held = walk_b.held = 0
        a = _step(set_a, b, "A", n, config, events)
        if speculate:
            walk_a.learn(a)
        d_in = euclid._norm(a - b)
        if n >= 1:
            step_ba.append(d_in)
        b = _step(set_b, a, "B", n, config, events)
        if speculate:
            walk_b.learn(b)
        d_ab = euclid._norm(b - a)
        step_ab.append(d_ab)
        a_rows.append(a)
        b_rows.append(b)
        n += 1
        if stop > 0.0 and d_in < stop and d_ab < stop:
            stopped = True
            break
    log.debug("MAP run: %d speculative batches gave %d pairs, _step gave %d",
              batches, kept, n - kept)
    # Stacked once at the stop: rows preallocated by max_iter would cost
    # max_iter rows even for a run that stops after a few.
    if a_rows:
        blocks.append(tuple(map(np.array, columns)))
    a_arr, b_arr, ab_arr, ba_arr = (blocks[0] if len(blocks) == 1
                                    else map(np.concatenate, zip(*blocks)))
    verdict = _classify(a_arr, b_arr, ab_arr, ba_arr, stop, stopped)
    return MapTrace(a_arr, b_arr, ab_arr, ba_arr, events, verdict)


def _classify(a: np.ndarray, b: np.ndarray, step_ab: np.ndarray, step_ba: np.ndarray,
              stop: float, stopped: bool) -> Verdict:
    iters = len(a)
    if stopped:  # a[-1] is within `stop` of b[-2] and of b[-1]
        return Verdict(VERDICT_CONVERGED, iters, limit=b[-1].copy())
    if stop > 0.0 and step_ba.size:
        small = (step_ab[-1] < stop * CONTINUUM_STEP_FACTOR
                 and step_ba[-1] < stop * CONTINUUM_STEP_FACTOR)
        tail_pts = a[-min(CONTINUUM_TAIL, iters):]
        if small and _diameter(tail_pts) > stop * CONTINUUM_SPREAD_FACTOR:
            radii = euclid._dists(tail_pts, np.zeros(a.shape[1]))  # p - 0.0 is p
            spread = None
            if a.shape[1] == 2:  # angles describe planar tails only
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
    """The config document: every MapConfig field in its order, the sets
    as "A" and "B" in their `to_dict` form."""
    doc = {f.name: getattr(config, f.name) for f in fields(MapConfig)}
    return {"A": doc.pop("set_a").to_dict(), "B": doc.pop("set_b").to_dict(), **doc}


#: The optional config fields; an absent one takes the MapConfig default.
_OPTIONS = tuple(f.name for f in fields(MapConfig) if f.default is not MISSING)


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
    verdict = {}
    for f in fields(Verdict):  # declaration order; absent evidence is left out
        value = getattr(trace.verdict, f.name)
        if value is not None:
            verdict[f.name] = value
    return render_json({
        "a": trace.a,
        "b": trace.b,
        "steps": {"ab": trace.step_ab, "ba": trace.step_ba},
        "multivalued_events": [[i, w] for i, w in trace.multivalued_events],
        "verdict": verdict,
    })
