"""Shared reports and the brute-force oracles the package is checked against."""

import json
import math
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest

from altproj import euclid, sequence, spiral
from altproj.figure import CURVE_SAMPLES, SVG_SIZE
from altproj.euclid import (_BOUND_SLACK, DEFAULT_TIE_TOL, Ball, Box, DimensionMismatch, Halfspace,
                            PointCloud, Segment, Sphere, Union, _as_cloud, as_point)
from altproj.finite_union import ConvergenceVerdict, classify
from altproj.map_driver import MapConfig, MapTrace, _classify, _step
from altproj.serialize import _BLOCK, _rows, fmt17
from altproj.spiral import HALF_PI, TWO_PI, BracketInvalid


@pytest.fixture(scope="session")
def report_300():
    return sequence.generate(300)


@pytest.fixture(scope="session")
def report_10k():
    return sequence.generate(10_000)


@pytest.fixture(scope="session")
def report_100k():
    return sequence.generate(100_000)


def nearest_scan(report: sequence.SequenceReport, horizon: int) -> float:
    """The O(horizon^2) nearest-point check: one full scan per iterate.

    Same contract as `sequence.verify_nearest`; the two must agree bit for
    bit on the margin and on the violation raised.
    """
    if not (0 <= horizon <= len(report) - 1):
        raise ValueError(f"horizon must be in [0, {len(report) - 1}], got {horizon}")
    pts = report.points[:horizon + 1]
    alphas = report.alphas[:horizon + 1]
    epss = report.epss[:horizon + 1]
    sphere_d = np.exp(-alphas)
    if not np.all(sphere_d > epss):
        raise ValueError("unit sphere is not strictly farther than the successor somewhere")
    min_margin = math.inf
    for n in range(horizon - 1):
        d2 = ((pts - pts[n]) ** 2).sum(axis=1)
        d2[n] = math.inf
        found = int(np.argmin(d2))
        if found != n + 1:
            raise sequence.NearestPropertyViolated(n, found)
        best, runner = np.sqrt(np.partition(d2, 1)[:2])
        margin = min(float(runner), float(sphere_d[n])) - float(best)
        min_margin = min(min_margin, margin)
    return min_margin


def nearest_in_cloud(points, q, exclude: Optional[int] = None) -> tuple[int, float, float]:
    """Brute-force nearest point of a cloud.

    Returns (index, distance, margin) where index is the argmin with
    lowest-index tie-break and margin is the gap to the runner-up (+inf when
    no runner-up exists).  `exclude` drops one index from consideration.
    """
    pts = _as_cloud(points)
    query = as_point(q)
    if query.size != pts.shape[1]:
        raise DimensionMismatch(f"query has dim {query.size}, cloud has dim {pts.shape[1]}")
    dists = np.sqrt(((pts - query) ** 2).sum(axis=1))
    if exclude is not None:
        if not (0 <= exclude < pts.shape[0]):
            raise ValueError(f"exclude index {exclude} out of range")
        dists[exclude] = math.inf
    best = int(np.argmin(dists))
    best_d = float(dists[best])
    if not math.isfinite(best_d):
        raise ValueError("no points remain after exclusion")
    finite = np.count_nonzero(np.isfinite(dists))
    if finite >= 2:
        runner = float(np.partition(dists, 1)[1])
        margin = runner - best_d
    else:
        margin = math.inf
    return best, best_d, margin


def distance(spec, q) -> float:
    """Infimum distance from `q` to the set (exact closed form).

    Goes through `_nearest`, not `project`, so it also answers a query at a
    sphere's centre, where every point of the sphere is nearest.
    """
    return spec._nearest(spec._check_query(q), DEFAULT_TIE_TOL).distance


def clip_leaf_bound(index, q: np.ndarray) -> np.ndarray:
    """Every leaf's bound from `q`, taken by clipping q into each box:
    `index.bounds(q, q)`, the bound pass of every cloud search, must pick
    exactly the leaves whose bound here does not exceed any given reach."""
    col = q[:, None]
    box = np.maximum(index.lo, col)  # each box's nearest point to q ...
    np.minimum(box, index.hi, out=box)
    box -= col  # ... less q
    box *= box
    bound = np.sqrt(box.sum(axis=0))
    bound *= _BOUND_SLACK
    return bound


# `serialize.render_json` as it was when it returned each array as one
# string and each document as one join: the oracle for `render_json`, its
# streamed writer `dump_json` and the `export-sets` config
def render_json_oracle(obj, _indent: int = 0) -> str:
    """Render JSON with fmt17 floats.  Supports dict/list/str/bool/None/numbers."""
    if obj is None or obj is True or obj is False or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt17(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim in (1, 2) and obj.size:
            fields = obj.reshape(len(obj), -1).T
            c, m = fields.shape
            pieces = ("", ", ") if obj.ndim == 1 else ("[", *[", "] * (c - 1), "], ")
            step = max(1, _BLOCK // c)
            blocks = [_rows(fields[:, i:i + step], pieces) for i in range(0, m, step)]
            blocks[-1] = blocks[-1][:-2]  # no separator after the last item
            return "".join(["[", *blocks, "]"])
        return render_json_oracle(obj.tolist(), _indent)
    if isinstance(obj, (list, tuple)):
        items = [render_json_oracle(v, _indent) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        pad = " " * _indent
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {render_json_oracle(v, _indent + 2)}'
            for k, v in obj.items()
        )
        return "".join(("{\n", inner, "\n", pad, "}"))  # copies `inner` once, not twice
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_spiral_svg_oracle(report: sequence.SequenceReport) -> str:
    """The SVG writer one value at a time, each through `fmt17`:
    `figure.render_spiral_svg` must write the same bytes, and raise the same
    ValueError for a non-finite value (read as a Python float, as `fmt17`
    names it)."""
    pts = report.points.tolist()
    epss = report.epss.tolist()
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="-2.7 -2.7 5.4 5.4">',
        '<g transform="scale(1,-1)">',
        '<circle class="unit-circle" cx="0" cy="0" r="1" fill="none" '
        'stroke="#999999" stroke-width="0.01"/>',
    ]
    _, _, curve_pts = spiral.columns(np.linspace(0.0, float(report.alphas[-1]), CURVE_SAMPLES))
    coords = " ".join(f"{fmt17(x)},{fmt17(y)}" for x, y in curve_pts.tolist())
    parts.append(
        f'<polyline class="spiral" fill="none" stroke="#222222" '
        f'stroke-width="0.012" points="{coords}"/>'
    )
    for (x, y), e in zip(pts, epss):
        parts.append(
            f'<circle class="step-radius" cx="{fmt17(x)}" cy="{fmt17(y)}" '
            f'r="{fmt17(e)}" fill="none" stroke="#2a7fff" stroke-width="0.006"/>'
        )
    for x, y in pts:
        parts.append(
            f'<circle class="iterate" cx="{fmt17(x)}" cy="{fmt17(y)}" '
            f'r="0.025" fill="#d62728"/>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def as_lists(obj):
    """`obj` with each numpy array in it replaced by its `tolist()`: the form
    that `==` compares exactly, and that `to_dict` returned before it kept
    array fields as arrays."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(v) for v in obj]
    return obj


def write_csv_rows(report: sequence.SequenceReport, stream) -> None:
    """The row-at-a-time CSV writer: `sequence.write_csv` must write the same bytes."""
    stream.write(sequence.CSV_HEADER + "\n")
    alphas = report.alphas
    deltas = report.deltas
    rhos = report.rhos
    epss = report.epss
    pts = report.points
    last = len(report) - 1
    for i in range(len(report)):
        d = fmt17(deltas[i]) if i < last else ""
        stream.write(f"{i},{fmt17(alphas[i])},{d},{fmt17(rhos[i])},"
                     f"{fmt17(epss[i])},{fmt17(pts[i, 0])},{fmt17(pts[i, 1])}\n")


def records_to_json_obj(report: sequence.SequenceReport) -> list[dict]:
    """One JSON-ready object per iterate: n, alpha, delta, rho, eps, x and q
    (the radius ratio of the successor); `delta` and `q` are None on the
    final one."""
    return [
        {"n": n, "alpha": alpha, "delta": delta, "rho": rho, "eps": eps, "x": x, "q": q}
        for n, (alpha, delta, rho, eps, x, q) in enumerate(zip(
            report.alphas.tolist(), report.deltas.tolist() + [None],
            report.rhos.tolist(), report.epss.tolist(), report.points.tolist(),
            report.qs.tolist() + [None]))
    ]


def write_json_objects(report: sequence.SequenceReport, stream) -> None:
    """The object-at-a-time JSON writer: `sequence.write_json` must write the
    same bytes."""
    stream.write(render_json_oracle(records_to_json_obj(report)) + "\n")


def rho(t: float) -> float:
    """The spiral's radius at angle t, the reference for `spiral.columns`
    and the step solve."""
    return 1.0 + math.exp(-t)


def eps(t: float) -> float:
    """The step size at angle t: half the radial drop over one full turn."""
    return (rho(t) - rho(t + TWO_PI)) / 2.0


def chord_sq(alpha: float, t: float) -> float:
    """The squared chord from the curve point at `alpha` to the one at
    `alpha + t`, the reference formula of the step solve."""
    # half-angle rearrangement of the law of cosines,
    # r^2 + s^2 - 2 r s cos(t) = (r - s)^2 + 4 r s sin^2(t/2):
    # the raw form cancels catastrophically once the chord drops below
    # ~sqrt(ulp(2)) ~ 2e-8, this one stays fully accurate
    r = rho(alpha)
    s = rho(alpha + t)
    d = r - s
    h = math.sin(0.5 * t)
    return d * d + 4.0 * r * s * h * h


def advance_with_full_bracket(alpha: float, t_guess: float) -> float:
    """The step solve with both bracket ends evaluated by `chord_sq`:
    `spiral.advance` must return the same angle bit for bit."""
    e2 = eps(alpha) ** 2
    if not (chord_sq(alpha, 0.0) - e2 < 0.0 < chord_sq(alpha, HALF_PI) - e2):
        raise BracketInvalid(f"no sign change over the quarter-turn bracket at alpha={alpha!r}")
    r = rho(alpha)
    lo, hi = 0.0, HALF_PI
    t = t_guess if lo < t_guess < hi else 0.5 * HALF_PI
    while True:
        w = math.exp(-(alpha + t))
        s = 1.0 + w
        d = r - s
        h = math.sin(0.5 * t)
        f = d * d + 4.0 * r * s * h * h - e2
        if f == 0.0:
            return alpha + t
        if f < 0.0:
            lo = t
        else:
            hi = t
        # f'(t) = 2 d w - 4 r w sin^2(t/2) + 2 r s sin(t), positive on (0, pi/2]
        t_new = t - f / (2.0 * d * w - 4.0 * r * w * h * h + 2.0 * r * s * math.sin(t))
        if abs(t_new - t) <= math.ulp(alpha + t_new):
            return alpha + t_new
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
            if t_new == t:  # the bracket ends are adjacent floats
                return alpha + t
        t = t_new


def render_json_compact(obj) -> str:
    """`render_json_oracle` with objects on one line, items joined by ", "."""
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{json.dumps(str(k))}: {render_json_compact(v)}" for k, v in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json_compact(v) for v in obj) + "]"
    return render_json_oracle(obj)


def verdict_to_obj(seed: int, verdict: ConvergenceVerdict) -> dict:
    return {
        "seed": seed,
        "outcome": classify(verdict),
        "converged": verdict.converged,
        "limit": None if verdict.limit is None else verdict.limit.tolist(),
        "limit_in_intersection": verdict.limit_in_intersection,
        "gaps_vanished": verdict.gaps_vanished,
        "bounded": verdict.bounded,
        "iterations_used": verdict.iterations_used,
    }


def verdict_line(seed: int, verdict: ConvergenceVerdict) -> str:
    """The verdict's JSON line: `finite_union.run_batch` must write the same bytes."""
    return render_json_compact(verdict_to_obj(seed, verdict)) + "\n"


def run_sequential(config: MapConfig) -> MapTrace:
    """The MAP driver one `_step` at a time, the loop `map_driver.run`
    replaced with speculative batches: `run` must give the same trace,
    events and verdict, and raise the same errors."""
    a_rows, b_rows, step_ab, step_ba, events = [], [], [], [], []
    b = config.start
    stop = config.stop_step
    stopped = False
    for n in range(config.max_iter):
        a = _step(config.set_a, b, "A", n, config, events)
        d_in = euclid._norm(a - b)
        if n >= 1:
            step_ba.append(d_in)
        b = _step(config.set_b, a, "B", n, config, events)
        d_ab = euclid._norm(b - a)
        step_ab.append(d_ab)
        a_rows.append(a)
        b_rows.append(b)
        if stop > 0.0 and d_in < stop and d_ab < stop:
            stopped = True
            break
    # Stacked once at the stop: rows preallocated by max_iter would cost
    # max_iter rows even for a run that stops after a few.
    a_arr, b_arr = np.array(a_rows), np.array(b_rows)
    ab_arr, ba_arr = np.array(step_ab), np.array(step_ba)
    verdict = _classify(a_arr, b_arr, ab_arr, ba_arr, stop, stopped)
    return MapTrace(a_arr, b_arr, ab_arr, ba_arr, events, verdict)


class Relation(NamedTuple):
    """An exact symmetry of the projectors and the MAP driver.

    `forward` maps points, coordinates along the last axis, `inverse` maps
    them back, and every length is multiplied by `scale`, a power of two.
    Each relation maps every sum of squares or products in axis order
    (`euclid._dot`, `euclid._sq_dists`) exactly: a sign flip negates both
    factors of a term, an appended zero axis adds +0.0, a swap of the first
    two axes swaps the first two terms, whose sum commutes, and a 2**k
    scale multiplies each square by 4**k.  So a run of the mapped config is
    the run mapped, bit for bit.  Three constants are absolute and do not
    scale: `euclid._CENTER_TOL` (a query at a sphere's center),
    `euclid._UNIT_TOL` (a halfspace normal's length, which `relate` keeps
    at 1) and `finite_union.DEFAULT_TOL` (`check_theorem`'s tolerance,
    which the MAP config does not read).  The exponents k in `RELATIONS`
    are chosen so that none of them decides a tested run, and so that the
    tested squares neither overflow nor leave the normal range.
    """

    name: str
    forward: Callable
    inverse: Callable
    scale: float = 1.0


def _flip_last(p):
    return p * np.concatenate([np.ones(p.shape[-1] - 1), [-1.0]])


def _swap_first_two(p):
    return p[..., [1, 0, *range(2, p.shape[-1])]]


def _scale(k: int) -> Relation:
    s = math.ldexp(1.0, k)
    return Relation(f"scale-2^{k}", lambda p: p * s, lambda p: p / s, s)


RELATIONS = [
    Relation("flip", _flip_last, _flip_last),
    _scale(-20),
    _scale(30),
    Relation("pad", lambda p: np.concatenate([p, np.zeros((*p.shape[:-1], 1))], axis=-1),
             lambda p: p[..., :-1]),
    Relation("swap", _swap_first_two, _swap_first_two),
]


def relate_spec(spec, rel: Relation):
    """`spec` carried through `rel`; unions map member by member."""
    if isinstance(spec, Union):
        return Union([relate_spec(m, rel) for m in spec.members])
    if isinstance(spec, PointCloud):
        return PointCloud(rel.forward(spec.points))
    if isinstance(spec, (Sphere, Ball)):
        return type(spec)(rel.forward(spec.center), spec.radius * rel.scale)
    if isinstance(spec, Box):
        lo, hi = rel.forward(spec.lo), rel.forward(spec.hi)
        return Box(np.minimum(lo, hi), np.maximum(lo, hi))
    if isinstance(spec, Halfspace):
        return Halfspace(rel.forward(spec.normal) / rel.scale, spec.offset * rel.scale)
    if isinstance(spec, Segment):
        return Segment(rel.forward(spec.a), rel.forward(spec.b))
    raise TypeError(f"no relation for {type(spec).__name__}")


def relate(config: MapConfig, rel: Relation) -> MapConfig:
    """`config` carried through `rel`: its sets, its start, and the lengths
    `stop_step` and `tie_tol`."""
    return MapConfig(relate_spec(config.set_a, rel), relate_spec(config.set_b, rel),
                     rel.forward(config.start), max_iter=config.max_iter,
                     stop_step=config.stop_step * rel.scale, tie_policy=config.tie_policy,
                     tie_tol=config.tie_tol * rel.scale)


def assert_related(trace: MapTrace, image: MapTrace, rel: Relation) -> None:
    """`image`, the run of `relate(config, rel)`, is `trace` mapped by `rel`:
    the points map back and the step norms divide by the scale, bit for bit."""
    for got, want in ((rel.inverse(image.a), trace.a), (rel.inverse(image.b), trace.b),
                      (image.step_ab / rel.scale, trace.step_ab),
                      (image.step_ba / rel.scale, trace.step_ba)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), \
            f"{rel.name}: {np.count_nonzero(got != want)} of {want.size} values differ"
    assert image.multivalued_events == trace.multivalued_events
    assert image.verdict.kind == trace.verdict.kind
    assert image.verdict.iterations_used == trace.verdict.iterations_used
