"""Generation and verification of the spiral iterate sequence.

`generate` walks the curve from angle 0, advancing by exactly one step size
per iterate, and records angle, radius, step size, step-to-successor, and
the Cartesian point for each index.  The check functions verify the per-step
identities the construction guarantees: chord length equals step size, the
half-angle chord identity, telescoping of the angle increments, strict
monotonicity, and the nearest-point property (each iterate's closest
neighbour among all others is its successor, with the unit sphere strictly
farther).  `run_verification` runs every check and reports each as a named
pass/fail result.  Every check reads every coordinate of a point, so a report
of any dimension is checked whole; lengths are the iterated `np.hypot` of
the coordinates, which in the plane is `np.hypot(x, y)`, bit for bit.
`write_csv` and `write_json` write the table a block of rows at a time
through `serialize._rows`, every float as `'%.17g'` renders it.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import euclid, serialize, spiral

__all__ = [
    "CheckResult",
    "HalfAngleResiduals",
    "NearestPropertyViolated",
    "SequenceReport",
    "check_halfangle_identity",
    "check_step_identity",
    "generate",
    "run_verification",
    "verify_nearest",
    "write_csv",
    "write_json",
]

CSV_HEADER = "n,alpha,delta,rho,eps,x,y"
# The text around the fields of a row (`serialize._rows`): n, alpha, delta,
# rho, eps, x, y and, in JSON, q; the final row has no successor, so no
# delta and no q
_CSV_ROW = ("", ",", ",", ",", ",", ",", ",", "\n")
_CSV_LAST_ROW = ("", ",", ",,", ",", ",", ",", "\n")
# `serialize.render_json`'s layout of a list of objects
_JSON_ROW = ('{\n  "n": ', ',\n  "alpha": ', ',\n  "delta": ', ',\n  "rho": ', ',\n  "eps": ',
             ',\n  "x": [', ', ', '],\n  "q": ', '\n}, ')
_JSON_LAST_ROW = ('{\n  "n": ', ',\n  "alpha": ', ',\n  "delta": null,\n  "rho": ',
                  ',\n  "eps": ', ',\n  "x": [', ', ', '],\n  "q": null\n}')

#: About how many distances `verify_nearest` computes in one block.
_BLOCK = 1 << 15


class NearestPropertyViolated(RuntimeError):
    """Some iterate's nearest neighbour is not its successor (bug signal)."""

    def __init__(self, n: int, found: int):
        super().__init__(f"nearest neighbour of iterate {n} is {found}, expected {n + 1}")
        self.n = n
        self.found = found


class SequenceReport:
    """Immutable result of `generate`: read-only column arrays.

    `deltas` (the angle step to the successor) and `qs` (the radius ratio of
    the successor) are one shorter than the four base columns.
    """

    def __init__(self, alphas: np.ndarray, rhos: np.ndarray, epss: np.ndarray,
                 points: np.ndarray):
        self.alphas = alphas
        self.rhos = rhos
        self.epss = epss
        self.points = points
        self.deltas = alphas[1:] - alphas[:-1]
        self.qs = rhos[1:] / rhos[:-1]
        for arr in (alphas, rhos, epss, points, self.deltas, self.qs):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.alphas.size


def generate(n_max: int) -> SequenceReport:
    """Generate the first `n_max` iterates starting from angle 0 at (2, 0)."""
    n = euclid._integer("n_max", n_max)
    if n < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    alphas, _ = spiral.alpha_chain(0.0, n)
    return SequenceReport(alphas, *spiral.columns(alphas))


def check_step_identity(report: SequenceReport) -> float:
    """Max |chord - eps| over the steps (0.0 for a single record): each chord
    |x_{n+1} - x_n|, the iterated `np.hypot` of every coordinate difference,
    must equal the step size eps_n."""
    chords = np.hypot.reduce(np.diff(report.points, axis=0), axis=1)
    return float(np.abs(chords - report.epss[:-1]).max(initial=0.0))


class HalfAngleResiduals(NamedTuple):
    """Max residuals of the half-angle chord identity, raw and radius-scaled."""

    raw: float
    scaled: float


def check_halfangle_identity(report: SequenceReport) -> HalfAngleResiduals:
    """Evaluate eps_n^2 = (rho_n - rho_{n+1})^2 + 4 rho_n rho_{n+1} sin^2(delta_n/2)
    per step, in raw form and divided by rho_n^2, returning the max |lhs - rhs|."""
    if len(report) < 2:
        return HalfAngleResiduals(0.0, 0.0)
    r0 = report.rhos[:-1]
    r1 = report.rhos[1:]
    e = report.epss[:-1]
    d = report.deltas
    q = report.qs
    s2 = np.sin(d / 2.0) ** 2
    raw = np.abs(e ** 2 - ((r0 - r1) ** 2 + 4.0 * r0 * r1 * s2)).max()
    scaled = np.abs((e / r0) ** 2 - ((1.0 - q) ** 2 + 4.0 * q * s2)).max()
    return HalfAngleResiduals(float(raw), float(scaled))


def verify_nearest(report: SequenceReport, horizon: int) -> float:
    """Exact check of the nearest-point property up to `horizon`.

    For every n < horizon - 1, the nearest point of {x_0..x_horizon} minus
    {x_n} must be x_{n+1}; additionally the unit sphere must be strictly
    farther from x_n than x_{n+1} is, for every n <= horizon.  Returns the
    smallest winning margin observed: min over n of
    (min(runner-up distance, sphere distance) - winning distance).

    Raises ValueError for a horizon out of range, and, naming it, for the
    first iterate n <= horizon with a non-finite coordinate, else the first
    where the unit sphere is not strictly farther than the successor.
    Raises NearestPropertyViolated for the smallest index whose nearest
    neighbour (the lowest index among ties) is not its successor.

    The points are indexed once by `euclid._CloudIndex` and checked one leaf
    of queries at a time.  Query n's reach, the larger of its distances to
    x_{n+1} and x_{n+2}, is at least its runner-up distance, so the leaves
    within the largest reach of a query leaf hold each query's winner, all
    of its ties and its runner-up.  A block of queries, at least one, is
    measured against a leaf's candidates about `_BLOCK` distances at a time.
    Every squared distance is `euclid._sq_dists`, in any dimension, so the
    verdict and the margin equal those of a scan over every point, bit for
    bit.
    """
    if not (0 <= horizon <= len(report) - 1):
        raise ValueError(f"horizon must be in [0, {len(report) - 1}], got {horizon}")
    pts = report.points[:horizon + 1]
    alphas = report.alphas[:horizon + 1]
    epss = report.epss[:horizon + 1]
    if np.count_nonzero(np.isfinite(pts)) != pts.size:  # a NaN leaf bound prunes every leaf
        n = np.flatnonzero(~np.isfinite(pts).all(axis=1))[0]
        raise ValueError(f"iterate {n} has a non-finite coordinate")
    sphere_d = np.exp(-alphas)
    nearer = np.flatnonzero(~(sphere_d > epss))
    if nearer.size:
        raise ValueError("unit sphere is not strictly farther than the successor "
                         f"at iterate {nearer[0]}")
    queries = horizon - 1
    if queries < 1:
        return math.inf
    reach = np.sqrt(np.maximum(euclid._sq_dists(pts[1:horizon], pts[:queries]),
                               euclid._sq_dists(pts[2:], pts[:queries])))
    index = euclid._CloudIndex(pts)
    found = np.empty(queries, dtype=np.intp)
    margins = np.empty(queries)
    for leaf, ids in enumerate(index.ids):
        qids = ids[ids < queries]
        if not qids.size:
            continue
        bound = index.bounds(index.lo[:, leaf], index.hi[:, leaf])
        near = np.flatnonzero(bound <= reach[qids].max())
        cids = np.sort(index.ids[near], axis=None)
        cids = cids[np.concatenate(([True], cids[1:] != cids[:-1]))]  # drop the top-up repeats
        cand = pts[cids]
        rows = max(1, _BLOCK // cids.size)
        for start in range(0, qids.size, rows):
            q = qids[start:start + rows]
            block = euclid._sq_dists(cand, pts[q, None])
            block[np.arange(q.size), np.searchsorted(cids, q)] = math.inf
            found[q] = cids[block.argmin(axis=1)]
            block.partition(1, axis=1)
            margins[q] = np.minimum(np.sqrt(block[:, 1]), sphere_d[q]) - np.sqrt(block[:, 0])
    bad = np.flatnonzero(found != np.arange(1, queries + 1))
    if bad.size:
        n = int(bad[0])
        raise NearestPropertyViolated(n, int(found[n]))
    return float(margins.min())


def _fsum(values: np.ndarray) -> float:
    # the same values in the same order as math.fsum(values.tolist()), without
    # a full-length list of Python floats
    step = spiral.CHUNK
    return math.fsum(chain.from_iterable(
        values[i:i + step].tolist() for i in range(0, values.size, step)))


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def run_verification(report: SequenceReport,
                     nearest_horizon: int | None = None) -> list[CheckResult]:
    """Every sequence-level check, each returning a named pass/fail result.

    The nearest-point check covers iterates up to `nearest_horizon`, clamped
    to the last one (None: every iterate).  A failed check never stops the
    others: a unit sphere that is not strictly farther than the successor
    fails `sphere-never-nearer`, and within that horizon `nearest-point` too,
    with the ValueError of `verify_nearest`.
    """
    results: list[CheckResult] = []

    def check(name: str, passed: bool, detail: str) -> None:
        results.append(CheckResult(name, bool(passed), detail))

    pts = report.points
    alphas = report.alphas
    epss = report.epss
    deltas = report.deltas

    eps0_closed = (1.0 - math.exp(-2.0 * math.pi)) / 2.0
    x0 = pts[0]
    check("initialization",
          x0[0] == 2.0 and not x0[1:].any() and abs(epss[0] - eps0_closed) <= 1e-15,
          f"x0=({', '.join('%.17g' % c for c in x0.tolist())}), eps0 residual "
          f"{abs(epss[0] - eps0_closed):.3e}")

    chord = check_step_identity(report)
    check("step-identity", chord <= 1e-10, f"max |chord - eps| = {chord:.3e}")

    half = check_halfangle_identity(report)
    check("half-angle-identity", half.raw <= 1e-10, f"max residual {half.raw:.3e}")
    check("half-angle-identity-scaled", half.scaled <= 1e-12,
          f"max residual {half.scaled:.3e}")

    telescope = abs(_fsum(deltas) - (alphas[-1] - alphas[0]))
    check("telescoping-delta-sum", telescope <= 1e-10, f"residual {telescope:.3e}")

    if len(report) > 1:
        ok = bool(np.all(deltas > 0.0) and np.all(deltas <= spiral.STEP_UPPER_BOUND))
        check("step-bracket", ok,
              f"delta range [{deltas.min():.6f}, {deltas.max():.6f}] rad, "
              f"bound {spiral.STEP_UPPER_BOUND:.6f}")
        check("eps-strictly-decreasing", bool(np.all(np.diff(epss) < 0.0)),
              "eps from %.17g to %.17g" % (epss[0], epss[-1]))
    else:
        check("step-bracket", True, "single record")
        check("eps-strictly-decreasing", True, "single record")

    sphere_d = np.exp(-alphas)
    gaps = np.abs(np.hypot.reduce(pts, axis=1) - 1.0)
    gap_resid = float(np.abs(gaps - sphere_d).max())
    check("sphere-gap", gap_resid <= 1e-12, f"max residual {gap_resid:.3e}")

    sphere_margins = sphere_d - epss
    check("sphere-never-nearer", np.all(sphere_margins > 0.0),
          f"min margin {sphere_margins.min():.3e}")

    last = len(report) - 1
    horizon = last if nearest_horizon is None else min(nearest_horizon, last)
    try:
        margin = verify_nearest(report, horizon)
        check("nearest-point", margin > 0.0, f"min margin {margin:.3e} at horizon {horizon}")
    except (NearestPropertyViolated, ValueError) as exc:
        check("nearest-point", False, str(exc))
    return results


def _write_rows(report: SequenceReport, stream, head: str, row: tuple, last_row: tuple,
                tail: str, extra: tuple = ()) -> None:
    """Write `head`, one `row` per iterate but the last, `last_row`, then `tail`.

    `row` is the text around n, alpha, delta, rho, eps, x, y and one value
    per `extra` column, `last_row` the text around n, alpha, rho, eps, x,
    y, as `serialize._rows` takes them.  Rows are formatted about
    `serialize._BLOCK` values at a time, n as a float (exact); a non-finite
    value raises ValueError.
    """
    stream.write(head)
    last = len(report) - 1
    if last >= 0:
        alphas, rhos, epss, pts = report.alphas, report.rhos, report.epss, report.points
        cols = (alphas, report.deltas, rhos, epss, pts[:, 0], pts[:, 1], *extra)
        step = serialize._BLOCK // (len(cols) + 1)
        for start in range(0, last, step):
            stop = min(start + step, last)
            block = np.stack([np.arange(start, stop), *(col[start:stop] for col in cols)])
            if not np.isfinite(block).all():
                raise ValueError(f"cannot serialize a non-finite value in rows {start}..{stop - 1}")
            stream.write(serialize._rows(block, row))
        final = np.array([last, alphas[last], rhos[last], epss[last], pts[last, 0], pts[last, 1]])
        if not np.isfinite(final).all():
            raise ValueError(f"cannot serialize a non-finite value in row {last}")
        stream.write(serialize._rows(final[:, None], last_row))
    stream.write(tail)


def write_csv(report: SequenceReport, stream) -> None:
    """Write one CSV row per iterate, floats as `serialize.fmt17` renders them
    (a non-finite one raises ValueError); `delta` is empty on the final row."""
    _write_rows(report, stream, CSV_HEADER + "\n", _CSV_ROW, _CSV_LAST_ROW, "")


def write_json(report: SequenceReport, stream) -> None:
    """Write, with a newline, what `serialize.render_json` renders for one object
    per iterate: n, alpha, delta, rho, eps, x and q (the radius ratio of the
    successor), null `delta` and `q` on the final one; non-finite raises ValueError."""
    _write_rows(report, stream, "[", _JSON_ROW, _JSON_LAST_ROW, "]\n", (report.qs,))
