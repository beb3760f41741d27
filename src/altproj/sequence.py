"""Generation and verification of the spiral iterate sequence.

`generate` walks the curve from angle 0, advancing by exactly one step size
per iterate, and records angle, radius, step size, step-to-successor, and
the Cartesian point for each index.  The check functions verify the per-step
identities the construction guarantees: chord length equals step size, the
half-angle chord identity, telescoping of the angle increments, strict
monotonicity, and the nearest-point property (each iterate's closest
neighbour among all others is its successor, with the unit sphere strictly
farther).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import euclid, spiral

__all__ = [
    "HalfAngleResiduals",
    "NearestPropertyViolated",
    "SequenceReport",
    "check_halfangle_identity",
    "check_step_identity",
    "generate",
    "records_to_json_obj",
    "verify_nearest",
    "write_csv",
]

CSV_HEADER = "n,alpha,delta,rho,eps,x,y"
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
_CSV_LAST_ROW = "%d,%.17g,,%.17g,%.17g,%.17g,%.17g\n"  # no successor, no delta

#: Floats in each of the two distance buffers of `verify_nearest`.
_SCRATCH = 1 << 15


class NearestPropertyViolated(RuntimeError):
    """Some iterate's nearest neighbour is not its successor (bug signal)."""

    def __init__(self, n: int, found: int):
        super().__init__(f"nearest neighbour of iterate {n} is {found}, expected {n + 1}")
        self.n = n
        self.found = found


class SequenceReport:
    """Immutable result of `generate`: read-only column arrays."""

    def __init__(self, alphas: np.ndarray, rhos: np.ndarray, epss: np.ndarray,
                 points: np.ndarray, stopped_early: bool):
        self._alphas = alphas
        self._rhos = rhos
        self._epss = epss
        self._points = points
        self._deltas = alphas[1:] - alphas[:-1]
        self._qs = rhos[1:] / rhos[:-1]
        for arr in (self._alphas, self._rhos, self._epss, self._points,
                    self._deltas, self._qs):
            arr.flags.writeable = False
        self.stopped_early = stopped_early

    def __len__(self) -> int:
        return self._alphas.size

    def alphas(self) -> np.ndarray:
        return self._alphas

    def rhos(self) -> np.ndarray:
        return self._rhos

    def epss(self) -> np.ndarray:
        return self._epss

    def deltas(self) -> np.ndarray:
        return self._deltas

    def qs(self) -> np.ndarray:
        return self._qs

    def points(self) -> np.ndarray:
        return self._points


def generate(n_max: int, max_alpha: float = spiral.MAX_ALPHA) -> SequenceReport:
    """Generate the first `n_max` iterates starting from angle 0 at (2, 0).

    Stops early (with `stopped_early` set) if an angle exceeds `max_alpha`,
    where the step size would underflow; unreachable at desk scale since the
    angle grows only logarithmically in the index.
    """
    if int(n_max) < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    alphas, stopped = spiral.alpha_chain(0.0, int(n_max), max_alpha)
    rhos, epss, points = spiral.columns(alphas)
    return SequenceReport(alphas, rhos, epss, points, stopped)


def check_step_identity(report: SequenceReport) -> float:
    """Max |chord - eps| over the steps: each chord |x_{n+1} - x_n| must
    equal the step size eps_n.  Computed `spiral.CHUNK` steps at a time, so
    no full-length temporary is built."""
    pts, epss = report.points(), report.epss()
    worst = 0.0
    for start in range(0, len(report) - 1, spiral.CHUNK):
        p = pts[start:start + spiral.CHUNK + 1]
        chords = np.hypot(p[1:, 0] - p[:-1, 0], p[1:, 1] - p[:-1, 1])
        worst = max(worst, float(np.abs(chords - epss[start:start + chords.size]).max()))
    return worst


class HalfAngleResiduals(NamedTuple):
    """Max residuals of the half-angle chord identity, raw and radius-scaled."""

    raw: float
    scaled: float


def check_halfangle_identity(report: SequenceReport) -> HalfAngleResiduals:
    """Evaluate eps_n^2 = (rho_n - rho_{n+1})^2 + 4 rho_n rho_{n+1} sin^2(delta_n/2)
    per step, in raw form and divided by rho_n^2, returning the max |lhs - rhs|."""
    if len(report) < 2:
        return HalfAngleResiduals(0.0, 0.0)
    r0 = report.rhos()[:-1]
    r1 = report.rhos()[1:]
    e = report.epss()[:-1]
    d = report.deltas()
    q = report.qs()
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

    Raises NearestPropertyViolated for the smallest index whose nearest
    neighbour (the lowest index among ties) is not its successor.

    The points are indexed once by `euclid._CloudIndex` and checked one leaf
    of queries at a time.  Query n's reach, the larger of its distances to
    x_{n+1} and x_{n+2}, is at least its runner-up distance, so the leaves
    within the largest reach of a query leaf hold each query's winner, all
    of its ties and its runner-up.  Distances use the full scan's expression,
    `((x - x_n) ** 2).sum()`, so the verdict and the margin equal those of a
    scan over every point, bit for bit.
    """
    if not (0 <= horizon <= len(report) - 1):
        raise ValueError(f"horizon must be in [0, {len(report) - 1}], got {horizon}")
    pts = report.points()[:horizon + 1]
    alphas = report.alphas()[:horizon + 1]
    epss = report.epss()[:horizon + 1]
    sphere_d = np.exp(-alphas)
    if not np.all(sphere_d > epss):
        raise ValueError("unit sphere is not strictly farther than the successor somewhere")
    queries = horizon - 1
    if queries < 1:
        return math.inf
    reach = np.sqrt(np.maximum(((pts[1:horizon] - pts[:queries]) ** 2).sum(axis=1),
                               ((pts[2:] - pts[:queries]) ** 2).sum(axis=1)))
    index = euclid._CloudIndex(pts)
    # Blocks are written into two fixed buffers, always wide enough for one
    # full row, so no per-leaf temporary grows with the block.
    size = max(_SCRATCH, horizon + 1)
    acc, tmp = np.empty(size), np.empty(size)
    found = np.empty(queries, dtype=np.intp)
    margins = np.empty(queries)
    for leaf, ids in enumerate(index.ids):
        qids = ids[ids < queries]
        if not qids.size:
            continue
        cids = np.sort(index.ids[index.leaves_within(leaf, reach[qids].max())], axis=None)
        cids = cids[np.concatenate(([True], cids[1:] != cids[:-1]))]  # drop the top-up repeats
        cand = pts[cids]
        k = cids.size
        rows = size // k
        for start in range(0, qids.size, rows):
            q = qids[start:start + rows]
            m = q.size
            block = acc[:m * k].reshape(m, k)
            part = tmp[:m * k].reshape(m, k)
            np.subtract(cand[:, 0], pts[q, :1], out=block)
            block *= block
            np.subtract(cand[:, 1], pts[q, 1:], out=part)
            part *= part
            block += part  # dx^2 + dy^2: the scan's sum over the two columns
            block[np.arange(m), np.searchsorted(cids, q)] = math.inf
            found[q] = cids[block.argmin(axis=1)]
            block.partition(1, axis=1)
            margins[q] = np.minimum(np.sqrt(block[:, 1]), sphere_d[q]) - np.sqrt(block[:, 0])
    bad = np.flatnonzero(found != np.arange(1, queries + 1))
    if bad.size:
        n = int(bad[0])
        raise NearestPropertyViolated(n, int(found[n]))
    return float(margins.min())


def write_csv(report: SequenceReport, stream) -> None:
    """Write one row per iterate; `delta` is empty on the final row.

    Floats get 17 significant digits, as `serialize.fmt17` renders them, and
    a non-finite value raises ValueError.  Rows are formatted `spiral.CHUNK`
    at a time from a small float table whose first column is the index
    (exact as a float).
    """
    stream.write(CSV_HEADER + "\n")
    last = len(report) - 1
    if last < 0:
        return
    alphas, rhos, epss, pts = report.alphas(), report.rhos(), report.epss(), report.points()
    cols = (alphas, report.deltas(), rhos, epss, pts[:, 0], pts[:, 1])
    table = np.empty((min(spiral.CHUNK, last), 7))
    for start in range(0, last, spiral.CHUNK):
        block = table[:min(spiral.CHUNK, last - start)]
        k = len(block)
        block[:, 0] = np.arange(start, start + k)
        for j, col in enumerate(cols, 1):
            block[:, j] = col[start:start + k]
        if not np.isfinite(block).all():
            raise ValueError(f"cannot serialize a non-finite value in rows {start}..{start + k - 1}")
        stream.write((_CSV_ROW * k) % tuple(block.ravel().tolist()))
    row = (alphas[last], rhos[last], epss[last], pts[last, 0], pts[last, 1])
    if not np.isfinite(row).all():
        raise ValueError(f"cannot serialize a non-finite value in row {last}")
    stream.write(_CSV_LAST_ROW % (last, *row))


def records_to_json_obj(report: SequenceReport) -> list[dict]:
    """One JSON-ready object per iterate: n, alpha, delta, rho, eps, x and q
    (the radius ratio of the successor); `delta` and `q` are None on the
    final one."""
    return [
        {"n": n, "alpha": alpha, "delta": delta, "rho": rho, "eps": eps, "x": x, "q": q}
        for n, (alpha, delta, rho, eps, x, q) in enumerate(zip(
            report.alphas().tolist(), report.deltas().tolist() + [None],
            report.rhos().tolist(), report.epss().tolist(), report.points().tolist(),
            report.qs().tolist() + [None]))
    ]
