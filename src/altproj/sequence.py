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
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import spiral
from .serialize import fmt17

__all__ = [
    "HalfAngleResiduals",
    "NearestPropertyViolated",
    "SequenceReport",
    "SpiralRecord",
    "check_halfangle_identity",
    "generate",
    "records_to_json_obj",
    "verify_nearest",
    "write_csv",
]

CSV_HEADER = "n,alpha,delta,rho,eps,x,y"


class NearestPropertyViolated(RuntimeError):
    """Some iterate's nearest neighbour is not its successor (bug signal)."""

    def __init__(self, n: int, found: int):
        super().__init__(f"nearest neighbour of iterate {n} is {found}, expected {n + 1}")
        self.n = n
        self.found = found


@dataclass(eq=False)
class SpiralRecord:
    """One iterate: index, angle, radius, step size, point, and successor data.

    `delta` (angle increment to the successor) and `q` (radius ratio of the
    successor) are None on the final record.
    """

    n: int
    alpha: float
    rho: float
    eps: float
    x: np.ndarray
    delta: Optional[float] = None
    q: Optional[float] = None


class SequenceReport:
    """Immutable result of `generate`.

    Exposes the summary statistics plus read-only column arrays; `records`
    is materialized lazily.
    """

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
        self.partial_delta_sum = math.fsum(self._deltas.tolist())
        self.partial_eps_sum = math.fsum(epss[:-1].tolist())
        if len(alphas) > 1:
            chords = np.hypot(points[1:, 0] - points[:-1, 0],
                              points[1:, 1] - points[:-1, 1])
            self.max_identity_residual = float(np.abs(chords - epss[:-1]).max())
        else:
            self.max_identity_residual = 0.0
        self._records: Optional[list[SpiralRecord]] = None

    def __len__(self) -> int:
        return self._alphas.size

    @property
    def records(self) -> list[SpiralRecord]:
        if self._records is None:
            n = len(self)
            recs = []
            for i in range(n):
                recs.append(SpiralRecord(
                    n=i,
                    alpha=float(self._alphas[i]),
                    rho=float(self._rhos[i]),
                    eps=float(self._epss[i]),
                    x=self._points[i],
                    delta=float(self._deltas[i]) if i < n - 1 else None,
                    q=float(self._qs[i]) if i < n - 1 else None,
                ))
            self._records = recs
        return self._records

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
    """Brute-force check of the nearest-point property up to `horizon`.

    For every n < horizon - 1, the nearest point of {x_0..x_horizon} minus
    {x_n} must be x_{n+1}; additionally the unit sphere must be strictly
    farther from x_n than x_{n+1} is, for every n <= horizon.  Returns the
    smallest winning margin observed: min over n of
    (min(runner-up distance, sphere distance) - winning distance).

    Raises NearestPropertyViolated on the first index whose nearest
    neighbour is not its successor.  O(horizon^2) by design: this is the
    oracle other layers are checked against.
    """
    if not (0 <= horizon <= len(report) - 1):
        raise ValueError(f"horizon must be in [0, {len(report) - 1}], got {horizon}")
    pts = report.points()[:horizon + 1]
    alphas = report.alphas()[:horizon + 1]
    epss = report.epss()[:horizon + 1]
    sphere_d = np.exp(-alphas)
    if not np.all(sphere_d > epss):
        raise ValueError("unit sphere is not strictly farther than the successor somewhere")
    min_margin = math.inf
    for n in range(horizon - 1):
        d2 = ((pts - pts[n]) ** 2).sum(axis=1)
        d2[n] = math.inf
        found = int(np.argmin(d2))
        if found != n + 1:
            raise NearestPropertyViolated(n, found)
        best, runner = np.sqrt(np.partition(d2, 1)[:2])
        margin = min(float(runner), float(sphere_d[n])) - float(best)
        min_margin = min(min_margin, margin)
    return min_margin


def write_csv(report: SequenceReport, stream) -> None:
    """Write one row per record; `delta` is empty on the final row."""
    stream.write(CSV_HEADER + "\n")
    alphas = report.alphas()
    deltas = report.deltas()
    rhos = report.rhos()
    epss = report.epss()
    pts = report.points()
    last = len(report) - 1
    for i in range(len(report)):
        d = fmt17(deltas[i]) if i < last else ""
        stream.write(f"{i},{fmt17(alphas[i])},{d},{fmt17(rhos[i])},"
                     f"{fmt17(epss[i])},{fmt17(pts[i, 0])},{fmt17(pts[i, 1])}\n")


def records_to_json_obj(report: SequenceReport) -> list[dict]:
    """Records as JSON-ready objects mirroring SpiralRecord fields."""
    out = []
    for r in report.records:
        out.append({
            "n": r.n,
            "alpha": r.alpha,
            "delta": r.delta,
            "rho": r.rho,
            "eps": r.eps,
            "x": [float(r.x[0]), float(r.x[1])],
            "q": r.q,
        })
    return out
