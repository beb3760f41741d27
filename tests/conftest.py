"""Shared reports and the brute-force oracles the package is checked against."""

import math
from typing import Optional

import numpy as np
import pytest

from altproj import sequence
from altproj.euclid import DimensionMismatch, _as_cloud, as_point


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
