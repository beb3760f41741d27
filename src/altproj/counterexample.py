"""The two nonconvex sets whose alternating projections never converge.

`build` splits a generated iterate prefix by index parity -- even-indexed
points plus the unit sphere (or closed unit disk) form set A, odd-indexed
points plus the same sphere/disk form set B.  Starting from the first
iterate, alternating projections then walk the sequence two indices at a
time: a_n is iterate 2n and b_n is iterate 2n+1, so the iterates never
settle and their cluster set fills the whole circle as the horizon grows.

The sets here are finite truncations, so runs must stay clear of the
truncation edge; `make_config` enforces a two-index stop margin, and
`run_corollary` verifies the predicted trace index-exactly.

Successive step sizes differ by less than the default tie tolerance from
iterate ~31 600 on, which would make the predecessor a tie of the successor;
runs therefore use `tie_tolerance`, a tenth of the smallest such difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import map_driver, sequence
from .euclid import DEFAULT_TIE_TOL, Ball, PointCloud, ProjectorSpec, Sphere, Union, _integer
from .map_driver import MapConfig, MapTrace

VARIANT_SPHERE = "sphere"
VARIANT_DISK = "disk"
_VARIANTS = (VARIANT_SPHERE, VARIANT_DISK)

__all__ = [
    "CorollaryViolated",
    "CounterexampleSets",
    "VARIANT_DISK",
    "VARIANT_SPHERE",
    "build",
    "make_config",
    "max_safe_pairs",
    "run_corollary",
    "tie_tolerance",
]


class CorollaryViolated(RuntimeError):
    """The alternating-projection trace left the predicted iterate indices."""

    def __init__(self, n: int, which: str):
        super().__init__(f"trace deviates from the predicted iterate at pair {n} ({which})")
        self.n = n
        self.which = which


@dataclass(eq=False)
class CounterexampleSets:
    set_a: ProjectorSpec
    set_b: ProjectorSpec
    horizon: int
    variant: str
    report: sequence.SequenceReport


def build(horizon: int, variant: str = VARIANT_SPHERE,
          report: Optional[sequence.SequenceReport] = None) -> CounterexampleSets:
    """Assemble the parity-split sets from the first `horizon` iterates.

    `report` may supply a pre-generated sequence (its first `horizon` records
    are used); otherwise one is generated.
    """
    horizon = _integer("horizon", horizon)
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    if report is None:
        report = sequence.generate(horizon)
    if len(report) < horizon:
        raise ValueError(f"report has {len(report)} records, need {horizon}")
    pts = report.points
    origin = np.zeros(2)
    surface: ProjectorSpec = Sphere(origin, 1.0) if variant == VARIANT_SPHERE else Ball(origin, 1.0)
    set_a = Union([PointCloud(pts[0:horizon:2]), surface])
    set_b = Union([PointCloud(pts[1:horizon:2]), surface])
    return CounterexampleSets(set_a, set_b, horizon, variant, report)


def max_safe_pairs(horizon: int) -> int:
    """Largest pair count that keeps a run two indices clear of the truncation edge."""
    return (_integer("horizon", horizon) - 1) // 2


def tie_tolerance(sets: CounterexampleSets) -> float:
    """A tie tolerance that keeps the successor apart from the predecessor.

    A query at iterate k sees iterate k + 1 at eps[k] and iterate k - 1 at
    eps[k - 1]; the tolerance is a tenth of the smallest such gap over the
    horizon, never above `DEFAULT_TIE_TOL`.
    """
    gaps = -np.diff(sets.report.epss[:sets.horizon])
    return min(DEFAULT_TIE_TOL, 0.1 * float(gaps.min()))


def make_config(sets: CounterexampleSets, n_pairs: int, stop_step: float) -> MapConfig:
    """The MAP config that walks `n_pairs` pairs from the first iterate.

    ValueError unless 1 <= n_pairs and 2*n_pairs + 1 <= horizon, the
    two-index stop margin that keeps the run clear of the truncation edge.
    """
    n_pairs = _integer("n_pairs", n_pairs)
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if 2 * n_pairs + 1 > sets.horizon:
        raise ValueError(
            f"n_pairs={n_pairs} runs into the truncation edge: need 2*n_pairs + 1 <= "
            f"horizon={sets.horizon}"
        )
    return MapConfig(sets.set_a, sets.set_b, sets.report.points[0], max_iter=n_pairs,
                     stop_step=stop_step, tie_tol=tie_tolerance(sets))


def run_corollary(sets: CounterexampleSets, n_pairs: int,
                  stop_step: float = 0.0) -> MapTrace:
    """Run `n_pairs` alternating projections from the first iterate and verify
    that the trace reproduces the predicted points index-exactly.

    `make_config` checks the truncation margin.  Raises CorollaryViolated on
    the first deviation; comparison is bitwise.
    """
    pts = sets.report.points
    trace = map_driver.run(make_config(sets, n_pairs, stop_step))
    n = len(trace.a)
    off_a = (trace.a != pts[0:2 * n:2]).any(axis=1)
    off_b = (trace.b != pts[1:2 * n:2]).any(axis=1)
    bad = np.flatnonzero(off_a | off_b)
    if bad.size:
        k = int(bad[0])
        raise CorollaryViolated(k, "A" if off_a[k] else "B")
    return trace
