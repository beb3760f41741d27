"""Set-valued Euclidean projectors and the method of alternating projections.

The package provides exact projection onto spheres, balls, boxes,
halfspaces, segments, finite point clouds, and finite unions of those; an
alternating-projections driver with trace capture and a run verdict;
a spiral iterate construction whose alternating-projection runs never
converge (the cluster set fills the whole unit circle); and an empirical
harness confirming that over *finite* unions of convex sets, bounded runs
with vanishing gaps always converge to a common intersection point.
"""

from .euclid import (
    Ball,
    Box,
    DegenerateProjection,
    DimensionMismatch,
    Halfspace,
    PointCloud,
    ProjectionResult,
    ProjectorSpec,
    Segment,
    Sphere,
    Union,
)
from .map_driver import MapConfig, MapTrace, Verdict, run
from .sequence import SequenceReport, generate, verify_nearest
from .spiral import BracketInvalid, alpha_chain, curve, eps, next_alpha, rho

__version__ = "0.1.0"

#: Name of the step solver; there is a single pure-Python one.  Kept because
#: benchmark reports record it.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "Ball",
    "Box",
    "BracketInvalid",
    "DegenerateProjection",
    "DimensionMismatch",
    "Halfspace",
    "MapConfig",
    "MapTrace",
    "PointCloud",
    "ProjectionResult",
    "ProjectorSpec",
    "Segment",
    "SequenceReport",
    "Sphere",
    "Union",
    "Verdict",
    "alpha_chain",
    "curve",
    "eps",
    "generate",
    "next_alpha",
    "rho",
    "run",
    "verify_nearest",
]
