"""Exact Euclidean distances and set-valued projections onto closed sets.

Points are 1-D numpy float64 arrays.  A projector spec describes a closed
set -- sphere, closed ball, axis-aligned box, halfspace, segment, finite
point cloud, or a finite union of those -- and answers two exact queries:
distance, and the full set of nearest points.

Projection is genuinely set-valued: `project` returns every minimizer whose
distance is within `tie_tol` of the optimum, and flags multivaluedness
instead of silently picking a representative.  Every query is one pass over
the set; point clouds answer it through a lazily built leaf index that
visits the nearest leaf and then, in one batch, every leaf within `tie_tol`
of that leaf's smallest distance, so it returns exactly the distance and
candidates a full scan would.  The one deliberately fatal
case is projecting the center of a sphere, where the minimizer set is the
whole sphere: that raises `DegenerateProjection`.

All operations are pure functions of their inputs; instances are treated as
immutable after construction.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

#: Candidates within this distance of the optimum are reported together.
DEFAULT_TIE_TOL = 1e-9

#: Points per leaf bucket of a point cloud's index.
LEAF_SIZE = 64

_CENTER_TOL = 1e-12
_UNIT_TOL = 1e-12
# Leaf bounds are shrunk by a few ulps so that rounding in the bound can
# never prune a leaf holding a point at or below the pruning threshold.
_BOUND_SLACK = 1.0 - 8.0 * np.finfo(np.float64).eps

__all__ = [
    "Ball",
    "Box",
    "DEFAULT_TIE_TOL",
    "DegenerateProjection",
    "DimensionMismatch",
    "Halfspace",
    "LEAF_SIZE",
    "PointCloud",
    "ProjectionResult",
    "ProjectorSpec",
    "Segment",
    "Sphere",
    "Union",
    "as_point",
    "spec_from_dict",
]


class DimensionMismatch(ValueError):
    """Query point dimension does not match the set's ambient dimension."""


class DegenerateProjection(RuntimeError):
    """The minimizer set is a continuum (e.g. a whole sphere); no point is returned."""


def _integer(name: str, value) -> int:
    """`value` as an int; bools and non-integral numbers are rejected."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _finite(name: str, value) -> float:
    """`value` as a finite float; bools and non-numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


_EXPECTED = "{} must be a nonempty {}-D list of numbers, got {}"


def _coords(values, ndim: int, what: str) -> np.ndarray:
    """`values` as a new finite float64 array of `ndim` nonempty axes.

    The array is built once and only integer or float element types pass,
    so strings, bools, None, objects and ragged nestings are all rejected
    without a per-element loop.
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        raise ValueError(_EXPECTED.format(what, ndim, "a ragged list")) from None
    if arr.dtype.kind not in "iuf":
        got = {"b": "bool", "U": "string"}.get(arr.dtype.kind, "non-numeric")
        raise ValueError(_EXPECTED.format(what, ndim, f"{got} values"))
    if arr.ndim != ndim or 0 in arr.shape:
        raise ValueError(_EXPECTED.format(what, ndim, f"shape {arr.shape}"))
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} coordinates must be finite")
    return arr


def as_point(coords) -> np.ndarray:
    """Validate and copy coordinates into a finite 1-D float64 vector."""
    return _coords(coords, 1, "point")


def _as_cloud(points) -> np.ndarray:
    return _coords(points, 2, "point cloud")


def _norm(v: np.ndarray) -> float:
    # what np.linalg.norm computes for a real 1-D vector, without its overhead
    return math.sqrt(v.dot(v))


def _radial_point(center: np.ndarray, radius: float, diff: np.ndarray, d: float) -> np.ndarray:
    """The boundary point at `radius` from `center` toward `center + diff`.

    Shared by Sphere and Ball so the two produce bitwise-identical projections
    for exterior queries.
    """
    return center + (radius / d) * diff


def _dedupe(points: list[np.ndarray], tol: float) -> list[np.ndarray]:
    kept: list[np.ndarray] = []
    for p in points:
        if all(_norm(p - k) > tol for k in kept):
            kept.append(p)
    return kept


@dataclass(eq=False)
class ProjectionResult:
    """All nearest points of a set to a query.

    `candidates` holds every minimizer within `tie_tol` of the optimal
    `distance`; `multivalued` is set when there is more than one.
    """

    candidates: list[np.ndarray]
    distance: float
    multivalued: bool


class _Hit(NamedTuple):
    """The outcome of one projection pass over a set.

    `candidates` is None when the minimizer set is a continuum (a sphere
    queried at its center).
    """

    distance: float
    candidates: Optional[list]


def _single(candidate: np.ndarray, dist: float) -> _Hit:
    return _Hit(dist, [candidate])


class ProjectorSpec:
    """A closed subset of Euclidean space supporting exact projection queries."""

    dim: int

    def _check_query(self, q) -> np.ndarray:
        p = as_point(q)
        if p.size != self.dim:
            raise DimensionMismatch(f"query has dim {p.size}, set has dim {self.dim}")
        return p

    def distance(self, q) -> float:
        """Infimum distance from `q` to the set (exact closed form)."""
        return self._nearest(self._check_query(q), DEFAULT_TIE_TOL).distance

    def project(self, q, tie_tol: float = DEFAULT_TIE_TOL, *,
                validate: bool = True) -> ProjectionResult:
        """All nearest points of the set to `q`, gathered within `tie_tol`.

        `validate=False` skips the checks on `q` and `tie_tol`: the caller
        guarantees a finite float64 point of the set's dimension and a finite
        positive tolerance, as the MAP driver does for its own iterates.
        """
        if validate:
            tie_tol = float(tie_tol)
            if not (0.0 < tie_tol < math.inf):
                raise ValueError(f"tie_tol must be finite and positive, got {tie_tol!r}")
            q = self._check_query(q)
        hit = self._nearest(q, tie_tol)
        if hit.candidates is None:
            raise DegenerateProjection(
                "projection of the sphere center: the minimizer set is the whole sphere"
            )
        return ProjectionResult(hit.candidates, hit.distance, len(hit.candidates) > 1)

    def _nearest(self, q: np.ndarray, tie_tol: float) -> _Hit:
        raise NotImplementedError

    def to_dict(self) -> dict:
        """The JSON-object form that `spec_from_dict` reads back."""
        kind, names = _KIND_OF[type(self)]
        out = {"type": kind}
        for name, f in zip(names, fields(self)):
            value = getattr(self, f.name)
            out[name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out


@dataclass(eq=False)
class Sphere(ProjectorSpec):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = as_point(self.center)
        self.radius = _finite("radius", self.radius)
        if not (self.radius > 0.0):
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        self.dim = self.center.size

    def _nearest(self, q, tie_tol):
        diff = q - self.center
        d = _norm(diff)
        dist = abs(d - self.radius)
        if d <= _CENTER_TOL:
            return _Hit(dist, None)
        return _single(_radial_point(self.center, self.radius, diff, d), dist)


@dataclass(eq=False)
class Ball(ProjectorSpec):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = as_point(self.center)
        self.radius = _finite("radius", self.radius)
        if not (self.radius > 0.0):
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        self.dim = self.center.size

    def _nearest(self, q, tie_tol):
        diff = q - self.center
        d = _norm(diff)
        if d <= self.radius:
            return _single(q.copy(), 0.0)
        return _single(_radial_point(self.center, self.radius, diff, d), d - self.radius)


@dataclass(eq=False)
class Box(ProjectorSpec):
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = as_point(self.lo)
        self.hi = as_point(self.hi)
        if self.lo.size != self.hi.size:
            raise ValueError("box corners must share a dimension")
        if not np.all(self.lo <= self.hi):
            raise ValueError("box must satisfy lo <= hi componentwise")
        self.dim = self.lo.size

    def _nearest(self, q, tie_tol):
        cand = np.clip(q, self.lo, self.hi)
        return _single(cand, _norm(q - cand))


@dataclass(eq=False)
class Halfspace(ProjectorSpec):
    """The closed halfspace {x : normal . x <= offset}, normal of unit length."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        self.normal = as_point(self.normal)
        self.offset = _finite("offset", self.offset)
        if abs(_norm(self.normal) - 1.0) > _UNIT_TOL:
            raise ValueError("halfspace normal must have unit norm (within 1e-12)")
        self.dim = self.normal.size

    def _nearest(self, q, tie_tol):
        s = float(np.dot(self.normal, q)) - self.offset
        if s <= 0.0:
            return _single(q.copy(), 0.0)
        return _single(q - s * self.normal, s)


@dataclass(eq=False)
class Segment(ProjectorSpec):
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = as_point(self.a)
        self.b = as_point(self.b)
        if self.a.size != self.b.size:
            raise ValueError("segment endpoints must share a dimension")
        self.dim = self.a.size

    def _closest(self, q):
        ab = self.b - self.a
        den = float(np.dot(ab, ab))
        if den == 0.0:
            return self.a.copy()
        t = float(np.dot(q - self.a, ab)) / den
        t = min(1.0, max(0.0, t))
        return self.a + t * ab

    def _nearest(self, q, tie_tol):
        cand = self._closest(q)
        return _single(cand, _norm(q - cand))


def _dists(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distances from `q` to each row of `points`, the brute-force expression."""
    return np.sqrt(((points - q) ** 2).sum(axis=1))


def _median_order(points: np.ndarray, ids: np.ndarray, leaves: int, width: int) -> np.ndarray:
    """`ids` reordered so that consecutive runs of `width` form the leaves.

    Each split sorts along the widest coordinate and cuts at the leaf
    boundary nearest the median, so every leaf but the last is full.
    """
    if leaves == 1:
        return ids
    sub = points[ids]
    axis = int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))
    ids = ids[np.argsort(sub[:, axis], kind="stable")]
    left = leaves // 2
    cut = left * width
    return np.concatenate([_median_order(points, ids[:cut], left, width),
                           _median_order(points, ids[cut:], leaves - left, width)])


class _CloudIndex:
    """A static k-d style index of a point cloud (Bentley, CACM 1975).

    Points are split at the median into leaf buckets of `LEAF_SIZE`, stored
    permuted and contiguous as `(L, width, d)`, with per-leaf bounding boxes
    `lo`/`hi`.  The boxes are kept transposed, `(d, L)`, because the bound
    pass then works on contiguous rows, about twice as fast as on `(L, d)`.
    The last bucket is topped up with repeats of its final point, which
    change no minimum, and whose repeated index is dropped from the
    candidates.  A cloud of at most one leaf is a single bucket in its
    original order.
    """

    def __init__(self, points: np.ndarray):
        n, _ = points.shape
        width = min(n, LEAF_SIZE)
        leaves = -(-n // width)
        order = _median_order(points, np.arange(n), leaves, width)
        ids = np.concatenate([order, np.repeat(order[-1], leaves * width - n)])
        self.ids = ids.reshape(leaves, width)
        self.points = points[ids].reshape(leaves, width, -1)
        self.lo = np.ascontiguousarray(self.points.min(axis=1).T)
        self.hi = np.ascontiguousarray(self.points.max(axis=1).T)

    def search(self, q: np.ndarray, tie_tol: float) -> tuple[np.ndarray, np.ndarray]:
        """Distances and original indices of the points in every leaf visited.

        Every leaf's box bound comes from one vectorised pass.  The leaf with
        the smallest bound is visited first, giving its smallest distance `d`;
        then, in one batch, every other leaf whose bound does not exceed
        `d + tie_tol`.  The minimum is at most `d`, so every point within
        `tie_tol` of it lies in a visited leaf.
        """
        col = q[:, None]
        gap = self.lo - col
        np.maximum(gap, col - self.hi, out=gap)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        bound = np.sqrt(gap.sum(axis=0))
        bound *= _BOUND_SLACK
        first = int(bound.argmin())
        bound[first] = math.inf
        dists = _dists(self.points[first], q)
        take = np.flatnonzero(bound <= dists.min() + tie_tol)
        return (np.concatenate([dists, _dists(self.points[take].reshape(-1, q.size), q)]),
                np.concatenate([self.ids[first], self.ids[take].ravel()]))

    def leaves_within(self, leaf: int, reach: float) -> np.ndarray:
        """Every leaf that may hold a point within `reach` of a point of `leaf`.

        The box-to-box bound is shrunk like the query bound of `search`, so a
        leaf left out holds no point within `reach` of any point of `leaf`.
        `leaf` itself is always among the result.
        """
        gap = self.lo - self.hi[:, leaf, None]
        np.maximum(gap, self.lo[:, leaf, None] - self.hi, out=gap)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        bound = np.sqrt(gap.sum(axis=0))
        bound *= _BOUND_SLACK
        return np.flatnonzero(bound <= reach)


@dataclass(eq=False)
class PointCloud(ProjectorSpec):
    points: np.ndarray

    def __post_init__(self):
        self.points = _as_cloud(self.points)
        self.dim = self.points.shape[1]

    @cached_property
    def _index(self) -> _CloudIndex:
        # Built on the first query, so loading or exporting a cloud costs nothing.
        return _CloudIndex(self.points)

    def _nearest(self, q, tie_tol):
        dists, ids = self._index.search(q, tie_tol)
        dmin = float(dists.min())
        near = sorted(set(ids[dists <= dmin + tie_tol].tolist()))
        return _Hit(dmin, _dedupe([self.points[i].copy() for i in near], tie_tol))


@dataclass(eq=False)
class Union(ProjectorSpec):
    members: list

    def __post_init__(self):
        if not isinstance(self.members, (list, tuple)) or len(self.members) == 0:
            raise ValueError("union needs a nonempty member list")
        self.members = list(self.members)
        dims = {m.dim for m in self.members}
        if len(dims) != 1:
            raise ValueError(f"union members must share a dimension, got {sorted(dims)}")
        self.dim = self.members[0].dim

    def _nearest(self, q, tie_tol):
        hits = [m._nearest(q, tie_tol) for m in self.members]
        dmin = min(h.distance for h in hits)
        near = [h.candidates for h in hits if h.distance <= dmin + tie_tol]
        if None in near:  # a sphere queried at its center is among the minimizers
            return _Hit(dmin, None)
        return _Hit(dmin, _dedupe([p for cands in near for p in cands], tie_tol))

    def to_dict(self):
        return {"type": "union", "members": [m.to_dict() for m in self.members]}


#: Set type -> (class, JSON field names in constructor order).
_SPECS = {
    "sphere": (Sphere, ("center", "radius")),
    "ball": (Ball, ("center", "radius")),
    "box": (Box, ("min", "max")),
    "halfspace": (Halfspace, ("normal", "offset")),
    "segment": (Segment, ("a", "b")),
    "points": (PointCloud, ("coords",)),
    "union": (Union, ("members",)),
}
_KIND_OF = {cls: (kind, names) for kind, (cls, names) in _SPECS.items()}


def spec_from_dict(data, where: str = "spec") -> ProjectorSpec:
    """Build a ProjectorSpec from its JSON-object form; errors carry field paths."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object, got {type(data).__name__}")
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in _SPECS:
        raise ValueError(f"{where}.type: unknown set type {kind!r}")
    cls, names = _SPECS[kind]
    for name in names:
        if name not in data:
            raise ValueError(f"{where}.{name}: missing field for type {kind!r}")
    extra = set(data) - {"type", *names}
    if extra:
        raise ValueError(f"{where}: unknown fields {sorted(extra)} for type {kind!r}")
    if cls is Union:
        members = data["members"]
        if not isinstance(members, list) or not members:
            raise ValueError(f"{where}.members: expected a nonempty list")
        args = [[spec_from_dict(m, f"{where}.members[{i}]") for i, m in enumerate(members)]]
    else:
        args = [data[name] for name in names]
    try:
        return cls(*args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
