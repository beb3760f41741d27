"""Exact Euclidean distances and set-valued projections onto closed sets.

Points are 1-D numpy float64 arrays.  A projector spec describes a closed
set -- sphere, closed ball, axis-aligned box, halfspace, segment, finite
point cloud, or a finite union of those -- and answers one exact query:
`project` returns the distance to the set and the full set of nearest points.

Projection is genuinely set-valued: `project` returns every minimizer whose
distance is within `tie_tol` of the optimum, and flags multivaluedness
instead of silently picking a representative.  Every query is one pass over
the set, and one type, `ProjectionResult`, carries its outcome from each
set's pass through unions and `project` to the caller.  Point clouds answer
it through a lazily built leaf index with one search, `_CloudIndex.search`,
which takes a batch of queries, each with a start leaf.  The start leaf's
minimum bounds the cloud's minimum above.  When the ball of that radius
plus `tie_tol` lies inside the leaf's k-d cell (the ball-within-bounds test
of Friedman, Bentley and Finkel, ACM TOMS 1977), that leaf alone answers;
otherwise the query's face pass measures every other leaf whose box lies
within that radius, lowered to the minimum of the leaf nearest the query
when that is smaller.  Every distance to a cloud point is the root of
`_sq_dists`, the one sum of squared coordinate differences, so either way
the index returns exactly what a full scan would.  A projection is a batch
of one, started from the leaf of the cloud's previous nearest point.  For
the MAP driver's speculative batches, `_confirm` checks many predicted
answers at once, each row started from its predicted point's leaf; a
union's other members give their distances for the whole batch.  The batch
counts its rows up to the first it cannot settle, a tie, a misprediction or
a member within `tie_tol`, and the driver projects that row alone.  The
fatal cases are projecting the center of a sphere, where the minimizer set
is the whole sphere, which raises `DegenerateProjection`, and a distance
that overflows float64, which raises ValueError.

Every query is a pure function of its inputs.  A point cloud memoises two
things, its index (built on the first query, with the leaf of each point
added on the first batch) and its last nearest point; neither changes any
result, and the set itself is immutable after construction.
"""

from __future__ import annotations

import itertools
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

#: Most leaf bounds one `bounds` call of `_CloudIndex.search` computes: its
#: face rows are bounded this many leaves' worth at a time, so the pass's
#: memory does not grow with the batch.
_BOUNDS_PER_PASS = 1 << 18

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
    if type(value) is not float:  # an exact float skips the slower ABC test
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


_EXPECTED = "{} must be a nonempty {}-D list of numbers, got {}"
_BOOL_TYPES = frozenset({bool, np.bool_})


def _coords(values, ndim: int, what: str) -> np.ndarray:
    """`values` as a new finite float64 array of `ndim` nonempty axes.

    The array is built once and only integer or float element types pass,
    so strings, bools, None, objects and ragged nestings are all rejected.
    numpy promotes a bool mixed with numbers to 0 or 1, so list input is
    also scanned for bool elements; numpy arrays skip that scan, and a
    float64 array, what the package builds its own sets and iterates from,
    skips the element type test too.
    """
    if type(values) is np.ndarray and values.dtype == np.float64:
        arr = values
    else:
        try:
            arr = np.asarray(values)
        except ValueError:  # ragged nesting
            raise ValueError(_EXPECTED.format(what, ndim, "a ragged list")) from None
        if arr.dtype.kind not in "iuf":
            got = {"b": "bool", "U": "string"}.get(arr.dtype.kind, "non-numeric")
            raise ValueError(_EXPECTED.format(what, ndim, f"{got} values"))
    if arr.ndim != ndim or 0 in arr.shape:
        raise ValueError(_EXPECTED.format(what, ndim, f"shape {arr.shape}"))
    if not isinstance(values, np.ndarray):
        flat = values if ndim == 1 else itertools.chain.from_iterable(values)
        if not _BOOL_TYPES.isdisjoint(map(type, flat)):
            raise ValueError(_EXPECTED.format(what, ndim, "bool values"))
    arr = arr.astype(np.float64)
    # counting takes about a third of the time of `.all()` on short vectors
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError(f"{what} coordinates must be finite")
    return arr


def as_point(coords) -> np.ndarray:
    """Validate and copy coordinates into a finite 1-D float64 vector."""
    return _coords(coords, 1, "point")


def _as_cloud(points) -> np.ndarray:
    return _coords(points, 2, "point cloud")


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """The products of two 1-D vectors added in axis order, without BLAS."""
    acc = 0.0
    for x, y in zip(u.tolist(), v.tolist()):
        acc += x * y
    return acc


def _norm(v: np.ndarray) -> float:
    # `_sq_dists`'s in-order sum: `_norm(p - q)` is `_dists(p[None], q)[0]`, bit for bit
    return math.sqrt(_dot(v, v))


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


class ProjectionResult(NamedTuple):
    """All nearest points of a set to a query, the outcome of one pass.

    `candidates` holds every minimizer within `tie_tol` of the optimal
    `distance`.  It is None only when the minimizer set is a continuum (a
    sphere queried at its center); `project` raises `DegenerateProjection`
    then, so every result it returns has a candidate list.
    """

    distance: float
    candidates: Optional[list]

    @property
    def multivalued(self) -> bool:
        """Whether the set has more than one nearest point to the query."""
        return len(self.candidates) > 1


class ProjectorSpec:
    """A closed subset of Euclidean space supporting exact projection queries."""

    dim: int

    def _check_query(self, q) -> np.ndarray:
        p = as_point(q)
        if p.size != self.dim:
            raise DimensionMismatch(f"query has dim {p.size}, set has dim {self.dim}")
        return p

    def project(self, q, tie_tol: float = DEFAULT_TIE_TOL, *,
                validate: bool = True) -> ProjectionResult:
        """All nearest points of the set to `q`, gathered within `tie_tol`.

        `validate=False` skips the checks on `q` and `tie_tol`: the caller
        guarantees a finite float64 point of the set's dimension and a finite
        positive tolerance, as the MAP driver does for its own iterates.

        Raises ValueError when the distance overflows float64: the true
        distance between finite points is finite, but the sum of squares
        behind it can round to inf, and every point would then tie.
        """
        if validate:
            tie_tol = float(tie_tol)
            if not (0.0 < tie_tol < math.inf):
                raise ValueError(f"tie_tol must be finite and positive, got {tie_tol!r}")
            q = self._check_query(q)
        result = self._nearest(q, tie_tol)
        if not math.isfinite(result.distance):
            raise ValueError("the distance to the set overflows float64")
        if result.candidates is None:
            raise DegenerateProjection(
                "projection of the sphere center: the minimizer set is the whole sphere"
            )
        return result

    def _nearest(self, q: np.ndarray, tie_tol: float) -> ProjectionResult:
        raise NotImplementedError

    def _distances(self, queries: np.ndarray, tie_tol: float) -> np.ndarray:
        """`_nearest(q, tie_tol).distance` of each row q of `queries`; a set
        that computes them vectorised overrides it with the same bits."""
        return np.array([self._nearest(q, tie_tol).distance for q in queries])

    def to_dict(self) -> dict:
        """The JSON-object form that `spec_from_dict` reads back.  Array
        fields stay the set's own float64 arrays, which
        `serialize.render_json` renders as their lists and `json.dumps`
        does not take."""
        kind, names = _KIND_OF[type(self)]
        return {"type": kind, **{name: getattr(self, f.name)
                                 for name, f in zip(names, fields(self))}}


@dataclass(eq=False)
class _Round(ProjectorSpec):
    """A set given by a center and a positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = as_point(self.center)
        self.radius = _finite("radius", self.radius)
        if not (self.radius > 0.0):
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        self.dim = self.center.size

    def _distances(self, queries, tie_tol):
        # `_dists(q[None], center)[0]` is `_norm(q - center)` bit for bit,
        # and `_gap` is one expression for a float and an array
        return self._gap(_dists(queries, self.center))


class Sphere(_Round):
    def _gap(self, d):
        return abs(d - self.radius)

    def _nearest(self, q, tie_tol):
        diff = q - self.center
        d = _norm(diff)
        dist = self._gap(d)
        if d <= _CENTER_TOL:
            return ProjectionResult(dist, None)
        return ProjectionResult(dist, [_radial_point(self.center, self.radius, diff, d)])


class Ball(_Round):
    def _gap(self, d):
        # max(d - radius, 0.0) for a float and an array alike, bit for bit:
        # x + |x| is +0.0 when x <= 0, else 2x, exact since a finite d is
        # below 2^512
        x = d - self.radius
        return 0.5 * (x + abs(x))

    def _nearest(self, q, tie_tol):
        diff = q - self.center
        d = _norm(diff)
        dist = self._gap(d)
        if dist == 0.0:  # q is in the ball: d - radius > 0 whenever d > radius
            return ProjectionResult(0.0, [q.copy()])
        return ProjectionResult(dist, [_radial_point(self.center, self.radius, diff, d)])


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
        # what np.clip computes, bit for bit, without its Python wrapper
        cand = np.minimum(np.maximum(q, self.lo), self.hi)
        return ProjectionResult(_norm(q - cand), [cand])


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
        s = _dot(self.normal, q) - self.offset
        if s <= 0.0:
            return ProjectionResult(0.0, [q.copy()])
        return ProjectionResult(s, [q - s * self.normal])


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
        den = _dot(ab, ab)
        if den == 0.0:
            return self.a.copy()
        t = _dot(q - self.a, ab) / den
        t = min(1.0, max(0.0, t))
        return self.a + t * ab

    def _nearest(self, q, tie_tol):
        cand = self._closest(q)
        return ProjectionResult(_norm(q - cand), [cand])


def _sq_dists(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from `q` to each point of `points`; coordinates lie
    along the last axis, and the two arrays broadcast.

    The squares are added in axis order, so adding one never lowers a sum.
    Below eight axes that is `((points - q) ** 2).sum(axis=-1)`, bit for
    bit: numpy adds fewer than eight terms in order.
    """
    diff = points[..., 0] - q[..., 0]
    acc = diff * diff
    for axis in range(1, points.shape[-1]):
        diff = points[..., axis] - q[..., axis]
        diff *= diff
        acc += diff
    return acc


def _dists(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distances from `q` to each point of `points`, the brute-force expression."""
    return np.sqrt(_sq_dists(points, q))


def _median_order(points: np.ndarray, ids: np.ndarray, leaves: int, width: int,
                  cell_lo: np.ndarray, cell_hi: np.ndarray) -> np.ndarray:
    """`ids` reordered so that consecutive runs of `width` form the leaves.

    Each split sorts along the widest coordinate and cuts at the leaf
    boundary nearest the median, so every leaf but the last is full.  It
    also sets the faces of the leaves' k-d cells in `cell_lo`/`cell_hi`,
    whose `(leaves, d)` rows belong to these leaves: on the split axis, the
    left half's upper face is the right half's smallest coordinate and the
    right half's lower face is the left half's largest.  A deeper split on
    the same axis only tightens a face, so every point outside a leaf lies
    on or beyond one of its cell's faces.  An axis that no split cuts keeps
    the faces it was given.
    """
    if leaves == 1:
        return ids
    sub = points[ids]
    axis = int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))
    order = np.argsort(sub[:, axis], kind="stable")
    ids = ids[order]
    left = leaves // 2
    cut = left * width
    cell_hi[:left, axis] = sub[order[cut], axis]
    cell_lo[left:, axis] = sub[order[cut - 1], axis]
    return np.concatenate([
        _median_order(points, ids[:cut], left, width, cell_lo[:left], cell_hi[:left]),
        _median_order(points, ids[cut:], leaves - left, width, cell_lo[left:], cell_hi[left:]),
    ])


class _CloudIndex:
    """A static k-d style index of a point cloud (Bentley, CACM 1975).

    Points are split at the median into leaf buckets of `LEAF_SIZE`, stored
    permuted and contiguous as `(L, width, d)`, with per-leaf bounding boxes
    `lo`/`hi`, kept transposed, `(d, L)`: `bounds`, the one bound pass of
    both exact searches (`search` and `sequence.verify_nearest`), then
    works on contiguous rows, about twice as fast as on `(L, d)`.
    The last bucket is topped up with repeats of its final point, which
    change no minimum, and whose repeated index is dropped from the
    candidates.  A cloud of at most one leaf is a single bucket in its
    original order.

    Each leaf also has its k-d cell, the region the splits above it assign
    to it, as `(L, d)` faces `cell_lo`/`cell_hi` (+-inf on an axis no split
    cuts, so a single leaf's cell is the whole space).  Every point of the
    cloud outside a leaf lies on or beyond one of its cell's faces.  The
    index remembers its last query's nearest point by its slot in the leaf
    layout, `_slot`, an index into `ids.ravel()`.  MAP queries move little
    from one to the next, so the ball around a query that must hold its
    nearest points usually lies inside that slot's cell.
    """

    def __init__(self, points: np.ndarray):
        n, d = points.shape
        width = min(n, LEAF_SIZE)
        leaves = -(-n // width)
        self.cell_lo = np.full((leaves, d), -np.inf)
        self.cell_hi = np.full((leaves, d), np.inf)
        order = _median_order(points, np.arange(n), leaves, width, self.cell_lo, self.cell_hi)
        ids = np.concatenate([order, np.repeat(order[-1], leaves * width - n)])
        self.ids = ids.reshape(leaves, width)
        self.points = points[ids].reshape(leaves, width, -1)
        self.lo = np.ascontiguousarray(self.points.min(axis=1).T)
        self.hi = np.ascontiguousarray(self.points.max(axis=1).T)
        self._slot = 0  # slot of the last nearest point; any slot will do

    @cached_property
    def leaf_of(self) -> np.ndarray:
        """Each original index's leaf, built on the first batch `_confirm`
        checks."""
        leaf_of = np.empty(self.ids.size, dtype=np.int32)  # the top-up slots go unused
        leaf_of[self.ids] = np.arange(len(self.ids), dtype=np.int32)[:, None]
        return leaf_of

    def search(self, queries: np.ndarray, leaves: np.ndarray, tie_tol: float):
        """Each row of `queries` measured on its start leaf `leaves[j]`, and
        on every other leaf that may hold a point within `tie_tol` of the
        row's minimum.

        Returns `(dmin, slot, lone, blocks)`.  One `_dists` call on the
        gathered `(k, width, d)` block measures every row's start leaf,
        whose minimum `dmin[j]` lies at slot `slot[j]`, an index into
        `ids.ravel()`; it bounds the cloud's minimum above.  Every nearest
        point then lies within the row's limit `dmin[j] + tie_tol`.  When
        the ball of that radius lies inside the start leaf's cell, that leaf
        holds every nearest point.  The test is exact in floating point:
        rounding is monotone, so a point on or beyond a face has a computed
        difference on that axis of at least the computed face gap g, a
        computed square of at least g * g as computed, and a computed
        distance of at least `sqrt(g * g)` as computed.  The smallest gap is
        therefore taken through that square and root and must exceed the
        limit.  (For normal squares the root returns g itself; where g * g
        is subnormal it may fall below g by far more than a few ulps.)  A
        query outside the cell has a negative gap, and the same argument
        bounds `dmin[j]` below by its root, since the leaf's points lie in
        the cell, so the test fails as it must.

        The rows that fail the cell test, those near their cell's faces,
        take one face pass, at most `_BOUNDS_PER_PASS` leaf bounds at a
        time: `bounds` bounds every other leaf against each row.  The leaf
        with the smallest bound usually holds a far nearer point than the
        start leaf when the query has jumped, so its minimum plus `tie_tol`,
        when smaller, lowers the row's limit to its reach.  Either minimum
        is the distance of a point of the cloud, so the reach still bounds
        the cloud's minimum and all of its ties, and one `_dists` call
        measures every other leaf whose bound does not exceed it.

        `blocks` lists the measured `(rows, leaf, dists)`: `dists[i]` holds
        the distances from row `rows[i]` to the points of leaf `leaf[i]`,
        the start leaves first, then one block per face pass.  Every point
        within `tie_tol` of a row's minimum is in its blocks.  `lone[j]`
        says that the point at `slot[j]` is the only one within the row's
        limit, every other slot of the start leaf within it a top-up repeat
        of that point: the cloud then has it as the one nearest point, at
        distance `dmin[j]`, bit for bit a full scan's.  A reach below the
        limit leaves some leaves within the limit unmeasured, but then the
        nearest leaf holds a point nearer than `dmin[j]`, so the row is
        not lone either way.
        """
        k = len(queries)
        width = self.ids.shape[1]
        dists = _dists(self.points.take(leaves, axis=0), queries[:, None])
        best = dists.argmin(axis=1)
        dmin = dists[np.arange(k), best]
        limit = dmin + tie_tol
        slot = leaves * width + best
        lone = ((dists > limit[:, None])
                | (self.ids[leaves] == self.ids.flat[slot][:, None])).all(axis=1)
        gap = np.minimum(queries - self.cell_lo.take(leaves, axis=0),
                         self.cell_hi.take(leaves, axis=0) - queries).min(axis=1)
        face = np.flatnonzero(np.sqrt(gap * gap) <= limit)
        blocks = [(np.arange(k), leaves, dists)]
        step = max(1, _BOUNDS_PER_PASS // self.lo.shape[1])
        for start in range(0, face.size, step):
            part = face[start:start + step]
            at = queries[part]
            bound = self.bounds(at, at)
            bound[np.arange(part.size), leaves[part]] = np.inf
            near = self.points.take(bound.argmin(axis=1), axis=0)
            reach = np.minimum(limit[part], _dists(near, at[:, None]).min(axis=1) + tie_tol)
            row, other = np.nonzero(bound <= reach[:, None])
            row = part[row]
            dists = _dists(self.points.take(other, axis=0), queries[row, None])
            lone[row[(dists <= limit[row, None]).any(axis=1)]] = False
            blocks.append((row, other, dists))
        return dmin, slot, lone, blocks

    def bounds(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """A lower bound on the distance from the box [lo, hi] to each leaf.

        The one leaf bound of the index; a query point q is the box [q, q].
        `lo` and `hi` are `(..., d)`, and the bounds `(..., L)`: boxes along
        leading axes are bounded in one pass.  The bound is shrunk by
        `_BOUND_SLACK`, so a leaf whose bound exceeds r holds no point
        within r of any point of [lo, hi].
        """
        gap = self.lo - hi[..., None]
        np.maximum(gap, lo[..., None] - self.hi, out=gap)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        bound = np.sqrt(gap.sum(axis=-2))
        bound *= _BOUND_SLACK
        return bound


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
        index = self._index
        width = index.ids.shape[1]
        blocks = index.search(q[None], np.array([index._slot // width]), tie_tol)[3]
        _, leaf, dists = map(np.concatenate, zip(*blocks))
        best = int(dists.argmin())
        dmin = float(dists.flat[best])
        index._slot = int(leaf[best // width]) * width + best % width
        near = sorted(set(index.ids[leaf][dists <= dmin + tie_tol].tolist()))
        return ProjectionResult(dmin, _dedupe([self.points[i].copy() for i in near], tie_tol))

    def _last_index(self, p: np.ndarray) -> int:
        """The index of `p` in the cloud when `p` is, bit for bit, the
        last query's nearest point, else -1."""
        index = self._index
        i = int(index.ids.flat[index._slot])
        return i if self.points[i].tobytes() == p.tobytes() else -1


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
        results = [m._nearest(q, tie_tol) for m in self.members]
        dmin = min(r.distance for r in results)
        near = [r for r in results if r.distance <= dmin + tie_tol]
        if len(near) == 1:  # a member's own candidates are already deduplicated
            return near[0]
        near = [r.candidates for r in near]
        if None in near:  # a sphere queried at its center is among the minimizers
            return ProjectionResult(dmin, None)
        return ProjectionResult(dmin, _dedupe([p for cands in near for p in cands], tie_tol))

    def to_dict(self):
        return {"type": "union", "members": [m.to_dict() for m in self.members]}


def _confirm(spec: ProjectorSpec, cloud: PointCloud, queries: np.ndarray,
             expect: np.ndarray, tie_tol: float) -> int:
    """How many leading rows of `queries` have as their projection onto
    `spec` the one point `cloud.points[expect[j]]`, bit for bit.

    `spec` is `cloud` or a union with `cloud` as a member.  The cloud's
    `search` starts each row from its expected point's leaf, and the row
    counts when that leaf's nearest point is the expected one and `lone`, a
    row near its cell's faces included; in a union, every other member's
    distance must also exceed the cloud's minimum plus `tie_tol`, so that
    the union answers with the cloud's one point.  Each member gives its
    distances for the whole batch
    from `_distances`, bit for bit its `_nearest(q, tie_tol).distance` row
    by row.  So a counted row is exactly what `project` returns:
    single-valued, and the expected point.  The count stops at the first
    row that is not counted, a tie, a misprediction or a row with another
    member within `tie_tol`; the caller projects that row one query at a
    time.  The cloud remembers the slot of the last counted row.
    """
    index = cloud._index
    dmin, slot, hit, _ = index.search(queries, index.leaf_of[expect], tie_tol)
    hit &= index.ids.flat[slot] == expect
    if spec is not cloud:
        limit = dmin + tie_tol
        for m in spec.members:
            if m is not cloud:
                hit &= m._distances(queries, tie_tol) > limit
    count = len(queries) if hit.all() else int(hit.argmin())
    if count:
        index._slot = int(slot[count - 1])
    return count


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
