"""Halfspace-form polytopes: ingestion, validation, vertex enumeration.

A polytope arrives as a list of affine conditions l_k(x) = n_k.x + b_k >= 0.
Before anything downstream trusts it, ``validate`` certifies the standing
hypotheses of the whole artifact: the set is nonempty, bounded, genuinely
d-dimensional, and every listed halfspace actually supports a facet.  The
checks are geometric and explicit - vertices come from solving the d-by-d
systems of every facet subset, boundedness from the rank of the normals and
one recession-cone program, full dimension from a Chebyshev ball - so each
failure mode maps to its own exception and, in the CLI, its own exit code.

The intersection points of all d-subsets, the hyperplane arrangement, are
solved in one batched LU pass (again only after an orientation repair), and
every facet function is evaluated at every one of them into one value
matrix.  Vertex feasibility, deduplication, active sets and the orientation
repair all read that matrix.  Both are kept on ``incidence``, by the rank of
each d-subset, with the pass table of the apex test, for support
certification to read.  One batched Gram-Schmidt pass ranks every facet's
witnesses.

Duplicates are merged by one rule, ``_first_apart``: among the normalized
(normal, offset) rows within geom_abs, and among the feasible corners within
VERTEX_DEDUP_ABS, both in max norm, a point within the radius of an earlier
kept one is dropped.  A point that one coordinate's sorted windows show to
be near no other is kept without a pass of its own; the others run the greedy.

Scale guards: ``validate`` refuses a dimension above MAX_DIM, then, once
duplicates merge, more facet subsets of sizes 2..d+1 than SUBSET_GUARD: the
subsets set-up visits.  The count alone does not bound d (one facet has none).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Infeasible,
    Tolerances,
    _orthogonalize_many,
    interior_point,
    lu_solve_many,
    recession_direction,
)
from .linalg import rank, solve_real  # noqa: F401  (the benchmark's tracer wraps them)

__all__ = [
    "Halfspace",
    "VertexIncidence",
    "PolytopeH",
    "PolytopeError",
    "ParseError",
    "ZeroNormal",
    "Unbounded",
    "NotFullDimensional",
    "RedundantHalfspace",
    "Empty",
    "Degenerate",
    "GuardExceeded",
    "canonicalize",
    "enumerate_vertices",
    "validate",
    "contains",
    "from_vertices_2d",
    "from_json",
]

VERTEX_DEDUP_ABS = 1e-7  # merge radius for numerically identical corners
MAX_DIM = 5              # the largest dimension validate accepts
SUBSET_GUARD = 190_026   # the most facet subsets set-up may visit: n = 24 in R^5


class PolytopeError(Exception):
    """Base class for rejected polytope inputs."""


class ParseError(PolytopeError):
    """Ill-formed input, file or command line: a JSON document off the
    polytope schema, or an unreadable file or bad flag in the CLI."""


class ZeroNormal(PolytopeError):
    """A halfspace normal is the zero vector."""


class Unbounded(PolytopeError):
    """The halfspace intersection admits a recession direction."""


class NotFullDimensional(PolytopeError):
    """The set has empty interior: no ball of positive radius fits."""


class Empty(PolytopeError):
    """The halfspace intersection contains no point."""


class Degenerate(PolytopeError):
    """Vertex input does not span a 2-dimensional hull."""


class GuardExceeded(PolytopeError):
    """Input beyond the size guards, MAX_DIM and SUBSET_GUARD."""


class RedundantHalfspace(PolytopeError):
    """A listed halfspace supports no facet of the intersection."""

    def __init__(self, index: int):
        super().__init__(f"halfspace {index} supports no facet")
        self.index = index


@dataclass(frozen=True, eq=False)
class Halfspace:
    """Affine condition l(x) = normal.x + offset >= 0, normal of unit length."""

    normal: np.ndarray
    offset: float

    def value(self, x: np.ndarray) -> float | np.ndarray:
        """l(x) for a single point (d,) or a batch (m, d)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(np.dot(self.normal, x) + self.offset)
        return x @ self.normal + self.offset


@dataclass(frozen=True, eq=False)
class VertexIncidence:
    """Row v of ``active`` (V, n) holds |l_k| <= geom_abs at vertex v.

    Row t of ``corners`` (C, d), ``nonsingular``, ``values`` and ``above``
    (C, n) is the t-th d-subset in ``itertools.combinations`` order: the
    point where its hyperplanes meet and every l_k there, both NaN where the
    normals are dependent, and the pass table, nonsingular & ~(l_k <=
    pos_abs): whether that point is an apex above facet k.  The vertices are
    the feasible corners; support certification reads these rows."""

    active: np.ndarray
    corners: np.ndarray = field(repr=False)
    nonsingular: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    above: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class PolytopeH:
    """A validated bounded full-dimensional polytope in halfspace form; its
    facet functions are the read-only ``normals`` (n, d) and ``offsets``,
    and ``halfspaces[k]`` holds row k of each, its normal a view."""

    dim: int
    halfspaces: tuple[Halfspace, ...]
    vertices: np.ndarray
    incidence: VertexIncidence
    interior: np.ndarray
    radius: float
    normals: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    tol: Tolerances = field(default=DEFAULT_TOL)

    def values(self, x: np.ndarray) -> np.ndarray:
        """All l_k(x) at once; x may be a point (d,) or batch (m, d)."""
        x = np.asarray(x, dtype=float)
        return x @ self.normals.T + self.offsets


def _as_halfspace_data(raw) -> tuple[np.ndarray, float]:
    if isinstance(raw, Halfspace):
        return np.asarray(raw.normal, dtype=float), float(raw.offset)
    normal, offset = raw
    return np.asarray(normal, dtype=float), float(offset)


def canonicalize(halfspaces, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Scale every normal to unit length and collapse duplicate conditions.

    Accepts Halfspace records or (normal, offset) pairs; returns the kept
    rows as normals (n, d) and offsets (n,), or (0, 0) and (0,) for none.
    A defective input raises for its first defective row, in input order.
    Duplicates are detected after normalization: ``_first_apart`` of the
    (normal, offset) rows within geom_abs, so the first occurrence is kept;
    near-parallel but distinct facets survive.
    """
    normals: list[np.ndarray] = []
    offsets: list[float] = []
    for raw in halfspaces:
        normal, offset = _as_halfspace_data(raw)
        if normal.ndim != 1:
            raise ValueError("normals must be vectors")
        if not np.isfinite(normal).all() or not math.isfinite(offset):
            raise ValueError("halfspace entries must be finite")
        if not normal.any():
            raise ZeroNormal("halfspace normal is the zero vector")
        normals.append(normal)
        offsets.append(offset)
    if not normals:
        return np.empty((0, 0)), np.empty(0)
    normals, offsets = np.array(normals), np.array(offsets)  # ragged: ValueError
    with np.errstate(over="ignore"):
        squares = _squares(normals)
    rescale = ~((sys.float_info.min <= squares) & (squares < math.inf))
    if rescale.any():
        # the square overflows or is not a normal float: scale by the largest entry first
        peaks = np.max(np.abs(normals[rescale]), axis=1)
        normals[rescale] /= peaks[:, None]
        offsets[rescale] /= peaks
        squares[rescale] = _squares(normals[rescale])
    lengths = np.sqrt(squares)
    normals /= lengths[:, None]
    offsets /= lengths
    kept = _first_apart(np.column_stack((normals, offsets)), tol.geom_abs)
    return normals[kept], offsets[kept]


def _squares(normals: np.ndarray) -> np.ndarray:
    """Each row's n.n, as stacked (1, d) @ (d, 1) products: ``np.dot``'s route."""
    return np.matmul(normals[:, None, :], normals[:, :, None]).reshape(normals.shape[0])


def _values(points: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Every l_k at every point, (m, n), as stacked (1, d) @ (d, 1) products:
    ``np.dot``'s route, so each value is bitwise ``Halfspace.value``."""
    products = np.matmul(points[:, None, None, :], normals[None, :, :, None])
    return products.reshape(len(points), len(normals)) + offsets


def _combinations(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n), one sorted row each, in
    ``itertools.combinations`` order: row t is the subset of rank t."""
    return np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), k)),
                       dtype=np.intp, count=math.comb(n, k) * k).reshape(-1, k)


def _arrangement(normals: np.ndarray, offsets: np.ndarray, tol: Tolerances
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The point where each d-subset of the hyperplanes meets, from one
    batched solve, whether it is nonsingular, and every l_k there: row t of
    each belongs to the t-th subset in combinations order, NaN if singular."""
    index = _combinations(*normals.shape)
    corners, nonsingular = lu_solve_many(normals[index], -offsets[index], tol)
    return corners, nonsingular, _values(corners, normals, offsets)


def _first_apart(points: np.ndarray, radius: float) -> list[int]:
    """Indices of the points not within ``radius`` (max norm) of an earlier
    kept one: the first point of each cluster is kept.

    A float y >= x with fl(y - x) <= r lies in x's window [x, fl(x + 2r)],
    so only pairs within one coordinate's windows can be within r.  One sort
    per coordinate finds the windows holding a pair, and every pair of the
    coordinate with the fewest is tested at once: a point within r of no
    other is kept and removes nothing.  The greedy runs over the rest, or
    over every point past 16 pairs a point, as where many corners meet."""
    count, reach, columns = points.shape[0], 2.0 * radius, np.arange(points.shape[1])
    order = np.argsort(points, axis=0)
    ranked = points[order, columns]
    starts = np.count_nonzero(ranked[1:] <= ranked[:-1] + reach, axis=0)  # windows with a pair
    best = int(np.argmin(starts))
    if not starts[best]:  # every point is alone in that coordinate
        return list(range(count))
    column = ranked[:, best]
    width = np.searchsorted(column, column + reach, side="right") - np.arange(1, count + 1)
    near = np.ones(count, dtype=bool)
    if width.sum() <= 16 * count:
        # the pairs (k, k + 1..k + width[k]) of sorted positions, as point indices
        left = np.repeat(np.arange(count), width)
        right = np.arange(left.size) - np.repeat(np.cumsum(width) - width - 1, width) + left
        pairs = order[np.stack((left, right)), best]
        close = np.max(np.abs(points[pairs[0]] - points[pairs[1]]), axis=1) <= radius
        near = np.zeros(count, dtype=bool)
        near[pairs[:, close]] = True
    kept = ~near
    crowded = np.flatnonzero(near)
    rest = points[crowded]
    alive = np.ones(crowded.size, dtype=bool)
    while alive.any():
        first = int(np.argmax(alive))
        kept[crowded[first]] = True
        alive[first] = False
        alive[np.max(np.abs(rest - rest[first]), axis=1) <= radius] = False
    return np.flatnonzero(kept).tolist()


def enumerate_vertices(normals: np.ndarray, offsets: np.ndarray,
                       tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, VertexIncidence]:
    """Vertices of the intersection of the rows normals (n, d), offsets (n,),
    plus the halfspaces active at each, as the (V, n) matrix ``active``.

    Every d-subset of hyperplanes with independent normals contributes its
    intersection point, kept in the returned incidence's ``corners``; points
    violating any halfspace by more than geom_abs are dropped, the rest
    deduplicated within an absolute merge radius.  Feasibility and activity
    are read from the arrangement's value matrix.  The returned order follows
    subset enumeration order (deterministic); as a point set the result does
    not depend on halfspace order.
    """
    corners, nonsingular, values = _arrangement(normals, offsets, tol)
    feasible = np.flatnonzero(nonsingular & (np.min(values, axis=1) >= -tol.geom_abs))
    kept = feasible[_first_apart(corners[feasible], VERTEX_DEDUP_ABS)]
    return corners[kept], VertexIncidence(active=np.abs(values[kept]) <= tol.geom_abs,
                                          corners=corners, nonsingular=nonsingular,
                                          values=values,
                                          above=nonsingular[:, None] & ~(values <= tol.pos_abs))


def _repair_orientation(normals: np.ndarray, offsets: np.ndarray, values: np.ndarray,
                        tol: Tolerances) -> tuple[np.ndarray, np.ndarray] | None:
    """Negate the rows at most geom_abs at every nonsingular corner and
    below -geom_abs at one, or None when there are none.

    Only called when no feasible vertex exists at all.  So an input pointing
    wholly outward is repaired only when every corner of its arrangement
    lies in the polytope, as for a triangle or a square; the outward quad
    and regular hexagon keep some rows and are refused.  ``values`` is the
    arrangement's value matrix, one row per nonsingular corner."""
    wrong = ((values.max(axis=0, initial=-math.inf) <= tol.geom_abs)
             & (values.min(axis=0, initial=math.inf) < -tol.geom_abs))
    if not wrong.any():
        return None
    return np.where(wrong[:, None], -normals, normals), np.where(wrong, -offsets, offsets)


def _witnessed(vertices: np.ndarray, incidence: VertexIncidence, dim: int,
               tol: Tolerances) -> np.ndarray:
    """Which halfspaces are active on at least d vertices spanning a facet:
    the differences of a halfspace's active vertices from the first, in
    vertex order, must reach rank d - 1.  Every halfspace's differences go
    through one Gram-Schmidt call, zero-padded to the longest, which keeps
    each basis, and stopped at d - 1 vectors."""
    sizes = np.count_nonzero(incidence.active, axis=0)
    width = int(sizes.max(initial=1))
    # each halfspace's active vertices first, in vertex order
    members = np.argsort(~incidence.active, axis=0, kind="stable").T[:, :width]
    differences = vertices[members[:, 1:]] - vertices[members[:, :1]]
    differences[np.arange(1, width) >= sizes[:, None]] = 0.0
    found = np.count_nonzero(_orthogonalize_many(differences, tol, dim - 1)[1], axis=1)
    return (sizes >= dim) & (found >= dim - 1)


def validate(halfspaces, dim: int, tol: Tolerances = DEFAULT_TOL) -> PolytopeH:
    """Certify and assemble a PolytopeH, or raise the specific failure.

    Order of checks: dimension at most MAX_DIM (GuardExceeded); canonicalize;
    at most SUBSET_GUARD facet subsets of sizes 2..d+1, the most set-up visits
    (GuardExceeded); enumerate vertices (with one orientation repair attempt
    when none are feasible); Chebyshev ball (Empty when the optimal radius
    is negative); recession cone (Unbounded); positive ball radius
    (NotFullDimensional); a feasible vertex (Empty, when the orientations
    are inconsistent); facet witnesses (RedundantHalfspace).
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if dim > MAX_DIM:
        raise GuardExceeded(f"dim {dim} above guard {MAX_DIM}")
    normals, offsets = canonicalize(halfspaces, tol)
    if not offsets.size:
        raise Unbounded("no halfspaces: the whole space")
    if normals.shape[1] != dim:
        raise ValueError(f"normals must have length {dim}, not {normals.shape[1]}")
    total = sum(math.comb(offsets.size, size) for size in range(2, dim + 2))
    if total > SUBSET_GUARD:
        raise GuardExceeded(f"{total} facet subsets exceed the guard {SUBSET_GUARD}")

    vertices, incidence = enumerate_vertices(normals, offsets, tol)
    if vertices.shape[0] == 0:
        repaired = _repair_orientation(normals, offsets,
                                       incidence.values[incidence.nonsingular], tol)
        if repaired is not None:
            normals, offsets = repaired
            # solved again: a negated row with a zero offset turns +0.0 into -0.0
            vertices, incidence = enumerate_vertices(normals, offsets, tol)

    normals.flags.writeable = offsets.flags.writeable = False
    try:
        center, radius = interior_point(normals, offsets, tol)
        infeasible = None
    except Infeasible as exc:
        radius, infeasible = exc.radius, exc
    if infeasible is not None and math.isfinite(radius) and radius < -tol.pos_abs:
        raise Empty("halfspace intersection is empty") from infeasible
    if recession_direction(normals, tol) is not None:
        raise Unbounded("halfspace intersection admits a recession direction") from infeasible
    if infeasible is not None:
        raise NotFullDimensional("no interior ball of positive radius") from infeasible
    if vertices.shape[0] == 0:
        raise Empty("no feasible vertex; halfspace orientations are inconsistent")

    unwitnessed = np.flatnonzero(~_witnessed(vertices, incidence, dim, tol))
    if unwitnessed.size:
        raise RedundantHalfspace(int(unwitnessed[0]))

    return PolytopeH(dim=dim, halfspaces=tuple(map(Halfspace, normals, offsets.tolist())),
                     vertices=vertices, incidence=incidence, interior=center, radius=radius,
                     normals=normals, offsets=offsets, tol=tol)


def contains(polytope: PolytopeH, x: np.ndarray) -> bool:
    """Membership by halfspace signs: min_k l_k(x) >= -geom_abs."""
    x = np.asarray(x, dtype=float)
    if x.shape != (polytope.dim,):
        raise ValueError(f"point must have dimension {polytope.dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point coordinates must be finite")
    return bool(np.min(polytope.values(x)) >= -polytope.tol.geom_abs)


def _convex_hull_2d(points: np.ndarray, eps: float) -> list[np.ndarray]:
    """Andrew's monotone chain; strictly convex output (collinear points dropped)."""
    order = sorted(range(points.shape[0]), key=lambda i: (points[i, 0], points[i, 1]))
    unique: list[np.ndarray] = []
    for i in order:
        if not unique or np.max(np.abs(points[i] - unique[-1])) > 0.0:
            unique.append(points[i])
    if len(unique) < 3:
        return unique

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def build(seq):
        chain: list[np.ndarray] = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= eps:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(unique)
    upper = build(reversed(unique))
    return lower[:-1] + upper[:-1]


def from_vertices_2d(points, tol: Tolerances = DEFAULT_TOL) -> PolytopeH:
    """Polytope from a 2-D point cloud: hull, inward edge halfspaces, validate.

    The hull edges run counterclockwise, so the inward normal of edge p -> q
    is the left normal (-(q-p)_y, (q-p)_x).  Raises Degenerate when the cloud
    does not span a genuine polygon.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("expected an (m, 2) array of points")
    if not np.all(np.isfinite(points)):
        raise ValueError("point coordinates must be finite")
    if points.shape[0] < 3:
        raise Degenerate("need at least 3 points")
    scale = float(np.max(np.abs(points), initial=1.0))
    hull = _convex_hull_2d(points, eps=1e-9 * scale * scale)
    if len(hull) < 3:
        raise Degenerate("points are collinear")
    halfspaces = []
    for i, p in enumerate(hull):
        q = hull[(i + 1) % len(hull)]
        edge = q - p
        normal = np.array([-edge[1], edge[0]])
        halfspaces.append((normal, -float(np.dot(normal, p))))
    return validate(halfspaces, 2, tol)


def from_json(document: dict, tol: Tolerances = DEFAULT_TOL) -> PolytopeH:
    """Build and validate a polytope from the documented JSON schema.

    Either {"dim": d, "halfspaces": [{"normal": [...], "offset": b}, ...]}
    with the convention normal.x + offset >= 0, or {"dim": 2, "vertices":
    [[x, y], ...]}.  Exactly one must be present; ``validate`` guards the size.
    """
    if not isinstance(document, dict):
        raise ParseError("top-level JSON value must be an object")
    if "dim" not in document:
        raise ParseError("missing 'dim'")
    dim = document["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("'dim' must be a positive integer")
    has_h = "halfspaces" in document
    has_v = "vertices" in document
    if has_h == has_v:
        raise ParseError("exactly one of 'halfspaces' or 'vertices' must be present")

    if has_v:
        if dim != 2:
            raise ParseError("vertex input is only supported for dim 2")
        vertices = document["vertices"]
        if not isinstance(vertices, list) or not vertices:
            raise ParseError("'vertices' must be a nonempty list")
        try:
            cloud = np.array(_json_numbers(vertices), dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError("vertices must be lists of numbers") from exc
        if cloud.ndim != 2 or cloud.shape[1] != 2 or not np.all(np.isfinite(cloud)):
            raise ParseError("vertices must be finite pairs [x, y]")
        return from_vertices_2d(cloud, tol)

    entries = document["halfspaces"]
    if not isinstance(entries, list) or not entries:
        raise ParseError("'halfspaces' must be a nonempty list")
    raw = []
    for entry in entries:
        if not isinstance(entry, dict) or "normal" not in entry or "offset" not in entry:
            raise ParseError("each halfspace needs 'normal' and 'offset'")
        try:
            normal = np.array(_json_numbers(entry["normal"]), dtype=float)
            offset = float(_json_numbers(entry["offset"]))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError("halfspace entries must be numeric") from exc
        if normal.shape != (dim,) or not np.all(np.isfinite(normal)) or not math.isfinite(offset):
            raise ParseError(f"normals must be finite vectors of length {dim}")
        raw.append((normal, offset))
    return validate(raw, dim, tol)


def _json_numbers(value):
    """``value`` when it is a JSON number, an int or a float but not a bool, or
    lists of them; TypeError when it holds anything else, a string say."""
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in np.array(value, dtype=object).flat):
        raise TypeError("an entry is not a JSON number")
    return value
