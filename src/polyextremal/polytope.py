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
repair all read that matrix.  Both are kept on ``incidence``; support
certification reads simplex apexes from there, and screens their heights in
the matrix.  One batched Gram-Schmidt pass ranks every facet's witnesses.

Scale guards: vertex enumeration visits C(N, d) subsets, acceptable at desk
scale only.  ``validate`` refuses inputs beyond ``max_facets``/``max_dim``
unless the caller raises those limits explicitly.
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
    """Input size beyond the combinatorial guards; raise the limits to proceed."""


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

    def flipped(self) -> "Halfspace":
        return Halfspace(normal=-self.normal, offset=-self.offset)


@dataclass(frozen=True)
class VertexIncidence:
    """For each vertex, the sorted indices of the halfspaces active there.

    ``arrangement`` maps each sorted d-tuple of halfspace indices with
    independent normals to the point where those hyperplanes meet, and
    ``values[t, k]`` is l_k at its t-th point.  The vertices are its feasible
    corners; support certification reads simplex apexes from the first and
    screens their heights in the second."""

    active: tuple[tuple[int, ...], ...]
    arrangement: dict[tuple[int, ...], np.ndarray] = field(compare=False, repr=False)
    values: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class PolytopeH:
    """A validated bounded full-dimensional polytope in halfspace form; its
    facet functions are stacked in read-only ``normals`` (n, d) and ``offsets``."""

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


def canonicalize(halfspaces, tol: Tolerances = DEFAULT_TOL) -> list[Halfspace]:
    """Scale every normal to unit length and collapse duplicate conditions.

    Accepts Halfspace records or (normal, offset) pairs.  Duplicates are
    detected after normalization (same direction and offset within geom_abs),
    each candidate compared with every kept condition at once, keeping the
    first occurrence; near-parallel but distinct facets survive.
    """
    out: list[Halfspace] = []
    for raw in halfspaces:
        normal, offset = _as_halfspace_data(raw)
        if normal.ndim != 1:
            raise ValueError("normals must be vectors")
        if not np.all(np.isfinite(normal)) or not math.isfinite(offset):
            raise ValueError("halfspace entries must be finite")
        if not np.any(normal):
            raise ZeroNormal("halfspace normal is the zero vector")
        with np.errstate(over="ignore"):
            square = float(np.dot(normal, normal))
        if not sys.float_info.min <= square < math.inf:
            # the square overflows or is not a normal float: scale by the largest entry first
            peak = float(np.max(np.abs(normal)))
            normal, offset = normal / peak, offset / peak
            square = float(np.dot(normal, normal))
        length = float(np.sqrt(square))
        candidate = Halfspace(normal=normal / length, offset=offset / length)
        if not out:
            normals, offsets = np.empty((0, normal.size)), np.empty(0)  # those of ``out``, stacked
        elif np.any((np.max(np.abs(candidate.normal - normals), axis=1) <= tol.geom_abs)
                    & (np.abs(candidate.offset - offsets) <= tol.geom_abs)):
            continue
        out.append(candidate)
        normals, offsets = np.vstack([normals, candidate.normal]), np.append(offsets, candidate.offset)
    return out


def _arrangement(halfspaces: list[Halfspace], dim: int, tol: Tolerances
                 ) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """The nonsingular d-subsets of the hyperplanes in combinations order, the
    point where each meets, from one batched solve, and every l_k there: row
    t of both arrays belongs to the t-th subset.

    A stacked (1, d) @ (d, 1) product takes ``np.dot``'s route, so each value
    is bitwise ``Halfspace.value`` at that point."""
    subsets = list(itertools.combinations(range(len(halfspaces)), dim))
    normals = np.vstack([h.normal for h in halfspaces])
    offsets = np.array([h.offset for h in halfspaces])
    index = np.array(subsets, dtype=np.intp).reshape(len(subsets), dim)
    points, nonsingular = lu_solve_many(normals[index], -offsets[index], tol)
    points = points[nonsingular]
    values = np.matmul(points[:, None, None, :], normals[None, :, :, None]).reshape(
        len(points), len(halfspaces))
    values += offsets
    return list(itertools.compress(subsets, nonsingular.tolist())), points, values


def _first_apart(points: np.ndarray) -> list[int]:
    """Indices of the points not within VERTEX_DEDUP_ABS (max norm) of an
    earlier kept one: the first point of each cluster is kept."""
    kept: list[int] = []
    alive = np.ones(points.shape[0], dtype=bool)
    while alive.any():
        first = int(np.argmax(alive))
        kept.append(first)
        alive[first] = False
        alive[np.max(np.abs(points - points[first]), axis=1) <= VERTEX_DEDUP_ABS] = False
    return kept


def enumerate_vertices(halfspaces: list[Halfspace], dim: int,
                       tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, VertexIncidence]:
    """Vertices of the intersection plus the active halfspaces at each.

    Every d-subset of hyperplanes with independent normals contributes its
    intersection point, kept in the returned ``arrangement``; points violating
    any halfspace by more than geom_abs are dropped, the rest deduplicated
    within an absolute merge radius.  Feasibility and activity are read from
    the arrangement's value matrix.  The returned order follows subset
    enumeration order (deterministic); as a point set the result does not
    depend on halfspace order.
    """
    subsets, points, values = _arrangement(halfspaces, dim, tol)
    feasible = np.flatnonzero(np.min(values, axis=1) >= -tol.geom_abs)
    kept = feasible[_first_apart(points[feasible])]
    on = np.abs(values[kept]) <= tol.geom_abs
    active = tuple(tuple(itertools.compress(range(len(halfspaces)), row)) for row in on.tolist())
    return points[kept], VertexIncidence(active=active, arrangement=dict(zip(subsets, points)),
                                         values=values)


def _repair_orientation(halfspaces: list[Halfspace], values: np.ndarray,
                        tol: Tolerances) -> list[Halfspace] | None:
    """Flip halfspaces that are nonpositive at every hyperplane-arrangement point.

    Only called when no feasible vertex exists at all.  A halfspace evaluating
    <= 0 at every candidate corner is certainly mis-oriented (the intersection,
    if any, lives among those corners); mixed strict signs mean flipping could
    not be justified, so the caller reports the inconsistency instead.
    ``values`` is the arrangement's value matrix, one row per corner.
    """
    if values.shape[0] == 0:
        return None
    wrong = (values.max(axis=0) <= tol.geom_abs) & (values.min(axis=0) < -tol.geom_abs)
    if not wrong.any():
        return None
    return [h.flipped() if flip else h for h, flip in zip(halfspaces, wrong.tolist())]


def _witnessed(vertices: np.ndarray, incidence: VertexIncidence, count: int,
               dim: int, tol: Tolerances) -> np.ndarray:
    """Which of the ``count`` halfspaces are active on at least d vertices
    spanning a facet: the differences of a halfspace's active vertices from
    the first, in vertex order, must reach rank d - 1.  Every halfspace's
    differences go through one Gram-Schmidt call, zero-padded to the
    longest, which keeps each basis, and stopped at d - 1 vectors."""
    on = np.zeros((len(vertices), count), dtype=bool)
    for v, active in enumerate(incidence.active):
        on[v, list(active)] = True
    sizes = np.count_nonzero(on, axis=0)
    width = int(sizes.max(initial=1))
    # each halfspace's active vertices first, in vertex order
    members = np.argsort(~on, axis=0, kind="stable").T[:, :width]
    differences = vertices[members[:, 1:]] - vertices[members[:, :1]]
    differences[np.arange(1, width) >= sizes[:, None]] = 0.0
    found = np.count_nonzero(_orthogonalize_many(differences, tol, dim - 1)[1], axis=1)
    return (sizes >= dim) & (found >= dim - 1)


def validate(halfspaces, dim: int, tol: Tolerances = DEFAULT_TOL, *,
             max_facets: int = 24, max_dim: int = 5) -> PolytopeH:
    """Certify and assemble a PolytopeH, or raise the specific failure.

    Order of checks: canonicalize; enumerate vertices (with one orientation
    repair attempt when none are feasible); Chebyshev ball (Empty when the
    optimal radius is negative); recession cone (Unbounded); positive ball
    radius (NotFullDimensional); a feasible vertex (Empty, when the
    orientations are inconsistent); facet witnesses (RedundantHalfspace).
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if dim > max_dim:
        raise GuardExceeded(f"dim {dim} above guard {max_dim}")
    canonical = canonicalize(halfspaces, tol)
    if not canonical:
        raise Unbounded("no halfspaces: the whole space")
    if len(canonical) > max_facets:
        raise GuardExceeded(f"{len(canonical)} halfspaces above guard {max_facets}")

    vertices, incidence = enumerate_vertices(canonical, dim, tol)
    if vertices.shape[0] == 0:
        repaired = _repair_orientation(canonical, incidence.values, tol)
        if repaired is not None:
            canonical = repaired
            # solved again: a negated row with a zero offset turns +0.0 into -0.0
            vertices, incidence = enumerate_vertices(canonical, dim, tol)

    normals = np.vstack([h.normal for h in canonical])
    offsets = np.array([h.offset for h in canonical])
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

    unwitnessed = np.flatnonzero(~_witnessed(vertices, incidence, len(canonical), dim, tol))
    if unwitnessed.size:
        raise RedundantHalfspace(int(unwitnessed[0]))

    return PolytopeH(dim=dim, halfspaces=tuple(canonical), vertices=vertices,
                     incidence=incidence, interior=center, radius=radius,
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


def from_json(document: dict, tol: Tolerances = DEFAULT_TOL, *,
              max_facets: int = 24, max_dim: int = 5) -> PolytopeH:
    """Build and validate a polytope from the documented JSON schema.

    Either {"dim": d, "halfspaces": [{"normal": [...], "offset": b}, ...]}
    with the convention normal.x + offset >= 0, or {"dim": 2, "vertices":
    [[x, y], ...]}.  Exactly one of halfspaces/vertices must be present.
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
            cloud = np.array(vertices, dtype=float)
        except (TypeError, ValueError) as exc:
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
            normal = np.array(entry["normal"], dtype=float)
            offset = float(entry["offset"])
        except (TypeError, ValueError) as exc:
            raise ParseError("halfspace entries must be numeric") from exc
        if normal.shape != (dim,) or not np.all(np.isfinite(normal)) or not math.isfinite(offset):
            raise ParseError(f"normals must be finite vectors of length {dim}")
        raw.append((normal, offset))
    return validate(raw, dim, tol, max_facets=max_facets, max_dim=max_dim)
