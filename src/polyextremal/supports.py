"""Supporting simplices and strips of a validated polytope.

A subset of K's facet hyperplanes defines a supporting simplex when dropping
any one of the d+1 hyperplanes leaves a unique intersection point (the apex
opposite it) and each apex lies strictly on the positive side of its own
hyperplane.  Because every hyperplane in play already supports K, acceptance
automatically gives K inside the simplex.  The apexes are corners of the
hyperplane arrangement ``validate`` solved while enumerating vertices; they
are read from ``polytope.incidence.arrangement``, not solved again.  Subsets
of j+1 < d+1 hyperplanes whose normals span only j dimensions (with every j
of them independent) are tested the same way inside that span: project onto
an orthonormal basis Q of the normals, solve the projected arrangement,
certify it as a j-dimensional simplex, and the original set is that simplex
crossed with the orthogonal directions - a strip.  The slab between two
antiparallel facets is the j = 1 case and takes the same path; its
cross-section "simplex" is an interval.

Enumeration is exhaustive over facet subsets of sizes 2..d+1.  That is
affordable at desk scale and certifies completeness directly instead of
re-deriving the constructive existence argument; a guard refuses inputs whose
subset count explodes.  Certification of one subset never looks at another,
so results merge deterministically: the support list is sorted by facet index
set and deduplication is inherent (each subset is visited once).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import Tolerances, orthonormal_basis, rank
from .linalg import solve_real  # noqa: F401  (unused; the benchmark's tracer wraps it)
from .polytope import GuardExceeded, Halfspace, PolytopeH, _arrangement

__all__ = [
    "SimplexSupport",
    "StripSupport",
    "SupportSet",
    "NoCover",
    "try_simplex",
    "try_strip",
    "enumerate_supports",
    "check_minimality",
    "support_records",
]

SUBSET_GUARD = 2_000_000  # total facet subsets enumerate_supports will visit


class NoCover(Exception):
    """Some facet of K belongs to no accepted support: bad input or numerics."""

    def __init__(self, facet: int):
        super().__init__(f"facet {facet} is covered by no support")
        self.facet = facet


@dataclass(frozen=True, eq=False)
class SimplexSupport:
    """A full-dimensional simplex containing K, one apex opposite each facet.

    ``apexes[j]`` solves l_k = 0 for all k != j and satisfies l_j > 0; the
    rows of ``apexes`` live in R^dim.  For cross-sections of strips, ``dim``
    is the cross dimension and ``facet_indices`` still name K's facets.

    ``rows`` (dim+1, dim) and ``shifts`` (dim+1,) are the facet functions
    scaled by their apex heights, n_k / l_k(p_k) and b_k / l_k(p_k): the
    barycentric coordinates are lambda_k(z) = rows[k] . z + shifts[k].
    """

    facet_indices: tuple[int, ...]
    apexes: np.ndarray
    halfspaces: tuple[Halfspace, ...]
    dim: int
    rows: np.ndarray
    shifts: np.ndarray

    @property
    def kind(self) -> str:
        return "simplex"


@dataclass(frozen=True, eq=False)
class StripSupport:
    """Cross-section simplex in the span of the normals, free in the rest.

    ``basis`` holds orthonormal rows Q spanning the j-dimensional normal span;
    ``cross_simplex`` certifies the projected halfspaces l(x') = (Q n).x' + b
    as a simplex in R^j.  ``rows`` = cross_simplex.rows @ Q and ``shifts`` =
    cross_simplex.shifts give its coordinates at Qz straight from z in R^d:
    lambda_k(z) = rows[k] . z + shifts[k], as for a simplex.
    """

    facet_indices: tuple[int, ...]
    cross_dim: int
    basis: np.ndarray
    cross_simplex: SimplexSupport
    rows: np.ndarray
    shifts: np.ndarray

    @property
    def kind(self) -> str:
        return "strip"


@dataclass(frozen=True, eq=False)
class SupportSet:
    """All certified supports of one polytope, sorted by facet index set."""

    polytope: PolytopeH
    supports: tuple[SimplexSupport | StripSupport, ...]

    def __len__(self) -> int:
        return len(self.supports)

    def __iter__(self):
        return iter(self.supports)

    def __getitem__(self, i: int):
        return self.supports[i]


def _certify_simplex(halfspaces: list[Halfspace], dim: int,
                     facet_indices: tuple[int, ...], arrangement: dict,
                     tol: Tolerances) -> SimplexSupport | None:
    """Read the apexes of a (dim+1)-hyperplane system and test strict positivity.

    ``arrangement`` maps the sorted dim-subsets of ``facet_indices`` to their
    intersection points.  Returns None when some dim-subset is missing there
    (dependent normals, no unique apex) or some apex fails l_j(p_j) > pos_abs.
    """
    count = len(halfspaces)
    if count != dim + 1:
        raise ValueError("simplex certification needs dim+1 halfspaces")
    apexes = np.empty((count, dim))
    heights = np.empty(count)
    for j in range(count):
        apex = arrangement.get(facet_indices[:j] + facet_indices[j + 1:])
        if apex is None:
            return None
        apexes[j] = apex
        heights[j] = halfspaces[j].value(apexes[j])
        if heights[j] <= tol.pos_abs:
            return None
    rows = np.vstack([h.normal for h in halfspaces]) / heights[:, None]
    shifts = np.array([h.offset for h in halfspaces]) / heights
    return SimplexSupport(facet_indices=facet_indices, apexes=apexes,
                          halfspaces=tuple(halfspaces), dim=dim,
                          rows=rows, shifts=shifts)


def try_simplex(polytope: PolytopeH, subset) -> SimplexSupport | None:
    """Certify d+1 facet indices of K as a supporting simplex, or None."""
    subset = tuple(sorted(subset))
    if len(subset) != polytope.dim + 1:
        raise ValueError(f"need exactly {polytope.dim + 1} facet indices")
    halfspaces = [polytope.halfspaces[k] for k in subset]
    return _certify_simplex(halfspaces, polytope.dim, subset,
                            polytope.incidence.arrangement, polytope.tol)


def try_strip(polytope: PolytopeH, subset) -> StripSupport | None:
    """Certify j+1 facet indices (j < d) as a supporting strip, or None.

    Requires the normals to span exactly j dimensions with every j-subset
    independent; the projected system must then pass the simplex test in R^j.
    """
    subset = tuple(sorted(subset))
    j = len(subset) - 1
    if not 1 <= j < polytope.dim:
        raise ValueError("strip subsets have size 2..dim")
    tol = polytope.tol
    normals = np.vstack([polytope.halfspaces[k].normal for k in subset])
    if rank(normals, tol) != j or any(
            rank(np.delete(normals, omit, axis=0), tol) != j for omit in range(j + 1)):
        return None
    basis = orthonormal_basis(normals, tol)
    projected = []
    for k in subset:
        h = polytope.halfspaces[k]
        image = basis @ h.normal
        length = float(np.sqrt(np.dot(image, image)))
        # normals lie in the row span of basis, so length is 1 up to roundoff
        projected.append(Halfspace(normal=image / length, offset=h.offset / length))
    corners = _arrangement(projected, j, tol)
    arrangement = {tuple(subset[i] for i in key): p for key, p in corners.items()}
    cross = _certify_simplex(projected, j, subset, arrangement, tol)
    if cross is None:
        return None
    return StripSupport(facet_indices=subset, cross_dim=j, basis=basis,
                        cross_simplex=cross, rows=cross.rows @ basis,
                        shifts=cross.shifts)


def enumerate_supports(polytope: PolytopeH) -> SupportSet:
    """Certify every facet subset of size 2..d+1; collect simplices and strips.

    Raises NoCover when some facet of K ends up in no accepted support, which
    signals inconsistent input or numerical failure (mathematically every
    facet is covered).  Raises GuardExceeded beyond the subset budget.
    """
    n = len(polytope.halfspaces)
    d = polytope.dim
    total = sum(math.comb(n, size) for size in range(2, d + 2))
    if total > SUBSET_GUARD:
        raise GuardExceeded(f"{total} facet subsets exceed the guard {SUBSET_GUARD}")

    accepted: list[SimplexSupport | StripSupport] = []
    for size in range(2, d + 2):
        for subset in itertools.combinations(range(n), size):
            if size == d + 1:
                support = try_simplex(polytope, subset)
            else:
                support = try_strip(polytope, subset)
            if support is not None:
                accepted.append(support)

    accepted.sort(key=lambda s: s.facet_indices)
    covered = set()
    for support in accepted:
        covered.update(support.facet_indices)
    for facet in range(n):
        if facet not in covered:
            raise NoCover(facet)
    return SupportSet(polytope=polytope, supports=tuple(accepted))


def check_minimality(polytope: PolytopeH, simplex: SimplexSupport,
                     shift: np.ndarray) -> bool:
    """True when the translate shift+K pokes out of the simplex.

    Exact at the vertex level: a linear functional attains its minimum over
    the translated polytope at a translated vertex, so shift+K leaves the
    simplex iff some vertex violates some defining halfspace strictly.
    """
    shift = np.asarray(shift, dtype=float)
    if float(np.sqrt(np.dot(shift, shift))) <= 0.0:
        raise ValueError("shift must be nonzero")
    for vertex in polytope.vertices:
        moved = vertex + shift
        for h in simplex.halfspaces:
            if h.value(moved) < 0.0:
                return True
    return False


def support_records(support_set: SupportSet) -> list[dict]:
    """JSON-ready records: kind, facets, cross_dim, apexes, basis.

    Simplices report the ambient dimension and an identity basis so every
    record carries the same fields; strip apexes are in cross-section
    coordinates (apply basis to map ambient points into that frame).
    """
    records = []
    for support in support_set:
        strip = isinstance(support, StripSupport)
        cross = support.cross_simplex if strip else support
        basis = support.basis if strip else np.eye(support.dim)
        records.append({
            "kind": support.kind,
            "facets": list(support.facet_indices),
            "cross_dim": cross.dim,
            "apexes": [[float(c) for c in apex] for apex in cross.apexes],
            "basis": [[float(c) for c in row] for row in basis],
        })
    return records
