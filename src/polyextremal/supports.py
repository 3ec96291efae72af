"""Supporting simplices and strips of a validated polytope.

A subset of K's facet hyperplanes defines a supporting simplex when dropping
any one of the d+1 hyperplanes leaves a unique intersection point (the apex
opposite it) and each apex lies strictly on the positive side of its own
hyperplane.  Because every hyperplane in play already supports K, acceptance
automatically gives K inside the simplex.  The apexes are corners of the
hyperplane arrangement ``validate`` solved while enumerating vertices; they
are read from ``polytope.incidence.arrangement``, not solved again, and the
d+1 heights come from one stacked product with the polytope's
``normals`` and ``offsets`` arrays, bitwise ``Halfspace.value``.  Subsets of
j+1 < d+1 hyperplanes whose normals span only j dimensions are tested the
same way inside that span: project onto an orthonormal basis Q of the
normals, certify the projection as a j-dimensional simplex, solving its
corners as certification reads them, and the original set is that simplex
crossed with the orthogonal directions - a strip.  The slab between two
antiparallel facets is the j = 1 case; its cross-section is an interval.

Enumeration is exhaustive over facet subsets of size d+1, screened all at
once: the height of apex j of a subset is the value-matrix entry of facet j
at the corner of the other d, so a few gathers test every subset, and
``try_simplex``, the one single-subset certifier, runs only on the subsets
that pass.  Strip normals make every d-subset containing them singular, so
strips are looked for only inside the d-subsets the arrangement leaves out:
its LU alone decides dependence.  This certifies completeness directly
instead of re-deriving the constructive existence argument; a guard refuses
inputs whose subset count explodes.  Certification of one subset never looks
at another, so results merge deterministically: supports are sorted by facet
index set, each subset visited once.

The set also fixes the evaluation stack, the supports V_K is maximized over.
For a centrally symmetric K, Lundin's formula (Baran's, for polytopes) says
the slabs between antipodal facets attain the maximum, so they alone are
evaluated; the certified set stays whole for listing and checking.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import Tolerances, orthonormal_basis
from .linalg import rank, solve_real  # noqa: F401  (unused; the benchmark's tracer wraps them)
from .polytope import GuardExceeded, Halfspace, PolytopeH, _corner

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
SYMMETRY_REL = 1e-12      # relative tolerance of the central-symmetry test


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
    """All certified supports of one polytope, sorted by facet index set,
    and the evaluation stack V_K is maximized over.

    ``rows`` (d+1, d, S) and ``shifts`` (d+1, S) hold support i's ``rows``
    and ``shifts`` at [..., i].  A strip's j+1 rows are padded with zero rows,
    which is exact: they give lambda = 0, |lambda| = 0, and t + 0.0 == t.

    ``stack`` holds the increasing support indices the maximum runs over,
    and ``stack_rows`` and ``stack_shifts`` their columns of ``rows`` and
    ``shifts``.  For a centrally symmetric K these are the slabs between
    antipodal facets, whose maximum is V_K by Lundin's formula as Baran
    extended it to polytopes; otherwise every support, ``arange(S)``.
    """

    polytope: PolytopeH
    supports: tuple[SimplexSupport | StripSupport, ...]
    rows: np.ndarray = field(repr=False)
    shifts: np.ndarray = field(repr=False)
    stack: np.ndarray = field(repr=False)
    stack_rows: np.ndarray = field(repr=False)
    stack_shifts: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.supports)

    def __iter__(self):
        return iter(self.supports)

    def __getitem__(self, i: int):
        return self.supports[i]


def _certify_simplex(normals: np.ndarray, offsets: np.ndarray,
                     halfspaces: tuple[Halfspace, ...], facet_indices: tuple[int, ...],
                     corner, tol: Tolerances) -> SimplexSupport | None:
    """Read the apexes of dim+1 hyperplanes in R^dim and test strict positivity.

    ``normals`` (dim+1, dim) and ``offsets`` (dim+1,) are the facet functions
    of ``halfspaces``.  ``corner`` maps a sorted dim-subset of
    ``facet_indices`` to its intersection point, or to None (dependent
    normals, no unique apex); the first missing apex ends the test.  The
    heights l_j(p_j) come from one stacked (1, dim) @ (dim, 1) product, which
    takes ``np.dot``'s route, so each is bitwise ``Halfspace.value``; all
    must exceed pos_abs.
    """
    count = len(facet_indices)
    apexes = np.empty((count, count - 1))
    for j in range(count):
        apex = corner(facet_indices[:j] + facet_indices[j + 1:])
        if apex is None:
            return None
        apexes[j] = apex
    heights = np.matmul(apexes[:, None, :], normals[:, :, None]).reshape(count) + offsets
    if (heights <= tol.pos_abs).any():
        return None
    return SimplexSupport(facet_indices=facet_indices, apexes=apexes,
                          halfspaces=halfspaces, dim=count - 1,
                          rows=normals / heights[:, None], shifts=offsets / heights)


def try_simplex(polytope: PolytopeH, subset) -> SimplexSupport | None:
    """Certify d+1 facet indices of K as a supporting simplex, or None."""
    subset = tuple(sorted(subset))
    if len(subset) != polytope.dim + 1:
        raise ValueError(f"need exactly {polytope.dim + 1} facet indices")
    index = list(subset)
    return _certify_simplex(polytope.normals[index], polytope.offsets[index],
                            tuple(polytope.halfspaces[k] for k in subset), subset,
                            polytope.incidence.arrangement.get, polytope.tol)


def try_strip(polytope: PolytopeH, subset) -> StripSupport | None:
    """Certify j+1 facet indices (j < d) as a supporting strip, or None.

    The normals must span exactly j dimensions and the projected system pass
    the simplex test in R^j, which rejects dependent j-subsets: they have no
    corner in the projected arrangement.
    """
    subset = tuple(sorted(subset))
    j = len(subset) - 1
    if not 1 <= j < polytope.dim:
        raise ValueError("strip subsets have size 2..dim")
    tol = polytope.tol
    index = list(subset)
    basis = orthonormal_basis(polytope.normals[index], tol)
    if basis.shape[0] != j:
        return None
    # the images Q n_k as stacked (j, d) @ (d, 1) products, each one ``basis @ n_k``
    images = np.matmul(basis, polytope.normals[index, :, None]).reshape(j + 1, j)
    # normals lie in the row span of basis, so each length is 1 up to roundoff
    lengths = np.sqrt(np.matmul(images[:, None, :], images[:, :, None]).reshape(j + 1))
    normals, offsets = images / lengths[:, None], polytope.offsets[index] / lengths
    projected = [Halfspace(normal=n, offset=float(b)) for n, b in zip(normals, offsets)]
    cross = _certify_simplex(normals, offsets, tuple(projected), subset, lambda key: _corner(
        projected, [subset.index(k) for k in key], tol), tol)
    if cross is None:
        return None
    return StripSupport(facet_indices=subset, cross_dim=j, basis=basis,
                        cross_simplex=cross, rows=cross.rows @ basis,
                        shifts=cross.shifts)


def _combination_rank(columns: list[np.ndarray], n: int) -> np.ndarray:
    """Position of each subset in the order of ``itertools.combinations(range(n), k)``,
    the subsets given as k columns of increasing entries."""
    k = len(columns)
    rank = np.zeros(len(columns[0]), dtype=np.int64)
    start = 0
    for i, column in enumerate(columns):
        # below[c]: the subsets that agree before entry i and hold some v < c
        # there, each leaving C(n-1-v, k-1-i) ways to go on
        below = np.cumsum([0] + [math.comb(n - 1 - v, k - 1 - i) for v in range(n)])
        rank += below[column] - below[start]
        start = column + 1
    return rank


def _simplex_candidates(polytope: PolytopeH, nonsingular: np.ndarray) -> list[tuple[int, ...]]:
    """The (d+1)-subsets that pass ``try_simplex``'s test, screened at once.

    ``nonsingular`` marks the d-subsets, in combinations order, that the
    arrangement holds.  The apex opposite facet j of a subset is the corner
    of the subset without j, so its height is a gather from the value
    matrix; a subset passes when every corner exists and no height is at or
    below pos_abs."""
    n, d = len(polytope.halfspaces), polytope.dim
    values, row = polytope.incidence.values, np.cumsum(nonsingular) - 1
    subsets = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), d + 1)),
                          dtype=np.intp, count=math.comb(n, d + 1) * (d + 1)).reshape(-1, d + 1)
    columns = list(subsets.T)
    passed = np.ones(len(subsets), dtype=bool)
    for j in range(d + 1):
        face = _combination_rank(columns[:j] + columns[j + 1:], n)
        passed &= nonsingular[face] & ~(values[row[face], columns[j]] <= polytope.tol.pos_abs)
    return [tuple(subset) for subset in subsets[passed].tolist()]


def _antipodal_strips(polytope: PolytopeH,
                      supports: tuple[SimplexSupport | StripSupport, ...]) -> list[int] | None:
    """Indices of the slabs between antipodal facet pairs when K is centrally
    symmetric, else None.

    K is symmetric about c, the mean of its vertices, when every facet k has
    exactly one partner k' with n_k' = -n_k and b_k' = b_k + 2 n_k.c, the
    reflection of l_k through c, each to a relative SYMMETRY_REL, and the
    slab (k, k') is a certified strip.  Pairing alone is not enough: a
    hexagon with three pairs of parallel sides need not have a centre.
    """
    normals, offsets = polytope.normals, polytope.offsets
    opposite = (np.abs(normals[:, None, :] + normals) <= SYMMETRY_REL).all(axis=2)
    if np.any(np.count_nonzero(opposite, axis=1) != 1):
        return None
    partner = np.argmax(opposite, axis=1)
    reach = 2.0 * (normals @ polytope.vertices.mean(axis=0))
    scale = np.maximum(np.maximum(np.abs(offsets), np.abs(offsets[partner])), np.abs(reach))
    if np.any(np.abs(offsets[partner] - offsets - reach) > SYMMETRY_REL * scale):
        return None
    stack = []
    for pair in ((k, p) for k, p in enumerate(partner.tolist()) if k < p):
        i = bisect.bisect_left(supports, pair, key=lambda s: s.facet_indices)
        if i == len(supports) or supports[i].facet_indices != pair or supports[i].kind != "strip":
            return None
        stack.append(i)
    return stack


def enumerate_supports(polytope: PolytopeH) -> SupportSet:
    """Certify as a simplex every facet subset of size d+1 that the batched
    screen passes, and as a strip every subset of size 2..d inside a
    d-subset the arrangement leaves out.

    Raises NoCover when some facet of K ends up in no accepted support, which
    signals inconsistent input or numerical failure (mathematically every
    facet is covered).  Raises GuardExceeded beyond the subset budget.
    """
    n = len(polytope.halfspaces)
    d = polytope.dim
    total = sum(math.comb(n, size) for size in range(2, d + 2))
    if total > SUBSET_GUARD:
        raise GuardExceeded(f"{total} facet subsets exceed the guard {SUBSET_GUARD}")

    faces = list(itertools.combinations(range(n), d))
    nonsingular = np.fromiter((face in polytope.incidence.arrangement for face in faces),
                              dtype=bool, count=len(faces))
    strip_subsets = {part for face in itertools.compress(faces, ~nonsingular)
                     for size in range(2, d + 1) for part in itertools.combinations(face, size)}
    accepted: list[SimplexSupport | StripSupport] = []
    for subset in [*sorted(strip_subsets), *_simplex_candidates(polytope, nonsingular)]:
        support = (try_simplex if len(subset) == d + 1 else try_strip)(polytope, subset)
        if support is not None:
            accepted.append(support)

    covered = {facet for support in accepted for facet in support.facet_indices}
    for facet in range(n):
        if facet not in covered:
            raise NoCover(facet)
    ordered = tuple(sorted(accepted, key=lambda s: s.facet_indices))
    rows, shifts = np.zeros((d + 1, d, len(ordered))), np.zeros((d + 1, len(ordered)))
    for i, support in enumerate(ordered):
        rows[:len(support.shifts), :, i] = support.rows
        shifts[:len(support.shifts), i] = support.shifts
    strips = _antipodal_strips(polytope, ordered)
    stack = np.arange(len(ordered)) if strips is None else np.array(strips, dtype=np.intp)
    return SupportSet(polytope=polytope, supports=ordered, rows=rows, shifts=shifts,
                      stack=stack, stack_rows=rows[..., stack], stack_shifts=shifts[:, stack])


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
