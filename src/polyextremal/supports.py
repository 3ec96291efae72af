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
normals, certify the projection as a j-dimensional simplex, and the original
set is that simplex crossed with the orthogonal directions - a strip.  The
slab between two antiparallel facets is the j = 1 case; its cross-section
is an interval.

Enumeration is exhaustive over facet subsets of size d+1, screened all at
once: the height of apex j of a subset is the value-matrix entry of facet j
at the corner of the other d, so a few gathers test every subset, and
``try_simplex`` runs only on the subsets that pass.  Strip normals make
every d-subset containing them singular, so strips are looked for only
inside the d-subsets the arrangement leaves out.  One routine certifies
strips, every candidate of a size at once; ``try_strip`` is that routine on
one subset and runs only on the candidates that pass.  This certifies
completeness directly; a guard refuses inputs whose subset count explodes.
Certification of one subset never looks at another, so results merge
deterministically: supports are sorted by facet index set.

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

from .linalg import _orthogonalize_many, lu_solve_many
from .linalg import orthonormal_basis, rank, solve_real  # noqa: F401  (the tracer wraps them)
from .polytope import GuardExceeded, Halfspace, PolytopeH

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


def _facet_subset(polytope: PolytopeH, subset) -> tuple[int, ...]:
    """``subset`` sorted; ValueError unless it holds distinct facet indices of K."""
    subset, n = tuple(sorted(subset)), len(polytope.halfspaces)
    if subset and (subset[0] < 0 or subset[-1] >= n or len(set(subset)) < len(subset)):
        raise ValueError(f"facet indices must be distinct and in 0..{n - 1}")
    return subset


def try_simplex(polytope: PolytopeH, subset) -> SimplexSupport | None:
    """Certify d+1 facet indices of K as a supporting simplex, or None.

    The apex opposite facet j is the arrangement's corner of the other d,
    which is missing when their normals are dependent.  The heights
    l_j(p_j) come from one stacked (1, d) @ (d, 1) product, which takes
    ``np.dot``'s route, so each is bitwise ``Halfspace.value``; all must
    exceed pos_abs.
    """
    subset, d = _facet_subset(polytope, subset), polytope.dim
    if len(subset) != d + 1:
        raise ValueError(f"need exactly {d + 1} facet indices")
    try:
        apexes = np.array([polytope.incidence.arrangement[subset[:j] + subset[j + 1:]]
                           for j in range(d + 1)])
    except KeyError:
        return None
    index = np.array(subset)
    normals, offsets = polytope.normals[index], polytope.offsets[index]
    heights = np.matmul(apexes[:, None, :], normals[:, :, None]).reshape(d + 1) + offsets
    if (heights <= polytope.tol.pos_abs).any():
        return None
    return SimplexSupport(facet_indices=subset, apexes=apexes,
                          halfspaces=tuple(polytope.halfspaces[k] for k in subset), dim=d,
                          rows=normals / heights[:, None], shifts=offsets / heights)


def try_strip(polytope: PolytopeH, subset) -> StripSupport | None:
    """Certify j+1 facet indices (j < d) as a supporting strip, or None:
    ``_strips`` of the one subset."""
    subset = _facet_subset(polytope, subset)
    if not 2 <= len(subset) <= polytope.dim:
        raise ValueError("strip subsets have size 2..dim")
    _, basis, normals, offsets, apexes, heights, passed = _strips(polytope, np.array([subset]))
    if not passed.any():
        return None
    normals, offsets, heights = normals[0], offsets[0], heights[0]
    projected = tuple(Halfspace(normal=n, offset=float(b)) for n, b in zip(normals, offsets))
    cross = SimplexSupport(facet_indices=subset, apexes=apexes[0], halfspaces=projected,
                           dim=len(subset) - 1, rows=normals / heights[:, None],
                           shifts=offsets / heights)
    return StripSupport(facet_indices=subset, cross_dim=cross.dim, basis=basis[0],
                        cross_simplex=cross, rows=cross.rows @ basis[0], shifts=cross.shifts)


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


def _strips(polytope: PolytopeH, index: np.ndarray) -> tuple[np.ndarray, ...]:
    """Strip certification of the sorted (j+1)-subsets ``index`` (C, j+1) at once.

    The subsets whose normals' Gram-Schmidt basis Q has other than j rows
    are dropped.  The rest are projected, l(x') = (Q n).x' + b scaled to
    unit normals, and pass when the projection is a simplex of R^j: one LU
    batch solves all j+1 corners of every subset, and no corner's height
    above its own hyperplane may be at or below pos_abs.  Returns, for the
    kept subsets, ``index``, the bases (C', j, d), the projected normals
    (C', j+1, j) and offsets (C', j+1), the corners (C', j+1, j), their
    heights (C', j+1), and the mask of the subsets that pass."""
    tol, j, normals = polytope.tol, index.shape[1] - 1, polytope.normals[index]
    slots, accepted = _orthogonalize_many(normals, tol)
    spans = accepted.sum(axis=1) == j
    index, basis = index[spans], slots[spans][accepted[spans]].reshape(-1, j, slots.shape[2])
    if not len(index):  # nothing spans j dimensions: no corner to solve
        empty = np.empty((0, j + 1, j))
        return index, basis, empty, empty[..., 0], empty, empty[..., 0], spans[spans]
    # the images Q n_k as stacked (j, d) @ (d, 1) products, and their lengths,
    # which are 1 up to roundoff: the normals lie in the row span of Q
    images = np.matmul(basis[:, None], normals[spans][..., None]).reshape(-1, j + 1, j)
    lengths = np.sqrt(np.matmul(images[..., None, :], images[..., None]).reshape(-1, j + 1))
    normals, offsets = images / lengths[..., None], polytope.offsets[index] / lengths
    # corner t drops hyperplane t: the (j+1) systems of every subset in one batch
    rest = np.array([[k for k in range(j + 1) if k != t] for t in range(j + 1)], dtype=np.intp)
    apexes, nonsingular = lu_solve_many(normals[:, rest].reshape(-1, j, j),
                                        -offsets[:, rest].reshape(-1, j), tol)
    apexes = apexes.reshape(-1, j + 1, j)
    heights = np.matmul(apexes[..., None, :], normals[..., None]).reshape(-1, j + 1) + offsets
    passed = nonsingular.reshape(-1, j + 1).all(axis=1) & ~(heights <= tol.pos_abs).any(axis=1)
    return index, basis, normals, offsets, apexes, heights, passed


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
    d-subset the arrangement leaves out that the strip screen passes.

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
    singular = list(itertools.compress(faces, ~nonsingular))
    candidates = []
    if singular:  # without singular d-subsets there are no strips
        for size in range(2, d + 1):
            parts = sorted({sub for face in singular for sub in itertools.combinations(face, size)})
            index, *_, passed = _strips(polytope, np.array(parts, dtype=np.intp))
            candidates += [tuple(subset) for subset in index[passed].tolist()]
    candidates += _simplex_candidates(polytope, nonsingular)
    accepted: list[SimplexSupport | StripSupport] = []
    for subset in candidates:
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
    if not np.all(np.isfinite(shift)):
        raise ValueError("shift must be finite")
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
