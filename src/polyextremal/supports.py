"""Supporting simplices and strips of a validated polytope.

A subset of K's facet hyperplanes defines a supporting simplex when dropping
any one of the d+1 hyperplanes leaves a unique intersection point (the apex
opposite it) and each apex lies strictly on the positive side of its own
hyperplane.  Because every hyperplane in play already supports K, acceptance
automatically gives K inside the simplex.  The apexes are corners of the
hyperplane arrangement ``validate`` solved while enumerating vertices, with
their heights from its value matrix and each apex test from its pass table,
all read from ``polytope.incidence`` by the rank of each d-subset.
Subsets of j+1 < d+1 hyperplanes whose normals span only j dimensions are
tested the same way inside that span: project onto an orthonormal basis Q of
the normals, certify the projection as a j-dimensional simplex, and the
original set is that simplex crossed with the orthogonal directions - a
strip.  The slab between two antiparallel facets is the j = 1 case; its
cross-section is an interval.

Enumeration is exhaustive over facet subsets of size d+1, screened all at
once: apex j of a subset passes where the pass table holds at facet j and
the rank of the other d, so d+1 gathers test every subset, and
``try_simplex``, the same reads for one subset, runs only on the subsets
that pass.  Strip normals make every d-subset containing them singular, so
strips are looked for only inside the singular d-subsets.  One routine
certifies strips, every candidate of a size at once, and builds the records
of those that pass, so each strip is certified once; ``try_strip`` is that
routine on one subset.  This certifies completeness directly; ``validate``'s
guard keeps the subset count at desk scale.
Certification of one subset never looks at another, so results merge
deterministically: supports are sorted by facet index set.

The set holds its supports as a ``FacetTable``, the evaluators' one input,
and fixes the evaluation stack, the supports V_K is maximized over.  For a
centrally symmetric K, Lundin's formula (Baran's, for polytopes) says the
slabs between antipodal facets attain the maximum, so they alone are
evaluated, from a table of their own; the certified set stays whole for
listing and checking.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import _orthogonalize_many, lu_solve_many
from .linalg import orthonormal_basis, rank, solve_real  # noqa: F401  (the tracer wraps them)
from .polytope import Halfspace, PolytopeH, _combinations, _values

__all__ = [
    "SimplexSupport",
    "StripSupport",
    "SupportSet",
    "FacetTable",
    "NoCover",
    "try_simplex",
    "try_strip",
    "enumerate_supports",
    "check_minimality",
    "support_records",
]

SYMMETRY_REL = 1e-12  # relative tolerance of the central-symmetry test
_BOOL_TYPES = frozenset((bool, np.bool_))  # operator.index takes True as 1


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

    ``heights[k]`` = l_k(p_k) is the height of apex k above its own facet, so
    the barycentric coordinates are lambda_k(z) = l_k(z) / heights[k] with
    l_k = ``halfspaces[k].value``.
    """

    facet_indices: tuple[int, ...]
    apexes: np.ndarray
    halfspaces: tuple[Halfspace, ...]
    dim: int
    heights: np.ndarray

    @property
    def kind(self) -> str:
        return "simplex"


@dataclass(frozen=True, eq=False)
class StripSupport:
    """Cross-section simplex in the span of the normals, free in the rest.

    ``basis`` holds orthonormal rows Q spanning the j-dimensional normal span;
    ``cross_simplex`` certifies the projected halfspaces, l(x') = (Q n).x' + b
    scaled to unit normals, as a simplex in R^j.  ``halfspaces`` are those
    lifted back to R^d, normal Q^T m and offset c for each cross-section
    facet m.x' + c, and ``heights`` are the cross-section's, so that
    lambda_k(z) = l_k(z) / heights[k] straight from z in R^d, as for a
    simplex, with l_k(z) the cross-section's facet function at Qz.  K's own
    n_k would not do: it leaves the row span of Q by up to the rank
    tolerance, and that residual r moves the sum of the |lambda| at a real
    point x off 1 by about r.x / l_k(p_k).
    """

    facet_indices: tuple[int, ...]
    cross_dim: int
    basis: np.ndarray
    cross_simplex: SimplexSupport
    halfspaces: tuple[Halfspace, ...]
    heights: np.ndarray

    @property
    def kind(self) -> str:
        return "strip"


class FacetTable(NamedTuple):
    """The kernel's input: supports as facet functions over apex heights.

    Row r of ``normals`` (R, d) and ``offsets`` (R,) is l_r(z) = n_r.z + b_r.
    Column i of ``facets`` and ``heights`` (m, W) is support i: its lambda_j
    is l_r(z) / heights[j, i] with r = facets[j, i].  Unused slots name the
    padding row R, a facet value of exactly 0, with height 1.0: they add
    0 / 1.0 = +0.0, and t + 0.0 == t.  For i < M = ``mirrored``, row R-M+i
    has normal -normals[i], bit for bit but for a zero's sign.
    """

    normals: np.ndarray
    offsets: np.ndarray
    facets: np.ndarray
    heights: np.ndarray
    mirrored: int = 0


@dataclass(frozen=True, eq=False)
class SupportSet:
    """All certified supports of one polytope, sorted by facet index set,
    and the evaluation stack V_K is maximized over.

    ``table`` holds every support: K's n facets, then each strip's
    ``halfspaces`` in support order.  ``stack`` holds the increasing support
    indices the maximum runs over: for a centrally symmetric K the slabs
    between antipodal facets, whose maximum is V_K by Lundin's formula as
    Baran extended it to polytopes, otherwise every support, ``arange(S)``.
    ``stack_table`` is then ``table`` itself, and for the slabs only their
    own facet functions, every first row in stack order and then every
    second, so ``facets`` = [[0..S-1], [S..2S-1]] and ``mirrored`` is S
    when every slab's second normal is its first negated, else 0.
    """

    polytope: PolytopeH
    supports: tuple[SimplexSupport | StripSupport, ...]
    table: FacetTable = field(repr=False)
    stack: np.ndarray = field(repr=False)
    stack_table: FacetTable = field(repr=False)

    def __len__(self) -> int:
        return len(self.supports)

    def __iter__(self):
        return iter(self.supports)

    def __getitem__(self, i: int):
        return self.supports[i]


def _facet_subset(polytope: PolytopeH, subset) -> tuple[int, ...]:
    """``subset`` sorted, as Python ints; ValueError unless it holds distinct
    facet indices of K, each an integer and not a bool."""
    subset, n = tuple(subset), len(polytope.halfspaces)
    try:
        if not _BOOL_TYPES.isdisjoint(map(type, subset)):
            raise TypeError("a bool is not a facet index")
        subset = tuple(sorted(map(operator.index, subset)))
    except TypeError:
        raise ValueError("facet indices must be integers") from None
    if subset and (subset[0] < 0 or subset[-1] >= n or len(set(subset)) < len(subset)):
        raise ValueError(f"facet indices must be distinct and in 0..{n - 1}")
    return subset


def _face_ranks(columns, n: int, comb=math.comb) -> list:
    """The rank in ``itertools.combinations(range(n), d)`` order of each face
    of the sorted (d+1)-subset c, face j dropping c_j: C(n, d) - 1 minus
    sum_{i<j} C(n-1-c_i, d-i) and sum_{i>j} C(n-1-c_i, d+1-i).  The c_i are
    ints, or int arrays of many subsets, with ``comb`` C(m, k) of an array m."""
    d = len(columns) - 1
    above = [comb(n - 1 - c, d + 1 - i) for i, c in enumerate(columns)]
    ranks, head, tail = [], math.comb(n, d) - 1, sum(above)
    for i, c in enumerate(columns):
        tail -= above[i]
        ranks.append(head - tail)
        head -= comb(n - 1 - c, d - i)
    return ranks


def try_simplex(polytope: PolytopeH, subset) -> SimplexSupport | None:
    """Certify d+1 facet indices of K as a supporting simplex, or None.

    The apex opposite facet j is the arrangement's corner of the other d,
    which is missing when their normals are dependent, and its height
    l_j(p_j) is the value-matrix entry of facet j there, all read by
    ``ndarray.take`` at the face's rank, the height at flat index
    rank * n + j.  The test is the batched screen's: the entries of
    ``incidence.above``, the pass table, at those flat indices."""
    subset, d, n = _facet_subset(polytope, subset), polytope.dim, len(polytope.halfspaces)
    if len(subset) != d + 1:
        raise ValueError(f"need exactly {d + 1} facet indices")
    incidence = polytope.incidence
    faces = _face_ranks(subset, n)
    flat = [face * n + k for face, k in zip(faces, subset)]
    # all() of a short list: ndarray.all() costs several times more per call
    if not all(incidence.above.take(flat).tolist()):
        return None
    return SimplexSupport(facet_indices=subset, apexes=incidence.corners.take(faces, axis=0),
                          halfspaces=operator.itemgetter(*subset)(polytope.halfspaces), dim=d,
                          heights=incidence.values.take(flat))


def try_strip(polytope: PolytopeH, subset) -> StripSupport | None:
    """Certify j+1 facet indices (j < d) as a supporting strip, or None:
    ``_strips`` of the one subset."""
    subset = _facet_subset(polytope, subset)
    if not 2 <= len(subset) <= polytope.dim:
        raise ValueError("strip subsets have size 2..dim")
    strips = _strips(polytope, np.array([subset]))
    return strips[0] if strips else None


def _simplex_candidates(polytope: PolytopeH) -> list[tuple[int, ...]]:
    """The (d+1)-subsets that pass ``try_simplex``'s test, screened at once:
    the apex opposite facet j is the corner of the face without j, and the
    pass table's entry of facet j at the face's rank must hold for all d+1."""
    n, d, incidence = len(polytope.halfspaces), polytope.dim, polytope.incidence
    subsets = _combinations(n, d + 1)
    table = [np.array([math.comb(m, k) for m in range(n)]) for k in range(d + 2)]
    faces = _face_ranks(list(subsets.T), n, lambda m, k: table[k][m])
    passed = np.ones(len(subsets), dtype=bool)
    for face, column in zip(faces, subsets.T):
        passed &= incidence.above[face, column]
    return [tuple(subset) for subset in subsets[passed].tolist()]


def _strips(polytope: PolytopeH, index: np.ndarray) -> list[StripSupport]:
    """The strips among the sorted (j+1)-subsets ``index`` (C, j+1), certified at once.

    The subsets whose normals' Gram-Schmidt basis Q has other than j rows
    are dropped.  The rest are projected, l(x') = (Q n).x' + b scaled to
    unit normals, and pass when the projection is a simplex of R^j: one LU
    batch solves all j+1 corners of every subset, and no corner's height
    above its own hyperplane may be at or below pos_abs.  Returns the
    records of the subsets that pass, in the order of ``index``."""
    tol, j, normals = polytope.tol, index.shape[1] - 1, polytope.normals[index]
    slots, accepted = _orthogonalize_many(normals, tol)
    spans = accepted.sum(axis=1) == j
    index, basis = index[spans], slots[spans][accepted[spans]].reshape(-1, j, slots.shape[2])
    if not len(index):  # nothing spans j dimensions: no corner to solve
        return []
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
    strips = []
    for i, subset in zip(np.flatnonzero(passed), map(tuple, index[passed].tolist())):
        projected = tuple(Halfspace(normal=m, offset=float(c))
                          for m, c in zip(normals[i], offsets[i]))
        cross = SimplexSupport(facet_indices=subset, apexes=apexes[i], halfspaces=projected,
                               dim=j, heights=heights[i])
        lifted = tuple(Halfspace(normal=m, offset=float(c))
                       for m, c in zip(normals[i] @ basis[i], offsets[i]))
        strips.append(StripSupport(facet_indices=subset, cross_dim=j, basis=basis[i],
                                   cross_simplex=cross, halfspaces=lifted, heights=heights[i]))
    return strips


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
    singular d-subset that the strip screen passes.

    Raises NoCover when some facet of K ends up in no accepted support, which
    signals inconsistent input or numerical failure (mathematically every
    facet is covered).  It visits at most the subsets ``validate`` counts
    against its SUBSET_GUARD.
    """
    n, d, nonsingular = len(polytope.halfspaces), polytope.dim, polytope.incidence.nonsingular
    accepted: list[SimplexSupport | StripSupport] = []
    if not nonsingular.all():  # without singular d-subsets there are no strips
        singular = _combinations(n, d)[~nonsingular].tolist()
        for size in range(2, d + 1):
            parts = sorted({sub for face in singular for sub in itertools.combinations(face, size)})
            accepted += _strips(polytope, np.array(parts, dtype=np.intp))
    # the screen decides as try_simplex does, so each candidate is a simplex
    accepted += [try_simplex(polytope, subset)
                 for subset in _simplex_candidates(polytope)]

    covered = {facet for support in accepted for facet in support.facet_indices}
    for facet in range(n):
        if facet not in covered:
            raise NoCover(facet)
    ordered = tuple(sorted(accepted, key=lambda s: s.facet_indices))
    table = _facet_table(polytope.halfspaces, ordered)
    strips = _antipodal_strips(polytope, ordered)
    if strips is None:
        return SupportSet(polytope, ordered, table, np.arange(len(ordered), dtype=np.intp), table)
    rows = table.facets[:2].take(strips, axis=1)
    first, second = table.normals[rows]
    stack_table = FacetTable(table.normals[rows.ravel()], table.offsets[rows.ravel()],
                             np.arange(rows.size, dtype=np.intp).reshape(rows.shape),
                             table.heights[:2].take(strips, axis=1),
                             len(strips) if np.array_equal(second, -first) else 0)
    return SupportSet(polytope, ordered, table, np.array(strips, dtype=np.intp), stack_table)


def _facet_table(base, supports) -> FacetTable:
    """The ``FacetTable`` of ``supports``: the facet functions ``base``, into
    which a simplex's facet indices are its rows, then the strips' rows.  A
    simplex has d+1 facets, more than any strip, so its column is full:
    every simplex column is filled in one assignment.  The strips' rows are
    appended slot by slot, each slot's in support order."""
    rows = list(base)
    slots = max((len(support.heights) for support in supports), default=0)
    facets = np.full((slots, len(supports)), -1, dtype=np.intp)
    heights = np.ones((slots, len(supports)))
    simplices = [i for i, support in enumerate(supports) if not isinstance(support, StripSupport)]
    if simplices:
        facets[:, simplices] = np.array([supports[i].facet_indices for i in simplices]).T
        heights[:, simplices] = np.array([supports[i].heights for i in simplices]).T
    strips = [i for i, support in enumerate(supports) if isinstance(support, StripSupport)]
    for slot in range(slots):
        owners = [i for i in strips if len(supports[i].heights) > slot]
        facets[slot, owners] = np.arange(len(rows), len(rows) + len(owners))
        heights[slot, owners] = [supports[i].heights[slot] for i in owners]
        rows += [supports[i].halfspaces[slot] for i in owners]
    facets[facets < 0] = len(rows)
    return FacetTable(np.array([h.normal for h in rows]), np.array([h.offset for h in rows]),
                      facets, heights)


def check_minimality(polytope: PolytopeH, simplex: SimplexSupport,
                     shift: np.ndarray) -> bool:
    """True when the translate shift+K pokes out of the simplex.

    Exact at the vertex level: a linear functional attains its minimum over
    the translated polytope at a translated vertex, so shift+K leaves the
    simplex iff some vertex violates some defining halfspace strictly.  The
    simplex's halfspaces are K's rows ``facet_indices``, all tested at every
    moved vertex in one pass.
    """
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (polytope.dim,):
        raise ValueError(f"shift must have shape ({polytope.dim},)")
    if not np.all(np.isfinite(shift)):
        raise ValueError("shift must be finite")
    if not np.any(shift):
        raise ValueError("shift must be nonzero")
    facets = list(simplex.facet_indices)
    values = _values(polytope.vertices + shift, polytope.normals[facets], polytope.offsets[facets])
    return bool((values < 0.0).any())


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
            "apexes": cross.apexes.tolist(),
            "basis": basis.tolist(),
        })
    return records
