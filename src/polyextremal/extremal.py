"""Extremal-function evaluation: simplex formula, strips, balls, the max rule.

For a simplex S with apexes p_0..p_d, the value at z in C^d is
log h(|lambda_0(z)| + ... + |lambda_d(z)|) where the lambda are barycentric
coordinates of z and h(t) = t + sqrt(t^2 - 1) inverts the Joukowski map.
S's facets are facet hyperplanes l_k(x) = n_k.x + b_k of K, and l_k vanishes
at every apex but p_k, so lambda_k(z) = l_k(z) / l_k(p_k): a support is its
facet functions and their apex heights l_k(p_k).  A strip's are its
cross-section's facets lifted back to R^d, l(z) = m.Qz + c, over the
cross-section's heights.  The set's ``FacetTable`` holds these facet
functions, K's facets and then the strips' lifted ones, which every support
indexes, and no linear system is solved on the way.  The polytope value is
the maximum over the set's evaluation stack: every certified support, or for
a centrally symmetric K only the slabs between antipodal facets, which by
Lundin's formula attain it.

The kernel evaluates a chunk of points against a set's stacked supports at
once.  It forms |l_r(z)| once per facet function the supports read and
per point, the products n_rc z_c added in c order, then adds
|l_r(z)| / l_r(p_r) over each support's facets in facet order: elementwise
numpy calls, a few per facet slot however many supports, so a point's
values never depend on its chunk.  Each is a ufunc or an ndarray method,
not a Python wrapper, which costs more cold.  Every sum is checked
against the domain band as it is formed.  The max rule (``_stack_max``)
works on these sums: V is arccosh of each point's largest sum, taken once
per point, and ``argmax`` names the first stack entry whose sum is within
the relative band 1e-12 of the largest, by its index in the sorted
support order, and 0 where V = 0.  The band makes mathematical ties,
which rounding would otherwise break either way, go to the lowest index.
A call does one job: V and argmax from the stack's table, or every
support's value, arccosh of its own sum, from the set's table.

BLAS picks candidates, never values.  A call for V and argmax alone over
a wide stack, S > 4 (R + 1) supports whose weights W, fl(1 / height) at
their rows, fit _CHUNK, and more than one pass of points (``_screens``)
bounds every sum of a pass by one product t = W |l|.  A sum s and its t
are within a factor 1 + g(d+1) and 1 + g(R+3) of one real sum,
g(k) = ku / (1 - ku), u = 2^-53 (d+1 quotients and d additions; a
reciprocal, a product and R additions in any order, blocking or FMA), so
delta = 4 (R + d + 8) u covers s / t, both ways, twice, and the band
tests' roundings.  A pass whose least t is not finite or below
(1 - 1e-9)(1 + delta) takes the exact route.  Otherwise V = argmax = 0
where the largest t, T, has T (1 + delta) <= 1 + 1e-12, and only the
supports with t >= (1 - 1e-12)(1 - delta) T, which hold every band flag,
have their exact sums formed.

A symmetric K's slabs have cross-section normals +-1 exactly, so the
second lifted normal of each is its first negated, and the stack's table
ends in these M mirrored rows: each is b - t from its mirror's sum t of
products, formed once.  No bit moves: negation commutes with rounding, so
-t is the row's own sum but for a zero's sign, which the modulus drops.

A call of one point, as every ``eval_extremal`` and ``eval_simplex`` is,
and each point of a pass where a sum overflowed, takes ``_point``: its
sums come from ``_point_sums``, a fixed number of numpy calls whatever d,
and are the chunk kernel's bit for bit.

Numerical contract worth spelling out: barycentric magnitude sums are >= 1
in exact arithmetic, equal to 1 exactly on the real simplex.  Floating-point
noise lands on either side of 1, and arccosh has a square-root cliff there
(arccosh(1 + 1e-16) ~ 1e-8), so a band around 1 must collapse to 0 or real
interior points would evaluate to visible garbage.  Sums up to 1 + 1e-12 map
to exactly 0.0; genuine exterior points clear that band by orders of
magnitude.  A sum below 1 - 1e-9 raises DomainError.  In exact arithmetic no
point gets there, but roundoff can: far from the origin n_k.z and b_k are
large and cancel, and the quad translated by (1e7, 1e7) reads a sum below
1 - 1e-9 at an interior point.  The arccosh itself runs on u = s - 1
(exact for s in [1, 2]) as log1p(u + sqrt(u(u+2))) to dodge the s^2 - 1
cancellation.  Beyond _FAR = 1.3407807929942596e154, the largest u for
which u(u+2) is finite, a test against that constant, not an overflow
caught under ``np.errstate``, takes the far branch, log 2 + log s, exact
there to double precision.  An infinite or NaN sum gets there only where
a finite point's sum overflowed, as |1 + t| does on [-1, 1] at
t = 1.7e308(1 + i): the branch raises ``_Overflow``, and ``_point``
takes that point's value from the point scaled by a power of two.  Points
must be finite: NaN or infinite coordinates raise ValueError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, lu_factor
from .supports import FacetTable, SimplexSupport, SupportSet

__all__ = [
    "DomainError",
    "EvalResult",
    "inv_joukowski_log",
    "barycentric",
    "eval_simplex",
    "eval_extremal",
    "eval_simplex_many",
    "eval_supports_many",
    "eval_extremal_many",
    "lundin_ball",
    "eval_interval",
]

_ZERO_BAND = 1e-12   # sums within this of 1 (above) collapse to value 0
_DOMAIN_BAND = 1e-9  # sums below 1 by more than this signal an internal bug
_CHUNK = 786_432     # bytes of work arrays per kernel pass; fastest on the benchmark
_FAR = 1.3407807929942596e154  # the largest u with (u + 2) u finite, found by bisection
_WIDE = 4            # S > _WIDE (R + 1) is a wide stack; 2 lost up to 30 % in a sweep


class DomainError(Exception):
    """Argument below the inverse-Joukowski domain.  Barycentric sums are >= 1
    in exact arithmetic; a sum below 1 - 1e-9 is roundoff, as in a polytope
    far from the origin, or a defect."""


class _Overflow(ArithmeticError):
    """An arccosh argument is infinite or NaN: in the kernel, a sum at a
    finite point that overflowed."""


def inv_joukowski_log(s: float) -> float:
    """log(s + sqrt(s^2 - 1)) = arccosh(s) for s >= 1, with the band around 1
    clamped to exactly 0: ``_inv_joukowski_log_many`` of the one value, after
    the domain check every kernel sum gets.  NaN raises ValueError, and
    arccosh(inf) is inf."""
    s, out = np.array([s], dtype=float), np.empty(1)
    if np.isnan(s[0]):
        raise ValueError("inverse Joukowski argument is NaN")
    _check_domain(s)
    try:
        _inv_joukowski_log_many(s, out)
    except _Overflow:
        return math.inf
    return float(out[0])


def _check_domain(s: np.ndarray) -> None:
    """DomainError when any entry of ``s`` lies below 1 by more than the band."""
    low = np.minimum.reduce(s, axis=None, initial=math.inf)
    if low < 1.0 - _DOMAIN_BAND:
        raise DomainError(f"inverse Joukowski argument {float(low)!r} below 1")


def _inv_joukowski_log_many(s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """arccosh of the float array ``s``, already checked against the domain
    band, with the band around 1 clamped to 0, into ``out``, which has its
    shape, and the mask of the clamped entries; ``s`` is overwritten, so
    that no array of that size is made.  Every evaluator's arccosh, the
    scalar one included.  Its far branch raises _Overflow on inf or NaN."""
    zero = np.less_equal(s, 1.0 + _ZERO_BAND)
    u = np.maximum(np.subtract(s, 1.0, out=s), 0.0, out=s)
    top = np.maximum.reduce(u, axis=None, initial=0.0)
    if not top <= _FAR:
        if not top < math.inf:
            raise _Overflow
        far = np.greater(u, _FAR)
        beyond = np.log(u[far])  # u == s there
        np.minimum(u, _FAR, out=u)
    np.log1p(np.add(np.sqrt(np.multiply(np.add(u, 2.0, out=out), u, out=out), out=out), u,
                    out=out), out=out)
    if top > _FAR:
        out[far] = math.log(2.0) + beyond
    out[zero] = 0.0
    return zero


def barycentric(simplex: SimplexSupport, z: np.ndarray) -> np.ndarray:
    """Complex barycentric coordinates of z in a simplex, by solving
    sum(lambda_k p_k) = z, sum(lambda_k) = 1 with a fresh LU factorization.

    The independent route the kernel's coordinates are tested against; for a
    strip, pass its ``cross_simplex`` and the projected point ``basis @ z``.
    """
    z = np.asarray(z, dtype=complex)
    count, dim = simplex.apexes.shape
    if z.shape != (dim,):
        raise ValueError(f"point must have dimension {dim}")
    matrix = np.ones((count, count))
    matrix[:dim, :] = simplex.apexes.T
    return lu_factor(matrix, DEFAULT_TOL).solve(np.append(z, 1.0))


def _as_points(z: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    """The evaluators' one entry point: rows of finite points of C^dim, and
    whether their squared norm, one BLAS call, overflows.  It is finite only
    if every coordinate is, which is tested one by one only where it is not."""
    points = np.asarray(z, dtype=complex)
    if points.ndim == 1:
        points = points[None, :]
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(f"points must have dimension {dim}")
    if cmath.isfinite(np.vdot(points, points)):
        return points, False
    if not np.isfinite(points).all():
        raise ValueError("point coordinates must be finite")
    return points, True


def _one_point(z: np.ndarray) -> np.ndarray:
    """z, ValueError unless it is one point: of shape (d,) or (1, d)."""
    point = np.asarray(z, dtype=complex)
    if not (point.ndim == 1 or point.ndim == 2 and point.shape[0] == 1):
        raise ValueError("expected one point, of shape (d,) or (1, d)")
    return point


def _facet_values(table, points, work) -> np.ndarray:
    """|l_r(z)| = |n_r.z + b_r| of the ``table``'s R facet functions at
    checked points, (R+1, m), in the first of the ``work`` arrays: the
    products n_rc z_c added in c order, elementwise, then b_r, then the
    modulus.  Row R is the padding's and stays exactly 0.  The last M rows
    negate the first M's normals: row R-M+i is b - t, t row i's sum of
    products, its own sum but for a zero's sign, which the modulus drops."""
    (normals, offsets, _, _, mirrored), (magnitudes, values, term) = table, work[:3]
    lead = values[:-mirrored] if mirrored else values
    count = len(lead)
    np.multiply(normals[:count, :1], points[:, 0], out=lead)
    for c in range(1, normals.shape[1]):
        lead += np.multiply(normals[:count, c:c + 1], points[:, c], out=term)
    if mirrored:
        np.subtract(offsets[count:, None], lead[:mirrored], out=values[count:])
    lead += offsets[:count, None]
    np.abs(values, out=magnitudes[:-1])
    return magnitudes


def _sums(table, magnitudes, work) -> np.ndarray:
    """(S, m) barycentric magnitude sums of the ``table``'s S supports, in the
    ``work`` array for them: |l_r| / heights[j] with r = facets[j], added in
    j order, and checked against the domain band."""
    (_, _, facets, heights, _), (total, term) = table, work[3:5]
    np.divide(magnitudes.take(facets[0], axis=0, out=total, mode="clip"),
              heights[0][:, None], out=total)
    for j in range(1, facets.shape[0]):
        total += np.divide(magnitudes.take(facets[j], axis=0, out=term, mode="clip"),
                           heights[j][:, None], out=term)
    _check_domain(total)
    return total


def _chunk_points(rows: int, width: int) -> int:
    """Points a kernel pass takes against ``rows`` facet functions and
    ``width`` supports: its work arrays, rows+1 float and 2 * rows complex
    facet values and 2 * width float sums per point, fill at most _CHUNK
    bytes, besides the max rule's float and width flags per point."""
    return max(1, _CHUNK // (8 * (rows + 1) + 32 * rows + 16 * width))


def _point_sums(table, z: np.ndarray) -> np.ndarray:
    """``_sums`` at one checked point z, (S, 1), bit for bit, in numpy calls
    whose number does not grow with d: the products n_rc z_c in a
    C-contiguous (d, R) array and the quotients in a (slots, S) one, each
    added over its leading axis row by row, as the chunk kernel's loops add
    them, from each row's own normal.  numpy adds a single column (S = 1)
    pairwise, in order below 8 rows; there are at most MAX_DIM + 1 = 6."""
    normals, offsets, facets, heights = table[:4]
    products = np.multiply(normals.T, z[:, None], out=np.empty(normals.shape[::-1], complex))
    magnitudes = np.zeros(len(offsets) + 1)  # row R is the padding's 0
    np.abs(np.add(np.add.reduce(products, axis=0), offsets), out=magnitudes[:-1])
    sums = np.add.reduce(np.divide(magnitudes.take(facets), heights), axis=0)[:, None]
    _check_domain(sums)
    return sums


def _passes(table, points: np.ndarray):
    """(chunk slice, its facet magnitudes |l|, the work arrays) per pass over
    checked points against ``table``, ``_chunk_points`` points a pass, in
    work arrays the next pass overwrites, cut from three buffers allocated
    once: fresh ones per chunk had their pages faulted anew."""
    rows, width = table.normals.shape[0], table.facets.shape[1]
    step = _chunk_points(rows, width)
    size = min(step, points.shape[0])
    floats, complexes = np.zeros((rows + 2 + 2 * width, size)), np.empty((2 * rows, size), complex)
    # magnitudes (row ``rows`` the padding's 0), facet values and a term, sums
    # and a term, each point's largest sum, the max rule's flags
    work = (floats[:rows + 1], complexes[:rows], complexes[rows:2 * rows - table.mirrored],
            floats[rows + 1:rows + 1 + width], floats[rows + 1 + width:-1], floats[-1],
            np.empty((width, size), bool))
    for start in range(0, points.shape[0], step):
        chunk = points[start:start + step]
        if chunk.shape[0] < size:
            work = tuple(array[..., :chunk.shape[0]] for array in work)
        yield slice(start, start + step), _facet_values(table, chunk, work), work


def _stack_max(stack, sums, values, argmax, best=None, flags=None) -> None:
    """V_K and argmax, as ``EvalResult`` defines them, into ``values`` and
    ``argmax`` from ``sums``, one column per point and one row per stack
    entry: the arccosh of each column's largest sum, and the sorted support
    index of the first entry whose sum is (1 - _ZERO_BAND) times the largest
    or more, 0 where V = 0.  ``best`` and ``flags`` are optional work arrays."""
    best = np.maximum.reduce(sums, axis=0, out=best)
    flags = np.greater_equal(sums, np.multiply(best, 1.0 - _ZERO_BAND, out=values), out=flags)
    flags.argmax(axis=0, out=argmax)
    stack.take(argmax, out=argmax, mode="clip")
    argmax[_inv_joukowski_log_many(best, values)] = 0


def _screens(table, count: int) -> bool:
    """The module docstring's route rule; a slab stack, S = R/2, is never wide."""
    rows, width = table.normals.shape[0], table.facets.shape[1]
    return (count > _chunk_points(rows, width) and width > _WIDE * (rows + 1)
            and 8 * width * (rows + 1) <= _CHUNK)


def _screened_max(table, stack, weights, magnitudes, work, values, argmax) -> bool:
    """``_stack_max`` of a pass, bit for bit, from its bounds W @ |l| by the
    module docstring's rule, and True; or False, writing nothing, where the
    rule sends the pass to the exact route.  ``slack`` is its delta."""
    slack = 4 * (sum(table.normals.shape) + 8) * 2.0 ** -53  # R + d + 8
    bounds = np.matmul(weights, magnitudes, out=work[3])
    top = np.maximum.reduce(bounds, axis=0, out=work[5])
    if not (np.minimum.reduce(bounds, axis=None) >= (1.0 - _DOMAIN_BAND) * (1.0 + slack)
            and top.max() < math.inf):
        return False
    flags = np.greater_equal(bounds, np.multiply(top, (1.0 - _ZERO_BAND) * (1.0 - slack),
                                                 out=values), out=work[6])
    best, columns = flags.argmax(axis=0), np.arange(bounds.shape[1])
    flags[best, columns] = False
    several = np.logical_or.reduce(flags, axis=0)
    zero = np.less_equal(np.multiply(top, 1.0 + slack, out=values), 1.0 + _ZERO_BAND)
    values[zero], argmax[zero] = 0.0, 0
    one = (~(several | zero)).nonzero()[0]
    several = (several & ~zero).nonzero()[0]
    if several.size:
        part = tuple(array[..., :several.size] for array in work)
        out, index = np.empty(several.size), np.empty(several.size, dtype=np.intp)
        _stack_max(stack, _sums(table, magnitudes[:, several], part), out, index, *part[5:])
        values[several], argmax[several] = out, index
    if one.size:
        best = best[one]
        facets, heights, out = table.facets[:, best], table.heights[:, best], np.empty(one.size)
        sums = np.divide(magnitudes[facets[0], one], heights[0])
        for j in range(1, facets.shape[0]):
            sums += np.divide(magnitudes[facets[j], one], heights[j])
        clamped = _inv_joukowski_log_many(sums, out)
        values[one], argmax[one] = out, np.where(clamped, 0, stack[best])
    return True


def _evaluate(table, points, far, stack=None, values=None, argmax=None, matrix=None) -> None:
    """The evaluators' one chunk loop over ``points`` against the supports of
    the ``FacetTable`` ``table``: V and argmax over them, the ``stack``, into
    ``values`` and ``argmax``, or else every value into ``matrix``.  A call
    of one point is ``_point``'s alone.  Only ``far`` points can overflow a
    sum, and they run without numpy's overflow warnings; a pass where a sum
    overflowed is redone point by point."""
    if far:
        with np.errstate(over="ignore", invalid="ignore"):
            return _evaluate(table, points, False, stack, values, argmax, matrix)
    if points.shape[0] == 1:
        return _point(table, points[0], stack, values, argmax, matrix)
    weights = None  # W: fl(1 / height) at each support's rows; the padding row's |l| is 0
    if matrix is None and _screens(table, points.shape[0]):
        weights = np.zeros((table.facets.shape[1], table.normals.shape[0] + 1))
        weights[np.arange(weights.shape[0]), table.facets] = np.divide(1.0, table.heights)
    for chunk, magnitudes, work in _passes(table, points):
        try:
            if matrix is not None:
                _inv_joukowski_log_many(_sums(table, magnitudes, work), matrix[chunk].T)
            elif weights is None or not _screened_max(table, stack, weights, magnitudes, work,
                                                      values[chunk], argmax[chunk]):
                _stack_max(stack, _sums(table, magnitudes, work), values[chunk], argmax[chunk],
                           *work[5:])
        except _Overflow:
            for j in range(chunk.start, chunk.start + magnitudes.shape[1]):
                _point(table, points[j], stack, *[
                    None if out is None else out[j:j + 1] for out in (values, argmax, matrix)])


def _point(table, z, stack, values, argmax, matrix) -> None:
    """``_evaluate`` at one finite point z, from ``_point_sums``, bit for bit
    the chunk kernel's values but where a sum overflows.  Then z = 2^k w
    with w's largest part in [2^511, 2^512), the sum is 2^k s(w) but for
    the offsets' negligible share, and its arccosh is arccosh s(w) + k log 2."""
    try:
        sums = _point_sums(table, z)
        if matrix is None:
            _stack_max(stack, sums, values, argmax)
        else:
            _inv_joukowski_log_many(sums, matrix.T)
        return
    except _Overflow:
        k = max(max(math.frexp(x)[1] for x in z.view(float).tolist()) - 512, 0)
    scaled = _point_sums(table, z * math.ldexp(1.0, -k))
    if matrix is None:
        _stack_max(stack, scaled, values, argmax)
        values += k * math.log(2.0)
        return
    direct = _point_sums(table, z)  # the arccosh in the try overwrote ``sums``
    far, overflowed = np.empty_like(scaled), ~np.isfinite(direct)
    _inv_joukowski_log_many(scaled, far)
    direct[overflowed] = 1.0
    _inv_joukowski_log_many(direct, matrix.T)
    matrix.T[overflowed] = far[overflowed] + k * math.log(2.0)


def eval_simplex_many(support, points: np.ndarray) -> np.ndarray:
    """Values of one support, simplex or strip, for each row of ``points``:
    the kernel's sums over the support's own ``halfspaces``, the rows the
    set's facet functions hold for it, so each value is bitwise the one
    ``eval_supports_many`` gives it."""
    table = FacetTable(np.array([h.normal for h in support.halfspaces]),
                       np.array([h.offset for h in support.halfspaces]),
                       np.arange(len(support.heights), dtype=np.intp)[:, None],
                       support.heights[:, None])
    points, far = _as_points(points, table.normals.shape[1])
    values = np.empty(points.shape[0])
    _evaluate(table, points, far, matrix=values[:, None])
    return values


def eval_simplex(support, z: np.ndarray) -> float:
    """V of one support, simplex or strip, at one point of C^d: (d,) or (1, d)."""
    return float(eval_simplex_many(support, _one_point(z))[0])


def eval_supports_many(support_set: SupportSet, points: np.ndarray) -> np.ndarray:
    """Every support's value at every point, one row per point: arccosh of
    each support's own sum."""
    points, far = _as_points(points, support_set.polytope.dim)
    matrix = np.empty((points.shape[0], len(support_set)))
    _evaluate(support_set.table, points, far, matrix=matrix)
    return matrix


@dataclass(frozen=True)
class EvalResult:
    """Value of V_K at a point, and which support attains it.

    ``value`` is arccosh of the largest barycentric sum s over the set's
    evaluation stack, taken once per point.  ``argmax`` is the sorted
    support index of the first stack entry whose sum is (1 - 1e-12) s or
    more, and 0 wherever V = 0; the stack is every support unless K is
    centrally symmetric.  So argmax names a support attaining V up to the
    band: mathematical ties, such as the quad's lines x = y and x + y = 1,
    go to the lowest index, where rounding alone would move the index with
    any 1-ulp change to the arithmetic, and two supports whose sums differ
    by more than the band are never confused.  Near the real boundary of K,
    where s approaches 1, the band is wide in value: the named support's
    own value lies between V - 2e-12 cosh V / sinh(V / 2), about
    V - 4e-12 / V, and V.  At real points of K every value is exactly 0, so
    argmax is 0 there.  Every support's value, in the stack or not, is a
    row of ``eval_supports_many``.
    """

    value: float
    argmax: int


def _eval_stack(table, stack, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V_K and argmax at points from a set's ``stack_table`` and ``stack``:
    the work of ``eval_extremal_many`` and of each ``grid --jobs`` worker."""
    points, far = _as_points(points, table.normals.shape[1])
    values, argmax = np.empty(points.shape[0]), np.empty(points.shape[0], dtype=np.intp)
    _evaluate(table, points, far, stack, values, argmax)
    return values, argmax


def eval_extremal_many(support_set: SupportSet,
                       points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V_K and argmax at each point, as ``EvalResult`` defines them: only the
    evaluation stack's sums are formed, chunk by chunk."""
    if len(support_set) == 0:
        raise ValueError("support set is empty")
    return _eval_stack(support_set.stack_table, support_set.stack, points)


def eval_extremal(support_set: SupportSet, z: np.ndarray) -> EvalResult:
    """V_K(z) at one point, (d,) or (1, d): ``eval_extremal_many`` on it,
    which takes the one-point kernel, bit for bit its value in any batch."""
    values, argmax = eval_extremal_many(support_set, _one_point(z))
    return EvalResult(value=float(values[0]), argmax=int(argmax[0]))


def lundin_ball(z: np.ndarray, radius: float) -> float:
    """V of the real ball of given radius in R^d at z in C^d:
    half of log h(|z/R|^2 + |(z/R)^2 - 1|) with z^2 = sum z_i^2.  Where that
    argument overflows, ``_ball_far`` takes the value from z and R scaled by
    powers of two."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1 or not z.size:
        raise ValueError("point must be a nonempty vector")
    if not math.isfinite(radius) or not np.all(np.isfinite(z)):
        raise ValueError("radius and point coordinates must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = z / radius
    try:
        total = _ball_argument(scaled.tolist(), 1.0)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        return _ball_far(z, radius)
    return 0.5 * inv_joukowski_log(total)


def _ball_argument(components: list[complex], one: float) -> float:
    """|w|^2 + |w^2 - one| of the point w given by ``components``, with
    w^2 = sum w_i^2, each sum taken in component order."""
    square = complex(0.0)
    magnitude = 0.0
    for component in components:
        square += component * component
        magnitude += abs(component) ** 2
    return magnitude + abs(square - one)


def _ball_far(z: np.ndarray, radius: float) -> float:
    """``lundin_ball`` where z / R or the argument S overflows, or a
    subnormal R spoils numpy's division: z / R = 2^e u, with z and R scaled
    by powers of two apart.  Up to e = 500, S is formed from 2^e u; beyond,
    S = 4^e (|u|^2 + |u^2 - 4^-e|) exceeds 2^1000, and arccosh S = log 2S to
    double precision."""
    r = math.frexp(radius)[1]
    parts = np.concatenate([z.real, z.imag]).tolist()
    k = max((math.frexp(x)[1] for x in parts if x), default=r)  # z = 0: e = 0
    width, e = math.ldexp(radius, -r), k - r
    u = [complex(math.ldexp(c.real, -k), math.ldexp(c.imag, -k)) / width for c in z.tolist()]
    if e <= 500:
        w = [complex(math.ldexp(c.real, e), math.ldexp(c.imag, e)) for c in u]
        return 0.5 * inv_joukowski_log(_ball_argument(w, 1.0))
    return (0.5 * math.log(_ball_argument(u, math.ldexp(1.0, -2 * e)))
            + (e + 0.5) * math.log(2.0))


def eval_interval(a: float, b: float, t: complex) -> float:
    """Interval value at a complex point, by explicit branch selection.

    Maps [a, b] to [-1, 1], then evaluates log|s + sqrt(s^2 - 1)| picking the
    square-root branch of modulus >= 1.  Kept deliberately independent of the
    barycentric route (cmath arithmetic, product form (s-1)(s+1), branch by
    comparing moduli) so the two can serve as oracles for each other.  Where
    b - a, s or the product overflows, ``_interval_far`` takes the value from
    t, a and b scaled by powers of two.
    """
    if not (math.isfinite(a) and math.isfinite(b) and cmath.isfinite(complex(t))):
        raise ValueError("endpoints and point must be finite")
    if not b > a:
        raise ValueError("need a < b")
    s = (2.0 * complex(t) - a - b) / (b - a)
    product = (s - 1.0) * (s + 1.0)
    if math.isinf(b - a) or not cmath.isfinite(product):
        return _interval_far(a, b, complex(t))
    return _interval_value(s, product)


def _interval_value(s: complex, product: complex) -> float:
    """log|s + sqrt(s^2 - 1)| from s and s^2 - 1 = ``product``, taking the
    larger modulus of s + root and s - root."""
    root = cmath.sqrt(product)
    grown = max(abs(s + root), abs(s - root))
    return max(0.0, math.log(grown))


def _interval_far(a: float, b: float, t: complex) -> float:
    """``eval_interval`` where b - a, s = (2t - a - b) / (b - a) or s^2 - 1
    overflows: s = 2^e w, with the numerator scaled by the largest power of
    two in t, a and b and the width by that in a and b.  Beyond |s| = 2^60
    the value is log 2|s|, off by under |s|^-2 / 4 < 2^-122; below it, 2t or
    b - a alone overflowed, and s itself is formed from w."""
    k = max(math.frexp(x)[1] for x in (t.real, t.imag, a, b) if x)
    j = max(math.frexp(x)[1] for x in (a, b) if x)
    numerator = (2.0 * complex(math.ldexp(t.real, -k), math.ldexp(t.imag, -k))
                 - math.ldexp(a, -k) - math.ldexp(b, -k))
    w, e = numerator / (math.ldexp(b, -j) - math.ldexp(a, -j)), k - j
    if math.frexp(abs(w))[1] + e > 60:
        return math.log(abs(w)) + (e + 1) * math.log(2.0)
    s = complex(math.ldexp(w.real, e), math.ldexp(w.imag, e))
    return _interval_value(s, (s - 1.0) * (s + 1.0))
