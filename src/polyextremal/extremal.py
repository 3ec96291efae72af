"""Extremal-function evaluation: simplex formula, strips, balls, the max rule.

For a simplex S with apexes p_0..p_d, the value at z in C^d is
log h(|lambda_0(z)| + ... + |lambda_d(z)|) where the lambda are barycentric
coordinates of z and h(t) = t + sqrt(t^2 - 1) inverts the Joukowski map.
S's facets are facet hyperplanes l_k(x) = n_k.x + b_k of K, and l_k vanishes
at every apex but p_k, so lambda_k(z) = l_k(z) / l_k(p_k), an affine map
certification stores as the support's ``rows`` and ``shifts``.  A strip's
rows are pulled back through Q, so one kernel evaluates every support and
no linear system is solved on the way.  The polytope value is the maximum
over the set's evaluation stack: every certified support, or for a centrally
symmetric K only the slabs between antipodal facets, which by Lundin's
formula attain it.  ``argmax`` names the first maximum over the stack by its
index in the sorted support order, and 0 where V = 0.

Numerical contract worth spelling out: barycentric magnitude sums are >= 1
in exact arithmetic, equal to 1 exactly on the real simplex.  Floating-point
noise lands on either side of 1, and arccosh has a square-root cliff there
(arccosh(1 + 1e-16) ~ 1e-8), so a band around 1 must collapse to 0 or real
interior points would evaluate to visible garbage.  Sums up to 1 + 1e-12 map
to exactly 0.0; genuine exterior points clear that band by orders of
magnitude.  Below 1 - 1e-9 raises DomainError.  In exact arithmetic no
point gets there, but roundoff can: far from the origin the rows . z and
shifts of a support are large and cancel, and the quad translated by
(1e7, 1e7) reads 0.99999999814 at an interior point.  The arccosh itself
runs on u = s - 1 (exact for s in [1, 2]) as log1p(u + sqrt(u(u+2))) to
dodge the s^2 - 1 cancellation; where u(u+2) overflows (u beyond ~1.3e154)
it is log 2 + log s, exact there to double precision.  Points must be finite:
NaN or infinite coordinates raise ValueError.

One kernel evaluates a chunk of points against a set's stacked supports at
once: a few dozen elementwise numpy calls per chunk, however many supports,
and no BLAS, so a point's values never depend on its chunk.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, lu_factor
from .supports import SimplexSupport, SupportSet

__all__ = [
    "DomainError",
    "EvalResult",
    "inv_joukowski_log",
    "barycentric",
    "eval_simplex",
    "eval_extremal",
    "eval_simplex_many",
    "eval_supports_many",
    "stack_max",
    "eval_extremal_many",
    "lundin_ball",
    "eval_interval",
]

_ZERO_BAND = 1e-12   # sums within this of 1 (above) collapse to value 0
_DOMAIN_BAND = 1e-9  # sums below 1 by more than this signal an internal bug
_CHUNK = 16_384      # point x support values per kernel pass; fastest on the benchmark


class DomainError(Exception):
    """Argument below the inverse-Joukowski domain.  Barycentric sums are >= 1
    in exact arithmetic; a sum below 1 - 1e-9 is roundoff, as in a polytope
    far from the origin, or a defect."""


def inv_joukowski_log(s: float) -> float:
    """log(s + sqrt(s^2 - 1)) = arccosh(s) for s >= 1, with the band around 1
    clamped to exactly 0: ``_inv_joukowski_log_many`` of the one value."""
    return float(_inv_joukowski_log_many(np.array([s], dtype=float), np.empty(1))[0])


def _inv_joukowski_log_many(s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """arccosh of the float array ``s``, the band around 1 clamped to 0, into
    ``out``, which has its shape; ``s`` is overwritten, so that no array of
    that size is made.  Every evaluator's arccosh, the scalar one included."""
    if np.any(s < 1.0 - _DOMAIN_BAND):
        raise DomainError(f"inverse Joukowski argument {float(np.min(s))!r} below 1")
    zero = s <= 1.0 + _ZERO_BAND
    u = np.maximum(np.subtract(s, 1.0, out=s), 0.0, out=s)
    with np.errstate(over="ignore"):
        square = np.multiply(np.add(u, 2.0, out=out), u, out=out)
    far = np.isinf(square)
    np.log1p(np.add(np.sqrt(square, out=out), u, out=out), out=out)
    if far.any():
        out[far] = math.log(2.0) + np.log(u[far])  # u == s there
    out[zero] = 0.0
    return out


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


def _as_points(z: np.ndarray, dim: int) -> np.ndarray:
    """The evaluators' one entry point: rows of finite points of C^dim."""
    points = np.asarray(z, dtype=complex)
    if points.ndim == 1:
        points = points[None, :]
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(f"points must have dimension {dim}")
    if not np.all(np.isfinite(points)):
        raise ValueError("point coordinates must be finite")
    return points


def _coordinates(rows, shifts, points, coords, term):
    """lambda_k = rows[k, 0] z_0 + ... + rows[k, d-1] z_{d-1} + shifts[k] of S
    stacked supports at checked points, into the (points, S) array ``coords``
    for each k in turn, elementwise and in that order.  The shifts are made
    complex once, as each add would make them: x becomes x + 0j."""
    shifts = shifts.astype(complex)
    for k in range(rows.shape[0]):
        np.multiply(rows[k, 0], points[:, 0, None], out=coords)
        for c in range(1, rows.shape[1]):
            coords += np.multiply(rows[k, c], points[:, c, None], out=term)
        coords += shifts[k]
        yield coords


def _values(rows, shifts, points, work) -> np.ndarray:
    """(points, S) values, written to the third of the ``work`` arrays, which
    hold at least that many rows: the magnitudes |lambda_k| added in k order,
    then the inverse Joukowski map."""
    coords, term, magnitude, total = (array[:points.shape[0]] for array in work)
    total.fill(0.0)
    for lam in _coordinates(rows, shifts, points, coords, term):
        total += np.abs(lam, out=magnitude)
    return _inv_joukowski_log_many(total, out=magnitude)


def _chunked_values(rows, shifts, points: np.ndarray):
    """(chunk slice, its (points, S) values) per pass over checked points
    against S stacked supports, at most _CHUNK point-support values a pass;
    the values sit in work arrays the next pass overwrites.  The work arrays
    are allocated once: fresh ones per chunk had their pages faulted anew."""
    width = rows.shape[2]
    step = max(1, _CHUNK // max(1, width))
    work = [np.empty((min(step, points.shape[0]), width), dtype)
            for dtype in (complex, complex, float, float)]
    for start in range(0, points.shape[0], step):
        chunk = slice(start, start + step)
        yield chunk, _values(rows, shifts, points[chunk], work)


def _value_matrix(rows, shifts, points: np.ndarray) -> np.ndarray:
    """The (points, S) values of S stacked supports, filled chunk by chunk."""
    matrix = np.empty((points.shape[0], rows.shape[2]))
    for chunk, values in _chunked_values(rows, shifts, points):
        matrix[chunk] = values
    return matrix


def eval_simplex_many(support, points: np.ndarray) -> np.ndarray:
    """Values of one support, simplex or strip, for each row of ``points``."""
    points = _as_points(points, support.rows.shape[1])
    return _value_matrix(support.rows[:, :, None], support.shifts[:, None], points)[:, 0]


def eval_simplex(support, z: np.ndarray) -> float:
    """V of one support, simplex or strip, at one point of C^d."""
    return float(eval_simplex_many(support, z)[0])


def eval_supports_many(support_set: SupportSet, points: np.ndarray) -> np.ndarray:
    """Every support's value at every point, one row per point."""
    points = _as_points(points, support_set.polytope.dim)
    return _value_matrix(support_set.rows, support_set.shifts, points)


def stack_max(support_set: SupportSet, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V_K and argmax from ``values``, one row per point and one column per
    entry of ``support_set.stack``: each row's first maximum, and the sorted
    support index of its column, 0 where the maximum is 0."""
    column = np.argmax(values, axis=1)
    best = np.take_along_axis(values, column[:, None], axis=1)[:, 0]
    argmax = support_set.stack[column]
    argmax[best == 0.0] = 0
    return best, argmax


@dataclass(frozen=True)
class EvalResult:
    """Value of V_K at a point, which support attains it, optional diagnostics.

    ``value`` is the maximum over the set's evaluation stack (``stack_max``).
    ``argmax`` is the sorted support index of the first stack entry whose
    computed value equals it, and 0 wherever V = 0.  When the stack is every
    support, as for any K that is not centrally symmetric, that is the first
    support in the sorted order attaining the maximum.  At real points of K
    every value is exactly 0, so argmax is 0 there.  Where two supports tie
    mathematically, rounding decides, and the index may move with any change
    to the arithmetic.  ``per_support`` holds every support's value, in the
    stack or not.
    """

    value: float
    argmax: int
    per_support: tuple[float, ...] | None = None


def eval_extremal_many(support_set: SupportSet,
                       points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V_K and argmax at each point, as ``EvalResult`` defines them: only the
    evaluation stack is evaluated, in chunks of its width."""
    if len(support_set) == 0:
        raise ValueError("support set is empty")
    points = _as_points(points, support_set.polytope.dim)
    best, argmax = np.empty(points.shape[0]), np.empty(points.shape[0], dtype=np.int64)
    for chunk, values in _chunked_values(support_set.stack_rows, support_set.stack_shifts, points):
        best[chunk], argmax[chunk] = stack_max(support_set, values)
    return best, argmax


def eval_extremal(support_set: SupportSet, z: np.ndarray,
                  diagnostics: bool = False) -> EvalResult:
    """V_K(z) at one point: ``eval_extremal_many`` on that point or, when
    ``diagnostics`` is set, ``stack_max`` of the stack's columns of every
    support's value, which are all reported."""
    if not diagnostics:
        values, argmax = eval_extremal_many(support_set, z)
        return EvalResult(value=float(values[0]), argmax=int(argmax[0]))
    matrix = eval_supports_many(support_set, z)
    values, argmax = stack_max(support_set, matrix[:, support_set.stack])
    return EvalResult(value=float(values[0]), argmax=int(argmax[0]),
                      per_support=tuple(matrix[0].tolist()))


def lundin_ball(z: np.ndarray, radius: float) -> float:
    """V of the real ball of given radius in R^d at z in C^d:
    half of log h(|z/R|^2 + |(z/R)^2 - 1|) with z^2 = sum z_i^2."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    z = np.asarray(z, dtype=complex)
    if not math.isfinite(radius) or not np.all(np.isfinite(z)):
        raise ValueError("radius and point coordinates must be finite")
    z = z / radius
    square = complex(0.0)
    magnitude = 0.0
    for component in z:
        square += complex(component) * complex(component)
        magnitude += abs(complex(component)) ** 2
    return 0.5 * inv_joukowski_log(magnitude + abs(square - 1.0))


def eval_interval(a: float, b: float, t: complex) -> float:
    """Interval value at a complex point, by explicit branch selection.

    Maps [a, b] to [-1, 1], then evaluates log|s + sqrt(s^2 - 1)| picking the
    square-root branch of modulus >= 1.  Kept deliberately independent of the
    barycentric route (cmath arithmetic, product form (s-1)(s+1), branch by
    comparing moduli) so the two can serve as oracles for each other.
    """
    if not (math.isfinite(a) and math.isfinite(b) and cmath.isfinite(complex(t))):
        raise ValueError("endpoints and point must be finite")
    if not b > a:
        raise ValueError("need a < b")
    s = (2.0 * complex(t) - a - b) / (b - a)
    root = cmath.sqrt((s - 1.0) * (s + 1.0))
    grown = max(abs(s + root), abs(s - root))
    return max(0.0, math.log(grown))
