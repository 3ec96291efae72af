"""Extremal-function evaluation: simplex formula, strips, balls, the max rule.

For a simplex S with apexes p_0..p_d, the value at z in C^d is
log h(|lambda_0(z)| + ... + |lambda_d(z)|) where the lambda are barycentric
coordinates of z and h(t) = t + sqrt(t^2 - 1) inverts the Joukowski map.
S's facets are facet hyperplanes l_k(x) = n_k.x + b_k of K, and l_k vanishes
at every apex but p_k, so lambda_k(z) = l_k(z) / l_k(p_k), an affine map
certification stores as the support's ``rows`` and ``shifts``.  A strip's
rows are pulled back through Q, so one kernel evaluates every support and
no linear system is solved on the way.  The polytope value is the maximum
over all certified supports, attained first in their deterministic order.

Numerical contract worth spelling out: barycentric magnitude sums are >= 1
in exact arithmetic, equal to 1 exactly on the real simplex.  Floating-point
noise lands on either side of 1, and arccosh has a square-root cliff there
(arccosh(1 + 1e-16) ~ 1e-8), so a band around 1 must collapse to 0 or real
interior points would evaluate to visible garbage.  Sums up to 1 + 1e-12 map
to exactly 0.0; genuine exterior points clear that band by orders of
magnitude.  Below 1 - 1e-9 is reported as a bug (DomainError), since no
legitimate code path can produce it.  The arccosh itself runs on u = s - 1
(exact for s in [1, 2]) as log1p(u + sqrt(u(u+2))) to dodge the s^2 - 1
cancellation; where u(u+2) overflows (u beyond ~1.3e154) it is
log 2 + log s, exact there to double precision.  Points must be finite:
NaN or infinite coordinates raise ValueError.

Batch evaluators loop over the few support dimensions and vectorize across
points with elementwise numpy only - no BLAS kernels - so values computed for
a point never depend on which chunk of a grid it sits in.
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
    "eval_extremal_many",
    "lundin_ball",
    "eval_interval",
]

_ZERO_BAND = 1e-12   # sums within this of 1 (above) collapse to value 0
_DOMAIN_BAND = 1e-9  # sums below 1 by more than this signal an internal bug


class DomainError(Exception):
    """Argument below the inverse-Joukowski domain: barycentric sums are >= 1."""


def inv_joukowski_log(s: float) -> float:
    """log(s + sqrt(s^2 - 1)) = arccosh(s) for s >= 1, with the band around 1
    clamped to exactly 0."""
    s = float(s)
    if s < 1.0 - _DOMAIN_BAND:
        raise DomainError(f"inverse Joukowski argument {s!r} below 1")
    if s <= 1.0 + _ZERO_BAND:
        return 0.0
    u = s - 1.0
    square = u * (u + 2.0)
    if math.isinf(square):
        return math.log(2.0) + math.log(s)
    return math.log1p(u + math.sqrt(square))


def _inv_joukowski_log_many(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if np.any(s < 1.0 - _DOMAIN_BAND):
        worst = float(np.min(s))
        raise DomainError(f"inverse Joukowski argument {worst!r} below 1")
    u = np.maximum(s - 1.0, 0.0)
    with np.errstate(over="ignore"):
        square = u * (u + 2.0)
    out = np.log1p(u + np.sqrt(square))
    far = np.isinf(square)
    if far.any():
        out[far] = math.log(2.0) + np.log(s[far])
    out[s <= 1.0 + _ZERO_BAND] = 0.0
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


def _coordinates(support, points: np.ndarray) -> np.ndarray:
    """lambda_k = shifts[k] + sum_c rows[k, c] z_c for checked points, one
    row per k; the sum over c runs in fixed order, elementwise."""
    rows, shifts = support.rows, support.shifts
    coords = np.empty((rows.shape[0], points.shape[0]), dtype=complex)
    for k in range(rows.shape[0]):
        column = rows[k, 0] * points[:, 0]
        for c in range(1, rows.shape[1]):
            column += rows[k, c] * points[:, c]
        coords[k] = column + shifts[k]
    return coords


def _values(support, points: np.ndarray) -> np.ndarray:
    coords = _coordinates(support, points)
    total = np.abs(coords[0])
    for k in range(1, coords.shape[0]):
        total = total + np.abs(coords[k])
    return _inv_joukowski_log_many(total)


def eval_simplex_many(support, points: np.ndarray) -> np.ndarray:
    """Values of one support, simplex or strip, for each row of ``points``."""
    return _values(support, _as_points(points, support.rows.shape[1]))


def eval_simplex(support, z: np.ndarray) -> float:
    """V of one support, simplex or strip, at one point of C^d."""
    return float(eval_simplex_many(support, z)[0])


@dataclass(frozen=True)
class EvalResult:
    """Value of V_K at a point, which support attains it, optional diagnostics."""

    value: float
    argmax: int
    per_support: tuple[float, ...] | None = None


def eval_extremal_many(support_set: SupportSet,
                       points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max over supports plus first attaining index, vectorized over points;
    ties go to the first in the sorted support order."""
    if len(support_set) == 0:
        raise ValueError("support set is empty")
    points = _as_points(points, support_set.polytope.dim)
    best = _values(support_set[0], points)
    argmax = np.zeros(points.shape[0], dtype=np.int64)
    for i in range(1, len(support_set)):
        values = _values(support_set[i], points)
        better = values > best
        best = np.where(better, values, best)
        argmax = np.where(better, i, argmax)
    return best, argmax


def eval_extremal(support_set: SupportSet, z: np.ndarray,
                  diagnostics: bool = False) -> EvalResult:
    """V_K(z) at one point: ``eval_extremal_many`` on that point, with every
    support's own value when ``diagnostics`` is set."""
    values, argmax = eval_extremal_many(support_set, z)
    per_support = None
    if diagnostics:
        per_support = tuple(eval_simplex(s, z) for s in support_set)
    return EvalResult(value=float(values[0]), argmax=int(argmax[0]),
                      per_support=per_support)


def lundin_ball(z: np.ndarray, radius: float) -> float:
    """V of the real ball of given radius in R^d at z in C^d:
    half of log h(|z/R|^2 + |(z/R)^2 - 1|) with z^2 = sum z_i^2."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    z = np.asarray(z, dtype=complex) / radius
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
    if not b > a:
        raise ValueError("need a < b")
    s = (2.0 * complex(t) - a - b) / (b - a)
    root = cmath.sqrt((s - 1.0) * (s + 1.0))
    grown = max(abs(s + root), abs(s - root))
    return max(0.0, math.log(grown))
