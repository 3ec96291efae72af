"""Dense linear algebra and a minimal linear-program facility.

Everything operates on plain numpy arrays at desk scale: dimensions stay in
single digits and constraint counts below a hundred.  The solvers are
deliberately textbook ones - partial-pivot elimination with an explicit
relative pivot threshold, modified Gram-Schmidt for ranks and orthonormal
bases, and a dense two-phase simplex method with Bland's rule.  A Chebyshev
ball takes one linear program; whether a cone {v : N v >= 0} is {0} takes
one rank and at most one more.  Rank and positivity decisions made here
drive geometric certification downstream, so the thresholds are part of the
contract: they live in one ``Tolerances`` record that callers thread
through explicitly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "LinalgError",
    "Singular",
    "ZeroSpan",
    "Infeasible",
    "LUFactors",
    "lu_factor",
    "lu_solve_many",
    "solve_real",
    "rank",
    "orthonormal_basis",
    "interior_point",
    "recession_direction",
]


class LinalgError(Exception):
    """Base class for numerical failures in this module."""


class Singular(LinalgError):
    """A pivot fell below the rank threshold; the system is treated as rank-deficient."""


class ZeroSpan(LinalgError):
    """All input vectors are numerically zero; no basis exists."""


class Infeasible(LinalgError):
    """The halfspace system has no interior ball of positive radius."""

    def __init__(self, message: str, radius: float = float("nan")):
        super().__init__(message)
        self.radius = radius


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds threaded through every geometric decision.

    rank_rel: relative pivot / rank cutoff (scaled by the data's magnitude).
    pos_abs:  strict-positivity margin for open conditions.
    geom_abs: slack allowed in containment tests.
    """

    rank_rel: float = 1e-9
    pos_abs: float = 1e-9
    geom_abs: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 < self.rank_rel < 1.0):
            raise ValueError("rank_rel must lie in (0, 1)")
        if self.pos_abs <= 0.0 or self.geom_abs <= 0.0:
            raise ValueError("pos_abs and geom_abs must be strictly positive")

    @classmethod
    def uniform(cls, eps: float) -> "Tolerances":
        return cls(rank_rel=eps, pos_abs=eps, geom_abs=eps)


DEFAULT_TOL = Tolerances()


# ---------------------------------------------------------------------------
# LU factorization and linear solves
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LUFactors:
    """Packed LU factors with partial pivoting.

    ``packed`` holds U on and above the diagonal and the unit-lower-triangular
    multipliers strictly below it; ``perm`` is the row permutation applied to
    right-hand sides.  Factors may be real while right-hand sides are complex.
    """

    packed: np.ndarray
    perm: np.ndarray

    @property
    def size(self) -> int:
        return self.packed.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b by forward then back substitution, in a fixed order,
        on Python scalars: at this size numpy's per-call cost would dominate."""
        b = np.asarray(b)
        n = self.size
        if b.shape != (n,):
            raise ValueError(f"right-hand side must have shape ({n},)")
        lu = self.packed.tolist()
        x = b[self.perm].tolist()
        for i in range(1, n):
            for j in range(i):
                x[i] -= lu[i][j] * x[j]
        for i in range(n - 1, -1, -1):
            for j in range(i + 1, n):
                x[i] -= lu[i][j] * x[j]
            x[i] /= lu[i][i]
        return np.array(x, dtype=np.promote_types(self.packed.dtype, b.dtype))


def lu_factor(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> LUFactors:
    """Factor a square matrix with partial pivoting (first largest entry of a
    column), on Python scalars in a fixed order, like ``LUFactors.solve``.

    Raises Singular when the best available pivot is at or below
    ``rank_rel`` times the largest entry of the input matrix.
    """
    a = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    threshold = tol.rank_rel * scale
    lu = a.tolist()
    perm = list(range(n))
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(lu[i][k]))
        if abs(lu[p][k]) <= threshold:
            raise Singular(f"pivot {abs(lu[p][k]):.3e} at column {k} below threshold {threshold:.3e}")
        lu[k], lu[p], perm[k], perm[p] = lu[p], lu[k], perm[p], perm[k]
        for row in lu[k + 1:]:
            row[k] /= lu[k][k]
            for c in range(k + 1, n):
                row[c] -= row[k] * lu[k][c]
    return LUFactors(packed=np.array(lu, dtype=a.dtype).reshape(n, n), perm=np.array(perm))


def lu_solve_many(a: np.ndarray, b: np.ndarray,
                  tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Solve the real systems a[m] x[m] = b[m], a of shape (M, n, n), at once.

    Each system takes the steps of ``lu_factor`` and ``LUFactors.solve`` in
    their order, one numpy operation across all M for each scalar one, so
    every solution is bitwise theirs.  Returns the solutions (M, n) and a
    mask of the nonsingular systems: False where ``lu_factor`` raises
    Singular, and that row of the solutions is NaN.
    """
    a = np.array(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or b.shape != a.shape[:2]:
        raise ValueError("expected matrices (M, n, n) and right-hand sides (M, n)")
    count, n = a.shape[:2]
    every = np.arange(count)
    threshold = tol.rank_rel * np.max(np.abs(a), axis=(1, 2), initial=0.0)
    nonsingular = np.ones(count, dtype=bool)
    perm = np.tile(np.arange(n), (count, 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            p = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
            nonsingular &= np.abs(a[every, p, k]) > threshold
            rows, order = a[every, p], perm[every, p]
            a[every, p], perm[every, p] = a[:, k], perm[:, k]
            a[:, k], perm[:, k] = rows, order
            a[:, k + 1:, k] /= a[:, k, k, None]
            a[:, k + 1:, k + 1:] -= a[:, k + 1:, k, None] * a[:, k, None, k + 1:]
        x = np.take_along_axis(b, perm, axis=1)
        for i in range(1, n):
            for j in range(i):
                x[:, i] -= a[:, i, j] * x[:, j]
        for i in range(n - 1, -1, -1):
            for j in range(i + 1, n):
                x[:, i] -= a[:, i, j] * x[:, j]
            x[:, i] /= a[:, i, i]
    x[~nonsingular] = np.nan
    return x, nonsingular


def solve_real(a: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Solve the real square system A x = b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise ValueError("right-hand side length must match the matrix")
    return lu_factor(a, tol).solve(b)


# ---------------------------------------------------------------------------
# Rank and orthonormal bases
# ---------------------------------------------------------------------------

def _orthogonalize(vectors: np.ndarray, tol: Tolerances,
                   stop: int | None = None) -> list[np.ndarray]:
    """Modified Gram-Schmidt over input order with one re-orthogonalization pass.

    Returns the accepted orthonormal vectors; a candidate is dependent (and
    skipped) when its residual drops to ``rank_rel`` times the largest input
    norm.  The second pass keeps the basis orthonormal to ~1e-15 even for
    nearly dependent inputs.  When the largest squared norm overflows or is
    not a normal float, the inputs are first scaled by the power of two
    that brings their largest entry into [0.5, 1): exact, and the basis does
    not depend on a common scale.

    ``stop`` ends the pass once that many vectors are accepted, for callers
    that only ask whether the rank reaches it.  The threshold is still taken
    over every input and no accepted vector depends on a later one, so the
    result is the first ``stop`` vectors of the full basis.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2:
        raise ValueError("expected a list of equal-length vectors")
    if vectors.size == 0:
        return []
    with np.errstate(over="ignore", under="ignore"):
        largest = float((vectors * vectors).sum(axis=1).max())
    if not sys.float_info.min <= largest < math.inf:
        vectors = np.ldexp(vectors, -np.frexp(np.max(np.abs(vectors)))[1])
        largest = float((vectors * vectors).sum(axis=1).max())
    scale = math.sqrt(largest)
    threshold = tol.rank_rel * scale
    basis: list[np.ndarray] = []
    if scale == 0.0:
        return basis
    for v in vectors:
        w = v.astype(float, copy=True)
        for _ in range(2):
            for q in basis:
                w -= np.dot(q, w) * q
        norm = float(np.sqrt(np.dot(w, w)))
        if norm > threshold:
            basis.append(w / norm)
            if len(basis) == stop:
                break
    return basis


def rank(vectors: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank of a list of real vectors.

    Threshold: ``rank_rel`` times the largest vector norm, so the answer is
    invariant under a common rescaling of the whole collection.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.size == 0:
        raise ValueError("rank of an empty collection is undefined")
    return len(_orthogonalize(vectors, tol))


def orthonormal_basis(vectors: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal rows spanning the input vectors, Gram-Schmidt over input order.

    Raises ZeroSpan when every input is numerically zero.
    """
    basis = _orthogonalize(np.asarray(vectors, dtype=float), tol)
    if not basis:
        raise ZeroSpan("input vectors span the zero subspace")
    return np.vstack(basis)


# ---------------------------------------------------------------------------
# Dense two-phase simplex with Bland's rule
# ---------------------------------------------------------------------------

_LP_EPS = 1e-11  # absolute pivot/improvement cutoff inside the tableau


class _UnboundedLP(LinalgError):
    """Internal: the LP objective is unbounded above (callers box their variables)."""


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Scale the pivot row, then eliminate ``col`` from every other row
    where it is nonzero, all those rows in one update."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    rows = np.flatnonzero(factors)
    tableau[rows] -= factors[rows, None] * tableau[row]
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                 allowed: np.ndarray) -> None:
    """Maximize ``cost`` over the tableau in place.  Bland's rule throughout:
    entering = lowest-index improving column, leaving = lowest basic index
    among the minimum-ratio rows.  Anti-cycling, so termination is guaranteed.
    """
    while True:
        reduced = cost - cost[basis] @ tableau[:, :-1]
        improving = np.flatnonzero(allowed & (reduced > _LP_EPS))
        if improving.size == 0:
            return
        entering = int(improving[0])
        column = tableau[:, entering]
        ratios = np.divide(tableau[:, -1], column, out=np.full(len(column), np.inf),
                           where=column > _LP_EPS)
        best = float(ratios.min())
        if not np.isfinite(best):
            raise _UnboundedLP("improving direction with no blocking constraint")
        ties = np.flatnonzero(ratios <= best + _LP_EPS)
        _pivot(tableau, basis, int(ties[np.argmin(basis[ties])]), entering)


def _simplex_standard(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximize c.x subject to A x <= b, x >= 0 (b of any sign)."""
    m, n = a.shape
    flip = b < 0.0
    rows = np.where(flip[:, None], -a, a)
    rhs = np.abs(b)
    slack = np.where(flip[:, None], -np.eye(m), np.eye(m))
    n_art = int(flip.sum())
    art = np.zeros((m, n_art))
    art[np.where(flip)[0], np.arange(n_art)] = 1.0
    tableau = np.hstack([rows, slack, art, rhs[:, None]])
    total = n + m + n_art

    basis = np.empty(m, dtype=int)
    art_col = n + m
    for i in range(m):
        if flip[i]:
            basis[i] = art_col
            art_col += 1
        else:
            basis[i] = n + i

    allowed = np.ones(total, dtype=bool)
    if n_art:
        phase1 = np.zeros(total)
        phase1[n + m:] = -1.0
        _run_simplex(tableau, basis, phase1, allowed)
        if -float(phase1[basis] @ tableau[:, -1]) > 1e-9 * max(1.0, float(np.max(rhs, initial=0.0))):
            raise Infeasible("phase-1 optimum positive: no feasible point")
        # Drive surviving artificials out of the basis, dropping redundant rows.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n + m:
                pivot_col = -1
                for j in range(n + m):
                    if abs(tableau[i, j]) > _LP_EPS:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(tableau, basis, i, pivot_col)
                else:
                    keep[i] = False
        if not keep.all():
            tableau = tableau[keep]
            basis = basis[keep]
        allowed[n + m:] = False

    cost = np.zeros(total)
    cost[:n] = c
    _run_simplex(tableau, basis, cost, allowed)
    x = np.zeros(total)
    x[basis] = tableau[:, -1]
    return x[:n], float(c @ x[:n])


def linprog_max(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximize c.x subject to A x <= b with x free in sign.

    Free variables are split as differences of nonnegative pairs before the
    standard-form simplex runs.  Raises Infeasible when no point satisfies the
    constraints; callers keep the feasible region bounded (box constraints),
    so an unbounded objective signals a caller bug.
    """
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    split_c = np.concatenate([c, -c])
    split_a = np.hstack([a_ub, -a_ub])
    solution, value = _simplex_standard(split_c, split_a, b_ub)
    n = c.shape[0]
    return solution[:n] - solution[n:], value


# ---------------------------------------------------------------------------
# Chebyshev center and recession directions
# ---------------------------------------------------------------------------

def _box_rows(d: int) -> np.ndarray:
    """Rows +e_0, -e_0, +e_1, -e_1, ...: with right-hand side c they bound
    every |x_i| by c."""
    rows = np.zeros((2 * d, d))
    rows[0::2] += np.eye(d)
    rows[1::2] -= np.eye(d)  # 0.0 - 0.0 keeps the zeros positive
    return rows


def interior_point(normals: np.ndarray, offsets: np.ndarray,
                   tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Chebyshev center of {x : n_k.x + b_k >= 0}: maximize r subject to
    n_k.x + b_k >= r ||n_k||.

    Returns (center, radius).  Raises Infeasible when the optimal radius is
    not strictly positive, i.e. the set is empty or lower-dimensional; the
    exception carries the signed optimal radius so callers can tell the two
    apart.  Raises ValueError when every normal has length 0, as the zero
    vector has, since then no row bounds r.  The center search is boxed at
    1e6 x the data scale, so genuinely unbounded inputs come back with a
    huge (capped) radius rather than an unbounded program; ``validate``
    rejects those with recession_direction, called after this program.
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if normals.ndim != 2 or normals.shape[0] != offsets.shape[0]:
        raise ValueError("normals must be (m, d) with matching offsets")
    m, d = normals.shape
    lengths = np.sqrt((normals * normals).sum(axis=1))
    if not lengths.any():
        raise ValueError("every normal has length 0: nothing bounds the radius")
    box = 1e6 * (1.0 + float(np.max(np.abs(offsets), initial=0.0)))
    # variables (x, r): rows  -n_k.x + ||n_k|| r <= b_k  and  +-x_i <= box
    a = np.zeros((m + 2 * d, d + 1))
    a[:m, :d] = -normals
    a[:m, d] = lengths
    a[m:, :d] = _box_rows(d)
    rhs = np.concatenate([offsets, np.full(2 * d, box)])
    c = np.zeros(d + 1)
    c[d] = 1.0
    solution, value = linprog_max(c, a, rhs)
    if value <= tol.pos_abs:
        raise Infeasible(
            f"no interior ball: optimal radius {value:.3e}", radius=value)
    return solution[:d], value


def recession_direction(normals: np.ndarray,
                        tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """A direction v != 0 with n_k.v >= 0 for all k, or None when only v = 0 works.

    The cone {v : N v >= 0} is {0} exactly when N has rank d and the maximum
    of (sum_k n_k).v over the cone inside the unit box is 0: a nonzero v of
    the cone outside ker N makes some n_k.v, and so the sum, positive.  So
    below rank d (the rule of ``rank``) the answer is a unit vector
    orthogonal to every normal, and otherwise that program's optimum when it
    exceeds ``pos_abs``.  Each normal is first divided by its largest entry,
    which leaves the cone as it is and the answer free of the normals'
    lengths: the ray {v >= 0} of the normals (1e-10,) and (2e-10,) is found.
    """
    normals = np.asarray(normals, dtype=float)
    if normals.ndim != 2 or normals.shape[0] == 0:
        raise ValueError("normals must be a nonempty (m, d) array")
    d = normals.shape[1]
    peaks = np.max(np.abs(normals), axis=1)
    rows = normals[peaks > 0.0] / peaks[peaks > 0.0, None]
    basis = np.array(_orthogonalize(rows, tol, d)).reshape(-1, d)
    if basis.shape[0] < d:
        complement = np.eye(d) - basis.T @ basis
        v = complement[np.argmax((complement * complement).sum(axis=1))]
        return v / np.sqrt(np.dot(v, v))
    rhs = np.concatenate([np.zeros(rows.shape[0]), np.ones(2 * d)])
    solution, value = linprog_max(rows.sum(axis=0), np.vstack([-rows, _box_rows(d)]), rhs)
    return solution if value > tol.pos_abs else None
