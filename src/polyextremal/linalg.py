"""Dense linear algebra and a minimal linear-program facility.

Everything operates on plain numpy arrays at desk scale: dimensions stay in
single digits and constraint counts below a hundred.  The solvers are
deliberately textbook ones - partial-pivot elimination with an explicit
relative pivot threshold, modified Gram-Schmidt for ranks and orthonormal
bases, and a dense simplex method with Bland's rule, run in one phase from a
feasible start.  There is one LU and one Gram-Schmidt, each run on a whole
batch of small problems in lockstep; a single system or stack is a batch of
one.  A Chebyshev ball takes one linear program; whether a cone
{v : N v >= 0} is {0} takes one rank and at most one more.  Rank and
positivity decisions made here drive geometric certification downstream, so
the thresholds are part of the contract: they live in one ``Tolerances``
record that callers thread through explicitly.
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
        if not (0.0 < self.pos_abs < math.inf and 0.0 < self.geom_abs < math.inf):
            raise ValueError("pos_abs and geom_abs must be finite and strictly positive")

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

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b by forward then back substitution."""
        b = np.asarray(b)
        if b.shape != self.perm.shape:
            raise ValueError(f"right-hand side must have shape {self.perm.shape}")
        return _substitute_many(self.packed[None], self.perm[None], b[None])[0]


def _factor_many(a: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor the matrices a (M, n, n) in place with partial pivoting (the
    first largest entry of a column), one numpy operation across all M for
    each step.  Returns the packed factors ``a``, the permutations (M, n)
    and each matrix's threshold, ``rank_rel`` times its largest entry.  A
    pivot at or below it is singular; elimination goes on past it, but the
    packed diagonal keeps every pivot as it was chosen."""
    count, n = a.shape[:2]
    every = np.arange(count)
    threshold = tol.rank_rel * np.max(np.abs(a), axis=(1, 2), initial=0.0)
    perm = np.arange(n)[None].repeat(count, axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n - 1):  # the last column has no choice of pivot and nothing below it
            p = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
            rows, order = a[every, p], perm[every, p]
            a[every, p], perm[every, p] = a[:, k], perm[:, k]
            a[:, k], perm[:, k] = rows, order
            a[:, k + 1:, k] /= a[:, k, k, None]
            a[:, k + 1:, k + 1:] -= a[:, k + 1:, k, None] * a[:, k, None, k + 1:]
    return a, perm, threshold


def _substitute_many(packed: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward then back substitution of the right-hand sides b (M, n)
    through the factors of ``_factor_many``, in a fixed order."""
    n = packed.shape[1]
    x = b[np.arange(len(b))[:, None], perm].astype(np.result_type(packed, b), copy=False)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, n):
            for j in range(i):
                x[:, i] -= packed[:, i, j] * x[:, j]
        for i in range(n - 1, -1, -1):
            for j in range(i + 1, n):
                x[:, i] -= packed[:, i, j] * x[:, j]
            x[:, i] /= packed[:, i, i]
    return x


def lu_factor(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> LUFactors:
    """Factor a square matrix with partial pivoting, ``_factor_many`` of one.

    Raises Singular when the best available pivot is at or below
    ``rank_rel`` times the largest entry of the input matrix.
    """
    a = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    (packed,), (perm,), (threshold,) = _factor_many(a[None], tol)
    pivots = np.abs(np.diagonal(packed))
    if not np.all(pivots > threshold):
        k = int(np.argmin(pivots > threshold))
        raise Singular(f"pivot {pivots[k]:.3e} at column {k} below threshold {threshold:.3e}")
    return LUFactors(packed=packed, perm=perm)


def lu_solve_many(a: np.ndarray, b: np.ndarray,
                  tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Solve the real systems a[m] x[m] = b[m], a of shape (M, n, n), at once.

    Returns the solutions (M, n) and a mask of the nonsingular systems:
    False where ``lu_factor`` raises Singular, and that row of the
    solutions is NaN.
    """
    a = np.array(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or b.shape != a.shape[:2]:
        raise ValueError("expected matrices (M, n, n) and right-hand sides (M, n)")
    packed, perm, threshold = _factor_many(a, tol)
    nonsingular = np.all(np.abs(np.diagonal(packed, axis1=1, axis2=2)) > threshold[:, None], axis=1)
    x = _substitute_many(packed, perm, b)
    x[~nonsingular] = np.nan
    return x, nonsingular


def solve_real(a: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Solve the real square system A x = b."""
    return lu_factor(np.asarray(a, dtype=float), tol).solve(np.asarray(b, dtype=float))


# ---------------------------------------------------------------------------
# Rank and orthonormal bases
# ---------------------------------------------------------------------------

def _orthogonalize_many(vectors: np.ndarray, tol: Tolerances,
                        stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt over input order with one re-orthogonalization
    pass, of each stack of ``vectors`` (C, m, d) in lockstep.

    Returns slots (C, m, d) and a mask (C, m) of the accepted vectors: slot
    i holds the basis vector made from input i, or zeros where it was
    skipped, as dependent: its residual dropped to ``rank_rel`` times the
    largest input norm of its stack.  The second pass keeps the basis
    orthonormal to ~1e-15 for nearly dependent inputs.  A stack whose
    largest squared norm overflows or is not a normal float is first scaled
    by the power of two that brings its largest entry into [0.5, 1): exact,
    so the basis does not depend on a common scale.  Dot products are
    stacked (1, d) @ (d, 1) products, which take ``np.dot``'s route, and a
    zero slot projects as +0.0 times zeros, leaving residuals as they are:
    zero-padding a stack keeps its basis.

    ``stop`` caps each stack at that many vectors, for callers that ask only
    whether the rank reaches it, and ends the pass once every stack has
    them.  The threshold still covers every input and no accepted vector
    depends on a later one, so each stack keeps its full basis' first
    ``stop`` vectors.
    """
    vectors = np.array(vectors, dtype=float)
    if vectors.ndim != 3:
        raise ValueError("expected stacks of equal-length vectors")
    count, m, d = vectors.shape
    stop = m if stop is None else stop
    with np.errstate(over="ignore", under="ignore"):
        largest = (vectors * vectors).sum(axis=2).max(axis=1, initial=0.0)
        rescale = (largest < sys.float_info.min) | (largest == math.inf)
        if rescale.any():
            peaks = np.max(np.abs(vectors[rescale]), axis=(1, 2), initial=0.0)
            scaled = np.ldexp(vectors[rescale], -np.frexp(peaks)[1][:, None, None])
            vectors[rescale] = scaled
            largest[rescale] = (scaled * scaled).sum(axis=2).max(axis=1, initial=0.0)
    threshold = tol.rank_rel * np.sqrt(largest)
    slots = np.zeros((count, m, d))
    accepted = np.zeros((count, m), dtype=bool)
    found = np.zeros(count, dtype=np.intp)
    for i in range(m):
        if stop < m and found.min(initial=stop) >= stop:
            break
        w = vectors[:, i, :, None].copy()
        for _ in range(2):
            for k in range(i):
                w -= np.matmul(slots[:, k, None, :], w) * slots[:, k, :, None]
        norm = np.sqrt(np.matmul(w.transpose(0, 2, 1), w))
        accepted[:, i] = (norm[:, 0, 0] > threshold) & (found < stop)
        found += accepted[:, i]
        np.divide(w[..., 0], norm[:, 0], out=slots[:, i], where=accepted[:, i, None])
    return slots, accepted


def rank(vectors: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank of a list of real vectors.

    Threshold: ``rank_rel`` times the largest vector norm, so the answer is
    invariant under a common rescaling of the whole collection.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.size == 0:
        raise ValueError("rank of an empty collection is undefined")
    return int(np.count_nonzero(_orthogonalize_many(vectors[None], tol)[1]))


def orthonormal_basis(vectors: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal rows spanning the input vectors, Gram-Schmidt over input order.

    Raises ZeroSpan when every input is numerically zero.
    """
    slots, accepted = _orthogonalize_many(np.asarray(vectors, dtype=float)[None], tol)
    if not accepted.any():
        raise ZeroSpan("input vectors span the zero subspace")
    return slots[0][accepted[0]]


# ---------------------------------------------------------------------------
# Dense simplex with Bland's rule, from the feasible origin
# ---------------------------------------------------------------------------

_LP_EPS = 1e-11  # absolute pivot/improvement cutoff inside the tableau


class _UnboundedLP(LinalgError):
    """Internal: the LP objective is unbounded above (callers box their variables)."""


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Scale the pivot row, then eliminate ``col`` from every other row
    where it is nonzero, all those rows in one masked update."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col, None].copy()
    factors[row] = 0.0
    np.subtract(tableau, factors * tableau[row], out=tableau, where=factors != 0.0)
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> None:
    """Maximize ``cost`` over the tableau in place.  Bland's rule throughout:
    entering = lowest-index improving column, leaving = lowest basic index
    among the minimum-ratio rows.  Anti-cycling, so termination is guaranteed.
    Rows that do not bound the entering column keep ratio inf in the one
    buffer, and rows that do not tie are masked out of the basis' argmin
    with an index no basic variable has.
    """
    rhs, ratios, untied = tableau[:, -1], np.empty(len(tableau)), len(cost)
    while True:
        reduced = cost - cost[basis] @ tableau[:, :-1]
        improving = reduced > _LP_EPS
        entering = int(improving.argmax())
        if not improving[entering]:
            return
        column = tableau[:, entering]
        ratios.fill(math.inf)
        np.divide(rhs, column, out=ratios, where=column > _LP_EPS)
        best = float(ratios.min())
        if not abs(best) < math.inf:  # inf or NaN
            raise _UnboundedLP("improving direction with no blocking constraint")
        row = int(np.where(ratios <= best + _LP_EPS, basis, untied).argmin())
        _pivot(tableau, basis, row, entering)


def linprog_max(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximize c.x subject to A x <= b with x free in sign, where b >= 0.

    The origin is feasible, so one simplex phase runs, from the slack basis,
    with each free variable split as the difference of a nonnegative pair.
    Raises ValueError when some b is negative (or NaN); callers keep the
    feasible region bounded (box constraints), so an unbounded objective
    signals a caller bug.
    """
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    if not np.all(b_ub >= 0.0):
        raise ValueError("right-hand sides must be nonnegative: the origin must be feasible")
    m, n = a_ub.shape
    split_c = np.concatenate([c, -c])
    # [A | -A | I | b] on the slack basis; b + 0.0 turns -0.0 into +0.0, so no x comes out -0.0
    tableau = np.hstack([a_ub, -a_ub, np.eye(m), b_ub[:, None] + 0.0])
    basis = np.arange(2 * n, 2 * n + m)
    cost = np.concatenate([split_c, np.zeros(m)])
    _run_simplex(tableau, basis, cost)
    x = np.zeros(2 * n + m)
    x[basis] = tableau[:, -1]
    return x[:n] - x[n:2 * n], float(split_c @ x[:2 * n])


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
    apart, or NaN when a zero normal has a negative offset.  Raises
    ValueError when every normal has length 0, as the zero vector has, since
    then no row bounds r.

    The program is solved from a feasible start, for x = x0 + y and
    r = floor + s: x0 is the origin when every offset is >= 0 and otherwise
    the least-squares point of n_k.x = -b_k, and floor is the least
    l_k(x0) / ||n_k|| (or 0).  The search is boxed at 1e6 x the data scale
    about x0, so genuinely unbounded inputs come back with a huge (capped)
    radius rather than an unbounded program; ``validate`` rejects those with
    recession_direction, called after this program.
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if normals.ndim != 2 or normals.shape[0] != offsets.shape[0]:
        raise ValueError("normals must be (m, d) with matching offsets")
    if not (np.all(np.isfinite(normals)) and np.all(np.isfinite(offsets))):
        raise ValueError("normals and offsets must be finite")
    m, d = normals.shape
    lengths = np.sqrt((normals * normals).sum(axis=1))
    if not lengths.any():
        raise ValueError("every normal has length 0: nothing bounds the radius")
    if np.any(offsets[lengths == 0.0] < 0.0):
        raise Infeasible("a normal of length 0 with a negative offset: no feasible point")
    x0, values = np.zeros(d), offsets
    if not np.all(offsets >= 0.0):
        from fractions import Fraction  # here, not at start-up, which it would slow by ~4 ms
        x0 = np.linalg.lstsq(normals, -offsets, rcond=None)[0]
        # each l_k(x0) from exact products, rounded once: no cancellation at the offsets' scale
        values = np.array([float(Fraction(b) + sum(Fraction(v) * Fraction(w)
                                                   for v, w in zip(n, x0)))
                           for n, b in zip(normals, offsets)])
    floor = min(0.0, float(np.min(values[lengths > 0.0] / lengths[lengths > 0.0])))
    box = 1e6 * (1.0 + float(np.max(np.abs(offsets), initial=0.0)))
    # variables (y, s): rows  -n_k.y + ||n_k|| s <= l_k(x0) - ||n_k|| floor  and  +-y_i <= box
    a = np.zeros((m + 2 * d, d + 1))
    a[:m, :d] = -normals
    a[:m, d] = lengths
    a[m:, :d] = _box_rows(d)
    rhs = np.concatenate([np.maximum(values - lengths * floor, 0.0), np.full(2 * d, box)])
    solution, value = linprog_max(np.eye(d + 1)[d], a, rhs)
    radius = floor + value
    if radius <= tol.pos_abs:
        raise Infeasible(f"no interior ball: optimal radius {radius:.3e}", radius=radius)
    return x0 + solution[:d], radius


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
    slots, accepted = _orthogonalize_many(rows[None], tol, d)
    basis = slots[0][accepted[0]]
    if basis.shape[0] < d:
        complement = np.eye(d) - basis.T @ basis
        v = complement[np.argmax((complement * complement).sum(axis=1))]
        return v / np.sqrt(np.dot(v, v))
    rhs = np.concatenate([np.zeros(rows.shape[0]), np.ones(2 * d)])
    solution, value = linprog_max(rows.sum(axis=0), np.vstack([-rows, _box_rows(d)]), rhs)
    return solution if value > tol.pos_abs else None
