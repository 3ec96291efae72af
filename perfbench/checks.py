"""Independent checks of the program's outputs, in numpy alone.

None of these calls into polyextremal, and none compares against a stored
copy of earlier output.  Each function returns a list of problems; an empty
list means the output passed.

- ``check_vertices``: the vertex set equals a numpy enumeration of every
  d-subset of the hyperplanes.
- ``check_supports``: the simplex facet tuples equal a numpy re-certification
  of every (d+1)-subset, each apex solves its d hyperplanes and lies strictly
  inside its own, and no strip is reported where numpy finds the normals
  clearly independent.
- ``lundin_values``: V_K for centrally symmetric K by the Lundin/Baran
  formula V_K(z) = max_k log|h(<n_k, z> / b_k)|, h(w) = w + sqrt(w-1)sqrt(w+1).
- ``ball_values``: V of the real ball B(0, r), used as the bounds
  V_{B(0,R)} <= V_K <= V_{B(0,1)} for tangent polytopes, where R is the
  largest vertex norm.
- ``check_values``: V = 0 exactly at real points of K, V > 0 at real points
  outside K, V finite and >= 0 everywhere.

The two formulas are compared at every point except the real points of K.
There V is exactly 0, which ``check_values`` demands, while the formulas
sit on the square-root cliff of arccosh at 1: a real point on a facet gives
|w| = 1 + 1 ulp and a formula value near 2e-8.
"""

from __future__ import annotations

import itertools

import numpy as np

from inputs import KIND_INSIDE, KIND_OUTSIDE, vertices_of

LUNDIN_TOL = 1e-12     # |V - Lundin| allowed, times max(1, |V|)
BALL_TOL = 1e-10       # slack on the ball bounds, times max(1, |V|)
# Subsets whose decision sits this close to a certification threshold may go
# either way in floating point; they are not held against the program.
UNDECIDED_DET = 1e-6
UNDECIDED_MARGIN = 1e-7
POS_ABS = 1e-9         # the documented default strict-positivity margin


def check_vertices(normals: np.ndarray, offsets: np.ndarray,
                   vertices: np.ndarray) -> list[str]:
    expected = vertices_of(normals, offsets)
    if len(expected) != len(vertices):
        return [f"{len(vertices)} vertices, numpy finds {len(expected)}"]
    unmatched = sum(1 for p in expected
                    if np.min(np.max(np.abs(vertices - p), axis=1)) > 1e-7)
    return [f"{unmatched} numpy vertices not among the program's"] if unmatched else []


def certify_simplices(normals: np.ndarray, offsets: np.ndarray):
    """Every (d+1)-subset certified in numpy.

    Returns (accepted, undecided, apexes): sets of facet tuples, and the
    apexes of each nonsingular subset by tuple.
    """
    n, d = normals.shape
    subsets = np.array(list(itertools.combinations(range(n), d + 1)))
    rows, rhs = normals[subsets], offsets[subsets]
    accepted = np.ones(len(subsets), dtype=bool)
    undecided = np.zeros(len(subsets), dtype=bool)
    apexes = np.zeros((len(subsets), d + 1, d))
    for j in range(d + 1):
        others = [k for k in range(d + 1) if k != j]
        det = np.abs(np.linalg.det(rows[:, others]))
        regular = det > 1e-12
        undecided |= regular & (det < UNDECIDED_DET)
        apexes[regular, j] = np.linalg.solve(
            rows[regular][:, others], -rhs[regular][:, others, None])[..., 0]
        margin = np.einsum("md,md->m", rows[:, j], apexes[:, j]) + rhs[:, j]
        accepted &= regular & (margin > POS_ABS)
        undecided |= regular & (np.abs(margin - POS_ABS) < UNDECIDED_MARGIN)
    keys = [tuple(int(k) for k in s) for s in subsets]
    return ({k for k, a in zip(keys, accepted) if a},
            {k for k, u in zip(keys, undecided) if u},
            {k: apexes[i] for i, k in enumerate(keys)})


def degenerate_strip_subsets(normals: np.ndarray) -> set[tuple[int, ...]]:
    """Subsets of 2..d normals that are not clearly independent: the only
    places a strip can be certified."""
    n, d = normals.shape
    out = set()
    for size in range(2, d + 1):
        subsets = np.array(list(itertools.combinations(range(n), size)))
        smallest = np.linalg.svd(normals[subsets], compute_uv=False)[:, -1]
        out.update(tuple(int(k) for k in s) for s in subsets[smallest < UNDECIDED_DET])
    return out


def check_supports(normals: np.ndarray, offsets: np.ndarray,
                   simplices: list[tuple[tuple[int, ...], np.ndarray]],
                   strips: list[tuple[int, ...]], order: list[tuple[int, ...]]) -> list[str]:
    """``simplices`` holds (facet tuple, apexes) per simplex support, ``strips``
    the facet tuples of strip supports, ``order`` every facet tuple as listed."""
    problems = []
    if order != sorted(order):
        problems.append("supports are not sorted by facet tuple")
    accepted, undecided, apexes = certify_simplices(normals, offsets)
    found = {facets for facets, _ in simplices}
    missing = (accepted - found) - undecided
    extra = (found - accepted) - undecided
    if missing or extra:
        problems.append(f"simplices: {len(missing)} missing, {len(extra)} not certifiable, "
                        f"e.g. {sorted(missing | extra)[:3]}")
    for facets, points in simplices:
        rows, rhs = normals[list(facets)], offsets[list(facets)]
        values = points @ rows.T + rhs          # values[j, k] = l_k(p_j)
        scale = 1.0 + np.max(np.abs(points))
        off_diagonal = values[~np.eye(len(facets), dtype=bool)]
        if np.max(np.abs(off_diagonal)) > 1e-9 * scale or np.min(np.diag(values)) <= 0.0:
            problems.append(f"simplex {facets}: apexes do not solve their hyperplanes")
        elif facets not in undecided and np.max(np.abs(points - apexes[facets])) > 1e-9 * scale:
            problems.append(f"simplex {facets}: apexes differ from numpy's")
    stray = set(strips) - degenerate_strip_subsets(normals)
    if stray:
        problems.append(f"{len(stray)} strips over independent normals, e.g. {sorted(stray)[:3]}")
    return problems


def _joukowski_log(w: np.ndarray) -> np.ndarray:
    """log|h(w)| with the branch of modulus >= 1."""
    return np.log(np.abs(w + np.sqrt(w - 1.0) * np.sqrt(w + 1.0)))


def lundin_values(normals: np.ndarray, offsets: np.ndarray, points: np.ndarray) -> np.ndarray:
    """V_K at each point for K = {x : |<n_k, x>| <= b_k}, given as the first
    half of exactly antipodal facet pairs."""
    half = len(normals) // 2
    if not (np.array_equal(normals[half:], -normals[:half])
            and np.array_equal(offsets[half:], offsets[:half])):
        raise ValueError("facets are not in exact antipodal pairs")
    w = (points @ normals[:half].T) / offsets[:half]
    return np.max(_joukowski_log(w), axis=1)


def ball_values(points: np.ndarray, radius: float) -> np.ndarray:
    """V of the real ball B(0, r) in R^d: (1/2) arccosh(|z|^2 + |z.z - 1|)
    for z scaled by 1/r, with z.z the complex bilinear square."""
    z = points / radius
    magnitude = np.sum(np.abs(z) ** 2, axis=1)
    square = np.sum(z * z, axis=1)
    return 0.5 * np.arccosh(np.maximum(magnitude + np.abs(square - 1.0), 1.0))


def check_lundin(normals, offsets, points, values, kinds) -> list[str]:
    keep = kinds != KIND_INSIDE
    points, values = points[keep], values[keep]
    expected = lundin_values(normals, offsets, points)
    error = np.abs(values - expected) / np.maximum(1.0, np.abs(expected))
    worst = float(np.max(error))
    return [] if worst <= LUNDIN_TOL else [f"Lundin formula off by {worst:.3e}"]


def check_ball_bounds(normals, offsets, points, values, kinds) -> list[str]:
    keep = kinds != KIND_INSIDE
    points, values = points[keep], values[keep]
    radius = float(np.max(np.linalg.norm(vertices_of(normals, offsets), axis=1)))
    lower = ball_values(points, radius)
    upper = ball_values(points, 1.0)
    slack = BALL_TOL * np.maximum(1.0, np.abs(values))
    bad = int(np.sum((values < lower - slack) | (values > upper + slack)))
    return [f"{bad} values outside the ball bounds"] if bad else []


def check_values(values: np.ndarray, kinds: np.ndarray) -> list[str]:
    problems = []
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        problems.append("values not finite and >= 0")
    inside = values[kinds == KIND_INSIDE]
    if np.any(inside != 0.0):
        problems.append(f"{int(np.sum(inside != 0.0))} real points of K with V != 0")
    outside = values[kinds == KIND_OUTSIDE]
    if np.any(outside <= 0.0):
        problems.append(f"{int(np.sum(outside <= 0.0))} real points outside K with V <= 0")
    return problems
