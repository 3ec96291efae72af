"""Shared fixtures: canonical polytopes, their support sets, and reference
formulas, among them a scalar LU and a scalar Gram-Schmidt that the batched
ones in ``linalg`` must reproduce bit for bit."""

import importlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from polyextremal import PolytopeH, SupportSet, enumerate_supports, from_json, validate
from polyextremal.linalg import DEFAULT_TOL, Singular

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def load_fixture(name: str) -> PolytopeH:
    with open(FIXTURES / f"{name}.json", encoding="utf-8") as fh:
        return from_json(json.load(fh))


def quad_reference(z1: complex, z2: complex) -> float:
    """Closed-form extremal value for the quadrilateral hull of
    (0,0), (1,0), (3/4,3/4), (0,1): the larger of the two triangle values."""
    s_a = abs(1.0 - z1 - z2 / 3.0) + abs(z1) + abs(z2 / 3.0)
    s_b = abs(1.0 - z1 / 3.0 - z2) + abs(z1 / 3.0) + abs(z2)
    return max(math.acosh(max(s_a, 1.0)), math.acosh(max(s_b, 1.0)))


def quad_reference_grid(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Vectorized quad_reference over equally shaped complex arrays."""
    s_a = np.abs(1.0 - z1 - z2 / 3.0) + np.abs(z1) + np.abs(z2 / 3.0)
    s_b = np.abs(1.0 - z1 / 3.0 - z2) + np.abs(z1 / 3.0) + np.abs(z2)
    v_a = np.arccosh(np.maximum(s_a, 1.0))
    v_b = np.arccosh(np.maximum(s_b, 1.0))
    return np.maximum(v_a, v_b)


@pytest.fixture(scope="session")
def quad() -> PolytopeH:
    return load_fixture("quad")


@pytest.fixture(scope="session")
def square() -> PolytopeH:
    return load_fixture("square")


@pytest.fixture(scope="session")
def triangle() -> PolytopeH:
    return load_fixture("triangle")


@pytest.fixture(scope="session")
def cube() -> PolytopeH:
    return load_fixture("cube")


@pytest.fixture(scope="session")
def prism() -> PolytopeH:
    return load_fixture("prism")


@pytest.fixture(scope="session")
def quad_supports(quad) -> SupportSet:
    return enumerate_supports(quad)


@pytest.fixture(scope="session")
def square_supports(square) -> SupportSet:
    return enumerate_supports(square)


@pytest.fixture(scope="session")
def triangle_supports(triangle) -> SupportSet:
    return enumerate_supports(triangle)


@pytest.fixture(scope="session")
def cube_supports(cube) -> SupportSet:
    return enumerate_supports(cube)


@pytest.fixture(scope="session")
def prism_supports(prism) -> SupportSet:
    return enumerate_supports(prism)


def match_point_sets(got: np.ndarray, expected, tol: float = 1e-9) -> bool:
    """True iff the two point collections coincide as sets within tol."""
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if got.shape != expected.shape:
        return False
    remaining = list(range(len(expected)))
    for p in got:
        hit = next(
            (i for i in remaining if np.max(np.abs(expected[i] - p)) <= tol), None
        )
        if hit is None:
            return False
        remaining.remove(hit)
    return not remaining


def tangent_halfspaces(dim, count, seed):
    """Random unit normals with offset 1: every halfspace is a facet."""
    normals = np.random.default_rng(seed).normal(size=(count, dim))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return [(list(n), 1.0) for n in normals]


def prism_polytope(dim, seed):
    """A polygon tangent to the unit circle times dim-2 intervals."""
    rng = np.random.default_rng(seed)
    sides = int(rng.integers(3, 7))
    angles = 2 * np.pi * np.arange(sides) / sides + rng.uniform(-0.2, 0.2, sides)
    halfspaces = [([math.cos(a), math.sin(a)] + [0.0] * (dim - 2), 1.0) for a in angles]
    for axis in np.eye(dim)[2:]:
        halfspaces += [(list(axis), rng.uniform(0.5, 2.0)), (list(-axis), rng.uniform(0.5, 2.0))]
    return validate(halfspaces, dim)


def cube_polytope(dim):
    return validate([(list(sign * axis), 1.0) for axis in np.eye(dim) for sign in (1, -1)],
                    dim)


def symmetric_polytope(dim, pairs, seed):
    """Random antipodal pairs of unit normals with offset 1."""
    normals = np.random.default_rng(seed).normal(size=(pairs, dim))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return validate([(list(sign * n), 1.0) for n in normals for sign in (1, -1)], dim)


def ngon_halfspaces(sides):
    """The rows of ``ngon_polytope``: each shares a coordinate with its
    mirror image across either axis."""
    half = [[math.cos(a), math.sin(a)] for a in np.arange(sides // 2) * (2 * np.pi / sides)]
    return [(n, 1.0) for n in half] + [([-x for x in n], 1.0) for n in half]


def ngon_polytope(sides):
    """The regular polygon (sides even) of inradius 1 whose opposite normals
    are exactly antiparallel, so each pair bounds a strip."""
    return validate(ngon_halfspaces(sides), 2)


def corner_cut_hexagon(cuts, shift=(0.0, 0.0)):
    """The triangle n_k.x + 1 >= 0, n_k at 90, 210 and 330 degrees, with its
    corners cut by -n_k.x + c_k >= 0, then translated by ``shift``.  Every
    side has a parallel partner; a centre c solves c_k = 1 + 2 n_k.c, which
    it does exactly when the cuts sum to 3."""
    normals = [np.array([math.cos(a), math.sin(a)]) for a in np.radians([90, 210, 330])]
    halfspaces = [(n, 1.0) for n in normals] + [(-n, c) for n, c in zip(normals, cuts)]
    shift = np.array(shift)
    return validate([(n, b - float(n @ shift)) for n, b in halfspaces], 2)


def tilted_prism(seed):
    """A triangular prism whose side normals leave their plane by 1e-11..1e-9,
    turned by a random rotation: the three sides are nearly, not exactly,
    dependent."""
    rng = np.random.default_rng(seed)
    angles = 2 * np.pi * np.arange(3) / 3 + rng.uniform(-0.3, 0.3, 3)
    tilts = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-11, -9, 3)
    sides = np.column_stack([np.cos(angles), np.sin(angles), tilts])
    normals = np.vstack([sides, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    offsets = [1.0, 1.0, 1.0, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)]
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    return validate([(list(n), b) for n, b in zip(normals @ q.T, offsets)], 3)


# Polytopes with simplices, strips, slabs and near-dependent normals, d = 2..5.
KERNEL_CASES = {
    **{name: lambda name=name: load_fixture(name) for name in (
        "quad", "square", "triangle", "cube", "prism", "quad_vertices")},
    **{f"prism-d{dim}": lambda dim=dim: prism_polytope(dim, dim) for dim in (2, 3, 4, 5)},
    **{f"cube-d{dim}": lambda dim=dim: cube_polytope(dim) for dim in (2, 3, 4, 5)},
    **{f"tangent-d{dim}": lambda dim=dim: validate(tangent_halfspaces(dim, dim + 6, 0), dim)
       for dim in (2, 3, 4)},
    **{f"symmetric-d{dim}": lambda dim=dim: symmetric_polytope(dim, dim + 3, dim)
       for dim in (2, 3, 4)},
    "ngon-24": lambda: ngon_polytope(24),
    **{f"tilted-{seed}": lambda seed=seed: tilted_prism(seed) for seed in (1, 7)},
}


def case_polytopes(monkeypatch, case: str) -> list:
    """A ``KERNEL_CASES`` polytope or a fixture by name, a tilted prism,
    ``tilted-seed``, or the members of a benchmark workload at a seed,
    ``workload-seed``."""
    if case in KERNEL_CASES:
        return [KERNEL_CASES[case]()]
    if case.startswith("tilted-"):
        return [tilted_prism(int(case.removeprefix("tilted-")))]
    if "-" not in case:
        return [load_fixture(case)]
    workload, seed = case.rsplit("-", 1)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    members = importlib.import_module("inputs").make_inputs(workload, int(seed)).members
    return [validate(member.halfspaces(), member.dim) for member in members]


def lu_factor_by_columns(a, tol=DEFAULT_TOL):
    """Partial-pivot LU with numpy operations on whole columns (the first
    largest entry of a column pivots): the reference ``lu_factor`` must
    reproduce bit for bit, Singular message included."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    threshold = tol.rank_rel * float(np.max(np.abs(a), initial=0.0))
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) <= threshold:
            raise Singular(f"pivot {abs(a[p, k]):.3e} at column {k} below threshold {threshold:.3e}")
        a[[k, p]] = a[[p, k]]
        perm[[k, p]] = perm[[p, k]]
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= a[k + 1:, k, None] * a[k, k + 1:]
    return a, perm


def lu_solve_by_columns(a, b, tol=DEFAULT_TOL):
    """``lu_factor_by_columns``, then forward and back substitution on
    Python floats, one multiply and one subtract per entry, in a fixed
    order: the reference for every real solve."""
    packed, perm = lu_factor_by_columns(a, tol)
    n = len(perm)
    lu, x = packed.tolist(), np.asarray(b, dtype=float)[perm].tolist()
    for i in range(1, n):
        for j in range(i):
            x[i] -= lu[i][j] * x[j]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            x[i] -= lu[i][j] * x[j]
        x[i] /= lu[i][i]
    return np.array(x, dtype=float)


def singular_subsets(halfspaces, dim):
    """Whether ``lu_factor_by_columns`` raises Singular on the normals of
    each d-subset of ``halfspaces``, in combinations order."""
    flags = []
    for subset in itertools.combinations(range(len(halfspaces)), dim):
        try:
            lu_factor_by_columns(np.vstack([halfspaces[k].normal for k in subset]))
        except Singular:
            flags.append(True)
        else:
            flags.append(False)
    return flags


def gram_schmidt(vectors, tol=DEFAULT_TOL, stop=None):
    """Modified Gram-Schmidt over input order with one re-orthogonalization
    pass, one vector at a time: the list of accepted orthonormal vectors.

    A candidate is skipped when its residual drops to ``rank_rel`` times the
    largest input norm; when that norm's square overflows or is not a
    normal float, the inputs are first scaled by the power of two that
    brings their largest entry into [0.5, 1).  ``stop`` ends the pass once
    that many vectors are accepted."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.size == 0:
        return []
    with np.errstate(over="ignore", under="ignore"):
        largest = float((vectors * vectors).sum(axis=1).max())
    if not sys.float_info.min <= largest < math.inf:
        vectors = np.ldexp(vectors, -np.frexp(np.max(np.abs(vectors)))[1])
        largest = float((vectors * vectors).sum(axis=1).max())
    scale = math.sqrt(largest)
    threshold = tol.rank_rel * scale
    basis = []
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
