"""Tests for dense solves, rank, orthonormal bases, and the small LP facility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyextremal import linalg, polytope
from polyextremal.linalg import (
    DEFAULT_TOL,
    Infeasible,
    Singular,
    Tolerances,
    ZeroSpan,
    _orthogonalize_many,
    interior_point,
    linprog_max,
    lu_factor,
    lu_solve_many,
    orthonormal_basis,
    rank,
    recession_direction,
    solve_real,
)
from polyextremal.polytope import PolytopeError, validate

from conftest import gram_schmidt, lu_factor_by_columns, lu_solve_by_columns, tangent_halfspaces

QUAD_NORMALS = np.array([[1.0, 0.0], [0.0, 1.0], [-3.0, -1.0], [-1.0, -3.0]])


def test_tolerances_defaults():
    assert DEFAULT_TOL.rank_rel == 1e-9
    assert DEFAULT_TOL.pos_abs == 1e-9
    assert DEFAULT_TOL.geom_abs == 1e-9


def test_tolerances_uniform():
    tol = Tolerances.uniform(1e-6)
    assert tol.rank_rel == tol.pos_abs == tol.geom_abs == 1e-6


def test_tolerances_rejects_nonpositive():
    """Every threshold must be finite and strictly positive: a NaN margin
    would pass every ``<= pos_abs`` screen."""
    with pytest.raises(ValueError):
        Tolerances(rank_rel=0.0, pos_abs=1e-9, geom_abs=1e-9)
    with pytest.raises(ValueError):
        Tolerances(rank_rel=2.0, pos_abs=1e-9, geom_abs=1e-9)
    for field in ("rank_rel", "pos_abs", "geom_abs"):
        for bad in (math.nan, math.inf, -math.inf, 0.0, -1e-9):
            with pytest.raises(ValueError):
                Tolerances(**{field: bad})


def test_solve_real_identity():
    x = solve_real(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(x, np.array([1.0, 2.0, 3.0]))


def test_solve_real_lower_triangular():
    a = np.array([[1.0, 0.0], [3.0, 1.0]])
    x = solve_real(a, np.array([1.0, 0.0]))
    assert np.allclose(x, [1.0, -3.0], atol=1e-14)


def test_solve_real_singular():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(Singular):
        solve_real(a, np.array([1.0, 1.0]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_solve_round_trip_real(n):
    rng = np.random.default_rng(100 + n)
    a = rng.normal(size=(n, n)) + n * np.eye(n)
    x = rng.normal(size=n)
    got = solve_real(a, a @ x)
    assert np.max(np.abs(got - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_solve_round_trip_complex(n):
    rng = np.random.default_rng(200 + n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2 * n * np.eye(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    got = lu_factor(a).solve(a @ x)
    assert np.max(np.abs(got - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))


def test_lu_factor_matches_column_reference_bitwise():
    rng = np.random.default_rng(7)
    singular = 0
    for trial in range(600):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n))
        if trial % 2:
            a[rng.random((n, n)) < 0.4] = 0.0
        if trial % 5 == 0:
            a[:, 0] = np.sign(a[:, 0])  # ties for the first pivot
        try:
            packed, perm = lu_factor_by_columns(a)
        except Singular as exc:
            with pytest.raises(Singular) as raised:
                lu_factor(a)
            assert str(raised.value) == str(exc)
            singular += 1
            continue
        factors = lu_factor(a)
        assert factors.packed.tobytes() == packed.tobytes()
        assert factors.perm.tobytes() == perm.tobytes()
        assert factors.packed.dtype == packed.dtype and factors.perm.dtype == perm.dtype
    assert 0 < singular < 300


def _lu_batch_cases():
    """Square systems of sizes 1..5 meant to trip a batched LU up: random
    ones, sparse ones, exact pivot ties, permuted identity rows, exactly
    singular ones, and pivots just above and just below the threshold."""
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        cases = []
        for trial in range(120):
            a = rng.normal(size=(n, n))
            if trial % 3 == 1:
                a[rng.random((n, n)) < 0.4] = 0.0
            cases.append(a)
        for _ in range(20):
            a = rng.normal(size=(n, n))
            a[:, 0] = np.sign(a[:, 0])                   # ties for the first pivot
            cases.append(a)
            tie = rng.normal(size=(n, n))
            tie[:, -1] = rng.choice([-2.0, 2.0], n)      # ties in the last column
            cases.append(tie)
            cases.append(np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], (n, 1)))
        for _ in range(20):
            a = rng.normal(size=(n, n))
            a[-1] = rng.normal(size=n - 1) @ a[:-1]      # exactly dependent (zero at n = 1)
            cases.append(a)
            cases.append(np.zeros((n, n)))
        for _ in range(10):
            top = np.triu(rng.normal(size=(n, n)))
            top[n - 1, n - 1] = 0.0
            scale = float(np.max(np.abs(top))) if n > 1 else 1.0
            for factor in (1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0, 0.5):
                # elimination leaves the last pivot untouched: it sits just
                # below, at, or just above rank_rel times the largest entry
                a = top.copy()
                a[n - 1, n - 1] = DEFAULT_TOL.rank_rel * scale * factor
                if n > 1:
                    a = a[rng.permutation(n)]
                cases.append(a)
        yield n, np.array(cases), rng.normal(size=(len(cases), n))


@pytest.mark.parametrize("n,matrices,rhs", list(_lu_batch_cases()))
def test_lu_solve_many_matches_lu_factor_bitwise(n, matrices, rhs):
    """Each solution is the scalar reference's bit for bit, and so is
    ``lu_factor(a).solve(b)``; the mask is False exactly where the reference
    raises Singular, and so does ``lu_factor``, with its message."""
    solutions, nonsingular = lu_solve_many(matrices, rhs)
    assert solutions.shape == rhs.shape and nonsingular.shape == (len(matrices),)
    singular = 0
    for a, b, x, ok in zip(matrices, rhs, solutions, nonsingular):
        try:
            expected = lu_solve_by_columns(a, b)
        except Singular as exc:
            assert not ok
            assert np.all(np.isnan(x))
            with pytest.raises(Singular) as raised:
                lu_factor(a)
            assert str(raised.value) == str(exc)
            singular += 1
            continue
        assert ok
        assert x.tobytes() == expected.tobytes()
        assert lu_factor(a).solve(b).tobytes() == expected.tobytes()
    assert 0 < singular < len(matrices)


def test_lu_solve_many_threshold_is_per_matrix():
    """A tiny matrix in the batch is judged against its own largest entry,
    not the batch's."""
    small = 1e-12 * np.array([[2.0, 1.0], [1.0, 3.0]])
    large = np.array([[1e6, 0.0], [0.0, 1e-5]])
    solutions, nonsingular = lu_solve_many(np.array([small, large]), np.ones((2, 2)))
    assert nonsingular.tolist() == [True, False]
    assert solutions[0].tobytes() == lu_solve_by_columns(small, np.ones(2)).tobytes()
    with pytest.raises(Singular):
        lu_factor(large)


def test_lu_solve_many_empty_batch():
    solutions, nonsingular = lu_solve_many(np.empty((0, 3, 3)), np.empty((0, 3)))
    assert solutions.shape == (0, 3) and nonsingular.shape == (0,)


def test_solve_matches_numpy_oracle():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n))
        if abs(np.linalg.det(a)) < 1e-3:
            continue
        b = rng.normal(size=n)
        assert np.allclose(solve_real(a, b), np.linalg.solve(a, b), atol=1e-9)


def test_rank_examples():
    assert rank(np.array([[1.0, 0.0], [0.0, 1.0]])) == 2
    assert rank(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])) == 1
    assert rank(QUAD_NORMALS) == 2


@given(
    perm=st.permutations(range(4)),
    scales=st.lists(
        st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=4, max_size=4
    ),
)
@settings(max_examples=60)
def test_rank_invariant_under_scaling_and_permutation(perm, scales):
    base = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 3.0, 1.0], [2.0, 4.0, 0.0]])
    expected = rank(base)
    shuffled = base[list(perm)] * np.asarray(scales, dtype=float)[:, None]
    assert rank(shuffled) == expected


@pytest.mark.parametrize("scale", [1e160, 1e300, 1e-170, 5e-324])
def test_rank_of_huge_and_tiny_vectors(scale):
    """Squared norms that overflow or are not normal floats are rescaled by a
    power of two first: the rank and basis are those of the unscaled pair."""
    vectors = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert rank(scale * vectors) == 2
    assert orthonormal_basis(scale * vectors).tobytes() == orthonormal_basis(vectors).tobytes()


def test_orthonormal_basis_single_vector():
    q = orthonormal_basis(np.array([[2.0, 0.0, 0.0]]))
    assert q.shape == (1, 3)
    assert np.allclose(q, [[1.0, 0.0, 0.0]], atol=1e-14)


def test_orthonormal_basis_plane():
    vectors = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
    q = orthonormal_basis(vectors)
    assert q.shape == (2, 3)
    assert np.max(np.abs(q @ q.T - np.eye(2))) <= 1e-12
    for v in vectors:
        assert np.linalg.norm(q.T @ (q @ v) - v) <= 1e-10 * np.linalg.norm(v)
    assert np.max(np.abs(q[:, 2])) <= 1e-14


def test_orthonormal_basis_skips_dependent_vectors():
    q = orthonormal_basis(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
    assert q.shape == (2, 2)
    assert np.allclose(q, np.eye(2), atol=1e-14)


def test_orthonormal_basis_zero_span():
    with pytest.raises(ZeroSpan):
        orthonormal_basis(np.array([[0.0, 0.0, 0.0]]))


def test_interior_point_unit_square():
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    offsets = np.ones(4)
    center, radius = interior_point(normals, offsets)
    assert np.allclose(center, [0.0, 0.0], atol=1e-9)
    assert math.isclose(radius, 1.0, abs_tol=1e-9)


def test_interior_point_degenerate_slab():
    normals = np.array([[1.0, 0.0], [-1.0, 0.0]])
    offsets = np.zeros(2)
    with pytest.raises(Infeasible) as exc:
        interior_point(normals, offsets)
    assert abs(exc.value.radius) <= 1e-9


@pytest.mark.parametrize("normals", [[[0.0]], [[0.0, 0.0], [0.0, -0.0]], [[1e-200, 0.0]]])
def test_interior_point_rejects_zero_normals(normals):
    """With every normal of length 0 (at d = 1 and 2, and where the square of
    a length underflows) no row bounds the radius: a ValueError, not the
    simplex's private unbounded-program exception."""
    with pytest.raises(ValueError, match="length 0"):
        interior_point(normals, np.ones(len(normals)))


def test_interior_point_matches_highs_where_the_origin_is_outside():
    """Seeded polytopes with rescaled normals, scaled by s and moved by t with
    |t| / s up to 1e6, so some offset is negative: the program about the
    least-squares point x0 reaches HiGHS' radius to 1e-9 relative, and its
    centre carries that ball inside K."""
    from scipy.optimize import linprog as scipy_linprog

    rng = np.random.default_rng(1717)
    checked = 0
    while checked < 40:
        d = int(rng.integers(1, 6))
        normals = np.array([h[0] for h in tangent_halfspaces(d, 3 * d + 2, int(rng.integers(1 << 30)))])
        if recession_direction(normals) is not None:
            continue
        scale = 10.0 ** rng.uniform(-3, 3)
        shift = scale * 10.0 ** rng.uniform(0, 6) * rng.normal(size=d)
        normals *= 10.0 ** rng.uniform(-2, 2, size=(len(normals), 1))
        lengths = np.linalg.norm(normals, axis=1)
        offsets = scale * lengths - normals @ shift
        if np.all(offsets >= 0.0):
            continue
        ref = scipy_linprog(-np.eye(d + 1)[d], A_ub=np.hstack([-normals, lengths[:, None]]),
                            b_ub=offsets, bounds=(None, None), method="highs")
        assert ref.status == 0
        center, radius = interior_point(normals, offsets)
        assert abs(radius + ref.fun) <= 1e-9 * abs(ref.fun), (d, scale, shift)
        slack = normals @ center + offsets - radius * lengths
        assert np.all(slack >= -1e-9 * lengths * np.max(np.abs(offsets / lengths)))
        checked += 1


def test_interior_point_keeps_a_far_polytope_at_its_own_scale():
    """The quad scaled by 1e-8 and moved about 1e9 from the origin, past the
    offsets' rounding of 1.2e-7: the exact optimal radius of these float
    rows, 2.703182088057175e-08 by rational arithmetic over every vertex of
    the (x, r) program, is found, since each l_k(x0) is rounded only once."""
    normals = np.array([[-1.0, -0.0], [-0.0, -1.0], [-0.9486832980505138, -0.31622776601683794],
                        [0.31622776601683794, 0.9486832980505138]])
    offsets = np.array([923699275.2848436, 383118322.24295276, 997450726.0471028,
                        -655557311.7837222])
    center, radius = interior_point(normals, offsets)
    assert abs(radius - 2.703182088057175e-08) <= 1e-12 * radius
    assert np.all(normals @ center + offsets >= radius - 1e-7)


@pytest.mark.parametrize("offset", [-1.0, -1e-300])
def test_interior_point_zero_normal_with_negative_offset_is_infeasible(offset):
    """0.x + b >= 0 fails everywhere when b < 0: Infeasible with a NaN
    radius, although the other rows have a ball."""
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]])
    offsets = np.array([3.0, -1.0, 3.0, -1.0, offset])
    with pytest.raises(Infeasible) as exc:
        interior_point(normals, offsets)
    assert math.isnan(exc.value.radius)


@pytest.mark.parametrize("offsets", [[1.0, 1.0, 1.0, 1.0], [3.0, -1.0, 3.0, -1.0]])
def test_interior_point_ignores_zero_normal_with_positive_offset(offsets):
    """0.x + b >= 0 holds everywhere when b >= 0, about the origin or not."""
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    offsets = np.array(offsets)
    center, radius = interior_point(np.vstack([normals, [0.0, 0.0]]), np.append(offsets, 2.0))
    assert math.isclose(radius, 1.0, rel_tol=1e-12)
    assert np.allclose(center, (offsets[1::2] - offsets[::2]) / 2, rtol=0.0, atol=1e-12)


def test_interior_point_rejects_non_finite_input():
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    with pytest.raises(ValueError, match="finite"):
        interior_point(normals, np.array([1.0, 1.0, math.nan, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        interior_point(np.where(normals > 0.0, math.inf, normals), np.ones(4))


def test_interior_point_quad_certifies_interior():
    offsets = np.array([0.0, 0.0, 3.0, 3.0])
    center, radius = interior_point(QUAD_NORMALS, offsets)
    assert radius > 0.0
    norms = np.linalg.norm(QUAD_NORMALS, axis=1)
    slack = QUAD_NORMALS @ center + offsets
    assert np.all(slack >= radius * norms - 1e-12)


def test_recession_unit_square_bounded():
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert recession_direction(normals) is None


def test_recession_quadrant():
    v = recession_direction(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert v is not None
    assert np.all(v >= -1e-9)
    assert np.linalg.norm(v) > 1e-6


def test_recession_antiparallel_pair():
    v = recession_direction(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert v is not None
    assert abs(v[0]) <= 1e-9
    assert abs(v[1]) > 1e-6


def test_recession_quad_bounded():
    assert recession_direction(QUAD_NORMALS) is None


CONE_FAMILIES = ("random", "one-sided", "antipodal", "line", "integer-ties")


def _cone(family: str, d: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded normals of one cone {v : N v >= 0} of R^d."""
    m = int(rng.integers(1, 3 * d + 3))
    if family == "random":
        return rng.standard_normal((m, d))
    if family == "one-sided":  # every normal has u.n > 0: u is in the cone
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        n = rng.standard_normal((m, d))
        return n + (rng.uniform(0.1, 1.0, m) - n @ u)[:, None] * u
    if family == "antipodal":  # N = [X; -X] with X of rank d: the cone is {0}
        x = rng.standard_normal((m + d, d))
        return np.vstack([x, -x])
    if family == "line":  # every normal is orthogonal to q: the cone holds +-q
        q = rng.standard_normal(d)
        q /= np.linalg.norm(q)
        n = rng.standard_normal((m, d))
        return n - np.outer(n @ q, q)
    n = rng.integers(-2, 3, size=(m + d, d)).astype(float)
    n = np.vstack([n, n[: m // 2 + 1]])
    return n[np.any(n != 0.0, axis=1)] if n.any() else np.eye(d)[:1]


def _cones():
    """(family, normals) for d = 1..5, eight seeded cones per family and d."""
    rng = np.random.default_rng(20190821)
    for d in range(1, 6):
        for family in CONE_FAMILIES:
            for _ in range(8):
                yield family, _cone(family, d, rng)


def _highs_has_direction(normals: np.ndarray) -> bool:
    """The sweep definition, solved by HiGHS: some max +-v_i over
    {N v >= 0, |v_i| <= 1} is positive."""
    from scipy.optimize import linprog as scipy_linprog

    d = normals.shape[1]
    for i in range(d):
        for sign in (1.0, -1.0):
            c = np.zeros(d)
            c[i] = -sign
            ref = scipy_linprog(c, A_ub=-normals, b_ub=np.zeros(len(normals)),
                                bounds=(-1.0, 1.0), method="highs")
            assert ref.status == 0
            if -ref.fun > 1e-6:
                return True
    return False


def test_recession_direction_matches_highs_oracle():
    """Rank plus one program gives the answer of the 2d coordinate sweeps,
    except where the rank itself is a tolerance artifact: normal sets whose
    smallest singular value, relative to the largest normal, lies in
    [1e-12, 1e-6] are skipped and counted.  Every direction found is a
    nonzero v with N v >= 0."""
    checked = skipped = 0
    for family, normals in _cones():
        v = recession_direction(normals)
        if v is not None:
            assert np.all(normals @ v >= -1e-12) and np.any(v != 0.0), (family, normals, v)
        peaks = np.max(np.abs(normals), axis=1, keepdims=True)
        units = normals[peaks[:, 0] > 0.0] / peaks[peaks[:, 0] > 0.0]
        singular = np.linalg.svd(units, compute_uv=False)
        smallest = singular[-1] / singular[0] if len(units) >= normals.shape[1] else 0.0
        if 1e-12 <= smallest <= 1e-6:
            skipped += 1
            continue
        got = v is not None
        assert got == _highs_has_direction(normals), (family, normals)
        if family in ("one-sided", "line"):
            assert got, (family, normals)
        if family == "antipodal":
            assert not got, (family, normals)
        checked += 1
    assert checked + skipped == 200
    assert skipped <= 2


def test_recession_direction_ignores_normal_lengths():
    """The cone depends only on each normal's direction, and so does the answer."""
    ray = recession_direction(np.array([[1e-10], [2e-10]]))
    assert ray is not None and ray[0] > 0.0
    assert recession_direction(np.array([[1e-10], [-2e-10]])) is None
    rng = np.random.default_rng(5)
    for family, normals in _cones():
        lengths = 10.0 ** rng.uniform(-8, 8, size=(len(normals), 1))
        assert ((recession_direction(normals * lengths) is None)
                == (recession_direction(normals) is None)), (family, normals)


def test_linprog_max_simple():
    """max x + y over the unit square."""
    c = np.array([1.0, 1.0])
    a_ub = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b_ub = np.ones(4)
    x, value = linprog_max(c, a_ub, b_ub)
    assert math.isclose(value, 2.0, abs_tol=1e-9)
    assert np.allclose(x, [1.0, 1.0], atol=1e-9)


def test_linprog_max_matches_scipy_oracle():
    """Seeded programs with a strictly feasible x0, solved by HiGHS as they
    stand and here about x0: A y <= b - A x0 is feasible at y = 0, and its
    optimum plus c.x0 is the program's."""
    from scipy.optimize import linprog as scipy_linprog

    rng = np.random.default_rng(9090)
    checked = 0
    while checked < 20:
        n = int(rng.integers(2, 5))
        m = int(rng.integers(4, 9))
        a = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        b = a @ x0 + rng.uniform(0.1, 1.0, size=m)
        box = np.vstack([np.eye(n), -np.eye(n)])
        a_ub = np.vstack([a, box])
        b_ub = np.concatenate([b, np.full(2 * n, 10.0)])
        c = rng.normal(size=n)
        ref = scipy_linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
        assert ref.status == 0
        shifted = b_ub - a_ub @ x0
        assert np.all(shifted > 0.0)
        _, value = linprog_max(c, a_ub, shifted)
        value += float(c @ x0)
        assert abs(value - (-ref.fun)) <= 1e-7 * (1.0 + abs(ref.fun))
        checked += 1


def test_linprog_max_negative_zero_bound_gives_positive_zeros():
    """A bound of -0.0 (a flipped row with offset 0) is the bound 0: no entry
    of the solution comes out -0.0, as with the bound +0.0."""
    x, value = linprog_max(np.ones(2), np.eye(2), np.array([-0.0, -0.0]))
    assert value == 0.0 and np.array_equal(x, [0.0, 0.0]) and not np.signbit(x).any()


@pytest.mark.parametrize("b_ub", [[1.0, -1e-300], [1.0, math.nan]])
def test_linprog_max_requires_a_feasible_origin(b_ub):
    """One simplex phase starts at the origin, so every right-hand side must
    be >= 0; a negative one (or NaN) is the caller's error."""
    with pytest.raises(ValueError, match="nonnegative"):
        linprog_max(np.ones(2), np.eye(2), np.array(b_ub))


def _pivot_by_rows(tableau, basis, row, col):
    """The pivot one tableau row at a time, skipping rows with a zero in ``col``."""
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _bland_by_rows(tableau, basis, cost):
    """Bland's rule with a scalar scan for the entering column, each ratio
    and the leaving row, pivoting with ``_pivot_by_rows``."""
    m = tableau.shape[0]
    while True:
        reduced = cost - cost[basis] @ tableau[:, :-1]
        entering = next((j for j in range(tableau.shape[1] - 1)
                         if reduced[j] > linalg._LP_EPS), -1)
        if entering < 0:
            return
        ratios = np.full(m, np.inf)
        for i in range(m):
            if tableau[i, entering] > linalg._LP_EPS:
                ratios[i] = tableau[i, -1] / tableau[i, entering]
        best = float(ratios.min())
        if not np.isfinite(best):
            raise linalg._UnboundedLP("improving direction with no blocking constraint")
        leaving = -1
        for i in range(m):
            if ratios[i] <= best + linalg._LP_EPS and (leaving < 0 or basis[i] < basis[leaving]):
                leaving = i
        _pivot_by_rows(tableau, basis, leaving, entering)


def _program_outcomes():
    """Chebyshev centres and recession directions of seeded programs, as bytes."""
    rng = np.random.default_rng(4242)
    outcomes = []
    for _, normals in _cones():
        offsets = rng.normal(size=len(normals)) + rng.uniform(-0.5, 2.0)
        if not np.all(np.any(normals, axis=1)):
            continue  # a zero normal leaves the radius unbounded
        try:
            center, radius = interior_point(normals, offsets)
            outcomes.append((center.tobytes(), radius))
        except Infeasible as exc:
            outcomes.append(("infeasible", exc.radius))
        direction = recession_direction(normals)
        outcomes.append(None if direction is None else direction.tobytes())
    return outcomes


def test_simplex_matches_row_by_row_reference(monkeypatch):
    """Eliminating every row in one update gives each entry the same multiply
    and subtract as the row loop, and the vectorized ratio test picks the
    same pivots: the same programs solve to the same bits."""
    got = _program_outcomes()
    monkeypatch.setattr(linalg, "_pivot", _pivot_by_rows)
    monkeypatch.setattr(linalg, "_run_simplex", _bland_by_rows)
    expected = _program_outcomes()
    assert sum(isinstance(outcome, tuple) and outcome[0] != "infeasible"
               for outcome in expected) > 20
    assert repr(got) == repr(expected)


def _deficient(rng, count, d, rank_):
    return rng.standard_normal((count, rank_)) @ rng.standard_normal((rank_, d))


def _padded(stacks):
    """Stacks of vectors of one length, zero-padded to the longest: (C, m, d)."""
    width = max(len(stack) for stack in stacks)
    return np.array([np.vstack([stack, np.zeros((width - len(stack), stack.shape[1]))])
                     for stack in stacks])


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160])
def test_stopped_gram_schmidt_is_a_prefix_of_the_full_basis(scale):
    """Stopping after ``stop`` accepted vectors leaves each stack of a batch
    with the first ``stop`` of its full basis bit for bit, the scalar
    reference's, so every rank-reaches-k decision is kept.  The stacks of
    one batch reach ``stop`` at different inputs, and zero-padding them to
    one length changes no basis."""
    rng = np.random.default_rng(17)
    cases = [normals for _, normals in _cones()]
    cases += [_deficient(rng, count, d, r) for d in (2, 3, 4, 5) for r in range(1, d)
              for count in (r, d + 3)]
    # a dependent second vector: these reach every stop one input later
    cases += [np.vstack([v, -3.0 * v, rng.standard_normal((d, d))])
              for d in (2, 3, 4, 5) for v in rng.standard_normal((2, d))]
    for d in range(1, 6):
        stacks = [scale * vectors for vectors in cases if vectors.shape[1] == d]
        batch = _padded(stacks)
        full_slots, full_accepted = _orthogonalize_many(batch, DEFAULT_TOL)
        for stop in range(1, d + 1):
            slots, accepted = _orthogonalize_many(batch, DEFAULT_TOL, stop)
            reached = set()
            for vectors, slot, mask, full, full_mask in zip(
                    stacks, slots, accepted, full_slots, full_accepted):
                expected = gram_schmidt(vectors, DEFAULT_TOL, stop)
                assert mask.sum() == min(stop, full_mask.sum()) == len(expected)
                assert [q.tobytes() for q in slot[mask]] == [q.tobytes() for q in expected]
                assert [q.tobytes() for q in slot[mask]] == [
                    q.tobytes() for q in full[full_mask][:stop]]
                assert not slot[~mask].any()
                if mask.sum() == stop:
                    reached.add(int(np.flatnonzero(mask)[-1]))
            assert len(reached) > 1 or stop == 1


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160])
def test_stopped_gram_schmidt_keeps_recession_and_witness_decisions(monkeypatch, scale):
    """recession_direction and validate's facet witnesses answer the same with
    the pass run over every input.  At 1e-160 validate stops before the
    witnesses, at the Chebyshev ball."""
    rng = np.random.default_rng(23)
    cones = [scale * normals for _, normals in _cones()]
    cones += [scale * _deficient(rng, d + 3, d, d - 1) for d in (2, 3, 4, 5)]
    # K scaled by ``scale``: its vertex differences, the witness inputs, scale with it
    systems = [list(zip(rng.standard_normal((count, d)), scale * rng.uniform(0.2, 2.0, count)))
               for d, count in [(2, 4), (2, 6), (3, 6), (3, 9), (4, 9)] * 8]

    def outcomes():
        out = [None if (v := recession_direction(normals)) is None else v.tobytes()
               for normals in cones]
        for halfspaces in systems:
            try:
                out.append(validate(halfspaces, len(halfspaces[0][0])).vertices.tobytes())
            except PolytopeError as exc:
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    stopped = outcomes()
    full = linalg._orthogonalize_many

    def unstopped(vectors, tol, stop=None):
        return full(vectors, tol)

    monkeypatch.setattr(linalg, "_orthogonalize_many", unstopped)
    monkeypatch.setattr(polytope, "_orthogonalize_many", unstopped)
    expected = outcomes()
    witnessed = [outcome for outcome in expected[len(cones):]
                 if isinstance(outcome, bytes) or outcome.startswith("RedundantHalfspace")]
    assert len(witnessed) > 20 or scale == 1e-160
    assert stopped == expected


def _gram_schmidt_stacks(rng, m, d):
    """Stacks of m vectors in R^d: random, exactly dependent (a repeat, a
    negation, a small-integer combination), with zero vectors, tilted off a
    dependent set by 1e-11..1e-9, and all of these scaled by 1e+-160."""
    stacks = [rng.standard_normal((m, d)) for _ in range(4)]
    for _ in range(4):
        whole = rng.integers(-3, 4, (m, d)).astype(float)
        for i in range(1, m):
            whole[i] = (rng.choice([whole[i - 1], -whole[i - 1], whole[:i].sum(axis=0)])
                        if rng.random() < 0.5 else whole[i])
        stacks.append(whole)
    zero = rng.standard_normal((m, d))
    zero[rng.choice(m, max(1, m // 2), replace=False)] = 0.0
    stacks += [zero, np.zeros((m, d))]
    for _ in range(4):
        tilted = _deficient(rng, m, d, max(1, min(m, d) - 1))
        tilted[-1, rng.integers(d)] += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11, -9)
        stacks.append(tilted)
    stacks += [scale * stack for scale in (1e160, 1e-160) for stack in list(stacks)]
    return np.array(stacks)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_batched_gram_schmidt_matches_orthogonalize_bitwise(m):
    """Each stack's accepted slots are the scalar reference's basis bit for
    bit, in order, and every other slot is zero."""
    rng = np.random.default_rng(m)
    for d in sorted({max(1, m - 1), m, m + 1}):
        stacks = _gram_schmidt_stacks(rng, m, d)
        slots, accepted = _orthogonalize_many(stacks, DEFAULT_TOL)
        assert slots.shape == stacks.shape and accepted.shape == stacks.shape[:2]
        for vectors, slot, mask in zip(stacks, slots, accepted):
            basis = gram_schmidt(vectors, DEFAULT_TOL)
            assert mask.sum() == len(basis)
            assert [q.tobytes() for q in slot[mask]] == [q.tobytes() for q in basis]
            assert not slot[~mask].any()
        assert 0 < accepted.sum() < accepted.size
