"""Tests for dense solves, rank, orthonormal bases, and the small LP facility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyextremal.linalg import (
    DEFAULT_TOL,
    Infeasible,
    Singular,
    Tolerances,
    ZeroSpan,
    interior_point,
    linprog_max,
    lu_factor,
    orthonormal_basis,
    rank,
    recession_direction,
    solve_real,
)

QUAD_NORMALS = np.array([[1.0, 0.0], [0.0, 1.0], [-3.0, -1.0], [-1.0, -3.0]])


def test_tolerances_defaults():
    assert DEFAULT_TOL.rank_rel == 1e-9
    assert DEFAULT_TOL.pos_abs == 1e-9
    assert DEFAULT_TOL.geom_abs == 1e-9


def test_tolerances_uniform():
    tol = Tolerances.uniform(1e-6)
    assert tol.rank_rel == tol.pos_abs == tol.geom_abs == 1e-6


def test_tolerances_rejects_nonpositive():
    with pytest.raises(ValueError):
        Tolerances(rank_rel=0.0, pos_abs=1e-9, geom_abs=1e-9)
    with pytest.raises(ValueError):
        Tolerances(rank_rel=2.0, pos_abs=1e-9, geom_abs=1e-9)


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


def _lu_factor_by_columns(a, tol=DEFAULT_TOL):
    """Partial-pivot LU with numpy operations on whole columns: the reference
    the scalar ``lu_factor`` must reproduce bit for bit."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    threshold = tol.rank_rel * float(np.max(np.abs(a)))
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
            packed, perm = _lu_factor_by_columns(a)
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


def test_linprog_max_simple():
    """max x + y over the unit square."""
    c = np.array([1.0, 1.0])
    a_ub = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b_ub = np.ones(4)
    x, value = linprog_max(c, a_ub, b_ub)
    assert math.isclose(value, 2.0, abs_tol=1e-9)
    assert np.allclose(x, [1.0, 1.0], atol=1e-9)


def test_linprog_max_matches_scipy_oracle():
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
        _, value = linprog_max(c, a_ub, b_ub)
        assert abs(value - (-ref.fun)) <= 1e-7 * (1.0 + abs(ref.fun))
        checked += 1
