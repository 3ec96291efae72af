"""Tests for supporting-simplex and strip certification and enumeration."""

import importlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from polyextremal import linalg as linalg_module
from polyextremal import polytope as polytope_module
from polyextremal import supports as supports_module
from polyextremal.extremal import eval_supports_many
from polyextremal.linalg import DEFAULT_TOL, Singular, lu_solve_many
from polyextremal.polytope import Halfspace, enumerate_vertices, from_vertices_2d, validate
from polyextremal.supports import (
    SimplexSupport,
    StripSupport,
    check_minimality,
    enumerate_supports,
    support_records,
    try_simplex,
    try_strip,
)

from conftest import (corner_cut_hexagon, cube_polytope, gram_schmidt, load_fixture,
                      lu_solve_by_columns, match_point_sets, ngon_polytope, prism_polytope,
                      singular_subsets, symmetric_polytope, tangent_halfspaces, tilted_prism)

VALID_FIXTURES = ("cube", "prism", "quad", "quad_vertices", "square", "triangle")


def _oracle_simplex(normals, offsets, tol):
    """Apexes and heights of a (k+1)-hyperplane system in R^k, each apex
    solved on its own and its height taken as ``Halfspace.value`` takes it;
    None when some apex is singular or not strictly inside."""
    count = len(offsets)
    apexes = np.empty((count, count - 1))
    heights = np.empty(count)
    for j in range(count):
        keep = [k for k in range(count) if k != j]
        try:
            apexes[j] = lu_solve_by_columns(normals[keep], -offsets[keep], tol)
        except Singular:
            return None
        heights[j] = float(np.dot(normals[j], apexes[j]) + offsets[j])
        if heights[j] <= tol.pos_abs:
            return None
    return apexes, heights


def _oracle_strip(polytope, subset):
    """The strip test of ``try_strip`` with the scalar Gram-Schmidt and a
    fresh solve per cross-section apex: the basis, the cross-section's
    facets lifted back to R^d, and its apexes and heights."""
    tol = polytope.tol
    normals = np.vstack([polytope.halfspaces[k].normal for k in subset])
    j = len(subset) - 1
    if len(gram_schmidt(normals, tol)) != j:
        return None
    if any(len(gram_schmidt(np.delete(normals, omit, axis=0), tol)) != j
           for omit in range(j + 1)):
        return None
    basis = np.vstack(gram_schmidt(normals, tol))
    images, offsets = [], []
    for k in subset:
        image = basis @ polytope.halfspaces[k].normal
        length = float(np.sqrt(np.dot(image, image)))
        images.append(image / length)
        offsets.append(polytope.halfspaces[k].offset / length)
    cross = _oracle_simplex(np.vstack(images), np.array(offsets), tol)
    lifted = [Halfspace(normal=n, offset=b) for n, b in zip(np.vstack(images) @ basis, offsets)]
    return None if cross is None else (basis, lifted) + cross


QUAD_APEX_SETS = [
    [(0.0, 0.0), (3.0, 0.0), (0.0, 1.0)],
    [(0.0, 0.0), (1.0, 0.0), (0.0, 3.0)],
]


def test_try_simplex_accepts_quad_triple(quad):
    simplex = try_simplex(quad, (0, 1, 3))
    assert simplex is not None
    assert simplex.facet_indices == (0, 1, 3)
    assert match_point_sets(simplex.apexes, QUAD_APEX_SETS[1])


def test_try_simplex_rejects_uncovering_triples(quad):
    assert try_simplex(quad, (0, 2, 3)) is None
    assert try_simplex(quad, (1, 2, 3)) is None


def test_try_simplex_triangle_is_its_own_support(triangle):
    simplex = try_simplex(triangle, (0, 1, 2))
    assert simplex is not None
    assert match_point_sets(
        np.sort(simplex.apexes, axis=0), np.sort(triangle.vertices, axis=0)
    )


def test_try_simplex_apexes_solve_opposite_facets(quad):
    """Each apex lies on every defining hyperplane except its own."""
    simplex = try_simplex(quad, (0, 1, 2))
    for j, apex in enumerate(simplex.apexes):
        for k, h in enumerate(simplex.halfspaces):
            value = h.value(apex)
            if k == j:
                assert value > 1e-9
            else:
                assert abs(value) <= 1e-9


def test_try_strip_accepts_square_slab(square):
    strip = try_strip(square, (0, 1))
    assert strip is not None
    assert strip.cross_dim == 1
    assert strip.basis.shape == (1, 2)
    assert match_point_sets(strip.cross_simplex.apexes, [(1.0,), (-1.0,)])


def test_try_strip_rejects_independent_normals(square):
    assert try_strip(square, (0, 2)) is None


def test_try_strip_rejects_quad_pair(quad):
    assert try_strip(quad, (0, 3)) is None


def test_try_strip_rejects_degenerate_subset(cube):
    """A pair inside the subset with rank below j disqualifies the whole subset."""
    assert try_strip(cube, (0, 1, 2)) is None


def test_try_strip_prism_cross_section(prism):
    strip = try_strip(prism, (0, 1, 2))
    assert strip is not None
    assert strip.cross_dim == 2
    q = strip.basis
    assert np.max(np.abs(q @ q.T - np.eye(2))) <= 1e-12
    assert np.max(np.abs(q[:, 2])) <= 1e-12


@pytest.mark.parametrize("subset", [(0, 1, 9), (-1, 0, 1), (0, 0, 1), (1, 2, 4)])
def test_try_simplex_rejects_bad_indices(quad, subset):
    """An index outside 0..n-1 or a repeated one is a ValueError, as a
    subset of the wrong size is."""
    with pytest.raises(ValueError, match="distinct and in 0..3"):
        try_simplex(quad, subset)
    with pytest.raises(ValueError, match="exactly 3"):
        try_simplex(quad, (0, 1))


@pytest.mark.parametrize("subset", [(0.5, 1, 2), (0.0, 1.0, 2.0), (np.float64(0), 1, 2),
                                    ("0", 1, 2), (None, 1, 2), (True, 2, 3), (0, np.True_, 2)])
def test_facet_indices_must_be_integers(quad, square, subset):
    """A facet index that is not an integer, or is a bool although
    ``operator.index(True)`` is 1, is a ValueError, and integer types such
    as ``np.int64`` come back as Python ints."""
    with pytest.raises(ValueError, match="integers"):
        try_simplex(quad, subset)
    with pytest.raises(ValueError, match="integers"):
        try_strip(square, subset[:2])
    simplex = try_simplex(quad, np.array([3, 0, 1]))
    assert simplex.facet_indices == (0, 1, 3)
    assert all(type(k) is int for k in simplex.facet_indices)
    strip = try_strip(square, (np.int64(1), np.int32(0)))
    assert strip.facet_indices == (0, 1) and all(type(k) is int for k in strip.facet_indices)


@pytest.mark.parametrize("subset", [(-4, 1), (-1, -2), (0, 4), (2, 2)])
def test_try_strip_rejects_bad_indices(square, subset):
    """Negative indices do not wrap around to facets of K."""
    with pytest.raises(ValueError, match="distinct and in 0..3"):
        try_strip(square, subset)
    with pytest.raises(ValueError, match="size 2..dim"):
        try_strip(square, (0, 1, 2))


def test_enumerate_supports_quad(quad_supports):
    assert len(quad_supports) == 2
    assert [s.facet_indices for s in quad_supports] == [(0, 1, 2), (0, 1, 3)]
    assert all(isinstance(s, SimplexSupport) for s in quad_supports)
    for support, expected in zip(quad_supports, QUAD_APEX_SETS):
        assert match_point_sets(support.apexes, expected)


def test_enumerate_supports_square(square_supports):
    assert len(square_supports) == 2
    assert [s.facet_indices for s in square_supports] == [(0, 1), (2, 3)]
    assert all(isinstance(s, StripSupport) for s in square_supports)
    assert all(s.cross_dim == 1 for s in square_supports)


def test_enumerate_supports_triangle(triangle_supports):
    assert len(triangle_supports) == 1
    assert isinstance(triangle_supports[0], SimplexSupport)


def test_enumerate_supports_cube(cube_supports):
    assert len(cube_supports) == 3
    assert [s.facet_indices for s in cube_supports] == [(0, 1), (2, 3), (4, 5)]
    assert all(s.cross_dim == 1 for s in cube_supports)


def test_enumerate_supports_prism(prism_supports):
    kinds = [(s.kind, s.facet_indices) for s in prism_supports]
    assert kinds == [("strip", (0, 1, 2)), ("strip", (3, 4))]
    assert prism_supports[0].cross_dim == 2
    assert prism_supports[1].cross_dim == 1


@pytest.mark.parametrize("name", ["quad", "square", "cube", "prism"])
def test_support_set_stacks_facets_and_heights(name):
    """The set's facet functions are K's facets and then each strip's own
    halfspaces, in support order.  Column i of the stacked arrays is support
    i's rows of them, which name its own halfspaces, and its heights, with a
    strip's missing slots padded by row R, the zero facet value, and height
    1.0.  The arrays have as many slots as the support with the most facets,
    so the last slot holds a facet of some support."""
    supports = enumerate_supports(load_fixture(name))
    polytope, table = supports.polytope, supports.table
    d, n, rows = polytope.dim, len(polytope.halfspaces), len(table.offsets)
    strips = [h for support in supports if support.kind == "strip" for h in support.halfspaces]
    assert rows == n + len(strips) and table.normals.shape == (rows, d)
    assert table.normals[:n].tobytes() == polytope.normals.tobytes()
    assert table.offsets[:n].tobytes() == polytope.offsets.tobytes()
    slots = max(len(support.heights) for support in supports)
    assert slots == {"square": 2, "cube": 2, "prism": 3}.get(name, d + 1)
    assert table.facets.shape == table.heights.shape == (slots, len(supports))
    assert np.any(table.facets[-1] < rows)
    assert table.facets.dtype == np.intp
    for i, support in enumerate(supports):
        count = len(support.heights)
        facets = table.facets[:count, i]
        if support.kind == "simplex":
            assert facets.tolist() == list(support.facet_indices)
        assert np.all(facets < rows)
        assert table.normals[facets].tobytes() == np.array(
            [h.normal for h in support.halfspaces]).tobytes()
        assert table.offsets[facets].tolist() == [h.offset for h in support.halfspaces]
        assert table.heights[:count, i].tobytes() == support.heights.tobytes()
        assert np.all(table.facets[count:, i] == rows)
        assert np.all(table.heights[count:, i] == 1.0)


def _facet_table_by_support(base, supports):
    """The facet table one support and one slot at a time, simplices and
    strips alike, each strip's row of slot k appended after every strip's
    row of slot k - 1: the reference ``_facet_table`` must reproduce bit
    for bit."""
    rows = list(base)
    slots = max((len(support.heights) for support in supports), default=0)
    facets = np.full((slots, len(supports)), -1, dtype=np.intp)
    heights = np.ones((slots, len(supports)))
    for slot in range(slots):
        for i, support in enumerate(supports):
            if slot >= len(support.heights):
                continue
            if support.kind == "strip":
                facets[slot, i] = len(rows)
                rows.append(support.halfspaces[slot])
            else:
                facets[slot, i] = support.facet_indices[slot]
            heights[slot, i] = support.heights[slot]
    facets[facets < 0] = len(rows)
    return (np.array([h.normal for h in rows]), np.array([h.offset for h in rows]),
            facets, heights)


def _table_bytes(table):
    """The bytes of a table's normals, offsets, facets and heights."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in table[:4]]


FACET_TABLE_CASES = {
    **{name: lambda name=name: load_fixture(name) for name in VALID_FIXTURES},
    "ngon-24": lambda: ngon_polytope(24),
    **{f"tilted-{seed}": lambda seed=seed: tilted_prism(seed) for seed in range(12)},
}


@pytest.mark.parametrize("name", FACET_TABLE_CASES)
def test_facet_table_matches_the_loop_over_supports(name):
    """The simplex columns filled at once and the strips' rows appended slot
    by slot give the per-support loop's normals, offsets, facets and heights,
    bit for bit, for the whole set and for its evaluation stack; so do a
    list of the strips alone and an empty list."""
    supports = enumerate_supports(FACET_TABLE_CASES[name]())
    base = supports.polytope.halfspaces
    assert _table_bytes(supports.table) == _table_bytes(_facet_table_by_support(base, supports))
    stacked = [supports[i] for i in supports.stack]
    symmetric = supports_module._antipodal_strips(supports.polytope, supports.supports) is not None
    reference_base = () if symmetric else base
    assert _table_bytes(supports.stack_table) == _table_bytes(
        _facet_table_by_support(reference_base, stacked))
    strips = [support for support in supports if support.kind == "strip"]
    for chosen in (strips, []):
        for table_base in (base, ()):
            assert _table_bytes(supports_module._facet_table(table_base, chosen)) \
                == _table_bytes(_facet_table_by_support(table_base, chosen))


def test_simplex_count_bound(quad_supports, quad):
    n_facets = len(quad.halfspaces)
    simplices = [s for s in quad_supports if isinstance(s, SimplexSupport)]
    assert len(simplices) <= math.comb(n_facets + 1, quad.dim + 1)


def test_supports_contain_polytope():
    """Every vertex of K satisfies every support's halfspace system."""
    from conftest import load_fixture

    for name in ("quad", "square", "triangle", "cube", "prism"):
        polytope = load_fixture(name)
        for support in enumerate_supports(polytope):
            if isinstance(support, SimplexSupport):
                for h in support.halfspaces:
                    assert np.all(h.value(polytope.vertices) >= -1e-9)
            else:
                projected = polytope.vertices @ support.basis.T
                for h in support.cross_simplex.halfspaces:
                    assert np.all(h.value(projected) >= -1e-9)


def test_supports_cover_every_facet():
    from conftest import load_fixture

    for name in ("quad", "square", "triangle", "cube", "prism"):
        polytope = load_fixture(name)
        supports = enumerate_supports(polytope)
        covered = set()
        for s in supports:
            covered.update(s.facet_indices)
        assert covered == set(range(len(polytope.halfspaces)))


def test_supports_reconstruct_vertex_set():
    """Pooled support halfspaces cut out the same vertex set as K."""
    from conftest import load_fixture

    for name in ("quad", "square", "triangle", "cube", "prism"):
        polytope = load_fixture(name)
        pooled = []
        for support in enumerate_supports(polytope):
            if isinstance(support, SimplexSupport):
                pooled.extend(support.halfspaces)
            else:
                q = support.basis
                for h in support.cross_simplex.halfspaces:
                    pooled.append(((h.normal @ q).tolist(), h.offset))
        from polyextremal.polytope import canonicalize

        vertices, _ = enumerate_vertices(*canonicalize(pooled))
        assert match_point_sets(
            np.array(sorted(map(tuple, vertices.round(12)))),
            np.array(sorted(map(tuple, polytope.vertices.round(12)))),
        )


def test_enumeration_is_deterministic(quad):
    first = [s.facet_indices for s in enumerate_supports(quad)]
    second = [s.facet_indices for s in enumerate_supports(quad)]
    assert first == second


def test_check_minimality_known_shift(quad, quad_supports):
    s3 = quad_supports[1]
    assert check_minimality(quad, s3, np.array([0.0, 0.01]))


def test_check_minimality_apex_directed(triangle, triangle_supports):
    simplex = triangle_supports[0]
    centroid = simplex.apexes.mean(axis=0)
    for apex in simplex.apexes:
        shift = 1e-3 * (apex - centroid) / np.linalg.norm(apex - centroid)
        assert check_minimality(triangle, simplex, shift)


def test_check_minimality_rejects_zero_shift(quad, quad_supports):
    with pytest.raises(ValueError):
        check_minimality(quad, quad_supports[0], np.zeros(2))


@pytest.mark.parametrize("shift", [[1e-200, 0.0], [1e-170, 1e-170], [5e-324, 0.0],
                                   [1e300, 1e300], [-1e300, 1e300]])
def test_check_minimality_takes_tiny_and_huge_shifts(quad, quad_supports, shift):
    """A shift is zero only when every entry is: a squared length that
    underflows or overflows decides nothing, and raises no warning.  (Below
    the vertices' rounding, whether a tiny shift pokes out is the rounding's
    call; a huge one always does.)"""
    poked = check_minimality(quad, quad_supports[0], np.array(shift))
    assert poked if abs(shift[0]) > 1.0 else isinstance(poked, bool)


@pytest.mark.parametrize("shift", [0.5, [0.5], [[0.1, 0.2]], [0.1, 0.2, 0.3], []])
def test_check_minimality_rejects_shift_of_wrong_shape(quad, quad_supports, shift):
    """A shift is one point of R^d: a scalar, a row or a vector of another
    length would broadcast or fail inside numpy."""
    with pytest.raises(ValueError, match="shape"):
        check_minimality(quad, quad_supports[0], shift)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_check_minimality_rejects_non_finite_shift(quad, quad_supports, bad):
    with pytest.raises(ValueError, match="finite"):
        check_minimality(quad, quad_supports[0], np.array([1e-3, bad]))


def test_check_minimality_random_translations(quad, quad_supports):
    rng = np.random.default_rng(99)
    for support in quad_supports:
        for _ in range(50):
            b = rng.normal(size=2)
            b *= 1e-3 / np.linalg.norm(b)
            assert check_minimality(quad, support, b)


def _poked_by_records(polytope, simplex, shift):
    """The record loop: every moved vertex against each of the simplex's
    ``halfspaces`` in turn, by ``Halfspace.value``."""
    for vertex in polytope.vertices:
        moved = vertex + shift
        for h in simplex.halfspaces:
            if h.value(moved) < 0.0:
                return True
    return False


def test_check_minimality_matches_the_record_loop():
    """One array pass over K's rows of the simplex's facets decides as the
    loop over every vertex and halfspace did, its values bitwise
    ``Halfspace.value``, on every simplex of the fixtures and the tilted
    prisms: at random shifts of 1e-3 down to 5e-324, and at shifts inside one
    of the simplex's facet planes, along the axes its normal is 0 on, where
    the moved vertices on that facet sit at exactly 0."""
    rng = np.random.default_rng(4242)
    cases = [load_fixture(name) for name in VALID_FIXTURES]
    outcomes, zeros = set(), 0
    for polytope in cases + [tilted_prism(seed) for seed in range(12)]:
        d = polytope.dim
        for simplex in (s for s in enumerate_supports(polytope) if s.kind == "simplex"):
            facets = list(simplex.facet_indices)
            shifts = [scale * rng.normal(size=d) for scale in (1e-3, 1e-9, 1e-300, 5e-324)]
            for k in facets:
                normal = polytope.normals[k]
                shifts += [t * np.eye(d)[i] for i in np.flatnonzero(normal == 0.0)
                           for t in (1e-3, -1e-3)]
                shifts.append(1e-3 * (np.eye(d)[0] - normal[0] * normal))
            for shift in (shift for shift in shifts if shift.any()):
                poked = check_minimality(polytope, simplex, shift)
                assert poked == _poked_by_records(polytope, simplex, shift)
                outcomes.add(poked)
                moved = polytope.vertices + shift
                values = polytope_module._values(moved, polytope.normals[facets],
                                                 polytope.offsets[facets])
                expected = np.array([[h.value(v) for h in simplex.halfspaces] for v in moved])
                assert values.tobytes() == expected.tobytes()
                zeros += int(np.count_nonzero(values == 0.0))
    assert outcomes == {True, False} and zeros > 0


def test_strip_translation_keeps_vertices_inside(square, square_supports):
    rng = np.random.default_rng(55)
    for strip in square_supports:
        q = strip.basis
        for _ in range(50):
            w = rng.normal(size=2)
            b = w - q.T @ (q @ w)
            if np.linalg.norm(b) < 1e-9:
                continue
            moved = (square.vertices + b) @ q.T
            for h in strip.cross_simplex.halfspaces:
                assert np.all(h.value(moved) >= -1e-9)


def test_pentagon_supports():
    angles = 2 * np.pi * np.arange(5) / 5 + 0.3
    points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    polytope = from_vertices_2d(points)
    supports = enumerate_supports(polytope)
    assert len(supports) >= 1
    covered = set()
    for s in supports:
        covered.update(s.facet_indices)
        assert isinstance(s, SimplexSupport)
    assert covered == set(range(5))


@pytest.mark.parametrize("seed", [10, 20, 30, 40])
def test_random_polygon_supports_cover(seed):
    rng = np.random.default_rng(seed)
    cloud = rng.uniform(-1.5, 1.5, size=(9, 2))
    polytope = from_vertices_2d(cloud)
    supports = enumerate_supports(polytope)
    covered = set()
    for s in supports:
        covered.update(s.facet_indices)
    assert covered == set(range(len(polytope.halfspaces)))


def test_random_simplex_3d_supports_itself():
    rng = np.random.default_rng(77)
    apexes = rng.normal(size=(4, 3)) * 1.5
    halfspaces = []
    for j in range(4):
        others = np.delete(apexes, j, axis=0)
        normal = np.cross(others[1] - others[0], others[2] - others[0])
        if normal @ (apexes[j] - others[0]) < 0:
            normal = -normal
        halfspaces.append((normal.tolist(), float(-normal @ others[0])))
    polytope = validate(halfspaces, 3)
    supports = enumerate_supports(polytope)
    assert len(supports) == 1
    assert supports[0].kind == "simplex"
    assert match_point_sets(
        np.array(sorted(map(tuple, supports[0].apexes.round(9)))),
        np.array(sorted(map(tuple, apexes.round(9)))),
        tol=1e-8,
    )


def test_support_records_quad(quad_supports):
    records = support_records(quad_supports)
    assert [r["kind"] for r in records] == ["simplex", "simplex"]
    assert [r["facets"] for r in records] == [[0, 1, 2], [0, 1, 3]]
    assert all(r["cross_dim"] == 2 for r in records)
    assert all(len(r["apexes"]) == 3 for r in records)
    assert records[0]["basis"] == [[1.0, 0.0], [0.0, 1.0]]


def test_support_records_square(square_supports):
    records = support_records(square_supports)
    assert [r["kind"] for r in records] == ["strip", "strip"]
    assert all(r["cross_dim"] == 1 for r in records)
    for r in records:
        assert len(r["basis"]) == 1
        assert len(r["basis"][0]) == 2
        assert sorted(a[0] for a in r["apexes"]) == pytest.approx([-1.0, 1.0])


def test_support_records_are_json_serializable(prism_supports):
    import json

    text = json.dumps(support_records(prism_supports))
    assert json.loads(text)[0]["kind"] == "strip"


CERTIFIER_CASES = {
    **{name: lambda name=name: load_fixture(name) for name in VALID_FIXTURES},
    **{f"tangent-d{dim}": lambda dim=dim: validate(tangent_halfspaces(dim, 2 * dim + 4, 1), dim)
       for dim in (2, 3, 4, 5)},
    **{f"symmetric-d{dim}": lambda dim=dim: symmetric_polytope(dim, dim + 2, dim)
       for dim in (2, 3, 4)},
    **{f"tilted-{seed}": lambda seed=seed: tilted_prism(seed) for seed in (0, 5)},
}


@pytest.mark.parametrize("name", CERTIFIER_CASES)
def test_certification_matches_per_subset_solve_oracle(name):
    """Apexes read from the arrangement equal a fresh solve, and the stacked
    heights equal ``Halfspace.value`` at each apex, bit for bit: the same
    subsets pass, with the same apexes and heights, and a strip reads its
    cross-section's facets lifted by Q^T, over the cross-section's heights."""
    polytope = CERTIFIER_CASES[name]()
    d = polytope.dim
    normals = np.vstack([h.normal for h in polytope.halfspaces])
    offsets = np.array([h.offset for h in polytope.halfspaces])
    for size in range(2, d + 2):
        for subset in itertools.combinations(range(len(offsets)), size):
            if size == d + 1:
                got = cross = try_simplex(polytope, subset)
                expected = _oracle_simplex(normals[list(subset)], offsets[list(subset)],
                                           polytope.tol)
            else:
                got = try_strip(polytope, subset)
                expected = _oracle_strip(polytope, subset)
                cross = None if got is None else got.cross_simplex
            assert (got is None) == (expected is None), subset
            if got is None:
                continue
            if size <= d:
                basis, lifted, *expected = expected
                assert got.basis.tobytes() == basis.tobytes()
                assert got.heights.tobytes() == expected[1].tobytes()
                assert [(h.normal.tobytes(), h.offset) for h in got.halfspaces] == [
                    (h.normal.tobytes(), h.offset) for h in lifted]
            apexes, heights = expected
            assert cross.apexes.tobytes() == apexes.tobytes()
            assert cross.heights.tobytes() == heights.tobytes()


def _count_lu(monkeypatch, *modules):
    """Record the shape of every ``lu_solve_many`` batch the given modules
    make, with its nonsingular mask, and the size of every LU factorization
    anywhere in the library: (batches, factored)."""
    batches, factored = [], []
    factor = linalg_module._factor_many

    def counting_batch(a, b, tol):
        solutions, nonsingular = lu_solve_many(a, b, tol)
        batches.append((np.shape(a), nonsingular.tolist()))
        return solutions, nonsingular

    def counting_factor(a, tol):
        factored.append(a.shape)
        return factor(a, tol)

    for module in modules:
        monkeypatch.setattr(module, "lu_solve_many", counting_batch)
    monkeypatch.setattr(linalg_module, "_factor_many", counting_factor)
    return batches, factored


@pytest.mark.parametrize("halfspaces,dim", [
    ([([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0), ([-1.0, -3.0], 3.0), ([-3.0, -1.0], 3.0)], 2),
    (tangent_halfspaces(3, 9, seed=4), 3),
])
def test_each_facet_intersection_is_solved_once(monkeypatch, halfspaces, dim):
    """validate solves every d-subset once, in one LU batch; certifying
    (d+1)-subsets solves nothing, and no other LU runs."""
    batches, factored = _count_lu(monkeypatch, polytope_module, supports_module)
    polytope = validate(halfspaces, dim)
    shape = (math.comb(len(halfspaces), dim), dim, dim)
    assert [batch[0] for batch in batches] == factored == [shape]
    supports = enumerate_supports(polytope)
    assert [batch[0] for batch in batches] == factored == [shape]
    assert all(s.kind == "simplex" for s in supports)


def test_only_strip_cross_sections_solve(monkeypatch, prism):
    """On the prism, enumeration factors in one LU batch per strip size
    screened, of j+1 systems per candidate, and in nothing else: the screen
    certifies each strip once, and no other LU runs."""
    batches, factored = _count_lu(monkeypatch, supports_module)
    supports = enumerate_supports(prism)
    assert [s.kind for s in supports] == ["strip", "strip"]
    screens = [shape for shape, _ in batches]
    assert [shape[1] for shape in screens] == [1, 2]
    assert screens[0][0] % 2 == 0 and screens[1][0] % 3 == 0
    assert screens == factored


def test_strip_solves_projected_corners_in_one_batch(monkeypatch):
    """try_strip solves the j+1 projected corners of its subset in one LU
    batch.  In {+z, +x, -x} the corner that drops +z, that of the
    antiparallel pair, is singular, and the subset is no strip; an accepted
    slab solves its two corners in one batch."""
    box = validate([([0.0, 0.0, 1.0], 1.0), ([1.0, 0.0, 0.0], 1.0), ([-1.0, 0.0, 0.0], 1.0),
                    ([0.0, 0.0, -1.0], 1.0), ([0.0, 1.0, 0.0], 1.0), ([0.0, -1.0, 0.0], 1.0)],
                   3)
    batches, factored = _count_lu(monkeypatch, supports_module)
    assert try_strip(box, (0, 1, 2)) is None
    assert batches == [((3, 2, 2), [False, True, True])]
    batches.clear()
    assert try_strip(box, (0, 3)) is not None
    assert batches == [((2, 1, 1), [True, True])]
    assert factored == [(3, 2, 2), (2, 1, 1)]


SEARCH_CASES = {
    **{name: lambda name=name: load_fixture(name) for name in VALID_FIXTURES},
    **{f"prism-d{dim}-{seed}": lambda dim=dim, seed=seed: prism_polytope(dim, seed)
       for dim in (3, 4) for seed in range(3)},
    **{f"cube-d{dim}": lambda dim=dim: cube_polytope(dim) for dim in (2, 3, 4, 5)},
    **{f"symmetric-d{dim}-{seed}": lambda dim=dim, seed=seed: symmetric_polytope(dim, dim + 2, seed)
       for dim in (2, 3, 4) for seed in range(2)},
    **{f"tangent-d{dim}-{seed}": lambda dim=dim, seed=seed: validate(
        tangent_halfspaces(dim, 8, seed), dim) for dim in (3, 4) for seed in (0, 1)},
}


def _support_bytes(support):
    strip = isinstance(support, StripSupport)
    cross = support.cross_simplex if strip else support
    basis = support.basis.tobytes() if strip else b""
    return (support.kind, support.facet_indices, cross.apexes.tobytes(),
            support.heights.tobytes(), basis)


def _halfspace_bytes(halfspaces):
    return [(h.normal.tobytes(), h.offset) for h in halfspaces]


def _strip_bytes(strip):
    """Every field of a strip record, arrays as bytes."""
    cross = strip.cross_simplex
    return (strip.facet_indices, strip.cross_dim, strip.basis.tobytes(),
            strip.heights.tobytes(), _halfspace_bytes(strip.halfspaces),
            cross.facet_indices, cross.dim, cross.apexes.tobytes(), cross.heights.tobytes(),
            _halfspace_bytes(cross.halfspaces))


@pytest.mark.parametrize("name", SEARCH_CASES)
def test_strip_search_loses_no_strip(name):
    """Searching only inside singular d-subsets finds what an exhaustive pass
    over every subset of sizes 2..d+1 finds, bit for bit, with facet
    indices that are Python ints."""
    polytope = SEARCH_CASES[name]()
    n, d = len(polytope.halfspaces), polytope.dim
    exhaustive = []
    for size in range(2, d + 2):
        for subset in itertools.combinations(range(n), size):
            support = (try_simplex if size == d + 1 else try_strip)(polytope, subset)
            if support is not None:
                exhaustive.append(_support_bytes(support))
    supports = enumerate_supports(polytope)
    assert [_support_bytes(s) for s in supports] == sorted(exhaustive, key=lambda record: record[1])
    assert all(type(k) is int for s in supports for k in s.facet_indices)


SCREEN_CASES = {
    **SEARCH_CASES,
    **{f"tangent-d{dim}": lambda dim=dim, count=count: validate(
        tangent_halfspaces(dim, count, 1), dim) for dim, count in ((2, 8), (5, 12))},
    "ngon-24": lambda: ngon_polytope(24),
    **{f"tilted-{seed}": lambda seed=seed: tilted_prism(seed) for seed in range(12)},
}


def _apexes_above(nonsingular, heights, tol):
    """The apex test of one subset: each apex exists, its face
    ``nonsingular``, and lies above its own facet by more than pos_abs."""
    return nonsingular & ~(heights <= tol.pos_abs)


@pytest.mark.parametrize("name", [*SCREEN_CASES, "tangent-d5-n24"])
def test_pass_table_is_the_apex_test_of_every_d_subset(monkeypatch, name):
    """Row t of ``incidence.above`` is the apex test of the t-th d-subset's
    corner against every facet, its NaN rows in the tilted prisms and the
    42,504 rows of the R^5 guard edge included."""
    if name in SCREEN_CASES:
        polytope = SCREEN_CASES[name]()
    else:
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        normals = importlib.import_module("inputs").tangent_normals(5, 24, np.random.default_rng(3))
        polytope = validate([(list(normal), 1.0) for normal in normals], 5)
    incidence = polytope.incidence
    assert incidence.above.dtype == bool and incidence.above.shape == incidence.values.shape
    for row, flag, heights in zip(incidence.above, incidence.nonsingular, incidence.values):
        assert row.tolist() == _apexes_above(flag, heights, polytope.tol).tolist()


def test_pass_table_on_non_finite_heights(monkeypatch):
    """In a nonsingular row a NaN or +inf height passes and -inf fails, as
    ~(l <= pos_abs) says; pos_abs itself fails and the next float up passes;
    a singular row fails throughout."""
    pos_abs = DEFAULT_TOL.pos_abs
    values = np.array([[np.nan, np.inf, -np.inf, 0.0],
                       [1.0, pos_abs, np.nextafter(pos_abs, np.inf), -0.0],
                       [np.nan] * 4])
    nonsingular = np.array([True, True, False])
    corners = np.array([[0.5], [0.25], [np.nan]])
    monkeypatch.setattr(polytope_module, "_arrangement",
                        lambda normals, offsets, tol: (corners, nonsingular, values))
    _, incidence = enumerate_vertices(np.ones((4, 1)), np.zeros(4))
    assert incidence.above.tolist() == [[True, True, False, False],
                                        [True, False, True, False], [False] * 4]
    assert incidence.above.tolist() == [_apexes_above(flag, row, DEFAULT_TOL).tolist()
                                        for flag, row in zip(nonsingular, values)]


@pytest.mark.parametrize("name", SCREEN_CASES)
def test_batched_screen_agrees_with_try_simplex(name):
    """The value matrix is ``Halfspace.value`` at every arrangement corner,
    bit for bit, its rows and the corners' are NaN exactly where the scalar
    reference LU raises Singular, and the batched screen passes exactly the
    (d+1)-subsets that ``try_simplex`` certifies."""
    polytope = SCREEN_CASES[name]()
    n, d = len(polytope.halfspaces), polytope.dim
    incidence = polytope.incidence
    assert incidence.values.shape == (math.comb(n, d), n)
    singular = singular_subsets(polytope.halfspaces, d)
    assert incidence.nonsingular.tolist() == [not flag for flag in singular]
    for point, row, flag in zip(incidence.corners, incidence.values, singular):
        if flag:
            assert np.isnan(point).all() and np.isnan(row).all()
        else:
            assert row.tobytes() == np.array(
                [h.value(point) for h in polytope.halfspaces]).tobytes()
    screened = supports_module._simplex_candidates(polytope)
    certified = [subset for subset in itertools.combinations(range(n), d + 1)
                 if try_simplex(polytope, subset) is not None]
    assert screened == certified
    assert all(type(k) is int for subset in screened for k in subset)


HEXAGON_CUTS = ((1.5, 1.5, 1.5), (1.2, 1.5, 1.8), (1.0, 1.0, 1.0), (1.0, 1.5, 0.5))

STRIP_SCREEN_CASES = {
    **SEARCH_CASES,
    **{f"tilted-{seed}": lambda seed=seed: tilted_prism(seed) for seed in range(12)},
    **{f"ngon-{sides}": lambda sides=sides: ngon_polytope(sides) for sides in range(4, 25, 2)},
    **{f"symmetric-d{dim}": lambda dim=dim: symmetric_polytope(dim, dim + 3, 3)
       for dim in (2, 3, 4, 5)},
    **{f"hexagon-{cuts}": lambda cuts=cuts: corner_cut_hexagon(cuts) for cuts in HEXAGON_CUTS},
}


@pytest.mark.parametrize("name", STRIP_SCREEN_CASES)
def test_batched_strip_screen_agrees_with_try_strip(name):
    """For every size 2..d, the batched strip screen returns the records of
    exactly the subsets that ``try_strip`` certifies, among all subsets of
    that size and not only those inside singular d-subsets, each bitwise the
    record ``try_strip`` builds for its subset alone."""
    polytope = STRIP_SCREEN_CASES[name]()
    n, d = len(polytope.halfspaces), polytope.dim
    for size in range(2, d + 1):
        subsets = list(itertools.combinations(range(n), size))
        certified = [strip for subset in subsets
                     if (strip := try_strip(polytope, subset)) is not None]
        screened = supports_module._strips(polytope, np.array(subsets))
        assert [_strip_bytes(s) for s in screened] == [_strip_bytes(s) for s in certified]
        assert all(type(k) is int for s in screened for k in s.facet_indices)


STRIP_AGREEMENT_CASES = {
    **{name: lambda name=name: load_fixture(name) for name in VALID_FIXTURES},
    **{f"tilted-{seed}": lambda seed=seed: tilted_prism(seed) for seed in range(12)},
    **{f"symmetric-d{dim}-{seed}": lambda dim=dim, seed=seed: symmetric_polytope(dim, dim + 2, seed)
       for dim in (2, 3, 4) for seed in range(2)},
    **{f"prism-d{dim}-{seed}": lambda dim=dim, seed=seed: prism_polytope(dim, seed)
       for dim in (3, 4) for seed in range(3)},
    **{f"ngon-{sides}": lambda sides=sides: ngon_polytope(sides) for sides in (4, 6, 12, 24)},
}


@pytest.mark.parametrize("name", STRIP_AGREEMENT_CASES)
def test_enumerated_strips_are_try_strip_records(name):
    """The two strip entry points agree: every strip ``enumerate_supports``
    returns is, field by field and bit for bit, ``try_strip`` of its facet
    tuple, basis, heights, lifted halfspaces and the cross-section's apexes,
    halfspaces and heights."""
    polytope = STRIP_AGREEMENT_CASES[name]()
    strips = [s for s in enumerate_supports(polytope) if s.kind == "strip"]
    for strip in strips:
        assert _strip_bytes(try_strip(polytope, strip.facet_indices)) == _strip_bytes(strip)


def test_face_ranks_follow_itertools_order():
    """Face j of each (d+1)-subset, the subset without its j-th entry, has
    the rank its position in ``itertools.combinations(range(n), d)``, from
    ints and from the columns of every subset at once."""
    for n, d in ((2, 1), (5, 1), (5, 2), (6, 3), (9, 4), (12, 5), (7, 6), (4, 0)):
        position = {face: t for t, face in enumerate(itertools.combinations(range(n), d))}
        subsets = list(itertools.combinations(range(n), d + 1))
        expected = [[position[s[:j] + s[j + 1:]] for j in range(d + 1)] for s in subsets]
        assert [supports_module._face_ranks(s, n) for s in subsets] == expected
        table = [np.array([math.comb(m, k) for m in range(n)]) for k in range(d + 2)]
        faces = supports_module._face_ranks(list(np.array(subsets).T), n,
                                            lambda m, k: table[k][m])
        assert np.array(faces).T.tolist() == expected


def _count_screens(monkeypatch):
    """The ``index`` of every strip-screen call, with ``try_strip`` made to
    fail the test: set-up certifies strips by the screen alone."""
    calls, screen = [], supports_module._strips

    def counting(polytope, index):
        calls.append(index)
        return screen(polytope, index)

    def refused(*args):
        raise AssertionError("set-up called try_strip")

    monkeypatch.setattr(supports_module, "_strips", counting)
    monkeypatch.setattr(supports_module, "try_strip", refused)
    return calls


@pytest.mark.parametrize("dim,count,seed", [(3, 10, 1), (4, 9, 6)])
def test_no_strip_search_when_every_d_subset_is_nonsingular(monkeypatch, dim, count, seed):
    polytope = validate(tangent_halfspaces(dim, count, seed), dim)
    assert polytope.incidence.nonsingular.tolist() == [True] * math.comb(count, dim)
    assert not any(singular_subsets(polytope.halfspaces, dim))
    assert not np.isnan(polytope.incidence.corners).any()
    calls = _count_screens(monkeypatch)
    sizes, original = [], itertools.combinations

    def combinations(items, size):
        sizes.append(size)
        return original(items, size)

    monkeypatch.setattr(supports_module.itertools, "combinations", combinations)
    assert all(s.kind == "simplex" for s in enumerate_supports(polytope))
    assert calls == []
    assert sizes == [dim + 1]  # the screen's subsets, and no list of the d-subsets


@pytest.mark.parametrize("name", ["prism", "cube", "square", "prism-d4-1", "symmetric-d3-0",
                                  "ngon-24"])
def test_setup_screens_each_strip_size_once(monkeypatch, name):
    """Where some d-subset is singular, set-up makes one strip-screen call
    per size 2..d and no ``try_strip`` call."""
    polytope = STRIP_AGREEMENT_CASES[name]()
    calls = _count_screens(monkeypatch)
    supports = enumerate_supports(polytope)
    assert any(s.kind == "strip" for s in supports)
    assert [index.shape[1] for index in calls] == list(range(2, polytope.dim + 1))


NESTING_CASES = {
    **{name: lambda name=name: load_fixture(name) for name in VALID_FIXTURES},
    **{f"tilted-{seed}": lambda seed=seed: tilted_prism(seed) for seed in range(12)},
}


@pytest.mark.parametrize("name", NESTING_CASES)
def test_no_strip_inside_a_simplex(name):
    """Nearly dependent normals give a strip or a simplex, never both: the
    arrangement alone decides whether they are dependent."""
    supports = enumerate_supports(NESTING_CASES[name]())
    simplices = [set(s.facet_indices) for s in supports if s.kind == "simplex"]
    nested = [s.facet_indices for s in supports if s.kind == "strip"
              and any(set(s.facet_indices) <= simplex for simplex in simplices)]
    assert nested == []


def _antipodal_pairs(supports):
    return [supports[i].facet_indices for i in supports.stack]


def _read_rows(normals, offsets, facets):
    """The (normal, offset) rows ``facets`` names, the padding row as zeros."""
    table = np.column_stack([normals, offsets])
    return np.vstack([table, np.zeros((1, table.shape[1]))])[facets]


def _assert_full_stack(supports):
    """The stack is every support and reads the very rows the set does; its
    table is the set's own unless every support is a slab, as for the square
    and the cube, when it holds the slabs' rows alone."""
    assert supports.stack.tolist() == list(range(len(supports)))
    table, stack_table = supports.table, supports.stack_table
    assert stack_table.heights.tobytes() == table.heights.tobytes()
    assert _read_rows(*stack_table[:3]).tobytes() == _read_rows(*table[:3]).tobytes()
    if any(support.kind == "simplex" for support in supports):
        assert stack_table.facets.tobytes() == table.facets.tobytes()
        assert stack_table.normals.tobytes() == table.normals.tobytes()


@pytest.mark.parametrize("cuts", [(1.5, 1.5, 1.5), (1.2, 1.5, 1.8)])
def test_paired_hexagon_without_a_centre_keeps_every_support(cuts):
    """Parallel sides alone do not make K symmetric: here the slabs miss
    V_K by more than 0.1 somewhere, and the stack keeps every support."""
    supports = enumerate_supports(corner_cut_hexagon(cuts))
    _assert_full_stack(supports)
    slabs = [i for i, s in enumerate(supports) if s.kind == "strip"]
    assert len(slabs) == 3
    x, y = np.meshgrid(np.linspace(-3, 3, 61), np.linspace(-3, 3, 61))
    x, y = x.ravel(), y.ravel()
    points = np.stack([x + 0.5j * y, y - 0.5j * x], axis=1)
    matrix = eval_supports_many(supports, points)
    assert np.max(matrix.max(axis=1) - matrix[:, slabs].max(axis=1)) > 0.1


@pytest.mark.parametrize("cuts, shift", [((1.0, 1.0, 1.0), (0.0, 0.0)),
                                         ((1.0, 1.5, 0.5), (0.0, 0.0)),
                                         ((1.0, 1.5, 0.5), (3.0, -2.0))])
def test_centred_hexagon_is_pruned_to_its_slabs(cuts, shift):
    supports = enumerate_supports(corner_cut_hexagon(cuts, shift))
    assert len(supports) > 3
    assert _antipodal_pairs(supports) == [(0, 3), (1, 4), (2, 5)]
    # the stack's own table holds the three slabs' rows alone, those of the
    # set, in two slots: the set has a third for its simplices, which the
    # slabs pad; every slab's first row comes before every second row
    table, stack_table = supports.table, supports.stack_table
    own, full = stack_table.facets, table.facets[:, supports.stack]
    assert own.shape == stack_table.heights.shape == (2, 3) and full.shape == (3, 3)
    assert own.tolist() == [[0, 1, 2], [3, 4, 5]]
    assert stack_table.heights.tobytes() == table.heights[:2, supports.stack].tobytes()
    assert np.all(full[2] == len(table.offsets))
    assert np.all(table.heights[2, supports.stack] == 1.0)
    assert stack_table.normals[own[:2]].tobytes() == table.normals[full[:2]].tobytes()
    assert stack_table.offsets[own[:2]].tobytes() == table.offsets[full[:2]].tobytes()


@pytest.mark.parametrize("dim, seed", [(2, 0), (3, 1), (4, 2)])
def test_scaled_and_translated_symmetric_polytope_is_pruned(dim, seed):
    """1e3 K + (1e3, -1e3, ...) keeps the stack of K."""
    base = symmetric_polytope(dim, dim + 3, seed)
    shift = 1e3 * np.array([(-1.0) ** i for i in range(dim)])
    moved = validate([(h.normal, 1e3 * h.offset - float(h.normal @ shift))
                      for h in base.halfspaces], dim)
    expected = _antipodal_pairs(enumerate_supports(base))
    assert len(expected) == dim + 3
    assert _antipodal_pairs(enumerate_supports(moved)) == expected


def _moved_symmetric_polytope(dim, seed):
    """1e3 K + (1e3, -1e3, ...), as in the test above."""
    base = symmetric_polytope(dim, dim + 3, seed)
    shift = 1e3 * np.array([(-1.0) ** i for i in range(dim)])
    return validate([(h.normal, 1e3 * h.offset - float(h.normal @ shift))
                     for h in base.halfspaces], dim)


MIRROR_CASES = {
    **{name: lambda name=name: load_fixture(name) for name in VALID_FIXTURES},
    **{f"tilted-{seed}": lambda seed=seed: tilted_prism(seed) for seed in range(12)},
    "ngon-24": lambda: ngon_polytope(24),
    "centred-hexagon": lambda: corner_cut_hexagon((1.0, 1.5, 0.5), (3.0, -2.0)),
    "paired-hexagon": lambda: corner_cut_hexagon((1.2, 1.5, 1.8)),
    **{f"symmetric-d{dim}": lambda dim=dim: symmetric_polytope(dim, dim + 3, dim)
       for dim in (2, 3, 4, 5)},
    **{f"symmetric-d{dim}-moved": lambda dim=dim: _moved_symmetric_polytope(dim, dim - 2)
       for dim in (2, 3, 4)},
    **{f"tangent-d{dim}": lambda dim=dim: validate(tangent_halfspaces(dim, dim + 6, 0), dim)
       for dim in (2, 3, 4)},
}


def _zeros_unsigned(array):
    """The bytes of ``array`` with -0.0 read as +0.0."""
    return (array + 0.0).tobytes()


@pytest.mark.parametrize("name", MIRROR_CASES)
def test_slab_rows_mirror_each_other(name):
    """A slab's cross-section normals are +-1 exactly, so its two lifted
    normals are negations of each other, bit for bit but for the sign of a
    zero.  A symmetric K's stack table holds every slab's first row, then
    every second, and its ``mirrored`` is the stack's width; every other K's
    stack table is the set's own ``table`` object, with ``mirrored`` 0."""
    supports = enumerate_supports(MIRROR_CASES[name]())
    for support in supports:
        if support.kind == "strip" and support.cross_dim == 1:
            assert support.cross_simplex.halfspaces[0].normal.tolist() in ([1.0], [-1.0])
            first, second = (h.normal for h in support.halfspaces)
            assert _zeros_unsigned(second) == _zeros_unsigned(-first)
    width = len(supports.stack)
    if supports_module._antipodal_strips(supports.polytope, supports.supports) is None:
        assert supports.stack_table is supports.table
        assert supports.stack_table.mirrored == 0
        assert name.startswith(("quad", "prism", "triangle", "tilted", "paired", "tangent"))
        return
    assert supports.stack_table is not supports.table
    assert supports.stack_table.mirrored == width > 0
    assert supports.stack_table.facets.tolist() == [list(range(width)),
                                                    list(range(width, 2 * width))]
    normals = supports.stack_table.normals
    assert normals.shape[0] == 2 * width
    assert _zeros_unsigned(normals[width:]) == _zeros_unsigned(-normals[:width])
    for column, i in enumerate(supports.stack.tolist()):
        rows = [h.normal for h in supports[i].halfspaces]
        assert normals[[column, width + column]].tobytes() == np.array(rows).tobytes()


@pytest.mark.parametrize("delta", [1e-9, 1e-11])
@pytest.mark.parametrize("dim, seed", [(2, 0), (3, 1), (4, 2)])
def test_perturbed_symmetric_polytope_is_not_pruned(dim, seed, delta):
    base = symmetric_polytope(dim, dim + 3, seed)
    halfspaces = [(h.normal, h.offset) for h in base.halfspaces]
    halfspaces[0] = (halfspaces[0][0], halfspaces[0][1] + delta)
    supports = enumerate_supports(validate(halfspaces, dim))
    assert [s.facet_indices for s in supports] == [s.facet_indices
                                                   for s in enumerate_supports(base)]
    _assert_full_stack(supports)


SYMMETRIC_CASES = {
    **{f"symmetric-d{dim}-{seed}": (lambda dim=dim, seed=seed: symmetric_polytope(dim, dim + 3, seed),
                                    dim + 3) for dim in (2, 3, 4, 5) for seed in range(2)},
    **{f"ngon-{sides}": (lambda sides=sides: ngon_polytope(sides), sides // 2)
       for sides in range(4, 25, 2)},
}


@pytest.mark.parametrize("name", SYMMETRIC_CASES)
def test_symmetric_stack_holds_every_antipodal_slab(name):
    """Every antipodal pair's slab survives the strip screen: one missing
    slab would turn the stack back into every support."""
    make, pairs = SYMMETRIC_CASES[name]
    supports = enumerate_supports(make())
    assert len(supports.stack) == pairs
    assert all(supports[i].kind == "strip" for i in supports.stack)


def test_interval_keeps_its_one_support_stack():
    """At d = 1 the slab is a simplex, not a strip, so nothing is pruned."""
    supports = enumerate_supports(validate([([1.0], 1.0), ([-1.0], 3.0)], 1))
    assert [s.kind for s in supports] == ["simplex"]
    _assert_full_stack(supports)


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_fixture_stacks(name):
    """The square and the cube have only their slabs; nothing else is symmetric."""
    supports = enumerate_supports(load_fixture(name))
    _assert_full_stack(supports)
