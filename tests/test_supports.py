"""Tests for supporting-simplex and strip certification and enumeration."""

import itertools
import math

import numpy as np
import pytest

from polyextremal import linalg as linalg_module
from polyextremal import polytope as polytope_module
from polyextremal import supports as supports_module
from polyextremal.extremal import eval_supports_many
from polyextremal.linalg import Singular, lu_solve_many
from polyextremal.polytope import enumerate_vertices, from_vertices_2d, validate
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
                      symmetric_polytope, tangent_halfspaces, tilted_prism)

VALID_FIXTURES = ("cube", "prism", "quad", "quad_vertices", "square", "triangle")


def _oracle_simplex(normals, offsets, tol):
    """Apexes, rows and shifts of a (k+1)-hyperplane system in R^k, each apex
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
    return apexes, normals / heights[:, None], offsets / heights


def _oracle_strip(polytope, subset):
    """The strip test of ``try_strip`` with the scalar Gram-Schmidt and a
    fresh solve per cross-section apex."""
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
    return None if cross is None else (basis,) + cross


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
def test_support_set_stacks_rows_and_shifts(name):
    """Column i of the stacked arrays is support i's rows and shifts, with a
    strip's missing rows padded by exact zeros."""
    supports = enumerate_supports(load_fixture(name))
    d = supports.polytope.dim
    assert supports.rows.shape == (d + 1, d, len(supports))
    assert supports.shifts.shape == (d + 1, len(supports))
    for i, support in enumerate(supports):
        count = len(support.shifts)
        assert supports.rows[:count, :, i].tobytes() == support.rows.tobytes()
        assert supports.shifts[:count, i].tobytes() == support.shifts.tobytes()
        assert np.all(supports.rows[count:, :, i] == 0.0)
        assert np.all(supports.shifts[count:, i] == 0.0)


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

        vertices, _ = enumerate_vertices(canonicalize(pooled), polytope.dim)
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
    subsets pass, with the same apexes, rows and shifts."""
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
                basis, *expected = expected
                assert got.basis.tobytes() == basis.tobytes()
                assert got.rows.tobytes() == (expected[1] @ basis).tobytes()
                assert got.shifts.tobytes() == expected[2].tobytes()
            apexes, rows, shifts = expected
            assert cross.apexes.tobytes() == apexes.tobytes()
            assert cross.rows.tobytes() == rows.tobytes()
            assert cross.shifts.tobytes() == shifts.tobytes()


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
    screened, of j+1 systems per candidate, and in one batch of j+1 systems
    per ``try_strip`` call: every solve is inside a strip test."""
    batches, factored = _count_lu(monkeypatch, supports_module)
    inside_strip = []

    def traced_strip(polytope, subset):
        before = len(batches)
        strip = try_strip(polytope, subset)
        inside_strip.append(batches[before:])
        return strip

    monkeypatch.setattr(supports_module, "try_strip", traced_strip)
    supports = enumerate_supports(prism)
    assert [s.kind for s in supports] == ["strip", "strip"]
    assert inside_strip == [[((2, 1, 1), [True, True])], [((3, 2, 2), [True, True, True])]]
    screens = [shape for shape, _ in batches[:2]]
    assert [shape[1] for shape in screens] == [1, 2]
    assert screens[0][0] % 2 == 0 and screens[1][0] % 3 == 0
    assert [batch[0] for batch in batches] == factored and len(batches) == 4


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
            support.rows.tobytes(), support.shifts.tobytes(), basis)


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
}


@pytest.mark.parametrize("name", SCREEN_CASES)
def test_batched_screen_agrees_with_try_simplex(name):
    """The value matrix is ``Halfspace.value`` at every arrangement corner,
    bit for bit, and the batched screen passes exactly the (d+1)-subsets that
    ``try_simplex`` certifies."""
    polytope = SCREEN_CASES[name]()
    n, d = len(polytope.halfspaces), polytope.dim
    incidence = polytope.incidence
    assert incidence.values.shape == (len(incidence.arrangement), n)
    for point, row in zip(incidence.arrangement.values(), incidence.values):
        assert row.tobytes() == np.array([h.value(point) for h in polytope.halfspaces]).tobytes()
    nonsingular = np.array([face in incidence.arrangement
                            for face in itertools.combinations(range(n), d)])
    screened = supports_module._simplex_candidates(polytope, nonsingular)
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
    """For every size 2..d, the batched strip screen passes exactly the
    subsets that ``try_strip`` certifies, among all subsets of that size and
    not only those inside singular d-subsets, with the bases and corners
    ``try_strip`` finds for each on its own, bit for bit."""
    polytope = STRIP_SCREEN_CASES[name]()
    n, d = len(polytope.halfspaces), polytope.dim
    for size in range(2, d + 1):
        subsets = list(itertools.combinations(range(n), size))
        certified = {subset: strip for subset in subsets
                     if (strip := try_strip(polytope, subset)) is not None}
        index, basis, _, _, apexes, _, passed = supports_module._strips(polytope,
                                                                        np.array(subsets))
        screened = [tuple(subset) for subset in index[passed].tolist()]
        assert screened == list(certified)
        for subset, q, corners in zip(screened, basis[passed], apexes[passed]):
            assert certified[subset].basis.tobytes() == q.tobytes()
            assert certified[subset].cross_simplex.apexes.tobytes() == corners.tobytes()


def test_combination_rank_follows_itertools_order():
    for n, k in ((1, 1), (5, 1), (5, 2), (6, 3), (9, 4), (12, 6), (7, 7)):
        subsets = np.array(list(itertools.combinations(range(n), k)))
        ranks = supports_module._combination_rank(list(subsets.T), n)
        assert ranks.tolist() == list(range(len(subsets)))


@pytest.mark.parametrize("dim,count,seed", [(3, 10, 1), (4, 9, 6)])
def test_no_strip_search_when_every_d_subset_is_nonsingular(monkeypatch, dim, count, seed):
    polytope = validate(tangent_halfspaces(dim, count, seed), dim)
    assert len(polytope.incidence.arrangement) == math.comb(count, dim)
    calls = []

    def counting(*args):
        calls.append(args)
        return try_strip(*args)

    monkeypatch.setattr(supports_module, "try_strip", counting)
    assert all(s.kind == "simplex" for s in enumerate_supports(polytope))
    assert calls == []


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


def _assert_full_stack(supports):
    assert supports.stack.tolist() == list(range(len(supports)))
    assert supports.stack_rows.tobytes() == supports.rows.tobytes()
    assert supports.stack_shifts.tobytes() == supports.shifts.tobytes()


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
    assert supports.stack_rows.tobytes() == supports.rows[..., supports.stack].tobytes()
    assert supports.stack_shifts.tobytes() == supports.shifts[:, supports.stack].tobytes()


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
