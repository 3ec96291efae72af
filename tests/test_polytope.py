"""Tests for halfspace canonicalization, vertex enumeration, and validation."""

import importlib
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyextremal import linalg, polytope
from polyextremal.extremal import eval_extremal
from polyextremal.linalg import Singular, Tolerances, rank
from polyextremal.polytope import (
    VERTEX_DEDUP_ABS,
    Degenerate,
    Empty,
    GuardExceeded,
    NotFullDimensional,
    ParseError,
    RedundantHalfspace,
    Unbounded,
    ZeroNormal,
    canonicalize,
    contains,
    enumerate_vertices,
    from_json,
    from_vertices_2d,
    validate,
)
from polyextremal.supports import enumerate_supports

from conftest import (cube_polytope, gram_schmidt, load_fixture, lu_solve_by_columns,
                      match_point_sets, ngon_polytope, tangent_halfspaces, tilted_prism)

QUAD_RAW = [
    ([1.0, 0.0], 0.0),
    ([0.0, 1.0], 0.0),
    ([-1.0, -3.0], 3.0),
    ([-3.0, -1.0], 3.0),
]
QUAD_VERTICES = [(0.0, 0.0), (1.0, 0.0), (0.75, 0.75), (0.0, 1.0)]
SQUARE_RAW = [
    ([1.0, 0.0], 1.0),
    ([-1.0, 0.0], 1.0),
    ([0.0, 1.0], 1.0),
    ([0.0, -1.0], 1.0),
]
TRIANGLE_RAW = [([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0), ([-1.0, -1.0], 1.0)]


def test_canonicalize_scales_to_unit_normal():
    result = canonicalize([([3.0, 0.0], 9.0)])
    assert len(result) == 1
    assert np.allclose(result[0].normal, [1.0, 0.0], atol=1e-14)
    assert result[0].offset == pytest.approx(3.0, abs=1e-14)


def test_canonicalize_collapses_duplicates():
    result = canonicalize([([1.0, 0.0], 1.0), ([2.0, 0.0], 2.0)])
    assert len(result) == 1
    assert np.allclose(result[0].normal, [1.0, 0.0], atol=1e-14)
    assert result[0].offset == pytest.approx(1.0, abs=1e-14)


def _canonicalize_pairwise(halfspaces, tol):
    """Duplicate removal against one kept condition at a time, the first
    occurrence kept; each condition is normalized on its own."""
    kept = []
    for raw in halfspaces:
        [candidate] = canonicalize([raw], tol)
        if not any(np.max(np.abs(candidate.normal - h.normal)) <= tol.geom_abs
                   and abs(candidate.offset - h.offset) <= tol.geom_abs for h in kept):
            kept.append(candidate)
    return kept


@pytest.mark.parametrize("geom", [1e-9, 1e-6])
def test_canonicalize_matches_pairwise_reference(geom):
    """Comparing each candidate with every kept condition at once keeps the
    same conditions, bit for bit, as comparing with one at a time."""
    tol = Tolerances(geom_abs=geom)
    rng = np.random.default_rng(909)
    dropped = 0
    for _ in range(60):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 8))
        normals, offsets = rng.normal(size=(n, d)), rng.normal(size=n)
        raw = []
        for k in rng.integers(0, n, size=2 * n):
            scale, nudge = rng.uniform(0.1, 10.0), float(rng.choice([0.0, 1e-10, 1e-8, 1e-7]))
            raw.append((normals[k] * scale + nudge, offsets[k] * scale + nudge))
        got = canonicalize(raw, tol)
        expected = _canonicalize_pairwise(raw, tol)
        assert [(h.normal.tobytes(), h.offset) for h in got] == [
            (h.normal.tobytes(), h.offset) for h in expected]
        dropped += len(raw) - len(got)
    assert dropped > 60


def test_canonicalize_ragged_normals_raise_value_error():
    with pytest.raises(ValueError):
        canonicalize([([1.0, 0.0], 1.0), ([1.0, 0.0, 0.0], 1.0)])
    with pytest.raises(ValueError):
        validate([([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0), ([-1.0, -1.0], 1.0), ([2.0], 1.0)], 2)


def test_polytope_arrays_are_stacked_once_and_read_only():
    polytope = validate(tangent_halfspaces(3, 9, 4), 3)
    normals, offsets = polytope.normals, polytope.offsets
    assert polytope.normals is normals and polytope.offsets is offsets
    assert not normals.flags.writeable and not offsets.flags.writeable
    assert normals.tobytes() == np.vstack([h.normal for h in polytope.halfspaces]).tobytes()
    assert offsets.tobytes() == np.array([h.offset for h in polytope.halfspaces]).tobytes()
    with pytest.raises(ValueError):
        normals[0, 0] = 0.0


def test_canonicalize_rejects_zero_normal():
    with pytest.raises(ZeroNormal):
        canonicalize([([0.0, 0.0], 1.0)])


@pytest.mark.parametrize("scale", [1e-16, 1e-170, 5e-324])
def test_canonicalize_tiny_normal_is_not_zero(scale):
    """Only the zero vector is a zero normal; a square that underflows is
    scaled by the largest entry first, as one that overflows is."""
    scaled = [([scale, 0.0], 0.0)] + TRIANGLE_RAW[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        polytope = validate(scaled, 2)
        [h] = canonicalize([([3 * scale, 4 * scale], 5 * scale)])
    assert np.array_equal(polytope.vertices, validate(TRIANGLE_RAW, 2).vertices)
    assert np.allclose(h.normal, [0.6, 0.8], atol=1e-15)
    assert h.offset == pytest.approx(1.0, abs=1e-15)


def test_canonicalize_keeps_antiparallel_pairs():
    result = canonicalize([([1.0, 0.0], 1.0), ([-1.0, 0.0], 1.0)])
    assert len(result) == 2


def test_canonicalize_huge_normal_does_not_overflow():
    """The squared length of [1e200, 0] overflows; the unit normal must not."""
    scaled = [([1e200, 0.0], 0.0)] + TRIANGLE_RAW[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        polytope = validate(scaled, 2)
        [h] = canonicalize([([3e200, 4e200], 5e200)])
    assert np.array_equal(polytope.vertices, validate(TRIANGLE_RAW, 2).vertices)
    assert np.allclose(h.normal, [0.6, 0.8], atol=1e-15)
    assert h.offset == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_huge_square_validates_to_two_strips(scale):
    """The square [-s, s]^2 at scales where squared vertex differences
    overflow: every facet keeps its witness, and V(2s, 0) = arccosh 2."""
    square = validate([([1.0, 0.0], scale), ([-1.0, 0.0], scale),
                       ([0.0, 1.0], scale), ([0.0, -1.0], scale)], 2)
    supports = enumerate_supports(square)
    assert [(s.kind, s.facet_indices) for s in supports] == [("strip", (0, 1)), ("strip", (2, 3))]
    assert eval_extremal(supports, [2.0 * scale, 0.0]).value == pytest.approx(
        math.acosh(2.0), rel=1e-15)


def test_enumerate_vertices_quad():
    vertices, incidence = enumerate_vertices(canonicalize(QUAD_RAW), 2)
    assert match_point_sets(vertices, QUAD_VERTICES)
    assert len(incidence.active) == 4


def test_enumerate_vertices_square():
    vertices, _ = enumerate_vertices(canonicalize(SQUARE_RAW), 2)
    expected = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
    assert match_point_sets(vertices, expected)


def test_enumerate_vertices_triangle():
    vertices, _ = enumerate_vertices(canonicalize(TRIANGLE_RAW), 2)
    assert match_point_sets(vertices, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


def test_enumerate_vertices_incidence_rank():
    halfspaces = canonicalize(QUAD_RAW)
    vertices, incidence = enumerate_vertices(halfspaces, 2)
    for k in range(len(vertices)):
        active = incidence.active[k]
        assert len(active) >= 2
        normals = np.array([halfspaces[i].normal for i in active])
        assert rank(normals) == 2


@pytest.mark.parametrize("name", ["quad", "square", "triangle", "cube", "prism"])
def test_arrangement_holds_every_nonsingular_subset(name):
    """incidence.arrangement is the solve of each d-subset, singular ones
    left out, bitwise the scalar reference LU's."""
    polytope = load_fixture(name)
    halfspaces, d = polytope.halfspaces, polytope.dim
    arrangement = polytope.incidence.arrangement
    nonsingular = []
    for subset in itertools.combinations(range(len(halfspaces)), d):
        rows = np.vstack([halfspaces[k].normal for k in subset])
        rhs = -np.array([halfspaces[k].offset for k in subset])
        try:
            point = lu_solve_by_columns(rows, rhs)
        except Singular:
            continue
        nonsingular.append(subset)
        assert arrangement[subset].tobytes() == point.tobytes()
    assert list(arrangement) == nonsingular
    corners = [p.tobytes() for p in arrangement.values()]
    assert all(v.tobytes() in corners for v in polytope.vertices)


def _octahedron():
    return [(list(np.array(signs) / np.sqrt(3.0)), 1.0)
            for signs in itertools.product((1.0, -1.0), repeat=3)]


def _pyramid():
    """A square pyramid: its apex lies on four facets."""
    return [([0.0, 0.0, 1.0], 0.0)] + [(list(n), 1.0) for n in
                                       ([-1.0, 0.0, -1.0], [1.0, 0.0, -1.0],
                                        [0.0, -1.0, -1.0], [0.0, 1.0, -1.0])]


VERTEX_CASES = {
    **{name: lambda name=name: load_fixture(name).halfspaces
       for name in ("quad", "square", "triangle", "cube", "prism")},
    "octahedron": lambda: canonicalize(_octahedron()),
    "pyramid": lambda: canonicalize(_pyramid()),
    "ngon-24": lambda: ngon_polytope(24).halfspaces,
    "tangent-d4": lambda: canonicalize(tangent_halfspaces(4, 11, 1)),
    "outward-square": lambda: canonicalize([([-n for n in normal], -b) for normal, b in SQUARE_RAW]),
}


@pytest.mark.parametrize("name", VERTEX_CASES)
def test_enumerate_vertices_matches_per_corner_loop(name):
    """Vertices and active sets read from the value matrix equal a loop over
    the arrangement's corners with ``Halfspace.value``, bit for bit: feasible
    corners, the first of each cluster within VERTEX_DEDUP_ABS kept."""
    halfspaces = list(VERTEX_CASES[name]())
    dim = halfspaces[0].normal.shape[0]
    vertices, incidence = enumerate_vertices(halfspaces, dim)
    geom = Tolerances().geom_abs
    kept = []
    for p in incidence.arrangement.values():
        if min(h.value(p) for h in halfspaces) >= -geom and not any(
                np.max(np.abs(p - q)) <= VERTEX_DEDUP_ABS for q in kept):
            kept.append(p)
    assert vertices.shape == (len(kept), dim)
    assert vertices.tobytes() == np.array(kept).reshape(-1, dim).tobytes()
    assert incidence.active == tuple(
        tuple(k for k, h in enumerate(halfspaces) if abs(h.value(v)) <= geom) for v in kept)


def test_enumerate_vertices_invariant_under_permutation():
    base, _ = enumerate_vertices(canonicalize(QUAD_RAW), 2)
    rng = np.random.default_rng(321)
    for _ in range(6):
        order = rng.permutation(4)
        permuted = [QUAD_RAW[i] for i in order]
        got, _ = enumerate_vertices(canonicalize(permuted), 2)
        assert match_point_sets(got, base)


def test_validate_quad():
    polytope = validate(QUAD_RAW, 2)
    assert polytope.dim == 2
    assert len(polytope.halfspaces) == 4
    assert match_point_sets(polytope.vertices, QUAD_VERTICES)
    assert polytope.radius > 0.0
    values = polytope.values(polytope.interior)
    assert np.all(values > 1e-9)


def test_validate_accepts_halfspace_objects():
    polytope = validate(canonicalize(QUAD_RAW), 2)
    assert len(polytope.halfspaces) == 4


def test_validate_redundant_halfspace():
    with pytest.raises(RedundantHalfspace) as exc:
        validate(QUAD_RAW + [([1.0, 0.0], 10.0)], 2)
    assert exc.value.index == 4


def test_validate_unbounded_quadrant():
    with pytest.raises(Unbounded):
        validate([([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0)], 2)


def test_validate_not_full_dimensional():
    degenerate = [
        ([1.0, 0.0], 0.0),
        ([-1.0, 0.0], 0.0),
        ([0.0, 1.0], 0.0),
        ([0.0, -1.0], 0.0),
    ]
    with pytest.raises(NotFullDimensional):
        validate(degenerate, 2)


def test_validate_empty():
    with pytest.raises(Empty):
        validate([([1.0, 0.0], -1.0), ([-1.0, 0.0], -1.0)], 2)


@pytest.mark.parametrize("raw,error,calls", [
    (QUAD_RAW, None, 1),
    ([([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0)], Unbounded, 1),
    ([([1.0, 0.0], 0.0), ([-1.0, 0.0], 0.0)], Unbounded, 1),
    ([([1.0, 0.0], 0.0), ([-1.0, 0.0], 0.0), ([0.0, 1.0], 0.0), ([0.0, -1.0], 1.0)],
     NotFullDimensional, 1),
    ([([1.0, 0.0], -1.0), ([-1.0, 0.0], -1.0)], Empty, 0),
], ids=["quad", "quadrant", "line", "segment", "empty-and-unbounded"])
def test_validate_solves_the_recession_program_at_most_once(monkeypatch, raw, error, calls):
    """Empty on a negative Chebyshev radius comes before Unbounded, which
    comes before NotFullDimensional, all from one recession-cone program."""
    seen = []
    original = polytope.recession_direction
    monkeypatch.setattr(polytope, "recession_direction",
                        lambda *args: seen.append(args) or original(*args))
    if error is None:
        validate(raw, 2)
    else:
        with pytest.raises(error):
            validate(raw, 2)
    assert len(seen) == calls


@pytest.mark.parametrize("name", ["quad", "square", "triangle", "cube", "prism"])
def test_validate_bounded_solves_two_programs(monkeypatch, name):
    """A bounded polytope costs one Chebyshev program and one recession
    program, whatever its dimension."""
    calls = []
    original = linalg.linprog_max
    monkeypatch.setattr(linalg, "linprog_max", lambda *args: calls.append(args) or original(*args))
    load_fixture(name)
    assert len(calls) == 2


def test_validate_no_halfspaces_is_unbounded():
    with pytest.raises(Unbounded):
        validate([], 2)


def test_validate_facet_guard():
    halfspaces = [([1.0, 0.0], float(k)) for k in range(30)]
    with pytest.raises(GuardExceeded):
        validate(halfspaces, 2, max_facets=24)


def test_validate_dimension_guard():
    with pytest.raises(GuardExceeded):
        validate([([1.0] + [0.0] * 6, 1.0)], 7, max_dim=5)


def test_validate_repairs_outward_oriented_square():
    """A fully outward-oriented description is flipped back automatically."""
    flipped = [(list(-np.asarray(n)), -b) for n, b in SQUARE_RAW]
    polytope = validate(flipped, 2)
    expected = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
    assert match_point_sets(polytope.vertices, expected)
    assert all(h.offset == pytest.approx(1.0, abs=1e-12) for h in polytope.halfspaces)


def test_validate_repairs_outward_oriented_triangle():
    flipped = [(list(-np.asarray(n)), -b) for n, b in TRIANGLE_RAW]
    polytope = validate(flipped, 2)
    assert match_point_sets(polytope.vertices, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


def test_contains_quad_inside_and_outside():
    polytope = validate(QUAD_RAW, 2)
    assert contains(polytope, np.array([0.375, 0.375]))
    assert not contains(polytope, np.array([1.0, 1.0]))
    assert contains(polytope, polytope.interior)


def test_contains_all_vertices():
    for name in ("quad", "square", "triangle", "cube", "prism"):
        polytope = load_fixture(name)
        for v in polytope.vertices:
            assert contains(polytope, v)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_contains_rejects_non_finite_point(bad):
    with pytest.raises(ValueError, match="finite"):
        contains(validate(QUAD_RAW, 2), np.array([0.375, bad]))


def test_facet_witness_spans_edge():
    polytope = validate(QUAD_RAW, 2)
    for k, h in enumerate(polytope.halfspaces):
        active = [v for v in polytope.vertices if abs(h.value(v)) <= 1e-9]
        assert len(active) >= 2
        diffs = np.array(active[1:]) - np.array(active[0])
        assert rank(diffs) == 1


def _witnesses_one_by_one(vertices, incidence, count, dim, tol):
    """Each halfspace's witness test on its own, with the scalar Gram-Schmidt:
    active on at least d vertices whose differences from the first, in
    vertex order, reach rank d - 1."""
    out = []
    for k in range(count):
        active = [v for v, on in zip(vertices, incidence.active) if k in on]
        out.append(len(active) >= dim and (dim == 1 or len(gram_schmidt(
            np.vstack([v - active[0] for v in active[1:]]), tol, dim - 1)) >= dim - 1))
    return out


def _workload_members(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    inputs = importlib.import_module("inputs")
    return [validate(member.halfspaces(), member.dim) for workload in inputs.WORKLOADS
            for seed in (1, 2, 3) for member in inputs.make_inputs(workload, seed).members]


def test_batched_witnesses_match_one_by_one(monkeypatch):
    """One zero-padded Gram-Schmidt call over every halfspace, stopped at
    d - 1, decides each witness as the halfspace's own call does: on the
    fixtures, the benchmark's members, the tilted prisms and the d-cubes.
    In the 4-cube some facet's first three vertex differences are dependent,
    so its pass must go past them."""
    cases = [load_fixture(name) for name in ("cube", "prism", "quad", "quad_vertices",
                                             "square", "triangle")]
    cases += _workload_members(monkeypatch)
    cases += [tilted_prism(seed) for seed in range(12)]
    cases += [cube_polytope(dim) for dim in (2, 3, 4, 5)]
    for case in cases:
        count = len(case.halfspaces)
        witnessed = polytope._witnessed(case.vertices, case.incidence, count, case.dim, case.tol)
        assert witnessed.tolist() == _witnesses_one_by_one(
            case.vertices, case.incidence, count, case.dim, case.tol) == [True] * count
    cube = cube_polytope(4)
    first = [[v for v, on in zip(cube.vertices, cube.incidence.active) if k in on][:4]
             for k in range(8)]
    assert any(len(gram_schmidt(np.array(f[1:]) - f[0])) < 3 for f in first)


@pytest.mark.parametrize("raw,dim,redundant", [
    # touches the square at one vertex: too few active vertices
    (SQUARE_RAW[:2] + [([1.0, 1.0], 2.0)] + SQUARE_RAW[2:], 2, 2),
    # touches the 4-cube on a 2-face: four active vertices, but of rank 2
    ([(list(s * a), 1.0) for a in np.eye(4)[:2] for s in (1, -1)] + [([1.0, 1.0, 0, 0], 2.0)]
     + [(list(s * a), 1.0) for a in np.eye(4)[2:] for s in (1, -1)], 4, 4),
    # misses the polytope altogether
    (tangent_halfspaces(3, 9, 4) + [([0.0, 0.0, 1.0], 5.0)], 3, 9),
])
def test_redundant_halfspace_index_matches_one_by_one(raw, dim, redundant):
    halfspaces = canonicalize(raw)
    vertices, incidence = enumerate_vertices(halfspaces, dim)
    expected = _witnesses_one_by_one(vertices, incidence, len(halfspaces), dim, Tolerances())
    assert expected.index(False) == redundant
    with pytest.raises(RedundantHalfspace) as exc:
        validate(raw, dim)
    assert exc.value.index == redundant


def test_from_vertices_2d_quad():
    polytope = from_vertices_2d(QUAD_VERTICES)
    assert len(polytope.halfspaces) == 4
    expected = {
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (-1 / np.sqrt(10), -3 / np.sqrt(10), 3 / np.sqrt(10)),
        (-3 / np.sqrt(10), -1 / np.sqrt(10), 3 / np.sqrt(10)),
    }
    got = {(h.normal[0], h.normal[1], h.offset) for h in polytope.halfspaces}
    for item in got:
        assert any(np.allclose(item, exp, atol=1e-9) for exp in expected)
    assert match_point_sets(polytope.vertices, QUAD_VERTICES)


def test_from_vertices_2d_triangle():
    polytope = from_vertices_2d([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    assert len(polytope.halfspaces) == 3
    assert match_point_sets(polytope.vertices, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


def test_from_vertices_2d_interior_points_dropped():
    polytope = from_vertices_2d([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.1, 0.1)])
    assert len(polytope.halfspaces) == 3


def test_from_vertices_2d_collinear():
    with pytest.raises(Degenerate):
        from_vertices_2d([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_from_vertices_2d_rejects_non_finite_vertex(bad):
    """A NaN vertex used to end in NotFullDimensional and an infinite one in
    a RuntimeWarning from the hull."""
    with pytest.raises(ValueError, match="finite"):
        from_vertices_2d([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (bad, 0.5)])


def test_from_vertices_2d_too_few_points():
    with pytest.raises(Degenerate):
        from_vertices_2d([(0.0, 0.0), (1.0, 0.0)])


def _hull_oracle(points: np.ndarray) -> np.ndarray:
    from scipy.spatial import ConvexHull

    hull = ConvexHull(points)
    return points[hull.vertices]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 8])
def test_from_vertices_round_trip_against_hull_oracle(seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-2.0, 2.0, size=(int(rng.integers(4, 13)), 2))
    expected = _hull_oracle(points)
    if len(expected) < 3:
        pytest.skip("degenerate cloud")
    polytope = from_vertices_2d(points)
    assert match_point_sets(polytope.vertices, expected, tol=1e-9)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-8, max_value=8),
            st.integers(min_value=-8, max_value=8),
        ),
        min_size=3,
        max_size=10,
        unique=True,
    )
)
@settings(max_examples=80)
def test_from_vertices_output_contains_every_input_point(cloud):
    points = np.asarray(cloud, dtype=float)
    try:
        polytope = from_vertices_2d(points)
    except Degenerate:
        return
    for p in points:
        assert contains(polytope, p)


def test_from_json_halfspace_form():
    doc = {
        "dim": 2,
        "halfspaces": [{"normal": [1.0, 0.0], "offset": 1.0},
                       {"normal": [-1.0, 0.0], "offset": 1.0},
                       {"normal": [0.0, 1.0], "offset": 1.0},
                       {"normal": [0.0, -1.0], "offset": 1.0}],
    }
    polytope = from_json(doc)
    assert polytope.dim == 2
    assert len(polytope.halfspaces) == 4


def test_from_json_vertex_form():
    doc = {"dim": 2, "vertices": [[0.0, 0.0], [1.0, 0.0], [0.75, 0.75], [0.0, 1.0]]}
    polytope = from_json(doc)
    assert match_point_sets(polytope.vertices, QUAD_VERTICES)


def test_from_json_fixture_file_round_trip():
    polytope = load_fixture("quad_vertices")
    assert match_point_sets(polytope.vertices, QUAD_VERTICES)


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": 2},
        {"halfspaces": []},
        {"dim": 2, "halfspaces": [], "vertices": []},
        {"dim": "two", "halfspaces": [{"normal": [1, 0], "offset": 0}]},
        {"dim": 2, "halfspaces": [{"normal": [1.0], "offset": 0.0}]},
        {"dim": 2, "halfspaces": [{"normal": [1.0, 0.0]}]},
        {"dim": 2, "halfspaces": [{"normal": [np.inf, 0.0], "offset": 0.0}]},
        {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        {"dim": 2, "vertices": [[0, 0], [1, 0], [0, "x"]]},
    ],
)
def test_from_json_schema_errors(doc):
    with pytest.raises(ParseError):
        from_json(doc)


def test_loose_tolerance_rejects_thin_polytope():
    thin = [
        ([1.0, 0.0], 0.0),
        ([-1.0, 0.0], 1e-6),
        ([0.0, 1.0], 0.0),
        ([0.0, -1.0], 1.0),
    ]
    assert validate(thin, 2).radius > 0
    with pytest.raises(NotFullDimensional):
        validate(thin, 2, Tolerances.uniform(1e-3))
