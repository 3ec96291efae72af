"""Tests for halfspace canonicalization, vertex enumeration, and validation."""

import importlib
import itertools
import json
import math
import sys
import tracemalloc
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
                      match_point_sets, ngon_halfspaces, ngon_polytope, singular_subsets,
                      tangent_halfspaces, tilted_prism)

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
    normals, offsets = canonicalize([([3.0, 0.0], 9.0)])
    assert normals.shape == (1, 2) and offsets.shape == (1,)
    assert np.allclose(normals[0], [1.0, 0.0], atol=1e-14)
    assert offsets[0] == pytest.approx(3.0, abs=1e-14)


def test_canonicalize_collapses_duplicates():
    normals, offsets = canonicalize([([1.0, 0.0], 1.0), ([2.0, 0.0], 2.0)])
    assert normals.shape == (1, 2) and offsets.shape == (1,)
    assert np.allclose(normals[0], [1.0, 0.0], atol=1e-14)
    assert offsets[0] == pytest.approx(1.0, abs=1e-14)


def test_canonicalize_of_no_rows_is_empty():
    normals, offsets = canonicalize([])
    assert normals.shape == (0, 0) and offsets.shape == (0,)


def _rows(canonical):
    """Each row of ``canonicalize``'s arrays as (normal bytes, offset)."""
    normals, offsets = canonical
    return [(normal.tobytes(), offset) for normal, offset in zip(normals, offsets.tolist())]


def _record_rows(halfspaces):
    """Each ``Halfspace`` record as (normal bytes, offset)."""
    return [(h.normal.tobytes(), h.offset) for h in halfspaces]


def _unit_rows(halfspaces):
    """Each condition checked and scaled to a unit normal on its own, one
    ``np.dot`` per row: the first defective row raises."""
    rows = []
    for raw in halfspaces:
        normal, offset = polytope._as_halfspace_data(raw)
        if normal.ndim != 1:
            raise ValueError("normals must be vectors")
        if not np.all(np.isfinite(normal)) or not math.isfinite(offset):
            raise ValueError("halfspace entries must be finite")
        if not np.any(normal):
            raise ZeroNormal("halfspace normal is the zero vector")
        with np.errstate(over="ignore"):
            square = float(np.dot(normal, normal))
        if not sys.float_info.min <= square < math.inf:
            peak = float(np.max(np.abs(normal)))
            normal, offset = normal / peak, offset / peak
            square = float(np.dot(normal, normal))
        length = float(np.sqrt(square))
        rows.append((normal / length, offset / length))
    np.array([np.append(normal, offset) for normal, offset in rows])  # ragged: ValueError
    return rows


def _canonicalize_pairwise(halfspaces, tol):
    """Duplicate removal against one kept condition at a time, the first
    occurrence kept; each condition is normalized on its own."""
    kept = []
    for normal, offset in _unit_rows(halfspaces):
        if not any(np.max(np.abs(normal - h.normal)) <= tol.geom_abs
                   and abs(offset - h.offset) <= tol.geom_abs for h in kept):
            kept.append(polytope.Halfspace(normal=normal, offset=offset))
    return kept


@pytest.mark.parametrize("geom", [1e-9, 1e-6])
def test_canonicalize_matches_pairwise_reference(geom):
    """Deduplicating the (normal, offset) rows by ``_first_apart`` keeps the
    same conditions, bit for bit, as comparing each candidate with one kept
    condition at a time."""
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
        assert _rows(got) == _record_rows(_canonicalize_pairwise(raw, tol))
        dropped += len(raw) - len(got[1])
    assert dropped > 60


DEFECTIVE_ROWS = {
    "non-vector": ([[1.0, 0.0]], 1.0),
    "nan-normal": ([float("nan"), 1.0], 1.0),
    "inf-normal": ([0.0, -math.inf], 1.0),
    "inf-offset": ([1.0, 0.0], math.inf),
    "nan-offset-zero-normal": ([0.0, 0.0], math.nan),
    "zero-normal": ([0.0, -0.0], 1.0),
    "empty-normal": ([], 1.0),
    "ragged": ([1.0, 0.0, 2.0], 1.0),
    "ragged-long": ([1.0, 0.0, 2.0, 3.0], 1.0),
    "unreadable": (["x", 0.0], 1.0),
    "no-offset": ([1.0, 0.0],),
}


def _outcome(function, halfspaces):
    try:
        return function(halfspaces)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("first", DEFECTIVE_ROWS)
@pytest.mark.parametrize("second", DEFECTIVE_ROWS)
def test_canonicalize_raises_for_the_first_defective_row(first, second):
    """With defects in two rows, the first in input order decides the
    exception type and message, as when each row is checked in turn; the
    ragged rows raise only after every row passed its own checks."""
    good = ([0.6, 0.8], 2.0)
    for rows in ([DEFECTIVE_ROWS[first], DEFECTIVE_ROWS[second]],
                 [good, DEFECTIVE_ROWS[first], good, DEFECTIVE_ROWS[second], good]):
        expected = _outcome(
            lambda raw: _record_rows(_canonicalize_pairwise(raw, Tolerances())), rows)
        assert _outcome(lambda raw: _rows(canonicalize(raw)), rows) == expected
    assert isinstance(expected, tuple)


@pytest.mark.parametrize("scale", [1e-160, 1e-300, 1e200, 1e300])
def test_canonicalize_rescaled_rows_match_one_by_one(scale):
    """Rows whose square is not a normal float, mixed with ordinary rows,
    get bitwise the normals and offsets of their own per-row scaling."""
    rng = np.random.default_rng(17)
    for d in (1, 2, 3, 5):
        normals, offsets = rng.normal(size=(9, d)), rng.normal(size=9)
        raw = [(list(n * (scale if k % 3 else 1.0)), b * (scale if k % 3 else 1.0))
               for k, (n, b) in enumerate(zip(normals, offsets))]
        raw += [raw[0], raw[1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = canonicalize(raw)
        assert _rows(got) == _record_rows(_canonicalize_pairwise(raw, Tolerances()))
        assert len(got[1]) < len(raw)


def _first_apart_pairwise(points, radius):
    """Each point against every kept one, in index order."""
    kept = []
    for i, p in enumerate(points):
        if not any(np.max(np.abs(p - points[k])) <= radius for k in kept):
            kept.append(i)
    return kept


def _feasible_corners(halfspaces):
    """The corners ``enumerate_vertices`` merges: the feasible points of the
    arrangement of the canonical ``halfspaces``."""
    tol = Tolerances()
    corners, nonsingular, values = polytope._arrangement(*canonicalize(halfspaces), tol)
    return corners[nonsingular & (np.min(values, axis=1) >= -tol.geom_abs)]


def _cross_polytope_corners():
    """The feasible corners of the 4-D cross-polytope: each of its 8
    vertices lies on 8 facets, so it is the corner of 70 d-subsets."""
    return _feasible_corners([(list(np.array(s) / 2.0), 1.0)
                              for s in itertools.product((1.0, -1.0), repeat=4)])


def _first_apart_cases():
    r = VERTEX_DEDUP_ABS
    rng = np.random.default_rng(23)
    angles = 2 * np.pi * np.arange(24) / 24
    ngon = _feasible_corners(ngon_halfspaces(24))
    moved = ngon.copy()
    moved[5] = moved[17] + [0.5 * r, -0.75 * r]
    ngon_104 = ngon_polytope(104)
    # a dyadic radius q: pairs exactly q and exactly 2q apart in the first
    # coordinate, the one whose windows hold the fewest pairs, with the
    # second one equal, or with odd rows 3q apart from even ones
    q = 2.0 ** -20
    window = [0.0, q, 0.25, 0.25 + q, 0.25 + 2 * q, 0.5, 0.5 + 2 * q, 0.75 + 2 * q, 0.75]
    cases = {
        "ties-at-radius": (np.array([[0.0], [r], [2 * r], [3 * r], [0.5], [0.5 + r]]), r),
        "chained": (np.array([[1.0, 0.0], [1.0 + 0.8 * r, 0.0], [1.0 + 1.6 * r, 0.0],
                              [1.0 + 2.4 * r, 0.0], [1.0 + 1.6 * r, 0.9 * r]]), r),
        "mirrored": (np.column_stack([np.cos(angles), np.sin(angles)]), r),
        "mirrored-quadrants": (np.array([[x, y] for x in (0.3, -0.3) for y in (0.7, -0.7)]
                                        + [[0.3, 0.7 + 0.5 * r]]), r),
        "signed-zeros": (np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, 1.0],
                                   [0.0, 1.0 + r]]), r),
        "all-equal": (np.full((7, 3), 0.25), r),
        "single": (np.array([[1.0, 2.0, 3.0]]), r),
        "none": (np.empty((0, 2)), r),
        "cross-polytope": (_cross_polytope_corners(), r),
        "ngon-24-moved": (moved, r),
        "ngon-104-rows": (np.column_stack((ngon_104.normals, ngon_104.offsets)),
                          ngon_104.tol.geom_abs),
        "ngon-104-corners": (_feasible_corners(ngon_halfspaces(104)), r),
        "window-r-and-2r": (np.column_stack([window, np.full(9, 0.125)]), q),
        "window-r-and-2r-apart": (np.column_stack([window, 3 * q * (np.arange(9) % 2)]), q),
    }
    for exponent in range(-12, 13, 2):
        lattice = rng.integers(-3, 4, size=(40, 3)) * (r / 2) + rng.normal(size=(1, 3))
        cases[f"scale-1e{exponent}"] = (lattice * 10.0 ** exponent, r)
        cases[f"scale-1e{exponent}-radius"] = (lattice * 10.0 ** exponent, r * 10.0 ** exponent)
    return cases


FIRST_APART_CASES = _first_apart_cases()


@pytest.mark.parametrize("name", FIRST_APART_CASES)
def test_first_apart_matches_pairwise_reference(name):
    """The points the sorted windows leave to the greedy and the ones they
    keep outright give the index list of comparing every point with every
    kept one."""
    points, radius = FIRST_APART_CASES[name]
    assert polytope._first_apart(points, radius) == _first_apart_pairwise(points, radius)
    mirrored = -points[::-1]
    assert polytope._first_apart(mirrored, radius) == _first_apart_pairwise(mirrored, radius)


def test_first_apart_stays_small_where_many_corners_meet():
    """The apex of a pyramid over a 23-gon is the corner of 1,771 d-subsets,
    so the windows of each coordinate hold about 1.6 million pairs.  Past
    16 pairs a point the greedy runs instead, and merging the 1,794 corners
    allocates well under the 100 MB that testing those pairs would take."""
    angles = 2 * np.pi * np.arange(23) / 23
    corners = _feasible_corners([([-math.cos(a), -math.sin(a), -1.0], 1.0) for a in angles]
                                + [([0.0, 0.0, 1.0], 0.0)])
    assert len(corners) == 1794
    tracemalloc.start()
    try:
        kept = polytope._first_apart(corners, VERTEX_DEDUP_ABS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert kept == _first_apart_pairwise(corners, VERTEX_DEDUP_ABS) and len(kept) == 24


class _CountingNumpy:
    """numpy, with a count of ``argmax`` calls: ``_first_apart``'s greedy
    makes one per pass, and nothing else there calls it."""

    def __init__(self):
        self.argmax_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def argmax(self, *args, **kwargs):
        self.argmax_calls += 1
        return np.argmax(*args, **kwargs)


@pytest.mark.parametrize("sides", [24, 104])
def test_mirrored_ngon_makes_no_greedy_pass(monkeypatch, sides):
    """Every row and every corner of the regular 24-gon and 104-gon shares a
    coordinate with its mirror image, yet none is near another, so merging
    their duplicates in ``validate`` runs no greedy pass; a corner moved
    next to another runs exactly one."""
    counting = _CountingNumpy()
    monkeypatch.setattr(polytope, "np", counting)
    assert len(validate(ngon_halfspaces(sides), 2).vertices) == sides
    assert counting.argmax_calls == 0
    points = _feasible_corners(ngon_halfspaces(sides))
    points[5] = points[17] + [0.5 * VERTEX_DEDUP_ABS, -0.75 * VERTEX_DEDUP_ABS]
    assert polytope._first_apart(points, VERTEX_DEDUP_ABS) == [k for k in range(sides) if k != 17]
    assert counting.argmax_calls == 1


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


def _polytope_cases(monkeypatch):
    """The valid fixtures, the benchmark's members at seeds 1-3, the tilted
    prisms and the guard edges: tangent normals at d = 5, n = 24 and
    d = 3, n = 46, and the regular 104-gon."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tangent_normals = importlib.import_module("inputs").tangent_normals
    cases = [load_fixture(name) for name in ("cube", "prism", "quad", "quad_vertices",
                                             "square", "triangle")]
    cases += _workload_members(monkeypatch)
    cases += [tilted_prism(seed) for seed in range(12)]
    cases += [validate(_halfspaces(tangent_normals(d, n, np.random.default_rng(3)), np.ones(n)), d)
              for d, n in ((5, 24), (3, 46))]
    return cases + [validate(_halfspaces(*regular_polygon(104)), 2)]


def test_halfspace_records_are_read_only_rows_of_the_arrays(monkeypatch):
    """``halfspaces[k]`` holds row k of ``normals`` and ``offsets`` bit for
    bit, its normal a read-only view of the one array."""
    for case in _polytope_cases(monkeypatch):
        assert len(case.halfspaces) == len(case.offsets) == len(case.normals)
        for k, h in enumerate(case.halfspaces):
            assert h.normal.tobytes() == case.normals[k].tobytes()
            assert type(h.offset) is float
            assert np.float64(h.offset).tobytes() == case.offsets[k].tobytes()
            assert np.shares_memory(h.normal, case.normals) and not h.normal.flags.writeable
    with pytest.raises(ValueError):
        case.halfspaces[0].normal[0] = 0.0


@pytest.mark.parametrize("dim,length", [(2, 3), (3, 2), (1, 2)])
def test_validate_refuses_normals_of_the_wrong_length(dim, length):
    """Normals of one length other than ``dim`` raise one ValueError naming
    the expected length; ``from_json`` keeps its own ParseError."""
    rows = [(list(row), 1.0) for row in np.vstack([np.eye(length), -np.ones(length)])]
    with pytest.raises(ValueError, match=f"^normals must have length {dim}, not {length}$"):
        validate(rows, dim)
    with pytest.raises(ParseError, match=f"length {dim}"):
        from_json({"dim": dim, "halfspaces": [{"normal": n, "offset": b} for n, b in rows]})


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
        (normal,), (offset,) = canonicalize([([3 * scale, 4 * scale], 5 * scale)])
    assert np.array_equal(polytope.vertices, validate(TRIANGLE_RAW, 2).vertices)
    assert np.allclose(normal, [0.6, 0.8], atol=1e-15)
    assert offset == pytest.approx(1.0, abs=1e-15)


def test_canonicalize_keeps_antiparallel_pairs():
    normals, offsets = canonicalize([([1.0, 0.0], 1.0), ([-1.0, 0.0], 1.0)])
    assert normals.shape == (2, 2) and offsets.shape == (2,)


def test_canonicalize_huge_normal_does_not_overflow():
    """The squared length of [1e200, 0] overflows; the unit normal must not."""
    scaled = [([1e200, 0.0], 0.0)] + TRIANGLE_RAW[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        polytope = validate(scaled, 2)
        (normal,), (offset,) = canonicalize([([3e200, 4e200], 5e200)])
    assert np.array_equal(polytope.vertices, validate(TRIANGLE_RAW, 2).vertices)
    assert np.allclose(normal, [0.6, 0.8], atol=1e-15)
    assert offset == pytest.approx(1.0, abs=1e-15)


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
    vertices, incidence = enumerate_vertices(*canonicalize(QUAD_RAW))
    assert match_point_sets(vertices, QUAD_VERTICES)
    assert incidence.active.shape == (4, 4) and incidence.active.dtype == bool


def test_enumerate_vertices_square():
    vertices, _ = enumerate_vertices(*canonicalize(SQUARE_RAW))
    expected = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
    assert match_point_sets(vertices, expected)


def test_enumerate_vertices_triangle():
    vertices, _ = enumerate_vertices(*canonicalize(TRIANGLE_RAW))
    assert match_point_sets(vertices, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


def test_enumerate_vertices_incidence_rank():
    normals, offsets = canonicalize(QUAD_RAW)
    vertices, incidence = enumerate_vertices(normals, offsets)
    for k in range(len(vertices)):
        active = incidence.active[k]
        assert np.count_nonzero(active) >= 2
        assert rank(normals[active]) == 2


@pytest.mark.parametrize("name", ["quad", "square", "triangle", "cube", "prism"])
def test_arrangement_holds_every_nonsingular_subset(name):
    """Row t of incidence.corners is the solve of the t-th d-subset in
    combinations order, bitwise the scalar reference LU's, and the rows of
    corners and values are NaN, and ``nonsingular`` False, exactly where
    that LU raises Singular."""
    polytope = load_fixture(name)
    halfspaces, d = polytope.halfspaces, polytope.dim
    incidence = polytope.incidence
    subsets = list(itertools.combinations(range(len(halfspaces)), d))
    assert incidence.corners.shape == (len(subsets), d)
    assert incidence.nonsingular.shape == (len(subsets),)
    for t, subset in enumerate(subsets):
        rows = np.vstack([halfspaces[k].normal for k in subset])
        rhs = -np.array([halfspaces[k].offset for k in subset])
        try:
            point = lu_solve_by_columns(rows, rhs)
        except Singular:
            assert not incidence.nonsingular[t]
            assert np.isnan(incidence.corners[t]).all() and np.isnan(incidence.values[t]).all()
            continue
        assert incidence.nonsingular[t]
        assert incidence.corners[t].tobytes() == point.tobytes()
        assert not np.isnan(incidence.values[t]).any()
    # the square, the cube and the prism have parallel facets: singular subsets
    assert incidence.nonsingular.all() == (name in ("quad", "triangle"))
    corners = [p.tobytes() for p in incidence.corners[incidence.nonsingular]]
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
    **{name: lambda name=name: (load_fixture(name).normals, load_fixture(name).offsets)
       for name in ("quad", "square", "triangle", "cube", "prism")},
    "octahedron": lambda: canonicalize(_octahedron()),
    "pyramid": lambda: canonicalize(_pyramid()),
    "ngon-24": lambda: (ngon_polytope(24).normals, ngon_polytope(24).offsets),
    "tangent-d4": lambda: canonicalize(tangent_halfspaces(4, 11, 1)),
    "outward-square": lambda: canonicalize([([-n for n in normal], -b) for normal, b in SQUARE_RAW]),
}


def _records(normals, offsets):
    """One ``Halfspace`` per row: the record form every per-row reference reads."""
    return [polytope.Halfspace(normal=n, offset=b) for n, b in zip(normals, offsets.tolist())]


@pytest.mark.parametrize("name", VERTEX_CASES)
def test_enumerate_vertices_matches_per_corner_loop(name):
    """Vertices and active sets read from the value matrix equal a loop over
    the arrangement's corners with ``Halfspace.value``, bit for bit: feasible
    corners, the first of each cluster within VERTEX_DEDUP_ABS kept.  The
    loop skips the subsets where the scalar reference LU raises Singular,
    whose rows are NaN."""
    normals, offsets = VERTEX_CASES[name]()
    halfspaces, dim = _records(normals, offsets), normals.shape[1]
    vertices, incidence = enumerate_vertices(normals, offsets)
    geom = Tolerances().geom_abs
    singular = singular_subsets(halfspaces, dim)
    assert incidence.nonsingular.tolist() == [not flag for flag in singular]
    assert np.isnan(incidence.corners[singular]).all()
    assert np.isnan(incidence.values[singular]).all()
    kept = []
    for p in incidence.corners[[not flag for flag in singular]]:
        if min(h.value(p) for h in halfspaces) >= -geom and not any(
                np.max(np.abs(p - q)) <= VERTEX_DEDUP_ABS for q in kept):
            kept.append(p)
    assert vertices.shape == (len(kept), dim)
    assert vertices.tobytes() == np.array(kept).reshape(-1, dim).tobytes()
    assert incidence.active.shape == (len(kept), len(halfspaces))
    assert incidence.active.tolist() == [[abs(h.value(v)) <= geom for h in halfspaces]
                                         for v in kept]


def test_active_rows_match_the_index_tuples(monkeypatch):
    """Each row of the (V, n) ``active`` matrix names the halfspaces that
    the record path found active at that vertex: the index tuple of
    |``Halfspace.value``| <= geom_abs, as ``itertools.compress`` built it."""
    for case in _polytope_cases(monkeypatch):
        active = case.incidence.active
        assert active.dtype == bool and active.shape == (len(case.vertices), len(case.halfspaces))
        expected = [tuple(itertools.compress(range(len(case.halfspaces)), [
            abs(h.value(v)) <= case.tol.geom_abs for h in case.halfspaces]))
            for v in case.vertices]
        assert [tuple(np.flatnonzero(row).tolist()) for row in active] == expected


@pytest.mark.parametrize("n", range(13))
def test_combinations_rows_are_in_combinations_order(n):
    for k in range(1, n + 2):
        rows = polytope._combinations(n, k)
        assert rows.dtype == np.intp and rows.shape == (math.comb(n, k), k)
        assert list(map(tuple, rows.tolist())) == list(itertools.combinations(range(n), k))


def test_enumerate_vertices_invariant_under_permutation():
    base, _ = enumerate_vertices(*canonicalize(QUAD_RAW))
    rng = np.random.default_rng(321)
    for _ in range(6):
        order = rng.permutation(4)
        permuted = [QUAD_RAW[i] for i in order]
        got, _ = enumerate_vertices(*canonicalize(permuted))
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
    polytope = validate(validate(QUAD_RAW, 2).halfspaces, 2)
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


def regular_polygon(sides):
    """Unit normals and offsets of the regular polygon of inradius 1, its
    opposite normals exactly antiparallel when ``sides`` is even."""
    angles = 2.0 * np.pi * np.arange(sides) / sides
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    if sides % 2 == 0:
        normals[sides // 2:] = -normals[:sides // 2]
    return normals, np.ones(sides)


def _halfspaces(normals, offsets):
    return list(zip(normals.tolist(), offsets.tolist()))


def test_validate_facet_guard(monkeypatch):
    """The regular 105-gon makes C(105, 2) + C(105, 3) = 192,920 facet
    subsets, over the guard, and is refused before any solve."""
    def solve(*_):
        raise AssertionError("the guard comes before any solve")
    monkeypatch.setattr(polytope, "_arrangement", solve)
    monkeypatch.setattr(polytope, "interior_point", solve)
    with pytest.raises(GuardExceeded, match="^192920 facet subsets exceed the guard 190026$"):
        validate(_halfspaces(*regular_polygon(105)), 2)


def test_validate_dimension_guard():
    with pytest.raises(GuardExceeded, match="^dim 7 above guard 5$"):
        validate([([1.0] + [0.0] * 6, 1.0)], 7)


def test_subset_guard_edge_in_the_plane():
    """The regular 104-gon, 187,460 subsets, validates, also with every row
    listed twice, since duplicates merge before the count."""
    polygon = _halfspaces(*regular_polygon(104))
    assert len(validate(polygon, 2).vertices) == 104
    assert len(validate(polygon + polygon, 2).halfspaces) == 104


def test_subset_guard_edge_in_r5(monkeypatch):
    """24 tangent normals in R^5 are the guard's own count, 190,026 subsets,
    and validate; 25 are refused, and so is R^6 at any count."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tangent_normals = importlib.import_module("inputs").tangent_normals
    assert polytope.SUBSET_GUARD == sum(math.comb(24, k) for k in range(2, 7))
    edge = validate(_halfspaces(tangent_normals(5, 24, np.random.default_rng(3)), np.ones(24)), 5)
    assert len(edge.halfspaces) == 24
    with pytest.raises(GuardExceeded, match="^245480 facet subsets exceed the guard 190026$"):
        validate(_halfspaces(tangent_normals(5, 25, np.random.default_rng(3)), np.ones(25)), 5)
    with pytest.raises(GuardExceeded, match="^dim 6 above guard 5$"):
        validate(_halfspaces(tangent_normals(6, 7, np.random.default_rng(3)), np.ones(7)), 6)


@pytest.mark.parametrize("sides", [25, 30, 60])
def test_admitted_polygons_pass_the_benchmark_oracles(monkeypatch, sides):
    """Polygons of more than 24 facets get the vertices and supports
    the benchmark's independent numpy checks find."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    checks = importlib.import_module("checks")
    normals, offsets = regular_polygon(sides)
    support_set = enumerate_supports(validate(_halfspaces(normals, offsets), 2))
    simplices = [(s.facet_indices, s.apexes) for s in support_set if s.kind == "simplex"]
    strips = [s.facet_indices for s in support_set if s.kind == "strip"]
    assert len(strips) == (sides // 2 if sides % 2 == 0 else 0)
    assert checks.check_vertices(normals, offsets, support_set.polytope.vertices) == []
    assert checks.check_supports(normals, offsets, simplices, strips,
                                 [s.facet_indices for s in support_set]) == []


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


def _repair_by_records(halfspaces, values, tol):
    """The record path: ``Halfspace(-n, -b)`` for each row that is at most
    geom_abs at every corner and below -geom_abs at one."""
    wrong = ((values.max(axis=0, initial=-math.inf) <= tol.geom_abs)
             & (values.min(axis=0, initial=math.inf) < -tol.geom_abs))
    if not wrong.any():
        return None
    return [polytope.Halfspace(-h.normal, -h.offset) if flip else h
            for h, flip in zip(halfspaces, wrong.tolist())]


def _outward_cases():
    """Inputs whose arrangement has no feasible corner: the square, the
    triangle (with +0.0 and -0.0 offsets), the quad and the regular hexagon
    pointing outward, and a tiny quad moved far from the origin."""
    def outward(raw, zero=-0.0):
        return [([-x for x in normal], -b if b else zero) for normal, b in raw]

    hexagon = regular_polygon(6)
    shift = np.array([923699275.28, 383118322.24])
    return {
        "square": outward(SQUARE_RAW),
        "triangle": outward(TRIANGLE_RAW),
        "triangle-positive-zero": outward(TRIANGLE_RAW, 0.0),
        "quad": outward(QUAD_RAW, 0.0),
        "hexagon": _halfspaces(-hexagon[0], -hexagon[1]),
        "moved-tiny-quad": [(n, 1e-8 * b - float(np.dot(n, shift))) for n, b in QUAD_RAW],
    }


@pytest.mark.parametrize("name", list(_outward_cases()))
def test_repair_negates_rows_as_the_records_did(name):
    """The repair's negated arrays are the rows of the record path's
    ``Halfspace(-n, -b)`` bit for bit, a +0.0 offset turned into -0.0."""
    tol = Tolerances()
    normals, offsets = canonicalize(_outward_cases()[name])
    vertices, incidence = enumerate_vertices(normals, offsets)
    assert not len(vertices)
    values = incidence.values[incidence.nonsingular]
    repaired = polytope._repair_orientation(normals, offsets, values, tol)
    expected = _repair_by_records(_records(normals, offsets), values, tol)
    # every row of the outward hexagon has a corner on its inner side
    assert (repaired is None) == (expected is None) == (name == "hexagon")
    if repaired is None:
        return
    assert [(n.tobytes(), b.tobytes()) for n, b in zip(*repaired)] == [
        (h.normal.tobytes(), np.float64(h.offset).tobytes()) for h in expected]
    if name == "triangle-positive-zero":
        assert repaired[1][:2].tobytes() == np.array([-0.0, -0.0]).tobytes()


def test_repair_of_outward_input_refuses_quad_and_hexagon():
    """Only an outward input whose every arrangement corner lies in the
    polytope is repaired; the quad and the hexagon keep some rows and are
    refused, and the moved tiny quad, whose right answer is Empty, is not."""
    cases = _outward_cases()
    with pytest.raises(Unbounded):
        validate(cases["quad"], 2)
    with pytest.raises(Empty):
        validate(cases["hexagon"], 2)
    assert validate(cases["moved-tiny-quad"], 2).radius < 1e-7


@pytest.mark.parametrize("raw", [SQUARE_RAW, TRIANGLE_RAW], ids=["square", "triangle"])
def test_repaired_outward_input_is_the_inward_one(raw):
    """Validating the negated rows gives, bit for bit, what validating the
    input itself gives."""
    inward = validate(raw, 2)
    repaired = validate([(list(-np.asarray(n)), -b) for n, b in raw], 2)
    for name in ("vertices", "interior", "normals", "offsets"):
        assert getattr(repaired, name).tobytes() == getattr(inward, name).tobytes()
    assert repaired.radius == inward.radius
    for name in ("active", "corners", "nonsingular", "values", "above"):
        assert (getattr(repaired.incidence, name).tobytes()
                == getattr(inward.incidence, name).tobytes())


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
        active = vertices[incidence.active[:, k]]
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
        witnessed = polytope._witnessed(case.vertices, case.incidence, case.dim, case.tol)
        assert witnessed.tolist() == _witnesses_one_by_one(
            case.vertices, case.incidence, count, case.dim, case.tol) == [True] * count
    cube = cube_polytope(4)
    first = [cube.vertices[cube.incidence.active[:, k]][:4] for k in range(8)]
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
    normals, offsets = canonicalize(raw)
    vertices, incidence = enumerate_vertices(normals, offsets)
    expected = _witnesses_one_by_one(vertices, incidence, len(offsets), dim, Tolerances())
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
    """Three collinear points, or three points of which two coincide."""
    with pytest.raises(Degenerate):
        from_vertices_2d([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(Degenerate):
        from_vertices_2d([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)])


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
        {"dim": 2, "halfspaces": [{"normal": [1, 0], "offset": 10 ** 400}]},
        {"dim": 2, "halfspaces": [{"normal": [10 ** 400, 0], "offset": 0}]},
        {"dim": 2, "vertices": [[0, 0], [10 ** 400, 0], [0, 1]]},
        {"dim": 2, "halfspaces": [{"normal": [1, 0], "offset": "1"}]},
        {"dim": 2, "halfspaces": [{"normal": ["1", "0"], "offset": 0}]},
        {"dim": 2, "halfspaces": [{"normal": [1, 0], "offset": True}]},
        {"dim": 2, "vertices": [[0, 0], [True, False], [0, 1]]},
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
