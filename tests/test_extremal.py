"""Tests for the simplex, strip, ball, and interval extremal-function evaluators."""

import cmath
import dataclasses
import decimal
import importlib
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyextremal import cli, extremal, from_json
from polyextremal.extremal import (
    DomainError,
    EvalResult,
    _inv_joukowski_log_many,
    _passes,
    _sums,
    barycentric,
    eval_extremal,
    eval_extremal_many,
    eval_interval,
    eval_simplex,
    eval_simplex_many,
    eval_supports_many,
    inv_joukowski_log,
    lundin_ball,
)
from polyextremal.polytope import SUBSET_GUARD, validate
from polyextremal.supports import enumerate_supports

from conftest import (KERNEL_CASES, case_polytopes, corner_cut_hexagon, cube_polytope,
                      load_fixture, ngon_polytope, quad_reference, symmetric_polytope,
                      tangent_halfspaces, tilted_prism)

VALID_FIXTURES = ("quad", "square", "triangle", "cube", "prism", "quad_vertices")

LOG_2_PLUS_SQRT3 = math.log(2.0 + math.sqrt(3.0))
LOG_3_PLUS_2SQRT2 = math.log(3.0 + 2.0 * math.sqrt(2.0))
LOG_1_PLUS_SQRT2 = math.log(1.0 + math.sqrt(2.0))
QUAD_AT_2_2 = math.log((13.0 + 4.0 * math.sqrt(10.0)) / 3.0)


@pytest.fixture(scope="module")
def unit_interval_simplex():
    segment = validate([([1.0], 1.0), ([-1.0], 1.0)], 1)
    return enumerate_supports(segment)[0]


def test_inv_joukowski_log_at_one():
    assert inv_joukowski_log(1.0) == 0.0


def test_inv_joukowski_log_frozen_values():
    assert inv_joukowski_log(1.25) == pytest.approx(math.log(2.0), abs=1e-15)
    assert inv_joukowski_log(2.0) == pytest.approx(LOG_2_PLUS_SQRT3, abs=1e-15)


def test_inv_joukowski_log_matches_arccosh():
    for s in np.geomspace(1.0 + 1e-9, 1e8, 60):
        ref = math.acosh(s)
        assert inv_joukowski_log(float(s)) == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_inv_joukowski_log_increasing():
    samples = [inv_joukowski_log(s) for s in np.linspace(1.0, 6.0, 40)]
    assert all(b >= a for a, b in zip(samples, samples[1:]))
    assert all(v >= 0.0 for v in samples)


def test_inv_joukowski_log_roundoff_band_clamps_to_zero():
    assert inv_joukowski_log(1.0 - 1e-13) == 0.0
    assert inv_joukowski_log(1.0 + 5e-13) == 0.0
    assert inv_joukowski_log(1.0 - 1e-10) == 0.0


def test_inv_joukowski_log_domain_error():
    with pytest.raises(DomainError):
        inv_joukowski_log(1.0 - 1e-8)
    with pytest.raises(DomainError):
        inv_joukowski_log(0.0)


def test_inv_joukowski_log_rejects_nan_and_keeps_infinity():
    with pytest.raises(ValueError, match="NaN"):
        inv_joukowski_log(math.nan)
    assert inv_joukowski_log(math.inf) == math.inf


def _batch_arccosh(s):
    """The kernel's arccosh of the array ``s``, which it overwrites."""
    out = np.empty_like(s)
    _inv_joukowski_log_many(s, out)
    return out


def test_inv_joukowski_log_far_field():
    """Where u(u+2) overflows the value is log 2 + log s; below that numpy's
    log1p formula is kept bit for bit, in the scalar and the batch form."""
    for s in (1e155, 1e200, 1e300, 1.7e308):
        expected = math.log(2.0) + math.log(s)
        assert inv_joukowski_log(s) == pytest.approx(expected, rel=1e-15)
        batch = _batch_arccosh(np.array([s]))[0]
        assert batch == pytest.approx(expected, rel=1e-15)
    for s in (3.0, 1e100, 1e150, 1e154):
        u = np.array([s - 1.0])
        expected = np.log1p(u + np.sqrt(u * (u + 2.0)))[0]
        assert inv_joukowski_log(s) == expected
        assert _batch_arccosh(np.array([s]))[0] == expected


def test_inv_joukowski_log_is_the_batch_form():
    """The scalar arccosh is the batch one applied to one value, bit for bit,
    across the zero band, the log1p range and the far field; at s = 3 the
    math module's route was one ulp off numpy's."""
    samples = np.concatenate([np.linspace(1.0 - 1e-9, 1.0 + 1e-11, 201),
                              np.linspace(1.0, 26.0, 2501),
                              np.geomspace(1.0 + 1e-12, 1.7e308, 2501)])
    batch = _batch_arccosh(samples.copy())
    scalar = np.array([inv_joukowski_log(s) for s in samples.tolist()])
    assert scalar.tobytes() == batch.tobytes()


def test_far_points_stay_finite(unit_interval_simplex, square_supports):
    value = eval_simplex(unit_interval_simplex, np.array([1e200 + 0j]))
    expected = math.log(2.0) + 200.0 * math.log(10.0)
    assert value == pytest.approx(expected, rel=1e-12)
    result = eval_extremal(square_supports, np.array([1e200 + 0j, 0j]))
    assert math.isfinite(result.value)
    assert result.value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0.0, math.inf), complex(math.nan, 0.0)])
def test_non_finite_points_rejected(quad_supports, bad):
    z = np.array([0.5 + 0j, bad])
    with pytest.raises(ValueError, match="finite"):
        eval_extremal(quad_supports, z)
    with pytest.raises(ValueError, match="finite"):
        eval_extremal_many(quad_supports, np.array([[0.25 + 0j, 0.25 + 0j], z]))
    with pytest.raises(ValueError, match="finite"):
        eval_simplex(quad_supports[0], z)


@pytest.mark.parametrize("z", [np.array([[0.5, 2j], [0.25, 0.25]]), np.zeros((0, 2)),
                               np.zeros((1, 1, 2)), np.array(0.5 + 1j)])
def test_single_point_evaluators_take_exactly_one_point(quad_supports, z):
    """``eval_extremal`` and ``eval_simplex`` take one point, as (d,) or
    (1, d), and both give the same value; more points, none, or a scalar
    are a ValueError."""
    point = np.array([0.5 + 0j, 2j])
    assert eval_extremal(quad_supports, point[None, :]) == eval_extremal(quad_supports, point)
    with pytest.raises(ValueError, match="one point"):
        eval_extremal(quad_supports, z)
    assert eval_simplex(quad_supports[0], point[None, :]) == eval_simplex(quad_supports[0], point)
    with pytest.raises(ValueError, match="one point"):
        eval_simplex(quad_supports[0], z)


def unit_square_at(shift: float):
    """The unit square [shift, shift + 1]^2."""
    return validate([([1.0, 0.0], -shift), ([-1.0, 0.0], shift + 1.0),
                     ([0.0, 1.0], -shift), ([0.0, -1.0], shift + 1.0)], 2)


@pytest.mark.parametrize("shift", [1e5, 1e6])
def test_translated_square_matches_untranslated(shift):
    """V_K is translation invariant; the kernel must not lose it to the size
    of the shift.  Relative points are exact binary fractions, so z + shift
    is exactly representable."""
    base = enumerate_supports(unit_square_at(0.0))
    moved = enumerate_supports(unit_square_at(shift))
    inside = np.array([[0.25, 0.75], [0.5, 0.5], [0.0, 1.0], [0.875, 0.125]],
                      dtype=complex)
    outside = np.array([[0.25 + 0.5j, 1.5 - 0.25j], [-0.75, 0.5], [2.0 + 1j, 0.125],
                        [0.5 + 1e-3j, 0.5], [-3.0 - 2j, 4.0 + 0.5j]])
    points = np.vstack([inside, outside])
    expected, _ = eval_extremal_many(base, points)
    got, _ = eval_extremal_many(moved, points + shift)
    assert np.max(np.abs(got - expected)) <= 1e-12
    assert np.all(got[:len(inside)] == 0.0)
    assert np.all(got[len(inside):] > 0.0)


@st.composite
def _boxes(draw):
    """A box with dyadic corners and sides, and dyadic complex points around
    it: moved by an integer shift up to 1e9, every number stays exact."""
    dim = draw(st.integers(1, 3))
    lower = np.array(draw(st.lists(st.integers(-16, 16), min_size=dim, max_size=dim))) / 8.0
    sides = np.array(draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
                                   min_size=dim, max_size=dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = lower + sides * rng.integers(-8, 17, (24, dim)) / 8.0
    imag = sides * rng.integers(-4, 5, (24, dim)) / 8.0
    imag[:8] = 0.0
    return lower, lower + sides, real + 1j * imag


def _box_supports(lower, upper, scale=1.0, shift=None):
    """Supports of scale * box + shift, the offsets mapped the same way."""
    shift = np.zeros(len(lower)) if shift is None else shift
    halfspaces = []
    for axis, a, b, t in zip(np.eye(len(lower)), lower, upper, shift):
        halfspaces += [(list(axis), -(scale * a + t)), (list(-axis), scale * b + t)]
    return enumerate_supports(validate(halfspaces, len(lower)))


def _assert_same_supports_and_values(base, moved, points, moved_points):
    assert [s.facet_indices for s in moved] == [s.facet_indices for s in base]
    expected, _ = eval_extremal_many(base, points)
    got, _ = eval_extremal_many(moved, moved_points)
    assert np.all(got[expected == 0.0] == 0.0)
    assert np.all(np.abs(got - expected) <= 1e-9 * expected)


@given(box=_boxes(), exponent=st.floats(-6.0, 8.0))
@settings(max_examples=60)
def test_scaled_box_keeps_supports_and_values(box, exponent):
    """V_{cK}(cz) = V_K(z) for c from 1e-6 to 1e8: the facet tuples stay,
    and V agrees to 1e-9 relative.  Boxes keep the scaled input exact up to
    one rounding of each offset and point."""
    lower, upper, points = box
    scale = 10.0 ** exponent
    _assert_same_supports_and_values(_box_supports(lower, upper),
                                     _box_supports(lower, upper, scale=scale),
                                     points, points * scale)


@given(box=_boxes(), shift=st.lists(st.integers(-10**9, 10**9), min_size=3, max_size=3))
@settings(max_examples=60)
def test_translated_box_keeps_supports_and_values(box, shift):
    """V_{K+t}(z+t) = V_K(z) for integer shifts up to 1e9, with the mapped
    box and points exact: the facet tuples stay, and V agrees to 1e-9
    relative."""
    lower, upper, points = box
    shift = np.array(shift[:len(lower)], dtype=float)
    _assert_same_supports_and_values(_box_supports(lower, upper),
                                     _box_supports(lower, upper, shift=shift),
                                     points, points + shift)


def _kernel_coordinates(support_set, points):
    """lambda_j = l_r(z) / heights[j] of every support, r = facets[j], from
    the set's facet functions and its stacked facets and heights, with the
    padding row's value 0: a (d+1, points, supports) array."""
    table = support_set.table
    values = np.hstack([points @ table.normals.T + table.offsets, np.zeros((points.shape[0], 1))])
    return values[:, table.facets].transpose(1, 0, 2) / table.heights[:, None, :]


def _kernel_sums(table, points):
    """The kernel's (supports, points) magnitude sums over a ``FacetTable``,
    chunk by chunk."""
    return np.hstack([_sums(table, magnitudes, work).copy()
                      for _, magnitudes, work in _passes(table, points)])


def test_kernel_coordinates_match_barycentric_oracle():
    """On every valid fixture, the coordinates the stacked facets and heights
    give each simplex and strip agree with an LU solve of the defining
    system (for a strip, of its cross-section at Qz), a strip's padding
    coordinates are exactly 0, and the kernel's sums are the oracle's sums
    of moduli."""
    rng = np.random.default_rng(19)
    for name in VALID_FIXTURES:
        supports = enumerate_supports(load_fixture(name))
        dim = supports.polytope.dim
        points = rng.uniform(-4, 4, (30, dim)) + 1j * rng.uniform(-3, 3, (30, dim))
        coords, sums = _kernel_coordinates(supports, points), _kernel_sums(supports.table, points)
        for i, support in enumerate(supports):
            for z, lam, total in zip(points, coords[:, :, i].T, sums[i]):
                if support.kind == "strip":
                    oracle = barycentric(support.cross_simplex, support.basis @ z)
                else:
                    oracle = barycentric(support, z)
                assert np.max(np.abs(lam[:len(oracle)] - oracle)) <= 1e-12, name
                assert np.all(lam[len(oracle):] == 0.0), name
                assert abs(total - np.abs(oracle).sum()) <= 1e-12 * total, name


def test_barycentric_closed_form_coordinates(quad_supports):
    """The triangle with apexes (1,0), (0,3), (0,0) assigns (z1, z2/3, 1-z1-z2/3),
    by the LU oracle and by the stacked kernel."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        z = rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2)
        expected = np.array([z[0], z[1] / 3.0, 1.0 - z[0] - z[1] / 3.0])
        assert np.max(np.abs(barycentric(quad_supports[1], z) - expected)) <= 1e-12
        kernel = _kernel_coordinates(quad_supports, z[None, :])[:, 0, 1]
        assert np.max(np.abs(kernel - expected)) <= 1e-12


def test_barycentric_imaginary_sample(quad_supports):
    """Coordinates of z = (i, 0) in the triangle with apexes (1,0), (0,3), (0,0)."""
    z = np.array([1j, 0.0])
    expected = [1j, 0.0, 1 - 1j]
    assert np.allclose(barycentric(quad_supports[1], z), expected, atol=1e-14)
    assert np.allclose(_kernel_coordinates(quad_supports, z[None, :])[:, 0, 1], expected,
                       atol=1e-14)


def test_barycentric_apex_gives_unit_vector(triangle_supports):
    simplex = triangle_supports[0]
    for k, apex in enumerate(simplex.apexes):
        lam = barycentric(simplex, apex.astype(complex))
        expected = np.zeros(3, dtype=complex)
        expected[k] = 1.0
        assert np.max(np.abs(lam - expected)) <= 1e-12


def test_barycentric_centroid(triangle_supports):
    simplex = triangle_supports[0]
    centroid = simplex.apexes.mean(axis=0).astype(complex)
    lam = barycentric(simplex, centroid)
    assert np.max(np.abs(lam - 1.0 / 3.0)) <= 1e-12


def test_barycentric_components_sum_to_one(quad_supports, prism_supports):
    rng = np.random.default_rng(47)
    simplices = list(quad_supports) + [prism_supports[0].cross_simplex]
    for simplex in simplices:
        dim = simplex.dim
        for _ in range(50):
            z = rng.uniform(-5, 5, dim) + 1j * rng.uniform(-5, 5, dim)
            lam = barycentric(simplex, z)
            assert abs(lam.sum() - 1.0) <= 1e-12


def test_barycentric_real_point_in_simplex_nonnegative(triangle_supports):
    simplex = triangle_supports[0]
    rng = np.random.default_rng(13)
    for _ in range(30):
        weights = rng.dirichlet([1.0, 1.0, 1.0])
        point = weights @ simplex.apexes
        lam = barycentric(simplex, point.astype(complex))
        assert np.max(np.abs(lam.imag)) <= 1e-12
        assert np.all(lam.real >= -1e-12)
        assert np.all(lam.real <= 1.0 + 1e-12)


def test_eval_simplex_zero_inside(quad_supports, quad):
    for support in quad_supports:
        assert eval_simplex(support, quad.interior.astype(complex)) == 0.0


def test_eval_simplex_quad_closed_form(quad_supports):
    value = eval_simplex(quad_supports[1], np.array([2.0 + 0j, 0.0 + 0j]))
    assert value == pytest.approx(LOG_3_PLUS_2SQRT2, abs=1e-12)


def test_eval_simplex_interval_at_two(unit_interval_simplex):
    value = eval_simplex(unit_interval_simplex, np.array([2.0 + 0j]))
    assert value == pytest.approx(LOG_2_PLUS_SQRT3, abs=1e-12)


def test_eval_simplex_interval_chebyshev_growth(unit_interval_simplex):
    """Polynomial growth check: |T_n(2)|^(1/n) approaches the extremal value."""
    t_prev, t_cur = 1, 2
    n = 300
    for _ in range(n - 1):
        t_prev, t_cur = t_cur, 4 * t_cur - t_prev
    growth = math.log(t_cur) / n
    value = eval_simplex(unit_interval_simplex, np.array([2.0 + 0j]))
    assert abs(growth - value) <= 0.005


def test_eval_simplex_many_matches_scalar_bitwise():
    """Every simplex and strip of every valid fixture."""
    rng = np.random.default_rng(17)
    for name in VALID_FIXTURES:
        supports = enumerate_supports(load_fixture(name))
        dim = supports.polytope.dim
        points = rng.uniform(-4, 4, (64, dim)) + 1j * rng.uniform(-2, 2, (64, dim))
        for support in supports:
            batch = eval_simplex_many(support, points)
            for k in range(len(points)):
                assert batch[k] == eval_simplex(support, points[k]), name


def test_eval_strip_slab_ignores_free_coordinate(square_supports):
    slab = square_supports[0]
    value = eval_simplex(slab, np.array([2.0 + 0j, 17.0 + 0j]))
    assert value == pytest.approx(LOG_2_PLUS_SQRT3, abs=1e-12)
    other = eval_simplex(slab, np.array([2.0 + 0j, -3.5 + 0j]))
    assert other == value


def test_eval_strip_imaginary_point(square_supports):
    value = eval_simplex(square_supports[0], np.array([1j, 0.0 + 0j]))
    assert value == pytest.approx(LOG_1_PLUS_SQRT2, abs=1e-12)


def test_eval_strip_zero_inside(square_supports):
    value = eval_simplex(square_supports[0], np.array([0.25 + 0j, -0.75 + 0j]))
    assert value == 0.0


def test_eval_strip_translation_invariance(square_supports, prism_supports):
    """Shifting along the unconstrained directions leaves the value unchanged."""
    rng = np.random.default_rng(5)
    strips = list(square_supports) + [s for s in prism_supports]
    for strip in strips:
        q = strip.basis
        dim = q.shape[1]
        for _ in range(40):
            z = rng.uniform(-2, 2, dim) + 1j * rng.uniform(0.05, 1.0, dim)
            w = rng.normal(size=dim)
            b = w - q.T @ (q @ w)
            assert abs(eval_simplex(strip, z + b) - eval_simplex(strip, z)) <= 1e-12


def test_eval_extremal_quad_tie(quad_supports):
    z = np.array([2.0 + 0j, 2.0 + 0j])
    result = eval_extremal(quad_supports, z)
    assert result.value == pytest.approx(QUAD_AT_2_2, abs=1e-12)
    per_support = eval_supports_many(quad_supports, z)[0]
    assert len(per_support) == 2
    assert per_support[0] == pytest.approx(per_support[1], abs=1e-12)
    assert result.argmax == 0


def test_eval_extremal_interior_zero(quad_supports, quad):
    result = eval_extremal(quad_supports, quad.interior.astype(complex))
    assert result.value == 0.0


def test_eval_extremal_value_is_max_of_diagnostics(quad_supports):
    rng = np.random.default_rng(23)
    for _ in range(25):
        z = rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2)
        result = eval_extremal(quad_supports, z)
        per_support = eval_supports_many(quad_supports, z)[0].tolist()
        assert result.value == max(per_support)
        assert result.value >= 0.0
        assert result.value == per_support[result.argmax]


def test_eval_extremal_matches_closed_form_samples(quad_supports):
    rng = np.random.default_rng(29)
    for _ in range(100):
        z = rng.uniform(-4, 4, 2) + 1j * rng.uniform(-3, 3, 2)
        got = eval_extremal(quad_supports, z).value
        assert got == pytest.approx(quad_reference(z[0], z[1]), abs=1e-12)


def test_eval_extremal_many_matches_scalar_bitwise(quad_supports, square_supports, prism_supports):
    rng = np.random.default_rng(37)
    for supports in (quad_supports, square_supports, prism_supports):
        dim = supports.polytope.dim
        points = rng.uniform(-3, 3, (40, dim)) + 1j * rng.uniform(-2, 2, (40, dim))
        values, argmax = eval_extremal_many(supports, points)
        for k in range(len(points)):
            result = eval_extremal(supports, points[k])
            assert values[k] == result.value
            assert argmax[k] == result.argmax


def test_eval_extremal_zero_set_characterization(quad, quad_supports):
    """Value at most 1e-9 exactly when the point is real and inside."""
    rng = np.random.default_rng(61)
    inside = 0
    outside = 0
    complexes = 0
    while min(inside, outside, complexes) < 30:
        x = rng.uniform(-0.5, 1.5, 2)
        slack = np.min(quad.values(x))
        if slack >= 1e-3:
            assert eval_extremal(quad_supports, x.astype(complex)).value <= 1e-9
            inside += 1
        elif slack <= -1e-3:
            assert eval_extremal(quad_supports, x.astype(complex)).value > 1e-9
            outside += 1
            z = x + 1j * rng.uniform(1e-3, 0.5, 2)
            assert eval_extremal(quad_supports, z).value > 1e-9
            complexes += 1


def test_eval_extremal_monotone_under_inclusion(triangle_supports, quad_supports):
    """A smaller polytope has a larger extremal function everywhere."""
    rng = np.random.default_rng(67)
    for _ in range(60):
        z = rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2)
        v_small = eval_extremal(triangle_supports, z).value
        v_big = eval_extremal(quad_supports, z).value
        assert v_small >= v_big - 1e-12


def test_eval_extremal_matches_conjugation_symmetry(quad_supports):
    rng = np.random.default_rng(71)
    for _ in range(30):
        z = rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2)
        assert eval_extremal(quad_supports, z).value == pytest.approx(
            eval_extremal(quad_supports, z.conj()).value, abs=1e-13
        )


def test_logarithmic_growth_square(square_supports):
    """V(t u) - log t stays in a fixed band and settles at large t.

    The tail steps (10^4 and beyond) are flat to 1e-6; the earlier steps move
    by a few 1e-5 because the distance to the limit decays like 1/t^2."""
    rng = np.random.default_rng(73)
    scales = [1e2, 1e3, 1e4, 1e5, 1e6]
    for _ in range(10):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        u = u / np.max(np.abs(u))
        f = [
            eval_extremal(square_supports, t * u).value - math.log(t)
            for t in scales
        ]
        assert np.ptp(f) <= 1e-3
        diffs = np.abs(np.diff(f))
        assert diffs[2] <= 1e-6
        assert diffs[3] <= 1e-6


def test_continuity_probe_quad(quad_supports):
    """Frozen empirical Lipschitz bound on a compact sample box."""
    rng = np.random.default_rng(424242)
    re = rng.uniform(-1.0, 2.0, size=(200, 2))
    im = rng.uniform(-1.0, 1.0, size=(200, 2))
    for z in re + 1j * im:
        d = rng.normal(size=4)
        d /= np.linalg.norm(d)
        delta = (d[:2] + 1j * d[2:]) * 1e-6
        v0 = eval_extremal(quad_supports, z).value
        v1 = eval_extremal(quad_supports, z + delta).value
        assert abs(v1 - v0) <= 5.0 * 1e-6


def test_lundin_ball_zero_for_real_points_inside():
    assert lundin_ball(np.array([0.3 + 0j, 0.4 + 0j]), 1.0) == 0.0
    assert lundin_ball(np.array([2.0 + 0j, -1.0 + 0j, 0.5 + 0j]), 5.0) == 0.0


def test_lundin_ball_frozen_values():
    assert lundin_ball(np.array([2.0 + 0j, 0.0 + 0j]), 1.0) == pytest.approx(
        LOG_2_PLUS_SQRT3, abs=1e-12
    )
    assert lundin_ball(np.array([1j, 0.0 + 0j]), 1.0) == pytest.approx(
        0.5 * LOG_3_PLUS_2SQRT2, abs=1e-12
    )


def test_lundin_ball_radius_scaling():
    rng = np.random.default_rng(79)
    for _ in range(20):
        z = rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2)
        r = float(rng.uniform(0.5, 4.0))
        assert lundin_ball(z, r) == pytest.approx(lundin_ball(z / r, 1.0), abs=1e-12)


def test_lundin_ball_nonincreasing_in_radius():
    rng = np.random.default_rng(83)
    for _ in range(20):
        z = rng.uniform(-2, 2, 2) + 1j * rng.uniform(0.1, 2, 2)
        values = [lundin_ball(z, r) for r in (1.0, 10.0, 100.0, 1000.0)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_eval_interval_inside_is_zero():
    for t in np.linspace(-1.0, 1.0, 21):
        assert eval_interval(-1.0, 1.0, complex(t)) == 0.0
    assert eval_interval(0.3, 2.7, 1.5 + 0j) == 0.0


def test_eval_interval_frozen_value():
    assert eval_interval(-1.0, 1.0, 2.0 + 0j) == pytest.approx(
        LOG_2_PLUS_SQRT3, abs=1e-12
    )


def test_eval_interval_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        eval_interval(1.0, 1.0, 0.5 + 0j)
    with pytest.raises(ValueError):
        eval_interval(2.0, 1.0, 0.5 + 0j)


@pytest.mark.parametrize("a, b, t", [(0.0, 1.0, complex(math.inf, 0.0)),
                                     (0.0, 1.0, complex(math.nan, 0.0)),
                                     (0.0, math.inf, 5.0 + 0j),
                                     (math.nan, 1.0, 0.5 + 0j)])
def test_eval_interval_rejects_non_finite_input(a, b, t):
    with pytest.raises(ValueError, match="finite"):
        eval_interval(a, b, t)


@pytest.mark.parametrize("z, radius", [([math.nan, 0.0], 1.0), ([complex(0.0, math.inf), 0.0], 1.0),
                                       ([0.5, 0.0], math.inf), ([0.5, 0.0], math.nan)])
def test_lundin_ball_rejects_non_finite_input(z, radius):
    with pytest.raises(ValueError, match="finite"):
        lundin_ball(np.array(z, dtype=complex), radius)


@pytest.mark.parametrize("z", [np.zeros((2, 2), dtype=complex), np.zeros((1, 2), dtype=complex),
                               np.zeros(0, dtype=complex)])
def test_lundin_ball_rejects_malformed_point(z):
    with pytest.raises(ValueError, match="nonempty vector"):
        lundin_ball(z, 1.0)


EXTREME_POINTS = (1e150, 1e154, 1e200, 1e300, 1e200j, (1 + 1j) * 1e200)


@pytest.mark.parametrize("t", EXTREME_POINTS)
def test_reference_evaluators_agree_at_extreme_points(t):
    """At |t| up to 1e300 the interval formula, the ball on the complex line
    (t, 0), where it is the segment's value, and the kernel on the segment
    [-1, 1] agree to 4 eps relative: each reference evaluator takes a scaled
    route where its direct formula overflows."""
    segment = enumerate_supports(validate([([1.0], 1.0), ([-1.0], 1.0)], 1))
    kernel = eval_extremal(segment, np.array([t])).value
    assert math.isfinite(kernel)
    for value in (eval_interval(-1.0, 1.0, t), lundin_ball(np.array([t, 0.0]), 1.0)):
        assert abs(value - kernel) <= 4 * np.finfo(float).eps * kernel


@pytest.mark.parametrize("a, b, t, expected", [
    (-1.0, 1.0, -1.7e308, math.log(2.0) + math.log(1.7e308)),
    (1e308, 1.7e308, 1.5e308, 0.0),             # 2t overflows, s = 3/7 is inside
    (-1.7e308, 1.7e308, 1e308j, math.asinh(1e308 / 1.7e308)),  # b - a and 2t overflow
    (0.0, 2.0 ** -1070, 1e300, math.log(4e300) + 1070 * math.log(2.0)),
    (0.0, 5e-324, 1e-323, math.log(3.0 + math.sqrt(8.0))),
])
def test_eval_interval_is_finite_at_extreme_inputs(a, b, t, expected):
    assert eval_interval(a, b, t) == pytest.approx(expected, rel=4e-16, abs=0.0)


@pytest.mark.parametrize("z, radius, expected", [
    ([1.7e308, 0.0], 1e-300, math.log(2.0) + math.log(1.7e308) - math.log(1e-300)),
    ([0.0, 0.0], 5e-324, 0.0),                  # numpy's division by R is NaN here
    ([3e-320j, 0.0], 1e-320, 0.5 * math.acosh(19.0)),
    ([2e-310, 0.0], 1e-310, 0.5 * math.acosh(7.0)),
])
def test_lundin_ball_is_finite_at_extreme_inputs(z, radius, expected):
    value = lundin_ball(np.array(z, dtype=complex), radius)
    assert value == pytest.approx(expected, rel=4e-16, abs=0.0)


def test_eval_interval_explicit_branch_formula():
    """Independent spot check of the modulus-selecting branch."""
    for t in (1.5 + 0.5j, -2.0 + 0.1j, 0.2 - 3.0j):
        s = (2.0 * t - (-1.0) - 1.0) / 2.0
        root = cmath.sqrt((s - 1.0) * (s + 1.0))
        expected = math.log(max(abs(s + root), abs(s - root)))
        assert eval_interval(-1.0, 1.0, t) == pytest.approx(expected, abs=1e-15)


def test_eval_interval_agrees_with_simplex_route(unit_interval_simplex):
    rng = np.random.default_rng(89)
    checked = 0
    while checked < 300:
        t = complex(rng.uniform(-6, 6), rng.uniform(-5, 5))
        gap = max(0.0, abs(t.real) - 1.0)
        if math.hypot(gap, t.imag) < 1e-2:
            continue
        mine = eval_simplex(unit_interval_simplex, np.array([t]))
        oracle = eval_interval(-1.0, 1.0, t)
        assert abs(mine - oracle) <= 1e-12
        checked += 1


def test_product_rule_square_spot_points(square_supports):
    rng = np.random.default_rng(97)
    for _ in range(50):
        z = rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2)
        expected = max(
            eval_interval(-1.0, 1.0, complex(z[0])),
            eval_interval(-1.0, 1.0, complex(z[1])),
        )
        assert eval_extremal(square_supports, z).value == pytest.approx(
            expected, abs=1e-12
        )


def test_prism_matches_triangle_through_projection(prism_supports, triangle_supports):
    """The triangular prism evaluates like its cross-section in the first two
    coordinates, independent of the bounded third slab whenever that slab's
    own value is smaller."""
    rng = np.random.default_rng(101)
    for _ in range(40):
        z12 = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)
        z3 = complex(rng.uniform(-0.9, 0.9), 0.0)
        v_prism = eval_extremal(
            prism_supports, np.array([z12[0], z12[1], z3])
        ).value
        v_tri = eval_extremal(triangle_supports, z12).value
        assert v_prism == pytest.approx(v_tri, abs=1e-12)


def _reference_sums(support, points):
    """One support's magnitude sums by a loop of its own over its
    halfspaces, in the kernel's order of operations: each facet value
    n_k0 z_0 + ... + b_k in that order, its modulus over the apex height,
    added in facet order."""
    total = np.zeros(points.shape[0])
    for halfspace, height in zip(support.halfspaces, support.heights):
        value = halfspace.normal[0] * points[:, 0]
        for c in range(1, points.shape[1]):
            value = value + halfspace.normal[c] * points[:, c]
        total = total + np.abs(value + halfspace.offset) / height
    return total


def _reference_arccosh(total):
    """arccosh as log1p(u + sqrt(u(u+2))), or log 2 + log s where u(u+2)
    overflows, and 0 up to 1 + 1e-12."""
    u = np.maximum(total - 1.0, 0.0)
    with np.errstate(over="ignore"):
        square = u * (u + 2.0)
    values = np.log1p(u + np.sqrt(square))
    far = np.isinf(square)
    values[far] = math.log(2.0) + np.log(total[far])
    values[total <= 1.0 + 1e-12] = 0.0
    return values


def _reference_values(support, points):
    return _reference_arccosh(_reference_sums(support, points))


def _reference_max(support_set, points):
    """V_K and argmax by a loop over the stack: arccosh of the largest sum,
    and the first entry whose sum is (1 - 1e-12) times that or more, 0
    where V = 0."""
    sums = [_reference_sums(support_set[i], points)
            for i in support_set.stack]
    best = np.max(sums, axis=0)
    argmax = np.full(points.shape[0], -1, dtype=np.int64)
    for i, total in zip(support_set.stack, sums):
        argmax[(argmax < 0) & (total >= best * (1.0 - 1e-12))] = i
    values = _reference_arccosh(best)
    argmax[values == 0.0] = 0
    return values, argmax


def _mixed_points(polytope, count, rng):
    """Complex points, real points around K, a few far out, and K's vertices
    and interior."""
    dim = polytope.dim
    points = rng.uniform(-3, 3, (count, dim)) + 1j * rng.uniform(-2, 2, (count, dim))
    points[1::3] = points[1::3].real
    points[2::50] *= 1e180
    special = np.vstack([polytope.interior, polytope.vertices])[:count]
    points[:len(special)] = special
    return points


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_stacked_kernel_matches_per_support_oracle(name):
    """Values and argmax are those of the per-support loop over the
    evaluation stack, bit for bit, in batches of 1 and one chunk's worth of
    points minus one, exactly, plus one, and each point gives the same bits
    alone as inside its batch.  A chunk's worth follows the stack's table of
    facet functions and its width, which for the symmetric cases are their
    slabs' alone."""
    supports = enumerate_supports(KERNEL_CASES[name]())
    step = extremal._chunk_points(len(supports.stack_table.offsets), len(supports.stack))
    rng = np.random.default_rng(len(supports))
    for count in sorted({1, step - 1, step, step + 1} - {0}):
        points = _mixed_points(supports.polytope, count, rng)
        values, argmax = eval_extremal_many(supports, points)
        expected, expected_argmax = _reference_max(supports, points)
        assert values.tobytes() == expected.tobytes(), (name, count)
        assert argmax.tobytes() == expected_argmax.tobytes(), (name, count)
        alone = {0, count - 1, min(step, count - 1), *rng.choice(count, min(count, 40), replace=False)}
        for k in alone:
            value, index = eval_extremal_many(supports, points[k])
            assert value.tobytes() == values[k:k + 1].tobytes(), (name, count, k)
            assert index[0] == argmax[k]


def test_batch_memory_is_bounded_by_the_chunk():
    """20,000 points against the 470 supports of a tangent 24-gon, which is
    not symmetric, so all are evaluated: one (points, supports) complex
    matrix would take 143 MiB; chunked, the call stays below 8 MiB.  One of
    those supports at 200,000 points runs through the same chunk loop: its
    1.5 MiB of values and one chunk's work arrays stay below 4 MiB, where
    work arrays for every point at once took 9.5 MiB, and the values are
    the per-support oracle's across every chunk boundary."""
    supports = enumerate_supports(validate(tangent_halfspaces(2, 24, 0), 2))
    assert len(supports.stack) == len(supports) == 470
    rng = np.random.default_rng(3)
    points = rng.uniform(-2, 2, (200_000, 2)) + 1j * rng.uniform(-1, 1, (200_000, 2))
    for call, argument, count, bound in ((eval_extremal_many, supports, 20_000, 8 * 2**20),
                                         (eval_simplex_many, supports[0], 200_000, 4 * 2**20)):
        call(argument, points[:10])
        tracemalloc.start()
        try:
            values = call(argument, points[:count])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, call
    # the last call's values: supports[0] at every point
    assert values.tobytes() == _reference_values(supports[0], points).tobytes()


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_support_matrix_matches_per_support_oracle(name):
    """``eval_supports_many`` runs chunk by chunk, and its matrix holds the
    per-support loop's values bit for bit across the chunk boundaries."""
    supports = enumerate_supports(KERNEL_CASES[name]())
    polytope = supports.polytope
    step = extremal._chunk_points(len(supports.table.offsets), len(supports))
    rng = np.random.default_rng(len(supports) + 1)
    for count in sorted({1, step, step + 1, 2 * step + 3} - {0}):
        points = _mixed_points(polytope, count, rng)
        matrix = eval_supports_many(supports, points)
        expected = np.stack([_reference_values(s, points) for s in supports], axis=1)
        assert matrix.tobytes() == expected.tobytes(), (name, count)


def test_support_matrix_memory_is_bounded_by_its_result():
    """5,000 points against the 24-gon's 452 supports: the 17.2 MiB matrix is
    the only large array, so the peak stays below twice its size.  Work arrays
    for every point at once would take 103 MiB more."""
    supports = enumerate_supports(ngon_polytope(24))
    rng = np.random.default_rng(5)
    points = rng.uniform(-2, 2, (5_000, 2)) + 1j * rng.uniform(-1, 1, (5_000, 2))
    eval_supports_many(supports, points[:10])
    tracemalloc.start()
    try:
        matrix = eval_supports_many(supports, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix.shape == (5_000, 452)
    assert peak < 2 * matrix.nbytes


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_per_support_diagnostics_match_eval_simplex(name):
    """A row of ``eval_supports_many`` at one point comes from one stacked
    kernel call; each entry equals ``eval_simplex`` of that support alone, bit
    for bit, and V is the largest entry of the stack."""
    supports = enumerate_supports(load_fixture(name))
    points = _mixed_points(supports.polytope, 25, np.random.default_rng(41))
    for z in points:
        row = eval_supports_many(supports, z)[0]
        expected = [eval_simplex(support, z) for support in supports]
        assert row.tobytes() == np.array(expected).tobytes()
        assert eval_extremal(supports, z).value == max(row[i] for i in supports.stack)


def _lundin(polytope, points):
    """V_K of a centrally symmetric K by Lundin's formula, in numpy alone:
    the largest log|h(w)| over antipodal pairs (k, k'), where w maps the
    slab -b_k <= n_k.x <= b_k' onto [-1, 1] and h(w) = w + sqrt(w-1)sqrt(w+1)."""
    normals, offsets = polytope.normals, polytope.offsets
    values = []
    for k, normal in enumerate(normals):
        partner = int(np.argmin(np.abs(normals + normal).sum(axis=1)))
        if k < partner:
            w = ((2.0 * points @ normal + offsets[k] - offsets[partner])
                 / (offsets[k] + offsets[partner]))
            values.append(np.log(np.abs(w + np.sqrt(w - 1.0) * np.sqrt(w + 1.0))))
    return np.max(values, axis=0)


SYMMETRIC_CASES = {
    **{f"symmetric-d{dim}": lambda dim=dim: symmetric_polytope(dim, dim + 3, dim)
       for dim in (2, 3, 4)},
    "ngon-24": lambda: ngon_polytope(24),
    "hexagon": lambda: corner_cut_hexagon((1.0, 1.5, 0.5)),
}


@pytest.mark.parametrize("name", SYMMETRIC_CASES)
def test_pruned_values_match_lundin_formula(name):
    """The slabs alone give V_K to 1e-12 at complex points, away from the
    square-root cliff that real points of K sit on."""
    supports = enumerate_supports(SYMMETRIC_CASES[name]())
    assert len(supports.stack) < len(supports)
    assert all(supports[i].kind == "strip" for i in supports.stack)
    rng = np.random.default_rng(11)
    dim = supports.polytope.dim
    points = rng.uniform(-3, 3, (500, dim)) + 1j * rng.uniform(-2, 2, (500, dim))
    values, _ = eval_extremal_many(supports, points)
    expected = _lundin(supports.polytope, points)
    assert np.all(np.abs(values - expected) <= 1e-12 * np.maximum(1.0, expected))


def _assert_argmax_contract(supports, points):
    """V is arccosh of each point's largest stack sum, the largest of the
    stack's values; argmax is 0 where V = 0 and otherwise the first stack
    entry whose sum is (1 - 1e-12) times the largest or more, by its sorted
    index.  The sums are the per-support loop's."""
    values, argmax = eval_extremal_many(supports, points)
    sums = np.array([_reference_sums(supports[i], points)
                     for i in supports.stack])
    best = sums.max(axis=0)
    assert np.array_equal(values, _reference_arccosh(best))
    matrix = eval_supports_many(supports, points)
    assert np.array_equal(values, matrix[:, supports.stack].max(axis=1))
    zero = values == 0.0
    assert np.all(argmax[zero] == 0)
    within = sums >= best * (1.0 - 1e-12)
    first = supports.stack[np.argmax(within, axis=0)]
    assert np.array_equal(argmax[~zero], first[~zero])
    return values, argmax


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_argmax_names_the_first_sum_within_the_band(name):
    """On every fixture, at complex points, real points inside and outside,
    far points and K's vertices, the named support's sum lies within the
    band of the largest sum, and no earlier stack entry's does."""
    supports = enumerate_supports(load_fixture(name))
    _assert_argmax_contract(supports, _mixed_points(supports.polytope, 300,
                                                    np.random.default_rng(43)))


def test_argmax_breaks_quad_ties_for_the_lowest_index(quad_supports):
    """The quad's two simplices have equal sums on the lines x = y and
    x + y = 1, real or complex; rounding puts either one higher, but the
    band names support 0 at every such point of the 101 x 101 grid over
    [-1, 4]^2 and at complex points of both lines."""
    axis = np.linspace(-1.0, 4.0, 101)
    rng = np.random.default_rng(53)
    w = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-2, 2, 200)
    points = np.vstack([np.stack([axis, axis], axis=1),
                        np.stack([axis[:61], axis[60::-1]], axis=1),  # u + v = 1 on the grid
                        np.stack([w, w], axis=1), np.stack([w, 1.0 - w], axis=1)]).astype(complex)
    sums = np.array([_reference_sums(support, points)
                     for support in quad_supports])
    assert np.all(np.abs(sums[1] - sums[0]) <= 1e-14 * sums[0])
    assert np.any(sums[1] > sums[0])  # a strict max would name support 1 there
    values, argmax = _assert_argmax_contract(quad_supports, points)
    assert np.all(argmax == 0) and np.any(values > 0.0)


@pytest.mark.parametrize("name", SYMMETRIC_CASES)
def test_pruned_argmax_contract(name):
    """The argmax contract over the slabs alone; one point gives alone the
    value, argmax and support values it has in its batch."""
    supports = enumerate_supports(SYMMETRIC_CASES[name]())
    points = _mixed_points(supports.polytope, 300, np.random.default_rng(13))
    values, argmax = _assert_argmax_contract(supports, points)
    zero = values == 0.0
    assert zero.any() and not zero.all()
    matrix = eval_supports_many(supports, points)
    for k in (0, 1, 2, 150, 299):
        result = eval_extremal(supports, points[k])
        assert (result.value, result.argmax) == (values[k], argmax[k])
        assert eval_supports_many(supports, points[k]).tobytes() == matrix[k].tobytes()


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_argmax_value_gap_is_bounded_near_the_boundary(name):
    """Near the real boundary of K every sum approaches 1, and the band's
    1e-12 of the largest sum s spans a wider gap in value.  Sum s_a of the
    named support is within it, and where s_a falls in the zero band its
    value V_a is 0 and not arccosh(s_a), which costs up to 1e-12 more: so
    cosh V - cosh V_a <= 2e-12 s and V - V_a <= 2e-12 cosh V / sinh(V / 2),
    about 4e-12 / V.  The value the named support reaches is never above V
    and never further below it than that, plus 16 eps max(1, V) for the
    arccosh's own rounding.  The points lie 1e-12..1e-3 outside a facet of
    K, some with imaginary parts."""
    supports = enumerate_supports(KERNEL_CASES[name]())
    polytope, eps = supports.polytope, np.finfo(float).eps
    rng = np.random.default_rng(83)
    points = []
    for k, halfspace in enumerate(polytope.halfspaces):
        corners = polytope.vertices[polytope.incidence.active[:, k]]
        weights = rng.dirichlet(np.ones(len(corners)), 20)
        steps = 10.0 ** rng.uniform(-12, -3, (20, 1))
        points.append(weights @ corners - steps * halfspace.normal
                      + 1j * rng.choice([0.0, 1e-9, 1e-5], (20, polytope.dim)))
    points = np.vstack(points)
    values, argmax = eval_extremal_many(supports, points)
    matrix = eval_supports_many(supports, points)
    named = matrix[np.arange(len(points)), argmax]
    outside = values > 0.0
    assert outside.sum() > len(points) // 2
    gap = values[outside] - named[outside]
    bound = (2e-12 * np.cosh(values[outside]) / np.sinh(values[outside] / 2)
             + 16 * eps * np.maximum(1.0, values[outside]))
    assert np.all(gap >= 0.0) and np.all(gap <= bound), name


def _translated(polytope, shift):
    return validate([(h.normal, h.offset - float(h.normal @ np.array(shift)))
                     for h in polytope.halfspaces], polytope.dim)


TILTED_CASES = {
    **{f"tilted-{seed}": lambda seed=seed: tilted_prism(seed) for seed in range(12)},
    **{f"tilted-{seed}-moved": lambda seed=seed: _translated(tilted_prism(seed), (2.5, -1.5, 4.0))
       for seed in (1, 7, 11)},
}


def _cross_section_max(support_set, points):
    """V_K with each strip evaluated at the projected point Qz against the
    halfspaces and heights of its cross-section, the simplex certification
    checked, and each simplex from K's facets: a route apart from the
    strips' lifted facets."""
    sums = []
    for i in support_set.stack:
        support = support_set[i]
        strip = support.kind == "strip"
        simplex = support.cross_simplex if strip else support
        frame = points @ support.basis.T if strip else points
        sums.append(sum(np.abs(frame @ h.normal + h.offset) / height
                        for h, height in zip(simplex.halfspaces, simplex.heights)))
    return _reference_arccosh(np.max(sums, axis=0))


@pytest.mark.parametrize("name", TILTED_CASES)
def test_tilted_strips_vanish_on_K(name):
    """A tilted prism's side normals leave their plane by 1e-11..1e-9; where
    that is inside the rank tolerance, as at 8 of the 12 seeds, its three
    sides make a strip, besides the slab between its caps.  A strip reads
    its cross-section's facets lifted into the span of Q, not K's own
    normals, whose residual would move the sum at a real point of K off 1
    by up to about 1e-9 and V to about 1e-5.  At real points inside K every
    value is exactly 0 and argmax 0.  Elsewhere, K's vertices among them, V
    is the cross-section route's to rounding, 1e-12 max(1, 1/V): a vertex
    on a cap lies up to the sides' tilt outside the strip, which the rank
    tolerance lets through, and reads about 1e-5 on both routes."""
    supports = enumerate_supports(TILTED_CASES[name]())
    polytope = supports.polytope
    assert any(support.kind == "strip" for support in supports)
    rng = np.random.default_rng(89)
    inside = np.vstack([rng.dirichlet(np.ones(len(polytope.vertices)), 300) @ polytope.vertices,
                        polytope.interior])
    values, argmax = eval_extremal_many(supports, inside)
    assert np.all(values == 0.0) and np.all(argmax == 0)
    assert np.all(eval_supports_many(supports, inside) == 0.0)
    points = rng.uniform(-4, 4, (200, 3)) + 1j * rng.choice([0.0, 0.5], (200, 3))
    points = np.vstack([points + polytope.interior, polytope.vertices])
    values, _ = eval_extremal_many(supports, points)
    expected = _cross_section_max(supports, points)
    assert np.array_equal(values == 0.0, expected == 0.0)
    assert np.all(np.abs(values - expected)
                  <= 1e-12 * np.maximum(1.0, 1.0 / np.maximum(values, 1e-300))), name


def _decimal_values(support_set, points):
    """V_K to 40 digits and each point's forward-error bound on its largest
    sum, from the float normals, offsets, heights and points taken exactly:
    facet values, moduli, quotients, sums and arccosh in decimal arithmetic.

    The bound is E = (2d + 8) eps (sum_j A_j / h_j + s) over the stack's
    supports, largest where they differ, with A_k = sum_c |n_kc| (|x_c| +
    |y_c|) + |b_k| for z = x + iy: each part of l_k(z) gathers d products and
    d additions, at most gamma_(d+1) A_k in all; the modulus, the quotient
    and the d additions of nonnegative quotients add at most 2 eps |l_k|,
    eps lambda_j and gamma_d s.  (2d + 8) eps leaves a factor of about 2."""
    polytope, eps = support_set.polytope, np.finfo(float).eps
    d, D = polytope.dim, decimal.Decimal
    with decimal.localcontext() as context:
        context.prec = 40
        table = support_set.stack_table
        normals = [[D(float(c)) for c in row] for row in table.normals]
        offsets = [D(float(b)) for b in table.offsets]
        facets = table.facets.T.tolist()
        heights = [[D(float(h)) for h in column] for column in table.heights.T]
        exact, bounds = [], []
        for z in points:
            x, y = [D(float(c.real)) for c in z], [D(float(c.imag)) for c in z]
            moduli, scales = [], []
            for normal, offset in zip(normals, offsets):
                real = sum((n * c for n, c in zip(normal, x)), offset)
                imag = sum(n * c for n, c in zip(normal, y))
                moduli.append((real * real + imag * imag).sqrt())
                scales.append(sum(abs(n) * (abs(a) + abs(b)) for n, a, b in zip(normal, x, y))
                              + abs(offset))
            moduli.append(D(0))
            scales.append(D(0))
            slots = [list(zip(ks, hs)) for ks, hs in zip(facets, heights)]
            sums = [sum(moduli[k] / h for k, h in slot) for slot in slots]
            weights = [sum(scales[k] / h for k, h in slot) for slot in slots]
            best = max(sums)
            exact.append(best)
            bounds.append(max(D((2 * d + 8) * eps) * (w + t) for w, t in zip(weights, sums)))
        return exact, bounds


def _decimal_arccosh(s):
    with decimal.localcontext() as context:
        context.prec = 40
        return float((s + (s * s - 1).sqrt()).ln()) if s > 1 else 0.0


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_kernel_matches_decimal_oracle(name):
    """Against 40-digit arithmetic on the same float inputs, at complex points
    (a few of them 1e6 out, where l_k cancels) and real points outside K,
    V lies in [arccosh(s - E), arccosh(s + E)], widened by 4 eps V for the
    arccosh's own rounding: s is the exact largest sum and E the forward-error
    bound of ``_decimal_values``; below 1 + 1e-12 the lower end is 0, the
    band's value.  V = 0 nowhere here, since these points are not in K."""
    supports = enumerate_supports(KERNEL_CASES[name]())
    polytope, eps = supports.polytope, np.finfo(float).eps
    rng = np.random.default_rng(67)
    dim = polytope.dim
    complex_points = rng.uniform(-3, 3, (20, dim)) + 1j * rng.uniform(-2, 2, (20, dim))
    complex_points[::7] *= 1e6
    real = rng.uniform(-3, 3, (200, dim))
    outside = real[np.min(real @ polytope.normals.T + polytope.offsets, axis=1) < 0.0][:20]
    points = np.vstack([complex_points, outside.astype(complex)])
    values, _ = eval_extremal_many(supports, points)
    exact, bounds = _decimal_values(supports, points)
    assert np.all(values > 0.0)
    for value, s, bound in zip(values.tolist(), exact, bounds):
        low = s - bound
        lower = 0.0 if low <= 1 + decimal.Decimal(1e-12) else _decimal_arccosh(low)
        upper = _decimal_arccosh(s + bound)
        assert lower * (1 - 4 * eps) <= value <= upper * (1 + 4 * eps), (name, value, s)


def _errstate_arccosh(s):
    """The arccosh as it read before its far threshold was a constant: the
    square formed everywhere under ``np.errstate``, and the far branch
    wherever it overflowed to inf."""
    s = np.array(s, dtype=float)
    u = np.maximum(s - 1.0, 0.0)
    with np.errstate(over="ignore"):
        square = (u + 2.0) * u
    values = np.log1p(np.sqrt(square) + u)
    far = np.isinf(square)
    values[far] = math.log(2.0) + np.log(u[far])
    values[s <= 1.0 + 1e-12] = 0.0
    return values


def test_arccosh_far_threshold_is_exact():
    """The far branch starts one ulp above _FAR, the largest u with
    (u + 2) u finite: there and at 1e300 the scalar and batch arccosh are
    the errstate formula's bit for bit, with no numpy warning."""
    bound = extremal._FAR
    assert math.isfinite((bound + 2.0) * bound)
    assert math.isinf((math.nextafter(bound, math.inf) + 2.0) * math.nextafter(bound, math.inf))
    samples = [math.nextafter(bound, 0.0), bound, math.nextafter(bound, math.inf), 1e300, 1.7e308]
    samples = [1.0 + u for u in samples]  # s - 1 == u at this size
    assert [s - 1.0 for s in samples[:3]] == [math.nextafter(bound, 0.0), bound,
                                              math.nextafter(bound, math.inf)]
    expected = _errstate_arccosh(samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = _batch_arccosh(np.array(samples))
        scalar = np.array([inv_joukowski_log(s) for s in samples])
    assert batch.tobytes() == scalar.tobytes() == expected.tobytes()


OVERFLOW_POINTS = (1.7e308 + 1.7e308j, -1.7e308 - 1.7e308j, 1.7e308 - 1.7e308j,
                   -1.7e308 + 1.7e308j, -1.7e308, 1.7e308j, 1e308 + 1e308j, 1e160)


@pytest.mark.parametrize("t", EXTREME_POINTS + OVERFLOW_POINTS)
def test_every_evaluator_is_finite_at_extreme_points(t):
    """On [-1, 1], up to |t| = 1.7e308, where |1 + t| overflows, every
    evaluator agrees with the interval formula and the ball to 4 eps, and
    on the cube [-1, 1]^3, by the product rule, with the largest interval
    value of the coordinates; no numpy warning escapes."""
    eps = np.finfo(float).eps
    segment = enumerate_supports(validate([([1.0], 1.0), ([-1.0], 1.0)], 1))
    expected = eval_interval(-1.0, 1.0, t)
    assert abs(lundin_ball(np.array([t, 0.0]), 1.0) - expected) <= 4 * eps * expected
    point = np.array([t])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [eval_extremal(segment, point).value, eval_extremal_many(segment, point)[0][0],
                  *eval_supports_many(segment, point)[0], eval_simplex(segment[0], point),
                  eval_simplex_many(segment[0], point)[0]]
    for value in values:
        assert abs(value - expected) <= 4 * eps * expected, values
    cube = enumerate_supports(cube_polytope(3))
    points = np.array([[t, 0.5, -0.25j], [2.0, t, 1e300], [0.0, 0.0, t]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, argmax = eval_extremal_many(cube, points)
        matrix = eval_supports_many(cube, points)
    for z, value, index, row in zip(points, values, argmax, matrix):
        reference = [eval_interval(-1.0, 1.0, c) for c in z]
        assert abs(value - max(reference)) <= 4 * eps * value
        axis = int(np.argmax(reference))
        assert cube[index].facet_indices == (2 * axis, 2 * axis + 1)
        for support, entry in zip(cube, row):
            coordinate = z[support.facet_indices[0] // 2]
            assert abs(entry - eval_interval(-1.0, 1.0, coordinate)) <= 4 * eps * max(entry, 1.0)


def test_overflowing_points_leave_their_batch_alone():
    """In one chunk with points whose sums overflow, every other point's
    value, argmax and support values are those it has alone, bit for bit;
    a NaN anywhere still raises ValueError and a sum below the domain band
    DomainError."""
    supports = enumerate_supports(load_fixture("prism"))
    rng = np.random.default_rng(97)
    points = _mixed_points(supports.polytope, 30, rng)
    points[[4, 17]] = [1.7e308 * (1 - 1j), 0.5, 2.0], [-1e308, 1.7e308j, 1e308]
    values, argmax = eval_extremal_many(supports, points)
    matrix = eval_supports_many(supports, points)
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(matrix))
    for k in range(len(points)):
        alone = (*eval_extremal_many(supports, points[k]), eval_supports_many(supports, points[k]))
        assert (alone[0].tobytes(), alone[1].tobytes(), alone[2].tobytes()) == (
            values[k:k + 1].tobytes(), argmax[k:k + 1].tobytes(), matrix[k:k + 1].tobytes())
    for k in (0, 4, 17, 29):
        bad = points.copy()
        bad[k, 1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            eval_extremal_many(supports, bad)
    quad = load_fixture("quad")
    moved = _translated(quad, (1e7, 1e7))  # a sum below 1 - 1e-9 at the interior point
    moved_supports = enumerate_supports(moved)
    for batch in ([moved.interior, [1.7e308j, 1.7e308]], [[1.7e308j, 1.7e308], moved.interior]):
        with pytest.raises(DomainError):
            eval_extremal_many(moved_supports, np.array(batch, dtype=complex))


def test_numpy_wrappers_stay_off_the_per_call_path(monkeypatch):
    """With numpy's Python-level ``all``, ``take``, ``argmax``,
    ``count_nonzero`` and ``errstate`` replaced by stubs that raise, the
    evaluators still return their values: an evaluation calls ufuncs and
    ndarray methods only, each a C call."""
    cases = [enumerate_supports(load_fixture(name)) for name in ("quad", "cube", "prism")]
    cases.append(enumerate_supports(ngon_polytope(8)))
    rng = np.random.default_rng(101)
    points = [_mixed_points(s.polytope, 20, rng) for s in cases]
    expected = [(eval_extremal(s, p[3]), eval_extremal_many(s, p), eval_supports_many(s, p))
                for s, p in zip(cases, points)]

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy wrapper on the per-call path")

    for name in ("all", "take", "argmax", "count_nonzero", "errstate"):
        monkeypatch.setattr(np, name, refuse)
    for s, p, (single, many, matrix) in zip(cases, points, expected):
        assert eval_extremal(s, p[3]) == single
        values, argmax = eval_extremal_many(s, p)
        assert values.tobytes() == many[0].tobytes() and argmax.tobytes() == many[1].tobytes()
        assert eval_supports_many(s, p).tobytes() == matrix.tobytes()


SLOT_CASES = {**KERNEL_CASES, "hexagon": lambda: corner_cut_hexagon((1.0, 1.0, 1.0)),
              **{f"tilted-{seed}": lambda seed=seed: tilted_prism(seed) for seed in range(12)}}


def _padded(facets, heights, rows, slots):
    """Columns in ``slots`` slots: those past the set's own are the padding
    row ``rows`` over height 1.0, as a strip's missing slots are."""
    extra = slots - facets.shape[0]
    return (np.vstack([facets, np.full((extra, facets.shape[1]), rows, dtype=np.intp)]),
            np.vstack([heights, np.ones((extra, facets.shape[1]))]))


@pytest.mark.parametrize("name", SLOT_CASES)
def test_slot_count_keeps_every_output(name, tmp_path, capsys):
    """The set's columns have as many slots as its widest support.  In
    d + 1 slots, as every set held them before, the padding added exactly
    +0.0: the support matrix, V, argmax and the bytes of ``eval
    --diagnostics`` are those of the sums over d + 1 slots, bit for bit,
    and each point gives alone what it gives in its batch."""
    polytope = SLOT_CASES[name]()
    document = {"dim": polytope.dim, "halfspaces": [
        {"normal": h.normal.tolist(), "offset": h.offset} for h in polytope.halfspaces]}
    path = tmp_path / "polytope.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    supports = enumerate_supports(from_json(document))
    table = supports.table
    dim, rows = supports.polytope.dim, len(table.offsets)
    assert table.facets.shape[0] == max(len(s.heights) for s in supports) <= dim + 1
    points = _mixed_points(supports.polytope, 40, np.random.default_rng(len(supports)))
    facets, heights = _padded(table.facets, table.heights, rows, dim + 1)
    sums = _kernel_sums(table._replace(facets=facets, heights=heights), points)
    stack = sums[supports.stack]
    best = stack.max(axis=0)
    argmax = supports.stack[np.argmax(stack >= best * (1.0 - 1e-12), axis=0)]
    values = _batch_arccosh(best.copy())
    argmax[values == 0.0] = 0
    matrix = _batch_arccosh(sums.copy()).T
    assert eval_supports_many(supports, points).tobytes() == matrix.tobytes()
    got = eval_extremal_many(supports, points)
    assert got[0].tobytes() == values.tobytes() and got[1].tobytes() == argmax.tobytes()
    for k in range(len(points)):
        assert eval_extremal(supports, points[k]) == EvalResult(values[k], argmax[k])
        assert eval_supports_many(supports, points[k]).tobytes() == matrix[k].tobytes()
    texts = [",".join(f"{c.real!r},{c.imag!r}" for c in z) for z in points.tolist()]
    assert cli.main(["eval", str(path), "--diagnostics", *[f"--point={t}" for t in texts]]) == 0
    assert capsys.readouterr().out == "".join(
        " ".join(map(repr, [v, i, *row])) + "\n"
        for v, i, row in zip(values.tolist(), argmax.tolist(), matrix.tolist()))


MIRRORED_CASES = {
    "square": lambda: load_fixture("square"),
    "cube": lambda: load_fixture("cube"),
    "ngon-24": lambda: ngon_polytope(24),
    "centred-hexagon": lambda: corner_cut_hexagon((1.0, 1.5, 0.5), (3.0, -2.0)),
    "symmetric-d3": lambda: symmetric_polytope(3, 6, 1),
}


@pytest.mark.parametrize("name", MIRRORED_CASES)
def test_mirrored_rows_move_no_bit(name, monkeypatch):
    """The stack's table read with its mirrored rows, whose products are not
    formed, and read with none gives the same V and argmax bit for bit: on
    grid points, on them scaled by 1e200, and at 1.7e308 (1 + i), where sums
    overflow and ``_point`` takes the value."""
    supports = enumerate_supports(MIRRORED_CASES[name]())
    table, stack = supports.stack_table, supports.stack
    mirrored = table.mirrored
    assert mirrored == len(stack) > 0
    dim = supports.polytope.dim
    axis = np.linspace(-3.0, 3.0, 9)
    grid = np.zeros((axis.size ** 2, dim), dtype=complex)
    grid[:, 0] = np.repeat(axis, axis.size) + 0.25j
    grid[:, 1] = 1j * np.tile(axis, axis.size) - 0.5
    far = np.full((dim + 1, dim), 0.25 - 0.5j)
    far[np.arange(dim), np.arange(dim)] = 1.7e308 * (1 + 1j)
    far[dim] = 1.7e308 * (1 + 1j)
    far_calls = []
    point = extremal._point
    monkeypatch.setattr(extremal, "_point",
                        lambda *args: far_calls.append(args[0].mirrored) or point(*args))
    unmirrored = dataclasses.replace(supports, stack_table=table._replace(mirrored=0))
    for points in (grid, grid * 1e200, far):
        plain = eval_extremal_many(unmirrored, points)
        values, argmax = eval_extremal_many(supports, points)
        assert values.tobytes() == plain[0].tobytes()
        assert argmax.tobytes() == plain[1].tobytes()
    assert far_calls == [0] * (dim + 1) + [mirrored] * (dim + 1)


def test_one_point_forms_no_mirrored_row(monkeypatch):
    """A call of one point takes ``_point_sums``, which forms every row from
    its own normal, and no pass of the chunk kernel: on the 24-gon, single
    ``eval_extremal``, ``eval_extremal_many``, ``eval_supports_many`` and
    ``eval_simplex`` calls form no facet values there, where a pass of two
    points reads its 12 slabs' mirrored rows.  A pass of two where a sum
    overflows keeps the other point's sums and redoes the far one alone by
    ``_point``: its sums overflow again, so it forms them once more from the
    point scaled by a power of two."""
    supports = enumerate_supports(ngon_polytope(24))
    assert supports.stack_table.mirrored == len(supports.stack) == 12
    seen = []
    for name in ("_facet_values", "_point_sums"):
        kernel = getattr(extremal, name)
        monkeypatch.setattr(extremal, name, lambda table, points, *work, name=name, kernel=kernel:
                            seen.append((name, table.mirrored, points.shape))
                            or kernel(table, points, *work))
    z = np.array([1.5 + 0.5j, -0.25 + 2j])
    eval_extremal(supports, z)
    eval_extremal_many(supports, z[None, :])
    eval_supports_many(supports, z)
    eval_simplex(supports[0], z)
    assert [entry[0] for entry in seen] == ["_point_sums"] * 4
    assert [entry[2] for entry in seen] == [(2,)] * 4
    seen.clear()
    eval_extremal_many(supports, np.stack([z, 2 * z]))
    assert seen == [("_facet_values", 12, (2, 2))]
    seen.clear()
    eval_extremal_many(supports, np.stack([z, np.full(2, 1.7e308 * (1 + 1j))]))
    assert seen == [("_facet_values", 12, (2, 2))] + [("_point_sums", 12, (2,))] * 2


def _routes(monkeypatch, support_set, points):
    """``eval_extremal_many`` with the screen forced off, then on, each as
    (values, argmax) or the message of the DomainError it raised."""
    outputs = []
    for screened in (False, True):
        monkeypatch.setattr(extremal, "_screens", lambda table, count: screened)
        try:
            outputs.append(eval_extremal_many(support_set, points))
        except DomainError as exc:
            outputs.append(str(exc))
    return outputs


def _assert_same_routes(monkeypatch, support_set, points):
    """Both routes give the same values, sign bits included, and argmax."""
    exact, screened = _routes(monkeypatch, support_set, points)
    assert not isinstance(exact, str)
    assert exact[0].tobytes() == screened[0].tobytes()
    assert exact[1].tobytes() == screened[1].tobytes()


ROUTE_CASES = [*KERNEL_CASES, *(f"tilted-{seed}" for seed in range(12)
                                if f"tilted-{seed}" not in KERNEL_CASES), *(
    f"{workload}-{seed}" for workload in ("setup-tangent", "grid-ngon", "eval-cli")
    for seed in range(1, 11))]


def _route_families(polytope, rng):
    """Mixed points, them times 1e200, points at 1.7e308 (1 + i), where sums
    overflow, real points of K, where V = 0, and points 1e-9 i off each
    facet, where the sums sit at the zero band."""
    dim, vertices = polytope.dim, polytope.vertices
    mixed = _mixed_points(polytope, 90, rng)
    far = np.full((dim + 1, dim), 0.25 - 0.5j)
    far[np.arange(dim), np.arange(dim)] = 1.7e308 * (1 + 1j)
    far[dim] = 1.7e308 * (1 + 1j)
    inside = rng.dirichlet(np.ones(len(vertices)), 40) @ vertices
    active = polytope.incidence.active
    on_facets = np.array([vertices[active[:, k]].mean(axis=0) for k in range(active.shape[1])])
    scaled = mixed[np.abs(mixed).max(axis=1) < 1e100] * 1e200
    return mixed, scaled, far, inside, on_facets + 1e-9j


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_screened_route_matches_the_exact_route(monkeypatch, case):
    """V and argmax are the exact route's, bit for bit, where the BLAS bound
    picks which supports get exact sums, on every family of
    ``_route_families``."""
    for polytope in case_polytopes(monkeypatch, case):
        support_set = enumerate_supports(polytope)
        for points in _route_families(polytope, np.random.default_rng(len(support_set))):
            _assert_same_routes(monkeypatch, support_set, points)


def test_a_stack_past_the_pass_budget_is_screened(monkeypatch):
    """Tangent d=5 n=24 has 7,041 supports, whose weights W take 1.4 MB,
    past the 768 KiB a pass's work arrays fill: a pass still takes 64
    points, so 65 points take the screen, and both routes give the same
    bytes on every family of ``_route_families``.  No width the guards
    admit gets a pass of fewer than 64 points."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    normals = importlib.import_module("inputs").tangent_normals(5, 24, np.random.default_rng(3))
    support_set = enumerate_supports(validate([(row, 1.0) for row in normals], 5))
    table = support_set.stack_table
    rows, width = table.normals.shape[0], table.facets.shape[1]
    assert width == len(support_set) == 7_041
    assert 8 * width * (rows + 1) > extremal._CHUNK
    assert extremal._chunk_points(rows, width) == 64
    assert extremal._screens(table, 65) and not extremal._screens(table, 64)
    for points in _route_families(support_set.polytope, np.random.default_rng(width)):
        _assert_same_routes(monkeypatch, support_set, points)
    assert min(extremal._chunk_points(rows, w) for rows in (1, 24, 1_000)
               for w in range(1, SUBSET_GUARD + 1)) == 64


def _outcome(evaluate, support_set, points):
    """``evaluate(support_set, points)``, or the message of the DomainError
    it raised."""
    try:
        return evaluate(support_set, points)
    except DomainError as exc:
        return str(exc)


SIMPLEX_POINTS = 3  # points of each family at which every stack support's eval_simplex is read


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_one_point_route_matches_the_batch(monkeypatch, case):
    """A point alone takes ``_point_sums``; inside a batch of two or more it
    takes the chunk kernel, screened or not.  On every family of
    ``_route_families``, V and argmax, the one-point row of
    ``eval_supports_many`` and ``eval_simplex`` of each stack support are
    the batch's, bit for bit."""
    for polytope in case_polytopes(monkeypatch, case):
        support_set = enumerate_supports(polytope)
        for points in _route_families(polytope, np.random.default_rng(len(support_set))):
            assert len(points) >= 2
            values, argmax = eval_extremal_many(support_set, points)
            matrix = eval_supports_many(support_set, points)
            for k, z in enumerate(points):
                alone = eval_extremal(support_set, z)
                assert np.float64(alone.value).tobytes() == values[k].tobytes()
                assert alone.argmax == argmax[k]
                assert eval_supports_many(support_set, z).tobytes() == matrix[k].tobytes()
                if k < SIMPLEX_POINTS:
                    for i in support_set.stack:
                        value = eval_simplex(support_set[i], z)
                        assert np.float64(value).tobytes() == matrix[k, i].tobytes()


def test_one_point_route_keeps_the_domain_error():
    """On the quad moved by (1e7, 1e7), where roundoff takes an interior
    point's sums below the domain band, each point alone raises the
    DomainError it raises in a batch of itself twice, or gives its values."""
    moved = enumerate_supports(_translated(load_fixture("quad"), (1e7, 1e7)))
    rng = np.random.default_rng(5)
    points = np.vstack([moved.polytope.interior,
                        _mixed_points(moved.polytope, 40, rng) + 1e7 * (1 + 0j)])
    raised = 0
    for z in points:
        pair = np.stack([z, z])
        alone, batch = _outcome(eval_extremal, moved, z), _outcome(eval_extremal_many, moved, pair)
        row, rows = _outcome(eval_supports_many, moved, z), _outcome(eval_supports_many, moved, pair)
        if isinstance(batch, str):
            assert alone == batch and row == rows
            raised += 1
        else:
            assert np.float64(alone.value).tobytes() == batch[0][0].tobytes()
            assert alone.argmax == batch[1][0]
            assert row.tobytes() == rows[0].tobytes()
    assert raised



def test_screened_route_keeps_ties_and_the_domain_error(monkeypatch):
    """On the quad's tie lines x = y and x + y = 1, and off them by 1e-15
    to 1e-11 relative, where two supports' sums lie inside or just outside
    the argmax band, the screened route names the exact route's support; on
    the quad moved by (1e7, 1e7) both raise the same DomainError."""
    quad = enumerate_supports(load_fixture("quad"))
    t = np.linspace(-2.0, 3.0, 41)[:, None] + 1j * np.array([0.0, 1e-6, 0.3, 2.0])
    t = t.ravel()
    offsets = np.concatenate([[0.0], np.outer([1, -1], 10.0 ** np.arange(-15, -10.5, 0.5)).ravel()])
    lines = [np.stack([t, t * (1 + e)], axis=1) for e in offsets]
    lines += [np.stack([t, (1 - t) * (1 + e)], axis=1) for e in offsets]
    _assert_same_routes(monkeypatch, quad, np.vstack(lines))
    moved = enumerate_supports(_translated(load_fixture("quad"), (1e7, 1e7)))
    rng = np.random.default_rng(5)
    points = np.vstack([moved.polytope.interior,
                        _mixed_points(moved.polytope, 40, rng) + 1e7 * (1 + 0j)])
    exact, screened = _routes(monkeypatch, moved, points)
    assert isinstance(exact, str) and exact == screened
