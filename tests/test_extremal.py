"""Tests for the simplex, strip, ball, and interval extremal-function evaluators."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyextremal import extremal
from polyextremal.extremal import (
    DomainError,
    _coordinates,
    _inv_joukowski_log_many,
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
from polyextremal.polytope import validate
from polyextremal.supports import enumerate_supports

from conftest import (corner_cut_hexagon, cube_polytope, load_fixture, ngon_polytope,
                      prism_polytope, quad_reference, symmetric_polytope, tangent_halfspaces)

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


def test_inv_joukowski_log_far_field():
    """Where u(u+2) overflows the value is log 2 + log s; below that numpy's
    log1p formula is kept bit for bit, in the scalar and the batch form."""
    for s in (1e155, 1e200, 1e300, 1.7e308):
        expected = math.log(2.0) + math.log(s)
        assert inv_joukowski_log(s) == pytest.approx(expected, rel=1e-15)
        batch = _inv_joukowski_log_many(np.array([s]), np.empty(1))[0]
        assert batch == pytest.approx(expected, rel=1e-15)
    for s in (3.0, 1e100, 1e150, 1e154):
        u = np.array([s - 1.0])
        expected = np.log1p(u + np.sqrt(u * (u + 2.0)))[0]
        assert inv_joukowski_log(s) == expected
        assert _inv_joukowski_log_many(np.array([s]), np.empty(1))[0] == expected


def test_inv_joukowski_log_is_the_batch_form():
    """The scalar arccosh is the batch one applied to one value, bit for bit,
    across the zero band, the log1p range and the far field; at s = 3 the
    math module's route was one ulp off numpy's."""
    samples = np.concatenate([np.linspace(1.0 - 1e-9, 1.0 + 1e-11, 201),
                              np.linspace(1.0, 26.0, 2501),
                              np.geomspace(1.0 + 1e-12, 1.7e308, 2501)])
    batch = _inv_joukowski_log_many(samples.copy(), np.empty_like(samples))
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
    """lambda_k of every support as the stacked kernel computes them:
    a (d+1, points, supports) array."""
    shape = (points.shape[0], len(support_set))
    coords, term = np.empty(shape, complex), np.empty(shape, complex)
    return np.array([lam.copy() for lam in _coordinates(
        support_set.rows, support_set.shifts, points, coords, term)])


def test_kernel_coordinates_match_barycentric_oracle():
    """On every valid fixture, the stacked kernel's coordinates of each simplex
    and strip agree with an LU solve of the defining system (for a strip, of
    its cross-section at Qz), and a strip's padding coordinates are exactly 0."""
    rng = np.random.default_rng(19)
    for name in VALID_FIXTURES:
        supports = enumerate_supports(load_fixture(name))
        dim = supports.polytope.dim
        points = rng.uniform(-4, 4, (30, dim)) + 1j * rng.uniform(-3, 3, (30, dim))
        coords = _kernel_coordinates(supports, points)
        for i, support in enumerate(supports):
            for z, lam in zip(points, coords[:, :, i].T):
                if support.kind == "strip":
                    oracle = barycentric(support.cross_simplex, support.basis @ z)
                else:
                    oracle = barycentric(support, z)
                assert np.max(np.abs(lam[:len(oracle)] - oracle)) <= 1e-12, name
                assert np.all(lam[len(oracle):] == 0.0), name


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
    result = eval_extremal(quad_supports, np.array([2.0 + 0j, 2.0 + 0j]), diagnostics=True)
    assert result.value == pytest.approx(QUAD_AT_2_2, abs=1e-12)
    assert result.per_support is not None
    assert len(result.per_support) == 2
    assert result.per_support[0] == pytest.approx(result.per_support[1], abs=1e-12)
    assert result.argmax == 0


def test_eval_extremal_interior_zero(quad_supports, quad):
    result = eval_extremal(quad_supports, quad.interior.astype(complex))
    assert result.value == 0.0
    assert result.per_support is None


def test_eval_extremal_value_is_max_of_diagnostics(quad_supports):
    rng = np.random.default_rng(23)
    for _ in range(25):
        z = rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2)
        result = eval_extremal(quad_supports, z, diagnostics=True)
        assert result.value == max(result.per_support)
        assert result.value >= 0.0
        assert result.value == result.per_support[result.argmax]


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


def _reference_values(support, points):
    """The per-support evaluation the stacked kernel replaced: one support's
    lambda_k in fixed order, magnitudes added in k order, then arccosh as
    log1p(u + sqrt(u(u+2))), or log 2 + log s where u(u+2) overflows."""
    rows, shifts = support.rows, support.shifts
    coords = np.empty((rows.shape[0], points.shape[0]), dtype=complex)
    for k in range(rows.shape[0]):
        column = rows[k, 0] * points[:, 0]
        for c in range(1, rows.shape[1]):
            column += rows[k, c] * points[:, c]
        coords[k] = column + shifts[k]
    total = np.abs(coords[0])
    for k in range(1, coords.shape[0]):
        total = total + np.abs(coords[k])
    u = np.maximum(total - 1.0, 0.0)
    with np.errstate(over="ignore"):
        square = u * (u + 2.0)
    values = np.log1p(u + np.sqrt(square))
    far = np.isinf(square)
    values[far] = math.log(2.0) + np.log(total[far])
    values[total <= 1.0 + 1e-12] = 0.0
    return values


def _reference_max(support_set, points):
    """Max over supports by a strict > loop: ties go to the first support."""
    best = _reference_values(support_set[0], points)
    argmax = np.zeros(points.shape[0], dtype=np.int64)
    for i in range(1, len(support_set)):
        values = _reference_values(support_set[i], points)
        better = values > best
        best = np.where(better, values, best)
        argmax = np.where(better, i, argmax)
    return best, argmax


KERNEL_CASES = {
    **{name: lambda name=name: load_fixture(name) for name in VALID_FIXTURES},
    **{f"prism-d{dim}": lambda dim=dim: prism_polytope(dim, dim) for dim in (2, 3, 4, 5)},
    **{f"cube-d{dim}": lambda dim=dim: cube_polytope(dim) for dim in (2, 3, 4, 5)},
    **{f"tangent-d{dim}": lambda dim=dim: validate(tangent_halfspaces(dim, dim + 6, 0), dim)
       for dim in (2, 3, 4)},
    **{f"symmetric-d{dim}": lambda dim=dim: symmetric_polytope(dim, dim + 3, dim)
       for dim in (2, 3, 4)},
    "ngon-24": lambda: ngon_polytope(24),
}


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
    """Values and argmax are those of the per-support loop over every
    support, bit for bit, in batches of 1 and one chunk's worth of points
    minus one, exactly, plus one, and each point gives the same bits alone as
    inside its batch.  A chunk's worth follows the evaluation stack's width,
    which for the symmetric cases is their slabs alone."""
    supports = enumerate_supports(KERNEL_CASES[name]())
    step = max(1, extremal._CHUNK // len(supports.stack))
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
    step = max(1, extremal._CHUNK // len(supports))
    rng = np.random.default_rng(len(supports) + 1)
    for count in sorted({1, step, step + 1, 2 * step + 3} - {0}):
        points = _mixed_points(supports.polytope, count, rng)
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
    """``EvalResult.per_support`` comes from one stacked kernel call; each entry
    equals ``eval_simplex`` of that support alone, bit for bit."""
    supports = enumerate_supports(load_fixture(name))
    points = _mixed_points(supports.polytope, 25, np.random.default_rng(41))
    for z in points:
        result = eval_extremal(supports, z, diagnostics=True)
        expected = [eval_simplex(support, z) for support in supports]
        assert np.array(result.per_support).tobytes() == np.array(expected).tobytes()
        assert result.value == result.per_support[result.argmax]


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


@pytest.mark.parametrize("name", SYMMETRIC_CASES)
def test_pruned_argmax_contract(name):
    """argmax is 0 where V = 0 and otherwise the first stack entry attaining
    V, by its sorted index; diagnostics read the same value and argmax off
    the full matrix, whose every column is reported."""
    supports = enumerate_supports(SYMMETRIC_CASES[name]())
    points = _mixed_points(supports.polytope, 300, np.random.default_rng(13))
    values, argmax = eval_extremal_many(supports, points)
    matrix = eval_supports_many(supports, points)
    stacked = matrix[:, supports.stack]
    zero = values == 0.0
    assert zero.any() and not zero.all()
    assert np.all(argmax[zero] == 0)
    first = supports.stack[np.argmax(stacked == values[:, None], axis=1)]
    assert np.array_equal(argmax[~zero], first[~zero])
    assert np.array_equal(values, stacked.max(axis=1))
    for k in (0, 1, 2, 150, 299):
        result = eval_extremal(supports, points[k], diagnostics=True)
        assert (result.value, result.argmax) == (values[k], argmax[k])
        assert np.array(result.per_support).tobytes() == matrix[k].tobytes()
