"""The extremal-ellipse certificate: V_K(z) checked at a point by an ellipse
in K, without trusting the support set.

Let S be the simplex whose sum is largest at z, apexes p_k, with barycentric
coordinates lambda_k = l_k(z) / h_k, s = sum |lambda_k| and u = s - 1.  With
R = s + sqrt(s^2 - 1), so that log R = V_S(z), sigma_k = sqrt(lambda_k),
A = sqrt(R) + 1/sqrt(R) and B = sqrt(R) - 1/sqrt(R), set

    beta_k = (Re sigma_k / A + i Im sigma_k / B)^2,   alpha_k = 2 |beta_k|.

Then f(zeta) = sum_k (alpha_k + beta_k zeta + conj(beta_k) / zeta) p_k has
f(R) = z, and it maps the unit circle onto the real ellipse
a + 2 Re(b e^{i theta}), a = sum alpha_k p_k and b = sum beta_k p_k, which
lies in S (sum alpha_k = 1 because R + 1/R = 2s, and sum beta_k = 0).  If
it also lies in K, that is n_j.a + b_j >= 2 |n_j.b| for every facet j of K,
then V_K(z) <= log R; and V_K >= V_S because K lies in S.  So the value is
certified at z from K's facets and the point alone.  A support dropped from
the set by mistake makes the named winner a runner-up whose ellipse leaves K.

Every quantity that cancels near K is formed without cancellation:
|lambda| - Re lambda and |lambda| + Re lambda, one as a plain sum and the
other as (Im lambda)^2 over it; u is the sum of the former, and
R - 1 = u + sqrt(u(u + 2)), B = (R - 1) / sqrt(R).
"""

import math

import numpy as np
import pytest

from polyextremal.extremal import eval_extremal_many, eval_supports_many
from polyextremal.supports import enumerate_supports

from conftest import KERNEL_CASES, case_polytopes, load_fixture

MARGIN_TOL = 1e-12    # how far outside K the ellipse may reach
RESIDUAL_TOL = 1e-10  # |f(R) - z|, times max(1, |z|_inf)


def _moduli_sums(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|lambda| + Re lambda and |lambda| - Re lambda, each without
    cancellation: the one adding like signs is |lambda| + |Re lambda|, the
    other (Im lambda)^2 over it."""
    re, im, mod = lam.real, lam.imag, np.abs(lam)
    big = mod + np.abs(re)
    small = np.divide(im * im, big, out=np.zeros_like(big), where=big > 0)
    return np.where(re > 0, big, small), np.where(re > 0, small, big)


def _ellipse(simplex, z: np.ndarray):
    """(a, b, R) of the extremal ellipse of ``simplex`` through z: the curve
    a + R b + conj(b) / R at zeta = R, a + 2 Re(b e^{i theta}) on the circle."""
    normals = np.array([h.normal for h in simplex.halfspaces])
    offsets = np.array([h.offset for h in simplex.halfspaces])
    lam = (normals @ z + offsets) / simplex.heights
    plus, minus = _moduli_sums(lam)
    u = float(minus.sum())
    stretch = u + math.sqrt(u * (u + 2.0))  # R - 1
    root = math.sqrt(1.0 + stretch)
    major, minor = root + 1.0 / root, stretch / root  # A and B
    # Im sigma takes Im lambda's sign; a real negative lambda has sigma = i sqrt|lambda|
    sign = np.where(lam.imag < 0, -1.0, 1.0)
    beta = (np.sqrt(plus / 2.0) / major + 1j * sign * np.sqrt(minus / 2.0) / minor) ** 2
    alpha = 2.0 * np.abs(beta)
    return alpha @ simplex.apexes, beta @ simplex.apexes, 1.0 + stretch


def _winner(support_set, z) -> int:
    """The sorted index of the stack's support of largest value at z, the
    first of equals: not ``EvalResult.argmax``, whose relative band of 1e-12
    on the sums names runners-up near K, where the sums approach 1."""
    values = eval_supports_many(support_set, z)[0]
    return int(support_set.stack[np.argmax(values[support_set.stack])])


def ellipse_certificate(support_set, z):
    """(margin, residual) of the extremal ellipse of the support that wins
    at z: min_j n_j.a + b_j - 2|n_j.b| over K's facets, which is >= 0 when
    the ellipse lies in K, and |f(R) - z|_inf.  None where a strip wins or
    V = 0, where there is no ellipse of a simplex to check."""
    z = np.asarray(z, dtype=complex)
    winner = support_set[_winner(support_set, z)]
    if winner.kind == "strip" or eval_extremal_many(support_set, z)[0][0] == 0.0:
        return None
    a, b, radius = _ellipse(winner, z)
    polytope = support_set.polytope
    margin = float(np.min(polytope.normals @ a + polytope.offsets
                          - 2.0 * np.abs(polytope.normals @ b)))
    residual = float(np.max(np.abs(a + radius * b + np.conj(b) / radius - z)))
    return margin, residual


def _test_points(polytope, rng) -> np.ndarray:
    """Complex points, real points outside K, far points with |z| from 1e2
    to 1e6, and complex points near K's vertices and on its facets."""
    d, vertices = polytope.dim, polytope.vertices
    radius = float(np.max(np.linalg.norm(vertices, axis=1)))
    directions = rng.standard_normal((30, d))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    far = rng.standard_normal((10, d)) + 1j * rng.standard_normal((10, d))
    far *= 10.0 ** rng.uniform(2, 6, (10, 1)) / np.linalg.norm(far, axis=1)[:, None]
    corners = vertices[rng.choice(len(vertices), 20)]
    near = corners + 10.0 ** rng.uniform(-9, -3, (20, 1)) * (
        rng.standard_normal((20, d)) + 1j * rng.standard_normal((20, d)))
    facets = np.empty((20, d), dtype=complex)
    for i in range(20):
        k = i % len(polytope.halfspaces)
        on = vertices[polytope.incidence.active[:, k]]
        facets[i] = rng.dirichlet(np.ones(len(on))) @ np.array(on) \
            + 1j * 10.0 ** rng.uniform(-9, -5) * rng.standard_normal(d)
    return np.vstack([1.5 * rng.standard_normal((40, d)) + 0.6j * rng.standard_normal((40, d)),
                      directions * radius * rng.uniform(1.05, 3.0, (30, 1)),
                      far, near, facets])


MEMBER_CASES = ["quad", "triangle"] + [f"{workload}-{seed}" for workload in (
    "setup-tangent", "eval-cli") for seed in range(1, 11)]
# with strip winners, counted and skipped where a strip wins
STRIP_CASES = [name for name in KERNEL_CASES if name not in MEMBER_CASES] + [
    f"tilted-{seed}" for seed in range(12) if f"tilted-{seed}" not in KERNEL_CASES]


@pytest.mark.parametrize("case", MEMBER_CASES + STRIP_CASES)
def test_winning_simplex_ellipse_lies_in_K(monkeypatch, case):
    """At every tested point where a simplex wins, its extremal ellipse lies
    in K and passes through z at zeta = R: the value is V_K(z) whichever
    supports the set holds.  Points where a strip wins are counted and
    skipped; the benchmark members have no strips, and every tested point
    lies off K, so V > 0 there."""
    for polytope in case_polytopes(monkeypatch, case):
        support_set = enumerate_supports(polytope)
        rng = np.random.default_rng([len(support_set), polytope.dim])
        certified, strips = 0, 0
        points = _test_points(polytope, rng)
        for z in points:
            if support_set[_winner(support_set, z)].kind == "strip":
                strips += 1
                continue
            margin, residual = ellipse_certificate(support_set, z)
            assert margin >= -MARGIN_TOL, (z, margin)
            assert residual <= RESIDUAL_TOL * max(1.0, float(np.max(np.abs(z)))), (z, residual)
            certified += 1
        assert certified + strips == len(points)
        if case in MEMBER_CASES:
            assert strips == 0
        # a stack of strips alone, as a centrally symmetric K has, certifies nothing
        assert certified > 0 or all(support_set[i].kind == "strip" for i in support_set.stack)


def test_runner_up_ellipse_leaves_K():
    """The certificate tells supports apart: at complex points of the quad
    the ellipse of the simplex that does not win leaves K."""
    support_set = enumerate_supports(load_fixture("quad"))
    polytope = support_set.polytope
    rng = np.random.default_rng(5)
    left = 0
    points = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    for z in points:
        a, b, _ = _ellipse(support_set[1 - _winner(support_set, z)], z)
        margin = np.min(polytope.normals @ a + polytope.offsets - 2.0 * np.abs(polytope.normals @ b))
        left += margin < -1e-9
    assert left >= 45
