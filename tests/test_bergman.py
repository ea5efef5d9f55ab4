"""Bergman metric, norms, isometry, and the supremum optimizer."""

import numpy as np
import pytest

from schwarzball.bergman import (
    bergman_norm,
    invariance_residual,
    max_quadratic_image_norm,
    metric_at,
    schwarzian_norm_at,
    schwarzian_norm_sup,
)
from schwarzball.errors import OutsideDomainError
from schwarzball.maps import (
    PolyMap,
    automorphism_from_center,
    identity_map,
    map_eval,
    map_jet_at,
    moebius_pole_at_e1,
    random_ball_point,
    unitary_automorphism,
)
from schwarzball.schwarzian import schwarzian_apply, schwarzian_of


def shear(a):
    return PolyMap(2, [{(1, 0): 1, (0, 2): a}, {(0, 1): 1}])


def test_metric_at_origin():
    for n in (2, 3, 4):
        g = metric_at(np.zeros(n)).g
        assert np.max(np.abs(g - (n + 1) * np.eye(n))) == 0


def test_metric_at_half_e1():
    g = metric_at([0.5, 0.0]).g
    assert abs(g[0, 0] - 3 / 0.5625) <= 1e-12
    assert abs(g[1, 1] - 4.0) <= 1e-12
    assert abs(g[0, 1]) == 0 and abs(g[1, 0]) == 0


def test_metric_hermitian_positive():
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = random_ball_point(3, rng, 0.95)
        g = metric_at(z).g
        assert np.max(np.abs(g - g.conj().T)) <= 1e-14
        assert np.min(np.linalg.eigvalsh(g)) > 0


def test_metric_outside_ball():
    with pytest.raises(OutsideDomainError):
        metric_at([1.0, 0.0])


def test_bergman_norm_values_and_homogeneity():
    assert abs(bergman_norm(np.zeros(2), [1, 0]) - np.sqrt(3)) <= 1e-14
    rng = np.random.default_rng(9)
    z = random_ball_point(2, rng, 0.7)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c = -1.3 + 0.4j
    assert abs(bergman_norm(z, c * v) - abs(c) * bergman_norm(z, v)) <= 1e-12


def test_isometry_of_automorphisms():
    rng = np.random.default_rng(21)
    for _ in range(100):
        zeta = random_ball_point(2, rng, 0.8)
        sigma = automorphism_from_center(zeta)
        z = random_ball_point(2, rng, 0.8)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        dsig = map_jet_at(sigma, z, 1).linear_matrix()
        lhs = bergman_norm(map_eval(sigma, z), dsig @ v)
        rhs = bergman_norm(z, v)
        assert abs(lhs - rhs) <= 1e-9 * rhs


def test_optimizer_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    n = 2
    s = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    s = 0.5 * (s + np.swapaxes(s, 1, 2))
    g = metric_at([0.3, 0.1 - 0.2j]).g

    # same objective the optimizer ascends, checked by central differences
    from schwarzball.bergman import _realified_form

    chol = np.linalg.cholesky(_realified_form(g))
    chol_inv_t = np.linalg.inv(chol.T)
    s_flat = s.reshape(n, n * n)

    def val(x):
        ab = chol_inv_t @ x
        v = ab[:n] + 1j * ab[n:]
        u = s_flat @ np.outer(v, v).ravel()
        return float(np.real(u @ (g @ np.conj(u))))

    def grad(x):
        ab = chol_inv_t @ x
        v = ab[:n] + 1j * ab[n:]
        u = s_flat @ np.outer(v, v).ravel()
        eta = g @ np.conj(u)
        w = 2.0 * ((eta @ s_flat).reshape(n, n) @ v)
        return chol_inv_t.T @ np.concatenate([2 * np.real(w), -2 * np.imag(w)])

    for _ in range(5):
        x = rng.standard_normal(2 * n)
        x /= np.linalg.norm(x)
        fd = np.array([(val(x + 1e-6 * e) - val(x - 1e-6 * e)) / 2e-6 for e in np.eye(2 * n)])
        assert np.max(np.abs(grad(x) - fd)) <= 1e-6


def test_max_quadratic_image_norm_closed_form():
    # single S with only S[0][1,1] = 2a, Bergman metric at 0: value 2a/sqrt(3)
    a = 0.5
    s = np.zeros((2, 2, 2), dtype=complex)
    s[0, 1, 1] = 2 * a
    g = metric_at(np.zeros(2)).g
    value, v, converged = max_quadratic_image_norm(s, g, g, starts=16, seed=0)
    assert converged
    assert abs(value - 2 * a / np.sqrt(3)) <= 1e-10


def test_norm_at_identity_and_moebius():
    assert schwarzian_norm_at(identity_map(2), [0.1, 0.2]).value <= 1e-12
    assert schwarzian_norm_at(moebius_pole_at_e1(2), [0.3, -0.1j]).value <= 1e-8


def test_norm_at_shear_closed_form():
    a = 0.5
    est = schwarzian_norm_at(shear(a), np.zeros(2))
    assert abs(est.value - 2 * a / np.sqrt(3)) <= 1e-10
    assert est.converged


def test_norm_at_value_phase_invariant():
    a = 0.4
    z = np.array([0.2, 0.1])
    est = schwarzian_norm_at(shear(a), z)
    t = schwarzian_of(shear(a), z)
    g = metric_at(z).g
    for phase in (0.7, 2.1, np.pi):
        v = np.exp(1j * phase) * est.arg_v
        u = schwarzian_apply(t, v)
        val = np.sqrt(np.real(np.einsum("ij,i,j->", g, u, np.conj(u))))
        assert abs(val - est.value) <= 1e-12
    u = schwarzian_apply(t, -est.arg_v)
    val = np.sqrt(np.real(np.einsum("ij,i,j->", g, u, np.conj(u))))
    assert abs(val - est.value) <= 1e-12


def test_norm_sup_identity_zero():
    est = schwarzian_norm_sup(identity_map(2), r_max=0.9, shells=4, angular=6, starts=4)
    assert est.value <= 1e-12
    assert est.r_max == 0.9


def test_norm_sup_monotone_in_radius():
    m = shear(0.3)
    lo = schwarzian_norm_sup(m, r_max=0.5, shells=4, angular=10, starts=8)
    hi = schwarzian_norm_sup(m, r_max=0.9, shells=4, angular=10, starts=8)
    assert lo.value <= hi.value + 1e-12


def test_norm_sup_witness_lower_bound():
    est = schwarzian_norm_sup(shear(0.1), r_max=0.9, shells=4, angular=10, starts=8)
    assert est.value >= 0.2 / np.sqrt(3) - 1e-12


def test_norm_sup_radius_guard():
    with pytest.raises(OutsideDomainError):
        schwarzian_norm_sup(shear(0.1), r_max=1.0)


def test_invariance_residual_identity_sigma():
    sigma = automorphism_from_center([0.0, 0.0])
    assert invariance_residual(shear(0.3), sigma, [0.1, 0.2]) <= 1e-12


def test_invariance_residual_unitary():
    th = 0.8
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
    sigma = unitary_automorphism(u)
    assert invariance_residual(shear(0.4), sigma, [0.2, -0.1 + 0.2j]) <= 1e-9


def test_norm_and_invariance_through_unitary_with_jacobian_on_the_cut():
    sigma = unitary_automorphism(np.diag([1j, 1j]))  # J sigma = -1 everywhere
    assert schwarzian_norm_sup(sigma).value == 0
    assert invariance_residual(shear(0.4), sigma, [0.2, -0.1 + 0.2j]) <= 1e-9


def test_invariance_residual_random_suite():
    rng = np.random.default_rng(13)
    from schwarzball.maps import random_normalized_polymap

    worst = 0.0
    for _ in range(20):
        f = random_normalized_polymap(2, rng, scale=0.1)
        sigma = automorphism_from_center(random_ball_point(2, rng, 0.5))
        z = random_ball_point(2, rng, 0.5)
        worst = max(worst, invariance_residual(f, sigma, z))
    assert worst <= 1e-6
