"""Bergman metric, norms, isometry, and the supremum optimizer."""

import numpy as np
import pytest

from schwarzball.bergman import (
    _realified_form,
    _value_and_grad,
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
    random_normalized_polymap,
    unitary_automorphism,
)
from schwarzball.schwarzian import schwarzian_apply, schwarzian_of


def shear(a):
    return PolyMap(2, [{(1, 0): 1, (0, 2): a}, {(0, 1): 1}])


def test_norm_at_scaled_map_equals_unscaled():
    # a map scaled by 1e-5 has |det DF| = 1e-15 but the tensors of the map itself
    z = [0.1, 0.2, 0.0]

    def scaled_shear(c):
        return PolyMap(3, [{(1, 0, 0): c, (0, 2, 0): c / 2}, {(0, 1, 0): c}, {(0, 0, 1): c}])

    base = schwarzian_norm_at(scaled_shear(1.0), z)
    est = schwarzian_norm_at(scaled_shear(1e-5), z)
    assert base.value > 0.1
    assert abs(est.value - base.value) <= 1e-12 * base.value


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

    # the kernel's objective and gradient, checked against an independent
    # value by central differences
    chol = np.linalg.cholesky(_realified_form(g))
    chol_inv_t = np.linalg.inv(chol.T)
    s_flat = s.reshape(n, n * n)
    kernel_args = (chol_inv_t[None], chol_inv_t.T[None], s_flat[None], g[None])

    def val(x):
        ab = chol_inv_t @ x
        v = ab[:n] + 1j * ab[n:]
        u = s_flat @ np.outer(v, v).ravel()
        return float(np.real(u @ (g @ np.conj(u))))

    for _ in range(5):
        x = rng.standard_normal(2 * n)
        x /= np.linalg.norm(x)
        val2, grad = _value_and_grad(x[None], *kernel_args)
        assert abs(val2[0] - val(x)) <= 1e-14 * val(x)
        fd = np.array([(val(x + 1e-6 * e) - val(x - 1e-6 * e)) / 2e-6 for e in np.eye(2 * n)])
        assert np.max(np.abs(grad[0] - fd)) <= 1e-6


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
    # small a: near-Moebius, where a step that is not scale-free stalls
    for a in (0.5, 1e-2, 1e-3, 1e-4):
        est = schwarzian_norm_at(shear(a), np.zeros(2))
        assert abs(est.value - 2 * a / np.sqrt(3)) <= 1e-10 * 2 * a / np.sqrt(3)
        assert est.converged
        assert est.points == 1 and est.iterations > 0


def _scalar_loop(s_list, form_in, form_out, starts=16, seed=0, max_iter=500):
    """Reference: the one-start-at-a-time ascent the batched kernel replaced."""
    n = s_list.shape[-1]
    chol = np.linalg.cholesky(_realified_form(form_in))
    chol_inv_t = np.linalg.inv(chol.T)
    s_flat = s_list.reshape(n, n * n)

    def value_sq_and_grad(x):
        ab = chol_inv_t @ x
        v = ab[:n] + 1j * ab[n:]
        u = s_flat @ np.outer(v, v).ravel()
        eta = form_out @ np.conj(u)
        w = 2.0 * ((eta @ s_flat).reshape(n, n) @ v)
        grad_ab = np.concatenate([2.0 * np.real(w), -2.0 * np.imag(w)])
        return float(np.real(u @ eta)), chol_inv_t.T @ grad_ab

    rng = np.random.default_rng(seed)
    best_val, all_converged = -1.0, True
    for _ in range(starts):
        x = rng.standard_normal(2 * n)
        x /= np.linalg.norm(x)
        val2, grad = value_sq_and_grad(x)
        prev_x = prev_tangent = None
        converged = False
        for _ in range(max_iter):
            tangent = grad - np.dot(grad, x) * x
            tnorm = float(np.linalg.norm(tangent))
            if tnorm < 1e-14 * max(1.0, val2):
                converged = True
                break
            t = 1.0
            if prev_x is not None:
                sx, y = x - prev_x, prev_tangent - tangent
                sy = float(np.dot(sx, y))
                if sy > 1e-30:
                    t = min(max(float(np.dot(sx, sx)) / sy, 1e-10), 1e6)
            moved, accepted = 0.0, False
            while t * tnorm >= 1e-12:
                cand = x + t * tangent
                cand /= np.linalg.norm(cand)
                cand_val2, cand_grad = value_sq_and_grad(cand)
                if cand_val2 >= val2 + 1e-4 * t * tnorm * tnorm:
                    moved = float(np.linalg.norm(cand - x))
                    prev_x, prev_tangent = x, tangent
                    x, val2, grad = cand, cand_val2, cand_grad
                    accepted = True
                    break
                t *= 0.5
            if not accepted or moved < 1e-12:
                converged = True
                break
        all_converged = all_converged and converged
        best_val = max(best_val, val2)
    return float(np.sqrt(max(best_val, 0.0))), all_converged


def test_kernel_matches_scalar_reference_loop():
    rng = np.random.default_rng(17)
    for n in (2, 3):
        for _ in range(4):
            s = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
            s = 0.5 * (s + np.swapaxes(s, 1, 2))
            g = metric_at(random_ball_point(n, rng, 0.8)).g
            ref, ref_converged = _scalar_loop(s, g, g)
            assert ref_converged
            value, _, converged = max_quadratic_image_norm(s, g, g)
            assert converged
            assert abs(value - ref) <= 1e-12 * ref


def test_max_quadratic_image_norm_scale_equivariant():
    # a near-Moebius cubic: ||S|| is about 1e-3
    rng = np.random.default_rng(4)
    m = random_normalized_polymap(2, rng, scale=1e-3)
    z = np.array([0.3, -0.2 + 0.1j])
    sk = schwarzian_of(m, z).Sk
    g = metric_at(z).g
    base, _, base_converged = max_quadratic_image_norm(sk, g, g)
    assert base_converged
    for c in (1.0, 1e-3, 1e-6):
        value, _, converged = max_quadratic_image_norm(c * sk, g, g)
        assert converged
        assert abs(value - c * base) <= 1e-12 * c * base


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


def _probe_points(n, r_max, shells, angular, refine, seed, value_at):
    """Replay of the sup's probe pattern, one pointwise call per point."""
    rng = np.random.default_rng(seed)
    radii = np.linspace(0.0, r_max, shells)
    points = [np.zeros(n, dtype=complex)]
    for radius in radii[1:]:
        for _ in range(angular):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            points.append(radius * v)
    values = [value_at(z) for z in points]
    rho = 0.5 * r_max / (shells - 1)
    for _ in range(refine):
        center = points[int(np.argmax(values))]
        for _ in range(16):
            z = center + rho * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2 * n)
            if np.linalg.norm(z) > r_max:
                z = z * (r_max / np.linalg.norm(z))
            points.append(z)
            values.append(value_at(z))
        rho *= 0.4
    return points, values


def test_norm_sup_is_the_max_over_its_replayed_probe_points():
    m = random_normalized_polymap(2, np.random.default_rng(8), scale=0.1)
    settings = dict(r_max=0.8, shells=3, angular=5, refine=2)
    est = schwarzian_norm_sup(m, starts=4, seed=11, **settings)
    points, values = _probe_points(
        2, seed=11, value_at=lambda z: schwarzian_norm_at(m, z, starts=4, seed=11).value, **settings
    )
    assert est.points == len(points) == 1 + 2 * 5 + 2 * 16
    best = int(np.argmax(values))
    assert abs(est.value - values[best]) <= 1e-12 * values[best]
    assert np.max(np.abs(est.arg_z - points[best])) == 0


def test_norm_sup_run_counters():
    # the probe settings of extremal_search's inner norm estimate
    m = random_normalized_polymap(2, np.random.default_rng(2), scale=1e-3)
    probe = dict(r_max=0.85, shells=4, angular=10, starts=6, refine=1, seed=5)
    est = schwarzian_norm_sup(m, **probe)
    again = schwarzian_norm_sup(m, **probe)
    assert est.points == 47
    assert est.converged
    assert est.iterations > 0
    assert (again.points, again.iterations, again.value) == (est.points, est.iterations, est.value)


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
    worst = 0.0
    for _ in range(20):
        f = random_normalized_polymap(2, rng, scale=0.1)
        sigma = automorphism_from_center(random_ball_point(2, rng, 0.5))
        z = random_ball_point(2, rng, 0.5)
        worst = max(worst, invariance_residual(f, sigma, z))
    assert worst <= 1e-6
