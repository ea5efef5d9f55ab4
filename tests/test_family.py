"""Koebe transforms, order functionals, and membership checks."""

import numpy as np
import pytest

from schwarzball import checks, family
from schwarzball.bergman import max_quadratic_image_norm
from schwarzball.errors import NormalizationError, OutsideDomainError, SingularDifferentialError
from schwarzball.family import (
    grad_jacobian,
    jet_grad_jacobian,
    koebe_map,
    membership_check,
    norm_order_functional,
    normalization_residual,
    normalize_map,
    trace_order_functional,
)
from schwarzball.maps import (
    CompositionMap,
    PolyMap,
    affine_map,
    automorphism_from_center,
    identity_map,
    map_eval,
    map_jet_at,
    moebius_pole_at_e1,
    random_ball_point,
    random_moebius,
    random_normalized_polymap,
)

from helpers import max_coeff_diff, normalized_samples


def shear_a(a):
    return PolyMap(2, [{(1, 0): 1, (0, 2): a}, {(0, 1): 1}])


def shear_b(b):
    return PolyMap(2, [{(1, 0): 1, (2, 0): b}, {(0, 1): 1}])


def test_koebe_at_origin_returns_map_itself():
    m = shear_b(0.4)
    g = map_jet_at(koebe_map(m, np.zeros(2)), np.zeros(2), 3)
    direct = map_jet_at(m, np.zeros(2), 3)
    assert max(max_coeff_diff(x, y) for x, y in zip(g, direct)) <= 1e-13


def _explicit_koebe_map(m, zeta):
    """post o F o sigma with post = (DF(zeta) Dsigma(0))^{-1} (w - F(zeta)), built term by term."""
    sigma = automorphism_from_center(zeta)
    d_sigma = map_jet_at(sigma, np.zeros(len(zeta)), 1).derivatives(1)
    d_f = map_jet_at(m, zeta, 1).derivatives(1)
    mat = np.linalg.inv(d_f @ d_sigma)
    post = affine_map(mat, -mat @ map_eval(m, zeta))
    return CompositionMap((post, m, sigma))


def test_koebe_transform_matches_explicit_construction():
    rng = np.random.default_rng(21)
    maps = (shear_a(0.4), random_moebius(2, rng), random_normalized_polymap(2, rng, scale=0.1))
    for m in maps:
        for zeta in ([0.1, 0.0], [0.2 - 0.1j, 0.3j], random_ball_point(2, rng, 0.5)):
            zeta = np.asarray(zeta, dtype=complex)
            g = map_jet_at(koebe_map(m, zeta), np.zeros(2), 3)
            want = map_jet_at(_explicit_koebe_map(m, zeta), np.zeros(2), 3)
            assert max(max_coeff_diff(x, y) for x, y in zip(g, want)) <= 1e-13


def test_koebe_identity_gradient_exact():
    rng = np.random.default_rng(14)
    for scale in (1e-1, 1e-2):
        for _ in range(5):
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert checks.identity_koebe(scale * (u / np.linalg.norm(u)))["gradient"] <= 1e-12


def test_koebe_normalization_for_moebius():
    g = koebe_map(moebius_pole_at_e1(2), [0.05, -0.02 + 0.01j])
    assert normalization_residual(g) <= 1e-12


def test_normalized_data_validation(monkeypatch):
    # an offset G(0) raises
    offset = PolyMap(2, [{(0, 0): 0.1, (1, 0): 1.0}, {(0, 1): 1.0}])
    with pytest.raises(NormalizationError):
        grad_jacobian(offset)
    # and so does a NaN in DG(0), which a `residual > tol` test would let through;
    # no map kind builds one, so the derivative arrays are replaced
    nan_d1 = np.array([[[1.0, np.nan], [0.0, 1.0]]], dtype=complex)
    monkeypatch.setattr(family, "_derivatives", lambda m, z, order: [
        np.zeros((1, 2), dtype=complex), nan_d1, np.zeros((1, 2, 2, 2), dtype=complex)][: order + 1])
    assert np.isnan(normalization_residual(identity_map(2)))
    for functional in (grad_jacobian, trace_order_functional, norm_order_functional):
        with pytest.raises(NormalizationError):
            functional(identity_map(2))


def test_grad_jacobian_examples():
    assert np.max(np.abs(grad_jacobian(koebe_map(identity_map(2), np.zeros(2))))) == 0
    assert np.max(np.abs(grad_jacobian(moebius_pole_at_e1(2)) - np.array([3.0, 0.0]))) <= 1e-12
    assert np.max(np.abs(grad_jacobian(shear_b(0.5)) - np.array([1.0, 0.0]))) <= 1e-13


def test_trace_order_examples():
    assert trace_order_functional(identity_map(2)) == 0
    assert abs(trace_order_functional(moebius_pole_at_e1(2)) - 1.5) <= 1e-12
    assert abs(trace_order_functional(shear_b(0.5)) - 0.5) <= 1e-13


def test_norm_order_examples():
    assert norm_order_functional(identity_map(2)) <= 1e-12
    assert abs(norm_order_functional(shear_a(0.7)) - 0.7) <= 1e-10
    assert abs(norm_order_functional(shear_b(0.3)) - 0.3) <= 1e-10


def test_order_functionals_invariant():
    # grad JG(0) as the trace form, and both order functionals, from the
    # derivative arrays against the same quantities read off Taylor jets
    rng = np.random.default_rng(25)
    samples = [(2, "poly", random_normalized_polymap(2, rng, scale=0.15)) for _ in range(10)]
    samples += [(n, label, g) for n in (2, 3, 4) for label, g in normalized_samples(n, rng)]
    for n, label, g in samples:
        jet_grad = jet_grad_jacobian(g)
        scale = 1.0 + np.max(np.abs(jet_grad))
        assert np.max(np.abs(grad_jacobian(g) - jet_grad)) <= 1e-13 * scale, label
        assert abs(2 * trace_order_functional(g) - np.linalg.norm(jet_grad)) <= 1e-13 * scale, label
        h = map_jet_at(g, np.zeros(n), 2).derivatives(2)
        want = 0.5 * max_quadratic_image_norm(h, np.eye(n), seed=3)[0]
        assert abs(norm_order_functional(g, seed=3) - want) <= 1e-12 * (1.0 + want), label


def test_koebe_random_maps_stay_normalized():
    rng = np.random.default_rng(33)
    for _ in range(10):
        m = random_normalized_polymap(2, rng, scale=0.1)
        res = checks.koebe(m, random_ball_point(2, rng, 0.5))
        assert res["normalization"] <= 1e-12 and res["trace_gradient"] <= 1e-10


def test_linear_invariance_of_norm_estimate():
    rng = np.random.default_rng(2)
    cases = [(m, random_ball_point(2, rng, 0.3)) for m in (moebius_pole_at_e1(2), shear_a(0.15))]
    assert checks.linear_invariance(cases)["norm_excess"] <= 1e-6


def test_membership_identity_and_moebius():
    assert membership_check(identity_map(2), 0.0).member
    res = membership_check(moebius_pole_at_e1(2), 0.0)
    assert res.member and res.was_normalized


def test_membership_rejects_large_shear():
    res = membership_check(shear_a(2.0), 0.5)
    assert not res.member
    assert res.estimate.value >= 4 / np.sqrt(3) - 1e-9
    assert res.margin < 0


def test_normalize_map_fixes_affine_offsets():
    m = PolyMap(2, [
        {(0, 0): 0.3, (1, 0): 2.0, (0, 2): 0.5},
        {(0, 0): -0.1j, (0, 1): 1.0 + 1.0j},
    ])
    normalized, was = normalize_map(m)
    assert not was
    assert normalization_residual(normalized) <= 1e-12


def test_trace_vs_norm_order_observation():
    # observed inequality trace <= n * norm_order on samples; reported only,
    # recorded here so a drastic regression is noticed
    rng = np.random.default_rng(40)
    ratios = []
    for _ in range(5):
        m = random_normalized_polymap(2, rng, scale=0.15)
        t = trace_order_functional(m)
        no = norm_order_functional(m)
        if no > 1e-12:
            ratios.append(t / (2 * no))
    print("observed trace/(n*norm_order) ratios:", np.round(ratios, 6))


# -- the Koebe-gradient kernel ---------------------------------------------------


def _kernel_samples(n, rng):
    """Cubics, the pole at e_1, an unnormalized composition with an automorphism and the
    normalized samples of every kind, with centers from 0 out to |zeta| = 0.9."""
    samples = [m for _, m in normalized_samples(n, rng)]
    samples += random_normalized_polymap(n, rng, scale=0.1, size=2) + [moebius_pole_at_e1(n)]
    sigma = automorphism_from_center(random_ball_point(n, rng, 0.6))
    samples.append(CompositionMap((random_normalized_polymap(n, rng, scale=0.15), sigma)))
    zetas = random_ball_point(n, rng, 0.9, size=12)
    zetas[0] = 0.0
    zetas[1] *= 0.9 / np.linalg.norm(zetas[1])
    return samples, zetas


@pytest.mark.parametrize("n", [2, 3, 4])
def test_koebe_gradients_equal_the_composed_transforms(n):
    rng = np.random.default_rng(60 + n)
    samples, zetas = _kernel_samples(n, rng)
    for m in samples:
        got = family._koebe_gradients(m, zetas)
        for g, zeta in zip(got, zetas):
            want = grad_jacobian(koebe_map(m, zeta))
            assert np.linalg.norm(g - want) <= 1e-13 * np.linalg.norm(want)
    # the identity's transforms: grad JG(0) = -(n+1) conj(zeta)
    ident = family._koebe_gradients(identity_map(n), zetas)
    assert np.max(np.abs(ident + (n + 1) * np.conj(zetas))) <= 1e-15 * (n + 1)


def test_koebe_gradients_refuse_centers_outside_the_ball_and_singular_points():
    m = moebius_pole_at_e1(2)
    for bad in (1.0, 1.5):
        with pytest.raises(OutsideDomainError):
            family._koebe_gradients(m, np.array([[0.1, 0.0], [0.0, bad]]))
    # f_1 = z_1 + z_1^2 has a singular differential where z_1 = -1/2
    fold = PolyMap(2, [{(1, 0): 1, (2, 0): 1}, {(0, 1): 1}])
    with pytest.raises(SingularDifferentialError):
        family._koebe_gradients(fold, np.array([[0.2, 0.1], [-0.5, 0.0]]))
