"""Map classes: jet expansion, automorphisms, evaluation, composition."""

import numpy as np
import pytest

from schwarzball.errors import (
    DimensionError,
    MapSpecError,
    OutsideDomainError,
    SingularDifferentialError,
    VanishingDenominatorError,
)
from schwarzball.jets import jet_det, jet_jacobian, max_coeff_diff
from schwarzball.maps import (
    CompositionMap,
    MoebiusMap,
    PolyMap,
    automorphism_from_center,
    automorphism_validate,
    compose_maps,
    identity_map,
    map_eval,
    map_jet_at,
    moebius_pole_at_e1,
    random_ball_point,
    random_moebius,
    unitary_automorphism,
)

TOL = 1e-12


def test_identity_jet_at_any_center():
    m = identity_map(3)
    zeta = np.array([0.2, -0.1 + 0.3j, 0.05j])
    jv = map_jet_at(m, zeta, 2)
    assert np.max(np.abs(jv.constants() - zeta)) == 0
    assert np.max(np.abs(jv.linear_matrix() - np.eye(3))) == 0


def test_moebius_jet_geometric_series():
    # z / (1 - z1) at 0, degree 2: f1 = z1 + z1^2, f2 = z2 + z1 z2
    jv = map_jet_at(moebius_pole_at_e1(2), [0, 0], 2)
    assert abs(jv[0].coeff((1, 0)) - 1) <= TOL
    assert abs(jv[0].coeff((2, 0)) - 1) <= TOL
    assert abs(jv[1].coeff((0, 1)) - 1) <= TOL
    assert abs(jv[1].coeff((1, 1)) - 1) <= TOL
    assert jv[0].coeff((0, 1)) == 0 and jv[0].coeff((1, 1)) == 0


def test_shear_recentering():
    a = 0.8
    c = 0.3 - 0.2j
    m = PolyMap(2, [{(1, 0): 1, (0, 2): a}, {(0, 1): 1}])
    jv = map_jet_at(m, [0, c], 3)
    assert abs(jv[0].constant_term - a * c * c) <= TOL
    assert abs(jv[0].coeff((0, 1)) - 2 * a * c) <= TOL
    assert abs(jv[0].coeff((0, 2)) - a) <= TOL
    assert abs(jv[1].constant_term - c) <= TOL


def test_polymap_jet_exactness():
    rng = np.random.default_rng(12)
    m = PolyMap(2, [
        {(1, 0): 1, (2, 0): 0.3, (1, 1): -0.2j, (0, 3): 0.1},
        {(0, 1): 1, (0, 2): 0.25, (3, 0): 0.05},
    ])
    zeta = np.array([0.1, -0.2 + 0.1j])
    jv = map_jet_at(m, zeta, 4)
    for _ in range(20):
        h = 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        h *= rng.random() / max(np.linalg.norm(h), 1e-9)
        direct = map_eval(m, zeta + h)
        via_jet = np.array([jv[0].evaluate(h), jv[1].evaluate(h)])
        assert np.max(np.abs(direct - via_jet)) <= 1e-12


def test_polymap_singular_center_rejected():
    m = PolyMap(2, [{(2, 0): 1.0}, {(0, 1): 1.0}])  # df1 = 2 z1 dz1, singular at 0
    with pytest.raises(SingularDifferentialError):
        map_jet_at(m, [0, 0], 2)


def test_moebius_denominator_guard():
    m = moebius_pole_at_e1(2)
    with pytest.raises(VanishingDenominatorError):
        map_eval(m, [1.0, 0.0])


# -- automorphisms ------------------------------------------------------------


def test_automorphism_center_zero_is_identity():
    sigma = automorphism_from_center([0.0, 0.0])
    assert np.max(np.abs(sigma.a - np.eye(3))) == 0


def test_automorphism_axis_values():
    sigma = automorphism_from_center([0.5, 0.0])
    jv = map_jet_at(sigma, [0, 0], 1)
    d = jv.linear_matrix()
    assert np.max(np.abs(d - np.diag([0.75, np.sqrt(0.75)]))) <= TOL
    assert abs(np.linalg.det(d) - 0.75**1.5) <= TOL  # 0.6495190528383290
    assert np.max(np.abs(map_eval(sigma, [0, 0]) - np.array([0.5, 0]))) <= TOL


def test_automorphism_moves_origin_to_center():
    rng = np.random.default_rng(7)
    for _ in range(100):
        zeta = random_ball_point(2, rng, 0.9)
        sigma = automorphism_from_center(zeta)
        assert np.max(np.abs(map_eval(sigma, [0, 0]) - zeta)) <= TOL


def test_automorphism_block_identities_and_ball():
    rng = np.random.default_rng(31)
    for _ in range(25):
        zeta = random_ball_point(3, rng, 0.85)
        rep = automorphism_validate(automorphism_from_center(zeta), samples=8, seed=1)
        assert rep.max_residual <= 1e-10
        assert rep.ball_ok


def test_automorphism_validate_detects_broken_blocks():
    sigma = automorphism_from_center([0.5, 0.0])
    grid = sigma.a.copy()
    grid[1:, 0] += 0.1  # the B block of [[D, C], [B, A]]
    broken = MoebiusMap(grid)
    rep = automorphism_validate(broken, samples=4)
    assert rep.identity_residuals[1] > 1e-2


def test_unitary_automorphism_residual_zero():
    th = 0.6
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
    rep = automorphism_validate(unitary_automorphism(u), samples=16)
    assert rep.max_residual <= 1e-15


def test_automorphism_outside_ball_rejected():
    with pytest.raises(OutsideDomainError):
        automorphism_from_center([1.0, 0.0])


# -- evaluation and composition -------------------------------------------------


def test_moebius_identity_grid():
    m = MoebiusMap(np.eye(3, dtype=complex))
    z = np.array([0.3, -0.4j])
    assert np.max(np.abs(map_eval(m, z) - z)) == 0


def test_compose_moebius_equals_grid_product():
    rng = np.random.default_rng(3)
    a = random_moebius(2, rng)
    b = random_moebius(2, rng)
    center = np.array([0.1, 0.05 - 0.1j])
    composed = compose_maps(a, b, center, 3)
    product = map_jet_at(MoebiusMap(a.a @ b.a), center, 3)
    worst = max(max_coeff_diff(composed[i], product[i]) for i in range(2))
    assert worst <= 1e-12


def test_compose_with_identity():
    m = moebius_pole_at_e1(2)
    z = np.array([0.2, 0.1])
    composed = compose_maps(m, identity_map(2), z, 3)
    direct = map_jet_at(m, z, 3)
    assert max(max_coeff_diff(composed[i], direct[i]) for i in range(2)) <= 1e-14


def test_compose_shears_adds_parameters():
    a, b = 0.3, 0.45
    sa = PolyMap(2, [{(1, 0): 1, (0, 2): a}, {(0, 1): 1}])
    sb = PolyMap(2, [{(1, 0): 1, (0, 2): b}, {(0, 1): 1}])
    composed = compose_maps(sa, sb, np.zeros(2), 3)
    expected = map_jet_at(
        PolyMap(2, [{(1, 0): 1, (0, 2): a + b}, {(0, 1): 1}]), np.zeros(2), 3
    )
    assert max(max_coeff_diff(composed[i], expected[i]) for i in range(2)) <= 1e-14


def test_composition_chain_eval_and_jet_agree():
    rng = np.random.default_rng(8)
    m = CompositionMap((random_moebius(2, rng), automorphism_from_center([0.2, 0.1j])))
    z = np.array([0.05, -0.1])
    jv = map_jet_at(m, z, 2)
    assert np.max(np.abs(jv.constants() - map_eval(m, z))) <= 1e-13


def test_composition_dimension_mismatch():
    with pytest.raises(DimensionError):
        CompositionMap((identity_map(2), identity_map(3)))


def test_moebius_singular_grid_rejected():
    a = np.ones((3, 3), dtype=complex)
    with pytest.raises(MapSpecError):
        MoebiusMap(a)


def test_jacobian_of_moebius_formula():
    # JM(z) = det(a) / l0(z)^{n+1}
    rng = np.random.default_rng(15)
    m = random_moebius(2, rng)
    z = random_ball_point(2, rng, 0.5)
    jv = map_jet_at(m, z, 2)
    jm = jet_det(jet_jacobian(jv)).constant_term
    l0 = m.a[0, 0] + m.a[0, 1:] @ z
    expected = np.linalg.det(m.a) / l0**3
    assert abs(jm - expected) <= 1e-12 * abs(expected)
