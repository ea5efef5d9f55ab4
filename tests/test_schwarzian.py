"""Schwarzian tensors: closed-form values, vanishing, chain rule, PDE guard."""

import numpy as np
import pytest

from schwarzball.errors import (
    BasePointMismatchError,
    DimensionError,
    SingularDifferentialError,
)
from schwarzball.maps import (
    CompositionMap,
    MoebiusMap,
    PolyMap,
    affine_map,
    compose_maps,
    map_jet_at,
    moebius_pole_at_e1,
    random_ball_point,
    random_moebius,
    random_normalized_polymap,
    unitary_automorphism,
)
from schwarzball.schwarzian import (
    canonical_residual,
    chain_rule_transform,
    pde_residual,
    schwarzian_apply,
    schwarzian_at,
    schwarzian_of,
)


def shear_a(a, n=2):
    comps = [{tuple(1 if k == i else 0 for k in range(n)): 1.0} for i in range(n)]
    comps[0][tuple(2 if k == 1 else 0 for k in range(n))] = a
    return PolyMap(n, comps)


def shear_b(b, n=2):
    comps = [{tuple(1 if k == i else 0 for k in range(n)): 1.0} for i in range(n)]
    comps[0][tuple(2 if k == 0 else 0 for k in range(n))] = b
    return PolyMap(n, comps)


def test_moebius_tensor_vanishes():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(25):
        m = random_moebius(2, rng)
        for _ in range(4):
            t = schwarzian_of(m, random_ball_point(2, rng, 0.9))
            worst = max(worst, t.max_abs())
    assert worst <= 1e-8


def test_shear_tensor_closed_form():
    a = 0.7
    for z in (np.zeros(2), np.array([0.1, -0.2 + 0.3j])):
        t = schwarzian_of(shear_a(a), z)
        assert abs(t.Sk[0, 1, 1] - 2 * a) <= 1e-12
        masked = t.Sk.copy()
        masked[0, 1, 1] = 0.0
        assert np.max(np.abs(masked)) <= 1e-12
        assert np.max(np.abs(t.S0)) <= 1e-12


def test_b_shear_origin_value():
    b = 0.5
    t = schwarzian_of(shear_b(b), np.zeros(2))
    assert abs(t.Sk[0, 0, 0] - 2 * b / 3) <= 1e-12
    # symbolic oracle: S^0_11(0) = 20 b^2 / 9
    assert abs(t.S0[0, 0] - 20 * b * b / 9) <= 1e-12


def test_apply_operator():
    a = 0.7
    t = schwarzian_of(shear_a(a), np.zeros(2))
    assert np.max(np.abs(schwarzian_apply(t, np.zeros(2)))) == 0
    out = schwarzian_apply(t, np.array([0, 1.0]))
    assert abs(out[0] - 2 * a) <= 1e-12 and abs(out[1]) <= 1e-12
    rng = np.random.default_rng(4)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c = 0.3 - 1.2j
    assert np.max(np.abs(schwarzian_apply(t, c * v) - c * c * schwarzian_apply(t, v))) <= 1e-12


def test_apply_dimension_mismatch():
    t = schwarzian_of(shear_a(0.2), np.zeros(2))
    with pytest.raises(DimensionError):
        schwarzian_apply(t, np.ones(3))


def test_chain_rule_with_moebius_outer_is_identity():
    rng = np.random.default_rng(6)
    f = random_normalized_polymap(2, rng, scale=0.1)
    z = np.array([0.1, -0.05])
    jf = map_jet_at(f, z, 3)
    w = jf.constants()
    mo = random_moebius(2, rng)
    jg = map_jet_at(mo, w, 3)
    t = chain_rule_transform(schwarzian_at(jf, z=z), schwarzian_at(jg, z=w), jf, jg)
    tf = schwarzian_at(jf, z=z)
    assert np.max(np.abs(t.Sk - tf.Sk)) <= 1e-9
    assert np.max(np.abs(t.S0 - tf.S0)) <= 1e-9


def test_chain_rule_with_identity_inner():
    rng = np.random.default_rng(16)
    g = random_normalized_polymap(2, rng, scale=0.1)
    z = np.array([0.07, 0.02 - 0.1j])
    from schwarzball.maps import identity_map

    jf = map_jet_at(identity_map(2), z, 3)
    jg = map_jet_at(g, z, 3)
    tg = schwarzian_at(jg, z=z)
    t = chain_rule_transform(schwarzian_at(jf, z=z), tg, jf, jg)
    assert np.max(np.abs(t.Sk - tg.Sk)) <= 1e-12
    assert np.max(np.abs(t.S0 - tg.S0)) <= 1e-12


def test_chain_rule_matches_direct_composition():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        f = random_normalized_polymap(2, rng, scale=0.08)
        g = random_normalized_polymap(2, rng, scale=0.08)
        z = random_ball_point(2, rng, 0.3)
        jf = map_jet_at(f, z, 3)
        w = jf.constants()
        jg = map_jet_at(g, w, 3)
        t = chain_rule_transform(schwarzian_at(jf, z=z), schwarzian_at(jg, z=w), jf, jg)
        direct = schwarzian_at(compose_maps(g, f, z, 3), z=z)
        worst = max(worst, float(np.max(np.abs(t.Sk - direct.Sk))))
        worst = max(worst, float(np.max(np.abs(t.S0 - direct.S0))))
    assert worst <= 1e-9


def test_chain_rule_base_point_mismatch():
    rng = np.random.default_rng(2)
    f = random_normalized_polymap(2, rng, scale=0.05)
    g = random_normalized_polymap(2, rng, scale=0.05)
    z = np.array([0.1, 0.0])
    jf = map_jet_at(f, z, 3)
    wrong_w = jf.constants() + 0.25
    jg = map_jet_at(g, wrong_w, 3)
    with pytest.raises(BasePointMismatchError):
        chain_rule_transform(
            schwarzian_at(jf, z=z), schwarzian_at(jg, z=wrong_w), jf, jg
        )


def test_moebius_postcomposition_invariance():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10):
        f = random_normalized_polymap(2, rng, scale=0.1)
        mo = random_moebius(2, rng)
        z = random_ball_point(2, rng, 0.3)
        tf = schwarzian_at(map_jet_at(f, z, 3), z=z)
        tmf = schwarzian_at(compose_maps(mo, f, z, 3), z=z)
        worst = max(worst, float(np.max(np.abs(tf.Sk - tmf.Sk))))
        worst = max(worst, float(np.max(np.abs(tf.S0 - tmf.S0))))
    assert worst <= 1e-9


def test_canonical_residual_examples():
    assert canonical_residual(schwarzian_of(moebius_pole_at_e1(2), np.zeros(2))) <= 1e-14
    assert canonical_residual(schwarzian_of(shear_a(0.4), np.zeros(2))) <= 1e-14
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = random_normalized_polymap(2, rng, scale=0.12)
        t = schwarzian_of(f, random_ball_point(2, rng, 0.4))
        assert canonical_residual(t) <= 1e-10
        assert np.max(np.abs(t.Sk - np.swapaxes(t.Sk, 1, 2))) == 0
        assert np.max(np.abs(t.S0 - t.S0.T)) == 0


def test_pde_residual_examples():
    from schwarzball.maps import identity_map

    assert pde_residual(map_jet_at(identity_map(2), np.zeros(2), 3)) == 0
    assert pde_residual(map_jet_at(shear_a(0.4), np.zeros(2), 3)) <= 1e-14
    assert pde_residual(map_jet_at(shear_b(0.5), np.zeros(2), 3)) <= 1e-12
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = random_normalized_polymap(2, rng, scale=0.1)
        z = random_ball_point(2, rng, 0.4)
        assert pde_residual(map_jet_at(f, z, 3), z=z) <= 1e-12


def test_degree_and_dimension_guards():
    with pytest.raises(DimensionError):
        schwarzian_at(map_jet_at(shear_a(0.1), np.zeros(2), 2))
    one_var = PolyMap(1, [{(1,): 1.0, (2,): 0.3}])
    with pytest.raises(DimensionError):
        schwarzian_at(map_jet_at(one_var, np.zeros(1), 3))


def test_singular_differential_guard():
    m = PolyMap(2, [{(1, 0): 1, (0, 2): 1.0}, {(0, 1): 1}])
    jv = map_jet_at(m, np.zeros(2), 3)
    # forge a singular linear part by scaling the first component to zero
    from schwarzball.jets import JetVector

    broken = JetVector([jv[0] * 0.0, jv[1]])
    with pytest.raises(SingularDifferentialError):
        schwarzian_at(broken)


# -- Jacobians on the cut (-inf, 0] ------------------------------------------------

# JF = -1 everywhere for both; the tensors depend only on log-derivatives of JF
ROTATION = unitary_automorphism(np.diag([1j, 1j]))
REFLECTION = affine_map(np.diag([-1.0, 1.0]))


def test_tensor_defined_where_jacobian_is_negative_real():
    z = np.array([0.3, -0.2 + 0.1j])
    assert schwarzian_of(ROTATION, z).max_abs() <= 1e-14
    assert schwarzian_of(REFLECTION, np.zeros(2)).max_abs() <= 1e-14
    # affine postcomposition leaves a nonzero tensor unchanged
    flipped = schwarzian_of(CompositionMap((REFLECTION, shear_a(0.4))), z)
    plain = schwarzian_of(shear_a(0.4), z)
    assert max(np.max(np.abs(flipped.Sk - plain.Sk)), np.max(np.abs(flipped.S0 - plain.S0))) <= 1e-12


def test_pde_residual_where_jacobian_is_negative_real():
    assert pde_residual(map_jet_at(REFLECTION, np.zeros(2), 3)) <= 1e-12
    z = np.array([0.1j, 0.25])
    flipped = CompositionMap((REFLECTION, shear_a(0.4)))
    assert pde_residual(map_jet_at(flipped, z, 3), z=z) <= 1e-12


# -- symbolic oracle ------------------------------------------------------------------


def _symbolic_tensor(components, variables, point):
    """S^k_ij and S^0_ij from the module docstring's definitions, by sympy.

    S^0 is read off the linear system solved by u_0 = JF^(-1/(n+1)); ``point``
    must keep JF off the cut so sympy's principal power is smooth there.
    Derivatives are symbolic; they are evaluated at ``point`` with 30 digits.
    """
    import mpmath
    import sympy as sp

    n = len(variables)
    jac = sp.Matrix(components).jacobian(variables)
    jf = jac.det()
    u0 = sp.exp(sp.Rational(-1, n + 1) * sp.log(jf))
    du0 = [sp.diff(u0, a) for a in variables]
    exprs = [
        jac.tolist(),
        [[[sp.diff(f, a, b) for b in variables] for a in variables] for f in components],
        [sp.diff(jf, a) / jf for a in variables],
        u0,
        du0,
        [[sp.diff(d, b) for b in variables] for d in du0],
    ]
    with mpmath.workdps(30):
        values = sp.lambdify(variables, exprs, "mpmath")(*(mpmath.mpc(c) for c in point))
        df, d2f, glog, u0, du0, d2u0 = (
            np.array(v, dtype=complex) if isinstance(v, list) else complex(v) for v in values
        )
    dinv = np.linalg.inv(df)
    sk = np.einsum("lij,kl->kij", d2f, dinv)
    for k in range(n):
        sk[k, k, :] -= glog / (n + 1)
        sk[k, :, k] -= glog / (n + 1)
    s0 = (d2u0 - np.einsum("kij,k->ij", sk, du0)) / u0
    return sk, s0


def test_tensors_match_symbolic_definition():
    sp = pytest.importorskip("sympy")
    z1, z2 = sp.symbols("z1 z2")
    point = (0.2 + 0.1j, -0.15 + 0.05j)
    cubic = {
        0: {(1, 0): 1, (2, 0): 0.3, (1, 1): -0.2j, (0, 3): 0.25, (2, 1): 0.1 + 0.1j},
        1: {(0, 1): 1, (0, 2): -0.4, (1, 0): 0.1j, (3, 0): 0.2 - 0.3j, (1, 2): 0.15},
    }
    poly = PolyMap(2, [cubic[0], cubic[1]])
    poly_sym = [sum(sp.nsimplify(c) * z1**e1 * z2**e2 for (e1, e2), c in cubic[l].items())
                for l in range(2)]
    grid = np.array([[1, 0.2 - 0.1j, 0.1j], [0.1, 1.1, 0.2], [-0.2j, 0.3, 0.9]])
    rows = [sp.nsimplify(g[0]) + sp.nsimplify(g[1]) * z1 + sp.nsimplify(g[2]) * z2 for g in grid]
    moebius_sym = [rows[1] / rows[0], rows[2] / rows[0]]
    for m, sym in ((poly, poly_sym), (MoebiusMap(grid), moebius_sym)):
        sk, s0 = _symbolic_tensor(sym, (z1, z2), point)
        t = schwarzian_of(m, np.array(point))
        assert np.max(np.abs(t.Sk - sk)) <= 1e-12
        assert np.max(np.abs(t.S0 - s0)) <= 1e-12
