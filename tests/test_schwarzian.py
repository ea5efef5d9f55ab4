"""Schwarzian tensors: closed-form values, vanishing, chain rule, PDE guard."""

import numpy as np
import pytest

from schwarzball import checks
from schwarzball.errors import (
    BasePointMismatchError,
    DimensionError,
    SingularDifferentialError,
    VanishingDenominatorError,
)
from schwarzball.jets import JetVector
from schwarzball.maps import (
    CompositionMap,
    MoebiusMap,
    PolyMap,
    affine_map,
    automorphism_from_center,
    map_jet_at,
    moebius_pole_at_e1,
    random_ball_point,
    random_moebius,
    random_normalized_polymap,
)
from schwarzball import maps
from schwarzball.schwarzian import (
    SchwarzianTensor,
    canonical_residual,
    chain_rule_transform,
    pde_residual,
    schwarzian_at,
    schwarzian_of,
    schwarzian_ofs,
)

from helpers import quadratic_image, unitary_automorphism


def shear_a(a, n=2):
    comps = [{tuple(1 if k == i else 0 for k in range(n)): 1.0} for i in range(n)]
    comps[0][tuple(2 if k == 1 else 0 for k in range(n))] = a
    return PolyMap(n, comps)


def shear_b(b, n=2):
    comps = [{tuple(1 if k == i else 0 for k in range(n)): 1.0} for i in range(n)]
    comps[0][tuple(2 if k == 0 else 0 for k in range(n))] = b
    return PolyMap(n, comps)


def pde_at(m, z):
    return pde_residual(m, schwarzian_of(m, z))


def test_moebius_tensor_vanishes():
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(25):
        m = random_moebius(2, rng)
        cases += [(m, random_ball_point(2, rng, 0.9)) for _ in range(4)]
    assert max(checks.moebius_vanishing(cases).values()) <= 1e-8


def test_moebius_vanishing_over_many_derivative_calls_is_exact(monkeypatch):
    # a small row cap spreads the cases over many derivative calls; the
    # chunked maxima equal those of every map's own tensors exactly
    rng = np.random.default_rng(7)
    cases = [(random_moebius(3, rng), np.array([random_ball_point(3, rng, 0.9) for _ in range(5)]))
             for _ in range(6)] + [(random_moebius(3, rng), random_ball_point(3, rng, 0.9))]
    own = [schwarzian_of(m, z) for m, z in cases]
    calls = []
    chunks = maps._derivative_chunks

    def counted(cases, order):
        for rows, arrays in chunks(cases, order):
            calls.append(len(rows))
            yield rows, arrays

    monkeypatch.setattr(maps, "ROW_ENTRIES", 4 * 3**4)
    monkeypatch.setattr(checks, "_derivative_chunks", counted)
    assert checks.moebius_vanishing(cases) == {
        "Sk": max(float(np.max(np.abs(t.Sk))) for t in own),
        "S0": max(float(np.max(np.abs(t.S0))) for t in own),
    }
    assert calls == [4] * 7 + [3]


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
    assert np.max(np.abs(quadratic_image(t, np.zeros(2)))) == 0
    out = quadratic_image(t, np.array([0, 1.0]))
    assert abs(out[0] - 2 * a) <= 1e-12 and abs(out[1]) <= 1e-12
    rng = np.random.default_rng(4)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c = 0.3 - 1.2j
    assert np.max(np.abs(quadratic_image(t, c * v) - c * c * quadratic_image(t, v))) <= 1e-12


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
    cases = [
        (random_normalized_polymap(2, rng, scale=0.08), random_normalized_polymap(2, rng, scale=0.08),
         random_ball_point(2, rng, 0.3))
        for _ in range(10)
    ]
    assert max(checks.chain_rule(cases).values()) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_finite_chain_rule_matches_the_composed_tensor(n):
    # both blocks, within 1e-12 of the composition's tensor relative to its
    # largest entry, or absolutely where that is below 1 (Moebius pairs have S = 0)
    rng = np.random.default_rng(70 + n)

    def draw(moebius):
        return random_moebius(n, rng) if moebius else random_normalized_polymap(n, rng, 0.3)

    cases = [(draw(k % 2), draw(k // 2 % 2), random_ball_point(n, rng, 0.4)) for k in range(8)]
    per_case = []
    for f, g, z in cases:
        direct = schwarzian_of(CompositionMap((g, f)), z)
        tol = 1e-12 * max(direct.max_abs(), 1.0)
        jf = map_jet_at(f, z, 3)
        w = jf.constants()
        t = chain_rule_transform(schwarzian_of(f, z), schwarzian_of(g, w), jf, map_jet_at(g, w, 3))
        assert max(np.max(np.abs(t.Sk - direct.Sk)), np.max(np.abs(t.S0 - direct.S0))) <= tol
        per_case.append(checks.chain_rule([(f, g, z)]))
        assert max(per_case[-1].values()) <= tol
    # the grouped check stacks the cases of each map kind, and each row keeps its bits
    assert checks.chain_rule(cases) == checks._largest(per_case)


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
        tmf = schwarzian_at(map_jet_at(CompositionMap((mo, f)), z, 3), z=z)
        worst = max(worst, float(np.max(np.abs(tf.Sk - tmf.Sk))))
        worst = max(worst, float(np.max(np.abs(tf.S0 - tmf.S0))))
    assert worst <= 1e-9


def _canonical_loop(t):
    # the single-point definition, one index at a time
    return float(max(abs(sum(t.Sk[j, i, j] for j in range(t.n))) for i in range(t.n)))


def test_canonical_residual_of_a_stack_is_the_largest_over_its_points():
    rng = np.random.default_rng(12)
    for n, p in ((2, 3), (3, 1), (3, 4)):
        sk = rng.standard_normal((p, n, n, n)) + 1j * rng.standard_normal((p, n, n, n))
        z, s0 = np.zeros((p, n), dtype=complex), np.zeros((p, n, n), dtype=complex)
        rows = [SchwarzianTensor(z=z[q], Sk=sk[q], S0=s0[q]) for q in range(p)]
        assert [canonical_residual(t) for t in rows] == [_canonical_loop(t) for t in rows]
        stack = SchwarzianTensor(z=z, Sk=sk, S0=s0)
        assert canonical_residual(stack) == max(_canonical_loop(t) for t in rows)
    m = random_normalized_polymap(3, rng)
    points = np.array([random_ball_point(3, rng, 0.5) for _ in range(3)])
    single = [canonical_residual(schwarzian_of(m, z)) for z in points]
    assert single == [_canonical_loop(schwarzian_of(m, z)) for z in points]
    assert canonical_residual(schwarzian_of(m, points)) == max(single)
    assert canonical_residual(schwarzian_of(m, np.zeros((0, 3)))) == 0.0


def test_canonical_residual_examples():
    assert canonical_residual(schwarzian_of(moebius_pole_at_e1(2), np.zeros(2))) <= 1e-14
    assert canonical_residual(schwarzian_of(shear_a(0.4), np.zeros(2))) <= 1e-14
    rng = np.random.default_rng(3)
    cases = [(random_normalized_polymap(2, rng, scale=0.12), random_ball_point(2, rng, 0.4))
             for _ in range(10)]
    res = checks.canonical_and_pde(cases)
    assert res["canonical"] <= 1e-10 and res["symmetry"] == 0


def test_pde_residual_examples():
    from schwarzball.maps import identity_map

    assert pde_at(identity_map(2), np.zeros(2)) == 0
    assert pde_at(shear_a(0.4), np.zeros(2)) <= 1e-14
    assert pde_at(shear_b(0.5), np.zeros(2)) <= 1e-12
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = random_normalized_polymap(2, rng, scale=0.1)
        z = random_ball_point(2, rng, 0.4)
        assert pde_at(f, z) <= 1e-12


def test_pde_residual_checks_the_given_tensor():
    # the residual is that of the tensor passed in, at its own base point:
    # shifting S^0 by eps moves it by eps |u_0(z)|, and a stack is refused
    f = random_normalized_polymap(2, np.random.default_rng(9), scale=0.1)
    z = np.array([0.2, -0.1j])
    t = schwarzian_of(f, z)
    eps = 1e-3
    shifted = SchwarzianTensor(z=t.z, Sk=t.Sk, S0=t.S0 + eps)
    u0 = abs(np.linalg.det(map_jet_at(f, z, 1).derivatives(1))) ** (-1 / 3)
    assert abs(pde_residual(f, shifted) - eps * u0) <= 1e-12
    with pytest.raises(DimensionError):
        pde_residual(f, schwarzian_of(f, np.stack([z, 0.5 * z])))


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


def test_schwarzian_of_tests_df_once(monkeypatch):
    # schwarzian_of tests DF once, with one stacked SVD and no jets; the jet
    # route tests it twice, in map_jet_at and again in schwarzian_at; a
    # singular DF raises from map_jet_at and schwarzian_of (and from
    # schwarzian_at, test_singular_differential_guard)
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    m = random_normalized_polymap(3, np.random.default_rng(3), scale=0.1)
    schwarzian_of(m, np.array([0.1, 0.2j, -0.1]))
    assert len(calls) == 1
    schwarzian_at(JetVector(map_jet_at(m, np.zeros(3), 3).jets))  # a plain jet is tested
    assert len(calls) == 3
    singular = PolyMap(2, [{(2, 0): 1.0}, {(0, 1): 1.0}])  # DF = diag(2 z1, 1)
    with pytest.raises(SingularDifferentialError):
        map_jet_at(singular, np.zeros(2), 3)
    with pytest.raises(SingularDifferentialError):
        schwarzian_of(singular, np.zeros(2))


def _kinds(n, rng):
    """A map of each kind: poly, Moebius, automorphism, poly o automorphism, a 3-part chain."""
    poly = random_normalized_polymap(n, rng, scale=0.2)
    sigma = automorphism_from_center(random_ball_point(n, rng, 0.5))
    mo = random_moebius(n, rng)
    chain = CompositionMap((random_normalized_polymap(n, rng, scale=0.1), mo, poly))
    return {"poly": poly, "moebius": mo, "automorphism": sigma,
            "poly_o_automorphism": CompositionMap((poly, sigma)), "chain": chain}


def test_batched_route_matches_jet_route():
    # relative to the larger of 1 and the largest entry: Moebius tensors are
    # rounding noise on both routes
    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 5):
        for kind, m in _kinds(n, rng).items():
            points = np.array([random_ball_point(n, rng, 0.6) for _ in range(3)])
            batch = schwarzian_of(m, points)
            assert batch.Sk.shape == (3, n, n, n) and batch.S0.shape == (3, n, n)
            for z, sk, s0 in zip(points, batch.Sk, batch.S0):
                jet = schwarzian_at(map_jet_at(m, z, 3), z=z)
                scale = max(1.0, jet.max_abs())
                gap = max(np.max(np.abs(sk - jet.Sk)), np.max(np.abs(s0 - jet.S0)))
                assert gap <= 1e-12 * scale, (n, kind, gap)


def test_batch_rows_equal_single_point_calls():
    # bit for bit: a point's tensor does not depend on the stack it is in
    rng = np.random.default_rng(13)
    for n in (2, 3):
        for kind, m in _kinds(n, rng).items():
            points = np.array([random_ball_point(n, rng, 0.9) for _ in range(47)])
            batch = schwarzian_of(m, points)
            assert np.array_equal(batch.z, points)
            for z, sk, s0 in zip(points, batch.Sk, batch.S0):
                one = schwarzian_of(m, z)
                assert np.array_equal(one.Sk, sk) and np.array_equal(one.S0, s0), (n, kind)


def test_one_bad_point_in_a_batch_raises_as_the_jet_route():
    rng = np.random.default_rng(14)
    good = np.array([random_ball_point(2, rng, 0.5) + 0.6 for _ in range(5)])
    singular = PolyMap(2, [{(2, 0): 1.0}, {(0, 1): 1.0}])  # DF = diag(2 z1, 1)
    cases = [
        (singular, [0.0, 0.3], SingularDifferentialError),
        (moebius_pole_at_e1(2), [1.0, 0.0], VanishingDenominatorError),  # on the polar set
        (CompositionMap((random_moebius(2, rng), singular)), [0.0, -0.2],
         SingularDifferentialError),  # a singular inner part
    ]
    for m, bad, error in cases:
        schwarzian_of(m, good)
        with pytest.raises(error):
            map_jet_at(m, bad, 3)
        with pytest.raises(error):
            schwarzian_of(m, np.insert(good, 2, bad, axis=0))
        with pytest.raises(error):
            schwarzian_of(m, bad)


def test_point_shape_guards():
    m = shear_a(0.2)
    for z in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(DimensionError):
            schwarzian_of(m, z)


def scaled_shear(c):
    """c times the shear (z1 + z2^2 / 2, z2, z3); DF has determinant c^3 at 0."""
    return PolyMap(3, [{(1, 0, 0): c, (0, 2, 0): c / 2}, {(0, 1, 0): c}, {(0, 0, 1): c}])


def test_singularity_test_is_scale_free():
    # S(cF) = S(F): scaling a map changes |det DF| by c^n but not its tensors
    z = np.array([0.1, 0.2, 0.0])
    base = schwarzian_of(scaled_shear(1.0), z)
    for c in (1e-5, 1e-9, 1e5):
        t = schwarzian_of(scaled_shear(c), z)
        gap = max(np.max(np.abs(t.Sk - base.Sk)), np.max(np.abs(t.S0 - base.S0)))
        assert gap <= 1e-12 * base.max_abs()
    # the chain rule reads DF from the scaled inner jet
    jf = map_jet_at(scaled_shear(1e-5), z, 3)
    w = jf.constants()
    g = random_moebius(3, np.random.default_rng(8))
    jg = map_jet_at(g, w, 3)
    t = chain_rule_transform(schwarzian_at(jf, z=z), schwarzian_at(jg, z=w), jf, jg)
    direct = schwarzian_at(map_jet_at(CompositionMap((g, scaled_shear(1e-5))), z, 3), z=z)
    assert np.max(np.abs(t.Sk - direct.Sk)) <= 1e-9
    assert np.max(np.abs(t.S0 - direct.S0)) <= 1e-9


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
    assert pde_at(REFLECTION, np.zeros(2)) <= 1e-12
    z = np.array([0.1j, 0.25])
    flipped = CompositionMap((REFLECTION, shear_a(0.4)))
    assert pde_at(flipped, z) <= 1e-12


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


# -- many maps per tensor call ---------------------------------------------------


def _same_tensor(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in ((a.z, b.z), (a.Sk, b.Sk), (a.S0, b.S0)))


def _mixed_cases(n, rng, points):
    """Cases of every stacking kind, each with a point, a stack or an empty stack."""
    sparse = PolyMap(n, [{tuple(int(k == i) for k in range(n)): 1.0,
                          tuple(2 * int(k == n - 1 - i) for k in range(n)): 0.3} for i in range(n)])
    kinds = [lambda: random_normalized_polymap(n, rng), lambda: sparse,
             lambda: random_moebius(n, rng),
             lambda: automorphism_from_center(random_ball_point(n, rng, 0.5)),
             lambda: CompositionMap((random_normalized_polymap(n, rng),
                                     automorphism_from_center(random_ball_point(n, rng, 0.5))))]
    cases = []
    for q in range(15):
        count = [1, points, 0][q % 3]
        z = np.array([random_ball_point(n, rng, 0.8) for _ in range(count)]).reshape(count, n)
        cases.append((kinds[q % 5](), z[0] if q % 3 == 0 else z))
    return cases


def test_grouped_tensors_equal_single_calls_byte_for_byte():
    rng = np.random.default_rng(30)
    for n in (2, 3):
        cases = _mixed_cases(n, rng, 7)
        for (m, z), t in zip(cases, schwarzian_ofs(cases)):
            assert _same_tensor(t, schwarzian_of(m, z))
            for q in range(len(z) if z.ndim == 2 else 0):  # and each point alone
                one = schwarzian_of(m, z[q])
                assert t.Sk[q].tobytes() == one.Sk.tobytes()
                assert t.S0[q].tobytes() == one.S0.tobytes()
    assert schwarzian_ofs([]) == []


def test_grouped_tensors_split_above_the_row_cap(monkeypatch):
    # one derivative call per kind and plan and per row cap, whatever the
    # number of maps; rows of a split group still equal the single calls
    n = 3
    cap = maps.ROW_ENTRIES // n**4
    calls = []
    derivatives = maps._derivatives

    def counted(m, z, order, params=None):
        calls.append((type(m).__name__, len(z)))
        return derivatives(m, z, order, params)

    monkeypatch.setattr(maps, "_derivatives", counted)
    rng = np.random.default_rng(31)
    polys = [random_normalized_polymap(n, rng) for _ in range(3)]
    grids = [random_moebius(n, rng) for _ in range(40)]
    cases = ([(m, np.array([random_ball_point(n, rng, 0.8) for _ in range(2)])) for m in polys]
             + [(m, np.array([random_ball_point(n, rng, 0.8) for _ in range(10)])) for m in grids])
    out = schwarzian_ofs(cases)
    moebius_rows = 40 * 10
    assert moebius_rows > cap
    assert calls == [("PolyMap", 6)] + [("MoebiusMap", min(cap, moebius_rows - lo))
                                        for lo in range(0, moebius_rows, cap)]
    monkeypatch.undo()
    for (m, z), t in zip(cases, out):
        assert _same_tensor(t, schwarzian_of(m, z))


def test_grouped_tensors_mix_dimensions():
    rng = np.random.default_rng(32)
    cases = _mixed_cases(2, rng, 3) + _mixed_cases(3, rng, 3)
    for (m, z), t in zip(cases, schwarzian_ofs(cases)):
        assert _same_tensor(t, schwarzian_of(m, z))
    with pytest.raises(DimensionError):
        schwarzian_ofs([(shear_a(0.3), [0.1, 0.2, 0.3])])


@pytest.mark.parametrize("kind", ["poly", "moebius", "automorphism", "composition"])
def test_empty_point_stack_gives_empty_tensors(kind):
    rng = np.random.default_rng(33)
    for n in (2, 3):
        sigma = automorphism_from_center(random_ball_point(n, rng, 0.5))
        m = {"poly": random_normalized_polymap(n, rng), "moebius": random_moebius(n, rng),
             "automorphism": sigma,
             "composition": CompositionMap((random_normalized_polymap(n, rng), sigma))}[kind]
        empty = np.zeros((0, n))
        for t in (schwarzian_of(m, empty), schwarzian_ofs([(m, empty), (m, empty)])[1]):
            assert t.Sk.shape == (0, n, n, n) and t.S0.shape == (0, n, n) and t.z.shape == (0, n)


def test_grouped_tensors_raise_for_a_singular_differential():
    # z -> (c z1^2, z2) is singular on z1 = 0; its twin of one plan shares the call
    fold, twin = (PolyMap(2, [{(2, 0): c}, {(0, 1): 1.0}]) for c in (1.0, 2.0))
    with pytest.raises(SingularDifferentialError):
        schwarzian_ofs([(twin, [0.3, 0.1]), (fold, np.array([[0.2, 0.1], [0.0, 0.4]]))])
    with pytest.raises(VanishingDenominatorError):
        schwarzian_ofs([(random_moebius(2, np.random.default_rng(4)), [0.1, 0.0]),
                        (moebius_pole_at_e1(2), [1.0, 0.0])])
