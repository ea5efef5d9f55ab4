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
from schwarzball import maps as maps_module
from schwarzball.variational import moebius_subfamily
from schwarzball.jets import Jet, JetVector, jet_det, jet_jacobian, jet_reciprocal
from schwarzball.maps import (
    CompositionMap,
    MoebiusMap,
    PolyMap,
    _affine_jet,
    _derivative_chunks,
    _derivatives,
    _stack_key,
    _rational_jet,
    automorphism_from_center,
    automorphism_validate,
    identity_map,
    map_eval,
    map_jet_at,
    moebius_pole,
    moebius_pole_at_e1,
    multi_indices,
    random_ball_point,
    random_moebius,
    random_normalized_polymap,
)

from helpers import max_coeff_diff, unitary_automorphism

TOL = 1e-12


def test_identity_jet_at_any_center():
    m = identity_map(3)
    zeta = np.array([0.2, -0.1 + 0.3j, 0.05j])
    jv = map_jet_at(m, zeta, 2)
    assert np.max(np.abs(jv.constants() - zeta)) == 0
    assert np.max(np.abs(jv.derivatives(1) - np.eye(3))) == 0


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
        via_jet = np.array([sum(v * np.prod(h ** np.array(k)) for k, v in j.coeffs.items()) for j in jv])
        assert np.max(np.abs(direct - via_jet)) <= 1e-12


def test_polymap_singular_center_rejected():
    m = PolyMap(2, [{(2, 0): 1.0}, {(0, 1): 1.0}])  # df1 = 2 z1 dz1, singular at 0
    with pytest.raises(SingularDifferentialError):
        map_jet_at(m, [0, 0], 2)


def _validated_affine_jet(const, lin, d):
    """const + lin h through the validating Jet constructor, as an oracle."""
    n = len(lin)
    table = {(0,) * n: complex(const)}
    table.update({tuple(int(k == j) for k in range(n)): complex(lin[j]) for j in range(n)})
    return Jet(n, d, table)


def _validated_rational_jet(num_const, num_lin, den_const, den_lin, d):
    inv_den = jet_reciprocal(_validated_affine_jet(den_const, den_lin, d))
    return JetVector(
        [_validated_affine_jet(c, lin, d) * inv_den for c, lin in zip(num_const, num_lin)]
    )


def test_rational_jet_matches_the_validating_constructor():
    # the affine tables equal the validated ones (no zeros, no linear terms
    # at d = 0), and the jets match coefficient for coefficient, in table
    # order and with the sign of zeros (repr tells 0j from -0j), on a seeded
    # sweep with zero numerator constants, zero and negative-zero entries,
    # and d = 0, 1, 3
    rng = np.random.default_rng(41)
    for d in (0, 1, 3):
        for n in (1, 2, 3):
            for _ in range(6):
                a = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
                a[rng.random((n + 1, n + 1)) < 0.2] = 0.0
                a[rng.random((n + 1, n + 1)) < 0.2] = complex(0.5, -0.0)
                a[0, 0] += 3.0
                a[1 + rng.integers(n), 0] = 0.0  # a zero numerator constant
                args = (a[1:, 0], a[1:, 1:], a[0, 0], a[0, 1:], d)
                for const, lin in zip(a[:, 0], a[:, 1:]):
                    want = _validated_affine_jet(const, lin, d).coeffs
                    assert list(_affine_jet(const, lin, d).coeffs.items()) == list(want.items())
                got, want = _rational_jet(*args), _validated_rational_jet(*args)
                assert [repr(list(j.coeffs.items())) for j in got.jets] == [
                    repr(list(j.coeffs.items())) for j in want.jets
                ]
                assert all(j.d == d and j.n == n for j in got.jets)


def test_moebius_denominator_guard():
    m = moebius_pole_at_e1(2)
    with pytest.raises(VanishingDenominatorError):
        map_eval(m, [1.0, 0.0])
    # the test is relative to the grid: scaled poles still raise
    for c in (1e-20, 1e20):
        scaled = MoebiusMap(c * m.a)
        with pytest.raises(VanishingDenominatorError):
            map_eval(scaled, [1.0, 0.0])
        with pytest.raises(VanishingDenominatorError):
            map_jet_at(scaled, [1.0, 0.0], 2)


# -- automorphisms ------------------------------------------------------------


def test_automorphism_center_zero_is_identity():
    sigma = automorphism_from_center([0.0, 0.0])
    assert np.max(np.abs(sigma.a - np.eye(3))) == 0


def test_automorphism_axis_values():
    sigma = automorphism_from_center([0.5, 0.0])
    jv = map_jet_at(sigma, [0, 0], 1)
    d = jv.derivatives(1)
    assert np.max(np.abs(d - np.diag([0.75, np.sqrt(0.75)]))) <= TOL
    assert abs(np.linalg.det(d) - 0.75**1.5) <= TOL  # 0.6495190528383290
    assert np.max(np.abs(map_eval(sigma, [0, 0]) - np.array([0.5, 0]))) <= TOL


def test_automorphism_moves_origin_to_center():
    rng = np.random.default_rng(7)
    for _ in range(100):
        zeta = random_ball_point(2, rng, 0.9)
        sigma = automorphism_from_center(zeta)
        assert np.max(np.abs(map_eval(sigma, [0, 0]) - zeta)) <= TOL


def _ball_image_norms(sigma, samples, seed):
    """|sigma(z)| at points z sampled in the ball of radius 0.999."""
    rng = np.random.default_rng(seed)
    return [float(np.linalg.norm(map_eval(sigma, random_ball_point(sigma.n, rng, 0.999))))
            for _ in range(samples)]


def test_automorphism_block_identities_and_ball():
    rng = np.random.default_rng(31)
    for _ in range(25):
        sigma = automorphism_from_center(random_ball_point(3, rng, 0.85))
        assert max(automorphism_validate(sigma)) <= 1e-10
        assert max(_ball_image_norms(sigma, samples=8, seed=1)) < 1.0


def test_automorphism_validate_detects_broken_blocks():
    sigma = automorphism_from_center([0.5, 0.0])
    grid = sigma.a.copy()
    grid[1:, 0] += 0.1  # the B block of [[D, C], [B, A]]
    broken = MoebiusMap(grid)
    assert automorphism_validate(broken)[1] > 1e-2


def test_unitary_automorphism_residual_zero():
    th = 0.6
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
    sigma = unitary_automorphism(u)
    assert max(automorphism_validate(sigma)) <= 1e-15
    assert max(_ball_image_norms(sigma, samples=16, seed=0)) < 1.0


def test_automorphism_outside_ball_rejected():
    with pytest.raises(OutsideDomainError):
        automorphism_from_center([1.0, 0.0])


# -- evaluation and composition -------------------------------------------------


def test_moebius_identity_grid():
    m = MoebiusMap(np.eye(3, dtype=complex))
    z = np.array([0.3, -0.4j])
    assert np.max(np.abs(map_eval(m, z) - z)) == 0


def _frozen_pole_at_e1(n):
    a = np.zeros((n + 1, n + 1), dtype=complex)
    a[0, 0] = 1.0
    a[0, 1] = -1.0
    a[1:, 1:] = np.eye(n)
    return a


def _frozen_suite_pole(n, phase):
    a = np.eye(n + 1, dtype=complex)
    a[0, 1] = -np.conj(np.exp(1j * phase))
    return a


def _frozen_subfamily_pole(x, n):
    c = x[:n] + 1j * x[n:]
    r = np.linalg.norm(c)
    if r > 1.0:
        c = c * ((1.0 - 1e-13) / r)
    a = np.zeros((n + 1, n + 1), dtype=complex)
    a[0, 0] = 1.0
    a[0, 1:] = -np.conj(c)
    a[1:, 1:] = np.eye(n)
    return a


@pytest.mark.parametrize("n", [2, 3])
def test_moebius_pole_equals_the_grids_it_replaced_bit_for_bit(n):
    e1 = np.eye(n)[0]
    assert moebius_pole(e1).a.tobytes() == _frozen_pole_at_e1(n).tobytes()
    assert moebius_pole_at_e1(n).a.tobytes() == _frozen_pole_at_e1(n).tobytes()
    for phase in (0.0, 0.4, 1.1, -0.7):
        assert moebius_pole(np.exp(1j * phase) * e1).a.tobytes() == _frozen_suite_pole(n, phase).tobytes()
    rng = np.random.default_rng(40 + n)
    for scale in (0.3, 2.0):  # inside the ball, and clipped onto it
        x = scale * rng.standard_normal(2 * n)
        built = moebius_subfamily(n).build(x)
        assert built.a.tobytes() == _frozen_subfamily_pole(x, n).tobytes()
    z = np.array([0.3, -0.2j, 0.1][:n])
    c = np.array([0.5 + 0.1j, -0.4, 0.2j][:n])
    assert np.allclose(map_eval(moebius_pole(c), z), z / (1.0 - np.vdot(c, z)), rtol=1e-15, atol=0)


def test_compose_moebius_equals_grid_product():
    rng = np.random.default_rng(3)
    a = random_moebius(2, rng)
    b = random_moebius(2, rng)
    center = np.array([0.1, 0.05 - 0.1j])
    composed = map_jet_at(CompositionMap((a, b)), center, 3)
    product = map_jet_at(MoebiusMap(a.a @ b.a), center, 3)
    worst = max(max_coeff_diff(composed[i], product[i]) for i in range(2))
    assert worst <= 1e-12


def test_compose_with_identity():
    m = moebius_pole_at_e1(2)
    z = np.array([0.2, 0.1])
    composed = map_jet_at(CompositionMap((m, identity_map(2))), z, 3)
    direct = map_jet_at(m, z, 3)
    assert max(max_coeff_diff(composed[i], direct[i]) for i in range(2)) <= 1e-14


def test_compose_shears_adds_parameters():
    a, b = 0.3, 0.45
    sa = PolyMap(2, [{(1, 0): 1, (0, 2): a}, {(0, 1): 1}])
    sb = PolyMap(2, [{(1, 0): 1, (0, 2): b}, {(0, 1): 1}])
    composed = map_jet_at(CompositionMap((sa, sb)), np.zeros(2), 3)
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
    for c in (1e-13, 1.0, 1e13):  # singular at every scale, and with NaN entries
        with pytest.raises(MapSpecError):
            MoebiusMap(c * np.diag([1.0, 1.0, 1e-14]))
    with pytest.raises(MapSpecError):
        MoebiusMap(np.full((3, 3), np.nan))


def test_polymap_rejects_non_finite_coefficients():
    for bad in (np.nan, np.inf, complex(0.0, np.nan), complex(-np.inf, 1.0)):
        with pytest.raises(MapSpecError):
            PolyMap(2, [{(1, 0): 1.0, (0, 0): bad}, {(0, 1): 1.0}])


def test_moebius_scaled_grid_is_the_same_map():
    # a grid and its scalar multiples are one map, however small the scale
    identity = MoebiusMap(1e-13 * np.eye(3))
    assert np.max(np.abs(map_eval(identity, [0.2, 0.1j]) - [0.2, 0.1j])) <= TOL
    base = random_moebius(2, np.random.default_rng(19))
    z = np.array([0.1, -0.2j])
    for c in (1e-20, 1e-15, 1e-13, 1e-6, 1e13):
        scaled = MoebiusMap(c * base.a)
        assert np.max(np.abs(map_eval(scaled, z) - map_eval(base, z))) <= TOL
        pairs = zip(map_jet_at(scaled, z, 2), map_jet_at(base, z, 2))
        assert max(max_coeff_diff(x, y) for x, y in pairs) <= 1e-10


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


def test_poly_derivative_rows_equal_single_point_calls():
    # byte for byte, signs of zero included: a point's derivatives do not
    # depend on the stack it is in
    rng = np.random.default_rng(16)
    for n in (1, 2, 3, 5):
        sparse = PolyMap(n, [{tuple(int(k == i) for k in range(n)): 1.0, (0,) * n: -0.5j,
                              tuple(2 * int(k == n - 1 - i) for k in range(n)): 0.3} for i in range(n)])
        for m in (random_normalized_polymap(n, rng), sparse):
            points = np.array([random_ball_point(n, rng, 0.9) for _ in range(5)])
            for order in range(4):
                batch = _derivatives(m, points, order)
                assert [a.shape for a in batch] == [(5,) + (n,) * (k + 1) for k in range(order + 1)]
                for q, z in enumerate(points):
                    one = _derivatives(m, z[None], order)
                    assert [a[q].tobytes() for a in batch] == [a[0].tobytes() for a in one]


def _mixed_maps(n, rng):
    """Maps of every stacking kind: two polynomial plans, Moebius grids, and
    chains of a polynomial map after an automorphism."""
    sparse = [PolyMap(n, [{tuple(int(k == i) for k in range(n)): 1.0,
                           tuple(2 * int(k == n - 1 - i) for k in range(n)): c} for i in range(n)])
              for c in (0.3, -0.2j)]
    chains = [CompositionMap((random_normalized_polymap(n, rng),
                              automorphism_from_center(random_ball_point(n, rng, 0.5))))
              for _ in range(2)]
    return ([random_normalized_polymap(n, rng) for _ in range(3)] + sparse
            + [random_moebius(n, rng) for _ in range(3)]
            + [automorphism_from_center([0.3] + [0.0] * (n - 1))] + chains)


def test_stack_keys_group_plans_grids_and_chains():
    rng = np.random.default_rng(20)
    maps = _mixed_maps(2, rng)
    keys = [_stack_key(m) for m in maps]
    assert len(set(keys[:3])) == 1  # one plan object for one exponent set
    assert len(set(keys[3:5])) == 1 and keys[3] != keys[0]
    assert len(set(keys[5:9])) == 1  # every Moebius grid of one n
    assert len(set(keys[9:])) == 1 and keys[9] == (keys[0], keys[5])
    assert _stack_key(random_moebius(3, rng)) != keys[5]


def test_stacked_derivative_rows_equal_each_maps_own_call(monkeypatch):
    # byte for byte: rows of many maps in one call per key, split at the row
    # cap ROW_ENTRIES // n^(order + 1) below a group's size, take the bits of
    # each map's own call
    rng = np.random.default_rng(21)
    for n in (2, 3):
        maps = _mixed_maps(n, rng)
        cases = [(m, np.array([random_ball_point(n, rng, 0.8) for _ in range(q % 4)]))
                 for q, m in enumerate(maps * 2)]
        cases = [(m, z.reshape(-1, n)) for m, z in cases]
        flat = [(m, point[None]) for m, z in cases for point in z]  # row q's map and point
        keys = [_stack_key(m) for m, z in cases for _ in z]
        for order in range(4):
            monkeypatch.setattr(maps_module, "ROW_ENTRIES", 6 * n ** (order + 1) - 1)
            cap = maps_module.ROW_ENTRIES // n ** (order + 1)
            assert cap == 5
            seen = np.zeros(len(flat), dtype=bool)
            sizes: dict = {}
            for rows, arrays in _derivative_chunks(cases, order):
                assert not seen[rows].any() and len({keys[q] for q in rows}) == 1
                seen[rows] = True
                sizes.setdefault(keys[rows[0]], []).append(len(rows))
                for r, q in enumerate(rows):
                    own = _derivatives(*flat[q], order)
                    assert [a[r].tobytes() for a in arrays] == [a[0].tobytes() for a in own]
            assert seen.all()
            # each key's rows split into full calls of the cap and one rest
            total = {key: keys.count(key) for key in keys}
            assert sizes == {key: [cap] * (size // cap) + [size % cap] * (size % cap > 0)
                             for key, size in total.items()}
            assert max(total.values()) > cap


def test_lower_order_poly_arrays_are_a_prefix_of_the_order_3_call():
    # one column table per plan: the order-k arrays are the first k + 1 of
    # the order-3 call, byte for byte, for maps of two plans
    rng = np.random.default_rng(24)
    for n in (2, 3, 4):
        z = np.array([random_ball_point(n, rng, 0.8) for _ in range(4)])
        polys = _mixed_maps(n, rng)[:5]
        assert len({_stack_key(m) for m in polys}) == 2
        for m in polys:
            full = _derivatives(m, z, 3)
            for order in range(3):
                assert ([a.tobytes() for a in _derivatives(m, z, order)]
                        == [a.tobytes() for a in full[:order + 1]])


def test_derivative_chunk_cap_holds_at_least_one_row(monkeypatch):
    monkeypatch.setattr(maps_module, "ROW_ENTRIES", 3)
    m = random_moebius(2, np.random.default_rng(23))
    cases = [(m, np.array([[0.1, 0.0], [0.0, 0.2], [0.3, 0.1]]))]
    for order in range(4):
        assert [len(rows) for rows, _ in _derivative_chunks(cases, order)] == [1, 1, 1]


def test_empty_point_stacks_give_empty_derivative_arrays():
    rng = np.random.default_rng(22)
    for n in (2, 3):
        for m in _mixed_maps(n, rng):
            arrays = _derivatives(m, np.zeros((0, n), dtype=complex), 3)
            assert [a.shape for a in arrays] == [(0,) + (n,) * (k + 1) for k in range(4)]
    assert list(_derivative_chunks([(m, np.zeros((0, 2)))], 3)) == []


def test_stacked_call_still_rejects_a_singular_differential():
    # z -> (c z1^2, z2) is singular on z1 = 0; two maps of one plan share a call
    fold, twin = (PolyMap(2, [{(2, 0): c}, {(0, 1): 1.0}]) for c in (1.0, 2.0))
    assert _stack_key(fold) == _stack_key(twin)
    cases = [(twin, np.array([[0.3, 0.1]])), (fold, np.array([[0.2, 0.1], [0.0, 0.4]]))]
    with pytest.raises(SingularDifferentialError):
        list(_derivative_chunks(cases, 1))
    pole = [(random_moebius(2, np.random.default_rng(1)), np.zeros((1, 2))),
            (moebius_pole_at_e1(2), np.array([[1.0, 0.0]]))]
    with pytest.raises(VanishingDenominatorError):
        list(_derivative_chunks(pole, 0))


def test_stacked_denominator_test_is_relative_to_each_grid():
    # l_0 = 1e-3 at the origin is far from vanishing for its own grid, though a
    # huge grid in the same call would swamp it under one shared scale
    small = np.eye(3, dtype=complex)
    small[0, 0] = 1e-3
    cases = [(MoebiusMap(small), np.zeros((1, 2))),
             (MoebiusMap(1e30 * random_moebius(2, np.random.default_rng(2)).a), np.zeros((1, 2)))]
    (rows, arrays), = _derivative_chunks(cases, 3)
    for q, (m, z) in enumerate(cases):
        assert [a[q].tobytes() for a in arrays] == [a[0].tobytes() for a in _derivatives(m, z, 3)]


# -- samplers: one draw per call keeps the stream of one draw per number -----


def _frozen_ball_point(n, rng, r_max=0.9):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return v * (r_max * rng.random() ** (1.0 / (2 * n)))


def _frozen_moebius(n, rng):
    while True:
        a = np.zeros((n + 1, n + 1), dtype=complex)
        a[0, 0] = 1.0
        a[0, 1:] = 0.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(n)
        a[1:, 0] = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        a[1:, 1:] = np.eye(n) + 0.4 * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ) / np.sqrt(n)
        if abs(np.linalg.det(a)) >= 0.05:
            return MoebiusMap(a)


def _frozen_polymap(n, rng, scale=0.1):
    comps = []
    for i in range(n):
        table = {tuple(1 if k == i else 0 for k in range(n)): 1.0 + 0j}
        for key in (k for k in multi_indices(n, 3) if sum(k) >= 2):
            table[key] = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        comps.append(table)
    return PolyMap(n, comps)


# seeds whose first Moebius grid at n is resampled (none below 20000 at n = 5)
_MOEBIUS_RESAMPLES = {2: 10056, 3: 2255, 4: 5128}


def _poly_bytes(m):
    return [(list(c), np.array(list(c.values())).tobytes()) for c in m.components]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_samplers_equal_their_per_number_draws_bit_for_bit(n):
    # tobytes tells signed zeros apart; the generators' states must agree after
    # every call, so later draws of a report do not move either
    for seed in range(12):
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        for r_max in (0.9, 0.5, 0.0):
            assert _frozen_ball_point(n, old, r_max).tobytes() == random_ball_point(n, new, r_max).tobytes()
        for _ in range(3):
            assert _frozen_moebius(n, old).a.tobytes() == random_moebius(n, new).a.tobytes()
        for scale in (0.1, 0.08, 1e-3, 0.0):
            assert _poly_bytes(_frozen_polymap(n, old, scale)) == _poly_bytes(
                random_normalized_polymap(n, new, scale))
            assert old.bit_generator.state == new.bit_generator.state
    if n in _MOEBIUS_RESAMPLES:  # a first grid below the determinant bound
        old, new = (np.random.default_rng(_MOEBIUS_RESAMPLES[n]) for _ in range(2))
        assert _frozen_moebius(n, old).a.tobytes() == random_moebius(n, new).a.tobytes()
        assert old.bit_generator.state == new.bit_generator.state
    # the one-draw call is the size-1 batch: same bits, same generator state
    for seed in list(range(12)) + [_MOEBIUS_RESAMPLES.get(n, 0)]:
        one, batch = np.random.default_rng(seed), np.random.default_rng(seed)
        for r_max in (0.9, 0.5, 0.0):
            z = random_ball_point(n, batch, r_max, size=1)
            assert z.shape == (1, n) and random_ball_point(n, one, r_max).tobytes() == z.tobytes()
        for _ in range(3):
            grids = random_moebius(n, batch, size=1)
            assert len(grids) == 1 and random_moebius(n, one).a.tobytes() == grids[0].a.tobytes()
        assert one.bit_generator.state == batch.bit_generator.state


@pytest.mark.parametrize("n", [2, 3, 5])
def test_batched_samplers_keep_their_bounds(n):
    rng = np.random.default_rng(30 + n)
    state = rng.bit_generator.state
    assert random_ball_point(n, rng, 0.9, size=0).shape == (0, n)
    assert random_moebius(n, rng, size=0) == []
    assert rng.bit_generator.state == state
    for r_max in (0.9, 0.3, 0.0):
        z = random_ball_point(n, rng, r_max, size=500)
        assert z.shape == (500, n) and np.all(np.linalg.norm(z, axis=1) <= r_max * (1 + 1e-15))
    grids = random_moebius(n, rng, size=300)
    assert len(grids) == 300 and all(abs(np.linalg.det(m.a)) >= 0.05 for m in grids)


@pytest.mark.parametrize("n", sorted(_MOEBIUS_RESAMPLES))
def test_batched_moebius_draws_only_the_rejected_rows_again(n):
    # the seed's first grid is rejected: the second round draws one row
    seed, width = _MOEBIUS_RESAMPLES[n], 4 * n + 2 * n * n
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    grids = random_moebius(n, rng, size=3)
    first, second = ref.standard_normal((3, width)), ref.standard_normal((1, width))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert all(abs(np.linalg.det(m.a)) >= 0.05 for m in grids)
    assert grids[0].a[0, 1:].tobytes() == (0.2 * (second[0, :n] + 1j * second[0, n:2 * n])
                                           / np.sqrt(n)).tobytes()
    assert grids[1].a[1:, 0].tobytes() == (0.3 * (first[1, 2 * n:3 * n]
                                                  + 1j * first[1, 3 * n:4 * n])).tobytes()
