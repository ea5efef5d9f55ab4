"""Variational machinery: matrix A, expansions, decoupled equations, bounds, search."""

import numpy as np
import pytest

from schwarzball.errors import DimensionError, InfeasibleSearchError, NormalizationError
from schwarzball.maps import (
    MoebiusMap,
    PolyMap,
    identity_map,
    moebius_pole_at_e1,
    random_normalized_polymap,
)
from schwarzball.variational import (
    SubfamilyConfig,
    bounds_report,
    c_exact,
    c_simple,
    cubic_subfamily,
    decoupled_residuals,
    extremal_search,
    lemma31_check,
    matrix_A,
    moebius_subfamily,
    variation_expansion_check,
)

# frozen by independent high-precision evaluation of the closed-form bounds
ORD_BOUND_2_1 = 11.196152422706631881
NORM_ORD_BOUND_2_1 = 9.5980762113533159403
C_EXACT_2_1 = 41.784609690826527522


def shear_b(b):
    return PolyMap(2, [{(1, 0): 1, (2, 0): b}, {(0, 1): 1}])


def rotated_moebius(n, phase):
    c = np.zeros(n, dtype=complex)
    c[0] = np.exp(1j * phase)
    a = np.zeros((n + 1, n + 1), dtype=complex)
    a[0, 0] = 1.0
    a[0, 1:] = -np.conj(c)
    a[1:, 1:] = np.eye(n)
    return MoebiusMap(a)


# -- matrix A -------------------------------------------------------------------


def test_matrix_a_identity():
    rep = matrix_A(identity_map(2))
    assert np.max(np.abs(rep.Lam)) == 0
    assert np.max(np.abs(rep.A)) == 0
    assert rep.extremal_residual == 0


def test_matrix_a_moebius_pole():
    rep = matrix_A(moebius_pole_at_e1(2))
    assert np.max(np.abs(rep.Lam - np.array([3.0, 0.0]))) <= 1e-12
    assert np.max(np.abs(rep.B)) <= 1e-12
    assert np.max(np.abs(rep.B0)) <= 1e-12
    assert np.max(np.abs(rep.A - np.diag([3.0, 0.0]))) <= 1e-12
    assert rep.extremal_residual <= 1e-12


def test_matrix_a_b_shear_oracle():
    # symbolic oracle: S^1_11(0) = 2b/3, S^0_11(0) = 20 b^2/9, A_11 = -4 b^2
    b = 0.5
    rep = matrix_A(shear_b(b))
    assert abs(rep.A[0, 0] + 4 * b * b) <= 1e-12
    assert rep.extremal_residual > 1.0  # not extremal


def test_extremal_closure_includes_rotated_moebius():
    for phase in (0.0, 0.4, 1.1, -2.0):
        rep = matrix_A(rotated_moebius(2, phase))
        assert rep.extremal_residual <= 1e-9


def test_matrix_a_symmetry():
    rng = np.random.default_rng(19)
    for _ in range(10):
        rep = matrix_A(random_normalized_polymap(2, rng, scale=0.12))
        assert np.max(np.abs(rep.A - rep.A.T)) <= 1e-10


def test_matrix_a_requires_normalized():
    m = PolyMap(2, [{(0, 0): 0.2, (1, 0): 1.0}, {(0, 1): 1.0}])
    with pytest.raises(NormalizationError):
        matrix_A(m)


# -- first-order expansion checks -------------------------------------------------


def test_lemma31_examples():
    assert lemma31_check(identity_map(2)) == 0
    assert lemma31_check(moebius_pole_at_e1(2)) <= 1e-10
    rng = np.random.default_rng(77)
    for n in (2, 3):
        for _ in range(10):
            assert lemma31_check(random_normalized_polymap(n, rng, scale=0.1)) <= 1e-9


def test_expansion_identity_exact():
    rep = variation_expansion_check(identity_map(2))
    assert np.max(rep.errors) <= 1e-12
    assert rep.ok


def test_expansion_second_order_scaling():
    for m in (moebius_pole_at_e1(2), shear_b(0.5)):
        rep = variation_expansion_check(m)
        assert rep.ok
        assert rep.max_ratio <= 4.0
    rng = np.random.default_rng(55)
    rep = variation_expansion_check(random_normalized_polymap(2, rng, scale=0.1))
    assert rep.ok


# -- decoupled equations -----------------------------------------------------------


def test_decoupled_moebius_pole():
    rep = decoupled_residuals(moebius_pole_at_e1(2))
    assert abs(rep.lam - 3.0) <= 1e-12
    assert rep.quadratic_residual <= 1e-12
    assert np.max(rep.off_residuals) <= 1e-12
    assert not rep.rotated


def test_decoupled_identity_not_extremal():
    rep = decoupled_residuals(identity_map(2))
    assert abs(rep.quadratic_residual - 9.0) <= 1e-12


def test_decoupled_b_shear_oracle():
    # lambda = 1, S^1_11 = 1/3, S^0_11 = 5/9 at b = 1/2:
    # |1 + 3*(1/3)*1 - 9*(5/9) - 9| = 12
    rep = decoupled_residuals(shear_b(0.5))
    assert abs(rep.quadratic_residual - 12.0) <= 1e-12


def test_decoupled_rotation_path():
    rep = decoupled_residuals(rotated_moebius(2, 0.9))
    assert rep.rotated
    assert abs(rep.lam - 3.0) <= 1e-12
    assert rep.quadratic_residual <= 1e-9


# -- bounds ------------------------------------------------------------------------


def test_bounds_alpha_zero():
    br = bounds_report(2, 0.0)
    assert br.C_exact == 0 and br.C_simple == 0
    assert br.ord_bound == 1.5
    assert br.norm_ord_bound == 1.0
    assert br.lower_bound == 1.0


def test_bounds_frozen_values_at_2_1():
    br = bounds_report(2, 1.0)
    assert abs(br.C_exact - C_EXACT_2_1) <= 1e-6
    assert abs(br.C_exact - (21 + 12 * np.sqrt(3.0))) <= 1e-12
    assert abs(br.ord_bound - ORD_BOUND_2_1) <= 1e-6
    assert abs(br.norm_ord_bound - NORM_ORD_BOUND_2_1) <= 1e-6
    assert abs(br.C_simple - (24 + 16 * np.sqrt(2.0))) <= 1e-12


def test_bounds_grid_and_monotonicity():
    for n in range(2, 11):
        prev = -1.0
        for k in range(1, 41):
            alpha = 0.1 * k
            br = bounds_report(n, alpha)
            assert br.C_exact <= br.C_simple
            assert br.lower_bound <= br.norm_ord_bound
            assert br.ord_bound >= prev
            prev = br.ord_bound


def test_bounds_dimension_guard():
    with pytest.raises(DimensionError):
        bounds_report(1, 0.5)
    with pytest.raises(DimensionError):
        c_exact(1, 0.5)
    assert c_simple(2, 0.0) == 0


# -- extremal search -----------------------------------------------------------------


def test_search_moebius_family_alpha_zero():
    res = extremal_search(moebius_subfamily(2), alpha=0.0, budget=240, seed=0)
    assert res.achieved_order >= 1.5 - 1e-6
    assert res.achieved_order <= res.ord_bound
    assert res.extremal_residual <= 1e-6
    assert res.norm_estimate.value <= 1e-8


def test_search_cubic_family_respects_bound():
    res = extremal_search(
        cubic_subfamily(2, box=0.3), alpha=0.5, budget=24, seed=1, restarts=2,
        r_max=0.7, probe_shells=3, probe_angular=6, probe_starts=4,
    )
    assert res.achieved_order <= bounds_report(2, 0.5).ord_bound
    assert res.evaluations <= 40


def test_search_empty_config_rejected():
    cfg = SubfamilyConfig(n=2, dim=0, build=lambda x: identity_map(2), x0=np.zeros(0))
    with pytest.raises(InfeasibleSearchError):
        extremal_search(cfg, alpha=0.0)


def test_search_budget_exhaustion_reported():
    res = extremal_search(moebius_subfamily(2), alpha=0.0, budget=30, seed=0, restarts=1)
    assert isinstance(res.converged, bool)
    assert res.evaluations >= 10


def _subfamily_failing_off_x0(error):
    """Moebius subfamily whose build raises ``error`` away from the start point."""
    base = moebius_subfamily(2)

    def build(x):
        if not np.array_equal(x, base.x0):
            raise error("build failed")
        return base.build(x)

    return SubfamilyConfig(n=2, dim=base.dim, build=build, x0=base.x0)


SMALL_SEARCH = dict(alpha=0.0, budget=12, restarts=1, probe_shells=2, probe_angular=2,
                    probe_starts=2)


def test_search_propagates_programming_errors_in_build():
    with pytest.raises(TypeError):
        extremal_search(_subfamily_failing_off_x0(TypeError), **SMALL_SEARCH)


def test_search_penalizes_package_errors_in_build():
    cfg = _subfamily_failing_off_x0(NormalizationError)
    res = extremal_search(cfg, **SMALL_SEARCH)
    assert np.array_equal(res.params, cfg.x0)
    assert res.evaluations >= 10
