"""Jet arithmetic: ring axioms, series identities, and error contracts."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from schwarzball.errors import (
    BranchCutError,
    CompositionCenterError,
    DimensionError,
)
from schwarzball.jets import (
    Jet,
    JetMatrix,
    jet_compose,
    jet_det,
    jet_log,
    jet_partial,
    jet_pow,
    max_coeff_diff,
    multi_indices,
)

TOL = 1e-12


def random_jet(n, d, rng, scale=1.0, unit_constant=False):
    table = {}
    for key in multi_indices(n, d):
        r = 10.0 * scale * rng.random()
        th = 2 * np.pi * rng.random()
        table[key] = r * np.cos(th) + 1j * r * np.sin(th)  # |coeff| <= 10 * scale
    j = Jet(n, d, table)
    if unit_constant:
        return j - j.constant_term + (1.0 + 0.1 * rng.standard_normal())
    return j


# -- multiplication -----------------------------------------------------------


def test_mul_polynomial_identity():
    a = Jet(2, 2, {(0, 0): 1, (1, 0): 1})
    b = Jet(2, 2, {(0, 0): 1, (0, 1): 1})
    expected = Jet(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert max_coeff_diff(a * b, expected) == 0


def test_mul_truncates():
    a = Jet(2, 1, {(0, 0): 1, (1, 0): 1})
    expected = Jet(2, 1, {(0, 0): 1, (1, 0): 2})
    assert max_coeff_diff(a * a, expected) == 0


def test_mul_monomials():
    a = Jet(2, 3, {(1, 0): 1, (0, 2): 1})
    b = Jet(2, 3, {(0, 1): 1})
    expected = Jet(2, 3, {(1, 1): 1, (0, 3): 1})
    assert max_coeff_diff(a * b, expected) == 0


def test_mul_shape_mismatch():
    with pytest.raises(DimensionError):
        Jet(2, 2) * Jet(2, 3)
    with pytest.raises(DimensionError):
        Jet(2, 2) * Jet(3, 2)


def test_ring_axioms_on_random_jets():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_jet(2, 4, rng)
        b = random_jet(2, 4, rng)
        c = random_jet(2, 4, rng)
        assert max_coeff_diff(a * b, b * a) <= TOL
        assert max_coeff_diff((a * b) * c, a * (b * c)) <= TOL
        assert max_coeff_diff(a * (b + c), a * b + a * c) <= TOL


def test_truncation_exactness_vs_full_product():
    # product of degree-2 polynomials at d=4 agrees with the untruncated
    # dict product restricted to total degree <= 4
    rng = np.random.default_rng(5)
    a = random_jet(2, 2, rng).truncate(4)
    b = random_jet(2, 2, rng).truncate(4)
    full = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            key = (ka[0] + kb[0], ka[1] + kb[1])
            full[key] = full.get(key, 0j) + va * vb
    prod = a * b
    for key, val in full.items():
        if sum(key) <= 4:
            assert abs(prod.coeff(key) - val) <= TOL * 100


# -- composition ---------------------------------------------------------------


def test_compose_binomial():
    outer = Jet(1, 2, {(2,): 1})
    inner = [Jet(2, 2, {(1, 0): 1, (0, 1): 1})]
    expected = Jet(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert max_coeff_diff(jet_compose(outer, inner), expected) == 0


def test_compose_log_series():
    # log(1 + w1) composed with w1 = z1 equals jet_log(1 + z1)
    outer = jet_log(Jet(1, 3, {(0,): 1, (1,): 1}))
    inner = [Jet(1, 3, {(1,): 1})]
    direct = jet_log(Jet(1, 3, {(0,): 1, (1,): 1}))
    assert max_coeff_diff(jet_compose(outer, inner), direct) <= TOL


def test_compose_identity_outer():
    rng = np.random.default_rng(2)
    g = random_jet(2, 3, rng)
    g = g - g.constant_term
    outer = Jet(1, 3, {(1,): 1})
    assert max_coeff_diff(jet_compose(outer, [g]), g) == 0


def test_compose_rejects_nonzero_center():
    outer = Jet(1, 2, {(1,): 1})
    with pytest.raises(CompositionCenterError):
        jet_compose(outer, [Jet(2, 2, {(0, 0): 0.5, (1, 0): 1})])


# -- log and pow ----------------------------------------------------------------


def test_log_of_one_is_zero():
    assert jet_log(Jet(2, 3, {(0, 0): 1})).coeffs == {}


def test_log_mercator_series():
    got = jet_log(Jet(1, 3, {(0,): 1, (1,): 1}))
    expected = Jet(1, 3, {(1,): 1, (2,): -0.5, (3,): Fraction(1, 3)})
    assert max_coeff_diff(got, expected) <= TOL


def test_pow_binomial_series():
    got = jet_pow(Jet(1, 3, {(0,): 1, (1,): 1}), -1 / 3)
    expected = Jet(1, 3, {(0,): 1, (1,): Fraction(-1, 3), (2,): Fraction(2, 9), (3,): Fraction(-14, 81)})
    assert max_coeff_diff(got, expected) <= TOL


def test_pow_consistency_with_mul():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = random_jet(2, 3, rng, scale=0.1, unit_constant=True)
        assert max_coeff_diff(jet_pow(a, 1), a) <= TOL
        assert max_coeff_diff(jet_pow(a, 2), a * a) <= TOL


def test_log_of_product():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = random_jet(2, 3, rng, scale=0.05, unit_constant=True)
        b = random_jet(2, 3, rng, scale=0.05, unit_constant=True)
        assert max_coeff_diff(jet_log(a * b), jet_log(a) + jet_log(b)) <= TOL


def test_branch_errors():
    with pytest.raises(BranchCutError):
        jet_log(Jet(1, 2, {(1,): 1}))  # zero constant
    with pytest.raises(BranchCutError):
        jet_log(Jet(1, 2, {(0,): -2.0}))  # on the cut
    with pytest.raises(BranchCutError):
        jet_pow(Jet(1, 2, {(0,): -1.0}), 0.5)


# -- partial derivatives ---------------------------------------------------------


def test_partial_examples():
    a = Jet(2, 3, {(2, 1): 1})
    assert max_coeff_diff(jet_partial(a, 0), Jet(2, 2, {(1, 1): 2})) == 0
    assert jet_partial(Jet(2, 3, {(0, 0): 5}), 1).coeffs == {}


def test_partial_index_range():
    with pytest.raises(DimensionError):
        jet_partial(Jet(2, 2), 2)


def test_mixed_partials_commute():
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = random_jet(3, 4, rng)
        d01 = jet_partial(jet_partial(a, 0), 1)
        d10 = jet_partial(jet_partial(a, 1), 0)
        assert max_coeff_diff(d01, d10) == 0


# -- determinant ----------------------------------------------------------------


def test_det_identity():
    one, zero = Jet(2, 2, {(0, 0): 1}), Jet(2, 2)
    m = JetMatrix([[one if i == j else zero for j in range(3)] for i in range(3)])
    assert max_coeff_diff(jet_det(m), Jet(2, 2, {(0, 0): 1})) == 0


def test_det_triangular():
    m = JetMatrix([
        [Jet(2, 2, {(0, 0): 1, (1, 0): 1}), Jet(2, 2, {(0, 1): 1})],
        [Jet(2, 2), Jet(2, 2, {(0, 0): 1})],
    ])
    assert max_coeff_diff(jet_det(m), Jet(2, 2, {(0, 0): 1, (1, 0): 1})) == 0


# -- misc -------------------------------------------------------------------------


def test_derivative_value_includes_factorials():
    a = Jet(2, 3, {(2, 1): 4.0})
    assert a.derivative_value((2, 1)) == pytest.approx(8.0)


def test_derivatives_array_matches_derivative_value():
    rng = np.random.default_rng(5)
    a = random_jet(3, 4, rng)
    for order in range(4):
        arr = a.derivatives(order)
        assert arr.shape == (3,) * order
        for idx in product(range(3), repeat=order):
            key = tuple(idx.count(v) for v in range(3))
            assert arr[idx] == a.derivative_value(key)


def test_evaluate_matches_coefficients():
    rng = np.random.default_rng(3)
    a = random_jet(2, 3, rng)
    h = np.array([0.05, -0.03 + 0.02j])
    direct = sum(v * h[0] ** k[0] * h[1] ** k[1] for k, v in a.coeffs.items())
    assert abs(a.evaluate(h) - direct) <= 1e-12


def test_variable_count_limit():
    with pytest.raises(DimensionError):
        Jet(9, 2)
