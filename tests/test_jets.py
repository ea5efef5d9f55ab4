"""Jet arithmetic: ring axioms, series identities, and error contracts."""

import math
from itertools import permutations

import numpy as np
import pytest

from schwarzball import jets
from schwarzball.errors import CompositionCenterError, DimensionError
from schwarzball.jets import (
    Jet,
    JetVector,
    jet_compose,
    jet_det,
    jet_partial,
    jet_reciprocal,
    multi_indices,
)
from schwarzball.maps import map_jet_at, random_normalized_polymap

from helpers import max_coeff_diff

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
    a = Jet(2, 4, random_jet(2, 2, rng).coeffs)
    b = Jet(2, 4, random_jet(2, 2, rng).coeffs)
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
    assert max_coeff_diff(jet_compose(JetVector([outer]), inner)[0], expected) == 0


def test_compose_reciprocal_series():
    # 1/(1 + w1) composed with w1 = z1 equals jet_reciprocal(1 + z1)
    outer = jet_reciprocal(Jet(1, 3, {(0,): 1, (1,): 1}))
    inner = [Jet(1, 3, {(1,): 1})]
    direct = jet_reciprocal(Jet(1, 3, {(0,): 1, (1,): 1}))
    assert max_coeff_diff(jet_compose(JetVector([outer]), inner)[0], direct) <= TOL


def test_compose_identity_outer():
    rng = np.random.default_rng(2)
    g = random_jet(2, 3, rng)
    g = g - g.constant_term
    outer = Jet(1, 3, {(1,): 1})
    assert max_coeff_diff(jet_compose(JetVector([outer]), [g])[0], g) == 0


def test_compose_rejects_nonzero_center():
    outer = Jet(1, 2, {(1,): 1})
    with pytest.raises(CompositionCenterError):
        jet_compose(JetVector([outer]), [Jet(2, 2, {(0, 0): 0.5, (1, 0): 1})])


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
    m = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert max_coeff_diff(jet_det(m), Jet(2, 2, {(0, 0): 1})) == 0


def test_det_triangular():
    m = [
        [Jet(2, 2, {(0, 0): 1, (1, 0): 1}), Jet(2, 2, {(0, 1): 1})],
        [Jet(2, 2), Jet(2, 2, {(0, 0): 1})],
    ]
    assert max_coeff_diff(jet_det(m), Jet(2, 2, {(0, 0): 1, (1, 0): 1})) == 0


def test_det_rejects_non_square_and_mixed_shapes():
    one = Jet(2, 2, {(0, 0): 1})
    for rows in ([], [[one, one]], [[one], [one, one]], [[one, Jet(2, 3)], [one, one]]):
        with pytest.raises(DimensionError):
            jet_det(rows)


# -- exactness against the reference loops ----------------------------------------
#
# The engine skips out-of-degree pairs, shares monomials across composed
# components and caches key sums and derivative positions; none of this may
# change a single bit or the order of a coefficient table.  The loops below
# are the straightforward versions it replaced.


def _reference_mul(a, b):
    out = {}
    b_items = [(kb, sum(kb), vb) for kb, vb in b.coeffs.items()]
    for ka, va in a.coeffs.items():
        ta = sum(ka)
        for kb, tb, vb in b_items:
            if ta + tb > a.d:
                continue
            key = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(key, 0j) + va * vb
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def _reference_compose(outer, inner):
    # one component on its own: each monomial is its parent (one less in its
    # last nonzero exponent) times one inner jet
    n, d = inner[0].n, inner[0].d
    monomials = {(0,) * len(inner): Jet.constant(n, d, 1.0)}

    def monomial(key):
        if key not in monomials:
            k = max(i for i, e in enumerate(key) if e)
            parent = monomial(key[:k] + (key[k] - 1,) + key[k + 1:])
            monomials[key] = Jet(n, d, _reference_mul(parent, inner[k]))
        return monomials[key]

    acc = {}
    for key, c in outer.coeffs.items():
        for tk, tv in monomial(key).coeffs.items():
            s = acc.get(tk, 0j) + c * tv
            if s == 0:
                acc.pop(tk, None)
            else:
                acc[tk] = s
    return acc


def _reference_series(a, coeffs):
    # coeffs[0] + sum_k coeffs[k] u^k for u = a/a(0) - 1, one power at a time
    u = a * (1.0 / a.constant_term)
    u.coeffs.pop((0,) * a.n, None)
    out = Jet.constant(a.n, a.d, coeffs[0])
    power = u
    for k, c in enumerate(coeffs[1:], start=1):
        out = out + power * c
        if k < a.d:
            power = Jet(a.n, a.d, _reference_mul(power, u))
    return out


def _reference_derivatives(a, order):
    out = np.zeros((a.n,) * order, dtype=complex)
    for key, val in a.coeffs.items():
        if sum(key) != order:
            continue
        val = val * math.prod(math.factorial(e) for e in key)
        index = tuple(i for i, e in enumerate(key) for _ in range(e))
        for perm in set(permutations(index)):
            out[perm] = val
    return out


def _sparse_jet(n, d, rng):
    """Random jet with about half its terms, in shuffled key order."""
    keys = list(multi_indices(n, d))
    rng.shuffle(keys)
    table = {}
    for key in keys[: max(1, len(keys) // 2)]:
        table[key] = complex(rng.standard_normal(), rng.standard_normal())
    return Jet(n, d, table)


def _assert_same_table(got, want):
    # equal values, signs of zero included, and the same key order, which
    # later products iterate in
    assert repr(list(got.items())) == repr(list(want.items()))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_mul_matches_reference_loop_exactly(n):
    rng = np.random.default_rng(10 + n)
    for d in range(5):
        dense = [random_jet(n, d, rng) for _ in range(2)]
        sparse = [_sparse_jet(n, d, rng) for _ in range(2)]
        for a, b in [dense, sparse, (dense[0], sparse[0]), (sparse[1], dense[1])]:
            _assert_same_table((a * b).coeffs, _reference_mul(a, b))


def test_mul_drops_exact_cancellation_like_reference():
    # (1 + z1)(1 - z1) = 1 - z1^2: the z1 terms cancel to an exact zero
    a = Jet(2, 3, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 0.5})
    b = Jet(2, 3, {(0, 0): 1.0, (1, 0): -1.0, (0, 1): -0.5})
    prod = a * b
    assert (1, 0) not in prod.coeffs and (0, 1) not in prod.coeffs
    _assert_same_table(prod.coeffs, _reference_mul(a, b))


@pytest.mark.parametrize("n", [2, 5])
def test_shared_composition_matches_per_component_reference_exactly(n):
    rng = np.random.default_rng(20 + n)
    d = 3
    inner = []
    for _ in range(n):
        g = random_jet(n, d, rng, scale=0.1)
        inner.append(g - g.constant_term)
    outer = JetVector(random_jet(n, d, rng) for _ in range(n))
    composed = jet_compose(outer, inner)
    assert isinstance(composed, JetVector) and len(composed) == n
    for f, got in zip(outer, composed):
        want = _reference_compose(f, inner)
        _assert_same_table(got.coeffs, want)
        _assert_same_table(jet_compose(JetVector([f]), inner)[0].coeffs, want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_series_match_reference_loop_exactly(n):
    rng = np.random.default_rng(30 + n)
    for d in range(5):
        for a in (random_jet(n, d, rng, scale=0.1, unit_constant=True), _sparse_jet(n, d, rng)):
            if a.constant_term == 0:
                a = a + 2.0
            rec_coeffs = [(-1.0) ** k for k in range(d + 1)]
            want = _reference_series(a, rec_coeffs) * (1.0 / a.constant_term)
            _assert_same_table(jet_reciprocal(a).coeffs, want.coeffs)


@pytest.mark.parametrize("n, products", [(2, 7), (3, 16)])
def test_substitution_makes_one_product_per_monomial(n, products, monkeypatch):
    # a full cubic has every monomial of degree 2 and 3, each built once as
    # its parent times one factor; the degree-1 monomials are the factors
    calls = []
    real_mul = jets._mul

    def counted(a, b):
        calls.append(1)
        return real_mul(a, b)

    monkeypatch.setattr(jets, "_mul", counted)
    rng = np.random.default_rng(40 + n)
    inner = []
    for _ in range(n):
        g = random_jet(n, 3, rng, scale=0.1)
        inner.append(g - g.constant_term)
    jet_compose(JetVector(random_jet(n, 3, rng) for _ in range(n)), inner)
    assert len(calls) == products
    calls.clear()
    map_jet_at(random_normalized_polymap(n, rng), 0.1 * rng.standard_normal(n), 3)
    assert len(calls) == products


def _assert_same_array(got, want):
    # equal bytes, signs of zero included, in a C-contiguous array
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_derivatives_match_permutation_loop_exactly():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 5):
        for a in (random_jet(n, 4, rng), _sparse_jet(n, 3, rng)):
            for order in range(4):
                _assert_same_array(a.derivatives(order), _reference_derivatives(a, order))
        jv = JetVector(random_jet(n, 3, rng) for _ in range(n))
        for order in range(4):
            want = np.stack([_reference_derivatives(j, order) for j in jv])
            _assert_same_array(jv.derivatives(order), want)


# -- misc -------------------------------------------------------------------------


def test_derivative_value_includes_factorials():
    a = Jet(2, 3, {(2, 1): 4.0})
    assert a.derivatives(3)[0, 1, 0] == pytest.approx(8.0)


def test_variable_count_limit():
    with pytest.raises(DimensionError):
        Jet(9, 2)
    for make in (lambda: Jet.zero(9, 2), lambda: Jet.constant(9, 2, 1.0), lambda: Jet.variable(9, 2, 0)):
        with pytest.raises(DimensionError):
            make()


def test_jacobian_and_determinant_wrap_their_tables_unvalidated(monkeypatch):
    # the Jacobian and its determinant wrap the tables they build as they are;
    # Jet(...) and its named constructors test what they are given
    jv = map_jet_at(random_normalized_polymap(3, np.random.default_rng(3)), [0.1, -0.2j, 0.05], 3)
    calls = []
    validated = jets._validated_table
    monkeypatch.setattr(jets, "_validated_table", lambda *args: calls.append(args) or validated(*args))
    det = jet_det(jets.jet_jacobian(jv))
    assert calls == [] and (det.n, det.d) == (3, 2)
    Jet.variable(3, 2, 0)  # the patch sees the validating constructors
    assert len(calls) == 1
