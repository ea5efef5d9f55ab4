"""Exact map classes on the unit ball and their jet expansions.

Three kinds of locally biholomorphic maps are supported: polynomial maps,
Moebius transformations (ratios of affine forms), and composition chains of
the above.  Automorphisms of the unit ball, (Az + B)/(Cz + D) in block form,
are the Moebius maps with grid [[D, C], [B, A]]; :func:`automorphism_validate`
reads the blocks back from the grid.  The automorphism moving the origin to
zeta, with s = sqrt(1 - |zeta|^2), is the single closed form

    [[1, zeta^H], [zeta, s Id + zeta zeta^H / (1 + s)]] / s.

Every map can be expanded into an exact Taylor jet about any admissible
center; rational denominators are expanded by a truncated geometric series,
so no numerical differentiation is involved.  A polynomial map is recentered
by building each monomial (zeta + h)^e it uses once, as a smaller monomial
times one factor zeta_k + h_k, and summing coefficient times monomial over
the components, which share the monomials.  A composition step composes all
outer components with the inner jet in one :func:`jet_compose` call.  Every
expansion checks that DF is nonsingular relative to its own scale
(:func:`check_nonsingular`) and returns a :class:`MapJet`, which records
that the test passed.  Moebius grids are tested the same way: a grid and
its scalar multiples are one map.
"""

from __future__ import annotations

import cmath
from typing import Sequence, Union

import numpy as np

from .errors import (
    DimensionError,
    MapSpecError,
    OutsideDomainError,
    SingularDifferentialError,
    VanishingDenominatorError,
)
from .jets import Jet, JetVector, jet_compose, jet_reciprocal, multi_indices

SINGULAR_TOL = 1e-12  # on sigma_min(DF) / sigma_max(DF)


class PolyMap:
    """Polynomial map with exact coefficient tables.

    ``components[l]`` maps exponent tuples of length ``n`` to complex
    coefficients of component ``l``.
    """

    def __init__(self, n: int, components: Sequence[dict]):
        if len(components) != n:
            raise DimensionError("polynomial map needs one component per variable")
        self.n = int(n)
        comps = []
        for comp in components:
            table = {}
            for key, val in comp.items():
                key = tuple(int(e) for e in key)
                if len(key) != n or any(e < 0 for e in key):
                    raise DimensionError(f"bad exponent tuple {key} for n={n}")
                val = complex(val)
                if not cmath.isfinite(val):
                    raise MapSpecError(f"non-finite coefficient {val} at {key}")
                if val != 0:
                    table[key] = table.get(key, 0j) + val
            comps.append(table)
        self.components = tuple(comps)


class MoebiusMap:
    """Moebius transformation z -> (l_1/l_0, ..., l_n/l_0).

    Row ``i`` of the (n+1)x(n+1) grid ``a`` holds the affine form
    l_i(z) = a[i, 0] + sum_j a[i, j] z_j.  The grid must be nonsingular.
    """

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
            raise DimensionError("Moebius grid must be square of size n+1 >= 2")
        if not _sigma_ratio(a) > SINGULAR_TOL:
            raise MapSpecError("Moebius coefficient grid is singular")
        self.a = a
        self.n = a.shape[0] - 1


class CompositionMap:
    """Composition chain ``maps[0] o maps[1] o ... o maps[-1]``.

    The last entry is applied first.
    """

    def __init__(self, maps: Sequence["MapSpec"]):
        maps = tuple(maps)
        if not maps:
            raise DimensionError("empty composition chain")
        n = map_dim(maps[0])
        for m in maps:
            if map_dim(m) != n:
                raise DimensionError("composition chain mixes dimensions")
        self.maps = maps
        self.n = n


MapSpec = Union[PolyMap, MoebiusMap, CompositionMap]


def map_dim(m: MapSpec) -> int:
    if isinstance(m, (PolyMap, MoebiusMap, CompositionMap)):
        return m.n
    raise DimensionError(f"not a map spec: {type(m).__name__}")


def identity_map(n: int) -> PolyMap:
    return affine_map(np.eye(n))


def affine_map(matrix: np.ndarray, offset: Sequence[complex] | None = None) -> PolyMap:
    """Polynomial map z -> matrix @ z + offset."""
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise DimensionError("affine matrix must be square")
    offset = np.zeros(n, dtype=complex) if offset is None else np.asarray(offset, dtype=complex)
    comps = []
    for i in range(n):
        table = {}
        if offset[i] != 0:
            table[(0,) * n] = offset[i]
        for j in range(n):
            if matrix[i, j] != 0:
                key = tuple(1 if k == j else 0 for k in range(n))
                table[key] = matrix[i, j]
        comps.append(table)
    return PolyMap(n, comps)


def moebius_pole_at_e1(n: int) -> MoebiusMap:
    """The normalized Moebius map z -> z / (1 - z_1), polar set touching e_1."""
    a = np.zeros((n + 1, n + 1), dtype=complex)
    a[0, 0] = 1.0
    a[0, 1] = -1.0
    a[1:, 1:] = np.eye(n)
    return MoebiusMap(a)


# -- evaluation --------------------------------------------------------------


def map_eval(m: MapSpec, z: Sequence[complex]) -> np.ndarray:
    """Pointwise value of the map at ``z``."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    if len(z) != map_dim(m):
        raise DimensionError("point dimension does not match map dimension")
    if isinstance(m, PolyMap):
        out = np.zeros(m.n, dtype=complex)
        for i, comp in enumerate(m.components):
            total = 0j
            for key, val in comp.items():
                term = val
                for x, e in zip(z, key):
                    for _ in range(e):
                        term *= x
                total += term
            out[i] = total
        return out
    if isinstance(m, MoebiusMap):
        l = _affine_forms(m, z)
        return l[1:] / l[0]
    if isinstance(m, CompositionMap):
        w = z
        for part in reversed(m.maps):
            w = map_eval(part, w)
        return w
    raise DimensionError(f"not a map spec: {type(m).__name__}")


def _affine_forms(m: MoebiusMap, z: np.ndarray) -> np.ndarray:
    """The forms l(z) = a (1, z) of a Moebius map, with l_0(z) tested against zero.

    The test is relative to the largest entry of the grid, so a grid and its
    scalar multiples, which are one map, pass or fail together.
    """
    l = m.a @ np.concatenate(([1.0], z))
    if abs(l[0]) < 1e-14 * np.abs(m.a).max():
        raise VanishingDenominatorError("Moebius denominator vanishes at the point")
    return l


# -- jet expansion ------------------------------------------------------------


def _affine_jet(const, lin, d: int) -> Jet:
    """Jet of const + lin h, built as a valid table: no exact zeros, no linear terms at d = 0."""
    n = len(lin)
    table = {}
    if const != 0:
        table[(0,) * n] = complex(const)
    if d >= 1:
        for j in range(n):
            if lin[j] != 0:
                table[tuple(1 if k == j else 0 for k in range(n))] = complex(lin[j])
    return Jet._from_table(n, d, table)


def _rational_jet(num_const, num_lin, den_const, den_lin, d: int) -> JetVector:
    """Jet of (num_const + num_lin h) / (den_const + den_lin h) about h = 0."""
    inv_den = jet_reciprocal(_affine_jet(den_const, den_lin, d))
    return JetVector([_affine_jet(c, lin, d) * inv_den for c, lin in zip(num_const, num_lin)])


def _sigma_ratio(a: np.ndarray) -> float:
    """sigma_min / sigma_max of ``a``: 0 for a zero matrix, NaN for NaN or infinite entries."""
    try:
        sv = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:  # NaN entries; infinite ones give NaN values
        return float("nan")
    return float(sv[-1] / sv[0]) if sv[0] != 0 else 0.0


def check_nonsingular(df: np.ndarray, what: str) -> None:
    """Raise unless sigma_min(DF) > SINGULAR_TOL * sigma_max(DF).

    The test is relative, so a map and its scalings c F pass or fail
    together, as their Schwarzian tensors agree.
    """
    ratio = _sigma_ratio(df)
    if not ratio > SINGULAR_TOL:
        raise SingularDifferentialError(
            f"{what}: differential singular (sigma_min / sigma_max = {ratio:.3e})"
        )


class MapJet(JetVector):
    """Jet of a map about a center where DF has passed :func:`check_nonsingular`.

    :func:`map_jet_at` returns it, so consumers that need DF^{-1} (such as
    ``schwarzian_at``) need not test DF again.  Jets derived from it are
    plain :class:`JetVector` objects.
    """

    __slots__ = ()


def _check_locally_biholomorphic(jv: JetVector) -> MapJet:
    check_nonsingular(jv.linear_matrix(), "map at the expansion center")
    return MapJet(jv.jets)


def map_jet_at(m: MapSpec, zeta: Sequence[complex], d: int) -> MapJet:
    """Exact Taylor jet of the map about ``zeta`` to degree ``d``.

    Component ``i`` of the result is the jet of ``m_i(zeta + h)`` in the
    offset variables ``h``.  The differential at ``zeta`` must be
    nonsingular and rational denominators must not vanish there.
    """
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    n = map_dim(m)
    if len(zeta) != n:
        raise DimensionError("center dimension does not match map dimension")
    if isinstance(m, PolyMap):
        # exact recentering: each monomial (zeta + h)^e in use is built once,
        # as a smaller monomial times one factor zeta_k + h_k, and shared by
        # every component
        factors = [Jet.variable(n, d, k, center=zeta[k]) for k in range(n)]
        monomials = {(0,) * n: Jet.constant(n, d, 1.0)}

        def monomial(key: tuple[int, ...]) -> Jet:
            hit = monomials.get(key)
            if hit is None:
                k = max(i for i, e in enumerate(key) if e)
                hit = monomial(key[:k] + (key[k] - 1,) + key[k + 1:]) * factors[k]
                monomials[key] = hit
            return hit

        comps = []
        for comp in m.components:
            acc: dict[tuple[int, ...], complex] = {}
            for key, val in comp.items():
                for tk, tv in monomial(key).coeffs.items():
                    s = acc.get(tk, 0j) + val * tv
                    if s == 0:
                        acc.pop(tk, None)
                    else:
                        acc[tk] = s
            comps.append(Jet._from_table(n, d, acc))
        return _check_locally_biholomorphic(JetVector(comps))
    if isinstance(m, MoebiusMap):
        l = _affine_forms(m, zeta)
        return _check_locally_biholomorphic(
            _rational_jet(l[1:], m.a[1:, 1:], l[0], m.a[0, 1:], d)
        )
    if isinstance(m, CompositionMap):
        jv = map_jet_at(m.maps[-1], zeta, d)
        for part in m.maps[-2::-1]:
            w = jv.constants()
            jv = jet_compose(map_jet_at(part, w, d), jv.shifted(-w).jets)
        return _check_locally_biholomorphic(jv)
    raise DimensionError(f"not a map spec: {type(m).__name__}")


# -- ball automorphisms -------------------------------------------------------


def _unitary_with_first_column(w: np.ndarray) -> np.ndarray:
    """Unitary matrix whose first column is the unit vector ``w``."""
    w = np.asarray(w, dtype=complex).reshape(-1, 1)
    q, r = np.linalg.qr(w, mode="complete")
    u = q.copy()
    u[:, 0] = (q[:, 0] * r[0, 0]).reshape(-1)
    return u


def automorphism_from_center(zeta: Sequence[complex]) -> MoebiusMap:
    """Ball automorphism with sigma(0) = zeta and Id + O(|zeta|^2) differential.

    With s = sqrt(1 - |zeta|^2) the grid is
    [[1, zeta^H], [zeta, s Id + zeta zeta^H / (1 + s)]] / s, block-normalized
    so the three block identities hold; at zeta = 0 it is exactly the identity.
    """
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    n = len(zeta)
    r = float(np.linalg.norm(zeta))
    if r >= 1.0:
        raise OutsideDomainError(f"center must lie in the open unit ball (|zeta| = {r:.6f})")
    s = np.sqrt(1.0 - r * r)
    a = np.empty((n + 1, n + 1), dtype=complex)
    a[0, 0] = 1.0
    a[0, 1:] = np.conj(zeta)
    a[1:, 0] = zeta
    a[1:, 1:] = s * np.eye(n) + np.outer(zeta, np.conj(zeta)) / (1.0 + s)
    return MoebiusMap(a / s)


def automorphism_validate(sigma: MoebiusMap) -> tuple[float, float, float]:
    """Residuals of the three block identities of a ball automorphism.

    The blocks of (Az + B)/(Cz + D) are read from the grid [[D, C], [B, A]].
    ``max`` of the three is the residual the ``automorphism`` map-file loader
    tests.
    """
    n = sigma.n
    dd, c, b, a = sigma.a[0, 0], sigma.a[0, 1:], sigma.a[1:, 0], sigma.a[1:, 1:]
    r1 = float(np.max(np.abs(a.T @ a.conj() - np.outer(c, c.conj()) - np.eye(n))))
    r2 = float(abs(abs(dd) ** 2 - complex(b @ b.conj()) - 1.0))
    r3 = float(np.max(np.abs(a.T @ b.conj() - c * np.conj(dd))))
    return r1, r2, r3


# -- deterministic samplers used by verification suites -----------------------


def random_ball_point(n: int, rng: np.random.Generator, r_max: float = 0.9) -> np.ndarray:
    """Random point with |z| <= r_max, radially uniform enough for sampling duty."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return v * (r_max * rng.random() ** (1.0 / (2 * n)))


def random_moebius(n: int, rng: np.random.Generator) -> MoebiusMap:
    """Random Moebius map that is defined on |z| <= 0.9 and well conditioned.

    The denominator row is kept close to the constant 1 so l_0 cannot vanish
    inside the sampling radius; grids with small determinant are resampled.
    """
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


def random_normalized_polymap(
    n: int,
    rng: np.random.Generator,
    scale: float = 0.1,
) -> PolyMap:
    """Random cubic map with F(0) = 0, DF(0) = Id and small higher terms."""
    comps = []
    for i in range(n):
        table = {tuple(1 if k == i else 0 for k in range(n)): 1.0 + 0j}
        for key in (k for k in multi_indices(n, 3) if sum(k) >= 2):
            c = scale * (rng.standard_normal() + 1j * rng.standard_normal())
            table[key] = c
        comps.append(table)
    return PolyMap(n, comps)

