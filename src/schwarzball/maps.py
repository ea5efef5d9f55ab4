"""Exact map classes on the unit ball and their jet expansions.

Three kinds of locally biholomorphic maps are supported: polynomial maps,
Moebius transformations (ratios of affine forms), and composition chains of
the above.  Automorphisms of the unit ball, (Az + B)/(Cz + D) in block form,
are the Moebius maps with grid [[D, C], [B, A]]; :func:`automorphism_validate`
reads the blocks back from the grid.  Every map can be expanded into an exact
Taylor jet about any admissible center; rational denominators are expanded by
a truncated geometric series, so no numerical differentiation is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
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

SINGULAR_TOL = 1e-12


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
                if val != 0:
                    table[key] = table.get(key, 0j) + val
            comps.append(table)
        self.components = tuple(comps)

    @property
    def degree(self) -> int:
        return max((sum(k) for c in self.components for k in c), default=0)


class MoebiusMap:
    """Moebius transformation z -> (l_1/l_0, ..., l_n/l_0).

    Row ``i`` of the (n+1)x(n+1) grid ``a`` holds the affine form
    l_i(z) = a[i, 0] + sum_j a[i, j] z_j.  The grid must be nonsingular.
    """

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
            raise DimensionError("Moebius grid must be square of size n+1 >= 2")
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-1] <= 1e-12 * max(sv[0], 1.0):
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
    comps = []
    for i in range(n):
        key = tuple(1 if k == i else 0 for k in range(n))
        comps.append({key: 1.0})
    return PolyMap(n, comps)


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


def unitary_automorphism(u: np.ndarray) -> MoebiusMap:
    """Automorphism z -> Uz for unitary U."""
    u = np.asarray(u, dtype=complex)
    a = np.eye(u.shape[0] + 1, dtype=complex)
    a[1:, 1:] = u
    return MoebiusMap(a)


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
        zh = np.concatenate(([1.0], z))
        l = m.a @ zh
        if abs(l[0]) < 1e-14:
            raise VanishingDenominatorError("Moebius denominator vanishes at the point")
        return l[1:] / l[0]
    if isinstance(m, CompositionMap):
        w = z
        for part in reversed(m.maps):
            w = map_eval(part, w)
        return w
    raise DimensionError(f"not a map spec: {type(m).__name__}")


# -- jet expansion ------------------------------------------------------------


def _rational_jet(num_const, num_lin, den_const, den_lin, d: int) -> JetVector:
    """Jet of (num_const + num_lin h) / (den_const + den_lin h) about h = 0."""
    n = num_lin.shape[1]
    if abs(den_const) < 1e-14:
        raise VanishingDenominatorError("denominator vanishes at the expansion center")
    den_table = {(0,) * n: complex(den_const)}
    for j in range(n):
        if den_lin[j] != 0:
            key = tuple(1 if k == j else 0 for k in range(n))
            den_table[key] = complex(den_lin[j])
    inv_den = jet_reciprocal(Jet(n, d, den_table))
    comps = []
    for i in range(num_lin.shape[0]):
        table = {(0,) * n: complex(num_const[i])}
        for j in range(n):
            if num_lin[i, j] != 0:
                key = tuple(1 if k == j else 0 for k in range(n))
                table[key] = complex(num_lin[i, j])
        comps.append(Jet(n, d, table) * inv_den)
    return JetVector(comps)


def _check_locally_biholomorphic(jv: JetVector) -> JetVector:
    det = np.linalg.det(jv.linear_matrix())
    if abs(det) < SINGULAR_TOL:
        raise SingularDifferentialError(
            f"map differential singular at the center (|det DF| = {abs(det):.3e})"
        )
    return jv


def map_jet_at(m: MapSpec, zeta: Sequence[complex], d: int) -> JetVector:
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
        # exact recentering through cached powers of (zeta_k + h_k)
        max_exp = [0] * n
        for comp in m.components:
            for key in comp:
                for k, e in enumerate(key):
                    max_exp[k] = max(max_exp[k], e)
        powers = []
        for k in range(n):
            row = [Jet.constant(n, d, 1.0)]
            var = Jet.variable(n, d, k, center=zeta[k])
            for _ in range(max_exp[k]):
                row.append(row[-1] * var)
            powers.append(row)
        comps = []
        for comp in m.components:
            acc = Jet.zero(n, d)
            for key, val in comp.items():
                term = Jet.constant(n, d, val)
                for k, e in enumerate(key):
                    if e:
                        term = term * powers[k][e]
                acc = acc + term
            comps.append(acc)
        return _check_locally_biholomorphic(JetVector(comps))
    if isinstance(m, MoebiusMap):
        zh = np.concatenate(([1.0], zeta))
        l = m.a @ zh
        return _check_locally_biholomorphic(
            _rational_jet(l[1:], m.a[1:, 1:], l[0], m.a[0, 1:], d)
        )
    if isinstance(m, CompositionMap):
        jv = map_jet_at(m.maps[-1], zeta, d)
        for part in m.maps[-2::-1]:
            jv = _compose_jet_step(part, jv, d)
        return _check_locally_biholomorphic(jv)
    raise DimensionError(f"not a map spec: {type(m).__name__}")


def _compose_jet_step(outer: MapSpec, inner_jet: JetVector, d: int) -> JetVector:
    w = inner_jet.constants()
    outer_jet = map_jet_at(outer, w, d)
    centered = inner_jet.shifted(-w)
    return JetVector([jet_compose(outer_jet[i], centered.jets) for i in range(len(outer_jet))])


def compose_maps(outer: MapSpec, inner: MapSpec, center: Sequence[complex], d: int) -> JetVector:
    """Jet of ``outer o inner`` about ``center`` to degree ``d``."""
    inner_jet = map_jet_at(inner, center, d)
    return _compose_jet_step(outer, inner_jet, d)


# -- ball automorphisms -------------------------------------------------------


def _unitary_with_first_column(w: np.ndarray) -> np.ndarray:
    """Unitary matrix whose first column is the unit vector ``w``."""
    w = np.asarray(w, dtype=complex).reshape(-1, 1)
    q, r = np.linalg.qr(w, mode="complete")
    u = q.copy()
    u[:, 0] = (q[:, 0] * r[0, 0]).reshape(-1)
    return u


def _axis_automorphism(n: int, zeta1: complex) -> MoebiusMap:
    """Automorphism moving the origin to (zeta1, 0, ..., 0), |zeta1| < 1.

    Block-normalized so the three block identities hold exactly: the plain
    moving-the-origin form is rescaled by 1/sqrt(1 - |zeta1|^2).
    """
    s = np.sqrt(1.0 - abs(zeta1) ** 2)
    a = np.eye(n + 1, dtype=complex)
    a[0, 0] = a[1, 1] = 1.0 / s
    a[1, 0] = zeta1 / s
    a[0, 1] = np.conj(zeta1) / s
    return MoebiusMap(a)


def automorphism_from_center(zeta: Sequence[complex]) -> MoebiusMap:
    """Ball automorphism with sigma(0) = zeta and Id + O(|zeta|^2) differential.

    For an axis-aligned center the explicit one-parameter automorphism is
    used directly; a general center is handled by conjugating with a unitary
    that sends |zeta| e_1 to zeta.
    """
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    n = len(zeta)
    r = float(np.linalg.norm(zeta))
    if r >= 1.0:
        raise OutsideDomainError(f"center must lie in the open unit ball (|zeta| = {r:.6f})")
    if r == 0.0:
        return MoebiusMap(np.eye(n + 1, dtype=complex))
    if np.all(zeta[1:] == 0):
        return _axis_automorphism(n, zeta[0])
    q = unitary_automorphism(_unitary_with_first_column(zeta / r)).a
    return MoebiusMap(q @ _axis_automorphism(n, r).a @ q.conj().T)


@dataclass
class AutomorphismReport:
    """Residuals of the three block identities plus a ball-containment sample."""

    identity_residuals: tuple[float, float, float]
    max_residual: float
    max_image_norm: float
    ball_ok: bool


def automorphism_validate(sigma: MoebiusMap, samples: int = 200, seed: int = 0) -> AutomorphismReport:
    """Report block-identity residuals and sample that sigma maps the ball into itself.

    The blocks of (Az + B)/(Cz + D) are read from the grid [[D, C], [B, A]].
    """
    n = sigma.n
    dd, c, b, a = sigma.a[0, 0], sigma.a[0, 1:], sigma.a[1:, 0], sigma.a[1:, 1:]
    r1 = float(np.max(np.abs(a.T @ a.conj() - np.outer(c, c.conj()) - np.eye(n))))
    r2 = float(abs(abs(dd) ** 2 - complex(b @ b.conj()) - 1.0))
    r3 = float(np.max(np.abs(a.T @ b.conj() - c * np.conj(dd))))
    rng = np.random.default_rng(seed)
    max_norm = 0.0
    ok = True
    for _ in range(samples):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        z = v * (0.999 * rng.random() ** (1.0 / (2 * n)))
        try:
            img = map_eval(sigma, z)
        except VanishingDenominatorError:
            ok = False
            continue
        nn = float(np.linalg.norm(img))
        max_norm = max(max_norm, nn)
        if nn >= 1.0:
            ok = False
    return AutomorphismReport((r1, r2, r3), max(r1, r2, r3), max_norm, ok)


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
    degree: int = 3,
) -> PolyMap:
    """Random polynomial map with F(0) = 0, DF(0) = Id and small higher terms."""
    comps = []
    for i in range(n):
        table = {tuple(1 if k == i else 0 for k in range(n)): 1.0 + 0j}
        for key in (k for k in multi_indices(n, degree) if sum(k) >= 2):
            c = scale * (rng.standard_normal() + 1j * rng.standard_normal())
            table[key] = c
        comps.append(table)
    return PolyMap(n, comps)

