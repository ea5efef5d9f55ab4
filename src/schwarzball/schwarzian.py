"""Several-variable Schwarzian tensors and their transformation rules.

For a locally biholomorphic map F = (f_1, ..., f_n) the tensor entries are

    S^k_ij F = sum_l (d^2 f_l / dz_i dz_j) (DF^{-1})_{k l}
               - (delta^k_i d_j + delta^k_j d_i) (log JF) / (n + 1),

together with the S^0_ij coefficients fixed by the requirement that
u_0 = (JF)^{-1/(n+1)} solves the associated second-order linear system

    d^2 u / dz_i dz_j = sum_k S^k_ij d_k u + S^0_ij u.

Both are computed from the derivative arrays DF, D^2F and D^3F at the point,
by one assembly with a leading point axis.  :func:`schwarzian_of`, the
production route, takes a point or a stack of points and reads the arrays
straight from the map kind (``maps._derivatives``), with no jets; a row of
a stack equals the same point alone, bit for bit.  :func:`schwarzian_ofs`
builds the tensors of many (map, points) cases with one derivative call and
one assembly per map kind and plan, in the calls ``maps._derivative_chunks``
sizes (the row cap ``maps.ROW_ENTRIES`` holds there, for every caller and
order); ``maps._derivative_rows`` puts each call's rows back in case order,
and each case gets what :func:`schwarzian_of`, its one-map case, gives.
:func:`schwarzian_at` reads them from a Taylor jet, a second route kept for
the tests.  The log-derivatives of JF come from Jacobi's formula,

    d_i log JF  = tr(DF^{-1} d_i DF),
    d_ij log JF = tr(DF^{-1} d_ij DF) - tr(DF^{-1} d_j DF DF^{-1} d_i DF),

and with g = grad log JF, H = Hess log JF and p = -1/(n+1) the solution
property gives S^0 = p^2 g g^T + p H - sum_k S^k (p g)_k.  No power or
logarithm of JF is taken, so the tensors are defined wherever DF is
invertible, whatever the phase of JF.  ``pde_residual`` checks a
:func:`schwarzian_of` tensor against u_0 derivatives from an independent
route (JF, grad JF and Hess JF off the Jacobian-determinant jet, and the
scalar power rule) as a regression guard.  Tensors vanish exactly on
Moebius maps and obey a finite composition rule in both blocks
(:func:`_chain_rule`), which :func:`chain_rule_transform` and
``checks.chain_rule`` apply with no composed jet, and
``variational.decoupled_residuals`` applies with a unitary inner map to
rotate the tensors at the origin.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import BasePointMismatchError, DimensionError
from .jets import JetVector, jet_det, jet_jacobian
from .maps import (
    MapSpec,
    _derivative_rows,
    _derivatives,
    check_nonsingular,
    map_dim,
    map_jet_at,
)

MIN_JET_DEGREE = 3


@dataclass(frozen=True)
class SchwarzianTensor:
    """Schwarzian data of a map at a base point, or at a stack of them.

    ``Sk[k][i, j]`` holds S^{k+1}_ij (the n symmetric matrices of the
    quadratic-form operator) and ``S0[i, j]`` the zero-index coefficients.
    Both are symmetrized on construction.  For a stack of points every array,
    ``z`` included, has a leading point axis.
    """

    z: np.ndarray
    Sk: np.ndarray
    S0: np.ndarray

    @property
    def n(self) -> int:
        return self.Sk.shape[-1]

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.Sk)), np.max(np.abs(self.S0))))


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _jacobi(d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DF^{-1}, m[q, k, i, j] = (DF^{-1} d_i DF)_kj and grad log JF = tr(DF^{-1} d_i DF)
    (Jacobi's formula) from DF and D^2F, each with a leading point axis."""
    count, n = d1.shape[:2]
    dinv = np.linalg.inv(d1)
    m = (dinv @ d2.reshape(count, n, n * n)).reshape(d2.shape)
    return dinv, m, sum(m[:, k, :, k] for k in range(n))


def _sk_block(m: np.ndarray, glog: np.ndarray) -> np.ndarray:
    """S^k, symmetrized, from m[q, k, i, j] = (DF^{-1} d_i DF)_kj and g = grad log JF
    (:func:`_jacobi`): S^k_ij = m_kij + p (delta^k_i g_j + delta^k_j g_i), p = -1/(n+1).

    It needs DF and D^2F only; :func:`_tensors` builds S^0 on top of it.
    """
    n = m.shape[1]
    pg = -1.0 / (n + 1) * glog
    sk = m.copy()
    for k in range(n):
        sk[:, k, k, :] += pg
        sk[:, k, :, k] += pg
    return _symmetrize(sk)


def _tensors(d1: np.ndarray, d2: np.ndarray, d3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S^k and S^0 from DF, D^2F and D^3F, each with a leading point axis.

    ``d2[q, l, i, j]`` is d^2 f_l / dz_i dz_j at point q, and so on.  Only
    stacked matrix products, stacked inverses and elementwise arithmetic are
    used, so each point's result does not depend on the stack it is in.
    """
    count, n = d1.shape[:2]
    dinv, m, glog = _jacobi(d1, d2)
    third = (dinv @ d3.reshape(count, n, n**3)).reshape(d3.shape)
    mi = np.swapaxes(m, 1, 2)  # mi[i] = DF^{-1} d_i DF
    # traces[i, j] = tr(mi[i] mi[j]), as products of flattened matrices
    traces = mi.reshape(count, n, n * n) @ np.swapaxes(mi, 2, 3).reshape(count, n, n * n).swapaxes(1, 2)
    hlog = sum(third[:, k, :, :, k] for k in range(n)) - traces

    p = -1.0 / (n + 1)
    pg = p * glog
    sk = _sk_block(m, glog)
    s0 = p * p * glog[:, :, None] * glog[:, None, :] + p * hlog - sum(
        sk[:, k] * pg[:, k, None, None] for k in range(n)
    )
    return sk, _symmetrize(s0)


def schwarzian_at(jv: JetVector, z=None) -> SchwarzianTensor:
    """Schwarzian tensor from the jet of F at a point.

    Parameters
    ----------
    jv : JetVector
        Jet of the map about the base point, degree >= 3, with nonsingular
        linear part (tested here).
    z : array_like, optional
        Base point recorded on the tensor (defaults to the origin).
    """
    n = jv.n
    if len(jv) != n:
        raise DimensionError("Schwarzian needs a square map (n components in n variables)")
    if n < 2:
        raise DimensionError("Schwarzian tensors require n >= 2")
    if jv.d < MIN_JET_DEGREE:
        raise DimensionError(f"jet degree {jv.d} < {MIN_JET_DEGREE} cannot carry third derivatives")
    z = np.zeros(n, dtype=complex) if z is None else np.asarray(z, dtype=complex).reshape(-1)
    dmat = jv.derivatives(1)
    check_nonsingular(dmat, "map at the base point")
    sk, s0 = _tensors(dmat[None], jv.derivatives(2)[None], jv.derivatives(3)[None])
    return SchwarzianTensor(z=z, Sk=sk[0], S0=s0[0])


def _points(m: MapSpec, z) -> np.ndarray:
    """``z`` as a complex point (n,) or stack of points (p, n) of the map's dimension n >= 2."""
    z = np.asarray(z, dtype=complex)
    n = map_dim(m)
    if z.ndim not in (1, 2) or z.shape[-1] != n:
        raise DimensionError("point dimension does not match map dimension")
    if n < 2:
        raise DimensionError("Schwarzian tensors require n >= 2")
    return z


def _tensor(z: np.ndarray, sk: np.ndarray, s0: np.ndarray) -> SchwarzianTensor:
    """The tensor at a point or a stack of points from its rows of S^k and S^0."""
    if z.ndim == 1:
        return SchwarzianTensor(z=z, Sk=sk[0], S0=s0[0])
    return SchwarzianTensor(z=z, Sk=sk, S0=s0)


def schwarzian_of(m: MapSpec, z) -> SchwarzianTensor:
    """Schwarzian tensor of the map at a point ``z`` (n,) or at a stack of points (p, n).

    The derivative arrays come straight from the map kind, with no jets; a
    stack gives tensors with a leading point axis, each row equal to its
    point's single call, and an empty stack (0, n) gives empty tensors.
    """
    z = _points(m, z)
    _, d1, d2, d3 = _derivatives(m, z.reshape(-1, z.shape[-1]), MIN_JET_DEGREE)
    return _tensor(z, *_tensors(d1, d2, d3))


def schwarzian_ofs(cases) -> list[SchwarzianTensor]:
    """Schwarzian tensors of many (map, z) cases, z a point or a stack of points.

    Entry i equals ``schwarzian_of`` of case i bit for bit.  The cases are
    grouped by dimension, map kind and plan, so each group takes one
    derivative call and one tensor assembly, split so that a call's order-3
    array holds at most ``maps.ROW_ENTRIES`` entries.  An empty list gives [].
    """
    cases = [(m, _points(m, z)) for m, z in cases]
    by_dim: dict[int, list[int]] = {}
    for i, (_, z) in enumerate(cases):
        by_dim.setdefault(z.shape[-1], []).append(i)
    out: list = [None] * len(cases)
    for n, members in by_dim.items():
        sk, s0 = _derivative_rows([(cases[i][0], cases[i][1].reshape(-1, n)) for i in members],
                                  MIN_JET_DEGREE, lambda d: _tensors(*d[1:]))
        lo = 0
        for i in members:
            z = cases[i][1]
            hi = lo + (len(z) if z.ndim == 2 else 1)
            out[i] = _tensor(z, sk[lo:hi], s0[lo:hi])
            lo = hi
    return out


def canonical_residual(t: SchwarzianTensor) -> float:
    """max_i |sum_j S^j_ij|, identically zero for genuine Schwarzian tensors; for a stack
    of points, the largest over its points (0 for an empty stack)."""
    n = t.n
    return max((float(max(abs(sum(sk[j, i, j] for j in range(n))) for i in range(n)))
                for sk in t.Sk.reshape((-1,) + t.Sk.shape[-3:])), default=0.0)


def _jacobian_ratios(m: MapSpec, z: np.ndarray) -> tuple[complex, np.ndarray, np.ndarray]:
    """JF(z), grad JF(z) / JF(z) and Hess JF(z) / JF(z), read off the Jacobian-determinant
    jet of m about the point z: the jet route, independent of the derivative arrays."""
    jf_jet = jet_det(jet_jacobian(map_jet_at(m, z, MIN_JET_DEGREE)))
    jf = jf_jet.constant_term
    return jf, jf_jet.derivatives(1) / jf, jf_jet.derivatives(2) / jf


def pde_residual(m: MapSpec, t: SchwarzianTensor) -> float:
    """Residual of the u_0 solution property of the tensor ``t`` of ``m`` at ``t.z``.

    In d^2_ij u_0 = sum_k S^k_ij d_k u_0 + S^0_ij u_0 the tensor is the one
    given (as :func:`schwarzian_of` builds it, from the derivative arrays of
    the map kind) and u_0 = JF^p, p = -1/(n+1), is differentiated by the
    scalar power rule from JF, grad JF and Hess JF at t.z, read off the
    Jacobian-determinant jet of the map about t.z (:func:`_jacobian_ratios`).
    Nonzero output means the two differentiation routes disagree.
    """
    z = t.z
    if z.ndim != 1:
        raise DimensionError("pde_residual checks the tensor at one point")
    p = -1.0 / (len(z) + 1)
    jf, a, b = _jacobian_ratios(m, z)
    # any branch of JF^p: the tensors depend only on the log-derivatives of JF
    u0 = cmath.exp(p * cmath.log(jf))
    du = p * u0 * a
    d2u = p * u0 * ((p - 1) * np.outer(a, a) + b)
    rhs = np.einsum("kij,k->ij", t.Sk, du) + t.S0 * u0
    return float(np.max(np.abs(d2u - rhs)))


def _chain_rule(sk_f: np.ndarray, s0_f: np.ndarray, sk_g: np.ndarray, s0_g: np.ndarray,
                d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S^k and S^0 of G o F at z from those of F at z, of G at F(z), and DF, D^2F at z,
    each with a leading point axis.

    With P^r = DF^T S^r G DF, p = -1/(n+1) and g = grad log JF (:func:`_jacobi`),

        S^k(G o F) = S^k F + sum_r (DF^{-1})_kr P^r,
        S^0(G o F) = S^0 F + DF^T S^0 G DF - p sum_k (DF^{-1} P)^k g_k,

    because (u o F) JF^p solves the system of G o F whenever u solves that of G.
    """
    count, n = d1.shape[:2]
    dinv, _, glog = _jacobi(d1, d2)
    d1t = np.swapaxes(d1, 1, 2)
    pulled = d1t[:, None] @ sk_g @ d1[:, None]
    q = (dinv @ pulled.reshape(count, n, n * n)).reshape(pulled.shape)
    p = -1.0 / (n + 1)
    s0 = s0_f + d1t @ s0_g @ d1 - p * sum(q[:, k] * glog[:, k, None, None] for k in range(n))
    return _symmetrize(sk_f + q), _symmetrize(s0)


def chain_rule_transform(
    t_f: SchwarzianTensor,
    t_g: SchwarzianTensor,
    jet_f: JetVector,
    jet_g: JetVector,
) -> SchwarzianTensor:
    """Schwarzian tensor of G o F at z from the tensors of F at z and G at F(z).

    Both blocks follow the finite composition rule of :func:`_chain_rule`,
    applied to the tensors as given.  Only F(z), DF(z) and D^2F(z) are read
    from ``jet_f``: F(z) for the base-point consistency check F(z) = t_g.z,
    DF and D^2F for the rule.  ``jet_g`` is checked for its dimension only.
    """
    n = t_f.n
    if t_g.n != n or jet_f.n != n or jet_g.n != n:
        raise DimensionError("chain rule inputs mix dimensions")
    if np.max(np.abs(jet_f.constants() - t_g.z)) > 1e-9:
        raise BasePointMismatchError(
            "outer tensor base point does not equal F(z) from the inner jet"
        )
    df = jet_f.derivatives(1)
    check_nonsingular(df, "inner map in the chain rule")
    sk, s0 = _chain_rule(t_f.Sk[None], t_f.S0[None], t_g.Sk[None], t_g.S0[None],
                         df[None], jet_f.derivatives(2)[None])
    return SchwarzianTensor(z=t_f.z, Sk=sk[0], S0=s0[0])
