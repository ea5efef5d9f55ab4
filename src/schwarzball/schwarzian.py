"""Several-variable Schwarzian tensors and their transformation rules.

For a locally biholomorphic map F = (f_1, ..., f_n) the tensor entries are

    S^k_ij F = sum_l (d^2 f_l / dz_i dz_j) (DF^{-1})_{k l}
               - (delta^k_i d_j + delta^k_j d_i) (log JF) / (n + 1),

together with the S^0_ij coefficients fixed by the requirement that
u_0 = (JF)^{-1/(n+1)} solves the associated second-order linear system

    d^2 u / dz_i dz_j = sum_k S^k_ij d_k u + S^0_ij u.

Both are computed from the derivative arrays DF, D^2F and D^3F at the point.
The log-derivatives of JF come from Jacobi's formula,

    d_i log JF  = tr(DF^{-1} d_i DF),
    d_ij log JF = tr(DF^{-1} d_ij DF) - tr(DF^{-1} d_j DF DF^{-1} d_i DF),

and with g = grad log JF, H = Hess log JF and p = -1/(n+1) the solution
property gives S^0 = p^2 g g^T + p H - sum_k S^k (p g)_k.  No power or
logarithm of JF is taken, so the tensors are defined wherever DF is
invertible, whatever the phase of JF.  ``pde_residual`` re-derives both
sides of the linear system through an independent jet route (a jet power of
the Jacobian determinant) as a regression guard.  Tensors vanish exactly on
Moebius maps and obey the composition rule implemented in
:func:`chain_rule_transform`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasePointMismatchError,
    DimensionError,
    SingularDifferentialError,
)
from .jets import JetVector, jet_compose, jet_det, jet_jacobian, jet_pow
from .maps import MapSpec, map_jet_at

MIN_JET_DEGREE = 3


@dataclass(frozen=True)
class SchwarzianTensor:
    """Schwarzian data of a map at a base point.

    ``Sk[k][i, j]`` holds S^{k+1}_ij (the n symmetric matrices of the
    quadratic-form operator) and ``S0[i, j]`` the zero-index coefficients.
    Both are symmetrized on construction.
    """

    z: np.ndarray
    Sk: np.ndarray
    S0: np.ndarray

    @property
    def n(self) -> int:
        return self.Sk.shape[0]

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.Sk)), np.max(np.abs(self.S0))))


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def schwarzian_at(jv: JetVector, z=None) -> SchwarzianTensor:
    """Schwarzian tensor from the jet of F at a point.

    Parameters
    ----------
    jv : JetVector
        Jet of the map about the base point, degree >= 3, with nonsingular
        linear part.
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
    if abs(np.linalg.det(dmat)) < 1e-12:
        raise SingularDifferentialError("differential singular at the base point")
    dinv = np.linalg.inv(dmat)
    d2f = jv.derivatives(2)  # d2f[l, i, j] = d^2 f_l / dz_i dz_j
    d3f = jv.derivatives(3)

    # m[i] = DF^{-1} d_i DF; Jacobi's formula gives the log-derivatives of JF
    m = np.einsum("kl,lij->ikj", dinv, d2f)
    glog = np.einsum("ikk->i", m)
    hlog = np.einsum("kl,lijk->ij", dinv, d3f) - np.einsum("jab,iba->ij", m, m)

    p = -1.0 / (n + 1)
    sk = np.swapaxes(m, 0, 1)
    for k in range(n):
        sk[k, k, :] += p * glog
        sk[k, :, k] += p * glog
    sk = _symmetrize(sk)
    s0 = p * p * np.outer(glog, glog) + p * hlog - np.einsum("kij,k->ij", sk, p * glog)
    return SchwarzianTensor(z=z, Sk=sk, S0=_symmetrize(s0))


def schwarzian_of(m: MapSpec, z, degree: int = MIN_JET_DEGREE) -> SchwarzianTensor:
    """Convenience wrapper: expand the map at ``z`` and build its tensor."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    return schwarzian_at(map_jet_at(m, z, degree), z=z)


def schwarzian_apply(t: SchwarzianTensor, v) -> np.ndarray:
    """Quadratic-form operator value (v^t S^1 v, ..., v^t S^n v)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if len(v) != t.n:
        raise DimensionError("direction dimension does not match tensor dimension")
    return np.einsum("kij,i,j->k", t.Sk, v, v)


def canonical_residual(t: SchwarzianTensor) -> float:
    """max_i |sum_j S^j_ij|, identically zero for genuine Schwarzian tensors."""
    n = t.n
    return float(max(abs(sum(t.Sk[j, i, j] for j in range(n))) for i in range(n)))


def pde_residual(jv: JetVector, z=None) -> float:
    """Residual of the u_0 solution property, evaluated through jet powers.

    Both sides of d^2_ij u_0 = sum_k S^k_ij d_k u_0 + S^0_ij u_0 are
    recomputed from scratch: the tensor by the derivative-array route of
    :func:`schwarzian_at`, the u_0 derivatives from ``jet_pow`` applied to the
    Jacobian-determinant jet.  Nonzero output means the two differentiation
    routes disagree.
    """
    t = schwarzian_at(jv, z=z)
    p = -1.0 / (jv.n + 1)
    jf_jet = jet_det(jet_jacobian(jv))
    jf0 = jf_jet.constant_term
    # (JF / JF(z))^p has constant term 1, off the cut; the scalar JF(z)^p
    # restores the scale of u_0 on any branch
    u0_jet = jet_pow(jf_jet * (1.0 / jf0), p) * cmath.exp(p * cmath.log(jf0))
    rhs = np.einsum("kij,k->ij", t.Sk, u0_jet.derivatives(1)) + t.S0 * u0_jet.constant_term
    return float(np.max(np.abs(u0_jet.derivatives(2) - rhs)))


def chain_rule_transform(
    t_f: SchwarzianTensor,
    t_g: SchwarzianTensor,
    jet_f: JetVector,
    jet_g: JetVector,
) -> SchwarzianTensor:
    """Schwarzian tensor of G o F at z from the tensors of F at z and G at F(z).

    The k >= 1 matrices follow the composition rule

        S^k_ij(G o F) = S^k_ij F + sum_{l,m,r} S^r_lm G (DF)_li (DF)_mj (DF^{-1})_kr,

    applied to the tensors as given.  The S^0 block has no such finite rule,
    so it is recomputed from the composed jet; ``jet_f`` supplies DF(z), the
    base-point consistency check F(z) = t_g.z, and the composition input.
    """
    n = t_f.n
    if t_g.n != n or jet_f.n != n or jet_g.n != n:
        raise DimensionError("chain rule inputs mix dimensions")
    w = jet_f.constants()
    if np.max(np.abs(w - t_g.z)) > 1e-9:
        raise BasePointMismatchError(
            "outer tensor base point does not equal F(z) from the inner jet"
        )
    df = jet_f.linear_matrix()
    if abs(np.linalg.det(df)) < 1e-12:
        raise SingularDifferentialError("DF(z) singular in chain rule")
    dfinv = np.linalg.inv(df)
    pulled = np.einsum("li,rlm,mj->rij", df, t_g.Sk, df)
    sk = t_f.Sk + np.einsum("kr,rij->kij", dfinv, pulled)
    sk = _symmetrize(sk)
    centered = jet_f.shifted(-w)
    composed = JetVector([jet_compose(jet_g[l], centered.jets) for l in range(n)])
    s0 = schwarzian_at(composed, z=t_f.z).S0
    return SchwarzianTensor(z=t_f.z, Sk=sk, S0=s0)
