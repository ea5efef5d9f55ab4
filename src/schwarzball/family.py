"""Koebe transforms and order functionals of normalized maps.

A normalized map satisfies G(0) = 0, DG(0) = Id.  The Koebe transform of F
at zeta is the normalization of F o sigma, with sigma the ball automorphism
moving the origin to zeta,

    G = D(F o sigma)(0)^{-1} [ F o sigma - F(zeta) ],

and is the linear-invariance machine for the family { ||S F|| <= alpha }.
The per-map order functionals implemented here are the trace order (half the
Euclidean length of grad JG(0)) and the norm order (half the maximal
Euclidean length of the second-derivative quadratic map over the unit
sphere).  Both read D^2 G(0) from the derivative arrays of the map kind
(``maps._derivatives``), the route the Schwarzian tensors use;
:func:`jet_grad_jacobian` differentiates the Jacobian-determinant jet instead
and serves as the oracle ``checks.koebe`` compares the trace form with.
:func:`_koebe_gradients` gives grad JG(0) of the Koebe transforms at a stack
of centers in closed form, from DF and D^2F at the centers, with no composed
map; :func:`koebe_map` with :func:`grad_jacobian` is its independent route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NormalizationError
from .bergman import NormEstimate, max_quadratic_image_norm, schwarzian_norm_sup
from .jets import jet_det, jet_jacobian
from .maps import (
    CompositionMap,
    MapSpec,
    _center_scales,
    _derivatives,
    affine_map,
    automorphism_from_center,
    map_dim,
    map_jet_at,
)
from .schwarzian import _jacobi

NORMALIZATION_TOL = 1e-12
MEMBERSHIP_EPS = 1e-6


def _at_origin(m: MapSpec, order: int) -> list[np.ndarray]:
    """[F(0), DF(0), ..., D^order F(0)] of the map, without the point axis."""
    return [a[0] for a in _derivatives(m, np.zeros((1, map_dim(m)), dtype=complex), order)]


def _residual(value: np.ndarray, d1: np.ndarray) -> float:
    """max(|F(0)|, |DF(0) - Id|) in the max norm; NaN if an entry is NaN."""
    return float(np.max(np.abs(np.column_stack([value, d1 - np.eye(len(value))]))))


def _normalized(g: MapSpec, order: int) -> list[np.ndarray]:
    """[G(0), DG(0), ..., D^order G(0)] of a normalized map.

    Raises NormalizationError unless max(|G(0)|, |DG(0) - Id|) <= NORMALIZATION_TOL
    (NaN fails).
    """
    out = _at_origin(g, order)
    residual = _residual(out[0], out[1])
    if not residual <= NORMALIZATION_TOL:
        raise NormalizationError(f"map not normalized: max(|G(0)|, |DG(0) - Id|) = {residual:.3e}")
    return out


def normalization_residual(m: MapSpec) -> float:
    """max(|F(0)|, |DF(0) - Id|) in the max norm; NaN if an entry is NaN."""
    return _residual(*_at_origin(m, 1))


def normalize_map(m: MapSpec) -> tuple[MapSpec, bool]:
    """Return (affine-postcomposed normalization of m, whether m already was)."""
    value, d1 = _at_origin(m, 1)
    if _residual(value, d1) <= NORMALIZATION_TOL:
        return m, True
    mat = np.linalg.inv(d1)
    return CompositionMap((affine_map(mat, -mat @ value), m)), False


def koebe_map(m: MapSpec, zeta) -> MapSpec:
    """The Koebe transform as a composable map: the normalization of m o sigma."""
    return normalize_map(CompositionMap((m, automorphism_from_center(zeta))))[0]


def _koebe_gradients(m: MapSpec, zetas: np.ndarray) -> np.ndarray:
    """grad J(K_zeta F)(0) of the Koebe transforms of m at a stack (k, n) of centers, with no
    composed map built: one derivative call gives DF and D^2F at the centers.

    The transform's gradient is grad log J(F o sigma)(0) = D sigma(0)^T g + grad log
    J sigma(0), with g = grad log JF(zeta) from Jacobi's formula; with
    s = sqrt(1 - |zeta|^2) it is

        s g - s / (1 + s) conj(zeta) (zeta^T g) - (n + 1) conj(zeta).

    Scaling m or adding a constant changes nothing, so m need not be
    normalized.  Raises OutsideDomainError if a center has |zeta| >= 1, and
    SingularDifferentialError where DF is singular.
    """
    zetas = np.asarray(zetas, dtype=complex)
    s = _center_scales(zetas)[:, None]
    _, d1, d2 = _derivatives(m, zetas, 2)
    g = _jacobi(d1, d2)[2]
    conj = np.conj(zetas)
    along = (zetas[:, None] @ g[:, :, None])[:, 0]
    return s * g - s / (1.0 + s) * conj * along - (map_dim(m) + 1) * conj


def grad_jacobian(g: MapSpec) -> np.ndarray:
    """grad(JG)(0) of a normalized map, as the trace form c_i = sum_j d^2 g_j/dz_i dz_j(0).

    Jacobi's formula gives grad(JG)(0) = JG(0) tr(DG(0)^{-1} d_i DG(0)), which
    is the trace form where DG(0) = Id.
    """
    return np.einsum("jij->i", _normalized(g, 2)[2])


def jet_grad_jacobian(g: MapSpec) -> np.ndarray:
    """grad(JG)(0) read off the degree-1 part of the Jacobian-determinant jet (an oracle)."""
    jv = map_jet_at(g, np.zeros(map_dim(g), dtype=complex), 2)
    return jet_det(jet_jacobian(jv)).derivatives(1)


def trace_order_functional(g: MapSpec) -> float:
    """Half the Euclidean length of grad(JG)(0) of a normalized map."""
    return 0.5 * float(np.linalg.norm(grad_jacobian(g)))


def norm_order_functional(g: MapSpec, seed: int = 0) -> float:
    """Half of sup_{|w|=1} |D^2 G(0)(w, w)| in Euclidean norms, for a normalized map.

    Exact at n = 2, where ``seed`` has no effect; a searched lower bound at
    n >= 3, from the seeded multistart ascent of
    :func:`max_quadratic_image_norm`.
    """
    h = _normalized(g, 2)[2]
    value, _, _ = max_quadratic_image_norm(h, np.eye(len(h)), seed=seed)
    return 0.5 * value


@dataclass
class MembershipResult:
    """Optimistic membership verdict for the norm-bounded normalized family.

    The norm estimate is a searched lower bound of the true supremum, so
    ``member`` can overreport membership but never the reverse:
    non-membership verdicts are witnessed.
    """

    member: bool
    margin: float
    estimate: NormEstimate
    was_normalized: bool


def membership_check(m: MapSpec, alpha: float, seed: int = 0) -> MembershipResult:
    """Compare the searched norm lower bound against the family level alpha.

    The bound is :func:`schwarzian_norm_sup` with its default probe settings
    and the given seed.  Maps that are not normalized are normalized by
    affine postcomposition first (the Schwarzian norm is unchanged by it).
    """
    if not 0.0 <= alpha < np.inf:
        raise DimensionError("family level alpha must be finite and non-negative")
    normalized, already = normalize_map(m)
    est = schwarzian_norm_sup(normalized, seed=seed)
    # Optimistic: the estimate is a lower bound of the true norm, so estimates
    # above alpha certify non-membership while estimates within the epsilon
    # slack only fail to refute membership.
    member = est.value <= alpha + MEMBERSHIP_EPS
    return MembershipResult(
        member=member,
        margin=float(alpha - est.value),
        estimate=est,
        was_normalized=already,
    )

