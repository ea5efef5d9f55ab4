"""Koebe transforms and order functionals of normalized maps.

A normalized map satisfies G(0) = 0, DG(0) = Id.  The Koebe transform of F
at zeta is the normalization of F o sigma, with sigma the ball automorphism
moving the origin to zeta,

    G = D(F o sigma)(0)^{-1} [ F o sigma - F(zeta) ],

and is the linear-invariance machine for the family { ||S F|| <= alpha }.
The per-map order functionals implemented here are the trace order (half the
Euclidean length of grad JG(0)) and the norm order (half the maximal
Euclidean length of the second-derivative quadratic map over the unit
sphere).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NormalizationError
from .bergman import NormEstimate, max_quadratic_image_norm, schwarzian_norm_sup
from .jets import JetVector, jet_det, jet_jacobian
from .maps import (
    CompositionMap,
    MapSpec,
    affine_map,
    automorphism_from_center,
    map_dim,
    map_jet_at,
)

NORMALIZATION_TOL = 1e-12
MEMBERSHIP_EPS = 1e-6


def normalization_residual(jets: JetVector) -> float:
    """max(|G(0)|, |DG(0) - Id|) in the max norm; NaN if an entry is NaN."""
    gap = np.column_stack([jets.constants(), jets.linear_matrix() - np.eye(jets.n)])
    return float(np.max(np.abs(gap)))


@dataclass(frozen=True)
class NormalizedJet:
    """Jet at the origin of a map with G(0) = 0 and DG(0) = Id."""

    jets: JetVector

    def __post_init__(self):
        jv = self.jets
        if len(jv) != jv.n:
            raise DimensionError("normalized jet must be square (n components in n variables)")
        if jv.d < 2:
            raise DimensionError("normalized jet needs degree >= 2")
        residual = normalization_residual(jv)
        if not residual <= NORMALIZATION_TOL:
            raise NormalizationError(
                f"jet not normalized: max(|G(0)|, |DG(0) - Id|) = {residual:.3e}"
            )

    @property
    def n(self) -> int:
        return self.jets.n

    @property
    def d(self) -> int:
        return self.jets.d


def normalize_map(m: MapSpec) -> tuple[MapSpec, bool]:
    """Return (affine-postcomposed normalization of m, whether m already was)."""
    n = map_dim(m)
    origin = np.zeros(n, dtype=complex)
    jv = map_jet_at(m, origin, 1)
    if normalization_residual(jv) <= NORMALIZATION_TOL:
        return m, True
    mat = np.linalg.inv(jv.linear_matrix())
    return CompositionMap((affine_map(mat, -mat @ jv.constants()), m)), False


def koebe_transform(m: MapSpec, zeta, d: int = 4) -> NormalizedJet:
    """Normalized jet at the origin, to degree ``d``, of :func:`koebe_map`."""
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    return NormalizedJet(map_jet_at(koebe_map(m, zeta), np.zeros(len(zeta), dtype=complex), d))


def koebe_map(m: MapSpec, zeta) -> MapSpec:
    """The Koebe transform as a composable map: the normalization of m o sigma."""
    return normalize_map(CompositionMap((m, automorphism_from_center(zeta))))[0]


def grad_jacobian(g: NormalizedJet) -> np.ndarray:
    """grad(JG)(0) read off the degree-1 part of the Jacobian determinant jet."""
    return jet_det(jet_jacobian(g.jets)).derivatives(1)


def trace_order_functional(g: NormalizedJet) -> float:
    """Half the Euclidean length of grad(JG)(0).

    ``checks.koebe`` compares it with the trace form, the length of
    c_i = sum_j d^2 g_j/dz_i dz_j(0), which equals grad(JG)(0) for a
    normalized map.
    """
    return 0.5 * float(np.linalg.norm(grad_jacobian(g)))


def norm_order_functional(g: NormalizedJet, starts: int = 16, seed: int = 0) -> float:
    """Half of sup_{|w|=1} |D^2 G(0)(w, w)| in Euclidean norms.

    Exact at n = 2, where ``starts`` and ``seed`` have no effect; a searched
    lower bound at n >= 3, from 2 BB steps, then saddle-free Riemannian Newton
    steps per start (see :func:`max_quadratic_image_norm`).
    """
    h = g.jets.derivatives(2)
    value, _, _ = max_quadratic_image_norm(h, np.eye(g.n), starts=starts, seed=seed)
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
    alpha: float
    epsilon: float
    was_normalized: bool


def membership_check(
    m: MapSpec,
    alpha: float,
    r_max: float = 0.9,
    shells: int = 7,
    angular: int = 50,
    starts: int = 16,
    seed: int = 0,
) -> MembershipResult:
    """Compare the searched norm lower bound against the family level alpha.

    Maps that are not normalized are normalized by affine postcomposition
    first (the Schwarzian norm is unchanged by it).
    """
    if not 0.0 <= alpha < np.inf:
        raise DimensionError("family level alpha must be finite and non-negative")
    normalized, already = normalize_map(m)
    est = schwarzian_norm_sup(
        normalized, r_max=r_max, shells=shells, angular=angular, starts=starts, seed=seed
    )
    # Optimistic: the estimate is a lower bound of the true norm, so estimates
    # above alpha certify non-membership while estimates within the epsilon
    # slack only fail to refute membership.
    member = est.value <= alpha + MEMBERSHIP_EPS
    return MembershipResult(
        member=member,
        margin=float(alpha - est.value),
        estimate=est,
        alpha=float(alpha),
        epsilon=MEMBERSHIP_EPS,
        was_normalized=already,
    )

