"""Koebe transforms and order functionals of normalized maps.

A normalized map satisfies G(0) = 0, DG(0) = Id.  The Koebe transform

    G = Dsigma(0)^{-1} DF(zeta)^{-1} [ F o sigma - F(zeta) ],

with sigma the ball automorphism moving the origin to zeta, renormalizes F
after precomposition and is the linear-invariance machine for the family
{ ||S F|| <= alpha }.  The per-map order functionals implemented here are the
trace order (half the Euclidean length of grad JG(0), equal to the supremum
form over unit directions) and the norm order (half the maximal Euclidean
length of the second-derivative quadratic map over the unit sphere).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NormalizationError
from .bergman import NormEstimate, max_quadratic_image_norm, schwarzian_norm_sup
from .jets import JetVector, jet_compose, jet_det, jet_jacobian
from .maps import (
    CompositionMap,
    MapSpec,
    affine_map,
    automorphism_from_center,
    map_dim,
    map_eval,
    map_jet_at,
)

NORMALIZATION_TOL = 1e-12
MEMBERSHIP_EPS = 1e-6


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
        const = np.max(np.abs(jv.constants()))
        lin = np.max(np.abs(jv.linear_matrix() - np.eye(jv.n)))
        if const > NORMALIZATION_TOL or lin > NORMALIZATION_TOL:
            raise NormalizationError(
                f"jet not normalized: |G(0)| = {const:.3e}, |DG(0) - Id| = {lin:.3e}"
            )

    @property
    def n(self) -> int:
        return self.jets.n

    @property
    def d(self) -> int:
        return self.jets.d


@dataclass(frozen=True)
class OrderFunctionals:
    """Per-map order data; 2 * trace_order = |grad_jf| is enforced on build."""

    trace_order: float
    grad_jf: np.ndarray
    norm_order: float

    def __post_init__(self):
        gap = abs(2.0 * self.trace_order - float(np.linalg.norm(self.grad_jf)))
        if gap > 1e-10:
            raise NormalizationError(f"trace order inconsistent with gradient ({gap:.3e})")


def koebe_transform(m: MapSpec, zeta, d: int = 4) -> NormalizedJet:
    """Normalized jet of the Koebe transform of the map at center ``zeta``."""
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    sigma = automorphism_from_center(zeta)
    j_sigma = map_jet_at(sigma, np.zeros(len(zeta), dtype=complex), d)
    ds0 = j_sigma.linear_matrix()
    # expand F at the automorphism's own image of 0 (equal to zeta up to
    # rounding) so the composition recenters exactly
    sigma0 = j_sigma.constants()
    j_f = map_jet_at(m, sigma0, d)
    dfz = j_f.linear_matrix()
    w0 = j_f.constants()
    centered_sigma = j_sigma.shifted(-sigma0)
    composed = [jet_compose(j_f[l], centered_sigma.jets) for l in range(len(j_f))]
    composed = JetVector(composed).shifted(-w0)
    mat = np.linalg.inv(dfz @ ds0)
    out = []
    for i in range(len(composed)):
        acc = composed[0] * mat[i, 0]
        for j in range(1, len(composed)):
            if mat[i, j] != 0:
                acc = acc + composed[j] * mat[i, j]
        out.append(acc)
    return NormalizedJet(JetVector(out))


def koebe_map(m: MapSpec, zeta) -> MapSpec:
    """The Koebe transform as a composable map (affine o F o sigma)."""
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    sigma = automorphism_from_center(zeta)
    j_sigma = map_jet_at(sigma, np.zeros(len(zeta), dtype=complex), 1)
    j_f = map_jet_at(m, zeta, 1)
    mat = np.linalg.inv(j_f.linear_matrix() @ j_sigma.linear_matrix())
    w0 = map_eval(m, zeta)
    post = affine_map(mat, -mat @ w0)
    return CompositionMap((post, m, sigma))


def grad_jacobian(g: NormalizedJet | JetVector) -> np.ndarray:
    """grad(JG)(0) read off the degree-1 part of the Jacobian determinant jet."""
    jv = g.jets if isinstance(g, NormalizedJet) else g
    return jet_det(jet_jacobian(jv)).derivatives(1)


def trace_order_functional(g: NormalizedJet) -> float:
    """Half the supremum over unit directions of the trace form.

    The supremum form equals the Euclidean length of the coefficient vector
    c_i = sum_j d^2 g_j/dz_i dz_j(0); for normalized maps this vector is
    grad(JG)(0), and both routes are computed and required to agree.
    """
    c = np.einsum("jij->i", g.jets.derivatives(2))
    grad = grad_jacobian(g)
    if abs(np.linalg.norm(c) - np.linalg.norm(grad)) > 1e-10:
        raise NormalizationError("trace supremum form disagrees with grad(JG)(0)")
    return 0.5 * float(np.linalg.norm(c))


def norm_order_functional(g: NormalizedJet, starts: int = 16, seed: int = 0) -> float:
    """Half of sup_{|w|=1} |D^2 G(0)(w, w)| in Euclidean norms (sphere optimizer)."""
    h = g.jets.derivatives(2)
    eye = np.eye(g.n, dtype=complex)
    value, _, _ = max_quadratic_image_norm(h, eye, eye, starts=starts, seed=seed)
    return 0.5 * value


def order_functionals(g: NormalizedJet, starts: int = 16, seed: int = 0) -> OrderFunctionals:
    """Trace order, Jacobian gradient, and norm order of a normalized jet."""
    grad = grad_jacobian(g)
    return OrderFunctionals(
        trace_order=trace_order_functional(g),
        grad_jf=grad,
        norm_order=norm_order_functional(g, starts=starts, seed=seed),
    )


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


def normalize_map(m: MapSpec) -> tuple[MapSpec, bool]:
    """Return (affine-postcomposed normalization of m, whether m already was)."""
    n = map_dim(m)
    origin = np.zeros(n, dtype=complex)
    jv = map_jet_at(m, origin, 1)
    w0 = jv.constants()
    d0 = jv.linear_matrix()
    if np.max(np.abs(w0)) <= NORMALIZATION_TOL and np.max(np.abs(d0 - np.eye(n))) <= NORMALIZATION_TOL:
        return m, True
    mat = np.linalg.inv(d0)
    return CompositionMap((affine_map(mat, -mat @ w0), m)), False


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
    if alpha < 0:
        raise DimensionError("family level alpha must be non-negative")
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

