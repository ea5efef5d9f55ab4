"""Variational diagnostics for the order of the norm-bounded family.

Given a normalized map F with Lambda = grad(JF)(0) and Schwarzian data at the
origin, the matrix

    A_ij = B_ij - (n+1) B0_ij + lambda_i lambda_j / (n+1),
    B_ij = sum_k S^k_ij(0) lambda_k,   B0_ij = S^0_ij(0),

equals the derivative at 0 of phi(zeta) = grad(JF)/JF(zeta), which feeds the
first-order expansion of the Koebe-transform gradient

    grad(JG)(0) = Lambda + A zeta - (n+1) conj(zeta) + O(|zeta|^2).

Maps extremal for the order satisfy the stationarity equation
A conj(Lambda) = (n+1) Lambda; after rotating Lambda to (lambda, 0, ..., 0)
with lambda >= 0 the equation decouples into one quadratic equation in
lambda and n-1 linear off-component equations.  ``variation_expansion_check``
samples the O(|zeta|^2) remainder of the expansion and reports the largest
ratio of its consecutive quotients remainder / |zeta|^2 (``ExpansionReport``);
the bound on that ratio is the ``variation`` suite's tolerance.  The module
also evaluates the closed-form order bounds and provides a penalized
derivative-free search for high-order maps inside norm-bounded subfamilies,
among them the poles z / (1 - <z, c>) (``maps.moebius_pole``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionError,
    InfeasibleSearchError,
    NormalizationError,
    SchwarzballError,
)
from .bergman import NormEstimate, schwarzian_norm_sup
from .family import grad_jacobian, koebe_map
from .jets import multi_indices
from .maps import (
    CompositionMap,
    MapSpec,
    PolyMap,
    affine_map,
    map_dim,
    moebius_pole,
    _unitary_with_first_column,
)
from .schwarzian import _jacobian_ratios, schwarzian_of

# weight of the squared norm excess in the extremal search's penalty
_PENALTY_WEIGHT = 1e3
# remainder scales and random directions of variation_expansion_check
EXPANSION_SCALES = (1e-1, 5e-2, 2.5e-2)
EXPANSION_DIRECTIONS = 3
# Nelder-Mead runs of the extremal search, the first from x0; each gets an
# equal share of the budget
SEARCH_RESTARTS = 3
# default radius of the search's norm estimate, and its probe settings
# (schwarzian_norm_sup's shells, angular, starts and refine)
SEARCH_R_MAX = 0.85
SEARCH_PROBE = dict(shells=4, angular=10, starts=6, refine=1)
# bound on the real and imaginary parts of the cubic subfamily's coefficients
CUBIC_BOX = 0.5


@dataclass(frozen=True)
class VariationReport:
    """First-variation data of a normalized map at the origin.

    ``extremal_residual`` measures |A conj(Lambda) - (n+1) Lambda|; it
    vanishes on maps extremal for the order (all Moebius normalizations of
    maximal gradient satisfy it, including rotated ones with complex Lambda).
    """

    Lam: np.ndarray
    B: np.ndarray
    B0: np.ndarray
    A: np.ndarray
    extremal_residual: float


@dataclass(frozen=True)
class BoundReport:
    """Closed-form order bounds for the norm-bounded family at level alpha.

    Built as evaluated: C_exact <= C_simple and lower_bound <= norm_ord_bound
    are checked by ``checks.bounds_grid`` and the ``bounds`` command.
    """

    n: int
    alpha: float
    C_exact: float
    C_simple: float
    ord_bound: float
    norm_ord_bound: float
    lower_bound: float


def matrix_A(m: MapSpec) -> VariationReport:
    """Assemble the first-variation matrix and the extremality residual of a normalized map."""
    n = map_dim(m)
    lam = grad_jacobian(m)
    t = schwarzian_of(m, np.zeros(n, dtype=complex))
    b = np.einsum("kij,k->ij", t.Sk, lam)
    a = b - (n + 1) * t.S0 + np.outer(lam, lam) / (n + 1)
    residual = float(np.linalg.norm(a @ np.conj(lam) - (n + 1) * lam))
    return VariationReport(Lam=lam, B=b, B0=t.S0.copy(), A=a, extremal_residual=residual)


def lemma31_check(m: MapSpec) -> float:
    """Max-norm gap between A and the directly differentiated phi = grad(JF)/JF.

    The direct route takes the Hessian of log JF at 0, Hess JF / JF - a a^T with
    a = grad JF / JF, from the determinant jet, bypassing the Schwarzian
    tensors entirely.
    """
    rep = matrix_A(m)
    _, a, b = _jacobian_ratios(m, np.zeros(map_dim(m), dtype=complex))
    return float(np.max(np.abs(b - np.outer(a, a) - rep.A)))


@dataclass
class ExpansionReport:
    """Second-order remainder scaling of the Koebe-gradient expansion."""

    errors: np.ndarray  # (directions, scales)
    max_ratio: float  # largest ratio of consecutive quotients remainder / s^2


def variation_expansion_check(m: MapSpec, seed: int = 0) -> ExpansionReport:
    """Check grad(JG)(0) = Lambda + A zeta - (n+1) conj(zeta) + O(|zeta|^2).

    For each of ``EXPANSION_DIRECTIONS`` random unit directions u (drawn from
    ``seed``) and each scale s of ``EXPANSION_SCALES`` the remainder at
    zeta = s u is divided by s^2, and ``max_ratio`` is the largest ratio of
    consecutive quotients, near 1 when both are near the same second-order
    coefficient (the ``variation`` suite allows 4).  Two exactly vanishing
    remainders (Moebius-flat cases) count as ratio 1.
    """
    scales = np.array(EXPANSION_SCALES)
    rep = matrix_A(m)
    n = len(rep.Lam)
    rng = np.random.default_rng(seed)
    errors = np.zeros((EXPANSION_DIRECTIONS, len(scales)))
    ratios = []
    tiny = 1e-12 * (1.0 + float(np.linalg.norm(rep.Lam)))
    for di in range(EXPANSION_DIRECTIONS):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        for si, s in enumerate(scales):
            zeta = s * u
            g = grad_jacobian(koebe_map(m, zeta))
            predicted = rep.Lam + rep.A @ zeta - (n + 1) * np.conj(zeta)
            errors[di, si] = float(np.linalg.norm(g - predicted))
        q = errors[di] / scales ** 2
        for k in range(len(scales) - 1):
            if errors[di, k] <= tiny and errors[di, k + 1] <= tiny:
                ratios.append(1.0)
            else:
                lo = max(min(q[k], q[k + 1]), 1e-300)
                ratios.append(max(q[k], q[k + 1]) / lo)
    max_ratio = float(np.max(ratios)) if ratios else 1.0
    return ExpansionReport(errors=errors, max_ratio=max_ratio)


@dataclass
class DecoupledReport:
    """Residuals of the rotated stationarity equations."""

    lam: float
    quadratic_residual: float
    off_residuals: np.ndarray
    rotated: bool


def decoupled_residuals(m: MapSpec) -> DecoupledReport:
    """Rotate Lambda to (lambda, 0, ..., 0), lambda >= 0, and evaluate the
    decoupled extremality equations

        lambda^2 + (n+1) S^1_11 lambda - (n+1)^2 S^0_11 - (n+1)^2 = 0,
        S^1_1j lambda - (n+1) S^0_1j = 0   (j >= 2).
    """
    n = map_dim(m)
    lam_vec = grad_jacobian(m)
    lam = float(np.linalg.norm(lam_vec))
    rotated = False
    target = m
    if lam > 1e-14 and (abs(lam_vec[0] - lam) > 1e-14 or np.max(np.abs(lam_vec[1:])) > 1e-14):
        # precompose/postcompose with a unitary so grad(JG)(0) = lam * e_1
        u0 = _unitary_with_first_column(lam_vec / lam)
        q = np.conj(u0)
        target = CompositionMap((affine_map(q.conj().T), m, affine_map(q)))
        rotated = True
    lam_rot = grad_jacobian(target)
    if abs(lam_rot[0] - lam) > 1e-9 * (1 + lam) or np.max(np.abs(lam_rot[1:])) > 1e-9 * (1 + lam):
        raise NormalizationError("rotation failed to align the Jacobian gradient")
    t = schwarzian_of(target, np.zeros(n, dtype=complex))
    s1 = t.Sk[0]
    quad = abs(lam**2 + (n + 1) * s1[0, 0] * lam - (n + 1) ** 2 * t.S0[0, 0] - (n + 1) ** 2)
    off = np.abs(s1[0, 1:] * lam - (n + 1) * t.S0[0, 1:])
    return DecoupledReport(lam=lam, quadratic_residual=float(quad), off_residuals=off, rotated=rotated)


# -- closed-form bounds -------------------------------------------------------


def c_exact(n: int, alpha: float) -> float:
    if n < 2:
        raise DimensionError("bounds need n >= 2 (n - 1 appears in a denominator)")
    return (4 * n**2 + 2 * n - 2 + (n + 1) / (n - 1)) * alpha**2 + (
        4 * np.sqrt(n + 1) + 8 * np.sqrt(n + 1) / (n - 1)
    ) * alpha


def c_simple(n: int, alpha: float) -> float:
    return 6 * n**2 * alpha**2 + 16 * np.sqrt(n) * alpha


def bounds_report(n: int, alpha: float) -> BoundReport:
    """Evaluate the closed-form order bounds at (n, alpha)."""
    if n < 2:
        raise DimensionError("bounds need n >= 2")
    if not 0.0 <= alpha < np.inf:
        raise DimensionError("alpha must be finite and non-negative")
    ce = c_exact(n, alpha)
    cs = c_simple(n, alpha)
    root = np.sqrt(1.0 + 0.25 * (n + 1) * alpha**2 + ce)
    ordb = 0.5 * (n + 1) * (0.5 * np.sqrt(n + 1) * alpha + root)
    normb = (n + 1) * alpha + root
    lower = 1.0 + 0.5 * np.sqrt(3.0) * alpha
    return BoundReport(
        n=int(n), alpha=float(alpha), C_exact=float(ce), C_simple=float(cs),
        ord_bound=float(ordb), norm_ord_bound=float(normb), lower_bound=float(lower),
    )


# -- extremal search ----------------------------------------------------------


@dataclass
class SubfamilyConfig:
    """Parameterized subfamily of normalized maps for the extremal search.

    ``build`` takes a real parameter vector of the size of ``x0``, the start.
    """

    build: Callable[[np.ndarray], MapSpec]
    x0: np.ndarray


@dataclass
class SearchResult:
    """Incumbent of a penalized order-maximization run."""

    achieved_order: float
    params: np.ndarray
    norm_estimate: NormEstimate
    extremal_residual: float
    ord_bound: float
    bound_margin: float
    evaluations: int
    failed_evaluations: int  # objective calls whose map raised a SchwarzballError
    converged: bool


def moebius_subfamily(n: int) -> SubfamilyConfig:
    """Normalized Moebius maps z / (1 - <z, c>) with |c| clipped to 1."""

    def build(x: np.ndarray) -> MapSpec:
        c = x[:n] + 1j * x[n:]
        r = np.linalg.norm(c)
        if r > 1.0:
            # clip strictly inside the closed unit ball so the achieved order
            # stays below its closed-form bound through float rounding
            c = c * ((1.0 - 1e-13) / r)
        return moebius_pole(c)

    x0 = np.full(2 * n, 0.05)
    return SubfamilyConfig(build=build, x0=x0)


def cubic_subfamily(n: int) -> SubfamilyConfig:
    """Normalized polynomial maps whose quadratic coefficients have real and
    imaginary parts in [-CUBIC_BOX, CUBIC_BOX]."""
    monomials = [k for k in multi_indices(n, 2) if sum(k) == 2]
    per_comp = len(monomials)
    dim = 2 * n * per_comp

    def build(x: np.ndarray) -> MapSpec:
        x = np.clip(x, -CUBIC_BOX, CUBIC_BOX)
        comps = []
        idx = 0
        for i in range(n):
            table = {tuple(1 if k == i else 0 for k in range(n)): 1.0 + 0j}
            for key in monomials:
                table[key] = x[idx] + 1j * x[idx + 1]
                idx += 2
            comps.append(table)
        return PolyMap(n, comps)

    return SubfamilyConfig(build=build, x0=np.zeros(dim))


def extremal_search(
    config: SubfamilyConfig,
    alpha: float,
    budget: int = 240,
    seed: int = 0,
    r_max: float = SEARCH_R_MAX,
) -> SearchResult:
    """Penalized Nelder-Mead maximization of |grad JF(0)| over the subfamily.

    The penalty ``_PENALTY_WEIGHT * max(0, est - alpha)^2`` takes ``est`` from
    :func:`schwarzian_norm_sup` over |z| <= ``r_max`` with the reduced probe
    settings ``SEARCH_PROBE``; the incumbent is re-estimated with the same
    settings for the report.  ``SEARCH_RESTARTS`` runs share the budget, the
    first from x0 and the others from seeded perturbations of it, and are
    merged by best value then lexicographic parameters, so a fixed seed gives
    a fixed result.  Parameters whose map raises a package error score 1e6
    and are counted in ``failed_evaluations``.
    """
    x0 = np.asarray(config.x0, dtype=float)
    if x0.size == 0:
        raise InfeasibleSearchError("subfamily parameterization is empty")
    if not 0.0 <= alpha < np.inf:
        raise DimensionError("alpha must be finite and non-negative")
    try:
        m0 = config.build(x0)
        grad_jacobian(m0)
    except SchwarzballError as exc:
        raise InfeasibleSearchError(f"initial parameters do not build a normalized map: {exc}") from exc

    evaluations = 0
    failed_evaluations = 0

    def norm_est(mp: MapSpec) -> NormEstimate:
        return schwarzian_norm_sup(mp, r_max=r_max, seed=seed, **SEARCH_PROBE)

    def objective(x: np.ndarray) -> float:
        nonlocal evaluations, failed_evaluations
        evaluations += 1
        try:
            mp = config.build(x)
            order2 = float(np.linalg.norm(grad_jacobian(mp)))
        except SchwarzballError:
            failed_evaluations += 1
            return 1e6
        est = norm_est(mp).value
        return -order2 + _PENALTY_WEIGHT * max(0.0, est - alpha) ** 2

    # imported here, not with the module: scipy.optimize adds about 48 MB of
    # resident memory and 0.4 s to every process that imports the package
    from scipy import optimize

    rng = np.random.default_rng(seed)
    per_run = max(budget // SEARCH_RESTARTS, 10)
    candidates = []
    for attempt in range(SEARCH_RESTARTS):
        x_start = x0 if attempt == 0 else x0 + 0.2 * rng.standard_normal(x0.size)
        res = optimize.minimize(
            objective, x_start, method="Nelder-Mead",
            options={"maxfev": per_run, "xatol": 1e-9, "fatol": 1e-12},
        )
        candidates.append((float(res.fun), tuple(res.x), bool(res.success)))
    candidates.sort(key=lambda c: (c[0], c[1]))
    best_fun, best_x, success = candidates[0]
    best_x = np.array(best_x)
    best_map = config.build(best_x)
    rep = matrix_A(best_map)
    achieved = 0.5 * float(np.linalg.norm(rep.Lam))
    est = norm_est(best_map)
    bounds = bounds_report(map_dim(m0), alpha)
    return SearchResult(
        achieved_order=achieved,
        params=best_x,
        norm_estimate=est,
        extremal_residual=rep.extremal_residual,
        ord_bound=bounds.ord_bound,
        bound_margin=float(bounds.ord_bound - achieved),
        evaluations=evaluations,
        failed_evaluations=failed_evaluations,
        converged=success,
    )

