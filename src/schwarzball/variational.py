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
lambda and n-1 linear off-component equations.  The module also evaluates
the closed-form order bounds and provides a penalized derivative-free search
for high-order maps inside norm-bounded subfamilies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

from .errors import (
    DimensionError,
    InfeasibleSearchError,
    NormalizationError,
    SchwarzballError,
)
from .bergman import NormEstimate, schwarzian_norm_sup
from .family import grad_jacobian, koebe_transform
from .jets import JetVector, jet_det, jet_jacobian, jet_log, multi_indices
from .maps import (
    CompositionMap,
    MapSpec,
    MoebiusMap,
    PolyMap,
    affine_map,
    map_dim,
    map_jet_at,
    _unitary_with_first_column,
)
from .schwarzian import schwarzian_at

NORMALIZED_TOL = 1e-9


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
    """Closed-form order bounds for the norm-bounded family at level alpha."""

    n: int
    alpha: float
    C_exact: float
    C_simple: float
    ord_bound: float
    norm_ord_bound: float
    lower_bound: float

    def __post_init__(self):
        if self.C_exact > self.C_simple + 1e-12:
            raise DimensionError("C_exact exceeded its simplified majorant")
        if self.lower_bound > self.norm_ord_bound + 1e-12:
            raise DimensionError("lower bound exceeded the norm order bound")
        for v in (self.C_exact, self.C_simple, self.ord_bound, self.norm_ord_bound, self.lower_bound):
            if v < 0:
                raise DimensionError("bound values must be non-negative")


def _normalized_jet_at_origin(m: MapSpec, degree: int) -> JetVector:
    n = map_dim(m)
    jv = map_jet_at(m, np.zeros(n, dtype=complex), degree)
    if np.max(np.abs(jv.constants())) > NORMALIZED_TOL or np.max(
        np.abs(jv.linear_matrix() - np.eye(n))
    ) > NORMALIZED_TOL:
        raise NormalizationError("map is not normalized (F(0) = 0, DF(0) = Id required)")
    return jv


def matrix_A(m: MapSpec, degree: int = 3) -> VariationReport:
    """Assemble the first-variation matrix and the extremality residual."""
    jv = _normalized_jet_at_origin(m, degree)
    n = jv.n
    t = schwarzian_at(jv)
    lam = grad_jacobian(jv)
    b = np.einsum("kij,k->ij", t.Sk, lam)
    a = b - (n + 1) * t.S0 + np.outer(lam, lam) / (n + 1)
    residual = float(np.linalg.norm(a @ np.conj(lam) - (n + 1) * lam))
    return VariationReport(Lam=lam, B=b, B0=t.S0.copy(), A=a, extremal_residual=residual)


def lemma31_check(m: MapSpec, degree: int = 3) -> float:
    """Max-norm gap between A and the directly differentiated phi = grad(JF)/JF.

    The direct route takes the Hessian of log JF at 0 from the determinant
    jet, bypassing the Schwarzian tensors entirely.
    """
    jv = _normalized_jet_at_origin(m, degree)
    hess = jet_log(jet_det(jet_jacobian(jv))).derivatives(2)
    rep = matrix_A(m, degree=degree)
    return float(np.max(np.abs(hess - rep.A)))


@dataclass
class ExpansionReport:
    """Second-order remainder scaling of the Koebe-gradient expansion."""

    scales: tuple[float, ...]
    errors: np.ndarray  # (directions, scales)
    ratios: np.ndarray  # consecutive error/s^2 ratios
    max_ratio: float
    ok: bool


def variation_expansion_check(
    m: MapSpec,
    scales: Sequence[float] = (1e-1, 5e-2, 2.5e-2),
    directions: int = 3,
    seed: int = 0,
    degree: int = 3,
    ratio_bound: float = 4.0,
) -> ExpansionReport:
    """Check grad(JG)(0) = Lambda + A zeta - (n+1) conj(zeta) + O(|zeta|^2).

    For each direction u and scale s the remainder at zeta = s u is divided
    by s^2; consecutive quotients must stay within ``ratio_bound`` of each
    other (both are near the same second-order coefficient).  Exactly
    vanishing remainders (Moebius-flat cases) pass by convention.
    """
    scales = tuple(float(s) for s in scales)
    rep = matrix_A(m, degree=degree)
    n = len(rep.Lam)
    rng = np.random.default_rng(seed)
    errors = np.zeros((directions, len(scales)))
    ratios = []
    tiny = 1e-12 * (1.0 + float(np.linalg.norm(rep.Lam)))
    for di in range(directions):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        for si, s in enumerate(scales):
            zeta = s * u
            g = grad_jacobian(koebe_transform(m, zeta, d=degree))
            predicted = rep.Lam + rep.A @ zeta - (n + 1) * np.conj(zeta)
            errors[di, si] = float(np.linalg.norm(g - predicted))
        q = errors[di] / np.array(scales) ** 2
        for k in range(len(scales) - 1):
            if errors[di, k] <= tiny and errors[di, k + 1] <= tiny:
                ratios.append(1.0)
            else:
                lo = max(min(q[k], q[k + 1]), 1e-300)
                ratios.append(max(q[k], q[k + 1]) / lo)
    ratios = np.array(ratios)
    max_ratio = float(np.max(ratios)) if ratios.size else 1.0
    return ExpansionReport(
        scales=scales, errors=errors, ratios=ratios, max_ratio=max_ratio,
        ok=bool(max_ratio <= ratio_bound),
    )


@dataclass
class DecoupledReport:
    """Residuals of the rotated stationarity equations."""

    lam: float
    quadratic_residual: float
    off_residuals: np.ndarray
    rotated: bool


def decoupled_residuals(m: MapSpec, degree: int = 3) -> DecoupledReport:
    """Rotate Lambda to (lambda, 0, ..., 0), lambda >= 0, and evaluate the
    decoupled extremality equations

        lambda^2 + (n+1) S^1_11 lambda - (n+1)^2 S^0_11 - (n+1)^2 = 0,
        S^1_1j lambda - (n+1) S^0_1j = 0   (j >= 2).
    """
    jv = _normalized_jet_at_origin(m, degree)
    n = jv.n
    lam_vec = grad_jacobian(jv)
    lam = float(np.linalg.norm(lam_vec))
    rotated = False
    target = m
    if lam > 1e-14 and (abs(lam_vec[0] - lam) > 1e-14 or np.max(np.abs(lam_vec[1:])) > 1e-14):
        # precompose/postcompose with a unitary so grad(JG)(0) = lam * e_1
        u0 = _unitary_with_first_column(lam_vec / lam)
        q = np.conj(u0)
        target = CompositionMap((affine_map(q.conj().T), m, affine_map(q)))
        rotated = True
    jv_rot = _normalized_jet_at_origin(target, degree)
    lam_rot = grad_jacobian(jv_rot)
    if abs(lam_rot[0] - lam) > 1e-9 * (1 + lam) or np.max(np.abs(lam_rot[1:])) > 1e-9 * (1 + lam):
        raise NormalizationError("rotation failed to align the Jacobian gradient")
    t = schwarzian_at(jv_rot)
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
    if alpha < 0:
        raise DimensionError("alpha must be non-negative")
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
    """Parameterized subfamily of normalized maps for the extremal search."""

    n: int
    dim: int
    build: Callable[[np.ndarray], MapSpec]
    x0: np.ndarray
    label: str = ""


@dataclass
class SearchResult:
    """Incumbent of a penalized order-maximization run."""

    achieved_order: float
    params: np.ndarray
    best_map: MapSpec
    norm_estimate: NormEstimate
    extremal_residual: float
    ord_bound: float
    bound_margin: float
    evaluations: int
    converged: bool
    alpha: float
    n: int
    label: str = ""


def moebius_subfamily(n: int) -> SubfamilyConfig:
    """Normalized Moebius maps z / (1 - <z, c>) with |c| clipped to 1."""

    def build(x: np.ndarray) -> MapSpec:
        c = x[:n] + 1j * x[n:]
        r = np.linalg.norm(c)
        if r > 1.0:
            # clip strictly inside the closed unit ball so the achieved order
            # stays below its closed-form bound through float rounding
            c = c * ((1.0 - 1e-13) / r)
        a = np.zeros((n + 1, n + 1), dtype=complex)
        a[0, 0] = 1.0
        a[0, 1:] = -np.conj(c)
        a[1:, 1:] = np.eye(n)
        return MoebiusMap(a)

    x0 = np.full(2 * n, 0.05)
    return SubfamilyConfig(n=n, dim=2 * n, build=build, x0=x0, label="moebius")


def cubic_subfamily(n: int, box: float = 0.5) -> SubfamilyConfig:
    """Normalized polynomial maps with quadratic coefficients in a box."""
    monomials = [k for k in multi_indices(n, 2) if sum(k) == 2]
    per_comp = len(monomials)
    dim = 2 * n * per_comp

    def build(x: np.ndarray) -> MapSpec:
        x = np.clip(x, -box, box)
        comps = []
        idx = 0
        for i in range(n):
            table = {tuple(1 if k == i else 0 for k in range(n)): 1.0 + 0j}
            for key in monomials:
                table[key] = x[idx] + 1j * x[idx + 1]
                idx += 2
            comps.append(table)
        return PolyMap(n, comps)

    return SubfamilyConfig(n=n, dim=dim, build=build, x0=np.zeros(dim), label="cubic")


def extremal_search(
    config: SubfamilyConfig,
    alpha: float,
    budget: int = 240,
    seed: int = 0,
    restarts: int = 3,
    r_max: float = 0.85,
    penalty_weight: float = 1e3,
    probe_shells: int = 4,
    probe_angular: int = 10,
    probe_starts: int = 6,
) -> SearchResult:
    """Penalized Nelder-Mead maximization of |grad JF(0)| over the subfamily.

    The penalty ``penalty_weight * max(0, est - alpha)^2`` uses a reduced
    search budget for the norm estimate during iteration; the incumbent is
    re-estimated with the same settings for the report.  Deterministic for a
    fixed seed; restarts are merged by best value then lexicographic
    parameters.
    """
    if config.dim <= 0 or config.x0.size == 0:
        raise InfeasibleSearchError("subfamily parameterization is empty")
    if alpha < 0:
        raise DimensionError("alpha must be non-negative")
    try:
        _normalized_jet_at_origin(config.build(np.asarray(config.x0, dtype=float)), 2)
    except Exception as exc:
        raise InfeasibleSearchError(f"initial parameters do not build a normalized map: {exc}")

    evaluations = 0

    def norm_est(mp: MapSpec) -> NormEstimate:
        return schwarzian_norm_sup(
            mp, r_max=r_max, shells=probe_shells, angular=probe_angular,
            starts=probe_starts, refine=1, seed=seed,
        )

    def objective(x: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        try:
            mp = config.build(x)
            jv = _normalized_jet_at_origin(mp, 2)
        except SchwarzballError:
            return 1e6
        order2 = float(np.linalg.norm(grad_jacobian(jv)))
        est = norm_est(mp).value
        return -order2 + penalty_weight * max(0.0, est - alpha) ** 2

    rng = np.random.default_rng(seed)
    per_run = max(budget // max(restarts, 1), 10)
    candidates = []
    for attempt in range(max(restarts, 1)):
        x_start = np.asarray(config.x0, dtype=float)
        if attempt > 0:
            x_start = x_start + 0.2 * rng.standard_normal(config.dim)
        res = optimize.minimize(
            objective, x_start, method="Nelder-Mead",
            options={"maxfev": per_run, "xatol": 1e-9, "fatol": 1e-12},
        )
        candidates.append((float(res.fun), tuple(res.x), bool(res.success)))
    candidates.sort(key=lambda c: (c[0], c[1]))
    best_fun, best_x, success = candidates[0]
    best_x = np.array(best_x)
    best_map = config.build(best_x)
    jv = _normalized_jet_at_origin(best_map, 3)
    achieved = 0.5 * float(np.linalg.norm(grad_jacobian(jv)))
    est = norm_est(best_map)
    rep = matrix_A(best_map)
    bounds = bounds_report(config.n, alpha)
    return SearchResult(
        achieved_order=achieved,
        params=best_x,
        best_map=best_map,
        norm_estimate=est,
        extremal_residual=rep.extremal_residual,
        ord_bound=bounds.ord_bound,
        bound_margin=float(bounds.ord_bound - achieved),
        evaluations=evaluations,
        converged=success,
        alpha=float(alpha),
        n=config.n,
        label=config.label,
    )

