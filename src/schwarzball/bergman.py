"""Bergman metric on the unit ball and the invariant Schwarzian norm.

The metric is

    g_ij(z) = (n+1) / (1-|z|^2)^2 * [ (1-|z|^2) delta_ij + conj(z_i) z_j ],

with squared norms ||v||^2_{B,z} = sum_ij g_ij(z) v_i conj(v_j).  Ball
automorphisms are isometries of this metric, and with input direction and
operator output both measured at the same base point the pointwise norm
||S F(z)|| = sup_{||v||=1} ||S F(z)(v)|| satisfies the invariance identity
||S(F o sigma)(z)|| = ||S F(sigma(z))|| exactly.

Suprema are estimated by deterministic multistart projected gradient ascent
on the sphere obtained from a Cholesky factorization of the constraint form.
Reported values are lower bounds of the true suprema; ``converged`` records
whether every retained start terminated by step size rather than by the
iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, OutsideDomainError
from .maps import CompositionMap, MapSpec, map_dim, map_eval
from .schwarzian import SchwarzianTensor, schwarzian_of

DEFAULT_STARTS = 16
DEFAULT_MAX_ITER = 500
STEP_FLOOR = 1e-12


@dataclass(frozen=True)
class MetricTensor:
    """Hermitian positive-definite Bergman metric matrix at a base point."""

    z: np.ndarray
    g: np.ndarray

    @property
    def n(self) -> int:
        return self.g.shape[0]


@dataclass
class NormEstimate:
    """Searched lower bound of a supremum plus the witnessing data."""

    value: float
    arg_v: np.ndarray | None
    arg_z: np.ndarray | None
    starts: int
    converged: bool
    r_max: float | None = None


def metric_at(z, n: int | None = None) -> MetricTensor:
    """Bergman metric matrix at an interior point of the unit ball."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    if n is not None and len(z) != n:
        raise DimensionError(f"point has dimension {len(z)}, expected {n}")
    n = len(z)
    r2 = float(np.sum(np.abs(z) ** 2))
    if r2 >= 1.0:
        raise OutsideDomainError(f"|z|^2 = {r2:.6f} is not inside the unit ball")
    g = (n + 1) / (1.0 - r2) ** 2 * ((1.0 - r2) * np.eye(n) + np.outer(np.conj(z), z))
    g = 0.5 * (g + g.conj().T)  # exact hermitian symmetry through rounding
    return MetricTensor(z=z, g=g)


def _form_value(g: np.ndarray, v: np.ndarray) -> float:
    return float(np.real(np.einsum("ij,i,j->", g, v, np.conj(v))))


def bergman_norm(z, v) -> float:
    """Length of the tangent vector v in the Bergman metric at z."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    g = metric_at(z, n=len(v)).g
    return float(np.sqrt(max(_form_value(g, v), 0.0)))


# -- constrained supremum of a quadratic-map image norm ----------------------


def _realified_form(m: np.ndarray) -> np.ndarray:
    """Symmetric real 2n x 2n matrix Q with x^T Q x = sum_ij m_ij v_i conj(v_j)."""
    re, im = np.real(m), np.imag(m)
    return np.block([[re, im], [-im, re]])


def _complex_from_real(x: np.ndarray, n: int) -> np.ndarray:
    return x[:n] + 1j * x[n:]


def max_quadratic_image_norm(
    s_list: np.ndarray,
    form_in: np.ndarray,
    form_out: np.ndarray,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, np.ndarray, bool]:
    """sup of sqrt(q_out(u(v))) over q_in(v) = 1, u_k = v^t S^k v.

    Multistart projected gradient ascent with Armijo backtracking on the
    Euclidean sphere image of the constraint ellipsoid.  Deterministic for a
    fixed seed.  Returns (value, maximizing v, converged flag).
    """
    s_list = np.asarray(s_list, dtype=complex)
    n = s_list.shape[-1]
    q_in = _realified_form(np.asarray(form_in, dtype=complex))
    chol = np.linalg.cholesky(q_in)
    chol_inv_t = np.linalg.inv(chol.T)
    g_out = np.asarray(form_out, dtype=complex)
    s_flat = s_list.reshape(n, n * n)

    def value_sq_and_grad(x: np.ndarray):
        ab = chol_inv_t @ x
        v = ab[:n] + 1j * ab[n:]
        u = s_flat @ np.outer(v, v).ravel()
        eta = g_out @ np.conj(u)
        val2 = float(np.real(u @ eta))
        w = 2.0 * ((eta @ s_flat).reshape(n, n) @ v)
        grad_ab = np.concatenate([2.0 * np.real(w), -2.0 * np.imag(w)])
        return val2, chol_inv_t.T @ grad_ab

    rng = np.random.default_rng(seed)
    best_val = -1.0
    best_v = np.zeros(n, dtype=complex)
    all_converged = True
    for _ in range(max(int(starts), 1)):
        x = rng.standard_normal(2 * n)
        x /= np.linalg.norm(x)
        val2, grad = value_sq_and_grad(x)
        prev_x = None
        prev_tangent = None
        converged = False
        for _ in range(max_iter):
            tangent = grad - np.dot(grad, x) * x
            tnorm = float(np.linalg.norm(tangent))
            if tnorm < 1e-14 * max(1.0, val2):
                converged = True
                break
            # Barzilai-Borwein trial step, halved under the Armijo test
            t = 1.0
            if prev_x is not None:
                s = x - prev_x
                y = prev_tangent - tangent
                sy = float(np.dot(s, y))
                if sy > 1e-30:
                    t = min(max(float(np.dot(s, s)) / sy, 1e-10), 1e6)
            moved = 0.0
            accepted = False
            while t * tnorm >= STEP_FLOOR:
                cand = x + t * tangent
                cand /= np.linalg.norm(cand)
                cand_val2, cand_grad = value_sq_and_grad(cand)
                if cand_val2 >= val2 + 1e-4 * t * tnorm * tnorm:
                    moved = float(np.linalg.norm(cand - x))
                    prev_x, prev_tangent = x, tangent
                    x, val2, grad = cand, cand_val2, cand_grad
                    accepted = True
                    break
                t *= 0.5
            if not accepted or moved < STEP_FLOOR:
                converged = True
                break
        all_converged = all_converged and converged
        if val2 > best_val:
            best_val = val2
            ab_best = chol_inv_t @ x
            best_v = ab_best[:n] + 1j * ab_best[n:]
    return float(np.sqrt(max(best_val, 0.0))), best_v, all_converged


# -- Schwarzian norms ---------------------------------------------------------


def schwarzian_norm_at(
    m: MapSpec,
    z,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
    tensor: SchwarzianTensor | None = None,
) -> NormEstimate:
    """Pointwise invariant Schwarzian norm ||S F(z)||.

    Input direction and operator output are both measured with the Bergman
    metric at ``z``.  ``tensor`` may be supplied to skip re-expansion.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    t = schwarzian_of(m, z) if tensor is None else tensor
    g = metric_at(z, n=t.n).g
    value, v, converged = max_quadratic_image_norm(
        t.Sk, g, g, starts=starts, seed=seed, max_iter=max_iter
    )
    return NormEstimate(value=value, arg_v=v, arg_z=z, starts=starts, converged=converged)


def schwarzian_norm_sup(
    m: MapSpec,
    r_max: float = 0.9,
    shells: int = 7,
    starts: int = DEFAULT_STARTS,
    angular: int = 50,
    refine: int = 3,
    seed: int = 0,
) -> NormEstimate:
    """Searched lower bound of ||S F|| = sup_z ||S F(z)|| over |z| <= r_max.

    Radial shells (``shells`` radii from 0 to ``r_max``) with ``angular``
    deterministic direction samples per shell, followed by ``refine`` rounds
    of shrinking local perturbation around the incumbent.
    """
    if not 0.0 <= r_max < 1.0:
        raise OutsideDomainError(f"search radius r_max = {r_max} must lie in [0, 1)")
    n = map_dim(m)
    rng = np.random.default_rng(seed)
    radii = np.linspace(0.0, r_max, max(int(shells), 1))
    best = NormEstimate(value=-1.0, arg_v=None, arg_z=None, starts=starts, converged=True, r_max=r_max)

    def consider(z: np.ndarray):
        nonlocal best
        est = schwarzian_norm_at(m, z, starts=starts, seed=seed)
        if est.value > best.value:
            best = NormEstimate(
                value=est.value, arg_v=est.arg_v, arg_z=z, starts=starts,
                converged=est.converged, r_max=r_max,
            )

    for radius in radii:
        if radius == 0.0:
            consider(np.zeros(n, dtype=complex))
            continue
        for _ in range(max(int(angular), 1)):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            consider(radius * v)

    spacing = r_max / max(len(radii) - 1, 1) if r_max > 0 else 0.1
    rho = 0.5 * spacing
    for _ in range(max(int(refine), 0)):
        center = best.arg_z if best.arg_z is not None else np.zeros(n, dtype=complex)
        for _ in range(16):
            z = center + rho * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2 * n)
            norm_z = float(np.linalg.norm(z))
            if norm_z > r_max:
                z = z * (r_max / norm_z)
            consider(z)
        rho *= 0.4
    best.value = max(best.value, 0.0)
    return best


def invariance_residual(m: MapSpec, sigma: MapSpec, z, starts: int = DEFAULT_STARTS, seed: int = 0) -> float:
    """| ||S(F o sigma)(z)|| - ||S F(sigma(z))|| |, zero in exact arithmetic."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    composed = CompositionMap((m, sigma))
    lhs = schwarzian_norm_at(composed, z, starts=starts, seed=seed).value
    rhs = schwarzian_norm_at(m, map_eval(sigma, z), starts=starts, seed=seed).value
    return abs(lhs - rhs)

