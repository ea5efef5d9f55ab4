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
One kernel runs every start of every problem as a row of one array, so
``schwarzian_norm_sup`` solves its whole probe grid in one call and each
refine round in one more.  Each tensor is divided by its Frobenius norm
before the ascent, so the steps and the stopping tests are scale-free; the
one absolute floor is ``ZERO_NORM``, below which a tensor is rounding noise
and its starts stop at once.  Reported values are lower bounds of the true
suprema; ``converged`` records whether every retained start terminated by
step size rather than by the iteration cap, and ``points`` and
``iterations`` count the probed base points and accepted ascent steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, OutsideDomainError
from .maps import CompositionMap, MapSpec, map_dim, map_eval
from .schwarzian import schwarzian_of

DEFAULT_STARTS = 16
DEFAULT_MAX_ITER = 500
STEP_FLOOR = 1e-12
# Frobenius norm below which S is rounding noise (Moebius maps give about
# 1e-15): its starts stop at their first iterate
ZERO_NORM = 1e-12


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
    points: int = 1  # probed base points
    iterations: int = 0  # accepted ascent steps, summed over starts and points


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
    """Symmetric real 2n x 2n matrices Q with x^T Q x = sum_ij m_ij v_i conj(v_j).

    Works on one n x n matrix or on a stack of them.
    """
    re, im = np.real(m), np.imag(m)
    return np.concatenate(
        [np.concatenate([re, im], axis=-1), np.concatenate([-im, re], axis=-1)], axis=-2
    )


def _value_and_grad(x, chol_inv_t, chol_inv, s_flat, g_out):
    """Squared image norm and its gradient at each row of x (rows, 2n)."""
    rows, n = s_flat.shape[0], s_flat.shape[1]
    ab = (chol_inv_t @ x[:, :, None])[:, :, 0]
    v = ab[:, :n] + 1j * ab[:, n:]
    u = s_flat @ (v[:, :, None] * v[:, None, :]).reshape(rows, n * n, 1)
    eta = g_out @ np.conj(u)
    val2 = np.real(np.sum(u * eta, axis=(1, 2)))
    w = 2.0 * ((np.swapaxes(eta, 1, 2) @ s_flat).reshape(rows, n, n) @ v[:, :, None])[:, :, 0]
    grad_ab = np.concatenate([2.0 * np.real(w), -2.0 * np.imag(w)], axis=1)
    return val2, (chol_inv @ grad_ab[:, :, None])[:, :, 0]


def _ascend(s, form_in, form_out, starts: int, seed: int, max_iter: int):
    """Multistart projected ascent for a stack of problems, in one array.

    ``s`` is (problems, n, n, n) and the forms (problems, n, n).  Every row of
    the (problems x starts, 2n) iterate is one start of one problem; all rows
    share the starts drawn from ``default_rng(seed)`` and run the same
    arithmetic under a per-row mask, so a problem's result does not depend
    on the batch it is solved in.  Each S is divided by its Frobenius norm
    c before the ascent and the value multiplied back (the value is
    homogeneous of degree one in S), so steps and stopping tests do not
    depend on the scale of S.  The one absolute floor is ZERO_NORM: an S
    below it stops at its first iterate.

    Returns per-problem arrays (value, maximizing v, converged, accepted
    steps summed over starts).
    """
    s = np.asarray(s, dtype=complex)
    problems, n = s.shape[0], s.shape[-1]
    k = max(int(starts), 1)
    scale = np.linalg.norm(s.reshape(problems, -1), axis=1)
    zero = np.repeat(scale < ZERO_NORM, k)
    scale[scale == 0.0] = 1.0
    chol = np.linalg.cholesky(_realified_form(np.asarray(form_in, dtype=complex)))
    chol_inv = np.linalg.inv(chol)
    mats = [
        np.repeat(a, k, axis=0)
        for a in (
            np.ascontiguousarray(np.swapaxes(chol_inv, 1, 2)),
            chol_inv,
            (s / scale[:, None, None, None]).reshape(problems, n, n * n),
            np.asarray(form_out, dtype=complex),
        )
    ]

    x0 = np.random.default_rng(seed).standard_normal((k, 2 * n))
    x0 /= np.linalg.norm(x0, axis=1, keepdims=True)
    x = np.tile(x0, (problems, 1))
    val2, grad = _value_and_grad(x, *mats)
    rows = len(x)
    prev_x = np.zeros_like(x)
    prev_tangent = np.zeros_like(x)
    has_prev = np.zeros(rows, dtype=bool)
    active = ~zero
    converged = zero.copy()
    steps = np.zeros(rows, dtype=int)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        xa, ga = x[idx], grad[idx]
        tangent = ga - np.sum(ga * xa, axis=1, keepdims=True) * xa
        tnorm = np.linalg.norm(tangent, axis=1)
        flat = tnorm < 1e-14 * np.maximum(1.0, val2[idx])
        # Barzilai-Borwein trial step, halved under the Armijo test
        t = np.ones(idx.size)
        sx = xa - prev_x[idx]
        sy = np.sum(sx * (prev_tangent[idx] - tangent), axis=1)
        bb = has_prev[idx] & (sy > 1e-30)
        t[bb] = np.minimum(np.maximum(np.sum(sx[bb] * sx[bb], axis=1) / sy[bb], 1e-10), 1e6)
        accepted = np.zeros(idx.size, dtype=bool)
        moved = np.zeros(idx.size)
        trying = ~flat
        while True:
            trying &= t * tnorm >= STEP_FLOOR
            j = np.flatnonzero(trying)
            if j.size == 0:
                break
            cand = xa[j] + t[j, None] * tangent[j]
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            rj = idx[j]
            cand_val2, cand_grad = _value_and_grad(cand, *(a[rj] for a in mats))
            ok = cand_val2 >= val2[rj] + 1e-4 * t[j] * tnorm[j] ** 2
            jo, ro = j[ok], rj[ok]
            moved[jo] = np.linalg.norm(cand[ok] - xa[jo], axis=1)
            prev_x[ro], prev_tangent[ro], has_prev[ro] = xa[jo], tangent[jo], True
            x[ro], val2[ro], grad[ro] = cand[ok], cand_val2[ok], cand_grad[ok]
            accepted[jo] = True
            trying[jo] = False
            t[trying] *= 0.5
        steps[idx[accepted]] += 1
        done = idx[flat | ~accepted | (moved < STEP_FLOOR)]
        converged[done] = True
        active[done] = False

    best = np.arange(problems) * k + np.argmax(val2.reshape(problems, k), axis=1)
    ab = (mats[0][best] @ x[best][:, :, None])[:, :, 0]
    return (
        np.sqrt(np.maximum(val2[best], 0.0)) * scale,
        ab[:, :n] + 1j * ab[:, n:],
        converged.reshape(problems, k).all(axis=1),
        steps.reshape(problems, k).sum(axis=1),
    )


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
    value, v, converged, _ = _ascend(
        np.asarray(s_list, dtype=complex)[None],
        np.asarray(form_in, dtype=complex)[None],
        np.asarray(form_out, dtype=complex)[None],
        starts, seed, max_iter,
    )
    return float(value[0]), v[0], bool(converged[0])


# -- Schwarzian norms ---------------------------------------------------------


def _norms_at(m: MapSpec, points, starts: int, seed: int, max_iter: int):
    """Pointwise norms at a list of points, solved in one ascent."""
    tensors = [schwarzian_of(m, z) for z in points]
    g = np.array([metric_at(z, n=t.n).g for z, t in zip(points, tensors)])
    s = np.array([t.Sk for t in tensors])
    return _ascend(s, g, g, starts, seed, max_iter)


def schwarzian_norm_at(
    m: MapSpec,
    z,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
) -> NormEstimate:
    """Pointwise invariant Schwarzian norm ||S F(z)||.

    Input direction and operator output are both measured with the Bergman
    metric at ``z``.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    value, v, converged, iterations = _norms_at(m, [z], starts, seed, max_iter)
    return NormEstimate(
        value=float(value[0]), arg_v=v[0], arg_z=z, starts=starts,
        converged=bool(converged[0]), iterations=int(iterations[0]),
    )


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
    of 16 points of shrinking local perturbation around the incumbent, the
    first point in probe order with the largest value.  The grid is solved
    in one ascent, and so is each refine round.
    """
    if not 0.0 <= r_max < 1.0:
        raise OutsideDomainError(f"search radius r_max = {r_max} must lie in [0, 1)")
    n = map_dim(m)
    rng = np.random.default_rng(seed)
    radii = np.linspace(0.0, r_max, max(int(shells), 1))
    best = NormEstimate(
        value=-1.0, arg_v=None, arg_z=None, starts=starts, converged=True, r_max=r_max,
        points=0,
    )

    def gaussian_steps(count: int) -> list[np.ndarray]:
        draws = rng.standard_normal((count, 2, n))
        return [d[0] + 1j * d[1] for d in draws]

    def consider(points: list[np.ndarray]):
        values, vs, converged, iterations = _norms_at(m, points, starts, seed, DEFAULT_MAX_ITER)
        best.points += len(points)
        best.iterations += int(np.sum(iterations))
        i = int(np.argmax(values))
        if values[i] > best.value:
            best.value, best.arg_v, best.arg_z = float(values[i]), vs[i], points[i]
            best.converged = bool(converged[i])

    grid = []
    for radius in radii:
        if radius == 0.0:
            grid.append(np.zeros(n, dtype=complex))
            continue
        grid.extend(radius * (v / np.linalg.norm(v)) for v in gaussian_steps(max(int(angular), 1)))
    consider(grid)

    spacing = r_max / max(len(radii) - 1, 1) if r_max > 0 else 0.1
    rho = 0.5 * spacing
    for _ in range(max(int(refine), 0)):
        center = best.arg_z if best.arg_z is not None else np.zeros(n, dtype=complex)
        round_points = []
        for step in gaussian_steps(16):
            z = center + rho * step / np.sqrt(2 * n)
            norm_z = float(np.linalg.norm(z))
            if norm_z > r_max:
                z = z * (r_max / norm_z)
            round_points.append(z)
        consider(round_points)
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

