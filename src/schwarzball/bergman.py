"""Bergman metric on the unit ball and the invariant Schwarzian norm.

The metric is

    g_ij(z) = (n+1) / (1-|z|^2)^2 * [ (1-|z|^2) delta_ij + conj(z_i) z_j ],

with squared norms ||v||^2_{B,z} = sum_ij g_ij(z) v_i conj(v_j).  Ball
automorphisms are isometries of this metric, and with input direction and
operator output both measured at the same base point the pointwise norm
||S F(z)|| = sup_{||v||=1} ||S F(z)(v)|| satisfies the invariance identity
||S(F o sigma)(z)|| = ||S F(sigma(z))|| exactly.  ``metric_at`` gives the
matrix at one point, and ``_lengths`` the lengths of a stack of tangent
vectors at a stack of points in one evaluation.

Pointwise norms are maxima of a quadratic-map image norm over an ellipsoid,
with direction and image measured in one form.  Each batch of tensors is
taken once to one frame (``_pullback``), orthonormal for the form in every
slot: with M from the Cholesky factor of the form and c the Frobenius norm of
S, the pointwise norm is c times the maximum of |T(w, w)| over the unit
sphere of w in C^n, and v = M w.  Every route solves that one problem, and
no kernel sees a metric.  At n = 2 it is exact: through the Hopf map
|T(w, w)|^2 is a quadratic on the 2-sphere, and its maximum is a trust-region
problem solved in closed form (one 3 x 3 eigenproblem and a monotone Newton
iteration per point, batched over points).  At n >= 3 it is estimated by a
deterministic multistart ascent on the sphere, 2 Barzilai-Borwein (BB) steps,
then saddle-free Riemannian Newton steps modulo phase, taken in a
(2n - 2)-dimensional orthonormal basis of the tangent space, and reported
values are lower bounds.  The starts are screened: of ``START_POOL`` times
as many seeded directions as starts, each problem ascends from those with the
largest |T(w, w)| (``START_POOL = 1`` is the unscreened ascent).  One
kernel runs every start of every problem as a row of one array, and a
problem's result does not depend on the batch it is solved in.  Dividing by
c makes both routes scale-free; the one absolute floor is ``ZERO_NORM``,
below which a tensor is rounding noise (the ascent's starts stop at once,
the exact route skips its Newton steps).
Every value is attained at the reported direction.  ``upper`` is a certified
upper end of the pointwise norm at every n: c times the largest singular
value of T restricted to symmetric tensors, up to the rounding slack
``UPPER_SLACK``.  ``converged`` records whether every retained start
terminated by step size or flatness rather than by the iteration cap (always
true at n = 2).

``schwarzian_norms_at`` takes many (map, point) cases to one kernel call:
their S^k tensors come from one grouped call (``_schwarzian_rows``: one
derivative call of order 2 per map kind and plan, and the S^k block alone,
as norms need no S^0), are pulled back in one frame and are solved
together, so the kernel's Python loop runs once for the list, and each
case's result is the one its single-case call ``schwarzian_norm_at``
gives.

``schwarzian_norm_sups`` runs the sups of many maps in lockstep, and
``schwarzian_norm_sup`` is its one-map call.  Every map probes the same grid
and the same refine steps around its own incumbent; each round (the grid,
then each refine round) builds the tensors and upper ends of every map's
points in one grouped call and solves them in one kernel call that drops
every point whose upper end cannot reach its map's floor.  A map's
floor starts at its incumbent's value in a refine round (none in the grid
round); at n >= 3 the ascent raises each map's floor before each iteration
to the largest value that map's remaining points have reached, and stops
the rows of the points it drops.  A row's value only rises and the upper end
is certified, so a dropped point cannot beat the point that set its map's
floor, and each map's result is the one every point would give, whatever
the other maps in the call.  ``points`` counts the probed base points,
``pruned`` those dropped (before or during the ascent at n >= 3, after the
closed-form call at n = 2), and ``iterations`` the accepted ascent steps
(BB and Newton) over every start, those of dropped points included (none
at n = 2).  A sup over the ball stays a searched lower bound at every n:
its base points are probed, not bracketed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, OutsideDomainError
from .maps import MapSpec, _derivative_chunks, _row_norms, map_dim
# schwarzian_of stays bound here: perfbench/smoke.py checks that its tracer wraps this binding
from .schwarzian import _jacobi, _points, _sk_block, schwarzian_of

DEFAULT_STARTS = 16
DEFAULT_MAX_ITER = 500
STEP_FLOOR = 1e-12
# projected-gradient steps of BB length each start takes before its Newton
# steps, which then finish in the basin those steps reached.  With 1 or 3 one
# n = 3 pointwise norm of the norm benchmark (seed 1) fell by 8%: a start
# landed at another local maximum
BB_STEPS = 2
# seeded directions drawn per start; the ascent starts from the best of them
# (see _ascend).  1 gives the unscreened ascent.  Random starts begin at about
# 5% of the maximum; on the norm benchmark (seed 1) 8 cut the accepted steps
# from 11162 to 7273
START_POOL = 8
# Frobenius norm below which S is rounding noise (Moebius maps give about
# 1e-15): its starts stop at their first iterate
ZERO_NORM = 1e-12
# relative rounding slack of _sym_upper: S / c has unit Frobenius norm, and T
# applies L^H once and M = L^-H twice to it; each has condition number
# sqrt(kappa), kappa = 1 / (1 - |z|^2) that of the Bergman metric (1 for the
# identity form), so forming T and H = U^H U is off by O(n eps kappa^(3/2))
# relative to the top eigenvalue of H, the squared bound, and eigvalsh, being
# backward stable, adds O(m eps) for the PSD m x m H (m = n(n+1)/2).  That is
# below 1e-12 for n <= 5 and |z| <= 0.99, so 1e-9 keeps a factor 1000 in reserve
UPPER_SLACK = 1e-9
# safety cap on the monotone Newton iteration of the exact n = 2 route, which
# converges quadratically in a handful of steps
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class MetricTensor:
    """Hermitian positive-definite Bergman metric matrix at a base point."""

    z: np.ndarray
    g: np.ndarray


@dataclass
class NormEstimate:
    """Estimate of a supremum plus the witnessing data.

    ``value`` is attained at (``arg_z``, ``arg_v``).  ``upper`` bounds the
    pointwise norm at ``arg_z`` from above, whatever the search did.
    """

    value: float
    arg_v: np.ndarray | None
    arg_z: np.ndarray | None
    converged: bool
    points: int = 1  # probed base points
    # accepted steps (2 BB, then Newton), summed over starts and points, dropped points included
    iterations: int = 0
    pruned: int = 0  # probed points their upper end dropped
    upper: float | None = None  # certified upper end of the pointwise norm at arg_z


def _metrics(z: np.ndarray) -> np.ndarray:
    """Bergman metric matrices at a stack of interior points, shape (p, n, n)."""
    n = z.shape[1]
    r2 = np.sum(np.abs(z) ** 2, axis=1)
    if np.any(r2 >= 1.0):
        raise OutsideDomainError(f"|z|^2 = {np.max(r2):.6f} is not inside the unit ball")
    g = ((n + 1) / (1.0 - r2) ** 2)[:, None, None] * (
        (1.0 - r2)[:, None, None] * np.eye(n) + np.conj(z)[:, :, None] * z[:, None, :]
    )
    return 0.5 * (g + np.conj(np.swapaxes(g, 1, 2)))  # exact hermitian symmetry through rounding


def metric_at(z) -> MetricTensor:
    """Bergman metric matrix at an interior point of the unit ball."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    return MetricTensor(z=z, g=_metrics(z[None])[0])


def _lengths(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bergman lengths of the tangent vectors v (p, n) at the points z (p, n), one per row."""
    q = np.real(np.einsum("pij,pi,pj->p", _metrics(z), v, np.conj(v)))
    return np.sqrt(np.maximum(q, 0.0))


# -- constrained supremum of a quadratic-map image norm ----------------------


def _pullback(s, form):
    """The frame of a stack of problems: (T, M, c, zero rows).

    The direction and the image are measured with one form,
    q(v) = sum_ij g_ij v_i conj(v_j) = v^H conj(g) v.  With conj(form) = L L^H
    and M = L^{-H}, the direction v = M w has q(v) = |w|^2 and an image u has
    q(u) = |L^H u|^2, so with c the Frobenius norm of S (1 where S vanishes)
    and T^k = sum_l (L^H)_kl (S^l / c)(M ., M .),

        q(S(M w, M w)) = c^2 |T(w, w)|^2.

    Every route maximizes |T(w, w)| over unit w in C^n and multiplies c back,
    so steps and stopping tests do not depend on the scale of S, and no
    kernel sees a metric.  Returns T (problems, n, n, n), M, c and the rows
    whose c lies below ZERO_NORM (rounding noise).
    """
    s = np.asarray(s, dtype=complex)
    scale = np.linalg.norm(s.reshape(len(s), -1), axis=1)
    zero = scale < ZERO_NORM
    scale[scale == 0.0] = 1.0
    chol = np.linalg.cholesky(np.conj(form))
    m = np.conj(np.swapaxes(np.linalg.inv(chol), 1, 2))
    r = np.swapaxes(m, 1, 2)[:, None] @ (s / scale[:, None, None, None]) @ m[:, None]
    return np.einsum("plk,plij->pkij", np.conj(chol), r), m, scale, zero


def _value(x, t_flat):
    """|T(w, w)|^2 at each row of x = (Re w, Im w)."""
    rows, n = t_flat.shape[0], t_flat.shape[1]
    w = x[:, :n] + 1j * x[:, n:]
    u = t_flat @ (w[:, :, None] * w[:, None, :]).reshape(rows, n * n, 1)
    return np.real(np.sum(u * np.conj(u), axis=(1, 2)))


def _grad_and_hess(x, t_flat):
    """Gradient and Hessian of |T(w, w)|^2 in x = (Re w, Im w), at each row of x.

    With u_k = w^T T^k w and tw_k = T^k w, the complex gradient is
    g = 2 sum_k conj(u_k) tw_k, and the second derivative along dw is
    2 Re(dw^T A dw) + 2 sum_k |2 tw_k^T dw|^2 with A = 2 sum_k conj(u_k) T^k
    (complex symmetric) and B = 4 tw^H tw (Hermitian); in real coordinates

        H = 2 [[Re A + Re B, -Im A - Im B], [-Im A + Im B, -Re A + Re B]].
    """
    rows, n = t_flat.shape[0], t_flat.shape[1]
    w = x[:, :n] + 1j * x[:, n:]
    tw = (t_flat.reshape(rows, n * n, n) @ w[:, :, None]).reshape(rows, n, n)
    eta = np.conj(tw @ w[:, :, None])  # conj(u), (rows, n, 1)
    g = 2.0 * (np.swapaxes(eta, 1, 2) @ tw)[:, 0]
    a = 2.0 * (np.swapaxes(eta, 1, 2) @ t_flat).reshape(rows, n, n)
    b = 4.0 * np.conj(np.swapaxes(tw, 1, 2)) @ tw
    hess = np.empty((rows, 2 * n, 2 * n))
    hess[:, :n, :n], hess[:, :n, n:] = np.real(a) + np.real(b), -np.imag(a) - np.imag(b)
    hess[:, n:, :n], hess[:, n:, n:] = np.imag(b) - np.imag(a), np.real(b) - np.real(a)
    return np.concatenate([2.0 * np.real(g), -2.0 * np.imag(g)], axis=1), 2.0 * hess


def _tangent_basis(x):
    """Orthonormal real basis of the tangent space {x, Jx}^perp, shape (rows, 2n, 2n - 2).

    For w = x[:n] + i x[n:] with |w| = 1, the complex Householder reflector
    I - 2 u u^H / |u|^2 with u = w + e^(i arg w_0) e_0 maps w to a multiple of
    e_0, so its columns 1..n-1 are an orthonormal basis of the complex
    complement of w.  Each column, taken once as it is and once times i,
    gives two real columns; the real span of w and i w is that of x and Jx.
    """
    n = x.shape[1] // 2
    w = x[:, :n] + 1j * x[:, n:]
    u = w.copy()
    u[:, 0] += np.exp(1j * np.angle(w[:, 0]))  # |u|^2 = 2 (1 + |w_0|), never small
    cols = (-1.0 / (1.0 + np.abs(w[:, 0])))[:, None, None] * u[:, :, None] * np.conj(w[:, None, 1:])
    cols[:, 1:] += np.eye(n - 1)
    basis = np.empty((len(x), 2 * n, 2 * n - 2))
    basis[:, :n, :n - 1] = basis[:, n:, n - 1:] = np.real(cols)
    basis[:, n:, :n - 1] = np.imag(cols)
    basis[:, :n, n - 1:] = -basis[:, n:, :n - 1]
    return basis


def _newton_directions(x, tangent, hess, mult):
    """Saddle-free Riemannian Newton directions on the unit sphere modulo phase.

    ``tangent`` is the gradient g projected off x, and ``mult`` is x^T g.  The
    objective is constant along the phase direction Jx = (-Im w, Re w), so
    the step lives in the (2n - 2)-dimensional tangent space {x, Jx}^perp
    with orthonormal basis B (:func:`_tangent_basis`), where the Riemannian
    Hessian is R = B^T (H - (x^T g) I) B.  One symmetric eigendecomposition
    R = V diag(lam) V^T per row gives d = B V diag(1 / max(|lam|, 1e-8 scale))
    V^T B^T tangent: Newton's step where R is negative definite, an ascent
    direction wherever it is not (Absil, Baker & Gallivan 2007; Dauphin et
    al. 2014).  ``scale`` is 2 ||R||_F + |x^T g|.
    """
    basis = _tangent_basis(x)
    basis_t = np.swapaxes(basis, 1, 2)
    riem = basis_t @ hess @ basis - mult[:, None, None] * np.eye(basis.shape[2])
    scale = 2.0 * np.linalg.norm(riem, axis=(1, 2)) + np.abs(mult)
    lam, vec = np.linalg.eigh(riem)
    inv = 1.0 / np.maximum(np.abs(lam), 1e-8 * scale[:, None])
    coef = inv * (np.swapaxes(vec, 1, 2) @ (basis_t @ tangent[:, :, None]))[:, :, 0]
    return (basis @ (vec @ coef[:, :, None]))[:, :, 0]


def _alive(upper, floor):
    """Problems whose upper end, times 1 + ``UPPER_SLACK``, reaches ``floor``.

    The others cannot reach the floor; a NaN upper end does not reach it.
    """
    return upper * (1.0 + UPPER_SLACK) >= floor


def _screened_starts(t_flat, k: int, seed: int):
    """Each problem's k starts, (problems * k, 2n) rows x = (Re w, Im w).

    The pool of ``START_POOL * k`` unit directions from ``default_rng(seed)``
    is shared, so |T(w, w)|^2 of every candidate is one product per problem
    against it; a problem's k best, ties by draw order, stay in draw order.
    Its temporaries, of the size of the problems' images of the pool, are
    freed before the ascent allocates its own.
    """
    n = t_flat.shape[1]
    pool = np.random.default_rng(seed).standard_normal((START_POOL * k, 2 * n))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    w = pool[:, :n] + 1j * pool[:, n:]
    u = t_flat @ (w[:, :, None] * w[:, None, :]).reshape(len(pool), n * n).T
    score = np.einsum("pjc,pjc->pc", u.real, u.real) + np.einsum("pjc,pjc->pc", u.imag, u.imag)
    best = np.sort(np.argsort(-score, axis=1, kind="stable")[:, :k], axis=1)
    return pool[best.reshape(-1)]


def _ascend(frame, starts: int, seed: int, max_iter: int, upper=None, floor=-np.inf):
    """Multistart Riemannian ascent for a stack of problems, in one array.

    ``frame`` comes from :func:`_pullback`.  The ascent maximizes |T(w, w)|
    on the unit sphere of w in C^n, as the real rows x = (Re w, Im w), and
    reports v = M w.  Each start takes ``BB_STEPS`` projected-gradient steps
    of Barzilai-Borwein length, then saddle-free Riemannian Newton steps on
    the sphere modulo phase (:func:`_newton_directions`); every trial point
    is x + t d renormalized, with t halved until the Armijo test holds, so
    every start rises monotonically.  Values are evaluated at trial points,
    the gradient and Hessian only at accepted ones.

    The starts are screened (a "reduced sample", Rinnooy Kan and Timmer,
    Math. Programming 39, 1987): every problem ranks the same pool of
    ``START_POOL * starts`` unit directions drawn from ``default_rng(seed)``
    by |T(w, w)|^2 and ascends from its ``starts`` best
    (:func:`_screened_starts`).  The pool's first ``starts`` rows are the
    draws of an unscreened ascent, so ``START_POOL = 1`` gives that ascent
    bit for bit.

    Every row of the (problems x starts, 2n) iterate is one start of one
    problem, and the tensors are kept once per problem, gathered for the
    active rows at each step; every row runs the same arithmetic under a
    per-row mask, so a problem's result does not depend on the batch it is
    solved in.  A start stops when its gradient is flat or the Newton
    model's gain lies below the rounding of the value, when no step of
    length ``STEP_FLOOR`` or more passes the test, or when it moves less than
    that; an S below ZERO_NORM stops at its first iterate.

    With the problems' upper ends ``upper``, the ascent prunes.  ``floor``
    holds one floor per map, whose problems are consecutive blocks of equal
    size (a scalar: one map).  Before each iteration it raises each map's
    floor to the largest value c sqrt(|T(w, w)|^2) among its problems still
    alive, then drops every problem that cannot reach its map's floor
    (:func:`_alive`, so a NaN upper end drops too) and stops its rows.  A
    row's value only rises and ``upper`` is certified, so a dropped problem
    cannot beat the one that set its floor, and every kept problem gets the
    arrays an unpruned call gives it; a map's results do not depend on the
    other maps in the call.

    Returns per-problem arrays (value, -inf for a dropped problem; maximizing
    v; converged; accepted steps summed over starts, a dropped problem's
    included).
    """
    t, change, scale, zero = frame
    problems, n = t.shape[0], t.shape[-1]
    k = max(int(starts), 1)
    t_flat = t.reshape(problems, n, n * n)
    owner = np.repeat(np.arange(problems), k)  # the problem of each row
    zero = zero[owner]

    x = _screened_starts(t_flat, k, seed)
    val2 = _value(x, t_flat[owner])
    rows = len(x)
    prev_x = np.zeros_like(x)
    prev_tangent = np.zeros_like(x)
    floor = np.atleast_1d(np.asarray(floor, dtype=float))
    per_map = problems // len(floor)
    alive = np.ones(problems, dtype=bool) if upper is None else _alive(upper, floor.repeat(per_map))
    active = ~zero & alive[owner]
    converged = zero.copy()
    steps = np.zeros(rows, dtype=int)
    for it in range(max_iter):
        if upper is not None and alive.any():
            value = np.sqrt(np.maximum(val2.reshape(problems, k).max(axis=1), 0.0)) * scale
            reached = np.where(alive, value, -np.inf).reshape(len(floor), per_map).max(axis=1)
            floor = np.fmax(floor, reached)  # a NaN value raises no floor
            alive &= _alive(upper, floor.repeat(per_map))
            active &= alive[owner]
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        xa = x[idx]
        ta = t_flat[owner[idx]]
        ga, ha = _grad_and_hess(xa, ta)
        mult = np.sum(ga * xa, axis=1)
        tangent = ga - mult[:, None] * xa
        tnorm = np.linalg.norm(tangent, axis=1)
        flat = tnorm < 1e-14 * np.maximum(1.0, val2[idx])
        t = np.ones(idx.size)
        if it < BB_STEPS:
            # projected gradient, Barzilai-Borwein trial length from the second step
            direction, slope, length = tangent, tnorm**2, tnorm
            if it > 0:
                sx = xa - prev_x[idx]
                sy = np.sum(sx * (prev_tangent[idx] - tangent), axis=1)
                bb = sy > 1e-30
                t[bb] = np.minimum(np.maximum(np.sum(sx[bb] * sx[bb], axis=1) / sy[bb], 1e-10), 1e6)
            prev_x[idx], prev_tangent[idx] = xa, tangent
        else:
            direction = _newton_directions(xa, tangent, ha, mult)
            slope = np.sum(tangent * direction, axis=1)
            # a gain the Newton model puts below the rounding of the value is
            # flat too: no trial point could show it
            flat |= slope < 1e-15 * val2[idx]
            length = np.linalg.norm(direction, axis=1)
        accepted = np.zeros(idx.size, dtype=bool)
        moved = np.zeros(idx.size)
        trying = ~flat
        while True:
            trying &= t * length >= STEP_FLOOR
            j = np.flatnonzero(trying)
            if j.size == 0:
                break
            cand = xa[j] + t[j, None] * direction[j]
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            rj = idx[j]
            cand_val2 = _value(cand, ta[j])
            ok = cand_val2 >= val2[rj] + 1e-4 * t[j] * slope[j]
            jo, ro = j[ok], rj[ok]
            moved[jo] = np.linalg.norm(cand[ok] - xa[jo], axis=1)
            x[ro], val2[ro] = cand[ok], cand_val2[ok]
            accepted[jo] = True
            trying[jo] = False
            t[trying] *= 0.5
        steps[idx[accepted]] += 1
        done = idx[flat | ~accepted | (moved < STEP_FLOOR)]
        converged[done] = True
        active[done] = False

    best = np.arange(problems) * k + np.argmax(val2.reshape(problems, k), axis=1)
    w = x[best, :n] + 1j * x[best, n:]
    return (
        np.where(alive, np.sqrt(np.maximum(val2[best], 0.0)) * scale, -np.inf),
        (change @ w[:, :, None])[:, :, 0],
        converged.reshape(problems, k).all(axis=1),
        steps.reshape(problems, k).sum(axis=1),
    )


def _sym_upper(frame):
    """Certified upper end of each pointwise norm, at any n.

    With T from :func:`_pullback`, T(w, w) = U m(w), where the columns of U
    are T_ii and sqrt(2) T_ij (i < j) and m(w) = (w_i^2, sqrt(2) w_i w_j) is
    a unit vector for unit w.  So |T(w, w)| <= sigma_max(U), the square root
    of the top eigenvalue of U^H U: the restriction of T to symmetric
    tensors.  The bound, times c, holds up to the relative rounding slack
    ``UPPER_SLACK``.
    """
    t, _, scale, _ = frame
    n = t.shape[-1]
    i, j = np.triu_indices(n)
    sym = t[:, :, i, j] * np.where(i == j, 1.0, np.sqrt(2.0))
    h = np.conj(np.swapaxes(sym, 1, 2)) @ sym
    return np.sqrt(np.maximum(np.linalg.eigvalsh(h)[:, -1], 0.0)) * scale


def _hopf_quadratic(h):
    """(A, b) with m^H H m = p^T A p + b^T p + c0 for unit w, c0 = tr(H) / 4.

    ``h`` is a stack of 3 x 3 Hermitian H, m = (w1^2, w1 w2, w2^2) and p the
    Hopf image (|w1|^2 - |w2|^2, 2 Re w1 conj(w2), 2 Im w1 conj(w2)).
    """
    h00, h11, h22 = np.real(h[:, 0, 0]), np.real(h[:, 1, 1]), np.real(h[:, 2, 2])
    h01, h02, h12 = h[:, 0, 1], h[:, 0, 2], h[:, 1, 2]
    a = np.empty((len(h), 3, 3))
    a[:, 0, 0] = (h00 - h11 + h22) / 4.0
    a[:, 0, 1] = a[:, 1, 0] = np.real(h01 - h12) / 4.0
    a[:, 0, 2] = a[:, 2, 0] = np.imag(h01 - h12) / 4.0
    a[:, 1, 1] = np.real(h02) / 2.0
    a[:, 2, 2] = -a[:, 1, 1]
    a[:, 1, 2] = a[:, 2, 1] = np.imag(h02) / 2.0
    b = np.stack([h00 - h22, np.real(h01 + h12), np.imag(h01 + h12)], axis=1) / 2.0
    return a, b


def _hopf_norms(frame):
    """Exact pointwise norms at n = 2 for a stack of problems, in closed form.

    With T from :func:`_pullback`, T(w, w) = U m(w) for
    m = (w1^2, w1 w2, w2^2) and U^k = (T^k_00, 2 T^k_01, T^k_11), so
    f(w) = |T(w, w)|^2 = m^H H m with H = U^H U, 3 x 3 Hermitian.  Through
    the Hopf image p of the unit sphere, f = p^T A p + b^T p + c0 on the
    2-sphere (:func:`_hopf_quadratic`; the constant c0 moves no maximizer).
    The maximum of a quadratic over a sphere is a trust-region problem with a
    known global solution (Gander, Golub & von Matt 1989; More & Sorensen
    1983): in the eigenbasis A = Q diag(lam) Q^T and with beta = Q^T b / 2,
    p_i = beta_i / (delta + lam_max - lam_i), where delta >= 0 solves
    1 / |p(delta)| = 1.  That function is concave and
    increasing, so Newton's method started below the root rises monotonically
    and quadratically to it; each row stops when it no longer moves.  When the
    root would lie below delta = 0 (the hard case), delta = 0 and the top
    eigenvector fills p up to the sphere.  p goes back to w and v = M w, and
    the value is c |T(w, w)| at that w, so it is attained.

    Rows below ZERO_NORM skip Newton.  Returns the same per-problem arrays as
    :func:`_ascend`, with every row converged and no ascent steps.
    """
    t, change, scale, zero = frame
    problems = t.shape[0]
    u = np.stack([t[:, :, 0, 0], 2.0 * t[:, :, 0, 1], t[:, :, 1, 1]], axis=-1)
    a, b = _hopf_quadratic(np.conj(np.swapaxes(u, 1, 2)) @ u)

    lam, q = np.linalg.eigh(a)
    beta = np.einsum("pji,pj->pi", q, b) / 2.0
    gap = lam[:, -1:] - lam  # >= 0, zero for the top eigenvalue
    nonzero = beta != 0.0

    def secular(delta, rows):
        """beta_i / (delta + gap_i) and sum beta_i^2 / (delta + gap_i)^3 at each row."""
        den = delta[:, None] + gap[rows]
        ratio = np.divide(beta[rows], den, out=np.zeros_like(den), where=nonzero[rows])
        curve = np.divide(ratio**2, den, out=np.zeros_like(den), where=nonzero[rows])
        return ratio, np.sum(curve, axis=1)

    # |p(delta)| >= 1 at delta = max_i (|beta_i| - gap_i): a start below the root
    delta = np.maximum(np.max(np.abs(beta) - gap, axis=1), 0.0)
    ratio, _ = secular(delta, slice(None))
    norm2 = np.sum(ratio**2, axis=1)
    hard = (delta == 0.0) & (norm2 < 1.0)
    active = ~(hard | zero)
    for _ in range(NEWTON_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        ratio, curve = secular(delta[idx], idx)
        norm2 = np.sum(ratio**2, axis=1)
        step = norm2 * (np.sqrt(norm2) - 1.0) / curve
        moved = step > 0.0
        delta[idx[moved]] += step[moved]
        active[idx[~moved]] = False

    ratio, _ = secular(delta, slice(None))
    ratio[hard, -1] = np.sqrt(1.0 - np.sum(ratio[hard] ** 2, axis=1))
    p = np.einsum("pij,pj->pi", q, ratio)
    p /= np.linalg.norm(p, axis=1, keepdims=True)

    # back through the Hopf map, dividing by the larger of |w1| and |w2|
    c = (p[:, 1] + 1j * p[:, 2]) / 2.0  # w1 conj(w2)
    north = p[:, 0] >= 0.0
    w = np.empty((problems, 2), dtype=complex)
    w1 = np.sqrt((1.0 + p[north, 0]) / 2.0)
    w[north, 0], w[north, 1] = w1, np.conj(c[north]) / w1
    w2 = np.sqrt((1.0 - p[~north, 0]) / 2.0)
    w[~north, 0], w[~north, 1] = c[~north] / w2, w2
    image = u @ np.stack([w[:, 0] ** 2, w[:, 0] * w[:, 1], w[:, 1] ** 2], axis=1)[:, :, None]
    val2 = np.real(np.sum(image * np.conj(image), axis=(1, 2)))
    return (
        np.sqrt(val2) * scale,
        (change @ w[:, :, None])[:, :, 0],
        np.ones(problems, dtype=bool),
        np.zeros(problems, dtype=int),
    )


def _quad_norms(frame, starts: int, seed: int, max_iter: int, upper=None, floor=-np.inf):
    """Pointwise norms of a stack of problems: exact at n = 2, searched at n >= 3.

    Returns per-problem arrays (value, maximizing v, converged, ascent steps);
    at n = 2 the starts, the seed and the iteration cap have no effect.  With
    the problems' upper ends ``upper``, a problem that cannot reach its map's
    ``floor`` (:func:`_alive`; one floor per map of equal consecutive blocks,
    as in :func:`_ascend`) is dropped and its value comes back as -inf: at
    n >= 3 during the ascent, whose floors rise to the largest value found
    per map, and at n = 2 after the one closed-form call over every problem,
    whose rows do not depend on the stack they are in.
    """
    if frame[0].shape[-1] != 2:
        return _ascend(frame, starts, seed, max_iter, upper, floor)
    value, v, converged, steps = _hopf_norms(frame)
    if upper is not None:
        floor = np.atleast_1d(np.asarray(floor, dtype=float))
        value[~_alive(upper, floor.repeat(len(upper) // len(floor)))] = -np.inf
    return value, v, converged, steps


def max_quadratic_image_norm(
    s_list: np.ndarray, form: np.ndarray, seed: int = 0
) -> tuple[float, np.ndarray, bool]:
    """sup of sqrt(q(u(v))) over q(v) = 1, u_k = v^t S^k v, q(v) = sum_ij form_ij v_i conj(v_j).

    Exact at n = 2 (a trust-region problem on the 2-sphere, see
    :func:`_hopf_norms`), where ``seed`` has no effect.  At n >= 3, an ascent
    from ``DEFAULT_STARTS`` seeded, screened starts on the unit sphere of
    the frame of :func:`_pullback`, 2 BB steps, then saddle-free Riemannian
    Newton steps, each with Armijo backtracking, up to ``DEFAULT_MAX_ITER``
    iterations (:func:`_ascend`); deterministic for a fixed seed.  Returns
    (value, maximizing v, converged flag).
    """
    frame = _pullback(
        np.asarray(s_list, dtype=complex)[None], np.asarray(form, dtype=complex)[None]
    )
    value, v, converged, _ = _quad_norms(frame, DEFAULT_STARTS, seed, DEFAULT_MAX_ITER)
    return float(value[0]), v[0], bool(converged[0])


# -- Schwarzian norms ---------------------------------------------------------


def _schwarzian_rows(cases) -> np.ndarray:
    """S^k of (map, points (p_i, n)) cases, stacked in case order: S^0 is not
    needed for norms, so each :func:`.maps._derivative_chunks` call stops at
    D^2F and assembles S^k alone (:func:`.schwarzian._sk_block`).  Row q equals
    the S^k of ``schwarzian_of`` of its map at its point bit for bit."""
    n = cases[0][1].shape[1]
    sk = np.empty((sum(len(z) for _, z in cases), n, n, n), dtype=complex)
    for rows, (_, d1, d2) in _derivative_chunks(cases, 2):
        sk[rows] = _sk_block(*_jacobi(d1, d2)[1:])
    return sk


def _tensors_at(sk, points):
    """Frame of stacked Schwarzian tensors ``sk`` (p, n, n, n) in the Bergman
    metric at their points (p, n), and their upper ends.

    One vectorized metric expression and one Cholesky factorization for all
    the points.
    """
    frame = _pullback(sk, _metrics(np.asarray(points, dtype=complex)))
    return frame, _sym_upper(frame)


def schwarzian_norms_at(
    cases,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[NormEstimate]:
    """Pointwise invariant Schwarzian norms ||S F(z)|| of (map, point) cases.

    Many maps, one kernel call: the tensors of every case come from one
    grouped call (``_schwarzian_rows``), are pulled back in one frame
    and are solved in one call of the n = 2 or n >= 3 kernel.  A case's
    result does not depend on the list it is in, so entry i equals the
    single-case call on case i bit for bit.  All cases share one dimension;
    an empty list gives [].  Input direction and operator output
    are both measured with the Bergman metric at the case's point.  Exact at
    n = 2, where ``starts``, ``seed`` and ``max_iter`` have no effect; a
    searched lower bound at n >= 3.
    """
    cases = [(m, _points(m, np.ravel(z))) for m, z in cases]
    if not cases:
        return []
    dims = {map_dim(m) for m, _ in cases}
    if len(dims) > 1:
        raise DimensionError(f"cases mix the dimensions {sorted(dims)}")
    points = np.stack([z for _, z in cases])
    frame, upper = _tensors_at(_schwarzian_rows([(m, z[None]) for m, z in cases]), points)
    value, v, converged, iterations = _quad_norms(frame, starts, seed, max_iter)
    return [
        NormEstimate(
            value=float(value[i]), arg_v=v[i], arg_z=z, converged=bool(converged[i]),
            iterations=int(iterations[i]), upper=float(upper[i]),
        )
        for i, (_, z) in enumerate(cases)
    ]


def schwarzian_norm_at(
    m: MapSpec,
    z,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
) -> NormEstimate:
    """Pointwise invariant Schwarzian norm ||S F(z)||: the one case of
    :func:`schwarzian_norms_at`."""
    return schwarzian_norms_at([(m, z)], starts, seed, max_iter)[0]


def schwarzian_norm_sups(
    maps,
    r_max: float = 0.9,
    shells: int = 7,
    starts: int = DEFAULT_STARTS,
    angular: int = 50,
    refine: int = 3,
    seed: int = 0,
) -> list[NormEstimate]:
    """Searched lower bounds of ||S F|| = sup_z ||S F(z)|| over |z| <= r_max, one per map.

    Radial shells (``shells`` radii from 0 to ``r_max``) with ``angular``
    deterministic direction samples per shell, followed by ``refine`` rounds
    of 16 points of shrinking local perturbation around each map's
    incumbent, the first point in probe order with the largest value; a
    refine point beyond ``r_max`` is scaled back onto that sphere.  The maps
    run in lockstep: each round builds the tensors of every map's points in one
    grouped call and solves them, with their upper ends, in one kernel call.
    Pruning and incumbents stay per map: a point whose upper end, times
    1 + ``UPPER_SLACK``, lies below its map's floor is dropped.  The floor
    starts at the map's incumbent value in a refine round and with none in
    the grid round; at n >= 3 the ascent raises it to the largest value the
    map has reached before each iteration (:func:`_ascend`).
    A dropped point cannot hold the max, so the result equals solving every
    point, and ``pruned`` counts them.  Every map draws the same points from
    ``default_rng(seed)``, so entry i equals the one-map call on ``maps[i]``
    bit for bit.  Pointwise values are exact at n = 2 (``starts`` has no
    effect there) and searched at n >= 3; ``upper`` is the upper end at the
    incumbent ``arg_z``.  All maps share one dimension; no maps give [].
    """
    if not 0.0 <= r_max < 1.0:
        raise OutsideDomainError(f"search radius r_max = {r_max} must lie in [0, 1)")
    maps = list(maps)
    dims = sorted({map_dim(m) for m in maps})
    if len(dims) > 1:
        raise DimensionError(f"maps mix the dimensions {dims}")
    if not maps:
        return []
    n = dims[0]
    if n < 2:
        raise DimensionError("Schwarzian tensors require n >= 2")
    rng = np.random.default_rng(seed)
    radii = np.linspace(0.0, r_max, max(int(shells), 1))
    best = [NormEstimate(value=-1.0, arg_v=None, arg_z=None, converged=True, points=0) for _ in maps]

    def gaussian_steps(count: int) -> np.ndarray:
        draws = rng.standard_normal((count, 2, n))
        return draws[:, 0] + 1j * draws[:, 1]

    def consider(points: np.ndarray, floor):
        """Solve the round's points (maps, k, n) in one kernel call; keep each map's first best one.

        A point dropped by its upper end comes back as -inf: its value is
        below a value the call found for its map or below its map's
        ``floor``, so it cannot be the round's winner or beat the incumbent.
        """
        frame, upper = _tensors_at(_schwarzian_rows(list(zip(maps, points))), points.reshape(-1, n))
        out = _quad_norms(frame, starts, seed, DEFAULT_MAX_ITER, upper, floor) + (upper,)
        for est, pts, values, vs, converged, steps, up in zip(
            best, points, *(a.reshape(points.shape[:2] + a.shape[1:]) for a in out)
        ):
            est.points += len(pts)
            est.pruned += int(np.sum(np.isneginf(values)))
            est.iterations += int(np.sum(steps))
            i = int(np.argmax(values))
            if values[i] > est.value:
                est.value, est.arg_v, est.arg_z = float(values[i]), vs[i], pts[i]
                est.converged, est.upper = bool(converged[i]), float(up[i])

    count = max(int(angular), 1)
    shell = gaussian_steps(np.count_nonzero(radii) * count)
    at = np.repeat(radii, np.where(radii == 0.0, 1, count))  # each grid point's radius
    grid = np.zeros((len(at), n), dtype=complex)
    grid[at != 0.0] = at[at != 0.0, None] * (shell / _row_norms(shell)[:, None])
    consider(np.repeat(grid[None], len(maps), axis=0), np.full(len(maps), -np.inf))

    spacing = r_max / max(len(radii) - 1, 1) if r_max > 0 else 0.1
    rho = 0.5 * spacing
    for _ in range(max(int(refine), 0)):
        steps = rho * gaussian_steps(16) / np.sqrt(2 * n)
        centers = np.array([np.zeros(n, dtype=complex) if est.arg_z is None else est.arg_z
                            for est in best])
        z = (centers[:, None] + steps).reshape(-1, n)
        norm_z = _row_norms(z)
        out = norm_z > r_max  # pulled back onto the sphere of radius r_max
        z[out] *= (r_max / norm_z[out])[:, None]
        consider(z.reshape(len(maps), 16, n), np.array([est.value for est in best]))
        rho *= 0.4
    for est in best:
        est.value = max(est.value, 0.0)
    return best


def schwarzian_norm_sup(
    m: MapSpec,
    r_max: float = 0.9,
    shells: int = 7,
    starts: int = DEFAULT_STARTS,
    angular: int = 50,
    refine: int = 3,
    seed: int = 0,
) -> NormEstimate:
    """Searched lower bound of ||S F|| over |z| <= r_max: the one map of
    :func:`schwarzian_norm_sups`."""
    return schwarzian_norm_sups([m], r_max, shells, starts, angular, refine, seed)[0]
