"""Bergman metric, norms, isometry, and the supremum optimizer."""

import dataclasses

import numpy as np
import pytest

from schwarzball import bergman, checks, family, maps, schwarzian
from schwarzball.bergman import (
    DEFAULT_MAX_ITER,
    DEFAULT_STARTS,
    UPPER_SLACK,
    _ascend,
    _grad_and_hess,
    _hopf_quadratic,
    _lengths,
    _newton_directions,
    _pullback,
    _quad_norms,
    _sym_upper,
    _tensors_at,
    _value,
    max_quadratic_image_norm,
    metric_at,
    schwarzian_norm_at,
    NormEstimate,
    schwarzian_norm_sup,
    schwarzian_norm_sups,
    schwarzian_norms_at,
)
from schwarzball.errors import DimensionError, OutsideDomainError
from schwarzball.maps import (
    CompositionMap,
    PolyMap,
    automorphism_from_center,
    identity_map,
    map_eval,
    map_jet_at,
    moebius_pole_at_e1,
    random_ball_point,
    random_moebius,
    random_normalized_polymap,
)
from schwarzball.schwarzian import schwarzian_of

from helpers import normalized_samples, quadratic_image, unitary_automorphism


def shear(a, n=2):
    """(z1 + a z2^2, z2, ..., zn): its norm at the origin is 2a / sqrt(n + 1)."""
    e = np.eye(n, dtype=int)
    comps = [{tuple(e[k]): 1} for k in range(n)]
    comps[0][tuple(2 * e[1])] = a
    return PolyMap(n, comps)


def test_norm_at_scaled_map_equals_unscaled():
    # a map scaled by 1e-5 has |det DF| = 1e-15 but the tensors of the map itself
    z = [0.1, 0.2, 0.0]

    def scaled_shear(c):
        return PolyMap(3, [{(1, 0, 0): c, (0, 2, 0): c / 2}, {(0, 1, 0): c}, {(0, 0, 1): c}])

    base = schwarzian_norm_at(scaled_shear(1.0), z)
    est = schwarzian_norm_at(scaled_shear(1e-5), z)
    assert base.value > 0.1
    assert abs(est.value - base.value) <= 1e-12 * base.value


def test_metric_at_origin():
    for n in (2, 3, 4):
        g = metric_at(np.zeros(n)).g
        assert np.max(np.abs(g - (n + 1) * np.eye(n))) == 0


def test_metric_at_half_e1():
    g = metric_at([0.5, 0.0]).g
    assert abs(g[0, 0] - 3 / 0.5625) <= 1e-12
    assert abs(g[1, 1] - 4.0) <= 1e-12
    assert abs(g[0, 1]) == 0 and abs(g[1, 0]) == 0


def test_metric_hermitian_positive():
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = random_ball_point(3, rng, 0.95)
        g = metric_at(z).g
        assert np.max(np.abs(g - g.conj().T)) <= 1e-14
        assert np.min(np.linalg.eigvalsh(g)) > 0


def test_metric_outside_ball():
    with pytest.raises(OutsideDomainError):
        metric_at([1.0, 0.0])


def test_bergman_norm_values_and_homogeneity():
    assert abs(_lengths(np.zeros((1, 2)), np.array([[1.0, 0.0]]))[0] - np.sqrt(3)) <= 1e-14
    rng = np.random.default_rng(9)
    z = random_ball_point(2, rng, 0.7)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c = -1.3 + 0.4j
    scaled, plain = _lengths(np.array([z, z]), np.array([c * v, v]))
    assert abs(scaled - abs(c) * plain) <= 1e-12
    # each row is its own one-row call, bit for bit
    zs = np.array([random_ball_point(3, rng, 0.9) for _ in range(7)])
    vs = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    rows = _lengths(zs, vs)
    assert all(rows[i] == _lengths(zs[i:i + 1], vs[i:i + 1])[0] for i in range(7))
    with pytest.raises(OutsideDomainError):
        _lengths(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))


def test_isometry_of_automorphisms():
    rng = np.random.default_rng(21)
    for _ in range(100):
        zeta = random_ball_point(2, rng, 0.8)
        sigma = automorphism_from_center(zeta)
        z = random_ball_point(2, rng, 0.8)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        dsig = map_jet_at(sigma, z, 1).derivatives(1)
        lhs, rhs = _lengths(np.array([map_eval(sigma, z), z]), np.array([dsig @ v, v]))
        assert abs(lhs - rhs) <= 1e-9 * rhs


def _realified_form(m):
    """Symmetric real 2n x 2n Q with x^T Q x = sum_ij m_ij v_i conj(v_j), x = (Re v, Im v)."""
    re, im = np.real(m), np.imag(m)
    return np.block([[re, im], [-im, re]])


def test_optimizer_gradient_matches_finite_differences():
    # the kernel's objective, gradient and Hessian in the frame v = M w,
    # T = L^H S(M., M.) of a random metric: the value against the norm of S
    # at v, the gradient and the Hessian against central differences of it
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        s = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        s = 0.5 * (s + np.swapaxes(s, 1, 2))
        g = metric_at(random_ball_point(n, rng, 0.6)).g
        chol = np.linalg.cholesky(np.conj(g))
        m = np.conj(np.linalg.inv(chol)).T
        t_flat = np.einsum("lk,ia,lij,jb->kab", np.conj(chol), m, s, m).reshape(1, n, n * n)

        def val(x):
            v = m @ (x[:n] + 1j * x[n:])
            u = np.einsum("lij,i,j->l", s, v, v)
            return float(np.real(np.einsum("ij,i,j->", g, u, np.conj(u))))

        h, eye = 1e-4, np.eye(2 * n)
        for _ in range(5):
            x = rng.standard_normal(2 * n)
            x /= np.linalg.norm(x)
            v = m @ (x[:n] + 1j * x[n:])
            assert abs(np.real(np.einsum("ij,i,j->", g, v, np.conj(v))) - 1.0) <= 1e-14
            assert abs(_value(x[None], t_flat)[0] - val(x)) <= 1e-14 * val(x)
            grad, hess = _grad_and_hess(x[None], t_flat)
            fd = np.array([(val(x + h * e) - val(x - h * e)) / (2 * h) for e in eye])
            assert np.max(np.abs(grad[0] - fd)) <= 1e-6 * np.max(np.abs(fd))
            fd2 = np.array([[
                (val(x + h * (a + b)) - val(x + h * (a - b)) - val(x - h * (a - b))
                 + val(x - h * (a + b))) / (4 * h * h) for b in eye] for a in eye])
            assert np.max(np.abs(hess[0] - fd2)) <= 1e-6 * np.max(np.abs(fd2))


def test_max_quadratic_image_norm_closed_form():
    # single S with only S[0][1,1] = 2a, Bergman metric at 0: value 2a/sqrt(3)
    a = 0.5
    s = np.zeros((2, 2, 2), dtype=complex)
    s[0, 1, 1] = 2 * a
    g = metric_at(np.zeros(2)).g
    value, v, converged = max_quadratic_image_norm(s, g, seed=0)
    assert converged
    assert abs(value - 2 * a / np.sqrt(3)) <= 1e-10


def test_norm_at_identity_and_moebius():
    assert schwarzian_norm_at(identity_map(2), [0.1, 0.2]).value <= 1e-12
    assert schwarzian_norm_at(moebius_pole_at_e1(2), [0.3, -0.1j]).value <= 1e-8


def test_norm_at_shear_closed_form():
    # small a: near-Moebius, where a step that is not scale-free stalls; the
    # value is exact at n = 2 (no ascent steps) and searched at n = 3
    for n in (2, 3):
        for a in (0.5, 1e-2, 1e-3, 1e-4):
            est = schwarzian_norm_at(shear(a, n), np.zeros(n))
            expected = 2 * a / np.sqrt(n + 1)
            assert abs(est.value - expected) <= 1e-10 * expected
            assert est.converged
            assert est.points == 1
            assert est.iterations == 0 if n == 2 else est.iterations > 0


def _scalar_loop(s_list, form_in, form_out, starts=16, seed=0, max_iter=500):
    """Reference: one start at a time, in the realified frame x = L^T (Re v, Im v).

    Projected gradient ascent with Barzilai-Borwein steps only, no Newton
    steps.  L is the Cholesky factor of the realified input form, a different
    frame from the kernel's v = M w, so the two ascents start from different
    directions and agree only through the maximum.
    """
    n = s_list.shape[-1]
    chol = np.linalg.cholesky(_realified_form(form_in))
    chol_inv_t = np.linalg.inv(chol.T)
    s_flat = s_list.reshape(n, n * n)

    def value_sq_and_grad(x):
        ab = chol_inv_t @ x
        v = ab[:n] + 1j * ab[n:]
        u = s_flat @ np.outer(v, v).ravel()
        eta = form_out @ np.conj(u)
        w = 2.0 * ((eta @ s_flat).reshape(n, n) @ v)
        grad_ab = np.concatenate([2.0 * np.real(w), -2.0 * np.imag(w)])
        return float(np.real(u @ eta)), chol_inv_t.T @ grad_ab

    rng = np.random.default_rng(seed)
    best_val, all_converged = -1.0, True
    for _ in range(starts):
        x = rng.standard_normal(2 * n)
        x /= np.linalg.norm(x)
        val2, grad = value_sq_and_grad(x)
        prev_x = prev_tangent = None
        converged = False
        for _ in range(max_iter):
            tangent = grad - np.dot(grad, x) * x
            tnorm = float(np.linalg.norm(tangent))
            if tnorm < 1e-14 * max(1.0, val2):
                converged = True
                break
            t = 1.0
            if prev_x is not None:
                sx, y = x - prev_x, prev_tangent - tangent
                sy = float(np.dot(sx, y))
                if sy > 1e-30:
                    t = min(max(float(np.dot(sx, sx)) / sy, 1e-10), 1e6)
            moved, accepted = 0.0, False
            while t * tnorm >= 1e-12:
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
            if not accepted or moved < 1e-12:
                converged = True
                break
        all_converged = all_converged and converged
        best_val = max(best_val, val2)
    return float(np.sqrt(max(best_val, 0.0))), all_converged


def test_kernel_matches_scalar_reference_loop():
    # the kernel's Newton steps against the Barzilai-Borwein reference: they
    # agree through the maximum
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        for _ in range(4):
            s = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
            s = 0.5 * (s + np.swapaxes(s, 1, 2))
            g = metric_at(random_ball_point(n, rng, 0.8)).g
            ref, ref_converged = _scalar_loop(s, g, g)
            assert ref_converged
            value, _, converged, _ = _ascend(_pullback(s[None], g[None]), 16, 0, 500)
            assert converged[0]
            assert abs(value[0] - ref) <= 1e-12 * ref


def test_stack_rows_equal_single_problem_calls():
    # a problem's result does not depend on the batch it is solved in, bit for
    # bit: the sup solves slices of a round's frame and relies on it
    rng = np.random.default_rng(29)
    n = 3
    s = np.stack([_symmetric_tensor(rng, n, scale) for scale in (0.3, 1e-3) * 10])
    g = np.stack([metric_at(random_ball_point(n, rng, 0.9)).g for _ in range(20)])
    frame = _pullback(s, g)
    stacked = _ascend(frame, 6, 5, DEFAULT_MAX_ITER)
    for p in range(20):
        single = _ascend(tuple(a[p:p + 1] for a in frame), 6, 5, DEFAULT_MAX_ITER)
        for whole, one in zip(stacked, single):
            assert np.array_equal(whole[p:p + 1], one)


def _pruning_stack(rng, n, problems=24):
    """Problems of widely spread sizes, so the floor drops some and keeps others."""
    s = np.stack([_symmetric_tensor(rng, n, 10.0 ** rng.uniform(-2, 0)) for _ in range(problems)])
    g = np.stack([metric_at(random_ball_point(n, rng, 0.9)).g for _ in range(problems)])
    frame = _pullback(s, g)
    return frame, _sym_upper(frame)


@pytest.mark.parametrize("n", [3, 4])
def test_pruned_ascent_keeps_the_unpruned_results(n):
    # a kept problem gets the unpruned call's arrays bit for bit; a dropped
    # one comes back as -inf, and its upper end lies below the returned
    # maximum or below the given floor
    rng = np.random.default_rng(50 + n)
    frame, upper = _pruning_stack(rng, n)
    plain = _ascend(frame, 6, 5, DEFAULT_MAX_ITER)
    for floor in (-np.inf, float(np.median(plain[0]))):
        pruned = _ascend(frame, 6, 5, DEFAULT_MAX_ITER, upper, floor)
        kept = np.isfinite(pruned[0])
        assert 0 < kept.sum() < len(kept)
        for whole, part in zip(plain, pruned):
            assert np.array_equal(whole[kept], part[kept])
        bar = max(float(np.max(pruned[0])), floor)
        assert np.all(upper[~kept] * (1 + UPPER_SLACK) < bar)
        # the first problem with the largest value is kept
        assert int(np.argmax(pruned[0])) == int(np.argmax(plain[0]))
        # dropped rows stop early: their steps count, but fewer of them
        assert pruned[3].sum() < plain[3].sum()


def test_pruned_closed_form_keeps_the_unpruned_results():
    # n = 2: one closed-form call over every problem, then the dropped rows
    # come back as -inf; every row equals its problem solved alone, bit for bit
    rng = np.random.default_rng(52)
    frame, upper = _pruning_stack(rng, 2)
    plain = _quad_norms(frame, 6, 5, DEFAULT_MAX_ITER)
    floor = float(np.median(plain[0]))
    pruned = _quad_norms(frame, 6, 5, DEFAULT_MAX_ITER, upper, floor)
    kept = np.isfinite(pruned[0])
    assert 0 < kept.sum() < len(kept)
    assert np.all(upper[~kept] * (1 + UPPER_SLACK) < floor)
    assert np.array_equal(pruned[0][kept], plain[0][kept])
    for p in range(len(upper)):
        alone = _quad_norms(tuple(a[p:p + 1] for a in frame), 6, 5, DEFAULT_MAX_ITER)
        assert [a[p].tobytes() for a in plain] == [a[0].tobytes() for a in alone]


@pytest.mark.parametrize("n", [2, 3])
def test_pruning_drops_nan_and_survives_an_empty_round(n):
    rng = np.random.default_rng(60 + n)
    frame, upper = _pruning_stack(rng, n, problems=6)
    plain = _quad_norms(frame, 6, 5, DEFAULT_MAX_ITER)[0]
    loser = int(np.argmin(plain))
    upper[loser] = np.nan
    value = _quad_norms(frame, 6, 5, DEFAULT_MAX_ITER, upper)[0]
    assert np.isneginf(value[loser])
    assert np.max(value) == np.max(plain)
    # every problem is dropped before any step: a refine round above every upper end
    value, _, _, steps = _quad_norms(frame, 6, 5, DEFAULT_MAX_ITER, upper, np.inf)
    assert np.isneginf(value).all() and not steps.any()


def _dense_newton_directions(x, tangent, hess, mult):
    """Oracle: the saddle-free direction through the dense projector.

    P = I - [x Jx][x Jx]^T; the Riemannian Hessian P (H - (x^T g) I) P with
    x and Jx shifted far negative, and d = V diag(1 / max(|lam|, 1e-8
    shift)) V^T tangent over its full 2n-dimensional eigendecomposition.
    """
    n2 = x.shape[1]
    jx = np.concatenate([-x[:, n2 // 2:], x[:, :n2 // 2]], axis=1)
    basis = np.stack([x, jx], axis=2)
    along = basis @ np.swapaxes(basis, 1, 2)
    proj = np.eye(n2) - along
    riem = proj @ (hess - mult[:, None, None] * np.eye(n2)) @ proj
    shift = 2.0 * np.linalg.norm(riem, axis=(1, 2)) + np.abs(mult)
    lam, vec = np.linalg.eigh(riem - shift[:, None, None] * along)
    inv = 1.0 / np.maximum(np.abs(lam), 1e-8 * shift[:, None])
    coef = inv * (np.swapaxes(vec, 1, 2) @ tangent[:, :, None])[:, :, 0]
    return (vec @ coef[:, :, None])[:, :, 0]


def _newton_inputs(x, t):
    """(x, tangent, hess, mult) of ``_newton_directions`` at the rows x of the frame tensors t."""
    rows, n = t.shape[0], t.shape[-1]
    g, h = _grad_and_hess(x, t.reshape(rows, n, n * n))
    mult = np.sum(g * x, axis=1)
    return x, g - mult[:, None] * x, h, mult


def _random_iterates(rng, n, rows):
    t = np.stack([_symmetric_tensor(rng, n, 1.0) for _ in range(rows)])
    x = rng.standard_normal((rows, 2 * n))
    return _newton_inputs(x / np.linalg.norm(x, axis=1, keepdims=True), t)


def _near_maximum_iterates(rng, n, rows):
    # ascent maxima in the identity form, where v = w, moved off by 1e-4: there
    # the Riemannian Hessian is negative definite
    frame = _pullback(np.stack([_symmetric_tensor(rng, n, 1.0) for _ in range(rows)]),
                      np.broadcast_to(np.eye(n, dtype=complex), (rows, n, n)))
    v = _ascend(frame, 4, 0, DEFAULT_MAX_ITER)[1]
    x = np.concatenate([v.real, v.imag], axis=1) + 1e-4 * rng.standard_normal((rows, 2 * n))
    return _newton_inputs(x / np.linalg.norm(x, axis=1, keepdims=True), frame[0])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_tangent_newton_direction_matches_the_dense_projector(n):
    # random rows take the eigendecomposition mostly, rows near a maximum the solve
    rng = np.random.default_rng(70 + n)
    for args in (_random_iterates(rng, n, 40), _near_maximum_iterates(rng, n, 40)):
        d = _newton_directions(*args)
        ref = _dense_newton_directions(*args)
        assert np.all(np.linalg.norm(d - ref, axis=1) <= 1e-10 * np.linalg.norm(ref, axis=1))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_certified_newton_rows_make_no_eigendecomposition(n, monkeypatch):
    args = _near_maximum_iterates(np.random.default_rng(80 + n), n, 40)
    want = _newton_directions(*args)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
    assert np.array_equal(_newton_directions(*args), want) and calls == []
    # beside random rows, one eigendecomposition takes some of those rows alone
    mixed = zip(args, _random_iterates(np.random.default_rng(80 + n), n, 40))
    _newton_directions(*(np.concatenate(a) for a in mixed))
    assert len(calls) == 1 and 0 < calls[0] <= 40


@pytest.mark.parametrize("n", [3, 4, 5])
def test_newton_rows_of_a_mixed_batch_equal_their_one_row_calls(n, monkeypatch):
    rng = np.random.default_rng(90 + n)
    parts = [_random_iterates(rng, n, 20), _near_maximum_iterates(rng, n, 20)]
    order = rng.permutation(40)
    args = [np.concatenate(a)[order] for a in zip(*parts)]
    verdicts = []
    newton_rows = bergman._newton_rows
    monkeypatch.setattr(bergman, "_newton_rows",
                        lambda r, f: verdicts.append(newton_rows(r, f)) or verdicts[-1])
    d = _newton_directions(*args)
    assert 0 < verdicts[0].sum() < 40  # both routes run in the batch
    for i in range(40):
        alone = _newton_directions(*(a[i:i + 1] for a in args))
        assert alone[0].tobytes() == d[i].tobytes()
        assert verdicts[-1][0] == verdicts[0][i]


@pytest.mark.parametrize("m", [4, 6, 8])
def test_newton_certificate_agrees_with_eigvalsh_at_the_floor(m):
    # -R = V diag(mu) V^T with its smallest eigenvalue a factor 1 +- 1e-3 from
    # the floor, beside rows with a negative eigenvalue
    rng = np.random.default_rng(m)
    rows = 60
    mu = rng.uniform(0.5, 2.0, (rows, m))
    floor = 1e-8 * (2.0 * np.sqrt(np.sum(mu**2, axis=1)) + rng.uniform(0.0, 1.0, rows))
    factor = np.tile([1.0 + 1e-3, 1.0 - 1e-3, -1.0], rows // 3)
    mu[:, rng.integers(m)] = factor * floor
    mu[factor < 0, -1] = -1.0
    vec = np.linalg.qr(rng.standard_normal((rows, m, m)))[0]
    riem = -(vec * mu[:, None, :]) @ np.swapaxes(vec, 1, 2)
    riem = 0.5 * (riem + np.swapaxes(riem, 1, 2))
    certified = np.linalg.eigvalsh(-riem)[:, 0] > floor
    assert np.array_equal(certified, factor > 1.0)
    assert np.array_equal(bergman._newton_rows(riem, floor), certified)


def test_barzilai_borwein_iterations_build_no_hessian(monkeypatch):
    rng = np.random.default_rng(95)
    frame = _pullback(np.stack([_symmetric_tensor(rng, 3, 1.0) for _ in range(5)]),
                      np.broadcast_to(np.eye(3, dtype=complex), (5, 3, 3)))
    built = []
    grad_and_hess = bergman._grad_and_hess

    def spy(x, t_flat, **kwargs):
        out = grad_and_hess(x, t_flat, **kwargs)
        built.append(out[1] is not None)
        return out

    monkeypatch.setattr(bergman, "_grad_and_hess", spy)
    _ascend(frame, 4, 0, bergman.BB_STEPS + 3)
    assert built == [False] * bergman.BB_STEPS + [True] * 3


def test_ascent_has_no_long_tail():
    # the sup's probe settings (6 starts) on near-Moebius and moderate cubics
    # at n = 3: every problem converges within 150 accepted steps over its
    # starts (the Barzilai-Borwein ascent alone took up to 501 here)
    for scale in (1e-3, 0.1):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            m = random_normalized_polymap(3, rng, scale=scale)
            points = np.array([random_ball_point(3, rng, 0.85) for _ in range(40)])
            frame, _ = _tensors_at(schwarzian_of(m, points).Sk, points)
            _, _, converged, steps = _ascend(frame, 6, seed, DEFAULT_MAX_ITER)
            assert converged.all()
            assert steps.max() <= 150


def _schwarzian_frames(n, maps, seed, points=10):
    """Frames of cubic maps' Schwarzian tensors at points with |z| <= 0.85, near-Moebius to large."""
    rng = np.random.default_rng(seed)
    sk, zs = [], []
    for i in range(maps):
        m = random_normalized_polymap(n, rng, scale=(1e-3, 0.1, 0.3)[i % 3])
        z = np.array([random_ball_point(n, rng, 0.85) for _ in range(points)])
        sk.append(schwarzian_of(m, z).Sk)
        zs.append(z)
    return _tensors_at(np.concatenate(sk), np.concatenate(zs))[0]


@pytest.mark.parametrize("n", [3, 4])
def test_screen_starts_from_the_best_pool_directions(n, monkeypatch):
    # with no step taken, a problem's value is its best start: the best of the
    # START_POOL * k pool directions when screened, and the best of the pool's
    # first k rows, the unscreened draws, when START_POOL is 1
    frame = _schwarzian_frames(n, 3, 80 + n)
    t, _, scale, _ = frame
    k, seed = 6, 3
    pool = np.random.default_rng(seed).standard_normal((bergman.START_POOL * k, 2 * n))
    w = (pool[:, :n] + 1j * pool[:, n:]) / np.linalg.norm(pool, axis=1, keepdims=True)
    val2 = np.sum(np.abs(np.einsum("pkij,ci,cj->pck", t, w, w)) ** 2, axis=2)
    screened = _ascend(frame, k, seed, 0)[0]
    monkeypatch.setattr(bergman, "START_POOL", 1)
    plain = _ascend(frame, k, seed, 0)[0]
    assert np.allclose(screened, np.sqrt(val2.max(axis=1)) * scale, rtol=1e-12, atol=0)
    assert np.allclose(plain, np.sqrt(val2[:, :k].max(axis=1)) * scale, rtol=1e-12, atol=0)


def test_screened_ascent_misses_no_more_maxima_than_the_unscreened(monkeypatch):
    # a miss ends more than 1e-9 below a 256-start unscreened ascent; seeded
    # n = 3, 4 Schwarzian frames, at the sup's probe starts (6) and the
    # pointwise default (16).  Neither misses here: misses are rare at these
    # starts (8 each in 7200 such problems at 6 starts), so this guards
    # against a screen that loses maxima wholesale, not against rare ones
    screened_pool = bergman.START_POOL
    misses = {(starts, pool): 0 for starts in (6, DEFAULT_STARTS) for pool in (1, screened_pool)}
    for n, maps in ((3, 4), (4, 2)):
        frame = _schwarzian_frames(n, maps, 90 + n)
        monkeypatch.setattr(bergman, "START_POOL", 1)
        reference = _ascend(frame, 256, 0, DEFAULT_MAX_ITER)[0]
        for starts, pool in misses:
            monkeypatch.setattr(bergman, "START_POOL", pool)
            value = _ascend(frame, starts, 0, DEFAULT_MAX_ITER)[0]
            misses[starts, pool] += int(np.sum(value < reference * (1 - 1e-9)))
    for starts in (6, DEFAULT_STARTS):
        assert misses[starts, screened_pool] <= misses[starts, 1]


def test_max_quadratic_image_norm_scale_equivariant():
    # a near-Moebius cubic: ||S|| is about 1e-3
    rng = np.random.default_rng(4)
    m = random_normalized_polymap(2, rng, scale=1e-3)
    z = np.array([0.3, -0.2 + 0.1j])
    sk = schwarzian_of(m, z).Sk
    g = metric_at(z).g
    base, _, base_converged = max_quadratic_image_norm(sk, g)
    assert base_converged
    for c in (1.0, 1e-3, 1e-6):
        value, _, converged = max_quadratic_image_norm(c * sk, g)
        assert converged
        assert abs(value - c * base) <= 1e-12 * c * base


def test_norm_at_value_phase_invariant():
    a = 0.4
    z = np.array([0.2, 0.1])
    est = schwarzian_norm_at(shear(a), z)
    t = schwarzian_of(shear(a), z)
    g = metric_at(z).g
    for phase in (0.7, 2.1, np.pi):
        v = np.exp(1j * phase) * est.arg_v
        u = quadratic_image(t, v)
        val = np.sqrt(np.real(np.einsum("ij,i,j->", g, u, np.conj(u))))
        assert abs(val - est.value) <= 1e-12
    u = quadratic_image(t, -est.arg_v)
    val = np.sqrt(np.real(np.einsum("ij,i,j->", g, u, np.conj(u))))
    assert abs(val - est.value) <= 1e-12


def test_norm_sup_identity_zero():
    est = schwarzian_norm_sup(identity_map(2), r_max=0.9, shells=4, angular=6, starts=4)
    assert est.value <= 1e-12


def test_norm_sup_monotone_in_radius():
    m = shear(0.3)
    lo = schwarzian_norm_sup(m, r_max=0.5, shells=4, angular=10, starts=8)
    hi = schwarzian_norm_sup(m, r_max=0.9, shells=4, angular=10, starts=8)
    assert lo.value <= hi.value + 1e-12


def test_norm_sup_witness_lower_bound():
    est = schwarzian_norm_sup(shear(0.1), r_max=0.9, shells=4, angular=10, starts=8)
    assert est.value >= 0.2 / np.sqrt(3) - 1e-12


def _probe_points(n, r_max, shells, angular, refine, seed, values_at):
    """Replay of the sup's probe pattern, every point of a round solved."""
    rng = np.random.default_rng(seed)
    radii = np.linspace(0.0, r_max, shells)
    points = [np.zeros(n, dtype=complex)]
    for radius in radii[1:]:
        for _ in range(angular):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            points.append(radius * v)
    values = values_at(points)
    rho = 0.5 * r_max / (shells - 1)
    for _ in range(refine):
        center = points[int(np.argmax(values))]
        round_points = []
        for _ in range(16):
            z = center + rho * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2 * n)
            if np.linalg.norm(z) > r_max:
                z = z * (r_max / np.linalg.norm(z))
            round_points.append(z)
        points += round_points
        values += values_at(round_points)
        rho *= 0.4
    return points, values


def test_norm_sup_is_the_max_over_its_replayed_probe_points():
    # the points the upper end prunes cannot hold the max, at either route,
    # at small settings and at the defaults; for a Moebius map values and
    # upper ends are rounding noise (about 1e-15), and the relative pruning
    # still keeps the first point of largest value.  The replay solves every
    # point, in batches whose rows equal single calls
    small = dict(r_max=0.8, shells=3, angular=5, refine=2)
    defaults = dict(r_max=0.9, shells=7, angular=50, refine=3)
    for probe, starts in ((small, 4), (defaults, 16)):
        for n in (2, 3):
            for m, tol in (
                (random_normalized_polymap(n, np.random.default_rng(8), scale=0.1), 1e-12),
                (random_moebius(n, np.random.default_rng(19)), 0.0),
            ):
                est = schwarzian_norm_sup(m, starts=starts, seed=11, **probe)
                points, values = _probe_points(n, seed=11, **probe, values_at=lambda zs: [
                    e.value for e in schwarzian_norms_at([(m, z) for z in zs], starts=starts, seed=11)
                ])
                shells, angular, refine = probe["shells"], probe["angular"], probe["refine"]
                assert est.points == len(points) == 1 + (shells - 1) * angular + 16 * refine
                best = int(np.argmax(values))
                assert abs(est.value - values[best]) <= tol * values[best]
                assert np.max(np.abs(est.arg_z - points[best])) == 0


def _frozen_sup_rounds(maps, r_max, shells, angular, refine, seed, starts):
    """The per-point probe loop of the lockstep sup, frozen from before it built its
    points as arrays: each round's points (maps, k, n), with the incumbents taken
    as the sup takes them."""
    n = maps[0].n
    rng = np.random.default_rng(seed)
    radii = np.linspace(0.0, r_max, max(int(shells), 1))
    best = [(-1.0, None)] * len(maps)
    rounds = []

    def gaussian_steps(count):
        draws = rng.standard_normal((count, 2, n))
        return [d[0] + 1j * d[1] for d in draws]

    def consider(points, floor):
        rounds.append(points)
        sk = bergman._schwarzian_rows(list(zip(maps, points)))
        frame, upper = _tensors_at(sk, points.reshape(-1, n))
        values = _quad_norms(frame, starts, seed, DEFAULT_MAX_ITER, upper, floor)[0]
        for k, (pts, vals) in enumerate(zip(points, values.reshape(points.shape[:2]))):
            i = int(np.argmax(vals))
            if vals[i] > best[k][0]:
                best[k] = (float(vals[i]), pts[i])

    grid = []
    for radius in radii:
        if radius == 0.0:
            grid.append(np.zeros(n, dtype=complex))
            continue
        grid.extend(radius * (v / np.linalg.norm(v)) for v in gaussian_steps(max(int(angular), 1)))
    consider(np.array([grid] * len(maps)), np.full(len(maps), -np.inf))
    rho = 0.5 * (r_max / max(len(radii) - 1, 1) if r_max > 0 else 0.1)
    for _ in range(max(int(refine), 0)):
        steps = gaussian_steps(16)
        round_points = []
        for _, center in best:
            center = center if center is not None else np.zeros(n, dtype=complex)
            round_points.append([])
            for step in steps:
                z = center + rho * step / np.sqrt(2 * n)
                norm_z = float(np.linalg.norm(z))
                if norm_z > r_max:
                    z = z * (r_max / norm_z)
                round_points[-1].append(z)
        consider(np.array(round_points), np.array([value for value, _ in best]))
        rho *= 0.4
    return rounds


@pytest.mark.parametrize("n", [2, 3])
def test_sup_probe_points_equal_the_per_point_loop_byte_for_byte(monkeypatch, n):
    # tobytes tells signed zeros apart: the r_max = 0 round scales every
    # refine point by 0, and the r_max = 0.3 rounds clip points onto |z| = 0.3
    rng = np.random.default_rng(70 + n)
    maps = [random_normalized_polymap(n, rng, scale=0.3) for _ in range(3)]
    seen = []

    def recorded(sk, points):
        seen.append(np.array(points))
        return _tensors_at(sk, points)

    monkeypatch.setattr(bergman, "_tensors_at", recorded)
    clipped = 0
    for probe in (dict(r_max=0.8, shells=3, angular=5, refine=1),
                  dict(r_max=0.0, shells=3, angular=4, refine=1),
                  dict(r_max=0.7, shells=4, angular=1, refine=1),
                  dict(r_max=0.3, shells=2, angular=4, refine=2)):
        for some in (maps[:1], maps):
            seen.clear()
            schwarzian_norm_sups(some, starts=4, seed=5, **probe)
            want = _frozen_sup_rounds(some, seed=5, starts=4, **probe)
            assert [p.tobytes() for p in seen] == [p.reshape(-1, n).tobytes() for p in want]
            if probe["r_max"] == 0.3:
                clipped += sum(int(np.sum(np.abs(np.linalg.norm(p, axis=1) - 0.3) < 1e-15))
                               for p in seen[1:])
    assert clipped > 0


def test_norm_route_sk_equals_the_tensor_route_byte_for_byte(monkeypatch):
    # the norm route stops at D^2F and assembles S^k alone; the tensor route
    # goes to D^3F for S^0 too: both give the same S^k, at every row cap
    for n in (2, 3, 4):
        rng = np.random.default_rng(80 + n)
        kinds = [m for _, m in normalized_samples(n, rng)] + [
            random_moebius(n, rng),
            CompositionMap((random_moebius(n, rng), random_normalized_polymap(n, rng)))]
        cases = [(m, np.array([random_ball_point(n, rng, 0.8) for _ in range(k % 3 + 1)]))
                 for k, m in enumerate(kinds * 2)]
        for cap in (maps.ROW_ENTRIES, 3 * n**3):
            monkeypatch.setattr(maps, "ROW_ENTRIES", cap)
            want = np.concatenate([t.Sk for t in schwarzian.schwarzian_ofs(cases)])
            assert bergman._schwarzian_rows(cases).tobytes() == want.tobytes()
        m, z = cases[0][0], cases[0][1][0]
        assert bergman._schwarzian_rows([(m, z[None])])[0].tobytes() == schwarzian_of(m, z).Sk.tobytes()


def test_norm_sup_run_counters():
    # the probe settings of extremal_search's inner norm estimate; exact
    # pointwise values at n = 2 take no ascent steps.  Pruning runs at every
    # n, the exact route included: ``points`` counts every probed point and
    # ``pruned`` those dropped by their upper end, before the ascent or
    # during it (1 of 47 at n = 2, where only the refine round has a floor,
    # and 43 at n = 3 for this map)
    for n in (2, 3):
        m = random_normalized_polymap(n, np.random.default_rng(2), scale=1e-3)
        probe = dict(r_max=0.85, shells=4, angular=10, starts=6, refine=1, seed=5)
        est = schwarzian_norm_sup(m, **probe)
        again = schwarzian_norm_sup(m, **probe)
        assert est.points == 47
        assert 0 < est.pruned < est.points
        assert est.converged
        assert est.iterations == 0 if n == 2 else est.iterations > 0
        assert est.value <= est.upper
        assert (again.points, again.pruned, again.iterations, again.value, again.upper) == (
            est.points, est.pruned, est.iterations, est.value, est.upper
        )


def test_norm_sup_radius_guard():
    with pytest.raises(OutsideDomainError):
        schwarzian_norm_sup(shear(0.1), r_max=1.0)


def test_invariance_residual_identity_sigma():
    sigma = automorphism_from_center([0.0, 0.0])
    assert checks.invariance([(shear(0.3), sigma, [0.1, 0.2])])["norm"] <= 1e-12


def test_invariance_residual_unitary():
    th = 0.8
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
    sigma = unitary_automorphism(u)
    assert checks.invariance([(shear(0.4), sigma, [0.2, -0.1 + 0.2j])])["norm"] <= 1e-9


def test_norm_and_invariance_through_unitary_with_jacobian_on_the_cut():
    sigma = unitary_automorphism(np.diag([1j, 1j]))  # J sigma = -1 everywhere
    assert schwarzian_norm_sup(sigma).value == 0
    assert checks.invariance([(shear(0.4), sigma, [0.2, -0.1 + 0.2j])])["norm"] <= 1e-9


def test_invariance_residual_random_suite():
    rng = np.random.default_rng(13)
    cases = [
        (random_normalized_polymap(2, rng, scale=0.1),
         automorphism_from_center(random_ball_point(2, rng, 0.5)), random_ball_point(2, rng, 0.5))
        for _ in range(20)
    ]
    assert checks.invariance(cases)["norm"] <= 1e-6


def test_one_map_sup_holds_the_row_cap(monkeypatch):
    # a one-map sup's grid (31 points here) goes through the grouped route, so
    # no derivative call takes more rows than the cap, and the bits stay; the
    # norm route stops at D^2F, so its highest-order array has n^3 entries a row
    rng = np.random.default_rng(15)
    m = CompositionMap((random_normalized_polymap(2, rng, scale=0.1),
                        automorphism_from_center(random_ball_point(2, rng, 0.5))))
    probe = dict(r_max=0.8, shells=4, angular=10, starts=4, refine=1, seed=3)
    want = schwarzian_norm_sup(m, **probe)
    rows = []
    for module in (maps, schwarzian, family):
        def spy(m, z, order, params=None, _own=module._derivatives):
            rows.append(len(z))
            return _own(m, z, order, params)

        monkeypatch.setattr(module, "_derivatives", spy)
    monkeypatch.setattr(maps, "ROW_ENTRIES", 4 * 2**3)
    got = schwarzian_norm_sup(m, **probe)
    assert rows and max(rows) == 4
    for field in dataclasses.fields(NormEstimate):
        a, b = getattr(want, field.name), getattr(got, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


def test_invariance_over_cases_is_the_worst_single_case():
    rng = np.random.default_rng(14)
    cases = [
        (random_normalized_polymap(3, rng, scale=0.1),
         automorphism_from_center(random_ball_point(3, rng, 0.5)), random_ball_point(3, rng, 0.5),
         rng.standard_normal(3) + 1j * rng.standard_normal(3))
        for _ in range(20)
    ]
    singles = [checks.invariance([case], seed=2) for case in cases]
    worst = {name: max(s[name] for s in singles) for name in ("norm", "isometry")}
    assert checks.invariance(cases, seed=2) == worst
    # without a direction there is no isometry residual
    assert set(checks.invariance([case[:3] for case in cases[:2]])) == {"norm"}


def test_invariance_solves_both_sides_in_one_kernel_call(monkeypatch):
    sizes = []

    def counting(cases, *args, **kwargs):
        sizes.append(len(cases))
        return norms_at(cases, *args, **kwargs)

    norms_at = checks.schwarzian_norms_at
    monkeypatch.setattr(checks, "schwarzian_norms_at", counting)
    rng = np.random.default_rng(16)
    cases = [(random_normalized_polymap(2, rng, scale=0.1),
              automorphism_from_center(random_ball_point(2, rng, 0.5)), random_ball_point(2, rng, 0.5))
             for _ in range(5)]
    assert checks.invariance(cases)["norm"] <= 1e-9
    assert sizes == [10]


@pytest.mark.parametrize("n", [2, 3])
def test_norms_at_rows_equal_single_calls(n):
    """Poly, poly o automorphism and Moebius cases in one list; the Moebius rows
    (S about 1e-15) are ZERO_NORM rows inside a nonzero batch."""
    rng = np.random.default_rng(20 + n)
    cases = []
    for i in range(9):
        m = random_normalized_polymap(n, rng, scale=0.1)
        if i % 3 == 1:
            m = CompositionMap((m, automorphism_from_center(random_ball_point(n, rng, 0.5))))
        elif i % 3 == 2:
            m = random_moebius(n, rng)
        cases.append((m, random_ball_point(n, rng, 0.6)))
    many = schwarzian_norms_at(cases, starts=6, seed=5)
    assert len(many) == len(cases)
    assert all((est.value < 1e-12) == (i % 3 == 2) for i, est in enumerate(many))
    for (m, z), est in zip(cases, many):
        one = schwarzian_norm_at(m, z, starts=6, seed=5)
        assert (est.value, est.converged, est.iterations, est.upper) == (
            one.value, one.converged, one.iterations, one.upper
        )
        assert np.array_equal(est.arg_v, one.arg_v)
        assert np.array_equal(est.arg_z, one.arg_z)


def test_norms_at_input_errors():
    assert schwarzian_norms_at([]) == []
    assert checks.invariance([]) == {}
    with pytest.raises(DimensionError):
        schwarzian_norms_at([(shear(0.3), [0.1, 0.2]), (shear(0.3, n=3), [0.1, 0.2, 0.0])])
    sigma2, sigma3 = automorphism_from_center([0.1, 0.0]), automorphism_from_center([0.1, 0.0, 0.0])
    with pytest.raises(DimensionError):
        checks.invariance([(shear(0.3), sigma2, [0.1, 0.2]),
                           (shear(0.3, n=3), sigma3, [0.1, 0.2, 0.0])])
    with pytest.raises(OutsideDomainError):
        schwarzian_norms_at([(shear(0.3), [0.1, 0.2]), (shear(0.3), [0.9, 0.6])])
    # a point of the wrong length, or a map of one variable, is refused before any derivative
    with pytest.raises(DimensionError):
        schwarzian_norm_at(shear(0.3), [0.1])
    with pytest.raises(DimensionError):
        schwarzian_norm_at(shear(0.3), [0.1, 0.2, 0.0])
    with pytest.raises(DimensionError):
        schwarzian_norm_at(maps.affine_map(np.eye(1)), [0.1])


# -- the exact route at n = 2 ----------------------------------------------------


def _symmetric_tensor(rng, n, scale):
    s = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    return scale * 0.5 * (s + np.swapaxes(s, 1, 2))


def _image_norm(s, form, v):
    u = np.einsum("kab,a,b->k", s, v, v)
    return float(np.sqrt(np.real(np.einsum("ij,i,j->", form, u, np.conj(u)))))


def test_exact_route_brackets_the_ascent():
    # at least the 64-start ascent, at most the certified upper end, in a
    # random metric
    rng = np.random.default_rng(23)
    for scale in (0.3, 0.1, 1e-3):
        for _ in range(20):
            s = _symmetric_tensor(rng, 2, scale)
            g = metric_at(random_ball_point(2, rng, 0.9)).g
            value, v, converged = max_quadratic_image_norm(s, g)
            frame = _pullback(s[None], g[None])
            searched = _ascend(frame, 64, 0, 500)[0][0]
            upper = _sym_upper(frame)[0]
            assert converged
            assert value >= searched * (1 - 1e-12)
            assert value <= upper * (1 + UPPER_SLACK)
            # the value is attained at the returned direction
            assert abs(np.real(np.conj(v) @ g.T @ v) - 1.0) <= 1e-12
            assert abs(_image_norm(s, g, v) - value) <= 1e-12 * value


def test_exact_route_hard_case():
    # S^1 = I, S^2 = 0 at the origin: the linear part of the quadratic on the
    # 2-sphere vanishes, and the maximum is sqrt(3) |v|^2 = 1 / sqrt(3)
    s = np.zeros((2, 2, 2), dtype=complex)
    s[0] = np.eye(2)
    g = metric_at(np.zeros(2)).g
    value, v, converged = max_quadratic_image_norm(s, g)
    assert converged
    assert abs(value - 1.0 / np.sqrt(3)) <= 1e-15
    assert abs(_image_norm(s, g, v) - value) <= 1e-15
    assert value >= _ascend(_pullback(s[None], g[None]), 16, 0, 500)[0][0] * (1 - 1e-12)


def test_norm_at_arg_v_attains_the_value():
    # exact at n = 2 and searched at n = 3, the value is attained at arg_v
    rng = np.random.default_rng(31)
    for n in (2, 3):
        m = random_normalized_polymap(n, rng, scale=0.2)
        for _ in range(5):
            z = random_ball_point(n, rng, 0.8)
            est = schwarzian_norm_at(m, z)
            g = metric_at(z).g
            u = quadratic_image(schwarzian_of(m, z), est.arg_v)
            q_in = np.real(np.einsum("ij,i,j->", g, est.arg_v, np.conj(est.arg_v)))
            assert abs(q_in - 1) <= 1e-12
            q_out = np.real(np.einsum("ij,i,j->", g, u, np.conj(u)))
            assert abs(q_out - est.value**2) <= 1e-12 * est.value**2
            assert est.converged
            assert est.iterations == 0 if n == 2 else est.iterations > 0
            assert est.value <= est.upper * (1 + UPPER_SLACK)


def test_upper_end_at_every_n():
    rng = np.random.default_rng(37)
    for n in (2, 3, 4):
        s = _symmetric_tensor(rng, n, 0.2)
        g = metric_at(random_ball_point(n, rng, 0.7)).g
        frame = _pullback(s[None], g[None])
        upper = _sym_upper(frame)[0]
        searched = _ascend(frame, 16, 0, 500)[0][0]
        assert searched <= upper * (1 + UPPER_SLACK)
        # a direction-free form of the same bound: ||T||_F in orthonormal coordinates
        chol = np.linalg.cholesky(g.T)
        m = np.linalg.inv(chol.conj().T)
        t = np.einsum("kl,lab,ai,bj->kij", chol.conj().T, s, m, m)
        assert upper <= np.sqrt(np.sum(np.abs(t) ** 2)) * (1 + 1e-12)


def test_pullback_frame_identities():
    # v = M w lies on the unit sphere of the form, and c |T(w, w)| is the
    # norm of S(v, v) in the same form, for unit w, at every n
    rng = np.random.default_rng(43)
    for n in (2, 3, 4):
        s = np.stack([_symmetric_tensor(rng, n, scale) for scale in (0.3, 1e-3)])
        g = np.stack([metric_at(random_ball_point(n, rng, 0.9)).g for _ in range(2)])
        t, m, c, zero = _pullback(s, g)
        assert not zero.any()
        for p in range(2):
            for _ in range(5):
                w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                w /= np.linalg.norm(w)
                v = m[p] @ w
                assert abs(np.real(np.einsum("ij,i,j->", g[p], v, np.conj(v))) - 1.0) <= 1e-12
                value = c[p] * np.linalg.norm(np.einsum("kij,i,j->k", t[p], w, w))
                assert abs(value - _image_norm(s[p], g[p], v)) <= 1e-12 * value


def test_one_pullback_per_norm_at_and_per_sup_round(monkeypatch):
    # the upper ends and the solve of a batch share its frame: one Cholesky
    # factorization of the stacked metrics per pointwise norm and per round
    # of the sup (the grid, then each refine round), and one kernel call per
    # round over all its points with their upper ends; only refine rounds
    # start with a floor, the incumbent's value
    shapes, calls = [], []
    cholesky, kernel = np.linalg.cholesky, bergman._quad_norms

    def counted(a):
        shapes.append(a.shape)
        return cholesky(a)

    def counted_kernel(frame, starts, seed, max_iter, upper=None, floor=-np.inf):
        calls.append((len(frame[0]), upper is not None, floor))
        return kernel(frame, starts, seed, max_iter, upper, floor)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    monkeypatch.setattr(bergman, "_quad_norms", counted_kernel)
    for n in (2, 3):
        m = random_normalized_polymap(n, np.random.default_rng(3), scale=0.1)
        shapes.clear()
        schwarzian_norm_at(m, np.full(n, 0.2))
        assert shapes == [(1, n, n)]
        shapes.clear()
        calls.clear()
        est = schwarzian_norm_sup(m, r_max=0.8, shells=3, angular=5, starts=4, refine=2)
        assert shapes == [(1 + 2 * 5, n, n), (16, n, n), (16, n, n)]
        assert [c[:2] for c in calls] == [(1 + 2 * 5, True), (16, True), (16, True)]
        assert calls[0][2] == -np.inf and 0 < calls[1][2] <= calls[2][2] <= est.value


def test_hopf_quadratic_matches_symbolic_identity():
    # f(w) = m^H H m with m = (w1^2, w1 w2, w2^2) equals p^T A p + b^T p
    # (+ c0 |p|^2) as polynomials, after homogenizing b^T p by |w|^2; then the
    # code's coefficients equal the symbolic ones at random numeric H
    import sympy as sp

    x1, y1, x2, y2 = sp.symbols("x1 y1 x2 y2", real=True)
    d0, d1, d2 = sp.symbols("d0 d1 d2", real=True)
    r01, i01, r02, i02, r12, i12 = sp.symbols("r01 i01 r02 i02 r12 i12", real=True)
    h01, h02, h12 = r01 + sp.I * i01, r02 + sp.I * i02, r12 + sp.I * i12
    h = sp.Matrix([[d0, h01, h02], [sp.conjugate(h01), d1, h12],
                   [sp.conjugate(h02), sp.conjugate(h12), d2]])
    w1, w2 = x1 + sp.I * y1, x2 + sp.I * y2
    mono = sp.Matrix([w1**2, w1 * w2, w2**2])
    f = sp.expand((mono.H * h * mono)[0, 0])
    c = w1 * sp.conjugate(w2)
    p = sp.Matrix([sp.expand(w1 * sp.conjugate(w1) - w2 * sp.conjugate(w2)),
                   sp.expand(2 * sp.re(c)), sp.expand(2 * sp.im(c))])
    c0 = (d0 + d1 + d2) / 4
    a = sp.Matrix([[(d0 - d1 + d2) / 4, (r01 - r12) / 4, (i01 - i12) / 4],
                   [(r01 - r12) / 4, r02 / 2, i02 / 2],
                   [(i01 - i12) / 4, i02 / 2, -r02 / 2]])
    b = sp.Matrix([(d0 - d2) / 2, (r01 + r12) / 2, (i01 + i12) / 2])
    norm2 = x1**2 + y1**2 + x2**2 + y2**2
    rhs = (p.T * (a + c0 * sp.eye(3)) * p)[0, 0] + norm2 * (b.T * p)[0, 0]
    assert sp.expand(f - rhs) == 0

    rng = np.random.default_rng(41)
    hn = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    hn = hn + hn.conj().T
    subs = {d0: hn[0, 0].real, d1: hn[1, 1].real, d2: hn[2, 2].real,
            r01: hn[0, 1].real, i01: hn[0, 1].imag, r02: hn[0, 2].real,
            i02: hn[0, 2].imag, r12: hn[1, 2].real, i12: hn[1, 2].imag}
    code_a, code_b = _hopf_quadratic(hn[None])
    assert np.max(np.abs(code_a[0] - np.array(a.subs(subs), dtype=float))) <= 1e-14
    assert np.max(np.abs(code_b[0] - np.array(b.subs(subs), dtype=float).ravel())) <= 1e-14


# -- many maps in one sup ----------------------------------------------------------


def _fields(est):
    """Every field of a NormEstimate, arrays as bytes."""
    return [(f.name, v.tobytes() if isinstance(v, np.ndarray) else v)
            for f in dataclasses.fields(NormEstimate) for v in [getattr(est, f.name)]]


def test_lockstep_sups_equal_one_map_sups_in_every_field():
    # the first map's norm lies far below the second's: one floor shared across
    # the maps would drop every point of the first and change its estimate
    for n in (2, 3):
        rng = np.random.default_rng(60 + n)
        maps = [shear(0.01, n), random_normalized_polymap(n, rng, scale=0.6),
                random_moebius(n, rng),
                CompositionMap((random_normalized_polymap(n, rng, scale=0.1),
                                automorphism_from_center(random_ball_point(n, rng, 0.5)))),
                random_normalized_polymap(n, rng, scale=1e-3)]
        probe = dict(r_max=0.8, shells=3, angular=6, starts=4, refine=2, seed=3)
        many = schwarzian_norm_sups(maps, **probe)
        assert 0 < 100 * many[0].value < many[1].value
        assert many[0].pruned < many[0].points  # the first map keeps points of its own
        for m, est in zip(maps, many):
            one = schwarzian_norm_sup(m, **probe)
            assert _fields(est) == _fields(one)
            assert est.points == 1 + 2 * 6 + 2 * 16
        # and the maps' order does not matter
        assert [_fields(e) for e in schwarzian_norm_sups(maps[::-1], **probe)] == [
            _fields(e) for e in many[::-1]]


def test_lockstep_sup_input_errors():
    assert schwarzian_norm_sups([]) == []
    with pytest.raises(DimensionError):
        schwarzian_norm_sups([shear(0.3), shear(0.3, n=3)])
    with pytest.raises(DimensionError):
        schwarzian_norm_sups([maps.affine_map(np.eye(1))])
    with pytest.raises(OutsideDomainError):
        schwarzian_norm_sups([shear(0.3)], r_max=1.0)


def test_one_kernel_call_per_lockstep_round(monkeypatch):
    # every map's points of a round go to one kernel call, with one floor per map
    calls = []
    kernel = bergman._quad_norms

    def counted_kernel(frame, starts, seed, max_iter, upper=None, floor=-np.inf):
        calls.append((len(frame[0]), np.array(floor)))
        return kernel(frame, starts, seed, max_iter, upper, floor)

    monkeypatch.setattr(bergman, "_quad_norms", counted_kernel)
    maps = [shear(0.1, 3), shear(0.5, 3), random_normalized_polymap(3, np.random.default_rng(7))]
    est = schwarzian_norm_sups(maps, r_max=0.8, shells=3, angular=5, starts=4, refine=2)
    assert [c[0] for c in calls] == [3 * 11, 3 * 16, 3 * 16]
    floors = [c[1] for c in calls]
    assert floors[0].shape == (3,) and np.all(floors[0] == -np.inf)
    assert np.all(0 < floors[1]) and np.all(floors[1] <= floors[2])
    assert np.all(floors[2] <= [e.value for e in est])
