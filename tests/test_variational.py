"""Variational machinery: matrix A, expansions, decoupled equations, bounds, search."""

import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

from schwarzball import checks, family, maps, schwarzian, variational
from schwarzball.errors import (
    DimensionError,
    InfeasibleSearchError,
    NormalizationError,
    OutsideDomainError,
)
from schwarzball.family import grad_jacobian, jet_grad_jacobian, koebe_map, membership_check
from schwarzball.maps import (
    CompositionMap,
    MoebiusMap,
    PolyMap,
    _unitary_with_first_column,
    affine_map,
    identity_map,
    map_jet_at,
    moebius_pole,
    moebius_pole_at_e1,
    random_ball_point,
    random_normalized_polymap,
)
from schwarzball.schwarzian import schwarzian_at, schwarzian_of
from schwarzball.bergman import schwarzian_norm_sup
from schwarzball.variational import (
    SEARCH_PROBE,
    SEARCH_R_MAX,
    SEARCH_RESTARTS,
    SubfamilyConfig,
    bounds_report,
    c_exact,
    c_simple,
    cubic_subfamily,
    decoupled_residuals,
    extremal_search,
    lemma31_check,
    matrix_A,
    moebius_subfamily,
    variation_expansion_check,
)

from helpers import normalized_samples

# frozen by independent high-precision evaluation of the closed-form bounds
ORD_BOUND_2_1 = 11.196152422706631881
NORM_ORD_BOUND_2_1 = 9.5980762113533159403
C_EXACT_2_1 = 41.784609690826527522


def shear_b(b):
    return PolyMap(2, [{(1, 0): 1, (2, 0): b}, {(0, 1): 1}])


def rotated_moebius(n, phase):
    c = np.zeros(n, dtype=complex)
    c[0] = np.exp(1j * phase)
    a = np.zeros((n + 1, n + 1), dtype=complex)
    a[0, 0] = 1.0
    a[0, 1:] = -np.conj(c)
    a[1:, 1:] = np.eye(n)
    return MoebiusMap(a)


# -- matrix A -------------------------------------------------------------------


def test_matrix_a_identity():
    rep = matrix_A(identity_map(2))
    assert np.max(np.abs(rep.Lam)) == 0
    assert np.max(np.abs(rep.A)) == 0
    assert rep.extremal_residual == 0


def test_matrix_a_moebius_pole():
    rep = matrix_A(moebius_pole_at_e1(2))
    assert np.max(np.abs(rep.Lam - np.array([3.0, 0.0]))) <= 1e-12
    assert np.max(np.abs(rep.B)) <= 1e-12
    assert np.max(np.abs(rep.B0)) <= 1e-12
    assert np.max(np.abs(rep.A - np.diag([3.0, 0.0]))) <= 1e-12
    assert rep.extremal_residual <= 1e-12


def test_matrix_a_b_shear_oracle():
    # symbolic oracle: S^1_11(0) = 2b/3, S^0_11(0) = 20 b^2/9, A_11 = -4 b^2
    b = 0.5
    rep = matrix_A(shear_b(b))
    assert abs(rep.A[0, 0] + 4 * b * b) <= 1e-12
    assert rep.extremal_residual > 1.0  # not extremal


def test_extremal_closure_includes_rotated_moebius():
    for phase in (0.0, 0.4, 1.1, -2.0):
        rep = matrix_A(rotated_moebius(2, phase))
        assert rep.extremal_residual <= 1e-9


def test_matrix_a_symmetry():
    rng = np.random.default_rng(19)
    for _ in range(10):
        assert checks.first_variation(random_normalized_polymap(2, rng, scale=0.12))["symmetry"] <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrix_a_matches_the_jet_oracle(n):
    # A assembled from the derivative arrays against A assembled from the jet
    # tensor and the Jacobian-determinant gradient
    rng = np.random.default_rng(70 + n)
    for label, g in normalized_samples(n, rng):
        t = schwarzian_at(map_jet_at(g, np.zeros(n), 3))
        lam = jet_grad_jacobian(g)
        want = np.einsum("kij,k->ij", t.Sk, lam) - (n + 1) * t.S0 + np.outer(lam, lam) / (n + 1)
        rep = matrix_A(g)
        assert np.max(np.abs(rep.Lam - lam)) <= 1e-13 * (1.0 + np.max(np.abs(lam))), label
        assert np.max(np.abs(rep.A - want)) <= 1e-12 * (1.0 + np.max(np.abs(want))), label


def test_matrix_a_requires_normalized():
    m = PolyMap(2, [{(0, 0): 0.2, (1, 0): 1.0}, {(0, 1): 1.0}])
    with pytest.raises(NormalizationError):
        matrix_A(m)


# -- first-order expansion checks -------------------------------------------------


def test_lemma31_examples():
    assert lemma31_check(identity_map(2)) == 0
    assert lemma31_check(moebius_pole_at_e1(2)) <= 1e-10
    rng = np.random.default_rng(77)
    for n in (2, 3):
        for _ in range(10):
            assert lemma31_check(random_normalized_polymap(n, rng, scale=0.1)) <= 1e-9


def test_expansion_identity_exact():
    rep = variation_expansion_check(identity_map(2))
    assert np.max(rep.errors) <= 1e-12
    assert rep.max_ratio <= 4.0


def test_expansion_second_order_scaling():
    for m in (moebius_pole_at_e1(2), shear_b(0.5)):
        rep = variation_expansion_check(m)
        assert rep.max_ratio <= 4.0
    rng = np.random.default_rng(55)
    rep = variation_expansion_check(random_normalized_polymap(2, rng, scale=0.1))
    assert rep.max_ratio <= 4.0


def _composed_expansion(m, seed=0):
    """The remainder check with each gradient from the composed Koebe transform
    (``koebe_map`` then ``grad_jacobian``), one center at a time: the oracle of the kernel."""
    scales = np.array(variational.EXPANSION_SCALES)
    rep = matrix_A(m)
    n = len(rep.Lam)
    rng = np.random.default_rng(seed)
    errors = np.zeros((variational.EXPANSION_DIRECTIONS, len(scales)))
    ratios = []
    tiny = 1e-12 * (1.0 + float(np.linalg.norm(rep.Lam)))
    for di in range(len(errors)):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        for si, s in enumerate(scales):
            zeta = s * u
            g = grad_jacobian(koebe_map(m, zeta))
            errors[di, si] = np.linalg.norm(g - (rep.Lam + rep.A @ zeta - (n + 1) * np.conj(zeta)))
        q = errors[di] / scales ** 2
        for k in range(len(scales) - 1):
            if errors[di, k] <= tiny and errors[di, k + 1] <= tiny:
                ratios.append(1.0)
            else:
                ratios.append(max(q[k], q[k + 1]) / max(min(q[k], q[k + 1]), 1e-300))
    return errors, max(ratios)


@pytest.mark.parametrize("n", [2, 3])
def test_expansion_check_matches_the_composed_route(n):
    rng = np.random.default_rng(70 + n)
    samples = [moebius_pole_at_e1(n), *random_normalized_polymap(n, rng, scale=0.1, size=3)]
    samples += [m for _, m in normalized_samples(n, rng)]
    for m in samples:
        for seed in (0, 1, 2):
            errors, ratio = _composed_expansion(m, seed)
            rep = variation_expansion_check(m, seed=seed)
            assert rep.errors.shape == errors.shape
            assert np.max(np.abs(rep.errors - errors)) <= 1e-12 * np.max(errors)
            assert abs(rep.max_ratio - ratio) <= 1e-12 * ratio


# -- decoupled equations -----------------------------------------------------------


def test_decoupled_moebius_pole():
    rep = decoupled_residuals(moebius_pole_at_e1(2))
    assert abs(rep.lam - 3.0) <= 1e-12
    assert rep.quadratic_residual <= 1e-12
    assert np.max(rep.off_residuals) <= 1e-12
    assert not rep.rotated


def test_decoupled_identity_not_extremal():
    rep = decoupled_residuals(identity_map(2))
    assert abs(rep.quadratic_residual - 9.0) <= 1e-12


def test_decoupled_b_shear_oracle():
    # lambda = 1, S^1_11 = 1/3, S^0_11 = 5/9 at b = 1/2:
    # |1 + 3*(1/3)*1 - 9*(5/9) - 9| = 12
    rep = decoupled_residuals(shear_b(0.5))
    assert abs(rep.quadratic_residual - 12.0) <= 1e-12


def test_decoupled_rotation_path():
    rep = decoupled_residuals(rotated_moebius(2, 0.9))
    assert rep.rotated
    assert abs(rep.lam - 3.0) <= 1e-12
    assert rep.quadratic_residual <= 1e-9


def _rotated_composition_residuals(m):
    """The decoupled residuals read off the map q^H o F o q itself, q = conj(U) with U e_1 =
    Lambda / lambda, differentiated by the map kind: the route the library took before it
    rotated the tensors by the chain rule, kept as an oracle."""
    n = m.n
    lam_vec = grad_jacobian(m)
    lam = float(np.linalg.norm(lam_vec))
    q = np.conj(_unitary_with_first_column(lam_vec / lam))
    target = CompositionMap((affine_map(q.conj().T), m, affine_map(q)))
    lam_rot = grad_jacobian(target)
    assert np.max(np.abs(lam_rot - lam * np.eye(n)[0])) <= 1e-12 * (1 + lam)
    t = schwarzian_of(target, np.zeros(n))
    quad = abs(lam**2 + (n + 1) * t.Sk[0, 0, 0] * lam - (n + 1) ** 2 * t.S0[0, 0] - (n + 1) ** 2)
    return lam, quad, np.abs(t.Sk[0, 0, 1:] * lam - (n + 1) * t.S0[0, 1:])


def _decoupled_samples(n, rng):
    """A random cubic, a pole rotated off e_1 (extremal), a pole inside the ball and a
    cubic composed with an automorphism, each with Lambda off the e_1 axis."""
    phase = np.exp(2j * np.pi * rng.random(n))
    direction = random_ball_point(n, rng, 1.0)
    return [
        random_normalized_polymap(n, rng, scale=0.2),
        moebius_pole(phase * direction / np.linalg.norm(direction)),
        moebius_pole(random_ball_point(n, rng, 0.9)),
        koebe_map(random_normalized_polymap(n, rng, scale=0.2), random_ball_point(n, rng, 0.5)),
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_decoupled_residuals_equal_the_rotated_composition(n):
    rng = np.random.default_rng(90 + n)
    for m in _decoupled_samples(n, rng):
        rep = decoupled_residuals(m)
        lam, quad, off = _rotated_composition_residuals(m)
        assert rep.rotated and rep.lam == lam
        assert abs(rep.quadratic_residual - quad) <= 1e-12 * max(1.0, quad)
        assert np.max(np.abs(rep.off_residuals - off)) <= 1e-12 * max(1.0, np.max(off))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_decoupled_residuals_are_the_parts_of_the_stationarity_residual(n):
    # with r = A conj(Lambda) - (n+1) Lambda, the quadratic equation is the part of r along
    # Lambda and the off equations the part across it:
    #   quadratic = (n+1) |Lambda^H r| / lambda^2,
    #   |off| = |r - Lambda (Lambda^H r) / lambda^2| / lambda
    rng = np.random.default_rng(95 + n)
    for m in _decoupled_samples(n, rng) + [moebius_pole_at_e1(n)]:
        rep, dec = matrix_A(m), decoupled_residuals(m)
        lam_vec = rep.Lam
        r = rep.A @ np.conj(lam_vec) - (n + 1) * lam_vec
        along = np.vdot(lam_vec, r) / dec.lam**2
        scale = 1.0 + dec.quadratic_residual
        assert abs(dec.quadratic_residual - (n + 1) * abs(along)) <= 1e-14 * scale
        assert abs(np.linalg.norm(dec.off_residuals)
                   - np.linalg.norm(r - lam_vec * along) / dec.lam) <= 1e-14 * scale


def test_matrix_a_reads_the_tensors_of_schwarzian_of_bit_for_bit():
    rng = np.random.default_rng(99)
    for n in (2, 3):
        for label, m in normalized_samples(n, rng):
            rep = matrix_A(m)
            t = schwarzian_of(m, np.zeros(n))
            lam = grad_jacobian(m)
            a = np.einsum("kij,k->ij", t.Sk, lam) - (n + 1) * t.S0 + np.outer(lam, lam) / (n + 1)
            assert rep.Lam.tobytes() == lam.tobytes(), label
            assert rep.B0.tobytes() == t.S0.tobytes(), label
            assert rep.A.tobytes() == a.tobytes(), label


def test_first_variation_reads_the_derivatives_once(monkeypatch):
    # one top-level derivative read each, whichever module's binding makes it; a
    # composition's parts are read inside that call
    calls, depth = [], [0]
    real = maps._derivatives

    def counted(*args, **kwargs):
        calls.append(depth[0])
        depth[0] += 1
        try:
            return real(*args, **kwargs)
        finally:
            depth[0] -= 1

    for module in (maps, family, schwarzian, variational):
        if hasattr(module, "_derivatives"):
            monkeypatch.setattr(module, "_derivatives", counted)
    rng = np.random.default_rng(98)
    for m in _decoupled_samples(3, rng):
        for f in (matrix_A, decoupled_residuals):
            calls.clear()
            f(m)
            assert calls.count(0) == 1, f.__name__


# -- bounds ------------------------------------------------------------------------


def test_bounds_alpha_zero():
    br = bounds_report(2, 0.0)
    assert br.C_exact == 0 and br.C_simple == 0
    assert br.ord_bound == 1.5
    assert br.norm_ord_bound == 1.0
    assert br.lower_bound == 1.0


def test_bounds_frozen_values_at_2_1():
    br = bounds_report(2, 1.0)
    assert abs(br.C_exact - C_EXACT_2_1) <= 1e-6
    assert abs(br.C_exact - (21 + 12 * np.sqrt(3.0))) <= 1e-12
    assert abs(br.ord_bound - ORD_BOUND_2_1) <= 1e-6
    assert abs(br.norm_ord_bound - NORM_ORD_BOUND_2_1) <= 1e-6
    assert abs(br.C_simple - (24 + 16 * np.sqrt(2.0))) <= 1e-12


def test_bounds_grid_and_monotonicity():
    grid = checks.bounds_grid(range(2, 11), [0.1 * k for k in range(1, 41)])
    assert grid["C_excess"] <= 0 and grid["lower_excess"] <= 0 and grid["fall"] <= 0


def test_bounds_dimension_guard():
    with pytest.raises(DimensionError):
        bounds_report(1, 0.5)
    with pytest.raises(DimensionError):
        c_exact(1, 0.5)
    assert c_simple(2, 0.0) == 0
    for alpha in (-0.1, np.nan, np.inf):
        with pytest.raises(DimensionError):
            bounds_report(2, alpha)
        with pytest.raises(DimensionError):
            extremal_search(moebius_subfamily(2), alpha=alpha)
        with pytest.raises(DimensionError):
            membership_check(identity_map(2), alpha)


# -- extremal search -----------------------------------------------------------------


def test_package_import_leaves_scipy_optimize_to_the_search():
    # scipy.optimize adds about 45 MB of resident memory; neither the package nor a
    # search imports it, as the search runs its own Nelder-Mead stepper
    code = ("import sys, schwarzball.cli\n"
            "from schwarzball.variational import extremal_search, moebius_subfamily\n"
            "extremal_search(moebius_subfamily(2), alpha=0.0, budget=12, seed=1)\n"
            "print('scipy.optimize' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_search_moebius_family_alpha_zero():
    res = extremal_search(moebius_subfamily(2), alpha=0.0, budget=240, seed=0)
    assert res.achieved_order >= 1.5 - 1e-6
    assert res.achieved_order <= res.ord_bound
    assert res.extremal_residual <= 1e-6
    assert res.norm_estimate.value <= 1e-8


def test_search_cubic_family_respects_bound():
    res = extremal_search(cubic_subfamily(2), alpha=0.5, budget=24, seed=1, r_max=0.7)
    assert res.achieved_order <= bounds_report(2, 0.5).ord_bound
    assert res.evaluations <= 40


def test_search_empty_config_rejected():
    cfg = SubfamilyConfig(build=lambda x: identity_map(2), x0=np.zeros(0))
    with pytest.raises(InfeasibleSearchError):
        extremal_search(cfg, alpha=0.0)
    with pytest.raises(InfeasibleSearchError) as info:
        extremal_search(_subfamily_failing(NormalizationError, at_x0=True), alpha=0.0)
    assert isinstance(info.value.__cause__, NormalizationError)


def test_search_budget_exhaustion_reported():
    res = extremal_search(moebius_subfamily(2), alpha=0.0, budget=30, seed=0)
    assert isinstance(res.converged, bool)
    assert res.evaluations >= 10


def _subfamily_failing(error, at_x0=False):
    """Moebius subfamily whose build raises ``error`` away from the start point,
    and at it too with ``at_x0``."""
    base = moebius_subfamily(2)

    def build(x):
        if at_x0 or not np.array_equal(x, base.x0):
            raise error("build failed")
        return base.build(x)

    return SubfamilyConfig(build=build, x0=base.x0)


SMALL_SEARCH = dict(alpha=0.0, budget=12)


def test_search_propagates_programming_errors_in_build():
    for at_x0 in (False, True):
        with pytest.raises(TypeError):
            extremal_search(_subfamily_failing(TypeError, at_x0), **SMALL_SEARCH)


def test_search_penalizes_package_errors_in_build():
    cfg = _subfamily_failing(NormalizationError)
    res = extremal_search(cfg, **SMALL_SEARCH)
    assert np.array_equal(res.params, cfg.x0)
    assert res.evaluations >= 10
    # every objective call away from x0 fails; Nelder-Mead evaluates x0 once
    assert res.failed_evaluations == res.evaluations - 1
    assert extremal_search(cfg, **SMALL_SEARCH).failed_evaluations == res.failed_evaluations
    assert extremal_search(moebius_subfamily(2), **SMALL_SEARCH).failed_evaluations == 0


# -- the search's Nelder-Mead stepper against scipy ---------------------------------

NM_TOLERANCES = dict(xatol=variational._SEARCH_XATOL, fatol=variational._SEARCH_FATOL)


def _drive(f, x0, maxfev):
    """``(x, fun, nfev, success)`` of the stepper told the values of ``f`` point by point,
    its final simplex and values, and the names of the moves it made, read off the
    lines it ran."""
    lines, first = inspect.getsourcelines(variational._nelder_mead)
    text = {first + i: line.strip() for i, line in enumerate(lines)}
    seen, final = set(), {}

    def local(frame, event, arg):
        at = frame.f_locals
        if event == "return":  # at each yield, and last at the end
            final.update(sim=at["sim"].copy(), fsim=at["fsim"].copy())
        elif event == "line":
            line = text[frame.f_lineno]
            if line.startswith("xe = "):
                seen.add("expansion")
            elif line.startswith("xc = (1 + "):
                seen.add("outside contraction")
            elif line.startswith("xc = (1 - "):
                seen.add("inside contraction")
            elif line.startswith("sim[1:moved + 1] = "):
                seen.add("shrink" if at["scored"] == at["n"] else "maxfev cut in a shrink")
            elif line.startswith("fsim[:nfev] = ") and at["nfev"] <= at["n"]:
                seen.add("maxfev cut in the start simplex")
        return local

    code = variational._nelder_mead.__code__
    run = variational._nelder_mead(np.asarray(x0, dtype=float), maxfev, **NM_TOLERANCES)
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        ask = next(run)
        while True:
            ask = run.send(np.array([f(x) for x in ask]))
    except StopIteration as stop:
        result = stop.value
    finally:
        sys.settrace(previous)
    return result, (final["sim"], final["fsim"]), seen


def _moves_equal_to_scipy(f, x0, maxfev):
    """Assert that the stepper and scipy's Nelder-Mead agree bit for bit on ``f`` from
    ``x0``: result, evaluation count, success flag and final simplex; the stepper's moves."""
    from scipy import optimize

    ref = optimize.minimize(f, x0, method="Nelder-Mead", options={"maxfev": maxfev, **NM_TOLERANCES})
    (x, fun, nfev, success), (sim, fsim), seen = _drive(f, x0, maxfev)
    assert x.tobytes() == ref.x.tobytes()
    assert np.float64(fun).tobytes() == np.float64(ref.fun).tobytes()
    assert (nfev, success) == (ref.nfev, ref.success)
    assert sim.tobytes() == ref.final_simplex[0].tobytes()
    assert fsim.tobytes() == ref.final_simplex[1].tobytes()
    return seen


EVERY_MOVE = {"expansion", "outside contraction", "inside contraction", "shrink",
              "maxfev cut in a shrink", "maxfev cut in the start simplex"}


def test_stepper_equals_scipy_nelder_mead_on_small_objectives():
    objectives = [
        (lambda x: float(100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2), [-1.2, 1.0]),
        (lambda x: float(np.sum(np.abs(x - 0.3))), [0.0, 0.5, 0.0, -1.0]),
        # a staircase: ties in the ordering and shrinks
        (lambda x: float(np.floor(4 * np.sum(x ** 2))), [0.5, 0.0, -0.25]),
    ]
    seen = set().union(*(_moves_equal_to_scipy(f, x0, maxfev)
                         for f, x0 in objectives for maxfev in range(1, 40)))
    assert seen == EVERY_MOVE


def _search_objective(config, alpha, seed, memo=None):
    """The search's objective at one point, memoized by the point's bytes in ``memo``."""
    memo = {} if memo is None else memo

    def f(x):
        key = x.tobytes()
        if key not in memo:
            memo[key] = variational._scores(config, x[None], alpha, SEARCH_R_MAX, seed)[0][0]
        return memo[key]

    return f


def _search_starts(x0, seed):
    rng = np.random.default_rng(seed)
    return [x0] + [x0 + 0.2 * rng.standard_normal(x0.size) for _ in range(SEARCH_RESTARTS - 1)]


def test_stepper_equals_scipy_nelder_mead_on_the_search_objective(monkeypatch):
    config = moebius_subfamily(2)
    memos = {seed: {} for seed in range(4)}

    def recording(config, X, alpha, r_max, seed):
        values, estimates = scores(config, X, alpha, r_max, seed)
        memos[seed].update((x.tobytes(), value) for x, value in zip(X, values))
        return values, estimates

    scores = variational._scores
    monkeypatch.setattr(variational, "_scores", recording)
    seen = set()
    for seed, memo in memos.items():
        # the lockstep search scores the points of the budget-240 runs, whose
        # first 10 calls are the runs of budgets 1 and 24
        extremal_search(config, 0.0, budget=240, seed=seed)
        f = _search_objective(config, 0.0, seed, memo)
        for budget in (1, 24, 240):
            for x0 in _search_starts(config.x0, seed):
                seen |= _moves_equal_to_scipy(f, x0, max(budget // SEARCH_RESTARTS, 10))
    assert seen == EVERY_MOVE - {"maxfev cut in the start simplex"}


def test_lockstep_search_equals_the_scipy_driven_search():
    # extremal_search as it was written around scipy's minimize, one sup per call
    from scipy import optimize

    for config, alpha, budget, seed in ((moebius_subfamily(2), 0.0, 24, 1),
                                        (cubic_subfamily(2), 0.5, 60, 2)):
        f = _search_objective(config, alpha, seed)
        per_run = max(budget // SEARCH_RESTARTS, 10)
        candidates = []
        for x0 in _search_starts(config.x0, seed):
            ref = optimize.minimize(f, x0, method="Nelder-Mead",
                                    options={"maxfev": per_run, **NM_TOLERANCES})
            candidates.append((float(ref.fun), tuple(ref.x), bool(ref.success)))
        _, best_x, success = min(candidates, key=lambda c: (c[0], c[1]))
        res = extremal_search(config, alpha, budget=budget, seed=seed)
        assert res.params.tobytes() == np.array(best_x).tobytes()
        assert res.converged == success
        assert res.evaluations == SEARCH_RESTARTS * per_run
        est = schwarzian_norm_sup(config.build(res.params), r_max=SEARCH_R_MAX, seed=seed,
                                  **SEARCH_PROBE)
        assert repr(res.norm_estimate) == repr(est)


def test_search_scores_each_round_with_one_sup_and_reuses_the_incumbents(monkeypatch):
    calls = []

    def counting(maps, **kwargs):
        calls.append(len(maps))
        return sups(maps, **kwargs)

    sups = variational.schwarzian_norm_sups
    monkeypatch.setattr(variational, "schwarzian_norm_sups", counting)
    # 12 parameters: each run's 10 calls are start vertices, so all 30 make one round
    res = extremal_search(cubic_subfamily(2), alpha=0.5, budget=24, seed=1)
    assert calls == [30] and res.evaluations == 30
    calls.clear()
    # 4 parameters: a first round of 3 start simplices of 5 vertices, then smaller ones
    res = extremal_search(moebius_subfamily(2), alpha=0.0, budget=24, seed=1)
    assert calls[0] == 15 and max(calls[1:]) <= 3 * 4
    assert sum(calls) == res.evaluations == 30


def test_search_aborts_when_a_sup_raises(monkeypatch):
    def failing(maps, **kwargs):
        raise OutsideDomainError("sup failed")

    monkeypatch.setattr(variational, "schwarzian_norm_sups", failing)
    with pytest.raises(OutsideDomainError):
        extremal_search(moebius_subfamily(2), **SMALL_SEARCH)
