"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import time

import numpy as np

from schwarzball import checks
from schwarzball.bergman import schwarzian_norm_sup
from schwarzball.cli import main
from schwarzball.family import koebe_map, trace_order_functional
from schwarzball.jets import jet_det, jet_jacobian
from schwarzball.maps import (
    automorphism_from_center,
    identity_map,
    map_eval,
    map_jet_at,
    moebius_pole_at_e1,
    random_ball_point,
    random_moebius,
    random_normalized_polymap,
)
from schwarzball.variational import (
    bounds_report,
    matrix_A,
    extremal_search,
    moebius_subfamily,
    variation_expansion_check,
)

# frozen independently (high-precision evaluation of the closed-form bounds)
ORD_BOUND_2_1 = 11.196152422706631881
NORM_ORD_BOUND_2_1 = 9.5980762113533159403
C_EXACT_2_1 = 41.784609690826527522


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] {num:02d} {name}: {status}  {detail}".rstrip())
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_moebius_vanishing():
    started = time.time()
    rng = np.random.default_rng(101)
    cases = []
    for n in (2, 3):
        for _ in range(100):
            m = random_moebius(n, rng)
            cases += [(m, random_ball_point(n, rng, 0.9)) for _ in range(20)]
    worst = max(checks.moebius_vanishing(cases).values())
    elapsed = time.time() - started
    report(
        1, "moebius-vanishing",
        worst <= 1e-8 and elapsed < 30.0,
        f"max |S| = {worst:.3e} (tol 1e-8), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_chain_rule():
    rng = np.random.default_rng(202)
    cases = [
        (random_normalized_polymap(2, rng, scale=0.08), random_normalized_polymap(2, rng, scale=0.08),
         random_ball_point(2, rng, 0.3))
        for _ in range(50)
    ]
    worst = max(checks.chain_rule(cases).values())
    report(2, "chain-rule", worst <= 1e-9, f"max gap = {worst:.3e} (tol 1e-9)")


def test_criterion_03_norm_invariance():
    rng = np.random.default_rng(303)
    cases = [
        (random_normalized_polymap(2, rng, scale=0.1),
         automorphism_from_center(random_ball_point(2, rng, 0.5)), random_ball_point(2, rng, 0.5))
        for _ in range(50)
    ]
    worst = checks.invariance(cases)["norm"]
    report(3, "norm-invariance", worst <= 1e-6, f"max residual = {worst:.3e} (tol 1e-6)")


def test_criterion_04_canonical_and_pde():
    rng = np.random.default_rng(404)
    cases = []
    for n in (2, 3):
        cases.append((identity_map(n), np.zeros(n, dtype=complex)))
        cases.append((moebius_pole_at_e1(n), random_ball_point(n, rng, 0.4)))
        for _ in range(10):
            cases.append((random_moebius(n, rng), random_ball_point(n, rng, 0.9)))
        for _ in range(10):
            cases.append(
                (random_normalized_polymap(n, rng, scale=0.1), random_ball_point(n, rng, 0.4))
            )
    worst = checks.canonical_and_pde(cases)
    worst_canon, worst_pde = worst["canonical"], worst["pde"]
    report(
        4, "canonical-form-and-pde-solution",
        worst_canon <= 1e-10 and worst_pde <= 1e-12,
        f"canonical = {worst_canon:.3e} (tol 1e-10), pde = {worst_pde:.3e} (tol 1e-12)",
    )


def test_criterion_05_gradient_expansion_matrix():
    from schwarzball.variational import lemma31_check

    rng = np.random.default_rng(505)
    worst = 0.0
    for n in (2, 3):
        for _ in range(10):
            worst = max(worst, lemma31_check(random_normalized_polymap(n, rng, scale=0.1)))
    report(5, "gradient-expansion-matrix", worst <= 1e-9, f"max gap = {worst:.3e} (tol 1e-9)")


def test_criterion_06_automorphism_normal_form():
    rng = np.random.default_rng(606)
    worst = 0.0
    for idx in range(100):
        n = 2 if idx < 70 else 3
        zeta = random_ball_point(n, rng, 0.9)
        sigma = automorphism_from_center(zeta)
        r2 = float(np.sum(np.abs(zeta) ** 2))
        s = np.sqrt(1.0 - r2)
        # sigma(0) = zeta
        worst = max(worst, float(np.max(np.abs(map_eval(sigma, np.zeros(n)) - zeta))))
        jv = map_jet_at(sigma, np.zeros(n), 2)
        dsig = jv.derivatives(1)
        # aligned-frame diagonal of Dsigma(0): (1 - |zeta|^2, s, ..., s)
        eigs = np.sort(np.linalg.eigvalsh(dsig))
        expected = np.sort(np.array([1.0 - r2] + [s] * (n - 1)))
        worst = max(worst, float(np.max(np.abs(eigs - expected))))
        # Jacobian value and logarithmic gradient
        det_jet = jet_det(jet_jacobian(jv))
        jsig0 = det_jet.constant_term
        worst = max(worst, abs(jsig0 - (1.0 - r2) ** ((n + 1) / 2)))
        grad = det_jet.derivatives(1)
        worst = max(worst, float(np.max(np.abs(grad / jsig0 + (n + 1) * np.conj(zeta)))))
    report(6, "automorphism-normal-form", worst <= 1e-12, f"max residual = {worst:.3e} (tol 1e-12)")


def test_criterion_07_second_order_remainder():
    rng = np.random.default_rng(707)
    maps = [moebius_pole_at_e1(2)]
    from schwarzball.maps import PolyMap

    maps.append(PolyMap(2, [{(1, 0): 1, (2, 0): 0.5}, {(0, 1): 1}]))
    for _ in range(6):
        maps.append(random_normalized_polymap(2, rng, scale=0.1))
    worst = 0.0
    for m in maps:
        rep = variation_expansion_check(m, seed=707)
        worst = max(worst, rep.max_ratio)
    report(7, "second-order-remainder", worst <= 4.0, f"max ratio = {worst:.3f} (bound 4)")


def test_criterion_08_extremal_consistency_alpha_zero():
    m = moebius_pole_at_e1(2)
    est = schwarzian_norm_sup(m, r_max=0.9)
    rep = matrix_A(m)
    grad_gap = abs(float(np.linalg.norm(rep.Lam)) - 3.0)
    g0 = koebe_map(m, np.zeros(2))
    trace = trace_order_functional(g0)
    bound = bounds_report(2, 0.0).ord_bound
    ok = (
        est.value <= 1e-8
        and grad_gap <= 1e-10
        and rep.extremal_residual <= 1e-9
        and abs(trace - 1.5) <= 1e-12
        and abs(bound - 1.5) <= 1e-12
    )
    report(
        8, "alpha0-extremal-consistency", ok,
        f"norm est = {est.value:.3e}, |grad|-3 = {grad_gap:.3e}, "
        f"extremal residual = {rep.extremal_residual:.3e}, trace = {trace!r}, bound = {bound!r}",
    )


def test_criterion_09_bound_formulas():
    br = bounds_report(2, 1.0)
    ok = (
        abs(br.C_exact - C_EXACT_2_1) <= 1e-6
        and abs(br.ord_bound - ORD_BOUND_2_1) <= 1e-6
        and abs(br.norm_ord_bound - NORM_ORD_BOUND_2_1) <= 1e-6
    )
    grid_ok = checks.bounds_grid(range(2, 11), [0.1 * k for k in range(1, 41)])["C_excess"] <= 0
    report(
        9, "bound-formulas", ok and grid_ok,
        f"C_exact = {br.C_exact!r}, ord = {br.ord_bound!r}, norm_ord = {br.norm_ord_bound!r}, "
        f"grid C_exact <= C_simple: {grid_ok}",
    )


def test_criterion_10_search_sanity():
    started = time.time()
    res = extremal_search(moebius_subfamily(2), alpha=0.0, budget=240, seed=0)
    elapsed = time.time() - started
    ok = (
        res.achieved_order >= 1.5 - 1e-6
        and res.achieved_order <= res.ord_bound
        and elapsed < 60.0
    )
    report(
        10, "search-sanity", ok,
        f"achieved = {res.achieved_order!r} (bound {res.ord_bound!r}), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_11_cli_determinism(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1 = main(["verify", "pde", "--n", "2", "--seed", "9", "--out", str(out1)])
    code2 = main(["verify", "pde", "--n", "2", "--seed", "9", "--out", str(out2)])
    rep1 = json.loads(out1.read_text())
    rep2 = json.loads(out2.read_text())
    rep1.pop("timing")
    rep2.pop("timing")
    identical = json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    code_fail = main(["verify", "pde", "--n", "2", "--seed", "9", "--inject-failure",
                      "--out", str(tmp_path / "r3.json")])
    code_usage = main(["verify", "bogus"])
    ok = code1 == 0 and code2 == 0 and identical and code_fail == 1 and code_usage == 2
    report(
        11, "cli-determinism-and-exit-codes", ok,
        f"identical = {identical}, exit codes = ({code1}, {code_fail}, {code_usage})",
    )
