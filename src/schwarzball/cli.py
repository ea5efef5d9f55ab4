"""Command-line front end: verification suites, bound tables, map analysis.

Subcommands
-----------
verify   run a named property suite with a deterministic seed
bounds   tabulate the closed-form order bounds over an (n, alpha) grid
analyze  evaluate Schwarzian/norm/order/Koebe/extremal data for a map file
search   run the penalized extremal search over a built-in subfamily

Exit codes: 0 all checks passed, 1 check or math failure, 2 usage/parse
failure.  Reports are JSON with complex numbers as {"re": ..., "im": ...}
pairs; identical command and seed produce byte-identical output apart from
the "timing" entry.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from . import __version__
from .errors import MapSpecError, SchwarzballError
from .bergman import (
    bergman_norm,
    invariance_residual,
    schwarzian_norm_at,
    schwarzian_norm_sup,
)
from .family import (
    NormalizedJet,
    grad_jacobian,
    koebe_map,
    koebe_transform,
    norm_order_functional,
    normalize_map,
    trace_order_functional,
)
from .maps import (
    CompositionMap,
    MapSpec,
    MoebiusMap,
    PolyMap,
    automorphism_from_center,
    automorphism_validate,
    compose_maps,
    identity_map,
    map_dim,
    map_eval,
    map_jet_at,
    moebius_pole_at_e1,
    random_ball_point,
    random_moebius,
    random_normalized_polymap,
)
from .schwarzian import (
    canonical_residual,
    chain_rule_transform,
    pde_residual,
    schwarzian_at,
    schwarzian_of,
)
from .variational import (
    bounds_report,
    decoupled_residuals,
    extremal_search,
    lemma31_check,
    matrix_A,
    moebius_subfamily,
    cubic_subfamily,
    variation_expansion_check,
)

SUITES = ("moebius", "chainrule", "invariance", "pde", "lemma31", "variation", "family")
ANALYZE_OPS = ("schwarzian", "norm", "order", "koebe", "extremal")


# -- JSON helpers -------------------------------------------------------------


def to_jsonable(x):
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, (np.complexfloating,)):
        return {"re": float(x.real), "im": float(x.imag)}
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [to_jsonable(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    return x


def check(name: str, value, tolerance, passed: bool) -> dict:
    return {"name": name, "value": to_jsonable(value), "tolerance": tolerance, "passed": bool(passed)}


def residual_check(name: str, value: float, tolerance: float) -> dict:
    return check(name, float(value), tolerance, float(value) <= tolerance)


def build_report(command: str, args: dict, seed, results: list[dict], started: float) -> dict:
    return {
        "tool": "schwarzball",
        "version": __version__,
        "command": command,
        "args": to_jsonable(args),
        "seed": seed,
        "passed": all(r["passed"] for r in results),
        "results": results,
        "timing": {"seconds": time.time() - started},
    }


def emit(report_text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(report_text)
    else:
        sys.stdout.write(report_text)
        if not report_text.endswith("\n"):
            sys.stdout.write("\n")


# -- map-spec files -----------------------------------------------------------


def _complex_from_payload(obj) -> complex:
    if isinstance(obj, dict):
        try:
            return complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
        except (TypeError, ValueError) as exc:
            raise MapSpecError(f"bad complex payload {obj!r}") from exc
    if isinstance(obj, (int, float)):
        return complex(obj)
    raise MapSpecError(f"bad complex payload {obj!r}")


def _complex_to_payload(c: complex) -> dict:
    c = complex(c)
    return {"re": c.real, "im": c.imag}


def map_from_payload(payload: dict) -> MapSpec:
    """Parse a map-spec JSON payload; raises MapSpecError on malformed input."""
    if not isinstance(payload, dict):
        raise MapSpecError("map payload must be a JSON object")
    kind = payload.get("kind")
    try:
        n = int(payload["n"])
    except (KeyError, TypeError, ValueError):
        raise MapSpecError("map payload needs an integer field 'n'")
    if kind == "poly":
        comps = payload.get("components")
        if not isinstance(comps, list) or len(comps) != n:
            raise MapSpecError("poly payload needs n component lists")
        tables = []
        for comp in comps:
            table = {}
            for mono in comp:
                if not isinstance(mono, dict) or "exps" not in mono:
                    raise MapSpecError("poly monomial needs an 'exps' list")
                exps = tuple(int(e) for e in mono["exps"])
                if len(exps) != n or any(e < 0 for e in exps):
                    raise MapSpecError(f"bad exponent list {mono['exps']!r}")
                table[exps] = table.get(exps, 0j) + _complex_from_payload(mono)
            tables.append(table)
        try:
            return PolyMap(n, tables)
        except SchwarzballError as exc:
            raise MapSpecError(str(exc)) from exc
    if kind == "moebius":
        grid = payload.get("a")
        if not isinstance(grid, list) or len(grid) != n + 1:
            raise MapSpecError("moebius payload needs an (n+1)x(n+1) grid 'a'")
        try:
            a = np.array(
                [[_complex_from_payload(v) for v in row] for row in grid], dtype=complex
            )
            return MoebiusMap(a)
        except SchwarzballError as exc:
            raise MapSpecError(str(exc)) from exc
    if kind == "automorphism":
        # load-time alias for the Moebius grid [[D, C], [B, A]]
        try:
            grid = np.zeros((n + 1, n + 1), dtype=complex)
            grid[0, 0] = _complex_from_payload(payload["D"])
            grid[0, 1:] = [_complex_from_payload(v) for v in payload["C"]]
            grid[1:, 0] = [_complex_from_payload(v) for v in payload["B"]]
            grid[1:, 1:] = [[_complex_from_payload(v) for v in row] for row in payload["A"]]
            sigma = MoebiusMap(grid)
        except (KeyError, TypeError, ValueError) as exc:
            raise MapSpecError(f"bad automorphism payload: {exc}") from exc
        rep = automorphism_validate(sigma, samples=50)
        if rep.max_residual > 1e-8:
            raise MapSpecError(
                f"automorphism block identities violated (residual {rep.max_residual:.3e})"
            )
        return sigma
    if kind == "compose":
        parts = payload.get("maps")
        if not isinstance(parts, list) or not parts:
            raise MapSpecError("compose payload needs a non-empty 'maps' list")
        try:
            return CompositionMap([map_from_payload(p) for p in parts])
        except SchwarzballError as exc:
            raise MapSpecError(str(exc)) from exc
    raise MapSpecError(f"unknown map kind {kind!r}")


def map_to_payload(m: MapSpec, label: str | None = None) -> dict:
    if isinstance(m, PolyMap):
        comps = []
        for table in m.components:
            comp = []
            for exps, coeff in sorted(table.items()):
                entry = {"exps": list(exps)}
                entry.update(_complex_to_payload(coeff))
                comp.append(entry)
            comps.append(comp)
        payload = {"kind": "poly", "n": m.n, "components": comps}
    elif isinstance(m, MoebiusMap):
        payload = {
            "kind": "moebius", "n": m.n,
            "a": [[_complex_to_payload(v) for v in row] for row in m.a],
        }
    elif isinstance(m, CompositionMap):
        payload = {"kind": "compose", "n": m.n, "maps": [map_to_payload(p) for p in m.maps]}
    else:
        raise MapSpecError(f"cannot serialize {type(m).__name__}")
    if label:
        payload["label"] = label
    return payload


def load_map_file(path: str) -> MapSpec:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise MapSpecError(f"cannot read map file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MapSpecError(f"map file is not valid JSON: {exc}") from exc
    return map_from_payload(payload)


# -- verification suites -------------------------------------------------------


def suite_moebius(n: int = 2, seed: int = 0, maps: int = 200, points: int = 20) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst_sk = 0.0
    worst_s0 = 0.0
    for _ in range(maps):
        m = random_moebius(n, rng)
        for _ in range(points):
            t = schwarzian_of(m, random_ball_point(n, rng, 0.9))
            worst_sk = max(worst_sk, float(np.max(np.abs(t.Sk))))
            worst_s0 = max(worst_s0, float(np.max(np.abs(t.S0))))
    return [
        residual_check("moebius_max_abs_Sk", worst_sk, 1e-8),
        residual_check("moebius_max_abs_S0", worst_s0, 1e-8),
    ]


def suite_chainrule(n: int = 2, seed: int = 0, pairs: int = 50) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst_sk = 0.0
    worst_s0 = 0.0
    worst_moebius_post = 0.0
    for _ in range(pairs):
        f = random_normalized_polymap(n, rng, scale=0.08)
        g = random_normalized_polymap(n, rng, scale=0.08)
        z = random_ball_point(n, rng, 0.3)
        jf = map_jet_at(f, z, 3)
        w = jf.constants()
        jg = map_jet_at(g, w, 3)
        transformed = chain_rule_transform(
            schwarzian_at(jf, z=z), schwarzian_at(jg, z=w), jf, jg
        )
        direct = schwarzian_at(compose_maps(g, f, z, 3), z=z)
        worst_sk = max(worst_sk, float(np.max(np.abs(transformed.Sk - direct.Sk))))
        worst_s0 = max(worst_s0, float(np.max(np.abs(transformed.S0 - direct.S0))))
        # Moebius postcomposition leaves the tensor unchanged
        mo = random_moebius(n, rng)
        t_f = schwarzian_at(jf, z=z)
        t_mf = schwarzian_at(compose_maps(mo, f, z, 3), z=z)
        worst_moebius_post = max(
            worst_moebius_post,
            float(np.max(np.abs(t_f.Sk - t_mf.Sk))),
            float(np.max(np.abs(t_f.S0 - t_mf.S0))),
        )
    return [
        residual_check("chainrule_max_Sk_gap", worst_sk, 1e-9),
        residual_check("chainrule_max_S0_gap", worst_s0, 1e-9),
        residual_check("moebius_postcomposition_invariance", worst_moebius_post, 1e-9),
    ]


def suite_invariance(n: int = 2, seed: int = 0, triples: int = 50) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_iso = 0.0
    for _ in range(triples):
        f = random_normalized_polymap(n, rng, scale=0.1)
        sigma = automorphism_from_center(random_ball_point(n, rng, 0.5))
        z = random_ball_point(n, rng, 0.5)
        worst = max(worst, invariance_residual(f, sigma, z, seed=seed))
        # isometry of the metric under the same automorphism
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dsig = map_jet_at(sigma, z, 1).linear_matrix()
        lhs = bergman_norm(map_eval(sigma, z), dsig @ v)
        rhs = bergman_norm(z, v)
        worst_iso = max(worst_iso, abs(lhs - rhs) / max(rhs, 1e-30))
    return [
        residual_check("norm_invariance_max_residual", worst, 1e-6),
        residual_check("metric_isometry_max_rel_residual", worst_iso, 1e-9),
    ]


def _named_test_maps(n: int) -> list[MapSpec]:
    named: list[MapSpec] = [identity_map(n), moebius_pole_at_e1(n)]
    shear_a = {tuple(1 if k == 0 else 0 for k in range(n)): 1.0, tuple(2 if k == 1 else 0 for k in range(n)): 0.4}
    comps = [dict(shear_a) if i == 0 else {tuple(1 if k == i else 0 for k in range(n)): 1.0} for i in range(n)]
    named.append(PolyMap(n, comps))
    shear_b = {tuple(1 if k == 0 else 0 for k in range(n)): 1.0, tuple(2 if k == 0 else 0 for k in range(n)): 0.5}
    comps = [dict(shear_b) if i == 0 else {tuple(1 if k == i else 0 for k in range(n)): 1.0} for i in range(n)]
    named.append(PolyMap(n, comps))
    return named


def suite_pde(n: int = 2, seed: int = 0, random_maps: int = 20) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst_canon = 0.0
    worst_pde = 0.0
    worst_sym = 0.0
    cases: list[tuple[MapSpec, np.ndarray]] = []
    for m in _named_test_maps(n):
        cases.append((m, np.zeros(n, dtype=complex)))
        cases.append((m, random_ball_point(n, rng, 0.4)))
    for _ in range(random_maps):
        cases.append((random_normalized_polymap(n, rng, scale=0.1), random_ball_point(n, rng, 0.4)))
    for m, z in cases:
        jv = map_jet_at(m, z, 3)
        t = schwarzian_at(jv, z=z)
        worst_canon = max(worst_canon, canonical_residual(t))
        worst_pde = max(worst_pde, pde_residual(jv, z=z))
        worst_sym = max(
            worst_sym,
            float(np.max(np.abs(t.Sk - np.swapaxes(t.Sk, 1, 2)))),
            float(np.max(np.abs(t.S0 - t.S0.T))),
        )
    return [
        residual_check("canonical_form_max_residual", worst_canon, 1e-10),
        residual_check("pde_solution_max_residual", worst_pde, 1e-12),
        residual_check("tensor_symmetry_max_residual", worst_sym, 1e-10),
    ]


def suite_lemma31(n: int = 2, seed: int = 0, samples: int = 20) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        worst = max(worst, lemma31_check(random_normalized_polymap(n, rng, scale=0.1)))
    return [residual_check("gradient_expansion_matrix_max_gap", worst, 1e-9)]


def suite_variation(n: int = 2, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    results = []
    # symmetry of A on random samples
    worst_sym = 0.0
    for _ in range(10):
        rep = matrix_A(random_normalized_polymap(n, rng, scale=0.1))
        worst_sym = max(worst_sym, float(np.max(np.abs(rep.A - rep.A.T))))
    results.append(residual_check("A_symmetry_max_residual", worst_sym, 1e-10))
    # second-order remainder scaling
    worst_ratio = 0.0
    probes: list[MapSpec] = [moebius_pole_at_e1(n)]
    probes.append(_named_test_maps(n)[3])
    probes.append(random_normalized_polymap(n, rng, scale=0.1))
    for m in probes:
        rep = variation_expansion_check(m, seed=seed)
        worst_ratio = max(worst_ratio, rep.max_ratio)
    results.append(residual_check("expansion_remainder_max_ratio", worst_ratio, 4.0))
    # extremal closure at alpha = 0 for Moebius normalizations, rotated included
    worst_ext = 0.0
    for phase in (0.0, 0.4, 1.1, -0.7):
        c = np.zeros(n, dtype=complex)
        c[0] = np.exp(1j * phase)
        a = np.zeros((n + 1, n + 1), dtype=complex)
        a[0, 0] = 1.0
        a[0, 1:] = -np.conj(c)
        a[1:, 1:] = np.eye(n)
        worst_ext = max(worst_ext, matrix_A(MoebiusMap(a)).extremal_residual)
    results.append(residual_check("moebius_extremal_closure_residual", worst_ext, 1e-9))
    # exact attainment of the alpha = 0 bound
    g0 = koebe_transform(moebius_pole_at_e1(n), np.zeros(n), d=3)
    gap = abs(trace_order_functional(g0) - bounds_report(n, 0.0).ord_bound)
    results.append(residual_check("alpha0_order_attainment_gap", gap, 1e-12))
    dec = decoupled_residuals(moebius_pole_at_e1(n))
    results.append(residual_check("alpha0_decoupled_quadratic_residual", dec.quadratic_residual, 1e-9))
    # bound grid sanity
    grid_ok = True
    mono_ok = True
    for nn in range(2, 11):
        prev_ord = -1.0
        prev_norm = -1.0
        for k in range(0, 41):
            alpha = 0.1 * k
            br = bounds_report(nn, alpha)
            if br.C_exact > br.C_simple + 1e-12:
                grid_ok = False
            if br.ord_bound < prev_ord - 1e-12 or br.norm_ord_bound < prev_norm - 1e-12:
                mono_ok = False
            prev_ord, prev_norm = br.ord_bound, br.norm_ord_bound
    results.append(check("bounds_C_exact_le_C_simple_grid", grid_ok, None, grid_ok))
    results.append(check("bounds_monotone_in_alpha", mono_ok, None, mono_ok))
    return results


def suite_family(n: int = 2, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    results = []
    worst_norm = 0.0
    worst_trace = 0.0
    ratio_obs = 0.0
    samples: list[MapSpec] = [
        moebius_pole_at_e1(n),
        _named_test_maps(n)[2],
        random_normalized_polymap(n, rng, scale=0.1),
    ]
    for m in samples:
        zeta = random_ball_point(n, rng, 0.4)
        g = koebe_transform(m, zeta, d=3)
        worst_norm = max(
            worst_norm,
            float(np.max(np.abs(g.jets.constants()))),
            float(np.max(np.abs(g.jets.linear_matrix() - np.eye(n)))),
        )
        trace = trace_order_functional(g)
        grad = grad_jacobian(g)
        worst_trace = max(worst_trace, abs(2.0 * trace - float(np.linalg.norm(grad))))
        norm_ord = norm_order_functional(g, seed=seed)
        if norm_ord > 1e-12:
            ratio_obs = max(ratio_obs, trace / (n * norm_ord))
    results.append(residual_check("koebe_normalization_max_residual", worst_norm, 1e-12))
    results.append(residual_check("trace_order_gradient_gap", worst_trace, 1e-10))
    worst_id = 0.0
    for scale in (1e-1, 1e-2):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        zeta = scale * u
        g = koebe_transform(identity_map(n), zeta, d=2)
        worst_id = max(
            worst_id,
            float(np.max(np.abs(grad_jacobian(g) + (n + 1) * np.conj(zeta)))),
        )
    results.append(residual_check("identity_koebe_gradient_gap", worst_id, 1e-12))
    # linear invariance: transform of a shear/Moebius does not raise the norm estimate
    worst_gap = 0.0
    for m in (moebius_pole_at_e1(n), _named_test_maps(n)[2]):
        zeta = random_ball_point(n, rng, 0.3)
        est_f = schwarzian_norm_sup(m, r_max=0.7, shells=4, angular=10, starts=8, seed=seed)
        est_g = schwarzian_norm_sup(
            koebe_map(m, zeta), r_max=0.7, shells=4, angular=10, starts=8, seed=seed
        )
        worst_gap = max(worst_gap, est_g.value - est_f.value)
    results.append(residual_check("linear_invariance_norm_excess", max(worst_gap, 0.0), 1e-6))
    # observed only, never asserted
    results.append(check("trace_le_n_times_norm_order_observed_ratio", ratio_obs, None, True))
    return results


SUITE_RUNNERS = {
    "moebius": suite_moebius,
    "chainrule": suite_chainrule,
    "invariance": suite_invariance,
    "pde": suite_pde,
    "lemma31": suite_lemma31,
    "variation": suite_variation,
    "family": suite_family,
}


# -- subcommands ---------------------------------------------------------------


def cmd_verify(args) -> int:
    started = time.time()
    runner = SUITE_RUNNERS[args.suite]
    results = runner(n=args.n, seed=args.seed)
    if args.inject_failure:
        results.append(check("injected_failure", 1.0, 0.0, False))
    report = build_report(
        "verify", {"suite": args.suite, "n": args.n}, args.seed, results, started
    )
    emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["passed"] else 1


def _parse_range(text: str, kind) -> tuple:
    parts = text.split(":")
    if len(parts) == 1:
        v = kind(parts[0])
        return (v, v)
    if len(parts) == 2:
        return (kind(parts[0]), kind(parts[1]))
    raise argparse.ArgumentTypeError(f"bad range {text!r}, expected LO:HI or a single value")


def cmd_bounds(args) -> int:
    started = time.time()
    n_lo, n_hi = _parse_range(args.n, int)
    a_lo, a_hi = _parse_range(args.alpha, float)
    if n_lo < 2:
        raise MapSpecError("bounds require n >= 2")
    if args.step <= 0:
        raise MapSpecError("step must be positive")
    rows = []
    for n in range(n_lo, n_hi + 1):
        count = int(round((a_hi - a_lo) / args.step)) if a_hi > a_lo else 0
        for k in range(count + 1):
            alpha = a_lo + k * args.step
            if alpha > a_hi + 1e-9:
                break
            br = bounds_report(n, alpha)
            rows.append(br)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "alpha", "C_exact", "C_simple", "ord_bound", "norm_ord_bound", "lower_bound"])
        for br in rows:
            writer.writerow([br.n, repr(br.alpha), repr(br.C_exact), repr(br.C_simple),
                             repr(br.ord_bound), repr(br.norm_ord_bound), repr(br.lower_bound)])
        emit(buf.getvalue(), args.out)
        return 0
    results = [
        check(
            f"bounds_n{br.n}_alpha{br.alpha:g}",
            {
                "n": br.n, "alpha": br.alpha, "C_exact": br.C_exact, "C_simple": br.C_simple,
                "ord_bound": br.ord_bound, "norm_ord_bound": br.norm_ord_bound,
                "lower_bound": br.lower_bound,
            },
            None,
            br.C_exact <= br.C_simple,
        )
        for br in rows
    ]
    report = build_report(
        "bounds", {"n": args.n, "alpha": args.alpha, "step": args.step}, args.seed, results, started
    )
    emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["passed"] else 1


def _parse_point(text: str, n: int) -> np.ndarray:
    try:
        vals = [complex(part.strip().replace(" ", "")) for part in text.split(",")]
    except ValueError as exc:
        raise MapSpecError(f"cannot parse point {text!r}: {exc}") from exc
    if len(vals) != n:
        raise MapSpecError(f"point {text!r} has {len(vals)} entries, expected {n}")
    return np.array(vals, dtype=complex)


def cmd_analyze(args) -> int:
    started = time.time()
    m = load_map_file(args.map_file)
    n = map_dim(m)
    zeta = _parse_point(args.zeta, n) if args.zeta else np.zeros(n, dtype=complex)
    ops = [o.strip() for o in args.ops.split(",") if o.strip()]
    for op in ops:
        if op not in ANALYZE_OPS:
            raise MapSpecError(f"unknown analyze op {op!r}; choose from {ANALYZE_OPS}")
    results = []
    for op in ops:
        if op == "schwarzian":
            jv = map_jet_at(m, zeta, args.degree)
            t = schwarzian_at(jv, z=zeta)
            results.append(check("schwarzian_Sk", t.Sk, None, True))
            results.append(check("schwarzian_S0", t.S0, None, True))
            results.append(residual_check("schwarzian_canonical_residual", canonical_residual(t), 1e-10))
            results.append(residual_check("schwarzian_pde_residual", pde_residual(jv, z=zeta), 1e-12))
        elif op == "norm":
            est = schwarzian_norm_at(m, zeta, seed=args.seed)
            results.append(check("norm_at_point", est.value, None, True))
            results.append(check("norm_at_point_converged", est.converged, None, bool(est.converged)))
            if args.r_max is not None:
                sup = schwarzian_norm_sup(m, r_max=args.r_max, seed=args.seed)
                results.append(check("norm_sup_lower_bound", sup.value, None, True))
                results.append(check("norm_sup_arg_z", sup.arg_z, None, True))
        elif op == "order":
            normalized, was = normalize_map(m)
            g = NormalizedJet(map_jet_at(normalized, np.zeros(n, dtype=complex), args.degree))
            results.append(check("order_trace", trace_order_functional(g), None, True))
            results.append(check("order_norm", norm_order_functional(g, seed=args.seed), None, True))
            results.append(check("order_grad_jf", grad_jacobian(g), None, True))
            results.append(check("order_was_normalized", was, None, True))
        elif op == "koebe":
            g = koebe_transform(m, zeta, d=args.degree)
            results.append(check("koebe_grad_jf", grad_jacobian(g), None, True))
            results.append(
                residual_check(
                    "koebe_normalization_residual",
                    max(
                        float(np.max(np.abs(g.jets.constants()))),
                        float(np.max(np.abs(g.jets.linear_matrix() - np.eye(n)))),
                    ),
                    1e-12,
                )
            )
        elif op == "extremal":
            rep = matrix_A(m, degree=args.degree)
            results.append(check("extremal_Lambda", rep.Lam, None, True))
            results.append(check("extremal_A", rep.A, None, True))
            results.append(check("extremal_residual", rep.extremal_residual, None, True))
            dec = decoupled_residuals(m, degree=args.degree)
            results.append(check("extremal_lambda_aligned", dec.lam, None, True))
            results.append(check("extremal_quadratic_residual", dec.quadratic_residual, None, True))
            results.append(check("extremal_off_residuals", dec.off_residuals, None, True))
    report = build_report(
        "analyze",
        {"map_file": args.map_file, "ops": args.ops, "zeta": args.zeta,
         "degree": args.degree, "r_max": args.r_max},
        args.seed, results, started,
    )
    emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["passed"] else 1


def cmd_search(args) -> int:
    started = time.time()
    if args.family == "moebius":
        config = moebius_subfamily(args.n)
    else:
        config = cubic_subfamily(args.n)
    res = extremal_search(config, alpha=args.alpha, budget=args.budget, seed=args.seed,
                          r_max=args.r_max if args.r_max is not None else 0.85)
    results = [
        check("search_achieved_order", res.achieved_order, None, True),
        check("search_norm_estimate", res.norm_estimate.value, None, True),
        check("search_extremal_residual", res.extremal_residual, None, True),
        check("search_ord_bound", res.ord_bound, None, True),
        check("search_bound_margin", res.bound_margin, None, res.bound_margin >= -1e-9),
        check("search_params", res.params, None, True),
        check("search_evaluations", res.evaluations, None, True),
        check("search_converged", res.converged, None, True),
    ]
    report = build_report(
        "search",
        {"family": args.family, "n": args.n, "alpha": args.alpha, "budget": args.budget},
        args.seed, results, started,
    )
    emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["passed"] else 1


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schwarzball",
        description="Verification and exploration tool for several-variable "
        "Schwarzian derivatives on the unit ball.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named property suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--n", type=int, default=2)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--format", choices=["json"], default="json")
    p_verify.add_argument(
        "--inject-failure", action="store_true",
        help="append one failing check (testing aid for the exit-code contract)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_bounds = sub.add_parser("bounds", help="tabulate order bounds on an (n, alpha) grid")
    p_bounds.add_argument("--n", default="2", help="single value or LO:HI range")
    p_bounds.add_argument("--alpha", default="0", help="single value or LO:HI range")
    p_bounds.add_argument("--step", type=float, default=0.1)
    p_bounds.add_argument("--seed", type=int, default=0)
    p_bounds.add_argument("--format", choices=["csv", "json"], default="csv")
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_analyze = sub.add_parser("analyze", help="analyze a map-spec JSON file")
    p_analyze.add_argument("map_file")
    p_analyze.add_argument("--ops", default="schwarzian", help=f"comma list from {ANALYZE_OPS}")
    p_analyze.add_argument("--zeta", default=None, help="comma-separated complex point")
    p_analyze.add_argument("--degree", type=int, default=4)
    p_analyze.add_argument("--r-max", type=float, default=None)
    p_analyze.add_argument("--seed", type=int, default=0)
    p_analyze.add_argument("--out", default=None)
    p_analyze.add_argument("--format", choices=["json"], default="json")
    p_analyze.set_defaults(func=cmd_analyze)

    p_search = sub.add_parser("search", help="penalized extremal search over a subfamily")
    p_search.add_argument("--family", choices=["moebius", "cubic"], default="moebius")
    p_search.add_argument("--n", type=int, default=2)
    p_search.add_argument("--alpha", type=float, default=0.0)
    p_search.add_argument("--budget", type=int, default=240)
    p_search.add_argument("--r-max", type=float, default=None)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--out", default=None)
    p_search.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except MapSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SchwarzballError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
