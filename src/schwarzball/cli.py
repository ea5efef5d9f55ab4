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
import dataclasses
import io
import json
import sys
import time

import numpy as np

from . import __version__, checks
from .errors import MapSpecError, SchwarzballError
from .bergman import schwarzian_norm_at, schwarzian_norm_sup
from .family import (
    grad_jacobian,
    koebe_map,
    norm_order_functional,
    normalization_residual,
    normalize_map,
    trace_order_functional,
)
from .jets import MAX_VARS
from .maps import (
    CompositionMap,
    MapSpec,
    MoebiusMap,
    PolyMap,
    _near_identity_keys,
    automorphism_from_center,
    automorphism_validate,
    identity_map,
    map_dim,
    moebius_pole,
    moebius_pole_at_e1,
    random_ball_point,
    random_moebius,
    random_normalized_polymap,
)
from .schwarzian import canonical_residual, pde_residual, schwarzian_of
from .variational import (
    SEARCH_R_MAX,
    BoundReport,
    _decoupled,
    _first_variation,
    _origin_tensors,
    bounds_report,
    decoupled_residuals,
    extremal_search,
    lemma31_check,
    moebius_subfamily,
    cubic_subfamily,
    variation_expansion_check,
)

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


def _finish(command: str, shown_args: dict, args, results: list[dict], started: float) -> int:
    """Emit the JSON report of a command; exit code 0 if every check passed, else 1."""
    report = {
        "tool": "schwarzball",
        "version": __version__,
        "command": command,
        "args": to_jsonable(shown_args),
        "seed": args.seed,
        "passed": all(r["passed"] for r in results),
        "results": results,
        "timing": {"seconds": time.time() - started},
    }
    emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["passed"] else 1


def emit(report_text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(report_text)
    else:
        sys.stdout.write(report_text)


# -- map-spec files -----------------------------------------------------------


def _complex_from_payload(obj) -> complex:
    parts = (obj.get("re", 0.0), obj.get("im", 0.0)) if isinstance(obj, dict) else (obj, 0.0)
    # JSON numbers only: no string is parsed, no boolean taken
    if not all(type(x) in (int, float) for x in parts):
        raise MapSpecError(f"bad complex payload {obj!r}")
    try:
        return complex(*parts)
    except OverflowError as exc:  # an integer beyond the float range
        raise MapSpecError(f"bad complex payload {obj!r}") from exc


def map_from_payload(payload: dict) -> MapSpec:
    """Parse a map-spec JSON payload; raises MapSpecError on malformed input."""
    if not isinstance(payload, dict):
        raise MapSpecError("map payload must be a JSON object")
    kind = payload.get("kind")
    n = payload.get("n")
    # JSON integers only: no float is truncated, no boolean taken; and no n
    # beyond the jet route's MAX_VARS, refused before any tensor is built
    if type(n) is not int or not 1 <= n <= MAX_VARS:
        raise MapSpecError(f"map payload needs an integer field 'n' in 1..{MAX_VARS}")
    if kind == "poly":
        comps = payload.get("components")
        if not isinstance(comps, list) or len(comps) != n or not all(isinstance(c, list) for c in comps):
            raise MapSpecError("poly payload needs n component lists")
        tables = []
        for comp in comps:
            table = {}
            for mono in comp:
                if not isinstance(mono, dict) or "exps" not in mono:
                    raise MapSpecError("poly monomial needs an 'exps' list")
                exps = mono["exps"]
                if not (isinstance(exps, list) and len(exps) == n
                        and all(type(e) is int and e >= 0 for e in exps)):
                    raise MapSpecError(f"bad exponent list {exps!r}")
                exps = tuple(exps)
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
        except (SchwarzballError, TypeError, ValueError) as exc:
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
        residual = max(automorphism_validate(sigma))
        if residual > 1e-8:
            raise MapSpecError(
                f"automorphism block identities violated (residual {residual:.3e})"
            )
        return sigma
    if kind == "compose":
        parts = payload.get("maps")
        if not isinstance(parts, list) or not parts:
            raise MapSpecError("compose payload needs a non-empty 'maps' list")
        try:
            m = CompositionMap([map_from_payload(p) for p in parts])
        except SchwarzballError as exc:
            raise MapSpecError(str(exc)) from exc
        if m.n != n:
            raise MapSpecError(f"compose payload has n = {n} but its maps have n = {m.n}")
        return m
    raise MapSpecError(f"unknown map kind {kind!r}")


def map_to_payload(m: MapSpec) -> dict:
    if isinstance(m, PolyMap):
        comps = [[{"exps": list(exps), **to_jsonable(coeff)} for exps, coeff in sorted(table.items())]
                 for table in m.components]
        return {"kind": "poly", "n": m.n, "components": comps}
    if isinstance(m, MoebiusMap):
        return {"kind": "moebius", "n": m.n, "a": to_jsonable(m.a)}
    if isinstance(m, CompositionMap):
        return {"kind": "compose", "n": m.n, "maps": [map_to_payload(p) for p in m.maps]}
    raise MapSpecError(f"cannot serialize {type(m).__name__}")


def load_map_file(path: str) -> MapSpec:
    """Read a map-spec file of UTF-8 JSON; raises MapSpecError on any malformed file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return map_from_payload(json.load(fh))
    except OSError as exc:
        raise MapSpecError(f"cannot read map file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MapSpecError(f"map file is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MapSpecError(f"map file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MapSpecError("map file nests too deeply to parse") from exc


# -- verification suites -------------------------------------------------------


def suite_moebius(n: int = 2, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    # 200 maps, then their 20 points each, every kind drawn in one batch
    grids = random_moebius(n, rng, size=200)
    points = random_ball_point(n, rng, 0.9, size=200 * 20).reshape(200, 20, n)
    w = checks.moebius_vanishing(zip(grids, points))
    return [
        residual_check("moebius_max_abs_Sk", w["Sk"], 1e-8),
        residual_check("moebius_max_abs_S0", w["S0"], 1e-8),
    ]


def suite_chainrule(n: int = 2, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    # all f, all g, all z, then all the Moebius postcompositions, each kind in one batch
    fs = random_normalized_polymap(n, rng, scale=0.08, size=50)
    gs = random_normalized_polymap(n, rng, scale=0.08, size=50)
    points = random_ball_point(n, rng, 0.3, size=50)
    w = checks.chain_rule(zip(fs, gs, points, random_moebius(n, rng, size=50)))
    return [
        residual_check("chainrule_max_Sk_gap", w["Sk"], 1e-9),
        residual_check("chainrule_max_S0_gap", w["S0"], 1e-9),
        residual_check("moebius_postcomposition_invariance", w["moebius_post"], 1e-9),
    ]


def suite_invariance(n: int = 2, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    # all f, the automorphisms' centers, all z, then the directions v (real parts
    # then imaginary parts per row), each kind in one batch
    fs = random_normalized_polymap(n, rng, scale=0.1, size=50)
    sigmas = automorphism_from_center(random_ball_point(n, rng, 0.5, size=50))
    points = random_ball_point(n, rng, 0.5, size=50)
    draws = rng.standard_normal((50, 2 * n))
    w = checks.invariance(zip(fs, sigmas, points, draws[:, :n] + 1j * draws[:, n:]), seed=seed)
    return [
        residual_check("norm_invariance_max_residual", w["norm"], 1e-6),
        residual_check("metric_isometry_max_rel_residual", w["isometry"], 1e-9),
    ]


def _named_test_maps(n: int) -> list[MapSpec]:
    """The identity, the pole z / (1 - z_1), and the shears z_1 + 0.4 z_2^2 and z_1 + 0.5 z_1^2."""
    squares = (tuple(2 * (k == 1) for k in range(n)), tuple(2 * (k == 0) for k in range(n)))
    coeffs = np.zeros((2, n, n + 2))
    coeffs[:, :, :n], coeffs[0, 0, n], coeffs[1, 0, n + 1] = np.eye(n), 0.4, 0.5
    shears = PolyMap._stacked(n, _near_identity_keys(n, 1) + squares, coeffs)
    return [identity_map(n), moebius_pole_at_e1(n), *shears]


def suite_pde(n: int = 2, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    # every named map at 0 and at a point, and 20 cubics at a point each: the
    # cubics in one batch, then the 24 points in one
    named = _named_test_maps(n)
    cubics = random_normalized_polymap(n, rng, scale=0.1, size=20)
    points = random_ball_point(n, rng, 0.4, size=len(named) + len(cubics))
    cases = [(m, np.zeros(n, dtype=complex)) for m in named]
    w = checks.canonical_and_pde(cases + list(zip(named + cubics, points)))
    return [
        residual_check("canonical_form_max_residual", w["canonical"], 1e-10),
        residual_check("pde_solution_max_residual", w["pde"], 1e-12),
        residual_check("tensor_symmetry_max_residual", w["symmetry"], 1e-10),
    ]


def suite_lemma31(n: int = 2, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst = max(lemma31_check(m) for m in random_normalized_polymap(n, rng, scale=0.1, size=20))
    return [residual_check("gradient_expansion_matrix_max_gap", worst, 1e-9)]


def suite_variation(n: int = 2, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    # ten cubics for the symmetry of A and one for the remainder, in one batch
    cubics = random_normalized_polymap(n, rng, scale=0.1, size=11)
    sym = checks.worst(checks.first_variation, [(m,) for m in cubics[:10]])
    # second-order remainder scaling
    probes = [moebius_pole_at_e1(n), _named_test_maps(n)[3], cubics[10]]
    ratio = max(variation_expansion_check(m, seed=seed).max_ratio for m in probes)
    # extremal closure at alpha = 0 for z / (1 - <z, c>), c = exp(i phase) e_1
    poles = [(moebius_pole(np.exp(1j * phase) * np.eye(n)[0]),) for phase in (0.0, 0.4, 1.1, -0.7)]
    closure = checks.worst(checks.first_variation, poles)
    # exact attainment of the alpha = 0 bound
    g0 = koebe_map(moebius_pole_at_e1(n), np.zeros(n))
    attained = abs(trace_order_functional(g0) - bounds_report(n, 0.0).ord_bound)
    dec = decoupled_residuals(moebius_pole_at_e1(n))
    grid = checks.bounds_grid(range(2, 11), [0.1 * k for k in range(41)])
    grid_ok = grid["C_excess"] <= 1e-12
    mono_ok = grid["fall"] <= 1e-12
    return [
        residual_check("A_symmetry_max_residual", sym["symmetry"], 1e-10),
        residual_check("expansion_remainder_max_ratio", ratio, 4.0),
        residual_check("moebius_extremal_closure_residual", closure["extremal"], 1e-9),
        residual_check("alpha0_order_attainment_gap", attained, 1e-12),
        residual_check("alpha0_decoupled_quadratic_residual", dec.quadratic_residual, 1e-9),
        check("bounds_C_exact_le_C_simple_grid", grid_ok, None, grid_ok),
        residual_check("bounds_lower_le_norm_ord_bound_grid", grid["lower_excess"], 1e-12),
        check("bounds_monotone_in_alpha", mono_ok, None, mono_ok),
    ]


def suite_family(n: int = 2, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    samples = [moebius_pole_at_e1(n), _named_test_maps(n)[2], random_normalized_polymap(n, rng, scale=0.1)]
    w = checks.worst(checks.koebe, [(m, random_ball_point(n, rng, 0.4), seed) for m in samples])
    us = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2)]
    # u is normalized first: scale * u / |u| rounds differently
    zetas = [(scale * (u / np.linalg.norm(u)),) for scale, u in zip((1e-1, 1e-2), us)]
    ident = checks.worst(checks.identity_koebe, zetas)
    # linear invariance: transform of a shear/Moebius does not raise the norm estimate
    excess = checks.linear_invariance([(m, random_ball_point(n, rng, 0.3)) for m in samples[:2]],
                                      seed=seed)
    # the ratio is 0 where no sample has a positive norm order; NaN stays NaN
    ratio = float(np.maximum(0.0, w.get("trace_ratio", 0.0)))
    return [
        residual_check("koebe_normalization_max_residual", w["normalization"], 1e-12),
        residual_check("trace_order_gradient_gap", w["trace_gradient"], 1e-10),
        residual_check("identity_koebe_gradient_gap", ident["gradient"], 1e-12),
        residual_check("linear_invariance_norm_excess", excess["norm_excess"], 1e-6),
        # observed only, never asserted
        check("trace_le_n_times_norm_order_observed_ratio", ratio, None, True),
    ]


SUITE_RUNNERS = {
    "moebius": suite_moebius,
    "chainrule": suite_chainrule,
    "invariance": suite_invariance,
    "pde": suite_pde,
    "lemma31": suite_lemma31,
    "variation": suite_variation,
    "family": suite_family,
}
SUITES = tuple(SUITE_RUNNERS)


# -- subcommands ---------------------------------------------------------------


def cmd_verify(args) -> int:
    started = time.time()
    runner = SUITE_RUNNERS[args.suite]
    results = runner(n=args.n, seed=args.seed)
    if args.inject_failure:
        results.append(check("injected_failure", 1.0, 0.0, False))
    return _finish("verify", {"suite": args.suite, "n": args.n}, args, results, started)


MAX_BOUNDS_ROWS = 100_000  # about 2 s of bounds_report


def _parse_range(text: str, kind) -> tuple:
    parts = text.split(":")
    try:
        lo, hi = kind(parts[0]), kind(parts[-1])
    except ValueError as exc:
        raise MapSpecError(f"bad range {text!r}: {exc}") from exc
    if len(parts) > 2 or not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise MapSpecError(
            f"bad range {text!r}, expected finite LO:HI with LO <= HI or a single value"
        )
    return (lo, hi)


def cmd_bounds(args) -> int:
    started = time.time()
    n_lo, n_hi = _parse_range(args.n, int)
    a_lo, a_hi = _parse_range(args.alpha, float)
    if n_lo < 2:
        raise MapSpecError("bounds require n >= 2")
    if a_lo < 0:
        raise MapSpecError("bounds require alpha >= 0")
    steps = (a_hi - a_lo) / args.step  # inf when the step underflows the range
    if not (n_hi - n_lo + 1) * (steps + 1) <= MAX_BOUNDS_ROWS:
        raise MapSpecError(f"bounds grid asks for more than {MAX_BOUNDS_ROWS} rows")
    count = int(round(steps))
    rows = []
    for n in range(n_lo, n_hi + 1):
        for k in range(count + 1):
            alpha = a_lo + k * args.step
            if alpha > a_hi + 1e-9:
                break
            rows.append(bounds_report(n, alpha))
    ok = [br.C_exact <= br.C_simple and br.lower_bound <= br.norm_ord_bound for br in rows]
    columns = [field.name for field in dataclasses.fields(BoundReport)]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([repr(getattr(br, name)) for name in columns] for br in rows)
        emit(buf.getvalue(), args.out)
        return 0 if all(ok) else 1
    results = [check(f"bounds_n{br.n}_alpha{br.alpha:g}",
                     {name: getattr(br, name) for name in columns}, None, row_ok)
               for br, row_ok in zip(rows, ok)]
    return _finish(
        "bounds", {"n": args.n, "alpha": args.alpha, "step": args.step}, args, results, started
    )


def _parse_point(text: str, n: int) -> np.ndarray:
    try:
        vals = [complex(part.strip().replace(" ", "")) for part in text.split(",")]
    except ValueError as exc:
        raise MapSpecError(f"cannot parse point {text!r}: {exc}") from exc
    if len(vals) != n:
        raise MapSpecError(f"point {text!r} has {len(vals)} entries, expected {n}")
    point = np.array(vals, dtype=complex)
    if not float(np.sum(np.abs(point) ** 2)) < 1.0:
        raise MapSpecError(f"point {text!r} is not inside the unit ball")
    return point


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
            t = schwarzian_of(m, zeta)
            results.append(check("schwarzian_Sk", t.Sk, None, True))
            results.append(check("schwarzian_S0", t.S0, None, True))
            results.append(residual_check("schwarzian_canonical_residual", canonical_residual(t), 1e-10))
            results.append(residual_check("schwarzian_pde_residual", pde_residual(m, t), 1e-12))
        elif op == "norm":
            est = schwarzian_norm_at(m, zeta, seed=args.seed)
            results.append(check("norm_at_point", est.value, None, True))
            results.append(check("norm_at_point_upper", est.upper, None, True))
            results.append(check("norm_at_point_converged", est.converged, None, bool(est.converged)))
            if args.r_max is not None:
                sup = schwarzian_norm_sup(m, r_max=args.r_max, seed=args.seed)
                results.append(check("norm_sup_lower_bound", sup.value, None, True))
                results.append(check("norm_sup_arg_z", sup.arg_z, None, True))
                results.append(check("norm_sup_upper", sup.upper, None, True))
                results.append(check("norm_sup_points", sup.points, None, True))
                results.append(check("norm_sup_pruned", sup.pruned, None, True))
                results.append(check("norm_sup_iterations", sup.iterations, None, True))
                results.append(check("norm_sup_converged", sup.converged, None, bool(sup.converged)))
        elif op == "order":
            g, was = normalize_map(m)
            results.append(check("order_trace", trace_order_functional(g), None, True))
            results.append(check("order_norm", norm_order_functional(g, seed=args.seed), None, True))
            results.append(check("order_grad_jf", grad_jacobian(g), None, True))
            results.append(check("order_was_normalized", was, None, True))
        elif op == "koebe":
            g = koebe_map(m, zeta)
            results.append(check("koebe_grad_jf", grad_jacobian(g), None, True))
            results.append(
                residual_check("koebe_normalization_residual", normalization_residual(g), 1e-12)
            )
        elif op == "extremal":
            # one read of Lambda, S^k(0) and S^0(0) serves both reports
            origin = _origin_tensors(m)
            rep = _first_variation(*origin)
            results.append(check("extremal_Lambda", rep.Lam, None, True))
            results.append(check("extremal_A", rep.A, None, True))
            results.append(check("extremal_residual", rep.extremal_residual, None, True))
            dec = _decoupled(*origin)
            results.append(check("extremal_lambda_aligned", dec.lam, None, True))
            results.append(check("extremal_quadratic_residual", dec.quadratic_residual, None, True))
            results.append(check("extremal_off_residuals", dec.off_residuals, None, True))
    return _finish(
        "analyze",
        {"map_file": args.map_file, "ops": args.ops, "zeta": args.zeta, "r_max": args.r_max},
        args, results, started,
    )


def cmd_search(args) -> int:
    started = time.time()
    if args.family == "moebius":
        config = moebius_subfamily(args.n)
    else:
        config = cubic_subfamily(args.n)
    res = extremal_search(config, alpha=args.alpha, budget=args.budget, seed=args.seed,
                          r_max=args.r_max)
    results = [
        check("search_achieved_order", res.achieved_order, None, True),
        check("search_norm_estimate", res.norm_estimate.value, None, True),
        check("search_norm_upper", res.norm_estimate.upper, None, True),
        check("search_extremal_residual", res.extremal_residual, None, True),
        check("search_ord_bound", res.ord_bound, None, True),
        check("search_bound_margin", res.bound_margin, None, res.bound_margin >= -1e-9),
        check("search_params", res.params, None, True),
        check("search_evaluations", res.evaluations, None, True),
        check("search_failed_evaluations", res.failed_evaluations, None, True),
        check("search_converged", res.converged, None, True),
    ]
    return _finish(
        "search",
        {"family": args.family, "n": args.n, "alpha": args.alpha, "budget": args.budget},
        args, results, started,
    )


# -- entry point ---------------------------------------------------------------


def _checked(kind, test, expected: str):
    """argparse type: ``kind(text)`` if ``test`` holds for it (NaN fails), else a usage error."""

    def parse(text: str):
        value = kind(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {expected}")
        return value

    parse.__name__ = kind.__name__
    return parse


_DIMENSION = _checked(int, lambda n: 2 <= n <= MAX_VARS, f"a dimension in 2..{MAX_VARS}")
_ALPHA = _checked(float, lambda a: 0.0 <= a < np.inf, "a finite alpha >= 0")
_RADIUS = _checked(float, lambda r: 0.0 <= r < 1.0, "a radius in [0, 1)")
_STEP = _checked(float, lambda h: 0.0 < h < np.inf, "a finite step > 0")
_SEED = _checked(int, lambda s: s >= 0, "a seed >= 0")
_BUDGET = _checked(int, lambda b: b >= 1, "a budget >= 1")


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
    p_verify.add_argument("--n", type=_DIMENSION, default=2)
    p_verify.add_argument("--seed", type=_SEED, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument(
        "--inject-failure", action="store_true",
        help="append one failing check (testing aid for the exit-code contract)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_bounds = sub.add_parser("bounds", help="tabulate order bounds on an (n, alpha) grid")
    p_bounds.add_argument("--n", default="2", help="single value or LO:HI range")
    p_bounds.add_argument("--alpha", default="0", help="single value or LO:HI range")
    p_bounds.add_argument("--step", type=_STEP, default=0.1)
    p_bounds.add_argument("--format", choices=["csv", "json"], default="csv")
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=cmd_bounds, seed=None)  # bounds draws nothing

    p_analyze = sub.add_parser("analyze", help="analyze a map-spec JSON file")
    p_analyze.add_argument("map_file")
    p_analyze.add_argument("--ops", default="schwarzian", help=f"comma list from {ANALYZE_OPS}")
    p_analyze.add_argument("--zeta", default=None, help="comma-separated complex point")
    p_analyze.add_argument("--r-max", type=_RADIUS, default=None)
    p_analyze.add_argument("--seed", type=_SEED, default=0)
    p_analyze.add_argument("--out", default=None)
    p_analyze.set_defaults(func=cmd_analyze)

    p_search = sub.add_parser("search", help="penalized extremal search over a subfamily")
    p_search.add_argument("--family", choices=["moebius", "cubic"], default="moebius")
    p_search.add_argument("--n", type=_DIMENSION, default=2)
    p_search.add_argument("--alpha", type=_ALPHA, default=0.0)
    p_search.add_argument("--budget", type=_BUDGET, default=240)
    p_search.add_argument("--r-max", type=_RADIUS, default=SEARCH_R_MAX)
    p_search.add_argument("--seed", type=_SEED, default=0)
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
