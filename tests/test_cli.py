"""CLI contract: determinism, map-file round trips, exit codes, formats."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from schwarzball import checks, cli, family, maps, schwarzian, variational
from schwarzball.cli import SUITES, main, map_from_payload, map_to_payload
from schwarzball.errors import MapSpecError
from schwarzball.maps import (
    CompositionMap,
    PolyMap,
    automorphism_from_center,
    map_eval,
    moebius_pole_at_e1,
)

MOEBIUS_FILE = {
    "kind": "moebius",
    "n": 2,
    "a": [
        [{"re": 1.0, "im": 0.0}, {"re": -1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
        [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
        [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
    ],
}

SHEAR_FILE = {
    "kind": "poly",
    "n": 2,
    "components": [
        [{"exps": [1, 0], "re": 1.0, "im": 0.0}, {"exps": [0, 2], "re": 0.5, "im": 0.0}],
        [{"exps": [0, 1], "re": 1.0, "im": 0.0}],
    ],
}


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


# -- determinism -----------------------------------------------------------------


def test_verify_reports_byte_identical_modulo_timing(tmp_path):
    code1, rep1 = run_json(tmp_path, ["verify", "pde", "--n", "2", "--seed", "5"], "a.json")
    code2, rep2 = run_json(tmp_path, ["verify", "pde", "--n", "2", "--seed", "5"], "b.json")
    assert code1 == 0 and code2 == 0
    rep1.pop("timing")
    rep2.pop("timing")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


class _CountingGenerator:
    """A numpy Generator that counts the calls of each of its methods."""

    def __init__(self, rng):
        self._rng, self.calls = rng, {}

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)

        return counted


def _generator_calls(monkeypatch, suite, n, seed):
    """The calls of each generator the suite makes, one dict per generator; the suite's
    report is checked to be the one it gives without counting."""
    want = cli.SUITE_RUNNERS[suite](n, seed)
    made, default_rng = [], np.random.default_rng

    def counting_rng(s):
        made.append(_CountingGenerator(default_rng(s)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    assert cli.SUITE_RUNNERS[suite](n, seed) == want
    return [g.calls for g in made]


@pytest.mark.parametrize("n, seed", [(2, 0), (3, 1)])
def test_moebius_suite_draws_its_maps_and_points_in_two_batches(monkeypatch, n, seed):
    # one normal draw for the 200 grids (no grid of these seeds is resampled),
    # one for the 4000 points' directions and one uniform draw for their radii
    assert _generator_calls(monkeypatch, "moebius", n, seed) == [{"standard_normal": 2, "random": 1}]


# the generator calls of each per-case suite at n = 2, one entry per generator
# it makes: every kind of sample in one draw, however many cases (no Moebius
# grid of these seeds is resampled); the variation suite's remainder check
# makes one generator per probe map and draws its directions in one call, and
# at n >= 3 the pointwise norms of the invariance suite draw their ascent
# starts from one more generator, in one call
SUITE_DRAWS = {
    "chainrule": [{"standard_normal": 4, "random": 1}],
    "invariance": [{"standard_normal": 4, "random": 2}],
    "pde": [{"standard_normal": 2, "random": 1}],
    "lemma31": [{"standard_normal": 1}],
    "variation": [{"standard_normal": 1}] * 4,
}


@pytest.mark.parametrize("suite", sorted(SUITE_DRAWS))
@pytest.mark.parametrize("n, seed", [(2, 0), (3, 1)])
def test_per_case_suites_draw_each_sample_kind_in_one_batch(monkeypatch, suite, n, seed):
    starts = [{"standard_normal": 1}] if suite == "invariance" and n >= 3 else []
    assert _generator_calls(monkeypatch, suite, n, seed) == SUITE_DRAWS[suite] + starts


def test_verify_seed_changes_are_visible(tmp_path):
    _, rep1 = run_json(tmp_path, ["verify", "lemma31", "--seed", "1"], "a.json")
    _, rep2 = run_json(tmp_path, ["verify", "lemma31", "--seed", "2"], "b.json")
    assert rep1["seed"] != rep2["seed"]


# -- suites ------------------------------------------------------------------------

SUITE_CHECKS = {
    "moebius": ["moebius_max_abs_Sk", "moebius_max_abs_S0"],
    "chainrule": ["chainrule_max_Sk_gap", "chainrule_max_S0_gap", "moebius_postcomposition_invariance"],
    "invariance": ["norm_invariance_max_residual", "metric_isometry_max_rel_residual"],
    "pde": ["canonical_form_max_residual", "pde_solution_max_residual", "tensor_symmetry_max_residual"],
    "lemma31": ["gradient_expansion_matrix_max_gap"],
    "variation": [
        "A_symmetry_max_residual", "expansion_remainder_max_ratio",
        "moebius_extremal_closure_residual", "alpha0_order_attainment_gap",
        "alpha0_decoupled_quadratic_residual", "bounds_C_exact_le_C_simple_grid",
        "bounds_lower_le_norm_ord_bound_grid", "bounds_monotone_in_alpha",
    ],
    "family": [
        "koebe_normalization_max_residual", "trace_order_gradient_gap",
        "identity_koebe_gradient_gap", "linear_invariance_norm_excess",
        "trace_le_n_times_norm_order_observed_ratio",
    ],
}


@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_passes_with_its_checks(tmp_path, suite):
    code, rep = run_json(tmp_path, ["verify", suite, "--n", "2", "--seed", "0"])
    assert code == 0 and rep["passed"] is True
    assert [r["name"] for r in rep["results"]] == SUITE_CHECKS[suite]


# -- exit codes --------------------------------------------------------------------


def test_exit_code_pass():
    assert main(["verify", "lemma31", "--n", "2", "--seed", "0"]) == 0


def test_exit_code_injected_failure(tmp_path):
    code, rep = run_json(
        tmp_path, ["verify", "lemma31", "--n", "2", "--seed", "0", "--inject-failure"]
    )
    assert code == 1
    assert rep["passed"] is False
    assert any(r["name"] == "injected_failure" for r in rep["results"])


def test_bound_violations_are_reported_not_raised(tmp_path, monkeypatch):
    # C_simple pushed below C_exact: the variation suite and both bounds
    # formats write their report or table with the check false, and exit 1
    c_simple = variational.c_simple
    monkeypatch.setattr(variational, "c_simple", lambda n, alpha: -1.0)
    code, rep = run_json(tmp_path, ["verify", "variation", "--n", "2", "--seed", "0"])
    assert code == 1 and rep["passed"] is False
    assert [r["name"] for r in rep["results"] if not r["passed"]] == [
        "bounds_C_exact_le_C_simple_grid"
    ]
    grid = ["bounds", "--n", "2", "--alpha", "0:1", "--step", "0.5"]
    code, rep = run_json(tmp_path, grid + ["--format", "json"], "bounds.json")
    assert code == 1 and not any(r["passed"] for r in rep["results"])
    out = tmp_path / "bounds.csv"
    assert main(grid + ["--format", "csv", "--out", str(out)]) == 1
    assert len(out.read_text().strip().split("\n")) == 1 + 3
    # a lower bound above the norm order bound fails its row too
    monkeypatch.setattr(variational, "c_simple", c_simple)
    bounds_report = cli.bounds_report

    def raised_lower(n, alpha):
        br = bounds_report(n, alpha)
        return dataclasses.replace(br, lower_bound=br.norm_ord_bound + (alpha > 0.7))

    monkeypatch.setattr(cli, "bounds_report", raised_lower)
    code, rep = run_json(tmp_path, grid + ["--format", "json"], "lower.json")
    assert code == 1
    assert [r["passed"] for r in rep["results"]] == [True, True, False]
    assert main(grid + ["--format", "csv", "--out", str(out)]) == 1
    # and the variation suite's grid check reports it
    monkeypatch.setattr(checks, "bounds_report", raised_lower)
    code, rep = run_json(tmp_path, ["verify", "variation", "--n", "2", "--seed", "0"], "var.json")
    assert code == 1
    failed = [r for r in rep["results"] if not r["passed"]]
    assert [r["name"] for r in failed] == ["bounds_lower_le_norm_ord_bound_grid"]
    assert abs(failed[0]["value"] - 1.0) <= 1e-12 and failed[0]["tolerance"] == 1e-12


def test_trace_order_gap_is_reported_not_raised(tmp_path, monkeypatch):
    # a 0.1% error in grad JG(0) reaches the family suite's report as a
    # failing check instead of an exception
    grad_jacobian = family.grad_jacobian
    for module in (family, checks):
        monkeypatch.setattr(module, "grad_jacobian", lambda g: 1.001 * grad_jacobian(g))
    code, rep = run_json(tmp_path, ["verify", "family", "--n", "2", "--seed", "0"])
    assert code == 1 and rep["passed"] is False
    gap = next(r for r in rep["results"] if r["name"] == "trace_order_gradient_gap")
    assert gap["passed"] is False and gap["value"] > 1e-4


def test_production_commands_run_without_jets(tmp_path, monkeypatch):
    # the jet route is an oracle only: with every binding of map_jet_at made to
    # raise, these commands give the same reports
    path = tmp_path / "shear.json"
    path.write_text(json.dumps(SHEAR_FILE))
    argvs = [["verify", suite, "--n", "2", "--seed", "1"]
             for suite in ("variation", "moebius", "invariance", "chainrule")]
    argvs += [
        ["analyze", str(path), "--ops", "norm,order,koebe,extremal", "--zeta", "0.1,0.2j"],
        ["search", "--family", "moebius", "--n", "2", "--budget", "12", "--seed", "1"],
    ]
    expected = [run_json(tmp_path, argv, f"free{k}.json") for k, argv in enumerate(argvs)]

    def blocked(*args, **kwargs):
        raise AssertionError("map_jet_at called")

    original = maps.map_jet_at
    for name, module in list(sys.modules.items()):
        if name == "schwarzball" or name.startswith("schwarzball."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, blocked)
    assert schwarzian.map_jet_at is blocked
    for k, (argv, (code, rep)) in enumerate(zip(argvs, expected)):
        got_code, got = run_json(tmp_path, argv, f"blocked{k}.json")
        assert code == got_code == 0, argv
        rep.pop("timing")
        got.pop("timing")
        assert json.dumps(got) == json.dumps(rep), argv


def test_exit_code_usage_error(tmp_path):
    assert main(["verify", "bogus"]) == 2
    assert main(["nonsense"]) == 2
    assert main([]) == 2
    # out-of-range and non-finite options are rejected while parsing, before any work
    path = tmp_path / "moebius.json"
    path.write_text(json.dumps(MOEBIUS_FILE))
    argvs = [
        ["bounds", "--alpha", "0:1", "--step", "nan"], ["bounds", "--alpha", "0:1", "--step", "inf"],
        ["bounds", "--alpha", "0:inf"], ["bounds", "--alpha", "nan"],
        ["bounds", "--alpha", "0:1", "--step", "1e-320"], ["bounds", "--alpha", "0:1", "--step", "1e-300"],
        ["bounds", "--n", "2:1000000", "--alpha", "0:1"],
        ["search", "--alpha", "-1"], ["search", "--alpha", "nan"], ["search", "--alpha", "inf"],
        ["verify", "pde", "--seed", "-1"], ["analyze", str(path), "--seed", "-1"],
        ["search", "--seed", "-1"], ["search", "--budget", "-5"], ["search", "--budget", "0"],
        # options that selected nothing are gone
        ["verify", "pde", "--format", "json"], ["analyze", str(path), "--format", "json"],
        ["bounds", "--seed", "0"],
    ]
    for r_max in ("1.5", "nan", "-0.1"):
        argvs += [["search", "--r-max", r_max], ["analyze", str(path), "--ops", "norm", "--r-max", r_max]]
    for n in ("1", "9"):
        argvs += [["verify", "pde", "--n", n], ["search", "--n", n]]
    for argv in argvs:
        assert main(argv) == 2, argv


def test_exit_code_math_error(tmp_path):
    # analyzing a map singular at the requested point is a math failure (1)
    singular = {
        "kind": "poly",
        "n": 2,
        "components": [
            [{"exps": [2, 0], "re": 1.0, "im": 0.0}],
            [{"exps": [0, 1], "re": 1.0, "im": 0.0}],
        ],
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(singular))
    assert main(["analyze", str(path), "--ops", "schwarzian"]) == 1


def test_exit_code_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["analyze", str(path)]) == 2
    path2 = tmp_path / "badkind.json"
    path2.write_text(json.dumps({"kind": "mystery", "n": 2}))
    assert main(["analyze", str(path2)]) == 2
    ragged = dict(MOEBIUS_FILE, a=[MOEBIUS_FILE["a"][0], MOEBIUS_FILE["a"][1][:2], MOEBIUS_FILE["a"][2]])
    bad_exps = [[{"exps": ["x", 0], "re": 1.0}], [{"exps": 5, "re": 1.0}], 5]
    payloads = [ragged] + [dict(SHEAR_FILE, components=[c, SHEAR_FILE["components"][1]]) for c in bad_exps]
    for k, payload in enumerate(payloads):
        path3 = tmp_path / f"malformed{k}.json"
        path3.write_text(json.dumps(payload))
        assert main(["analyze", str(path3)]) == 2
    shear_path = tmp_path / "shear.json"
    shear_path.write_text(json.dumps(SHEAR_FILE))
    for zeta in ("2,0", "0.8,0.7", "nan,0"):  # outside the ball: rejected before any op runs
        assert main(["analyze", str(shear_path), "--zeta", zeta, "--ops", "schwarzian,norm"]) == 2
    nan_constant = [{"exps": [0, 0], "re": float("nan"), "im": 0.0}]
    nan_path = tmp_path / "nan.json"
    nan_path.write_text(json.dumps(dict(SHEAR_FILE, components=[
        SHEAR_FILE["components"][0] + nan_constant, SHEAR_FILE["components"][1]])))
    for ops in ("schwarzian,norm", "order,koebe"):
        assert main(["analyze", str(nan_path), "--ops", ops]) == 2


def assert_parse_error(tmp_path, content: bytes):
    """The map file is refused with a MapSpecError, and ``analyze`` exits 2."""
    path = tmp_path / "map.json"
    path.write_bytes(content)
    with pytest.raises(MapSpecError):
        cli.load_map_file(str(path))
    assert main(["analyze", str(path)]) == 2


def test_map_file_not_utf8_is_a_parse_error(tmp_path):
    assert_parse_error(tmp_path, json.dumps(SHEAR_FILE).encode("utf-16"))


def test_map_file_nested_too_deep_is_a_parse_error(tmp_path):
    depth = 1500
    text = '{"kind": "compose", "n": 2, "maps": [' * depth + json.dumps(SHEAR_FILE) + "]}" * depth
    assert_parse_error(tmp_path, text.encode())


def test_map_file_fractional_n_is_a_parse_error(tmp_path):
    assert_parse_error(tmp_path, json.dumps(dict(SHEAR_FILE, n=2.9)).encode())


def test_map_file_dimension_below_one_is_a_parse_error(tmp_path):
    payload = {"kind": "automorphism", "n": -1, "D": 1, "C": [], "B": [], "A": []}
    assert_parse_error(tmp_path, json.dumps(payload).encode())


def _identity_moebius(n):
    grid = [[{"re": float(i == j), "im": 0.0} for j in range(n + 1)] for i in range(n + 1)]
    return {"kind": "moebius", "n": n, "a": grid}


def test_map_file_dimension_above_max_vars_is_a_parse_error(tmp_path):
    # refused at load time (exit 2), before the order-3 arrays of any tensor;
    # n = MAX_VARS itself still loads
    assert cli.MAX_VARS == 8
    assert map_from_payload(_identity_moebius(8)).n == 8
    assert_parse_error(tmp_path, json.dumps(_identity_moebius(9)).encode())
    assert main(["analyze", str(tmp_path / "map.json"), "--ops", "schwarzian"]) == 2


def test_map_file_compose_dimension_must_match_its_maps(tmp_path):
    payload = {"kind": "compose", "n": 5, "maps": [SHEAR_FILE, SHEAR_FILE]}
    assert_parse_error(tmp_path, json.dumps(payload).encode())


def test_map_file_fractional_exponent_is_a_parse_error(tmp_path):
    first = [{"exps": [1.7, 0], "re": 1.0, "im": 0.0}]
    payload = dict(SHEAR_FILE, components=[first, SHEAR_FILE["components"][1]])
    assert_parse_error(tmp_path, json.dumps(payload).encode())


def _shear_with_first_coefficient(**fields):
    first = [dict({"exps": [1, 0]}, **fields), SHEAR_FILE["components"][0][1]]
    return dict(SHEAR_FILE, components=[first, SHEAR_FILE["components"][1]])


def _moebius_with_entry(value):
    grid = [row[:] for row in MOEBIUS_FILE["a"]]
    grid[1][1] = value
    return dict(MOEBIUS_FILE, a=grid)


# the identity automorphism, valid with "D": 1
IDENTITY_AUTOMORPHISM = {"kind": "automorphism", "n": 2, "D": 1, "C": [0, 0], "B": [0, 0],
                         "A": [[1, 0], [0, 1]]}


@pytest.mark.parametrize("payload", [
    _shear_with_first_coefficient(re="1.5", im=0.0),
    _shear_with_first_coefficient(re=True, im=0.0),
    _shear_with_first_coefficient(re=1.0, im="2"),
    _moebius_with_entry(True),
    dict(IDENTITY_AUTOMORPHISM, D=True),
    _shear_with_first_coefficient(re=10**400, im=0.0),
], ids=["string_re", "boolean_re", "string_im", "boolean_moebius_entry",
        "bare_boolean_block", "integer_beyond_float"])
def test_map_file_coefficient_not_a_json_number_is_a_parse_error(tmp_path, payload):
    assert_parse_error(tmp_path, json.dumps(payload).encode())


def test_map_file_integer_coefficients_load():
    m = map_from_payload(IDENTITY_AUTOMORPHISM)
    assert np.array_equal(map_eval(m, [0.1, 0.2j]), [0.1, 0.2j])


# -- map-spec round trips ------------------------------------------------------------


def test_round_trip_poly_and_moebius():
    for payload in (MOEBIUS_FILE, SHEAR_FILE):
        m = map_from_payload(payload)
        again = map_to_payload(m)
        m2 = map_from_payload(again)
        assert json.dumps(map_to_payload(m2), sort_keys=True) == json.dumps(again, sort_keys=True)
        z = np.array([0.2, 0.1 - 0.05j])
        assert np.max(np.abs(map_eval(m, z) - map_eval(m2, z))) == 0


def test_round_trip_automorphism_and_compose():
    sigma = automorphism_from_center([0.3, -0.1 + 0.2j])
    chain = CompositionMap((moebius_pole_at_e1(2), sigma))
    payload = map_to_payload(chain)
    m2 = map_from_payload(payload)
    z = np.array([0.1, 0.05])
    assert np.max(np.abs(map_eval(chain, z) - map_eval(m2, z))) <= 1e-15
    assert json.dumps(map_to_payload(m2), sort_keys=True) == json.dumps(payload, sort_keys=True)


def test_load_rejects_bad_automorphism():
    payload = {
        "kind": "automorphism",
        "n": 2,
        "A": [[{"re": 1.0}, {"re": 0.0}], [{"re": 0.0}, {"re": 1.0}]],
        "B": [{"re": 0.5}, {"re": 0.0}],
        "C": [{"re": 0.0}, {"re": 0.0}],
        "D": {"re": 1.0},
    }
    with pytest.raises(MapSpecError):
        map_from_payload(payload)


def test_automorphism_kind_is_a_moebius_alias(tmp_path):
    # diag(i, i): the Jacobian is -1, on the principal branch cut
    i, o = {"re": 0.0, "im": 1.0}, {"re": 0.0, "im": 0.0}
    payload = {"kind": "automorphism", "n": 2, "A": [[i, o], [o, i]], "B": [o, o],
               "C": [o, o], "D": {"re": 1.0, "im": 0.0}}
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(payload))
    code, rep = run_json(tmp_path, ["analyze", str(path), "--ops", "schwarzian,norm",
                                    "--zeta", "0.3,-0.2+0.1j"])
    assert code == 0 and rep["passed"] is True
    again = map_to_payload(map_from_payload(payload))
    assert again["kind"] == "moebius"
    assert again["a"] == [[payload["D"]] + payload["C"]] + [
        [b] + row for b, row in zip(payload["B"], payload["A"])
    ]


def test_round_trip_complex_payload_precision():
    vals = [0.1 + 0.2j, -1 / 3 + 1e-17j, 2**-40 - 7j]
    m = PolyMap(2, [{(1, 0): 1.0, (2, 0): vals[0], (0, 2): vals[1]}, {(0, 1): vals[2]}])
    m2 = map_from_payload(json.loads(json.dumps(map_to_payload(m))))
    for c1, c2 in zip(m.components, m2.components):
        for k, v in c1.items():
            assert c2[k] == v  # repr round trip is lossless


# -- bounds ---------------------------------------------------------------------------


def test_bounds_csv_header_and_values(tmp_path):
    out = tmp_path / "bounds.csv"
    code = main(["bounds", "--n", "2", "--alpha", "0:1", "--step", "0.5",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,alpha,C_exact,C_simple,ord_bound,norm_ord_bound,lower_bound"
    first = lines[1].split(",")
    assert first[0] == "2" and float(first[1]) == 0.0
    assert float(first[4]) == 1.5
    last = lines[3].split(",")
    assert abs(float(last[4]) - 11.196152422706631881) <= 1e-9
    assert abs(float(last[5]) - 9.5980762113533159403) <= 1e-9


def test_bounds_grid_rows_satisfy_inequality(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["bounds", "--n", "2:5", "--alpha", "0.1:1.1", "--step", "0.25",
                 "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")[1:]
    assert len(lines) == 4 * 5
    for line in lines:
        parts = [float(x) for x in line.split(",")]
        assert parts[2] <= parts[3]


def test_bounds_rejects_small_n(tmp_path):
    assert main(["bounds", "--n", "1", "--alpha", "0"]) == 2
    for n, alpha in (("2:3:4", "0"), ("abc", "0"), ("2", "x"), ("2", "-1"), ("3:2", "0"), ("2", "1:0")):
        assert main(["bounds", "--n", n, "--alpha", alpha]) == 2


def test_bounds_json_format(tmp_path):
    code, rep = run_json(tmp_path, ["bounds", "--n", "2", "--alpha", "0", "--format", "json"])
    assert code == 0
    assert rep["seed"] is None  # bounds draws nothing
    assert rep["results"][0]["value"]["ord_bound"] == 1.5


# -- analyze --------------------------------------------------------------------------


def test_analyze_identity_order(tmp_path):
    identity_payload = {
        "kind": "poly",
        "n": 2,
        "components": [
            [{"exps": [1, 0], "re": 1.0, "im": 0.0}],
            [{"exps": [0, 1], "re": 1.0, "im": 0.0}],
        ],
    }
    path = tmp_path / "id.json"
    path.write_text(json.dumps(identity_payload))
    code, rep = run_json(tmp_path, ["analyze", str(path), "--ops", "order"])
    assert code == 0
    by_name = {r["name"]: r["value"] for r in rep["results"]}
    assert by_name["order_trace"] == 0.0
    assert by_name["order_norm"] <= 1e-12


def test_analyze_moebius_order_and_norm(tmp_path):
    path = tmp_path / "moebius.json"
    path.write_text(json.dumps(MOEBIUS_FILE))
    code, rep = run_json(tmp_path, ["analyze", str(path), "--ops", "order,norm,extremal"])
    assert code == 0
    by_name = {r["name"]: r["value"] for r in rep["results"]}
    assert abs(by_name["order_trace"] - 1.5) <= 1e-12
    assert by_name["norm_at_point"] <= 1e-10
    assert by_name["extremal_residual"] <= 1e-10


def test_analyze_extremal_reads_the_origin_once(tmp_path, monkeypatch):
    # one read of Lambda, S^k(0) and S^0(0) serves A and the decoupled residuals,
    # which equal those of matrix_A and decoupled_residuals
    m = maps.random_normalized_polymap(3, np.random.default_rng(8), scale=0.15)
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(map_to_payload(m)))
    reads, real = [], variational._origin_tensors

    def counted(mp):
        reads.append(mp)
        return real(mp)

    monkeypatch.setattr(cli, "_origin_tensors", counted)
    code, rep = run_json(tmp_path, ["analyze", str(path), "--ops", "extremal"])
    assert code == 0 and len(reads) == 1
    rep_a, dec = variational.matrix_A(reads[0]), variational.decoupled_residuals(reads[0])
    want = {"extremal_Lambda": rep_a.Lam, "extremal_A": rep_a.A,
            "extremal_residual": rep_a.extremal_residual, "extremal_lambda_aligned": dec.lam,
            "extremal_quadratic_residual": dec.quadratic_residual,
            "extremal_off_residuals": dec.off_residuals}
    assert [r["name"] for r in rep["results"]] == list(want)
    for r in rep["results"]:
        assert r["value"] == cli.to_jsonable(want[r["name"]]), r["name"]


def test_analyze_shear_norm_closed_form(tmp_path):
    path = tmp_path / "shear.json"
    path.write_text(json.dumps(SHEAR_FILE))
    code, rep = run_json(tmp_path, ["analyze", str(path), "--ops", "norm"])
    assert code == 0
    by_name = {r["name"]: r["value"] for r in rep["results"]}
    assert abs(by_name["norm_at_point"] - 1.0 / np.sqrt(3)) <= 1e-9  # 2a/sqrt(3), a = 0.5


def test_analyze_sup_reports_what_it_rests_on(tmp_path):
    # deterministic counters of the sup in the report body: two runs are
    # byte-identical apart from timing, and the probe count follows the
    # default schedule (7 shells, 50 directions, 3 refine rounds of 16)
    rng = np.random.default_rng(12)
    for n in (2, 3):
        path = tmp_path / f"cubic{n}.json"
        path.write_text(json.dumps(map_to_payload(maps.random_normalized_polymap(n, rng, scale=0.1))))
        argv = ["analyze", str(path), "--ops", "norm", "--r-max", "0.8"]
        (code1, rep1), (code2, rep2) = (run_json(tmp_path, argv, f"{k}.json") for k in "ab")
        assert code1 == code2 == 0
        rep1.pop("timing")
        rep2.pop("timing")
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
        by_name = {r["name"]: r["value"] for r in rep1["results"]}
        assert by_name["norm_sup_points"] == 1 + (7 - 1) * 50 + 16 * 3
        assert 0 <= by_name["norm_sup_pruned"] < by_name["norm_sup_points"]
        assert (by_name["norm_sup_iterations"] > 0) == (n > 2)
        assert by_name["norm_sup_converged"] is True
        assert by_name["norm_sup_lower_bound"] <= by_name["norm_sup_upper"] * (1 + 1e-9)


def test_analyze_koebe_op(tmp_path):
    path = tmp_path / "moebius.json"
    path.write_text(json.dumps(MOEBIUS_FILE))
    code, rep = run_json(
        tmp_path, ["analyze", str(path), "--ops", "koebe", "--zeta", "0.1,0"]
    )
    assert code == 0
    by_name = {r["name"]: r for r in rep["results"]}
    assert by_name["koebe_normalization_residual"]["passed"]


def test_analyze_schwarzian_op_reports_tensors(tmp_path):
    path = tmp_path / "shear.json"
    path.write_text(json.dumps(SHEAR_FILE))
    code, rep = run_json(tmp_path, ["analyze", str(path), "--ops", "schwarzian"])
    assert code == 0
    by_name = {r["name"]: r["value"] for r in rep["results"]}
    # S^1_22 = 2a = 1.0 at the origin
    assert abs(by_name["schwarzian_Sk"][0][1][1]["re"] - 1.0) <= 1e-12


def test_analyze_schwarzian_op_on_compose_map_file(tmp_path):
    # pde_residual expands a composition chain into a jet part by part
    sigma = automorphism_from_center([0.2, 0.1j])
    shear = map_from_payload(SHEAR_FILE)
    for k, m in enumerate([CompositionMap((moebius_pole_at_e1(2), sigma)),
                           CompositionMap((shear, moebius_pole_at_e1(2), sigma))]):
        path = tmp_path / f"compose{k}.json"
        path.write_text(json.dumps(map_to_payload(m)))
        code, rep = run_json(tmp_path, ["analyze", str(path), "--ops", "schwarzian",
                                        "--zeta", "0.1,0.2j"], f"compose{k}.out.json")
        assert code == 0 and rep["passed"] is True
        by_name = {r["name"]: r["value"] for r in rep["results"]}
        assert by_name["schwarzian_pde_residual"] <= 1e-12


def test_analyze_rejects_unknown_op(tmp_path):
    path = tmp_path / "moebius.json"
    path.write_text(json.dumps(MOEBIUS_FILE))
    assert main(["analyze", str(path), "--ops", "teleport"]) == 2


# -- search ----------------------------------------------------------------------------


def test_search_cli_moebius(tmp_path):
    code, rep = run_json(
        tmp_path,
        ["search", "--family", "moebius", "--n", "2", "--alpha", "0", "--budget", "90", "--seed", "0"],
    )
    assert code == 0
    by_name = {r["name"]: r["value"] for r in rep["results"]}
    assert by_name["search_achieved_order"] >= 1.4
    assert by_name["search_achieved_order"] <= by_name["search_ord_bound"]
    assert by_name["search_failed_evaluations"] == 0


def test_search_r_max_default_is_the_search_radius(tmp_path):
    argv = ["search", "--family", "moebius", "--n", "2", "--budget", "12", "--seed", "1"]
    code1, rep1 = run_json(tmp_path, argv, "default.json")
    code2, rep2 = run_json(tmp_path, argv + ["--r-max", "0.85"], "explicit.json")
    assert code1 == code2 == 0
    rep1.pop("timing")
    rep2.pop("timing")
    assert json.dumps(rep1) == json.dumps(rep2)


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency only: every command runs with its import refused
    path = tmp_path / "shear.json"
    path.write_text(json.dumps(SHEAR_FILE))
    argvs = [["verify", suite, "--n", "2", "--seed", "1"] for suite in SUITES]
    argvs += [
        ["analyze", str(path), "--ops", "schwarzian,norm,order,koebe,extremal"],
        ["search", "--family", "cubic", "--n", "2", "--alpha", "0.5", "--budget", "12"],
        ["bounds", "--n", "2:3", "--alpha", "0:1", "--step", "0.5"],
    ]
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from schwarzball.cli import main\n"
            f"print(json.dumps([main(argv + ['--out', {str(tmp_path / 'out')!r}]) for argv in {argvs!r}]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [0] * len(argvs)
