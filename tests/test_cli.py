"""CLI contract: determinism, map-file round trips, exit codes, formats."""

import json

import numpy as np
import pytest

from schwarzball.cli import main, map_from_payload, map_to_payload
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


def test_verify_seed_changes_are_visible(tmp_path):
    _, rep1 = run_json(tmp_path, ["verify", "lemma31", "--seed", "1"], "a.json")
    _, rep2 = run_json(tmp_path, ["verify", "lemma31", "--seed", "2"], "b.json")
    assert rep1["seed"] != rep2["seed"]


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


def test_exit_code_usage_error():
    assert main(["verify", "bogus"]) == 2
    assert main(["nonsense"]) == 2
    assert main([]) == 2


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


def test_bounds_json_format(tmp_path):
    code, rep = run_json(tmp_path, ["bounds", "--n", "2", "--alpha", "0", "--format", "json"])
    assert code == 0
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


def test_analyze_shear_norm_closed_form(tmp_path):
    path = tmp_path / "shear.json"
    path.write_text(json.dumps(SHEAR_FILE))
    code, rep = run_json(tmp_path, ["analyze", str(path), "--ops", "norm"])
    assert code == 0
    by_name = {r["name"]: r["value"] for r in rep["results"]}
    assert abs(by_name["norm_at_point"] - 1.0 / np.sqrt(3)) <= 1e-9  # 2a/sqrt(3), a = 0.5


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
