"""Report comparison of the parent/change report differ (tools/report_diff.py)."""

import importlib.util
import os

from schwarzball.cli import ANALYZE_OPS, SUITES

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "report_diff.py")
_spec = importlib.util.spec_from_file_location("report_diff", _PATH)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def _report(values, seconds=0.5, passed=True):
    return {"tool": "schwarzball", "command": "verify", "passed": passed,
            "results": [{"name": name, "value": value, "tolerance": 1e-8, "passed": True}
                        for name, value in values.items()],
            "timing": {"seconds": seconds}}


def test_timing_alone_is_no_difference():
    a = _report({"gap": 1e-16, "matrix": [[{"re": 1.0, "im": -0.5}]], "nan": float("nan")})
    b = _report({"gap": 1e-16, "matrix": [[{"re": 1.0, "im": -0.5}]], "nan": float("nan")},
                seconds=9.0)
    assert report_diff.differences(a, b) == []
    assert a["timing"] == {"seconds": 0.5}  # the inputs are left as they are


def test_each_differing_value_is_printed_with_both_values():
    a = _report({"gap": 1e-16, "count": 3, "arg": [{"re": 0.1, "im": 0.0}]})
    b = _report({"gap": 2e-16, "count": 3, "arg": [{"re": 0.1, "im": -0.0}]})
    assert report_diff.differences(a, b) == [
        "gap value: 1e-16 -> 2e-16",
        'arg value: [{"im": 0.0, "re": 0.1}] -> [{"im": -0.0, "re": 0.1}]',
    ]
    # an integer and a float of one value are different report bytes
    assert report_diff.differences(_report({"n": 3}), _report({"n": 3.0})) == ["n value: 3 -> 3.0"]


def test_names_flags_counts_and_report_fields_are_compared():
    a, b = _report({"gap": 0.0, "other": 1.0}), _report({"gap": 0.0}, passed=False)
    b["results"][0]["passed"] = False
    assert report_diff.differences(a, b) == [
        "results: 2 checks -> 1",
        "gap passed: true -> false",
        "report passed: true -> false",
    ]
    renamed = _report({"gap2": 0.0})
    assert report_diff.differences(_report({"gap": 0.0}), renamed) == ['gap|gap2 name: "gap" -> "gap2"']


def test_command_list_is_fixed():
    # every suite and every analyze op of the CLI
    assert report_diff.SUITES == SUITES and report_diff.OPS == ",".join(ANALYZE_OPS)
    cmds = report_diff.commands("map.json")
    assert len(cmds) == 48 and len({tuple(c) for c in cmds}) == 48
    assert sum(c[0] == "verify" for c in cmds) == 7 * 2 * 3
    assert ["analyze", "map.json", "--ops", "schwarzian,norm,order,koebe,extremal",
            "--r-max", "0.6"] in cmds
    assert ["search", "--family", "moebius", "--n", "2", "--alpha", "0", "--budget", "24",
            "--seed", "1"] in cmds
    assert sum(c[0] == "analyze" and "--zeta" in c for c in cmds) == 1
    # the benchmark's bounds grid, in both formats
    for fmt in ("csv", "json"):
        assert ["bounds", "--n", "2:10", "--alpha", "0:4", "--step", "0.1", "--format", fmt] in cmds


def test_csv_output_is_compared_line_by_line():
    a = "n,alpha\n2,0.0\n2,0.1\n"
    assert report_diff.text_differences(a, a) == []
    assert report_diff.text_differences(a, "n,alpha\n2,0.0\n2,0.10000000000000002\n") == [
        "line 3: '2,0.1' -> '2,0.10000000000000002'"]
    assert report_diff.text_differences(a, "n,alpha\n2,0.0\n") == ["lines: 3 -> 2"]
