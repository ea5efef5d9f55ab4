"""Statistics of the benchmark pair collector (tools/bench_pairs.py)."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = [
    {"name": "rate", "better": "higher", "bound": 0.25},
    {"name": "latency", "better": "lower", "bound": 0.1},
]


def _runs(rates, latencies, failed=0):
    return [{"rate": r, "latency": t, "failed": failed} for r, t in zip(rates, latencies)]


def test_quartiles_are_linear_percentiles():
    q = bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0])
    assert q == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_summary_medians_wins_and_ties():
    parent = _runs([1.0, 2.0, 3.0, 4.0, 5.0], [10.0, 10.0, 10.0, 10.0, 10.0])
    # rates: better, tie, worse, better, better; latencies: tie, better, worse, tie, better
    change = _runs([1.5, 2.0, 2.5, 4.5, 6.0], [10.0, 9.0, 11.0, 10.0, 8.0], failed=1)
    out = bench_pairs.summarize(parent, change, SPEC)

    rate = out["rate"]
    assert rate["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert rate["change"] == {"median": 2.5, "q1": 2.0, "q3": 4.5}
    assert rate["change_wins"] == 3  # the tie is not a win
    assert rate["parent_iqr"] == 2.0
    assert rate["better"] == "higher" and rate["bound"] == 0.25
    assert rate["relative_worsening_of_median"] == pytest.approx((3.0 - 2.5) / 3.0)

    latency = out["latency"]
    assert latency["change_wins"] == 2  # two ties, one worse
    assert latency["parent_iqr"] == 0.0
    assert latency["relative_worsening_of_median"] == 0.0
    assert out["failed"] == {"parent": 0, "change": 5}


def test_lower_is_better_worsening_sign():
    out = bench_pairs.summarize(_runs([1.0], [10.0]), _runs([1.0], [12.0]), SPEC)
    assert out["latency"]["relative_worsening_of_median"] == pytest.approx(0.2)
    assert out["latency"]["change_wins"] == 0
    assert out["rate"]["change_wins"] == 0
