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


def test_parse_run_output_reads_metrics_environment_and_labels():
    stdout = "\n".join([
        "# workload=norm seed=1 trace=0 attempted=42 failed=0",
        '# environment {"python": "3.11"}',
        '# info {"label_median_ms": {"moderate-n2": 2.5, "moderate-n3": 12.0}, "passes": 2}',
        "jobs_per_kref 110.5 1/kref",
        "sup_mean n/a norm",
        '{"correct": true, "attempted": 42, "failed": 0, "metrics": {}}',
    ])
    metrics, environment, labels = bench_pairs.parse_run_output(stdout)
    assert metrics == {"jobs_per_kref": 110.5, "attempted": 42, "failed": 0, "correct": True}
    assert environment == {"python": "3.11"}
    assert labels == {"moderate-n2": 2.5, "moderate-n3": 12.0}
    # no info line: no labels
    assert bench_pairs.parse_run_output(stdout.replace("# info", "# other"))[2] == {}


def test_label_medians_per_side():
    runs = [{"a": 1.0, "b": 4.0}, {"a": 3.0, "b": 5.0}, {"a": 2.0}]
    assert bench_pairs.label_medians(runs) == {"a": 2.0, "b": 4.5}
    assert bench_pairs.label_medians([]) == {}


def test_labels_in_ref_scale_by_the_runs_reference_rate():
    metrics = {"jobs_per_s": 20.0, "jobs_per_kref": 40.0}  # 0.5 ref per ms
    assert bench_pairs.labels_in_ref({"a": 4.0, "b": 10.0}, metrics) == {"a": 2.0, "b": 5.0}
    # a run twice as fast in ms but with the same reference time per job reads the same
    fast = {"jobs_per_s": 40.0, "jobs_per_kref": 40.0}
    assert bench_pairs.labels_in_ref({"a": 2.0, "b": 5.0}, fast) == {"a": 2.0, "b": 5.0}
    assert bench_pairs.labels_in_ref({"a": 1.0}, {"jobs_per_s": 1.0}) == {}
    assert bench_pairs.labels_in_ref({"a": 1.0}, {"jobs_per_kref": 1.0}) == {}


def test_collect_records_label_medians_in_ms_and_ref_units(monkeypatch):
    # the parent runs at 1 ref per ms and the change at 2, with the same job in ms
    rates = {"p": {"jobs_per_s": 10.0, "jobs_per_kref": 10.0},
             "c": {"jobs_per_s": 10.0, "jobs_per_kref": 5.0}}

    def fake_run(root, workload, seed, seconds, trace):
        return {**rates[root], "failed": 0}, {}, {"job": 3.0}

    monkeypatch.setattr(bench_pairs, "run_side", fake_run)
    monkeypatch.setattr(bench_pairs, "ROOT", "c")
    runs, labels, _, traced = bench_pairs.collect("p", "cli", 1, 2, 1.0, False)
    assert len(runs["parent"]) == len(runs["change"]) == 2 and traced is None
    assert labels == {"parent": {"job": 3.0}, "change": {"job": 3.0},
                      "parent_ref": {"job": 3.0}, "change_ref": {"job": 6.0}}
