"""Alternating parent/change pairs of the benchmark, recorded in a BENCH_<n>.json file.

    python3 tools/bench_pairs.py --parent REV --workload tensor --seed 1 \\
        --pairs 10 --out BENCH_5.json [--layers]

The change side is the working tree.  The parent side is revision REV,
extracted with ``git archive REV | tar -x`` into a temporary directory, so
``.git`` and the working tree are left as they are.  The two sides must
carry byte-identical ``perfbench/`` and ``BENCHMARK.json`` (run outputs and
caches aside), or the script refuses to run.  Pair i runs the parent first
when i is odd and the change first when i is even, and each side runs its
own ``perfbench/run.py`` for BENCHMARK.json's ``run_seconds``.  ``--layers``
adds one traced run per side.

The record follows ``BENCH_4.json``: per-run metrics under ``runs``, and
under ``end_to_end`` the median and quartiles of each metric per side, the
pairs the change won (ties are not wins), the relative worsening of the
median and the parent's interquartile range.  Quartiles are numpy linear
percentiles.  Under ``labels`` it keeps, per side, the median over the runs
of each job label's median latency in ms (``label_median_ms`` of run.py's
``# info`` line), so the record shows which jobs moved, and next to it
(``parent_ref``, ``change_ref``) the same medians in ref units: each run's
label latencies times its ``jobs_per_s / jobs_per_kref``, so a drift of the
machine's speed between the runs does not read as a move.  An existing record
is updated in place: entries for other workloads and seeds are kept, and the
entry for this one is replaced.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHARED = ("perfbench", "BENCHMARK.json")  # must not differ between the sides
SKIPPED_DIRS = {"out", "__pycache__"}  # run outputs and caches inside perfbench/
RUN_TIMEOUT_S = 900
DESCRIPTION = (
    "Alternating parent/change pairs of `python3 perfbench/run.py --workload W --seed S`, "
    "collected by tools/bench_pairs.py. Pair i runs the parent first when i is odd and the "
    "change first when i is even; each side runs from its own checkout of the same benchmark "
    "files. Quartiles are numpy linear percentiles over the runs of one side; change_wins "
    "counts the pairs in which the change is strictly better. labels holds, per side, the "
    "median over the runs of each job label's median latency in ms (parent, change) and in "
    "ref units (parent_ref, change_ref: each run's label latency in ms times its "
    "jobs_per_s / jobs_per_kref)."
)


class PairsError(RuntimeError):
    pass


# -- statistics -------------------------------------------------------------------


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def change_wins(parent, change, better: str) -> int:
    """Pairs in which the change is strictly better than the parent run it was paired with."""
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def summarize(parent_runs: list[dict], change_runs: list[dict], spec: list[dict]) -> dict:
    """The ``end_to_end`` entry for one workload and seed.

    ``spec`` is BENCHMARK.json's ``end_to_end`` list (name, better, bound).
    """
    out = {}
    for metric in spec:
        name, better = metric["name"], metric["better"]
        p = [r[name] for r in parent_runs]
        c = [r[name] for r in change_runs]
        ps, cs = quartiles(p), quartiles(c)
        worse = cs["median"] - ps["median"] if better == "lower" else ps["median"] - cs["median"]
        out[name] = {
            "parent": ps,
            "change": cs,
            "better": better,
            "bound": metric["bound"],
            "change_wins": change_wins(p, c, better),
            "relative_worsening_of_median": worse / ps["median"] if ps["median"] else None,
            "parent_iqr": ps["q3"] - ps["q1"],
        }
    if all("jobs_per_s" in r for r in parent_runs + change_runs):
        out["jobs_per_s"] = {
            "parent": quartiles([r["jobs_per_s"] for r in parent_runs]),
            "change": quartiles([r["jobs_per_s"] for r in change_runs]),
        }
    out["failed"] = {
        "parent": sum(r["failed"] for r in parent_runs),
        "change": sum(r["failed"] for r in change_runs),
    }
    return out


# -- running ----------------------------------------------------------------------


def parse_run_output(stdout: str) -> tuple[dict, dict, dict]:
    """Metrics of one ``perfbench/run.py`` run, its environment and its job labels.

    The launcher prints ``name value unit`` for every metric (``n/a`` when
    it is not defined), ``# environment {...}``, ``# info {...}`` and a last
    JSON line with ``attempted``, ``failed`` and ``correct``.  The labels are
    the info line's ``label_median_ms``: each job label's median latency in
    ms ({} when the line is missing).
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise PairsError("benchmark run printed nothing")
    last = json.loads(lines[-1])
    metrics: dict = {}
    environment: dict = {}
    labels: dict = {}
    for line in lines[:-1]:
        if line.startswith("# environment "):
            environment = json.loads(line[len("# environment "):])
        elif line.startswith("# info "):
            labels = json.loads(line[len("# info "):]).get("label_median_ms", {})
        elif line and not line.startswith("#"):
            name, value = line.split()[:2]
            if value != "n/a":
                metrics[name] = float(value)
    if "metrics" in last:  # trace runs carry their per-layer metrics only here
        for name, entry in last["metrics"].items():
            metrics.setdefault(name, entry["value"])
    metrics.update(attempted=last["attempted"], failed=last["failed"], correct=last["correct"])
    return metrics, environment, labels


def label_medians(runs_labels: list[dict]) -> dict:
    """Per job label, the median over runs of its ``label_median_ms``."""
    names = sorted({name for labels in runs_labels for name in labels})
    return {name: float(np.median([labels[name] for labels in runs_labels if name in labels]))
            for name in names}


def labels_in_ref(labels: dict, metrics: dict) -> dict:
    """A run's job-label latencies in ref units: ms times the run's ``jobs_per_s / jobs_per_kref``.

    That ratio is the run's reference units per ms, so the result is what the
    ``_ref`` metrics measure.  {} when the run lacks either rate.
    """
    if not metrics.get("jobs_per_kref") or "jobs_per_s" not in metrics:
        return {}
    scale = metrics["jobs_per_s"] / metrics["jobs_per_kref"]
    return {name: ms * scale for name, ms in labels.items()}


def run_side(root: str, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict, dict]:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise PairsError(f"{' '.join(cmd)} in {root} exited with code {proc.returncode}")
    return parse_run_output(proc.stdout)


def _tree_differences(a: str, b: str) -> list[str]:
    cmp = filecmp.dircmp(a, b, ignore=sorted(SKIPPED_DIRS))
    diffs = [os.path.join(a, x) for x in cmp.left_only + cmp.right_only + cmp.funny_files]
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    diffs += [os.path.join(a, x) for x in mismatch + errors]
    for sub in cmp.common_dirs:
        diffs += _tree_differences(os.path.join(a, sub), os.path.join(b, sub))
    return diffs


def check_same_benchmark(parent_root: str, change_root: str) -> None:
    diffs = []
    for name in SHARED:
        p, c = os.path.join(parent_root, name), os.path.join(change_root, name)
        if os.path.isdir(p) and os.path.isdir(c):
            diffs += [os.path.relpath(x, parent_root) for x in _tree_differences(p, c)]
        elif not (os.path.isfile(p) and os.path.isfile(c) and filecmp.cmp(p, c, shallow=False)):
            diffs.append(name)
    if diffs:
        raise PairsError("the benchmark differs between the sides: " + ", ".join(sorted(diffs)))


def extract(rev: str, dest: str) -> str:
    """Commit id of ``rev``, whose files are written to ``dest``."""
    commit = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                            stdout=subprocess.PIPE, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise PairsError(f"git archive {rev} failed")
    return commit


def collect(parent_root: str, workload: str, seed: int, pairs: int, seconds: float,
            layers: bool) -> tuple[dict, dict, dict, dict | None]:
    sides = {"parent": parent_root, "change": ROOT}
    runs: dict = {"parent": [], "change": []}
    labels: dict = {"parent": [], "change": [], "parent_ref": [], "change_ref": []}
    environment: dict = {}
    for i in range(1, pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            metrics, environment, run_labels = run_side(sides[side], workload, seed, seconds, 0)
            runs[side].append(metrics)
            labels[side].append(run_labels)
            labels[f"{side}_ref"].append(labels_in_ref(run_labels, metrics))
            print(f"pair {i} {side}: " + json.dumps(
                {k: metrics[k] for k in ("jobs_per_kref", "failed") if k in metrics}),
                file=sys.stderr)
    traced = None
    if layers:
        traced = {"workload": workload, "seed": seed,
                  "command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                             f"--seconds {seconds:g} --trace 1"}
        for side in ("parent", "change"):
            metrics, _, _ = run_side(sides[side], workload, seed, seconds, 1)
            traced[side] = {k: v for k, v in metrics.items()
                            if k not in ("attempted", "failed", "correct")}
    return runs, {side: label_medians(v) for side, v in labels.items()}, environment, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--workload", required=True, choices=("tensor", "norm", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--layers", action="store_true", help="add one traced run per side")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json record to write or update")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = float(spec["run_seconds"])
    record = {"description": DESCRIPTION, "parent": None, "runs": {}, "end_to_end": {},
              "labels": {}, "environment": {}, "layers": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record.update(json.load(fh))
    try:
        with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_root:
            commit = extract(args.parent, parent_root)
            if record["parent"] not in (None, commit):
                raise PairsError(f"{args.out} holds pairs against {record['parent']}, not {commit}")
            check_same_benchmark(parent_root, ROOT)
            runs, labels, environment, traced = collect(parent_root, args.workload, args.seed,
                                                        args.pairs, seconds, args.layers)
    except (PairsError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["parent"] = commit
    key = f"{args.workload}_s{args.seed}"
    record["runs"][key] = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                           "seconds": seconds, **runs}
    record["end_to_end"][key] = summarize(runs["parent"], runs["change"], spec["end_to_end"])
    record["labels"][key] = labels
    record["environment"] = environment
    if traced is not None:
        record["layers"][key] = traced
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    summary = record["end_to_end"][key]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        s = summary[name]
        print(f"{key} {name}: parent {s['parent']['median']:.4g} "
              f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}] -> change "
              f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, {s['change']['q3']:.4g}], "
              f"wins {s['change_wins']}/{len(runs['parent'])}")
    print(f"{key} failed: parent {summary['failed']['parent']}, change {summary['failed']['change']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
