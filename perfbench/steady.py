"""Steadiness mode: repeat a workload over seeds and report each metric's spread.

    python3 perfbench/steady.py --workload norm --seeds 1-10 [--seconds 30]
    python3 perfbench/steady.py --workload norm --repeat-seed 3

The first form runs ``run.py --trace 0`` once per seed and prints, for every
end-to-end metric, the median, the quartiles and the spread (distance between
the quartiles as a share of the median) against the metric's bound in
BENCHMARK.json, and as ``setup_s.single`` the spread of the set-up of the
measured process alone.  It fails if any job failed its check on any seed.

The second form runs ``run.py --trace 1`` twice and ``--trace 0`` once with
one seed and fails unless every deterministic value repeats exactly: each
``.calls`` count, the derived ratios, and on ``norm`` ``sup_mean`` and
``unconverged_frac`` against the traced run's view of the same jobs.
Results go to ``perfbench/out/steady-*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DETERMINISTIC_SUFFIXES = (".calls", "converged_frac", "points_per_sup", "value_mean",
                          "unconverged_frac", "objective_evals")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One launcher run: its last output line and its full result record."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json")) as fh:
        return line, json.load(fh)


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spreads(workload: str, seeds: list[int], seconds: float) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in seeds:
        line, record = run(workload, seed, seconds, 0)
        failed += line["failed"]
        for key, val in record["metrics"].items():
            values.setdefault(key, []).append(val)
        # the measured child's own set-up, to compare one set-up with the median of three
        values.setdefault("setup_s.single", []).append(record["info"]["setup_runs_s"][1])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                         for k, v in line["metrics"].items()), flush=True)
    report = {key: spread(vals) for key, vals in values.items()}
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for key, r in report.items():
        bound = bounds.get(key)
        mark = "" if bound is None else f"{bound:6.2f}" + (" OVER/3" if r["spread"] > bound / 3 else "")
        print(f"{key:<18} {r['median']:12.6g} {r['q1']:12.6g} {r['q3']:12.6g} "
              f"{r['spread']:8.4f} {mark}")
    with open(os.path.join(OUT, f"steady-{workload}.json"), "w") as fh:
        json.dump({"workload": workload, "seeds": seeds, "seconds": seconds,
                   "failed": failed, "metrics": report}, fh, indent=1)
    print(f"failed jobs over all seeds: {failed}")
    return 0 if failed == 0 else 1


def repeat(workload: str, seed: int, seconds: float) -> int:
    first = run(workload, seed, seconds, 1)[1]["metrics"]
    second = run(workload, seed, seconds, 1)[1]["metrics"]
    plain_line, plain = run(workload, seed, seconds, 0)
    keys = sorted(k for k in first if k.endswith(DETERMINISTIC_SUFFIXES))
    mismatches = [k for k in keys if first[k] != second[k]]
    if workload == "norm":
        pairs = (("sup_mean", "bergman.norm_sup.value_mean"),
                 ("unconverged_frac", "bergman.norm_sup.unconverged_frac"))
        mismatches += [a for a, b in pairs if plain["metrics"][a] != first[b]]
    for key in keys:
        print(f"{key} {first[key]!r} {second[key]!r}")
    print(f"error_frac at seed {seed}: {plain['metrics']['error_frac']!r}")
    with open(os.path.join(OUT, f"steady-{workload}-repeat.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "mismatches": mismatches,
                   "first": first, "second": second, "untraced": plain["metrics"]}, fh, indent=1)
    if mismatches:
        print("not repeated exactly: " + ", ".join(mismatches))
    return 0 if not mismatches and plain_line["failed"] == 0 else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("tensor", "norm", "cli"))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--repeat-seed", type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args()
    os.makedirs(OUT, exist_ok=True)
    if args.repeat_seed is not None:
        return repeat(args.workload, args.repeat_seed, args.seconds)
    return spreads(args.workload, args.seeds, args.seconds)


if __name__ == "__main__":
    raise SystemExit(main())
