"""Benchmark launcher for schwarzball.

    python3 perfbench/run.py --workload {tensor,norm,cli,all} --seed N \\
        --seconds S --trace {0,1}

Each workload runs in its own child process (``child.py``) with BLAS and
OpenMP pinned to one thread and the checkout's ``src`` first on the import
path, so set-up time and peak RSS belong to that workload.  Two more child
processes only set up, one before and one after the measured one;
``setup_s`` is the median of the three set-ups.

With ``--trace 0`` the last line of standard output is one JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they
are its per-layer metrics.  Lines above it give every metric with its unit,
including the ones that are not defined on every workload, and the
environment.  ``--workload all`` runs the three workloads one after another
and prints all of them.  A full record of each run goes to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("tensor", "norm", "cli")
DEADLINE_S = 170.0  # a workload's run must end within 180 s
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# end-to-end metrics that BENCHMARK.json leaves out; run.py prints them with the
# others.  The wall-clock rates and latencies drift with the machine's speed
# (see README), error_frac is zero by design and the last two exist only on norm.
EXTRA_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
               "error_frac": "fraction", "sup_mean": "norm", "unconverged_frac": "fraction"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args, "--out-dir", OUT]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for the next child process")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(args)} did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def spec_units(trace: int) -> dict:
    """Metric name -> unit for the metrics BENCHMARK.json asks for in this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if tiny:
        base.append("--tiny")
    if trace:
        res = run_child(base + ["--trace", "1"], deadline)
    else:
        # set-up runs before and after the measured one, so that their median
        # spans the whole run and not one moment of the machine's speed
        setups = [run_child(base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS // 2)]
        res = run_child(base + ["--trace", "0"], deadline)
        setups.append(res["metrics"]["setup_s"])
        setups += [run_child(base + ["--setup-only"], deadline)["setup_s"]
                   for _ in range(SETUP_REPEATS // 2)]
        res["metrics"]["setup_s"] = statistics.median(setups)
        res["info"]["setup_runs_s"] = setups
    res.update(workload=name, seed=seed, seconds=seconds, trace=trace, tiny=tiny)
    tag = "-tiny" if tiny else ""
    with open(os.path.join(OUT, f"result-{name}-seed{seed}-trace{trace}{tag}.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    return res


def print_result(res: dict, units: dict) -> None:
    print(f"# workload={res['workload']} seed={res['seed']} trace={res['trace']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    print("# environment " + json.dumps(res["environment"], sort_keys=True))
    print("# info " + json.dumps(res["info"], sort_keys=True))
    for failure in res["failures"]:
        print(f"# FAILED {failure}")
    if not res["trace"]:
        units = {**units, **EXTRA_UNITS}
    for key, unit in units.items():
        value = res["metrics"].get(key)
        print(f"{key} {'n/a' if value is None else repr(value)} {unit}")


def result_line(res: dict, units: dict) -> str:
    metrics = {key: {"value": res["metrics"][key], "unit": unit} for key, unit in units.items()}
    return json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest passes, for the smoke test; not a measurement")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "schwarzball", "__init__.py")):
        print(f"error: no schwarzball sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = spec_units(args.trace)
    for res in results:
        print_result(res, units)
    if len(results) == 1:
        print(result_line(results[0], units))
    else:
        print(json.dumps({r["workload"]: json.loads(result_line(r, units)) for r in results}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
