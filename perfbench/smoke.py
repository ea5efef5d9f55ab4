"""Smoke test of the benchmark harness at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

Checks BENCHMARK.json's shape, that the tracer wraps every module binding
of a traced function and restores it, that each workload runs in both modes
with every job passing and exactly the metrics BENCHMARK.json names, that
the traced self times cover the job wall time within 5%, and that the
launcher exits non-zero without a result where there are no sources.  Named
so that pytest does not collect it: the harness is not a tier-1 test.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg: str) -> None:
    raise SystemExit(f"smoke: FAIL {msg}")


def check_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    for name in names + [m["name"] for m in metrics]:
        if not NAME.match(name):
            fail(f"bad name {name!r}")
    if len(set(names)) != len(names) or len({m["name"] for m in metrics}) != len(metrics):
        fail("a name is used twice")
    for m in metrics:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"bad unit or direction in {m}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"bad end-to-end metric {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must be present and have the largest bound")
    return spec


def check_tracer() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from schwarzball import bergman, family, jets, schwarzian
    from tracer import Tracer

    originals = (jets.jet_det, schwarzian.jet_det, family.jet_det, bergman.schwarzian_of)
    tracer = Tracer()
    tracer.install()
    wrapped = (jets.jet_det, schwarzian.jet_det, family.jet_det, bergman.schwarzian_of)
    if any(getattr(w, "__wrapped__", None) is not o for w, o in zip(wrapped, originals)):
        fail("a binding of a traced function was not wrapped")
    tracer.uninstall()
    if (jets.jet_det, schwarzian.jet_det, family.jet_det, bergman.schwarzian_of) != originals:
        fail("uninstall did not restore every binding")


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)


def check_runs(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run_bench(ROOT, "--workload", workload, "--seed", "2", "--seconds", "1",
                             "--trace", str(trace), "--tiny")
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited with {proc.returncode}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} result keys {sorted(line)}")
            if line["correct"] is not True or line["failed"] != 0 or line["attempted"] < 1:
                fail(f"{workload} trace={trace}: {proc.stdout}")
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != wanted:
                fail(f"{workload} trace={trace} metrics differ from BENCHMARK.json")
            values = [v["value"] for v in line["metrics"].values()]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                fail(f"{workload} trace={trace} has a non-finite value")
            if trace:
                record = os.path.join(HERE, "out", f"result-{workload}-seed2-trace1-tiny.json")
                with open(record) as fh:
                    covered = json.load(fh)["info"]["covered_share"]
                if abs(covered - 1) > 0.05:
                    fail(f"{workload}: summed self times cover {covered:.3f} of job wall time")
            print(f"smoke: ok {workload} trace={trace} attempted={line['attempted']}")


def check_bare_directory() -> None:
    """Without the sources beside it, the launcher must fail without a result."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    try:
        proc = run_bench(bare, "--workload", "tensor", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("launcher succeeded or printed a result without sources")
    print("smoke: ok bare directory exits with", proc.returncode)


def main() -> int:
    spec = check_spec()
    check_tracer()
    check_runs(spec)
    check_bare_directory()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
