"""One workload in one process: set up, run closed-loop passes, check outputs.

Started by ``run.py`` with BLAS/OpenMP threads already pinned and ``src`` on
``PYTHONPATH``; prints one JSON object as its last line of standard output.
Set-up time runs from the first statement of this file through imports,
input generation and one untimed warm-up job.

Besides its wall-clock latency, every job also gets a latency in ``ref``
units: its wall time divided by the mean time of a fixed reference kernel run
just before and just after it (at most every REF_EVERY_S of job time).  The
2-core machine this benchmark was written on changes speed by up to 1.5x
within seconds, and the reference kernel slows with it, so ``ref`` latencies
keep the program's cost and drop most of the machine's drift.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, coverage, layer_metrics  # noqa: E402

TAIL_BEYOND = 10  # samples a tail percentile must have beyond it
REF_LOOP = 20_000  # iterations of the reference kernel, about 2 ms
REF_EVERY_S = 0.05  # job time between two reference samples


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python loop; it calls no library code."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def percentile(sorted_vals: list[float], pct: float) -> tuple[float, int]:
    """Linear-interpolated percentile and the number of samples above it."""
    pos = pct / 100.0 * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    value = sorted_vals[lo] + (pos - lo) * (sorted_vals[hi] - sorted_vals[lo])
    return value, len(sorted_vals) - 1 - lo


def measure(wl, seconds: float, min_passes: int, tracer: Tracer | None = None) -> dict:
    """Run whole passes until another would overrun ``seconds`` of wall time."""
    latencies, ref_latencies, labels, failures, outputs = [], [], [], [], []
    busy = 0.0
    passes = 0
    last_ref = reference_kernel()
    pending = []  # wall latencies of the jobs since the last reference sample
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for j, job in enumerate(wl.jobs):
            if tracer is not None:
                tracer.job = passes * len(wl.jobs) + j
                tracer.enabled = True
            t = time.perf_counter()
            try:
                out, error = job.run(), None
            except Exception as exc:  # a failed job is counted, not fatal
                out, error = None, f"raised {exc!r}"
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.enabled = False
            busy += dt
            latencies.append(dt)
            labels.append(job.label)
            pending.append(dt)
            if sum(pending) >= REF_EVERY_S:
                ref = reference_kernel()
                ref_latencies += [x / (0.5 * (last_ref + ref)) for x in pending]
                last_ref, pending = ref, []
            if error is None:
                try:
                    error = job.check(out)
                except Exception as exc:  # an output the check cannot read is wrong
                    error = f"check raised {exc!r}"
            if error is not None:
                failures.append(f"{job.label}: {error}")
            if passes == 0:
                outputs.append(out)
        passes += 1
        now = time.perf_counter()
        if passes >= min_passes and now - started + (now - pass_start) > seconds:
            break
    if pending:
        ref = reference_kernel()
        ref_latencies += [x / (0.5 * (last_ref + ref)) for x in pending]
    attempted = len(latencies)
    passed = attempted - len(failures)
    return {
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        "latencies": latencies, "ref_latencies": ref_latencies, "labels": labels,
        "busy_s": busy, "passes": passes, "jobs_per_s": passed / busy,
        "jobs_per_kref": 1e3 * passed / sum(ref_latencies),
        "outputs": outputs if not failures else None,
    }


def end_to_end(wl, run: dict) -> tuple[dict, dict]:
    lat_ms = sorted(1e3 * x for x in run["latencies"])
    lat_ref = sorted(run["ref_latencies"])
    tail, beyond = percentile(lat_ms, wl.tail_pct)
    metrics = {
        "jobs_per_kref": run["jobs_per_kref"],
        "job_p50_ref": percentile(lat_ref, 50.0)[0],
        "job_tail_ref": percentile(lat_ref, wl.tail_pct)[0],
        "jobs_per_s": run["jobs_per_s"],
        "job_p50_ms": percentile(lat_ms, 50.0)[0],
        "job_tail_ms": tail,
        "error_frac": run["failed"] / run["attempted"],
    }
    if run["outputs"] is not None:
        metrics.update(wl.summary(run["outputs"]))
    by_label: dict[str, list[float]] = {}
    for label, dt in zip(run["labels"], run["latencies"]):
        by_label.setdefault(label, []).append(1e3 * dt)
    info = {
        "tail_pct": wl.tail_pct, "samples": len(lat_ms), "tail_beyond": beyond,
        "tail_ok": beyond >= TAIL_BEYOND, "passes": run["passes"],
        "jobs_per_pass": len(wl.jobs), "busy_s": run["busy_s"],
        "label_median_ms": {k: statistics.median(v) for k, v in sorted(by_label.items())},
    }
    return metrics, info


def environment() -> dict:
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), **{var: os.environ.get(var) for var in threads},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("tensor", "norm", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    wl = workloads.build(args.workload, args.seed, args.out_dir, args.tiny)
    try:
        out = wl.warmup.run()
        error = wl.warmup.check(out)
        if error is not None:
            raise SystemExit(f"warm-up job {wl.warmup.label} failed its check: {error}")
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if not args.trace:
            run = measure(wl, args.seconds, wl.min_passes)
            metrics, info = end_to_end(wl, run)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics.update(setup_s=setup_s, peak_rss_mb=rss_kb / 1024.0)
        else:
            plain = measure(wl, args.seconds / 2, 1)
            tracer = Tracer()
            tracer.install()
            traced = measure(wl, args.seconds / 2, 1, tracer)
            tracer.uninstall()
            metrics = layer_metrics(tracer.spans, traced["passes"], range(len(wl.jobs)))
            metrics["trace.jobs_per_s_delta"] = plain["jobs_per_s"] - traced["jobs_per_s"]
            # the share lost to tracing, read from the drift-corrected throughput
            metrics["trace.overhead_frac"] = 1.0 - traced["jobs_per_kref"] / plain["jobs_per_kref"]
            covered_ns, entry_self_ns = coverage(tracer.spans)
            metrics["trace.entry_self_share"] = entry_self_ns / 1e9 / traced["busy_s"]
            span_path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(span_path)
            info = {"passes_untraced": plain["passes"], "passes_traced": traced["passes"],
                    "jobs_per_pass": len(wl.jobs), "job_labels": [j.label for j in wl.jobs],
                    "spans": len(tracer.spans), "spans_file": os.path.relpath(span_path),
                    "covered_share": covered_ns / 1e9 / traced["busy_s"]}
            run = {k: plain[k] + traced[k] for k in ("attempted", "failed")}
            run["failures"] = (plain["failures"] + traced["failures"])[:20]
    finally:
        for path in wl.temp_files:
            os.remove(path)
    print(json.dumps({"metrics": metrics, "info": info, "environment": environment(),
                      "attempted": run["attempted"], "failed": run["failed"],
                      "failures": run["failures"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
