"""Which norm inputs a cubic extremal search really makes, traced from outside.

    python3 perfbench/traffic.py --n 2 --budget 30 [--alpha 0] [--seed 0]

Runs ``extremal_search`` over the cubic subfamily (what ``schwarzball search
--family cubic`` runs) with the tracer installed, and sorts every
``schwarzian_norm_sup`` call it makes into the Schwarzian-size classes of the
``norm`` workload by the value the call returns.  For each class it prints
the share of calls, the share of norm time, the median call time and the
share of calls that converged.  The ``norm`` workload's class mix
(``workloads.NORM_MIX``) is set from these shares; README gives the figures.
The result also goes to ``perfbench/out/traffic-n<n>-b<budget>-a<alpha>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# upper ends of the near-Moebius and moderate classes, in values of the searched
# norm.  The workload's classes (perturbations 1e-3, 0.1, 0.3) give sups of
# about 0.003, 0.4-0.8 and 7-16 at n = 2, 3; the cuts are the geometric means
# between neighbouring classes.
CLASS_CUTS = (("near_moebius", 0.05), ("moderate", 2.5), ("large", float("inf")))


def size_class(value: float) -> str:
    return next(name for name, cut in CLASS_CUTS if value < cut)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--budget", type=int, default=30)
    ap.add_argument("--alpha", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import schwarzball.cli  # noqa: F401  (loads every module the tracer patches)
    from schwarzball import variational
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        res = variational.extremal_search(variational.cubic_subfamily(args.n), alpha=args.alpha,
                                          budget=args.budget, seed=args.seed)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    calls = [(info[0], info[1], (end - start) / 1e6)
             for _, _, name, start, end, _, info in tracer.spans if name == "bergman.norm_sup"]
    total_ms = sum(ms for _, _, ms in calls)
    classes = {}
    for name, _ in CLASS_CUTS:
        mine = [c for c in calls if size_class(c[0]) == name]
        classes[name] = {
            "calls": len(mine),
            "call_share": len(mine) / len(calls),
            "time_share": sum(ms for _, _, ms in mine) / total_ms,
            "median_ms": statistics.median(ms for _, _, ms in mine) if mine else None,
            "converged_share": sum(1 for _, conv, _ in mine if conv) / len(mine) if mine else None,
        }
    record = {"n": args.n, "budget": args.budget, "alpha": args.alpha, "seed": args.seed,
              "evaluations": res.evaluations, "norm_sup_calls": len(calls),
              "norm_ms": total_ms, "classes": classes,
              "calls_in_order": [[v, conv, ms] for v, conv, ms in calls]}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"traffic-n{args.n}-b{args.budget}-a{args.alpha:g}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"cubic search n={args.n} budget={args.budget} alpha={args.alpha} seed={args.seed}: "
          f"{len(calls)} norm_sup calls, {total_ms / 1e3:.1f} s of norm time")
    print(f"{'class':<13} {'calls':>5} {'call share':>10} {'time share':>10} "
          f"{'median ms':>9} {'converged':>9}")
    for name, c in classes.items():
        med = "-" if c["median_ms"] is None else f"{c['median_ms']:9.1f}"
        conv = "-" if c["converged_share"] is None else f"{c['converged_share']:9.2f}"
        print(f"{name:<13} {c['calls']:5d} {c['call_share']:10.3f} {c['time_share']:10.3f} "
              f"{med:>9} {conv:>9}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
