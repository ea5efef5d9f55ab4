"""Spans around calls into schwarzball's layers, recorded from outside.

The library imports its functions by name (``from .jets import jet_det``), so
one function has a binding in every module that imports it:
``schwarzian.jet_det``, ``family.jet_det`` and ``jets.jet_det`` are three
names for one object.  :class:`Tracer` replaces every binding of each traced
function with one wrapper, so a call is seen whichever module makes it.
Spans stay in memory (name, start, end, parent, job) until the run ends; self
times, call counts and the derived ratios are computed from them afterwards.
"""

from __future__ import annotations

import json
import sys
import time

# (span name, module, function).  The names are the per-layer metric
# prefixes; ``maps.jet_at`` is split by map kind when the span opens, and both
# order functionals report as ``family.order``.
TRACED = (
    ("jets.det", "jets", "jet_det"),
    ("jets.jacobian", "jets", "jet_jacobian"),
    ("jets.compose", "jets", "jet_compose"),
    ("jets.reciprocal", "jets", "jet_reciprocal"),
    ("jets.pow", "jets", "jet_pow"),
    ("maps.jet_at", "maps", "map_jet_at"),
    ("maps.eval", "maps", "map_eval"),
    ("schwarzian.of", "schwarzian", "schwarzian_of"),
    ("schwarzian.at", "schwarzian", "schwarzian_at"),
    ("schwarzian.chain_rule", "schwarzian", "chain_rule_transform"),
    ("schwarzian.pde_residual", "schwarzian", "pde_residual"),
    ("bergman.quad_norm", "bergman", "max_quadratic_image_norm"),
    ("bergman.norm_at", "bergman", "schwarzian_norm_at"),
    ("bergman.norm_sup", "bergman", "schwarzian_norm_sup"),
    ("family.koebe", "family", "koebe_transform"),
    ("family.order", "family", "trace_order_functional"),
    ("family.order", "family", "norm_order_functional"),
    ("variational.search", "variational", "extremal_search"),
    ("variational.matrix_A", "variational", "matrix_A"),
    ("cli.command", "cli", "main"),
)

JET_AT_KINDS = {
    "PolyMap": "poly",
    "MoebiusMap": "moebius",
    "BallAutomorphism": "automorphism",
    "CompositionMap": "composition",
}

# every span name a report covers, in report order
SPAN_NAMES = (
    "jets.det", "jets.jacobian", "jets.compose", "jets.reciprocal", "jets.pow",
    "maps.jet_at.poly", "maps.jet_at.moebius", "maps.jet_at.automorphism",
    "maps.jet_at.composition", "maps.eval",
    "schwarzian.of", "schwarzian.at", "schwarzian.chain_rule", "schwarzian.pde_residual",
    "bergman.quad_norm", "bergman.norm_at", "bergman.norm_sup",
    "family.koebe", "family.order",
    "variational.search", "variational.matrix_A",
    "cli.command",
)


def _span_info(name: str, result):
    """The part of a return value a derived ratio needs, or None."""
    if name == "bergman.quad_norm":
        return bool(result[2])
    if name == "bergman.norm_sup":
        return [float(result.value), bool(result.converged)]
    if name == "variational.search":
        return int(result.evaluations)
    return None


class Tracer:
    """Wraps the traced functions; records one span per call while enabled."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns, job, info)
        self.enabled = False
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        by_kind = name == "maps.jet_at"

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name
            if by_kind:
                cls = type(args[0]).__name__
                label = f"maps.jet_at.{JET_AT_KINDS.get(cls, cls.lower())}"
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the id so children get higher ones
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, label, start, end, self.job,
                              _span_info(label, result) if result is not None else None)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced function in the loaded package."""
        pkg = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "schwarzball" or k.startswith("schwarzball."))]
        for name, mod_name, attr in TRACED:
            fn = getattr(sys.modules.get(f"schwarzball.{mod_name}"), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            for mod in pkg:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        keys = ("id", "parent", "name", "start_ns", "end_ns", "job", "info")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans: list[tuple], passes: int, first_pass_jobs: range) -> dict:
    """Per-layer metrics from the spans of ``passes`` identical passes.

    ``.self_ms`` is self time per pass: a span's duration minus the time its
    direct children cover, summed by name and divided by ``passes``.
    Counts and ratios come from the jobs of the first pass only, so they are
    exact and repeat for a fixed seed however many passes a run makes.
    """
    child_ns = [0] * len(spans)
    for sid, parent, _, start, end, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    infos: dict[str, list] = {}
    points_in_sups = 0
    for sid, parent, name, start, end, job, info in spans:
        self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[sid])
        if job in first_pass_jobs:
            calls[name] = calls.get(name, 0) + 1
            if info is not None:
                infos.setdefault(name, []).append(info)
            if name == "bergman.norm_at" and parent >= 0 and spans[parent][2] == "bergman.norm_sup":
                points_in_sups += 1
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6 / passes
    quad = infos.get("bergman.quad_norm", [])
    sups = infos.get("bergman.norm_sup", [])
    out["bergman.quad_norm.converged_frac"] = sum(quad) / len(quad) if quad else 0.0
    out["bergman.points_per_sup"] = points_in_sups / len(sups) if sups else 0.0
    out["bergman.norm_sup.value_mean"] = sum(v for v, _ in sups) / len(sups) if sups else 0.0
    out["bergman.norm_sup.unconverged_frac"] = (
        sum(1 for _, c in sups if not c) / len(sups) if sups else 0.0
    )
    out["variational.objective_evals"] = sum(infos.get("variational.search", []))
    return out


def coverage(spans: list[tuple]) -> tuple[int, int]:
    """Summed duration of the spans without a parent, and their own self time.

    Every job is one call into a traced function, so the first is the job
    time the spans cover.  The second is the part of it that no traced
    function below the job's entry point took.
    """
    child_ns = [0] * len(spans)
    for _, parent, _, start, end, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    roots = [(sid, end - start) for sid, parent, _, start, end, _, _ in spans if parent < 0]
    return sum(d for _, d in roots), sum(d - child_ns[sid] for sid, d in roots)
