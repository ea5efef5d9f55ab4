"""The three workloads: seeded inputs, one call into the library per job, and
the correctness check each job's output must pass.

A workload is a fixed list of jobs (one pass) plus a warm-up job.  The seed
only generates inputs; the kinds and counts of jobs in a pass are fixed, so
different seeds give passes of nearly equal cost.  Jobs look their library
function up through the module at call time, so the tracer's wrappers are
the ones called when tracing is on.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from schwarzball import bergman, cli, maps, schwarzian

# probe settings of extremal_search's inner norm estimate
NORM_PROBE = dict(r_max=0.85, shells=4, angular=10, starts=6, refine=1)
# the optimizer's iteration cap; the norm check's pointwise norms use it
# explicitly, so a search that stops its optimizer earlier falls short of them
PROBE_MAX_ITER = 500
PROBE_REPLAY = 1  # directions per shell in the norm check's cheaper floor
NORM_CLASSES = {"near_moebius": 1e-3, "moderate": 0.1}
# jobs of each class per dimension in one norm pass, set from traced cubic
# searches (perfbench/traffic.py; README, "Where the norm mix comes from"):
# at n = 2 and 3 and alpha 0 and 1, a third of their schwarzian_norm_sup calls
# were near-Moebius, the rest moderate, and none reached the large class
# (perturbation 0.3).  21 jobs leave 10 beyond the median, which then falls
# among the moderate n=3 jobs, the middle group in cost.
NORM_MIX = {
    2: {"near_moebius": 3, "moderate": 6},
    3: {"near_moebius": 4, "moderate": 8},
}
# tensor jobs of each map kind per dimension in one pass, weighted toward small n
TENSOR_MIX = {2: 16, 3: 8, 4: 4, 5: 2}
TENSOR_KINDS = ("poly", "moebius", "automorphism", "composition")
# the warm-up job's input does not depend on the seed, so set-up costs the same
WARMUP_SEED = 0
BOUNDS_ROWS = 9 * 41  # bounds --n 2:10 --alpha 0:4 --step 0.1
BOUNDS_HEADER = "n,alpha,C_exact,C_simple,ord_bound,norm_ord_bound,lower_bound"


@dataclass
class Job:
    """One closed-loop request: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is correct


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    warmup: Job
    tail_pct: float  # see README: fixed per workload so it means the same at any speed
    min_passes: int
    temp_files: list[str] = field(default_factory=list)  # deleted when the run ends
    # deterministic end-to-end values read from the outputs of one pass
    summary: Callable[[list], dict] = lambda outputs: {}


# -- input generation ---------------------------------------------------------


def ball_point(n: int, rng: np.random.Generator, r_max: float) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v) * (r_max * rng.random() ** (1.0 / (2 * n)))


def _exponents(n: int, lo: int, hi: int):
    for key in itertools.product(range(hi + 1), repeat=n):
        if lo <= sum(key) <= hi:
            yield key


def normalized_cubic(n: int, rng: np.random.Generator, scale: float) -> maps.PolyMap:
    """z + (degree 2 and 3 terms with coefficients of size ``scale``)."""
    comps = []
    for i in range(n):
        table = {tuple(int(k == i) for k in range(n)): 1.0 + 0j}
        for key in _exponents(n, 2, 3):
            table[key] = scale * complex(rng.standard_normal(), rng.standard_normal())
        comps.append(table)
    return maps.PolyMap(n, comps)


def moebius(n: int, rng: np.random.Generator) -> maps.MoebiusMap:
    """Moebius map whose denominator stays near 1 on |z| <= 0.9."""
    while True:
        a = np.zeros((n + 1, n + 1), dtype=complex)
        a[0, 0] = 1.0
        a[0, 1:] = 0.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(n)
        a[1:, 0] = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        a[1:, 1:] = np.eye(n) + 0.4 * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ) / np.sqrt(n)
        if abs(np.linalg.det(a)) >= 0.05:  # well conditioned grids only
            return maps.MoebiusMap(a)


# -- tensor ---------------------------------------------------------------------


def _max_asym(t) -> float:
    return float(max(np.max(np.abs(t.Sk - np.swapaxes(t.Sk, 1, 2))),
                     np.max(np.abs(t.S0 - t.S0.T))))


def _tensor_job(kind: str, n: int, rng: np.random.Generator) -> Job:
    z = ball_point(n, rng, 0.6)
    inner = None
    if kind == "poly":
        m = normalized_cubic(n, rng, 0.1)
    elif kind == "moebius":
        m = moebius(n, rng)
    else:
        sigma = maps.automorphism_from_center(ball_point(n, rng, 0.5))
        if kind == "automorphism":
            m = sigma
        else:
            outer = normalized_cubic(n, rng, 0.1)
            m, inner = maps.CompositionMap((outer, sigma)), (outer, sigma)
    reference = []

    def run():
        return schwarzian.schwarzian_of(m, z)

    def check(t) -> str | None:
        canon = schwarzian.canonical_residual(t)
        if not canon <= 1e-10:
            return f"canonical residual {canon:.3e}"
        asym = _max_asym(t)
        if not asym <= 1e-10:
            return f"symmetry residual {asym:.3e}"
        if kind in ("moebius", "automorphism") and not t.max_abs() <= 1e-8:
            return f"Moebius-type map has Schwarzian {t.max_abs():.3e}"
        if inner is not None:
            if not reference:  # the chain-rule tensor is computed once per job
                outer, sigma = inner
                jf = maps.map_jet_at(sigma, z, 3)
                w = jf.constants()
                jg = maps.map_jet_at(outer, w, 3)
                reference.append(schwarzian.chain_rule_transform(
                    schwarzian.schwarzian_at(jf, z=z), schwarzian.schwarzian_at(jg, z=w), jf, jg))
            ref = reference[0]
            gap = float(max(np.max(np.abs(t.Sk - ref.Sk)), np.max(np.abs(t.S0 - ref.S0))))
            if not gap <= 1e-9:
                return f"composition differs from the chain rule by {gap:.3e}"
        return None

    return Job(f"{kind}-n{n}", run, check)


def tensor(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    mix = {2: 1, 3: 1} if tiny else TENSOR_MIX
    jobs = [_tensor_job(kind, n, rng) for n, count in mix.items()
            for kind in TENSOR_KINDS for _ in range(count)]
    order = rng.permutation(len(jobs))
    jobs = [jobs[i] for i in order]
    warmup = _tensor_job("poly", 2, np.random.default_rng(WARMUP_SEED))
    return Workload("tensor", jobs, warmup, tail_pct=50.0 if tiny else 99.0,
                    min_passes=1 if tiny else 9)


# -- norm -----------------------------------------------------------------------


def frobenius_bound(m, z: np.ndarray) -> float:
    """||T||_F for the Schwarzian in Bergman-orthonormal coordinates at z.

    With g^T = L L^H, w = L^H v is orthonormal for the input form and L^H u
    for the output form, so T^k_ij = sum (L^H)_kl S^l_ab P_ai P_bj with
    P = L^{-H}.  Cauchy-Schwarz gives |T(w, w)| <= ||T||_F for |w| = 1,
    which bounds the pointwise norm the search estimates.
    """
    t = schwarzian.schwarzian_of(m, z)
    chol = np.linalg.cholesky(bergman.metric_at(z).g.T)
    lh = chol.conj().T
    p = np.linalg.inv(lh)
    tens = np.einsum("kl,lab,ai,bj->kij", lh, t.Sk, p, p)
    return float(np.sqrt(np.sum(np.abs(tens) ** 2)))


def reference_sup(m, n: int, seed: int, full: bool) -> float:
    """The largest pointwise norm over the points ``schwarzian_norm_sup`` must probe.

    The sup probes z = 0, then ``angular`` unit directions per shell drawn from
    ``default_rng(seed)``, then ``refine`` rounds of 16 points around its
    incumbent.  This replays that pattern with the benchmark's own loop and the
    optimizer's iteration cap given explicitly, so a search that probes fewer
    points, or whose optimizer stops short of what the cap reaches, returns
    less than this.  With
    ``full`` false only z = 0 and the first PROBE_REPLAY directions of each
    shell are tried, a cheaper floor that still catches a search that skips
    its grid.
    """
    def at(z):
        return bergman.schwarzian_norm_at(m, z, starts=NORM_PROBE["starts"], seed=seed,
                                          max_iter=PROBE_MAX_ITER).value

    rng = np.random.default_rng(seed)
    r_max = NORM_PROBE["r_max"]
    radii = np.linspace(0.0, r_max, NORM_PROBE["shells"])
    best_z = np.zeros(n, dtype=complex)
    best = at(best_z)
    for radius in radii[1:]:
        for i in range(NORM_PROBE["angular"]):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            if full or i < PROBE_REPLAY:
                value = at(radius * v)
                if value > best:
                    best, best_z = value, radius * v
    if not full:
        return best
    rho = 0.5 * r_max / (len(radii) - 1)
    for _ in range(NORM_PROBE["refine"]):
        center = best_z
        for _ in range(16):
            step = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            z = center + rho * step / np.sqrt(2 * n)
            norm_z = float(np.linalg.norm(z))
            if norm_z > r_max:
                z = z * (r_max / norm_z)
            value = at(z)
            if value > best:
                best, best_z = value, z
        rho *= 0.4
    return best


def _norm_job(cls: str, n: int, rng: np.random.Generator, full: bool) -> Job:
    m = normalized_cubic(n, rng, NORM_CLASSES[cls])
    search_seed = int(rng.integers(0, 2**31))
    floor = []  # reference_sup of this job, computed once

    def run():
        return bergman.schwarzian_norm_sup(m, seed=search_seed, **NORM_PROBE)

    def check(est) -> str | None:
        if not (math.isfinite(est.value) and est.value >= 0.0):
            return f"norm estimate {est.value!r} is not a finite non-negative number"
        bound = frobenius_bound(m, est.arg_z)
        if not est.value <= bound * (1 + 1e-9) + 1e-12:
            return f"norm estimate {est.value:.6g} exceeds the bound {bound:.6g}"
        if not floor:
            floor.append(reference_sup(m, n, search_seed, full))
        if not est.value >= floor[0] * (1 - 1e-9):
            return (f"norm estimate {est.value:.6g} is below {floor[0]:.6g}, the largest "
                    "pointwise norm at the points the search must probe")
        return None

    return Job(f"{cls}-n{n}", run, check)


def norm(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    mix = {2: {"moderate": 1}} if tiny else NORM_MIX
    # the full reference search costs as much as the job, so it checks the
    # first job of each class; every other job gets the cheaper floor
    jobs, seen = [], set()
    for n, classes in mix.items():
        for cls, count in classes.items():
            for _ in range(count):
                jobs.append(_norm_job(cls, n, rng, full=cls not in seen))
                seen.add(cls)
    order = rng.permutation(len(jobs))
    jobs = [jobs[i] for i in order]
    warmup = _norm_job("moderate", 2, np.random.default_rng(WARMUP_SEED), full=False)
    return Workload("norm", jobs, warmup, tail_pct=50.0, min_passes=1, summary=_norm_summary)


def _norm_summary(estimates: list) -> dict:
    return {
        "sup_mean": sum(e.value for e in estimates) / len(estimates),
        "unconverged_frac": sum(1 for e in estimates if not e.converged) / len(estimates),
    }


# -- cli ------------------------------------------------------------------------


def _cli_job(argv: list[str]) -> Job:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        if argv[0] == "bounds":
            lines = text.splitlines() or [""]
            if lines[0] != BOUNDS_HEADER or len(lines) != BOUNDS_ROWS + 1:
                return f"bounds CSV has header {lines[0]!r} and {len(lines) - 1} lines after it"
            return None
        try:
            passed = json.loads(text)["passed"]
        except (ValueError, KeyError) as exc:
            return f"unreadable report: {exc!r}"
        return None if passed is True else "report has passed != true"

    label = argv[0] if argv[0] != "verify" else f"verify-{argv[1]}-n{argv[3]}"
    return Job(label, run, check)


def cli_session(seed: int, out_dir: str, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    s = str(seed)
    map_path = os.path.join(out_dir, f"cli-map-{seed}-{os.getpid()}.json")
    with open(map_path, "w") as fh:
        json.dump(cli.map_to_payload(normalized_cubic(2, rng, 0.1)), fh)
    zeta = ",".join(str(complex(c)) for c in ball_point(2, rng, 0.3))
    suites = ("pde", "lemma31") if tiny else cli.SUITES
    argvs = [["verify", suite, "--n", "2", "--seed", s] for suite in suites]
    if not tiny:
        argvs += [
            ["verify", "invariance", "--n", "3", "--seed", s],
            ["search", "--family", "moebius", "--n", "2", "--alpha", "0", "--budget", "24",
             "--seed", s],
        ]
    argvs += [
        ["analyze", map_path, "--ops", "schwarzian,norm,order,koebe,extremal",
         "--zeta", zeta, "--seed", s],
        ["bounds", "--n", "2:10", "--alpha", "0:4", "--step", "0.1", "--format", "csv"],
    ]
    warmup = _cli_job(["verify", "pde", "--n", "2", "--seed", str(WARMUP_SEED)])
    return Workload("cli", [_cli_job(a) for a in argvs], warmup, tail_pct=50.0,
                    min_passes=1 if tiny else 2, temp_files=[map_path])


def build(name: str, seed: int, out_dir: str, tiny: bool = False) -> Workload:
    if name == "tensor":
        return tensor(seed, tiny)
    if name == "norm":
        return norm(seed, tiny)
    if name == "cli":
        return cli_session(seed, out_dir, tiny)
    raise ValueError(f"unknown workload {name!r}")
