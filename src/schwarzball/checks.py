"""Residuals of the paper's identities, one function per property.

Each check takes one sampled case and returns its named residuals, all zero
in exact arithmetic; :func:`worst` takes the maximum of each over many cases.
:func:`invariance` takes the whole case list itself, so that its pointwise
norms are solved in one kernel call per side, and returns the same maxima.
The ``verify`` suites, the acceptance criteria and the unit tests share these
checks, each with its own samples (drawn by :mod:`.maps`) and tolerances.
"""

from __future__ import annotations

import numpy as np

from .bergman import bergman_norm, schwarzian_norm_sup, schwarzian_norms_at
from .family import (
    grad_jacobian,
    jet_grad_jacobian,
    koebe_map,
    norm_order_functional,
    normalization_residual,
    trace_order_functional,
)
from .maps import (
    CompositionMap,
    MapSpec,
    _derivatives,
    identity_map,
    map_dim,
    map_eval,
    map_jet_at,
)
from .schwarzian import (
    MIN_JET_DEGREE,
    canonical_residual,
    chain_rule_transform,
    pde_residual,
    schwarzian_at,
    schwarzian_of,
)
from .variational import bounds_report, matrix_A


def _gap(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def worst(check, cases) -> dict[str, float]:
    """Largest value of each residual of ``check`` over the argument tuples ``cases``; NaN wins."""
    out: dict[str, float] = {}
    for case in cases:
        for name, value in check(*case).items():
            out[name] = float(np.maximum(out.get(name, value), value))
    return out


def moebius_vanishing(m: MapSpec, z) -> dict[str, float]:
    """Largest entries of S^k and S^0 of a Moebius map at ``z``, a point or a stack of them."""
    t = schwarzian_of(m, z)
    return {"Sk": float(np.max(np.abs(t.Sk))), "S0": float(np.max(np.abs(t.S0)))}


def chain_rule(f: MapSpec, g: MapSpec, z, moebius: MapSpec | None = None) -> dict[str, float]:
    """Gaps between S(g o f)(z) by the jet chain rule and by :func:`schwarzian_of` of the
    composition, and with a Moebius map, the gap ``moebius_post`` between the
    :func:`schwarzian_of` tensors S f(z) and S(moebius o f)(z)."""
    jf = map_jet_at(f, z, MIN_JET_DEGREE)
    w = jf.constants()
    jg = map_jet_at(g, w, MIN_JET_DEGREE)
    rule = chain_rule_transform(schwarzian_at(jf, z=z), schwarzian_at(jg, z=w), jf, jg)
    direct = schwarzian_of(CompositionMap((g, f)), z)
    out = {"Sk": _gap(rule.Sk, direct.Sk), "S0": _gap(rule.S0, direct.S0)}
    if moebius is not None:
        t_f, t_mf = schwarzian_of(f, z), schwarzian_of(CompositionMap((moebius, f)), z)
        out["moebius_post"] = max(_gap(t_f.Sk, t_mf.Sk), _gap(t_f.S0, t_mf.S0))
    return out


def invariance(cases, seed: int = 0) -> dict[str, float]:
    """Largest | ||S(f o sigma)(z)|| - ||S f(sigma(z))|| | over the cases (f, sigma, z) or
    (f, sigma, z, v), sigma an automorphism, and over the cases with a direction v, the
    largest relative change ``isometry`` of its length under D sigma(z); NaN wins.

    Each side's norms come from one :func:`schwarzian_norms_at` call over all the cases.
    """
    cases = [(f, sigma, np.asarray(z, dtype=complex).reshape(-1), *rest)
             for f, sigma, z, *rest in cases]
    if not cases:
        return {}
    lhs = schwarzian_norms_at([(CompositionMap((f, sigma)), z) for f, sigma, z, *_ in cases],
                              seed=seed)
    rhs = schwarzian_norms_at([(f, map_eval(sigma, z)) for f, sigma, z, *_ in cases], seed=seed)
    out = {"norm": float(np.max([abs(a.value - b.value) for a, b in zip(lhs, rhs)]))}
    isometry = [_isometry(sigma, z, v) for _, sigma, z, *rest in cases for v in rest]
    if isometry:
        out["isometry"] = float(np.max(isometry))
    return out


def _isometry(sigma: MapSpec, z: np.ndarray, v) -> float:
    """Relative change of the Bergman length of v under D sigma(z)."""
    value, d1 = (a[0] for a in _derivatives(sigma, z[None], 1))
    before = bergman_norm(z, v)
    after = bergman_norm(value, d1 @ v)
    return abs(after - before) / max(before, 1e-30)


def canonical_and_pde(m: MapSpec, z) -> dict[str, float]:
    """Canonical-form, u_0 linear-system and symmetry residuals of S m(z)."""
    t = schwarzian_of(m, z)
    return {
        "canonical": canonical_residual(t),
        "pde": pde_residual(m, t),
        "symmetry": max(_gap(t.Sk, np.swapaxes(t.Sk, 1, 2)), _gap(t.S0, t.S0.T)),
    }


def first_variation(m: MapSpec) -> dict[str, float]:
    """Asymmetry of the matrix A of a normalized map, and its extremality residual."""
    rep = matrix_A(m)
    return {"symmetry": _gap(rep.A, rep.A.T), "extremal": rep.extremal_residual}


def koebe(m: MapSpec, zeta, seed: int = 0) -> dict[str, float]:
    """max(|G(0)|, |DG(0) - Id|) of the Koebe transform G of m at zeta; the gap
    ``trace_gradient`` between 2 trace order, read off the trace form
    c_i = sum_j d^2 g_j/dz_i dz_j(0), and the length of grad JG(0) read off the
    Jacobian-determinant jet, which agree for a normalized map; and the observed
    (not a residual) ``trace_ratio``: trace order / (n norm order), left out where
    the norm order is at most 1e-12 (a NaN norm order gives a NaN ratio)."""
    g = koebe_map(m, zeta)
    trace = trace_order_functional(g)
    norm_ord = norm_order_functional(g, seed=seed)
    out = {
        "normalization": normalization_residual(g),
        "trace_gradient": abs(2.0 * trace - float(np.linalg.norm(jet_grad_jacobian(g)))),
    }
    if not norm_ord <= 1e-12:
        out["trace_ratio"] = trace / (map_dim(g) * norm_ord)
    return out


def identity_koebe(zeta) -> dict[str, float]:
    """|grad JG(0) + (n+1) conj(zeta)| for the Koebe transform G of the identity."""
    n = len(zeta)
    g = koebe_map(identity_map(n), zeta)
    return {"gradient": _gap(grad_jacobian(g), -(n + 1) * np.conj(zeta))}


def linear_invariance(m: MapSpec, zeta, seed: int = 0) -> dict[str, float]:
    """How far the norm estimate of m's Koebe transform at zeta exceeds m's (0 if not)."""
    probe = dict(r_max=0.7, shells=4, angular=10, starts=8, seed=seed)
    est_f = schwarzian_norm_sup(m, **probe)
    est_g = schwarzian_norm_sup(koebe_map(m, zeta), **probe)
    return {"norm_excess": max(0.0, est_g.value - est_f.value)}


def bounds_grid(ns, alphas) -> dict[str, float]:
    """Largest C_exact - C_simple and lower_bound - norm_ord_bound on the grid, and
    largest fall of a bound as alpha grows."""
    excess, lower, fall = [], [], [0.0]
    for n in ns:
        rows = [bounds_report(n, alpha) for alpha in alphas]
        excess += [br.C_exact - br.C_simple for br in rows]
        lower += [br.lower_bound - br.norm_ord_bound for br in rows]
        fall += [max(a.ord_bound - b.ord_bound, a.norm_ord_bound - b.norm_ord_bound)
                 for a, b in zip(rows, rows[1:])]
    return {"C_excess": float(np.max(excess)), "lower_excess": float(np.max(lower)),
            "fall": float(np.max(fall))}
