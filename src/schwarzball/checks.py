"""Residuals of the paper's identities, one function per property.

Each check returns its named residuals, all zero in exact arithmetic, as the
maximum of each over its cases; NaN wins.  The checks that build Schwarzian
tensors or norms take the whole case list, so that the tensors come from
grouped derivative calls, the pointwise norms from one kernel call for both
sides and the sups from one lockstep call; the others take one case, and
:func:`worst` takes their maxima over many.  Every grouped derivative call
goes through ``maps._derivative_chunks``, which holds its highest-order
array to ``maps.ROW_ENTRIES`` entries at every order, so no check sizes
its own calls, and ``maps._derivative_rows`` puts the calls' rows back in
case order, so no check scatters them; :func:`moebius_vanishing` alone
reduces each call as it comes, which bounds its memory.  The ``verify``
suites, the acceptance criteria and the unit tests share these checks, each
with its own samples (drawn by :mod:`.maps`) and tolerances.
"""

from __future__ import annotations

import numpy as np

from .bergman import _lengths, _norm_cases, schwarzian_norm_sups, schwarzian_norms_at
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
    _derivative_chunks,
    _derivative_rows,
    identity_map,
    map_dim,
)
from .schwarzian import (
    MIN_JET_DEGREE,
    _chain_rule,
    _points,
    _tensors,
    canonical_residual,
    pde_residual,
    schwarzian_ofs,
)
from .variational import bounds_report, matrix_A


def _gap(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def _largest(results) -> dict[str, float]:
    """Largest value of each residual over the dicts ``results``; NaN wins."""
    out: dict[str, float] = {}
    for res in results:
        for name, value in res.items():
            out[name] = float(np.maximum(out.get(name, value), value))
    return out


def worst(check, cases) -> dict[str, float]:
    """Largest value of each residual of ``check`` over the argument tuples ``cases``; NaN wins."""
    return _largest(check(*case) for case in cases)


def moebius_vanishing(cases) -> dict[str, float]:
    """Largest entries of S^k and S^0 over the (Moebius map, point or stack of points) cases.

    The tensors are assembled and reduced per derivative call of
    ``maps._derivative_chunks``, whose row cap bounds them, so no more of
    them are held at once than one call builds.
    """
    cases = [(m, np.atleast_2d(_points(m, z))) for m, z in cases]
    chunks = _derivative_chunks(cases, MIN_JET_DEGREE)
    return _largest({"Sk": np.max(np.abs(sk)), "S0": np.max(np.abs(s0))}
                    for sk, s0 in (_tensors(*d[1:]) for _, d in chunks))


def chain_rule(cases) -> dict[str, float]:
    """Largest gaps over the cases (f, g, z) or (f, g, z, moebius) between S(g o f)(z) by the
    finite chain rule and by :func:`schwarzian_of` of the composition, and over the cases with
    a Moebius map, the largest gap ``moebius_post`` between the :func:`schwarzian_of`
    tensors S f(z) and S(moebius o f)(z).

    f(z), Df(z) and D^2f(z) come from one derivative call per map kind, every tensor (of the
    compositions, of f at z, of g at f(z) and of the Moebius postcompositions) from one
    grouped tensor call, and the rule is applied once over all the cases.
    """
    cases = [(f, g, np.asarray(z, dtype=complex).reshape(-1), *rest) for f, g, z, *rest in cases]
    if not cases:
        return {}
    w, d1, d2 = _derivative_rows([(f, z[None]) for f, _, z, *_ in cases], 2, lambda d: d)
    post = [(f, z, moebius) for f, _, z, *rest in cases for moebius in rest]
    count = len(cases)
    tensors = schwarzian_ofs([(CompositionMap((g, f)), z) for f, g, z, *_ in cases]
                             + [(f, z) for f, _, z, *_ in cases]
                             + [(g, wi) for (_, g, *_), wi in zip(cases, w)]
                             + [(CompositionMap((moebius, f)), z) for f, z, moebius in post])
    direct, t_f, t_g = tensors[:count], tensors[count:2 * count], tensors[2 * count:3 * count]
    sk, s0 = _chain_rule(*(np.stack([getattr(t, name) for t in ts])
                           for ts in (t_f, t_g) for name in ("Sk", "S0")), d1, d2)
    out = [{"Sk": _gap(a, t.Sk), "S0": _gap(b, t.S0)} for a, b, t in zip(sk, s0, direct)]
    t_post = [t for case, t in zip(cases, t_f) for _ in case[3:]]
    out += [{"moebius_post": max(_gap(a.Sk, b.Sk), _gap(a.S0, b.S0))}
            for a, b in zip(t_post, tensors[3 * count:])]
    return _largest(out)


def invariance(cases, seed: int = 0) -> dict[str, float]:
    """Largest | ||S(f o sigma)(z)|| - ||S f(sigma(z))|| | over the cases (f, sigma, z) or
    (f, sigma, z, v), sigma an automorphism, and over the cases with a direction v, the
    largest relative change ``isometry`` of its Bergman length under D sigma(z); NaN wins.

    sigma(z) and D sigma(z) come from one derivative call per map kind, the norms of both
    sides from one :func:`schwarzian_norms_at` call over all the cases, and the lengths of
    every v at z and of every D sigma(z) v at sigma(z) from one metric evaluation.
    """
    cases = [(f, sigma, np.asarray(z, dtype=complex).reshape(-1), *rest)
             for f, sigma, z, *rest in cases]
    if not cases:
        return {}
    lhs = _norm_cases([(CompositionMap((f, sigma)), z) for f, sigma, z, *_ in cases])
    value, d1 = _derivative_rows([(sigma, z[None]) for _, sigma, z, *_ in cases], 1, lambda d: d)
    norms = schwarzian_norms_at(lhs + [(f, w) for (f, *_), w in zip(cases, value)], seed=seed)
    lhs, rhs = norms[:len(cases)], norms[len(cases):]
    out = {"norm": float(np.max([abs(a.value - b.value) for a, b in zip(lhs, rhs)]))}
    rows = [i for i, case in enumerate(cases) for _ in case[3:]]
    if rows:
        v = np.array([v for case in cases for v in case[3:]], dtype=complex)
        lengths = _lengths(np.concatenate([np.stack([cases[i][2] for i in rows]), value[rows]]),
                           np.concatenate([v, (d1[rows] @ v[:, :, None])[:, :, 0]]))
        before, after = np.split(lengths, 2)
        out["isometry"] = float(np.max(np.abs(after - before) / np.maximum(before, 1e-30)))
    return out


def canonical_and_pde(cases) -> dict[str, float]:
    """Largest canonical-form, u_0 linear-system and symmetry residuals of S m(z) over the
    (m, z) cases, whose tensors come from one grouped tensor call."""
    cases = list(cases)
    return _largest(
        {
            "canonical": canonical_residual(t),
            "pde": pde_residual(m, t),
            "symmetry": max(_gap(t.Sk, np.swapaxes(t.Sk, 1, 2)), _gap(t.S0, t.S0.T)),
        }
        for (m, _), t in zip(cases, schwarzian_ofs(cases))
    )


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


def linear_invariance(cases, seed: int = 0) -> dict[str, float]:
    """Largest excess of the norm estimate of m's Koebe transform at zeta over m's (0 if
    none) over the (m, zeta) cases; both estimates of every case come from one lockstep sup."""
    maps = [g for m, zeta in cases for g in (m, koebe_map(m, zeta))]
    est = schwarzian_norm_sups(maps, r_max=0.7, shells=4, angular=10, starts=8, seed=seed)
    return _largest({"norm_excess": max(0.0, g.value - f.value)}
                    for f, g in zip(est[::2], est[1::2]))


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
