"""Exact map classes on the unit ball, their derivatives and their jet expansions.

Three kinds of locally biholomorphic maps are supported: polynomial maps,
Moebius transformations (ratios of affine forms), and composition chains of
the above.  Automorphisms of the unit ball, (Az + B)/(Cz + D) in block form,
are the Moebius maps with grid [[D, C], [B, A]]; :func:`automorphism_validate`
reads the blocks back from the grid.  The automorphism moving the origin to
zeta, with s = sqrt(1 - |zeta|^2), is the single closed form

    [[1, zeta^H], [zeta, s Id + zeta zeta^H / (1 + s)]] / s.

Values and derivatives of order <= 3 at a stack of points come from
:func:`_derivatives`, one batched route per map kind with a leading point
axis: a polynomial map weights the values of its monomials by its term
coefficients (:func:`_weighted_terms`), built once by ``PolyMap._stacked``,
the one builder of the package's own polynomial maps, or by the validating
``PolyMap(n, tables)`` for tables from outside, and gathers them in the
derivative-array layout of :func:`.jets._derivative_positions`, which the
jet route's :meth:`Jet.derivatives` reads too; a Moebius map uses the
closed form of F = L / l_0; a composition chain applies the order-3
multivariate Faa di Bruno formula part by part.  Every production
derivative reads these arrays: :func:`map_eval`, ``schwarzian_of``, the
normalization, Koebe transforms and order functionals of :mod:`.family`,
and the variational diagnostics.  Every row is computed by stacked matrix
products and elementwise arithmetic only, so a point gives the same bits
alone as in any batch.  Many maps share one call when their kinds match
(:func:`_stack_key`): :func:`_derivative_chunks` gives each point the
parameters of its own map, stacked per point in C-contiguous arrays (the
term coefficients of polynomial maps of one monomial plan, the grids of
Moebius maps of one dimension, and chains part by part), and a row again
takes the bits of its map's own call.  It also sizes its calls, for every
caller and at every order: a call's highest-order array holds at most
``ROW_ENTRIES`` entries.  :func:`_derivative_rows` puts what a caller
assembles from each call back in case order, so no caller scatters rows.

Every map can also be expanded into an exact Taylor jet about any admissible
center, to any degree, by :func:`map_jet_at`; rational denominators are
expanded by a truncated geometric series, so no numerical differentiation is
involved.  The jet route is an independent oracle only: ``pde_residual``,
the direct Hessian of ``lemma31_check`` and ``family.jet_grad_jacobian``
read it, through the Jacobian-determinant jet.  A polynomial map is recentered by
putting the factors zeta_k + h_k into its components with the substitution
routine of :mod:`.jets`, which builds each monomial (zeta + h)^e of degree
>= 2 once and shares it across the components; a polynomial is not
truncated, so this is exact for any zeta.  A composition step composes all
outer components with the inner jet in one :func:`jet_compose` call, which
uses the same routine.

Both routes raise VanishingDenominatorError where a Moebius denominator
vanishes, relative to the largest entry of its grid, and check that DF of
every part and of the whole map is nonsingular relative to its own scale
(:func:`check_nonsingular`).  Moebius grids are tested the same way: a grid
and its scalar multiples are one map.
"""

from __future__ import annotations

import cmath
import functools
from itertools import compress
from math import comb
from typing import Sequence, Union

import numpy as np

from .errors import (
    DimensionError,
    MapSpecError,
    OutsideDomainError,
    SingularDifferentialError,
    VanishingDenominatorError,
)
from .jets import (
    MAX_VARS,
    Jet,
    JetVector,
    _derivative_positions,
    _substitute,
    jet_compose,
    jet_reciprocal,
    multi_indices,
)

SINGULAR_TOL = 1e-12  # on sigma_min(DF) / sigma_max(DF)
# entries of the highest-order array (rows times n^(order + 1)) of one call of
# _derivative_chunks: 2^14 complex entries are 256 KiB; at order 3, 1024 rows
# at n = 2, 202 at n = 3 and 4 at n = 8 (a verify moebius map has 20 points)
ROW_ENTRIES = 1 << 14


class PolyMap:
    """Polynomial map with exact coefficient tables.

    ``components[l]`` maps exponent tuples of length ``n`` to complex
    coefficients of component ``l``.  The constructor validates tables from outside
    and keeps their order; the package's own maps come from :meth:`_stacked`.
    """

    def __init__(self, n: int, components: Sequence[dict]):
        if len(components) != n:
            raise DimensionError("polynomial map needs one component per variable")
        self.n = int(n)
        comps = []
        for comp in components:
            table = {}
            for key, val in comp.items():
                key = tuple(map(int, key))
                if len(key) != n or min(key, default=0) < 0:
                    raise DimensionError(f"bad exponent tuple {key} for n={n}")
                val = complex(val)
                if not cmath.isfinite(val):
                    raise MapSpecError(f"non-finite coefficient {val} at {key}")
                if val != 0:
                    table[key] = table.get(key, 0j) + val
            comps.append(table)
        self.components = tuple(comps)
        used = tuple(sorted({key for comp in comps for key in comp}))
        self._plan = _monomial_plan(self.n, used)
        vals = np.array([[comp.get(key, 0j) for comp in comps] for key in used]).reshape(-1, n)
        self._coeffs = _weighted_terms(self._plan, vals)

    @classmethod
    def _stacked(cls, n: int, keys: Sequence[tuple], coeffs: np.ndarray) -> list["PolyMap"]:
        """The maps of a stack (k, n, len(keys)) of complex coefficients: component l of
        map j has the term coeffs[j, l, s] z^keys[s] for each nonzero one, in key order.

        The one builder of the package's own polynomial maps: the same maps as
        ``PolyMap(n, tables)`` of those tables, bit for bit, the values added to 0j
        as ``__init__`` adds them and a non-finite one refused with MapSpecError.
        The keys are trusted (n non-negative ints each, no repeats); the maps that
        use one set of keys share one :func:`_monomial_plan` and one weighting.
        """
        vals = 0j + coeffs
        if not np.isfinite(vals).all():
            j, l, s = np.argwhere(~np.isfinite(vals))[0]
            raise MapSpecError(f"non-finite coefficient {complex(vals[j, l, s])} at {keys[s]}")
        nonzero = vals != 0
        rows, flags = vals.tolist(), nonzero.tolist()
        maps = [cls.__new__(cls) for _ in rows]
        for m, own, keep in zip(maps, rows, flags):
            m.n = n
            m.components = tuple(dict(compress(zip(keys, row), mask)) for row, mask in zip(own, keep))
        groups: dict = {}  # the maps of each set of keys in use
        for j, pattern in enumerate(map(tuple, np.any(nonzero, axis=1).tolist())):
            groups.setdefault(pattern, []).append(j)
        for pattern, members in groups.items():
            cols = sorted(compress(range(len(keys)), pattern), key=keys.__getitem__)
            plan = _monomial_plan(n, tuple(keys[s] for s in cols))
            weighted = _weighted_terms(plan, np.swapaxes(vals[members][:, :, cols], 1, 2))
            for j, own in zip(members, weighted):
                maps[j]._plan, maps[j]._coeffs = plan, own
        return maps


class MoebiusMap:
    """Moebius transformation z -> (l_1/l_0, ..., l_n/l_0).

    Row ``i`` of the (n+1)x(n+1) grid ``a`` holds the affine form
    l_i(z) = a[i, 0] + sum_j a[i, j] z_j.  The grid must be nonsingular.
    """

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
            raise DimensionError("Moebius grid must be square of size n+1 >= 2")
        if not _sigma_ratio(a) > SINGULAR_TOL:
            raise MapSpecError("Moebius coefficient grid is singular")
        self.a = a
        self.n = a.shape[0] - 1

    @classmethod
    def _checked(cls, grids: np.ndarray) -> list["MoebiusMap"]:
        """The maps of a stack of complex grids (k, n+1, n+1), checked nonsingular by one
        stacked ``_sigma_ratio`` call; the same maps as ``MoebiusMap(a)`` per grid."""
        if not np.all(_sigma_ratio(grids) > SINGULAR_TOL):
            raise MapSpecError("Moebius coefficient grid is singular")
        maps = [cls.__new__(cls) for _ in grids]
        for m, a in zip(maps, grids):
            m.a, m.n = a, a.shape[0] - 1
        return maps


class CompositionMap:
    """Composition chain ``maps[0] o maps[1] o ... o maps[-1]``.

    The last entry is applied first.
    """

    def __init__(self, maps: Sequence["MapSpec"]):
        maps = tuple(maps)
        if not maps:
            raise DimensionError("empty composition chain")
        n = map_dim(maps[0])
        for m in maps:
            if map_dim(m) != n:
                raise DimensionError("composition chain mixes dimensions")
        self.maps = maps
        self.n = n


MapSpec = Union[PolyMap, MoebiusMap, CompositionMap]


def map_dim(m: MapSpec) -> int:
    if isinstance(m, (PolyMap, MoebiusMap, CompositionMap)):
        return m.n
    raise DimensionError(f"not a map spec: {type(m).__name__}")


def identity_map(n: int) -> PolyMap:
    return affine_map(np.eye(n))


def affine_map(matrix: np.ndarray, offset: Sequence[complex] | None = None) -> PolyMap:
    """Polynomial map z -> matrix @ z + offset; component i holds its constant term
    first, then its linear terms in variable order."""
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise DimensionError("affine matrix must be square")
    offset = np.zeros(n, dtype=complex) if offset is None else np.asarray(offset, dtype=complex)
    if offset.shape != (n,):
        raise DimensionError(f"affine offset of shape {offset.shape} does not match dimension {n}")
    keys = ((0,) * n,) + _near_identity_keys(n, 1)
    return PolyMap._stacked(n, keys, np.column_stack((offset, matrix))[None])[0]


@functools.lru_cache(maxsize=None)
def _near_identity_keys(n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """The exponents of a polynomial map near the identity: the linear keys e_1, ..., e_n,
    then the monomials of degree 2..``degree`` in :func:`multi_indices` order."""
    linear = tuple(tuple(int(i == l) for i in range(n)) for l in range(n))
    return linear + tuple(e for e in multi_indices(n, degree) if sum(e) >= 2)


def moebius_pole(c: Sequence[complex]) -> MoebiusMap:
    """The normalized Moebius map z -> z / (1 - <z, c>), grid [[1, -c^H], [0, Id]].

    For |c| = 1 its polar set touches the sphere at c.  The row -c^H is
    subtracted from an identity grid, so every zero entry is +0.
    """
    c = np.asarray(c, dtype=complex).reshape(-1)
    a = np.eye(len(c) + 1, dtype=complex)
    a[0, 1:] -= np.conj(c)
    return MoebiusMap(a)


def moebius_pole_at_e1(n: int) -> MoebiusMap:
    """The normalized Moebius map z -> z / (1 - z_1), polar set touching e_1."""
    return moebius_pole(np.eye(n)[0])


# -- evaluation --------------------------------------------------------------


def map_eval(m: MapSpec, z: Sequence[complex]) -> np.ndarray:
    """Pointwise value of the map at ``z``."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    if len(z) != map_dim(m):
        raise DimensionError("point dimension does not match map dimension")
    return _derivatives(m, z[None], 0)[0][0]


def _affine_forms(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The forms l(z) = a (1, z) of a Moebius grid at a stack of points, with l_0 tested.

    ``a`` is one grid or a C-contiguous stack of them, one per point.  The
    test is relative to the largest entry of the point's grid, so a grid and
    its scalar multiples, which are one map, pass or fail together.
    """
    w = np.concatenate((np.ones((len(z), 1)), z), axis=1)
    l = (a @ w[:, :, None])[:, :, 0]
    if np.any(np.abs(l[:, 0]) < 1e-14 * np.abs(a).max(axis=(-2, -1))):
        raise VanishingDenominatorError("Moebius denominator vanishes at the point")
    return l


# -- derivative arrays at a stack of points -------------------------------------


@functools.lru_cache(maxsize=256)
def _monomial_plan(n: int, used: tuple[tuple[int, ...], ...]):
    """How a polynomial map with exponents ``used`` gives its derivatives of order <= 3.

    The monomials are every exponent below one in use, ordered by degree.
    ``levels`` lists, per degree from 1 up, the monomials of that degree with
    their parent (one degree less) and the variable that multiplies it.  Term
    s says that d^alpha_{c_s} f_l takes monomial ``rows[s]`` times the
    coefficient of exponent e = ``used[terms[s]]`` in f_l times
    ``weights[s]`` = e! / (e - alpha_{c_s})!, for the exponents alpha_c of
    the derivative columns of :func:`jets._derivative_positions`.  Terms are
    sorted by c_s, so the columns of order <= k are a prefix of the table:
    ``present`` lists the columns with terms and ``starts`` the start of
    each one's run, and ``cuts[k]`` counts the terms and the present columns
    of order <= k.  A row of derivative columns holds d^alpha_c f_l at
    position c * n + l, and entry [l, i_1, ..., i_j] of the j-th slot array
    is the position of d^j f_l / dz_{i_1} ... dz_{i_j}.
    """
    monomials, frontier = {(0,) * n} | set(used), list(used)
    while frontier:
        key = frontier.pop()
        for k, e in enumerate(key):
            sub = key[:k] + (e - 1,) + key[k + 1:]
            if e and sub not in monomials:
                monomials.add(sub)
                frontier.append(sub)
    monomials = sorted(monomials, key=lambda e: (sum(e), e))
    index = {e: i for i, e in enumerate(monomials)}
    parent, var = np.zeros(len(monomials), dtype=int), np.zeros(len(monomials), dtype=int)
    for i, e in enumerate(monomials[1:], 1):
        var[i] = k = max(j for j, x in enumerate(e) if x)
        parent[i] = index[e[:k] + (e[k] - 1,) + e[k + 1:]]
    degree = np.array([sum(e) for e in monomials])
    levels = [(idx, parent[idx], var[idx])
              for idx in (np.flatnonzero(degree == d) for d in range(1, degree.max() + 1))]

    column, _, positions = _derivative_positions(n, 3)
    alphas = np.array(list(column))
    exps = np.array(used, dtype=int).reshape(-1, n)
    rest = exps[:, None, :] - alphas[None]
    weight = np.ones(rest.shape[:2], dtype=int)
    for r in range(3):
        weight *= np.prod(np.where(alphas[None] > r, exps[:, None, :] - r, 1), axis=2)
    cols, terms = np.nonzero(np.all(rest >= 0, axis=2).T)  # sorted by column
    rows = np.array([index[tuple(e)] for e in rest[terms, cols].tolist()], dtype=int)
    present, starts = np.unique(cols, return_index=True)
    width = [comb(n + k, k) for k in range(4)]  # columns of order <= k
    cuts = list(zip(np.searchsorted(cols, width).tolist(), np.searchsorted(present, width).tolist()))
    slots = [np.arange(n).reshape((n,) + (1,) * k) + idx * n for k, idx in enumerate(positions)]
    return levels, len(monomials), rows, terms, weight[terms, cols, None], present, starts, cuts, slots


def _weighted_terms(plan, vals: np.ndarray) -> np.ndarray:
    """Row s holds, per component l, the factor of monomial ``rows[s]`` of the plan in
    d^alpha_{c_s} f_l, from ``vals[..., i, l]``, the coefficient of its i-th exponent in f_l."""
    _, _, _, terms, weights, *_ = plan
    return weights * np.take(vals, terms, axis=-2)


def _poly_derivatives(plan, coeffs: np.ndarray, z: np.ndarray, order: int) -> list[np.ndarray]:
    """Derivative arrays of polynomial maps of one plan: ``coeffs`` is one map's
    weighted term coefficients (:func:`_weighted_terms`) or a stack of them, one per point.

    Only the columns of order <= ``order`` are summed, each over the same run
    of terms at every order, so a lower order gives the prefix of a higher one
    bit for bit."""
    levels, size, rows, _, _, present, starts, cuts, slots = plan
    p, n = z.shape
    values = np.empty((p, size), dtype=complex)
    values[:, 0] = 1.0
    for idx, parent, var in levels:
        values[:, idx] = values[:, parent] * z[:, var]
    terms, used = cuts[order]
    cols = np.zeros((p, comb(n + order, order), n), dtype=complex)
    if terms:  # each column sums its run of terms, one after another
        cols[:, present[:used]] = np.add.reduceat(
            values[:, rows[:terms], None] * coeffs[..., :terms, :], starts[:used], axis=1)
    cols = cols.reshape(p, cols.shape[1] * n)
    return [cols[:, slot] for slot in slots[:order + 1]]


def _moebius_derivatives(a: np.ndarray, z: np.ndarray, order: int) -> list[np.ndarray]:
    """Derivative arrays of a Moebius grid ``a``, or of a stack of grids, one per point.

    F = L / l_0: with u = 1 / l_0, b the gradient of l_0 and beta = u b,

    DF = u (A - F b^T),  D^2F_ij = -(DF_i beta_j + DF_j beta_i),
    D^3F_ijk = -(D^2F_ij beta_k + D^2F_ik beta_j + D^2F_jk beta_i).
    """
    l = _affine_forms(a, z)
    out = [l[:, 1:] / l[:, :1]]
    b = a[..., 0, 1:]
    u = 1.0 / l[:, :1]
    beta = u * b
    if order >= 1:
        out.append(u[:, :, None] * (a[..., 1:, 1:] - out[0][:, :, None] * b[..., None, :]))
    if order >= 2:
        x = out[1][:, :, :, None] * beta[:, None, None, :]
        out.append(-(x + np.swapaxes(x, 2, 3)))
    if order >= 3:
        y = out[2][..., None] * beta[:, None, None, None, :]
        out.append(-(y + np.swapaxes(y, 3, 4) + y.transpose(0, 1, 4, 2, 3)))
    return [np.ascontiguousarray(d) for d in out]


def _pull(t: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """t[q, l, a_1, ..., a_k] with every slot a_s contracted against d1[q, a_s, i_s]."""
    p, n = d1.shape[:2]
    last_to_third = (0, 1, t.ndim - 1) + tuple(range(2, t.ndim - 1))
    for _ in range(t.ndim - 2):
        t = (t.reshape(p, n ** (t.ndim - 2), n) @ d1).reshape(t.shape).transpose(last_to_third)
    return t


def _compose(f: list[np.ndarray], g: list[np.ndarray]) -> list[np.ndarray]:
    """Derivatives of f o g from those of g and of f at g's values (Faa di Bruno, order 3):

    D(f o g) = Df Dg,  D^2(f o g) = D^2f(Dg, Dg) + Df D^2g,
    D^3(f o g) = D^3f(Dg, Dg, Dg) + 3 Sym D^2f(D^2g, Dg) + Df D^3g.
    """
    out = [f[0]]
    if len(f) < 2:
        return out
    p, n = g[1].shape[:2]
    out.append(f[1] @ g[1])
    if len(f) > 2:
        out.append(_pull(f[2], g[1]) + (f[1] @ g[2].reshape(p, n, n * n)).reshape(g[2].shape))
    if len(f) > 3:
        # y[l, a, k] = D^2f_l(e_a, Dg e_k); mixed[l, x, i, j] = sum_a y[l, a, x] D^2g_a,ij
        y = (f[2].reshape(p, n * n, n) @ g[1]).reshape(p, n, n, n)
        mixed = (np.swapaxes(y, 2, 3).reshape(p, n * n, n) @ g[2].reshape(p, n, n * n)).reshape(g[3].shape)
        out.append(
            _pull(f[3], g[1])
            + mixed + mixed.transpose(0, 1, 3, 4, 2) + mixed.transpose(0, 1, 3, 2, 4)
            + (f[1] @ g[3].reshape(p, n, n**3)).reshape(g[3].shape)
        )
    return [np.ascontiguousarray(a) for a in out]


def _stack_key(m: MapSpec):
    """Maps of one key take one derivative call, their parameters stacked per point:
    polynomial maps of one :func:`_monomial_plan` object, Moebius maps of one
    dimension, and chains whose parts match part by part."""
    if isinstance(m, PolyMap):
        return "poly", id(m._plan)
    if isinstance(m, MoebiusMap):
        return "moebius", m.n
    if isinstance(m, CompositionMap):
        return tuple(_stack_key(part) for part in m.maps)
    raise DimensionError(f"not a map spec: {type(m).__name__}")


def _stacked_params(maps: Sequence[MapSpec], owner: np.ndarray):
    """Parameters of maps of one :func:`_stack_key` for a stack of points: point q
    gets those of ``maps[owner[q]]``, in C-contiguous arrays, so each point's
    matrix products take the bits of its map's own call."""
    if isinstance(maps[0], CompositionMap):
        return tuple(_stacked_params([m.maps[i] for m in maps], owner)
                     for i in range(len(maps[0].maps)))
    own = [m._coeffs for m in maps] if isinstance(maps[0], PolyMap) else [m.a for m in maps]
    return np.stack(own)[owner]


def _derivatives(m: MapSpec, z: np.ndarray, order: int, params=None) -> list[np.ndarray]:
    """[F, DF, ..., D^order F] at a stack of points ``z`` of shape (p, n), order <= 3.

    Entry [q, l, i_1, ..., i_k] of the k-th array is d^k f_l / dz_{i_1} ... dz_{i_k}
    at z[q].  With ``params`` from :func:`_stacked_params`, point q is taken
    by its own map of m's :func:`_stack_key` instead of m; row q equals that
    map's own call bit for bit.  Raises VanishingDenominatorError where a
    Moebius denominator vanishes and, for order >= 1,
    SingularDifferentialError where DF of a part or of the whole map fails
    :func:`check_nonsingular`, as :func:`map_jet_at` does at each point.
    """
    if isinstance(m, PolyMap):
        out = _poly_derivatives(m._plan, m._coeffs if params is None else params, z, order)
    elif isinstance(m, MoebiusMap):
        out = _moebius_derivatives(m.a if params is None else params, z, order)
    elif isinstance(m, CompositionMap):
        parts = (None,) * len(m.maps) if params is None else params
        out = _derivatives(m.maps[-1], z, order, parts[-1])
        for part, own in zip(m.maps[-2::-1], parts[-2::-1]):
            out = _compose(_derivatives(part, out[0], order, own), out)
    else:
        raise DimensionError(f"not a map spec: {type(m).__name__}")
    if order:
        check_nonsingular(out[1], "map at the point")
    return out


def _derivative_chunks(cases, order: int):
    """Derivative arrays of (map, points (p_i, n)) cases, one call per :func:`_stack_key`
    group and per ``max(ROW_ENTRIES // n**(order + 1), 1)`` of its points.

    The cap holds the highest-order array of every call to ``ROW_ENTRIES``
    entries, at every order.  Yields (rows, [F, ..., D^order F]) per call,
    ``rows`` the positions of its points among all the cases' points in case
    order.  Each row equals its map's own call bit for bit (:func:`_derivatives`).
    """
    counts = [len(z) for _, z in cases]
    offsets = np.cumsum([0] + counts)
    groups: dict = {}
    for i, (m, _) in enumerate(cases):
        groups.setdefault(_stack_key(m), []).append(i)
    for members in groups.values():
        maps = [cases[i][0] for i in members]
        z = np.concatenate([cases[i][1] for i in members])
        rows = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in members])
        owner = np.repeat(np.arange(len(members)), [counts[i] for i in members])
        cap = max(ROW_ENTRIES // map_dim(maps[0]) ** (order + 1), 1)
        for lo in range(0, len(z), cap):
            part = slice(lo, lo + cap)
            params = None if len(maps) == 1 else _stacked_params(maps, owner[part])
            yield rows[part], _derivatives(maps[0], z[part], order, params)


def _derivative_rows(cases, order: int, assemble) -> list[np.ndarray]:
    """The arrays ``assemble`` returns for each :func:`_derivative_chunks` call, each with a
    leading row axis, put together in case order.

    ``assemble`` takes a call's [F, ..., D^order F] and returns a sequence of
    arrays; a row equals ``assemble`` of its map's own call bit for bit where
    ``assemble`` keeps rows apart.  Cases without points take one empty call of
    the first map for the arrays' shapes; an empty case list gives [].
    """
    total = sum(len(z) for _, z in cases)
    out = []
    for rows, arrays in _derivative_chunks(cases, order):
        parts = assemble(arrays)
        out = out or [np.empty((total,) + a.shape[1:], dtype=a.dtype) for a in parts]
        for whole, part in zip(out, parts):
            whole[rows] = part
    if not out and cases:
        m, z = cases[0]
        out = list(assemble(_derivatives(m, z[:0], order)))
    return out


# -- jet expansion ------------------------------------------------------------


def _affine_jet(const, lin, d: int) -> Jet:
    """Jet of const + lin h, built as a valid table: no exact zeros, no linear terms at d = 0."""
    n = len(lin)
    table = {}
    if const != 0:
        table[(0,) * n] = complex(const)
    if d >= 1:
        for j in range(n):
            if lin[j] != 0:
                table[tuple(1 if k == j else 0 for k in range(n))] = complex(lin[j])
    return Jet._from_table(n, d, table)


def _rational_jet(num_const, num_lin, den_const, den_lin, d: int) -> JetVector:
    """Jet of (num_const + num_lin h) / (den_const + den_lin h) about h = 0."""
    inv_den = jet_reciprocal(_affine_jet(den_const, den_lin, d))
    return JetVector([_affine_jet(c, lin, d) * inv_den for c, lin in zip(num_const, num_lin)])


def _sigma_ratio(a: np.ndarray) -> np.ndarray:
    """sigma_min / sigma_max of each matrix in ``a``: 0 for a zero matrix, NaN for NaN or infinite entries."""
    try:
        sv = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:  # NaN entries; infinite ones give NaN values
        return np.full(a.shape[:-2], np.nan)
    top = sv[..., 0]
    return np.divide(sv[..., -1], top, out=np.zeros_like(top), where=top != 0)


def check_nonsingular(df: np.ndarray, what: str) -> None:
    """Raise unless sigma_min(DF) > SINGULAR_TOL * sigma_max(DF), for DF or a stack of them.

    The test is relative, so a map and its scalings c F pass or fail
    together, as their Schwarzian tensors agree.
    """
    ratio = np.atleast_1d(_sigma_ratio(df))
    bad = ratio[~(ratio > SINGULAR_TOL)]
    if bad.size:
        raise SingularDifferentialError(
            f"{what}: differential singular (sigma_min / sigma_max = {bad[0]:.3e})"
        )


def map_jet_at(m: MapSpec, zeta: Sequence[complex], d: int) -> JetVector:
    """Exact Taylor jet of the map about ``zeta`` to degree ``d``.

    Component ``i`` of the result is the jet of ``m_i(zeta + h)`` in the
    offset variables ``h``.  The differential at ``zeta`` must be
    nonsingular and rational denominators must not vanish there.
    """
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    n = map_dim(m)
    if n > MAX_VARS:
        raise DimensionError(f"variable count {n} outside supported range 1..{MAX_VARS}")
    if len(zeta) != n:
        raise DimensionError("center dimension does not match map dimension")
    if isinstance(m, PolyMap):
        # exact recentering: a polynomial is not truncated, so any constant
        # term may go in for its variables
        factors = [Jet.variable(n, d, k, center=zeta[k]) for k in range(n)]
        jv = JetVector(_substitute(m.components, factors, n, d))
    elif isinstance(m, MoebiusMap):
        l = _affine_forms(m.a, zeta[None])[0]
        jv = _rational_jet(l[1:], m.a[1:, 1:], l[0], m.a[0, 1:], d)
    elif isinstance(m, CompositionMap):
        jv = map_jet_at(m.maps[-1], zeta, d)
        for part in m.maps[-2::-1]:
            w = jv.constants()
            jv = jet_compose(map_jet_at(part, w, d), jv.shifted(-w).jets)
    else:
        raise DimensionError(f"not a map spec: {type(m).__name__}")
    check_nonsingular(jv.derivatives(1), "map at the expansion center")
    return jv


# -- ball automorphisms -------------------------------------------------------


def _unitary_with_first_column(w: np.ndarray) -> np.ndarray:
    """Unitary matrix whose first column is the unit vector ``w``."""
    w = np.asarray(w, dtype=complex).reshape(-1, 1)
    q, r = np.linalg.qr(w, mode="complete")
    u = q.copy()
    u[:, 0] = (q[:, 0] * r[0, 0]).reshape(-1)
    return u


def _center_scales(zeta: np.ndarray) -> np.ndarray:
    """s = sqrt(1 - |zeta|^2) of each row of a stack (k, n) of centers; raises
    OutsideDomainError if a row has |zeta| >= 1."""
    r = _row_norms(zeta)
    if np.any(r >= 1.0):
        raise OutsideDomainError(
            f"center must lie in the open unit ball (|zeta| = {r[r >= 1.0][0]:.6f})")
    return np.sqrt(1.0 - r * r)


def automorphism_from_center(zeta) -> MoebiusMap | list[MoebiusMap]:
    """Ball automorphism with sigma(0) = zeta and Id + O(|zeta|^2) differential, or the
    list of them for a stack (k, n) of centers.

    With s = sqrt(1 - |zeta|^2) the grid is
    [[1, zeta^H], [zeta, s Id + zeta zeta^H / (1 + s)]] / s, block-normalized
    so the three block identities hold; at zeta = 0 it is exactly the identity.
    A stack takes one norm per row, one grid expression and one stacked
    nonsingularity test, and every grid has the bits of its center's own call.
    """
    zeta = np.asarray(zeta, dtype=complex)
    stack = zeta if zeta.ndim == 2 else zeta.reshape(1, -1)
    k, n = stack.shape
    s = _center_scales(stack)[:, None, None]
    a = np.empty((k, n + 1, n + 1), dtype=complex)
    a[:, 0, 0] = 1.0
    a[:, 0, 1:] = np.conj(stack)
    a[:, 1:, 0] = stack
    a[:, 1:, 1:] = s * np.eye(n) + stack[:, :, None] * np.conj(stack)[:, None, :] / (1.0 + s)
    maps = MoebiusMap._checked(a / s)
    return maps if zeta.ndim == 2 else maps[0]


def automorphism_validate(sigma: MoebiusMap) -> tuple[float, float, float]:
    """Residuals of the three block identities of a ball automorphism.

    The blocks of (Az + B)/(Cz + D) are read from the grid [[D, C], [B, A]].
    ``max`` of the three is the residual the ``automorphism`` map-file loader
    tests.
    """
    n = sigma.n
    dd, c, b, a = sigma.a[0, 0], sigma.a[0, 1:], sigma.a[1:, 0], sigma.a[1:, 1:]
    r1 = float(np.max(np.abs(a.T @ a.conj() - np.outer(c, c.conj()) - np.eye(n))))
    r2 = float(abs(abs(dd) ** 2 - complex(b @ b.conj()) - 1.0))
    r3 = float(np.max(np.abs(a.T @ b.conj() - c * np.conj(dd))))
    return r1, r2, r3


# -- deterministic samplers used by verification suites -----------------------


def _row_norms(v: np.ndarray) -> np.ndarray:
    """|v| of each row of a complex stack (p, n), with the bits of ``np.linalg.norm(row)``.

    That norm is the square root of v.real . v.real + v.imag . v.imag, 1-D dots
    of stride-16 views; a stacked vector-vector matmul of the same views takes
    the same dot per row, where contiguous real copies would round differently.
    """
    re, im = v.real, v.imag
    return np.sqrt((re[:, None] @ re[..., None] + im[:, None] @ im[..., None])[:, 0, 0])


def random_ball_point(
    n: int, rng: np.random.Generator, r_max: float = 0.9, size: int | None = None
) -> np.ndarray:
    """Random point uniform on the ball |z| <= r_max, or a stack (size, n) of them.

    A direction uniform on the sphere (normalized Gaussian normals) times
    r_max u^(1 / 2n) for u uniform on [0, 1).  The normals come in one draw
    of shape (size, 2n), each row real parts then imaginary parts, and the
    radii in one draw of ``size`` uniforms; ``size=None`` is the size-1 case,
    one point (n,) with the same bits and the same generator state after.
    """
    k = 1 if size is None else int(size)
    draws = rng.standard_normal((k, 2 * n))
    v = draws[:, :n] + 1j * draws[:, n:]
    v /= _row_norms(v)[:, None]
    # Python's pow per number: numpy's vector power rounds differently from
    # libm's on some CPUs (AVX-512), and a point must not depend on its stack
    e = 1.0 / (2 * n)
    z = v * np.array([r_max * u ** e for u in rng.random(k).tolist()])[:, None]
    return z[0] if size is None else z


def random_moebius(
    n: int, rng: np.random.Generator, size: int | None = None
) -> MoebiusMap | list[MoebiusMap]:
    """Random Moebius map that is defined on |z| <= 0.9 and well conditioned, or a
    list of ``size`` of them.

    The denominator row is kept close to the constant 1 so l_0 cannot vanish
    inside the sampling radius; grids with small determinant are resampled.
    Each round of attempts takes its normals in one draw, a row per grid not
    yet accepted: the denominator row, the constant column and the linear
    block, each real parts then imaginary parts; only the rejected rows are
    drawn again.  The accepted grids pass ``MoebiusMap``'s nonsingularity test
    in one stacked call.  ``size=None`` is the size-1 case, one map with the
    same bits and the same generator state after.
    """
    def draw(count: int) -> np.ndarray:
        draws = rng.standard_normal((count, 4 * n + 2 * n * n))
        row, col = draws[:, :2 * n], draws[:, 2 * n:4 * n]
        block = draws[:, 4 * n:].reshape(-1, 2, n, n)
        a = np.zeros((count, n + 1, n + 1), dtype=complex)
        a[:, 0, 0] = 1.0
        a[:, 0, 1:] = 0.2 * (row[:, :n] + 1j * row[:, n:]) / np.sqrt(n)
        a[:, 1:, 0] = 0.3 * (col[:, :n] + 1j * col[:, n:])
        a[:, 1:, 1:] = np.eye(n) + 0.4 * (block[:, 0] + 1j * block[:, 1]) / np.sqrt(n)
        return a

    grids = draw(1 if size is None else int(size))
    redo = np.flatnonzero(np.abs(np.linalg.det(grids)) < 0.05)
    while len(redo):
        grids[redo] = draw(len(redo))
        redo = redo[np.abs(np.linalg.det(grids[redo])) < 0.05]
    maps = MoebiusMap._checked(grids)
    return maps[0] if size is None else maps


def random_normalized_polymap(
    n: int,
    rng: np.random.Generator,
    scale: float = 0.1,
    size: int | None = None,
) -> PolyMap | list[PolyMap]:
    """Random cubic map with F(0) = 0, DF(0) = Id and small higher terms, or a list of
    ``size`` of them.

    The coefficients come from one draw of shape (size, n, monomials, 2): per
    map, per component, per monomial of degree 2 or 3, a real part then an
    imaginary part.  The maps share one plan (``PolyMap._stacked``); zero
    coefficients drop out, as ``PolyMap`` drops them.  ``size=None`` is the
    size-1 case, one map with the same bits and the same generator state after.
    """
    keys = _near_identity_keys(n, 3)
    k = 1 if size is None else int(size)
    draws = rng.standard_normal((k, n, len(keys) - n, 2))
    coeffs = np.concatenate(
        [np.broadcast_to(np.eye(n), (k, n, n)), scale * (draws[..., 0] + 1j * draws[..., 1])], axis=2)
    maps = PolyMap._stacked(n, keys, coeffs)
    return maps[0] if size is None else maps
