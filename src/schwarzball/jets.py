"""Truncated multivariate complex power series (jets).

A jet of degree ``d`` in ``n`` variables stores the coefficients of a Taylor
expansion about some center for every monomial of total degree at most ``d``.
All arithmetic here is exact modulo that truncation: sums, Cauchy products,
formal partial derivatives, composition, the reciprocal, and determinants of
small jet matrices.  Jets are the independent oracle for the derivative
arrays every production derivative reads (``maps._derivatives``): they serve
``pde_residual``, ``lemma31_check`` and ``family.jet_grad_jacobian``, which
read the Jacobian-determinant jet at the center through
:meth:`Jet.derivatives`, and ``schwarzian_at``, which reads a map jet through
:meth:`JetVector.derivatives`.  No numerical differencing is used anywhere.

Multi-indices are plain tuples of non-negative ints (``exponents``); their
total degree is ``sum(exponents)``.  Coefficient tables are dicts keyed by
such tuples with exact zeros dropped.  ``Jet(n, d, coeffs)`` and its named
constructors validate the tables they are given; operations wrap the valid
tables they build (``Jet._from_table``).  Values are immutable by
convention: no public operation mutates its inputs.

Products visit only the pairs of terms whose degrees add up to at most
``d``.  Composition, the reciprocal series and the recentering of
polynomial maps (``maps.map_jet_at``) all put jets into a polynomial
through :func:`_substitute`, which starts from the factors themselves,
builds each higher monomial once per call, as its parent (one less in its
last nonzero exponent) times one factor, and shares it across every table
it sums.  A module cache, keyed on exponent tuples and filled lazily as
keys appear, holds the exponent sum of each pair of keys met in a
product; it changes no accumulation order, so results do not depend on
what it holds.

A derivative array of order k is symmetric: entry ``[i_1, ..., i_k]`` is
alpha! times the coefficient of the exponent alpha that counts each i
among the indices.  :func:`_derivative_positions` is the one table of that
layout, read both by :meth:`Jet.derivatives` and by the production
derivatives of polynomial maps (``maps._poly_derivatives``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CompositionCenterError, DimensionError, VanishingDenominatorError

MAX_VARS = 8

# key -> {other key -> key + other}, for the pairs of keys products have met
_KEY_SUMS: dict[tuple[int, ...], dict[tuple[int, ...], tuple[int, ...]]] = {}


def multi_indices(n: int, max_total: int) -> Iterator[tuple[int, ...]]:
    """Yield every exponent tuple of length ``n`` with total degree <= ``max_total``."""
    if n == 1:
        for t in range(max_total + 1):
            yield (t,)
        return
    for head in range(max_total + 1):
        for tail in multi_indices(n - 1, max_total - head):
            yield (head,) + tail


@functools.lru_cache(maxsize=None)
def _derivative_positions(n: int, order: int):
    """The layout of derivative arrays of order <= ``order`` in ``n`` variables.

    Returns ``(column, factorials, index)``: ``column`` numbers the exponents
    of total degree <= ``order`` by degree, so the first comb(n + k, k)
    columns hold the orders <= k; ``factorials[c]`` is alpha! for the
    exponent alpha of column c; and entry ``[i_1, ..., i_k]`` of
    ``index[k]``, k = 0, ..., order, is the column of the exponent that
    counts each i among the indices.
    """
    column = {alpha: c for c, alpha in enumerate(sorted(multi_indices(n, order), key=sum))}
    factorials = tuple(math.prod(map(math.factorial, alpha)) for alpha in column)
    index = []
    for k in range(order + 1):
        idx = np.empty((n,) * k, dtype=int)
        for ids in itertools.product(range(n), repeat=k):
            idx[ids] = column[tuple(ids.count(i) for i in range(n))]
        index.append(idx)
    return column, factorials, tuple(index)


def _validated_table(n: int, d: int, coeffs) -> dict[tuple[int, ...], complex]:
    table: dict[tuple[int, ...], complex] = {}
    if coeffs is None:
        return table
    for key, val in coeffs.items():
        key = tuple(int(e) for e in key)
        if len(key) != n or any(e < 0 for e in key):
            raise DimensionError(f"bad exponent tuple {key} for {n} variables")
        if sum(key) > d:
            continue  # truncation: silently drop beyond-degree terms
        val = complex(val)
        if val != 0:
            table[key] = table.get(key, 0j) + val
            if table[key] == 0:
                del table[key]
    return table


class Jet:
    """Degree-``d`` truncated power series in ``n`` complex variables.

    Parameters
    ----------
    n : int
        Number of variables, 1 <= n <= 8.
    d : int
        Truncation degree, >= 0.
    coeffs : mapping, optional
        Exponent tuple -> complex coefficient.  Keys beyond total degree
        ``d`` are dropped; exact zeros are not stored.
    """

    __slots__ = ("n", "d", "coeffs")

    def __init__(self, n: int, d: int, coeffs: Mapping[tuple[int, ...], complex] | None = None):
        if not 1 <= n <= MAX_VARS:
            raise DimensionError(f"variable count {n} outside supported range 1..{MAX_VARS}")
        if d < 0:
            raise DimensionError(f"negative truncation degree {d}")
        self.n = int(n)
        self.d = int(d)
        self.coeffs = _validated_table(self.n, self.d, coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_table(cls, n: int, d: int, table: dict[tuple[int, ...], complex]) -> "Jet":
        """Wrap a table that is already valid (in-degree keys, no exact zeros)."""
        out = cls.__new__(cls)
        out.n, out.d, out.coeffs = n, d, table
        return out

    @classmethod
    def zero(cls, n: int, d: int) -> "Jet":
        return cls(n, d)

    @classmethod
    def constant(cls, n: int, d: int, value: complex) -> "Jet":
        return cls(n, d, {(0,) * n: value})

    @classmethod
    def variable(cls, n: int, d: int, i: int, center: complex = 0.0) -> "Jet":
        """Jet of ``center + z_i`` (0-based variable index)."""
        if not 0 <= i < n:
            raise DimensionError(f"variable index {i} out of range for n={n}")
        key = tuple(1 if k == i else 0 for k in range(n))
        return cls(n, d, {(0,) * n: center, key: 1.0})

    # -- basic queries -----------------------------------------------------

    def coeff(self, key: Sequence[int]) -> complex:
        return self.coeffs.get(tuple(key), 0j)

    @property
    def constant_term(self) -> complex:
        return self.coeffs.get((0,) * self.n, 0j)

    def derivatives(self, order: int) -> np.ndarray:
        """Array of every order-``order`` partial derivative at the center.

        Entry ``[i_1, ..., i_k]`` is d^k / dz_{i_1} ... dz_{i_k} at the center,
        factorials included, so the array is symmetric in its indices.
        """
        return _derivative_arrays((self,), order)[0]

    # -- arithmetic --------------------------------------------------------

    def _check_same_shape(self, other: "Jet") -> None:
        if self.n != other.n or self.d != other.d:
            raise DimensionError(
                f"jet shape mismatch: (n={self.n}, d={self.d}) vs (n={other.n}, d={other.d})"
            )

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_same_shape(other)
            table = dict(self.coeffs)
            for key, val in other.coeffs.items():
                s = table.get(key, 0j) + val
                if s == 0:
                    table.pop(key, None)
                else:
                    table[key] = s
            return Jet._from_table(self.n, self.d, table)
        return self + Jet.constant(self.n, self.d, complex(other))

    __radd__ = __add__

    def __neg__(self):
        return Jet._from_table(self.n, self.d, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, Jet):
            return self + (-other)
        return self + (-complex(other))

    def __rsub__(self, other):
        return (-self) + complex(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check_same_shape(other)
            return _mul(self, other)
        c = complex(other)
        table = {} if c == 0 else {k: v * c for k, v in self.coeffs.items()}
        return Jet._from_table(self.n, self.d, table)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * jet_reciprocal(other)
        return self * (1.0 / complex(other))

    def __repr__(self):
        terms = sorted(self.coeffs.items())
        return f"Jet(n={self.n}, d={self.d}, {dict(terms)!r})"


def _derivative_arrays(jets: Sequence[Jet], order: int) -> np.ndarray:
    """Stacked :meth:`Jet.derivatives` of jets sharing n, as one C-contiguous array."""
    column, factorials, index = _derivative_positions(jets[0].n, order)
    coeffs = np.zeros((len(jets), len(column)), dtype=complex)
    for row, jet in enumerate(jets):
        for key, val in jet.coeffs.items():
            c = column.get(key)
            if c is not None:  # degrees below ``order`` are written but never read
                coeffs[row, c] = val * factorials[c]
    return coeffs.take(index[order], axis=1)


def _mul(a: Jet, b: Jet) -> Jet:
    d = a.d
    # fits[t]: b's terms of total degree <= t, in b's order
    fits: list[list[tuple[tuple[int, ...], complex]]] = [[] for _ in range(d + 1)]
    for kb, vb in b.coeffs.items():
        for t in range(sum(kb), d + 1):
            fits[t].append((kb, vb))
    out: dict[tuple[int, ...], complex] = {}
    for ka, va in a.coeffs.items():
        sums = _KEY_SUMS.get(ka)
        if sums is None:
            sums = _KEY_SUMS[ka] = {}
        for kb, vb in fits[d - sum(ka)]:
            key = sums.get(kb)
            if key is None:
                key = sums[kb] = tuple(map(operator.add, ka, kb))
            s = out.get(key, 0j) + va * vb
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return Jet._from_table(a.n, a.d, out)


def jet_partial(a: Jet, i: int) -> Jet:
    """Formal partial derivative with respect to variable ``i`` (0-based).

    The truncation degree drops by one (a degree-d jet only determines its
    derivative to degree d-1).
    """
    if not 0 <= i < a.n:
        raise DimensionError(f"variable index {i} out of range for n={a.n}")
    table: dict[tuple[int, ...], complex] = {}
    for key, val in a.coeffs.items():
        e = key[i]
        if e == 0:
            continue
        new_key = key[:i] + (e - 1,) + key[i + 1:]
        table[new_key] = val * e
    return Jet._from_table(a.n, max(a.d - 1, 0), table)


def _substitute(
    tables: Sequence[Mapping[tuple[int, ...], complex]], factors: Sequence[Jet], n: int, d: int
) -> list[Jet]:
    """sum_e c_e prod_k factors[k]^e_k for each table {e: c_e}, as (n, d) jets.

    The empty monomial is the constant 1 and a degree-1 monomial its factor;
    every other monomial is built once, as its parent (one less in its last
    nonzero exponent) times one factor, and shared by every table.  Sums that
    come out exactly zero are dropped.
    """
    monomials = {(0,) * len(factors): Jet.constant(n, d, 1.0)}
    for k, f in enumerate(factors):
        monomials[tuple(int(i == k) for i in range(len(factors)))] = f

    def monomial(key: tuple[int, ...]) -> Jet:
        hit = monomials.get(key)
        if hit is None:
            k = max(i for i, e in enumerate(key) if e)
            parent = monomial(key[:k] + (key[k] - 1,) + key[k + 1:])
            hit = monomials[key] = _mul(parent, factors[k])
        return hit

    out = []
    for table in tables:
        acc: dict[tuple[int, ...], complex] = {}
        for key, c in table.items():
            for tk, tv in monomial(key).coeffs.items():
                s = acc.get(tk, 0j) + c * tv
                if s == 0:
                    acc.pop(tk, None)
                else:
                    acc[tk] = s
        out.append(Jet._from_table(n, d, acc))
    return out


def jet_compose(outer: "JetVector", inner: Sequence[Jet]) -> "JetVector":
    """Compose every component of ``outer`` (jets in m variables) with m inner jets.

    The components share the monomials of the inner jets.  Every inner jet
    must share (n, d) with the others, match ``outer.d``, and have a zero
    constant term (recenter first otherwise).
    """
    inner = list(inner)
    if len(inner) != outer.n:
        raise DimensionError(f"outer jet has {outer.n} variables but {len(inner)} inner jets given")
    n, d = inner[0].n, inner[0].d
    for g in inner:
        if g.n != n or g.d != d:
            raise DimensionError("inner jets do not share (n, d)")
        if g.constant_term != 0:
            raise CompositionCenterError("inner jet has nonzero constant term")
    if outer.d != d:
        raise DimensionError(f"outer degree {outer.d} does not match inner degree {d}")
    return JetVector(_substitute([f.coeffs for f in outer], inner, n, d))


def jet_reciprocal(a: Jet) -> Jet:
    """1/a = (1/a(0)) sum_k (-u)^k over k = 0..d, for u = a/a(0) - 1; requires a(0) != 0.

    u has a zero constant term, so u^k vanishes beyond k = d and the finite
    sum is exact modulo truncation.
    """
    c = a.constant_term
    if c == 0:
        raise VanishingDenominatorError("reciprocal of a jet with zero constant term")
    u = a * (1.0 / c)
    u.coeffs.pop((0,) * a.n, None)
    table = {(k,): complex((-1.0) ** k) for k in range(a.d + 1)}
    return _substitute([table], [u], a.n, a.d)[0] * (1.0 / c)


# -- jet vectors and matrices ----------------------------------------------


class JetVector:
    """Tuple of jets sharing (n, d); carries a map germ component-wise."""

    __slots__ = ("jets",)

    def __init__(self, jets: Iterable[Jet]):
        jets = tuple(jets)
        if not jets:
            raise DimensionError("empty jet vector")
        n, d = jets[0].n, jets[0].d
        for j in jets:
            if not isinstance(j, Jet) or j.n != n or j.d != d:
                raise DimensionError("jet vector entries do not share (n, d)")
        self.jets = jets

    @property
    def n(self) -> int:
        return self.jets[0].n

    @property
    def d(self) -> int:
        return self.jets[0].d

    def __len__(self) -> int:
        return len(self.jets)

    def __getitem__(self, i: int) -> Jet:
        return self.jets[i]

    def __iter__(self):
        return iter(self.jets)

    def constants(self) -> np.ndarray:
        return np.array([j.constant_term for j in self.jets], dtype=complex)

    def derivatives(self, order: int) -> np.ndarray:
        """Stacked :meth:`Jet.derivatives` of the components; axis 0 is the component."""
        return _derivative_arrays(self.jets, order)

    def shifted(self, delta: Sequence[complex]) -> "JetVector":
        """Add ``delta[i]`` to the constant term of component ``i``."""
        delta = [complex(x) for x in delta]
        if len(delta) != len(self.jets):
            raise DimensionError("shift length does not match component count")
        zero_key = (0,) * self.n
        out = []
        for j, dv in zip(self.jets, delta):
            table = dict(j.coeffs)
            c = table.get(zero_key, 0j) + dv
            if c == 0:
                table.pop(zero_key, None)
            else:
                table[zero_key] = c
            out.append(Jet._from_table(j.n, j.d, table))
        return JetVector(out)


def jet_jacobian(jv: JetVector) -> list[list[Jet]]:
    """Jacobian matrix of jets as rows, entry [i][j] = d(component_i)/d(z_j)."""
    return [[jet_partial(jv[i], j) for j in range(jv.n)] for i in range(len(jv))]


def jet_det(rows: Sequence[Sequence[Jet]]) -> Jet:
    """Determinant of a square matrix of jets sharing (n, d), given as rows,
    by first-row expansion with memoized minors."""
    size = len(rows)
    if size == 0 or any(len(r) != size for r in rows):
        raise DimensionError("determinant of an empty or non-square jet matrix")
    n, d = rows[0][0].n, rows[0][0].d
    if any(e.n != n or e.d != d for r in rows for e in r):
        raise DimensionError("jet matrix entries do not share (n, d)")
    cache: dict[tuple[int, tuple[int, ...]], Jet] = {}

    def minor(r: int, cs: tuple[int, ...]) -> Jet:
        if r == size:
            return Jet._from_table(n, d, {(0,) * n: 1 + 0j})
        key = (r, cs)
        hit = cache.get(key)
        if hit is not None:
            return hit
        acc = Jet._from_table(n, d, {})
        sign = 1.0
        for pos, c in enumerate(cs):
            entry = rows[r][c]
            if entry.coeffs:
                sub = minor(r + 1, cs[:pos] + cs[pos + 1:])
                acc = acc + _mul(entry, sub) * sign
            sign = -sign
        cache[key] = acc
        return acc

    return minor(0, tuple(range(size)))
