"""Truncated multivariate complex power series (jets).

A jet of degree ``d`` in ``n`` variables stores the coefficients of a Taylor
expansion about some center for every monomial of total degree at most ``d``.
All arithmetic here is exact modulo that truncation: sums, Cauchy products,
formal partial derivatives, composition, principal-branch log/pow, and
determinants of small jet matrices.  Jets are the differentiation backbone for
every derivative appearing elsewhere in the package: derivative arrays at the
center are read through :meth:`Jet.derivatives` and
:meth:`JetVector.derivatives`, and no numerical differencing is used anywhere.

Multi-indices are plain tuples of non-negative ints (``exponents``); their
total degree is ``sum(exponents)``.  Coefficient tables are dicts keyed by
such tuples with exact zeros dropped.  Values are immutable by convention:
no public operation mutates its inputs.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    BranchCutError,
    CompositionCenterError,
    DimensionError,
    VanishingDenominatorError,
)

MAX_VARS = 8


def multi_indices(n: int, max_total: int) -> Iterator[tuple[int, ...]]:
    """Yield every exponent tuple of length ``n`` with total degree <= ``max_total``."""
    if n == 1:
        for t in range(max_total + 1):
            yield (t,)
        return
    for head in range(max_total + 1):
        for tail in multi_indices(n - 1, max_total - head):
            yield (head,) + tail


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

    def derivative_value(self, key: Sequence[int]) -> complex:
        """Value of the partial derivative multi-index ``key`` at the center."""
        key = tuple(key)
        return self.coeffs.get(key, 0j) * math.prod(math.factorial(e) for e in key)

    def derivatives(self, order: int) -> np.ndarray:
        """Array of every order-``order`` partial derivative at the center.

        Entry ``[i_1, ..., i_k]`` is d^k / dz_{i_1} ... dz_{i_k} at the center,
        factorials included, so the array is symmetric in its indices.
        """
        out = np.zeros((self.n,) * order, dtype=complex)
        for key, val in self.coeffs.items():
            if sum(key) != order:
                continue
            val = val * math.prod(math.factorial(e) for e in key)
            index = tuple(i for i, e in enumerate(key) for _ in range(e))
            for perm in set(itertools.permutations(index)):
                out[perm] = val
        return out

    def evaluate(self, h: Sequence[complex]) -> complex:
        """Evaluate the truncated polynomial at offset ``h`` from the center."""
        h = [complex(x) for x in h]
        if len(h) != self.n:
            raise DimensionError("offset length does not match variable count")
        total = 0j
        for key, val in self.coeffs.items():
            term = val
            for x, e in zip(h, key):
                for _ in range(e):
                    term *= x
            total += term
        return total

    def truncate(self, d: int) -> "Jet":
        if d == self.d:
            return self
        return Jet(self.n, d, self.coeffs)

    def max_abs_coeff(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

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
            out = Jet.__new__(Jet)
            out.n, out.d, out.coeffs = self.n, self.d, table
            return out
        return self + Jet.constant(self.n, self.d, complex(other))

    __radd__ = __add__

    def __neg__(self):
        out = Jet.__new__(Jet)
        out.n, out.d = self.n, self.d
        out.coeffs = {k: -v for k, v in self.coeffs.items()}
        return out

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
        out = Jet.__new__(Jet)
        out.n, out.d = self.n, self.d
        out.coeffs = {} if c == 0 else {k: v * c for k, v in self.coeffs.items()}
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * jet_reciprocal(other)
        return self * (1.0 / complex(other))

    def __repr__(self):
        terms = sorted(self.coeffs.items())
        return f"Jet(n={self.n}, d={self.d}, {dict(terms)!r})"


def _mul(a: Jet, b: Jet) -> Jet:
    d = a.d
    out: dict[tuple[int, ...], complex] = {}
    b_items = [(kb, sum(kb), vb) for kb, vb in b.coeffs.items()]
    for ka, va in a.coeffs.items():
        ta = sum(ka)
        for kb, tb, vb in b_items:
            if ta + tb > d:
                continue
            key = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(key, 0j) + va * vb
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    res = Jet.__new__(Jet)
    res.n, res.d, res.coeffs = a.n, a.d, out
    return res



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
    return Jet(a.n, max(a.d - 1, 0), table)


def jet_compose(outer: Jet, inner: Sequence[Jet]) -> Jet:
    """Compose ``outer`` (a jet in m variables) with m inner jets.

    Every inner jet must share (n, d) with the others, match ``outer.d``,
    and have a zero constant term (recenter first otherwise).
    """
    inner = list(inner)
    if len(inner) != outer.n:
        raise DimensionError(
            f"outer jet has {outer.n} variables but {len(inner)} inner jets given"
        )
    if not inner:
        raise DimensionError("composition needs at least one inner jet")
    n, d = inner[0].n, inner[0].d
    for g in inner:
        if g.n != n or g.d != d:
            raise DimensionError("inner jets do not share (n, d)")
        if g.constant_term != 0:
            raise CompositionCenterError("inner jet has nonzero constant term")
    if outer.d != d:
        raise DimensionError(
            f"outer degree {outer.d} does not match inner degree {d}"
        )
    one = Jet.constant(n, d, 1.0)
    powers: list[list[Jet]] = []
    for g in inner:
        row = [one]
        for _ in range(d):
            row.append(_mul(row[-1], g))
        powers.append(row)
    acc: dict[tuple[int, ...], complex] = {}
    for key, c in outer.coeffs.items():
        if sum(key) > d:
            continue  # inner jets have valuation >= 1, term lands beyond degree d
        term: Jet | None = None
        for k, e in enumerate(key):
            if e == 0:
                continue
            term = powers[k][e] if term is None else _mul(term, powers[k][e])
        if term is None:
            acc_key = (0,) * n
            s = acc.get(acc_key, 0j) + c
            if s == 0:
                acc.pop(acc_key, None)
            else:
                acc[acc_key] = s
            continue
        for tk, tv in term.coeffs.items():
            s = acc.get(tk, 0j) + c * tv
            if s == 0:
                acc.pop(tk, None)
            else:
                acc[tk] = s
    res = Jet.__new__(Jet)
    res.n, res.d, res.coeffs = n, d, acc
    return res


def _check_off_cut(c: complex, what: str) -> complex:
    c = complex(c)
    if c == 0:
        raise BranchCutError(f"{what}: constant term is zero")
    if c.imag == 0 and c.real < 0:
        raise BranchCutError(f"{what}: constant term {c} lies on the cut (-inf, 0]")
    return c


def _unit_deviation(a: Jet) -> Jet:
    """Return a/a(0) - 1, a jet with zero constant term."""
    c = a.constant_term
    u = a * (1.0 / c)
    table = dict(u.coeffs)
    table.pop((0,) * a.n, None)
    res = Jet.__new__(Jet)
    res.n, res.d, res.coeffs = a.n, a.d, table
    return res


def jet_log(a: Jet) -> Jet:
    """Principal-branch logarithm of a jet with constant term off (-inf, 0]."""
    c = _check_off_cut(a.constant_term, "jet_log")
    u = _unit_deviation(a)
    out = Jet.constant(a.n, a.d, cmath.log(c))
    power = u
    for k in range(1, a.d + 1):
        out = out + power * (((-1) ** (k + 1)) / k)
        if k < a.d:
            power = _mul(power, u)
    return out


def jet_pow(a: Jet, p: complex) -> Jet:
    """Principal-branch power ``a**p`` for complex exponent ``p``."""
    c = _check_off_cut(a.constant_term, "jet_pow")
    p = complex(p)
    u = _unit_deviation(a)
    scale = cmath.exp(p * cmath.log(c))
    out = Jet.constant(a.n, a.d, 1.0)
    power = u
    binom = 1.0 + 0j
    for k in range(1, a.d + 1):
        binom *= (p - (k - 1)) / k
        out = out + power * binom
        if k < a.d:
            power = _mul(power, u)
    return out * scale


def jet_reciprocal(a: Jet) -> Jet:
    """1/a via the finite geometric series; requires a(0) != 0 (no branch cut)."""
    c = a.constant_term
    if c == 0:
        raise VanishingDenominatorError("reciprocal of a jet with zero constant term")
    u = _unit_deviation(a)
    out = Jet.constant(a.n, a.d, 1.0)
    power = u
    sign = -1.0
    for k in range(1, a.d + 1):
        out = out + power * sign
        sign = -sign
        if k < a.d:
            power = _mul(power, u)
    return out * (1.0 / c)


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
        return np.stack([j.derivatives(order) for j in self.jets])

    def linear_matrix(self) -> np.ndarray:
        """Matrix L with L[i, j] = d(component_i)/d(z_j) at the center."""
        return self.derivatives(1)

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
            nj = Jet.__new__(Jet)
            nj.n, nj.d, nj.coeffs = j.n, j.d, table
            out.append(nj)
        return JetVector(out)

    def truncate(self, d: int) -> "JetVector":
        return JetVector(j.truncate(d) for j in self.jets)


class JetMatrix:
    """Rectangular grid of jets sharing (n, d)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Jet]]):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise DimensionError("empty jet matrix")
        width = len(rows[0])
        n, d = rows[0][0].n, rows[0][0].d
        for r in rows:
            if len(r) != width:
                raise DimensionError("ragged jet matrix")
            for j in r:
                if not isinstance(j, Jet) or j.n != n or j.d != d:
                    raise DimensionError("jet matrix entries do not share (n, d)")
        self.rows = rows

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]))

    @property
    def n(self) -> int:
        return self.rows[0][0].n

    @property
    def d(self) -> int:
        return self.rows[0][0].d

    def __getitem__(self, ij: tuple[int, int]) -> Jet:
        i, j = ij
        return self.rows[i][j]


def jet_jacobian(jv: JetVector) -> JetMatrix:
    """Jacobian matrix of jets, entry (i, j) = d(component_i)/d(z_j)."""
    return JetMatrix([[jet_partial(jv[i], j) for j in range(jv.n)] for i in range(len(jv))])


def jet_det(matrix: JetMatrix) -> Jet:
    """Determinant of a square jet matrix by first-row expansion with memoized minors."""
    rows, cols = matrix.shape
    if rows != cols:
        raise DimensionError("determinant of a non-square jet matrix")
    n, d = matrix.n, matrix.d
    cache: dict[tuple[int, tuple[int, ...]], Jet] = {}

    def minor(r: int, cs: tuple[int, ...]) -> Jet:
        if r == rows:
            return Jet.constant(n, d, 1.0)
        key = (r, cs)
        hit = cache.get(key)
        if hit is not None:
            return hit
        acc = Jet.zero(n, d)
        sign = 1.0
        for pos, c in enumerate(cs):
            entry = matrix.rows[r][c]
            if entry.coeffs:
                sub = minor(r + 1, cs[:pos] + cs[pos + 1:])
                acc = acc + _mul(entry, sub) * sign
            sign = -sign
        cache[key] = acc
        return acc

    return minor(0, tuple(range(cols)))


def max_coeff_diff(a: Jet, b: Jet) -> float:
    """Largest absolute coefficient difference (jets must share (n, d))."""
    a._check_same_shape(b)
    keys = set(a.coeffs) | set(b.coeffs)
    return max((abs(a.coeff(k) - b.coeff(k)) for k in keys), default=0.0)
