"""Reference helpers shared by the unit tests; not part of the package."""

import numpy as np

from schwarzball.maps import MoebiusMap


def max_coeff_diff(a, b):
    """Largest absolute coefficient difference of two jets sharing (n, d)."""
    assert (a.n, a.d) == (b.n, b.d)
    keys = set(a.coeffs) | set(b.coeffs)
    return max((abs(a.coeff(k) - b.coeff(k)) for k in keys), default=0.0)


def quadratic_image(t, v):
    """The tensor's quadratic-form operator value (v^t S^1 v, ..., v^t S^n v)."""
    return np.einsum("kij,i,j->k", t.Sk, v, v)


def unitary_automorphism(u):
    """The ball automorphism z -> Uz of a unitary U, as a Moebius grid."""
    a = np.eye(len(u) + 1, dtype=complex)
    a[1:, 1:] = u
    return MoebiusMap(a)
