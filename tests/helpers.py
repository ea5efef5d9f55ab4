"""Reference helpers shared by the unit tests; not part of the package."""

import numpy as np

from schwarzball.family import koebe_map, normalize_map
from schwarzball.maps import (
    MoebiusMap,
    automorphism_from_center,
    random_ball_point,
    random_normalized_polymap,
)


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


def normalized_samples(n, rng):
    """Labelled normalized maps of each kind: polynomial, Moebius z / (1 - <z, c>),
    a normalized automorphism and a polynomial map composed with an automorphism."""
    c = random_ball_point(n, rng, 0.8)
    grid = np.eye(n + 1, dtype=complex)
    grid[0, 1:] = -np.conj(c)
    return [
        ("poly", random_normalized_polymap(n, rng, scale=0.15)),
        ("moebius", MoebiusMap(grid)),
        ("automorphism", normalize_map(automorphism_from_center(random_ball_point(n, rng, 0.6)))[0]),
        ("poly o automorphism",
         koebe_map(random_normalized_polymap(n, rng, scale=0.15), random_ball_point(n, rng, 0.5))),
    ]
