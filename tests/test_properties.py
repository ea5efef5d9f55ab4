"""Property tests on drawn inputs: Moebius vanishing, the chain rule, the
batched tensor route against the jet route, norm invariance under ball
automorphisms at arbitrary centers, and the bracket around the exact
pointwise norm at n = 2.

Arrays are drawn at the largest dimension (n = 3) and cut down to the drawn
n, so explicit examples can pin the extreme inputs.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schwarzball import checks
from schwarzball.bergman import (
    _ascend,
    _pullback,
    _sym_upper,
    max_quadratic_image_norm,
    metric_at,
)
from schwarzball.jets import multi_indices
from schwarzball.maps import (
    CompositionMap,
    MoebiusMap,
    PolyMap,
    automorphism_from_center,
    map_jet_at,
)
from schwarzball.schwarzian import schwarzian_at, schwarzian_of

dims = st.integers(min_value=2, max_value=3)
CUBIC_TERMS = 16  # monomials of degree 2 and 3 in three variables


def complex_arrays(shape, bound):
    """Complex arrays with real and imaginary parts in [-bound, bound]."""
    size = int(np.prod(shape))
    part = st.floats(min_value=-bound, max_value=bound)
    return st.lists(part, min_size=2 * size, max_size=2 * size).map(
        lambda xs: (np.array(xs[:size]) + 1j * np.array(xs[size:])).reshape(shape)
    )


cubic_coeffs = complex_arrays((3, CUBIC_TERMS), 0.1)
vectors = complex_arrays((3,), 1.0)


def normalized_cubic(coeffs, n):
    """z + degree 2 and 3 terms taken from the rows of ``coeffs``."""
    keys = [k for k in multi_indices(n, 3) if sum(k) >= 2]
    comps = []
    for i in range(n):
        table = {tuple(int(k == i) for k in range(n)): 1.0}
        table.update(zip(keys, coeffs[i]))
        comps.append(table)
    return PolyMap(n, comps)


def ball_point(v, n, r_max):
    """The first n entries of v, shrunk onto |z| <= r_max if longer."""
    v = v[:n]
    norm = np.linalg.norm(v)
    return v * (r_max / norm) if norm > r_max else v


@settings(max_examples=40)
@given(n=dims, perturbation=complex_arrays((4, 4), 0.25), point=vectors)
def test_moebius_tensors_vanish_on_drawn_grids(n, perturbation, point):
    grid = np.eye(n + 1) + perturbation[: n + 1, : n + 1]
    assume(np.linalg.svd(grid, compute_uv=False)[-1] >= 0.2)
    t = schwarzian_of(MoebiusMap(grid), ball_point(point, n, 0.5))
    assert t.max_abs() <= 1e-9


@settings(max_examples=30)
@given(n=dims, f_coeffs=cubic_coeffs, g_coeffs=cubic_coeffs, point=vectors)
def test_chain_rule_on_drawn_cubic_pairs(n, f_coeffs, g_coeffs, point):
    f, g = normalized_cubic(f_coeffs, n), normalized_cubic(g_coeffs, n)
    assert max(checks.chain_rule([(f, g, ball_point(point, n, 0.3))]).values()) <= 1e-9


@settings(max_examples=25)
@given(n=dims, coeffs=cubic_coeffs, center=vectors, points=complex_arrays((4, 3), 1.0))
def test_batched_tensors_match_the_jet_route(n, coeffs, center, points):
    f = normalized_cubic(coeffs, n)
    sigma = automorphism_from_center(ball_point(center, n, 0.6))
    points = np.array([ball_point(z, n, 0.3) for z in points])
    for m in (f, sigma, CompositionMap((f, sigma))):
        batch = schwarzian_of(m, points)
        for z, sk, s0 in zip(points, batch.Sk, batch.S0):
            jet = schwarzian_at(map_jet_at(m, z, 3), z=z)
            scale = max(1.0, jet.max_abs())
            assert np.max(np.abs(sk - jet.Sk)) <= 1e-12 * scale
            assert np.max(np.abs(s0 - jet.S0)) <= 1e-12 * scale


EXTREME = dict(direction=np.ones(3, dtype=complex), coeffs=np.full((3, CUBIC_TERMS), 0.1 - 0.1j),
               point=np.array([0.5, -0.5j, 0.3]))


@settings(max_examples=12)
@given(
    n=dims,
    radius=st.floats(min_value=0.0, max_value=0.95),
    off_axis=st.sampled_from([0.0, 1e-12, 1e-6, 1.0]),
    direction=vectors,
    coeffs=cubic_coeffs,
    point=vectors,
)
@example(n=3, radius=0.95, off_axis=1e-12, **EXTREME)
@example(n=2, radius=0.95, off_axis=1.0, **EXTREME)
def test_norm_invariance_through_automorphisms_at_any_center(
    n, radius, off_axis, direction, coeffs, point
):
    u = direction[:n].copy()
    u[0] += 2.0  # keeps |u_0| > 1/2, so u never vanishes
    u[1:] *= off_axis
    sigma = automorphism_from_center(radius * u / np.linalg.norm(u))
    z = ball_point(point, n, 0.5)
    assert checks.invariance([(normalized_cubic(coeffs, n), sigma, z)])["norm"] <= 1e-6


@settings(max_examples=40)
@given(
    s=complex_arrays((2, 2, 2), 1.0),
    exponent=st.integers(min_value=-8, max_value=2),
    z=vectors,
    directions=complex_arrays((8, 2), 1.0),
)
@example(s=np.array([np.eye(2), np.zeros((2, 2))], dtype=complex), exponent=0,
         z=np.zeros(3, dtype=complex), directions=np.eye(8, 2, dtype=complex))
def test_exact_norm_at_n2_is_bracketed(s, exponent, z, directions):
    s = 10.0**exponent * 0.5 * (s + np.swapaxes(s, 1, 2))
    g = metric_at(ball_point(z, 2, 0.9)).g
    value, _, _ = max_quadratic_image_norm(s, g)
    # no direction beats the exact value, nor does the ascent; the upper end holds
    for v in directions:
        q_in = np.real(np.conj(v) @ g.T @ v)
        if q_in == 0:
            continue
        u = np.einsum("kab,a,b->k", s, v, v) / q_in
        assert np.sqrt(np.real(np.conj(u) @ g.T @ u)) <= value * (1 + 1e-12) + 1e-300
    frame = _pullback(s[None], g[None])
    searched = _ascend(frame, 4, 0, 500)[0][0]
    assert searched <= value * (1 + 1e-12) + 1e-300
    assert value <= _sym_upper(frame)[0] * (1 + 1e-12) + 1e-300
