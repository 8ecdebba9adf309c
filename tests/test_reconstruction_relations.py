"""Exact relations of the cut-off reconstruction that need no second solver.

Each property runs ``cutoff_reconstruct`` with the "projection" policy on
a rod and compares it with itself on transformed input: the mirrored rod
(layers swapped, data reflected x -> -x), and a linear combination of two
data sets.  Rods sweep K and kappa in [0.1, 10] and lengths in [0.2, 5];
data are smooth (a Gaussian bump on a constant, or a cosine), sampled on
20-120 nodes per slab.  N_eps is drawn strictly between two decay rates,
a quarter of their gap or more away from each, so both sides keep the
same retained count k, and tf puts lambda_bar_k tf in [0.1, 3], so the
largest amplification exp(lambda_bar (tf - t)) stays below e^3.

The tolerances were fixed before the first run.  Both sides are
reconstructions of the same field to round-off: the mirrored spectrum
agrees to 1e-12 relative (``test_rod_identities``), the Gram solves add
cond * eps.  So the gap may be 1e-9 of the largest amplification times
the data's size (for linearity, of |alpha| u plus |beta| v).
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twoslab.basis import build_basis
from twoslab.core import Grid, Material, RegParams, SampledField, SlabSystem, uniform_grid
from twoslab.eigensolver import cutoff_mode_count
from twoslab.evolve import cutoff_reconstruct, retained_modes

RTOL = 1e-9

coefficient = st.floats(min_value=-1.0, max_value=1.0).map(lambda e: 10.0**e)
length = st.floats(min_value=0.2, max_value=5.0)
material = st.builds(Material, K=coefficient, kappa=coefficient)
rod = st.builds(SlabSystem, b=length, a=length, mat_b=material, mat_a=material)
# (retained count, position of N_eps in its gap, lambda_bar_k tf, t in [t0, tf] as a fraction)
cutoff = st.tuples(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.25, max_value=0.75),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
)
nodes = st.integers(min_value=20, max_value=120)
unit = st.floats(min_value=0.0, max_value=1.0)
# a smooth profile on [-b, a]: (constant, height, centre, width) or (amplitude, wave count)
bump = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), unit, st.floats(0.05, 1.0))
wave = st.tuples(st.floats(-2.0, 2.0), st.integers(min_value=0, max_value=6))
weight = st.floats(min_value=-3.0, max_value=3.0)

RELATION_SETTINGS = settings(max_examples=25, derandomize=True)


def _posed(sys, k, where, decay, when):
    """The rod with tf set, the cut-off keeping k modes, and the time t."""
    lam = build_basis(sys, k + 1).lambda_bar
    sys = replace(sys, tf=decay / float(lam[k]))
    n_eps = float(lam[k - 1] + where * (lam[k] - lam[k - 1]))
    return sys, RegParams(1e-3, 1.0, 1.0, n_eps), sys.t0 + when * sys.window


def _reconstruct(sys, field, reg, t):
    basis = build_basis(sys, cutoff_mode_count(sys, reg.n_eps))
    return cutoff_reconstruct(basis, field, reg, t, policy="projection"), basis


def _bump(sys, x, shape):
    base, height, centre, width = shape
    x0, w = -sys.b + centre * (sys.a + sys.b), width * (sys.a + sys.b)
    return base + height * np.exp(-(((x - x0) / w) ** 2))


def _wave(sys, x, shape):
    amplitude, count = shape
    return amplitude * np.cos(count * math.pi * (x + sys.b) / (sys.a + sys.b))


def _sample(sys, grid, profile, shape, time):
    return SampledField(
        grid, profile(sys, grid.nodes_b, shape), profile(sys, grid.nodes_a, shape), time
    )


def _gap_allowed(sys, reg, t, basis, size):
    """RTOL times the largest amplification of a retained mode times the data's size."""
    k = retained_modes(basis, reg.n_eps)
    return RTOL * math.exp(float(basis.lambda_bar[k - 1]) * (sys.tf - t)) * size


@RELATION_SETTINGS
@given(rod, cutoff, nodes, bump)
def test_mirrored_rod_reconstructs_the_reflected_field(sys, pose, n, shape):
    sys, reg, t = _posed(sys, *pose)
    grid = uniform_grid(sys, n)
    field = _sample(sys, grid, _bump, shape, sys.tf)
    mirror = replace(sys, b=sys.a, a=sys.b, mat_b=sys.mat_a, mat_a=sys.mat_b)
    # x -> -x maps the right slab's nodes onto the mirror's left slab, and back
    flipped = Grid(0.0 - grid.nodes_a[::-1], 0.0 - grid.nodes_b[::-1])
    reflected = SampledField(flipped, field.values_a[::-1], field.values_b[::-1], sys.tf)
    got, basis = _reconstruct(sys, field, reg, t)
    seen, mirror_basis = _reconstruct(mirror, reflected, reg, t)
    k = retained_modes(basis, reg.n_eps)
    assert retained_modes(mirror_basis, reg.n_eps) == k == pose[0]
    size = max(np.abs(field.values_b).max(), np.abs(field.values_a).max())
    allowed = _gap_allowed(sys, reg, t, basis, size)
    assert np.abs(seen.values_b[::-1] - got.values_a).max() <= allowed
    assert np.abs(seen.values_a[::-1] - got.values_b).max() <= allowed


@RELATION_SETTINGS
@given(rod, cutoff, nodes, bump, wave, weight, weight)
def test_reconstruction_is_linear_in_the_data(sys, pose, n, u_shape, v_shape, alpha, beta):
    sys, reg, t = _posed(sys, *pose)
    grid = uniform_grid(sys, n)
    u = _sample(sys, grid, _bump, u_shape, sys.tf)
    v = _sample(sys, grid, _wave, v_shape, sys.tf)
    mixed = SampledField(
        grid, alpha * u.values_b + beta * v.values_b, alpha * u.values_a + beta * v.values_a, sys.tf
    )
    got_u, basis = _reconstruct(sys, u, reg, t)
    got_v, _ = _reconstruct(sys, v, reg, t)
    got, _ = _reconstruct(sys, mixed, reg, t)
    assert retained_modes(basis, reg.n_eps) == pose[0]

    def size(f):
        return max(np.abs(f.values_b).max(), np.abs(f.values_a).max())

    allowed = _gap_allowed(sys, reg, t, basis, abs(alpha) * size(u) + abs(beta) * size(v))
    assert np.abs(got.values_b - (alpha * got_u.values_b + beta * got_v.values_b)).max() <= allowed
    assert np.abs(got.values_a - (alpha * got_u.values_a + beta * got_v.values_a)).max() <= allowed
