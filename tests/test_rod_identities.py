"""Exact identities of the rod spectrum that need no second solver.

Each property compares find_eigenvalues with itself on a transformed rod
(a mirror, a rescaling, equal layers, a perturbed conductivity), over a
sweep of admissible materials and geometries: K and kappa in [1e-3, 1e3],
b and a in [1e-2, 1e2], up to 200 modes.  The tolerances are relative.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twoslab.core import Material, SlabSystem
from twoslab.eigensolver import find_eigenvalues

# relative round-off allowed between two computed spectra
RTOL = 1e-12

coefficient = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)
length = st.floats(min_value=-2.0, max_value=2.0).map(lambda e: 10.0**e)
material = st.builds(Material, K=coefficient, kappa=coefficient)
rod = st.builds(SlabSystem, b=length, a=length, mat_b=material, mat_a=material)
top_index = st.integers(min_value=0, max_value=199)

ROD_SETTINGS = settings(max_examples=40, derandomize=True)


def _lambda_bars(sys: SlabSystem, N: int) -> np.ndarray:
    return np.array([p.lambda_bar for p in find_eigenvalues(sys, N)])


def _assert_close(got: np.ndarray, want: np.ndarray, slack: float = 0.0) -> None:
    """|got - want| <= (slack + RTOL) * want, mode for mode (lambda_bar_0 = 0 exactly)."""
    assert got.shape == want.shape
    gap = np.abs(got - want)
    worst = int(np.argmax(gap - (slack + RTOL) * want))
    assert np.all(gap <= (slack + RTOL) * want), (
        f"mode {worst}: {got[worst]!r} vs {want[worst]!r}"
    )


@ROD_SETTINGS
@given(rod, top_index)
def test_mirrored_rod_has_the_same_spectrum(sys, N):
    mirror = SlabSystem(b=sys.a, a=sys.b, mat_b=sys.mat_a, mat_a=sys.mat_b)
    _assert_close(_lambda_bars(mirror, N), _lambda_bars(sys, N))


@ROD_SETTINGS
@given(rod, top_index)
def test_lengths_times_three_divide_the_spectrum_by_nine(sys, N):
    longer = SlabSystem(b=3.0 * sys.b, a=3.0 * sys.a, mat_b=sys.mat_b, mat_a=sys.mat_a)
    _assert_close(_lambda_bars(longer, N) * 9.0, _lambda_bars(sys, N))


@ROD_SETTINGS
@given(rod, top_index)
def test_both_conductivities_times_seven_leave_the_spectrum(sys, N):
    def stiffer(mat):
        return Material(K=7.0 * mat.K, kappa=mat.kappa)

    scaled = SlabSystem(b=sys.b, a=sys.a, mat_b=stiffer(sys.mat_b), mat_a=stiffer(sys.mat_a))
    _assert_close(_lambda_bars(scaled, N), _lambda_bars(sys, N))


@ROD_SETTINGS
@given(material, length, length, top_index)
def test_equal_layers_have_the_homogeneous_rod_spectrum(mat, b, a, N):
    # one material on [-b, a]: lambda_bar_n = kappa (n pi / (a + b))^2, n = 0, 1, ...
    want = mat.kappa * (np.arange(N + 1) * np.pi / (a + b)) ** 2
    _assert_close(_lambda_bars(SlabSystem(b=b, a=a, mat_b=mat, mat_a=mat), N), want)


@ROD_SETTINGS
@given(rod, top_index, st.floats(min_value=-6.0, max_value=-1.0).map(lambda e: 10.0**e))
def test_conductivity_change_moves_each_eigenvalue_by_at_most_its_share(sys, N, delta):
    # K_b -> (1 + delta) K_b scales the layer's stiffness and capacity K_b/kappa_b
    # alike, so every Rayleigh quotient moves by a factor in [1/(1+delta), 1+delta]
    # and, by min-max, |lambda_bar_n' - lambda_bar_n| <= delta lambda_bar_n
    mat_b = Material(K=(1.0 + delta) * sys.mat_b.K, kappa=sys.mat_b.kappa)
    moved = SlabSystem(b=sys.b, a=sys.a, mat_b=mat_b, mat_a=sys.mat_a)
    _assert_close(_lambda_bars(moved, N), _lambda_bars(sys, N), slack=delta)
