import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twoslab.core import (
    Grid,
    Material,
    RegParams,
    SampledField,
    SlabSystem,
    ValidationError,
    cutoff_threshold,
    trapezoid_norm,
    uniform_grid,
)


def test_material_rho_c_is_conductivity_over_diffusivity():
    m = Material(K=3.42, kappa=0.838)
    assert m.rho_c == pytest.approx(3.42 / 0.838, rel=1e-15)


def test_material_rho_c_override_wins():
    m = Material(K=3.42, kappa=0.838, rho_c_override=0.838)
    assert m.rho_c == 0.838


@pytest.mark.parametrize("kwargs", [
    dict(K=0.0, kappa=1.0),
    dict(K=1.0, kappa=-2.0),
    dict(K=1.0, kappa=1.0, rho_c_override=0.0),
])
def test_material_rejects_nonpositive_parameters(kwargs):
    with pytest.raises(ValidationError):
        Material(**kwargs)


def test_system_window_and_ratio(sys_cm):
    assert sys_cm.window == pytest.approx(0.1)
    assert sys_cm.kappa_ratio_root() == pytest.approx(1.572252015797703, rel=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(b=-5.0, a=3.0),
    dict(b=5.0, a=0.0),
    dict(b=5.0, a=3.0, tf=0.0, t0=0.0),
    dict(b=5.0, a=3.0, c=-1.0),
])
def test_system_rejects_bad_geometry(kwargs):
    mats = dict(mat_b=Material(K=1.0, kappa=1.0), mat_a=Material(K=1.0, kappa=1.0))
    with pytest.raises(ValidationError):
        SlabSystem(**kwargs, **mats)


def test_grid_arrays_are_readonly(sys_cm):
    g = uniform_grid(sys_cm, 5)
    with pytest.raises(ValueError):
        g.nodes_b[0] = 1.0


def test_fields_and_grids_own_their_arrays():
    nodes_b = np.linspace(-5.0, 0.0, 5)
    grid = Grid(nodes_b, np.linspace(0.0, 3.0, 5))
    # the field's values are views of one writable array
    values = np.arange(10.0)
    field = SampledField(grid, values[:5], values[5:], 0.0)
    assert values.flags.writeable and nodes_b.flags.writeable
    values[0] = 7.0
    nodes_b[0] = -4.5
    assert field.values_b[0] == 0.0 and grid.nodes_b[0] == -5.0
    with pytest.raises(ValueError):
        field.values_b[0] = 1.0


def test_grid_rejects_decreasing_or_missigned_nodes():
    with pytest.raises(ValidationError):
        Grid(np.array([-1.0, -2.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        Grid(np.array([-1.0, 0.5]), np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        Grid(np.array([-1.0, 0.0]), np.array([-0.5, 1.0]))


@given(n=st.integers(min_value=2, max_value=200))
def test_uniform_grid_endpoints_and_spacing(n):
    s = SlabSystem(b=5.0, a=3.0,
                   mat_b=Material(K=1.0, kappa=1.0), mat_a=Material(K=1.0, kappa=1.0))
    g = uniform_grid(s, n)
    assert len(g.nodes_b) == n and len(g.nodes_a) == n
    assert g.nodes_b[0] == -s.b and g.nodes_b[-1] == 0.0
    assert g.nodes_a[0] == 0.0 and g.nodes_a[-1] == s.a
    assert np.allclose(np.diff(g.nodes_b), s.b / (n - 1), rtol=1e-12)
    assert np.allclose(np.diff(g.nodes_a), s.a / (n - 1), rtol=1e-12)


def test_uniform_grid_single_node_is_midpoints(sys_cm):
    g = uniform_grid(sys_cm, 1)
    assert g.nodes_b.tolist() == [-2.5]
    assert g.nodes_a.tolist() == [1.5]


def test_uniform_grid_rejects_zero_points(sys_cm):
    with pytest.raises(ValidationError):
        uniform_grid(sys_cm, 0)


def test_sampled_field_shape_checks(sys_cm):
    g = uniform_grid(sys_cm, 4)
    with pytest.raises(ValidationError):
        SampledField(g, np.zeros(3), np.zeros(4), 0.0)


def test_trapezoid_norm_constant_field(sys_cm):
    g = uniform_grid(sys_cm, 30)
    f = SampledField(g, np.full(30, 2.0), np.full(30, -3.0), 0.0)
    nb, na = trapezoid_norm(f)
    assert nb == pytest.approx(2.0 * math.sqrt(sys_cm.b), rel=1e-12)
    assert na == pytest.approx(3.0 * math.sqrt(sys_cm.a), rel=1e-12)


def test_cutoff_threshold_reference_values():
    # beta*gamma*ln(1/eps)/tf for the experiment parameters
    assert cutoff_threshold(1e-2, 0.05, 0.5, 0.1) == pytest.approx(1.151292546497023, rel=1e-12)
    assert cutoff_threshold(1e-4, 0.05, 0.5, 0.1) == pytest.approx(2.302585092994046, rel=1e-12)
    assert cutoff_threshold(1e-6, 0.05, 0.5, 0.1) == pytest.approx(3.453877639491068, rel=1e-12)


@pytest.mark.parametrize("args", [
    (0.0, 0.05, 0.5, 0.1),
    (1.0, 0.05, 0.5, 0.1),
    (1e-2, 0.0, 0.5, 0.1),
    (1e-2, 0.05, -1.0, 0.1),
    (1e-2, 0.05, 0.5, 0.0),
])
def test_cutoff_threshold_rejects_bad_parameters(args):
    with pytest.raises(ValidationError):
        cutoff_threshold(*args)


@given(
    eps=st.floats(min_value=1e-12, max_value=0.99),
    factor=st.floats(min_value=1.01, max_value=100.0),
)
def test_cutoff_threshold_grows_as_noise_shrinks(eps, factor):
    lo = cutoff_threshold(eps, 0.05, 0.5, 0.1)
    hi = cutoff_threshold(eps / factor, 0.05, 0.5, 0.1)
    assert hi > lo


def test_reg_params_from_rule_matches_threshold():
    reg = RegParams.from_rule(1e-4, 0.05, 0.5, 0.1)
    assert reg.n_eps == cutoff_threshold(1e-4, 0.05, 0.5, 0.1)
    assert reg.epsilon == 1e-4


def test_reg_params_rejects_negative_threshold():
    with pytest.raises(ValidationError):
        RegParams(epsilon=0.5, beta=0.05, gamma=0.5, n_eps=-1.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_inputs_are_rejected(value):
    mat = Material(K=1.0, kappa=1.0)
    with pytest.raises(ValidationError, match="finite"):
        Material(K=value, kappa=1.0)
    with pytest.raises(ValidationError, match="finite"):
        Material(K=1.0, kappa=1.0, rho_c_override=value)
    with pytest.raises(ValidationError, match="finite"):
        SlabSystem(b=value, a=1.0, mat_b=mat, mat_a=mat)
    with pytest.raises(ValidationError, match="finite"):
        SlabSystem(b=1.0, a=1.0, mat_b=mat, mat_a=mat, tf=value)
    with pytest.raises(ValidationError, match="finite"):
        cutoff_threshold(1e-2, value, 0.5, 0.1)
