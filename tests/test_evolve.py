import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given
from hypothesis import strategies as st

import oracles
from twoslab.basis import build_basis, slab_grams
from twoslab.core import (
    AmplificationOverflowError,
    RegParams,
    SampledField,
    ValidationError,
    trapezoid_norm,
    uniform_grid,
)
from twoslab.evolve import (
    SourceCoefficients,
    _cutoff_gain,
    admissible_set,
    cutoff_reconstruct,
    forward_solve,
    instability_lower_bound,
    noise_gap_bound,
    nonhomogeneous_solve,
    simpson,
    source_coefficients,
    source_compatibility,
    stability_bound,
)
from twoslab.spectral import CoeffVector, project_coefficients, recover_coefficients, synthesize


def _mode_coeffs(basis, n, value, count=None):
    count = len(basis) if count is None else count
    c = np.zeros(count)
    c[n] = value
    return CoeffVector(basis=basis, c_b=c, c_a=c.copy())


def test_admissible_set_is_inclusive_prefix(basis_cm):
    lam2 = basis_cm.modes[2].pair.lambda_bar
    adm = admissible_set(basis_cm, lam2)
    assert adm.indices == (0, 1, 2)


@given(n_eps=st.floats(min_value=0.0, max_value=10.0))
def test_admissible_set_properties(basis_cm, n_eps):
    adm = admissible_set(basis_cm, n_eps)
    assert adm.indices == tuple(range(len(adm)))
    lam = basis_cm.lambda_bars()
    assert all(lam[i] <= n_eps for i in adm.indices)
    if len(adm) < len(basis_cm):
        assert lam[len(adm)] > n_eps


def test_forward_solve_decays_each_mode(basis_cm, sys_cm, grid_cm):
    cv = _mode_coeffs(basis_cm, 3, 0.8)
    init = synthesize(basis_cm, cv, sys_cm.tf, grid_cm)  # plain series values
    init = SampledField(grid_cm, init.values_b, init.values_a, sys_cm.t0)
    final = forward_solve(basis_cm, init, grid_cm, 8, policy="projection")
    decay = math.exp(-basis_cm.modes[3].pair.lambda_bar * sys_cm.window)
    assert np.allclose(final.values_b, decay * init.values_b, atol=1e-10)
    assert np.allclose(final.values_a, decay * init.values_a, atol=1e-10)
    assert final.time == sys_cm.tf


def test_forward_solve_callable_route_matches_field_route(basis_cm, sys_cm, grid_cm):
    f = lambda x: np.cos(0.3 * np.asarray(x, dtype=float))
    field = SampledField(grid_cm, f(grid_cm.nodes_b), f(grid_cm.nodes_a), sys_cm.t0)
    via_field = forward_solve(basis_cm, field, grid_cm, 6, policy="projection")
    via_calls = forward_solve(basis_cm, (f, f), grid_cm, 6, policy="projection")
    assert np.allclose(via_field.values_b, via_calls.values_b, atol=1e-13)
    assert np.allclose(via_field.values_a, via_calls.values_a, atol=1e-13)


def test_round_trip_reproduces_spanned_initial(basis_cm, sys_cm, grid_cm):
    reg = RegParams.from_rule(1e-4, 0.05, 0.5, sys_cm.tf)
    m = len(admissible_set(basis_cm, reg.n_eps))
    c = np.zeros(8)
    c[:m] = np.random.default_rng(7).uniform(-1, 1, m)
    cv = CoeffVector(basis=basis_cm, c_b=c, c_a=c.copy())
    init = synthesize(basis_cm, cv, sys_cm.tf, grid_cm)
    init = SampledField(grid_cm, init.values_b, init.values_a, sys_cm.t0)
    final = forward_solve(basis_cm, init, grid_cm, m, policy="projection")
    recon = cutoff_reconstruct(basis_cm, final, reg, sys_cm.t0, policy="projection")
    assert np.max(np.abs(recon.values_b - init.values_b)) < 1e-10
    assert np.max(np.abs(recon.values_a - init.values_a)) < 1e-10


def test_cutoff_reconstruct_rejects_time_outside_window(basis_cm, sys_cm, grid_cm):
    reg = RegParams.from_rule(1e-4, 0.05, 0.5, sys_cm.tf)
    field = SampledField(grid_cm, np.zeros(40), np.zeros(40), sys_cm.tf)
    with pytest.raises(ValidationError):
        cutoff_reconstruct(basis_cm, field, reg, sys_cm.tf + 0.1)


def test_instability_zero_coefficients(basis_cm, sys_cm):
    lhs, rhs = instability_lower_bound(basis_cm, _mode_coeffs(basis_cm, 0, 0.0), sys_cm.t0)
    assert lhs == 0.0 and rhs == 0.0


def test_instability_single_mode_closed_form(basis_cm, sys_cm):
    # one retained mode makes both sides analytic
    n, cval, t = 2, 0.6, sys_cm.t0
    coeffs = _mode_coeffs(basis_cm, n, cval)
    lhs, rhs = instability_lower_bound(basis_cm, coeffs, t)
    amp2 = math.exp(2 * basis_cm.modes[n].pair.lambda_bar * (sys_cm.tf - t))
    Gb, Ga = slab_grams(basis_cm)
    wmax = max(sys_cm.mat_b.K / sys_cm.mat_b.kappa, sys_cm.mat_a.K / sys_cm.mat_a.kappa, 1.0)
    assert lhs == pytest.approx(cval**2 * amp2 * (Gb[n, n] + Ga[n, n]), rel=1e-10)
    assert rhs == pytest.approx(cval**2 * amp2 * basis_cm.modes[n].norm_N / wmax, rel=1e-12)
    assert lhs >= rhs


def test_stability_zero_data(basis_cm, sys_cm, grid_cm):
    reg = RegParams.from_rule(1e-2, 0.05, 0.5, sys_cm.tf)
    zero = SampledField(grid_cm, np.zeros(40), np.zeros(40), sys_cm.tf)
    lhs, rhs = stability_bound(basis_cm, zero, reg, sys_cm.t0)
    assert lhs == 0.0 and rhs == 0.0


def test_stability_single_mode(basis_cm, sys_cm):
    grid = uniform_grid(sys_cm, 200)
    reg = RegParams.from_rule(1e-4, 0.05, 0.5, sys_cm.tf)
    cval = 0.4
    final = synthesize(basis_cm, _mode_coeffs(basis_cm, 1, cval), sys_cm.tf, grid)
    lhs, rhs = stability_bound(basis_cm, final, reg, sys_cm.t0)
    amp2 = math.exp(2 * basis_cm.modes[1].pair.lambda_bar * sys_cm.window)
    Gb, Ga = slab_grams(basis_cm)
    assert lhs == pytest.approx(cval**2 * amp2 * (Gb[1, 1] + Ga[1, 1]), rel=1e-3)
    assert lhs <= rhs


def test_noise_gap_zero_perturbation(basis_cm, sys_cm, grid_cm):
    reg = RegParams.from_rule(1e-2, 0.05, 0.5, sys_cm.tf)
    f = SampledField(grid_cm, np.ones(40), np.ones(40), sys_cm.tf)
    lhs, rhs = noise_gap_bound(basis_cm, f, f, reg, sys_cm.t0)
    assert lhs == 0.0
    assert rhs > 0.0


def test_noise_gap_rejects_oversized_perturbation(basis_cm, sys_cm, grid_cm):
    reg = RegParams.from_rule(1e-6, 0.05, 0.5, sys_cm.tf)
    clean = SampledField(grid_cm, np.zeros(40), np.zeros(40), sys_cm.tf)
    noisy = SampledField(grid_cm, np.full(40, 0.1), np.zeros(40), sys_cm.tf)
    with pytest.raises(ValidationError):
        noise_gap_bound(basis_cm, clean, noisy, reg, sys_cm.t0)


def test_noise_gap_rejects_grid_mismatch(basis_cm, sys_cm, grid_cm):
    reg = RegParams.from_rule(1e-2, 0.05, 0.5, sys_cm.tf)
    other = uniform_grid(sys_cm, 41)
    clean = SampledField(grid_cm, np.zeros(40), np.zeros(40), sys_cm.tf)
    noisy = SampledField(other, np.zeros(41), np.zeros(41), sys_cm.tf)
    with pytest.raises(ValidationError):
        noise_gap_bound(basis_cm, clean, noisy, reg, sys_cm.t0)


def test_stability_and_noise_gap_right_hand_sides_follow_their_formulas(basis_cm, sys_cm, grid_cm):
    # both right-hand sides written out from the docstrings:
    # gain = min{w_b, w_a, 1}^-1 * N_eps * exp(2 N_eps (tf-t)), times
    # w_b ||T_b(tf)||^2 + w_a ||T_a(tf)||^2 (stability) or (w_b + w_a) eps^2 (noise gap)
    reg = RegParams.from_rule(1e-4, 0.05, 0.5, sys_cm.tf)
    rng = np.random.default_rng(17)
    final = SampledField(grid_cm, rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40), sys_cm.tf)
    # a constant perturbation at half the budget: its slab norms are level * sqrt(length)
    level = 0.5 * reg.epsilon / (math.sqrt(sys_cm.b) + math.sqrt(sys_cm.a))
    noisy = SampledField(grid_cm, final.values_b + level, final.values_a + level, sys_cm.tf)
    w_b = sys_cm.mat_b.K / sys_cm.mat_b.kappa
    w_a = sys_cm.mat_a.K / sys_cm.mat_a.kappa
    norm_b_sq = np.trapezoid(final.values_b**2, grid_cm.nodes_b)
    norm_a_sq = np.trapezoid(final.values_a**2, grid_cm.nodes_a)
    for t in (sys_cm.t0, 0.5 * (sys_cm.t0 + sys_cm.tf), sys_cm.tf):
        gain = reg.n_eps * math.exp(2.0 * reg.n_eps * (sys_cm.tf - t)) / min(w_b, w_a, 1.0)
        _, rhs = stability_bound(basis_cm, final, reg, t)
        assert rhs == pytest.approx(gain * (w_b * norm_b_sq + w_a * norm_a_sq), rel=1e-14)
        _, rhs = noise_gap_bound(basis_cm, final, noisy, reg, t)
        assert rhs == pytest.approx(gain * (w_b + w_a) * reg.epsilon**2, rel=1e-14)


@pytest.mark.parametrize("n_eps", [0.3545, 0.355])
def test_cutoff_gain_is_refused_only_past_the_exp_range(sys_cm, n_eps):
    # over a window of 1000, 2 N_eps (tf - t0) is 709 (representable) or 710 (not);
    # the retained modes stay far inside the amplification guard
    s = dataclasses.replace(sys_cm, tf=1000.0)
    reg = RegParams(1e-300, 1.0, 1.0, n_eps)
    if n_eps < 0.355:
        want = n_eps * math.exp(2000.0 * n_eps) / min(*s.weights, 1.0)
        assert _cutoff_gain(s, reg, s.t0) == pytest.approx(want, rel=1e-12)
        return
    basis = build_basis(s, 8)
    final = SampledField(uniform_grid(s, 40), np.ones(40), np.ones(40), s.tf)
    for check in (stability_bound, lambda b, f, r, t: noise_gap_bound(b, f, f, r, t)):
        with pytest.raises(AmplificationOverflowError, match="cut-off gain overflow"):
            check(basis, final, reg, s.t0)


def test_bounds_hold_over_seeded_trials(basis_cm, sys_cm, grid_cm):
    # compact version of the command-line Monte Carlo suite
    reg = RegParams.from_rule(1e-4, 0.05, 0.5, sys_cm.tf)
    t_mid = 0.5 * (sys_cm.t0 + sys_cm.tf)
    for trial in range(25):
        rng = np.random.default_rng(900 + trial)
        c = rng.uniform(-1, 1, 8)
        coeffs = CoeffVector(basis=basis_cm, c_b=c, c_a=c.copy())
        final = synthesize(basis_cm, coeffs, sys_cm.tf, grid_cm)
        scale = rng.uniform(0.1, 1.0) * reg.epsilon
        noise_b = rng.standard_normal(40)
        noise_a = rng.standard_normal(40)
        raw = SampledField(grid_cm, noise_b, noise_a, sys_cm.tf)
        db, da = trapezoid_norm(raw)
        factor = scale / (db + da)  # budget is the sum of slab norms
        noisy = SampledField(grid_cm,
                             final.values_b + factor * noise_b,
                             final.values_a + factor * noise_a,
                             sys_cm.tf)
        for t in (sys_cm.t0, t_mid):
            lhs, rhs = instability_lower_bound(basis_cm, coeffs, t)
            assert lhs >= rhs * (1 - 1e-8)
            lhs, rhs = stability_bound(basis_cm, final, reg, t)
            assert lhs <= rhs * (1 + 1e-8)
            lhs, rhs = noise_gap_bound(basis_cm, final, noisy, reg, t)
            assert lhs <= rhs * (1 + 1e-8)


# ---------------------------------------------------------------------------
# source terms


def test_nonhomogeneous_constant_source_closed_form(basis_cm, sys_cm, grid_cm):
    n, C, d = 2, 0.7, 0.3
    lam = basis_cm.modes[n].pair.lambda_bar
    times = np.linspace(sys_cm.t0, sys_cm.tf, 101)
    rows = np.zeros((101, 8))
    rows[:, n] = d
    src = SourceCoefficients(times=times, d_b=rows.copy(), d_a=rows.copy())
    out = nonhomogeneous_solve(basis_cm, _mode_coeffs(basis_cm, n, C), src, sys_cm.t0, grid_cm)
    w = sys_cm.window
    closed = C * math.exp(lam * w) - d * (math.exp(lam * w) - 1.0) / lam
    want_b = closed * basis_cm.phi(n, grid_cm.nodes_b)
    assert np.max(np.abs(out.values_b - want_b)) < 1e-10 * abs(closed)


def test_nonhomogeneous_zero_rate_mode(basis_cm, sys_cm, grid_cm):
    C, d = 0.5, 0.2
    times = np.linspace(sys_cm.t0, sys_cm.tf, 11)
    rows = np.zeros((11, 8))
    rows[:, 0] = d
    src = SourceCoefficients(times=times, d_b=rows.copy(), d_a=rows.copy())
    out = nonhomogeneous_solve(basis_cm, _mode_coeffs(basis_cm, 0, C), src, sys_cm.t0, grid_cm)
    want = (C - d * sys_cm.window) * basis_cm.phi(0, grid_cm.nodes_b)
    assert np.max(np.abs(out.values_b - want)) < 1e-12


def test_nonhomogeneous_zero_source_reduces_to_synthesis(basis_cm, sys_cm, grid_cm):
    times = np.linspace(sys_cm.t0, sys_cm.tf, 5)
    src = SourceCoefficients(times=times, d_b=np.zeros((5, 8)), d_a=np.zeros((5, 8)))
    cv = _mode_coeffs(basis_cm, 3, 0.9)
    t = 0.02
    got = nonhomogeneous_solve(basis_cm, cv, src, t, grid_cm)
    want = synthesize(basis_cm, cv, t, grid_cm)
    assert np.allclose(got.values_b, want.values_b, atol=1e-14)
    assert np.allclose(got.values_a, want.values_a, atol=1e-14)


def test_nonhomogeneous_off_node_time(basis_cm, sys_cm, grid_cm):
    n, C, d = 2, 0.7, 0.3
    lam = basis_cm.modes[n].pair.lambda_bar
    times = np.linspace(sys_cm.t0, sys_cm.tf, 101)
    rows = np.zeros((101, 8))
    rows[:, n] = d
    src = SourceCoefficients(times=times, d_b=rows.copy(), d_a=rows.copy())
    t = 0.5 * (sys_cm.t0 + sys_cm.tf) + 1e-4  # strictly between nodes
    out = nonhomogeneous_solve(basis_cm, _mode_coeffs(basis_cm, n, C), src, t, grid_cm)
    w = sys_cm.tf - t
    closed = C * math.exp(lam * w) - d * (math.exp(lam * w) - 1.0) / lam
    want_b = closed * basis_cm.phi(n, grid_cm.nodes_b)
    assert np.max(np.abs(out.values_b - want_b)) < 1e-9 * abs(closed)


def test_nonhomogeneous_validations(basis_cm, sys_cm, grid_cm):
    times = np.linspace(sys_cm.t0, sys_cm.tf, 5)
    with pytest.raises(ValidationError):
        SourceCoefficients(times=times, d_b=np.zeros((4, 8)), d_a=np.zeros((4, 8)))
    with pytest.raises(ValidationError, match="increasing"):
        # a repeated node would give Simpson a zero-width interval
        SourceCoefficients(times=times[[0, 1, 1, 2, 3]], d_b=np.zeros((5, 8)),
                           d_a=np.zeros((5, 8)))
    src = SourceCoefficients(times=times, d_b=np.zeros((5, 6)), d_a=np.zeros((5, 6)))
    with pytest.raises(ValidationError):
        nonhomogeneous_solve(basis_cm, _mode_coeffs(basis_cm, 0, 1.0), src, sys_cm.t0, grid_cm)
    src8 = SourceCoefficients(times=times, d_b=np.zeros((5, 8)), d_a=np.zeros((5, 8)))
    with pytest.raises(ValidationError):
        # only the last node remains in [t, tf]
        nonhomogeneous_solve(basis_cm, _mode_coeffs(basis_cm, 0, 1.0), src8,
                             times[-1] - 1e-5, grid_cm)
    late = SourceCoefficients(times=times + 0.05, d_b=np.zeros((5, 8)), d_a=np.zeros((5, 8)))
    with pytest.raises(ValidationError):
        nonhomogeneous_solve(basis_cm, _mode_coeffs(basis_cm, 0, 1.0), late,
                             sys_cm.t0, grid_cm)
    # a grid ending before or after tf would integrate the source over the wrong window
    for end in (0.5 * sys_cm.tf, 2.0 * sys_cm.tf, 50.0 * sys_cm.tf):
        off = SourceCoefficients(times=np.linspace(sys_cm.t0, end, 11), d_b=np.ones((11, 8)),
                                 d_a=np.ones((11, 8)))
        with pytest.raises(ValidationError, match="end at tf"):
            nonhomogeneous_solve(basis_cm, _mode_coeffs(basis_cm, 0, 1.0), off, sys_cm.t0, grid_cm)
    # past the amplification limit the guard refuses before any exp() overflows
    hot = dataclasses.replace(sys_cm, tf=50.0)
    basis_hot = build_basis(hot, 16)
    assert basis_hot.lambda_bars()[-1] * hot.window > 710.0  # exp() would overflow
    src_hot = SourceCoefficients(times=np.linspace(hot.t0, hot.tf, 5), d_b=np.ones((5, 16)),
                                 d_a=np.ones((5, 16)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(AmplificationOverflowError):
            nonhomogeneous_solve(basis_hot, _mode_coeffs(basis_hot, 0, 1.0), src_hot, hot.t0,
                                 uniform_grid(hot, 16))


def test_source_coefficients_zero_source(basis_cm, sys_cm, grid_cm):
    zero = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
    src = source_coefficients(basis_cm, zero, zero, np.linspace(0, 0.1, 4), grid_cm, 6)
    assert np.all(src.d_b == 0.0) and np.all(src.d_a == 0.0)


def test_source_coefficients_reproduce_single_mode(basis_cm, sys_cm, grid_cm):
    rc_b, rc_a = sys_cm.mat_b.rho_c, sys_cm.mat_a.rho_c
    g = lambda t: 1.0 + 3.0 * t
    f_b = lambda x, t: rc_b * g(t) * basis_cm.phi(2, np.asarray(x, dtype=float))
    f_a = lambda x, t: rc_a * g(t) * basis_cm.phi(2, np.asarray(x, dtype=float))
    times = np.linspace(sys_cm.t0, sys_cm.tf, 6)
    src = source_coefficients(basis_cm, f_b, f_a, times, grid_cm, 6, policy="projection")
    for k, t in enumerate(times):
        assert src.d_b[k, 2] == pytest.approx(g(t), rel=1e-10)
        others = np.delete(src.d_b[k], 2)
        assert np.max(np.abs(others)) < 1e-10


def test_compatibility_zero_source(basis_cm):
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    assert np.all(source_compatibility(basis_cm, zero, zero) == 0.0)


def test_compatibility_of_matched_pair(sys_cm, basis_cm):
    # manufactured pair whose cross-slab moments agree mode by mode
    g_left = lambda x: np.cos(np.asarray(x, dtype=float)) + 0.2 * np.asarray(x, dtype=float)
    f_b, f_a = oracles.legendre_matched_source(basis_cm, 6, g_left)
    res = source_compatibility(basis_cm, f_b, f_a, mode_count=6)
    assert np.max(res) < 1e-8


def test_compatibility_detects_one_sided_source(basis_cm):
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    res = source_compatibility(basis_cm, one, zero)
    assert res[0] > 0.5


def test_single_eigenfunction_source_is_incompatible(basis_cm, sys_cm):
    # the two slab restrictions of one mode have inner products of
    # opposite sign, so this "natural" source violates the condition
    rc_b, rc_a = sys_cm.mat_b.rho_c, sys_cm.mat_a.rho_c
    f_b = lambda x: rc_b * basis_cm.phi(2, np.asarray(x, dtype=float))
    f_a = lambda x: rc_a * basis_cm.phi(2, np.asarray(x, dtype=float))
    res = source_compatibility(basis_cm, f_b, f_a)
    assert np.max(res) > 0.1


@pytest.mark.parametrize("jitter", [False, True])
@pytest.mark.parametrize("n", [3, 4, 7, 10])
def test_simpson_matches_scipy(n, jitter):
    rng = np.random.default_rng(n)
    x = np.linspace(0.0, 0.1, n)
    if jitter:
        x[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * (x[1] - x[0])
    rates = np.array([0.0, 3.0, 40.0, 400.0])
    y = (1.5 + np.cos(7.0 * x))[:, None] * np.exp(rates[None, :] * x[:, None])
    want = scipy.integrate.simpson(y, x=x, axis=0)
    np.testing.assert_allclose(simpson(y, x), want, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(simpson(y[:, 2], x), want[2], rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# one mode matrix per slab and reconstruction

POLICIES = ("least-squares", "strict-paper", "projection")


def _count_slab_matrix(monkeypatch):
    """Count slab_matrix calls per slab; spectral is the one module evolve builds them through."""
    import twoslab.spectral

    calls = {"b": 0, "a": 0}
    real = twoslab.spectral.slab_matrix

    def counting(basis, nodes, slab, mode_count):
        calls[slab] += 1
        return real(basis, nodes, slab, mode_count)

    monkeypatch.setattr(twoslab.spectral, "slab_matrix", counting)
    return calls


def _final_data(basis, k, nodes, seed=11):
    s = basis.sys
    grid = uniform_grid(s, nodes)
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, k) * np.exp(-basis.lambda_bars()[:k] * s.window)
    clean = synthesize(basis, CoeffVector(basis=basis, c_b=c, c_a=c.copy()), s.tf, grid)
    return SampledField(
        grid,
        clean.values_b + 1e-6 * rng.uniform(-1.0, 1.0, nodes),
        clean.values_a + 1e-6 * rng.uniform(-1.0, 1.0, nodes),
        s.tf,
    )


def _keep(basis, k):
    """Regularisation that retains exactly the first k modes."""
    lam = basis.lambda_bars()
    return RegParams(epsilon=1e-6, beta=1.0, gamma=1.0, n_eps=0.5 * (lam[k - 1] + lam[k]))


@pytest.mark.parametrize("policy", POLICIES)
def test_cutoff_reconstruct_builds_each_slab_matrix_once(basis_cm, policy, monkeypatch):
    field = _final_data(basis_cm, 5, 40)
    calls = _count_slab_matrix(monkeypatch)
    cutoff_reconstruct(basis_cm, field, _keep(basis_cm, 5), basis_cm.sys.t0, policy=policy)
    assert calls == {"b": 1, "a": 1}


@pytest.mark.parametrize("policy", POLICIES)
def test_forward_solve_builds_each_slab_matrix_once(basis_cm, sys_cm, policy, monkeypatch):
    grid = uniform_grid(sys_cm, 40)
    field0 = _final_data(basis_cm, 5, 40)
    calls = _count_slab_matrix(monkeypatch)
    forward_solve(basis_cm, SampledField(grid, field0.values_b, field0.values_a, 0.0), grid, 5, policy)
    assert calls == {"b": 1, "a": 1}
    # callables are sampled on the target grid itself
    calls.update(b=0, a=0)
    forward_solve(basis_cm, (np.cos, np.cos), grid, 5, policy)
    assert calls == {"b": 1, "a": 1}


@pytest.mark.parametrize("nodes", [20, 1000, 11000])
@pytest.mark.parametrize("policy", POLICIES)
def test_shared_matrices_match_public_steps(basis_cm, policy, nodes):
    s = basis_cm.sys
    k = 5
    field = _final_data(basis_cm, k, nodes)
    for t in (s.t0, 0.5 * (s.t0 + s.tf)):
        got = cutoff_reconstruct(basis_cm, field, _keep(basis_cm, k), t, policy=policy)
        want = synthesize(basis_cm, recover_coefficients(basis_cm, field, k, policy), t, field.grid)
        assert np.array_equal(got.values_b, want.values_b)
        assert np.array_equal(got.values_a, want.values_a)

    got = forward_solve(basis_cm, field, field.grid, k, policy=policy)
    c0 = recover_coefficients(basis_cm, field, k, policy)
    decay = np.exp(-basis_cm.lambda_bars()[:k] * s.window)
    c_tf = CoeffVector(basis=basis_cm, c_b=c0.c_b * decay, c_a=c0.c_a * decay)
    want = synthesize(basis_cm, c_tf, s.tf, field.grid)
    assert np.array_equal(got.values_b, want.values_b)
    assert np.array_equal(got.values_a, want.values_a)


def test_forward_solve_onto_another_grid(basis_cm, sys_cm):
    field = _final_data(basis_cm, 5, 40)
    target = uniform_grid(sys_cm, 17)
    got = forward_solve(basis_cm, field, target, 5)
    c0 = recover_coefficients(basis_cm, field, 5)
    decay = np.exp(-basis_cm.lambda_bars()[:5] * sys_cm.window)
    c_tf = CoeffVector(basis=basis_cm, c_b=c0.c_b * decay, c_a=c0.c_a * decay)
    want = synthesize(basis_cm, c_tf, sys_cm.tf, target)
    assert got.grid is target
    assert np.array_equal(got.values_b, want.values_b)
    assert np.array_equal(got.values_a, want.values_a)


def test_cutoff_reconstruct_validation_order(basis_cm, sys_cm):
    field = _final_data(basis_cm, 5, 4)
    reg = _keep(basis_cm, 5)
    with pytest.raises(ValidationError, match="unknown recovery policy"):
        cutoff_reconstruct(basis_cm, field, reg, sys_cm.t0, policy="bogus")
    with pytest.raises(ValidationError, match="slab b: 4 nodes cannot determine 5 modes"):
        cutoff_reconstruct(basis_cm, field, reg, sys_cm.t0, policy="least-squares")
