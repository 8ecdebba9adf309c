import csv
import filecmp
import json
import math
import shutil
import subprocess
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import twoslab.basis as basis_module
import twoslab.cli as cli
import twoslab.spectral as spectral_module
from twoslab.basis import build_basis
from twoslab.cli import (
    BoundRecord,
    ExampleResult,
    ResultTable,
    RunConfig,
    check_bounds,
    config_from_dict,
    default_config,
    emit_table,
    eps_label,
    inject_noise,
    load_config,
    main,
    read_field_csv,
    rng_for,
    run_example,
    write_example_outputs,
    write_field_csv,
)
from twoslab.core import Material, SampledField, ValidationError, trapezoid_norm, uniform_grid
from twoslab.eigensolver import MAX_MODES
from twoslab.evolve import NOISE_BUDGET_RTOL, retained_modes
from twoslab.spectral import RECOVERY_POLICIES, _validate_recovery

# a refusal reports its own numerical failure: no numpy warning comes first
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def ex1():
    return run_example("1", default_config("1"))


@pytest.fixture(scope="module")
def ex2():
    return run_example("2", default_config("2"))


@pytest.fixture(scope="module")
def ex3():
    return run_example("3", default_config("3"))


@pytest.fixture(scope="module")
def ex2d():
    return run_example("2d", default_config("2d"))


# ---------------------------------------------------------------------------
# configuration


_OPTIONALS_SET = replace(
    RunConfig(),
    c=2.0,
    material_b=Material(K=3.42, kappa=0.838, rho_c_override=0.245),
    eps_list=(1e-3,),
    seed=77,
)


@pytest.mark.parametrize(
    "cfg",
    [default_config(e) for e in ("1", "2", "3", "2d")] + [_OPTIONALS_SET],
    ids=["1", "2", "3", "2d", "optionals"],
)
def test_config_round_trip(cfg):
    d = json.loads(json.dumps(cfg.to_dict()))
    assert config_from_dict(d) == cfg
    # every field is written, the optionals c and rho_c_override only when set
    unset = {"c"} if cfg.c is None else set()
    assert set(d) == {f.name for f in fields(RunConfig)} - unset
    for name in ("material_b", "material_a"):
        rho_c = getattr(cfg, name).rho_c_override
        assert ("rho_c_override" in d[name]) == (rho_c is not None)


def test_config_accepts_null_only_for_the_optionals():
    cfg = config_from_dict(
        {"c": None, "material_b": {"K": 1.0, "kappa": 2.0, "rho_c_override": None}}
    )
    assert cfg.c is None and cfg.material_b.rho_c_override is None
    for key in {f.name for f in fields(RunConfig)} - {"c"}:
        with pytest.raises(ValidationError, match=key):
            config_from_dict({key: None})


def test_config_merge_keeps_base_fields():
    base = default_config("3")
    cfg = config_from_dict({"seed": 9, "tf": 0.2}, base)
    assert cfg.seed == 9 and cfg.tf == 0.2
    assert cfg.material_b.rho_c_override == base.material_b.rho_c_override
    assert cfg.recovery_policy == "least-squares"


def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown keys"):
        config_from_dict({"betaa": 1.0})
    with pytest.raises(ValidationError, match="material_b"):
        config_from_dict({"material_b": {"K": 1.0, "kappa": 1.0, "color": "red"}})


def test_config_rejects_bad_eps_list():
    with pytest.raises(ValidationError):
        config_from_dict({"eps_list": [0.1, 1.5]})
    with pytest.raises(ValidationError):
        config_from_dict({"eps_list": []})


@pytest.mark.parametrize("count", [0, -3])
def test_config_rejects_mode_count_below_one(count):
    with pytest.raises(ValidationError, match="mode_count"):
        config_from_dict({"mode_count": count})


def test_config_rejects_bad_policy():
    with pytest.raises(ValidationError, match="recovery_policy"):
        config_from_dict({"recovery_policy": "ridge"})


def test_recovery_policies_are_named_once(sys_cm, grid_cm, tmp_path, capsys):
    # the config reader and the recovery validation both read RECOVERY_POLICIES
    basis = build_basis(sys_cm, 5)
    zeros_b, zeros_a = np.zeros(len(grid_cm.nodes_b)), np.zeros(len(grid_cm.nodes_a))
    field = SampledField(grid_cm, zeros_b, zeros_a, 0.1)
    for policy in RECOVERY_POLICIES:
        assert config_from_dict({"recovery_policy": policy}).recovery_policy == policy
        _validate_recovery(basis, field, 5, policy)
    with pytest.raises(ValidationError, match="recovery_policy"):
        config_from_dict({"recovery_policy": "ridge"})
    with pytest.raises(ValidationError, match="recovery policy"):
        _validate_recovery(basis, field, 5, "ridge")
    cfg = tmp_path / "ridge.json"
    cfg.write_text('{"recovery_policy": "ridge"}')
    out = tmp_path / "out"
    assert main(["example", "2", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "ridge" in err[0]
    assert not out.exists()


def test_material_parsing():
    with pytest.raises(ValidationError, match="required"):
        config_from_dict({"material_a": {"K": 1.0}})
    with pytest.raises(ValidationError, match="must be an object"):
        config_from_dict({"material_a": 3.0})
    cfg = config_from_dict({"material_b": {"K": 2.0, "kappa": 0.5, "rho_c_override": 1.25}})
    assert cfg.material_b.rho_c == 1.25


def test_default_config_example3_overrides():
    cfg = default_config("3")
    assert cfg.material_b.rho_c == pytest.approx(0.838 / 3.42, rel=1e-14)
    assert cfg.recovery_policy == "least-squares"


def test_default_config_example2d():
    cfg = default_config("2d")
    assert (cfg.a, cfg.b, cfg.c) == (1.0, 1.0, 1.0)
    assert cfg.beta == 0.01 and cfg.gamma == 1.0


def test_default_config_unknown():
    with pytest.raises(ValidationError):
        default_config("4")


def test_load_config_broken_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_config(p)


# ---------------------------------------------------------------------------
# randomness and noise


def test_rng_for_is_stream_keyed():
    a = rng_for(1, 2, 3).uniform(size=4)
    b = rng_for(1, 2, 3).uniform(size=4)
    c = rng_for(1, 2, 4).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _philox(seed):
    """A Philox generator keyed by one integer seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def test_inject_noise_respects_budget(sys_cm, grid_cm):
    clean = SampledField(grid_cm, np.zeros(40), np.zeros(40), sys_cm.tf)
    eps = 1e-2
    noisy = inject_noise(clean, eps, 10.0, _philox(123))
    db, da = trapezoid_norm(noisy)
    assert db + da <= eps * (1 + 1e-12)
    again = inject_noise(clean, eps, 10.0, _philox(123))
    assert np.array_equal(noisy.values_b, again.values_b)
    assert np.array_equal(noisy.values_a, again.values_a)


def test_inject_noise_budget_survives_rounding_on_large_values(sys_cm, grid_cm):
    # adding eps-sized noise to values near 1e4 rounds every node by ~1e-12
    clean = SampledField(grid_cm, np.full(40, 1.0e4), np.linspace(-9e3, 9e3, 40), sys_cm.tf)
    eps = 1e-6
    for seed in range(50):
        noisy = inject_noise(clean, eps, 10.0, _philox(seed))
        delta = SampledField(grid_cm, noisy.values_b - clean.values_b,
                             noisy.values_a - clean.values_a, clean.time)
        db, da = trapezoid_norm(delta)
        assert db + da <= eps * (1 + NOISE_BUDGET_RTOL)


@pytest.mark.parametrize("grid_points", [20, 21, 22, 23])
def test_example3_stays_within_noise_budget_across_seeds(grid_points):
    base = default_config("3")
    for seed in range(1, 51):
        run_example("3", replace(base, seed=seed, grid_points=grid_points))


def test_inject_noise_zero_eps_is_identity(sys_cm, grid_cm):
    clean = SampledField(grid_cm, np.ones(40), np.ones(40), sys_cm.tf)
    noisy = inject_noise(clean, 0.0, 1.0, _philox(5))
    assert np.array_equal(noisy.values_b, clean.values_b)
    assert np.array_equal(noisy.values_a, clean.values_a)


def test_inject_noise_negative_bound(sys_cm, grid_cm):
    clean = SampledField(grid_cm, np.zeros(40), np.zeros(40), sys_cm.tf)
    with pytest.raises(ValidationError):
        inject_noise(clean, 1e-2, -1.0, _philox(5))


def test_eps_label():
    assert eps_label(1e-2) == "eps_1e-2"
    assert eps_label(1e-6) == "eps_1e-6"
    assert eps_label(0.005) == "eps_0.005"


# ---------------------------------------------------------------------------
# tables and CSV files


@given(
    xs=st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=6),
    vals=st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=2, max_size=6),
)
def test_table_round_trip(tmp_path_factory, xs, vals):
    n = min(len(xs), len(vals))
    table = ResultTable(
        xs=np.asarray(xs[:n]), columns={"u": np.asarray(vals[:n]), "v": np.zeros(n)}
    )
    path = tmp_path_factory.mktemp("tbl") / "t.csv"
    emit_table(table, path)
    header, *rows = path.read_text().splitlines()
    assert header == "x,u,v"
    back = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.allclose(back[:, 0], table.xs, atol=5.1e-6)
    assert np.allclose(back[:, 1], table.columns["u"], atol=5.1e-6)


def test_field_csv_round_trip(sys_cm, grid_cm, tmp_path):
    rng = np.random.default_rng(3)
    field = SampledField(grid_cm, rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40), sys_cm.tf)
    p = tmp_path / "f.csv"
    write_field_csv(field, p)
    back = read_field_csv(p, sys_cm.tf)
    assert np.allclose(back.grid.nodes_b, grid_cm.nodes_b, atol=1e-9)
    assert np.allclose(back.values_a, field.values_a, rtol=1e-9, atol=1e-12)
    assert back.time == sys_cm.tf


def test_read_field_csv_validations(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("x,value\n0,1\n")
    with pytest.raises(ValidationError, match="header"):
        read_field_csv(p, 0.0)
    p.write_text("slab,x,value\nq,0.0,1.0\n")
    with pytest.raises(ValidationError, match="unknown slab"):
        read_field_csv(p, 0.0)


@pytest.mark.parametrize(
    "row", ["b,nan,1.0", "b,-1.0,nan", "a,inf,1.0", "a,1.0,-inf", "b,-1.0,1e999"]
)
def test_read_field_csv_rejects_non_finite(tmp_path, row):
    p = tmp_path / "f.csv"
    p.write_text(f"slab,x,value\nb,-2.0,1.0\n{row}\na,2.0,1.0\n")
    with pytest.raises(ValidationError, match="finite"):
        read_field_csv(p, 0.0)


@pytest.mark.parametrize("row", ["b,-1.0", "b,-1.0,1.0,2.0", "b,-1.0,one", "b,,1.0", ""])
def test_read_field_csv_rejects_malformed_rows(tmp_path, row):
    p = tmp_path / "f.csv"
    p.write_text(f"slab,x,value\nb,-2.0,1.0\n{row}\na,2.0,1.0\n")
    with pytest.raises(ValidationError, match="f.csv:3"):
        read_field_csv(p, 0.0)


def test_read_field_csv_rejects_empty_file(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("")
    with pytest.raises(ValidationError, match="header"):
        read_field_csv(p, 0.0)


# ---------------------------------------------------------------------------
# canned experiments


def test_example_table_duplicates_interface(ex2):
    xs = ex2.table.xs
    gp = ex2.config.grid_points
    assert len(xs) == 2 * gp
    assert xs[gp - 1] == 0.0 and xs[gp] == 0.0
    assert set(ex2.table.columns) == {"eps_1e-2", "eps_1e-4", "eps_1e-6", "exact"}


def test_example1_regularization_beats_raw_inversion(ex1):
    meta = ex1.metadata
    assert meta["unregularized_max_abs"] >= 10.0 * meta["regularized_max_abs"]
    assert meta["raw_design_condition"] > 1e12
    vals = [meta["per_eps"][eps_label(e)]["value_at_interface_right"]
            for e in ex1.config.eps_list]
    assert vals[0] == pytest.approx(0.12023, abs=1e-4)
    assert vals[2] == pytest.approx(0.11997, abs=1e-4)
    assert abs(vals[1] - vals[2]) < 1e-2
    assert ex1.bounds_ok
    assert ex1.metadata["per_eps"]["eps_1e-2"]["retained_modes"] == 4
    assert ex1.metadata["per_eps"]["eps_1e-6"]["retained_modes"] == 7


def test_example2_errors_shrink_with_eps(ex2):
    errs = [ex2.metadata["per_eps"][eps_label(e)]["l2_error_vs_initial"]
            for e in ex2.config.eps_list]
    assert errs[0] == pytest.approx(0.907177, rel=1e-4)
    assert errs[2] == pytest.approx(0.145393, rel=1e-4)
    assert errs[0] > errs[1] > errs[2]
    assert ex2.bounds_ok


def test_example3_plateau_and_quiet_right_slab(ex3):
    assert ex3.metadata["plateau"] == pytest.approx(20405.727923627685, rel=1e-10)
    per = ex3.metadata["per_eps"]["eps_1e-6"]
    assert per["right_slab_max_abs"] < 1e-3
    assert "logscale.csv" in ex3.extra_csv
    assert ex3.bounds_ok


def test_example2d_mode_retention(ex2d):
    per = ex2d.metadata["per_eps"]
    assert [per[eps_label(e)]["retained_modes"] for e in ex2d.config.eps_list] == [1, 1, 2]
    assert per["eps_1e-6"]["mode_index_pairs"] == [[0, 0], [0, 1]]
    errs = [per[eps_label(e)]["l2_error_vs_initial"] for e in ex2d.config.eps_list]
    assert errs[2] == pytest.approx(0.467645, rel=1e-3)
    assert errs[2] < errs[0]


def test_example2d_lists_the_modes_of_its_smallest_eps(tmp_path):
    # eps_list not ending at its minimum: the CSV lists the largest mode set
    config = tmp_path / "unsorted.json"
    config.write_text('{"eps_list": [1e-6, 1e-2]}')
    assert main(["example", "2d", "--config", str(config), "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "example2d" / "metadata.json").read_text())
    with open(tmp_path / "example2d" / "modes2d.csv", newline="") as fh:
        rows = [[int(row["m"]), int(row["n"])] for row in csv.DictReader(fh)]
    assert rows == meta["per_eps"]["eps_1e-6"]["mode_index_pairs"] == [[0, 0], [0, 1]]


def test_examples_1_to_3_write_one_per_eps_record(ex1, ex2, ex3):
    keys = [
        "epsilon", "l2_error_vs_initial", "n_eps", "retained_modes", "right_slab_max_abs",
        "value_at_interface_right",
    ]
    for ex in (ex1, ex2, ex3):
        per = ex.metadata["per_eps"]
        assert list(per) == [eps_label(e) for e in ex.config.eps_list]
        for record in per.values():
            assert sorted(record) == keys
            assert all(math.isfinite(v) for v in record.values())


def _count_slab_matrices(monkeypatch, *modules):
    """Record (slab, node count) of every slab_matrix or mode_operator call made through ``modules``."""
    calls = []

    def spy_on(real):
        def spy(basis, nodes, slab, mode_count):
            calls.append((slab, len(nodes)))
            return real(basis, nodes, slab, mode_count)

        return spy

    for module in modules:
        for name in ("slab_matrix", "mode_operator"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy_on(getattr(basis_module, name)))
    return calls


def test_example1_raw_inversion_builds_each_square_matrix_once(monkeypatch):
    cfg = replace(default_config("1"), mode_count=30)
    calls = _count_slab_matrices(monkeypatch, cli, spectral_module)
    result = run_example("1", cfg)
    square = [slab for slab, nodes in calls if nodes == cfg.mode_count]
    assert sorted(square) == ["a", "b"]
    assert result.metadata["unregularized_max_abs"] > 0.0


def test_example1_raw_condition_is_read_from_the_solves_singular_values(monkeypatch):
    # no second decomposition: the condition is max s[0]/s[-1] of the two square lstsq calls
    cfg = default_config("1")
    spectra = []
    real = np.linalg.lstsq

    def spy(A, rhs, rcond=None):
        out = real(A, rhs, rcond=rcond)
        if A.shape == (cfg.mode_count, cfg.mode_count):
            spectra.append(out[3])
        return out

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.cond called")

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    monkeypatch.setattr(np.linalg, "cond", refuse)
    result = run_example("1", cfg)
    assert len(spectra) == 2
    want = max(float(s[0] / s[-1]) for s in spectra)
    assert result.metadata["raw_design_condition"] == want


def test_example1_surface_recovers_its_coefficients_once(monkeypatch):
    # one recovery per eps for the table, and one shared by the surface's 11 times
    calls = []
    real = spectral_module._recover
    monkeypatch.setattr(spectral_module, "_recover", lambda *a: calls.append(a[2]) or real(*a))
    cfg = default_config("1")
    result = run_example("1", cfg)
    assert len(calls) == len(cfg.eps_list) + 1
    assert len(result.extra_csv["surface.csv"][1]) == 11 * 2 * cfg.grid_points


def test_example2d_builds_each_slice_matrix_once_per_eps(monkeypatch):
    # per eps: one matrix per layer on the count-node grid, shared by the
    # initial fit, the final synthesis and the noisy fit, and one on the display grid
    cfg = replace(default_config("2d"), beta=0.2, eps_list=(1e-2, 1e-6))
    calls = _count_slab_matrices(monkeypatch, spectral_module)
    result = run_example("2d", cfg)
    counts = [result.metadata["per_eps"][eps_label(e)]["retained_modes"] for e in cfg.eps_list]
    assert cfg.grid_points not in counts
    want = sorted(
        [(slab, n) for n in counts for slab in "ab"]
        + [(slab, cfg.grid_points) for _ in counts for slab in "ab"]
    )
    assert sorted(calls) == want


def test_run_example_unknown():
    with pytest.raises(ValidationError):
        run_example("9", RunConfig())


def test_write_example_outputs(ex3, ex2d, tmp_path):
    d3 = write_example_outputs(ex3, tmp_path)
    assert (d3 / "reconstruction.csv").exists()
    assert (d3 / "bounds.csv").exists()
    assert (d3 / "eigenvalues.csv").exists()
    assert (d3 / "logscale.csv").exists()
    meta = json.loads((d3 / "metadata.json").read_text())
    assert meta["bounds_ok"] is True
    assert meta["config"]["recovery_policy"] == "least-squares"
    d2d = write_example_outputs(ex2d, tmp_path)
    assert (d2d / "modes2d.csv").exists()
    assert not (d2d / "bounds.csv").exists()
    assert json.loads((d2d / "metadata.json").read_text())["config"]["recovery_policy"] == (
        "least-squares"
    )


def test_check_bounds_record_inventory():
    records = check_bounds(RunConfig(), trials=5)
    # 2 systems x 5 trials x 2 times x (1 instability + 3 eps x 2 bounds)
    assert len(records) == 140
    assert all(r.ok for r in records)


def test_bounds_csv_reads_as_four_columns(ex1, ex2, ex3, tmp_path):
    # a bound's name lists its case with commas; quoted, it stays one field
    assert main(["check-bounds", "--trials", "2", "--out", str(tmp_path / "suite")]) == 0
    paths = [tmp_path / "suite" / "bounds.csv"] + [
        write_example_outputs(ex, tmp_path) / "bounds.csv" for ex in (ex1, ex2, ex3)
    ]
    for path in paths:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["name", "lhs", "rhs", "pass"] and rows, path
        for row in rows:
            assert set(row) == {"name", "lhs", "rhs", "pass"}, row
            assert row["pass"] in {"0", "1"}
            assert math.isfinite(float(row["lhs"])) and math.isfinite(float(row["rhs"]))
    with open(paths[0], newline="") as fh:
        assert next(csv.DictReader(fh))["name"] == "instability[config,t0,trial=0]"


# ---------------------------------------------------------------------------
# entry point (in process)


def test_main_eigen_writes_csv(tmp_path):
    assert main(["eigen", "--count", "5", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "eigenvalues.csv").read_text().strip().splitlines()
    assert lines[0] == "n,lambda_b,lambda_a,lambda_bar"
    assert len(lines) == 6


def test_main_eigen_writes_the_exact_roots_of_a_homogeneous_rod(tmp_path):
    # one material on [-1, 4]: lambda_n = n pi/5, which the phase must not skip past
    cfg = tmp_path / "unit.json"
    cfg.write_text(
        '{"a": 4.0, "b": 1.0, "material_b": {"K": 1, "kappa": 1}, '
        '"material_a": {"K": 1, "kappa": 1}}'
    )
    assert main(["eigen", "--count", "51", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "eigenvalues.csv").read_text().strip().splitlines()[1:]
    assert rows[13].split(",")[:2] == ["13", f"{13 * math.pi / 5:.12e}"]


def test_main_forward_backward_round_trip(sys_cm, tmp_path):
    basis = build_basis(sys_cm, 2)
    grid = uniform_grid(sys_cm, 200)
    vb = 1.0 + 0.5 * basis.phi(1, grid.nodes_b)
    va = 1.0 + 0.5 * basis.phi(1, grid.nodes_a)
    initial = SampledField(grid, vb, va, sys_cm.t0)
    init_csv = tmp_path / "init.csv"
    write_field_csv(initial, init_csv)

    assert main(["forward", "--infile", str(init_csv), "--modes", "8",
                 "--out", str(tmp_path)]) == 0
    fwd = read_field_csv(tmp_path / "forward.csv", sys_cm.tf)
    assert np.max(np.abs(fwd.values_b)) < np.max(np.abs(vb))

    assert main(["backward", "--infile", str(tmp_path / "forward.csv"),
                 "--eps", "1e-6", "--out", str(tmp_path)]) == 0
    back = read_field_csv(tmp_path / "backward.csv", sys_cm.t0)
    scale = float(np.max(np.abs(vb)))
    assert np.max(np.abs(back.values_b - vb)) < 0.02 * scale
    assert np.max(np.abs(back.values_a - va)) < 0.02 * scale


def test_main_exit1_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    assert main(["example", "2", "--config", str(bad), "--out", str(tmp_path)]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["eigen", "--config", str(broken), "--out", str(tmp_path)]) == 1
    # N_eps = 460.5 passes lambda_bar_50 = 220.0: not a bad config, since the cut-off
    # sizes its own basis and keeps the 73 modes a 2000-mode basis keeps
    wide = tmp_path / "wide.json"
    wide.write_text('{"beta": 20, "grid_points": 120, "eps_list": [0.01]}')
    out = tmp_path / "out"
    assert main(["example", "2", "--config", str(wide), "--out", str(out)]) == 0
    meta = json.loads((out / "example2" / "metadata.json").read_text())
    assert meta["per_eps"]["eps_1e-2"]["retained_modes"] == 73


@pytest.mark.parametrize("command", ["forward", "backward"])
@pytest.mark.parametrize("bad", ["nan", "b,-1.0", "b,-1.0,x", "missing"])
def test_main_exit1_on_bad_field_csv(sys_cm, tmp_path, capsys, command, bad):
    grid = uniform_grid(sys_cm, 20)
    csv = tmp_path / "field.csv"
    write_field_csv(SampledField(grid, np.ones(20), np.ones(20), sys_cm.tf), csv)
    lines = csv.read_text().splitlines()
    lines[5] = "b,-4.0,nan" if bad == "nan" else bad
    csv.write_text("\n".join(lines) + "\n")
    if bad == "missing":
        csv.unlink()
    argv = [command, "--infile", str(csv), "--out", str(tmp_path / "out")]
    if command == "backward":
        argv += ["--eps", "1e-4"]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_main_exit1_on_zero_mode_count(tmp_path):
    cfg = tmp_path / "zero.json"
    cfg.write_text('{"mode_count": 0}')
    assert main(["eigen", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert main(["eigen", "--count", "0", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("command", [["eigen"], ["example", "1"]])
@pytest.mark.parametrize(
    "text",
    [
        '{"a": "x"}',
        '{"grid_points": "many"}',
        '{"eps_list": 5}',
        '{"material_b": {"K": "x", "kappa": 1}}',
        '{"tf": Infinity}',
        '{"seed": -1}',
        '{"mode_count": 2.7}',
        '{"grid_points": 20.9}',
        '{"seed": true}',
        '{"a": true}',
        '{"material_b": {"K": 3.42, "kappa": false}}',
        '{"eps_list": [0.01, 0.01]}',
        '{"mode_count": "12", "a": "3"}',  # numbers spelled as strings
        '{"seed": "7"}',
        '{"eps_list": ["0.01"]}',
        '{"material_b": {"K": "3.42", "kappa": 0.838}}',
        None,  # no config file at the given path
        # null is the unset value of the optionals c and rho_c_override only
        '{"a": null}',
        '{"b": null}',
        '{"t0": null}',
        '{"tf": null}',
        '{"beta": null}',
        '{"gamma": null}',
        # a mode matrix of 10^12 x 51 doubles per slab, refused before it is built
        '{"grid_points": 1000000000000}',
    ],
)
def test_main_exit1_on_wrong_type_or_non_finite_config(tmp_path, capsys, command, text):
    cfg = tmp_path / "bad.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_main_seed_overrides_the_config_seed(tmp_path):
    (tmp_path / "seed9.json").write_text('{"seed": 9}')
    (tmp_path / "seed3.json").write_text('{"seed": 3}')
    by_flag, by_config = tmp_path / "flag", tmp_path / "config"
    assert main(["example", "2", "--config", str(tmp_path / "seed9.json"), "--seed", "3",
                 "--out", str(by_flag)]) == 0
    assert main(["example", "2", "--config", str(tmp_path / "seed3.json"),
                 "--out", str(by_config)]) == 0
    files = sorted(p.name for p in (by_config / "example2").iterdir())
    assert files == sorted(p.name for p in (by_flag / "example2").iterdir())
    _, mismatch, errors = filecmp.cmpfiles(
        by_flag / "example2", by_config / "example2", files, shallow=False
    )
    assert not mismatch and not errors
    assert json.loads((by_flag / "example2" / "metadata.json").read_text())["seed"] == 3


@pytest.mark.parametrize("command", [["eigen"], ["example", "2"], ["check-bounds"]])
def test_main_exit1_on_negative_seed(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main(command + ["--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("size", [1e308, 1e-308])
def test_main_exit1_on_geometry_collapsing_the_brackets(tmp_path, capsys, size):
    # b + r a overflows to inf (every bracket 0) or pi / (b + r a) overflows
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"b": size, "a": size}))
    out = tmp_path / "out"
    assert main(["eigen", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "root brackets" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eigen", "--count", str(MAX_MODES + 1)],
        ["example", "2", "--config", "huge.json"],
    ],
)
def test_main_exit1_on_rod_mode_count_past_the_cap(tmp_path, capsys, monkeypatch, argv):
    # example 2's basis holds mode_count modes when its cut-off needs fewer
    monkeypatch.chdir(tmp_path)
    Path("huge.json").write_text(json.dumps({"mode_count": 100_000_000}))
    assert main(argv + ["--out", "out"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"at most {MAX_MODES}" in err[0]
    assert not Path("out").exists()


@pytest.mark.parametrize("policy", sorted(set(RECOVERY_POLICIES) - {"least-squares"}))
def test_main_exit1_when_example2d_is_given_another_policy(tmp_path, capsys, policy):
    cfg = tmp_path / "policy.json"
    cfg.write_text(json.dumps({"recovery_policy": policy}))
    out = tmp_path / "out"
    assert main(["example", "2d", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "recovery_policy" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_main_exit1_on_trials_below_one(tmp_path, capsys, trials):
    out = tmp_path / "out"
    assert main(["check-bounds", "--trials", trials, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_main_exit2_on_non_finite_bound_side(tmp_path, capsys):
    # at tf = 10 the squared amplification of the instability check overflows
    cfg = tmp_path / "long.json"
    cfg.write_text('{"tf": 10}')
    out = tmp_path / "out"
    assert main(["check-bounds", "--trials", "3", "--config", str(cfg), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("numerical failure: ") and "non-finite side" in line
    assert not (out / "bounds.csv").exists()


@pytest.mark.parametrize("policy,broken", [("least-squares", "lstsq"), ("projection", "solve")])
def test_main_exit2_when_a_factorisation_does_not_converge(
    sys_cm, tmp_path, capsys, monkeypatch, policy, broken
):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    grid = uniform_grid(sys_cm, 40)
    csv = tmp_path / "final.csv"
    write_field_csv(SampledField(grid, np.cos(grid.nodes_b), np.cos(grid.nodes_a), sys_cm.tf), csv)
    cfg = tmp_path / "policy.json"
    cfg.write_text(json.dumps({"recovery_policy": policy}))
    monkeypatch.setattr(np.linalg, broken, fail)
    out = tmp_path / "out"
    argv = ["backward", "--infile", str(csv), "--eps", "1e-4", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: coefficient recovery failed")
    assert not out.exists()


def test_main_exit2_when_example1_mode_cannot_be_amplified(tmp_path, capsys):
    # lambda_bar_1 * 8000 is far past the exp range; the guard refuses it first
    cfg = tmp_path / "long.json"
    cfg.write_text('{"tf": 8000}')
    out = tmp_path / "out"
    assert main(["example", "1", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: amplification overflow")
    assert not out.exists()


@pytest.mark.parametrize("command", ["example", "table"])
def test_main_exit1_when_example1_has_no_mode_one(tmp_path, capsys, command):
    # example 1's final data is mode 1, which a one-mode basis does not have
    cfg = tmp_path / "one.json"
    cfg.write_text('{"mode_count": 1}')
    out = tmp_path / "out"
    assert main([command, "1", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "mode_count" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["example", "table"])
def test_main_exit1_when_example1_raw_inversion_is_too_large(
    tmp_path, capsys, monkeypatch, command
):
    # 100000 modes would need 74.5 GiB of raw-inversion matrices: refuse before any build
    def refuse(*args, **kwargs):
        raise AssertionError("built before the size check")

    monkeypatch.setattr(cli, "build_basis", refuse)
    monkeypatch.setattr(cli, "slab_matrix", refuse)
    cfg = tmp_path / "big.json"
    out = tmp_path / "out"
    for count in (cli.MAX_RAW_INVERSION_MODES + 1, 100000):
        cfg.write_text(json.dumps({"mode_count": count}))
        assert main([command, "1", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "mode_count" in err[0]
        assert not out.exists()


def test_main_exit1_when_the_plate_spectrum_is_too_large(tmp_path, capsys):
    # n_eps = 4.6e307 would admit ~1e307 plate modes; refused in closed form
    cfg = tmp_path / "huge_gamma.json"
    cfg.write_text('{"gamma": 1e308}')
    out = tmp_path / "out"
    assert main(["example", "2d", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "plate modes" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["example", "1"], ["example", "2"], ["example", "3"],
     ["backward", "--eps", "1e-2", "--infile", "final.csv"]],
    ids=["example1", "example2", "example3", "backward"],
)
def test_main_exit1_when_the_rod_cutoff_is_not_finite(tmp_path, capsys, monkeypatch, command):
    # gamma = 1e308 makes N_eps infinite: the rod's count refuses it before any basis
    def refuse(*args, **kwargs):
        raise AssertionError("a basis was built for an infinite cut-off")

    monkeypatch.chdir(tmp_path)
    grid = uniform_grid(RunConfig().system(), 20)
    write_field_csv(SampledField(grid, np.zeros(20), np.zeros(20), 0.1), "final.csv")
    Path("huge_gamma.json").write_text('{"gamma": 1e308}')
    monkeypatch.setattr(cli, "build_basis", refuse)
    assert main(command + ["--config", "huge_gamma.json", "--out", "out"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: N_eps = inf ") and "rod modes" in line
    assert not Path("out").exists()


@pytest.mark.parametrize(
    "which, config",
    [
        # 27 522 plate modes: a square slice system of 27 522 rows per layer
        ("2d", {"beta": 1000, "gamma": 1.0, "eps_list": [1e-6]}),
        # 3 000 000 display nodes per layer times the plate's 2 modes
        ("2d", {"grid_points": 3000000, "eps_list": [1e-6]}),
        # 60 000 nodes per slab times the 75 modes N_eps = 460.5 of the smaller eps needs
        ("2", {"beta": 20, "grid_points": 60000, "eps_list": [0.5, 0.01]}),
    ],
    ids=["plate", "plate-display", "rod"],
)
def test_main_exit1_when_a_cutoff_mode_matrix_passes_the_budget(
    tmp_path, capsys, monkeypatch, which, config
):
    build = spectral_module.mode_operator

    def small_only(basis, nodes, *args):
        assert len(nodes) <= 2000, f"a mode matrix of {len(nodes)} rows was built"
        return build(basis, nodes, *args)

    monkeypatch.setattr(spectral_module, "mode_operator", small_only)
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["example", which, "--config", str(cfg), "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: eps={min(config['eps_list']):g}, N_eps = ") and "budget" in line
    assert not out.exists()


def test_main_backward_keeps_every_mode_its_cutoff_admits(tmp_path, monkeypatch):
    # N_eps = 460.5 admits 73 modes, more than the 51 of mode_count
    final = tmp_path / "final.csv"
    _write_cosine_csv(final, 5000, 0.2)
    cfg = RunConfig(beta=20.0)
    (tmp_path / "wide.json").write_text(json.dumps({"beta": cfg.beta}))
    kept = []
    reconstruct = cli.cutoff_reconstruct

    def spy(basis, field, reg, t, policy):
        kept.append((retained_modes(basis, reg.n_eps), len(basis)))
        return reconstruct(basis, field, reg, t, policy=policy)

    monkeypatch.setattr(cli, "cutoff_reconstruct", spy)
    out = tmp_path / "out"
    assert main(["backward", "--infile", str(final), "--eps", "1e-2",
                 "--config", str(tmp_path / "wide.json"), "--out", str(out)]) == 0
    [(m, built)] = kept
    assert m == 73 and built > m
    # the same bytes as the cut-off of a basis far larger than the cut-off keeps
    s = cfg.system()
    want = reconstruct(build_basis(s, 400), read_field_csv(final, s.tf), cfg.reg(1e-2), s.t0,
                       policy=cfg.recovery_policy)
    write_field_csv(want, tmp_path / "want.csv")
    assert (out / "backward.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_main_backward_compresses_least_squares_on_an_exact_linspace_csv(tmp_path, monkeypatch):
    # x written at full precision reads back as exactly np.linspace, so the CSV's
    # per-slab fits take BlockedModes.compress, and move from the dense fits by round-off
    final = tmp_path / "final.csv"
    _write_cosine_csv(final, spectral_module.COMPRESSED_MIN_NODES, 0.2)
    (tmp_path / "lsq.json").write_text(_LSQ)
    argv = ["backward", "--infile", str(final), "--eps", "1e-4", "--config", str(tmp_path / "lsq.json")]

    def refuse(self):
        raise AssertionError("the N x k matrix was formed")

    with monkeypatch.context() as m:
        m.setattr(basis_module.BlockedModes, "dense", refuse)
        assert main([*argv, "--out", str(tmp_path / "compressed")]) == 0
    monkeypatch.setattr(spectral_module, "COMPRESSED_MIN_NODES", math.inf)
    assert main([*argv, "--out", str(tmp_path / "dense")]) == 0
    got, want = (read_field_csv(tmp_path / d / "backward.csv", 0.0) for d in ("compressed", "dense"))
    for slab in ("b", "a"):
        v = getattr(want, f"values_{slab}")
        assert np.allclose(getattr(got, f"values_{slab}"), v, rtol=0, atol=1e-9 * np.abs(v).max())


@pytest.mark.parametrize("policy", ["projection", "least-squares"])
def test_main_backward_names_the_cutoff_a_sparse_csv_cannot_determine(tmp_path, capsys, policy):
    # N_eps = 460.5 keeps 73 modes; 20 + 20 nodes determine neither per-slab fits nor the joint one
    final = tmp_path / "final.csv"
    _write_cosine_csv(final, 20, 0.2)
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"beta": 20, "gamma": 0.5, "recovery_policy": policy}))
    out = tmp_path / "out"
    assert main(["backward", "--infile", str(final), "--eps", "1e-2",
                 "--config", str(cfg), "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == (
        "error: eps=0.01, N_eps = 460.517: 20 + 20 nodes per slab cannot determine "
        f"the 73 retained modes by {policy}"
    )
    assert not out.exists()


def test_main_exit2_when_the_cutoff_gain_overflows(tmp_path, capsys):
    # N_eps = ln(1e300) / tf keeps lambda_bar (tf - t0) <= 690.8 for every retained
    # mode, inside the amplification guard, but exp(2 N_eps (tf - t0)) = exp(1381.6)
    # is past the double range
    cfg = tmp_path / "tiny_eps.json"
    cfg.write_text('{"beta": 1, "gamma": 1, "eps_list": [1e-300]}')
    out = tmp_path / "out"
    assert main(["check-bounds", "--trials", "1", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: cut-off gain overflow")
    assert not out.exists()


def test_main_exit2_on_amplification_overflow(sys_cm, tmp_path):
    # kilo-scaled conductivities push lambda_bar*(tf-t) past the exp range
    cfg = tmp_path / "hot.json"
    cfg.write_text(json.dumps({
        "material_b": {"K": 3420.0, "kappa": 838.0},
        "material_a": {"K": 1050.0, "kappa": 339.0},
        "beta": 50.0, "gamma": 50.0,
    }))
    grid = uniform_grid(sys_cm, 30)
    field = SampledField(grid, np.zeros(30), np.zeros(30), sys_cm.tf)
    csv = tmp_path / "final.csv"
    write_field_csv(field, csv)
    rc = main(["backward", "--infile", str(csv), "--eps", "1e-6",
               "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2


def _write_rows(path, rows):
    path.write_text("slab,x,value\n" + "\n".join(rows) + "\n")


def _write_cosine_csv(path, nodes, scale):
    """scale * cos(0.3 x) on ``nodes`` evenly spaced nodes per slab of the Cu/Mo rod."""
    x = np.concatenate((np.linspace(-5.0, 0.0, nodes), np.linspace(0.0, 3.0, nodes))).tolist()
    slabs = "b" * nodes + "a" * nodes
    _write_rows(path, [f"{s},{v!r},{scale * math.cos(0.3 * v)!r}" for s, v in zip(slabs, x)])


_LSQ = '{"recovery_policy": "least-squares"}'
_RECOVERY_OVERFLOW = "the recovered coefficients hold a non-finite value"

# case -> (config, command, the start of its refusal line)
_EXIT2_CASES = {
    # the least-squares fit of 8 modes overflows
    "series-overflow": (_LSQ, ["forward", "--modes", "8"], _RECOVERY_OVERFLOW),
    # the projection's weighted data overflows, so its coefficients are not finite
    "data-overflow": ("{}", ["forward"], _RECOVERY_OVERFLOW),
    # finite coefficients, but amplification by up to 1e4 overflows the series
    "amplified-overflow": (
        '{"tf": 10, "beta": 1, "gamma": 1}',
        ["backward", "--eps", "1e-4"],
        "the series at t = 0.0 has a non-finite value",
    ),
    # 20 modes on 20 nodes per slab: the square design matrices are numerically singular
    "refused-fit": (_LSQ, ["forward", "--modes", "20"], "design matrix numerically rank deficient"),
}


@pytest.mark.parametrize("case", list(_EXIT2_CASES))
def test_main_exit2_when_the_series_is_not_finite(tmp_path, capsys, case):
    config, argv, message = _EXIT2_CASES[case]
    csv = tmp_path / "initial.csv"
    if case == "data-overflow":
        _write_rows(csv, ["b,-5,1", "b,0,1", "a,0,1", "a,3,1e308"])
    else:
        _write_cosine_csv(csv, 20, 1.0 if case == "refused-fit" else 1e306)
    cfg = tmp_path / "config.json"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main(argv + ["--infile", str(csv), "--config", str(cfg), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"numerical failure: {message}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eigen", "forward", "example", "check-bounds"])
def test_main_exit1_when_the_output_cannot_be_written(sys_cm, tmp_path, capsys, command):
    # a file stands where the output directory would be
    blocker = tmp_path / "file"
    blocker.write_text("")
    csv = tmp_path / "initial.csv"
    grid = uniform_grid(sys_cm, 20)
    write_field_csv(SampledField(grid, np.cos(grid.nodes_b), np.cos(grid.nodes_a), sys_cm.t0), csv)
    argv = {
        "eigen": ["eigen", "--out", str(blocker)],
        "forward": ["forward", "--infile", str(csv), "--out", str(blocker)],
        "example": ["example", "2d", "--out", str(blocker / "sub")],
        "check-bounds": ["check-bounds", "--trials", "1", "--out", str(blocker)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output: ")
    assert blocker.read_text() == ""


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    """A smooth field on 10^4 nodes per slab, and the configs the runs below name."""
    d = tmp_path_factory.mktemp("inputs")
    _write_cosine_csv(d / "smooth.csv", 10_000, 1.0)
    (d / "lsq.json").write_text(_LSQ)
    unit = {"K": 1.0, "kappa": 1.0}
    (d / "unit.json").write_text(json.dumps({"material_b": unit, "material_a": unit}))
    return d


def test_main_forward_names_modes_when_its_default_count_is_refused(
    inputs_dir, tmp_path, capsys, monkeypatch
):
    # 51 least-squares modes on 10^4 smooth nodes per slab exceed the condition limit
    monkeypatch.chdir(inputs_dir)
    out = tmp_path / "out"
    argv = ["forward", "--infile", "smooth.csv", "--config", "lsq.json", "--out", str(out)]
    assert main(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("numerical failure: design matrix numerically rank deficient")
    assert line.endswith("without --modes the fit takes 51 modes (the grid capacity, "
                         "at most mode_count), and --modes sets fewer")
    assert not out.exists()
    assert main(argv + ["--modes", "13"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        # 250 of these unit-material modes have a vanishing interface cosine
        ["eigen", "--count", "2000", "--config", "unit.json"],
        ["example", "2d"],
        ["forward", "--infile", "smooth.csv"],
        ["forward", "--infile", "smooth.csv", "--modes", "12", "--config", "lsq.json"],
        ["backward", "--infile", "smooth.csv", "--eps", "1e-4"],
    ],
    ids=["eigen-2000-unit", "example-2d", "forward-1e4", "forward-1e4-lsq", "backward-1e4"],
)
def test_main_writes_the_same_bytes_twice(inputs_dir, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(inputs_dir)
    trees = []
    for run in ("first", "second"):
        assert main(argv + ["--out", str(tmp_path / run)]) == 0
        root = tmp_path / run
        trees.append({p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()})
    assert trees[0] and trees[0] == trees[1]


def test_main_exit3_on_bound_violation(monkeypatch, tmp_path):
    bad = ExampleResult(
        name="example2",
        config=RunConfig(),
        table=ResultTable(xs=np.array([0.0]), columns={"exact": np.array([1.0])}),
        metadata={},
        bounds=[BoundRecord(name="fake", lhs=2.0, rhs=1.0, ok=False)],
        extra_csv={},
    )
    monkeypatch.setattr(cli, "run_example", lambda which, cfg: bad)
    assert main(["example", "2", "--out", str(tmp_path)]) == 3
    monkeypatch.setattr(cli, "check_bounds", lambda cfg, trials: [
        BoundRecord(name="fake", lhs=2.0, rhs=1.0, ok=False)
    ])
    assert main(["check-bounds", "--trials", "1", "--out", str(tmp_path)]) == 3


# ---------------------------------------------------------------------------
# installed console script


def _script():
    exe = shutil.which("twoslab")
    assert exe is not None, "console script not installed"
    return exe


def test_script_help():
    proc = subprocess.run([_script(), "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for cmd in ("eigen", "forward", "backward", "example", "table", "check-bounds"):
        assert cmd in proc.stdout


def test_script_table_subcommand(tmp_path):
    proc = subprocess.run(
        [_script(), "table", "2d", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    header = (tmp_path / "example2d_table.csv").read_text().splitlines()[0]
    assert "exact" in header.split(",")


def test_script_runs_are_byte_identical(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        proc = subprocess.run(
            [_script(), "example", "2", "--out", str(d)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    files = sorted(p.name for p in (d1 / "example2").iterdir())
    assert "reconstruction.csv" in files and "metadata.json" in files
    for name in files:
        assert filecmp.cmp(d1 / "example2" / name, d2 / "example2" / name, shallow=False), name
