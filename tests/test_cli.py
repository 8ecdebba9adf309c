import filecmp
import json
import math
import shutil
import subprocess
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import twoslab.cli as cli
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
    parse_table,
    read_field_csv,
    rng_for,
    run_example,
    write_example_outputs,
    write_field_csv,
)
from twoslab.core import Material, SampledField, ValidationError, trapezoid_norm, uniform_grid
from twoslab.evolve import NOISE_BUDGET_RTOL


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


def test_config_round_trip():
    cfg = replace(
        RunConfig(),
        c=2.0,
        material_b=Material(K=3.42, kappa=0.838, rho_c_override=0.245),
        eps_list=(1e-3,),
        seed=77,
    )
    assert config_from_dict(cfg.to_dict()) == cfg


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


def test_inject_noise_respects_budget(sys_cm, grid_cm):
    clean = SampledField(grid_cm, np.zeros(40), np.zeros(40), sys_cm.tf)
    eps = 1e-2
    noisy = inject_noise(clean, eps, 10.0, 123)
    db, da = trapezoid_norm(noisy)
    assert db + da <= eps * (1 + 1e-12)
    again = inject_noise(clean, eps, 10.0, 123)
    assert np.array_equal(noisy.values_b, again.values_b)
    assert np.array_equal(noisy.values_a, again.values_a)


def test_inject_noise_budget_survives_rounding_on_large_values(sys_cm, grid_cm):
    # adding eps-sized noise to values near 1e4 rounds every node by ~1e-12
    clean = SampledField(grid_cm, np.full(40, 1.0e4), np.linspace(-9e3, 9e3, 40), sys_cm.tf)
    eps = 1e-6
    for seed in range(50):
        noisy = inject_noise(clean, eps, 10.0, seed)
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
    noisy = inject_noise(clean, 0.0, 1.0, 5)
    assert np.array_equal(noisy.values_b, clean.values_b)
    assert np.array_equal(noisy.values_a, clean.values_a)


def test_inject_noise_negative_bound(sys_cm, grid_cm):
    clean = SampledField(grid_cm, np.zeros(40), np.zeros(40), sys_cm.tf)
    with pytest.raises(ValidationError):
        inject_noise(clean, 1e-2, -1.0, 5)


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
    back = parse_table(path)
    assert list(back.columns) == ["u", "v"]
    assert np.allclose(back.xs, table.xs, atol=5.1e-6)
    assert np.allclose(back.column("u"), table.column("u"), atol=5.1e-6)


def test_parse_table_rejects_foreign_csv(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("time,value\n0,1\n")
    with pytest.raises(ValidationError):
        parse_table(p)


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


def test_check_bounds_record_inventory():
    records = check_bounds(RunConfig(), trials=5)
    # 2 systems x 5 trials x 2 times x (1 instability + 3 eps x 2 bounds)
    assert len(records) == 140
    assert all(r.ok for r in records)


# ---------------------------------------------------------------------------
# entry point (in process)


def test_main_eigen_writes_csv(tmp_path):
    assert main(["eigen", "--count", "5", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "eigenvalues.csv").read_text().strip().splitlines()
    assert lines[0] == "n,lambda_b,lambda_a,lambda_bar"
    assert len(lines) == 6


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


def test_main_exit1_on_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    assert main(["example", "2", "--config", str(bad), "--out", str(tmp_path)]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["eigen", "--config", str(broken), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("command", ["forward", "backward"])
@pytest.mark.parametrize("bad", ["nan", "b,-1.0", "b,-1.0,x"])
def test_main_exit1_on_bad_field_csv(sys_cm, tmp_path, capsys, command, bad):
    grid = uniform_grid(sys_cm, 20)
    csv = tmp_path / "field.csv"
    write_field_csv(SampledField(grid, np.ones(20), np.ones(20), sys_cm.tf), csv)
    lines = csv.read_text().splitlines()
    lines[5] = "b,-4.0,nan" if bad == "nan" else bad
    csv.write_text("\n".join(lines) + "\n")
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
    table = parse_table(tmp_path / "example2d_table.csv")
    assert "exact" in table.columns


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
