"""Experiment harness and command line interface.

Subcommands
-----------
eigen         compute eigenvalues, write eigenvalues.csv
forward       evolve a sampled initial field to the final time
backward      cut-off reconstruction from a measured final field
example       run one of the canned experiments (1, 2, 3, 2d)
table         run an experiment but emit only its reconstruction table
check-bounds  Monte Carlo verification of the three growth/stability bounds

All randomness flows through counter-based Philox generators keyed by
(seed, example id, stream index), so concurrency and run order can never
change results; every artifact is byte-reproducible for a fixed config
and seed.  Exit codes: 0 ok, 1 invalid config/input or an output that
cannot be written, 2 numerical failure (rank deficiency, amplification
overflow, a non-finite series), 3 bound violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .core import (
    Grid,
    Material,
    NodeCountError,
    NumericalError,
    RankDeficientError,
    RegParams,
    SampledField,
    SlabSystem,
    ValidationError,
    trapezoid_norm,
    uniform_grid,
)
from .basis import EigenBasis, build_basis, slab_matrix
from .eigensolver import cutoff_mode_count
from .evolve import (
    NOISE_BUDGET_RTOL,
    cutoff_reconstruct,
    forward_solve,
    instability_lower_bound,
    noise_gap_bound,
    retained_modes,
    stability_bound,
)
from .spectral import (
    RECOVERY_POLICIES,
    CoeffVector,
    amplification_factors,
    project_coefficients,
    recover_coefficients,
    synthesize,
)
# recover_slice_coefficients stays importable from here: perfbench/repeat_share.py
# counts its calls under this module's name
from .bilayer2d import find_modes_2d, recover_slice_coefficients, slice_basis  # noqa: F401

RNG_NAME = "numpy.Philox/SeedSequence(seed, spawn_key=(example, stream))"

# Example 1's raw inversion solves a square mode_count x mode_count system
# per slab, 32 MB per matrix at this size before the SVDs.  Its square is
# the budget of every mode matrix a run builds per slab (``_require_budget``),
# checked before the matrix or anything else of its size is allocated.
MAX_RAW_INVERSION_MODES = 2000

# Example-3 pulse: energy Q deposited over depth sigma in the left slab.
EX3_Q = 5.0
EX3_SIGMA = 1e-3


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Everything an experiment run depends on, JSON-round-trippable."""

    a: float = 3.0
    b: float = 5.0
    c: float | None = None
    material_b: Material = field(default_factory=lambda: Material(K=3.42, kappa=0.838))
    material_a: Material = field(default_factory=lambda: Material(K=1.05, kappa=0.339))
    t0: float = 0.0
    tf: float = 0.1
    eps_list: tuple[float, ...] = (1e-2, 1e-4, 1e-6)
    beta: float = 0.05
    gamma: float = 0.5
    grid_points: int = 20
    seed: int = 20260815
    recovery_policy: str = "projection"
    mode_count: int = 51

    def system(self) -> SlabSystem:
        return SlabSystem(
            b=self.b, a=self.a, mat_b=self.material_b, mat_a=self.material_a,
            t0=self.t0, tf=self.tf, c=self.c,
        )

    def reg(self, epsilon: float) -> RegParams:
        return RegParams.from_rule(epsilon, self.beta, self.gamma, self.tf)

    def to_dict(self) -> dict:
        """The JSON form of the config; the optionals c and rho_c_override appear only when set."""
        d = asdict(self, dict_factory=lambda items: {k: v for k, v in items if v is not None})
        d["eps_list"] = list(self.eps_list)
        return d


def _real(value, name: str) -> float:
    if isinstance(value, (bool, str)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None


def _optional_real(value, name: str) -> float | None:
    return None if value is None else _real(value, name)


def _integer(value, name: str) -> int:
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def _policy(value, name: str) -> str:
    policy = str(value)
    if policy not in RECOVERY_POLICIES:
        raise ValidationError(f"{name}: unknown policy {policy!r}")
    return policy


def _eps_list(value, name: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a list of numbers")
    eps = tuple(_real(e, name) for e in value)
    if not eps or any(not (0 < e < 1) for e in eps):
        raise ValidationError(f"{name} must hold values in (0, 1)")
    labels = [eps_label(e) for e in eps]
    if len(set(labels)) < len(labels):
        raise ValidationError(f"{name} entries must have distinct labels, got {labels}")
    return eps


def _parse_material(obj, name: str) -> Material:
    values = _read_fields(Material, obj, name)
    if "K" not in values or "kappa" not in values:
        raise ValidationError(f"{name}: K and kappa are required")
    return Material(**values)


# the reader of each config field, chosen by the field's type
_READERS = {
    float: _real,
    float | None: _optional_real,
    int: _integer,
    str: _policy,
    tuple[float, ...]: _eps_list,
    Material: _parse_material,
}


def _read_fields(cls, obj, path: str) -> dict:
    """obj's entries for the fields of ``cls``, each read by its type's reader.

    Unknown keys are refused; messages name each value by its dotted path.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{path} must be an object")
    types = get_type_hints(cls)
    unknown = set(obj) - set(types)
    if unknown:
        raise ValidationError(f"{path}: unknown keys {sorted(unknown)}")
    return {k: _READERS[t](obj[k], f"{path}.{k}") for k, t in types.items() if k in obj}


def config_from_dict(obj: dict, base: RunConfig | None = None) -> RunConfig:
    """Merge a JSON object into a base config; unknown keys are rejected."""
    kwargs = _read_fields(RunConfig, obj, "config")
    if kwargs.get("mode_count", 1) < 1:
        raise ValidationError("mode_count must be at least 1")
    if kwargs.get("seed", 0) < 0:
        raise ValidationError("seed must be non-negative")
    cfg = replace(base if base is not None else RunConfig(), **kwargs)
    # grid_points rows of one mode: the smallest mode matrix a run on the config's grid builds
    _require_budget(cfg.grid_points, 1, "grid_points")
    cfg.system()  # validate geometry/time window now
    return cfg


def _require_budget(rows: int, modes: int, what: str) -> None:
    """Refuse a per-slab mode matrix of rows x modes past the budget, before it is built."""
    if rows * modes > MAX_RAW_INVERSION_MODES**2:
        raise ValidationError(
            f"{what}: a {rows} x {modes} mode matrix per slab passes the budget of "
            f"{MAX_RAW_INVERSION_MODES**2} entries"
        )


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"{path}: cannot read ({reason})") from exc


def load_config(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    try:
        obj = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path}: invalid JSON ({exc})") from exc
    return config_from_dict(obj, base)


def default_config(example: str) -> RunConfig:
    """Paper-parameter defaults per experiment."""
    if example in ("1", "2"):
        return RunConfig()
    if example == "3":
        # published plateau implies rho_b c_b = kappa_b / K_b; keep the
        # physical value reachable by clearing the override in a config.
        # the pulse is slab-local, so per-slab fitting keeps the right
        # slab noise-only instead of smearing the interface jump
        return replace(
            RunConfig(),
            material_b=Material(K=3.42, kappa=0.838, rho_c_override=0.838 / 3.42),
            recovery_policy="least-squares",
        )
    if example == "2d":
        # the slice systems are square, solved per layer by least squares
        return replace(
            RunConfig(), a=1.0, b=1.0, c=1.0, beta=0.01, gamma=1.0, mode_count=16,
            recovery_policy="least-squares",
        )
    raise ValidationError(f"unknown example {example!r}")


# --------------------------------------------------------------------------
# randomness and noise


def rng_for(seed: int, example: int, stream: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(example, stream))
    return np.random.Generator(np.random.Philox(ss))


def _budget_norm(grid: Grid, values_b: np.ndarray, values_a: np.ndarray) -> float:
    """Summed per-slab discrete L2 norms, the measure of the noise budget."""
    db, da = trapezoid_norm(SampledField(grid, values_b, values_a, 0.0))
    return db + da


def inject_noise(
    field: SampledField, epsilon: float, bound: float, rng: np.random.Generator
) -> SampledField:
    """Add uniform noise eps * rand with |rand| <= bound per node, drawn from ``rng``.

    The perturbation is rescaled when its summed per-slab discrete L2
    norms exceed the terminal budget eps.  Adding it to the field rounds
    every node, so the perturbation the result carries (noisy - field)
    is measured again and shrunk when it exceeds eps by more than
    NOISE_BUDGET_RTOL, leaving room for that rounding.  The noisy field
    therefore always passes the budget check of ``noise_gap_bound``.
    """
    if bound < 0:
        raise ValidationError("noise bound must be non-negative")
    grid = field.grid
    nb, na = len(grid.nodes_b), len(grid.nodes_a)
    draw = rng.uniform(-bound, bound, size=nb + na)
    delta_b = epsilon * draw[:nb]
    delta_a = epsilon * draw[nb:]
    total = _budget_norm(grid, delta_b, delta_a)
    if epsilon > 0 and total > epsilon:
        scale = epsilon / total
        delta_b = delta_b * scale
        delta_a = delta_a * scale
    noisy_b = field.values_b + delta_b
    noisy_a = field.values_a + delta_a
    realised = _budget_norm(grid, noisy_b - field.values_b, noisy_a - field.values_a)
    if epsilon > 0 and realised > epsilon * (1.0 + NOISE_BUDGET_RTOL):
        # re-adding rounds each node by at most half a spacing of its sum,
        # and one old spacing still covers that if the sum changes binade
        rounding = _budget_norm(grid, np.spacing(np.abs(noisy_b)), np.spacing(np.abs(noisy_a)))
        scale = max(epsilon - rounding, 0.0) / _budget_norm(grid, delta_b, delta_a)
        noisy_b = field.values_b + delta_b * scale
        noisy_a = field.values_a + delta_a * scale
    return SampledField(grid=grid, values_b=noisy_b, values_a=noisy_a, time=field.time)


# --------------------------------------------------------------------------
# tables and CSV emission


def eps_label(eps: float) -> str:
    if eps > 0:
        exp = round(math.log10(eps))
        if math.isclose(eps, 10.0**exp, rel_tol=1e-12):
            return f"eps_1e{exp}"
    return f"eps_{eps:g}"


@dataclass
class ResultTable:
    """Reconstruction values keyed by x-position.

    Rows run through the left-slab nodes then the right-slab nodes, so
    the interface x = 0 appears twice (left-slab then right-slab value).
    """

    xs: np.ndarray
    columns: dict[str, np.ndarray]


def emit_table(table: ResultTable, path: str | Path) -> None:
    """Write the table as CSV with 5 fractional digits."""
    names = list(table.columns)
    rows = [
        ",".join([f"{x:.5f}"] + [f"{table.columns[n][i]:.5f}" for n in names])
        for i, x in enumerate(table.xs)
    ]
    _write_csv(Path(path), "x," + ",".join(names), rows)


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.write_text("\n".join([header] + rows) + "\n")


def write_field_csv(field: SampledField, path: str | Path) -> None:
    rows = [
        f"b,{x:.10e},{v:.10e}" for x, v in zip(field.grid.nodes_b, field.values_b)
    ] + [f"a,{x:.10e},{v:.10e}" for x, v in zip(field.grid.nodes_a, field.values_a)]
    _write_csv(Path(path), "slab,x,value", rows)


def read_field_csv(path: str | Path, time: float) -> SampledField:
    """Read a slab,x,value CSV; malformed rows and non-finite numbers are refused."""
    lines = _read_text(path).strip().splitlines()
    if not lines or lines[0] != "slab,x,value":
        raise ValidationError(f"{path}: expected header 'slab,x,value'")
    cols: dict[str, tuple[list[float], list[float]]] = {"b": ([], []), "a": ([], [])}
    for lineno, ln in enumerate(lines[1:], start=2):
        fields = ln.split(",")
        if len(fields) != 3:
            raise ValidationError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
        slab, x, v = fields
        if slab not in cols:
            raise ValidationError(f"{path}: unknown slab {slab!r}")
        try:
            xv, vv = float(x), float(v)
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        if not (math.isfinite(xv) and math.isfinite(vv)):
            raise ValidationError(f"{path}:{lineno}: x and value must be finite")
        cols[slab][0].append(xv)
        cols[slab][1].append(vv)
    (xb, vb), (xa, va) = cols["b"], cols["a"]
    return SampledField(Grid(np.array(xb), np.array(xa)), np.array(vb), np.array(va), time)


def write_metadata(meta: dict, path: Path) -> None:
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


@dataclass
class BoundRecord:
    name: str
    lhs: float
    rhs: float
    ok: bool


def write_bounds_csv(records: list[BoundRecord], path: Path) -> None:
    # a name lists its case with commas, so the field is quoted
    rows = [f'"{r.name}",{r.lhs:.12e},{r.rhs:.12e},{int(r.ok)}' for r in records]
    _write_csv(path, "name,lhs,rhs,pass", rows)


def write_eigenvalues_csv(basis: EigenBasis, path: Path) -> None:
    columns = zip(basis.lambda_b.tolist(), basis.lambda_a.tolist(), basis.lambda_bar.tolist())
    rows = [f"{n},{lb:.12e},{la:.12e},{lbar:.12e}" for n, (lb, la, lbar) in enumerate(columns)]
    _write_csv(path, "n,lambda_b,lambda_a,lambda_bar", rows)


# --------------------------------------------------------------------------
# experiment runs

BOUND_TOL = 1e-8  # relative slack when comparing the two sides
BOUND_SUITE_MODES = 20  # modes per bound-suite system; its grid has twice as many nodes per slab


def _check(name: str, lhs: float, rhs: float, direction: str) -> BoundRecord:
    """The verdict on two finite sides: the checkers refuse a side that is not."""
    if direction == "lower":  # theorem says lhs >= rhs
        ok = lhs >= rhs * (1.0 - BOUND_TOL) - 1e-300
    else:  # theorem says lhs <= rhs
        ok = lhs <= rhs * (1.0 + BOUND_TOL) + 1e-300
    return BoundRecord(name=name, lhs=lhs, rhs=rhs, ok=ok)


def _l2_error(grid: Grid, values: np.ndarray, exact: np.ndarray) -> float:
    """Trapezoid L2 distance of two fields stacked as table columns (left slab first)."""
    nb = len(grid.nodes_b)
    db = float(np.trapezoid((values[:nb] - exact[:nb]) ** 2, grid.nodes_b))
    da = float(np.trapezoid((values[nb:] - exact[nb:]) ** 2, grid.nodes_a))
    return math.sqrt(max(0.0, db + da))


@dataclass
class ExampleResult:
    name: str
    config: RunConfig
    table: ResultTable
    metadata: dict
    bounds: list[BoundRecord]
    extra_csv: dict[str, tuple[str, list[str]]]  # filename -> (header, rows)
    eigen_basis: EigenBasis | None = None

    @property
    def bounds_ok(self) -> bool:
        return all(r.ok for r in self.bounds)


def _cutoff_checks(
    basis: EigenBasis, clean: SampledField, noisy: SampledField, reg: RegParams, t: float, tag: str
) -> list[BoundRecord]:
    """The stability and noise-gap records of one clean/noisy pair of final fields."""
    lhs, rhs = stability_bound(basis, clean, reg, t)
    rec = [_check(f"stability[{tag}]", lhs, rhs, "upper")]
    lhs, rhs = noise_gap_bound(basis, clean, noisy, reg, t)
    return rec + [_check(f"noise_gap[{tag}]", lhs, rhs, "upper")]


def _cutoff_basis(s: SlabSystem, reg: RegParams, nodes: int, least: int = 1) -> EigenBasis:
    """A rod basis of at least ``least`` modes for the cut-off of ``reg`` on ``nodes`` per slab.

    It holds every mode the cut-off keeps plus one (``cutoff_mode_count``), and
    is refused before it is built when a nodes x count matrix passes the budget.
    """
    count = cutoff_mode_count(s, reg.n_eps)
    _require_budget(nodes, count, _cutoff_label(reg))
    return build_basis(s, max(least, count))


def _cutoff_label(reg: RegParams) -> str:
    """The eps and N_eps a refusal of one cut-off names."""
    return f"eps={reg.epsilon:g}, N_eps = {reg.n_eps:.6g}"


def _cutoff_example(
    cfg: RunConfig,
    example_id: int,
    basis: EigenBasis,
    initial: SampledField,
    noise_bound: float,
    final: SampledField | None = None,
) -> tuple[ExampleResult, list[SampledField]]:
    """The cut-off run of Examples 1-3: one reconstruction at t0 per eps.

    Per eps, the final data for the retained modes (``final`` when given,
    else ``initial`` evolved forward over them) takes noise from stream
    (seed, example_id, i), is reconstructed at t0 on ``initial``'s grid
    and checked against the three estimates.  ``basis`` comes from
    ``_cutoff_basis`` at the smallest eps, so it holds every mode each
    cut-off keeps.  Returns the result and each eps's noisy final data.
    """
    s = basis.sys
    grid = initial.grid
    exact = np.concatenate([initial.values_b, initial.values_a])
    columns: dict[str, np.ndarray] = {}
    bounds: list[BoundRecord] = []
    per_eps: dict = {}
    noisy_data: list[SampledField] = []
    for i, eps in enumerate(cfg.eps_list):
        reg = cfg.reg(eps)
        m = retained_modes(basis, reg.n_eps)
        clean = final if final is not None else forward_solve(
            basis, initial, grid, m, policy=cfg.recovery_policy
        )
        noisy = inject_noise(clean, eps, noise_bound, rng_for(cfg.seed, example_id, i))
        recon = cutoff_reconstruct(basis, noisy, reg, s.t0, policy=cfg.recovery_policy)
        vals = np.concatenate([recon.values_b, recon.values_a])
        columns[eps_label(eps)] = vals
        tag = f"eps={eps:g}"
        bounds += _cutoff_checks(basis, clean, noisy, reg, s.t0, tag)
        # the growth estimate concerns the solution's own Fourier
        # coefficients; the projection gives a consistent vector (per-slab
        # least squares may not)
        lhs, rhs = instability_lower_bound(basis, project_coefficients(basis, noisy, m), s.t0)
        bounds.append(_check(f"instability[{tag}]", lhs, rhs, "lower"))
        per_eps[eps_label(eps)] = {
            "epsilon": eps,
            "n_eps": reg.n_eps,
            "retained_modes": m,
            "l2_error_vs_initial": _l2_error(grid, vals, exact),
            "right_slab_max_abs": float(np.max(np.abs(recon.values_a))),
            "value_at_interface_right": float(recon.values_a[0]),
        }
        noisy_data.append(noisy)
    columns["exact"] = exact
    table = ResultTable(np.concatenate([grid.nodes_b, grid.nodes_a]), columns)
    meta = {"example": example_id, "noise_bound": noise_bound, "per_eps": per_eps}
    return ExampleResult(f"example{example_id}", cfg, table, meta, bounds, {}, basis), noisy_data


def run_example1(cfg: RunConfig) -> ExampleResult:
    """Single-mode final data with noise; regularized vs raw recovery.

    The final data is the first eigen-element scaled by e^{-tf/2}/(a+b);
    the raw (all-mode) inversion on a square grid demonstrates the
    instability that the cut-off removes.
    """
    if cfg.mode_count < 2:
        raise ValidationError(
            f"example 1 needs mode 1: mode_count must be at least 2, got {cfg.mode_count}"
        )
    _require_budget(cfg.mode_count, cfg.mode_count, "example 1's raw inversion on mode_count nodes")
    s = cfg.system()
    basis = _cutoff_basis(s, cfg.reg(min(cfg.eps_list)), cfg.grid_points, cfg.mode_count)
    grid = uniform_grid(s, cfg.grid_points)
    lam_bar1 = float(basis.lambda_bar[1])
    amplification_factors(basis, 2, s.t0)  # refuses lambda_bar_1 (tf - t0) past the limit
    amp1 = math.exp(lam_bar1 * s.window)
    scale = math.exp(-s.tf / 2.0) / (s.a + s.b)

    def mode1_data(g: Grid) -> SampledField:
        # scale * amp rounds before the cosine multiplies it: not scale * phi
        return SampledField(
            g,
            scale * basis.amp_b[1] * np.cos(basis.lambda_b[1] * (g.nodes_b + s.b)),
            scale * basis.amp_a[1] * np.cos(basis.lambda_a[1] * (g.nodes_a - s.a)),
            s.tf,
        )

    exact0 = scale * amp1
    initial = SampledField(
        grid, exact0 * basis.phi(1, grid.nodes_b), exact0 * basis.phi(1, grid.nodes_a), s.t0
    )
    bound = math.sqrt(2.0 * max(s.a, s.b))
    result, noisy = _cutoff_example(cfg, 1, basis, initial, bound, final=mode1_data(grid))

    # the first eps's cut-off, recovered once and amplified to each t
    m = retained_modes(basis, cfg.reg(cfg.eps_list[0]).n_eps)
    coeffs = recover_coefficients(basis, noisy[0], m, cfg.recovery_policy)
    surface_rows: list[str] = []
    for t in np.linspace(s.t0, s.tf, 11):
        snap = synthesize(basis, coeffs, float(t), noisy[0].grid)
        values = np.concatenate([snap.values_b, snap.values_a])
        surface_rows += [f"{x:.5f},{t:.5f},{v:.6e}" for x, v in zip(result.table.xs, values)]

    # raw inversion: square system with every mode, no cut-off.  The
    # design matrices are numerically rank deficient (restricted cosines
    # lose independence), which recover_coefficients rightly refuses, so the
    # demo solves and evaluates on these dense matrices; the point is the blow-up.
    grid_sq = uniform_grid(s, cfg.mode_count)
    noisy_sq = inject_noise(mode1_data(grid_sq), cfg.eps_list[0], bound, rng_for(cfg.seed, 1, 50))
    A_b = slab_matrix(basis, grid_sq.nodes_b, "b", cfg.mode_count)
    A_a = slab_matrix(basis, grid_sq.nodes_a, "a", cfg.mode_count)
    (c_b, _, _, s_b), (c_a, _, _, s_a) = (
        np.linalg.lstsq(A_b, noisy_sq.values_b, rcond=None),
        np.linalg.lstsq(A_a, noisy_sq.values_a, rcond=None),
    )
    amp = amplification_factors(basis, cfg.mode_count, s.t0)
    with np.errstate(over="ignore", invalid="ignore"):
        raw_values = np.concatenate([A_b @ (c_b * amp), A_a @ (c_a * amp)])
    if not np.isfinite(raw_values).all():
        raise NumericalError(f"the series at t = {s.t0!r} has a non-finite value")
    result.metadata.update(
        lambda_bar_1=lam_bar1,
        # data amplitude uses the literal e^{-tf/2}; reconstruction applies
        # the computed rate, recorded here
        amplitude_factor_data=math.exp(-s.tf / 2.0),
        amplification_factor_mode1=amp1,
        # read off the singular values lstsq returned, so each slab is factored once
        raw_design_condition=max(float(s_b[0] / s_b[-1]), float(s_a[0] / s_a[-1])),
        unregularized_max_abs=float(np.max(np.abs(raw_values))),
        regularized_max_abs=float(np.max(np.abs(result.table.columns[eps_label(cfg.eps_list[0])]))),
    )
    raw_rows = [
        f"{x:.5f},{v:.6e}"
        for x, v in zip(np.concatenate([grid_sq.nodes_b, grid_sq.nodes_a]), raw_values)
    ]
    result.extra_csv.update(
        {"surface.csv": ("x,t,value", surface_rows), "unregularized.csv": ("x,value", raw_rows)}
    )
    return result


def _forward_backward_example(cfg: RunConfig, example_id: int, f_b, f_a) -> ExampleResult:
    """Examples 2 and 3: the cut-off run on the final data of the initial state (f_b, f_a)."""
    s = cfg.system()
    basis = _cutoff_basis(s, cfg.reg(min(cfg.eps_list)), cfg.grid_points, cfg.mode_count)
    grid = uniform_grid(s, cfg.grid_points)
    initial = SampledField(grid, f_b(grid.nodes_b), f_a(grid.nodes_a), s.t0)
    return _cutoff_example(cfg, example_id, basis, initial, (2.0 * s.b) ** -0.25)[0]


def run_example2(cfg: RunConfig) -> ExampleResult:
    """Piecewise-linear initial state: forward evolve, then reconstruct."""
    return _forward_backward_example(
        cfg, 2,
        lambda x: np.where(x > -cfg.b / 2, x, -cfg.b / 2),
        lambda x: np.where(x < cfg.a / 2, -x, -cfg.a / 2),
    )


def run_example3(cfg: RunConfig) -> ExampleResult:
    """Heat-pulse initial state confined to the left slab.

    The plateau Q/(rho_b c_b sigma) honors rho_c_override, which is how
    the published table values are reproduced; clearing the override
    gives the physical K/kappa capacity instead.
    """
    rho_c_b = cfg.system().mat_b.rho_c
    plateau = EX3_Q / (rho_c_b * EX3_SIGMA)
    result = _forward_backward_example(cfg, 3, lambda x: np.full_like(x, plateau), np.zeros_like)
    result.metadata.update(plateau=plateau, rho_c_b=rho_c_b, pulse={"Q": EX3_Q, "sigma": EX3_SIGMA})

    # log-scale companion: per-eps reconstructions with |value| columns
    table = result.table
    names = [eps_label(e) for e in cfg.eps_list]
    rows = []
    for i, x in enumerate(table.xs):
        parts = [f"{x:.5f}"]
        for nm in names:
            v = table.columns[nm][i]
            parts += [f"{v:.6e}", f"{abs(v):.6e}"]
        rows.append(",".join(parts))
    header = "x," + ",".join(f"{nm},abs_{nm.removeprefix('eps_')}" for nm in names)
    result.extra_csv["logscale.csv"] = (header, rows)
    return result


def run_example2d(cfg: RunConfig) -> ExampleResult:
    """Bilayer plate slice experiment at y0 = 0.

    Initial state cos(pi (x+b)) cos(pi y) | cos(pi (x-a)) cos(pi y); for
    each eps the slice is collocated on |Theta(eps)| nodes per layer.
    """
    s = cfg.system()
    if s.c is None:
        raise ValidationError("example 2d needs a transverse depth c in the config")
    if cfg.recovery_policy != "least-squares":
        raise ValidationError(
            "example 2d solves its square slice systems by least squares: "
            f"recovery_policy must be 'least-squares', got {cfg.recovery_policy!r}"
        )
    y0 = 0.0
    noise_bound = ((s.a + s.b) * s.c) ** -0.5
    display = uniform_grid(s, cfg.grid_points)

    def slice_b(x):
        return np.cos(math.pi * (np.asarray(x, dtype=float) + s.b)) * math.cos(math.pi * y0)

    def slice_a(x):
        return np.cos(math.pi * (np.asarray(x, dtype=float) - s.a)) * math.cos(math.pi * y0)

    exact = np.concatenate([slice_b(display.nodes_b), slice_a(display.nodes_a)])
    columns: dict[str, np.ndarray] = {}
    per_eps: dict = {}
    modes_csv_rows: list[str] = []
    for i, eps in enumerate(cfg.eps_list):
        reg = cfg.reg(eps)
        modes = find_modes_2d(s, reg.n_eps)
        count = len(modes)  # at least the constant mode, as n_eps >= 0
        # the slice grid and the display grid each take a matrix of count modes
        _require_budget(max(count, cfg.grid_points), count, _cutoff_label(reg))
        basis2d = slice_basis(modes, y0)
        grid = uniform_grid(s, count)
        initial = SampledField(grid, slice_b(grid.nodes_b), slice_a(grid.nodes_a), s.t0)
        final = forward_solve(basis2d, initial, grid, count, "least-squares")
        noisy = inject_noise(final, eps, noise_bound, rng_for(cfg.seed, 4, i))
        rec = recover_coefficients(basis2d, noisy, count, "least-squares")
        recon = synthesize(basis2d, rec, s.t0, display)
        vals = np.concatenate([recon.values_b, recon.values_a])
        columns[eps_label(eps)] = vals
        per_eps[eps_label(eps)] = {
            "epsilon": eps,
            "n_eps": reg.n_eps,
            "retained_modes": count,
            "mode_index_pairs": np.column_stack((basis2d.m, basis2d.n)).tolist(),
            "l2_error_vs_initial": _l2_error(display, vals, exact),
        }
        if eps == min(cfg.eps_list):  # the largest mode set, as examples 1-3 list theirs
            freqs = (basis2d.mu, basis2d.lambda_b, basis2d.lambda_a, basis2d.lambda_bar)
            rows = zip(*(c.tolist() for c in (basis2d.m, basis2d.n, *freqs)))
            modes_csv_rows = [
                f"{m},{n},{mu:.12e},{nb:.12e},{na:.12e},{lam:.12e}"
                for m, n, mu, nb, na, lam in rows
            ]
    columns["exact"] = exact
    table = ResultTable(np.concatenate([display.nodes_b, display.nodes_a]), columns)
    meta = {
        "example": "2d",
        "y0": y0,
        "noise_bound": noise_bound,
        "per_eps": per_eps,
    }
    return ExampleResult(
        name="example2d", config=cfg, table=table, metadata=meta, bounds=[],
        extra_csv={"modes2d.csv": ("m,n,mu,nu_b,nu_a,lambda_bar", modes_csv_rows)},
    )


RUNNERS = {"1": run_example1, "2": run_example2, "3": run_example3, "2d": run_example2d}


def run_example(example: str, cfg: RunConfig) -> ExampleResult:
    if example not in RUNNERS:
        raise ValidationError(f"unknown example {example!r} (choose 1, 2, 3 or 2d)")
    return RUNNERS[example](cfg)


def write_example_outputs(result: ExampleResult, out_dir: str | Path) -> Path:
    out = Path(out_dir) / result.name
    out.mkdir(parents=True, exist_ok=True)
    emit_table(result.table, out / "reconstruction.csv")
    if result.bounds:
        write_bounds_csv(result.bounds, out / "bounds.csv")
    if result.eigen_basis is not None:
        write_eigenvalues_csv(result.eigen_basis, out / "eigenvalues.csv")
    for fname, (header, rows) in result.extra_csv.items():
        _write_csv(out / fname, header, rows)
    # the run facts every example records next to its own metadata
    meta = dict(result.metadata, rng=RNG_NAME, seed=result.config.seed)
    meta["config"] = result.config.to_dict()
    meta["bounds_ok"] = result.bounds_ok
    write_metadata(meta, out / "metadata.json")
    return out


# --------------------------------------------------------------------------
# bound suite


def check_bounds(cfg: RunConfig, trials: int = 100) -> list[BoundRecord]:
    """Monte Carlo verification of the three estimates.

    Random consistent coefficient vectors in [-1, 1]^BOUND_SUITE_MODES feed the
    instability lower bound directly; their synthesized final fields
    (plus injected noise at each eps) feed the stability and noise-gap
    estimates.  Runs on the configured system and on its unit-parameter
    twin, at t0 and at the window midpoint.
    """
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    records: list[BoundRecord] = []
    systems = {
        "config": cfg.system(),
        "explicit": SlabSystem(
            b=cfg.b, a=cfg.a, mat_b=Material(K=1.0, kappa=1.0),
            mat_a=Material(K=1.0, kappa=1.0), t0=cfg.t0, tf=cfg.tf,
        ),
    }
    for sys_name, s in systems.items():
        basis = build_basis(s, BOUND_SUITE_MODES)
        grid = uniform_grid(s, 2 * BOUND_SUITE_MODES)
        t_values = {"t0": s.t0, "mid": 0.5 * (s.t0 + s.tf)}
        for trial in range(trials):
            rng = rng_for(cfg.seed, 5, trial if sys_name == "config" else 10_000 + trial)
            c = rng.uniform(-1.0, 1.0, size=BOUND_SUITE_MODES)
            coeffs = CoeffVector(basis=basis, c_b=c, c_a=c.copy())
            final = synthesize(basis, coeffs, s.tf, grid)
            for t_name, t in t_values.items():
                lhs, rhs = instability_lower_bound(basis, coeffs, t)
                records.append(
                    _check(f"instability[{sys_name},{t_name},trial={trial}]", lhs, rhs, "lower")
                )
                for eps in cfg.eps_list:
                    noisy = inject_noise(final, eps, math.sqrt(2 * max(s.a, s.b)), rng)
                    tag = f"{sys_name},{t_name},eps={eps:g},trial={trial}"
                    records += _cutoff_checks(basis, final, noisy, cfg.reg(eps), t, tag)
    return records


# --------------------------------------------------------------------------
# command line


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file merged over the defaults")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", default="out", help="output directory (default: out)")


def _resolve_config(args, example: str) -> RunConfig:
    cfg = default_config(example)
    if args.config:
        cfg = load_config(args.config, cfg)
    if args.seed is not None:
        cfg = config_from_dict({"seed": args.seed}, cfg)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="twoslab",
        description="Backward heat conduction in a two-slab composite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="compute eigenvalues")
    p.add_argument("--count", type=int, help="number of modes (default config mode_count)")
    _add_common(p)

    p = sub.add_parser("forward", help="evolve an initial field CSV to tf")
    p.add_argument("--infile", required=True, help="field CSV (slab,x,value) at t0")
    p.add_argument("--modes", type=int, help="modes to fit (default: grid capacity)")
    _add_common(p)

    p = sub.add_parser("backward", help="cut-off reconstruction from a final field CSV")
    p.add_argument("--infile", required=True, help="field CSV (slab,x,value) at tf")
    p.add_argument("--eps", type=float, required=True, help="noise level for the cut-off rule")
    p.add_argument("--t", type=float, help="reconstruction time (default t0)")
    _add_common(p)

    for name, text in (("example", "run a canned experiment"),
                       ("table", "run an experiment, emit only its table")):
        p = sub.add_parser(name, help=text)
        p.add_argument("which", choices=list(RUNNERS))
        _add_common(p)

    p = sub.add_parser("check-bounds", help="Monte Carlo bound verification")
    p.add_argument("--trials", type=int, default=100)
    _add_common(p)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 2
    except OSError as exc:
        # inputs are read through _read_text, which raises ValidationError,
        # so an OSError here comes from creating or writing an output
        print(f"error: cannot write output: {exc}", file=_sys.stderr)
        return 1


def _write_and_report(write, payload, path: Path) -> None:
    """Write one artifact with ``write(payload, path)``, creating its directory, and report it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    write(payload, path)
    print(f"wrote {path}")


def _dispatch(args) -> int:
    out = Path(args.out)
    cfg = _resolve_config(args, getattr(args, "which", "1"))
    if args.command == "eigen":
        basis = build_basis(cfg.system(), args.count if args.count is not None else cfg.mode_count)
        _write_and_report(write_eigenvalues_csv, basis, out / "eigenvalues.csv")
        return 0

    if args.command == "forward":
        s = cfg.system()
        field0 = read_field_csv(args.infile, s.t0)
        nb, na = len(field0.grid.nodes_b), len(field0.grid.nodes_a)
        # by default as many modes as both slabs' nodes can determine
        modes = min(cfg.mode_count, nb, na) if args.modes is None else args.modes
        _require_budget(max(nb, na), modes, "forward")
        basis = build_basis(s, modes)
        try:
            final = forward_solve(basis, field0, field0.grid, modes, policy=cfg.recovery_policy)
        except RankDeficientError as exc:
            if args.modes is not None:
                raise
            raise RankDeficientError(
                f"{exc}; without --modes the fit takes {modes} modes (the grid capacity, "
                "at most mode_count), and --modes sets fewer",
                exc.condition,
            ) from exc
        _write_and_report(write_field_csv, final, out / "forward.csv")
        return 0

    if args.command == "backward":
        s = cfg.system()
        field_tf = read_field_csv(args.infile, s.tf)
        reg = cfg.reg(args.eps)
        nb, na = len(field_tf.grid.nodes_b), len(field_tf.grid.nodes_a)
        basis = _cutoff_basis(s, reg, max(nb, na))
        t = args.t if args.t is not None else s.t0
        try:
            recon = cutoff_reconstruct(basis, field_tf, reg, t, policy=cfg.recovery_policy)
        except NodeCountError as exc:
            # refused before recovery, after the amplification guard (exit 2 whatever the nodes)
            raise ValidationError(
                f"{_cutoff_label(reg)}: {nb} + {na} nodes per slab cannot determine the "
                f"{retained_modes(basis, reg.n_eps)} retained modes by {cfg.recovery_policy}"
            ) from exc
        _write_and_report(write_field_csv, recon, out / "backward.csv")
        return 0

    if args.command in ("example", "table"):
        result = run_example(args.which, cfg)
        if args.command == "table":
            _write_and_report(emit_table, result.table, out / f"{result.name}_table.csv")
        else:
            run_dir = write_example_outputs(result, out)
            print(f"wrote {run_dir}")
        if not result.bounds_ok:
            print("bound violation detected", file=_sys.stderr)
            return 3
        return 0

    if args.command == "check-bounds":
        records = check_bounds(cfg, trials=args.trials)
        out.mkdir(parents=True, exist_ok=True)
        write_bounds_csv(records, out / "bounds.csv")
        bad = [r for r in records if not r.ok]
        print(f"wrote {out / 'bounds.csv'} ({len(records)} checks, {len(bad)} violations)")
        return 3 if bad else 0

    raise ValidationError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
