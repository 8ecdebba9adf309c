"""Self-tests of the benchmark: statistics, checks, tracing and its metric list.

    python3 -m pytest perfbench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# statistics


def test_median_and_nearest_rank_percentile():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    xs = list(range(1, 101))
    assert stats.percentile(xs, 50) == 50
    assert stats.percentile(xs, 90) == 90
    assert stats.percentile(xs, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (19, None), (20, 50.0), (24, 50.0), (25, 60.0), (40, 75.0), (72, 80.0),
     (99, 80.0), (100, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    p = stats.tail_percentile(n)
    assert p == expected
    if p is not None:
        rank = math.ceil(p / 100 * n - 1e-9)
        assert n - rank >= stats.TAIL_BEYOND
        higher = [q for q in stats.TAIL_LADDER if q > p]
        if higher:
            assert n - math.ceil(higher[0] / 100 * n - 1e-9) < stats.TAIL_BEYOND


def test_tail_value_and_fallback_to_maximum():
    xs = [float(i) for i in range(1, 41)]
    assert stats.tail(xs) == (30.0, 75.0)  # ten samples, 31..40, lie beyond
    assert stats.tail([5.0, 1.0, 3.0]) == (5.0, 100.0)


def test_quartile_spread():
    # quartiles 2.5 and 7.5 (statistics.quantiles, exclusive method), median 5
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]) == 1.0
    assert stats.quartile_spread([2.0] * 10) == 0.0


# ---------------------------------------------------------------------------
# planted bad outputs


def test_root_shifted_by_one_index_fails_the_bracket_check():
    s = workloads.systems()["unit"]
    exact = [k * math.pi / (s.a + s.b) for k in range(12)]
    assert checks.check_roots(s, exact[:11], 11, exact=True) is None
    shifted = exact[1:12]  # root 0 lost, every later root one index early
    assert "outside their bracket" in checks.check_roots(s, shifted, 11)


def test_bracket_holds_on_a_correct_cumo_basis():
    s = workloads.systems()["cumo"]
    basis = workloads.twoslab.basis.build_basis(s, 51)
    assert checks.check_basis(s, 51, basis) is None


def test_cli_child_exiting_2_fails_cli_cold(tmp_path):
    wl = workloads.CliCold(seed=1, workdir=tmp_path)
    hot = tmp_path / "hot.json"
    # kilo-scaled conductivities overflow the backward amplification: exit code 2
    hot.write_text(json.dumps({
        "material_b": {"K": 3420.0, "kappa": 838.0},
        "material_a": {"K": 1050.0, "kappa": 339.0},
        "beta": 50.0, "gamma": 50.0,
    }))
    final = tmp_path / "final.csv"
    xs_b, xs_a = np.linspace(-5.0, 0.0, 30), np.linspace(0.0, 3.0, 30)
    rows = [f"b,{x:.10e},0.0" for x in xs_b] + [f"a,{x:.10e},0.0" for x in xs_a]
    final.write_text("\n".join(["slab,x,value"] + rows) + "\n")
    command = workloads.CliCommand(
        wl, ["backward", "--infile", str(final), "--eps", "1e-6", "--config", str(hot)],
        ("backward.csv",),
    )
    inv = command.run()
    assert inv.returncode == 2
    assert "exit code 2, expected 0" in command.check(inv)


def test_loop_counts_planted_failures_and_known_ones_separately():
    ops = [
        workloads.Op("ok", run=lambda: 1, check=lambda r: None, work=lambda r: 3),
        workloads.Op("bad", run=lambda: 1, check=lambda r: "wrong", work=lambda r: 3),
        workloads.Op("raises", run=lambda: 1 / 0, check=lambda r: None, work=lambda r: 3),
        workloads.Op("known", run=lambda: 1, check=lambda r: "scan lost roots", work=lambda r: 3,
                     known_failure="lost roots"),
    ]

    class Fixed:
        def round(self, r):
            return ops

    loop = run.Loop().run(Fixed(), rounds=2)
    assert (loop.attempted, loop.failed, loop.unexpected, loop.work) == (8, 6, 4, 6)


def test_noise_budget_failure_is_known_only_where_the_baseline_shows_it(tmp_path):
    wl = workloads.CliCold(seed=1, workdir=tmp_path)
    known = {op.kind for op in wl.new_ops(0, wl.rng("round", 0)) if op.known_failure}
    assert known == {"cli:example 3", "cli:check-bounds"}


@pytest.mark.parametrize("make", [workloads.Spectrum, workloads.Reconstruct])
def test_rounds_repeat_the_measured_share(make, tmp_path):
    wl = make(seed=1, workdir=tmp_path)
    if make is workloads.Reconstruct:
        wl.setup()
    ops = wl.round(0)
    share = sum(op.repeat for op in ops) / len(ops)
    assert share == pytest.approx(wl.REPEAT_SHARE, abs=0.5 / len(ops))


def test_reconstruction_check_flags_a_wrong_output(tmp_path):
    wl = workloads.Reconstruct(seed=3, workdir=tmp_path)
    wl.setup()
    op = next(op for op in wl.new_ops(0, wl.rng("round", 0)) if op.kind == "backward:projection")
    good = op.run()
    assert op.check(good) is None
    halved = type(good)(good.grid, good.values_b * 0.5, good.values_a * 0.5, good.time)
    assert "exceeds" in op.check(halved)


def test_artifact_check_rejects_non_finite_values(tmp_path):
    (tmp_path / "a.csv").write_text("slab,x,value\nb,0.0,1.0\na,0.0,nan\n")
    assert "non-finite" in checks.artifact_problems(tmp_path)
    (tmp_path / "a.csv").write_text("slab,x,value\nb,0.0,1.0\n")
    (tmp_path / "m.json").write_text('{"x": NaN}')
    assert "NaN" in checks.artifact_problems(tmp_path)


# ---------------------------------------------------------------------------
# tracing


def test_self_time_subtracts_direct_children():
    # [group, start, end, parent, op, raised]: "a" holds "b" and a nested "a"
    spans = [["a", 0.0, 10.0, -1, 0, False], ["b", 1.0, 4.0, 0, 0, False], ["a", 5.0, 6.0, 0, 0, False]]
    assert tracing.self_times(spans) == {"a": 7.0, "b": 3.0}


def test_wrappers_record_spans_and_restore_the_originals():
    import twoslab.basis

    original = twoslab.basis.build_basis
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        twoslab.basis.build_basis(workloads.systems()["unit"], 5)
    finally:
        restore()
    assert twoslab.basis.build_basis is original
    groups = [s[tracing.GROUP] for s in tracer.spans]
    assert groups == ["basis.build", "eigensolver.solve"]
    assert tracer.spans[1][tracing.PARENT] == 0
    assert tracer.counts["basis.modes"] == 5 and tracer.counts["eigensolver.in_bracket"] == 5


def test_span_cost_is_a_small_positive_time():
    assert 0.0 < tracing.span_cost(calls=2000, repeats=3) < 1e-3


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |     330000 | twoslab.spectral\n"
        "error: something else\n"
    )
    assert tracing.parse_importtime(text) == {"twoslab.spectral": pytest.approx(0.33)}


# ---------------------------------------------------------------------------
# the metric list agrees with BENCHMARK.json


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
