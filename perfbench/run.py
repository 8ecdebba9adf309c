"""The twoslab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is loaded from ``src`` next to this
directory.  With ``--trace 0`` it prints the end-to-end metrics of one
workload, with ``--trace 1`` the per-layer metrics of a traced run of the
same workload.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See README.md here for
the workloads and the definition of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("cli_cold", "spectrum", "reconstruct")

# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 3
# Fresh-interpreter imports per traced run of a workload that starts no CLI child.
IMPORT_PROBES = 3
# BLAS threads of the benchmark process and of every child it starts.
BLAS_THREADS = "1"
# A set-up child that has not finished after this long is killed.
CHILD_TIMEOUT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("pass_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

MODULES = ("core", "eigensolver", "basis", "spectral", "evolve", "bilayer2d")

# Groups reported as a call count and a share of the traced wall.
GROUP_METRICS = (
    "basis.gram", "basis.slab_matrix",
    "spectral.recover", "spectral.project", "spectral.synthesize",
    "evolve.reconstruct", "evolve.forward", "evolve.bound",
    "bilayer2d.find", "bilayer2d.slice",
    "cli.io", "cli.noise", "cli.bounds", "cli.main",
)

PER_LAYER = (
    tuple((f"{m}.import_s", "s") for m in MODULES)
    + (
        ("cli.import_s", "s"),
        ("cli.interpreter_s", "s"),
        ("eigensolver.calls", "count"),
        ("eigensolver.busy_s", "s"),
        ("eigensolver.share", "ratio"),
        ("eigensolver.roots", "count"),
        ("eigensolver.failed", "count"),
        ("eigensolver.bracket_ratio", "ratio"),
        ("basis.calls", "count"),
        ("basis.busy_s", "s"),
        ("basis.share", "ratio"),
        ("basis.call_p50_ms", "ms"),
        ("basis.call_tail_ms", "ms"),
        ("basis.modes", "count"),
        ("basis.quad_nodes", "count"),
    )
    + tuple(
        item for g in GROUP_METRICS for item in ((f"{g}_calls", "count"), (f"{g}_share", "ratio"))
    )
    + (
        ("spectral.design_cells", "count"),
        ("spectral.refused", "count"),
        ("evolve.retained_ratio", "ratio"),
        ("bilayer2d.modes", "count"),
        ("cli.io_bytes", "bytes"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    )
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="twoslab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=26.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one fresh set-up timed by the parent
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def prepare_environment() -> None:
    """One BLAS thread, the package from src; before numpy is first imported.

    On a shared 2-CPU host a second BLAS thread halved reconstruct's
    throughput and made its latencies follow the neighbours' load.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def child(args: list[str], **kw) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(HERE / "run.py")] + args, cwd=ROOT, **kw)


# ---------------------------------------------------------------------------
# measurement


class Loop:
    """Closed loop with one client: each operation starts when the previous one ends."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.wall = 0.0
        self.work = 0.0
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.repeats = 0
        self.rounds = 0
        self.kinds: Counter = Counter()
        self.failures: Counter = Counter()

    def run(self, wl, rounds: int, tracer=None):
        """Run `rounds` rounds of the workload's operations."""
        for r in range(rounds):
            for op in wl.round(r):
                if tracer is not None:
                    tracer.op = self.attempted
                t0 = time.perf_counter()
                try:
                    result = op.run()
                    reason = None
                except Exception as exc:  # a raising operation is a failed one
                    result, reason = None, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                if reason is None:
                    reason = op.check(result)
                self.attempted += 1
                self.wall += dt
                self.latencies.append(dt)
                self.kinds[op.kind] += 1
                self.repeats += op.repeat
                if reason is None:
                    self.work += op.work(result)
                else:
                    self.failed += 1
                    is_known = bool(op.known_failure) and op.known_failure in reason
                    self.unexpected += not is_known
                    known = "known" if is_known else "UNEXPECTED"
                    self.failures[f"{op.kind} [{known}] {reason.splitlines()[0][:160]}"] += 1
                del result
            self.rounds += 1
        return self


def setup_times(name: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to the end of the workload's set-up."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = child(
            ["--setup-probe", "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        out.append(elapsed)
    return out


def import_probes(workdir: Path) -> list[dict]:
    """Launcher records of fresh interpreters that only import twoslab.cli."""
    from workloads import launch

    records = []
    for i in range(IMPORT_PROBES):
        code, _, record, _ = launch([], workdir, f"import_{i}", dict(os.environ))
        if code != 0 or record is None:
            raise RuntimeError(f"import probe failed (exit {code})")
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# metrics


def end_to_end(loop: Loop, setups: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    import stats

    tail, pct = stats.tail(loop.latencies)
    values = {
        "setup_s": stats.median(setups),
        "throughput_per_s": loop.work / loop.wall,
        "latency_p50_ms": stats.median(loop.latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "pass_frac": (loop.attempted - loop.failed) / loop.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    n = len(loop.latencies)
    notes = {
        "setup_s": f"median of {len(setups)} fresh set-ups",
        "throughput_per_s": f"{loop.work:.0f} work units over {loop.wall:.3f} s of operations",
        "latency_p50_ms": f"median of {n} samples",
        "latency_tail_ms": f"p{pct:g} of {n} samples",
        "pass_frac": f"{loop.attempted - loop.failed} of {loop.attempted} passed",
        "peak_rss_mb": "ru_maxrss",
    }
    return values, notes


def per_layer(span_sets, counts: Counter, records, wall: float, span_cost: float) -> dict:
    import stats
    import tracing

    self_s: Counter = Counter()
    calls: Counter = Counter()
    build_ms = []
    for spans in span_sets:
        self_s.update(tracing.self_times(spans))
        calls.update(s[tracing.GROUP] for s in spans)
        build_ms += [d * 1e3 for d in tracing.durations(spans, "basis.build")]
    v = {}
    for m in MODULES:
        v[f"{m}.import_s"] = stats.median(r["importtime"].get(f"twoslab.{m}", 0.0) for r in records)
    v["cli.import_s"] = stats.median(r["import_s"] for r in records)
    v["cli.interpreter_s"] = stats.median(r["wall_s"] - r["in_process_s"] for r in records)
    v["eigensolver.calls"] = calls["eigensolver.solve"]
    v["eigensolver.busy_s"] = self_s["eigensolver.solve"]
    v["eigensolver.share"] = self_s["eigensolver.solve"] / wall
    v["eigensolver.roots"] = counts["eigensolver.roots"]
    v["eigensolver.failed"] = counts["eigensolver.failed"]
    requested = counts["eigensolver.requested"]
    v["eigensolver.bracket_ratio"] = counts["eigensolver.in_bracket"] / requested if requested else 1.0
    v["basis.calls"] = calls["basis.build"]
    v["basis.busy_s"] = self_s["basis.build"]
    v["basis.share"] = self_s["basis.build"] / wall
    v["basis.call_p50_ms"] = stats.median(build_ms) if build_ms else 0.0
    v["basis.call_tail_ms"] = stats.tail(build_ms)[0] if build_ms else 0.0
    v["basis.modes"] = counts["basis.modes"]
    v["basis.quad_nodes"] = counts["basis.quad_nodes"]
    for g in GROUP_METRICS:
        v[f"{g}_calls"] = calls[g]
        v[f"{g}_share"] = self_s[g] / wall
    v["spectral.design_cells"] = counts["spectral.design_cells"]
    v["spectral.refused"] = counts["spectral.refused"]
    built = counts["evolve.built"]
    v["evolve.retained_ratio"] = counts["evolve.retained"] / built if built else 0.0
    v["bilayer2d.modes"] = counts["bilayer2d.modes"]
    v["cli.io_bytes"] = counts["cli.io_bytes"]
    v["trace.wall_s"] = wall
    v["trace.spans"] = sum(len(s) for s in span_sets)
    v["trace.overhead_s"] = v["trace.spans"] * span_cost
    return v


def environment(args, loop: Loop, wl) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = res.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "loop": "closed, 1 client",
        "work_unit": wl.work_unit,
        "rounds": loop.rounds,
        "operations": loop.attempted,
        "repeat_share": loop.repeats / loop.attempted,
        "samples_per_kind": dict(sorted(loop.kinds.items())),
        "failures": dict(loop.failures),
    }


def report(args, loop: Loop, wl, metrics: dict, units: dict, notes: dict) -> None:
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {loop.rounds} rounds, "
        f"{loop.attempted} operations ({loop.repeats} repeats), {loop.failed} failed"
    )
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    for failure, n in loop.failures.items():
        print(f"  failure x{n}: {failure}")
    print("env " + json.dumps(environment(args, loop, wl), sort_keys=True))
    result = {
        "correct": loop.unexpected == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in metrics},
    }
    print(json.dumps(result), flush=True)


# ---------------------------------------------------------------------------


def run(args, workdir: Path) -> None:
    from workloads import WORKLOADS

    make = WORKLOADS[args.workload]
    if args.setup_probe:
        make(args.seed, workdir).setup()
        print("ready", flush=True)
        return
    if args.trace == 0:
        setups = setup_times(args.workload, args.seed)
        wl = make(args.seed, workdir)
        wl.setup()
        loop = Loop().run(wl, wl.rounds_for(args.seconds))
        metrics, notes = end_to_end(loop, setups, wl.peak_rss_mb())
        report(args, loop, wl, metrics, dict(END_TO_END), notes)
        return

    import tracing

    tracer = tracing.Tracer()
    wl = make(args.seed, workdir, traced=True)
    restore = tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        wl.setup()
        setup_wall = time.perf_counter() - t0
        loop = Loop().run(wl, wl.rounds_for(args.seconds), tracer=tracer)
    finally:
        restore()
    span_cost = tracing.span_cost()
    records = wl.child_records() or import_probes(workdir)
    counts = Counter(tracer.counts)
    for r in wl.child_records():
        counts.update(r["counts"])
    span_sets = [tracer.spans] + [r["spans"] for r in wl.child_records()]
    metrics = per_layer(span_sets, counts, records, setup_wall + loop.wall, span_cost)
    notes = {"trace.overhead_s": f"spans x {span_cost * 1e6:.3f} us, a wrapped no-op's extra time"}
    report(args, loop, wl, metrics, dict(PER_LAYER), notes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twoslab" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'twoslab'}", file=sys.stderr)
        return 2
    prepare_environment()
    if not args.setup_probe:
        import compileall

        # byte-compile once so no measured import pays for it
        if not compileall.compile_dir(str(SRC), quiet=2):
            print("perfbench: src does not compile", file=sys.stderr)
            return 2
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
