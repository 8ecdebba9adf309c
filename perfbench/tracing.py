"""Spans around the package's public functions, installed from outside.

Each wrapper replaces a function at the place an importing module looks
it up (``twoslab.basis.find_eigenvalues`` is what ``build_basis`` calls),
so the package itself is never edited.  A span records its group, start,
end, parent span and operation id; spans stay in memory until the run
ends.  A group's self time is the time its spans cover minus the time
covered by their child spans.

Counts derived from argument or result sizes are taken at the same
boundary, after the span has closed.  This module imports only the
standard library, so the CLI launcher can load it without adding to the
import it measures.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time

# span fields
GROUP, START, END, PARENT, OP, RAISED = range(6)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, group: str, probe=None):
        """fn inside a span of ``group``; probe(tracer, outer_group, args, kwargs, raised, result)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [group, 0.0, 0.0, parent, self.op, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
                if probe is not None:
                    outer = self.spans[parent][GROUP] if parent >= 0 else None
                    probe(self, outer, args, kwargs, span[RAISED], result)

        return traced


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op minus the bare no-op.

    The wrapper has a probe that does nothing, so the figure covers the
    span bookkeeping and the probe call, not a probe's own counting.  The
    fastest of several timings is taken, as the least disturbed.
    """

    def noop(*args, **kwargs):
        return None

    def fastest(fn) -> float:
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(1, x=2)
            best = min(best, time.perf_counter() - t0)
        return best / calls

    wrapped = Tracer().wrap(noop, "probe", lambda *a: None)
    return max(0.0, fastest(wrapped) - fastest(noop))


# ---------------------------------------------------------------------------
# probes


def roots_in_bracket(sys_, lambda_bs) -> int:
    """Roots n with |lambda_b,n (b + r a) / pi - n| <= 1/2, where r = sqrt(kappa_b / kappa_a).

    Dividing the interface equation by both cosines gives a phase that is
    strictly increasing and within pi/2 of lambda (b + r a), so root n is
    unique in that closed-form bracket.
    """
    scale = (sys_.b + sys_.kappa_ratio_root() * sys_.a) / math.pi
    return sum(1 for n, lam in enumerate(lambda_bs) if abs(lam * scale - n) <= 0.5 + 1e-9)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _on_success(fn):
    def probe(tracer, outer, args, kwargs, raised, result):
        if not raised:
            fn(tracer, args, kwargs, result)

    return probe


def _eigen_probe(tracer, outer, args, kwargs, raised, pairs):
    tracer.add("eigensolver.requested", _arg(args, kwargs, 1, "N") + 1)
    if raised:
        tracer.add("eigensolver.failed")
        return
    tracer.add("eigensolver.roots", len(pairs))
    lambda_bs = [p.lambda_b for p in pairs]
    tracer.add("eigensolver.in_bracket", roots_in_bracket(_arg(args, kwargs, 0, "sys"), lambda_bs))


def _scan_probe(tracer, outer, args, kwargs, raised, roots):
    if raised:
        tracer.add("eigensolver.failed")
    else:
        tracer.add("eigensolver.roots", len(roots))


def _basis_probe(tracer, args, kwargs, basis):
    tracer.add("basis.modes", len(basis))
    tracer.add("basis.quad_nodes", len(basis.quad_x_b) + len(basis.quad_x_a))


def _grid_rows(grid) -> int:
    return len(grid.nodes_b) + len(grid.nodes_a)


def _recover_probe(tracer, outer, args, kwargs, raised, result):
    if raised:
        tracer.add("spectral.refused")
        return
    field = _arg(args, kwargs, 1, "field_tf")
    tracer.add("spectral.design_cells", _grid_rows(field.grid) * _arg(args, kwargs, 2, "mode_count"))


def _project_probe(tracer, args, kwargs, result):
    basis, field = args[0], args[1]
    if hasattr(field, "grid"):
        rows = _grid_rows(field.grid)
    else:
        rows = len(basis.quad_x_b) + len(basis.quad_x_a)
    tracer.add("spectral.design_cells", rows * len(result))


def _synth_probe(tracer, args, kwargs, result):
    tracer.add("spectral.design_cells", _grid_rows(result.grid) * len(args[1]))


def _count_retained(tracer, basis, reg) -> None:
    tracer.add("evolve.retained", sum(1 for lam in basis.lambda_bars() if lam <= reg.n_eps))
    tracer.add("evolve.built", len(basis))


def _cutoff_probe(tracer, args, kwargs, result):
    _count_retained(tracer, args[0], _arg(args, kwargs, 2, "reg"))


def _bound_probe(tracer, args, kwargs, result):
    # stability_bound(basis, field, reg, t) and noise_gap_bound(basis, clean, noisy, reg, t)
    reg = next((a for a in args[2:] if hasattr(a, "n_eps")), None)
    if reg is not None:
        _count_retained(tracer, args[0], reg)


def _find2d_probe(tracer, args, kwargs, basis2d):
    tracer.add("bilayer2d.modes", len(basis2d))


def _io_probe(path_pos: int, dir_result: bool = False):
    def probe(tracer, outer, args, kwargs, raised, result):
        # writers nested in write_example_outputs are counted once, by it
        if raised or outer == "cli.io":
            return
        if dir_result:
            size = sum(
                os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(result) for f in fs
            )
        else:
            size = os.path.getsize(args[path_pos])
        tracer.add("cli.io_bytes", size)

    return probe


# group -> function name -> (modules it is looked up in, probe)
_ALL = ("twoslab", "twoslab.basis", "twoslab.spectral", "twoslab.evolve", "twoslab.cli")
SITES: dict[str, dict[str, tuple[tuple[str, ...], object]]] = {
    "eigensolver.solve": {
        "find_eigenvalues": (("twoslab", "twoslab.basis", "twoslab.eigensolver"), _eigen_probe),
        "scan_roots": (("twoslab.bilayer2d",), _scan_probe),
    },
    "basis.build": {"build_basis": (_ALL, _on_success(_basis_probe))},
    "basis.gram": {"slab_grams": (_ALL, None)},
    "basis.slab_matrix": {"slab_matrix": (_ALL, None)},
    "spectral.recover": {"recover_coefficients": (_ALL, _recover_probe)},
    "spectral.project": {"project_coefficients": (_ALL, _on_success(_project_probe))},
    "spectral.synthesize": {"synthesize": (_ALL, _on_success(_synth_probe))},
    "evolve.reconstruct": {"cutoff_reconstruct": (_ALL, _on_success(_cutoff_probe))},
    "evolve.forward": {"forward_solve": (_ALL, None)},
    "evolve.bound": {
        "instability_lower_bound": (_ALL, None),
        "stability_bound": (_ALL, _on_success(_bound_probe)),
        "noise_gap_bound": (_ALL, _on_success(_bound_probe)),
    },
    "bilayer2d.find": {
        "find_modes_2d": (("twoslab", "twoslab.bilayer2d", "twoslab.cli"), _on_success(_find2d_probe)),
    },
    "bilayer2d.slice": {
        name: (("twoslab", "twoslab.bilayer2d", "twoslab.cli"), None)
        for name in ("reconstruct_2d_slice", "recover_slice_coefficients", "synthesize_slice")
    },
    "cli.io": {
        "emit_table": (("twoslab.cli",), _io_probe(1)),
        "write_field_csv": (("twoslab.cli",), _io_probe(1)),
        "read_field_csv": (("twoslab.cli",), _io_probe(0)),
        "write_metadata": (("twoslab.cli",), _io_probe(1)),
        "write_bounds_csv": (("twoslab.cli",), _io_probe(1)),
        "write_eigenvalues_csv": (("twoslab.cli",), _io_probe(1)),
        "write_example_outputs": (("twoslab.cli",), _io_probe(1, dir_result=True)),
        "load_config": (("twoslab.cli",), _io_probe(0)),
    },
    "cli.noise": {"inject_noise": (("twoslab.cli",), None)},
    "cli.bounds": {"check_bounds": (("twoslab.cli",), None)},
}


def install(tracer: Tracer):
    """Wrap every site the loaded modules have; return a function restoring the originals."""
    saved = []
    for group, funcs in SITES.items():
        for name, (modules, probe) in funcs.items():
            for modname in modules:
                mod = importlib.import_module(modname)
                fn = mod.__dict__.get(name)
                if fn is None:
                    continue
                saved.append((mod, name, fn))
                setattr(mod, name, tracer.wrap(fn, group, probe))

    def restore() -> None:
        for mod, name, fn in reversed(saved):
            setattr(mod, name, fn)

    return restore


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> dict[str, float]:
    """Per-group sum of span duration minus the duration of direct child spans."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    out: dict[str, float] = {}
    for i, span in enumerate(spans):
        out[span[GROUP]] = out.get(span[GROUP], 0.0) + (span[END] - span[START]) - child[i]
    return out


def durations(spans, group: str) -> list[float]:
    return [s[END] - s[START] for s in spans if s[GROUP] == group]


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue  # the header line
        out[parts[2].strip()] = cumulative_us * 1e-6
    return out
