"""Wrap points that attribute an op's time to ccflab's layers.

Each wrap point replaces a module attribute that callers look up when they
call it, so a call through that name opens a span. Names bound by
`from x import f` live in the importing module, which is why, for example,
`calibrate_cgamma` is wrapped in both `ccflab.operators` and `ccflab.verify`.
A wrap point the program no longer has is skipped and reported, so a later
refactor leaves a zero in one layer metric instead of breaking the run.
`ccflab.cli` is not a layer: each subcommand is one call into the layers here.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from contextlib import contextmanager

from spans import Recorder, children_of, time_outside


def _fft_bytes(rec, args, kwargs, result, state):
    rec.count("torus.fft_bytes", getattr(args[0], "nbytes", 0) + result.nbytes)


def _file_size(rec, args, kwargs):
    path = args[0]
    return os.path.getsize(path) if os.path.exists(path) else 0


def _loaded(rec, args, kwargs, result, size):
    rec.count("records.loaded", len(result))
    rec.count("records.load_bytes", size)


def _appended(rec, args, kwargs, result, size_before):
    rec.count("records.appended")
    rec.count("records.append_bytes", os.path.getsize(args[0]) - size_before)
    rec.count("experiments.cell_compute_s", args[1].wall_time)


def _appends_so_far(rec, args, kwargs):
    return rec.counts[rec.op]["records.appended"]


def _swept(rec, args, kwargs, result, appends_before):
    ran = rec.counts[rec.op]["records.appended"] - appends_before
    rec.count("experiments.cells_run", ran)
    rec.count("experiments.cells_cached", len(result) - ran)


def _reported(rec, args, kwargs, result, state):
    paths = (result.csv_path, *result.chart_paths)
    rec.count("report.bytes_written", sum(os.path.getsize(p) for p in paths))


_FFT = tuple(
    (module, fn, "torus.fft", None, _fft_bytes)
    for module in ("numpy.fft", "scipy.fft")
    for fn in ("fft", "ifft", "rfft", "irfft")
)

# (module, attribute, span name, before hook, after hook)
WRAP_POINTS = _FFT + (
    ("ccflab.solver", "run", "solver.run", None, None),
    ("ccflab.solver", "_take_sample", "solver.diagnostics", None, None),
    ("ccflab.solver", "tail_fraction", "torus.tail_fraction", None, None),
    ("ccflab.operators", "tail_fraction", "torus.tail_fraction", None, None),
    ("ccflab.regularity", "holder_seminorm", "regularity.holder", None, None),
    ("ccflab.regularity", "sobolev_norm", "regularity.sobolev", None, None),
    ("ccflab.verify", "verify_suite", "verify.suite", None, None),
    ("ccflab.verify", "calibrate_cgamma", "operators.calibrate", None, None),
    ("ccflab.operators", "calibrate_cgamma", "operators.calibrate", None, None),
    ("ccflab.verify", "frac_laplacian_quadrature", "operators.frac_quadrature", None, None),
    ("ccflab.operators", "frac_laplacian_quadrature", "operators.frac_quadrature", None, None),
    ("ccflab.verify", "dgamma", "operators.dgamma", None, None),
    ("ccflab.operators", "dgamma", "operators.dgamma", None, None),
    ("ccflab.verify", "cordoba_identity_residual", "operators.identity_residual", None, None),
    ("ccflab.verify", "frac_laplacian_spectral", "operators.spectral", None, None),
    ("ccflab.operators", "frac_laplacian_spectral", "operators.spectral", None, None),
    ("ccflab.verify", "hilbert", "operators.spectral", None, None),
    ("ccflab.experiments", "sweep", "experiments.sweep", _appends_so_far, _swept),
    ("ccflab.experiments", "load_records", "records.load", _file_size, _loaded),
    ("ccflab.experiments", "append_record", "records.append", _file_size, _appended),
    ("ccflab.experiments", "config_hash", "records.config_hash", None, None),
    ("ccflab.records", "config_hash", "records.config_hash", None, None),
    ("ccflab.report", "report", "report.report", None, _reported),
)


@contextmanager
def traced(recorder: Recorder, missing: set[str]):
    """Install every wrap point for the duration of the block.

    Wrap points absent from the program are added to `missing`.
    """
    saved = []
    try:
        for module, attr, name, before, after in WRAP_POINTS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.add(f"{module}.{attr}")
                continue
            saved.append((mod, attr, fn))
            setattr(mod, attr, recorder.wrap(name, fn, before, after))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# Per-layer metric -> span name whose durations (children included) are summed.
SPAN_TIME = {
    "torus.fft_s": "torus.fft",
    "torus.tail_fraction_s": "torus.tail_fraction",
    "solver.run_s": "solver.run",
    "solver.diagnostics_s": "solver.diagnostics",
    "regularity.holder_s": "regularity.holder",
    "regularity.sobolev_s": "regularity.sobolev",
    "operators.calibrate_s": "operators.calibrate",
    "operators.frac_quadrature_s": "operators.frac_quadrature",
    "operators.dgamma_s": "operators.dgamma",
    "operators.identity_residual_s": "operators.identity_residual",
    "operators.spectral_s": "operators.spectral",
    "records.load_s": "records.load",
    "records.append_s": "records.append",
    "records.config_hash_s": "records.config_hash",
    "experiments.sweep_s": "experiments.sweep",
    "report.report_s": "report.report",
}

# Per-layer metric -> span name whose calls are counted.
SPAN_CALLS = {
    "torus.fft_calls": "torus.fft",
    "regularity.holder_calls": "regularity.holder",
    "regularity.sobolev_calls": "regularity.sobolev",
    "operators.calibrate_calls": "operators.calibrate",
    "records.config_hash_calls": "records.config_hash",
}

# Per-layer metrics taken from the counts the hooks add.
HOOK_COUNTS = (
    "torus.fft_bytes",
    "records.loaded",
    "records.load_bytes",
    "records.appended",
    "records.append_bytes",
    "experiments.cells_run",
    "experiments.cells_cached",
    "experiments.cell_compute_s",
    "report.bytes_written",
)

# Per-layer metric -> (span name, which of its children to subtract).
SPAN_REMAINDER = {
    "solver.stepping_s": ("solver.run", lambda child: child == "solver.diagnostics"),
    "experiments.orchestration_s": ("experiments.sweep", lambda child: child.startswith("records.")),
    "verify.self_s": ("verify.suite", lambda child: True),
}


def op_layer_metrics(recorder: Recorder) -> dict[int, dict[str, float]]:
    """Per-layer metrics for every op the recorder saw, keyed by op id."""
    spans = recorder.spans
    kids = children_of(spans)
    by_op: dict[int, list[int]] = {op: [] for op in recorder.counts}
    for i, s in enumerate(spans):
        by_op.setdefault(s.op, []).append(i)
    out = {}
    for op, members in by_op.items():
        time_by_name: dict[str, float] = defaultdict(float)
        calls_by_name: dict[str, int] = defaultdict(int)
        for i in members:
            time_by_name[spans[i].name] += spans[i].duration
            calls_by_name[spans[i].name] += 1
        metrics = {metric: time_by_name[name] for metric, name in SPAN_TIME.items()}
        metrics.update({metric: calls_by_name[name] for metric, name in SPAN_CALLS.items()})
        metrics.update({metric: recorder.counts[op][metric] for metric in HOOK_COUNTS})
        for metric, (name, subtract) in SPAN_REMAINDER.items():
            metrics[metric] = sum(
                time_outside(spans, i, kids, subtract) for i in members if spans[i].name == name
            )
        cells = metrics["experiments.cells_run"] + metrics["experiments.cells_cached"]
        metrics["experiments.cache_hit_ratio"] = (
            metrics["experiments.cells_cached"] / cells if cells else 0.0
        )
        out[op] = metrics
    return out

