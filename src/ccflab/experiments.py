"""Initial-data library and the resumable parameter-sweep harness.

The data are the non-negative smooth families a + b*cos(x) and
exp(kappa*(cos(x)-1)), the non-positive li_rodrigo_type(s), and explicit
samples. li_rodrigo_type(s) samples -s*sin^2(x/2) = (s/2)*cos(x) - s/2: a
single-mode cosine shifted by a constant, even and zero at the origin, not a
datum of the class for which Li and Rodrigo prove blow-up. One table,
DATUM_FAMILIES, holds each family's alias, parameter names and formula.

Sweeps enumerate (datum, gamma, n) cells in a fixed order, run the pending
cells in batches of one n (solver.run_batch) and append each batch's records
to JSONL when it returns: the file, which summary.csv follows, is in batch
order, and a kill loses only the running batches (sweep()). Resumption keys
on the config hash, so re-running a completed sweep runs no new simulation.
One estimate of a batch's seconds (_batch_seconds) decides both how many
worker processes a sweep forks, none while a second worker would save less
than a pool costs (POOL_COST_S), and which batch to halve for an idle worker.
"""

from __future__ import annotations

import concurrent.futures  # loads .process and multiprocessing (17 ms, 2-CPU x86-64) only when sweep() builds a pool
import math
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from . import regularity
from .records import RunRecord, append_record, config_hash, drop_torn_tail, load_records
from .regularity import RegularityConstants
from .solver import DiagnosticPlan, ModelParams, StepControl, build_config, run_batch
from .torus import RealField, TorusGrid


def _von_mises(x: np.ndarray, kappa: float) -> np.ndarray:
    values = np.exp(kappa * (np.cos(x) - 1.0))
    if float(np.min(values)) <= 0.0:
        raise ValueError(f"von_mises_bump underflowed to zero at kappa={kappa:g}")
    return values


# Each datum family: its command-line alias, its parameter names in the order
# the command line lists them, and its formula, the samples at the grid points
# from those parameters. custom's one parameter is its samples, taken as they are.
DATUM_FAMILIES = {
    "cosine_positive": ("cosine", ("a", "b"), lambda x, a, b: a + b * np.cos(x)),
    "von_mises_bump": ("von_mises", ("kappa",), _von_mises),
    "li_rodrigo_type": ("li_rodrigo", ("scale",), lambda x, scale: -scale * np.sin(x / 2.0) ** 2),
    "custom": ("custom", ("samples",), None),
}


@dataclass(frozen=True)
class InitialDatum:
    """A DATUM_FAMILIES kind with its family's parameters and no other key (one
    would enter the config hash, not the label), each finite and > 0; cosine's
    a >= b keeps a + b*cos(x) non-negative, and custom's one parameter is its
    finite samples. li_rodrigo_type(s) is -s*sin^2(x/2) = (s/2)*cos(x) - s/2,
    a single-mode cosine shifted by a constant: non-positive, zero at x=0."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in DATUM_FAMILIES:
            raise ValueError(f"unknown datum kind {self.kind!r}, expected one of {tuple(DATUM_FAMILIES)}")
        p = self.params
        names = DATUM_FAMILIES[self.kind][1]
        for key in p:
            if key not in names:
                raise ValueError(f"{self.kind} takes parameters {','.join(names)}, not {key!r}")
        if self.kind == "custom":
            samples = p.get("samples")
            if samples is None or len(samples) == 0:
                raise ValueError("custom datum requires a non-empty samples sequence")
            if not all(math.isfinite(v) for v in samples):
                raise ValueError("custom datum samples must be finite")
            return
        values = {key: float(p.get(key, 0.0)) for key in names}
        for key, value in values.items():
            if not math.isfinite(value):
                raise ValueError(f"{self.kind} parameter {key} must be finite, got {value}")
        if self.kind == "cosine_positive" and not values["a"] >= values["b"] > 0.0:
            raise ValueError(f"cosine_positive requires a >= b > 0, got a={values['a']}, b={values['b']}")
        for key, value in values.items():
            if not value > 0.0:
                raise ValueError(f"{self.kind} requires {key} > 0, got {value}")

    def to_config(self) -> dict:
        """JSON-serializable form embedded in the run config (and its hash)."""
        cfg = {"kind": self.kind}
        for key, value in self.params.items():
            cfg[key] = list(value) if key == "samples" else float(value)
        return cfg


def cosine_positive(a: float, b: float) -> InitialDatum:
    return InitialDatum("cosine_positive", {"a": float(a), "b": float(b)})


def von_mises_bump(kappa: float) -> InitialDatum:
    return InitialDatum("von_mises_bump", {"kappa": float(kappa)})


def li_rodrigo_type(scale: float) -> InitialDatum:
    return InitialDatum("li_rodrigo_type", {"scale": float(scale)})


def custom_datum(samples) -> InitialDatum:
    return InitialDatum("custom", {"samples": tuple(float(v) for v in samples)})


def make_datum(d: InitialDatum, grid: TorusGrid) -> RealField:
    """Sample the datum through its family's formula. InitialDatum's checks give
    each family its sign; only sampling shows a von Mises bump that underflows
    to zero (its formula raises) and custom samples of the wrong length."""
    if d.kind == "custom":
        samples = np.asarray(d.params["samples"], dtype=np.float64)
        if samples.shape != (grid.n,):
            raise ValueError(f"custom samples have length {samples.size}, grid expects {grid.n}")
        return RealField(grid, samples)
    _, names, formula = DATUM_FAMILIES[d.kind]
    return RealField(grid, formula(grid.points, *(d.params[key] for key in names)))


def datum_forms() -> str:
    """The command-line datum forms, one per family: cosine:a,b | ... | custom:path."""
    return " | ".join(
        f"{alias}:{'path' if kind == 'custom' else ','.join(names)}" for kind, (alias, names, _) in DATUM_FAMILIES.items()
    )


def parse_datum(text: str) -> InitialDatum:
    """Parse a CLI datum string such as cosine:1,1 or von_mises:5, in one of the
    forms of datum_forms(); custom:path reads a text file of newline-separated
    sample values."""
    name, sep, arg = text.partition(":")
    name, arg = name.strip(), arg.strip()
    kinds = {alias: kind for kind, (alias, _, _) in DATUM_FAMILIES.items()}
    kind = kinds.get(name)
    if kind is None:
        raise ValueError(f"unknown datum {name!r}, expected one of {sorted(kinds)}")
    if not sep or not arg:
        raise ValueError(f"datum {name!r} requires parameters after a colon")
    if kind == "custom":
        return custom_datum(np.loadtxt(arg, dtype=np.float64, ndmin=1))
    names = DATUM_FAMILIES[kind][1]
    parts = arg.split(",")
    if len(parts) != len(names):
        raise ValueError(f"{name} datum expects {','.join(names)}, got {arg!r}")
    return InitialDatum(kind, {key: float(part) for key, part in zip(names, parts)})


def datum_label(cfg: dict) -> str:
    """Short label of a config's datum block, such as cosine_positive(1,0.5) or
    custom(n=64); the bare kind when its parameters are missing."""
    kind = cfg.get("kind", "custom")
    if kind == "custom" and "samples" in cfg:
        return f"custom(n={len(cfg['samples'])})"
    names = DATUM_FAMILIES[kind][1] if kind in DATUM_FAMILIES else ()
    if names and all(key in cfg for key in names):
        return f"{kind}({','.join(f'{cfg[key]:g}' for key in names)})"
    return str(kind)


@dataclass(frozen=True)
class SweepPlan:
    """Cartesian sweep over (datum, gamma, n) with shared constants.

    Cells are enumerated datum-major, then gamma, then resolution: the order
    sweep() returns; its file, which summary.csv follows, is in batch order
    (the plan order for one n), and a kill loses only the running batches.
    The constants and control block replicate into every cell's config. Every
    cell tracks the Holder exponents in holder_alphas (none by default). With
    None, each cell tracks its own: regularity.holder_alphas gives the policy
    alpha of a dissipative cell with gamma in (0, 1), and none to any other cell.
    """

    gamma_values: tuple[float, ...]
    data: tuple[InitialDatum, ...]
    resolutions: tuple[int, ...]
    constants: RegularityConstants = RegularityConstants()
    control: StepControl = StepControl(t_end=1.0)
    dissipation_on: bool = True
    dealias_on: bool = True
    holder_alphas: tuple[float, ...] | None = ()
    parallelism: int = 1

    def __post_init__(self) -> None:
        if not self.gamma_values or not self.data or not self.resolutions:
            raise ValueError("sweep axes gamma_values, data, resolutions must be non-empty")
        for axis in ("gamma_values", "data", "resolutions"):
            values = getattr(self, axis)
            for i, value in enumerate(values):
                if value in values[:i]:
                    first = values.index(value)
                    raise ValueError(f"sweep axis {axis} lists one value twice (entries {first} and {i})")
        if type(self.parallelism) is not int or self.parallelism < 1:  # not a bool, an int subclass
            raise ValueError(f"parallelism must be an int >= 1, got {self.parallelism!r}")
        # Reject bad axes and data before any cell runs.
        for gamma, n in product(self.gamma_values, self.resolutions):
            ModelParams(gamma=gamma, n=n)
        for datum, n in product(self.data, self.resolutions):
            try:
                make_datum(datum, TorusGrid(n))
            except ValueError as exc:
                raise ValueError(f"datum {datum_label(datum.to_config())} at n={n}: {exc}") from None

    def cells(self) -> list[tuple[InitialDatum, ModelParams, DiagnosticPlan]]:
        """Each cell's datum, model and tracked exponents, in sweep order."""
        cells = []
        for datum, gamma, n in product(self.data, self.gamma_values, self.resolutions):
            params = ModelParams(gamma=gamma, n=n, dissipation_on=self.dissipation_on, dealias_on=self.dealias_on)
            alphas = self.holder_alphas
            if alphas is None:
                alphas = regularity.holder_alphas(gamma, self.dissipation_on)
            cells.append((datum, params, DiagnosticPlan(alphas)))
        return cells


Cell = tuple[InitialDatum, ModelParams, DiagnosticPlan]
# A batch: what a worker reads of the plan, its control and constants, and
# its cells, all of one n, that run as one stack.
Batch = tuple[StepControl, RegularityConstants, tuple[Cell, ...]]

# The most coefficients (rows times n//2+1) one batch carries: 124 rows at
# n = 64, 7 at n = 1024, one from n = 4096 on. Per run, a batch was fastest
# near this size; a larger stack outgrows the cache, so 16 rows at n = 1024
# ran no faster than 16 runs, and 4 rows at n = 4096 ran slower than 4 runs.
BATCH_COEFFICIENTS = 1 << 12


# What a worker pool adds to a sweep's wall time, beyond the serial time it
# splits: fork, pickling each batch's cells out and its records back, join,
# and the uneven split of the batches. Measured as pool wall - serial wall / 2
# at 2 workers (shared 2-CPU x86-64, 50 alternating pairs each): 53 ms on the
# 48-cell policy plan (8 cosines x gamma 0.6/0.9/1.2 x n 64/128), a plan near
# the gate; 154 ms on 24 cells at n = 64/1024, which 2 workers still take from
# 0.80-0.93 s to 0.54-0.65 s. That share grows with the work, as two CPUs of
# this host ran about 1.5x, not 2x, as fast as one, and no constant below
# 0.27 s keeps that plan in-process, so the constant takes the figure of the
# plan near the gate.
POOL_COST_S = 0.05


def _batch_seconds(control: StepControl, cells: Sequence[Cell]) -> float:
    """The estimated in-process seconds of one batch of cells of one n, from
    the plan alone. Its steps assume CFL speed 1, the fewest any datum takes
    (dt = min(dt_max, cfl*dx/max(1, ||H theta||_inf))), so it errs low, and
    an error low only keeps work in-process. The coefficients were fitted to
    solver._step_raw, solver._take_sample and regularity.holder_seminorm inside
    sweeps (2-CPU x86-64): a step costs 78 us + 0.2 us a row + 0.115 us a
    coefficient (0.58 ms measured for 124 rows at n = 64, 0.37 ms for 6 at
    n = 1024; 0.39 ms for one row at n = 4096 and 1.65 ms at 16384, where the
    transforms' n log n outgrows the fit, which errs low), a snapshot 60 us +
    2 us a row + 0.04 us a coefficient, and each tracked Holder exponent of a
    row 10 us + 0.34 us a grid point at each snapshot (0.032-0.036 ms at
    n = 64, 0.43-0.46 ms at 1024, 1.35-1.46 ms at 4096)."""
    n = cells[0][1].n
    rows, coefficients = len(cells), len(cells) * (n // 2 + 1)
    exponents = sum(len(diagnostics.holder_alphas) for _, _, diagnostics in cells)
    steps = control.t_end / min(control.dt_max, control.cfl * 2.0 * math.pi / n)
    snapshots = 1.0 + control.t_end / control.snapshot_every
    step_s = 78e-6 + 0.2e-6 * rows + 0.115e-6 * coefficients
    snapshot_s = 60e-6 + 2e-6 * rows + 0.04e-6 * coefficients + exponents * (10e-6 + 0.34e-6 * n)
    return steps * step_s + snapshots * snapshot_s


def _run_batch(batch: Batch) -> list[RunRecord]:
    control, constants, cells = batch
    grid = TorusGrid(cells[0][1].n)
    rows = [(make_datum(datum, grid), params, diagnostics, datum.to_config()) for datum, params, diagnostics in cells]
    return run_batch(rows, control, constants)


def _batches(pending: dict[int, Cell], control: StepControl, workers: int) -> list[list[int]]:
    """The pending cells, by index, in batches of one n, each in plan order
    and holding at most BATCH_COEFFICIENTS, sorted by their first cell. While
    there are fewer batches than workers, the batch of several cells with the
    most estimated seconds (_batch_seconds) is halved (2 workers, 2-CPU
    x86-64: 31 cells at n = 256 took 0.55-0.69 s, 0.98-1.22 s unhalved)."""
    by_n: dict[int, list[int]] = {}
    for i, (_, params, _) in pending.items():
        by_n.setdefault(params.n, []).append(i)
    batches = []
    for n, cells in by_n.items():
        size = max(1, BATCH_COEFFICIENTS // (n // 2 + 1))
        batches += [cells[k : k + size] for k in range(0, len(cells), size)]

    def cost(batch: list[int]) -> float:
        return _batch_seconds(control, [pending[i] for i in batch])

    while len(batches) < workers:  # workers <= cells, so some batch has two
        costliest = max((b for b in batches if len(b) > 1), key=cost)
        batches.remove(costliest)
        batches += [costliest[: len(costliest) // 2], costliest[len(costliest) // 2 :]]
    return sorted(batches)


def sweep(plan: SweepPlan, out_path: Path | str) -> list[RunRecord]:
    """Run every cell of the plan and return the records in plan order. Cells
    whose config hash is on file are reused verbatim, so interrupted sweeps
    resume; a last line torn by a kill mid-append is dropped with a warning,
    and that cell reruns. The pending cells run in batches of one n
    (_batches), one stack each (solver.run_batch), in W processes: of the W
    up to min(parallelism, pending cells, usable CPUs), the one that minimises
    E/W + POOL_COST_S*(W - 1), where E is the estimated serial seconds of the
    pending batches (_batch_seconds). W = 1 runs in-process, with no pool, so
    a pool is forked only above E = 2*POOL_COST_S = 0.1 s. Each batch's
    records are appended to out_path when it returns, so the file, and the
    summary.csv rows `ccflab report` makes of it, are in batch order (sorted
    by first cell, each in plan order); a kill loses the batches still running
    and, with several workers, finished ones queued behind them. If a worker
    dies, the batches that had not returned rerun once in-process, with a
    warning. Numerical failures inside a cell land in its outcome and never
    abort the sweep. out_path's directory is made before any cell runs.
    """
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    existing: dict[str, RunRecord] = {}
    if out_path.exists():
        drop_torn_tail(out_path)
        existing = {record.config_hash: record for record in load_records(out_path)}

    results: list[RunRecord | None] = []
    pending: dict[int, Cell] = {}  # by index in results
    for i, (datum, params, diagnostics) in enumerate(plan.cells()):
        config = build_config(params, plan.control, plan.constants, datum.to_config(), diagnostics)
        results.append(existing.get(config_hash(config)))
        if results[-1] is None:
            pending[i] = (datum, params, diagnostics)
    if not pending:
        return results

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    serial = sum(_batch_seconds(plan.control, [pending[i] for i in b]) for b in _batches(pending, plan.control, 1))
    bound = min(plan.parallelism, len(pending), cpus)
    workers = min(range(1, bound + 1), key=lambda w: serial / w + POOL_COST_S * (w - 1))
    batches = _batches(pending, plan.control, workers)
    jobs = [(plan.control, plan.constants, tuple(pending[i] for i in batch)) for batch in batches]

    def keep(batch: list[int], records: list[RunRecord]) -> None:
        for i, record in zip(batch, records):
            results[i] = record
            append_record(out_path, record)

    returned = 0
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                for records in pool.map(_run_batch, jobs):
                    keep(batches[returned], records)
                    returned += 1
            except concurrent.futures.BrokenExecutor:
                left = len(batches) - returned
                warnings.warn(f"a sweep worker died: the {left} of {len(batches)} batches not returned rerun in-process", stacklevel=2)
    for batch, job in zip(batches[returned:], jobs[returned:]):
        keep(batch, _run_batch(job))
    return results
