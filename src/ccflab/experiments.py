"""Initial-data library and the resumable parameter-sweep harness.

The data are the non-negative smooth families a + b*cos(x) and
exp(kappa*(cos(x)-1)), the non-positive li_rodrigo_type(s), and explicit
samples. li_rodrigo_type(s) samples -s*sin^2(x/2) = (s/2)*cos(x) - s/2: a
single-mode cosine shifted by a constant, even and zero at the origin, not a
datum of the class for which Li and Rodrigo prove blow-up. One table,
DATUM_FAMILIES, holds each family's alias, parameter names and formula.

Sweeps enumerate (datum, gamma, n) cells in a fixed order, persist each
record to JSONL as soon as it finishes, and key resumption on the config
hash, so re-running a completed sweep performs zero new simulations.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from . import regularity
from .records import RunRecord, append_record, config_hash, drop_torn_tail, load_records
from .regularity import RegularityConstants
from .solver import DiagnosticPlan, ModelParams, StepControl, build_config, run
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
    """A DATUM_FAMILIES kind with its parameters, each finite and > 0; cosine's
    a >= b keeps a + b*cos(x) non-negative, and custom's one parameter is its
    finite samples. li_rodrigo_type(s) is -s*sin^2(x/2) = (s/2)*cos(x) - s/2,
    a single-mode cosine shifted by a constant: non-positive, zero at x=0."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in DATUM_FAMILIES:
            raise ValueError(f"unknown datum kind {self.kind!r}, expected one of {tuple(DATUM_FAMILIES)}")
        p = self.params
        if self.kind == "custom":
            samples = p.get("samples")
            if samples is None or len(samples) == 0:
                raise ValueError("custom datum requires a non-empty samples sequence")
            if not all(math.isfinite(v) for v in samples):
                raise ValueError("custom datum samples must be finite")
            return
        values = {key: float(p.get(key, 0.0)) for key in DATUM_FAMILIES[self.kind][1]}
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

    Cells are enumerated datum-major, then gamma, then resolution; the order
    is part of the persisted-file contract. The constants and control block
    replicate into every cell's config. Every cell tracks the Holder exponents
    in holder_alphas (none by default). With None, each cell tracks its own:
    regularity.holder_alphas gives the policy alpha of a dissipative cell with
    gamma in (0, 1), and none to any other cell.
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
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
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


Cell = tuple[SweepPlan, InitialDatum, ModelParams, DiagnosticPlan]


def _run_cell(cell: Cell) -> RunRecord:
    plan, datum, params, diagnostics = cell
    theta0 = make_datum(datum, TorusGrid(params.n))
    return run(theta0, params, plan.control, diagnostics, plan.constants, datum.to_config())


def sweep(plan: SweepPlan, out_path: Path | str) -> list[RunRecord]:
    """Run every cell of the plan, appending each record to out_path as it
    finishes. Cells whose config hash already appears in the file are reused
    verbatim, so interrupted sweeps resume where they stopped; a last line
    torn by a kill mid-append is dropped with a warning, and that cell reruns.

    Numerical failures inside a cell land in that cell's outcome; they never
    abort the sweep. Cells run in min(parallelism, pending cells, usable CPUs)
    processes, and with one of them no pool is built.
    """
    out_path = Path(out_path)
    existing: dict[str, RunRecord] = {}
    if out_path.exists():
        drop_torn_tail(out_path)
        for record in load_records(out_path):
            existing[record.config_hash] = record

    results: list[RunRecord | None] = []
    jobs: dict[int, Cell] = {}  # by index in results
    for datum, params, diagnostics in plan.cells():
        config = build_config(params, plan.control, plan.constants, datum.to_config(), diagnostics)
        results.append(existing.get(config_hash(config)))
        if results[-1] is None:
            jobs[len(results) - 1] = (plan, datum, params, diagnostics)

    if jobs:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = min(plan.parallelism, len(jobs), cpus)
        with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
            for i, record in zip(jobs, (pool.map if pool else map)(_run_cell, jobs.values())):
                results[i] = record
                append_record(out_path, record)
    return results
