"""Initial-data library and the resumable parameter-sweep harness.

Data classes mirror the regularity/blow-up dichotomy: non-negative smooth
data (shifted cosines, von Mises bumps) versus non-positive even data
vanishing at the origin. The non-positive class is adapted to the torus as
-scale*sin^2(x/2), the closest periodic analogue of the compactly supported
profiles it imitates; it is an analogue, not the original.

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

# Each datum family: its command-line alias and its parameter names, in the
# order the command line lists them. custom's one parameter is its samples.
DATUM_FAMILIES = {
    "cosine_positive": ("cosine", ("a", "b")),
    "von_mises_bump": ("von_mises", ("kappa",)),
    "li_rodrigo_type": ("li_rodrigo", ("scale",)),
    "custom": ("custom", ("samples",)),
}
DATUM_KINDS = tuple(DATUM_FAMILIES)
DATUM_ALIASES = {alias: kind for kind, (alias, _) in DATUM_FAMILIES.items()}

SIGN_TOL = 1e-12


@dataclass(frozen=True)
class InitialDatum:
    """A named initial-data family with its parameters.

    cosine_positive(a, b): a + b*cos(x), requires a >= b > 0 so the datum is
    non-negative. von_mises_bump(kappa): exp(kappa*(cos(x)-1)), positive,
    even, max 1 at x=0. li_rodrigo_type(scale): -scale*sin^2(x/2), even,
    non-positive, zero at x=0. custom(samples): explicit grid samples.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in DATUM_KINDS:
            raise ValueError(f"unknown datum kind {self.kind!r}, expected one of {DATUM_KINDS}")
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
        if self.kind == "cosine_positive":
            a, b = values["a"], values["b"]
            if not (a >= b > 0.0):
                raise ValueError(f"cosine_positive requires a >= b > 0, got a={a}, b={b}")
        else:
            ((key, value),) = values.items()
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
    """Sample the datum on the grid and verify its sign invariants numerically."""
    x = grid.points
    if d.kind == "cosine_positive":
        a, b = d.params["a"], d.params["b"]
        values = a + b * np.cos(x)
        if float(np.min(values)) < -SIGN_TOL * (a + b):
            raise ValueError("cosine_positive sampled negative; requires a >= b > 0")
    elif d.kind == "von_mises_bump":
        kappa = d.params["kappa"]
        values = np.exp(kappa * (np.cos(x) - 1.0))
        if float(np.min(values)) <= 0.0:
            raise ValueError(f"von_mises_bump underflowed to zero at kappa={kappa:g}")
        mirrored = values[(-np.arange(grid.n)) % grid.n]
        if float(np.max(np.abs(values - mirrored))) > SIGN_TOL:
            raise ValueError("von_mises_bump sampled asymmetrically; evenness violated")
    elif d.kind == "li_rodrigo_type":
        scale = d.params["scale"]
        values = -scale * np.sin(x / 2.0) ** 2
        if float(np.max(values)) > 0.0 or abs(float(values[0])) > SIGN_TOL:
            raise ValueError("li_rodrigo_type must be non-positive and vanish at x=0")
    else:
        samples = np.asarray(d.params["samples"], dtype=np.float64)
        if samples.shape != (grid.n,):
            raise ValueError(
                f"custom samples have length {samples.size}, grid expects {grid.n}"
            )
        values = samples
    return RealField(grid, values)


def parse_datum(text: str) -> InitialDatum:
    """Parse a CLI datum string such as cosine:1,1 or von_mises:5.

    Forms: cosine:a,b | von_mises:kappa | li_rodrigo:scale | custom:path
    where path is a text file of newline-separated sample values.
    """
    name, sep, arg = text.partition(":")
    name, arg = name.strip(), arg.strip()
    kind = DATUM_ALIASES.get(name)
    if kind is None:
        raise ValueError(f"unknown datum {name!r}, expected one of {sorted(DATUM_ALIASES)}")
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
                alphas = regularity.holder_alphas(gamma, None, self.dissipation_on)
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
