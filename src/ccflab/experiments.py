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

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from .records import RunRecord, append_record, config_hash, drop_torn_tail, load_records
from .regularity import RegularityConstants
from .solver import DiagnosticPlan, ModelParams, StepControl, build_config, run
from .torus import RealField, TorusGrid

DATUM_KINDS = ("cosine_positive", "von_mises_bump", "li_rodrigo_type", "custom")

# Accepted on the command line as shorthand for the kinds above.
DATUM_ALIASES = {
    "cosine": "cosine_positive",
    "von_mises": "von_mises_bump",
    "li_rodrigo": "li_rodrigo_type",
    "custom": "custom",
}

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
        if self.kind == "cosine_positive":
            a, b = float(p.get("a", 0.0)), float(p.get("b", 0.0))
            if not (a >= b > 0.0):
                raise ValueError(f"cosine_positive requires a >= b > 0, got a={a}, b={b}")
        elif self.kind == "von_mises_bump":
            kappa = float(p.get("kappa", 0.0))
            if not kappa > 0.0:
                raise ValueError(f"von_mises_bump requires kappa > 0, got {kappa}")
        elif self.kind == "li_rodrigo_type":
            scale = float(p.get("scale", 0.0))
            if not scale > 0.0:
                raise ValueError(f"li_rodrigo_type requires scale > 0, got {scale}")
        else:
            samples = p.get("samples")
            if samples is None or len(samples) == 0:
                raise ValueError("custom datum requires a non-empty samples sequence")

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
    kind = DATUM_ALIASES.get(name.strip())
    if kind is None:
        raise ValueError(
            f"unknown datum {name.strip()!r}, expected one of {sorted(DATUM_ALIASES)}"
        )
    if not sep or not arg.strip():
        raise ValueError(f"datum {name.strip()!r} requires parameters after a colon")
    arg = arg.strip()
    if kind == "cosine_positive":
        parts = arg.split(",")
        if len(parts) != 2:
            raise ValueError(f"cosine datum expects a,b, got {arg!r}")
        return cosine_positive(float(parts[0]), float(parts[1]))
    if kind == "von_mises_bump":
        return von_mises_bump(float(arg))
    if kind == "li_rodrigo_type":
        return li_rodrigo_type(float(arg))
    samples = np.loadtxt(arg, dtype=np.float64, ndmin=1)
    return custom_datum(samples)


@dataclass(frozen=True)
class SweepPlan:
    """Cartesian sweep over (datum, gamma, n) with shared constants.

    Cells are enumerated datum-major, then gamma, then resolution; the order
    is part of the persisted-file contract. The constants and control block
    replicate into every cell's config.
    """

    gamma_values: tuple[float, ...]
    data: tuple[InitialDatum, ...]
    resolutions: tuple[int, ...]
    constants: RegularityConstants = RegularityConstants()
    control: StepControl = StepControl(t_end=1.0)
    dissipation_on: bool = True
    dealias_on: bool = True
    holder_alphas: tuple[float, ...] = ()
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
        for gamma in self.gamma_values:
            for n in self.resolutions:
                ModelParams(gamma=gamma, n=n)  # reject bad axes before any cell runs

    def cells(self) -> list[tuple[InitialDatum, float, int]]:
        return list(product(self.data, self.gamma_values, self.resolutions))


def _cell_model(plan: SweepPlan, gamma: float, n: int) -> ModelParams:
    return ModelParams(
        gamma=gamma,
        n=n,
        dissipation_on=plan.dissipation_on,
        dealias_on=plan.dealias_on,
    )


def _cell_config(plan: SweepPlan, datum: InitialDatum, gamma: float, n: int) -> dict:
    return build_config(
        _cell_model(plan, gamma, n),
        plan.control,
        plan.constants,
        datum.to_config(),
        DiagnosticPlan(plan.holder_alphas),
    )


def _run_cell(args: tuple[SweepPlan, InitialDatum, float, int]) -> RunRecord:
    plan, datum, gamma, n = args
    params = _cell_model(plan, gamma, n)
    theta0 = make_datum(datum, TorusGrid(n))
    return run(
        theta0,
        params,
        plan.control,
        plan=DiagnosticPlan(plan.holder_alphas),
        constants=plan.constants,
        datum=datum.to_config(),
    )


def sweep(plan: SweepPlan, out_path: Path | str) -> list[RunRecord]:
    """Run every cell of the plan, appending each record to out_path as it
    finishes. Cells whose config hash already appears in the file are reused
    verbatim, so interrupted sweeps resume where they stopped; a last line
    torn by a kill mid-append is dropped with a warning, and that cell reruns.

    Numerical failures inside a cell land in that cell's outcome; they never
    abort the sweep. Cells run in min(parallelism, pending cells, CPUs)
    processes, and with one of them no pool is built.
    """
    out_path = Path(out_path)
    existing: dict[str, RunRecord] = {}
    if out_path.exists():
        drop_torn_tail(out_path)
        for record in load_records(out_path):
            existing[record.config_hash] = record

    cells = plan.cells()
    results: list[RunRecord | None] = [None] * len(cells)
    pending: list[tuple[int, InitialDatum, float, int]] = []
    for i, (datum, gamma, n) in enumerate(cells):
        cached = existing.get(config_hash(_cell_config(plan, datum, gamma, n)))
        if cached is not None:
            results[i] = cached
        else:
            pending.append((i, datum, gamma, n))

    if pending:
        jobs = [(plan, datum, gamma, n) for _, datum, gamma, n in pending]
        workers = min(plan.parallelism, len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
            for (i, *_), record in zip(pending, (pool.map if pool else map)(_run_cell, jobs)):
                results[i] = record
                append_record(out_path, record)

    return [record for record in results if record is not None]
