"""Time integration of theta_t = H(theta) * theta_x - Lambda^gamma theta.

Scheme: integrating-factor RK4. Each mode carries the exact linear factor
e^{-|m|^gamma dt}, and classical RK4 handles the transformed nonlinearity, so
pure-dissipation runs are exact to roundoff and the full scheme is fourth
order in time. The step size is dt = min(dt_max, cfl*dx/max(1, ||H theta||_inf)),
further clamped so steps land exactly on snapshot times and t_end.

The stepping state is a (B, n//2+1) stack of rfft half spectra (modes
m = 0..n/2), one row per run, each row the layout of a SpectralField. run()
is the one-row run_batch, which builds the kernel of its rows, and step() and
nonlinear_term() pass their coefficients as a one-row stack to a cached
kernel. Each row has its own gamma symbols and its own CFL dt. A batched
step makes 8 real transforms, each over the whole stack: in each RK4 stage
one irfft of every row's velocity and gradient and one rfft of their
products, and stage one's irfft also carries every row's undealiased
H theta, whose largest magnitude is the row's CFL speed. The stages write
into a _Work of buffers, which run_batch() allocates for each burst (the
steps one set of moving rows takes together) and step() for its one call;
only the new state is a fresh array. A snapshot makes one transform, an
irfft of theta and theta_x of every row, and one table of diagnostics, whose
rows the records take as their columns. Rows that reach a snapshot time sit
out the steps the others still need, and a RunStopped ends its own row only,
so each row's record is the one run() gives for it alone, bit for bit apart
from wall_time.

Detectors judge each recorded snapshot, and guards each state (the datum's
first transform included) and each snapshot's diagnostics, all under one
np.errstate in run_batch(), so an overflow is an outcome, not a warning:

* BlowupSuspected: non-finite state or diagnostics, or ||theta_x||_inf beyond
  1e3 times its initial value, or the spectral tail fraction beyond
  torus.TAIL_LIMIT (1e-4) while still growing between snapshots.
* UnderResolved: tail fraction beyond TAIL_LIMIT without growth.
* StepCollapse: dt fell below DT_FLOOR (1e-12), the solver's time resolution.

Every stop, detector or numerical failure, is one RunStopped that carries
its outcome and detail, and run_batch() records it in its row's record; a
run that nothing stops is Completed.
Runs are deterministic: fixed evaluation order, no randomness, identical
inputs give bit-identical records.
"""

from __future__ import annotations

import copy
import itertools
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import regularity
from .records import SCALAR_FIELDS, Outcome, RunRecord, SampleTable
from .regularity import RegularityConstants
from .torus import TAIL_LIMIT, TWO_PI, RealField, SpectralField, TorusGrid, tail_fraction

GRADIENT_BLOWUP_FACTOR = 1e3
DT_FLOOR = 1e-12
_T, _TAIL, _GRAD = map(SCALAR_FIELDS.index, ("t", "tail_fraction", "grad_linf"))  # _detect's columns


class RunStopped(RuntimeError):
    """A run ends before t_end, with this outcome and detail (the message)."""

    def __init__(self, outcome: Outcome, detail: str):
        super().__init__(detail)
        self.outcome = outcome
        self.detail = detail


def _non_finite(a: np.ndarray, t, what: str = "state") -> dict[int, RunStopped]:
    """The stop of each row of a, by position, that holds a value beyond
    float64: its state or diagnostics left float64 at that row's time t."""
    if np.isfinite(a).all():
        return {}
    rows = np.flatnonzero(~np.isfinite(a).all(axis=1))
    return {i: RunStopped(Outcome.BLOWUP_SUSPECTED, f"non-finite {what} at t={t[i]:.6g}") for i in rows}


@dataclass(frozen=True)
class ModelParams:
    """Model configuration: dissipation exponent and discrete switches.

    linear_only disables the nonlinear term entirely; it exists for exactness
    tests of the linear part and for the pure-dissipation probe baseline.
    """

    gamma: float
    n: int
    dissipation_on: bool = True
    dealias_on: bool = True
    linear_only: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 2.0:
            raise ValueError(f"gamma must be in (0, 2], got {self.gamma}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 32 or self.n % 2 != 0:
            raise ValueError(f"n must be an even integer >= 32, got {self.n!r}")
        # A numpy integer n would reach the config and its JSON hash.
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class StepControl:
    """Time-stepping limits and the snapshot cadence, by default 0.02 capped
    at t_end."""

    t_end: float
    dt_max: float = 0.01
    cfl: float = 0.4
    snapshot_every: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.t_end <= DT_FLOOR:
            raise ValueError(f"t_end must exceed the time floor {DT_FLOOR:g}, got {self.t_end}")
        if self.snapshot_every is None:
            object.__setattr__(self, "snapshot_every", min(0.02, self.t_end))
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if not 0.0 < self.dt_max < math.inf:
            raise ValueError(f"dt_max must be positive and finite, got {self.dt_max}")
        if not DT_FLOOR < self.snapshot_every <= self.t_end:
            raise ValueError(
                f"snapshot_every must be in ({DT_FLOOR:g}, t_end], got {self.snapshot_every}"
            )


@dataclass
class SolverState:
    """Integration state at time t."""

    t: float
    theta_hat: SpectralField


@dataclass(frozen=True)
class DiagnosticPlan:
    """Which Holder exponents to track in each snapshot."""

    holder_alphas: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for a in self.holder_alphas:
            if not 0.0 < a <= 1.0:
                raise ValueError(f"holder alpha must be in (0, 1], got {a}")


class _Kernel:
    """Symbols of a stack of (grid, model) rows, one row per model, and the
    integrating factors of the last row dts, which most steps of a run repeat.

    The switches are per-row symbols, so every row takes one path: without
    dealiasing the 0/1 mask is all ones, with linear_only the velocity and
    gradient symbols are zero. norm_weights holds each row's Sobolev weights
    (regularity.sobolev_weights) at s = 0, 1/2, 3/2 and (3 + gamma)/2, the
    four norms of a snapshot.

    One-row kernels are shared through _kernel: nothing writes to their
    arrays once built, and the factors are replaced as one (dts, factors)
    tuple, so a reader never pairs one dt with the factors of another. The
    buffers a step writes are a _Work, which belongs to one burst of a batch
    or to the one step() call, never to a kernel.
    """

    def __init__(self, grid: TorusGrid, params: tuple[ModelParams, ...]):
        for p in params:
            if grid.n != p.n:
                raise ValueError(f"n mismatch: field has n={grid.n}, params n={p.n}")
        self.grid = grid
        self.n = grid.n
        self.dx = grid.dx
        modes = grid.abs_modes
        self.hilbert = grid.hilbert_mult
        symbols = np.stack([self.hilbert, grid.derivative_mult])
        lam, mask, velocity_gradient, norm_weights = [], [], [], []
        for p in params:
            lam.append(modes**p.gamma if p.dissipation_on else np.zeros_like(modes))
            mask.append(grid.dealias_mask if p.dealias_on else np.ones_like(grid.dealias_mask))
            velocity_gradient.append(np.zeros_like(symbols) if p.linear_only else symbols * mask[-1])
            orders = (0.0, 0.5, 1.5, (3.0 + p.gamma) / 2.0)
            norm_weights.append([regularity.sobolev_weights(grid, s) for s in orders])
        # The 0/1 mask is stored complex, as the spectra it multiplies are: a bool
        # mask would be cast on every product, which costs more on a stack.
        self.lam, self.mask, self.norm_weights = np.array(lam), np.array(mask, dtype=complex), np.array(norm_weights)
        # (2, B, n//2+1): the velocity symbols of every row, then the gradient symbols.
        self.velocity_gradient = np.stack(velocity_gradient, axis=1)
        self._last = (None, None)

    def factors(self, dt: np.ndarray) -> tuple[np.ndarray, ...]:
        """e^{-lam dt/2}, its square, twice it, dt times it, dt/2 and dt/6,
        the factors of an RK4 step at a (B, 1) column of row dts."""
        key = dt.tobytes()
        last_key, last = self._last
        if key != last_key:
            half = np.exp(-self.lam * dt / 2.0)
            last = half, half * half, 2.0 * half, dt * half, dt / 2.0, dt / 6.0
            self._last = (key, last)
        return last

    def rows(self, rows: np.ndarray) -> _Kernel:
        """The kernel of these rows (ascending indices), itself for every row."""
        if rows.size == len(self.lam):
            return self
        sub = copy.copy(self)
        sub.lam, sub.mask, sub.norm_weights = self.lam[rows], self.mask[rows], self.norm_weights[rows]
        sub.velocity_gradient = self.velocity_gradient[:, rows]
        sub._last = (None, None)
        return sub


# step() and nonlinear_term() take their one-row kernel from this cache, so a
# chain of steps builds and checks the kernel of a (grid, params) pair once.
# run_batch(), run() included, builds the kernel of its rows for its batch alone.
_kernel = lru_cache(maxsize=8)(_Kernel)


class _Work:
    """The buffers the IF-RK4 steps of a stack of rows write: the symbol x
    state spectra (H theta, velocity and gradient of every row), their real
    rows, k1..k4, a stage input and e^{-lam dt} h."""

    def __init__(self, rows: int, n: int):
        m = n // 2 + 1
        self.spectra = np.empty((3, rows, m), dtype=complex)
        self.real = np.empty((3, rows, n))
        self.k = np.empty((4, rows, m), dtype=complex)
        self.stage = np.empty((rows, m), dtype=complex)
        self.full_h = np.empty((rows, m), dtype=complex)


def _nonlinear_raw(h: np.ndarray, kernel: _Kernel, work: _Work, stage: int) -> np.ndarray:
    """The k of RK4 stage 0..3 at the stack h, in work.k[stage]: the dealiased
    transform of H(theta)*theta_x of every row. Stage 0's irfft also gives
    every row's undealiased velocity H theta, in work.real[0], for the CFL."""
    first = 0 if stage == 0 else 1
    spectra, real = work.spectra[first:], work.real[first:]
    if stage == 0:
        np.multiply(kernel.hilbert, h, out=spectra[0])
    np.multiply(kernel.velocity_gradient, h, out=spectra[-2:])
    np.fft.irfft(spectra, kernel.n, norm="forward", out=real)
    velocity, gradient = real[-2:]
    np.multiply(velocity, gradient, out=velocity)
    k = np.fft.rfft(velocity, norm="forward", out=work.k[stage])
    k *= kernel.mask
    return k


def nonlinear_term(theta_hat: SpectralField, p: ModelParams) -> SpectralField:
    """Transform of H(theta)*theta_x, pseudospectral, dealiased when enabled."""
    grid = theta_hat.grid
    # Only stage 0's transform carries the CFL row, which nothing reads here.
    h = _nonlinear_raw(theta_hat.coeffs[None], _kernel(grid, (p,)), _Work(1, grid.n), 1)
    stops = _non_finite(h, [math.nan])
    if stops:
        raise stops[0]
    return SpectralField(grid, h[0])


def _choose_dt(velocity, c: StepControl, kernel: _Kernel, t: np.ndarray, t_limit: float) -> list[float]:
    # The CFL speed reads the undealiased velocity, stage one's row of H theta,
    # which nothing reads after it. Each row's dt is a few float operations,
    # cheaper in Python than as numpy calls on a short stack.
    speeds = np.abs(velocity, out=velocity).max(axis=1).tolist()
    return [min(c.dt_max, c.cfl * kernel.dx / max(1.0, s), t_limit - ti) for s, ti in zip(speeds, t.tolist())]


def _step_raw(h, t, c, kernel: _Kernel, t_limit, work: _Work):
    """One integrating-factor RK4 step of each row of the stack h from its time
    t, at its own CFL dt: the new states, their times, the dt of each row, and
    by position the RunStopped of each row that takes no step, because its dt
    fell below DT_FLOOR or its new state left floating point. Such a row keeps
    its state and time, and its dt reads NaN. The stages write into work; the
    new states are a fresh array, in the operation order of
    k2 = N(half (h + dt/2 k1)), k3 = N(half h + dt/2 k2), k4 = N(full h + dt half k3),
    full h + dt/6 (full k1 + 2 half (k2 + k3) + k4), so every rounding is fixed."""
    k1 = _nonlinear_raw(h, kernel, work, 0)
    dts = _choose_dt(work.real[0], c, kernel, t, t_limit)
    stops = {
        i: RunStopped(Outcome.STEP_COLLAPSE, f"step size collapsed to {d:.3e} at t={t[i]:.6g}")
        for i, d in enumerate(dts) if d < DT_FLOOR
    }
    dt = np.array(dts)
    half, full, twice_half, tau_half, tau_2, tau_6 = kernel.factors(dt[:, None])
    stage, full_h = work.stage, work.full_h
    np.multiply(tau_2, k1, out=stage)
    np.add(h, stage, out=stage)
    np.multiply(half, stage, out=stage)
    k2 = _nonlinear_raw(stage, kernel, work, 1)
    np.multiply(half, h, out=stage)
    np.add(stage, np.multiply(tau_2, k2, out=work.k[2]), out=stage)  # k3's buffer, before k3
    k3 = _nonlinear_raw(stage, kernel, work, 2)
    np.multiply(full, h, out=full_h)
    np.add(full_h, np.multiply(tau_half, k3, out=stage), out=stage)
    k4 = _nonlinear_raw(stage, kernel, work, 3)
    np.multiply(full, k1, out=k1)
    k2 += k3
    np.multiply(twice_half, k2, out=k2)
    k1 += k2
    k1 += k4
    np.multiply(tau_6, k1, out=k1)
    out = full_h + k1
    t_new = t + dt
    stops = {**_non_finite(out, t_new), **stops}
    if stops:
        rows = list(stops)
        out[rows], t_new[rows], dt[rows] = h[rows], t[rows], math.nan
    return out, t_new, dt, stops


def step(s: SolverState, p: ModelParams, c: StepControl, t_limit: float | None = None) -> SolverState:
    """Advance one step; t_limit (default t_end) caps the step so it never
    overshoots a snapshot boundary. A collapsed or non-finite step raises RunStopped."""
    grid = s.theta_hat.grid
    limit = c.t_end if t_limit is None else t_limit
    if math.isnan(limit):
        raise ValueError("t_limit must be a number, got nan")
    with np.errstate(over="ignore", invalid="ignore"):
        h, t, _, stops = _step_raw(
            s.theta_hat.coeffs[None], np.array([s.t]), c, _kernel(grid, (p,)), limit, _Work(1, grid.n)
        )
    if stops:
        raise stops[0]
    return SolverState(t=float(t[0]), theta_hat=SpectralField(grid, h[0]))


def _take_sample(
    h: np.ndarray, t: np.ndarray, kernel: _Kernel, plans: Sequence[DiagnosticPlan]
) -> tuple[np.ndarray, list[list[float]], dict[int, RunStopped]]:
    """The snapshot of each row of the stack h at its time t: its (B, 10) table
    of scalar diagnostics in SCALAR_FIELDS order, each row's values of its
    plan's Holder exponents, and by position the RunStopped of each row whose
    snapshot holds a value beyond float64. One irfft gives every theta and theta_x."""
    grid = kernel.grid
    theta, theta_x = np.fft.irfft(np.stack([h, h * grid.derivative_mult]), grid.n, norm="forward")
    power = np.abs(h) ** 2
    norms = np.sqrt(TWO_PI * np.sum(kernel.norm_weights * power[:, None], axis=-1))
    columns = dict(
        t=t,
        l2=norms[:, 0],
        linf=np.abs(theta).max(axis=1),
        mean=h[:, 0].real,
        hdot_half=norms[:, 1],
        hdot_three_half=norms[:, 2],
        hdot_mid=norms[:, 3],
        tail_fraction=tail_fraction(grid, h),
        min_value=theta.min(axis=1),
        grad_linf=np.abs(theta_x).max(axis=1),
    )
    table = np.column_stack([columns[name] for name in SCALAR_FIELDS])
    stops = _non_finite(table, t, "diagnostics")
    # The finite table is the Holder values' only check: a finite l2 keeps every |theta_hat_m|
    # below sqrt(float max / 2 pi) ~ 5.4e153, so no increment of the scan, nor its ratio, leaves float64.
    holders = [
        [] if i in stops else [regularity.holder_seminorm(RealField(grid, theta[i]), a) for a in plan.holder_alphas]
        for i, plan in enumerate(plans)
    ]
    return table, holders, stops


def build_config(
    p: ModelParams,
    c: StepControl,
    constants: RegularityConstants,
    datum: dict,
    plan: DiagnosticPlan,
) -> dict:
    """Full run configuration, the unit of sweep resumption hashing.

    The model, control and constants blocks are keyed by their dataclass field
    names, so a field added there lands in every new config and its hash.
    """
    return {
        "model": _field_values(p),
        "control": _field_values(c),
        "constants": _field_values(constants),
        "datum": datum,
        "holder_alphas": list(plan.holder_alphas),
    }


def _field_values(obj) -> dict:
    # Not dataclasses.asdict: every field here is a scalar, so its deep copy
    # would only double the cost of each config hash.
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _predictions(
    theta0: RealField, samples: SampleTable, p: ModelParams, plan: DiagnosticPlan, k: RegularityConstants
):
    """T* (at regularity.t_star_alpha's exponent) and T1 where the formulas
    apply, None elsewhere and for a T* beyond float64, since strict JSON has no
    Infinity; T1 reads the norms of theta0 from the run's first sample, and is
    None for a run stopped before it."""
    linf0 = float(np.max(np.abs(theta0.values)))
    alpha = regularity.t_star_alpha(p.gamma, p.dissipation_on, plan.holder_alphas, linf0)
    t_star_pred = None if alpha is None else regularity.t_star(p.gamma, alpha, linf0, k)
    t_local_pred = None
    if p.dissipation_on and 0.0 < p.gamma <= 1.0 and len(samples):
        l2, hdot32 = float(samples.l2[0]), float(samples.hdot_three_half[0])
        if l2 > 0.0 and hdot32 > 0.0:
            t_local_pred = regularity.t_local(p.gamma, l2, hdot32, k)
    return (None if t_star_pred == math.inf else t_star_pred), t_local_pred


def _detect(rows: list[list[float]]) -> RunStopped | None:
    """The RunStopped of the first detector that fires on the newest snapshot
    row of a run's table, else None: its gradient against the first row's,
    its tail growth against the row before it (the first against itself)."""
    t, tail, grad = (rows[-1][column] for column in (_T, _TAIL, _GRAD))
    grad0, prev_tail = rows[0][_GRAD], rows[-2:][0][_TAIL]
    if grad0 > 0.0 and grad > GRADIENT_BLOWUP_FACTOR * grad0:
        growth = f"gradient grew {grad / grad0:.3g}x (limit {GRADIENT_BLOWUP_FACTOR:g}x)"
        return RunStopped(Outcome.BLOWUP_SUSPECTED, f"{growth} at t={t:.6g}")
    if tail > TAIL_LIMIT:
        message = f"tail fraction {tail:.3e} exceeds {TAIL_LIMIT:g}"
        if tail > prev_tail:
            return RunStopped(Outcome.BLOWUP_SUSPECTED, f"{message} and is growing at t={t:.6g}")
        return RunStopped(Outcome.UNDER_RESOLVED, f"{message} at t={t:.6g}")
    return None


def run(
    theta0: RealField,
    p: ModelParams,
    c: StepControl,
    plan: DiagnosticPlan = DiagnosticPlan(),
    constants: RegularityConstants = RegularityConstants(),
    datum: dict | None = None,
) -> RunRecord:
    """Integrate to t_end or to the first RunStopped; return the record.

    Snapshots are taken at t = 0, every snapshot_every units, and at t_end.
    An early stop is recorded in outcome/outcome_detail, never raised.
    Without a datum block, the config names theta0 by its samples. The record
    counts the steps taken and their smallest and largest size. This is the
    one-row run_batch.
    """
    (record,) = run_batch([(theta0, p, plan, datum)], c, constants)
    return record


def _running(t: np.ndarray, stops: dict[int, RunStopped], until: float) -> np.ndarray:
    """The rows, ascending, that no stop has ended and whose time t is below until."""
    below = t < until - DT_FLOOR
    below[list(stops)] = False
    return below.nonzero()[0]


def run_batch(
    rows: Sequence[tuple[RealField, ModelParams, DiagnosticPlan, dict | None]],
    c: StepControl,
    constants: RegularityConstants = RegularityConstants(),
) -> list[RunRecord]:
    """run() for each (theta0, model, plan, datum) row, on one grid, with one
    control and one set of constants: the records in row order.

    The rows advance as one (B, n//2+1) stack, each at its own CFL dt. A row
    that reaches the next snapshot time sits out the steps the others still
    need, and the rows there are sampled together. A RunStopped ends its own
    row. Each record equals the one run() gives for its row alone, apart from
    wall_time, which is the batch's wall time divided by B.
    """
    started = time.perf_counter()
    if not rows:
        raise ValueError("run_batch needs at least one row, got an empty batch")
    grid = rows[0][0].grid
    if any(theta0.grid != grid for theta0, *_ in rows):
        raise ValueError("the rows of a batch must share one grid")
    params = tuple(p for _, p, _, _ in rows)
    kernel = _Kernel(grid, params)
    count = len(rows)
    tables = [[] for _ in rows]  # each row's snapshot rows: its SCALAR_FIELDS values, then its Holder values
    t, steps = np.zeros(count), np.zeros(count, dtype=int)
    dt_lo, dt_hi = np.full(count, math.inf), np.zeros(count)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the outcome, not a warning
        h = np.fft.rfft(np.stack([theta0.values for theta0, *_ in rows]), norm="forward")
        stops = _non_finite(h, t)
        for snapshot_index in itertools.count():
            target = min(snapshot_index * c.snapshot_every, c.t_end)
            moving = _running(t, stops, target)
            while moving.size:
                # The moving rows step as one stack, in buffers of their own, until one stops or arrives.
                sub, work, hm, tm = kernel.rows(moving), _Work(moving.size, grid.n), h[moving], t[moving]
                taken, lo, hi = 0, dt_lo[moving], dt_hi[moving]
                while True:
                    hm, tm, dt, stopped = _step_raw(hm, tm, c, sub, target, work)
                    taken += 1
                    np.fmin(lo, dt, out=lo)  # a stopped row's NaN dt is skipped
                    np.fmax(hi, dt, out=hi)
                    if stopped or tm.max() >= target - DT_FLOOR:
                        break
                h[moving], t[moving], dt_lo[moving], dt_hi[moving] = hm, tm, lo, hi
                steps[moving] += taken - np.isnan(dt)  # a stopped row did not take its last step
                stops.update({moving[i]: stop for i, stop in stopped.items()})
                del work  # freed before the next burst allocates its own
                moving = _running(t, stops, target)
            live = _running(t, stops, math.inf)
            if not live.size:
                break
            table, holder, stopped = _take_sample(h[live], t[live], kernel.rows(live), [rows[i][2] for i in live])
            for j, (i, values) in enumerate(zip(live, table.tolist())):
                stop = stopped.get(j)
                if stop is None:
                    tables[i].append(values + holder[j])
                    stop = _detect(tables[i])
                if stop:
                    stops[i] = stop
            if not _running(t, stops, c.t_end).size:
                break
    share = (time.perf_counter() - started) / count
    records = []
    for i, (theta0, p, plan, datum) in enumerate(rows):
        if datum is None:
            datum = {"kind": "custom", "samples": theta0.values.tolist()}
        # With no snapshot, the table has no Holder column, so holder is {}.
        columns = np.transpose(tables[i] or np.empty((0, len(SCALAR_FIELDS))))
        holder = dict(zip(plan.holder_alphas, columns[len(SCALAR_FIELDS):]))
        samples = SampleTable({**dict(zip(SCALAR_FIELDS, columns)), "holder": holder})
        t_star_pred, t_local_pred = _predictions(theta0, samples, p, plan, constants)
        stop, took = stops.get(i), int(steps[i])
        records.append(RunRecord(
            config=build_config(p, c, constants, datum, plan),
            samples=samples,
            outcome=stop.outcome if stop else Outcome.COMPLETED,
            outcome_detail=stop.detail if stop else f"reached t_end={c.t_end:g}",
            t_star_predicted=t_star_pred,
            t_local_predicted=t_local_pred,
            wall_time=share,
            step_count=took,
            dt_min=float(dt_lo[i]) if took else None,
            dt_max=float(dt_hi[i]) if took else None,
        ))
    return records
