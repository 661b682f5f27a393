"""Time integration of theta_t = H(theta) * theta_x - Lambda^gamma theta.

Scheme: integrating-factor RK4. Each mode carries the exact linear factor
e^{-|m|^gamma dt}, and classical RK4 handles the transformed nonlinearity, so
pure-dissipation runs are exact to roundoff and the full scheme is fourth
order in time. The step size is dt = min(dt_max, cfl*dx/max(1, ||H theta||_inf)),
further clamped so steps land exactly on snapshot times and t_end.

The stepping state is theta_hat's rfft half spectrum (modes m = 0..n/2), the
layout of every SpectralField, so run(), step() and nonlinear_term() pass the
coefficients as they are to one kernel, built once per (grid, params). A step
makes 9 real transforms: one irfft of H theta for the CFL speed, then in each
RK4 stage one batched irfft of the velocity and the gradient together and one
rfft of their product. A snapshot makes one, a batched irfft of theta and theta_x.

Detectors judge each recorded snapshot, and guards each state (the datum's
first transform included) and each snapshot's diagnostics, all under one
np.errstate in run(), so an overflow is an outcome, not a warning:

* BlowupSuspected: non-finite state or diagnostics, or ||theta_x||_inf beyond
  1e3 times its initial value, or the spectral tail fraction beyond
  torus.TAIL_LIMIT (1e-4) while still growing between snapshots.
* UnderResolved: tail fraction beyond TAIL_LIMIT without growth.
* StepCollapse: dt fell below DT_FLOOR (1e-12), the solver's time resolution.

Every stop, detector or numerical failure, is one RunStopped exception that
carries its outcome and detail, and run() records it; a run that nothing
stops is Completed.
Runs are deterministic: fixed evaluation order, no randomness, identical
inputs give bit-identical records.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import regularity
from .records import DiagnosticsSample, Outcome, RunRecord
from .regularity import RegularityConstants
from .torus import TAIL_LIMIT, RealField, SpectralField, TorusGrid, tail_fraction

GRADIENT_BLOWUP_FACTOR = 1e3
DT_FLOOR = 1e-12


class RunStopped(RuntimeError):
    """A run ends before t_end, with this outcome and detail (the message)."""

    def __init__(self, outcome: Outcome, detail: str):
        super().__init__(detail)
        self.outcome = outcome
        self.detail = detail


def _finite(h: np.ndarray, t: float, what: str = "state") -> np.ndarray:
    """h, unless it left the reach of floating point: a suspected blow-up at t."""
    if not np.all(np.isfinite(h)):
        raise RunStopped(Outcome.BLOWUP_SUSPECTED, f"non-finite {what} at t={t:.6g}")
    return h


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
    """Symbols of one (grid, model) pair, and the integrating factors of the
    last dt, which most steps of a run repeat.

    The switches are symbols, so every kernel takes one path: without
    dealiasing the 0/1 mask is all ones, with linear_only the velocity and
    gradient symbols are zero.

    Kernels are shared through _kernel: nothing writes to their arrays once
    built, and the factors are replaced as one (dt, half, full) tuple, so a
    reader never pairs one dt with the factors of another.
    """

    def __init__(self, grid: TorusGrid, p: ModelParams):
        if grid.n != p.n:
            raise ValueError(f"n mismatch: field has n={grid.n}, params n={p.n}")
        self.n = grid.n
        self.dx = grid.dx
        modes = grid.abs_modes
        self.lam = modes**p.gamma if p.dissipation_on else np.zeros_like(modes)
        self.hilbert = grid.hilbert_mult
        self.mask = grid.dealias_mask if p.dealias_on else np.ones_like(grid.dealias_mask)
        symbols = np.stack([self.hilbert, grid.derivative_mult]) * self.mask
        self.velocity_gradient = np.zeros_like(symbols) if p.linear_only else symbols
        self._last = (None, None, None)

    def factors(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """e^{-lam dt/2} and its square."""
        last = self._last
        if dt != last[0]:
            half = np.exp(-self.lam * dt / 2.0)
            last = self._last = (dt, half, half * half)
        return last[1], last[2]


# run(), step() and nonlinear_term() build and check the kernel of a (grid,
# params) pair once; a sweep worker cycles through a few (n, gamma) pairs.
_kernel = lru_cache(maxsize=8)(_Kernel)


def _nonlinear_raw(h: np.ndarray, kernel: _Kernel) -> np.ndarray:
    velocity, gradient = np.fft.irfft(kernel.velocity_gradient * h, kernel.n, norm="forward")
    return np.fft.rfft(velocity * gradient, norm="forward") * kernel.mask


def nonlinear_term(theta_hat: SpectralField, p: ModelParams) -> SpectralField:
    """Transform of H(theta)*theta_x, pseudospectral, dealiased when enabled."""
    grid = theta_hat.grid
    return SpectralField(grid, _finite(_nonlinear_raw(theta_hat.coeffs, _kernel(grid, p)), math.nan))


def _choose_dt(h, c: StepControl, kernel: _Kernel, t: float, t_limit: float) -> float:
    # The CFL speed reads the undealiased state.
    velocity = np.fft.irfft(kernel.hilbert * h, kernel.n, norm="forward")
    speed = max(1.0, float(np.max(np.abs(velocity))))
    dt = min(c.dt_max, c.cfl * kernel.dx / speed, t_limit - t)
    if dt < DT_FLOOR:
        raise RunStopped(Outcome.STEP_COLLAPSE, f"step size collapsed to {dt:.3e} at t={t:.6g}")
    return dt


def _step_raw(h, t, c, kernel: _Kernel, t_limit):
    """One integrating-factor RK4 step: the new state, its time and the dt taken."""
    dt = _choose_dt(h, c, kernel, t, t_limit)
    half, full = kernel.factors(dt)

    def N(v):
        return _nonlinear_raw(v, kernel)

    k1 = N(h)
    k2 = N(half * (h + dt / 2.0 * k1))
    k3 = N(half * h + dt / 2.0 * k2)
    k4 = N(full * h + dt * half * k3)
    out = full * h + dt / 6.0 * (full * k1 + 2.0 * half * (k2 + k3) + k4)
    return _finite(out, t + dt), t + dt, dt


def step(s: SolverState, p: ModelParams, c: StepControl, t_limit: float | None = None) -> SolverState:
    """Advance one step; t_limit (default t_end) caps the step so it never
    overshoots a snapshot boundary. A collapsed or non-finite step raises RunStopped."""
    grid = s.theta_hat.grid
    limit = c.t_end if t_limit is None else t_limit
    h, t_new, _ = _step_raw(s.theta_hat.coeffs, s.t, c, _kernel(grid, p), limit)
    return SolverState(t=t_new, theta_hat=SpectralField(grid, h))


def _take_sample(F: SpectralField, t: float, gamma: float, plan: DiagnosticPlan) -> DiagnosticsSample:
    """The snapshot of F at t, unless a value of it leaves float64 (RunStopped)."""
    grid, h = F.grid, F.coeffs
    theta, theta_x = np.fft.irfft(np.stack([h, h * grid.derivative_mult]), grid.n, norm="forward")
    values = dict(
        t=t,
        l2=regularity.sobolev_norm(F, 0.0),
        linf=float(np.max(np.abs(theta))),
        mean=float(h[0].real),
        hdot_half=regularity.sobolev_norm(F, 0.5),
        hdot_three_half=regularity.sobolev_norm(F, 1.5),
        hdot_mid=regularity.sobolev_norm(F, (3.0 + gamma) / 2.0),
        tail_fraction=tail_fraction(F),
        min_value=float(np.min(theta)),
        grad_linf=float(np.max(np.abs(theta_x))),
    )
    _finite(np.array(list(values.values())), t, "diagnostics")  # then theta is finite, as RealField requires
    phys = RealField(grid, theta)
    holder = {a: regularity.holder_seminorm(phys, a) for a in plan.holder_alphas}
    _finite(np.array(list(holder.values())), t, "diagnostics")
    return DiagnosticsSample(**values, holder=holder)


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
    theta0: RealField, first: DiagnosticsSample | None, p: ModelParams, plan: DiagnosticPlan, k: RegularityConstants
):
    """T* (regularity.predicted_t_star) and T1 where the formulas apply, None
    elsewhere and for a T* beyond float64, since strict JSON has no Infinity;
    T1 reads the norms of theta0 from the run's first sample, and is None for
    a run stopped before it."""
    linf0 = float(np.max(np.abs(theta0.values)))
    t_star_pred = regularity.predicted_t_star(p.gamma, p.dissipation_on, plan.holder_alphas, linf0, k)
    t_local_pred = None
    if p.dissipation_on and 0.0 < p.gamma <= 1.0:
        if first is not None and first.l2 > 0.0 and first.hdot_three_half > 0.0:
            t_local_pred = regularity.t_local(p.gamma, first.l2, first.hdot_three_half, k)
    return (None if t_star_pred == math.inf else t_star_pred), t_local_pred


def _detect(samples: list[DiagnosticsSample]) -> None:
    """Judge the newest snapshot, raising RunStopped when a detector fires: its
    gradient against the first snapshot's, its tail growth against the
    snapshot before it (the first against itself)."""
    sample, grad0 = samples[-1], samples[0].grad_linf
    prev = samples[-2] if len(samples) > 1 else sample
    if grad0 > 0.0 and sample.grad_linf > GRADIENT_BLOWUP_FACTOR * grad0:
        growth = f"gradient grew {sample.grad_linf / grad0:.3g}x (limit {GRADIENT_BLOWUP_FACTOR:g}x)"
        raise RunStopped(Outcome.BLOWUP_SUSPECTED, f"{growth} at t={sample.t:.6g}")
    if sample.tail_fraction > TAIL_LIMIT:
        tail = f"tail fraction {sample.tail_fraction:.3e} exceeds {TAIL_LIMIT:g}"
        if sample.tail_fraction > prev.tail_fraction:
            raise RunStopped(Outcome.BLOWUP_SUSPECTED, f"{tail} and is growing at t={sample.t:.6g}")
        raise RunStopped(Outcome.UNDER_RESOLVED, f"{tail} at t={sample.t:.6g}")


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
    counts the steps taken and their smallest and largest size.
    """
    grid = theta0.grid
    kernel = _kernel(grid, p)
    started = time.perf_counter()
    if datum is None:
        datum = {"kind": "custom", "samples": theta0.values.tolist()}
    config = build_config(p, c, constants, datum, plan)

    samples: list[DiagnosticsSample] = []
    t, steps, dt_lo, dt_hi = 0.0, 0, math.inf, 0.0
    outcome, detail = Outcome.COMPLETED, f"reached t_end={c.t_end:g}"
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the outcome, not a warning
            h = _finite(np.fft.rfft(theta0.values, norm="forward"), t)
            for snapshot_index in itertools.count():
                target = min(snapshot_index * c.snapshot_every, c.t_end)
                while t < target - DT_FLOOR:
                    h, t, dt = _step_raw(h, t, c, kernel, target)
                    steps += 1
                    dt_lo, dt_hi = min(dt_lo, dt), max(dt_hi, dt)
                samples.append(_take_sample(SpectralField(grid, h), t, p.gamma, plan))
                _detect(samples)
                if t >= c.t_end - DT_FLOOR:
                    break
    except RunStopped as stop:
        outcome, detail = stop.outcome, stop.detail
    t_star_pred, t_local_pred = _predictions(theta0, samples[0] if samples else None, p, plan, constants)

    return RunRecord(
        config=config,
        samples=samples,
        outcome=outcome,
        outcome_detail=detail,
        t_star_predicted=t_star_pred,
        t_local_predicted=t_local_pred,
        wall_time=time.perf_counter() - started,
        step_count=steps,
        dt_min=dt_lo if steps else None,
        dt_max=dt_hi if steps else None,
    )
